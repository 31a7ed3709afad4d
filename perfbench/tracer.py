"""Span recorder that times scanspread's layers from outside.

`Tracer.install()` replaces selected public functions and methods of the
package with wrappers that record one span per call: name, layer, start,
end and the span that caused it.  A name is replaced in every scanspread
module that binds it (for example `scanspread.cli.load_host_list`, bound by
`from .addrspace import ...`), so a caller sees the wrapper wherever it looks
the name up.  Spans stay in memory until `dump()` writes them out.

Spans opened in a worker thread with no open span of its own take the main
thread's innermost open span as parent: the package's thread pools run
inside one call on the main thread, which waits for them.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("addrspace", "infometrics", "strategies", "rates", "epidemic", "cli")

# (module, attribute) per layer.  "Class.method" names a method; the rest are
# module-level functions.
WRAPPED = {
    "addrspace": (
        "load_host_list", "parse_host_list", "save_host_list", "materialize_hosts",
        "aggregate", "refine", "ccdf", "write_ccdf_csv",
        "GroupDistribution.coarsen", "GroupDistribution.from_csv", "GroupDistribution.to_csv",
        "HostSet.count_members", "HostSet.count_in_interval",
    ),
    "infometrics": (
        "beta_profile", "shannon_profile", "profiles_from_distribution",
        "entropy_report", "non_uniformity_factor",
    ),
    "strategies": ("parse_strategy", "group_scan_distribution"),
    "rates": ("rate_table", "alpha_for", "write_rates_csv", "pp_requirement", "pp_min_deployment"),
    "epidemic": ("estimate_infection_rate", "estimate_mss_full", "propagate", "time_to_fraction"),
    "cli": (
        "main", "cmd_analyze", "cmd_rates", "cmd_simulate_early",
        "cmd_simulate_epidemic", "cmd_defense", "cmd_synth",
    ),
}

MC_SPANS = ("epidemic.estimate_infection_rate", "epidemic.estimate_mss_full")


def _mc_label(cfg) -> str:
    suffix = f"@t{cfg.threads}" if cfg.threads > 1 else ""
    return f"epidemic.mc.{cfg.strategy.kind}{suffix}"


def _propagate_label(cfg) -> str:
    # density of the input distribution; at least half its groups occupied is dense
    density = "dense" if 2 * cfg.dist.occupied >= cfg.dist.n_groups else "sparse"
    return f"epidemic.propagate.{density}"


class Tracer:
    """In-memory span and counter recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, attrs]
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._paused = False
        self._mc_open = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    @contextmanager
    def paused(self):
        """Calls made inside record nothing (the benchmark's own checks)."""
        was, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = was

    def _wrap(self, fn, name: str, layer: str, label=None, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            span_name = label(*args, **kwargs) if label is not None else name
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            with tracer._lock:
                idx = len(tracer.spans)
                tracer.spans.append([span_name, layer, 0.0, 0.0, parent, {"call": name}])
            mc = name in MC_SPANS
            if mc:
                tracer._mc_open += 1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if mc:
                    tracer._mc_open -= 1
                span = tracer.spans[idx]
                span[2], span[3] = t0, t1
            if on_result is not None:
                on_result(tracer, span[5], args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "scanspread" or mod_name.startswith("scanspread.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, replacement)

    def install(self) -> "Tracer":
        import numpy as np

        import scanspread  # noqa: F401  (loads every submodule)
        import scanspread.cli  # noqa: F401

        for layer, names in WRAPPED.items():
            module = sys.modules[f"scanspread.{layer}"]
            for attr in names:
                full = f"{layer}.{attr.split('.')[-1]}"
                label, on_result = _HOOKS.get(full, (None, None))
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(raw.__func__, full, layer, label, on_result))
                    else:
                        wrapped = self._wrap(raw, full, layer, label, on_result)
                    self._undo.append((cls, meth, raw))
                    setattr(cls, meth, wrapped)
                else:
                    original = getattr(module, attr)
                    self._replace_everywhere(original, self._wrap(original, full, layer, label, on_result))

        default_rng = np.random.default_rng
        tracer = self

        def counted_default_rng(*args, **kwargs):
            if tracer._mc_open and not tracer._paused:
                tracer.count("epidemic.mc_rng_streams")
            return default_rng(*args, **kwargs)

        self._undo.append((np.random, "default_rng", default_rng))
        np.random.default_rng = counted_default_rng
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "attrs"],
                       "spans": self.spans, "counters": self.counters}, fh)


# -- per-call hooks: span labels and counters --------------------------------


def _count_members(tracer, attrs, args, kwargs, result):
    targets = args[1] if len(args) > 1 else kwargs["targets"]
    n = len(targets)
    attrs["targets"], attrs["hits"] = n, int(result)
    tracer.count("addrspace.targets_tested", n)
    tracer.count("addrspace.member_hits", int(result))


def _lines(tracer, attrs, args, kwargs, result):
    attrs["lines"] = result.hosts.N + result.duplicates_dropped + result.lines_ignored


def _mc_runs(tracer, attrs, args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    # estimate_mss_full returns one result per budget
    attrs["runs"] = cfg.runs * (len(result) if isinstance(result, list) else 1)


def _ticks(tracer, attrs, args, kwargs, result):
    attrs["ticks"] = int(result.n.size - 1)


_HOOKS = {
    "addrspace.load_host_list": (None, _lines),
    "addrspace.parse_host_list": (None, _lines),
    "addrspace.count_members": (None, _count_members),
    "epidemic.estimate_infection_rate": (_mc_label, _mc_runs),
    "epidemic.estimate_mss_full": (lambda *a, **k: "epidemic.mss_full", _mc_runs),
    "epidemic.propagate": (_propagate_label, _ticks),
}


# -- arithmetic over a span set ----------------------------------------------


def union_length(intervals, lo: float = float("-inf"), hi: float = float("inf")) -> float:
    """Length of the union of [start, end) intervals, clipped to [lo, hi)."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, layer, start, end, parent, *_ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, layer, start, end, parent, *_) in enumerate(spans):
        out.append((end - start) - union_length(children.get(i, ()), start, end))
    return out


def outermost_time(spans, names) -> tuple[float, int]:
    """Summed duration of spans named in `names` that have no ancestor also
    named in `names`, and the number of spans named in `names`."""
    names = set(names)
    total, calls = 0.0, 0
    for span in spans:
        name, _, start, end, parent = span[:5]
        if name not in names:
            continue
        calls += 1
        p = parent
        nested = False
        while p is not None:
            if spans[p][0] in names:
                nested = True
                break
            p = spans[p][4]
        if not nested:
            total += end - start
    return total, calls


def layer_summary(spans, window: tuple[float, float], excluded: float = 0.0) -> dict[str, float]:
    """Self time and share of `window` per layer, plus the uncovered time.
    `excluded` seconds of the window (calibration probes) count as neither."""
    lo, hi = window
    length = hi - lo - excluded
    selfs = self_times(spans)
    out = {}
    for layer in LAYERS:
        s = sum(t for t, span in zip(selfs, spans) if span[1] == layer)
        out[f"{layer}.self_s"] = s
        out[f"{layer}.share"] = s / length if length > 0 else 0.0
    top = [(span[2], span[3]) for span in spans if span[4] is None]
    out["uncovered_s"] = length - union_length(top, lo, hi)
    return out


# -- per-layer metrics of one traced pass --------------------------------------

KINDS = ("rs", "is", "optis", "ls", "2lls", "mss")
CLI_COMMANDS = ("analyze", "rates", "simulate_early", "simulate_epidemic", "defense", "synth")

# metric -> span names whose outermost calls it times
GROUPS = {
    "addrspace.parse_s": ("addrspace.load_host_list", "addrspace.parse_host_list"),
    "addrspace.save_s": ("addrspace.save_host_list",),
    "addrspace.materialize_s": ("addrspace.materialize_hosts",),
    "addrspace.aggregate_s": ("addrspace.aggregate", "addrspace.refine", "addrspace.coarsen"),
    "addrspace.dist_csv_s": ("addrspace.from_csv", "addrspace.to_csv"),
    "addrspace.members_s": ("addrspace.count_members",),
    "infometrics.profile_s": ("infometrics.beta_profile", "infometrics.shannon_profile",
                              "infometrics.profiles_from_distribution"),
    "infometrics.entropy_s": ("infometrics.entropy_report", "infometrics.non_uniformity_factor"),
    "strategies.group_law_s": ("strategies.group_scan_distribution",),
    "rates.table_s": ("rates.rate_table", "rates.alpha_for"),
    **{f"epidemic.mc.{k}_s": (f"epidemic.mc.{k}",) for k in KINDS},
    "epidemic.mc.is_t2_s": ("epidemic.mc.is@t2",),
    "epidemic.mss_full_s": ("epidemic.mss_full",),
    "epidemic.propagate.sparse_s": ("epidemic.propagate.sparse",),
    "epidemic.propagate.dense_s": ("epidemic.propagate.dense",),
    **{f"cli.{c}_s": (f"cli.cmd_{c}",) for c in CLI_COMMANDS},
}

# Every metric with its unit, in report order.
UNITS = {
    **{name: "s" for name in GROUPS},
    "addrspace.parse_lines_per_s": "1/s",
    "addrspace.aggregate_calls": "count",
    "addrspace.members_calls": "count",
    "addrspace.targets_tested": "count",
    "addrspace.member_hits": "count",
    "addrspace.hit_ratio": "ratio",
    "addrspace.interval_calls": "count",
    "epidemic.mc_draw_s": "s",
    "epidemic.mc_rng_streams": "count",
    "epidemic.thread_speedup": "ratio",
    "epidemic.mss_runs_per_s": "1/s",
    "epidemic.ticks": "count",
    "epidemic.tick_us": "us",
    "cli.bytes_written": "B",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "uncovered_s": "s",
    "trace.wall_s": "s",
    "trace.window_s": "s",
    "trace.spans": "count",
}


def pass_metrics(spans, counters, window, pass_window, probe_s: float) -> dict[str, dict]:
    """Every per-layer metric of one traced pass, as {"value": v} or, for a
    metric this pass gives no basis for, {"missing": reason}.

    Layer self times, shares and the uncovered time are over `window`
    (fixture set-up plus the pass); `trace.wall_s` is the pass alone.  Both
    leave out the `probe_s` seconds of calibration probes.
    """
    out: dict[str, dict] = {}

    def missing(name, calls):
        out[name] = {"missing": f"no call to {', '.join(calls)} on this workload"}

    times = {}
    for name, calls in GROUPS.items():
        total, n = outermost_time(spans, calls)
        times[name] = total if n else None
        if n:
            out[name] = {"value": total}
        else:
            missing(name, calls)

    def named(name):
        return [s for s in spans if s[0] == name]

    parse = [s for s in spans if s[0] in GROUPS["addrspace.parse_s"] and "lines" in s[5]
             and (s[4] is None or spans[s[4]][0] not in GROUPS["addrspace.parse_s"])]
    if parse:
        out["addrspace.parse_lines_per_s"] = {
            "value": sum(s[5]["lines"] for s in parse) / sum(s[3] - s[2] for s in parse)}
    else:
        missing("addrspace.parse_lines_per_s", GROUPS["addrspace.parse_s"])

    out["addrspace.aggregate_calls"] = {"value": outermost_time(spans, GROUPS["addrspace.aggregate_s"])[1]}
    out["addrspace.members_calls"] = {"value": len(named("addrspace.count_members"))}
    out["addrspace.targets_tested"] = {"value": counters.get("addrspace.targets_tested", 0)}
    out["addrspace.member_hits"] = {"value": counters.get("addrspace.member_hits", 0)}
    if counters.get("addrspace.targets_tested"):
        out["addrspace.hit_ratio"] = {
            "value": counters["addrspace.member_hits"] / counters["addrspace.targets_tested"]}
    else:
        missing("addrspace.hit_ratio", ["addrspace.count_members"])
    out["addrspace.interval_calls"] = {"value": len(named("addrspace.count_in_interval"))}

    selfs = self_times(spans)
    mc = [i for i, s in enumerate(spans) if s[0].startswith("epidemic.mc.") or s[0] == "epidemic.mss_full"]
    if mc:
        out["epidemic.mc_draw_s"] = {"value": sum(selfs[i] for i in mc)}
    else:
        missing("epidemic.mc_draw_s", MC_SPANS)
    out["epidemic.mc_rng_streams"] = {"value": counters.get("epidemic.mc_rng_streams", 0)}
    if times["epidemic.mc.is_s"] and times["epidemic.mc.is_t2_s"]:
        out["epidemic.thread_speedup"] = {"value": times["epidemic.mc.is_s"] / times["epidemic.mc.is_t2_s"]}
    else:
        out["epidemic.thread_speedup"] = {
            "missing": "needs is at threads=1 and threads=2 (epidemic.estimate_infection_rate)"}
    if times["epidemic.mss_full_s"]:
        runs = sum(s[5].get("runs", 0) for s in named("epidemic.mss_full"))
        out["epidemic.mss_runs_per_s"] = {"value": runs / times["epidemic.mss_full_s"]}
    else:
        missing("epidemic.mss_runs_per_s", ["epidemic.estimate_mss_full"])
    prop = [s for s in spans if s[0].startswith("epidemic.propagate.") and "ticks" in s[5]]
    ticks = sum(s[5]["ticks"] for s in prop)
    out["epidemic.ticks"] = {"value": ticks}
    if ticks:
        out["epidemic.tick_us"] = {"value": 1e6 * sum(s[3] - s[2] for s in prop) / ticks}
    else:
        missing("epidemic.tick_us", ["epidemic.propagate"])
    out["cli.bytes_written"] = {"value": counters.get("cli.bytes_written", 0)}

    for name, value in layer_summary(spans, window, probe_s).items():
        out[name] = {"value": value}
    out["trace.wall_s"] = {"value": pass_window[1] - pass_window[0] - probe_s}
    out["trace.window_s"] = {"value": window[1] - window[0] - probe_s}
    out["trace.spans"] = {"value": len(spans)}
    return out
