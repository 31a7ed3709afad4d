"""One pass of one benchmark workload, run in a fresh process.

    python3 perfbench/workloads.py --workload survey --seed 0 --work DIR \
        --result OUT.json --spawned-at T [--trace]

`run.py` writes the fixtures into DIR once per run (`write_fixtures`) and
starts one process per pass, so that each pass pays its own imports and
fixture loading (reported as set-up) and `peak_rss_mb` belongs to one pass.

Workloads, all on the paper-scale fixtures:

- survey: the README CLI pipeline on the zipf host list (synth hosts,
  analyze --check, rates, defense pp, analyze on a malformed copy).  Host-list
  parse, write and materialize dominate; no Monte Carlo, no propagate.
- early_mc: the library API's Monte Carlo estimators on hosts loaded in
  set-up.  RNG stream set-up, target drawing and membership tests dominate.
- outbreak: `simulate epidemic` on a sparse (1,256 of 65,536 /16s) and a
  dense (63,895 /16s) distribution.  The per-tick loop of propagate
  dominates; the sparse/dense split separates work on occupied groups from
  work on empty ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("survey", "early_mc", "outbreak")

# Paper-scale fixtures.
ZIPF = dict(l=16, exponent=1.0, n_hosts=448894)
UNIFORM = dict(n_occupied=1256, l=16, hosts_per_group=357)
# Seed 0 reproduces the paper fixtures; any other seed derives all of these.
PAPER_SEEDS = {"zipf": 2, "hosts": 5, "uniform_hosts": 21, "mc": 1000}

S = 100.0
RATE_TOKENS = ["rs", "is:l=16", "optis:l=16", "ls:l=16,pa=0.75", "2lls:pb=0.25,pc=0.5", "mss:l=16"]
MALFORMED_LINES = 50000
DEFENSE_BETA, DEFENSE_D, DEFENSE_GRID, DEFENSE_ROWS = 50.0, 1.0, "0.01:1.0:0.01", 100

MC_RUNS = 1000
MC_CASES = [  # (token, scans per run)
    ("rs", 1000), ("is:l=16", 1000), ("optis:l=16", 1000),
    ("ls:l=16,pa=0.75", 1000), ("2lls:pb=0.25,pc=0.5", 1000), ("mss:l=16", 65535),
]
MSS_FULL_RUNS = 20000
MSS_BUDGETS = [10, 100, 1000, 10000, 50000]

SPARSE_S, SPARSE_HORIZON = 358.0, 720  # per minute, 12 hours
SPARSE_CASES = [  # (label, token, extra CLI flags)
    ("rs", "rs:l=16", []),
    ("is", "is:l=16", ["--per-subnet"]),
    ("ls", "ls:l=16,pa=0.75", []),
    ("2lls", "2lls:pb=0.25,pc=0.5", []),
    ("is_pp", "is:l=16", ["--pp", "0.5,0.5"]),
]
DENSE_S, DENSE_HORIZON = 100.0, 1800  # per second, 30 minutes
DENSE_CASES = [("is", "is:l=16"), ("ls", "ls:l=16,pa=0.75"), ("2lls", "2lls:pb=0.25,pc=0.5")]

# The calibration probe's time on the reference machine (2-vCPU VM, quiet
# host).  Times scaled by CAL_REF_S / (median probe time while they were
# measured) are times at that reference speed.
CAL_REF_S = 0.048

def import_package():
    """Import scanspread from this checkout's src/, or exit 2 if it is absent."""
    if not (SRC / "scanspread" / "__init__.py").is_file():
        print(f"error: no scanspread sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import scanspread
    import scanspread.cli

    return scanspread


def fixture_seeds(seed: int) -> dict[str, int]:
    if seed == 0:
        return dict(PAPER_SEEDS)
    import numpy as np

    values = np.random.SeedSequence(seed).generate_state(len(PAPER_SEEDS)) % (1 << 31)
    return {key: int(v) for key, v in zip(PAPER_SEEDS, values)}


def write_fixtures(workload: str, seed: int, work: Path) -> None:
    """Input files every pass of `workload` reads; built once per run."""
    ss = import_package()
    seeds = fixture_seeds(seed)
    work.mkdir(parents=True, exist_ok=True)
    zipf = ss.synth_zipf(ZIPF["l"], ZIPF["exponent"], ZIPF["n_hosts"], seeds["zipf"])
    if workload in ("survey", "outbreak"):
        zipf.to_csv(work / "zipf.csv")
    if workload in ("early_mc", "outbreak"):
        ss.synth_uniform(**UNIFORM).to_csv(work / "uniform.csv")
    if workload == "early_mc":
        ss.save_host_list(work / "hosts.txt", ss.materialize_hosts(zipf, seeds["hosts"]))


class Calibration:
    """A fixed probe of the machine's current speed: an interpreter loop, a
    numpy sort, a loop of small numpy calls and a loop of element-wise
    passes over a /16-sized array, the kinds of work the workloads do.  It
    runs no scanspread code, so no change to the package moves it."""

    def __init__(self):
        import numpy as np

        self._rng = np.random.default_rng(0)
        self._data = self._rng.random(400_000)
        self._sorted = np.sort(self._data)
        self._groups = self._rng.random(1 << 16)
        self.probes: list[float] = []

    def probe(self) -> None:
        import numpy as np

        t0 = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i
        np.sort(self._data)
        for _ in range(1000):
            np.searchsorted(self._sorted, self._rng.random(64))
        m = self._groups
        for _ in range(60):
            m = np.minimum(m - 1e-3 * np.expm1(-m), 1.0)
        self.probes.append(time.perf_counter() - t0)


class Pass:
    """Operations of one pass: their times, work done and check failures."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops: list[dict] = []
        self.bytes_written = 0
        self.calibration = Calibration()
        self.calibration.probe()

    def op(self, name: str, fn, work: float = 0.0):
        """Time fn(); an exception counts as a failed operation.  A
        calibration probe follows each operation."""
        rec = {"name": name, "seconds": 0.0, "work": work, "failures": []}
        self.ops.append(rec)
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception:  # a failing operation is a result of the pass
            result = None
            rec["failures"].append(traceback.format_exc(limit=3))
        rec["seconds"] = time.perf_counter() - t0
        self.calibration.probe()
        return rec, result

    def cli(self, name: str, argv: list, out_dir: Path, work: float = 0.0):
        """Run one CLI command in-process; returns (record, exit code, stderr)."""
        from scanspread import cli

        err = io.StringIO()

        def call():
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                return cli.main([str(a) for a in argv])

        rec, code = self.op(name, call, work)
        written = sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())
        self.bytes_written += written
        return rec, code, err.getvalue()

    def check(self, rec: dict, fn) -> None:
        """Run a check with tracing paused; its failures fail `rec`."""
        if rec["failures"]:
            return  # the operation itself failed; its outputs are not there
        ctx = self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()
        with ctx:
            try:
                rec["failures"] += fn()
            except Exception:  # missing or unreadable output
                rec["failures"].append(traceback.format_exc(limit=3))


# -- survey ------------------------------------------------------------------


def survey_setup(ss, seeds, work: Path) -> dict:
    zipf = ss.synth_zipf(ZIPF["l"], ZIPF["exponent"], ZIPF["n_hosts"], seeds["zipf"])
    beta16 = ss.non_uniformity_factor(zipf).beta
    return {"beta16": beta16, "alpha_is": ss.alpha_rs(ss.ScanContext(s=S, N=zipf.total)) * beta16}


def survey_pass(ss, p: Pass, seeds, work: Path, out: Path, refs: dict) -> None:
    n = ZIPF["n_hosts"]
    hosts_txt = out / "synth" / "hosts.txt"
    rec, code, _ = p.cli("synth_hosts", ["synth", "hosts", "--dist", work / "zipf.csv", "--seed",
                                         seeds["hosts"], "--out", hosts_txt], out / "synth", work=2 * n)
    p.check(rec, lambda: checks.exit_code("synth hosts", code, 0) + checks.line_count(hosts_txt, n))

    a_dir = out / "analyze"
    rec, code, _ = p.cli("analyze", ["analyze", hosts_txt, "--check", "--report-l", "8", "--report-l", "16",
                                     "--out-dir", a_dir], a_dir, work=n)
    p.check(rec, lambda: checks.exit_code("analyze --check", code, 0)
            + checks.entropy_beta(a_dir / "entropy_l16.json", refs["beta16"]))

    r_dir = out / "rates"
    argv = ["rates", hosts_txt, "--s", S, "--out-dir", r_dir]
    for tok in RATE_TOKENS:
        argv += ["--strategy", tok]
    rec, code, _ = p.cli("rates", argv, r_dir, work=n)
    p.check(rec, lambda: checks.exit_code("rates", code, 0)
            + checks.rates_row(r_dir / "rates.csv", RATE_TOKENS, "is:l=16", refs["alpha_is"]))

    d_dir = out / "defense"
    rec, code, _ = p.cli("defense", ["defense", "pp", "--beta", DEFENSE_BETA, "--d", DEFENSE_D,
                                     "--d-grid", DEFENSE_GRID, "--out-dir", d_dir], d_dir)
    p_max = (1.0 - (1.0 - DEFENSE_D) * DEFENSE_BETA) / (DEFENSE_D * DEFENSE_BETA)
    p.check(rec, lambda: checks.exit_code("defense pp", code, 0)
            + checks.defense(d_dir / "defense.json", d_dir / "pp_curve.csv", p_max, DEFENSE_ROWS))

    # A truncated copy with one bad line in its second half.
    bad_line = MALFORMED_LINES // 2 + seeds["hosts"] % (MALFORMED_LINES // 2)
    bad = out / "malformed.txt"
    if hosts_txt.exists():
        with open(hosts_txt, encoding="utf-8") as fh:
            lines = [next(fh) for _ in range(MALFORMED_LINES)]
        lines[bad_line - 1] = "10.0.0.256\n"
        bad.write_text("".join(lines), encoding="utf-8")
    m_dir = out / "malformed"
    rec, code, err = p.cli("analyze_malformed", ["analyze", bad, "--out-dir", m_dir], m_dir, work=bad_line - 1)
    p.check(rec, lambda: checks.malformed(code, err, bad, bad_line))


# -- early_mc ----------------------------------------------------------------


def early_mc_setup(ss, seeds, work: Path, tracer) -> dict:
    hosts = ss.load_host_list(work / "hosts.txt").hosts
    uniform = ss.GroupDistribution.from_csv(work / "uniform.csv")
    uniform_hosts = ss.materialize_hosts(uniform, seeds["uniform_hosts"])
    with tracer.paused() if tracer is not None else contextlib.nullcontext():
        ctx = ss.ScanContext(s=S, N=hosts.N, hosts=hosts)
        alpha = {tok: ss.alpha_for(ss.parse_strategy(tok), ctx).alpha for tok, _ in MC_CASES}
        alpha_rs_uniform = ss.alpha_rs(ss.ScanContext(s=S, N=uniform_hosts.N))
    return {"hosts": hosts, "uniform_hosts": uniform_hosts, "alpha": alpha, "alpha_rs_uniform": alpha_rs_uniform}


def early_mc_pass(ss, p: Pass, seeds, work: Path, out: Path, refs: dict) -> None:
    hosts = refs["hosts"]
    is_hits = None
    for k, (tok, scans) in enumerate(MC_CASES):
        cfg = ss.EarlyStageConfig(ss.parse_strategy(tok), s=S, total_scans=scans, runs=MC_RUNS,
                                  seed=seeds["mc"] + k, hosts=hosts, record_hits=(tok == "is:l=16"))
        rec, r = p.op(f"mc {tok}", lambda: ss.estimate_infection_rate(cfg), work=MC_RUNS * scans)
        p.check(rec, lambda: checks.mc_z(f"mc {tok}", r, refs["alpha"][tok]))
        if tok == "is:l=16" and r is not None:
            is_hits = r.per_run_hits

    cfg = ss.EarlyStageConfig(ss.parse_strategy("is:l=16"), s=S, total_scans=1000, runs=MC_RUNS,
                              seed=seeds["mc"] + 1, hosts=hosts, threads=2, record_hits=True)
    rec, r = p.op("mc is:l=16 threads=2", lambda: ss.estimate_infection_rate(cfg), work=MC_RUNS * 1000)
    p.check(rec, lambda: checks.same_hits(is_hits, r.per_run_hits))

    cfg = ss.EarlyStageConfig(ss.parse_strategy("mss:l=16"), s=S, total_scans=max(MSS_BUDGETS),
                              runs=MSS_FULL_RUNS, seed=seeds["mc"] + len(MC_CASES) + 1,
                              hosts=refs["uniform_hosts"])
    rec, rs = p.op("mss_full", lambda: ss.estimate_mss_full(cfg, MSS_BUDGETS),
                   work=MSS_FULL_RUNS * sum(MSS_BUDGETS))
    p.check(rec, lambda: checks.mss_budget_curve(rs, refs["alpha_rs_uniform"]))


# -- outbreak ----------------------------------------------------------------


def outbreak_pass(ss, p: Pass, seeds, work: Path, out: Path, refs: dict) -> None:
    t99 = {}
    for label, tok, extra in SPARSE_CASES:
        o = out / f"sparse_{label}"
        argv = ["simulate", "epidemic", work / "uniform.csv", "--strategy", tok, "--s", SPARSE_S,
                "--time-unit", "minute", "--horizon", SPARSE_HORIZON, *extra, "--out-dir", o]
        rec, code, _ = p.cli(f"sparse {label}", argv, o, work=SPARSE_HORIZON)

        def check(code=code, o=o, label=label, extra=extra):
            failures = checks.exit_code("simulate epidemic", code, 0)
            n, total = checks.read_trace(o / "trace.csv")
            failures += checks.epidemic_trace(n, total, SPARSE_HORIZON)
            t99[label] = checks.read_t99(o / "epidemic_summary.json", "minute")
            if label == "rs":
                failures += checks.scalar_reduction(n, total, SPARSE_S)
            if "--per-subnet" in extra:
                failures += checks.per_subnet(o / "per_subnet.csv", n, UNIFORM["n_occupied"])
            if label == "is_pp" and not (t99.get("is") or 0.0) <= (t99[label] or float("inf")):
                failures.append(f"protection speeds the outbreak up: t99 {t99[label]} < {t99.get('is')}")
            if label == "2lls":
                failures += checks.t99_order({k: t99.get(k) for k in ("is", "ls", "2lls", "rs")})
            return failures

        p.check(rec, check)

    for label, tok in DENSE_CASES:
        o = out / f"dense_{label}"
        argv = ["simulate", "epidemic", work / "zipf.csv", "--strategy", tok, "--s", DENSE_S,
                "--horizon", DENSE_HORIZON, "--out-dir", o]
        rec, code, _ = p.cli(f"dense {label}", argv, o, work=DENSE_HORIZON)

        def check(code=code, o=o):
            n, total = checks.read_trace(o / "trace.csv")
            return checks.exit_code("simulate epidemic", code, 0) + checks.epidemic_trace(n, total, DENSE_HORIZON)

        p.check(rec, check)


def run_pass(workload: str, seed: int, work: Path, out: Path, spawned_at: float, tracer=None) -> dict:
    """Set up, run and check one pass; returns its measurements."""
    ss = import_package()
    if tracer is not None:
        tracer.install()
    t_setup = time.perf_counter()
    seeds = fixture_seeds(seed)
    refs = {}
    if workload == "survey":
        with tracer.paused() if tracer is not None else contextlib.nullcontext():
            refs = survey_setup(ss, seeds, work)
    elif workload == "early_mc":
        refs = early_mc_setup(ss, seeds, work, tracer)
    body = {"survey": survey_pass, "early_mc": early_mc_pass, "outbreak": outbreak_pass}[workload]

    out.mkdir(parents=True, exist_ok=True)
    setup_s = time.monotonic() - spawned_at
    p = Pass(tracer)
    t_first = time.perf_counter()
    body(ss, p, seeds, work, out, refs)
    t_end = time.perf_counter()
    shutil.rmtree(out, ignore_errors=True)

    result = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "wall_s": t_end - t_first - sum(p.calibration.probes),
        "probes": p.calibration.probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": p.ops,
        "bytes_written": p.bytes_written,
    }
    if tracer is not None:
        tracer.count("cli.bytes_written", p.bytes_written)
        result["trace"] = {
            "window": [t_setup, t_end],
            "pass": [t_first, t_end],
        }
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True, help="directory holding the fixtures")
    ap.add_argument("--result", type=Path, required=True, help="where to write the pass result (JSON)")
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() when the process was started")
    ap.add_argument("--trace", action="store_true", help="record spans; write them next to --result")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    out = args.work / f"pass-{args.result.stem}"
    result = run_pass(args.workload, args.seed, args.work, out, args.spawned_at, tracer)
    if tracer is not None:
        tracer.uninstall()
        spans_path = args.result.with_suffix(".spans.json")
        tracer.dump(spans_path)
        result["trace"]["spans_file"] = str(spans_path)
        result["trace"]["metrics"] = tracing.pass_metrics(
            tracer.spans, tracer.counters, result["trace"]["window"], result["trace"]["pass"], sum(result["probes"]))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
