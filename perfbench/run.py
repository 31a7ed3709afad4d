"""Benchmark of scanspread: three workloads, each pass in a fresh process.

    python3 perfbench/run.py --workload {survey,early_mc,outbreak,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The run builds its fixtures from --seed
(seed 0 gives the paper fixtures; see workloads.py), then starts one pass
process after another, one at a time, for about --seconds seconds and at
least MIN_PASSES passes.  Every operation's output is checked.

With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics, medians over the run's passes:

    wall_ref_s      one pass, first operation to last check
    setup_s         process start to the first operation: imports, fixtures
    peak_rss_mb     peak resident set of one pass process
    work_ref_per_s  hosts parsed, written or materialized per second (survey),
                    simulated probes, runs x scans, per second (early_mc),
                    simulated ticks per second (outbreak), over the time of
                    the operations that do that work

The host this runs on is shared: for stretches of seconds to minutes it
slows every process here by up to half.  So each pass also times a fixed
calibration probe (workloads.Calibration) after every operation, and the
three timings above are at a fixed reference machine speed (see
e2e_metrics).  The report above the JSON line also gives them as measured
(wall_s, hosts_per_s, ...), the tail of wall_s when there are enough
passes, and failed_frac.

With --trace 1, untraced and traced passes alternate, and the JSON line holds
the per-layer metrics listed in BENCHMARK.json (medians over traced passes),
among them trace.overhead_s: wall_ref_s of the traced passes minus that of
the untraced ones.  Every
per-layer metric, including those the JSON line leaves out because the
workload never reaches their layer, is printed above it by name, or with the
reason it is missing.  The spans of the last traced pass are written to
.perfbench/spans-<workload>-seed<N>.json.

--workload all runs the three workloads one after another and prints each
one's report; its last line holds the three results by workload.

The run exits 2, without a result, if the checkout has no scanspread
sources, and 1 if a pass process fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

MIN_PASSES = 3
DEADLINE_S = 170  # a run ends, one way or the other, within this many seconds
WORK_NAMES = {"survey": "hosts_per_s", "early_mc": "probes_per_s", "outbreak": "ticks_per_s"}
E2E_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_ref_per_s": "1/s"}
LAYER_UNITS = {**tracer.UNITS, "trace.overhead_s": "s"}


def per_layer_names() -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def run_pass(workload: str, seed: int, work: Path, index: int, traced: bool, deadline: float) -> dict:
    result_path = work / f"{index:03d}.json"
    log_path = work / f"{index:03d}.log"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed),
           "--work", str(work), "--result", str(result_path), "--spawned-at", repr(time.monotonic())]
    if traced:
        cmd.append("--trace")
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            raise SystemExit(f"error: a {workload} pass ran past the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        sys.stderr.write(log_path.read_text(encoding="utf-8")[-4000:])
        raise SystemExit(f"error: {workload} pass process exited {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_passes(workload: str, seed: int, seconds: float, trace: bool, work: Path, deadline: float) -> list[dict]:
    """Passes until the next one would end past `seconds`; at least
    MIN_PASSES untraced passes, or with `trace` at least one
    untraced/traced pair, alternating which runs first."""
    t0 = time.monotonic()
    passes: list[dict] = []
    longest = 0.0
    while True:
        if trace:
            first = len(passes) // 2 % 2 == 1
            order = (first, not first)
        else:
            order = (False,)
        for traced in order:
            started = time.monotonic()
            r = run_pass(workload, seed, work, len(passes), traced, deadline)
            r["traced"] = traced
            passes.append(r)
            longest = max(longest, time.monotonic() - started)
        elapsed = time.monotonic() - t0
        enough = len(passes) >= (2 if trace else MIN_PASSES)
        if enough and elapsed + longest * len(order) > seconds:
            return passes


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values) -> tuple[float | None, float | None]:
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or (None, None) with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None, None
    k = n - 10  # 1-based rank; ten samples lie above it
    return 100.0 * k / n, sorted(values)[k - 1]


def scale(passes: list[dict]) -> float:
    """Factor from measured seconds to the reference machine speed: the
    reference probe time over the median probe time of the passes."""
    return workloads.CAL_REF_S / median([t for p in passes for t in p["probes"]])


def fastest(passes: list[dict]) -> dict[str, float]:
    """Each operation's fastest time over the passes, plus the median glue
    between operations (checks, input copies) under the key None."""
    best = {op["name"]: min(o["seconds"] for p in passes for o in p["ops"] if o["name"] == op["name"])
            for op in passes[0]["ops"]}
    best[None] = median([p["wall_s"] - sum(op["seconds"] for op in p["ops"]) for p in passes])
    return best


def work_rate(p: dict) -> float:
    busy = [op for op in p["ops"] if op["work"] > 0]
    return sum(op["work"] for op in busy) / sum(op["seconds"] for op in busy)


def e2e_metrics(passes: list[dict]) -> dict[str, float]:
    """End-to-end metrics of a run's untraced passes.

    The host slows this machine in two ways: bursts of a few seconds that
    hit some operations of a pass, and slow stretches of a minute or more
    that hit whole runs.  So wall_ref_s and work_ref_per_s take each
    operation at its fastest over the passes, which drops the bursts, and
    scale by the run's calibration probes, which takes out the stretches.
    setup_s is the median set-up, scaled the same way.  wall_s and
    work_per_s are medians over passes as measured.
    """
    k = scale(passes)
    best = fastest(passes)
    work = {op["name"]: op["work"] for op in passes[0]["ops"]}
    busy = [name for name, w in work.items() if w > 0]
    return {
        "wall_ref_s": k * sum(best.values()),
        "setup_s": k * median([p["setup_s"] for p in passes]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "work_ref_per_s": sum(work[n] for n in busy) / (k * sum(best[n] for n in busy)),
        "wall_s": median([p["wall_s"] for p in passes]),
        "work_per_s": median([work_rate(p) for p in passes]),
    }


def counts(passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    messages = []
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            if op["failures"]:
                failed += 1
                messages.append(f"{op['name']}: {op['failures'][0].strip()}")
    return attempted, failed, messages


def report_e2e(workload: str, passes: list[dict], metrics: dict, attempted: int, failed: int) -> None:
    walls = [p["wall_s"] for p in passes]
    work = WORK_NAMES[workload]
    print(f"== {workload}: {len(passes)} untraced passes")
    print(f"  {'pass wall_s':<24} " + " ".join(f"{w:.3f}" for w in walls))
    print(f"  {'pass calibration scale':<24} " + " ".join(f"{scale([p]):.3f}" for p in passes))
    print(f"  {'wall_s':<24} {metrics['wall_s']:.6g} s (median of {len(walls)} passes)")
    pct, value = tail(walls)
    if pct is None:
        print(f"  {'wall_s tail':<24} n/a: needs at least 11 passes, got {len(walls)}")
    else:
        print(f"  {'wall_s p%.0f' % pct:<24} {value:.6g} s ({len(walls)} samples)")
    print(f"  {'wall_ref_s':<24} {metrics['wall_ref_s']:.6g} s (at reference speed)")
    print(f"  {'setup_s':<24} {metrics['setup_s']:.6g} s (at reference speed)")
    print(f"  {'peak_rss_mb':<24} {metrics['peak_rss_mb']:.6g} MB")
    print(f"  {work:<24} {metrics['work_per_s']:.6g} 1/s")
    print(f"  {work + ' (work_ref_per_s)':<24} {metrics['work_ref_per_s']:.6g} 1/s (at reference speed)")
    print(f"  {'failed_frac':<24} {failed / attempted:.6g} ({failed}/{attempted} operations)")


def per_layer(passes: list[dict]) -> dict[str, dict]:
    """Median over traced passes of every per-layer metric, and the tracing
    overhead: traced minus untraced wall_ref_s."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    out = {}
    for name, first in traced[0]["trace"]["metrics"].items():
        values = [p["trace"]["metrics"][name]["value"] for p in traced if "value" in p["trace"]["metrics"][name]]
        out[name] = {"value": median(values)} if values else first
    out["trace.overhead_s"] = {"value": e2e_metrics(traced)["wall_ref_s"] - e2e_metrics(untraced)["wall_ref_s"]}
    return out


def report_layers(workload: str, metrics: dict[str, dict]) -> None:
    print(f"-- {workload}: per-layer metrics (median of traced passes)")
    for name, m in metrics.items():
        if "value" in m:
            print(f"  {name:<32} {m['value']:.6g} {LAYER_UNITS[name]}")
        else:
            print(f"  {name:<32} n/a: {m['missing']}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{workload}-{os.getpid()}"
    try:
        workloads.write_fixtures(workload, seed, work)
        passes = run_passes(workload, seed, seconds, trace, work, deadline)
        if trace:
            last = [p for p in passes if p["traced"]][-1]
            shutil.copyfile(last["trace"]["spans_file"], STATE / f"spans-{workload}-seed{seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(STATE / f"passes-{workload}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(passes, fh)

    metrics = e2e_metrics([p for p in passes if not p["traced"]])
    attempted, failed, messages = counts(passes)
    report_e2e(workload, [p for p in passes if not p["traced"]], metrics, attempted, failed)
    for msg in messages[:20]:
        print(f"  FAILED {msg}")
    if trace:
        layers = per_layer(passes)
        report_layers(workload, layers)
        names, units = per_layer_names(), LAYER_UNITS
        metrics = {name: layers[name]["value"] for name in names}
    else:
        names, units = list(E2E_UNITS), E2E_UNITS
    for name in names:
        if not math.isfinite(metrics[name]):
            raise SystemExit(f"error: {workload} metric {name} is {metrics[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="scanspread benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0, help="0 reproduces the paper fixtures")
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (workloads.SRC / "scanspread" / "__init__.py").is_file():
        print(f"error: no scanspread sources under {workloads.SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
