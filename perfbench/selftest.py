"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Self-time arithmetic on a hand-built nested span set, including a child
   that overlaps its sibling (a worker thread) and one that outlives its
   parent.
2. Each output check rejects a wrong output.
3. One pass of each workload with a fault injected into the program:
   failed_frac must rise above 0, and only the operations the fault reaches
   may fail.

Exits 1 if any expectation fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
import workloads

failures: list[str] = []


def expect(what: str, cond: bool) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def test_span_arithmetic() -> None:
    spans = [  # name, layer, start, end, parent
        ["A", "cli", 0.0, 10.0, None],
        ["B", "addrspace", 1.0, 4.0, 0],
        ["C", "addrspace", 2.0, 3.0, 1],
        ["D", "rates", 5.0, 9.0, 0],
        ["F", "addrspace", 3.0, 6.0, 0],  # concurrent with B and D
        ["G", "epidemic", 11.0, 12.5, None],  # ends past the window
    ]
    selfs = tracer.self_times(spans)
    expect("self time of A: 10 - |[1,9]| = 2", math.isclose(selfs[0], 2.0))
    expect("self time of B: 3 - 1 = 2", math.isclose(selfs[1], 2.0))
    expect("self time of leaves = their durations", selfs[2:] == [1.0, 4.0, 3.0, 1.5])
    summary = tracer.layer_summary(spans, (0.0, 12.0))
    expect("addrspace self = B + C + F = 6", math.isclose(summary["addrspace.self_s"], 6.0))
    expect("cli share = 2 / 12", math.isclose(summary["cli.share"], 2.0 / 12.0))
    expect("uncovered = 12 - |[0,10] + [11,12]| = 1", math.isclose(summary["uncovered_s"], 1.0))
    total, calls = tracer.outermost_time(spans, ("B", "C"))
    expect("outermost B/C time counts C once inside B", (total, calls) == (3.0, 2))
    expect("union of nested and disjoint intervals",
           math.isclose(tracer.union_length([(0, 2), (1, 3), (5, 6)]), 4.0))


@dataclass
class FakeResult:
    mean_alpha: float
    standard_error: float
    total_scans: int = 1000


def test_checks(tmp: Path) -> None:
    expect("exit code 2 where 0 is due", checks.exit_code("x", 2, 0) != [])
    (tmp / "e.json").write_text(json.dumps({"beta": 52.25}))
    expect("entropy beta off by 1e-3", checks.entropy_beta(tmp / "e.json", 52.2) != [])
    (tmp / "r.csv").write_text("strategy,uncertainty_bits,info_bits,alpha_per_second\nis:l=16,1,1,0.5\n")
    expect("rates row off", checks.rates_row(tmp / "r.csv", ["is:l=16"], "is:l=16", 0.55) != [])
    expect("rates row missing strategies", checks.rates_row(tmp / "r.csv", ["rs", "is:l=16"], "is:l=16", 0.5) != [])
    bad = tmp / "bad.txt"
    expect("malformed list accepted", checks.malformed(0, "", bad, 7) != [])
    expect("malformed list names another line",
           checks.malformed(3, f"error: {bad}:8: not a valid IPv4 address", bad, 7) != [])
    expect("Monte Carlo mean 5 standard errors off", checks.mc_z("x", FakeResult(1.5, 0.1), 1.0) != [])
    expect("threads change the per-run hits", checks.same_hits([1, 2], [1, 3]) != [])
    curve = [FakeResult(0.01, 0.001, 10), FakeResult(0.5, 0.01, 100), FakeResult(0.2, 0.01, 1000)]
    expect("mss means fall with the budget", checks.mss_budget_curve(curve, 0.01) != [])
    expect("n(t) decreases", checks.epidemic_trace([1.0, 3.0, 2.0], 10, 2) != [])
    expect("n(t) exceeds N", checks.epidemic_trace([1.0, 3.0, 12.0], 10, 2) != [])
    expect("trace too short", checks.epidemic_trace([1.0, 3.0], 10, 2) != [])
    expect("rs off the scalar recursion", checks.scalar_reduction([1.0, 1.1], 448392, 358.0) != [])
    expect("t99 order broken", checks.t99_order({"is": 30.0, "ls": 20.0, "2lls": 21.0, "rs": 400.0}) != [])


def faulty_pass(workload: str, work: Path, patch) -> dict:
    """One pass of `workload` with `patch(ss)` applied; returns op failures."""
    ss = workloads.import_package()
    undo = patch(ss)
    try:
        result = workloads.run_pass(workload, 0, work, work / "out", time.monotonic())
    finally:
        undo()
    return {op["name"]: bool(op["failures"]) for op in result["ops"]}


def set_attr(owner, name, value):
    old = getattr(owner, name)
    setattr(owner, name, value)
    return lambda: setattr(owner, name, old)


def test_faults(state: Path) -> None:
    def wrong_beta(ss):  # analyze writes a beta 1 % high
        nuf = ss.cli.non_uniformity_factor
        return set_attr(ss.cli, "non_uniformity_factor",
                        lambda d: ss.NonUniformity(l=d.l, beta=nuf(d).beta * 1.01))

    def double_hits(ss):  # every early-stage Monte Carlo run counts 2 h + 1 hits
        run = ss.epidemic._EarlyEngine.run
        return set_attr(ss.epidemic._EarlyEngine, "run", lambda self, rng: 2 * run(self, rng) + 1)

    def dip(ss):  # n(t) drops at the last tick
        propagate = ss.cli.propagate

        def dipped(cfg):
            trace = propagate(cfg)
            trace.n[-1] = trace.n[-2] * 0.5
            return trace

        return set_attr(ss.cli, "propagate", dipped)

    cases = [
        ("survey", wrong_beta, {"analyze"}),
        ("early_mc", double_hits, {f"mc {tok}" for tok, _ in workloads.MC_CASES}),
        ("outbreak", dip, None),  # every operation
    ]
    for workload, patch, want in cases:
        work = state / f"selftest-{workload}-{os.getpid()}"
        try:
            workloads.write_fixtures(workload, 0, work)
            failed = faulty_pass(workload, work, patch)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        frac = sum(failed.values()) / len(failed)
        expect(f"{workload}: failed_frac {frac:.3f} > 0 with {patch.__name__}", frac > 0)
        got = {name for name, bad in failed.items() if bad}
        expect(f"{workload}: failing operations {sorted(got)}", got == (want if want is not None else set(failed)))


def main() -> int:
    state = workloads.ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    tmp = state / f"selftest-{os.getpid()}"
    tmp.mkdir()
    try:
        test_span_arithmetic()
        test_checks(tmp)
        test_faults(state)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(failures)} failures" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
