"""Output checks of the benchmark workloads.

Each check takes outputs the program produced (exit codes, files, results)
and the reference they must match, and returns a list of failure messages;
an empty list means the output is correct.  Monte Carlo outputs are checked
statistically (a z-score against the closed form), never byte for byte, so
the checks stay valid when the random streams change.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

Z_LIMIT = 4.0
SCALAR_TOL = 1e-9
EXACT_TOL = 1e-12


def exit_code(what: str, code, want: int) -> list[str]:
    return [] if code == want else [f"{what}: exit code {code}, expected {want}"]


def line_count(path: Path, want: int) -> list[str]:
    got = Path(path).read_bytes().count(b"\n")
    return [] if got == want else [f"{path.name}: {got} lines, expected {want}"]


def close(what: str, got: float, want: float, rel: float = EXACT_TOL) -> list[str]:
    if math.isclose(got, want, rel_tol=rel, abs_tol=0.0):
        return []
    return [f"{what}: {got!r}, expected {want!r} (rel tol {rel:g})"]


def entropy_beta(entropy_json: Path, beta_ref: float) -> list[str]:
    with open(entropy_json, encoding="utf-8") as fh:
        beta = json.load(fh)["beta"]
    return close(f"{Path(entropy_json).name} beta", beta, beta_ref)


def rates_row(rates_csv: Path, tokens: list[str], token: str, alpha_ref: float) -> list[str]:
    with open(rates_csv, newline="", encoding="utf-8") as fh:
        rows = {row["strategy"]: row for row in csv.DictReader(fh)}
    failures = []
    if sorted(rows) != sorted(tokens):
        failures.append(f"rates.csv strategies {sorted(rows)}, expected {sorted(tokens)}")
    if token not in rows:
        return failures + [f"rates.csv has no {token} row"]
    return failures + close(f"rates.csv {token} alpha", float(rows[token]["alpha_per_second"]), alpha_ref)


def malformed(code, stderr: str, path: Path, line_no: int) -> list[str]:
    failures = exit_code("malformed host list", code, 3)
    if f"{path}:{line_no}:" not in stderr:
        failures.append(f"malformed host list: message {stderr.strip()!r} does not name line {line_no}")
    return failures


def defense(defense_json: Path, pp_curve: Path, p_max_ref: float, rows: int) -> list[str]:
    with open(defense_json, encoding="utf-8") as fh:
        failures = close("defense.json p_max", json.load(fh)["p_max"], p_max_ref)
    return failures + line_count(pp_curve, rows + 1)


def mc_z(what: str, result, alpha_ref: float) -> list[str]:
    """|mean - closed form| within Z_LIMIT standard errors."""
    se = result.standard_error
    if not se > 0:
        return [f"{what}: standard error {se!r}; cannot test against {alpha_ref!r}"]
    z = (result.mean_alpha - alpha_ref) / se
    return [] if abs(z) <= Z_LIMIT else [f"{what}: z = {z:.2f} against closed form {alpha_ref!r}"]


def same_hits(a, b) -> list[str]:
    import numpy as np

    if a is None or b is None or not np.array_equal(a, b):
        return ["per-run hits differ between threads=1 and threads=2"]
    return []


def mss_budget_curve(results, alpha_rs: float) -> list[str]:
    """Means do not decrease with the budget (within Z_LIMIT combined
    standard errors), and the smallest budget runs at the RS rate."""
    failures = []
    for a, b in zip(results, results[1:]):
        tol = Z_LIMIT * math.hypot(a.standard_error, b.standard_error)
        if b.mean_alpha < a.mean_alpha - tol:
            failures.append(f"mss_full mean falls from {a.mean_alpha!r} (budget {a.total_scans}) "
                            f"to {b.mean_alpha!r} (budget {b.total_scans})")
    return failures + mc_z(f"mss_full budget {results[0].total_scans}", results[0], alpha_rs)


def read_trace(trace_csv: Path) -> tuple[list[float], int]:
    """(n(t) series, N) from a `simulate epidemic` trace.csv."""
    with open(trace_csv, encoding="utf-8") as fh:
        header = fh.readline()
        fh.readline()
        n = [float(line.split(",")[1]) for line in fh]
    total = int(header.rsplit("N=", 1)[1])
    return n, total


def epidemic_trace(n: list[float], total: int, horizon: int) -> list[str]:
    """n(t) has horizon + 1 points, never decreases and stays <= N."""
    failures = []
    if len(n) != horizon + 1:
        failures.append(f"trace has {len(n)} points, expected {horizon + 1}")
    for k in range(1, len(n)):
        if n[k] < n[k - 1]:
            failures.append(f"n(t) decreases at tick {k}: {n[k - 1]!r} -> {n[k]!r}")
            break
    if n and max(n) > total:
        failures.append(f"n(t) reaches {max(n)!r} > N = {total}")
    return failures


def scalar_reduction(n: list[float], total: int, s_tick: float) -> list[str]:
    """rs at any level follows n(t+1) = n + (N - n)(1 - (1 - 2**-32)**(s n))."""
    m = 1.0
    for t in range(1, len(n)):
        m = m + (total - m) * (1.0 - (1.0 - 1.0 / 2.0**32) ** (s_tick * m))
        if abs(n[t] - m) / m > SCALAR_TOL:
            return [f"rs n({t}) = {n[t]!r}, scalar recursion gives {m!r}"]
    return []


def per_subnet(per_subnet_csv: Path, n: list[float], groups: int) -> list[str]:
    """One row per tick, one column per occupied group; the last row sums
    to the last n(t)."""
    with open(per_subnet_csv, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = 0
        last = ""
        for last in fh:
            rows += 1
    failures = []
    if len(header) != groups + 1:
        failures.append(f"per_subnet.csv has {len(header) - 1} group columns, expected {groups}")
    if rows != len(n):
        failures.append(f"per_subnet.csv has {rows} rows, expected {len(n)}")
    if last:
        total = math.fsum(float(v) for v in last.rstrip("\n").split(",")[1:])
        failures += close("per_subnet.csv last row sum", total, n[-1], rel=SCALAR_TOL)
    return failures


def t99_order(t99: dict[str, float | None]) -> list[str]:
    """t99(is) < t99(ls), t99(2lls) < t99(rs)."""
    if any(v is None for v in t99.values()):
        return [f"an outbreak never reaches 99 %: {t99}"]
    mid = max(t99["ls"], t99["2lls"])
    if not (t99["is"] < min(t99["ls"], t99["2lls"]) and mid < t99["rs"]):
        return [f"t99 order is < ls, 2lls < rs does not hold: {t99}"]
    return []


def read_t99(summary_json: Path, unit: str) -> float | None:
    with open(summary_json, encoding="utf-8") as fh:
        return json.load(fh)[f"t_{unit}_to_0.99"]
