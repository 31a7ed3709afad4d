"""Outbreak simulation: Monte Carlo early-stage rate estimation and a
deterministic per-subnet mean-field model.

Early stage.  One infected scanner draws `total_scans` targets by its
strategy's `TargetLaw` (the same draw `ScannerState.draw_targets` makes);
each run counts probes that land on vulnerable hosts (with multiplicity) and
yields a rate estimate hits * s / total_scans.  Runs are independent: run i
uses the i-th child stream spawned from the master seed, so results are
reproducible and independent of the thread count.

Full dynamics.  Time advances in ticks.  With n_t infected in total and m_i
infected in /l group i, each (source, target-group) pair has a per-scan
probability q of hitting one specific address, so a target address in group
i survives a tick with probability exp(E_i), E_i = sum s * tick * sources *
log1p(-q).  One survival operator advances every family,

    m_i(t+1) = min(m_i(t) + pp * (N_i - m_i(t)) * (-expm1(E_i)), N_i)

with pp the proactive-protection factor (1 without protection).  A family
only supplies its exponent E(m, n_t): rs/is/optis sources all scan alike,
ls splits home-block sources from the rest, and 2lls splits sources in the
same /16, the same /8 and elsewhere.  For rs/is/optis E_i depends on n_t
alone, and summed over groups the recursion reduces exactly to the
single-population form

    n(t+1) = n(t) + (N - n(t)) * (1 - (1 - 1/omega)**(s * n(t) * tick))

for uniform q.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .addrspace import (
    ADDRESS_BITS,
    ADDRESS_SPACE,
    GroupDistribution,
    HostSet,
    aggregate,
    materialize_hosts,
)
from .errors import ParameterError, UnsupportedStrategyError
from .strategies import ScanStrategy, TargetLaw


@dataclass(frozen=True)
class EarlyStageConfig:
    """Inputs of a Monte Carlo early-stage estimate.

    Hosts come either from `hosts` directly or by materializing `dist` with
    `materialize_seed`.  `seed` drives the per-run streams.
    """

    strategy: ScanStrategy
    s: float
    total_scans: int
    runs: int
    seed: int
    hosts: HostSet | None = None
    dist: GroupDistribution | None = None
    materialize_seed: int | None = None
    threads: int = 1
    record_hits: bool = False

    def __post_init__(self):
        if not self.s > 0:
            raise ParameterError("scanning rate s must be > 0")
        if self.total_scans < 1:
            raise ParameterError("total_scans must be >= 1")
        if self.runs < 2:
            raise ParameterError("need runs >= 2 for a sample variance")
        if self.threads < 1:
            raise ParameterError("threads must be >= 1")
        if self.hosts is None and self.dist is None:
            raise ParameterError("supply hosts or a distribution to materialize")
        if self.hosts is None and self.materialize_seed is None:
            raise ParameterError("materializing a distribution needs materialize_seed")


@dataclass(frozen=True)
class EarlyStageResult:
    strategy: str
    total_scans: int
    runs: int
    seed: int
    mean_alpha: float
    var_alpha: float
    per_run_hits: np.ndarray | None = None

    @property
    def standard_error(self) -> float:
        return float(np.sqrt(self.var_alpha / self.runs))


def _resolve_hosts(cfg: EarlyStageConfig) -> HostSet:
    hosts = cfg.hosts if cfg.hosts is not None else materialize_hosts(cfg.dist, cfg.materialize_seed)
    if hosts.N == 0:
        raise ParameterError("simulation needs at least one vulnerable host")
    return hosts


class _EarlyEngine:
    """Single-run kernel, shared across threads: one TargetLaw draw per run
    (after the home draw for ls/2lls), or the MSS sweep."""

    def __init__(self, cfg: EarlyStageConfig, hosts: HostSet):
        st = cfg.strategy
        self.kind = st.kind
        self.hosts = hosts
        self.addr = hosts._addresses64
        self.N = hosts.N
        self.total = cfg.total_scans
        self.bits = ADDRESS_BITS - st.l
        dist = None  # only optis and is with q_g = p_g read the host distribution
        if st.kind == "optis" or (st.kind == "is" and st.q_g is None):
            dist = cfg.dist if cfg.dist is not None and cfg.dist.l >= st.l else aggregate(hosts, st.l)
        self.law = TargetLaw(st, dist)

    def run(self, rng: np.random.Generator) -> int:
        if self.kind == "mss":
            # stage 2 in isolation: sweep anchored at a random vulnerable
            # host's block, starting just past it.  Sequential scanning is
            # deterministic given the anchor, so hits are an exact interval count.
            anchor = int(self.addr[rng.integers(0, self.N)])
            return _sweep_hits(self.hosts, anchor, self.bits, self.total)
        home = None
        if self.law.needs_home:
            home = int(self.addr[rng.integers(0, self.N)]) >> self.bits
        return self.hosts.count_members(self.law.draw(rng, self.total, home))


def _sweep_hits(hosts: HostSet, anchor: int, bits: int, n_scans: int) -> int:
    """Hits of a cyclic ascending sweep of anchor's block, from anchor+1."""
    block = 1 << bits
    start = (anchor >> bits) << bits
    offset = (anchor - start + 1) % block
    full, rem = divmod(n_scans, block)
    hits = full * hosts.count_in_interval(start, start + block) if full else 0
    if rem:
        end = offset + rem
        if end <= block:
            hits += hosts.count_in_interval(start + offset, start + end)
        else:
            hits += hosts.count_in_interval(start + offset, start + block)
            hits += hosts.count_in_interval(start, start + end - block)
    return hits


def _run_all(engine_run, streams, threads: int) -> np.ndarray:
    hits = np.zeros(len(streams), dtype=np.int64)

    def work(i: int) -> None:
        hits[i] = engine_run(np.random.default_rng(streams[i]))

    threads = min(threads, os.cpu_count() or 1)  # at most one worker per CPU, however many are asked for
    if threads == 1:
        for i in range(len(streams)):
            work(i)
    else:
        chunk = max(1, len(streams) // (threads * 8))
        with ThreadPoolExecutor(max_workers=threads) as ex:
            list(ex.map(work, range(len(streams)), chunksize=chunk))
    return hits


def _result(cfg: EarlyStageConfig, total_scans: int, hits: np.ndarray) -> EarlyStageResult:
    scale = cfg.s / total_scans
    return EarlyStageResult(
        strategy=cfg.strategy.label,
        total_scans=total_scans,
        runs=cfg.runs,
        seed=cfg.seed,
        mean_alpha=float(hits.mean()) * scale,
        var_alpha=float(hits.var(ddof=1)) * scale * scale,
        per_run_hits=hits if cfg.record_hits else None,
    )


def estimate_infection_rate(cfg: EarlyStageConfig) -> EarlyStageResult:
    """Monte Carlo estimate of the early-stage rate of cfg.strategy.

    Per run, alpha_hat = hits * s / total_scans; reports the sample mean and
    sample variance (ddof=1) over runs.  MSS here measures the sequential
    stage alone (sweep anchored at a random vulnerable host).
    """
    hosts = _resolve_hosts(cfg)
    engine = _EarlyEngine(cfg, hosts)
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.runs)
    return _result(cfg, cfg.total_scans, _run_all(engine.run, streams, cfg.threads))


def estimate_mss_full(cfg: EarlyStageConfig, scan_budgets: list[int]) -> list[EarlyStageResult]:
    """MSS from a cold start, one result per scan budget.

    Each run scans uniformly until the first hit (stage length drawn
    geometrically, the hit host uniform among the vulnerable), then sweeps
    that host's block with whatever budget remains.  Runs out of budget
    before the first hit count zero.
    """
    if cfg.strategy.kind != "mss":
        raise ParameterError("estimate_mss_full is only defined for mss")
    if not scan_budgets or any(int(b) < 1 for b in scan_budgets):
        raise ParameterError("scan budgets must be positive integers")
    hosts = _resolve_hosts(cfg)
    addr = hosts._addresses64
    bits = ADDRESS_BITS - cfg.strategy.l
    p_first = hosts.N / ADDRESS_SPACE
    budget_seqs = np.random.SeedSequence(cfg.seed).spawn(len(scan_budgets))
    out = []
    for budget, seq in zip(scan_budgets, budget_seqs):
        budget = int(budget)

        def run(rng: np.random.Generator, budget: int = budget) -> int:
            stage1 = int(rng.geometric(p_first))
            if stage1 > budget:
                return 0
            anchor = int(addr[rng.integers(0, hosts.N)])
            return 1 + _sweep_hits(hosts, anchor, bits, budget - stage1)

        out.append(_result(cfg, budget, _run_all(run, seq.spawn(cfg.runs), cfg.threads)))
    return out


# -- deterministic per-subnet dynamics -------------------------------------


@dataclass(frozen=True)
class EpidemicConfig:
    """Inputs of the mean-field outbreak model.

    `horizon` is the number of ticks; `initial` is a group index or
    "densest" (the most-populated group, ties to the lowest index).  `pp`
    optionally applies a proactive-protection factor (d, p) to every new
    infection.
    """

    strategy: ScanStrategy
    dist: GroupDistribution
    s: float
    horizon: int
    tick: float = 1.0
    initial: int | str = "densest"
    pp: tuple[float, float] | None = None
    record_per_subnet: bool = False

    def __post_init__(self):
        if not self.s > 0 or not self.tick > 0:
            raise ParameterError("need s > 0 and tick > 0")
        if self.horizon < 1:
            raise ParameterError("horizon must be >= 1 tick")
        if self.pp is not None:
            d, p = self.pp
            if not 0.0 < d <= 1.0 or not 0.0 <= p <= 1.0:
                raise ParameterError("pp needs d in (0, 1] and p in [0, 1]")


@dataclass(frozen=True)
class EpidemicTrace:
    strategy: str
    l: int
    s: float
    tick: float
    total_population: int
    n: np.ndarray
    per_subnet: np.ndarray | None = None

    def times(self) -> np.ndarray:
        return np.arange(self.n.size) * self.tick


def _log_survival(st: ScanStrategy, dist: GroupDistribution, s_tick: float):
    """The family's log-survival exponent (m, n) -> array over dist's occupied groups.

    exp(exponent(m, n)) is the probability that one address of each group
    escapes every scan of one tick, given m infected per group and n in all.
    """
    block = float(1 << (ADDRESS_BITS - st.l))
    if st.kind in ("rs", "is", "optis"):
        # every source scans by the same group law: survival depends on n alone
        q = TargetLaw(st, dist).group_probabilities(dist.indices)
        log_surv = np.log1p(-q / block)  # per scan, one address
        return lambda m, n: s_tick * n * log_surv
    if st.kind == "ls":
        c_home = np.log1p(-(st.p_a / block + (1.0 - st.p_a) / ADDRESS_SPACE))
        c_away = np.log1p(-(1.0 - st.p_a) / ADDRESS_SPACE)
        return lambda m, n: s_tick * (m * c_home + (n - m) * c_away)
    # 2lls at l=16: sources in the same /16, the same /8, or elsewhere
    r = 1.0 - st.p_b - st.p_c
    c_16 = np.log1p(-(st.p_c / (1 << 16) + st.p_b / (1 << 24) + r / ADDRESS_SPACE))
    c_8 = np.log1p(-(st.p_b / (1 << 24) + r / ADDRESS_SPACE))
    c_far = np.log1p(-r / ADDRESS_SPACE)
    _, starts, runs = np.unique(dist.indices >> 8, return_index=True, return_counts=True)  # one run per /8

    def exponent(m: np.ndarray, n: float) -> np.ndarray:
        m8 = np.repeat(np.add.reduceat(m, starts), runs)
        return s_tick * (m * c_16 + (m8 - m) * c_8 + (n - m8) * c_far)

    return exponent


def propagate(cfg: EpidemicConfig) -> EpidemicTrace:
    """Run the per-subnet recursion for cfg.horizon ticks.

    Infected counts are real-valued (mean-field); n[0] = 1 seeded in the
    initial group.  `per_subnet` has one column per occupied group, in the
    order of `cfg.dist.coarsen(l).indices`.  MSS is stateful per scanner and
    has no group law, so it is not representable here.
    """
    st = cfg.strategy
    if st.kind == "mss":
        raise UnsupportedStrategyError("mss has no mean-field group law; use the Monte Carlo engines")
    l = st.l
    if cfg.dist.l < l:
        raise ParameterError(f"distribution at l={cfg.dist.l} cannot drive a strategy at l={l}")
    if l == ADDRESS_BITS:  # a scan can hit a one-address group with certainty: log1p(-1) = -inf
        raise ParameterError("the mean-field model needs l <= 31")
    dist = cfg.dist.coarsen(l)
    if dist.total == 0:
        raise ParameterError("empty distribution")
    if not math.isfinite(cfg.s * cfg.tick * dist.total):
        raise ParameterError(f"s * tick * N = {cfg.s!r} * {cfg.tick!r} * {dist.total} is not finite")
    pop = dist.counts.astype(np.float64)
    m_groups = pop.size
    if cfg.initial == "densest":
        i0 = int(np.argmax(pop))
    else:
        g0 = int(cfg.initial)
        if not 0 <= g0 < dist.n_groups:
            raise ParameterError(f"initial group {g0} out of range for l={l}")
        i0 = int(np.searchsorted(dist.indices, g0))
        if i0 == m_groups or dist.indices[i0] != g0:
            raise ParameterError(f"initial group {g0} has no vulnerable hosts")
    exponent = _log_survival(st, dist, cfg.s * cfg.tick)
    pp_factor = 1.0
    if cfg.pp is not None:
        d, p = cfg.pp
        pp_factor = 1.0 - d + d * p

    m = np.zeros(m_groups)
    m[i0] = 1.0
    n_series = np.empty(cfg.horizon + 1)
    n_series[0] = 1.0
    per_subnet = None
    if cfg.record_per_subnet:
        per_subnet = np.empty((cfg.horizon + 1, m_groups))
        per_subnet[0] = m

    for t in range(1, cfg.horizon + 1):
        inc = (pop - m) * (-np.expm1(exponent(m, n_series[t - 1])))
        m = np.minimum(m + pp_factor * inc, pop)
        n_series[t] = m.sum()
        if per_subnet is not None:
            per_subnet[t] = m

    return EpidemicTrace(
        strategy=st.label,
        l=l,
        s=cfg.s,
        tick=cfg.tick,
        total_population=dist.total,
        n=n_series,
        per_subnet=per_subnet,
    )


def time_to_fraction(trace: EpidemicTrace, fraction: float) -> float | None:
    """First time n(t) reaches fraction * N, linearly interpolated between
    ticks; None if the trace never gets there.
    """
    if not 0.0 < fraction <= 1.0:
        raise ParameterError("fraction must be in (0, 1]")
    target = fraction * trace.total_population
    n = trace.n
    if n[0] >= target:
        return 0.0
    above = np.flatnonzero(n >= target)
    if above.size == 0:
        return None
    k = int(above[0])
    frac = (target - n[k - 1]) / (n[k] - n[k - 1])
    return (k - 1 + float(frac)) * trace.tick
