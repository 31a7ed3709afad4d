"""Outbreak simulation: Monte Carlo early-stage rate estimation and a
deterministic per-subnet mean-field model.

Early stage.  The runs scan the HostSet their config holds (a distribution
is drawn into one by `materialize_hosts` first).  One infected scanner
draws `total_scans` targets by its strategy's `TargetLaw`; each run counts
probes that land on vulnerable hosts (with multiplicity) and yields a rate
estimate hits * s / total_scans.  Runs go serially in blocks of about 2**16
targets (2**12 runs for MSS sweeps): block b draws all its runs' inputs as
whole-block arrays from one Generator on the b-th child stream spawned from
the master seed (the runs' homes for ls and 2lls, then one (runs, scans)
TargetLaw draw for every kind but MSS: one integer per target for is with
q_g = p_g, a uniform address and a uniform tier choice per target for ls
and 2lls), and takes one membership pass.  The block size depends on
total_scans alone, so results are reproducible and the `threads` setting
changes neither the results nor the work done.  Only exact sums of hits and
hits**2 are kept across blocks, so memory does not grow with the number of
runs.

Full dynamics.  Time advances in ticks.  With n_t infected in total and m_i
infected in /l group i, each (source, target-group) pair has a per-scan
probability q of hitting one specific address, so a target address in group
i survives a tick with probability exp(E_i), E_i = sum s * tick * sources *
log1p(-q).  One survival operator advances every family,

    m_i(t+1) = min(m_i(t) + pp * (N_i - m_i(t)) * (-expm1(E_i)), N_i)

with pp the proactive-protection factor (1 without protection).  Every
family's exponent is one linear form, read off its `TargetLaw`,

    E_i = a * m_i + c_i * (s * tick * n_t) + sum_k b_k * W_k(i):

every source scans by the shared group law (c_i), and one in group i's
block of a home tier also by that tier (a for group i itself, b_k for wider
tier k, such as the 2lls home /8 whose infected hosts W_k(i) sums; a law
with tiers spreads its other scans uniformly, so a and b_k are scalars).
Without tiers (rs, is, optis) a and W vanish, E_i depends on n_t alone, and
summed over groups the recursion reduces exactly to the single-population
form

    n(t+1) = n(t) + (N - n(t)) * (1 - (1 - 1/omega)**(s * n(t) * tick))

for uniform q.

Groups that agree on every input of their update (population, the shared
law's q and the block of each wider tier) and start equal stay equal.  So
the recursion runs once per class of identical groups, with the seeded
group a class of its own, and n(t) = sum over classes of multiplicity * m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .addrspace import (
    ADDRESS_BITS,
    ADDRESS_SPACE,
    GroupDistribution,
    HostSet,
    _run_starts,
    _square_sum,
    check_int,
    check_real,
    check_type,
)
from .errors import InternalConsistencyError, ParameterError, UnsupportedStrategyError
from .rates import _finite_rate, pp_factor
from .strategies import ScanStrategy, TargetLaw


@dataclass(frozen=True)
class EarlyStageConfig:
    """Inputs of a Monte Carlo early-stage estimate.

    `hosts` is the HostSet the runs scan, with at least one host; the target
    law (is, optis) is read from it too.  A distribution is drawn into hosts
    by `materialize_hosts` first.  Integer fields and s are stored as the
    Python ints and float their checks return.  `seed` drives the per-block
    streams.  `threads` is validated and kept for the record only: runs are
    serial.  The runs-long array of per-run hits is built only under
    `record_hits`.
    """

    strategy: ScanStrategy
    s: float
    total_scans: int
    runs: int
    seed: int
    hosts: HostSet = None  # required; None is refused by name
    threads: int = 1
    record_hits: bool = False

    def __post_init__(self):
        check_type(self.strategy, ScanStrategy, "strategy")
        object.__setattr__(self, "s", check_real(self.s, "scanning rate s", 0, open_lo=True))
        # Arrays of runs and of scans are allocated; at most 2**32 entries
        # keeps every request a MemoryError at worst (numpy raises ValueError
        # from 2**60 entries and OverflowError past int64).  A sample variance
        # needs 2 runs.
        object.__setattr__(self, "total_scans", check_int(self.total_scans, "total_scans", 1, ADDRESS_SPACE))
        object.__setattr__(self, "runs", check_int(self.runs, "runs", 2, ADDRESS_SPACE))
        object.__setattr__(self, "seed", check_int(self.seed, "seed", 0))
        object.__setattr__(self, "threads", check_int(self.threads, "threads", 1))
        if check_type(self.hosts, HostSet, "hosts").N == 0:
            raise ParameterError("simulation needs at least one vulnerable host")


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


_BLOCK_TARGETS = 1 << 16  # targets per membership pass: one block of runs
_SWEEP_ROWS = 1 << 12  # runs per block of an MSS sweep, which draws no targets


class _EarlyEngine:
    """`run` gives the per-run hits of one block of estimate_infection_rate's
    runs from the block's (generator, runs) pair: the block's homes (ls,
    2lls) or anchors (mss) as one array, then for every kind but mss one
    TargetLaw draw of the whole block's targets and one membership pass; or
    the MSS sweep.  The law is read from `hosts`, the hosts the runs scan.
    `perfbench/selftest.py` injects its Monte Carlo fault by patching `run`."""

    def __init__(self, cfg: EarlyStageConfig):
        st = cfg.strategy
        self.hosts = cfg.hosts
        self.total = cfg.total_scans
        self.bits = ADDRESS_BITS - st.l
        self.law = None if st.kind == "mss" else TargetLaw(st, cfg.hosts)
        self.rows = _SWEEP_ROWS if self.law is None else max(1, _BLOCK_TARGETS // cfg.total_scans)

    def run(self, block) -> np.ndarray:
        """Hits of the `n` runs of block = (rng, n), in order."""
        rng, n = block
        hosts = self.hosts
        if self.law is None:
            # stage 2 in isolation: sweep anchored at a random vulnerable
            # host's block, starting just past it.  Sequential scanning is
            # deterministic given the anchor, so hits are an exact interval count.
            i = rng.integers(0, hosts.N, size=n)
            return _sweep_hits(hosts, self.bits, hosts.addresses[i], self.total, i + 1)
        homes = hosts.addresses[rng.integers(0, hosts.N, size=(n, 1))] >> self.bits if self.law.tiers else None
        return hosts.count_members_per_row(self.law.draw(rng, (n, self.total), homes))


def _sweep_hits(hosts: HostSet, bits: int, anchor, n_scans, upto):
    """Hits of cyclic ascending sweeps of hosts' 2**bits-address blocks: each
    scans n_scans addresses of anchor's block from anchor + 1, where `upto`
    counts the hosts at or below anchor (i + 1 for anchor = hosts.addresses[i]);
    anchors, scan counts and ranks are scalars or arrays that broadcast.  Below
    its whole passes a sweep either ends inside its head (anchor + 1 to the
    block's end; the whole block when anchor is its last address) or wraps
    into a tail from the block's start, so one count of the hosts below three
    bounds per anchor -- the block's start, its end, and the end of the head
    or of the tail -- gives every term."""
    anchor = np.asarray(anchor, dtype=np.int64)
    block = 1 << bits
    start = anchor >> bits << bits
    offset = (anchor - start + 1) % block
    full, rem = np.divmod(np.asarray(n_scans, dtype=np.int64), block)
    end = offset + rem
    wrap = end > block
    bounds = np.broadcast_arrays(start, start + block, start + end - wrap * block)
    lo, hi, last = hosts.count_in_interval(0, np.stack(bounds))
    return full * (hi - lo) + (np.where(wrap, hi, last) - np.where(offset == 0, lo, upto)) + wrap * (last - lo)


def _per_run_hits(cfg: EarlyStageConfig, seq: np.random.SeedSequence, rows: int,
                  block_hits) -> tuple[int, int, np.ndarray | None]:
    """Exact sums of hits and hits**2 over cfg.runs runs in blocks of `rows`,
    and the runs-long hit array under cfg.record_hits only: block b gets one
    Generator on child b of seq (spawned one block at a time, so the
    children are those of seq.spawn(blocks)), and `block_hits((rng, n))`
    gives its n runs' hits."""
    runs = cfg.runs
    total = square = 0
    hits = np.empty(runs, dtype=np.int64) if cfg.record_hits else None
    for lo in range(0, runs, rows):
        n = min(rows, runs - lo)
        h = block_hits((np.random.default_rng(seq.spawn(1)[0]), n))
        total += int(h.sum())
        square += _square_sum(h)
        if hits is not None:
            hits[lo:lo + n] = h
    return total, square, hits


def _result(cfg: EarlyStageConfig, total_scans: int, total: int, square: int,
            hits: np.ndarray | None) -> EarlyStageResult:
    n = cfg.runs
    scale = cfg.s / total_scans
    # exact integers until the one correctly rounded division each; a moment past the floats is refused
    return EarlyStageResult(
        strategy=cfg.strategy.label,
        total_scans=total_scans,
        runs=n,
        seed=cfg.seed,
        mean_alpha=_finite_rate(total / n * scale, "mean_alpha"),
        var_alpha=_finite_rate((n * square - total * total) / (n * (n - 1)) * scale * scale, "var_alpha"),
        per_run_hits=hits,
    )


def estimate_infection_rate(cfg: EarlyStageConfig) -> EarlyStageResult:
    """Monte Carlo estimate of the early-stage rate of cfg.strategy.

    Per run, alpha_hat = hits * s / total_scans; reports the sample mean and
    sample variance (ddof=1) over runs.  MSS here measures the sequential
    stage alone (sweep anchored at a random vulnerable host).
    """
    engine = _EarlyEngine(cfg)
    moments = _per_run_hits(cfg, np.random.SeedSequence(cfg.seed), engine.rows, engine.run)
    return _result(cfg, cfg.total_scans, *moments)


def estimate_mss_full(cfg: EarlyStageConfig, scan_budgets: list[int]) -> list[EarlyStageResult]:
    """MSS from a cold start, one result per scan budget.

    Each run scans uniformly until the first hit (stage length drawn
    geometrically, the hit host uniform among the vulnerable), then sweeps
    that host's block with whatever budget remains.  Runs out of budget
    before the first hit count zero.  Budget i runs its blocks on the
    children of the master seed's child i, so budgets are independent.
    """
    if cfg.strategy.kind != "mss":
        raise ParameterError("estimate_mss_full is only defined for mss")
    budgets = [check_int(b, "scan budget", 1, ADDRESS_SPACE) for b in scan_budgets]  # as total_scans
    if not budgets:
        raise ParameterError("estimate_mss_full needs at least one scan budget")
    hosts = cfg.hosts
    bits = ADDRESS_BITS - cfg.strategy.l
    p_first = hosts.N / ADDRESS_SPACE

    def block_hits(budget: int, block) -> np.ndarray:
        rng, n = block
        stage1 = rng.geometric(p_first, size=n)
        found = stage1 <= budget  # whether a run finds a host within budget
        i = rng.integers(0, hosts.N, size=int(np.count_nonzero(found)))
        hits = np.zeros(n, dtype=np.int64)
        hits[found] = 1 + _sweep_hits(hosts, bits, hosts.addresses[i], budget - stage1[found], i + 1)
        return hits

    seqs = np.random.SeedSequence(cfg.seed).spawn(len(budgets))
    return [_result(cfg, budget, *_per_run_hits(cfg, seq, _SWEEP_ROWS, partial(block_hits, budget)))
            for budget, seq in zip(budgets, seqs)]


# -- deterministic per-subnet dynamics -------------------------------------


@dataclass(frozen=True)
class EpidemicConfig:
    """Inputs of the mean-field outbreak model.

    `horizon` is the number of ticks; `initial` is a group index at the
    strategy's level, in [0, 2**l), or "densest" (the most-populated group,
    ties to the lowest index).  `pp` optionally applies a proactive-protection
    factor (d, p) to every new infection.  s and tick are stored as floats.
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
        check_type(self.strategy, ScanStrategy, "strategy")
        check_type(self.dist, GroupDistribution, "dist")
        object.__setattr__(self, "s", check_real(self.s, "scanning rate s", 0, open_lo=True))
        object.__setattr__(self, "tick", check_real(self.tick, "tick", 0, open_lo=True))
        # horizon + 1 values of n(t) are allocated; the bound keeps that a
        # MemoryError at worst, as for EarlyStageConfig's counts
        object.__setattr__(self, "horizon", check_int(self.horizon, "horizon", 1, ADDRESS_SPACE))
        if not (isinstance(self.initial, str) and self.initial == "densest"):
            object.__setattr__(self, "initial", check_int(self.initial, "initial", 0, (1 << self.strategy.l) - 1))
        if self.pp is not None:
            try:
                d, p = self.pp
            except (TypeError, ValueError):
                raise ParameterError(f"pp must be a pair (d, p), got {self.pp!r}") from None
            pp_factor(d, p)


@dataclass(frozen=True)
class EpidemicTrace:
    """The outbreak's n(t) and, under `record_per_subnet`, its per-class
    values: `per_class` is (ticks + 1, classes), one column per class of
    identical groups, and `cls` the class of each occupied group.  The
    per-group view `per_subnet` is built from them on each access."""

    strategy: str
    l: int
    s: float
    tick: float
    total_population: int
    n: np.ndarray
    per_class: np.ndarray | None = None
    cls: np.ndarray | None = None

    @property
    def per_subnet(self) -> np.ndarray | None:
        """(ticks + 1, occupied groups): each group's column is its class's."""
        return None if self.per_class is None else self.per_class[:, self.cls]

    def times(self) -> np.ndarray:
        return np.arange(self.n.size) * self.tick


def _lump(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classes of the positions whose keys all agree, numbered in np.lexsort
    order (the last key most significant): the class of each position, each
    class's size and one position of each class."""
    order = np.lexsort(keys)
    new = np.logical_or.reduce([_run_starts(key[order]) for key in keys])
    rank = new.astype(np.intp)  # cast first: a cumsum of bools buffers a cast copy
    np.cumsum(rank, out=rank)
    rank -= 1
    cls = np.empty_like(rank)
    cls[order] = rank
    first = np.flatnonzero(new)
    return cls, np.diff(first, append=order.size), order[first]


def _log_survival(st: ScanStrategy, dist: GroupDistribution, s_tick: float, seed: int):
    """Lump dist's occupied groups into classes of identical groups and give
    the coefficients of the family's log-survival exponent over them.

    Returns (cls, mult, c, a, wider): the class of each occupied group, the
    number of groups in each class, c per class and the law's scalars a and
    b of E = a * m + c * (s_tick * n) + sum over wider of repeat(b * W, runs),
    wider holding (b, starts, runs) of each home tier wider than a group and
    W = np.add.reduceat(mult * m, starts) summing its blocks' infected hosts.
    exp(E) is the probability that one address of a class's group escapes
    every scan of one tick, given m infected per group of each class and n
    in all.  Groups of one class agree on their population, their hit
    probability under the shared law and the block of each wider tier.  The
    seeded group (position `seed`) is a class of its own.  Classes are
    sorted by their wider tier blocks, outermost first, so each block's
    classes are one run.
    """
    law = TargetLaw(st, dist)
    far = law.group_probabilities(dist.indices) / law.block
    # a law with tiers spreads its rest uniformly (far is one value) and its tier 0 is the group
    # itself: a source in the target's block of tier k hits an address by far and by tiers k and up
    logs = [np.log1p(-(sum(mass / size for mass, size in law.tiers[k:]) + far[0])) for k in range(len(law.tiers) + 1)]
    c = np.log1p(np.negative(far, out=far), out=far)  # far's last use: in place
    blocks = [dist.indices // (size // law.block) for _, size in law.tiers[1:]]
    cls, mult, rep = _lump(np.arange(dist.occupied) == seed, dist.counts, c, *blocks)
    a, *b = [s_tick * (inner - outer) for inner, outer in zip(logs, logs[1:])] or [0.0]
    wider = [(bk, *np.unique(key[rep], return_index=True, return_counts=True)[1:]) for bk, key in zip(b, blocks)]
    return cls, mult, c[rep], a, wider


def propagate(cfg: EpidemicConfig) -> EpidemicTrace:
    """Run the per-subnet recursion for cfg.horizon ticks.

    Infected counts are real-valued (mean-field); n[0] = 1 seeded in the
    initial group.  The recursion runs once per class of identical groups
    (`_log_survival`): groups that agree on every input of their update and
    start equal stay equal, and the seeded group is a class of its own, so
    n(t) = sum over classes of multiplicity * m.  Under `record_per_subnet`
    the trace keeps one column per class (`per_class`) and the class of each
    occupied group (`cls`), in the order of `cfg.dist.coarsen(l).indices`;
    `per_subnet` expands them to one column per group.  MSS is stateful per
    scanner and has no group law, so it is not representable here.  Raises
    InternalConsistencyError if n(t) decreases or exceeds N.
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
    if cfg.initial == "densest":
        i0 = int(np.argmax(dist.counts))
    else:
        i0 = int(np.searchsorted(dist.indices, cfg.initial))
        if i0 == dist.occupied or dist.indices[i0] != cfg.initial:
            raise ParameterError(f"initial group {cfg.initial} has no vulnerable hosts")
    s_tick = cfg.s * cfg.tick
    cls, mult, c, a, wider = _log_survival(st, dist, s_tick, i0)
    pop = np.empty(mult.size)
    pop[cls] = dist.counts
    weights = mult.astype(np.float64)
    protect = None if cfg.pp is None else pp_factor(*cfg.pp)

    m = np.zeros(mult.size)
    m[cls[i0]] = 1.0
    e, tmp = np.empty_like(m), np.empty_like(m)
    n_series = np.empty(cfg.horizon + 1)
    n_series[0] = 1.0
    per_class = None
    if cfg.record_per_subnet:
        per_class = np.empty((cfg.horizon + 1, m.size))
        per_class[0] = m
    # a = 0 without home tiers and protect = 1 without pp: skipping those
    # terms changes no bit of m (0 + y differs from y at most in a zero's sign)
    for t in range(1, cfg.horizon + 1):  # into scratch arrays: a tick allocates only the block terms
        np.multiply(c, s_tick * n_series[t - 1], out=e)
        if a:
            e += np.multiply(a, m, out=tmp)
        for b, starts, runs in wider:
            e += np.repeat(b * np.add.reduceat(np.multiply(weights, m, out=tmp), starts), runs)
        np.expm1(e, out=e)  # minus the share of a class's uninfected hosts hit this tick
        e *= np.subtract(pop, m, out=tmp)
        if protect is not None:
            e *= protect
        m -= e
        np.minimum(m, pop, out=m)  # m <= pop by this minimum: not re-checked below
        n_series[t] = weights @ m
        if per_class is not None:
            per_class[t] = m

    if np.any(np.diff(n_series) < 0) or n_series[-1] > dist.total:
        raise InternalConsistencyError(f"{st.label}: n(t) decreased or exceeded N = {dist.total}")
    return EpidemicTrace(
        strategy=st.label,
        l=l,
        s=cfg.s,
        tick=cfg.tick,
        total_population=dist.total,
        n=n_series,
        per_class=per_class,
        cls=None if per_class is None else cls,
    )


def time_to_fraction(trace: EpidemicTrace, fraction: float) -> float | None:
    """First time n(t) reaches fraction * N, linearly interpolated between
    ticks; None if the trace never gets there.
    """
    target = check_real(fraction, "fraction", 0, 1, open_lo=True) * trace.total_population
    n = trace.n
    if n[0] >= target:
        return 0.0
    above = np.flatnonzero(n >= target)
    if above.size == 0:
        return None
    k = int(above[0])
    frac = (target - n[k - 1]) / (n[k] - n[k - 1])
    return (k - 1 + float(frac)) * trace.tick
