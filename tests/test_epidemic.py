import math
import os

import numpy as np
import pytest

import scanspread as ss
from scanspread import epidemic
from scanspread.epidemic import _sweep_hits
from scanspread.errors import ParameterError, UnsupportedStrategyError
from scanspread.strategies import ScannerState


def zipf_hosts(l=8, n=50000, dist_seed=7, mat_seed=11):
    d = ss.synth_zipf(l, 1.0, n, seed=dist_seed)
    return d, ss.materialize_hosts(d, seed=mat_seed)


def scalar_recursion(n0, pop, s, omega, ticks, tick=1.0):
    """Single-population reference recursion computed independently."""
    out = [float(n0)]
    n = float(n0)
    for _ in range(ticks):
        n = n + (pop - n) * (1.0 - (1.0 - 1.0 / omega) ** (s * n * tick))
        out.append(n)
    return np.array(out)


# -- sweep counting --------------------------------------------------------


def test_sweep_hits_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(200):
        bits = int(rng.integers(2, 8))
        block = 1 << bits
        base = int(rng.integers(0, 1 << 8)) << bits
        k = int(rng.integers(1, block + 1))
        hosts = ss.HostSet(base + rng.permutation(block)[:k])
        anchor = base + int(rng.integers(0, block))
        n_scans = int(rng.integers(0, 4 * block))
        member = set(int(a) for a in hosts.addresses)
        want = sum(
            1 for j in range(1, n_scans + 1)
            if base + ((anchor - base + j) % block) in member
        )
        assert _sweep_hits(hosts, anchor, bits, n_scans) == want


# -- early-stage Monte Carlo ----------------------------------------------


def test_early_config_validation(four_hosts):
    with pytest.raises(ParameterError):
        ss.EarlyStageConfig(ss.ScanStrategy.rs(), s=1.0, total_scans=0, runs=10, seed=0, hosts=four_hosts)
    with pytest.raises(ParameterError):
        ss.EarlyStageConfig(ss.ScanStrategy.rs(), s=1.0, total_scans=10, runs=1, seed=0, hosts=four_hosts)
    with pytest.raises(ParameterError):
        ss.EarlyStageConfig(ss.ScanStrategy.rs(), s=1.0, total_scans=10, runs=10, seed=0)
    d = ss.aggregate(four_hosts, 8)
    with pytest.raises(ParameterError):
        ss.EarlyStageConfig(ss.ScanStrategy.rs(), s=1.0, total_scans=10, runs=10, seed=0, dist=d)


def test_early_estimate_is_deterministic():
    _, hosts = zipf_hosts()

    def go(threads):
        cfg = ss.EarlyStageConfig(ss.ScanStrategy.rs(), s=100.0, total_scans=20000,
                                  runs=200, seed=5, hosts=hosts, threads=threads,
                                  record_hits=True)
        return ss.estimate_infection_rate(cfg)

    a, b, c = go(1), go(1), go(3)
    assert a.mean_alpha == b.mean_alpha == c.mean_alpha
    assert a.var_alpha == b.var_alpha == c.var_alpha
    assert np.array_equal(a.per_run_hits, c.per_run_hits)
    assert a.per_run_hits.sum() > 0
    other = ss.EarlyStageConfig(ss.ScanStrategy.rs(), s=100.0, total_scans=20000,
                                runs=200, seed=6, hosts=hosts, record_hits=True)
    assert not np.array_equal(a.per_run_hits, ss.estimate_infection_rate(other).per_run_hits)


def test_thread_pool_is_capped_at_the_cpu_count(monkeypatch):
    # A fake pool records its size and maps serially, so no thread starts.
    hosts = ss.HostSet(np.arange(0, 1 << 16, 7))
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    def go(threads):
        cfg = ss.EarlyStageConfig(ss.ScanStrategy.optimal(16), s=1.0, total_scans=100, runs=50,
                                  seed=3, hosts=hosts, dist=ss.aggregate(hosts, 16),
                                  threads=threads, record_hits=True)
        return ss.estimate_infection_rate(cfg).per_run_hits

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(epidemic, "ThreadPoolExecutor", SerialPool)
    got = go(10**6)
    assert sizes and max(sizes) <= 2
    assert got.sum() > 0 and np.array_equal(got, go(1))


def test_early_estimate_scaling_identities(four_hosts):
    cfg = ss.EarlyStageConfig(ss.ScanStrategy.optimal(8), s=60.0, total_scans=400,
                              runs=100, seed=1, hosts=four_hosts,
                              dist=ss.aggregate(four_hosts, 8), record_hits=True)
    r = ss.estimate_infection_rate(cfg)
    assert r.mean_alpha == pytest.approx(r.per_run_hits.mean() * 60.0 / 400, rel=1e-12)
    assert r.standard_error == pytest.approx(math.sqrt(r.var_alpha / r.runs), rel=1e-12)


def test_monte_carlo_agrees_with_closed_forms():
    d, hosts = zipf_hosts()
    ctx = ss.ScanContext(s=100.0, N=hosts.N, hosts=hosts)
    for token in ["rs", "is:l=8", "optis:l=8", "ls:l=8,pa=0.75", "2lls:pb=0.25,pc=0.5", "mss:l=8"]:
        st = ss.parse_strategy(token)
        cfg = ss.EarlyStageConfig(st, s=100.0, total_scans=1000, runs=3000,
                                  seed=42, hosts=hosts)
        r = ss.estimate_infection_rate(cfg)
        expect = ss.alpha_for(st, ctx).alpha
        z = (r.mean_alpha - expect) / r.standard_error
        assert abs(z) < 4.0, f"{token}: mc={r.mean_alpha} analytic={expect} z={z:.2f}"


def test_materialized_input_equals_prematerialized():
    d, hosts = zipf_hosts()
    via_dist = ss.EarlyStageConfig(ss.ScanStrategy.rs(), s=10.0, total_scans=100,
                                   runs=50, seed=3, dist=d, materialize_seed=11,
                                   record_hits=True)
    via_hosts = ss.EarlyStageConfig(ss.ScanStrategy.rs(), s=10.0, total_scans=100,
                                    runs=50, seed=3, hosts=hosts, record_hits=True)
    a = ss.estimate_infection_rate(via_dist)
    b = ss.estimate_infection_rate(via_hosts)
    assert np.array_equal(a.per_run_hits, b.per_run_hits)


def test_variance_ordering_on_uneven_blocks():
    # one heavy block and five light ones: the home/anchor block draw makes
    # LS and MSS rates swing run to run while the IS rate is the same every
    # run, so only Poisson noise remains there
    d = ss.GroupDistribution(8, [1, 50, 99, 148, 197, 246],
                             [25000, 3000, 3000, 3000, 3000, 3000])
    hosts = ss.materialize_hosts(d, seed=2)
    results = {}
    for token in ["is:l=8", "ls:l=8,pa=0.75", "mss:l=8"]:
        cfg = ss.EarlyStageConfig(ss.parse_strategy(token), s=100.0, total_scans=20000,
                                  runs=1000, seed=9, hosts=hosts)
        results[token] = ss.estimate_infection_rate(cfg)
    assert results["ls:l=8,pa=0.75"].var_alpha > 2.0 * results["is:l=8"].var_alpha
    assert results["mss:l=8"].var_alpha > 2.0 * results["is:l=8"].var_alpha


@pytest.mark.parametrize("token", ["rs", "is:l=8", "optis:l=8", "ls:l=8,pa=0.75", "2lls:pb=0.25,pc=0.5"])
def test_engine_and_scanner_state_draw_the_same_targets(token):
    # run i of the engine = ScannerState.draw_targets on child stream i, with
    # the home (ls/2lls) drawn first from that stream as the engine does
    _, hosts = zipf_hosts()
    st = ss.parse_strategy(token)
    cfg = ss.EarlyStageConfig(st, s=100.0, total_scans=100_000, runs=20, seed=4,
                              hosts=hosts, record_hits=True)
    hits = ss.estimate_infection_rate(cfg).per_run_hits
    addr = hosts.addresses.astype(np.int64)
    bits = 32 - st.l
    dist = ss.aggregate(hosts, st.l)
    want = []
    for seq in np.random.SeedSequence(4).spawn(20):
        rng = np.random.default_rng(seq)
        home = None
        if st.kind in ("ls", "2lls"):
            home = int(addr[rng.integers(0, hosts.N)]) >> bits
        state = ScannerState(st, rng, home_subnet=home, dist=dist)
        want.append(hosts.count_members(state.draw_targets(100_000)))
    assert hits.tolist() == want
    assert sum(want) > 0


# -- MSS from a cold start -------------------------------------------------


def test_mss_full_matches_literal_simulation():
    # oracle: draw every stage-1 scan explicitly, then enumerate the sweep
    d = ss.synth_uniform(256, 8, 16000)  # N ~ 4.1M so stage 1 ends quickly
    hosts = ss.materialize_hosts(d, seed=1)
    budget, runs = 3000, 1500
    member_rng = np.random.default_rng(314)
    hits = np.zeros(runs, dtype=np.int64)
    for i in range(runs):
        t = member_rng.integers(0, 2**32, size=budget, dtype=np.int64)
        # membership mask computed inline (oracle stays independent)
        idx = np.searchsorted(hosts.addresses.astype(np.int64), t)
        np.minimum(idx, hosts.N - 1, out=idx)
        mask = hosts.addresses.astype(np.int64)[idx] == t
        first = int(np.argmax(mask)) if mask.any() else -1
        if first < 0:
            continue
        anchor = int(t[first])
        block = anchor >> 24 << 24
        remaining = budget - first - 1
        sweep = block + ((anchor - block + 1 + np.arange(remaining, dtype=np.int64)) % (1 << 24))
        idx2 = np.searchsorted(hosts.addresses.astype(np.int64), sweep)
        np.minimum(idx2, hosts.N - 1, out=idx2)
        hits[i] = 1 + int(np.count_nonzero(hosts.addresses.astype(np.int64)[idx2] == sweep))
    s = 100.0
    lit_mean = hits.mean() * s / budget
    lit_se = math.sqrt(hits.var(ddof=1) / runs) * s / budget

    cfg = ss.EarlyStageConfig(ss.ScanStrategy.sequential(8), s=s, total_scans=budget,
                              runs=runs, seed=271, hosts=hosts)
    r = ss.estimate_mss_full(cfg, [budget])[0]
    gap = abs(r.mean_alpha - lit_mean)
    assert gap < 3.0 * math.sqrt(lit_se**2 + r.standard_error**2)


def test_mss_full_zero_when_budget_too_small():
    # four hosts in 2**32 addresses: practically no run finds one in 10 scans
    hosts = ss.HostSet([1, 2, 3, 4])
    cfg = ss.EarlyStageConfig(ss.ScanStrategy.sequential(16), s=100.0, total_scans=10,
                              runs=500, seed=0, hosts=hosts)
    r = ss.estimate_mss_full(cfg, [10])[0]
    assert r.mean_alpha == 0.0


def test_mss_full_requires_mss(four_hosts):
    cfg = ss.EarlyStageConfig(ss.ScanStrategy.rs(), s=1.0, total_scans=10,
                              runs=10, seed=0, hosts=four_hosts)
    with pytest.raises(ParameterError):
        ss.estimate_mss_full(cfg, [10])
    cfg2 = ss.EarlyStageConfig(ss.ScanStrategy.sequential(16), s=1.0, total_scans=10,
                               runs=10, seed=0, hosts=four_hosts)
    with pytest.raises(ParameterError):
        ss.estimate_mss_full(cfg2, [])


def test_mss_full_deterministic(four_hosts):
    cfg = ss.EarlyStageConfig(ss.ScanStrategy.sequential(16), s=1.0, total_scans=10,
                              runs=100, seed=8, hosts=four_hosts, threads=2)
    a = ss.estimate_mss_full(cfg, [100, 1000])
    b = ss.estimate_mss_full(cfg, [100, 1000])
    assert [r.mean_alpha for r in a] == [r.mean_alpha for r in b]


# -- per-subnet dynamics ---------------------------------------------------


def dense_propagate(st, d, s, horizon):
    """The per-subnet recursion over all 2**l groups, empty ones included, as
    a literal loop (tick 1, seeded in the densest group): the reference the
    occupied-group propagate must match.  Returns n(t) and the occupied
    groups' columns."""
    size, block = 1 << st.l, 2.0 ** (32 - st.l)
    pop = np.zeros(size)
    pop[d.indices] = d.counts
    q = None  # the group law of rs, is and optis
    if st.kind == "rs":
        q = np.full(size, 1.0 / size)
    elif st.kind == "is":
        q = pop / pop.sum()
    elif st.kind == "optis":
        q = np.zeros(size)
        q[np.argmax(pop)] = 1.0
    m = np.zeros(size)
    m[np.argmax(pop)] = 1.0
    n, rows = [1.0], [m[d.indices]]
    for _ in range(horizon):
        if q is not None:
            e = s * n[-1] * np.log1p(-q / block)
        elif st.kind == "ls":
            home = np.log1p(-(st.p_a / block + (1 - st.p_a) / 2**32))
            e = s * (m * home + (n[-1] - m) * np.log1p(-(1 - st.p_a) / 2**32))
        else:
            r = 1 - st.p_b - st.p_c
            m8 = np.repeat(m.reshape(256, 256).sum(axis=1), 256)
            e = s * (m * np.log1p(-(st.p_c / 2**16 + st.p_b / 2**24 + r / 2**32))
                     + (m8 - m) * np.log1p(-(st.p_b / 2**24 + r / 2**32)) + (n[-1] - m8) * np.log1p(-r / 2**32))
        m = np.minimum(m + (pop - m) * -np.expm1(e), pop)
        n.append(m.sum())
        rows.append(m[d.indices])
    return np.array(n), np.array(rows)


@pytest.mark.parametrize("fixture", ["zipf16", "uniform16"])
@pytest.mark.parametrize("token", ["rs", "is:l=16", "optis:l=16", "ls:l=16,pa=0.75", "2lls:pb=0.25,pc=0.5"])
def test_propagate_over_occupied_groups_matches_the_dense_recursion(fixture, token):
    d = ss.synth_zipf(16, 1.0, 448894, seed=2) if fixture == "zipf16" else ss.synth_uniform(1256, 16, 357)
    st = ss.parse_strategy(token)
    trace = ss.propagate(ss.EpidemicConfig(st, d, s=2000.0, horizon=60, record_per_subnet=True))
    n, per_group = dense_propagate(st, d, 2000.0, 60)
    assert trace.per_subnet.shape == per_group.shape == (61, d.occupied)
    np.testing.assert_allclose(trace.n, n, rtol=1e-12, atol=0)
    np.testing.assert_allclose(trace.per_subnet, per_group, rtol=1e-12, atol=0)
    assert n[-1] > 10 * n[0]  # the outbreak grows, so the comparison covers real dynamics


def test_propagate_rs_reduces_to_single_population():
    dist = ss.synth_uniform(64, 8, 100)
    cfg = ss.EpidemicConfig(ss.ScanStrategy.rs(l=8), dist, s=358.0, horizon=80)
    trace = ss.propagate(cfg)
    ref = scalar_recursion(1, dist.total, 358.0, 2.0**32, 80)
    assert np.max(np.abs(trace.n - ref) / ref) < 1e-9


def test_propagate_uniform_is_matches_rs():
    # q = p over a uniform distribution carries no information
    dist = ss.synth_uniform(256, 8, 50)
    rs = ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.rs(l=8), dist, s=400.0, horizon=60))
    qis = ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.importance(8), dist, s=400.0, horizon=60))
    assert np.allclose(qis.n, rs.n, rtol=1e-12)


def test_propagate_degenerate_parameters_collapse_to_rs():
    dist = ss.synth_uniform(64, 8, 100)
    rs = ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.rs(l=8), dist, s=358.0, horizon=50))
    ls0 = ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.localized(8, 0.0), dist, s=358.0, horizon=50))
    assert np.allclose(ls0.n, rs.n, rtol=1e-12)
    dist16 = ss.synth_uniform(1024, 16, 100)
    rs16 = ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.rs(l=16), dist16, s=358.0, horizon=50))
    two0 = ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.two_level(0.0, 0.0), dist16, s=358.0, horizon=50))
    assert np.allclose(two0.n, rs16.n, rtol=1e-12)


def test_propagate_2lls_with_no_first_byte_mass_matches_ls():
    d = ss.synth_zipf(16, 0.8, 30000, seed=5)
    two = ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.two_level(0.0, 0.6), d, s=300.0, horizon=40))
    loc = ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.localized(16, 0.6), d, s=300.0, horizon=40))
    assert np.allclose(two.n, loc.n, rtol=1e-10)


@pytest.mark.parametrize("token", ["is:l=8", "ls:l=16,pa=0.75", "2lls:pb=0.25,pc=0.5"])
def test_propagate_respects_bounds_and_monotonicity(token):
    st = ss.parse_strategy(token)
    d = ss.synth_zipf(st.l, 1.0, 20000, seed=3)
    cfg = ss.EpidemicConfig(st, d, s=2000.0, horizon=400,
                            record_per_subnet=True)
    trace = ss.propagate(cfg)
    assert np.all(np.diff(trace.n) >= 0)
    assert trace.n[0] == 1.0
    pop = d.counts
    assert np.all(trace.per_subnet <= pop + 1e-9)
    assert np.all(trace.per_subnet >= 0)
    assert np.all(np.diff(trace.per_subnet, axis=0) >= 0)
    assert np.allclose(trace.per_subnet.sum(axis=1), trace.n, rtol=1e-12)
    assert trace.n[-1] <= d.total + 1e-6
    # the dense groups saturate quickly; the starved zipf tail keeps the
    # total short of the full population
    assert trace.n[-1] > 0.8 * d.total


def test_propagate_seeding_rules():
    d = ss.GroupDistribution(8, [3, 9, 20], [7, 7, 2])
    tr = ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.rs(l=8), d, s=100.0, horizon=1,
                                        record_per_subnet=True))
    col = {int(g): k for k, g in enumerate(d.indices)}  # per_subnet columns: the occupied groups
    assert tr.per_subnet.shape == (2, 3)
    assert tr.per_subnet[0].tolist() == [1.0, 0.0, 0.0]
    assert tr.per_subnet[0, col[3]] == 1.0  # densest, tie to the lowest index
    tr = ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.rs(l=8), d, s=100.0, horizon=1,
                                        initial=20, record_per_subnet=True))
    assert tr.per_subnet[0, col[20]] == 1.0 and tr.per_subnet[0].sum() == 1.0
    tr = ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.rs(l=8), d, s=100.0, horizon=1,
                                        initial=9, record_per_subnet=True))
    assert tr.per_subnet[0].tolist() == [0.0, 1.0, 0.0]  # group 9 is the middle column
    with pytest.raises(ParameterError):
        ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.rs(l=8), d, s=100.0, horizon=1, initial=4))
    with pytest.raises(ParameterError):
        ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.rs(l=8), d, s=100.0, horizon=1, initial=256))


def test_propagate_rejects_a_non_finite_exponent():
    # s * tick * N = inf would make inf * 0 = nan in the exponent of empty-q groups
    d = ss.synth_uniform(1256, 16, 357)
    with pytest.raises(ParameterError, match="is not finite"):
        ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.optimal(16), d, s=1e308, horizon=3))


def test_propagate_runs_above_the_dense_limit_and_below_l32(four_hosts):
    for token in ["is:l=24", "optis:l=24", "ls:l=24,pa=0.75", "rs:l=31"]:
        st = ss.parse_strategy(token)
        trace = ss.propagate(ss.EpidemicConfig(st, ss.aggregate(four_hosts, st.l), s=1e6, horizon=5,
                                               record_per_subnet=True))
        assert trace.per_subnet.shape[1] == ss.aggregate(four_hosts, st.l).occupied
        assert np.all(np.diff(trace.n) >= 0) and trace.n[-1] <= 4
    with pytest.raises(ParameterError, match="l <= 31"):
        ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.optimal(32), ss.aggregate(four_hosts, 32), s=1.0, horizon=1))


def test_propagate_rejects_mss_and_coarse_input():
    d8 = ss.synth_uniform(8, 8, 10)
    with pytest.raises(UnsupportedStrategyError):
        ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.sequential(16), d8.coarsen(8), s=1.0, horizon=1))
    with pytest.raises(ParameterError):
        ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.importance(16), d8, s=1.0, horizon=1))


def test_protection_at_requirement_boundary_restores_rs_growth():
    # deploy everywhere with p at the computed maximum: importance scanning
    # should grow like plain random scanning
    d = ss.synth_zipf(16, 1.0, 100000, seed=6)
    beta = ss.non_uniformity_factor(d).beta
    pp = (1.0, ss.pp_requirement(beta, 1.0))
    assert pp[1] > 0
    protected = ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.importance(16), d,
                                               s=358.0, horizon=30, pp=pp))
    plain = ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.rs(l=16), d, s=358.0, horizon=30))
    rel = np.abs(protected.n - plain.n) / plain.n
    assert np.max(rel) < 0.05


def test_pp_noop_when_p_is_one():
    d = ss.synth_zipf(8, 1.0, 20000, seed=3)
    with_pp = ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.importance(8), d, s=200.0,
                                             horizon=30, pp=(0.7, 1.0)))
    without = ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.importance(8), d, s=200.0, horizon=30))
    assert np.array_equal(with_pp.n, without.n)


# -- trace summaries -------------------------------------------------------


def test_time_to_fraction_interpolates():
    trace = ss.EpidemicTrace(strategy="rs", l=8, s=1.0, tick=2.0, total_population=10,
                             n=np.array([1.0, 3.0, 9.0]))
    assert ss.time_to_fraction(trace, 0.5) == pytest.approx((1 + 2 / 6) * 2.0)
    assert ss.time_to_fraction(trace, 0.1) == 0.0
    assert ss.time_to_fraction(trace, 0.99) is None
    with pytest.raises(ParameterError):
        ss.time_to_fraction(trace, 0.0)


def test_time_to_fraction_monotone_in_fraction():
    d = ss.synth_zipf(8, 1.0, 20000, seed=3)
    trace = ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.importance(8), d, s=2000.0, horizon=400))
    times = [ss.time_to_fraction(trace, f) for f in (0.1, 0.5, 0.8)]
    assert None not in times
    assert times == sorted(times)


def test_trace_times_spacing():
    d = ss.synth_uniform(4, 4, 10)
    trace = ss.propagate(ss.EpidemicConfig(ss.ScanStrategy.rs(l=4), d, s=1.0, horizon=3, tick=0.5))
    assert np.allclose(trace.times(), [0.0, 0.5, 1.0, 1.5])
