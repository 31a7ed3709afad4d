import bisect
import itertools
import math
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest

import scanspread as ss
from scanspread import epidemic
from scanspread.epidemic import _sweep_hits
from scanspread.errors import ParameterError, UnsupportedStrategyError
from scanspread.rates import pp_factor
from scanspread.strategies import TargetLaw


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


def unranked_sweep(hosts, anchor, bits, n_scans):
    """_sweep_hits for anchors whose rank is not known: one count of the
    hosts at or below each anchor gives it."""
    upto = hosts.count_in_interval(0, np.asarray(anchor, dtype=np.int64) + 1)
    return _sweep_hits(hosts, bits, anchor, n_scans, upto)


def test_sweep_hits_matches_enumeration():
    def enumerated(hosts, anchor, bits, n_scans):
        block = 1 << bits
        base = anchor >> bits << bits
        member = set(hosts.addresses.tolist())
        return sum(1 for j in range(1, n_scans + 1) if base + ((anchor - base + j) % block) in member)

    rng = np.random.default_rng(0)
    for _ in range(200):
        bits = int(rng.integers(2, 8))
        block = 1 << bits
        base = int(rng.integers(0, 1 << 8)) << bits
        k = int(rng.integers(1, block + 1))
        hosts = ss.HostSet(base + rng.permutation(block)[:k])
        anchor = base + int(rng.integers(0, block))
        n_scans = int(rng.integers(0, 4 * block))
        assert unranked_sweep(hosts, anchor, bits, n_scans) == enumerated(hosts, anchor, bits, n_scans)
    # anchors at their block's last address, where anchor + 1 wraps to the
    # block start (in the space's last block, anchor + 1 is 2**32), with
    # budgets of no scan, one scan, one pass and one scan past it: as
    # scalars, and as the uint32 anchor arrays both engine callers pass,
    # with one budget (the early engine) or one budget per anchor (mss_full)
    bits, block = 4, 16
    anchors = np.array([(7 << bits) + block - 1, 2**32 - 1], dtype=np.uint32)
    hosts = ss.HostSet([(7 << bits) - 1, 7 << bits, (7 << bits) + 5, (7 << bits) + block - 1, 8 << bits,
                        2**32 - block, 2**32 - 11, 2**32 - 1])
    budgets = [0, 1, block, block + 1]
    want = [0, 1, 3, 4]
    for anchor in anchors.tolist():
        assert [enumerated(hosts, anchor, bits, n) for n in budgets] == want
        assert [unranked_sweep(hosts, anchor, bits, n) for n in budgets] == want
    assert [unranked_sweep(hosts, anchors, bits, n).tolist() for n in budgets] == [[hits] * 2 for hits in want]
    got = unranked_sweep(hosts, np.repeat(anchors, len(budgets)), bits, np.array(budgets * 2))
    assert got.tolist() == want * 2


@pytest.mark.parametrize("bits", [0, 4, 8, 16, 32])
def test_sweeps_from_anchor_ranks_equal_the_literal_sweep(bits):
    # the engine callers pass each anchor's rank i (upto = i + 1): every host
    # as an anchor, among them each block's first and last address, 0 and
    # 2**32 - 1, with budgets around one pass and past several, and per
    # anchor the budgets whose head ends at the block's end or wraps by one
    block = 1 << bits
    edges = [g * block + d for g in (1, 2, 7) for d in (0, block - 1)] if bits < 32 else []
    raw = np.concatenate([[0, 1, 2**32 - 2, 2**32 - 1], edges, np.random.default_rng(9).integers(0, 2**32, 60)])
    hosts = ss.HostSet(raw)
    addr = hosts.addresses
    sweep = partial(_sweep_hits, hosts, bits)
    ranks = np.arange(hosts.N)
    budgets = [0, 1, block - 1, block, block + 1, 3 * block + 2]
    want = {n: [literal_sweep(hosts, int(a), bits, n) for a in addr.tolist()] for n in budgets}
    for n in budgets:
        assert sweep(addr, n, ranks + 1).tolist() == want[n]
        assert [int(sweep(int(addr[i]), n, i + 1)) for i in (0, hosts.N - 1)] == [want[n][0], want[n][-1]]
    per_run = np.array(budgets * 100)[:hosts.N]
    assert sweep(addr, per_run, ranks + 1).tolist() == [want[n][i] for i, n in enumerate(per_run.tolist())]
    head = block - (addr.astype(np.int64) + 1) % block  # scans from anchor + 1 to the block's end
    for edge in (head, head + 1, head + 2 * block, head + 2 * block + 1):
        literal = [literal_sweep(hosts, a, bits, n) for a, n in zip(addr.tolist(), edge.tolist())]
        assert sweep(addr, edge, ranks + 1).tolist() == literal


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
        ss.EarlyStageConfig(ss.ScanStrategy.rs(), s=1.0, total_scans=10, runs=10, seed=0, hosts=d)


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


def test_no_thread_starts_and_threads_change_no_hit(monkeypatch):
    # runs are serial: with Thread.start raising, a huge thread count still
    # gives the per-run hits of threads=1
    hosts = ss.HostSet(np.arange(0, 1 << 16, 7))

    def no_thread(self):
        raise AssertionError("a Monte Carlo estimate started a thread")

    def go(threads):
        optis = ss.EarlyStageConfig(ss.ScanStrategy.optimal(16), s=1.0, total_scans=100, runs=50,
                                    seed=3, hosts=hosts, threads=threads, record_hits=True)
        mss = ss.EarlyStageConfig(ss.ScanStrategy.sequential(16), s=1.0, total_scans=10**6, runs=50,
                                  seed=3, hosts=hosts, threads=threads, record_hits=True)
        return [ss.estimate_infection_rate(optis).per_run_hits,
                *(r.per_run_hits for r in ss.estimate_mss_full(mss, [10**5, 10**6]))]

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    got, want = go(10**6), go(1)
    assert all(h.sum() > 0 for h in got)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_early_estimate_scaling_identities(four_hosts):
    cfg = ss.EarlyStageConfig(ss.ScanStrategy.optimal(8), s=60.0, total_scans=400,
                              runs=100, seed=1, hosts=four_hosts, record_hits=True)
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


@pytest.mark.parametrize("token, calls", [
    ("rs:l=8", 0), ("ls:l=8,pa=0.75", 0), ("2lls:pb=0.25,pc=0.5", 0), ("is:l=8", 1), ("optis:l=8", 1),
])
def test_only_the_laws_that_read_a_distribution_aggregate_the_hosts(token, calls, monkeypatch):
    _, hosts = zipf_hosts()
    seen = []

    def counted(*args):
        seen.append(args)
        return ss.addrspace.aggregate(*args)

    for module in (ss.strategies, epidemic):
        monkeypatch.setattr(module, "aggregate", counted, raising=False)
    cfg = ss.EarlyStageConfig(ss.parse_strategy(token), s=1.0, total_scans=100, runs=2, seed=0, hosts=hosts)
    ss.estimate_infection_rate(cfg)
    assert len(seen) == calls


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


def block_streams(seq, runs, rows):
    """(generator, runs) of each block of `rows` runs: block b on child b
    of seq, all children spawned at once."""
    return [(np.random.default_rng(child), min(rows, runs - lo))
            for child, lo in zip(seq.spawn(-(-runs // rows)), range(0, runs, rows))]


def draw_rows(scans):
    """Runs per block of a strategy that draws targets: 2**16 targets."""
    return max(1, 2**16 // scans)


def literal_homed_targets(st, rng, homes, scans):
    """The (runs, scans) targets of one ls/2lls block, target by target and
    without TargetLaw: the block's uniform addresses, then its uniforms, row
    by row; a target whose uniform falls in a tier keeps its address's offset
    inside that tier's block around its own run's home, and a target in the
    rest is its address."""
    bits = 32 - st.l
    tiers = [(st.p_a, 1 << bits)] if st.kind == "ls" else [(st.p_c, 1 << 16), (st.p_b, 1 << 24)]
    cum = list(itertools.accumulate(mass for mass, _ in tiers))
    sizes = [size for _, size in tiers] + [2**32]
    addresses = rng.integers(0, 2**32, size=(len(homes), scans), dtype=np.int64).tolist()
    uniforms = rng.random((len(homes), scans)).tolist()
    return np.array([[(home << bits) // size * size + a % size
                      for a, size in zip(row, (sizes[bisect.bisect_right(cum, x)] for x in xs))]
                     for home, row, xs in zip(homes, addresses, uniforms)], dtype=np.int64)


def literal_members(hosts, targets):
    """Hosts among targets, one unsorted searchsorted (the per-run test the
    block kernel replaced)."""
    addr = hosts.addresses.astype(np.int64)
    idx = np.minimum(np.searchsorted(addr, targets), addr.size - 1)
    return int(np.count_nonzero(addr[idx] == targets))


def literal_sweep(hosts, anchor, bits, n_scans):
    """The scalar sweep: one count_in_interval per interval a run scans."""
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


def literal_early_hits(st, hosts, scans, runs, seed):
    """Block by block on child stream b: the block's anchors or homes as one
    draw, then run by run the sweep, or the literal per-target draw of the
    block and each run's membership test; without homes, one TargetLaw draw
    for the whole block."""
    addr = hosts.addresses.astype(np.int64)
    bits = 32 - st.l
    law = TargetLaw(st, ss.aggregate(hosts, st.l) if st.kind in ("is", "optis") else None)
    want = []
    rows = 2**12 if st.kind == "mss" else draw_rows(scans)
    for rng, n in block_streams(np.random.SeedSequence(seed), runs, rows):
        if st.kind == "mss":
            anchors = addr[rng.integers(0, hosts.N, size=n)].tolist()
            want += [literal_sweep(hosts, anchor, bits, scans) for anchor in anchors]
        elif law.tiers:
            homes = (addr[rng.integers(0, hosts.N, size=n)] >> bits).tolist()
            want += [literal_members(hosts, row) for row in literal_homed_targets(st, rng, homes, scans)]
        else:
            want += [literal_members(hosts, row) for row in law.draw(rng, n * scans).reshape(n, scans)]
    return want


@pytest.mark.parametrize("token", ["rs", "is:l=8", "optis:l=8", "ls:l=8,pa=0.75", "2lls:pb=0.25,pc=0.5", "mss:l=8"])
@pytest.mark.parametrize("scans, runs", [(1000, 200), (70_000, 3), (10, epidemic._SWEEP_ROWS + 300)])
def test_blocked_runs_give_the_literal_per_run_hits(token, scans, runs):
    # 1000 scans: blocks of 65 runs and a partial last block; 70,000 scans:
    # one run per block; 10 scans: more runs than one mss block.  rs at 10
    # scans expects 0.51 hits in all; at seed 21 it draws one, so every
    # case's reference holds a hit
    _, hosts = zipf_hosts()
    st = ss.parse_strategy(token)
    cfg = ss.EarlyStageConfig(st, s=100.0, total_scans=scans, runs=runs, seed=21,
                              hosts=hosts, record_hits=True)
    got = ss.estimate_infection_rate(cfg).per_run_hits
    want = literal_early_hits(st, hosts, scans, runs, 21)
    assert got.dtype == np.int64 and got.tolist() == want
    assert sum(want) > 0


@pytest.mark.parametrize("l", [16, 30])
def test_mss_full_blocks_give_the_literal_per_run_hits(l):
    # per block on child b of the budget's child: the stage-1 geometrics as
    # one draw, then the anchors of the runs within budget as one draw, then
    # run by run the sweep; more runs than one block, and one budget whose
    # run 0 leaves an exact multiple of the block for its sweep
    hosts = ss.HostSet(np.random.default_rng(2).integers(0, 2**32, size=2**21))
    bits = 32 - l
    runs = epidemic._SWEEP_ROWS + 300
    addr = hosts.addresses.astype(np.int64)
    p_first = hosts.N / 2**32
    seqs = np.random.SeedSequence(23).spawn(4)
    first_stage1 = int(np.random.default_rng(seqs[2].spawn(1)[0]).geometric(p_first, size=2**12)[0])
    budgets = [10, 3000, first_stage1 + (2 << bits), 3 * 2**16 + 17]
    cfg = ss.EarlyStageConfig(ss.ScanStrategy.sequential(l), s=1.0, total_scans=10, runs=runs,
                              seed=23, hosts=hosts, record_hits=True)
    got = [r.per_run_hits.tolist() for r in ss.estimate_mss_full(cfg, budgets)]
    want = []
    for budget, seq in zip(budgets, np.random.SeedSequence(23).spawn(4)):
        hits = []
        for rng, n in block_streams(seq, runs, 2**12):
            stage1 = rng.geometric(p_first, size=n).tolist()
            anchors = iter(addr[rng.integers(0, hosts.N, size=sum(s1 <= budget for s1 in stage1))].tolist())
            hits += [1 + literal_sweep(hosts, next(anchors), bits, budget - s1) if s1 <= budget else 0
                     for s1 in stage1]
            assert next(anchors, None) is None
        want.append(hits)
    assert got == want
    assert (budgets[2] - first_stage1) % (1 << bits) == 0 and want[2][0] > 1


def test_each_block_builds_one_generator_from_its_own_child_stream(monkeypatch):
    # block b of a budget (or of the one estimate) is the only user of child
    # b: one Generator each, built in block order
    _, hosts = zipf_hosts()
    seeds = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: seeds.append(seed) or default_rng(seed))
    runs = epidemic._SWEEP_ROWS + 5
    for token, rows in [("rs", 65), ("is:l=8", 65), ("ls:l=8,pa=0.75", 65), ("mss:l=8", 2**12)]:
        seeds.clear()
        ss.estimate_infection_rate(ss.EarlyStageConfig(ss.parse_strategy(token), s=1.0, total_scans=1000,
                                                       runs=runs, seed=3, hosts=hosts))
        assert [seq.spawn_key for seq in seeds] == [(b,) for b in range(-(-runs // rows))], token
    seeds.clear()
    cfg = ss.EarlyStageConfig(ss.ScanStrategy.sequential(8), s=1.0, total_scans=10, runs=runs, seed=3, hosts=hosts)
    ss.estimate_mss_full(cfg, [10, 1000])
    assert [seq.spawn_key for seq in seeds] == [(i, b) for i in range(2) for b in range(2)]


@pytest.mark.parametrize("token, scans", [("is:l=8", 1000), ("ls:l=8,pa=0.75", 70_000), ("mss:l=8", 10**6)])
def test_moments_equal_those_of_the_recorded_hits(token, scans):
    _, hosts = zipf_hosts()
    cfg = ss.EarlyStageConfig(ss.parse_strategy(token), s=100.0, total_scans=scans, runs=300, seed=6,
                              hosts=hosts, record_hits=True)
    results = [ss.estimate_infection_rate(cfg)]
    if token.startswith("mss"):
        results += ss.estimate_mss_full(cfg, [10**5, scans])
    for r in results:
        scale = 100.0 / r.total_scans
        assert r.per_run_hits.sum() > 0
        assert r.mean_alpha == pytest.approx(r.per_run_hits.mean() * scale, rel=1e-12)
        assert r.var_alpha == pytest.approx(r.per_run_hits.var(ddof=1) * scale**2, rel=1e-12)


def test_moments_do_not_depend_on_the_block_layout():
    # exact integer sums, also of hits whose squares overflow int64
    hits = np.random.default_rng(5).integers(0, 2**32 + 1, size=1000)
    hits[:3] = 2**32
    cfg = ss.EarlyStageConfig(ss.ScanStrategy.rs(), s=1.0, total_scans=2**32, runs=hits.size, seed=0,
                              hosts=ss.HostSet([1]))

    def moments(rows):
        done = []

        def block_hits(block):
            _, n = block
            done.append(n)
            return hits[sum(done) - n:sum(done)]

        total, square, recorded = epidemic._per_run_hits(cfg, np.random.SeedSequence(0), rows, block_hits)
        assert recorded is None and sum(done) == hits.size
        return total, square

    want = (sum(hits.tolist()), sum(h * h for h in hits.tolist()))
    assert [moments(rows) for rows in (1, 7, 1000, 4096)] == [want] * 4


def test_runs_without_record_hits_keep_memory_flat():
    # moments are summed block by block: no runs-long array is allocated
    hosts = ss.HostSet(np.arange(0, 1 << 16, 7))
    runs = 2**21
    cfg = ss.EarlyStageConfig(ss.ScanStrategy.sequential(16), s=1.0, total_scans=100, runs=runs,
                              seed=0, hosts=hosts)
    tracemalloc.start()
    try:
        r = ss.estimate_infection_rate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.per_run_hits is None and r.mean_alpha > 0
    assert peak < runs * 8 / 16, peak


@pytest.mark.parametrize("token", ["rs:l=8", "is:l=8", "optis:l=8", "ls:l=8,pa=0.75", "2lls:pb=0.25,pc=0.5"])
def test_a_one_run_block_peaks_at_most_48_bytes_a_target(token):
    # the membership pass looks a block up in column slices of about _CHUNK
    # targets, so the draw sets the peak: 9.1 B a target for rs and optis, 17
    # for is (the slot draw and its slot indices) and ls, 18 for 2lls (one
    # mask per tier).  Each kind's bound is at most 4 B above that, so one
    # int64 temporary a target more fails: a tier start repeated per target,
    # say.  The membership index is built first, so that no block's peak holds it.
    bound = {"rs": 12, "is": 20, "optis": 12, "ls": 20, "2lls": 21}[token.partition(":")[0]]
    _, hosts = zipf_hosts()
    hosts.count_members_per_row(np.zeros((1, 0), dtype=np.int64))
    scans = 2**22
    cfg = ss.EarlyStageConfig(ss.parse_strategy(token), s=1.0, total_scans=scans, runs=2, seed=0, hosts=hosts)
    engine = epidemic._EarlyEngine(cfg)
    assert engine.rows == 1
    tracemalloc.start()
    try:
        engine.run((np.random.default_rng(0), 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * scans, peak / scans


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


# -- exact values ----------------------------------------------------------


@pytest.fixture(scope="module")
def pinned_hosts():
    return ss.materialize_hosts(ss.synth_zipf(8, 1.0, 300_000, seed=7), seed=11)


# mean_alpha and var_alpha, then the total hits and the sum of run index
# times hits of the recorded per-run hits, at s = 100 and seed 3: 300 runs
# of 2000 scans (blocks of 32 runs, the last one partial) for the draw kinds,
# 5000 runs (two sweep blocks) for mss
PINNED_ESTIMATES = {
    "rs": (0.007333333333333334, 0.00039754738015607583, 44, 6400),
    "is:l=8": (0.08333333333333334, 0.00431995540691193, 500, 73022),
    "optis:l=8": (0.2853333333333334, 0.014667112597547381, 1712, 263328),
    "ls:l=8,pa=0.75": (0.05516666666666667, 0.009178901895206244, 331, 50274),
    "2lls:pb=0.25,pc=0.5": (0.061, 0.010915384615384617, 366, 57136),
    "mss:l=8": (0.07941000000000001, 0.014795511002200444, 7941, 19786115),
}
# the same for estimate_mss_full, 5000 runs, by scan budget
PINNED_MSS_FULL = {
    10**5: (0.0670044, 0.008209354651570315, 335022, 837632876),
    10**6: (0.07600802000000001, 0.00998295257619484, 3800401, 9547244143),
    10**7: (0.07738067600000001, 0.010351504736850396, 38690338, 96606242700),
}


def pinned_values(r):
    """The pinned values of one result; the index-weighted sum of the hits
    changes if the recorded array leaves run order."""
    h = r.per_run_hits
    assert h.dtype == np.int64 and h.size == r.runs
    return r.mean_alpha, r.var_alpha, int(h.sum()), int(np.arange(h.size) @ h)


@pytest.mark.parametrize("token", list(PINNED_ESTIMATES))
def test_estimates_keep_their_exact_values(token, pinned_hosts):
    runs = 5000 if token.startswith("mss") else 300
    cfg = ss.EarlyStageConfig(ss.parse_strategy(token), s=100.0, total_scans=2000, runs=runs, seed=3,
                              hosts=pinned_hosts, record_hits=True)
    assert pinned_values(ss.estimate_infection_rate(cfg)) == PINNED_ESTIMATES[token]


def test_mss_full_keeps_its_exact_values(pinned_hosts):
    cfg = ss.EarlyStageConfig(ss.ScanStrategy.sequential(8), s=100.0, total_scans=2000, runs=5000, seed=3,
                              hosts=pinned_hosts, record_hits=True)
    results = ss.estimate_mss_full(cfg, list(PINNED_MSS_FULL))
    assert {r.total_scans: pinned_values(r) for r in results} == PINNED_MSS_FULL


# -- per-subnet dynamics ---------------------------------------------------


def dense_propagate(st, d, s, horizon, pp=None, initial=None):
    """The per-subnet recursion over all 2**l groups, empty ones included, as
    a literal loop (tick 1, seeded in group `initial`, by default the
    densest): the reference the class-lumped propagate must match.  Returns
    n(t) and the occupied groups' columns."""
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
    factor = 1.0 if pp is None else 1.0 - pp[0] + pp[0] * pp[1]
    m = np.zeros(size)
    m[np.argmax(pop) if initial is None else initial] = 1.0
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
        m = np.minimum(m + factor * ((pop - m) * -np.expm1(e)), pop)
        n.append(m.sum())
        rows.append(m[d.indices])
    return np.array(n), np.array(rows)


FAMILIES = ["rs", "is:l=16", "optis:l=16", "ls:l=16,pa=0.75", "2lls:pb=0.25,pc=0.5"]


@pytest.mark.parametrize("fixture", ["zipf16", "uniform16"])
@pytest.mark.parametrize("token,option", [
    *(pytest.param(t, None, id=t) for t in FAMILIES + ["ls:l=16,pa=0.1234567", "2lls:pb=0.1,pc=0.2"]),
    *(pytest.param(t, "pp", id=f"{t}-pp") for t in FAMILIES),
    # seeded in the last occupied group, which shares its population with
    # other groups: the seed class splits off a class of twins
    *(pytest.param(t, "initial", id=f"{t}-initial") for t in FAMILIES),
])
def test_propagate_over_occupied_groups_matches_the_dense_recursion(fixture, token, option):
    d = ss.synth_zipf(16, 1.0, 448894, seed=2) if fixture == "zipf16" else ss.synth_uniform(1256, 16, 357)
    st = ss.parse_strategy(token)
    kw = {"pp": (0.5, 0.5)} if option == "pp" else {"initial": int(d.indices[-1])} if option == "initial" else {}
    if option == "initial":
        assert np.count_nonzero(d.counts == d.counts[-1]) > 1 and np.argmax(d.counts) != d.occupied - 1
    trace = ss.propagate(ss.EpidemicConfig(st, d, s=2000.0, horizon=60, record_per_subnet=True, **kw))
    n, per_group = dense_propagate(st, d, 2000.0, 60, **kw)
    assert trace.per_subnet.shape == per_group.shape == (61, d.occupied)
    np.testing.assert_allclose(trace.n, n, rtol=1e-12, atol=0)
    np.testing.assert_allclose(trace.per_subnet, per_group, rtol=1e-12, atol=0)
    assert n[-1] > 10 * n[0]  # the outbreak grows, so the comparison covers real dynamics


@pytest.mark.parametrize("token", FAMILIES)
def test_groups_of_one_class_share_their_column(token):
    # on this fixture groups of equal population (for 2lls, also of one /8)
    # share their update: for is they have equal q, and for optis the one
    # group with q > 0 is the only group of the largest population
    d = ss.synth_zipf(16, 1.0, 30000, seed=3)
    st = ss.parse_strategy(token)
    seed = 2
    twins = np.flatnonzero(d.counts == d.counts[seed])
    assert twins.size > 2
    trace = ss.propagate(ss.EpidemicConfig(st, d, s=20000.0, horizon=80, initial=int(d.indices[seed]),
                                           record_per_subnet=True))
    key = d.counts + (d.indices >> 8) * (d.counts.max() + 1) if st.kind == "2lls" else d.counts
    key = np.where(np.arange(d.occupied) == seed, -1, key)
    _, cls = np.unique(key, return_inverse=True)
    rep = np.zeros(cls.max() + 1, dtype=np.intp)
    rep[cls] = np.arange(d.occupied)  # one group of each class
    cols = trace.per_subnet
    assert np.array_equal(cols, cols[:, rep[cls]])  # equal keys, equal columns at every tick
    others = twins[twins != seed]
    assert np.all(cols[0, others] == 0.0) and cols[0, seed] == 1.0
    assert np.all(cols[1, others] < cols[1, seed]) and np.all(cols[:, others] <= cols[:, [seed]])
    assert trace.n[-1] > 100  # the classes go through real dynamics


def full_tick_propagate(st, d, s, horizon, initial="densest", pp=None):
    """propagate's recursion with every term of the tick written out: a * m
    added and the protection factor applied even where they are 0 and 1."""
    i0 = int(np.argmax(d.counts)) if initial == "densest" else int(np.searchsorted(d.indices, initial))
    cls, mult, c, a, wider = epidemic._log_survival(st, d, s, i0)
    pop = np.empty(mult.size)
    pop[cls] = d.counts
    weights = mult.astype(np.float64)
    protect = 1.0 if pp is None else pp_factor(*pp)
    m = np.zeros(mult.size)
    m[cls[i0]] = 1.0
    n, rows = [1.0], [m]
    for _ in range(horizon):
        e = a * m + c * (s * n[-1])
        for b, starts, runs in wider:
            e = e + np.repeat(b * np.add.reduceat(weights * m, starts), runs)
        m = np.minimum(m - np.expm1(e) * (pop - m) * protect, pop)
        n.append(weights @ m)
        rows.append(m)
    return np.array(n), np.array(rows)[:, cls]


@pytest.mark.parametrize("option", [None, "pp", "initial"])
@pytest.mark.parametrize("token", FAMILIES)
def test_propagate_equals_the_full_tick_bit_for_bit(token, option):
    # the tick skips a * m without home tiers and the factor 1 without pp;
    # neither may change a bit of n or of any group's column
    d = ss.synth_zipf(16, 1.0, 448894, seed=2)
    st = ss.parse_strategy(token)
    kw = {"pp": (0.5, 0.5)} if option == "pp" else {"initial": int(d.indices[-1])} if option == "initial" else {}
    trace = ss.propagate(ss.EpidemicConfig(st, d, s=2000.0, horizon=60, record_per_subnet=True, **kw))
    n, per_group = full_tick_propagate(st, d, 2000.0, 60, **kw)
    assert np.array_equal(trace.n, n) and np.array_equal(trace.per_subnet, per_group)
    assert n[-1] > 10 * n[0]


@pytest.mark.parametrize("token", FAMILIES)
def test_a_recorded_outbreak_keeps_one_value_per_class_and_tick(token):
    # one float per group and tick made this 7.2 MB; per class it is 721 x 2
    # (2lls: x 6) floats and the set-up's temporaries of about five group arrays
    d = ss.synth_uniform(1256, 16, 357)
    cfg = ss.EpidemicConfig(ss.parse_strategy(token), d, s=358.0, horizon=720, record_per_subnet=True)
    tracemalloc.start()
    try:
        trace = ss.propagate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    classes = trace.per_class.shape[1]
    assert trace.per_class.shape == (721, classes) and trace.cls.shape == (d.occupied,)
    assert peak < 721 * classes * 8 + 64 * 1024, peak
    assert np.array_equal(trace.per_subnet, trace.per_class[:, trace.cls])


@pytest.mark.parametrize("token", ["rs", "is:l=16", "ls:l=16,pa=0.75"])
def test_uniform_fixture_lumps_to_two_classes(token):
    d = ss.synth_uniform(1256, 16, 357)
    cls, mult, *_ = epidemic._log_survival(ss.parse_strategy(token), d, 358.0, 0)
    assert sorted(mult.tolist()) == [1, 1255] and mult[cls[0]] == 1


@pytest.mark.parametrize("token, per_group", [("ls:l=16,pa=0.75", 2), ("2lls:pb=0.25,pc=0.5", 12)])
def test_home_tiers_cost_no_group_sized_array(token, per_group):
    # a tier's coefficient is one number, so ls sets up what rs does and 2lls
    # adds only its /8 block keys (8 B a group) to rs's set-up peak
    d = ss.synth_zipf(16, 1.0, 448894, seed=2)
    peaks = []
    for tok in ("rs", token):
        st = ss.parse_strategy(tok)
        tracemalloc.start()
        try:
            epidemic._log_survival(st, d, 358.0, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + per_group * d.occupied, (peaks, d.occupied)


@pytest.mark.parametrize("token", ["ls:l=16,pa=0.75", "ls:l=16,pa=0.1234567", "ls:l=16,pa=0",
                                   "2lls:pb=0.25,pc=0.5", "2lls:pb=0.1,pc=0.2", "2lls:pb=0,pc=0"])
def test_tier_coefficients_are_the_laws_scalars(token):
    # full_tick_propagate reads a and b from _log_survival itself: here they
    # are written out per tier, innermost first, with the rest spread over 2**32
    st = ss.parse_strategy(token)
    d = ss.synth_zipf(16, 1.0, 30000, seed=3)
    s_tick = 358.0 * 0.37
    cls, mult, c, a, wider = epidemic._log_survival(st, d, s_tick, 2)
    if st.kind == "ls":
        rest = 1.0 - st.p_a
        x = np.array([st.p_a / 2**16, 0.0]) + rest / 2**32
    else:
        rest = 1.0 - st.p_b - st.p_c
        x = np.array([st.p_c / 2**16 + st.p_b / 2**24, st.p_b / 2**24, 0.0]) + rest / 2**32
    logs = np.log1p(-x)
    want = s_tick * (logs[:-1] - logs[1:])
    got = [a] + [b for b, *_ in wider]
    assert len(got) == want.size and all(np.ndim(v) == 0 for v in got)
    assert all(v == w for v, w in zip(got, want)), (got, want)
    assert c.shape == mult.shape and np.all(c == logs[-1])


@pytest.mark.parametrize("token, hosts", [
    ("rs:l=8", 20000), ("is:l=8", 20000), ("optis:l=8", 20000), ("ls:l=8,pa=0.75", 20000),
    ("2lls:pb=0.25,pc=0.5", 500),  # 339 occupied /16s, some sharing a /8: one propagate per seed
])
def test_first_tick_of_propagate_averaged_over_seeds_is_the_closed_form_rate(token, hosts):
    # at s * tick = 1 one source infects 1 - exp(log1p(-q)) = q of an
    # address's chance per tick, so the first tick's new infections, averaged
    # over seed groups drawn by p, are alpha * tick less the seed's own hosts
    st = ss.parse_strategy(token)
    d = ss.synth_zipf(st.l, 1.0, hosts, seed=3)
    p = d.probabilities_occupied()
    gained = [ss.propagate(ss.EpidemicConfig(st, d, s=1.0, horizon=1, initial=int(g))).n[1] - 1.0
              for g in d.indices]
    own = [ss.group_scan_distribution(st, int(g), d)[g] for g in d.indices]
    alpha = ss.alpha_for(st, ss.ScanContext(s=1.0, N=d.total, dist=d)).alpha
    want = alpha - math.fsum(p * own) / 2.0 ** (32 - st.l)
    assert math.fsum(p * gained) == pytest.approx(want, rel=1e-9, abs=0)


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
