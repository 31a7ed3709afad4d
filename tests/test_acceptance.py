"""End-to-end checks of the package's headline numbers and guarantees.

One test per shipped claim; the conftest hook prints a PASS/FAIL line for
each at the end of the run.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

import scanspread as ss
import scanspread.cli as cli


def _rates_via_cli(tmp_path, argv):
    out = tmp_path / "rates_out"
    code = cli.main(argv + ["--out-dir", str(out)])
    assert code == 0
    with open(out / "rates.csv", newline="") as fh:
        return {row["strategy"]: row for row in csv.DictReader(fh)}


def test_criterion_1_analytic_rate_table(tmp_path):
    tokens = [
        "rs",
        "optis:l=16",
        "is:l=16",
        "ls:l=16,pa=0.75",
        "2lls:pb=0.25,pc=0.5",
        "mss:l=16",
    ]
    expected = {
        "rs": (16.0, 0.0, 0.0105),
        "optis:l=16": (7.9266, 8.0734, 2.8152),
        "is:l=16": (10.2940, 5.7060, 0.5456),
        "ls:l=16,pa=0.75": (10.6999, 5.3001, 0.4118),
        "2lls:pb=0.25,pc=0.5": (11.1620, 4.8380, 0.2989),
        "mss:l=16": (10.2940, 5.7060, 0.5456),
    }
    argv = ["rates", "--s", "100", "--N", "448894",
            "--beta8", "9.0", "--beta16", "52.2", "--maxp", "0.004115"]
    for tok in tokens:
        argv += ["--strategy", tok]
    t0 = time.perf_counter()
    table = _rates_via_cli(tmp_path, argv)
    elapsed = time.perf_counter() - t0
    assert set(table) == set(tokens)
    for tok, (unc, info, rate) in expected.items():
        row = table[tok]
        assert abs(float(row["uncertainty_bits"]) - unc) <= 0.02, tok
        assert abs(float(row["info_bits"]) - info) <= 0.02, tok
        assert abs(float(row["alpha_per_second"]) - rate) <= 0.01, tok
    assert elapsed < 2.0


def test_criterion_2_monte_carlo_matches_closed_forms():
    t0 = time.perf_counter()
    dist = ss.synth_zipf(16, 1.0, 448894, seed=2)
    hosts = ss.materialize_hosts(dist, seed=5)
    ctx = ss.ScanContext(s=100.0, N=hosts.N, dist=dist, hosts=hosts)
    cases = [
        ("rs", 1000),
        ("is:l=16", 1000),
        ("optis:l=16", 1000),
        ("ls:l=16,pa=0.75", 1000),
        ("2lls:pb=0.25,pc=0.5", 1000),
        ("mss:l=16", 65535),
    ]
    for i, (token, scans) in enumerate(cases):
        st = ss.parse_strategy(token)
        cfg = ss.EarlyStageConfig(st, s=100.0, total_scans=scans, runs=10000,
                                  seed=1000 + i, hosts=hosts)
        r = ss.estimate_infection_rate(cfg)
        want = ss.alpha_for(st, ctx).alpha
        se = r.standard_error
        assert se > 0, token
        z = (r.mean_alpha - want) / se
        assert abs(z) <= 3.0, f"{token}: mc={r.mean_alpha:.6g} want={want:.6g} z={z:.2f}"
    assert time.perf_counter() - t0 < 300.0


def _random_host_sets(rng, total):
    """Mixed-generator HostSets, sizes 1..1e5; lattice sets tagged with the
    level down to which every group splits evenly into both children."""
    sets = []
    sets.append((ss.HostSet(rng.integers(0, 2**32, size=100000, dtype=np.uint32)), None))
    sets.append((ss.HostSet([int(rng.integers(0, 2**32))]), None))
    while len(sets) < total:
        mode = len(sets) % 6
        if mode == 0:
            size = max(1, int(10 ** rng.uniform(0, 5)))
            hosts = ss.HostSet(rng.integers(0, 2**32, size=size, dtype=np.uint32))
        elif mode == 1:
            lb = int(rng.integers(4, 17))
            block = 1 << (32 - lb)
            parts = []
            for _ in range(int(rng.integers(1, 9))):
                base = int(rng.integers(0, 1 << lb)) << (32 - lb)
                k = max(1, int(10 ** rng.uniform(0, 3.5)))
                parts.append(base + rng.integers(0, block, size=k, dtype=np.int64))
            hosts = ss.HostSet(np.concatenate(parts))
        elif mode == 2:
            l = int(rng.integers(4, 11))
            d = ss.synth_zipf(l, float(rng.uniform(0.4, 1.6)),
                              int(rng.integers(100, 20001)), seed=int(rng.integers(2**31)))
            hosts = ss.materialize_hosts(d, seed=int(rng.integers(2**31)))
        elif mode == 3:
            m = int(rng.integers(16, 29))
            c = int(rng.integers(0, 1 << m))
            hosts = ss.HostSet(c + (np.arange(1 << (32 - m), dtype=np.int64) << m))
            sets.append((hosts, 32 - m))
            continue
        elif mode == 4:
            size = max(1, int(10 ** rng.uniform(0, 5)))
            base = int(rng.integers(0, 2**32 - size))
            hosts = ss.HostSet(base + np.arange(size, dtype=np.int64))
        else:
            hosts = ss.HostSet(rng.integers(0, 2**32, size=int(rng.integers(1, 16)),
                                            dtype=np.uint32))
        sets.append((hosts, None))
    return sets


def test_criterion_3_entropy_inequalities_and_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    sets = _random_host_sets(rng, 1000)
    assert len(sets) == 1000
    eps = 1e-9
    for hosts, split_level in sets:
        prev = None
        for l in range(0, 21):
            d = ss.aggregate(hosts, l)
            rep = ss.entropy_report(d)
            beta = ss.non_uniformity_factor(d).beta
            # ordering of the entropy family at one level
            assert rep.h0 >= rep.shannon - eps
            assert rep.shannon >= rep.h2 - eps
            assert rep.h2 >= rep.h_inf - eps
            # identities tying beta to collision entropy and L2 distance
            assert beta == pytest.approx(2.0 ** (l - rep.h2), rel=1e-9)
            l2sq = ss.l2_distance_to_uniform(d)
            assert beta == pytest.approx(2.0**l * l2sq + 1.0, rel=1e-9)
            if prev is not None:
                prev_shannon, prev_beta = prev
                assert prev_shannon - eps <= rep.shannon <= prev_shannon + 1.0 + eps
                assert prev_beta * (1 - 1e-12) <= beta <= 2.0 * prev_beta * (1 + 1e-12)
            if split_level is not None:
                # even splits up to split_level pin the equality cases:
                # beta flat at 1 with a full extra bit per level, then one
                # empty child per parent doubles beta with no new bits
                if l <= split_level:
                    assert beta == pytest.approx(1.0, abs=1e-12)
                    assert rep.shannon == pytest.approx(l, abs=1e-9)
                    assert rep.h0 == pytest.approx(rep.h_inf, abs=1e-9)
                else:
                    assert beta == pytest.approx(2.0 ** (l - split_level), rel=1e-12)
                    assert rep.shannon == pytest.approx(split_level, abs=1e-9)
            prev = (rep.shannon, beta)
    assert time.perf_counter() - t0 < 120.0


def test_criterion_4_defense_thresholds():
    assert ss.pp_requirement(50.0, 1.0) == pytest.approx(0.02, abs=1e-12)
    assert ss.pp_min_deployment(50.0) == pytest.approx(0.98, abs=1e-12)
    alpha = ss.ipv6_alpha(4000.0, 10**8, 1e5)
    assert abs(alpha - 2.2e-3) / 2.2e-3 < 0.03
    assert alpha > 5.0e-4
    assert alpha > ss.code_red_alpha_per_second()


def test_criterion_5a_scalar_reduction():
    dist = ss.synth_uniform(256, 8, 1406)
    cfg = ss.EpidemicConfig(ss.ScanStrategy.rs(l=8), dist, s=358.0, horizon=720)
    trace = ss.propagate(cfg)
    n = 1.0
    pop = float(dist.total)
    for t in range(1, 721):
        n = n + (pop - n) * (1.0 - (1.0 - 1.0 / 2.0**32) ** (358.0 * n))
        assert abs(trace.n[t] - n) / n < 1e-9, t


def test_criterion_5b_code_red_baseline():
    dist = ss.synth_uniform(250, 8, 1440)  # 360k hosts
    cfg = ss.EpidemicConfig(ss.ScanStrategy.rs(l=8), dist, s=358.0, horizon=720)
    t99 = ss.time_to_fraction(ss.propagate(cfg), 0.99)
    assert t99 is not None
    assert 480.0 <= t99 <= 720.0  # 10 +/- 2 hours in minutes


def _hier_dist(children_per_8, hosts_per_16):
    idx, cnt = [], []
    for a, k in enumerate(children_per_8):
        for j in range(k):
            idx.append(a * 256 + j)
            cnt.append(hosts_per_16)
    return ss.GroupDistribution(16, idx, cnt)


def test_criterion_5c_strategy_time_ordering():
    t0 = time.perf_counter()
    dist = _hier_dist([14] * 12 + [13] * 20, 841)  # 428 /16 nets, ~360k hosts
    beta8 = ss.non_uniformity_factor(dist.coarsen(8)).beta
    beta16 = ss.non_uniformity_factor(dist).beta
    assert 7.5 < beta8 < 8.5
    assert 150.0 < beta16 < 156.0

    def t99(token):
        cfg = ss.EpidemicConfig(ss.parse_strategy(token), dist, s=358.0, horizon=720)
        t = ss.time_to_fraction(ss.propagate(cfg), 0.99)
        assert t is not None, token
        return t

    is16 = t99("is:l=16")
    two = t99("2lls:pb=0.25,pc=0.5")
    ls16 = t99("ls:l=16,pa=0.75")
    is8 = t99("is:l=8")
    ls8 = t99("ls:l=8,pa=0.75")
    rs = t99("rs:l=16")
    assert is16 < min(two, ls16)
    assert max(two, ls16) < min(is8, ls8)
    assert max(is8, ls8) < rs
    assert is16 < 60.0
    assert 480.0 <= rs <= 720.0
    assert time.perf_counter() - t0 < 60.0


def test_criterion_5d_two_level_speedup_with_concentration():
    t0 = time.perf_counter()
    times = []
    for k in (104, 52, 26, 13):  # beta16 = 65536 / (32 k), increasing
        c = round(360000 / (32 * k))
        dist = _hier_dist([k] * 32, c)
        cfg = ss.EpidemicConfig(ss.ScanStrategy.two_level(0.25, 0.5), dist,
                                s=358.0, horizon=720)
        t10 = ss.time_to_fraction(ss.propagate(cfg), 0.10)
        assert t10 is not None
        times.append(t10)
    assert all(a > b for a, b in zip(times, times[1:])), times
    assert time.perf_counter() - t0 < 60.0


def test_criterion_6_mss_budget_curve():
    t0 = time.perf_counter()
    dist = ss.synth_uniform(1256, 16, 357)  # beta16 ~ 52, N ~ 448k
    cfg = ss.EarlyStageConfig(ss.ScanStrategy.sequential(16), s=100.0,
                              total_scans=50000, runs=100000, seed=77,
                              hosts=ss.materialize_hosts(dist, 21))
    budgets = [10, 100, 1000, 10000, 50000]
    results = ss.estimate_mss_full(cfg, budgets)
    means = [r.mean_alpha for r in results]
    assert all(a <= b for a, b in zip(means, means[1:])), means
    alpha_rs = 100.0 * dist.total / 2.0**32
    r10 = results[0]
    assert abs(r10.mean_alpha - alpha_rs) <= 3.0 * r10.standard_error
    assert 0.3 < means[-1] < 0.55
    assert time.perf_counter() - t0 < 600.0


def test_criterion_7_byte_identical_reruns(tmp_path):
    def run(*argv):
        assert cli.main(list(argv)) == 0

    def data_bytes(out_dir, name):
        return (out_dir / name).read_bytes()

    dist_csv = tmp_path / "d.csv"
    run("synth", "zipf", "--l", "8", "--exponent", "1.0", "--hosts", "20000",
        "--seed", "4", "--out", str(dist_csv))
    again = tmp_path / "d2.csv"
    run("synth", "zipf", "--l", "8", "--exponent", "1.0", "--hosts", "20000",
        "--seed", "4", "--out", str(again))
    assert dist_csv.read_bytes() == again.read_bytes()

    hosts_a, hosts_b = tmp_path / "ha.txt", tmp_path / "hb.txt"
    run("synth", "hosts", "--dist", str(dist_csv), "--seed", "6", "--out", str(hosts_a))
    run("synth", "hosts", "--dist", str(dist_csv), "--seed", "6", "--out", str(hosts_b))
    assert hosts_a.read_bytes() == hosts_b.read_bytes()

    early = ["simulate", "early", str(hosts_a), "--strategy", "is:l=8",
             "--s", "100", "--scans", "500", "--runs", "300", "--seed", "11"]
    dirs = [tmp_path / n for n in ("e1", "e2", "e3")]
    run(*early, "--threads", "1", "--out-dir", str(dirs[0]))
    run(*early, "--threads", "1", "--out-dir", str(dirs[1]))
    run(*early, "--threads", "4", "--out-dir", str(dirs[2]))
    blobs = [data_bytes(d, "early.json") for d in dirs]
    assert blobs[0] == blobs[1] == blobs[2]

    mss = ["simulate", "early", str(dist_csv), "--strategy", "mss:l=8",
           "--s", "100", "--runs", "400", "--seed", "13", "--mat-seed", "17",
           "--budgets", "50,500"]
    m1, m2 = tmp_path / "m1", tmp_path / "m2"
    run(*mss, "--threads", "1", "--out-dir", str(m1))
    run(*mss, "--threads", "3", "--out-dir", str(m2))
    assert data_bytes(m1, "mss_budgets.csv") == data_bytes(m2, "mss_budgets.csv")

    # unseeded commands are deterministic too
    a1, a2 = tmp_path / "a1", tmp_path / "a2"
    for d in (a1, a2):
        run("analyze", str(hosts_a), "--out-dir", str(d))
    for name in ("beta_profile.csv", "shannon_profile.csv", "ccdf_l8.csv", "entropy_l16.json"):
        assert data_bytes(a1, name) == data_bytes(a2, name)

    e1, e2 = tmp_path / "p1", tmp_path / "p2"
    epidemic = ["simulate", "epidemic", str(dist_csv), "--strategy", "is:l=8",
                "--s", "358", "--horizon", "60"]
    run(*epidemic, "--out-dir", str(e1))
    run(*epidemic, "--out-dir", str(e2))
    assert data_bytes(e1, "trace.csv") == data_bytes(e2, "trace.csv")
    assert data_bytes(e1, "epidemic_summary.json") == data_bytes(e2, "epidemic_summary.json")
