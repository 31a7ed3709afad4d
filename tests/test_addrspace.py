import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scanspread as ss
from scanspread.addrspace import _sample_distinct, block_size, write_ccdf_csv
from scanspread.errors import (
    CapacityError,
    DistributionFormatError,
    HostListParseError,
    InternalConsistencyError,
    ParameterError,
)

addresses = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=200)


# -- host-list parsing -----------------------------------------------------


def test_parse_counts_comments_blanks_and_duplicates():
    text = "192.168.1.1\n# comment\n\n10.255.0.1\n192.168.1.1\n"
    res = ss.parse_host_list(text)
    assert res.hosts.N == 2
    assert res.duplicates_dropped == 1
    assert res.lines_ignored == 2


def test_parse_sorts_and_converts():
    res = ss.parse_host_list("0.0.0.1\n255.255.255.255\n0.0.0.0\n")
    assert list(res.hosts) == [0, 1, 2**32 - 1]


def test_parse_rejects_bad_line_with_its_number():
    with pytest.raises(HostListParseError) as exc:
        ss.parse_host_list("10.0.0.1\n\n256.1.1.1\n")
    assert exc.value.line_no == 3
    assert "256.1.1.1" in str(exc.value)


def test_parse_rejects_non_address_tokens():
    for bad in ["10.0.0", "10.0.0.1.5", "hello", "10.0.0.1/24"]:
        with pytest.raises(HostListParseError):
            ss.parse_host_list(bad + "\n")


def test_parse_tolerates_surrounding_whitespace():
    assert ss.parse_host_list("  10.0.0.1  \n").hosts.N == 1


def test_host_list_round_trip(tmp_path, four_hosts):
    path = tmp_path / "hosts.txt"
    ss.addrspace.save_host_list(path, four_hosts)
    assert ss.load_host_list(path).hosts == four_hosts


# -- HostSet ---------------------------------------------------------------


def test_hostset_rejects_out_of_range():
    with pytest.raises(ParameterError):
        ss.HostSet([-1])
    with pytest.raises(ParameterError):
        ss.HostSet([2**32])


def test_hostset_rejects_non_integral_addresses():
    for bad in ([1.7, 2.2], [1.0, float("nan")], np.array([3.5])):
        with pytest.raises(ParameterError):
            ss.HostSet(bad)
    assert list(ss.HostSet([2.0, 1.0, 2**32 - 1.0])) == [1, 2, 2**32 - 1]


def test_hostset_interval_and_membership():
    h = ss.HostSet([5, 10, 15, 2**32 - 1])
    assert h.count_in_interval(5, 15) == 2
    assert h.count_in_interval(0, 2**32) == 4
    assert h.count_members(np.array([5, 5, 7, 15])) == 3
    assert ss.HostSet([]).count_members(np.array([1, 2])) == 0


# -- aggregate / refine ----------------------------------------------------


def test_aggregate_fixture_at_l8(four_hosts):
    d = ss.aggregate(four_hosts, 8)
    assert dict(zip(d.indices.tolist(), d.counts.tolist())) == {10: 3, 192: 1}
    assert d.total == 4


def test_aggregate_degenerate_levels(four_hosts):
    d0 = ss.aggregate(four_hosts, 0)
    assert d0.occupied == 1 and d0.total == 4
    d32 = ss.aggregate(four_hosts, 32)
    assert d32.occupied == 4
    assert np.all(d32.counts == 1)


def test_aggregate_empty():
    assert ss.aggregate(ss.HostSet([]), 8).total == 0


@given(addrs=addresses, l=st.integers(0, 32), k=st.integers(0, 32))
@settings(max_examples=60, deadline=None)
def test_aggregation_chain_is_consistent(addrs, l, k):
    # counting at a fine level and merging sibling pairs gives the coarse count
    hosts = ss.HostSet(addrs)
    fine = ss.aggregate(hosts, max(l, k))
    coarse = ss.aggregate(hosts, min(l, k))
    assert fine.coarsen(min(l, k)) == coarse
    assert fine.total == hosts.N


def test_refine_accepts_consistent_parent(four_hosts):
    parent = ss.aggregate(four_hosts, 7)
    fine = ss.refine(parent, four_hosts, 8)
    assert fine == ss.aggregate(four_hosts, 8)


def test_refine_detects_mismatch(four_hosts):
    parent = ss.aggregate(four_hosts, 7)
    tampered = ss.GroupDistribution(7, parent.indices, parent.counts + 1)
    with pytest.raises(InternalConsistencyError):
        ss.refine(tampered, four_hosts, 8)


def test_refine_level_validation(four_hosts):
    with pytest.raises(ParameterError):
        ss.refine(ss.aggregate(four_hosts, 7), four_hosts, 9)


# -- GroupDistribution -----------------------------------------------------


def test_distribution_drops_zero_counts():
    d = ss.GroupDistribution(4, [1, 2, 3], [5, 0, 7])
    assert d.indices.tolist() == [1, 3]
    assert d.occupied == 2


def test_distribution_validation():
    with pytest.raises(ParameterError):
        ss.GroupDistribution(4, [16], [1])  # index out of range
    with pytest.raises(ParameterError):
        ss.GroupDistribution(4, [1, 1], [1, 2])  # duplicate
    with pytest.raises(ParameterError):
        ss.GroupDistribution(4, [1], [-2])


def test_distribution_dense_round_trip():
    dense = np.array([0, 3, 0, 1], dtype=np.int64)
    d = ss.GroupDistribution.from_dense(2, dense)
    assert np.array_equal(d.dense_counts(), dense)
    assert d.count_of(1) == 3 and d.count_of(0) == 0


def test_distribution_argmax_tie_breaks_low():
    d = ss.GroupDistribution(4, [3, 7, 9], [5, 9, 9])
    assert d.argmax_index == 7


def test_distribution_csv_round_trip(tmp_path):
    d = ss.GroupDistribution(16, [0, 5, 65535], [10, 20, 30])
    path = tmp_path / "dist.csv"
    d.to_csv(path)
    first = path.read_text().splitlines()[0]
    assert first == "# l=16 N=60"
    assert ss.GroupDistribution.from_csv(path) == d


def test_distribution_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("group_index,count\n1,2\n")
    with pytest.raises(DistributionFormatError):
        ss.GroupDistribution.from_csv(p)  # missing header comment
    p.write_text("# l=8 N=99\ngroup_index,count\n1,2\n")
    with pytest.raises(DistributionFormatError):
        ss.GroupDistribution.from_csv(p)  # N disagrees with counts
    p.write_text("# l=8 N=2\ngroup_index,count\n1,x\n")
    with pytest.raises(DistributionFormatError):
        ss.GroupDistribution.from_csv(p)


# -- synthetic distributions ----------------------------------------------


def test_synth_uniform_beta_is_group_ratio():
    # uniform over the first n of 2**l groups concentrates by 2**l / n
    for l, n in [(8, 256), (8, 64), (8, 1), (16, 1256)]:
        d = ss.synth_uniform(n, l, 357)
        assert ss.non_uniformity_factor(d).beta == pytest.approx(2**l / n, rel=1e-12)


def test_synth_uniform_validation():
    with pytest.raises(ParameterError):
        ss.synth_uniform(257, 8, 1)
    with pytest.raises(ParameterError):
        ss.synth_uniform(0, 8, 1)
    with pytest.raises(ParameterError):
        ss.synth_uniform(1, 8, 0)


def test_synth_zipf_total_and_determinism():
    d1 = ss.synth_zipf(8, 1.0, 10**6, seed=1)
    d2 = ss.synth_zipf(8, 1.0, 10**6, seed=1)
    assert d1 == d2
    assert d1.total == 10**6
    assert d1 != ss.synth_zipf(8, 1.0, 10**6, seed=2)


def test_synth_zipf_regression_anchor():
    # frozen on first build; oracle was a direct float sum of p**2
    d = ss.synth_zipf(8, 1.0, 10**6, seed=1)
    assert ss.non_uniformity_factor(d).beta == pytest.approx(11.200559641088, rel=1e-9)


def test_synth_zipf_tiny_exponent_is_nearly_uniform():
    d = ss.synth_zipf(8, 1e-9, 10**6, seed=3)
    assert ss.non_uniformity_factor(d).beta == pytest.approx(1.0, rel=0.02)


def test_synth_zipf_ranked_counts_decrease():
    d = ss.synth_zipf(8, 1.2, 50000, seed=9)
    perm = np.random.default_rng(9).permutation(256)
    dense = d.dense_counts()
    ranked = dense[perm]
    assert np.all(np.diff(ranked) <= 0)


def test_synth_zipf_validation():
    with pytest.raises(ParameterError):
        ss.synth_zipf(8, 0.0, 100, seed=0)
    with pytest.raises(ParameterError):
        ss.synth_zipf(8, 1.0, 0, seed=0)
    with pytest.raises(ParameterError):
        ss.synth_zipf(32, 1.0, 100, seed=0)


# -- materialization -------------------------------------------------------


def test_materialize_matches_distribution_and_is_deterministic():
    d = ss.synth_zipf(8, 1.0, 20000, seed=4)
    h1 = ss.materialize_hosts(d, seed=5)
    h2 = ss.materialize_hosts(d, seed=5)
    assert h1 == h2
    assert ss.aggregate(h1, 8) == d
    assert h1 != ss.materialize_hosts(d, seed=6)


def test_materialize_full_block():
    d = ss.GroupDistribution(28, [7], [16])  # block has exactly 16 addresses
    h = ss.materialize_hosts(d, seed=0)
    assert h.N == 16
    assert ss.aggregate(h, 28) == d


def test_materialize_capacity_error():
    with pytest.raises(CapacityError):
        ss.materialize_hosts(ss.GroupDistribution(28, [0], [17]), seed=0)


@given(seed=st.integers(0, 2**31), k=st.integers(1, 40), bits=st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_sample_distinct_is_distinct_and_in_range(seed, k, bits):
    size = 1 << bits
    k = min(k, size)
    got = _sample_distinct(np.random.default_rng(seed), k, size)
    assert got.size == k
    assert np.unique(got).size == k
    assert got.min() >= 0 and got.max() < size


def test_block_size_values():
    assert block_size(16) == 65536
    assert block_size(32) == 1
    assert block_size(0) == 2**32


# -- ccdf ------------------------------------------------------------------


def test_ccdf_fixture_values(four_hosts):
    pts = ss.ccdf(ss.aggregate(four_hosts, 8))
    assert [(p.threshold, p.fraction) for p in pts] == [
        (0, 2 / 256),
        (1, 1 / 256),
        (3, 0.0),
    ]


def test_ccdf_empty():
    pts = ss.ccdf(ss.GroupDistribution(8, [], []))
    assert [(p.threshold, p.fraction) for p in pts] == [(0, 0.0)]


@given(addrs=addresses, l=st.integers(0, 16))
@settings(max_examples=40, deadline=None)
def test_ccdf_is_a_decreasing_step_function(addrs, l):
    d = ss.aggregate(ss.HostSet(addrs), l)
    pts = ss.ccdf(d)
    assert pts[0].threshold == 0
    assert pts[-1].fraction == 0.0
    t = [p.threshold for p in pts]
    f = [p.fraction for p in pts]
    assert t == sorted(set(t))
    assert all(a >= b for a, b in zip(f, f[1:]))
    assert pts[0].fraction == d.occupied / d.n_groups


def test_ccdf_csv(tmp_path, four_hosts):
    path = tmp_path / "ccdf.csv"
    write_ccdf_csv(ss.ccdf(ss.aggregate(four_hosts, 8)), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "threshold,fraction"
    assert len(lines) == 4
