import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scanspread as ss
from scanspread import addrspace
from scanspread.addrspace import _sample_distinct, block_size, write_ccdf_csv, write_table
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


octet = st.integers(0, 255).map(str)
address_line = st.lists(octet, min_size=4, max_size=4).map(".".join)
canonical_good = st.one_of(address_line, st.just(""))
bad_octet = st.one_of(
    octet.map(lambda o: "0" + o),  # leading zero
    st.integers(256, 999).map(str),
    st.integers(1000, 99999).map(str),  # more than 3 digits
    st.just(""),  # empty octet
)
canonical_bad = st.one_of(
    st.tuples(st.lists(octet, min_size=4, max_size=4), st.integers(0, 3), bad_octet).map(
        lambda t: ".".join(t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:])),
    st.lists(octet, min_size=1, max_size=3).map(".".join),  # too few octets
    st.lists(octet, min_size=5, max_size=6).map(".".join),  # too many
    st.sampled_from(["...", "1.2.3.4.", ".1.2.3.4"]),
)
other_line = st.one_of(
    st.sampled_from(["# comment", "#10.0.0.1", "   ", "\t"]),
    st.tuples(st.sampled_from([" ", "\t", " \t"]), st.one_of(canonical_good, canonical_bad),
              st.sampled_from(["", " ", "\t"])).map("".join),  # surrounding whitespace
    st.sampled_from(["\u0661.2.3.4", "1.2.3.\u0664", "10.0.0.\uff11"]),  # non-ASCII digits
)


@st.composite
def host_list_texts(draw):
    """Valid and blank lines with a few others inserted: invalid ones and,
    unless the text is to stay canonical, comments, padded lines and
    non-ASCII digits."""
    canonical = draw(st.booleans())
    lines = draw(st.lists(canonical_good, max_size=30))
    for _ in range(draw(st.integers(0, 3))):
        line = draw(canonical_bad if canonical else st.one_of(canonical_bad, other_line))
        lines.insert(draw(st.integers(0, len(lines))), line)
    end = "\n" if canonical else draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines)
    if lines and draw(st.booleans()):
        text += end  # else no final newline
    return text


def _outcome(parse, *args):
    try:
        return parse(*args)
    except HostListParseError as exc:
        return ("error", exc.line_no, exc.text, exc.origin)


@given(text=host_list_texts())
@settings(max_examples=300, deadline=None)
def test_parsers_agree_with_the_per_line_loop(tmp_path_factory, text):
    # the IPv4Address loop defines the format; the vectorized parser must
    # give the same result or fail on the same line with the same text
    expected = _outcome(addrspace._parse_host_lines, text.splitlines(), "src")
    assert _outcome(ss.parse_host_list, text, "src") == expected
    path = tmp_path_factory.mktemp("hosts") / "list.txt"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(expected, tuple):
        expected = expected[:3] + (str(path),)
    assert _outcome(ss.load_host_list, path) == expected


def test_canonical_parse_spans_chunks_and_reports_the_bad_line(tmp_path):
    hosts = ss.HostSet(np.random.default_rng(1).integers(0, 2**32, 3 * addrspace._CHUNK))
    path = tmp_path / "hosts.txt"
    ss.save_host_list(path, hosts)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[addrspace._CHUNK + 7:addrspace._CHUNK + 7] = ["", lines[0]]  # a blank and a duplicate
    path.write_text("\n".join(lines), encoding="utf-8")  # no final newline
    res = ss.load_host_list(path)
    assert (res.hosts, res.duplicates_dropped, res.lines_ignored) == (hosts, 1, 1)
    lines[2 * addrspace._CHUNK + 3] = "10.0.0.256"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(HostListParseError) as exc:
        ss.load_host_list(path)
    assert (exc.value.line_no, exc.value.text) == (2 * addrspace._CHUNK + 4, "10.0.0.256")
    assert str(exc.value).startswith(f"{path}:{2 * addrspace._CHUNK + 4}: ")


def _dotted(a: int) -> str:
    return f"{(a >> 24) & 255}.{(a >> 16) & 255}.{(a >> 8) & 255}.{a & 255}"


@pytest.mark.parametrize("addrs", [
    [0, 2**32 - 1, (1 << 24) | (10 << 16) | (100 << 8) | 255],  # 0.0.0.0, 255.255.255.255, 1.10.100.255
    np.random.default_rng(3).integers(0, 2**32, 2 * addrspace._CHUNK + 5),
    [],
])
def test_save_host_list_bytes_match_dotted_quads(tmp_path, addrs):
    hosts = ss.HostSet(addrs)
    path = tmp_path / "hosts.txt"
    ss.save_host_list(path, hosts)
    assert path.read_bytes() == "".join(_dotted(int(a)) + "\n" for a in hosts.addresses).encode("ascii")


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


@given(addrs=st.lists(st.integers(0, 2**32 - 1), max_size=60), repeats=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_hostset_dedupes_like_unique(addrs, repeats):
    raw = np.array(addrs * repeats, dtype=np.int64)
    np.random.default_rng(len(addrs)).shuffle(raw)
    hosts = ss.HostSet(raw)
    assert np.array_equal(hosts.addresses, np.unique(raw))
    assert hosts.addresses.dtype == np.uint32


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
    with pytest.raises(CapacityError, match="group 3 needs 17 distinct hosts but a /28 block has 16 addresses"):
        ss.GroupDistribution(28, [1, 3], [16, 17])


def test_distribution_dense_round_trip():
    dense = np.array([0, 3, 0, 1], dtype=np.int64)
    d = ss.GroupDistribution.from_dense(2, dense)
    back = np.zeros(4, dtype=np.int64)
    back[d.indices] = d.counts
    assert np.array_equal(back, dense)
    assert d.indices.tolist() == [1, 3] and d.counts.tolist() == [3, 1]
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
    dense = np.zeros(256, dtype=np.int64)
    dense[d.indices] = d.counts
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


def _sample_distinct_reference(rng, k, size, permute_max=1 << 22):
    """The sampler materialize_hosts used per group: each batch re-dedupes
    the whole pool of values chosen so far plus the new draws."""
    if k == size:
        return np.arange(size, dtype=np.int64)
    if size <= permute_max and 3 * k > size:
        return rng.permutation(size)[:k].astype(np.int64)
    chosen = np.zeros(0, dtype=np.int64)
    while chosen.size < k:
        need = k - chosen.size
        batch = rng.integers(0, size, size=need + (need >> 1) + 16, dtype=np.int64)
        pool = np.concatenate([chosen, batch])
        _, first = np.unique(pool, return_index=True)
        first.sort()
        pool = pool[first]
        chosen = pool[: min(k, pool.size)]
    return chosen


def _materialize_reference(dist, seed, permute_max=1 << 22):
    """The per-group loop materialize_hosts replaced, with its sampler."""
    bits = 32 - dist.l
    rng = np.random.default_rng(seed)
    parts = [(int(i) << bits) + _sample_distinct_reference(rng, int(c), 1 << bits, permute_max)
             for i, c in zip(dist.indices, dist.counts)]
    return np.unique(np.concatenate(parts)).astype(np.uint32)


@pytest.mark.parametrize("dist, seed", [
    (ss.synth_zipf(16, 1.0, 448894, seed=2), 5),  # the paper fixture; its top group is a permutation
    (ss.synth_zipf(8, 1.0, 20000, seed=4), 5),
    (ss.synth_uniform(300, 16, 357), 21),
    (ss.GroupDistribution(20, [0, 3, 9, 100], [5, 2000, 4000, 3]), 1),  # permutation groups
    (ss.GroupDistribution(28, [7, 8, 100], [16, 3, 16]), 0),  # full blocks
], ids=["zipf16", "zipf8", "uniform", "permutation", "full_block"])
def test_materialize_is_byte_identical_to_the_per_group_loop(dist, seed):
    assert np.array_equal(ss.materialize_hosts(dist, seed).addresses, _materialize_reference(dist, seed))


def test_materialize_replays_a_group_its_first_batch_cannot_fill(monkeypatch):
    # Groups whose first batch holds too few distinct values exist only in
    # blocks too large to permute (2**23 addresses and up at the default
    # threshold, where the loop takes tens of seconds); without the
    # permutation path the same happens in /24 blocks.
    monkeypatch.setattr(addrspace, "_PERMUTE_MAX_BLOCK", 0)
    counts = np.random.default_rng(8).integers(1, 256, 500)
    counts[[0, 1, 300, 499]] = [250, 255, 256, 240]
    dist = ss.GroupDistribution(24, np.arange(0, 1000, 2), counts)
    replayed = []
    sample = addrspace._sample_distinct

    def spy(rng, k, size):
        replayed.append(k < size)
        return sample(rng, k, size)

    monkeypatch.setattr(addrspace, "_sample_distinct", spy)
    got = ss.materialize_hosts(dist, 9).addresses
    assert sum(replayed) > 100
    assert np.array_equal(got, _materialize_reference(dist, 9, permute_max=0))


@given(seed=st.integers(0, 2**31), k=st.integers(1, 40), bits=st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_sample_distinct_is_distinct_and_in_range(seed, k, bits):
    size = 1 << bits
    k = min(k, size)
    got = _sample_distinct(np.random.default_rng(seed), k, size)
    assert got.size == k
    assert np.unique(got).size == k
    assert got.min() >= 0 and got.max() < size


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("bits, k", [(8, 128), (8, 200), (8, 255), (12, 2048), (12, 3500), (12, 4095),
                                     (16, 40000), (16, 60000)])
def test_sample_distinct_matches_the_whole_pool_sampler(monkeypatch, seed, bits, k):
    # Without the permutation path these k need several batches each.
    monkeypatch.setattr(addrspace, "_PERMUTE_MAX_BLOCK", 0)
    size = 1 << bits
    got = _sample_distinct(np.random.default_rng(seed), k, size)
    want = _sample_distinct_reference(np.random.default_rng(seed), k, size, permute_max=0)
    assert np.array_equal(got, want)


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


def test_write_table_formats_numbers_with_repr_and_text_like_csv(tmp_path):
    text = ["ls:l=16,pa=0.75", 'say "hi"', "rs", "is:l=16", "2lls:pb=0.25,pc=0.5", "mss:l=16", "optis:l=8"]
    floats = np.array([0.1, 1 / 3, 1e-300, -0.0, math.inf, math.nan, 2.0**53 + 2])
    ints = [0, -1, 2**53 + 1, 7, np.int64(2**62), 1 << 40, -(2**63)]
    scalars = [np.float64(0.25)] * 7
    path = tmp_path / "t.csv"
    write_table(path, ["name", "x", "k", "y"], [text, floats, ints, scalars], ["l=16 N=4, a comment, with commas"])
    want = io.StringIO()
    want.write("# l=16 N=4, a comment, with commas\n")
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["name", "x", "k", "y"])
    writer.writerows(zip(text, map(repr, floats.tolist()), map(repr, map(int, ints)), ["0.25"] * 7))
    assert path.read_bytes() == want.getvalue().encode()
    assert path.read_text().splitlines()[2:] == [
        '"ls:l=16,pa=0.75",0.1,0,0.25',
        '"say ""hi""",0.3333333333333333,-1,0.25',
        "rs,1e-300,9007199254740993,0.25",
        "is:l=16,-0.0,7,0.25",
        '"2lls:pb=0.25,pc=0.5",inf,4611686018427387904,0.25',
        "mss:l=16,nan,1099511627776,0.25",
        "optis:l=8,9007199254740994.0,-9223372036854775808,0.25",
    ]


def test_write_table_of_no_rows_is_its_header(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["threshold", "fraction"], [[], np.zeros(0)])
    assert path.read_bytes() == b"threshold,fraction\n"
