import bisect
import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scanspread as ss
from scanspread.errors import ParameterError, UnsupportedStrategyError
from scanspread.strategies import TargetLaw


# -- tokens ----------------------------------------------------------------


@pytest.mark.parametrize("token", [
    "rs", "rs:l=8", "is:l=16", "optis:l=16", "ls:l=16,pa=0.75",
    "2lls:pb=0.25,pc=0.5", "mss:l=16", "ls:l=8,pa=1", "2lls:pb=0.5,pc=0.375",
])
def test_token_round_trip(token):
    st = ss.parse_strategy(token)
    assert ss.parse_strategy(st.label).label == st.label


def test_parse_defaults_and_fields():
    assert ss.parse_strategy("rs").l == 16
    st = ss.parse_strategy("ls:l=8,pa=0.75")
    assert (st.kind, st.l, st.p_a) == ("ls", 8, 0.75)
    st = ss.parse_strategy("2lls:pb=0.25,pc=0.5")
    assert (st.l, st.p_b, st.p_c) == (16, 0.25, 0.5)


@pytest.mark.parametrize("token", [
    "xx", "is", "is:l=33", "ls:l=16", "ls:l=16,pa=1.5", "ls:pa=0.5",
    "2lls:pb=0.7,pc=0.7", "2lls:pb=0.25", "mss", "ls:l=16,pa=0.5,pa=0.5",
    "is:l=16,q=3", "rs:l=-1", "2lls:pb=nan,pc=0.5", "2lls:pb=0.25,pc=nan",
])
def test_parse_rejects_bad_tokens(token):
    with pytest.raises(ParameterError):
        ss.parse_strategy(token)


probabilities = st.one_of(st.floats(0.0, 1.0), st.just(-0.0), st.floats(0.0, 2.2250738585072014e-308))


@st.composite
def scan_strategies(draw):
    kind = draw(st.sampled_from(ss.strategies.KINDS))
    if kind == "2lls":
        p_b = draw(probabilities)
        return ss.ScanStrategy.two_level(p_b, draw(st.one_of(st.just(-0.0), st.floats(0.0, 1.0 - p_b))))
    l = draw(st.integers(0, 32))
    if kind == "ls":
        return ss.ScanStrategy.localized(l, draw(probabilities))
    return ss.ScanStrategy(kind, l=l)


@given(strategy=scan_strategies())
@settings(max_examples=300, deadline=None)
def test_label_parses_back_to_every_field(strategy):
    back = ss.parse_strategy(strategy.label)
    fields = ("kind", "l", "p_a", "p_b", "p_c")
    assert [repr(getattr(back, f)) for f in fields] == [repr(getattr(strategy, f)) for f in fields]


def test_labels_print_each_parameter_exactly():
    assert ss.ScanStrategy.localized(16, 0.1234567).label == "ls:l=16,pa=0.1234567"
    assert ss.ScanStrategy.two_level(0.1 + 0.2, 0.5).label == "2lls:pb=0.30000000000000004,pc=0.5"
    assert ss.ScanStrategy.localized(8, 1e-7).label == "ls:l=8,pa=1e-07"  # :g is exact here


def test_bad_kind_error_lists_valid_kinds():
    with pytest.raises(ParameterError, match="rs"):
        ss.parse_strategy("nope")


def test_constructors_validate():
    with pytest.raises(ParameterError):
        ss.ScanStrategy.localized(16, -0.1)
    with pytest.raises(ParameterError):
        ss.ScanStrategy.two_level(0.6, 0.6)
    with pytest.raises(ParameterError):
        ss.ScanStrategy("2lls", l=8, p_b=0.1, p_c=0.1)
    with pytest.raises(ParameterError):
        ss.ScanStrategy.importance(2, q_g=[0.5, 0.6, 0.0, 0.0])  # sums to 1.1
    with pytest.raises(ParameterError):
        ss.ScanStrategy.importance(2, q_g=[0.5, 0.5])  # wrong length


@pytest.mark.parametrize("fields", [
    dict(kind="rs", p_a=0.5), dict(kind="mss", l=8, p_b=0.1), dict(kind="ls", l=8, p_a=0.5, p_c=0.1),
], ids=["rs_p_a", "mss_p_b", "ls_p_c"])
def test_probability_fields_follow_the_token_keys(fields):
    with pytest.raises(ParameterError):
        ss.ScanStrategy(**fields)


# -- group scan laws -------------------------------------------------------


def test_rs_law_is_uniform():
    q = ss.group_scan_distribution(ss.ScanStrategy.rs(l=8))
    assert np.allclose(q, 1 / 256)
    assert math.fsum(q) == pytest.approx(1.0, abs=1e-12)


def test_is_law_defaults_to_host_distribution(four_hosts):
    d = ss.aggregate(four_hosts, 8)
    q = ss.group_scan_distribution(ss.ScanStrategy.importance(8), dist=d)
    assert q[10] == 0.75 and q[192] == 0.25
    with pytest.raises(ParameterError):
        ss.group_scan_distribution(ss.ScanStrategy.importance(8))  # no dist


def test_is_law_accepts_coarser_target(four_hosts):
    d16 = ss.aggregate(four_hosts, 16)
    q = ss.group_scan_distribution(ss.ScanStrategy.importance(8), dist=d16)
    assert q[10] == 0.75
    with pytest.raises(ParameterError):
        ss.group_scan_distribution(ss.ScanStrategy.importance(16), dist=d16.coarsen(8))


def test_optis_law_is_point_mass_with_low_tie(four_hosts):
    d = ss.aggregate(four_hosts, 8)
    q = ss.group_scan_distribution(ss.ScanStrategy.optimal(8), dist=d)
    assert q[10] == 1.0 and math.fsum(q) == 1.0
    tie = ss.GroupDistribution(8, [3, 9], [5, 5])
    q = ss.group_scan_distribution(ss.ScanStrategy.optimal(8), dist=tie)
    assert q[3] == 1.0


def test_ls_law_boundaries():
    uniform = ss.group_scan_distribution(ss.ScanStrategy.localized(8, 0.0), home_subnet=3)
    assert np.allclose(uniform, 1 / 256)
    point = ss.group_scan_distribution(ss.ScanStrategy.localized(8, 1.0), home_subnet=3)
    assert point[3] == 1.0 and math.fsum(point) == 1.0


def test_ls_law_home_mass():
    q = ss.group_scan_distribution(ss.ScanStrategy.localized(16, 0.75), home_subnet=777)
    assert q[777] == pytest.approx(0.75 + 0.25 / 65536, abs=1e-15)
    assert math.fsum(q) == pytest.approx(1.0, abs=1e-9)


def test_2lls_law_masses():
    st = ss.ScanStrategy.two_level(0.25, 0.5)
    home = (10 << 8) | 7  # /16 group 2567, inside /8 group 10
    q = ss.group_scan_distribution(st, home_subnet=home)
    r = 0.25
    assert q[home] == pytest.approx(0.5 + 0.25 / 256 + r / 65536, abs=1e-15)
    sibling = (10 << 8) | 8
    assert q[sibling] == pytest.approx(0.25 / 256 + r / 65536, abs=1e-15)
    outside = (11 << 8) | 0
    assert q[outside] == pytest.approx(r / 65536, abs=1e-15)
    assert math.fsum(q) == pytest.approx(1.0, abs=1e-9)
    # whole home /8 carries p_c + p_b + its share of the rest
    assert math.fsum(q[10 << 8 : 11 << 8]) == pytest.approx(0.5 + 0.25 + r / 256, abs=1e-9)


def test_mss_has_no_group_law():
    with pytest.raises(UnsupportedStrategyError):
        ss.group_scan_distribution(ss.ScanStrategy.sequential(16))


def test_law_requires_home_for_localized():
    with pytest.raises(ParameterError):
        ss.group_scan_distribution(ss.ScanStrategy.localized(8, 0.5))


@pytest.mark.parametrize("home", [np.array([3, 4]), np.array([[3]]), [3]])
@pytest.mark.parametrize("strategy", [ss.ScanStrategy.localized(8, 0.5), ss.ScanStrategy.two_level(0.25, 0.5)],
                         ids=["ls", "2lls"])
def test_one_scanner_refuses_an_array_home(strategy, home):
    with pytest.raises(ParameterError, match="one home group index"):
        ss.group_scan_distribution(strategy, home_subnet=home)
    # a numpy integer scalar is one home
    ref = ss.group_scan_distribution(strategy, home_subnet=3)
    for one in (np.int64(3), np.uint32(3)):
        assert np.array_equal(ss.group_scan_distribution(strategy, home_subnet=one), ref)


# -- empirical frequencies -------------------------------------------------


def test_rs_draw_frequencies_uniform():
    t = TargetLaw(ss.ScanStrategy.rs(l=4)).draw(np.random.default_rng(10), 10**6)
    counts = np.bincount(t >> 28, minlength=16)
    expect = 10**6 / 16
    sigma = math.sqrt(10**6 * (1 / 16) * (15 / 16))
    assert np.all(np.abs(counts - expect) < 5 * sigma)


def test_is_draw_frequencies_match_q():
    q = np.array([0.5, 0.25, 0.125, 0.125])
    st = ss.ScanStrategy.importance(2, q_g=q)
    t = TargetLaw(st).draw(np.random.default_rng(11), 10**6)
    counts = np.bincount(t >> 30, minlength=4)
    for j in range(4):
        sigma = math.sqrt(10**6 * q[j] * (1 - q[j]))
        assert abs(counts[j] - 10**6 * q[j]) < 5 * sigma


@pytest.mark.parametrize("l, pa, home, seed, size, n", [(16, 0.75, 4660, 12, 10**6, 10**6), (8, 1.0, 9, 15, 1, 50)],
                         ids=["one_draw", "single_draws"])
def test_ls_home_frequency(l, pa, home, seed, size, n):
    # n targets in draws of `size`; with pa = 1 every single draw is in the home block
    law = TargetLaw(ss.ScanStrategy.localized(l, pa))
    rng = np.random.default_rng(seed)
    t = np.concatenate([law.draw(rng, size, home) for _ in range(n // size)])
    in_home = np.count_nonzero((t >> (32 - l)) == home)
    p = pa + (1 - pa) / 2**l
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(in_home - n * p) <= 4 * sigma


def test_2lls_level_frequencies():
    pb, pc = 0.25, 0.5
    home = (10 << 8) | 7
    n = 10**6
    t = TargetLaw(ss.ScanStrategy.two_level(pb, pc)).draw(np.random.default_rng(13), n, home)
    in16 = np.count_nonzero((t >> 16) == home)
    in8 = np.count_nonzero((t >> 24) == 10)
    p16 = pc + pb / 256 + (1 - pb - pc) / 65536
    p8 = pc + pb + (1 - pb - pc) / 256
    assert abs(in16 - n * p16) < 4 * math.sqrt(n * p16 * (1 - p16))
    assert abs(in8 - n * p8) < 4 * math.sqrt(n * p8 * (1 - p8))


LAWS_OF_A_DISTRIBUTION = pytest.mark.parametrize("strategy", [ss.ScanStrategy.importance(8), ss.ScanStrategy.optimal(8)],
                                                 ids=["is", "optis"])


@pytest.mark.parametrize("dist, says", [
    (None, "needs a non-empty host distribution"),
    (ss.GroupDistribution(8, [], []), "needs a non-empty host distribution"),
    (ss.HostSet([]), "needs a non-empty host distribution"),
    (ss.GroupDistribution(4, [10], [3]), "needs a distribution at l >= 8, got l=4"),
], ids=["none", "empty_dist", "empty_hosts", "coarser"])
@LAWS_OF_A_DISTRIBUTION
def test_a_law_of_the_hosts_needs_a_non_empty_distribution_at_its_level(strategy, dist, says):
    with pytest.raises(ParameterError, match=says):
        TargetLaw(strategy, dist)


@LAWS_OF_A_DISTRIBUTION
def test_a_host_set_and_a_finer_distribution_draw_what_the_aggregate_draws(strategy, four_hosts):
    want = TargetLaw(strategy, ss.aggregate(four_hosts, 8)).draw(np.random.default_rng(17), 1000)
    for dist in (four_hosts, ss.aggregate(four_hosts, 16)):
        assert np.array_equal(TargetLaw(strategy, dist).draw(np.random.default_rng(17), 1000), want)


def test_optis_draws_stay_in_argmax_block(four_hosts):
    d = ss.aggregate(four_hosts, 8)
    t = TargetLaw(ss.ScanStrategy.optimal(8), d).draw(np.random.default_rng(14), 1000)
    assert np.all((t >> 24) == 10)


@pytest.mark.parametrize("token, home", [("ls:l=16,pa=0.75", 4660), ("ls:l=8,pa=0.5", 255),
                                         ("2lls:pb=0.25,pc=0.5", (10 << 8) | 7), ("2lls:pb=0.25,pc=0.5", 0)])
def test_a_home_array_draws_what_its_scalar_home_draws(token, home):
    # one home per target, all equal, against the scalar home: bit for bit
    law = TargetLaw(ss.parse_strategy(token))
    n = 100_000
    want = law.draw(np.random.default_rng(16), n, home)
    assert np.array_equal(law.draw(np.random.default_rng(16), n, np.full(n, home)), want)
    assert np.array_equal(law.draw(np.random.default_rng(16), (4, n // 4), np.full((4, 1), home, np.uint32)),
                          want.reshape(4, n // 4))


@pytest.mark.parametrize("home", [None, -1, 256, 2**70, 3.0, np.array([0, 256]), np.array([-1, 3]),
                                  np.array([2**64 - 1], dtype=np.uint64), np.array([3.0]), np.array([[5], [-2]])])
def test_out_of_range_homes_are_rejected(home):
    law = TargetLaw(ss.ScanStrategy.localized(8, 0.5))
    with pytest.raises(ParameterError):
        law.home_tiers(home)
    with pytest.raises(ParameterError):
        law.draw(np.random.default_rng(0), (2, 3), home)


# -- the law over occupied groups ------------------------------------------


def dense_importance_draw(q_dense: np.ndarray, l: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """is draws by the cumulative sum of the dense 2**l law, clamped to the
    last group: the reference for an explicit q_g, kept over occupied groups
    only."""
    g = np.searchsorted(np.cumsum(q_dense), rng.random(n), side="right")
    np.minimum(g, q_dense.size - 1, out=g)
    return (g.astype(np.int64) << (32 - l)) + rng.integers(0, 1 << (32 - l), size=n, dtype=np.int64)


def literal_slot_draw(d: ss.GroupDistribution, rng: np.random.Generator, n: int) -> np.ndarray:
    """is with q_g = p_g, target by target: k uniform in [0, N * block) is
    host slot k >> bits, which lies in the group whose cumulative count first
    exceeds it, and offset k & (block - 1) inside that group's block."""
    bits = 32 - d.l
    ends = list(itertools.accumulate(d.counts.tolist()))
    groups = d.indices.tolist()
    ks = rng.integers(0, d.total << bits, size=n, dtype=np.uint64).tolist()
    return np.array([groups[bisect.bisect_right(ends, k >> bits)] << bits | (k & ((1 << bits) - 1)) for k in ks],
                    dtype=np.int64)


@pytest.mark.parametrize("name", ["zipf16", "uniform16", "explicit8"])
def test_importance_draws_equal_the_dense_cumulative_law(name):
    # an explicit q_g is searched in the dense law's cumulative sum; q_g = p_g
    # draws a host slot, found in the groups' cumulative counts
    n = 300_000
    if name == "explicit8":
        q = np.zeros(256)
        q[[3, 40, 41, 200]] = [0.1, 0.2, 0.3, 0.4]
        law, q_dense, l = TargetLaw(ss.ScanStrategy.importance(8, q_g=q)), q, 8
        want = dense_importance_draw(q_dense, l, np.random.default_rng(21), n)
    else:
        d = ss.synth_zipf(16, 1.0, 448894, seed=2) if name == "zipf16" else ss.synth_uniform(1256, 16, 357)
        q_dense = np.zeros(1 << 16)
        q_dense[d.indices] = d.counts / d.total
        law, l = TargetLaw(ss.ScanStrategy.importance(16), d), 16
        want = literal_slot_draw(d, np.random.default_rng(21), n)
    assert np.array_equal(law.draw(np.random.default_rng(21), n), want)
    assert np.array_equal(law.group_probabilities(np.arange(1 << l)), q_dense)


class Uniforms:
    """A stream whose uniforms are given and whose integers come from a
    seeded Generator."""

    def __init__(self, u, seed):
        self.u, self.rng = u, np.random.default_rng(seed)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()

    def integers(self, lo, hi, size, dtype):
        return self.rng.integers(lo, hi, size=size, dtype=dtype)


def test_importance_draw_past_the_last_cumulative_value_takes_the_last_occupied_group():
    # ten groups of 0.1 sum sequentially to 1 - 2**-53, so u = 1 - 2**-53 lies past
    # cum[-1]: the dense law clamped such a draw to group 255, which is empty
    q = np.zeros(256)
    q[10:110:10] = 0.1
    law = TargetLaw(ss.ScanStrategy.importance(8, q_g=q))
    assert np.cumsum(q[q > 0])[-1] <= np.nextafter(1.0, 0.0)
    assert (law.draw(Uniforms(np.full(3, np.nextafter(1.0, 0.0)), seed=0), 3) >> 24).tolist() == [100, 100, 100]


class Given:
    """A stream whose integers, drawn in [0, hi), and uniforms are given."""

    def __init__(self, hi, k, u=()):
        self.hi, self.k, self.u = hi, np.asarray(k, dtype=np.uint64), np.asarray(u, dtype=np.float64)

    def integers(self, lo, hi, size, dtype):
        assert (lo, hi) == (0, self.hi) and np.prod(size) == self.k.size
        return self.k.astype(dtype).reshape(size)

    def random(self, size):
        assert np.prod(size) == self.u.size
        return self.u.reshape(size).copy()


@pytest.mark.parametrize("l, groups, counts", [
    (0, [0], [3]),
    (8, [0, 7, 255], [1, 3, 2]),
    (30, [0, 5, 2**30 - 1], [4, 1, 3]),
    (32, [0, 9, 2**32 - 1], [1, 1, 1]),
])
def test_each_slot_draw_gives_each_address_of_a_group_its_count(l, groups, counts):
    # every host slot with every offset once (at l = 0 and 8, the offsets at
    # the block's edges and a few inside; all of them at 30 and 32): each
    # address of group g comes out exactly c_g times, and no other address
    d = ss.GroupDistribution(l, groups, counts)
    bits = 32 - l
    block = 1 << bits
    offsets = range(block) if block <= 4 else sorted({0, 1, 2, block // 2 - 1, block // 3, block - 2, block - 1})
    k = [slot << bits | r for slot in range(d.total) for r in offsets]
    law = TargetLaw(ss.ScanStrategy.importance(l), d)
    got = collections.Counter(law.draw(Given(d.total << bits, k), len(k)).tolist())
    assert got == {g << bits | r: c for g, c in zip(groups, counts) for r in offsets}


@pytest.mark.parametrize("token, home", [("ls:l=16,pa=0.5", 0x1234), ("ls:l=8,pa=0.25", 255),
                                         ("ls:l=32,pa=0.5", 2**32 - 1), ("ls:l=0,pa=0.5", 0),
                                         ("2lls:pb=0.25,pc=0.5", 0x0A07), ("2lls:pb=0.5,pc=0.125", 0xFFFF)])
def test_each_homed_draw_keeps_its_address_offset_in_its_tier_block(token, home):
    # u on each cumulative boundary goes to the next tier out, just below it
    # to the tier itself; a tier's target is its block start | the address's
    # offset in that block, and the rest tier's target is the address itself
    st = ss.parse_strategy(token)
    tiers = [(st.p_a, 2 ** (32 - st.l))] if st.kind == "ls" else [(st.p_c, 2**16), (st.p_b, 2**24)]
    cum = list(itertools.accumulate(mass for mass, _ in tiers))
    sizes = [size for _, size in tiers] + [2**32]
    u = sorted({0.0, 0.999, *cum, *(np.nextafter(c, 0.0) for c in cum if c > 0)} - {1.0})
    addresses = [0, 1, 0xFFFF, 0x12345678, 0xDEADBEEF, 2**32 - 1]
    k, x = zip(*itertools.product(addresses, u))
    got = TargetLaw(st).draw(Given(2**32, k, x), len(k), home).tolist()
    start = home << (32 - st.l)
    want = [start // size * size + a % size for a, size in zip(k, (sizes[bisect.bisect_right(cum, v)] for v in x))]
    assert got == want
    assert {bisect.bisect_right(cum, v) for v in x} == set(range(len(sizes)))


@pytest.mark.parametrize("n", [1, 7, 50_000])
@pytest.mark.parametrize("ties", [False, True])
def test_sorted_importance_lookup_equals_the_unsorted_search(n, ties):
    # TargetLaw.draw's search of an explicit q_g against the search of the dense
    # law: q_g with zero entries and dyadic masses, so each cumulative value
    # is exact; with ties, half the uniforms sit on 0 or a cumulative boundary
    # (repeated values included), where side="right" takes the next group
    q = np.zeros(256)
    q[[0, 3, 40, 41, 200, 255]] = [0.125, 0.25, 0.125, 0.25, 0.125, 0.125]
    st = ss.ScanStrategy.importance(8, q_g=q)
    law = TargetLaw(st)

    def stream():
        if not ties:
            return np.random.default_rng(n)
        pick = np.random.default_rng(n)
        u = pick.random(n)
        u[: (n + 1) // 2] = pick.choice(np.r_[0.0, np.cumsum(q[q > 0])[:-1]], size=(n + 1) // 2)
        return Uniforms(pick.permutation(u), seed=n)

    want = dense_importance_draw(q, 8, stream(), n)
    assert np.array_equal(law.draw(stream(), n), want)
    assert set((want >> 24).tolist()) <= {0, 3, 40, 41, 200, 255}


def test_group_probabilities_at_occupied_groups(four_hosts):
    d = ss.aggregate(four_hosts, 24)  # above MAX_DENSE_LEVEL: the law builds no 2**24 array
    groups = np.array([d.indices[0], 7, d.indices[-1]])
    assert TargetLaw(ss.ScanStrategy.importance(24), d).group_probabilities(groups).tolist() == [0.5, 0.0, 0.25]
    assert TargetLaw(ss.ScanStrategy.optimal(24), d).group_probabilities(groups).tolist() == [1.0, 0.0, 0.0]
    assert TargetLaw(ss.ScanStrategy.rs(24)).group_probabilities(groups).tolist() == [2.0**-24] * 3
    # ls and 2lls: the rest, spread uniformly; the home tiers come on top
    assert TargetLaw(ss.ScanStrategy.localized(24, 0.5)).group_probabilities(groups).tolist() == [2.0**-25] * 3
    with pytest.raises(ParameterError):
        ss.group_scan_distribution(ss.ScanStrategy.importance(24), dist=d)  # a dense 2**24 output
