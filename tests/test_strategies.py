import math

import numpy as np
import pytest

import scanspread as ss
from scanspread.errors import ParameterError, UnsupportedStrategyError
from scanspread.strategies import ScannerState, TargetLaw


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
    "is:l=16,q=3", "rs:l=-1",
])
def test_parse_rejects_bad_tokens(token):
    with pytest.raises(ParameterError):
        ss.parse_strategy(token)


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


# -- scanner state ---------------------------------------------------------


def test_memoryless_strategies_ignore_hits():
    state = ScannerState(ss.ScanStrategy.rs(), np.random.default_rng(0))
    state.on_hit(12345)
    assert state.phase == "random"
    assert 0 <= state.next_target() < 2**32


def test_mss_sweeps_block_once_per_cycle():
    # tiny block (/28) so a full cycle is 16 targets
    st = ss.ScanStrategy.sequential(28)
    state = ScannerState(st, np.random.default_rng(1))
    hit = (5 << 4) + 9
    state.on_hit(hit)
    assert state.phase == "sequential"
    block = [(5 << 4) + off for off in range(16)]
    targets = [state.next_target() for _ in range(16)]
    assert targets[0] == hit + 1
    assert sorted(targets) == block  # each address exactly once
    assert [state.next_target() for _ in range(16)] == targets  # cyclic


def test_mss_transitions_exactly_once():
    st = ss.ScanStrategy.sequential(28)
    state = ScannerState(st, np.random.default_rng(2))
    state.on_hit(100)
    first = state.next_target()
    state.on_hit(first)  # later hits must not re-anchor
    assert state.next_target() == first + 1


def test_mss_wraps_at_block_end():
    st = ss.ScanStrategy.sequential(28)
    state = ScannerState(st, np.random.default_rng(3))
    state.on_hit((7 << 4) + 15)  # last address of the block
    assert state.next_target() == 7 << 4  # wraps to the block start


def test_state_validation(four_hosts):
    rng = np.random.default_rng(0)
    with pytest.raises(ParameterError):
        ScannerState(ss.ScanStrategy.importance(8), rng)  # q = p needs a dist
    with pytest.raises(ParameterError):
        ScannerState(ss.ScanStrategy.localized(8, 0.5), rng)  # needs a home
    ScannerState(ss.ScanStrategy.importance(8), rng, dist=ss.aggregate(four_hosts, 8))


# -- empirical frequencies -------------------------------------------------


def test_rs_draw_frequencies_uniform():
    state = ScannerState(ss.ScanStrategy.rs(l=4), np.random.default_rng(10))
    t = state.draw_targets(10**6)
    counts = np.bincount(t >> 28, minlength=16)
    expect = 10**6 / 16
    sigma = math.sqrt(10**6 * (1 / 16) * (15 / 16))
    assert np.all(np.abs(counts - expect) < 5 * sigma)


def test_is_draw_frequencies_match_q():
    q = np.array([0.5, 0.25, 0.125, 0.125])
    st = ss.ScanStrategy.importance(2, q_g=q)
    state = ScannerState(st, np.random.default_rng(11))
    t = state.draw_targets(10**6)
    counts = np.bincount(t >> 30, minlength=4)
    for j in range(4):
        sigma = math.sqrt(10**6 * q[j] * (1 - q[j]))
        assert abs(counts[j] - 10**6 * q[j]) < 5 * sigma


def test_ls_home_frequency():
    pa = 0.75
    state = ScannerState(ss.ScanStrategy.localized(16, pa), np.random.default_rng(12), home_subnet=4660)
    t = state.draw_targets(10**6)
    in_home = np.count_nonzero((t >> 16) == 4660)
    p = pa + (1 - pa) / 65536
    sigma = math.sqrt(10**6 * p * (1 - p))
    assert abs(in_home - 10**6 * p) < 4 * sigma


def test_2lls_level_frequencies():
    pb, pc = 0.25, 0.5
    home = (10 << 8) | 7
    state = ScannerState(ss.ScanStrategy.two_level(pb, pc), np.random.default_rng(13), home_subnet=home)
    n = 10**6
    t = state.draw_targets(n)
    in16 = np.count_nonzero((t >> 16) == home)
    in8 = np.count_nonzero((t >> 24) == 10)
    p16 = pc + pb / 256 + (1 - pb - pc) / 65536
    p8 = pc + pb + (1 - pb - pc) / 256
    assert abs(in16 - n * p16) < 4 * math.sqrt(n * p16 * (1 - p16))
    assert abs(in8 - n * p8) < 4 * math.sqrt(n * p8 * (1 - p8))


def test_optis_draws_stay_in_argmax_block(four_hosts):
    d = ss.aggregate(four_hosts, 8)
    state = ScannerState(ss.ScanStrategy.optimal(8), np.random.default_rng(14), dist=d)
    t = state.draw_targets(1000)
    assert np.all((t >> 24) == 10)


def test_single_draws_follow_the_same_law():
    state = ScannerState(ss.ScanStrategy.localized(8, 1.0), np.random.default_rng(15), home_subnet=9)
    for _ in range(50):
        assert state.next_target() >> 24 == 9


# -- the law over occupied groups ------------------------------------------


def dense_importance_draw(q_dense: np.ndarray, l: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """is draws by the cumulative sum of the dense 2**l law, clamped to the
    last group: the reference for the law kept over occupied groups only."""
    g = np.searchsorted(np.cumsum(q_dense), rng.random(n), side="right")
    np.minimum(g, q_dense.size - 1, out=g)
    return (g.astype(np.int64) << (32 - l)) + rng.integers(0, 1 << (32 - l), size=n, dtype=np.int64)


@pytest.mark.parametrize("name", ["zipf16", "uniform16", "explicit8"])
def test_importance_draws_equal_the_dense_cumulative_law(name):
    if name == "explicit8":
        q = np.zeros(256)
        q[[3, 40, 41, 200]] = [0.1, 0.2, 0.3, 0.4]
        law, q_dense, l = TargetLaw(ss.ScanStrategy.importance(8, q_g=q)), q, 8
    else:
        d = ss.synth_zipf(16, 1.0, 448894, seed=2) if name == "zipf16" else ss.synth_uniform(1256, 16, 357)
        q_dense = np.zeros(1 << 16)
        q_dense[d.indices] = d.counts / d.total
        law, l = TargetLaw(ss.ScanStrategy.importance(16), d), 16
    got = law.draw(np.random.default_rng(21), 300_000)
    assert np.array_equal(got, dense_importance_draw(q_dense, l, np.random.default_rng(21), 300_000))
    assert np.array_equal(law.group_probabilities(np.arange(1 << l)), q_dense)


def test_importance_draw_past_the_last_cumulative_value_takes_the_last_occupied_group():
    # ten groups of 0.1 sum sequentially to 1 - 2**-53, so u = 1 - 2**-53 lies past
    # cum[-1]: the dense law clamped such a draw to group 255, which is empty
    d = ss.GroupDistribution(8, np.arange(10, 110, 10), np.ones(10))
    law = TargetLaw(ss.ScanStrategy.importance(8), d)
    assert np.cumsum(d.counts / d.total)[-1] <= np.nextafter(1.0, 0.0)

    class Stream:
        def random(self, n):
            return np.full(n, np.nextafter(1.0, 0.0))

        def integers(self, lo, hi, size, dtype):
            return np.zeros(size, dtype=dtype)

    assert (law.draw(Stream(), 3) >> 24).tolist() == [100, 100, 100]


def test_group_probabilities_at_occupied_groups(four_hosts):
    d = ss.aggregate(four_hosts, 24)  # above MAX_DENSE_LEVEL: the law builds no 2**24 array
    groups = np.array([d.indices[0], 7, d.indices[-1]])
    assert TargetLaw(ss.ScanStrategy.importance(24), d).group_probabilities(groups).tolist() == [0.5, 0.0, 0.25]
    assert TargetLaw(ss.ScanStrategy.optimal(24), d).group_probabilities(groups).tolist() == [1.0, 0.0, 0.0]
    assert TargetLaw(ss.ScanStrategy.rs(24)).group_probabilities(groups).tolist() == [2.0**-24] * 3
    with pytest.raises(UnsupportedStrategyError):
        TargetLaw(ss.ScanStrategy.localized(24, 0.5)).group_probabilities(groups)
    with pytest.raises(ParameterError):
        ss.group_scan_distribution(ss.ScanStrategy.importance(24), dist=d)  # a dense 2**24 output
