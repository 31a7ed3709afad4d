import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scanspread as ss
from scanspread.errors import ParameterError
from scanspread.infometrics import profiles_from_distribution

# a {3/4, 1/4} split; hand values: H2 = -log2(5/8), H = 2 - 0.75*log2(3)
TWO_GROUPS = ss.GroupDistribution(1, [0, 1], [3, 1])

count_lists = st.lists(st.integers(1, 10**4), min_size=1, max_size=64)
addresses = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=300)


def test_hand_values_two_group_split():
    assert ss.renyi_entropy(TWO_GROUPS, 2) == pytest.approx(-math.log2(0.625), abs=1e-12)
    assert ss.shannon_entropy(TWO_GROUPS) == pytest.approx(2.0 - 0.75 * math.log2(3.0), abs=1e-12)
    assert ss.min_entropy(TWO_GROUPS) == pytest.approx(-math.log2(0.75), abs=1e-12)
    assert ss.non_uniformity_factor(TWO_GROUPS).beta == pytest.approx(1.25, abs=1e-12)
    assert ss.l2_distance_to_uniform(TWO_GROUPS) == pytest.approx(0.125, abs=1e-12)


def test_fixture_beta_at_l8(four_hosts):
    d = ss.aggregate(four_hosts, 8)
    assert ss.non_uniformity_factor(d).beta == pytest.approx(160.0, abs=1e-9)
    assert ss.l2_distance_to_uniform(d) == pytest.approx(159.0 / 256.0, rel=1e-12)


def test_uniform_full_support_all_entropies_equal_l():
    d = ss.synth_uniform(256, 8, 17)
    rep = ss.entropy_report(d)
    assert rep.h0 == rep.shannon == rep.h2 == rep.h_inf == 8.0
    assert ss.non_uniformity_factor(d).beta == 1.0
    assert ss.l2_distance_to_uniform(d) == 0.0


def test_single_group_is_fully_concentrated():
    d = ss.GroupDistribution(8, [42], [1000])
    rep = ss.entropy_report(d)
    assert rep.h0 == rep.shannon == rep.h2 == rep.h_inf == 0.0
    assert ss.non_uniformity_factor(d).beta == 256.0


def test_distinct_hosts_beta_at_l32():
    hosts = ss.HostSet(range(1000))
    beta = ss.non_uniformity_factor(ss.aggregate(hosts, 32)).beta
    assert beta == pytest.approx(2**32 / 1000, rel=1e-12)


def test_reported_min_entropy_matches_published_rounding():
    # a max group probability of 0.0041 carries about 7.93 bits
    assert -math.log2(0.0041) == pytest.approx(7.93, abs=0.005)


def test_renyi_special_orders(four_hosts):
    d = ss.aggregate(four_hosts, 8)
    assert ss.renyi_entropy(d, 0) == math.log2(d.occupied) == 1.0
    assert ss.renyi_entropy(d, math.inf) == ss.min_entropy(d)
    # large finite orders approach the min-entropy without underflow
    assert ss.renyi_entropy(d, 200) == pytest.approx(ss.min_entropy(d), abs=0.01)


def test_renyi_validation():
    with pytest.raises(ParameterError):
        ss.renyi_entropy(TWO_GROUPS, -1.0)
    with pytest.raises(ParameterError):
        ss.renyi_entropy(TWO_GROUPS, 1.0)
    with pytest.raises(ParameterError):
        ss.renyi_entropy(TWO_GROUPS, 1.0 + 1e-9)
    with pytest.raises(ParameterError):
        ss.shannon_entropy(ss.GroupDistribution(4, [], []))


@given(counts=count_lists, l=st.integers(6, 12))
@settings(max_examples=100, deadline=None)
def test_entropy_chain_orders_correctly(counts, l):
    # support size bound, then Shannon, collision, min-entropy
    d = ss.GroupDistribution(l, list(range(len(counts))), counts)
    rep = ss.entropy_report(d)
    assert rep.h0 + 1e-9 >= rep.shannon >= rep.h2 - 1e-9 >= rep.h_inf - 2e-9
    assert rep.h0 <= l and rep.h_inf >= 0


@given(counts=count_lists, l=st.integers(6, 12))
@settings(max_examples=100, deadline=None)
def test_equal_counts_iff_entropies_collapse(counts, l):
    d = ss.GroupDistribution(l, list(range(len(counts))), counts)
    rep = ss.entropy_report(d)
    if len(set(counts)) == 1:
        assert rep.shannon == pytest.approx(rep.h0, abs=1e-9)
        assert rep.h_inf == pytest.approx(rep.h0, abs=1e-9)
    else:
        # any unevenness strictly separates Shannon from the collision entropy
        assert rep.shannon > rep.h2
        assert ss.non_uniformity_factor(d).beta > 2.0 ** (l - rep.shannon)


@given(counts=count_lists, l=st.integers(6, 12))
@settings(max_examples=100, deadline=None)
def test_beta_identities(counts, l):
    d = ss.GroupDistribution(l, list(range(len(counts))), counts)
    beta = ss.non_uniformity_factor(d).beta
    assert 1.0 - 1e-12 <= beta <= 2.0**l + 1e-9
    assert beta == pytest.approx(2.0 ** (l - ss.renyi_entropy(d, 2)), rel=1e-9)
    assert beta == pytest.approx(2.0**l * ss.l2_distance_to_uniform(d) + 1.0, rel=1e-9)


@given(addrs=addresses, l=st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_level_step_bounds(addrs, l):
    # refining one level at most doubles beta and adds at most one bit
    hosts = ss.HostSet(addrs)
    coarse = ss.aggregate(hosts, l - 1)
    fine = ss.aggregate(hosts, l)
    b0 = ss.non_uniformity_factor(coarse).beta
    b1 = ss.non_uniformity_factor(fine).beta
    assert b0 * (1 - 1e-9) <= b1 <= 2 * b0 * (1 + 1e-9)
    h0 = ss.shannon_entropy(coarse)
    h1 = ss.shannon_entropy(fine)
    assert h0 - 1e-9 <= h1 <= h0 + 1.0 + 1e-9


def test_even_split_hosts_hit_both_equality_regimes():
    # 2**10 hosts on a lattice: every level to 10 splits evenly, beyond 10
    # each group keeps a single child
    L = 10
    hosts = ss.HostSet([k << (32 - L) for k in range(1 << L)])
    betas = dict(ss.beta_profile(hosts, 16))
    shannons = dict(ss.shannon_profile(hosts, 16))
    for l in range(0, L + 1):
        assert betas[l] == pytest.approx(1.0, rel=1e-12)  # even split: no gain
        assert shannons[l] == pytest.approx(float(l), abs=1e-9)  # full extra bit
    for l in range(L + 1, 17):
        assert betas[l] == pytest.approx(2.0 ** (l - L), rel=1e-12)  # doubling
        assert shannons[l] == pytest.approx(float(L), abs=1e-9)  # no extra bit


def test_single_host_profile_is_fully_concentrated():
    hosts = ss.HostSet([123456789])
    assert ss.beta_profile(hosts, 12) == [(l, float(2**l)) for l in range(13)]
    assert all(h == 0.0 for _, h in ss.shannon_profile(hosts, 12))


def test_profiles_from_distribution_match_host_route(four_hosts):
    betas_h = ss.beta_profile(four_hosts, 16)
    shannons_h = ss.shannon_profile(four_hosts, 16)
    betas_d, shannons_d = profiles_from_distribution(ss.aggregate(four_hosts, 16))
    for (l1, a), (l2, b) in zip(betas_h, betas_d):
        assert l1 == l2 and a == pytest.approx(b, rel=1e-12)
    for (l1, a), (l2, b) in zip(shannons_h, shannons_d):
        assert l1 == l2 and a == pytest.approx(b, rel=1e-12)


def test_profile_rejects_empty():
    with pytest.raises(ParameterError):
        ss.beta_profile(ss.HostSet([]), 8)
    with pytest.raises(ParameterError):
        ss.shannon_profile(ss.HostSet([]), 8)
