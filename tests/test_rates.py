import csv
import math

import numpy as np
import pytest

import scanspread as ss
from scanspread.errors import ParameterError
from scanspread.rates import (
    CODE_RED_POPULATION,
    CODE_RED_SCANS_PER_MINUTE,
    code_red_alpha_per_second,
    write_rates_csv,
)

# injected reference scenario: measured non-uniformity of a ~449k population
REF_CTX = ss.ScanContext(
    s=100.0,
    N=448894,
    beta_overrides={8: 9.0, 16: 52.2},
    max_p_overrides={16: 0.004115},
)


def zipf_ctx(l=8, n=50000, seed=7):
    d = ss.synth_zipf(l, 1.0, n, seed=seed)
    return d, ss.ScanContext(s=100.0, N=d.total, dist=d)


# -- collision probability -------------------------------------------------


def test_collision_probability_routes(four_hosts):
    d = ss.aggregate(four_hosts, 8)
    p = ss.group_scan_distribution(ss.ScanStrategy.importance(8), dist=d)
    ssq = d.sum_sq_counts() / d.total**2
    assert ss.collision_probability(d, p) == pytest.approx(ssq, rel=1e-12)
    assert ss.collision_probability(d, np.full(256, 1 / 256)) == pytest.approx(1 / 256, rel=1e-12)
    point = np.zeros(256)
    point[d.argmax_index] = 1.0
    assert ss.collision_probability(d, point) == pytest.approx(d.max_probability, rel=1e-12)


def test_collision_probability_dimension_check(four_hosts):
    with pytest.raises(ParameterError):
        ss.collision_probability(ss.aggregate(four_hosts, 8), np.full(128, 1 / 128))


# -- baseline rates --------------------------------------------------------


def test_alpha_rs_reference_value():
    assert round(ss.alpha_rs(REF_CTX), 4) == 0.0105


def test_code_red_baseline():
    expect = CODE_RED_POPULATION * (CODE_RED_SCANS_PER_MINUTE / 60.0) / 2**32
    assert code_red_alpha_per_second() == expect
    assert code_red_alpha_per_second() == pytest.approx(5.0e-4, rel=0.01)


def test_context_validation():
    with pytest.raises(ParameterError):
        ss.ScanContext(s=0.0, N=10)
    with pytest.raises(ParameterError):
        ss.ScanContext(s=1.0, N=0)
    with pytest.raises(ParameterError):
        ss.ScanContext(s=1.0, N=100, omega=50.0)
    with pytest.raises(ParameterError):
        ss.ScanContext(s=1.0, N=100).beta_at(8)  # nothing to derive from


# -- the closed forms ------------------------------------------------------


def test_reference_table_values():
    # the published six-strategy comparison at s=100, N=448894
    cases = {
        "rs": (16.0, 0.0, 0.0105),
        "optis:l=16": (7.9266, 8.0734, 2.8152),
        "is:l=16": (10.2940, 5.7060, 0.5456),
        "ls:l=16,pa=0.75": (10.6999, 5.3001, 0.4118),
        "2lls:pb=0.25,pc=0.5": (11.1620, 4.8380, 0.2989),
        "mss:l=16": (10.2940, 5.7060, 0.5456),
    }
    for token, (unc, info, alpha) in cases.items():
        rep = ss.alpha_for(ss.parse_strategy(token), REF_CTX)
        assert rep.uncertainty_bits == pytest.approx(unc, abs=0.02), token
        assert rep.info_bits == pytest.approx(info, abs=0.02), token
        assert rep.alpha == pytest.approx(alpha, abs=0.01), token


def test_closed_forms_against_factors():
    base = ss.alpha_rs(REF_CTX)
    assert ss.alpha_for(ss.parse_strategy("is:l=16"), REF_CTX).alpha == pytest.approx(base * 52.2, rel=1e-12)
    assert ss.alpha_for(ss.parse_strategy("is:l=8"), REF_CTX).alpha == pytest.approx(base * 9.0, rel=1e-12)
    ls = ss.alpha_for(ss.parse_strategy("ls:l=16,pa=0.75"), REF_CTX).alpha
    assert ls == pytest.approx(base * (0.25 + 0.75 * 52.2), rel=1e-12)
    two = ss.alpha_for(ss.parse_strategy("2lls:pb=0.25,pc=0.5"), REF_CTX).alpha
    assert two == pytest.approx(base * (0.25 + 0.25 * 9.0 + 0.5 * 52.2), rel=1e-12)
    opt = ss.alpha_for(ss.parse_strategy("optis:l=16"), REF_CTX).alpha
    assert opt == pytest.approx(base * 65536 * 0.004115, rel=1e-12)


def test_info_bits_equal_log_gain():
    # alpha = alpha_RS * 2**info for every strategy
    d, ctx = zipf_ctx(l=16)
    base = ss.alpha_rs(ctx)
    for token in ["rs", "is:l=8", "optis:l=8", "ls:l=8,pa=0.6", "2lls:pb=0.2,pc=0.3", "mss:l=8"]:
        rep = ss.alpha_for(ss.parse_strategy(token), ctx)
        assert rep.alpha == pytest.approx(base * 2.0**rep.info_bits, rel=1e-9), token
        assert rep.info_bits == pytest.approx(rep.l - rep.uncertainty_bits, abs=1e-12)


def test_explicit_q_path_agrees_with_derived_path():
    d, ctx = zipf_ctx()
    implicit = ss.alpha_for(ss.ScanStrategy.importance(8), ctx)
    explicit = ss.alpha_for(ss.ScanStrategy.importance(8, q_g=ss.group_scan_distribution(ss.ScanStrategy.importance(8), dist=d)), ctx)
    assert explicit.alpha == pytest.approx(implicit.alpha, rel=1e-12)
    assert explicit.collision_probability == pytest.approx(implicit.collision_probability, rel=1e-12)


def test_orderings_for_canonical_choices():
    d, ctx = zipf_ctx()
    base = ss.alpha_rs(ctx)
    a_is = ss.alpha_for(ss.ScanStrategy.importance(8), ctx).alpha
    a_opt = ss.alpha_for(ss.ScanStrategy.optimal(8), ctx).alpha
    uniform_q = ss.alpha_for(ss.ScanStrategy.importance(8, q_g=np.full(256, 1 / 256)), ctx).alpha
    assert uniform_q == pytest.approx(base, rel=1e-9)
    assert base <= a_is <= a_opt


def test_optis_bounds_any_q():
    d, ctx = zipf_ctx()
    rng = np.random.default_rng(3)
    a_opt = ss.alpha_for(ss.ScanStrategy.optimal(8), ctx).alpha
    for _ in range(20):
        q = rng.random(256)
        q /= q.sum()
        a_q = ss.alpha_for(ss.ScanStrategy.importance(8, q_g=q), ctx).alpha
        assert a_q <= a_opt * (1 + 1e-12)


def test_ls_monotone_in_locality():
    d, ctx = zipf_ctx()
    alphas = [ss.alpha_for(ss.ScanStrategy.localized(8, pa), ctx).alpha
              for pa in np.linspace(0, 1, 11)]
    assert all(a < b for a, b in zip(alphas, alphas[1:]))
    assert alphas[0] == pytest.approx(ss.alpha_rs(ctx), rel=1e-12)
    assert alphas[-1] == pytest.approx(ss.alpha_for(ss.ScanStrategy.importance(8), ctx).alpha, rel=1e-12)


def test_2lls_monotone_in_both_weights():
    base = ss.alpha_for(ss.ScanStrategy.two_level(0.2, 0.3), REF_CTX).alpha
    assert ss.alpha_for(ss.ScanStrategy.two_level(0.3, 0.3), REF_CTX).alpha > base
    assert ss.alpha_for(ss.ScanStrategy.two_level(0.2, 0.4), REF_CTX).alpha > base


def test_mss_two_stage_rates():
    rep = ss.alpha_for(ss.parse_strategy("mss:l=16"), REF_CTX)
    assert rep.alpha_stage1 == pytest.approx(ss.alpha_rs(REF_CTX), rel=1e-12)
    assert rep.alpha == pytest.approx(ss.alpha_for(ss.parse_strategy("is:l=16"), REF_CTX).alpha, rel=1e-12)
    assert ss.alpha_for(ss.parse_strategy("rs"), REF_CTX).alpha_stage1 is None


def test_is_at_l0_learns_nothing(four_hosts):
    ctx = ss.ScanContext(s=100.0, N=4, hosts=four_hosts)
    rep = ss.alpha_for(ss.ScanStrategy.importance(0), ctx)
    assert rep.alpha == pytest.approx(ss.alpha_rs(ctx), rel=1e-12)
    assert rep.info_bits == pytest.approx(0.0, abs=1e-12)


def test_context_prefers_overrides_then_dist(four_hosts):
    d = ss.aggregate(four_hosts, 16)
    ctx = ss.ScanContext(s=1.0, N=4, dist=d, beta_overrides={8: 99.0})
    assert ctx.beta_at(8) == 99.0  # override wins
    assert ctx.beta_at(16) == ss.non_uniformity_factor(d).beta  # derived
    with pytest.raises(ParameterError):
        ss.ScanContext(s=1.0, N=4, dist=ss.aggregate(four_hosts, 8)).beta_at(16)


# -- proactive protection --------------------------------------------------


def test_pp_reference_thresholds():
    assert ss.pp_requirement(50.0, 1.0) == pytest.approx(0.02, abs=1e-12)
    assert ss.pp_requirement(50.0, 0.98) == pytest.approx(0.0, abs=1e-12)
    assert ss.pp_requirement(50.0, 0.9) < 0  # infeasible below the bound
    assert ss.pp_min_deployment(50.0) == pytest.approx(0.98, abs=1e-12)


def test_pp_accepts_measured_beta(four_hosts):
    beta = ss.non_uniformity_factor(ss.aggregate(four_hosts, 8))
    assert ss.pp_requirement(beta, 1.0) == pytest.approx(1.0 / beta.beta, rel=1e-12)


def test_pp_uniform_distribution_needs_nothing():
    # beta = 1: the scanner gains nothing, any preference p <= 1 suffices
    for d in (0.1, 0.5, 1.0):
        assert ss.pp_requirement(1.0, d) == pytest.approx(1.0, abs=1e-12)


def test_pp_modified_alpha_limits():
    st = ss.ScanStrategy.importance(16)
    full = ss.pp_modified_alpha(st, REF_CTX, d=1.0, p=1.0)
    assert full == pytest.approx(ss.alpha_rs(REF_CTX) * 52.2, rel=1e-12)  # no real protection
    at_req = ss.pp_modified_alpha(st, REF_CTX, d=1.0, p=1.0 / 52.2)
    assert at_req == pytest.approx(ss.alpha_rs(REF_CTX), rel=1e-12)  # knocked down to RS
    nearly_none = ss.pp_modified_alpha(st, REF_CTX, d=1e-9, p=0.0)
    assert nearly_none == pytest.approx(ss.alpha_rs(REF_CTX) * 52.2, rel=1e-6)


def test_pp_validation():
    st = ss.ScanStrategy.importance(16)
    with pytest.raises(ParameterError):
        ss.pp_modified_alpha(st, REF_CTX, d=0.0, p=0.5)
    with pytest.raises(ParameterError):
        ss.pp_modified_alpha(st, REF_CTX, d=0.5, p=1.5)
    with pytest.raises(ParameterError):
        ss.pp_modified_alpha(ss.ScanStrategy.rs(), REF_CTX, d=0.5, p=0.5)
    with pytest.raises(ParameterError):
        ss.pp_requirement(0.5, 1.0)
    with pytest.raises(ParameterError):
        ss.pp_requirement(50.0, 1.1)


# -- huge-space scanning ---------------------------------------------------


def test_ipv6_reference_point():
    alpha = ss.ipv6_alpha(4000.0, 10**8, 1e5)
    assert alpha == pytest.approx(2.2e-3, rel=0.03)
    assert alpha > code_red_alpha_per_second()


def test_ipv6_without_concentration_is_hopeless():
    assert ss.ipv6_alpha(4000.0, 10**8, 1.0) == pytest.approx(4000.0 * 1e8 / 2.0**64, rel=1e-12)


def test_ipv6_fully_concentrated_matches_v4_baseline():
    # all hosts inside one top-level /32 group: as easy as scanning IPv4
    s, n = 358.0, 360000
    assert ss.ipv6_alpha(s, n, 2.0**32) == pytest.approx(s * n / 2.0**32, rel=1e-12)


def test_ipv6_validation():
    with pytest.raises(ParameterError):
        ss.ipv6_alpha(0.0, 10, 1.0)
    with pytest.raises(ParameterError):
        ss.ipv6_alpha(1.0, 10, 0.5)


# -- csv -------------------------------------------------------------------


def test_rates_csv_quotes_comma_tokens(tmp_path):
    reports = ss.rate_table(
        [ss.parse_strategy("rs"), ss.parse_strategy("ls:l=16,pa=0.75")], REF_CTX
    )
    path = tmp_path / "rates.csv"
    write_rates_csv(reports, path, time_unit="second")
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["strategy", "uncertainty_bits", "info_bits", "alpha_per_second"]
    assert [r[0] for r in rows[1:]] == ["rs", "ls:l=16,pa=0.75"]
    assert all(len(r) == 4 for r in rows)
    assert float(rows[1][3]) == pytest.approx(ss.alpha_rs(REF_CTX), rel=1e-15)
