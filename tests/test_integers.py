"""One rule for every scalar integer parameter: check_int takes an int or a
numpy integer (never a bool) in its range, returns a Python int, and refuses
anything else with a ParameterError that names the parameter."""

import numpy as np
import pytest

import scanspread as ss
from scanspread.addrspace import check_int
from scanspread.errors import ParameterError

DIST = ss.synth_zipf(8, 1.0, 300, seed=2)
HOSTS = ss.materialize_hosts(DIST, seed=5)


def early(**fields):
    cfg = dict(strategy=ss.parse_strategy("is:l=8"), s=1.0, total_scans=100, runs=20, seed=1, hosts=HOSTS)
    return ss.EarlyStageConfig(**{**cfg, **fields})


def outbreak(**fields):
    cfg = ss.EpidemicConfig(**{**dict(strategy=ss.parse_strategy("rs:l=8"), dist=DIST, s=1.0, horizon=5), **fields})
    return ss.propagate(cfg).n.tolist()


# (parameter, what its message names, a valid value, the call that takes it)
PARAMETERS = [
    ("prefix level", "prefix level", 8, lambda v: ss.aggregate(HOSTS, v)),
    ("n_occupied", "n_occupied", 3, lambda v: ss.synth_uniform(v, 8, 2)),
    ("hosts_per_group", "hosts_per_group", 2, lambda v: ss.synth_uniform(3, 8, v)),
    ("n_hosts", "n_hosts", 100, lambda v: ss.synth_zipf(8, 1.0, v, 1)),
    ("zipf seed", "seed", 1, lambda v: ss.synth_zipf(8, 1.0, 100, v)),
    ("materialize_hosts seed", "seed", 5, lambda v: ss.materialize_hosts(DIST, v)),
    ("total_scans", "total_scans", 100, lambda v: ss.estimate_infection_rate(early(total_scans=v))),
    ("runs", "runs", 20, lambda v: ss.estimate_infection_rate(early(runs=v))),
    ("seed", "seed", 1, lambda v: ss.estimate_infection_rate(early(seed=v))),
    ("threads", "threads", 2, lambda v: ss.estimate_infection_rate(early(threads=v))),
    ("scan budget", "scan budget", 1000,
     lambda v: ss.estimate_mss_full(early(strategy=ss.parse_strategy("mss:l=8")), [10, v])),
    ("horizon", "horizon", 5, lambda v: outbreak(horizon=v)),
    ("initial", "initial", int(DIST.indices[1]), lambda v: outbreak(initial=v)),
    ("ScanContext N", "population N", 100, lambda v: ss.alpha_rs(ss.ScanContext(s=1.0, N=v))),
    ("override level", "override level", 8,
     lambda v: ss.ScanContext(s=1.0, N=100, beta_overrides={v: 2.0}).beta_at(8)),
    ("ipv6_alpha N", "population N", 100, lambda v: ss.ipv6_alpha(1.0, v, 2.0)),
    ("group index", "group index", 1, lambda v: ss.synth_uniform(3, 8, 2).count_of(v)),
]
IDS = [p[0] for p in PARAMETERS]


@pytest.mark.parametrize("bad", [10.5, True, "5", None], ids=["float", "bool", "str", "none"])
@pytest.mark.parametrize("name, what, good, call", PARAMETERS, ids=IDS)
def test_every_scalar_integer_refuses_what_is_not_an_integer(name, what, good, call, bad):
    with pytest.raises(ParameterError, match=what) as caught:
        call(bad)
    assert type(caught.value) is ParameterError  # no raw TypeError or ValueError either


@pytest.mark.parametrize("name, what, good, call", PARAMETERS, ids=IDS)
def test_every_scalar_integer_takes_numpy_integers_as_python_ints(name, what, good, call):
    want = call(good)
    assert call(np.int64(good)) == want and call(np.uint16(good)) == want


def test_frozen_configs_store_python_ints():
    cfg = early(total_scans=np.int64(100), runs=np.uint32(20), seed=np.int8(1), threads=np.int64(2))
    assert {type(getattr(cfg, f)) for f in ("total_scans", "runs", "seed", "threads")} == {int}
    cfg = ss.EpidemicConfig(ss.parse_strategy("rs:l=8"), DIST, 1.0, np.int64(5), initial=np.int64(3))
    assert (type(cfg.horizon), type(cfg.initial)) == (int, int)
    assert type(ss.ScanContext(s=1.0, N=np.int64(100)).N) is int
    assert type(ss.ScanStrategy("is", l=np.int64(8)).l) is int


@pytest.mark.parametrize("value, lo, hi, says", [
    (0, 1, None, "x must be >= 1, got 0"),
    (2**32 + 1, 1, 2**32, "x must be in [1, 2**32], got 4294967297"),
    (33, 0, 32, "x must be in [0, 32], got 33"),
    (256, 0, 255, "x must be in [0, 255], got 256"),
    (np.uint64(2**64 - 1), 0, 2**63, "x must be in [0, 2**63], got 18446744073709551615"),
    (np.bool_(True), 0, None, "x must be an integer, got np.True_"),
    (np.array(5), 0, None, "x must be an integer, got array(5)"),
    (5.0, 0, None, "x must be an integer, got 5.0"),
])
def test_check_int_words_its_refusals(value, lo, hi, says):
    with pytest.raises(ParameterError) as caught:
        check_int(value, "x", lo, hi)
    assert str(caught.value) == says


def test_check_int_returns_a_python_int_and_has_no_upper_bound_by_default():
    for value in [0, np.int64(7), np.uint64(2**64 - 1), 10**30]:
        got = check_int(value, "x", 0)
        assert type(got) is int and got == int(value)
    # an upper bound applies only where the parameter has one: a huge count
    # still reaches the capacity message
    with pytest.raises(ss.CapacityError, match="needs 100000000000000000000 distinct hosts"):
        ss.synth_uniform(2, 8, 10**20)


@pytest.mark.parametrize("call, says", [
    (lambda: ss.ipv6_alpha(1.0, 2**64 + 1, 2.0), "population N must be in [1, 2**64], got 18446744073709551617"),
    (lambda: ss.ipv6_alpha(1.0, 10**400, 2.0), "population N must be in [1, 2**64], got 1000"),
    (lambda: ss.ipv6_alpha(1.0, 0, 2.0), "population N must be in [1, 2**64], got 0"),
    (lambda: ss.synth_uniform(3, 8, 2).count_of(256), "group index must be in [0, 255], got 256"),
    (lambda: ss.synth_uniform(3, 8, 2).count_of(-1), "group index must be in [0, 255], got -1"),
], ids=["ipv6_N_past_2_64", "ipv6_N_past_the_floats", "ipv6_N_zero", "group_index_past_2_l", "group_index_negative"])
def test_out_of_range_integers_are_refused_by_name(call, says):
    with pytest.raises(ParameterError) as caught:
        call()
    assert type(caught.value) is ParameterError and str(caught.value).startswith(says)


def test_the_ipv6_population_reaches_the_whole_space_and_counts_stay_exact():
    assert ss.ipv6_alpha(1.0, 2**64, 1.0) == 1.0
    d = ss.synth_uniform(3, 8, 2)
    assert [d.count_of(g) for g in (0, 2, 3, 255)] == [2, 2, 0, 0]
