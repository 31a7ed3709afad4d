"""One rule for every scalar real parameter: check_real takes an int, a float
or a numpy real (never a bool), finite and in its range, returns a Python
float, and refuses anything else with a ParameterError that names the
parameter."""

import math

import numpy as np
import pytest

import scanspread as ss
from scanspread.addrspace import check_real
from scanspread.errors import ParameterError
from scanspread.rates import pp_factor

DIST = ss.synth_zipf(8, 1.0, 300, seed=2)
HOSTS = ss.materialize_hosts(DIST, seed=5)
TRACE = ss.propagate(ss.EpidemicConfig(ss.parse_strategy("rs:l=8"), DIST, s=1e6, horizon=50))


def early(**fields):
    cfg = dict(strategy=ss.parse_strategy("is:l=8"), s=1.0, total_scans=100, runs=20, seed=1, hosts=HOSTS)
    return ss.EarlyStageConfig(**{**cfg, **fields})


def outbreak(**fields):
    cfg = ss.EpidemicConfig(**{**dict(strategy=ss.parse_strategy("rs:l=8"), dist=DIST, s=1.0, horizon=5), **fields})
    return ss.propagate(cfg).n.tolist()


def context(**fields):
    return ss.ScanContext(**{**dict(s=1.0, N=100), **fields})


# (parameter, what its message names, a valid value, the call that takes it);
# a strategy given None for a probability is told that it needs one
PARAMETERS = [
    ("EarlyStageConfig s", "scanning rate s", 1.0, lambda v: ss.estimate_infection_rate(early(s=v)).mean_alpha),
    ("EpidemicConfig s", "scanning rate s", 1.0, lambda v: outbreak(s=v)),
    ("tick", "tick", 1.0, lambda v: outbreak(tick=v)),
    ("EpidemicConfig pp d", "deployment fraction d", 0.5, lambda v: outbreak(pp=(v, 0.5))),
    ("EpidemicConfig pp p", "apparent-vulnerability probability p", 0.5, lambda v: outbreak(pp=(0.5, v))),
    ("ScanContext s", "scanning rate s", 1.0, lambda v: ss.alpha_rs(context(s=v))),
    ("beta override", r"beta\(8\)", 2.0, lambda v: context(beta_overrides={8: v}).beta_at(8)),
    ("max p override", "max p at l=8", 0.5, lambda v: context(max_p_overrides={8: v}).max_p_at(8)),
    ("pp_factor d", "deployment fraction d", 0.5, lambda v: pp_factor(v, 0.5)),
    ("pp_factor p", "apparent-vulnerability probability p", 0.5, lambda v: pp_factor(0.5, v)),
    ("pp_requirement d", "deployment fraction d", 0.5, lambda v: ss.pp_requirement(50.0, v)),
    ("pp beta", "beta", 50.0, lambda v: ss.pp_requirement(v, 0.5)),
    ("pp measured beta", r"beta\(8\)", 50.0, lambda v: ss.pp_min_deployment(ss.NonUniformity(l=8, beta=v))),
    ("ipv6_alpha s", "scanning rate s", 1.0, lambda v: ss.ipv6_alpha(v, 100, 2.0)),
    ("beta32", "beta32", 2.0, lambda v: ss.ipv6_alpha(1.0, 100, v)),
    ("p_a", "ls (needs )?p_a", 0.5, lambda v: ss.ScanStrategy.localized(16, v).label),
    ("p_b", "2lls (needs )?p_b", 0.25, lambda v: ss.ScanStrategy.two_level(v, 0.5).label),
    ("p_c", "2lls (needs )?p_c", 0.5, lambda v: ss.ScanStrategy.two_level(0.25, v).label),
    ("zipf exponent", "exponent", 1.0, lambda v: ss.synth_zipf(8, v, 100, 1)),
    ("Renyi order", "entropy order q", 2.0, lambda v: ss.renyi_entropy(DIST, v)),
    ("fraction", "fraction", 0.5, lambda v: ss.time_to_fraction(TRACE, v)),
]
IDS = [p[0] for p in PARAMETERS]
BAD = {"bool": True, "str": "0.5", "none": None, "nan": math.nan, "inf": math.inf, "minus_inf": -math.inf}


# q = inf is the min-entropy, a valid order
@pytest.mark.parametrize("name, what, good, call, bad", [
    pytest.param(*p, bad, id=f"{p[0]}-{key}") for p in PARAMETERS for key, bad in BAD.items()
    if not (p[0] == "Renyi order" and key == "inf")
])
def test_every_scalar_real_refuses_what_is_not_a_finite_real_in_range(name, what, good, call, bad):
    with pytest.raises(ParameterError, match=what) as caught:
        call(bad)
    assert type(caught.value) is ParameterError  # no raw TypeError either


@pytest.mark.parametrize("name, what, good, call", PARAMETERS, ids=IDS)
def test_every_scalar_real_takes_numpy_reals_as_python_floats(name, what, good, call):
    # every valid value of the table is exact in float16
    want = call(good)
    assert call(np.float64(good)) == want and call(np.float16(good)) == want
    if good == int(good):
        assert call(int(good)) == want and call(np.int64(good)) == want


def test_the_infinite_order_is_the_min_entropy():
    for q in (math.inf, np.inf, np.float32("inf")):
        assert ss.renyi_entropy(DIST, q) == ss.min_entropy(DIST)


def test_frozen_configs_store_python_floats():
    cfg = early(s=np.float32(0.5))
    assert type(cfg.s) is float and cfg.s == 0.5
    cfg = ss.EpidemicConfig(ss.parse_strategy("rs:l=8"), DIST, np.float32(2.0), 5, tick=np.int64(3))
    assert (type(cfg.s), type(cfg.tick)) == (float, float)
    assert type(context(s=np.int64(3)).s) is float
    st = ss.ScanStrategy.two_level(np.float32(0.25), np.float16(0.5))
    assert (type(st.p_b), type(st.p_c)) == (float, float)
    assert type(ss.ScanStrategy.localized(8, 1).p_a) is float


@pytest.mark.parametrize("make", [
    lambda v: ss.ScanStrategy.localized(16, v),
    lambda v: ss.ScanStrategy.two_level(v, 0.5),
    lambda v: ss.ScanStrategy.two_level(0.25, v),
], ids=["p_a", "p_b", "p_c"])
@pytest.mark.parametrize("value", [np.float32(0.1), np.float32(0.3), np.float16(0.1), np.float64(0.1)],
                         ids=["f32_0.1", "f32_0.3", "f16_0.1", "f64_0.1"])
def test_a_label_parses_back_to_the_probabilities_it_was_made_from(make, value):
    st = make(value)
    back = ss.parse_strategy(st.label)
    fields = [f for f in ("p_a", "p_b", "p_c") if getattr(st, f) is not None]
    assert [float(getattr(back, f)) for f in fields] == [float(getattr(st, f)) for f in fields]
    assert float(value) in [float(getattr(st, f)) for f in fields]
    assert back.label == st.label


@pytest.mark.parametrize("value, lo, hi, open_lo, says", [
    (257.0, 1, 2**8, False, "x must be in [1, 2**8], got 257.0"),
    (0.001, 2**-8, 1, False, "x must be in [2**-8, 1], got 0.001"),
    (2**32 + 1, 1, 2**32, False, "x must be in [1, 2**32], got 4294967297.0"),
    (0, 0, 1, True, "x must be in (0, 1], got 0.0"),
    (math.nan, 0, 1, False, "x must be in [0, 1], got nan"),
    (math.inf, 0, math.inf, True, "x must be in (0, inf), got inf"),
    (-1e-300, 0, math.inf, False, "x must be in [0, inf), got -1e-300"),
    (10**400, 0, math.inf, True, "x must be in (0, inf), got inf"),
    (-(10**400), 0, math.inf, True, "x must be in (0, inf), got -inf"),
    (1.5, 0, 3, False, None),
    (True, 0, 1, False, "x must be a real number, got True"),
    (np.bool_(False), 0, 1, False, "x must be a real number, got np.False_"),
    ("0.5", 0, 1, False, "x must be a real number, got '0.5'"),
    (None, 0, 1, False, "x must be a real number, got None"),
    (np.array(0.5), 0, 1, False, "x must be a real number, got array(0.5)"),
    (0.5j, 0, 1, False, "x must be a real number, got 0.5j"),
])
def test_check_real_words_its_refusals(value, lo, hi, open_lo, says):
    if says is None:
        assert check_real(value, "x", lo, hi, open_lo) == 1.5
        return
    with pytest.raises(ParameterError) as caught:
        check_real(value, "x", lo, hi, open_lo)
    assert str(caught.value) == says


def test_check_real_returns_a_python_float():
    for value in [0, 7, np.int64(7), np.uint64(2**64 - 1), 10**30, np.float32(0.1), np.float16(2.5), -0.0]:
        got = check_real(value, "x", -1)
        assert type(got) is float and got == float(value)
    assert math.copysign(1.0, check_real(-0.0, "x", 0, 1)) == -1.0  # -0.0 lies in [0, 1] and keeps its sign
