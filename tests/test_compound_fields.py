"""Compound fields of the public constructors are checked when the object is
built: an explicit q_g, the host sources and the beta and max-p overrides of
a ScanContext, the strategy of the Monte Carlo and outbreak configs, the
hosts the Monte Carlo runs scan, the outbreak's distribution, the protection
pair and both fields of a NonUniformity.  Each bad value raises exactly
ParameterError, naming the field, at construction: never later in a run,
never a NaN result and never a raw TypeError or AttributeError."""

import math

import numpy as np
import pytest

import scanspread as ss
from scanspread.errors import ParameterError

DIST = ss.synth_zipf(8, 1.0, 300, seed=2)
HOSTS = ss.materialize_hosts(DIST, seed=5)
UNIFORM = [1 / 256] * 256


def early(strategy, hosts=HOSTS):
    return ss.EarlyStageConfig(strategy, s=1.0, total_scans=100, runs=20, seed=1, hosts=hosts)


def context(**fields):
    return ss.ScanContext(s=1.0, N=100, **fields)


def outbreak(**fields):
    return ss.EpidemicConfig(**{**dict(strategy=ss.parse_strategy("rs:l=8"), dist=DIST, s=1.0, horizon=5), **fields})


NOT_STRATEGIES = ["rs", None, 16, ss.parse_strategy]

# (field, what its message names, a valid value, the constructor that takes it, bad values)
FIELDS = [
    ("q_g", "q_g", UNIFORM, lambda v: ss.ScanStrategy.importance(8, q_g=v),
     [[math.nan] * 256, [math.nan] + UNIFORM[1:], [math.inf] + [0.0] * 255, [-math.inf] + UNIFORM[1:]]),
    ("beta override", r"beta\(8\)", 2.0, lambda v: context(beta_overrides={8: v}),
     [0.5, 2.0**8 + 1, math.nan, math.inf, "2", True, None]),
    ("max p override", "max p at l=8", 0.5, lambda v: context(max_p_overrides={8: v}),
     [2.0**-9, 1.5, math.nan, math.inf, "0.5", True, None]),
    ("beta overrides", "beta_overrides", {8: 2.0}, lambda v: context(beta_overrides=v), [[8], 8, "8"]),
    ("max p overrides", "max_p_overrides", {8: 0.5}, lambda v: context(max_p_overrides=v), [[8], 8, "8"]),
    ("ScanContext dist", "dist", DIST, lambda v: context(dist=v), ["x", [1, 2], HOSTS]),
    ("ScanContext hosts", "hosts", HOSTS, lambda v: context(hosts=v), [[1, 2], "x", DIST]),
    ("EarlyStageConfig strategy", "strategy", ss.parse_strategy("is:l=8"), early, NOT_STRATEGIES),
    ("EarlyStageConfig hosts", "hosts|at least one vulnerable host", HOSTS,
     lambda v: early(ss.parse_strategy("is:l=8"), v), [[1, 2, 3], DIST, None, ss.HostSet([])]),
    ("EpidemicConfig dist", "dist", DIST, lambda v: outbreak(dist=v), ["x", HOSTS, None]),
    ("EpidemicConfig strategy", "strategy", ss.parse_strategy("is:l=8"), lambda v: outbreak(strategy=v),
     NOT_STRATEGIES),
    ("EpidemicConfig pp", "pp must be a pair|deployment fraction d", (0.5, 0.5), lambda v: outbreak(pp=v),
     [(0.5,), (0.5, 0.5, 0.5), (), 0.5, "ab"]),
    ("NonUniformity l", "prefix level", 8, lambda v: ss.NonUniformity(l=v, beta=2.0),
     [8.5, "8", True, None, -1, 33]),
    ("NonUniformity beta", r"beta\(8\)", 2.0, lambda v: ss.NonUniformity(l=8, beta=v),
     [0.5, 257.0, math.nan, math.inf, "2", True, None]),
]


@pytest.mark.parametrize("name, what, good, build, bad", [
    pytest.param(name, what, good, build, bad, id=f"{name}-{k}")
    for name, what, good, build, bads in FIELDS for k, bad in enumerate(bads)
])
def test_every_compound_field_is_checked_at_construction(name, what, good, build, bad):
    build(good)
    with pytest.raises(ParameterError, match=what) as caught:
        build(bad)
    assert type(caught.value) is ParameterError  # no raw TypeError or AttributeError either


def test_checked_fields_are_stored_as_python_numbers():
    ctx = ss.ScanContext(s=1.0, N=100, beta_overrides={8: np.float32(2), 16: 3})
    assert ctx.beta_overrides == {8: 2.0, 16: 3.0}
    assert all(type(v) is float for v in ctx.beta_overrides.values())
    assert type(ctx.beta_at(16)) is float
    nu = ss.NonUniformity(l=np.int8(8), beta=np.float16(2))
    assert (type(nu.l), type(nu.beta)) == (int, float)
    # every beta non_uniformity_factor measures is inside [1, 2**l]: the two ends
    assert ss.non_uniformity_factor(ss.GroupDistribution(8, [3], [5])).beta == 256.0
    assert ss.non_uniformity_factor(ss.synth_uniform(256, 8, 3)).beta == 1.0
