"""Early-stage infection rates of the scanning strategies, in closed form.

The infection rate alpha is the expected number of new infections per unit
time caused by one infected host at the very start of an outbreak, when the
chance of double infection is negligible.  With scanning rate s, N vulnerable
hosts, and address-space size omega = 2**32:

    alpha_RS = s * N / omega

For a group-law strategy at level l the per-scan collision probability

    p_h = sum_j p_g(j) * q_g(j)

(the chance that a scan's group choice lands where a random vulnerable host
lives) gives alpha = (s * N / 2**(32-l)) * p_h, i.e. alpha_RS * 2**l * p_h.
Its negative log is the scanner's uncertainty about a vulnerable host's group
and l + log2(p_h) is the information the strategy exploits, so

    alpha = alpha_RS * 2**(info bits).

Closed forms per strategy (beta(l) the non-uniformity factor at level l):

    is (q=p)   alpha_RS * beta(l)
    optis      alpha_RS * 2**l * max_j p_g(j)
    ls         alpha_RS * (1 - p_a + p_a * beta(l))
    2lls       alpha_RS * (1 - p_b - p_c + p_b * beta(8) + p_c * beta(16))
    mss        stage 1 alpha_RS; stage 2 alpha_RS * beta(l)

The time unit is carried symbolically: alpha inherits the unit of s.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .addrspace import (ADDRESS_BITS, ADDRESS_SPACE, GroupDistribution, HostSet, check_int, check_real, check_type,
                        write_table)
from .errors import ParameterError
from .infometrics import NonUniformity, non_uniformity_factor
from .strategies import ScanStrategy, TargetLaw, _resolve_p

# Code Red v2 reference point: 360k infected hosts scanning at 358/min.
CODE_RED_POPULATION = 360_000
CODE_RED_SCANS_PER_MINUTE = 358.0

IPV6_SPACE = 2.0 ** 64


def code_red_alpha_per_second() -> float:
    """alpha_RS of Code Red v2 with s converted to per-second (~5.0e-4)."""
    return CODE_RED_POPULATION * (CODE_RED_SCANS_PER_MINUTE / 60.0) / ADDRESS_SPACE


def _pp_beta(beta: NonUniformity | float) -> float:
    """The beta a proactive-protection bound reads, in [1, 2**l] as every beta(l)
    is: a NonUniformity at its own level l (checked when it was built), a bare
    number at l = 32."""
    return beta.beta if isinstance(beta, NonUniformity) else check_real(beta, "beta", 1, ADDRESS_SPACE)


@dataclass(frozen=True)
class ScanContext:
    """Scenario parameters for rate calculations.

    Group-level metrics resolve in this order: explicit overrides (injected
    table values), then the group counts `strategies._resolve_p` gives of
    `dist` when it reaches the level, else of `hosts`.  Every distribution
    over the 2**l groups of level l has beta in [1, 2**l] and max p in
    [2**-l, 1], so an override outside those ranges, or at a level that is
    not an integer in 0..32, is refused at construction, and each override
    is stored as the float its check returns.  N (at most omega, IPv4's
    2**32 addresses) and s are stored as the int and float their checks
    return.
    """

    s: float
    N: int
    dist: GroupDistribution | None = None
    hosts: HostSet | None = None
    beta_overrides: Mapping[int, float] | None = None
    max_p_overrides: Mapping[int, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "s", check_real(self.s, "scanning rate s", 0, open_lo=True))
        object.__setattr__(self, "N", check_int(self.N, "population N", 1, ADDRESS_SPACE))
        check_type(self.dist, GroupDistribution, "dist", optional=True)
        check_type(self.hosts, HostSet, "hosts", optional=True)
        # beta(l) in [2**0, 2**l], max p in [2**-l, 2**0]: the exponents are lo * l and hi * l
        for name, what, lo, hi in (("beta_overrides", "beta({})", 0, 1), ("max_p_overrides", "max p at l={}", -1, 0)):
            table = check_type(getattr(self, name), Mapping, name, optional=True)
            if table is not None:
                levels = [check_int(l, "override level", 0, ADDRESS_BITS) for l in table]
                object.__setattr__(self, name, {l: check_real(v, what.format(l), math.ldexp(1.0, lo * l),
                                                              math.ldexp(1.0, hi * l))
                                                for l, v in zip(levels, table.values())})

    def _groups_at(self, l: int, what: str) -> GroupDistribution:
        """Group counts at level l, of dist when it reaches l, else of hosts."""
        coarse = self.dist is None or self.dist.l < l
        return _resolve_p(self.hosts if coarse and self.hosts is not None else self.dist, l, what)

    def beta_at(self, l: int) -> float:
        if self.beta_overrides is not None and l in self.beta_overrides:
            return self.beta_overrides[l]
        return non_uniformity_factor(self._groups_at(l, f"beta({l})")).beta

    def max_p_at(self, l: int) -> float:
        if self.max_p_overrides is not None and l in self.max_p_overrides:
            return self.max_p_overrides[l]
        return self._groups_at(l, f"max p at l={l}").max_probability


def _finite_rate(alpha: float, what: str) -> float:
    if not math.isfinite(alpha):
        raise ParameterError(f"{what} is {alpha!r}: s is too large for a float rate")
    return alpha


def alpha_rs(ctx: ScanContext) -> float:
    return _finite_rate(ctx.s * ctx.N / ADDRESS_SPACE, "alpha_RS = s * N / omega")


def collision_probability(dist: GroupDistribution, q: np.ndarray) -> float:
    """p_h = sum_j p_g(j) * q_g(j) for a dense group-selection vector q."""
    if dist.total == 0:
        raise ParameterError("collision probability needs a non-empty distribution")
    qv = np.asarray(q, dtype=np.float64).reshape(-1)
    if qv.size != dist.n_groups:
        raise ParameterError(f"q has length {qv.size}, expected 2**{dist.l}")
    p = dist.probabilities_occupied()
    return math.fsum(float(pi) * float(qv[gi]) for pi, gi in zip(p, dist.indices))


@dataclass(frozen=True)
class RateReport:
    """Analytical rate of one strategy in one context.

    `uncertainty_bits` = -log2(p_h); `info_bits` = l - uncertainty_bits (the
    group identity is an l-bit secret; RS learns none of it).  `alpha_stage1`
    is set only for MSS, whose random phase runs at the RS rate.
    """

    strategy: str
    l: int
    collision_probability: float
    uncertainty_bits: float
    info_bits: float
    alpha: float
    alpha_stage1: float | None = None


def _collision_for(strategy: ScanStrategy, ctx: ScanContext) -> float:
    kind, l = strategy.kind, strategy.l
    scale = math.ldexp(1.0, -l)
    if kind == "is" and strategy.q_g is not None:
        return collision_probability(ctx._groups_at(l, "is with an explicit q_g"), strategy.q_g)
    if kind == "optis":
        return ctx.max_p_at(l)
    if kind in ("is", "mss"):
        # mss stage 2: expected hit density of a sweep anchored at a random
        # vulnerable host's block equals the q=p importance rate
        return ctx.beta_at(l) * scale
    # the rest (all of rs) at the uniform rate, each home tier at the q=p rate
    # of its level (a 2**(32-k)-address block is a /k group), outermost first
    law = TargetLaw(strategy)
    boost = law.rest
    for mass, size in reversed(law.tiers):
        boost += mass * ctx.beta_at(33 - size.bit_length())
    return boost * scale


def alpha_for(strategy: ScanStrategy, ctx: ScanContext) -> RateReport:
    """Closed-form rate report; alpha = alpha_RS * 2**l * p_h throughout."""
    p_h = _collision_for(strategy, ctx)
    l = strategy.l
    base = alpha_rs(ctx)
    uncertainty = -math.log2(p_h) if p_h > 0 else math.inf
    return RateReport(
        strategy=strategy.label,
        l=l,
        collision_probability=p_h,
        uncertainty_bits=uncertainty,
        info_bits=l - uncertainty,
        alpha=base * math.ldexp(p_h, l),  # p_h <= 1 keeps it at most s * N
        alpha_stage1=base if strategy.kind == "mss" else None,
    )


def rate_table(strategies: Iterable[ScanStrategy], ctx: ScanContext) -> list[RateReport]:
    return [alpha_for(st, ctx) for st in strategies]


def write_rates_csv(reports: Iterable[RateReport], path: str | Path, time_unit: str = "second") -> None:
    rows = [(r.strategy, r.uncertainty_bits, r.info_bits, r.alpha) for r in reports]
    write_table(path, ["strategy", "uncertainty_bits", "info_bits", f"alpha_per_{time_unit}"], list(zip(*rows)))


# -- defenses --------------------------------------------------------------


def pp_factor(d: float, p: float) -> float:
    """The share 1 - d + d*p of new infections that proactive protection lets
    through: a fraction d of hosts deploys, and a deployed host looks
    vulnerable to a probe with probability p."""
    d = check_real(d, "deployment fraction d", 0, 1, open_lo=True)
    p = check_real(p, "apparent-vulnerability probability p", 0, 1)
    return 1.0 - d + d * p


def pp_modified_alpha(strategy: ScanStrategy, ctx: ScanContext, d: float, p: float) -> float:
    """Rate of q=p importance scanning against proactive protection.

    A fraction d of hosts deploys; a deployed host looks vulnerable to a probe
    with probability p.  alpha = alpha_RS * beta(l) * (1 - d + d*p).
    """
    if strategy.kind != "is" or strategy.q_g is not None:
        raise ParameterError("proactive protection is modeled for is with q_g = p_g")
    factor = pp_factor(d, p)
    return alpha_rs(ctx) * ctx.beta_at(strategy.l) * factor


def pp_requirement(beta: NonUniformity | float, d: float) -> float:
    """Largest p that pushes the protected rate down to alpha_RS or below.

    p_max = (1 - (1 - d) * beta) / (d * beta).  May be negative: then even
    p = 0 cannot reach the RS baseline at this deployment level.
    """
    b = _pp_beta(beta)
    return (1.0 - pp_factor(d, 0.0) * b) / (d * b)  # pp_factor(d, 0) = 1 - d, d checked


def pp_min_deployment(beta: NonUniformity | float) -> float:
    """Smallest deployment fraction d for which p = 0 meets the RS baseline."""
    b = _pp_beta(beta)
    return 1.0 - 1.0 / b


def ipv6_alpha(s: float, N: int, beta32: float) -> float:
    """Rate of /32-level importance scanning in the 2**64 address space.

    beta32 is the non-uniformity factor of the host distribution over the
    2**32 top-level groups, so it lies in [1, 2**32]; N is at most 2**64.
    alpha = (s * N / 2**64) * beta32.
    """
    s = check_real(s, "scanning rate s", 0, open_lo=True)
    N = check_int(N, "population N", 1, 1 << 64)
    b = check_real(beta32, "beta32", 1, ADDRESS_SPACE)
    return _finite_rate((s * N / IPV6_SPACE) * b, "the IPv6 rate")
