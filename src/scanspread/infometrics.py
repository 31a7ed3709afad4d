"""Entropy-family metrics and the non-uniformity factor of a group
distribution.

For probabilities p_i over the 2**l groups (zero-count groups contribute
nothing):

    H_q     = (1 / (1 - q)) * log2(sum p_i**q)      order-q entropy
    H       = -sum p_i * log2(p_i)                  Shannon (q -> 1 limit)
    H_2     = -log2(sum p_i**2)                     collision entropy
    H_inf   = -log2(max p_i)                        min-entropy
    beta(l) = 2**l * sum p_i**2 = 2**(l - H_2)      non-uniformity factor

beta is 1 exactly for the uniform distribution over all groups and grows as
hosts cluster; it is capped by 2**l (a single occupied group).  All sums are
computed from exact integer counts where possible and with fsum otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .addrspace import GroupDistribution, HostSet, _run_lengths, aggregate, check_prefix_level, check_real
from .errors import ParameterError

# Orders this close to 1 are rejected; the q -> 1 limit is shannon_entropy.
_Q_NEAR_ONE = 1e-6


def _require_hosts(dist: GroupDistribution) -> None:
    if dist.total == 0:
        raise ParameterError("entropy metrics need a non-empty distribution")


def _sum_c_log2_c(counts: np.ndarray) -> float:
    """sum c * log2(c) over counts, grouped by distinct value for accuracy."""
    vals, mult = _run_lengths(np.sort(counts))
    return math.fsum(float(m) * float(v) * math.log2(float(v)) for v, m in zip(vals, mult) if v > 1)


def shannon_entropy(dist: GroupDistribution) -> float:
    """Shannon entropy in bits: log2(N) - (1/N) * sum c_i * log2(c_i).

    Floored at 0: the exact value cannot be negative, but the two log terms
    can disagree by an ulp when a single group holds everything.
    """
    _require_hosts(dist)
    n = dist.total
    return max(0.0, math.log2(n) - _sum_c_log2_c(dist.counts) / n)


def min_entropy(dist: GroupDistribution) -> float:
    _require_hosts(dist)
    return math.log2(dist.total) - math.log2(dist.max_count)


def renyi_entropy(dist: GroupDistribution, q: float) -> float:
    """Order-q entropy in bits.

    q=0 gives log2(number of occupied groups), q=inf the min-entropy, q=2 the
    collision entropy (computed from the exact integer sum of squared counts).
    Orders within 1e-6 of 1 are rejected; use shannon_entropy for the limit.
    """
    _require_hosts(dist)
    if isinstance(q, (float, np.floating)) and q == math.inf:
        return min_entropy(dist)
    q = check_real(q, "entropy order q", 0)
    if abs(q - 1.0) < _Q_NEAR_ONE:
        raise ParameterError("order too close to 1; the limit is shannon_entropy")
    n = dist.total
    if q == 0:
        return math.log2(dist.occupied)
    if q == 2:
        return max(0.0, 2.0 * math.log2(n) - math.log2(dist.sum_sq_counts()))
    # factor out the largest probability so large q cannot underflow to 0
    p = dist.counts / n
    pmax = dist.max_count / n
    s = math.fsum((p / pmax) ** q)
    return max(0.0, (q * math.log2(pmax) + math.log2(s)) / (1.0 - q))


@dataclass(frozen=True)
class EntropyReport:
    """Entropy family of one distribution; h0 is log2(occupied support)."""

    l: int
    h0: float
    shannon: float
    h2: float
    h_inf: float


def entropy_report(dist: GroupDistribution) -> EntropyReport:
    return EntropyReport(
        l=dist.l,
        h0=renyi_entropy(dist, 0),
        shannon=shannon_entropy(dist),
        h2=renyi_entropy(dist, 2),
        h_inf=min_entropy(dist),
    )


@dataclass(frozen=True)
class NonUniformity:
    """beta(l) of a distribution at level l, in [1, 2**l] as every beta(l) is;
    stored as the int and float their checks return."""

    l: int
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "l", check_prefix_level(self.l))
        object.__setattr__(self, "beta", check_real(self.beta, f"beta({self.l})", 1, math.ldexp(1.0, self.l)))


def non_uniformity_factor(dist: GroupDistribution) -> NonUniformity:
    """beta(l) = 2**l * sum p_i**2, computed as ldexp(ssq / N**2, l)."""
    _require_hosts(dist)
    n = dist.total
    return NonUniformity(l=dist.l, beta=math.ldexp(dist.sum_sq_counts() / (n * n), dist.l))


def l2_distance_to_uniform(dist: GroupDistribution) -> float:
    """sum over all 2**l groups of (p_i - 2**-l)**2, empty groups included.

    Satisfies beta = 2**l * distance + 1; computed term-by-term (not via that
    identity) so the identity stays a meaningful check.
    """
    _require_hosts(dist)
    u = math.ldexp(1.0, -dist.l)
    p = dist.counts / dist.total
    occupied_terms = math.fsum((pi - u) ** 2 for pi in p)
    empty = (1 << dist.l) - dist.occupied
    return occupied_terms + empty * u * u


def beta_profile(hosts: HostSet, l_max: int) -> list[tuple[int, float]]:
    """[(l, beta(l))] for l = 0..l_max over the host set's aggregations."""
    return profiles_from_distribution(aggregate(hosts, l_max))[0]


def shannon_profile(hosts: HostSet, l_max: int) -> list[tuple[int, float]]:
    """[(l, H(l))] for l = 0..l_max; non-decreasing in l with steps <= 1."""
    return profiles_from_distribution(aggregate(hosts, l_max))[1]


def profiles_from_distribution(dist: GroupDistribution) -> tuple[list[tuple[int, float]], list[tuple[int, float]]]:
    """(beta profile, shannon profile) for l = 0..dist.l via re-aggregation."""
    _require_hosts(dist)
    betas, shannons = [], []
    for l in range(dist.l + 1):
        d = dist.coarsen(l)
        betas.append((l, non_uniformity_factor(d).beta))
        shannons.append((l, shannon_entropy(d)))
    return betas, shannons

