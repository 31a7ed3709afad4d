"""Scanning strategies and their target-selection laws.

Six strategies are modeled.  Except for MSS they are memoryless: each scan
picks a /l group j with probability q_g(j), then an address uniformly inside
that block.

    rs     uniform over the whole space (q_g uniform)
    is     importance scanning: q_g supplied explicitly, or q_g = p_g (the
           vulnerable-host distribution itself) when none is given
    optis  all scans into the group with the largest p_g
    ls     localized: probability p_a into the scanner's home /l block,
           the rest uniform over the space
    2lls   two-level localized at /16: p_c into the home /16, p_b uniform
           over the home /8, the rest uniform over the space
    mss    modified sequential: uniform scanning until the first hit, then
           cyclic ascending sweep of the hit's /l block starting just past it

Strategy tokens (CLI and file outputs) look like `ls:l=16,pa=0.75`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .addrspace import ADDRESS_BITS, ADDRESS_SPACE, MAX_DENSE_LEVEL, GroupDistribution, check_prefix_level
from .errors import ParameterError, UnsupportedStrategyError

KINDS = ("rs", "is", "optis", "ls", "2lls", "mss")


def _fmt(x: float) -> str:
    return f"{x:g}"


@dataclass(frozen=True, eq=False)
class ScanStrategy:
    """Immutable description of one scanning strategy.

    Use the constructors (`rs`, `importance`, `optimal`, `localized`,
    `two_level`, `sequential`) or `parse_strategy` rather than building
    instances by hand.
    """

    kind: str
    l: int = 16
    q_g: np.ndarray | None = field(default=None, repr=False)
    p_a: float | None = None
    p_b: float | None = None
    p_c: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown strategy kind {self.kind!r}; valid: {', '.join(KINDS)}")
        check_prefix_level(self.l)
        if self.kind == "2lls" and self.l != 16:
            raise ParameterError("2lls is defined at l=16")
        if self.q_g is not None:
            if self.kind != "is":
                raise ParameterError("explicit q_g is only meaningful for kind 'is'")
            if self.l > MAX_DENSE_LEVEL:
                raise ParameterError(f"explicit q_g needs l <= {MAX_DENSE_LEVEL}")
            q = np.asarray(self.q_g, dtype=np.float64).reshape(-1)
            if q.size != (1 << self.l):
                raise ParameterError(f"q_g must have length 2**{self.l}")
            if np.any(q < 0) or abs(float(q.sum()) - 1.0) > 1e-9:
                raise ParameterError("q_g must be non-negative and sum to 1")
            q.flags.writeable = False
            object.__setattr__(self, "q_g", q)
        if self.kind == "ls":
            if self.p_a is None or not 0.0 <= self.p_a <= 1.0:
                raise ParameterError("ls needs p_a in [0, 1]")
        if self.kind == "2lls":
            if self.p_b is None or self.p_c is None:
                raise ParameterError("2lls needs p_b and p_c")
            if self.p_b < 0 or self.p_c < 0 or self.p_b + self.p_c > 1.0 + 1e-12:
                raise ParameterError("2lls needs p_b, p_c >= 0 with p_b + p_c <= 1")

    # -- constructors ------------------------------------------------------

    @classmethod
    def rs(cls, l: int = 16) -> "ScanStrategy":
        """Random scanning; l only sets the reporting prefix level."""
        return cls("rs", l=l)

    @classmethod
    def importance(cls, l: int, q_g=None) -> "ScanStrategy":
        """Importance scanning; q_g = p_g when no vector is given."""
        return cls("is", l=l, q_g=q_g)

    @classmethod
    def optimal(cls, l: int) -> "ScanStrategy":
        return cls("optis", l=l)

    @classmethod
    def localized(cls, l: int, p_a: float) -> "ScanStrategy":
        return cls("ls", l=l, p_a=p_a)

    @classmethod
    def two_level(cls, p_b: float, p_c: float) -> "ScanStrategy":
        return cls("2lls", l=16, p_b=p_b, p_c=p_c)

    @classmethod
    def sequential(cls, l: int) -> "ScanStrategy":
        return cls("mss", l=l)

    # -- token form --------------------------------------------------------

    @property
    def label(self) -> str:
        """Canonical token; parse_strategy(label) round-trips."""
        if self.kind == "rs":
            return "rs" if self.l == 16 else f"rs:l={self.l}"
        if self.kind == "is":
            return f"is:l={self.l}"
        if self.kind == "optis":
            return f"optis:l={self.l}"
        if self.kind == "ls":
            return f"ls:l={self.l},pa={_fmt(self.p_a)}"
        if self.kind == "2lls":
            return f"2lls:pb={_fmt(self.p_b)},pc={_fmt(self.p_c)}"
        return f"mss:l={self.l}"


_PARAM_KEYS = {
    "rs": {"l"},
    "is": {"l"},
    "optis": {"l"},
    "ls": {"l", "pa"},
    "2lls": {"pb", "pc"},
    "mss": {"l"},
}


def parse_strategy(token: str) -> ScanStrategy:
    """Parse a strategy token such as `rs`, `is:l=16` or `ls:l=16,pa=0.75`."""
    text = token.strip()
    kind, _, rest = text.partition(":")
    kind = kind.strip()
    if kind not in KINDS:
        raise ParameterError(f"unknown strategy {token!r}; valid kinds: {', '.join(KINDS)}")
    params: dict[str, str] = {}
    if rest:
        for part in rest.split(","):
            key, sep, val = part.partition("=")
            key = key.strip()
            if not sep or key not in _PARAM_KEYS[kind]:
                raise ParameterError(
                    f"bad parameter {part.strip()!r} in {token!r}; "
                    f"{kind} accepts: {', '.join(sorted(_PARAM_KEYS[kind])) or 'none'}"
                )
            if key in params:
                raise ParameterError(f"duplicate parameter {key!r} in {token!r}")
            params[key] = val.strip()
    try:
        if kind == "rs":
            return ScanStrategy.rs(l=int(params.get("l", 16)))
        if kind == "is":
            return ScanStrategy.importance(l=int(params["l"]))
        if kind == "optis":
            return ScanStrategy.optimal(l=int(params["l"]))
        if kind == "ls":
            return ScanStrategy.localized(l=int(params["l"]), p_a=float(params["pa"]))
        if kind == "2lls":
            return ScanStrategy.two_level(p_b=float(params["pb"]), p_c=float(params["pc"]))
        return ScanStrategy.sequential(l=int(params["l"]))
    except KeyError as exc:
        raise ParameterError(f"strategy {token!r} is missing parameter {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ParameterError(f"bad value in strategy token {token!r}: {exc}") from None


def _resolve_p(dist: GroupDistribution | None, l: int, what: str) -> GroupDistribution:
    if dist is None or dist.total == 0:
        raise ParameterError(f"{what} needs a non-empty host distribution")
    if dist.l < l:
        raise ParameterError(f"{what} needs a distribution at l >= {l}, got l={dist.l}")
    return dist.coarsen(l)


def group_scan_distribution(
    strategy: ScanStrategy,
    home_subnet: int | None = None,
    dist: GroupDistribution | None = None,
) -> np.ndarray:
    """Dense q_g vector (length 2**l) of one scan's group-selection law.

    `home_subnet` is the scanner's group index at the strategy level (the /16
    index for 2lls).  MSS has no per-scan group law and is rejected.
    """
    kind, l = strategy.kind, strategy.l
    if kind == "mss":
        raise UnsupportedStrategyError("mss is stateful; it has no per-scan group distribution")
    if l > MAX_DENSE_LEVEL:
        raise ParameterError(f"dense q_g vector infeasible for l={l} (max {MAX_DENSE_LEVEL})")
    m = 1 << l
    law = TargetLaw(strategy, dist)
    if not law.needs_home:
        return law.group_probabilities(np.arange(m))
    # ls/2lls: the rest uniform, each home tier's mass spread over its groups
    tiers = law.home_tiers(home_subnet)
    q = np.full(m, (1.0 - tiers[-1][0]) / m)
    below = 0.0
    for cum, start, size in tiers:
        q[start >> law.bits : (start + size) >> law.bits] += (cum - below) * law.block / size
        below = cum
    return q


class TargetLaw:
    """Per-scan target law of one strategy: set up once (q_g and its cumulative
    sum over the groups with q_g > 0 for is, the argmax block for optis), then
    `draw` n targets at a time.  ls and 2lls aim at tiers around the scanner's
    home group; mss draws its uniform random phase."""

    __slots__ = ("strategy", "bits", "block", "needs_home", "_groups", "_q", "_cum", "_base")

    def __init__(self, strategy: ScanStrategy, dist: GroupDistribution | None = None):
        self.strategy = strategy
        self.bits = ADDRESS_BITS - strategy.l
        self.block = 1 << self.bits
        self.needs_home = strategy.kind in ("ls", "2lls")
        self._groups = self._q = self._cum = self._base = None
        if strategy.kind == "is":
            if strategy.q_g is None:
                d = _resolve_p(dist, strategy.l, "is with q_g = p_g")
                self._groups, self._q = d.indices, d.probabilities_occupied()
            else:
                self._groups = np.flatnonzero(strategy.q_g)
                self._q = strategy.q_g[self._groups]
            self._cum = np.cumsum(self._q)  # a sequential sum: the dense cumsum at these groups
        elif strategy.kind == "optis":
            self._base = _resolve_p(dist, strategy.l, "optis").argmax_index << self.bits

    def group_probabilities(self, groups: np.ndarray) -> np.ndarray:
        """q_g at the given group indices for rs, is and optis: the one
        definition of those laws."""
        kind = self.strategy.kind
        if kind == "rs":
            return np.full(np.shape(groups), 1.0 / (1 << self.strategy.l))
        if kind == "optis":
            return (groups == self._base >> self.bits).astype(np.float64)
        if kind != "is":
            raise UnsupportedStrategyError(f"{kind} has no group law that is the same for every scanner")
        pos = np.minimum(np.searchsorted(self._groups, groups), self._groups.size - 1)
        return np.where(self._groups[pos] == groups, self._q[pos], 0.0)

    def home_tiers(self, home: int | None) -> tuple[tuple[float, int, int], ...]:
        """(cumulative probability, block start, block size) of the blocks
        around home group `home` (the /16 index for 2lls), innermost first."""
        st = self.strategy
        if home is None or not 0 <= home < (1 << st.l):
            raise ParameterError(f"{st.kind} needs a home group index in [0, 2**{st.l})")
        if st.kind == "ls":
            return ((st.p_a, home << self.bits, self.block),)
        return ((st.p_c, home << 16, 1 << 16), (st.p_c + st.p_b, (home >> 8) << 24, 1 << 24))

    def draw(self, rng: np.random.Generator, n: int, home: int | None = None) -> np.ndarray:
        """n target addresses (int64) of independent scans."""
        kind = self.strategy.kind
        if kind == "is":
            g = np.searchsorted(self._cum, rng.random(n), side="right")
            np.minimum(g, self._cum.size - 1, out=g)
            return (self._groups[g] << self.bits) + rng.integers(0, self.block, size=n, dtype=np.int64)
        if kind == "optis":
            return self._base + rng.integers(0, self.block, size=n, dtype=np.int64)
        if not self.needs_home:  # rs, and the random phase of mss
            return rng.integers(0, ADDRESS_SPACE, size=n, dtype=np.int64)
        u = rng.random(n)
        out = np.empty(n, dtype=np.int64)
        rest = np.ones(n, dtype=bool)
        for cum, start, size in self.home_tiers(home):
            tier = rest & (u < cum)
            out[tier] = start + rng.integers(0, size, size=int(np.count_nonzero(tier)), dtype=np.int64)
            rest &= ~tier
        out[rest] = rng.integers(0, ADDRESS_SPACE, size=int(np.count_nonzero(rest)), dtype=np.int64)
        return out


class ScannerState:
    """Mutable per-scanner state; yields one target address per call.

    Only MSS actually carries state (random phase until the first hit, then a
    cyclic sweep of the hit's block); the other strategies are memoryless and
    `on_hit` is a no-op for them.
    """

    __slots__ = ("strategy", "rng", "bits", "block", "home", "_law", "phase", "block_start", "cursor")

    def __init__(self, strategy: ScanStrategy, rng: np.random.Generator,
                 home_subnet: int | None = None, dist: GroupDistribution | None = None):
        self.strategy = strategy
        self.rng = rng
        self._law = TargetLaw(strategy, dist)
        self.bits = self._law.bits
        self.block = self._law.block
        self.home = home_subnet
        if self._law.needs_home:
            self._law.home_tiers(home_subnet)  # rejects a missing or out-of-range home
        self.phase = "random"
        self.block_start = None
        self.cursor = None

    def next_target(self) -> int:
        """Draw the next target address."""
        if self.phase == "random":  # only mss leaves it, on its first hit
            return int(self._law.draw(self.rng, 1, self.home)[0])
        target = self.block_start + self.cursor
        self.cursor = (self.cursor + 1) % self.block
        return target

    def on_hit(self, address: int) -> None:
        """Report a successful probe; only MSS reacts (once)."""
        if self.strategy.kind != "mss" or self.phase == "sequential":
            return
        self.phase = "sequential"
        self.block_start = (address >> self.bits) << self.bits
        self.cursor = (address - self.block_start + 1) % self.block

    def draw_targets(self, n: int) -> np.ndarray:
        """Vectorized batch of n targets (int64).

        Outside the MSS sweep this is `TargetLaw.draw`, the same call the
        Monte Carlo engine makes, so a batch consumes the stream exactly as
        one engine run does after its home draw.  next_target is the n = 1
        case.  For MSS in the sequential phase the batch continues the sweep
        and does not transition state.
        """
        if self.phase == "random":
            return self._law.draw(self.rng, n, self.home)
        offs = (self.cursor + np.arange(n, dtype=np.int64)) % self.block
        self.cursor = int((self.cursor + n) % self.block)
        return self.block_start + offs
