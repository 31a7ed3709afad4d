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

import itertools
from dataclasses import dataclass, field

import numpy as np

from .addrspace import (ADDRESS_BITS, ADDRESS_SPACE, MAX_DENSE_LEVEL, GroupDistribution, HostSet, aggregate,
                        check_int, check_real)
from .errors import ParameterError, UnsupportedStrategyError

# The token grammar: each kind's keys in label order, and the ScanStrategy field,
# type and range [lo, hi] of each key.  Every kind has l; rs may leave it out (16).
_TOKEN_KEYS = {
    "rs": ("l",), "is": ("l",), "optis": ("l",), "ls": ("l", "pa"), "2lls": ("pb", "pc"), "mss": ("l",),
}
_KEY_FIELDS = {"l": ("l", int, 0, ADDRESS_BITS), "pa": ("p_a", float, 0, 1), "pb": ("p_b", float, 0, 1),
               "pc": ("p_c", float, 0, 1)}
KINDS = tuple(_TOKEN_KEYS)


def _fmt(x: float) -> str:
    """x as `:g` when that reads back as x, else as repr: exact either way."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


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
        keys = _TOKEN_KEYS[self.kind]
        for key, (name, typ, lo, hi) in _KEY_FIELDS.items():
            value = getattr(self, name)
            if typ is int:
                object.__setattr__(self, name, check_int(value, "prefix level", lo, hi))
            elif (value is None) == (key in keys):
                raise ParameterError(f"{self.kind} {'needs' if value is None else 'takes no'} {name}")
            elif value is not None:
                object.__setattr__(self, name, check_real(value, f"{self.kind} {name}", lo, hi))
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
            if not (np.all(q >= 0) and abs(float(q.sum()) - 1.0) <= 1e-9):  # false for nan and inf
                raise ParameterError("q_g must be finite, non-negative and sum to 1")
            q.flags.writeable = False
            object.__setattr__(self, "q_g", q)
        if self.kind == "2lls" and self.p_b + self.p_c > 1.0 + 1e-12:
            raise ParameterError("2lls needs p_b + p_c <= 1")

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
        """Canonical token; parse_strategy(label) gives this strategy back."""
        keys = () if self.kind == "rs" and self.l == 16 else _TOKEN_KEYS[self.kind]
        params = ",".join(f"{key}={_fmt(getattr(self, _KEY_FIELDS[key][0]))}" for key in keys)
        return f"{self.kind}:{params}" if params else self.kind


def parse_strategy(token: str) -> ScanStrategy:
    """Parse a strategy token such as `rs`, `is:l=16` or `ls:l=16,pa=0.75`."""
    kind, _, rest = token.strip().partition(":")
    kind = kind.strip()
    if kind not in _TOKEN_KEYS:
        raise ParameterError(f"unknown strategy {token!r}; valid kinds: {', '.join(KINDS)}")
    keys = _TOKEN_KEYS[kind]
    fields = {}
    for part in rest.split(",") if rest else ():
        key, sep, val = part.partition("=")
        key = key.strip()
        if not sep or key not in keys:
            raise ParameterError(f"bad parameter {part.strip()!r} in {token!r}; {kind} accepts: {', '.join(keys)}")
        name, typ, _, _ = _KEY_FIELDS[key]
        if name in fields:
            raise ParameterError(f"duplicate parameter {key!r} in {token!r}")
        try:
            fields[name] = typ(val.strip())
        except ValueError as exc:
            raise ParameterError(f"bad value in strategy token {token!r}: {exc}") from None
    missing = [key for key in keys if _KEY_FIELDS[key][0] not in fields]
    if missing and kind != "rs":
        raise ParameterError(f"strategy {token!r} is missing parameter {missing[0]!r}")
    return ScanStrategy(kind, **fields)


def _resolve_p(dist: GroupDistribution | HostSet | None, l: int, what: str) -> GroupDistribution:
    """The group counts at level l of hosts or of a distribution at l or finer:
    the one resolver every law and rate reads; refuses no source, an empty one
    or a coarser one, naming `what`."""
    if isinstance(dist, HostSet):
        dist = aggregate(dist, l)
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
    law = TargetLaw(strategy, dist)
    if law.tiers and np.ndim(home_subnet) != 0:
        raise ParameterError(f"{kind} needs one home group index, got an array of shape {np.shape(home_subnet)}")
    # the shared group law, each home tier's mass spread over its groups
    q = law.group_probabilities(np.arange(1 << l))
    for start, mass, size in law.home_tiers(home_subnet):
        q[start >> law.bits : (start + size) >> law.bits] += mass * law.block / size
    return q


class TargetLaw:
    """Per-scan target law of one strategy: a group law every scanner shares
    (`group_probabilities`) and, for ls and 2lls, `tiers`: (mass, block
    size) of each block around the scanner's home group a scan aims at,
    innermost first (ls: the home /l; 2lls: the home /16, then /8), with
    `rest` the mass spread over the whole space (1 without tiers).  Set up
    once (q_g over the groups with q_g > 0 for is, the argmax block for
    optis: these two alone aggregate a HostSet `dist`), then `draw` targets
    in any shape.  is with q_g = p_g draws a host slot and an offset as one
    integer, so group g comes out with probability exactly c_g / N; an
    explicit q_g is searched in its cumulative sum.  The other kinds draw
    one uniform integer per scan from `_span` = (lo, hi): the whole space
    for rs, the random phase of mss and ls/2lls, the argmax block for
    optis.  ls/2lls then draw a uniform u per scan, and the innermost tier
    whose cumulative mass exceeds u keeps the address's low bits inside its
    block."""

    __slots__ = ("strategy", "bits", "block", "tiers", "rest",
                 "_groups", "_q", "_counts", "_slots", "_cum", "_span")

    def __init__(self, strategy: ScanStrategy, dist: GroupDistribution | HostSet | None = None):
        self.strategy = strategy
        self.bits = ADDRESS_BITS - strategy.l
        self.block = 1 << self.bits
        self.tiers, self.rest = (), 1.0
        if strategy.kind == "ls":
            self.tiers, self.rest = ((strategy.p_a, self.block),), 1.0 - strategy.p_a
        elif strategy.kind == "2lls":
            self.tiers = ((strategy.p_c, 1 << 16), (strategy.p_b, 1 << 24))
            self.rest = 1.0 - strategy.p_b - strategy.p_c
        self._groups = self._q = self._counts = self._slots = self._cum = None
        self._span = (0, ADDRESS_SPACE)
        if strategy.kind == "is":
            if strategy.q_g is None:
                d = _resolve_p(dist, strategy.l, "is with q_g = p_g")
                self._groups, self._q, self._counts = d.indices, d.probabilities_occupied(), d.counts
            else:
                self._groups = np.flatnonzero(strategy.q_g)
                self._q = strategy.q_g[self._groups]
                self._cum = np.cumsum(self._q)  # a sequential sum: the dense cumsum at these groups
        elif strategy.kind == "optis":
            lo = _resolve_p(dist, strategy.l, "optis").argmax_index << self.bits
            self._span = (lo, lo + self.block)

    def group_probabilities(self, groups: np.ndarray) -> np.ndarray:
        """The shared part of the law at the given group indices, its one
        definition: q_g for rs, is and optis, rest / 2**l for ls and 2lls
        (their home tiers come on top; mss reads as rs)."""
        kind = self.strategy.kind
        if kind == "optis":
            return (groups == self._span[0] >> self.bits).astype(np.float64)
        if kind != "is":
            return np.full(np.shape(groups), self.rest / (1 << self.strategy.l))
        pos = np.minimum(np.searchsorted(self._groups, groups), self._groups.size - 1)
        return np.where(self._groups[pos] == groups, self._q[pos], 0.0)

    def home_tiers(self, home) -> tuple[tuple[np.ndarray, float, int], ...]:
        """(block start, mass, block size) of each tier around home group
        `home` (the /16 index for 2lls), innermost first; () without tiers,
        whatever `home` is.  `home` is an int or an integer array; each start
        is int64 (uint32 & -size would overflow)."""
        st = self.strategy
        h = np.asarray(home)
        if self.tiers and (h.dtype.kind not in "iu" or np.any(h < 0) or np.any(h >= 1 << st.l)):
            raise ParameterError(f"{st.kind} needs a home group index in [0, 2**{st.l})")
        return tuple(((h.astype(np.int64) << self.bits) & -size, mass, size) for mass, size in self.tiers)

    def draw(self, rng: np.random.Generator, size: int | tuple[int, ...], home=None) -> np.ndarray:
        """Target addresses (int64) of independent scans in numpy's `size` (an
        int or a shape; ls/2lls `home` broadcasts against it), drawn from the
        stream as the flat draw of as many targets would be."""
        kind = self.strategy.kind
        if kind == "is" and self._cum is None:
            # k uniform over the N * block (host slot, offset) pairs: slot i
            # holds the group of host i, so group g has exactly c_g / N.  The
            # slots are built on the first draw, in the narrowest dtype of l bits.
            if self._slots is None:
                self._slots = np.repeat(self._groups.astype(np.min_scalar_type((1 << self.strategy.l) - 1)),
                                        self._counts)
            k = rng.integers(0, self._slots.size << self.bits, size=size, dtype=np.uint64)  # bound <= 2**64
            g = self._slots.take((k >> self.bits).view(np.int64))  # take copies a uint64 index to intp
            k &= self.block - 1
            k |= np.left_shift(g, self.bits, dtype=np.uint64)
            return k.view(np.int64)
        if kind == "is":  # the first cumulative value above u; rounding may leave u above the last
            g = np.minimum(np.searchsorted(self._cum, rng.random(size), side="right"), self._cum.size - 1)
            return (self._groups[g] << self.bits) + rng.integers(0, self.block, size=size, dtype=np.int64)
        tiers = self.home_tiers(home)  # checks home before the draw
        out = rng.integers(*self._span, size=size, dtype=np.int64)
        if not tiers:  # rs, optis, and the random phase of mss
            return out
        # then u picks the innermost tier whose cumulative mass exceeds it; the
        # address's low bits are uniform and independent of u, so each tier,
        # outermost first, keeps them inside its block
        u = rng.random(size)
        inside = [u < cum for cum in itertools.accumulate(mass for _, mass, _ in tiers)]
        del u  # before the scratch array, so that the two never coexist
        moved = np.empty_like(out)
        for (start, _, width), mask in zip(tiers[::-1], inside[::-1]):
            np.bitwise_xor(out, start, out=moved)  # where mask, the bits above the block become start's
            moved &= -width
            moved *= mask
            out ^= moved
        return out
