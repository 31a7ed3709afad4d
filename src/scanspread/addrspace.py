"""IPv4 address-space modeling: host sets, prefix-level aggregation, and
synthetic host distributions.

Addresses are plain integers in [0, 2**32).  A /l prefix group with index i
covers the half-open block [i * 2**(32-l), (i+1) * 2**(32-l)); group indexing
is 0-based, so l=0 is the whole space and l=32 makes every address its own
group.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from ipaddress import AddressValueError, IPv4Address
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    CapacityError,
    DistributionFormatError,
    HostListParseError,
    InternalConsistencyError,
    ParameterError,
)

ADDRESS_BITS = 32
ADDRESS_SPACE = 1 << ADDRESS_BITS

# Dense 2**l arrays are only materialized up to this level (8 MiB of int64).
MAX_DENSE_LEVEL = 20


def check_prefix_level(l: int) -> int:
    if not isinstance(l, (int, np.integer)) or isinstance(l, bool):
        raise ParameterError(f"prefix level must be an integer, got {l!r}")
    if not 0 <= l <= ADDRESS_BITS:
        raise ParameterError(f"prefix level must be in [0, 32], got {l}")
    return int(l)


def block_bits(l: int) -> int:
    """Number of address bits inside one /l block."""
    return ADDRESS_BITS - check_prefix_level(l)


def block_size(l: int) -> int:
    return 1 << block_bits(l)


def group_of(address: int, l: int) -> int:
    """Group index of an address at level l."""
    return int(address) >> block_bits(l)


class HostSet:
    """An ordered set of distinct IPv4 addresses, stored sorted ascending."""

    __slots__ = ("_addr", "_addr64")

    def __init__(self, addresses):
        raw = np.asarray(addresses)
        if raw.dtype.kind == "f" and not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
            raise ParameterError("addresses must be integers")
        arr = np.asarray(raw, dtype=np.int64)
        if arr.ndim != 1:
            arr = arr.reshape(-1)
        if arr.size and (arr.min() < 0 or arr.max() >= ADDRESS_SPACE):
            raise ParameterError("addresses must lie in [0, 2**32)")
        arr = np.unique(arr)
        self._addr64 = arr
        self._addr = arr.astype(np.uint32)
        self._addr.flags.writeable = False
        self._addr64.flags.writeable = False

    @property
    def addresses(self) -> np.ndarray:
        """Sorted unique addresses as a read-only uint32 array."""
        return self._addr

    @property
    def N(self) -> int:
        return int(self._addr.size)

    def __len__(self) -> int:
        return self._addr.size

    def __iter__(self) -> Iterator[int]:
        return iter(int(a) for a in self._addr64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HostSet):
            return NotImplemented
        return np.array_equal(self._addr, other._addr)

    def __repr__(self) -> str:
        return f"HostSet(N={self.N})"

    def count_in_interval(self, lo: int, hi: int) -> int:
        """Number of hosts with lo <= address < hi."""
        lo_i, hi_i = np.searchsorted(self._addr64, [lo, hi], side="left")
        return int(hi_i - lo_i)

    def count_members(self, targets: np.ndarray) -> int:
        """How many entries of `targets` (with multiplicity) are hosts."""
        if self._addr64.size == 0:
            return 0
        t = np.asarray(targets, dtype=np.int64)
        idx = np.searchsorted(self._addr64, t)
        np.minimum(idx, self._addr64.size - 1, out=idx)
        return int(np.count_nonzero(self._addr64[idx] == t))


@dataclass(frozen=True)
class HostListResult:
    hosts: HostSet
    duplicates_dropped: int
    lines_ignored: int


def parse_host_list(source: str | Iterable[str], origin: str | None = None) -> HostListResult:
    """Parse a host-list text: one dotted-quad address per line.

    Blank lines and lines starting with '#' are ignored (and counted).  Any
    other malformed line raises HostListParseError with its line number.
    """
    if isinstance(source, str):
        source = source.splitlines()
    values = []
    ignored = 0
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            ignored += 1
            continue
        try:
            values.append(int(IPv4Address(line)))
        except AddressValueError:
            raise HostListParseError(line_no, line, origin) from None
    hosts = HostSet(np.array(values, dtype=np.int64))
    return HostListResult(hosts=hosts, duplicates_dropped=len(values) - hosts.N, lines_ignored=ignored)


def load_host_list(path: str | Path) -> HostListResult:
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        return parse_host_list(fh, origin=str(path))


def _dotted(a: int) -> str:
    return f"{(a >> 24) & 255}.{(a >> 16) & 255}.{(a >> 8) & 255}.{a & 255}"


def save_host_list(path: str | Path, hosts: HostSet) -> None:
    """Write one dotted-quad per line, ascending; deterministic bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for a in hosts.addresses:
            fh.write(_dotted(int(a)))
            fh.write("\n")


class GroupDistribution:
    """Host counts per /l prefix group, stored sparse (occupied groups only).

    Canonical form: `indices` sorted ascending, matching `counts` all >= 1.
    Probabilities are counts / total.
    """

    __slots__ = ("_l", "_indices", "_counts", "_total")

    def __init__(self, l: int, indices, counts):
        self._l = check_prefix_level(l)
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        cnt = np.asarray(counts, dtype=np.int64).reshape(-1)
        if idx.size != cnt.size:
            raise ParameterError("indices and counts length mismatch")
        if np.any(cnt < 0):
            raise ParameterError("counts must be non-negative")
        keep = cnt > 0
        idx, cnt = idx[keep], cnt[keep]
        order = np.argsort(idx, kind="stable")
        idx, cnt = idx[order], cnt[order]
        if idx.size and (idx[0] < 0 or idx[-1] >= (1 << self._l)):
            raise ParameterError(f"group index out of range for l={self._l}")
        if idx.size > 1 and np.any(idx[1:] == idx[:-1]):
            raise ParameterError("duplicate group indices")
        self._indices = idx
        self._counts = cnt
        self._indices.flags.writeable = False
        self._counts.flags.writeable = False
        self._total = int(cnt.sum())

    @classmethod
    def from_dense(cls, l: int, dense_counts) -> "GroupDistribution":
        dense = np.asarray(dense_counts, dtype=np.int64).reshape(-1)
        l = check_prefix_level(l)
        if dense.size != (1 << l):
            raise ParameterError(f"dense counts must have length 2**{l}")
        nz = np.flatnonzero(dense)
        return cls(l, nz, dense[nz])

    @classmethod
    def from_pairs(cls, l: int, pairs: Mapping[int, int] | Iterable[tuple[int, int]]) -> "GroupDistribution":
        if isinstance(pairs, Mapping):
            pairs = pairs.items()
        items = list(pairs)
        idx = [i for i, _ in items]
        cnt = [c for _, c in items]
        return cls(l, idx, cnt)

    @property
    def l(self) -> int:
        return self._l

    @property
    def n_groups(self) -> int:
        return 1 << self._l

    @property
    def indices(self) -> np.ndarray:
        return self._indices

    @property
    def counts(self) -> np.ndarray:
        return self._counts

    @property
    def total(self) -> int:
        """Total number of hosts (sum of counts)."""
        return self._total

    @property
    def occupied(self) -> int:
        return int(self._indices.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupDistribution):
            return NotImplemented
        return (
            self._l == other._l
            and np.array_equal(self._indices, other._indices)
            and np.array_equal(self._counts, other._counts)
        )

    def __repr__(self) -> str:
        return f"GroupDistribution(l={self._l}, occupied={self.occupied}, total={self._total})"

    def count_of(self, index: int) -> int:
        pos = np.searchsorted(self._indices, index)
        if pos < self._indices.size and self._indices[pos] == index:
            return int(self._counts[pos])
        return 0

    @property
    def max_count(self) -> int:
        if self._counts.size == 0:
            raise ParameterError("empty distribution has no maximum")
        return int(self._counts.max())

    @property
    def argmax_index(self) -> int:
        """Group index of the largest count; ties break to the lowest index."""
        if self._counts.size == 0:
            raise ParameterError("empty distribution has no maximum")
        return int(self._indices[np.argmax(self._counts)])

    @property
    def max_probability(self) -> float:
        return self.max_count / self._total

    def sum_sq_counts(self) -> int:
        """Exact integer sum of squared counts."""
        c = self._counts
        if self._total < (1 << 31):
            return int(np.dot(c, c))
        return int(sum(int(v) * int(v) for v in c))

    def probabilities_occupied(self) -> np.ndarray:
        return self._counts / self._total

    def dense_counts(self) -> np.ndarray:
        if self._l > MAX_DENSE_LEVEL:
            raise ParameterError(f"dense view infeasible for l={self._l} (max {MAX_DENSE_LEVEL})")
        dense = np.zeros(1 << self._l, dtype=np.int64)
        dense[self._indices] = self._counts
        return dense

    def dense_probabilities(self) -> np.ndarray:
        if self._total == 0:
            raise ParameterError("empty distribution has no probabilities")
        return self.dense_counts() / self._total

    def coarsen(self, to_l: int) -> "GroupDistribution":
        """Re-aggregate to a smaller prefix level by summing child groups."""
        to_l = check_prefix_level(to_l)
        if to_l > self._l:
            raise ParameterError(f"cannot coarsen l={self._l} to finer l={to_l}")
        if to_l == self._l:
            return self
        parent = self._indices >> (self._l - to_l)
        # indices sorted ascending => parent ids are non-decreasing
        starts = np.flatnonzero(np.r_[True, parent[1:] != parent[:-1]])
        sums = np.add.reduceat(self._counts, starts) if self._counts.size else self._counts
        return GroupDistribution(to_l, parent[starts] if parent.size else parent, sums)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# l={self._l} N={self._total}\n")
            fh.write("group_index,count\n")
            for i, c in zip(self._indices, self._counts):
                fh.write(f"{int(i)},{int(c)}\n")

    @classmethod
    def from_csv(cls, path: str | Path) -> "GroupDistribution":
        path = Path(path)
        header = None
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row:
                    continue
                if row[0].lstrip().startswith("#"):
                    m = re.match(r"#\s*l=(\d+)\s+N=(\d+)\s*$", ",".join(row).strip())
                    if not m:
                        raise DistributionFormatError(f"{path}: bad header comment {row!r}")
                    header = (int(m.group(1)), int(m.group(2)))
                    continue
                if row[0].strip() == "group_index":
                    continue
                try:
                    rows.append((int(row[0]), int(row[1])))
                except (ValueError, IndexError):
                    raise DistributionFormatError(f"{path}: bad row {row!r}") from None
        if header is None:
            raise DistributionFormatError(f"{path}: missing '# l=<l> N=<N>' header")
        l, n = header
        try:
            dist = cls(l, [i for i, _ in rows], [c for _, c in rows])
        except ParameterError as exc:
            raise DistributionFormatError(f"{path}: {exc}") from None
        if dist.total != n:
            raise DistributionFormatError(f"{path}: counts sum to {dist.total}, header says N={n}")
        return dist


def _run_lengths(sorted_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct values, run lengths) of a sorted array."""
    if sorted_vals.size == 0:
        return sorted_vals[:0], np.zeros(0, dtype=np.int64)
    change = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1])
    starts = np.r_[0, change + 1]
    ends = np.r_[starts[1:], sorted_vals.size]
    return sorted_vals[starts], (ends - starts).astype(np.int64)


def aggregate(hosts: HostSet, l: int) -> GroupDistribution:
    """Count hosts per /l prefix group."""
    l = check_prefix_level(l)
    addr = hosts.addresses
    if l == 0:
        if addr.size == 0:
            return GroupDistribution(0, [], [])
        return GroupDistribution(0, [0], [addr.size])
    groups = (addr >> np.uint32(ADDRESS_BITS - l)).astype(np.int64)
    idx, cnt = _run_lengths(groups)  # addresses sorted => groups sorted
    return GroupDistribution(l, idx, cnt)


def refine(dist: GroupDistribution, hosts: HostSet, l: int) -> GroupDistribution:
    """Aggregate `hosts` at level l and check consistency with the parent.

    `dist` must be the level l-1 aggregation of the same hosts: each parent
    count must equal the sum of its two children.  A mismatch means the inputs
    do not describe the same population and raises InternalConsistencyError.
    """
    l = check_prefix_level(l)
    if l < 1:
        raise ParameterError("refine needs l >= 1")
    if dist.l != l - 1:
        raise ParameterError(f"parent distribution is at l={dist.l}, expected {l - 1}")
    fine = aggregate(hosts, l)
    back = fine.coarsen(l - 1)
    if back != dist:
        raise InternalConsistencyError(
            f"refinement mismatch at l={l}: parent counts disagree with child sums"
        )
    return fine


def synth_uniform(n_occupied: int, l: int, hosts_per_group: int) -> GroupDistribution:
    """Equal counts in the first `n_occupied` groups at level l."""
    l = check_prefix_level(l)
    if not 1 <= n_occupied <= (1 << l):
        raise ParameterError(f"n_occupied must be in [1, 2**{l}]")
    if hosts_per_group < 1:
        raise ParameterError("hosts_per_group must be >= 1")
    idx = np.arange(n_occupied, dtype=np.int64)
    cnt = np.full(n_occupied, hosts_per_group, dtype=np.int64)
    return GroupDistribution(l, idx, cnt)


def synth_zipf(l: int, exponent: float, n_hosts: int, seed: int) -> GroupDistribution:
    """Zipf-like counts over the 2**l groups.

    Rank r (1-based) carries an expected share proportional to r**(-exponent);
    ranks are mapped onto group indices by a seed-determined permutation.
    Counts are integers summing exactly to n_hosts (largest-remainder
    rounding; ties go to the lower rank).
    """
    l = check_prefix_level(l)
    if l > MAX_DENSE_LEVEL:
        raise ParameterError(f"synth_zipf supports l <= {MAX_DENSE_LEVEL}")
    if not exponent > 0:
        raise ParameterError("exponent must be > 0")
    if n_hosts < 1:
        raise ParameterError("n_hosts must be >= 1")
    m = 1 << l
    ranks = np.arange(1, m + 1, dtype=np.float64)
    weights = ranks ** (-float(exponent))
    shares = n_hosts * (weights / weights.sum())
    base = np.floor(shares).astype(np.int64)
    short = n_hosts - int(base.sum())
    if short:
        frac = shares - base
        # largest remainders win; ties to the lower rank
        order = np.lexsort((ranks, -frac))
        base[order[:short]] += 1
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    dense = np.zeros(m, dtype=np.int64)
    dense[perm] = base  # rank r lands on group perm[r-1]
    return GroupDistribution.from_dense(l, dense)


def _sample_distinct(rng: np.random.Generator, k: int, size: int) -> np.ndarray:
    """k distinct integers uniform over [0, size), in arrival order.

    Matches the distribution of sequential rejection sampling; vectorized by
    drawing batches and keeping first occurrences in draw order, so the result
    is deterministic for a given generator state.
    """
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    if k == size:
        return np.arange(size, dtype=np.int64)
    if size <= (1 << 22) and 3 * k > size:
        return rng.permutation(size)[:k].astype(np.int64)
    chosen = np.zeros(0, dtype=np.int64)
    while chosen.size < k:
        need = k - chosen.size
        batch = rng.integers(0, size, size=need + (need >> 1) + 16, dtype=np.int64)
        pool = np.concatenate([chosen, batch])
        _, first = np.unique(pool, return_index=True)
        first.sort()
        pool = pool[first]
        chosen = pool[: min(k, pool.size)]
    return chosen


def materialize_hosts(dist: GroupDistribution, seed: int) -> HostSet:
    """Draw a concrete HostSet matching `dist`: each group's hosts are
    distinct addresses placed uniformly at random within the group's block.

    Deterministic for a given (dist, seed); groups are filled in ascending
    index order from a single seeded stream.
    """
    bits = block_bits(dist.l)
    block = 1 << bits
    over = dist.counts > block
    if np.any(over):
        bad = int(dist.indices[np.argmax(over)])
        raise CapacityError(
            f"group {bad} needs {dist.count_of(bad)} distinct hosts but a /{dist.l} block has {block} addresses"
        )
    rng = np.random.default_rng(seed)
    parts = []
    for idx, cnt in zip(dist.indices, dist.counts):
        offs = _sample_distinct(rng, int(cnt), block)
        parts.append((int(idx) << bits) + offs)
    if not parts:
        return HostSet([])
    return HostSet(np.concatenate(parts))


@dataclass(frozen=True)
class CcdfPoint:
    """One step of the complementary CDF of per-group counts."""

    threshold: int
    fraction: float


def ccdf(dist: GroupDistribution) -> list[CcdfPoint]:
    """Fraction of all 2**l groups whose count strictly exceeds x, for x=0
    and every distinct count present.  Empty groups count in the denominator.
    """
    m = dist.n_groups
    if dist.occupied == 0:
        return [CcdfPoint(0, 0.0)]
    values, mult = _run_lengths(np.sort(dist.counts))
    points = [CcdfPoint(0, dist.occupied / m)]
    above = int(mult.sum())
    for v, k in zip(values, mult):
        above -= int(k)
        points.append(CcdfPoint(int(v), above / m))
    return points


def write_ccdf_csv(points: list[CcdfPoint], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("threshold,fraction\n")
        for p in points:
            fh.write(f"{p.threshold},{p.fraction!r}\n")
