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
from typing import Iterable, Iterator

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

# Highest level at which a dense 2**l array is an input or an output (a
# synth_zipf draw, an explicit q_g, group_scan_distribution): 8 MiB of int64.
MAX_DENSE_LEVEL = 20

# Lines, hosts or draws per step of the host-list kernels: bounds their
# temporary arrays to a few MB whatever the input size.
_CHUNK = 1 << 16

# The bytes of canonical host-list text, the only input the vectorized parser reads.
_CANONICAL_BYTES = b"0123456789.\n"
_DOT, _NL, _ZERO = ord("."), ord("\n"), ord("0")

# Text of each octet value: its digits, zero bytes up to 3, then '.'.
_OCTET_TEXT = np.frombuffer(
    b"".join(str(v).encode().ljust(3, b"\0") + b"." for v in range(256)), dtype=np.uint8
).reshape(256, 4)

# _sample_distinct draws a permutation prefix only for blocks up to this size.
_PERMUTE_MAX_BLOCK = 1 << 22


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
        arr = np.sort(arr)
        keep = np.empty(arr.size, dtype=bool)
        keep[:1] = True
        np.not_equal(arr[1:], arr[:-1], out=keep[1:])
        arr = arr[keep]
        self._addr64 = arr
        self._addr = arr.astype(np.uint32)
        self._addr.flags.writeable = False
        self._addr64.flags.writeable = False

    @property
    def addresses(self) -> np.ndarray:
        """Sorted unique addresses as a read-only uint32 array."""
        return self._addr

    @property
    def _addresses64(self) -> np.ndarray:
        """The same addresses as a read-only int64 array (package-internal)."""
        return self._addr64

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

    Canonical text -- a str of ASCII digits, '.' and '\\n' only, blank lines
    included -- is parsed by a vectorized kernel.  Any other text, and any
    iterable of lines, goes through the per-line IPv4Address loop that
    defines the format; both give the same result and the same error.
    """
    if isinstance(source, str):
        if source.isascii():
            data = source.encode("ascii")
            if _is_canonical(data):
                return _parse_canonical(data, origin)
        source = source.splitlines()
    return _parse_host_lines(source, origin)


def load_host_list(path: str | Path) -> HostListResult:
    """Parse a host-list file (UTF-8), as parse_host_list does its text.

    A canonical file -- bytes that are only ASCII digits, '.' and '\\n' --
    is parsed by the vectorized kernel; any other file is read again in text
    mode (universal newlines) and goes through the per-line loop.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        data = fh.read()
    if _is_canonical(data):
        return _parse_canonical(data, str(path))
    with open(path, "r", encoding="utf-8") as fh:
        return _parse_host_lines(fh, str(path))


def _parse_host_lines(lines: Iterable[str], origin: str | None) -> HostListResult:
    """Per-line reference parser: the definition of the host-list format."""
    values = []
    ignored = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            ignored += 1
            continue
        try:
            values.append(int(IPv4Address(line)))
        except AddressValueError:
            raise HostListParseError(line_no, line, origin) from None
    return _host_list_result(np.array(values, dtype=np.int64), ignored)


def _host_list_result(values: np.ndarray, ignored: int) -> HostListResult:
    hosts = HostSet(values)
    return HostListResult(hosts=hosts, duplicates_dropped=values.size - hosts.N, lines_ignored=ignored)


def _is_canonical(data: bytes) -> bool:
    return not data.translate(None, _CANONICAL_BYTES)


def _parse_canonical(data: bytes, origin: str | None) -> HostListResult:
    """Vectorized parser of canonical host-list bytes, _CHUNK lines at a time.

    A line is an address when it has exactly 3 dots and each octet has 1-3
    digits, no leading zero and a value of at most 255: the rules
    IPv4Address applies to such text.  Empty lines are blank.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    step = 16 * _CHUNK
    ends = [np.flatnonzero(buf[lo:lo + step] == _NL) + lo for lo in range(0, buf.size, step)]
    if buf.size and buf[-1] != _NL:
        ends.append(np.array([buf.size]))  # a last line without its newline
    ends = np.concatenate(ends) if ends else np.zeros(0, dtype=np.int64)
    values = []
    ignored = 0
    for first in range(0, ends.size, _CHUNK):
        lo = int(ends[first - 1]) + 1 if first else 0
        seg = buf[lo:ends[min(first + _CHUNK, ends.size) - 1]]
        e = ends[first:first + _CHUNK] - lo
        s = np.empty_like(e)
        s[0] = 0
        s[1:] = e[:-1] + 1
        addr, valid = _parse_canonical_lines(seg, s, e)
        blank = s == e
        bad = np.flatnonzero(~(valid | blank))
        if bad.size:
            i = int(bad[0])
            raise HostListParseError(first + i + 1, seg[s[i]:e[i]].tobytes().decode("ascii"), origin)
        values.append(addr)
        ignored += int(np.count_nonzero(blank))
    return _host_list_result(np.concatenate(values) if values else np.zeros(0, dtype=np.int64), ignored)


def _parse_canonical_lines(seg: np.ndarray, s: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Addresses of the valid lines [s, e) of `seg`, in line order, and the
    mask of valid lines."""
    dots = np.flatnonzero(seg == _DOT)
    first_dot = np.searchsorted(dots, s)
    valid = np.searchsorted(dots, e) - first_dot == 3
    d = dots[first_dot[valid, None] + np.arange(3)]
    lo = np.column_stack([s[valid], d + 1])  # the 4 octets are [lo, hi)
    hi = np.column_stack([d, e[valid]])
    width = hi - lo
    octet = np.zeros(width.shape, dtype=np.int64)
    for j, weight in enumerate((1, 10, 100)):  # digits from the right
        digit = seg[np.maximum(hi - 1 - j, 0)].astype(np.int64) - _ZERO
        octet += np.where(width > j, digit * weight, 0)
    leading_zero = (width > 1) & (seg[np.minimum(lo, seg.size - 1)] == _ZERO)
    ok = ((width >= 1) & (width <= 3) & ~leading_zero & (octet <= 255)).all(axis=1)
    valid[valid] = ok
    octet = octet[ok]
    return (octet[:, 0] << 24) | (octet[:, 1] << 16) | (octet[:, 2] << 8) | octet[:, 3], valid


def save_host_list(path: str | Path, hosts: HostSet) -> None:
    """Write one dotted-quad per line, ascending; deterministic bytes.

    Each chunk of addresses is laid out as 16 bytes per address from
    _OCTET_TEXT; dropping the padding zeros leaves the text.
    """
    addr = hosts.addresses
    with open(path, "wb") as fh:
        for lo in range(0, addr.size, _CHUNK):
            octets = addr[lo:lo + _CHUNK].astype(">u4").view(np.uint8).reshape(-1, 4)
            text = _OCTET_TEXT[octets].reshape(-1, 16)
            text[:, 15] = _NL
            fh.write(text[text != 0])


class GroupDistribution:
    """Host counts per /l prefix group, stored sparse (occupied groups only).

    Canonical form: `indices` sorted ascending, matching `counts` all >= 1
    and at most block_size(l); a larger count raises CapacityError.
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
        block = block_size(self._l)
        over = cnt > block
        if np.any(over):
            bad = np.argmax(over)
            raise CapacityError(
                f"group {idx[bad]} needs {cnt[bad]} distinct hosts but a /{self._l} block has {block} addresses"
            )
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
        write_table(path, ["group_index", "count"], [self._indices, self._counts], [f"l={self._l} N={self._total}"])

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
    if size <= _PERMUTE_MAX_BLOCK and 3 * k > size:
        return rng.permutation(size)[:k].astype(np.int64)
    chosen = np.zeros(0, dtype=np.int64)
    while chosen.size < k:
        need = k - chosen.size
        batch = rng.integers(0, size, size=need + (need >> 1) + 16, dtype=np.int64)
        fresh = batch[_first_occurrences(batch)]
        taken = np.append(np.sort(chosen), size)  # `size` is above every draw
        fresh = fresh[taken[np.searchsorted(taken, fresh)] != fresh]
        chosen = np.concatenate([chosen, fresh[:need]])
    return chosen


def materialize_hosts(dist: GroupDistribution, seed: int) -> HostSet:
    """Draw a concrete HostSet matching `dist`: each group's hosts are
    distinct addresses placed uniformly at random within the group's block.

    Deterministic for a given (dist, seed).  Stream contract: groups are
    filled in ascending index order from one seeded stream, each exactly as
    `_sample_distinct(rng, count, block)` would fill it.
    - A group with count == block (an arange) or one drawn as a permutation
      prefix is a break point, filled on its own in stream order.
    - Between break points, the rejection-sampled groups are taken in runs
      whose first batches -- count + (count >> 1) + 16 draws each -- start
      within _CHUNK draws of the run's start.  A run's batches come from one
      `rng.integers` call: a block of 2**b addresses consumes exactly one
      32-bit word per draw, so this is the stream the groups would draw one
      by one.  Each group keeps the first `count` distinct values of its
      batch in draw order.
    - A group whose batch holds fewer than `count` distinct values (in
      practice only in blocks above _PERMUTE_MAX_BLOCK) needs more batches: the
      stream is restored to the run's start, the batches before that group
      are drawn again, `_sample_distinct` fills the group, and the next run
      starts after it.
    """
    bits = block_bits(dist.l)
    block = 1 << bits
    rng = np.random.default_rng(seed)
    counts = dist.counts
    bases = dist.indices << bits
    breaks = np.flatnonzero((counts == block) | ((block <= _PERMUTE_MAX_BLOCK) & (3 * counts > block)))
    parts = []
    start = 0
    for stop in [*breaks.tolist(), counts.size]:
        while start < stop:
            k = counts[start:min(stop, start + _CHUNK)]
            batch = k + (k >> 1) + 16
            begin = np.cumsum(batch) - batch
            m = int(np.searchsorted(begin, _CHUNK))
            state = rng.bit_generator.state
            draws = rng.integers(0, block, int(begin[m - 1] + batch[m - 1]), dtype=np.int64)
            hosts, filled = _first_distinct(draws, bases[start:start + m], k[:m], batch[:m])
            parts.append(hosts)
            del draws  # before a replay draws its own batches
            if filled < m:  # replay the stream up to this group and fill it alone
                rng.bit_generator.state = state
                rng.integers(0, block, int(begin[filled]), dtype=np.int64)
                parts.append(int(bases[start + filled]) + _sample_distinct(rng, int(k[filled]), block))
                m = filled + 1
            start += m
        if stop < counts.size:
            parts.append(int(bases[stop]) + _sample_distinct(rng, int(counts[stop]), block))
            start = stop + 1
    if not parts:
        return HostSet([])
    return HostSet(np.concatenate(parts))


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """Mask of the values that do not repeat an earlier value."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    keep = np.ones(values.size, dtype=bool)
    keep[order[1:][ranked[1:] == ranked[:-1]]] = False
    return keep


def _first_distinct(draws: np.ndarray, bases: np.ndarray, k: np.ndarray, batch: np.ndarray) -> tuple[np.ndarray, int]:
    """Per group, the first k distinct values of its batch in draw order.

    `draws` holds the groups' batches of offsets back to back (overwritten
    with the addresses they name).  Returns the
    hosts of the groups before the first one whose batch has fewer than k
    distinct values, and that group's position (len(k) if there is none).
    """
    gid = np.repeat(np.arange(k.size), batch)
    draws += bases[gid]  # blocks are disjoint: an address names its group
    keep = _first_occurrences(draws)
    gid, hosts = gid[keep], draws[keep]
    distinct = np.bincount(gid, minlength=k.size)
    short = np.flatnonzero(distinct < k)
    filled = int(short[0]) if short.size else k.size
    rank = np.arange(gid.size) - (np.cumsum(distinct) - distinct)[gid]
    return hosts[(rank < k[gid]) & (gid < filled)], filled


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
    write_table(path, ["threshold", "fraction"], list(zip(*((p.threshold, p.fraction) for p in points))))


def write_table(path: str | Path, header: Iterable[str], columns: Iterable, comments: Iterable[str] = ()) -> None:
    """Write a CSV data file: a `# <comment>` line per comment, the header, then
    one '\\n'-terminated row per position of the equal-length columns.  Text
    cells are quoted as the csv module quotes them (only those holding ',' or
    '"'); numbers are the repr of Python ints and floats, never numpy scalars."""
    arrays = [np.asarray(col) for col in columns]
    step = max(1, _CHUNK // max(1, len(arrays)))  # rows per step: about _CHUNK cells
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(arrays[0]) if arrays else 0, step):
            cells = [map(_csv_text if a.dtype.kind == "U" else repr, a[lo:lo + step].tolist()) for a in arrays]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells, strict=True))


def _csv_text(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if "," in cell or '"' in cell else cell
