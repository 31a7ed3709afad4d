"""IPv4 address-space modeling: host sets, prefix-level aggregation, and
synthetic host distributions.

Addresses are plain integers in [0, 2**32).  A /l prefix group with index i
covers the half-open block [i * 2**(32-l), (i+1) * 2**(32-l)); group indexing
is 0-based, so l=0 is the whole space and l=32 makes every address its own
group.
"""

from __future__ import annotations

import csv
import io
import math
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

# Hosts, draws, targets or cells per step of the I/O and membership kernels:
# bounds their temporary arrays to a few MB whatever the input size.
_CHUNK = 1 << 16

# Bytes per run of whole lines that the canonical-text readers take at a time.
_RUN = 4 * _CHUNK

# The bytes of canonical host-list text, the only input the vectorized parser
# reads.  In canonical text every byte below '0' ends a field.
_CANONICAL_BYTES = b"0123456789.\n"
_NL, _ZERO = ord("\n"), ord("0")

# Text of each octet value: its digits, zero bytes up to 3, then '.'; and the
# same 4 bytes as one uint32 word per value, which save_host_list gathers.
_OCTET_TEXT = np.frombuffer(
    b"".join(str(v).encode().ljust(3, b"\0") + b"." for v in range(256)), dtype=np.uint8
).reshape(256, 4)
_OCTET_WORDS = _OCTET_TEXT.reshape(-1).view(np.uint32)

# _sample_distinct draws a permutation prefix only for blocks up to this size.
_PERMUTE_MAX_BLOCK = 1 << 22

# The two rows that open a distribution CSV: the `# l=<l> N=<N>` header, with
# any spacing, and the column row, whose first cell is "group_index".
_DIST_HEADER = re.compile(r"#\s*l=(\d+)\s+N=(\d+)\s*$")
_DIST_COLUMNS = "group_index"

# What to_csv writes before its rows, and the only bytes of those rows: the
# vectorized reader takes files of that layout whose fields have at most
# _MAX_DIGITS digits (so every value fits int64).
_CANONICAL_DIST_HEAD = re.compile(rb"# l=(\d+) N=(\d+)\ngroup_index,count\n")
_CANONICAL_DIST_BYTES = b"0123456789,\n"
_COMMA = ord(",")
_MAX_DIGITS = 18


def check_int(value, what: str, lo: int, hi: int | None = None) -> int:
    """value as a Python int: the one check of every scalar integer parameter.
    It takes an int or a numpy integer, never a bool, in [lo, hi] (no upper
    bound when hi is None); anything else raises ParameterError naming `what`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    v = int(value)
    if hi is None and v < lo:
        raise ParameterError(f"{what} must be >= {lo}, got {v}")
    if hi is not None and not lo <= v <= hi:
        top = f"2**{hi.bit_length() - 1}" if hi >= 1 << 10 and not hi & (hi - 1) else hi  # 2**32, not its digits
        raise ParameterError(f"{what} must be in [{lo}, {top}], got {v}")
    return v


def check_real(value, what: str, lo: float, hi: float = math.inf, open_lo: bool = False) -> float:
    """value as a Python float: the one check of every scalar real parameter.
    It takes an int, a float or a numpy real, never a bool, finite and in [lo, hi]
    ((lo, hi] under open_lo); anything else raises ParameterError naming `what`."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ParameterError(f"{what} must be a real number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an int past the largest float
        v = math.inf if value > 0 else -math.inf
    if not (lo < v if open_lo else lo <= v) or not v <= hi or not math.isfinite(v):  # true for nan
        span = f"{'(' if open_lo else '['}{_bound_text(lo)}, {_bound_text(hi)}{']' if hi < math.inf else ')'}"
        raise ParameterError(f"{what} must be in {span}, got {v!r}")
    return v


def check_type(value, cls: type, what: str, optional: bool = False):
    """value itself when it is a `cls` (or None under optional): the one check of
    every object-typed field; anything else raises ParameterError naming `what`."""
    if not (isinstance(value, cls) or optional and value is None):
        raise ParameterError(f"{what} must be a {cls.__name__}, got {value!r}")
    return value


def _bound_text(x: float) -> str:
    """A bound in check_real's messages: a power of two other than 1 as 2**k."""
    m, e = math.frexp(x)
    return f"2**{e - 1}" if m == 0.5 and e != 1 else f"{x:g}"


def check_prefix_level(l: int) -> int:
    return check_int(l, "prefix level", 0, ADDRESS_BITS)


def block_bits(l: int) -> int:
    """Number of address bits inside one /l block."""
    return ADDRESS_BITS - check_prefix_level(l)


def block_size(l: int) -> int:
    return 1 << block_bits(l)


def _square_sum(h: np.ndarray) -> int:
    """sum(h**2) exactly for int64 0 <= h <= 2**32: the int64 dot products of
    h's 16-bit halves cannot overflow below 2**31 entries or a sum of 2**32."""
    hi, lo = h >> 16, h & 0xFFFF
    return (int(hi @ hi) << 32) + (int(hi @ lo) << 17) + int(lo @ lo)


class HostSet:
    """An ordered set of distinct IPv4 addresses, stored sorted ascending.

    The sorted uint32 addresses are the only per-host array (4 B a host).  The
    first membership query builds a _MemberIndex (4 MiB plus 32 B per occupied
    /24), which later queries reuse.  Queries take integer targets and bounds
    of any integer dtype as they are; other values must pass the integer check
    that addresses pass."""

    __slots__ = ("_addr", "_members")

    def __init__(self, addresses):
        arr = np.asarray(addresses).reshape(-1)
        _check_integers(arr, "addresses")
        if arr.dtype.kind not in "iu":  # integer arrays are range-checked as they are
            arr = arr.astype(np.int64)
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= ADDRESS_SPACE):
            raise ParameterError("addresses must lie in [0, 2**32)")
        arr = arr.astype(np.uint32)
        arr.sort()
        starts = _run_starts(arr)
        self._addr = arr if starts.all() else arr[starts]  # no second copy when no address repeats
        self._addr.flags.writeable = False
        self._members = None

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
        return iter(int(a) for a in self._addr)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HostSet):
            return NotImplemented
        return np.array_equal(self._addr, other._addr)

    def __repr__(self) -> str:
        return f"HostSet(N={self.N})"

    def count_in_interval(self, lo, hi):
        """Number of hosts with lo <= address < hi.  Array bounds broadcast
        and count elementwise into an int64 array; scalar bounds give an int."""
        n = self._below(hi) - self._below(lo)
        return int(n) if np.ndim(n) == 0 else n

    def _below(self, bound):
        """Hosts below each integer bound: the uint32 addresses are searched
        for the bound clipped into [0, 2**32), and a bound >= 2**32 counts N.
        The bounds are searched in ascending order, so that numpy starts each
        search at the last one's result, and their counts scattered back."""
        bound = np.asarray(bound)
        if bound.dtype == np.uint64:  # a bound from 2**63 would wrap below 0
            bound = np.minimum(bound, ADDRESS_SPACE)
        bound = _query_int64(bound, "interval bounds")
        keys = np.clip(bound, 0, ADDRESS_SPACE - 1).astype(np.uint32).reshape(-1)
        order = keys.argsort()
        n = np.empty(keys.size, dtype=np.intp)
        n[order] = np.searchsorted(self._addr, keys.take(order))
        return np.where(bound < ADDRESS_SPACE, n.reshape(bound.shape), self._addr.size)

    def count_members(self, targets: np.ndarray) -> int:
        """How many entries of `targets` (with multiplicity) are hosts."""
        return int(self.count_members_per_row(np.reshape(targets, (1, -1)))[0])

    def count_members_per_row(self, targets: np.ndarray) -> np.ndarray:
        """Hosts among each row of a (rows, n) target block, with multiplicity.
        Targets outside [0, 2**32) are misses, uint64 ones from 2**63 too."""
        if self._members is None:
            self._members = _MemberIndex(self._addr)
        return self._members.count_per_row(_query_int64(targets, "targets"))


def _query_int64(values, what: str) -> np.ndarray:
    """values as int64, for a query: an integer array as it is, so that the
    check costs nothing and uint64 values from 2**63 wrap below 0 (outside
    every query's range); any other array only if _check_integers takes it."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        _check_integers(arr, what)
    return arr.astype(np.int64, copy=False)


class _MemberIndex:
    """Static membership index of sorted uint32 addresses: a rank directory
    (Jacobson, FOCS 1989) over a bitmap of occupied /24s, each count stored
    beside its bits as in Vigna's rank9 (WEA 2008), so that a lookup reads one
    directory entry; and a 256-bit leaf per occupied /24, in the manner of
    Roaring bitmaps (Chambi et al., SP&E 46(5), 2016).

    - directory: 2**19 + 2 uint64 entries.  Entry e + 1 covers /24s 32 * e to
      32 * e + 31: bit j of its low half is set when /24 32 * e + j holds a
      host, and its high half counts the occupied /24s before it.  Entries 0
      and 2**19 + 1 are zero: the lookup index (a >> 13) + 1 of a target a
      outside [0, 2**32) is clipped onto one of them.
    - leaves: (occupied + 1) leaves of 32 bytes.  Leaf 0 is all zero: every
      /24 without hosts points to it.  The k-th occupied /24 (from 1) has
      leaf k, whose byte (a >> 3) & 31 has bit a & 7 set for each of its
      hosts a.  The leaves are bytes, so no lookup depends on byte order.
    """

    __slots__ = ("directory", "leaves")

    def __init__(self, addr: np.ndarray):
        self.directory = d = np.zeros((1 << 19) + 2, dtype=np.uint64)
        # steps of _CHUNK hosts or entries keep the temporaries O(_CHUNK)
        for lo in range(0, addr.size, _CHUNK):
            p = addr[lo:lo + _CHUNK] >> 8
            _or_bits(d, (p >> 5) + 1, p & 31)
        occupied = 0  # the occupied /24s before the step's first entry
        for lo in range(0, d.size - 1, _CHUNK):  # the last entry stays zero
            bits = d[lo:min(lo + _CHUNK, d.size - 1)]
            count = np.bitwise_count(bits)
            before = np.cumsum(count, dtype=np.uint64)
            step = int(before[-1])
            before -= count
            before += occupied
            before <<= 32
            bits |= before
            occupied += step
        self.leaves = np.zeros(32 * (occupied + 1), dtype=np.uint8)
        leaf = 0  # the leaf of the /24 before the step's first host
        for lo in range(0, addr.size, _CHUNK):
            a = addr[lo:lo + _CHUNK]
            p = a >> 8
            starts = _run_starts(p)
            starts[0] = lo == 0 or p[0] != addr[lo - 1] >> 8  # a /24 that two steps share starts once
            k = np.cumsum(starts, dtype=np.int64)
            k += leaf
            leaf = int(k[-1])
            k <<= 5
            k |= (a >> 3) & 31
            _or_bits(self.leaves, k, a & 7)

    @property
    def nbytes(self) -> int:
        return self.directory.nbytes + self.leaves.nbytes

    def count_per_row(self, targets: np.ndarray) -> np.ndarray:
        """Members among each row of an int64 target block, looked up in
        column slices of about _CHUNK targets, so that the temporaries stay
        O(_CHUNK) whatever the block's size.  A target a outside [0, 2**32)
        reads a zero directory entry, so its leaf is 0."""
        hits = np.zeros(targets.shape[0], dtype=np.int64)
        step = max(1, _CHUNK // max(1, targets.shape[0]))
        for lo in range(0, targets.shape[1], step):
            t = targets[:, lo:lo + step]
            scratch = t >> 13
            scratch += 1
            leaf = self.directory.take(scratch, mode="clip")
            # the entry's bits up to a's /24, with a's on top, count a's rank
            # within the entry: a shift by 63 - (a >> 8 & 31) puts them there
            # and drops the entry's count
            np.right_shift(t, 8, out=scratch)
            np.invert(scratch, out=scratch)
            scratch &= 31
            scratch |= 32
            upto = np.left_shift(leaf, scratch.view(np.uint64), out=scratch.view(np.uint64))
            leaf >>= 32
            leaf += np.bitwise_count(upto)
            upto >>= 63
            leaf *= upto  # 0 where a's /24 holds no host
            leaf <<= 5
            np.right_shift(t, 3, out=scratch)
            scratch &= 31
            leaf |= scratch.view(np.uint64)  # byte (a >> 3) & 31 of the leaf
            hit = self.leaves.take(leaf.view(np.int64))
            shift = t.astype(np.uint8)
            shift &= 7
            hit >>= shift
            hit &= 1
            hits += hit.sum(axis=1, dtype=np.int64)
        return hits


def _or_bits(dst: np.ndarray, key: np.ndarray, bit: np.ndarray) -> None:
    """dst[key] |= 1 << bit for every pair, with `key` sorted: the bits of a
    run of equal keys are ORed together first, so each key is written once."""
    one = dst.dtype.type(1)
    starts = np.flatnonzero(_run_starts(key))
    dst[key[starts]] |= np.bitwise_or.reduceat(one << bit.astype(dst.dtype), starts)


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
    included -- is parsed by a vectorized kernel.  Other text, cut into lines
    as a text-mode file is, and any iterable of lines go through the per-line
    IPv4Address loop that defines the format; both give the same outcome.
    """
    if isinstance(source, str):
        if source.isascii():
            data = source.encode("ascii")
            if not data.translate(None, _CANONICAL_BYTES):
                return _parse_canonical(data, origin)
        source = io.StringIO(source, newline=None)
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
    if not data.translate(None, _CANONICAL_BYTES):
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


def _parse_canonical(data: bytes, origin: str | None) -> HostListResult:
    """Vectorized parser of canonical host-list bytes, one run of lines at a time.

    Fields end at each '.' and '\\n'.  A line is an address when it has 4
    fields, each of 1-3 digits with no leading zero and a value of at most
    255: the rules IPv4Address applies to such text.  A blank line is one
    empty field.
    """
    out = np.empty(data.count(b"\n") + 1, dtype=np.uint32)  # one address a line at most
    n = lines = 0
    for run in _line_runs(data):
        start, end = _fields(run < _ZERO)
        width = np.minimum(end - start, 4)  # 4: too wide, whatever the digits
        octet = _read_digits(run, end, width, np.int16)
        fine = (width >= 1) & (width <= 3) & ((width == 1) | (run[start] != _ZERO)) & (octet <= 255)
        last = np.flatnonzero(run[end] == _NL)  # each line's last field
        count = np.diff(last, prepend=-1)
        blank = (count == 1) & (width[last] == 0)
        bad = np.flatnonzero(~blank & ((count != 4) | np.logical_or.reduceat(~fine, last - count + 1)))
        if bad.size:
            i = int(bad[0])
            text = run[start[last[i] - count[i] + 1]:end[last[i]]].tobytes().decode("ascii")
            raise HostListParseError(lines + i + 1, text, origin)
        addr = octet[width > 0].astype(np.uint8).view(">u4")  # 4 octets, most significant first
        out[n:n + addr.size] = addr
        n += addr.size
        lines += last.size
    return _host_list_result(out[:n], lines - n)


def _line_runs(data: bytes, lo: int = 0) -> Iterator[np.ndarray]:
    """data[lo:] as consecutive runs of whole lines, uint8 arrays of about
    _RUN bytes that each end in '\\n'.  A run ends at the last '\\n' of its
    window or, when the window holds none, at the next one past it; a last
    line without its '\\n' gets one."""
    buf = np.frombuffer(data, dtype=np.uint8)
    while lo < len(data):
        hi = data.rfind(b"\n", lo, lo + _RUN) + 1 or data.find(b"\n", lo + _RUN) + 1 or len(data)
        yield buf[lo:hi] if buf[hi - 1] == _NL else np.frombuffer(data[lo:] + b"\n", dtype=np.uint8)
        lo = hi


def _fields(sep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end of each field of a run that ends in a separator: the
    fields are the spans that end at each separator `sep` marks.  Positions
    are int32 unless one line makes the run 2**31 bytes or longer."""
    end = np.flatnonzero(sep).astype(np.int32 if sep.size < 2**31 else np.int64)
    start = np.empty_like(end)
    start[:1] = 0
    start[1:] = end[:-1] + 1
    return start, end


def _read_digits(run: np.ndarray, end: np.ndarray, width: np.ndarray, dtype) -> np.ndarray:
    """The value, as `dtype`, of each field of `width` ASCII digits that ends
    just before `end` in `run`, read from the right: digit k from the end has
    place 10**k.  `dtype` must hold every value.  Each step reuses the same
    buffers; a position before the run's first byte is clipped to it, and
    its digit is masked out, as is every digit past a field's width."""
    value = np.zeros(end.size, dtype=dtype)
    digit = np.empty(end.size, dtype=np.uint8)
    placed = np.empty(end.size, dtype=dtype)
    inside = np.empty(end.size, dtype=bool)
    pos = end.copy()
    for k in range(int(width.max(initial=0))):
        pos -= 1
        np.take(run, pos, out=digit, mode="clip")
        digit -= _ZERO
        digit *= np.greater(width, k, out=inside)
        value += np.multiply(digit, dtype(10**k), out=placed)
    return value


def save_host_list(path: str | Path, hosts: HostSet) -> None:
    """Write one dotted-quad per line, ascending; deterministic bytes.

    Each chunk of addresses is laid out in one reused buffer as 16 bytes per
    address, a word of _OCTET_WORDS per octet; dropping the padding zeros
    leaves the text.
    """
    addr = hosts.addresses
    words = np.empty(4 * min(addr.size, _CHUNK), dtype=np.uint32)
    with open(path, "wb") as fh:
        for lo in range(0, addr.size, _CHUNK):
            octets = addr[lo:lo + _CHUNK].astype(">u4").view(np.uint8)
            # every index is an octet: "clip" writes straight into `out`, which "raise" would buffer
            text = _OCTET_WORDS.take(octets, out=words[:octets.size], mode="clip")
            text = text.view(np.uint8).reshape(-1, 16)
            text[:, 15] = _NL
            fh.write(text[text != 0])


def _check_integers(arr: np.ndarray, what: str) -> None:
    """Refuse a value that is not an integer in int64's range: no cast truncates, warns, wraps or overflows."""
    if arr.dtype.kind == "f":
        ok = np.all((arr == np.trunc(arr)) & (arr >= -2.0**63) & (arr < 2.0**63))
    elif arr.dtype == object:  # Python ints past 2**64, Fractions, Decimals: each must equal its int
        try:
            ok = all(v == int(v) and -2**63 <= v < 2**63 for v in arr.flat)
        except (TypeError, ValueError, ArithmeticError):  # int(None), int(nan), int(inf)
            ok = False
    elif arr.dtype.kind in "iu":  # numpy holds Python ints from 2**63 as uint64
        ok = arr.dtype != np.uint64 or not arr.size or int(arr.max()) < 2**63
    else:  # strings, bools, complex numbers, dates: a cast would take '5' as 5
        ok = False
    if not ok:
        raise ParameterError(f"{what} must be integers in [-2**63, 2**63)")


def _owned_int64(values, what: str) -> np.ndarray:
    """values as a flat int64 array that no caller holds: converted by
    np.asarray when that makes a new array, copied once when it would share
    the caller's memory."""
    _check_integers(np.asarray(values), what)
    arr = np.asarray(values, dtype=np.int64)
    if arr is values or arr.base is not None:
        arr = arr.copy()
    return arr.reshape(-1)


class GroupDistribution:
    """Host counts per /l prefix group, stored sparse (occupied groups only).

    Canonical form: `indices` sorted ascending, matching `counts` all >= 1
    and at most block_size(l); a larger count raises CapacityError.
    Probabilities are counts / total.
    """

    __slots__ = ("_l", "_indices", "_counts", "_total")

    def __init__(self, l: int, indices, counts):
        self._l = check_prefix_level(l)
        idx, cnt = _owned_int64(indices, "group indices"), _owned_int64(counts, "counts")
        if idx.size != cnt.size:
            raise ParameterError("indices and counts length mismatch")
        if np.any(cnt < 0):
            raise ParameterError("counts must be non-negative")
        # canonical input (strictly increasing indices, no zero count) is kept as it is
        canonical = bool(np.all(idx[1:] > idx[:-1]) and np.all(cnt > 0))
        if not canonical:
            keep = cnt > 0
            idx, cnt = idx[keep], cnt[keep]
            order = np.argsort(idx, kind="stable")
            idx, cnt = idx[order], cnt[order]
        if idx.size and (idx[0] < 0 or idx[-1] >= (1 << self._l)):
            raise ParameterError(f"group index out of range for l={self._l}")
        if not canonical and not _run_starts(idx).all():
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
        index = check_int(index, "group index", 0, (1 << self._l) - 1)
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
        return _square_sum(self._counts)

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
        starts = np.flatnonzero(_run_starts(parent))
        return GroupDistribution(to_l, parent[starts], np.add.reduceat(self._counts, starts))

    def to_csv(self, path: str | Path) -> None:
        write_table(path, ["group_index", "count"], [self._indices, self._counts], [f"l={self._l} N={self._total}"])

    @classmethod
    def from_csv(cls, path: str | Path) -> "GroupDistribution":
        """Read a distribution CSV.  A file laid out exactly as to_csv writes it
        is parsed by a vectorized kernel; any other file goes through the csv
        loop that defines the format, with the same result and the same errors."""
        path = Path(path)
        with open(path, "rb") as fh:
            dist = _dist_csv_canonical(path, fh.read())
        return dist if dist is not None else _dist_csv_rows(path)


def _dist_csv_rows(path: Path) -> GroupDistribution:
    """Per-row reference reader of a distribution CSV: the definition of the format."""
    header = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                try:  # data rows first: the other kinds never parse as two ints
                    rows.append((int(row[0]), int(row[1])))
                    continue
                except (ValueError, IndexError):
                    pass
                if not any(cell.strip() for cell in row):  # a blank line, spaces and tabs included
                    continue
                if row[0].lstrip().startswith("#"):
                    m = _DIST_HEADER.match(",".join(row).strip())
                    if not m:
                        raise DistributionFormatError(f"{path}: bad header comment {row!r}")
                    header = (int(m.group(1)), int(m.group(2)))
                elif row[0].strip() != _DIST_COLUMNS:
                    raise DistributionFormatError(f"{path}: bad row {row!r}")
        except csv.Error as exc:  # a field past the csv module's size limit, say
            raise DistributionFormatError(f"{path}:{reader.line_num}: {exc}") from None
    if header is None:
        raise DistributionFormatError(f"{path}: missing '# l=<l> N=<N>' header")
    return _checked_dist(path, *header, [i for i, _ in rows], [c for _, c in rows])


def _dist_csv_canonical(path: Path, data: bytes) -> GroupDistribution | None:
    """Vectorized reader of the bytes to_csv writes, one run of rows at a
    time: the header, the column row, then at least one row of two fields
    of 1 to _MAX_DIGITS ASCII digits, the first ending in ',' and the second
    in '\\n'.  None for any other file."""
    m = _CANONICAL_DIST_HEAD.match(data)
    if m is None or m.end() == len(data) or data[-1] != _NL or data[m.end():].translate(None, _CANONICAL_DIST_BYTES):
        return None
    value = np.empty(2 * data.count(b"\n", m.end()), dtype=np.int64)
    n = 0
    for run in _line_runs(data, m.end()):
        start, end = _fields(run < _ZERO)
        width = end - start
        if (end.size % 2 or width.min() < 1 or width.max() > _MAX_DIGITS
                or np.any(run[end[0::2]] != _COMMA) or np.any(run[end[1::2]] != _NL)):
            return None
        value[n:n + end.size] = _read_digits(run, end, width, np.int64)
        n += end.size
    return _checked_dist(path, int(m.group(1)), int(m.group(2)), value[0::2], value[1::2])


def _checked_dist(path: Path, l: int, n: int, indices, counts) -> GroupDistribution:
    """The distribution of a CSV's rows, checked against its header's N."""
    try:
        dist = GroupDistribution(l, indices, counts)
    except ParameterError as exc:
        raise DistributionFormatError(f"{path}: {exc}") from None
    if dist.total != n:
        raise DistributionFormatError(f"{path}: counts sum to {dist.total}, header says N={n}")
    return dist


def _opens_distribution(line: str) -> bool:
    """Whether a file whose first non-blank line is `line` is a distribution
    CSV: that line is its header or its column row."""
    s = line.strip()
    return _DIST_HEADER.match(s) is not None or s.split(",", 1)[0].rstrip() == _DIST_COLUMNS


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in a 1-d array."""
    starts = np.empty(values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def _run_lengths(sorted_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(value, length) of each run of equal consecutive values: for a sorted
    array, its distinct values and their counts."""
    first = np.flatnonzero(_run_starts(sorted_vals))
    return sorted_vals[first], np.diff(first, append=sorted_vals.size)


def aggregate(hosts: HostSet, l: int) -> GroupDistribution:
    """Count hosts per /l prefix group."""
    # uint32 >> 32 is 0 in numpy, so l = 0 needs no branch; sorted addresses
    # make sorted groups
    return GroupDistribution(l, *_run_lengths(hosts.addresses >> block_bits(l)))


def refine(dist: GroupDistribution, hosts: HostSet, l: int) -> GroupDistribution:
    """Aggregate `hosts` at level l and check consistency with the parent.

    `dist` must be the level l-1 aggregation of the same hosts: each parent
    count must equal the sum of its two children.  A mismatch means the inputs
    do not describe the same population and raises InternalConsistencyError.
    """
    l = check_int(l, "refine's level l", 1, ADDRESS_BITS)
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
    n_occupied = check_int(n_occupied, "n_occupied", 1, 1 << l)
    hosts_per_group = check_int(hosts_per_group, "hosts_per_group", 1)
    if hosts_per_group > block_size(l):  # before an int64 array is asked to hold it
        raise CapacityError(
            f"group 0 needs {hosts_per_group} distinct hosts but a /{l} block has {block_size(l)} addresses"
        )
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
    l = check_int(l, "synth_zipf's prefix level", 0, MAX_DENSE_LEVEL)  # a dense draw over the 2**l groups
    exponent = check_real(exponent, "exponent", 0, open_lo=True)
    n_hosts = check_int(n_hosts, "n_hosts", 1)
    seed = check_int(seed, "seed", 0)
    m = 1 << l
    if n_hosts > ADDRESS_SPACE:  # some group is over capacity, and int64 shares could wrap
        raise CapacityError(f"{n_hosts} hosts in {m} groups: some group needs at least {-(-n_hosts // m)} "
                            f"distinct hosts but a /{l} block has {block_size(l)} addresses")
    ranks = np.arange(1, m + 1, dtype=np.float64)
    weights = ranks ** -exponent
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
    The hosts go into one uint32 array as each run of groups is drawn.

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
    seed = check_int(seed, "seed", 0)
    hosts = np.empty(dist.total, dtype=np.uint32)  # each group gets exactly its count
    n = 0
    for part in _drawn_hosts(dist, np.random.default_rng(seed)):
        hosts[n:n + part.size] = part
        n += part.size
    return HostSet(hosts)


def _drawn_hosts(dist: GroupDistribution, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The hosts materialize_hosts draws, as int64 arrays in stream order: a
    run of rejection-sampled groups, or one group, at a time."""
    bits = block_bits(dist.l)
    block = 1 << bits
    counts = dist.counts
    bases = dist.indices << bits
    breaks = np.flatnonzero((counts == block) | ((block <= _PERMUTE_MAX_BLOCK) & (3 * counts > block)))
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
            del draws  # before a replay draws its own batches
            yield hosts
            if filled < m:  # replay the stream up to this group and fill it alone
                rng.bit_generator.state = state
                rng.integers(0, block, int(begin[filled]), dtype=np.int64)
                yield int(bases[start + filled]) + _sample_distinct(rng, int(k[filled]), block)
                m = filled + 1
            start += m
        if stop < counts.size:
            yield int(bases[stop]) + _sample_distinct(rng, int(counts[stop]), block)
            start = stop + 1


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """Mask of the values that do not repeat an earlier value.

    Needs values in [0, 2**32) and fewer than 2**32 of them (addresses, or
    offsets in a block of at most 2**32): each is packed with its position
    into one uint64 key, value << 32 | position, so one plain sort puts each
    value's first position at the start of its run of keys."""
    keys = values.astype(np.uint64)
    keys <<= 32
    keys |= np.arange(values.size, dtype=np.uint64)
    keys.sort()
    first = keys[_run_starts(keys >> 32)]
    first &= 0xFFFFFFFF
    keep = np.zeros(values.size, dtype=bool)
    keep[first] = True
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
    values, mult = _run_lengths(np.sort(dist.counts))
    above = dist.occupied - np.cumsum(mult)
    return [CcdfPoint(0, dist.occupied / m)] + [CcdfPoint(v, a / m) for v, a in zip(values.tolist(), above.tolist())]


def write_ccdf_csv(points: list[CcdfPoint], path: str | Path) -> None:
    write_table(path, ["threshold", "fraction"], list(zip(*((p.threshold, p.fraction) for p in points))))


def write_table(path: str | Path, header: Iterable[str], columns: Iterable, comments: Iterable[str] = ()) -> None:
    """Write a CSV data file: a `# <comment>` line per comment, the header, then
    one '\\n'-terminated row per position of the equal-length columns.  Text
    cells are quoted as the csv module quotes them (only those holding ',' or
    '"'); numbers are the repr of Python ints and floats, never numpy scalars.

    A column object passed more than once (the same object, by identity) is
    formatted once per step; equal but distinct arrays are separate columns.
    One loop writes each run of r consecutive copies (a distinct column is a
    run of one) as one text, `(cell + ",") * (r - 1) + cell`."""
    arrays, slots, seen = [], [], {}  # the distinct columns, and the slot of each column among them
    for col in columns:
        if id(col) not in seen:  # seen holds col, so its id is not reused while we look
            seen[id(col)] = (len(arrays), col)
            arrays.append(np.asarray(col))
        slots.append(seen[id(col)][0])
    rows = len(arrays[0]) if arrays else 0
    if any(len(a) != rows for a in arrays):
        raise ValueError("columns differ in length")
    # (slot, copies) of each run of consecutive copies, a distinct column being a run of one
    runs = list(zip(*(v.tolist() for v in _run_lengths(np.array(slots)))))
    fmts = [_csv_text if a.dtype.kind == "U" else repr for a in arrays]  # per column, its cells' formatter
    step = max(1, _CHUNK // max(1, len(slots)))  # rows per step: about _CHUNK cells
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(",".join(header) + "\n")
        for lo in range(0, rows, step):
            cells = [list(map(f, a[lo:lo + step].tolist())) for f, a in zip(fmts, arrays)]
            cells = [cells[u] if r == 1 else [(t + ",") * (r - 1) + t for t in cells[u]] for u, r in runs]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _csv_text(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if "," in cell or '"' in cell else cell
