import csv
import io
import itertools
import math
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scanspread as ss
from scanspread import addrspace
from scanspread.addrspace import _CHUNK, _MemberIndex, _sample_distinct, block_size, write_ccdf_csv, write_table
from scanspread.errors import (
    CapacityError,
    DistributionFormatError,
    HostListParseError,
    InternalConsistencyError,
    ParameterError,
)

addresses = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=200)


@pytest.fixture(scope="module")
def paper_hosts():
    """The 448,894 hosts of the paper fixture, materialized once."""
    return ss.materialize_hosts(ss.synth_zipf(16, 1.0, 448894, seed=2), 5)


# -- host-list parsing -----------------------------------------------------


def test_parse_counts_comments_blanks_and_duplicates():
    text = "192.168.1.1\n# comment\n\n10.255.0.1\n192.168.1.1\n"
    res = ss.parse_host_list(text)
    assert res.hosts.N == 2
    assert res.duplicates_dropped == 1
    assert res.lines_ignored == 2


def test_parse_sorts_and_converts():
    res = ss.parse_host_list("0.0.0.1\n255.255.255.255\n0.0.0.0\n")
    assert list(res.hosts) == [0, 1, 2**32 - 1]


def test_parse_rejects_bad_line_with_its_number():
    with pytest.raises(HostListParseError) as exc:
        ss.parse_host_list("10.0.0.1\n\n256.1.1.1\n")
    assert exc.value.line_no == 3
    assert "256.1.1.1" in str(exc.value)


def test_parse_rejects_non_address_tokens():
    for bad in ["10.0.0", "10.0.0.1.5", "hello", "10.0.0.1/24"]:
        with pytest.raises(HostListParseError):
            ss.parse_host_list(bad + "\n")


def test_parse_tolerates_surrounding_whitespace():
    assert ss.parse_host_list("  10.0.0.1  \n").hosts.N == 1


def test_host_list_round_trip(tmp_path, four_hosts):
    path = tmp_path / "hosts.txt"
    ss.addrspace.save_host_list(path, four_hosts)
    assert ss.load_host_list(path).hosts == four_hosts


octet = st.integers(0, 255).map(str)
address_line = st.lists(octet, min_size=4, max_size=4).map(".".join)
canonical_good = st.one_of(address_line, st.just(""))
bad_octet = st.one_of(
    octet.map(lambda o: "0" + o),  # leading zero
    st.integers(256, 999).map(str),
    st.integers(1000, 99999).map(str),  # more than 3 digits
    st.just(""),  # empty octet
)
canonical_bad = st.one_of(
    st.tuples(st.lists(octet, min_size=4, max_size=4), st.integers(0, 3), bad_octet).map(
        lambda t: ".".join(t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:])),
    st.lists(octet, min_size=1, max_size=3).map(".".join),  # too few octets
    st.lists(octet, min_size=5, max_size=6).map(".".join),  # too many
    st.sampled_from(["...", "1.2.3.4.", ".1.2.3.4"]),
)
other_line = st.one_of(
    st.sampled_from(["# comment", "#10.0.0.1", "   ", "\t"]),
    st.tuples(st.sampled_from([" ", "\t", " \t"]), st.one_of(canonical_good, canonical_bad),
              st.sampled_from(["", " ", "\t"])).map("".join),  # surrounding whitespace
    st.sampled_from(["\u0661.2.3.4", "1.2.3.\u0664", "10.0.0.\uff11"]),  # non-ASCII digits
    # characters that str.splitlines ends a line at but a text-mode file does not
    st.tuples(canonical_good, st.sampled_from(list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")),
              canonical_good).map("".join),
)


@st.composite
def host_list_texts(draw):
    """Valid and blank lines with a few others inserted: invalid ones and,
    unless the text is to stay canonical, comments, padded lines, non-ASCII
    digits and characters that end a line for str.splitlines only."""
    canonical = draw(st.booleans())
    lines = draw(st.lists(canonical_good, max_size=30))
    for _ in range(draw(st.integers(0, 3))):
        line = draw(canonical_bad if canonical else st.one_of(canonical_bad, other_line))
        lines.insert(draw(st.integers(0, len(lines))), line)
    end = "\n" if canonical else draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines)
    if lines and draw(st.booleans()):
        text += end  # else no final newline
    return text


def _text_lines(text: str) -> list[str]:
    """The lines of `text` as a file in text mode reads them."""
    return list(io.StringIO(text, newline=None))


def _outcome(parse, *args):
    try:
        return parse(*args)
    except HostListParseError as exc:
        return ("error", exc.line_no, exc.text, exc.origin)


@given(text=host_list_texts())
@settings(max_examples=300, deadline=None)
def test_parsers_agree_with_the_per_line_loop(tmp_path_factory, text):
    # the IPv4Address loop over the lines of a text-mode file defines the
    # format; the vectorized parser must give the same result or fail on the
    # same line with the same text
    expected = _outcome(addrspace._parse_host_lines, _text_lines(text), "src")
    assert _outcome(ss.parse_host_list, text, "src") == expected
    path = tmp_path_factory.mktemp("hosts") / "list.txt"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(expected, tuple):
        expected = expected[:3] + (str(path),)
    assert _outcome(ss.load_host_list, path) == expected


def test_canonical_parse_spans_chunks_and_reports_the_bad_line(tmp_path):
    hosts = ss.HostSet(np.random.default_rng(1).integers(0, 2**32, 3 * addrspace._CHUNK))
    path = tmp_path / "hosts.txt"
    ss.save_host_list(path, hosts)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[addrspace._CHUNK + 7:addrspace._CHUNK + 7] = ["", lines[0]]  # a blank and a duplicate
    path.write_text("\n".join(lines), encoding="utf-8")  # no final newline
    res = ss.load_host_list(path)
    assert (res.hosts, res.duplicates_dropped, res.lines_ignored) == (hosts, 1, 1)
    lines[2 * addrspace._CHUNK + 3] = "10.0.0.256"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(HostListParseError) as exc:
        ss.load_host_list(path)
    assert (exc.value.line_no, exc.value.text) == (2 * addrspace._CHUNK + 4, "10.0.0.256")
    assert str(exc.value).startswith(f"{path}:{2 * addrspace._CHUNK + 4}: ")


def test_an_octet_wider_than_an_int16_is_still_rejected(tmp_path):
    # 65,537 digits: a width narrowed before it is clipped would wrap to 1
    bad = "1" * 65537 + ".1.1.1"
    with pytest.raises(HostListParseError) as exc:
        ss.parse_host_list(f"10.0.0.1\n\n{bad}\n10.0.0.2\n")
    assert (exc.value.line_no, exc.value.text) == (3, bad)
    path = tmp_path / "hosts.txt"
    path.write_text(f"10.0.0.1\n{bad}\n", encoding="ascii")
    with pytest.raises(HostListParseError) as exc:
        ss.load_host_list(path)
    assert exc.value.line_no == 2


@pytest.mark.parametrize("end", ["\n10.0.0.2\n", ""], ids=["inner", "last_without_newline"])
def test_a_host_line_longer_than_a_run_fails_like_the_per_line_loop(tmp_path, end):
    # the run that holds no '\n' in its window ends at the next one past it
    text = "10.0.0.1\n\n" + "1" * (2 * addrspace._RUN) + ".1.1.1" + end
    expected = _outcome(addrspace._parse_host_lines, text.splitlines(), "src")
    assert expected[:2] == ("error", 3)
    assert _outcome(ss.parse_host_list, text, "src") == expected
    path = tmp_path / "hosts.txt"
    path.write_text(text, encoding="ascii")
    assert _outcome(ss.load_host_list, path) == expected[:3] + (str(path),)


def _lines_to(offset: int, rng) -> list[str]:
    """Random dotted quads whose text, each line ended by '\\n', reaches `offset` bytes."""
    lines, size = [], 0
    while size < offset:
        lines.append(_dotted(int(rng.integers(0, 2**32))))
        size += len(lines[-1]) + 1
    return lines


def test_a_bad_line_in_the_third_run_reports_its_line_in_the_whole_file(tmp_path):
    # runs end at a '\n' at or before each _RUN bytes, so a line that starts
    # half a run past 2 * _RUN lies in the third run
    lines = _lines_to(2 * addrspace._RUN + addrspace._RUN // 2, np.random.default_rng(5))
    lines += ["10.0.0.1", "10.0.01.1", "10.0.0.2"]
    path = tmp_path / "hosts.txt"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(HostListParseError) as exc:
        ss.load_host_list(path)
    assert (exc.value.line_no, exc.value.text) == (len(lines) - 1, "10.0.01.1")


def test_a_last_line_without_its_newline_may_straddle_a_run(tmp_path):
    lines = ["1.2.3.4"] * (addrspace._RUN // 8 - 1)
    lines.append("100.100.100.100")  # from _RUN - 8 to _RUN + 7
    text = "\n".join(lines)
    expected = _outcome(addrspace._parse_host_lines, text.splitlines(), "src")
    assert expected.hosts == ss.HostSet([0x01020304, 0x64646464]) and expected.duplicates_dropped == len(lines) - 2
    assert _outcome(ss.parse_host_list, text, "src") == expected


@given(text=host_list_texts(), run=st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_parsers_agree_with_the_per_line_loop_at_any_run_size(text, run):
    # runs of a few bytes put every line edge at a window edge somewhere
    expected = _outcome(addrspace._parse_host_lines, _text_lines(text), "src")
    with mock.patch.object(addrspace, "_RUN", run):
        assert _outcome(ss.parse_host_list, text, "src") == expected


def test_a_canonical_load_keeps_its_temporaries_narrow(tmp_path):
    # int64 positions, widths, digits and octets made the peak 9 times the
    # file's size on this list, whole-file line ends and int64 addresses 5.6
    # times; runs of lines and uint32 addresses keep it under 4
    path = tmp_path / "hosts.txt"
    ss.save_host_list(path, ss.HostSet(np.random.default_rng(1).integers(0, 2**32, 3 * addrspace._CHUNK)))
    tracemalloc.start()
    try:
        ss.load_host_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * path.stat().st_size, peak / path.stat().st_size


def test_a_five_digit_octet_in_a_later_run_reports_its_own_line(tmp_path):
    # the digits are read from the right, so 12345 reads as some value; its
    # width alone rejects it
    lines = _lines_to(2 * addrspace._RUN + addrspace._RUN // 2, np.random.default_rng(6))
    lines += ["10.0.0.1", "10.12345.0.1", "10.0.0.2"]
    path = tmp_path / "hosts.txt"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(HostListParseError) as exc:
        ss.load_host_list(path)
    assert (exc.value.line_no, exc.value.text) == (len(lines) - 1, "10.12345.0.1")


@pytest.mark.parametrize("dtype, widths", [(np.int64, range(1, 19)), (np.int16, range(1, 5))])
def test_read_digits_matches_int(dtype, widths):
    # the first field starts at byte 0 of the run: its positions past its
    # width are clipped to that byte, and its digits there masked out
    rng = np.random.default_rng(len(widths))
    fields = ["7", ""] + ["".join(map(str, rng.integers(0, 10, w))) for w in widths for _ in range(3)]
    run = np.frombuffer(("\n".join(fields) + "\n").encode("ascii"), dtype=np.uint8)
    start, end = addrspace._fields(run < addrspace._ZERO)
    value = addrspace._read_digits(run, end, end - start, dtype)
    assert value.dtype == dtype
    assert value.tolist() == [int(f or "0") for f in fields]


def _dotted(a: int) -> str:
    return f"{(a >> 24) & 255}.{(a >> 16) & 255}.{(a >> 8) & 255}.{a & 255}"


@pytest.mark.parametrize("addrs", [
    [0, 2**32 - 1, (1 << 24) | (10 << 16) | (100 << 8) | 255],  # 0.0.0.0, 255.255.255.255, 1.10.100.255
    np.random.default_rng(3).integers(0, 2**32, 2 * addrspace._CHUNK + 5),
    [],
])
def test_save_host_list_bytes_match_dotted_quads(tmp_path, addrs):
    hosts = ss.HostSet(addrs)
    path = tmp_path / "hosts.txt"
    ss.save_host_list(path, hosts)
    assert path.read_bytes() == "".join(_dotted(int(a)) + "\n" for a in hosts.addresses).encode("ascii")


def test_save_host_list_keeps_its_temporaries_per_chunk(tmp_path):
    # each chunk is laid out in one reused buffer: four times the hosts
    # must not raise the peak
    peaks = []
    for chunks in (2, 8):
        hosts = ss.HostSet(np.random.default_rng(chunks).integers(0, 2**32, chunks * addrspace._CHUNK))
        tracemalloc.start()
        try:
            ss.save_host_list(tmp_path / f"hosts{chunks}.txt", hosts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


# -- HostSet ---------------------------------------------------------------


def test_hostset_rejects_out_of_range():
    # past int64, as uint64 or as Python ints numpy keeps as objects
    for bad in ([-1], [2**32], np.array([2**63 + 2], dtype=np.uint64), [2**70], [-(2**70), 1]):
        with pytest.raises(ParameterError):
            ss.HostSet(bad)


def test_hostset_rejects_non_integral_addresses():
    # numpy keeps the Fractions, Decimals and None as objects, which an int64 cast would truncate or refuse
    for bad in ([1.7, 2.2], [1.0, float("nan")], np.array([3.5]), [Fraction(5, 2)], [Decimal("1.9"), 3],
                [Decimal("NaN")], [2**70, Fraction(1, 3)], [1, None], ["5"], [True], [5 + 0j]):
        with pytest.raises(ParameterError):
            ss.HostSet(bad)
    assert list(ss.HostSet([2.0, 1.0, 2**32 - 1.0])) == [1, 2, 2**32 - 1]
    assert list(ss.HostSet([Fraction(4, 2), Decimal("7"), 5])) == [2, 5, 7]


def test_hostset_range_checks_integer_input_without_widening_it():
    # the host-list reader's uint32 addresses are checked as they are: one
    # uint32 copy to sort and a run mask make 1.25 times their bytes, which
    # compressing that copy when no address repeats made 2.25, and widening
    # them to int64 for the range check 3
    addrs = np.array(ss.materialize_hosts(ss.synth_zipf(16, 1.0, 448894, seed=2), 5).addresses)
    tracemalloc.start()
    try:
        hosts = ss.HostSet(addrs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hosts.N == addrs.size and peak < 1.5 * addrs.nbytes, peak / addrs.nbytes
    for bad in (np.array([2**32], dtype=np.uint64), np.array([-1], dtype=np.int8)):
        with pytest.raises(ParameterError):
            ss.HostSet(bad)
    raw = [255, 3, 3, 0]
    for dtype in (np.uint8, np.uint16, np.uint64):
        assert ss.HostSet(np.array(raw, dtype=dtype)) == ss.HostSet(np.array(raw, dtype=np.int64))
    assert ss.HostSet(np.array([2**32 - 1], dtype=np.uint64)).addresses.tolist() == [2**32 - 1]


@given(addrs=st.lists(st.integers(0, 2**32 - 1), max_size=60), repeats=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_hostset_dedupes_like_unique(addrs, repeats):
    raw = np.array(addrs * repeats, dtype=np.int64)
    np.random.default_rng(len(addrs)).shuffle(raw)
    hosts = ss.HostSet(raw)
    assert np.array_equal(hosts.addresses, np.unique(raw))
    assert hosts.addresses.dtype == np.uint32


def test_hostset_interval_and_membership():
    h = ss.HostSet([5, 10, 15, 2**32 - 1])
    assert h.count_in_interval(5, 15) == 2
    assert h.count_in_interval(0, 2**32) == 4
    assert h.count_members(np.array([5, 5, 7, 15])) == 3
    assert ss.HostSet([]).count_members(np.array([1, 2])) == 0


def test_queries_refuse_targets_and_bounds_that_are_not_integers():
    # an int64 cast took 5.9 and 7.2 for hosts 5 and 7, 4.5 for 4 (so host 5
    # fell outside [4.5, 5.5)), '5' for host 5, and warned on infinity
    h = ss.HostSet([5, 7])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([[5.9, 7.2, 6.0]], [[np.inf, 5]], [[-np.inf]], [[np.nan]], [["5"]], [[True]],
                    [[1 + 0j]], np.array([[Fraction(11, 2)]], dtype=object), [[2**64]]):
            with pytest.raises(ParameterError, match="targets must be integers"):
                h.count_members_per_row(bad)
            with pytest.raises(ParameterError, match="targets must be integers"):
                h.count_members(np.reshape(bad, -1))
        for lo, hi in ((4.5, 5.5), (0, np.inf), (-np.inf, 9), ("0", 9), (0, [6.5, 8]), (Fraction(9, 2), 6),
                       (0, 2**64)):
            with pytest.raises(ParameterError, match="interval bounds must be integers"):
                h.count_in_interval(lo, hi)
    # integral floats and objects are taken, as HostSet takes them
    assert h.count_members_per_row([[5.0, 7.0, 6.0]]).tolist() == [2]
    assert h.count_members(np.array([Fraction(10, 2), Decimal("7")], dtype=object)) == 2
    assert h.count_in_interval(4.0, 6.0) == 1 and h.count_in_interval(np.float32(5), [6.0, 8.0]).tolist() == [1, 2]


def test_integer_queries_skip_the_value_check():
    # integer targets and bounds are taken as they are: no pass over their
    # values, and uint64 targets from 2**63 are misses (they wrap below 0);
    # a uint64 bound from 2**63 counts every host below it
    h = ss.HostSet([5, 7, 2**32 - 1])
    big = np.array([2**63, 2**63 + 5, 2**64 - 2**32 + 7, 2**64 - 1, 5], dtype=np.uint64)
    with mock.patch.object(addrspace, "_check_integers", side_effect=AssertionError("value check")):
        assert h.count_members(big) == 1
        assert h.count_members_per_row(np.array([[5, -1, 2**32 + 5]], dtype=np.int64)).tolist() == [1]
        assert h.count_members(np.array([5, 7], dtype=np.uint8)) == 2
        assert h.count_in_interval(np.uint64(0), big).tolist() == [3, 3, 3, 3, 0]
        assert h.count_in_interval(np.int8(-3), np.uint16(8)) == 2


@given(addrs=st.lists(st.integers(0, 2**32 - 1), max_size=40),
       bounds=st.lists(st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)), min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_count_in_interval_on_array_bounds_is_elementwise(addrs, bounds):
    h = ss.HostSet(addrs)
    bounds = [sorted(b) for b in bounds]
    lo, hi = (np.array(b, dtype=np.int64) for b in zip(*bounds))
    scalar = [h.count_in_interval(a, b) for a, b in bounds]
    assert all(type(c) is int for c in scalar)
    assert scalar == [sum(a <= x < b for x in set(addrs)) for a, b in bounds]
    counts = h.count_in_interval(lo, hi)
    assert counts.dtype == np.int64 and counts.tolist() == scalar
    assert h.count_in_interval(lo[0], hi).tolist() == [h.count_in_interval(bounds[0][0], b) for _, b in bounds]
    assert type(h.count_in_interval(lo[0], hi[0])) is int


@pytest.mark.parametrize("addrs", [[], [0], [2**32 - 1], [0, 5, 2**31, 2**32 - 2, 2**32 - 1]])
def test_count_in_interval_clips_bounds_like_an_int64_search(addrs):
    # the uint32 search against the int64 searchsorted it replaced; the last
    # block of an MSS sweep ends at 2**32
    h = ss.HostSet(addrs)
    ref = np.array(addrs, dtype=np.int64)
    edges = [-5, 0, 2**32 - 1, 2**32, 2**32 + 7]
    for lo, hi in itertools.product(edges, repeat=2):
        want = int(np.searchsorted(ref, hi) - np.searchsorted(ref, lo))
        got = h.count_in_interval(lo, hi)
        assert type(got) is int and got == want, (lo, hi)
    lo, hi = np.array(edges, dtype=np.int64)[:, None], np.array(edges, dtype=np.int64)
    counts = h.count_in_interval(lo, hi)
    assert counts.dtype == np.int64 and counts.shape == (5, 5)
    assert counts.tolist() == (np.searchsorted(ref, hi) - np.searchsorted(ref, lo)).tolist()


@pytest.mark.parametrize("which", ["empty", "paper"])
def test_count_in_interval_on_unsorted_array_bounds_equals_an_int64_search(which, request):
    # array bounds are searched in ascending order and scattered back: each
    # count must land on its own bound, among repeated bounds, hosts and
    # their neighbours, bounds below 0 and bounds at or above 2**32
    hosts = ss.HostSet([]) if which == "empty" else request.getfixturevalue("paper_hosts")
    ref = hosts.addresses.astype(np.int64)
    rng = np.random.default_rng(8)
    near = ref[rng.integers(0, ref.size, 300)] + rng.integers(-1, 2, 300) if ref.size else []
    edges = [-(2**40), -1, 0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**40]
    pool = np.concatenate([near, edges]).astype(np.int64)
    n = 6000

    def bounds():
        b = np.concatenate([rng.integers(-(2**20), 2**32 + 2**20, n // 2), rng.choice(pool, n - n // 2)])
        rng.shuffle(b)
        return b

    lo, hi = bounds(), bounds()
    assert np.unique(lo).size < n and np.any(lo < 0) and np.any(hi >= 2**32)
    got = hosts.count_in_interval(lo, hi)
    assert got.dtype == np.int64 and got.shape == (n,)
    assert np.array_equal(got, np.searchsorted(ref, hi) - np.searchsorted(ref, lo))
    m = 500  # a (m, 1) lo against an (m,) hi: one count per pair
    got = hosts.count_in_interval(lo[:m, None], hi[:m])
    assert got.dtype == np.int64 and got.shape == (m, m)
    assert np.array_equal(got, np.searchsorted(ref, hi[:m]) - np.searchsorted(ref, lo[:m])[:, None])


def test_a_host_set_holds_one_uint32_array():
    h = ss.HostSet(np.random.default_rng(2).integers(0, 2**32, 1000))
    arrays = [v for v in (getattr(h, name) for name in type(h).__slots__) if isinstance(v, np.ndarray)]
    assert len(arrays) == 1 and arrays[0] is h.addresses
    assert h.addresses.nbytes == 4 * h.N and not h.addresses.flags.writeable


@given(addrs=st.lists(st.integers(0, 2**32 - 1), max_size=40), rows=st.sampled_from([1, 2, 65, 70]),
       n=st.integers(0, 9), data=st.data())
@settings(max_examples=80, deadline=None)
def test_count_members_per_row_matches_isin(addrs, rows, n, data):
    # duplicates, out-of-range targets and the first and last host mixed in;
    # host - 2**63 is out of range but equals the host once shifted left
    hosts = ss.HostSet(addrs)
    ends = [int(a) for a in hosts.addresses[[0, -1]]] if addrs else []
    edges = [-1, 0, 2**32 - 1, 2**32] + ends + [a - 2**63 for a in ends]
    cell = st.one_of(st.sampled_from(edges + addrs[:5]), st.integers(-(2**33), 2**33))
    block = np.array(data.draw(st.lists(cell, min_size=rows * n, max_size=rows * n)),
                     dtype=np.int64).reshape(rows, n)
    got = hosts.count_members_per_row(block)
    want = np.isin(block, hosts.addresses.astype(np.int64)).sum(axis=1)
    assert got.dtype == np.int64 and got.tolist() == want.tolist()
    one = hosts.count_members(block)
    assert type(one) is int and one == sum(hosts.count_members_per_row(row[None, :])[0] for row in block)


def sorted_members_per_row(addresses, targets):
    """The literal oracle: one sort of the whole block.  Each in-range target
    is packed with its row as `target << shift | row`, so the sorted keys are
    sorted by target and one searchsorted over the int64 addresses finds
    every hit."""
    addr = np.asarray(addresses, dtype=np.int64)
    t = np.asarray(targets, dtype=np.int64)
    rows = t.shape[0]
    if addr.size == 0:
        return np.zeros(rows, dtype=np.int64)
    shift = max(1, (rows - 1).bit_length())
    ok = (t >= 0) & (t < 2**32)
    keys = (t[ok] << shift) | np.broadcast_to(np.arange(rows, dtype=np.int64)[:, None], t.shape)[ok]
    keys.sort()
    found = keys >> shift
    idx = np.minimum(np.searchsorted(addr, found), addr.size - 1)
    hit_rows = keys[addr[idx] == found] & ((1 << shift) - 1)
    return np.bincount(hit_rows, minlength=rows).astype(np.int64, copy=False)


# /24s on the edges of the index's 32-/24 directory entries (index = 0 and
# 31 mod 32), the first and the last one among them, and offsets on the edges
# of its leaves' bytes and of 64-bit words
EDGE_24S = [0, 31, 32, 63, 64, 95, 96, 127, 64 * 1000, 64 * 1000 + 63,
            2**24 - 64, 2**24 - 33, 2**24 - 32, 2**24 - 1]
EDGE_OFFSETS = [0, 1, 7, 8, 15, 16, 63, 64, 127, 128, 191, 192, 247, 248, 254, 255]
index_host = st.one_of(
    st.integers(0, 2**32 - 1),
    st.tuples(st.sampled_from(EDGE_24S), st.sampled_from(EDGE_OFFSETS)).map(lambda t: t[0] << 8 | t[1]),
)


@given(addrs=st.lists(index_host, max_size=60), shape=st.one_of(
           st.tuples(st.just(1), st.integers(0, 12)),  # 1 x n
           st.tuples(st.integers(0, 12), st.just(1)),  # n x 1
           st.tuples(st.integers(1, 70), st.integers(0, 9))),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_index_counts_equal_the_sort_oracle(addrs, shape, data):
    # hosts at 0 and 2**32 - 1 and in the edge /24s; targets that repeat,
    # that are hosts or their neighbours, -1 and 2**32, and out-of-range
    # targets equal to a host modulo 2**32 or once shifted left
    hosts = ss.HostSet(addrs)
    near = [a + d for a in addrs[:6] for d in (-1, 0, 1, 2**32, -(2**32), -(2**63))]
    edges = [-1, 0, 255, 256, 2**32 - 1, 2**32, 2**32 + 7, -(2**63), 2**63 - 1]
    cell = st.one_of(st.sampled_from(edges + near), index_host, st.integers(-(2**33), 2**33))
    rows, n = shape
    block = np.array(data.draw(st.lists(cell, min_size=rows * n, max_size=rows * n)),
                     dtype=np.int64).reshape(rows, n)
    got = hosts.count_members_per_row(block)
    assert got.dtype == np.int64 and got.tolist() == sorted_members_per_row(hosts.addresses, block).tolist()


def test_an_empty_host_set_has_no_members():
    block = np.array([[-1, 0, 1], [2**32 - 1, 2**32, 5]], dtype=np.int64)
    assert ss.HostSet([]).count_members_per_row(block).tolist() == [0, 0]
    assert ss.HostSet([]).count_members_per_row(np.zeros((3, 0), dtype=np.int64)).tolist() == [0, 0, 0]


def test_the_index_is_built_once_and_stays_within_its_bound():
    rng = np.random.default_rng(4)
    hosts = ss.HostSet(np.concatenate([rng.integers(0, 2**32, 5000), [0, 2**32 - 1], 0xABCDEF00 + np.arange(256)]))
    block = np.concatenate([hosts.addresses[rng.integers(0, hosts.N, 450)],
                            rng.integers(-5, 2**32 + 5, 450)]).reshape(9, 100)
    first = hosts.count_members_per_row(block)
    assert first.tolist() == sorted_members_per_row(hosts.addresses, block).tolist() and first.sum() >= 450
    index = hosts._members
    assert hosts.count_members_per_row(block).tolist() == first.tolist()
    assert hosts.count_members(block) == int(first.sum())
    assert hosts._members is index
    occupied = np.unique(hosts.addresses >> 8).size
    assert index.nbytes == (2**19 + 2) * 8 + 32 * (occupied + 1)


def test_the_index_builds_within_its_size_and_chunk_sized_temporaries():
    # the hosts span several _CHUNK steps, and most /24s hold one host; the
    # build's temporaries measured 36 B per _CHUNK entry, and a second
    # directory-sized array would add 32
    hosts = ss.HostSet(np.random.default_rng(6).integers(0, 2**32, 5 * _CHUNK))
    tracemalloc.start()
    try:
        index = _MemberIndex(hosts.addresses)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= index.nbytes + 48 * _CHUNK, (peak - index.nbytes) / _CHUNK


# -- aggregate / refine ----------------------------------------------------


def test_aggregate_fixture_at_l8(four_hosts):
    d = ss.aggregate(four_hosts, 8)
    assert dict(zip(d.indices.tolist(), d.counts.tolist())) == {10: 3, 192: 1}
    assert d.total == 4


def test_aggregate_degenerate_levels(four_hosts):
    d0 = ss.aggregate(four_hosts, 0)
    assert d0.occupied == 1 and d0.total == 4
    d32 = ss.aggregate(four_hosts, 32)
    assert d32.occupied == 4
    assert np.all(d32.counts == 1)


def test_aggregate_empty():
    assert ss.aggregate(ss.HostSet([]), 8).total == 0
    assert ss.aggregate(ss.HostSet([]), 0) == ss.GroupDistribution(0, [], [])
    empty = ss.GroupDistribution(32, [], [])
    for l in range(33):
        assert empty.coarsen(l) == ss.GroupDistribution(l, [], [])


@pytest.mark.parametrize("l", [0, 1, 16, 31, 32])
def test_aggregate_of_uint32_addresses_equals_the_int64_form(paper_hosts, l):
    # uint32 >> 32 is 0, so l = 0 takes no branch of its own
    for hosts in (paper_hosts, ss.HostSet([0, 2**32 - 1])):
        groups = hosts.addresses.astype(np.int64) >> (32 - l)
        got = ss.aggregate(hosts, l)
        assert got == ss.GroupDistribution(l, *np.unique(groups, return_counts=True))
        assert got.indices.dtype == np.int64


@given(addrs=addresses, l=st.integers(0, 32), k=st.integers(0, 32))
@settings(max_examples=60, deadline=None)
def test_aggregation_chain_is_consistent(addrs, l, k):
    # counting at a fine level and merging sibling pairs gives the coarse count
    hosts = ss.HostSet(addrs)
    fine = ss.aggregate(hosts, max(l, k))
    coarse = ss.aggregate(hosts, min(l, k))
    assert fine.coarsen(min(l, k)) == coarse
    assert fine.total == hosts.N


def test_refine_accepts_consistent_parent(four_hosts):
    parent = ss.aggregate(four_hosts, 7)
    fine = ss.refine(parent, four_hosts, 8)
    assert fine == ss.aggregate(four_hosts, 8)


def test_refine_detects_mismatch(four_hosts):
    parent = ss.aggregate(four_hosts, 7)
    tampered = ss.GroupDistribution(7, parent.indices, parent.counts + 1)
    with pytest.raises(InternalConsistencyError):
        ss.refine(tampered, four_hosts, 8)


def test_refine_level_validation(four_hosts):
    with pytest.raises(ParameterError):
        ss.refine(ss.aggregate(four_hosts, 7), four_hosts, 9)


# -- GroupDistribution -----------------------------------------------------


def test_distribution_drops_zero_counts():
    d = ss.GroupDistribution(4, [1, 2, 3], [5, 0, 7])
    assert d.indices.tolist() == [1, 3]
    assert d.occupied == 2


def test_distribution_validation():
    with pytest.raises(ParameterError):
        ss.GroupDistribution(4, [16], [1])  # index out of range
    for indices in ([1, 1], [3, 1, 3]):  # duplicates, sorted apart or not
        with pytest.raises(ParameterError, match="duplicate group indices"):
            ss.GroupDistribution(4, indices, [1] * len(indices))
    for indices in ([], [15]):
        assert ss.GroupDistribution(4, indices, [2] * len(indices)).indices.tolist() == indices
    with pytest.raises(ParameterError):
        ss.GroupDistribution(4, [1], [-2])
    with pytest.raises(CapacityError, match="group 3 needs 17 distinct hosts but a /28 block has 16 addresses"):
        ss.GroupDistribution(28, [1, 3], [16, 17])


@pytest.mark.parametrize("indices, counts", [
    ([0, 1.7], [3, 4]), ([0, 1], [2.5, 4]), ([0, 1], [math.nan, 4]), ([0, 1], [1e30, 1]),
    ([0], np.array([2**63 + 2], dtype=np.uint64)), ([0], [2**63 + 2]), ([2**64 + 5], [1]),
    ([Decimal("1.9")], [3]), ([1], [Fraction(7, 2)]), ([0], [Decimal("Infinity")]), (["1"], [3]), ([1], [True]),
], ids=["fractional_index", "fractional_count", "nan_count", "count_past_int64", "uint64_count_past_int64",
        "int_count_past_int64", "int_index_past_uint64", "decimal_index", "fraction_count", "infinite_decimal_count",
        "string_index", "bool_count"])
def test_distribution_refuses_counts_and_indices_that_are_not_int64_integers(indices, counts):
    # each was truncated, cast with a warning, wrapped or overflowed instead
    with pytest.raises(ParameterError, match=r"must be integers in \[-2\*\*63, 2\*\*63\)"):
        ss.GroupDistribution(8, indices, counts)


def test_distribution_takes_integral_objects():
    d = ss.GroupDistribution(8, [Decimal("1"), Fraction(6, 2)], [Fraction(4, 2), 2**0])
    assert d.indices.tolist() == [1, 3] and d.counts.tolist() == [2, 1]


def test_distribution_leaves_the_callers_arrays_writeable():
    # canonical int64 input is taken without reordering, but never frozen in place
    idx, cnt = np.array([1, 3, 7], dtype=np.int64), np.array([2, 5, 1], dtype=np.int64)
    d = ss.GroupDistribution(4, idx, cnt)
    assert idx.flags.writeable and cnt.flags.writeable
    idx[0], cnt[0] = 0, 9
    assert d.indices.tolist() == [1, 3, 7] and d.counts.tolist() == [2, 5, 1]
    assert not d.indices.flags.writeable and not d.counts.flags.writeable
    view = np.array([[1, 3], [7, 9]], dtype=np.int64)
    d = ss.GroupDistribution(4, view[:, 0], view[0])  # views of one caller array
    assert view.flags.writeable and not np.shares_memory(d.indices, view)


def test_distribution_of_canonical_arrays_allocates_only_its_own():
    # sorted indices and positive counts skip the keep-mask, the argsort and
    # the reordered copies: the peak is the two owned copies and a bool mask
    d = ss.synth_zipf(16, 1.0, 448894, seed=2)
    idx, cnt = np.array(d.indices), np.array(d.counts)
    tracemalloc.start()
    try:
        got = ss.GroupDistribution(16, idx, cnt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == d
    assert peak <= 1.1 * (idx.nbytes + cnt.nbytes), peak / (idx.nbytes + cnt.nbytes)


def test_distribution_dense_round_trip():
    dense = np.array([0, 3, 0, 1], dtype=np.int64)
    d = ss.GroupDistribution.from_dense(2, dense)
    back = np.zeros(4, dtype=np.int64)
    back[d.indices] = d.counts
    assert np.array_equal(back, dense)
    assert d.indices.tolist() == [1, 3] and d.counts.tolist() == [3, 1]
    assert d.count_of(1) == 3 and d.count_of(0) == 0


def test_distribution_argmax_tie_breaks_low():
    d = ss.GroupDistribution(4, [3, 7, 9], [5, 9, 9])
    assert d.argmax_index == 7


@pytest.mark.parametrize("l, indices, counts", [
    (0, [0], [2**32]), (1, [0, 1], [2**31, 2**31]), (1, [0, 1], [2**31, 5]), (16, None, None),
])
def test_sum_sq_counts_is_exact_up_to_capacity(l, indices, counts):
    # every count <= 2**32 and their sum <= 2**32: the int64 dot products of
    # the 16-bit halves stay exact; (16, None, None) is the zipf /16 fixture
    d = ss.synth_zipf(16, 1.0, 448894, seed=2) if indices is None else ss.GroupDistribution(l, indices, counts)
    assert d.sum_sq_counts() == sum(c * c for c in d.counts.tolist())


def test_distribution_csv_round_trip(tmp_path):
    d = ss.GroupDistribution(16, [0, 5, 65535], [10, 20, 30])
    path = tmp_path / "dist.csv"
    d.to_csv(path)
    first = path.read_text().splitlines()[0]
    assert first == "# l=16 N=60"
    assert ss.GroupDistribution.from_csv(path) == d


def test_distribution_csv_skips_blank_rows(tmp_path):
    p = tmp_path / "dist.csv"
    p.write_text("  \n# l=8 N=7\n\t\ngroup_index,count\n1,2\n  \n5,5\n\t\n", encoding="utf-8")
    assert ss.GroupDistribution.from_csv(p) == ss.GroupDistribution(8, [1, 5], [2, 5])


def test_distribution_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("group_index,count\n1,2\n")
    with pytest.raises(DistributionFormatError):
        ss.GroupDistribution.from_csv(p)  # missing header comment
    p.write_text("# l=8 N=99\ngroup_index,count\n1,2\n")
    with pytest.raises(DistributionFormatError):
        ss.GroupDistribution.from_csv(p)  # N disagrees with counts
    p.write_text("# l=8 N=2\ngroup_index,count\n1,x\n")
    with pytest.raises(DistributionFormatError):
        ss.GroupDistribution.from_csv(p)


_CANONICAL = b"# l=8 N=7\ngroup_index,count\n1,2\n5,5\n"


@pytest.mark.parametrize("data, canonical", [
    (_CANONICAL, True),
    (b"# l=8 N=7\ngroup_index,count\n5,5\n1,2\n0,0\n", True),  # unsorted, a zero count
    (b"# l=8 N=7\ngroup_index,count\n001,0002\n5,000000000000000005\n", True),  # leading zeros
    (b"# l=8 N=99\ngroup_index,count\n1,2\n5,5\n", True),  # N disagrees with the counts
    (b"# l=8 N=7\ngroup_index,count\n1,2\n1,5\n", True),  # a duplicate group
    (b"# l=8 N=7\ngroup_index,count\n256,7\n", True),  # a group past 2**l
    (b"# l=33 N=7\ngroup_index,count\n1,7\n", True),  # a level past 32
    (b"# l=8 N=999999999999999999\ngroup_index,count\n1,999999999999999999\n", True),  # 18 digits
    (_CANONICAL.replace(b"\n", b"\r\n"), False),
    (_CANONICAL.replace(b"1,2\n", b"  \n1,2\n\t\n"), False),  # blank rows of spaces or tabs
    (_CANONICAL.replace(b"1,2\n", b"\n1,2\n"), False),  # an empty row
    (_CANONICAL.replace(b"# l=8 N=7", b"#  l=8   N=7"), False),
    (_CANONICAL[:-1], False),  # a last row without its newline
    (_CANONICAL.replace(b"5,5", b"5,0000000000000000005"), False),  # 19 digits
    (_CANONICAL.replace(b"5,5", b"5,9999999999999999999").replace(b"N=7", b"N=10000000000000000001"), False),
    (_CANONICAL.replace(b"1,2", b"1,-1"), False),
    (_CANONICAL.replace(b"5,5", b"5,+5"), False),
    (_CANONICAL.replace(b"5,5", b"5, 5"), False),
    (_CANONICAL.replace(b"5,5", b"5,5,9"), False),  # a third field, which the csv loop ignores
    (_CANONICAL.replace(b"5,5", b"5"), False),  # one field
    (_CANONICAL.replace(b"2\n5,5", b"2,5\n5"), False),  # both commas in the first row
    (_CANONICAL.replace(b"5,5", "5,\u0665".encode()), False),  # a non-ASCII digit that int() reads
    (_CANONICAL.replace(b"group_index,count\n", b""), False),
    (b"# l=8 N=0\ngroup_index,count\n", False),  # a header-only file
    (b"# l=8 N=3\ngroup_index,count\n", False),
    (b"group_index,count\n1,2\n", False),  # no header
], ids=["canonical", "unsorted_zero", "leading_zeros", "bad_N", "duplicate", "group_range", "level_range",
        "18_digits", "crlf", "blank_rows", "empty_row", "header_spacing", "no_last_newline", "19_digits",
        "past_int64", "negative", "plus_sign", "space", "three_fields", "one_field", "misplaced_comma",
        "unicode_digit", "no_column_row", "header_only", "header_only_bad_N", "no_header"])
def test_vectorized_distribution_reader_matches_the_csv_loop(tmp_path, data, canonical):
    def outcome(read):
        try:
            return read()
        except DistributionFormatError as exc:
            return str(exc)

    p = tmp_path / "d.csv"
    p.write_bytes(data)
    want = outcome(lambda: addrspace._dist_csv_rows(p))
    fast = outcome(lambda: addrspace._dist_csv_canonical(p, data))
    if canonical:
        assert fast is not None and type(fast) is type(want) and fast == want
    else:
        assert fast is None
    got = outcome(lambda: ss.GroupDistribution.from_csv(p))
    assert type(got) is type(want) and got == want


def test_vectorized_distribution_reader_matches_the_csv_loop_over_several_steps(tmp_path):
    rng = np.random.default_rng(4)
    n = 2 * addrspace._CHUNK + 9
    d = ss.GroupDistribution(20, rng.choice(1 << 20, n, replace=False), rng.integers(1, 4097, n))
    p = tmp_path / "d.csv"
    d.to_csv(p)
    assert addrspace._dist_csv_canonical(p, p.read_bytes()) == d == addrspace._dist_csv_rows(p)


def _read_outcome(read):
    try:
        return read()
    except Exception as exc:  # the csv loop's own errors included
        return type(exc), str(exc)


@pytest.mark.parametrize("row", [
    b"5,5," + b",".join([b"9" * 100000] * 3),  # fields past the second, which the csv loop ignores
    b"5," + b"0" * (2 * addrspace._RUN) + b"5",  # one field wider than a run
], ids=["many_fields", "wide_field"])
def test_a_distribution_row_longer_than_a_run_reads_like_the_csv_loop(tmp_path, row):
    p = tmp_path / "d.csv"
    p.write_bytes(_CANONICAL.replace(b"5,5", row))
    want = _read_outcome(lambda: addrspace._dist_csv_rows(p))
    assert addrspace._dist_csv_canonical(p, p.read_bytes()) is None
    assert _read_outcome(lambda: ss.GroupDistribution.from_csv(p)) == want


@pytest.mark.parametrize("run", [1, 7, 64])
def test_vectorized_distribution_reader_matches_the_csv_loop_at_any_run_size(tmp_path, run):
    rng = np.random.default_rng(8)
    d = ss.GroupDistribution(20, rng.choice(1 << 20, 500, replace=False), rng.integers(1, 4097, 500))
    p = tmp_path / "d.csv"
    d.to_csv(p)
    with mock.patch.object(addrspace, "_RUN", run):
        assert addrspace._dist_csv_canonical(p, p.read_bytes()) == d == addrspace._dist_csv_rows(p)
        p.write_bytes(p.read_bytes() + b"7,1,2\n")
        assert addrspace._dist_csv_canonical(p, p.read_bytes()) is None


def test_distribution_csv_that_is_not_utf8_is_left_to_the_text_reader(tmp_path):
    # the CLI reports the UnicodeDecodeError as InputFileError (test_non_utf8_input_exits_3)
    p = tmp_path / "d.csv"
    p.write_bytes(_CANONICAL.replace(b"5,5", b"5,5\xff"))
    assert addrspace._dist_csv_canonical(p, p.read_bytes()) is None
    with pytest.raises(UnicodeDecodeError):
        ss.GroupDistribution.from_csv(p)


# -- synthetic distributions ----------------------------------------------


def test_synth_uniform_beta_is_group_ratio():
    # uniform over the first n of 2**l groups concentrates by 2**l / n
    for l, n in [(8, 256), (8, 64), (8, 1), (16, 1256)]:
        d = ss.synth_uniform(n, l, 357)
        assert ss.non_uniformity_factor(d).beta == pytest.approx(2**l / n, rel=1e-12)


def test_synth_uniform_validation():
    with pytest.raises(ParameterError):
        ss.synth_uniform(257, 8, 1)
    with pytest.raises(ParameterError):
        ss.synth_uniform(0, 8, 1)
    with pytest.raises(ParameterError):
        ss.synth_uniform(1, 8, 0)


def test_synth_zipf_total_and_determinism():
    d1 = ss.synth_zipf(8, 1.0, 10**6, seed=1)
    d2 = ss.synth_zipf(8, 1.0, 10**6, seed=1)
    assert d1 == d2
    assert d1.total == 10**6
    assert d1 != ss.synth_zipf(8, 1.0, 10**6, seed=2)


def test_synth_zipf_regression_anchor():
    # frozen on first build; oracle was a direct float sum of p**2
    d = ss.synth_zipf(8, 1.0, 10**6, seed=1)
    assert ss.non_uniformity_factor(d).beta == pytest.approx(11.200559641088, rel=1e-9)


def test_synth_zipf_tiny_exponent_is_nearly_uniform():
    d = ss.synth_zipf(8, 1e-9, 10**6, seed=3)
    assert ss.non_uniformity_factor(d).beta == pytest.approx(1.0, rel=0.02)


def test_synth_zipf_ranked_counts_decrease():
    d = ss.synth_zipf(8, 1.2, 50000, seed=9)
    perm = np.random.default_rng(9).permutation(256)
    dense = np.zeros(256, dtype=np.int64)
    dense[d.indices] = d.counts
    ranked = dense[perm]
    assert np.all(np.diff(ranked) <= 0)


def test_synth_zipf_validation():
    with pytest.raises(ParameterError):
        ss.synth_zipf(8, 0.0, 100, seed=0)
    with pytest.raises(ParameterError):
        ss.synth_zipf(8, 1.0, 0, seed=0)
    with pytest.raises(ParameterError):
        ss.synth_zipf(32, 1.0, 100, seed=0)


# -- materialization -------------------------------------------------------


def test_materialize_matches_distribution_and_is_deterministic():
    d = ss.synth_zipf(8, 1.0, 20000, seed=4)
    h1 = ss.materialize_hosts(d, seed=5)
    h2 = ss.materialize_hosts(d, seed=5)
    assert h1 == h2
    assert ss.aggregate(h1, 8) == d
    assert h1 != ss.materialize_hosts(d, seed=6)


def test_materialize_full_block():
    d = ss.GroupDistribution(28, [7], [16])  # block has exactly 16 addresses
    h = ss.materialize_hosts(d, seed=0)
    assert h.N == 16
    assert ss.aggregate(h, 28) == d


def test_materialize_capacity_error():
    with pytest.raises(CapacityError):
        ss.materialize_hosts(ss.GroupDistribution(28, [0], [17]), seed=0)


def _sample_distinct_reference(rng, k, size, permute_max=1 << 22):
    """The sampler materialize_hosts used per group: each batch re-dedupes
    the whole pool of values chosen so far plus the new draws."""
    if k == size:
        return np.arange(size, dtype=np.int64)
    if size <= permute_max and 3 * k > size:
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


def _materialize_reference(dist, seed, permute_max=1 << 22):
    """The per-group loop materialize_hosts replaced, with its sampler."""
    bits = 32 - dist.l
    rng = np.random.default_rng(seed)
    parts = [(int(i) << bits) + _sample_distinct_reference(rng, int(c), 1 << bits, permute_max)
             for i, c in zip(dist.indices, dist.counts)]
    return np.unique(np.concatenate(parts)).astype(np.uint32)


@pytest.mark.parametrize("dist, seed", [
    (ss.synth_zipf(16, 1.0, 448894, seed=2), 5),  # the paper fixture; its top group is a permutation
    (ss.synth_zipf(8, 1.0, 20000, seed=4), 5),
    (ss.synth_uniform(300, 16, 357), 21),
    (ss.GroupDistribution(20, [0, 3, 9, 100], [5, 2000, 4000, 3]), 1),  # permutation groups
    (ss.GroupDistribution(28, [7, 8, 100], [16, 3, 16]), 0),  # full blocks
], ids=["zipf16", "zipf8", "uniform", "permutation", "full_block"])
def test_materialize_is_byte_identical_to_the_per_group_loop(dist, seed):
    assert np.array_equal(ss.materialize_hosts(dist, seed).addresses, _materialize_reference(dist, seed))


def test_materialize_keeps_its_temporaries_per_run_of_groups():
    # 4 B a host for the uint32 output and 4 for HostSet's sorted copy; int64
    # parts and their concatenation made it 22 B a host
    dist = ss.synth_zipf(16, 1.0, 448894, seed=2)
    tracemalloc.start()
    try:
        hosts = ss.materialize_hosts(dist, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15 * hosts.N, peak / hosts.N


def _first_occurrences_reference(values):
    """The definition: a stable sort puts each value's first entry first."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    keep = np.empty(values.size, dtype=bool)
    keep[order[:1]] = True
    keep[order[1:]] = ordered[1:] != ordered[:-1]
    return keep


def _repeating_values():
    rng = np.random.default_rng(12)
    pool = np.r_[0, 2**32 - 1, rng.integers(0, 2**32, 5000)]
    return rng.choice(pool, 3 * addrspace._CHUNK)  # repeats far more than _CHUNK apart


@pytest.mark.parametrize("values", [
    [], [7], [0, 2**32 - 1, 0, 2**32 - 1, 5], [3] * 10, _repeating_values(),
], ids=["empty", "single", "extremes", "all_equal", "random"])
def test_first_occurrences_matches_the_stable_sort(values):
    values = np.asarray(values, dtype=np.int64)
    assert np.array_equal(addrspace._first_occurrences(values), _first_occurrences_reference(values))


def test_materialize_replays_a_group_its_first_batch_cannot_fill(monkeypatch):
    # Groups whose first batch holds too few distinct values exist only in
    # blocks too large to permute (2**23 addresses and up at the default
    # threshold, where the loop takes tens of seconds); without the
    # permutation path the same happens in /24 blocks.
    monkeypatch.setattr(addrspace, "_PERMUTE_MAX_BLOCK", 0)
    counts = np.random.default_rng(8).integers(1, 256, 500)
    counts[[0, 1, 300, 499]] = [250, 255, 256, 240]
    dist = ss.GroupDistribution(24, np.arange(0, 1000, 2), counts)
    replayed = []
    sample = addrspace._sample_distinct

    def spy(rng, k, size):
        replayed.append(k < size)
        return sample(rng, k, size)

    monkeypatch.setattr(addrspace, "_sample_distinct", spy)
    got = ss.materialize_hosts(dist, 9).addresses
    assert sum(replayed) > 100
    assert np.array_equal(got, _materialize_reference(dist, 9, permute_max=0))


@given(seed=st.integers(0, 2**31), k=st.integers(1, 40), bits=st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_sample_distinct_is_distinct_and_in_range(seed, k, bits):
    size = 1 << bits
    k = min(k, size)
    got = _sample_distinct(np.random.default_rng(seed), k, size)
    assert got.size == k
    assert np.unique(got).size == k
    assert got.min() >= 0 and got.max() < size


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("bits, k", [(8, 128), (8, 200), (8, 255), (12, 2048), (12, 3500), (12, 4095),
                                     (16, 40000), (16, 60000)])
def test_sample_distinct_matches_the_whole_pool_sampler(monkeypatch, seed, bits, k):
    # Without the permutation path these k need several batches each.
    monkeypatch.setattr(addrspace, "_PERMUTE_MAX_BLOCK", 0)
    size = 1 << bits
    got = _sample_distinct(np.random.default_rng(seed), k, size)
    want = _sample_distinct_reference(np.random.default_rng(seed), k, size, permute_max=0)
    assert np.array_equal(got, want)


def test_block_size_values():
    assert block_size(16) == 65536
    assert block_size(32) == 1
    assert block_size(0) == 2**32


# -- ccdf ------------------------------------------------------------------


def test_ccdf_fixture_values(four_hosts):
    pts = ss.ccdf(ss.aggregate(four_hosts, 8))
    assert [(p.threshold, p.fraction) for p in pts] == [
        (0, 2 / 256),
        (1, 1 / 256),
        (3, 0.0),
    ]


def test_ccdf_empty():
    pts = ss.ccdf(ss.GroupDistribution(8, [], []))
    assert [(p.threshold, p.fraction) for p in pts] == [(0, 0.0)]


@given(addrs=addresses, l=st.integers(0, 16))
@settings(max_examples=40, deadline=None)
def test_ccdf_is_a_decreasing_step_function(addrs, l):
    d = ss.aggregate(ss.HostSet(addrs), l)
    pts = ss.ccdf(d)
    assert pts[0].threshold == 0
    assert pts[-1].fraction == 0.0
    t = [p.threshold for p in pts]
    f = [p.fraction for p in pts]
    assert t == sorted(set(t))
    assert all(a >= b for a, b in zip(f, f[1:]))
    assert pts[0].fraction == d.occupied / d.n_groups


def test_ccdf_csv(tmp_path, four_hosts):
    path = tmp_path / "ccdf.csv"
    write_ccdf_csv(ss.ccdf(ss.aggregate(four_hosts, 8)), path)
    lines = path.read_text().splitlines()
    assert lines[0] == "threshold,fraction"
    assert len(lines) == 4


def test_write_table_formats_numbers_with_repr_and_text_like_csv(tmp_path):
    text = ["ls:l=16,pa=0.75", 'say "hi"', "rs", "is:l=16", "2lls:pb=0.25,pc=0.5", "mss:l=16", "optis:l=8"]
    floats = np.array([0.1, 1 / 3, 1e-300, -0.0, math.inf, math.nan, 2.0**53 + 2])
    ints = [0, -1, 2**53 + 1, 7, np.int64(2**62), 1 << 40, -(2**63)]
    scalars = [np.float64(0.25)] * 7
    path = tmp_path / "t.csv"
    write_table(path, ["name", "x", "k", "y"], [text, floats, ints, scalars], ["l=16 N=4, a comment, with commas"])
    want = io.StringIO()
    want.write("# l=16 N=4, a comment, with commas\n")
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["name", "x", "k", "y"])
    writer.writerows(zip(text, map(repr, floats.tolist()), map(repr, map(int, ints)), ["0.25"] * 7))
    assert path.read_bytes() == want.getvalue().encode()
    assert path.read_text().splitlines()[2:] == [
        '"ls:l=16,pa=0.75",0.1,0,0.25',
        '"say ""hi""",0.3333333333333333,-1,0.25',
        "rs,1e-300,9007199254740993,0.25",
        "is:l=16,-0.0,7,0.25",
        '"2lls:pb=0.25,pc=0.5",inf,4611686018427387904,0.25',
        "mss:l=16,nan,1099511627776,0.25",
        "optis:l=8,9007199254740994.0,-9223372036854775808,0.25",
    ]


def test_write_table_equals_the_per_cell_repr_loop_over_several_steps(tmp_path):
    # float cells are formatted once per distinct value; 0.0 and -0.0 share a
    # step, where a plain float unique would merge them
    rng = np.random.default_rng(9)
    odd_nans = np.array([0x7FF8000000000001, -0x0008000000000000], dtype=np.int64).view(np.float64)
    pool = np.array([0.0, -0.0, math.nan, *odd_nans, math.inf, -math.inf, 5e-324, 2.0**53 + 2, 0.1, 1 / 3, -2.5])
    n = addrspace._CHUNK + 7  # _CHUNK // 4 rows per step: 4 steps and a part
    x, y = pool[rng.integers(0, pool.size, (2, n))]
    x[:2], y[:2] = [0.0, -0.0], [-0.0, 0.0]
    ints = rng.choice([0, -1, 7, 2**53 + 1, -(2**63)], n)
    text = rng.choice(["rs", "ls:l=16,pa=0.75", 'say "hi"', "is:l=16"], n)
    want = io.StringIO()
    want.write("# a comment\n")
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["name", "x", "k", "y"])
    writer.writerows(zip(text.tolist(), map(repr, x.tolist()), map(repr, ints.tolist()), map(repr, y.tolist())))
    path = tmp_path / "t.csv"
    write_table(path, ["name", "x", "k", "y"], [text, x, ints, y], ["a comment"])
    assert path.read_bytes() == want.getvalue().encode()
    write_table(path, ["x", "y"], [x, y])  # float64 columns only
    assert path.read_bytes() == ("x,y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist()))).encode()
    assert path.read_text().splitlines()[1:3] == ["0.0,-0.0", "-0.0,0.0"]


def test_write_table_of_repeated_columns_equals_the_per_cell_repr_loop(tmp_path):
    # one column object passed many times is formatted once per step and
    # written as runs; equal but distinct arrays stay separate columns
    rng = np.random.default_rng(4)
    n = 3 * addrspace._CHUNK // 10 + 5  # steps of _CHUNK // 11 and _CHUNK // 20 rows: 4 and 7 steps
    a, b = rng.choice([0.0, -0.0, 0.1, 1 / 3, math.nan, 2.0**53 + 2], (2, n))
    twin = a.copy()
    ints = rng.choice([0, -1, 7, 2**53 + 1], n)
    text = rng.choice(["rs", "ls:l=16,pa=0.75", 'say "hi"'], n)
    layouts = [
        [a, a, a, b, twin, b, b, a, a, a, a],  # runs at both ends, repeats apart, an equal twin
        [text, a, a, ints, b, b, b, ints, text, twin, a, twin, twin, text, text, a, ints, ints, b, a],
    ]
    for columns in layouts:
        header = [f"c{k}" for k in range(len(columns))]
        path = tmp_path / "t.csv"
        write_table(path, header, columns, ["a comment"])
        want = io.StringIO()
        want.write("# a comment\n")
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*([repr(v) for v in c.tolist()] if c.dtype.kind != "U" else c.tolist()
                               for c in columns)))
        assert path.read_bytes() == want.getvalue().encode()
    write_table(path, ["x", "y", "z"], [a, twin, a.copy()])  # distinct columns only
    assert path.read_bytes() == ("x,y,z\n" + "".join(f"{v!r},{v!r},{v!r}\n" for v in a.tolist())).encode()


def test_write_table_refuses_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ["a", "b"], [np.zeros(100), np.zeros(1)])


def test_write_table_of_no_rows_is_its_header(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["threshold", "fraction"], [[], np.zeros(0)])
    assert path.read_bytes() == b"threshold,fraction\n"
