"""The fixed-width codec of trace files against json, one line at a time.

trace_lines writes each bin's counts right-aligned to the width of its
largest, and read_traces_jsonl parses a run of such lines as one byte
matrix. The references here are trace_record, which json.loads of each
written line must equal, for the writer, and json.loads plus
trace_from_dict (reference.py), line by line, for the reader; every
comparison is exact.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motprobe import traceio
from motprobe.cli import main
from motprobe.photon import FluorescenceTrace, SegmentMap
from motprobe.traceio import (
    TraceFileError,
    read_traces_jsonl,
    trace_lines,
    trace_record,
    trace_to_dict,
)
from reference import trace_from_dict

INT64_MAX = np.iinfo(np.int64).max
SEG = SegmentMap(detect=(0, 3), off=(3, 4), background=(4, 6))


def count_tokens(line):
    """The count tokens of a line trace_lines wrote, as spelt."""
    text = line.rsplit(traceio._COUNTS_KEY, 1)[1]
    assert text.endswith("]}\n")
    return text[:-3].split(", ") if text != "]}\n" else []


def reference_lines(trace_ids, n_rb, bin_s, segments, counts):
    return "".join(
        json.dumps(trace_record(t, n_rb, bin_s, segments, row)) + "\n"
        for t, row in zip(trace_ids, np.asarray(counts).tolist())
    )


def unpadded(text):
    """text with the spaces that right-align each count dropped."""
    key = traceio._COUNTS_KEY
    return "".join(
        line.rsplit(key, 1)[0] + key
        + ", ".join(token.lstrip(" ") for token in count_tokens(line)) + "]}\n"
        for line in text.splitlines(keepends=True)
    )


def assert_lines_load_as_records(text, trace_ids, n_rb, bin_s, segments, counts):
    """Each line of text json.loads to the record of its row, and each
    count token is as wide as the matrix's largest count."""
    counts = np.asarray(counts)
    lines = text.splitlines(keepends=True)
    assert len(lines) == len(counts)
    width = len(str(int(counts.max()))) if counts.size else 1
    for line, trace_id, row in zip(lines, trace_ids, counts.tolist()):
        assert json.loads(line) == trace_record(trace_id, n_rb, bin_s, segments, row)
        assert {len(token) for token in count_tokens(line)} <= {width}


# Counts next to where their digit count, or their four-digit group, changes.
EDGES = [0, 9, 10, 99, 100, 9999, 10000, 65535, 65536, 10**18 - 1, 10**18, INT64_MAX]

COUNT = st.one_of(
    st.sampled_from(EDGES), st.integers(0, 9), st.integers(0, 70000), st.integers(0, INT64_MAX)
)


@st.composite
def count_matrices(draw):
    """A (rows, columns) count list, SEG's six columns or one, and one id
    per row, of mixed lengths."""
    rows = draw(st.integers(0, 6))
    columns = draw(st.sampled_from([SEG.n_bins, 1]))
    matrix = draw(st.lists(
        st.lists(COUNT, min_size=columns, max_size=columns), min_size=rows, max_size=rows
    ))
    ids = draw(st.lists(st.text(max_size=8), min_size=rows, max_size=rows))
    return matrix, columns, ids


class TestWriter:
    @settings(max_examples=200, deadline=None)
    @given(count_matrices())
    # Counts of every digit length in one bin.
    @example(([
        [7, 42, 512, 4096, 30000, 65535],
        [65535, 9, 65535, 10, 99999, 100],
        [65536, 0, 1, 22, 333, 4444],
    ], 6, ["b07t0000", "b07t0001", "b07t0002"]))
    # All-zero bins are one column wide.
    @example(([[0] * 6] * 3, 6, ["a", "bb", ""]))
    @example(([[0]] * 2, 1, ["a", "é☃"]))
    @example(([EDGES[:6], EDGES[6:]], 6, ["b00t0000", 'q"\\']))
    @example(([], 6, []))
    def test_lines_load_as_records(self, tmp_path_factory, case):
        """Each line loads as its record with json, every count token has
        the bin's width, and read_traces_jsonl reads the matrix back."""
        matrix, columns, ids = case
        counts = np.array(matrix, dtype=np.int64).reshape(len(matrix), columns)
        text = trace_lines(ids, 1320.0, 0.02, SEG, counts)
        assert_lines_load_as_records(text, ids, 1320.0, 0.02, SEG, counts)
        if len(counts) and columns == SEG.n_bins:
            path = tmp_path_factory.mktemp("lines") / "traces.jsonl"
            path.write_text(text)
            table = read_traces_jsonl(path)
            assert table.trace_ids == ids
            assert np.array_equal(table.counts, counts)
            assert (table.segments, table.bin_s) == (SEG, 0.02)
            assert table.n_rb.tolist() == [1320.0] * len(ids)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 5).flatmap(lambda rows: st.lists(
            st.lists(COUNT, min_size=6, max_size=6), min_size=rows, max_size=rows
        )),
        st.text(max_size=8),
    )
    @example([EDGES[:6], EDGES[6:]], "b00t0000")
    @example([], "none")
    def test_matches_json_dumps(self, rows, prefix):
        """With the padding of its counts dropped, each line is the line
        json.dumps writes for its record, byte for byte."""
        counts = np.array(rows, dtype=np.int64).reshape(len(rows), 6)
        ids = [f"{prefix}{k}" for k in range(len(rows))]
        got = trace_lines(ids, 1320.0, 0.02, SEG, counts)
        assert unpadded(got) == reference_lines(ids, 1320.0, 0.02, SEG, counts)

    def test_a_bin_interleaves_tabled_and_json_rows(self):
        """One bin whose rows hold counts of every digit length from 1 to 5,
        some with 65535 and some with 65536, so rows of one and of two
        four-digit groups interleave: every count is padded to the bin's
        width of five, and without the padding each line is json.dumps's."""
        spread = [7, 42, 512, 4096, 30000]
        counts = np.array([
            spread + [65535],
            spread + [65536],
            [65535, 9, 65535, 10, 99999, 100],
            [65536, 0, 1, 22, 333, 4444],
            [1, 22, 333, 4444, 55555, 65535],
            [0, 65536, 0, 65536, 0, 65536],
        ], dtype=np.int64)
        ids = [f"b07t{k:04d}" for k in range(len(counts))]
        got = trace_lines(ids, 1540.0, 0.02, SEG, counts)
        assert unpadded(got) == reference_lines(ids, 1540.0, 0.02, SEG, counts)
        for line in got.splitlines(keepends=True):
            assert {len(token) for token in count_tokens(line)} == {5}

    def test_table_spells_every_count_as_python_does(self):
        """Word k of the group tables is k in four bytes: zero-padded in
        the first, right-aligned with spaces in the second."""
        digits, spaced = traceio._group_tables()
        assert digits.dtype == spaced.dtype == np.uint32
        assert len(digits) == len(spaced) == 10**4
        assert not digits.flags.writeable and not spaced.flags.writeable
        assert digits.tobytes() == "".join(f"{k:04d}" for k in range(10**4)).encode()
        assert spaced.tobytes() == "".join(f"{k:4d}" for k in range(10**4)).encode()

    @pytest.mark.parametrize("value", EDGES)
    def test_one_column(self, value):
        # No SegmentMap has one bin (detect and background hold one each),
        # but the matrix may.
        counts = np.array([[value], [7], [value]], dtype=np.int64)
        got = trace_lines(["a", "b", "c"], -0.0, 0.05, SEG, counts)
        assert_lines_load_as_records(got, ["a", "b", "c"], -0.0, 0.05, SEG, counts)
        assert count_tokens(got.splitlines(keepends=True)[1]) == [f"{7:>{len(str(value))}}"]

    def test_zero_rows_and_zero_columns(self):
        assert trace_lines([], 0.0, 0.02, SEG, np.zeros((0, 6), dtype=np.int64)) == ""
        # No SegmentMap has zero bins, but the matrix may.
        got = trace_lines(["e"], 0.0, 0.02, SEG, np.zeros((1, 0), dtype=np.int64))
        assert got == json.dumps(trace_record("e", 0.0, 0.02, SEG, [])) + "\n"

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint64])
    def test_integer_dtypes_load_as_records(self, dtype):
        counts = np.array([[1, 0, 2, 3, 1, 1], [5, 4, 3, 2, 1, 0]]).astype(dtype)
        got = trace_lines(["x", 'q"\\'], 440.0, 0.02, SEG, counts)
        assert_lines_load_as_records(got, ["x", 'q"\\'], 440.0, 0.02, SEG, counts)

    @pytest.mark.parametrize("dtype", [np.float64, bool, object])
    def test_other_dtypes_are_refused(self, dtype):
        """json would spell them 1.0, true or anything; the reader refuses
        each, so the writer does too."""
        counts = np.array([[1, 0, 2, 3, 1, 1], [5, 4, 3, 2, 1, 0]]).astype(dtype)
        with pytest.raises(ValueError, match=f"^counts must be integers, got a {np.dtype(dtype)} matrix$"):
            trace_lines(["x", "y"], 440.0, 0.02, SEG, counts)

    @pytest.mark.parametrize("bad, value", [
        (np.array([[1, 2, 3, 4, 5, 6], [1, -1, 2, 3, 1, -2]], dtype=np.int64), -1),
        (np.array([[1, 2, 3, 4, 5, 6], [1, 2**63, 2, 3, 1, 1]], dtype=np.uint64), 2**63),
    ], ids=["negative", "past_int64"])
    def test_out_of_bounds_counts_are_refused(self, bad, value):
        """A negative count, or one past int64, is refused naming its row."""
        with pytest.raises(ValueError) as info:
            trace_lines(["n", "p"], 0.0, 0.02, SEG, bad)
        assert str(info.value) == (
            f"trace 'p' (row 1) has a count outside 0 to {INT64_MAX}: {value}"
        )

    def test_shape_is_checked(self):
        with pytest.raises(ValueError, match="matrix"):
            trace_lines(["a", "b"], 0.0, 0.02, SEG, np.zeros((3, 6), dtype=np.int64))
        with pytest.raises(ValueError, match="matrix"):
            trace_lines(["a"], 0.0, 0.02, SEG, np.zeros(6, dtype=np.int64))

    def test_trace_lines_match_trace_to_dict(self):
        traces = [
            FluorescenceTrace(f"w{k}", 220.0 * k, 0.02, SEG, np.arange(6) * 10**k)
            for k in range(8)
        ]
        for t in traces:
            got = trace_lines([t.trace_id], t.n_rb, t.bin_s, t.segments, t.counts[np.newaxis])
            assert json.loads(got) == trace_to_dict(t)


GOOD_COUNTS = [100, 300, 200, 0, 100, 100]


def good_line(k):
    """Line k of a file of good lines: they differ only in trace_id, each
    as long as the others, so the reader takes them as one run."""
    return trace_lines([f"g{k:03d}"], 220.0, 0.02, SEG, np.array([GOOD_COUNTS]))


def with_counts(text):
    """A good line whose counts are spelt as text; the good spelling is
    "100, 300, 200,   0, 100, 100"."""
    head = good_line(0).rsplit(traceio._COUNTS_KEY, 1)[0]
    return f"{head}{traceio._COUNTS_KEY}{text}]}}\n"


def reordered(obj):
    return json.dumps({key: obj[key] for key in reversed(list(obj))}) + "\n"


GOOD_OBJ = json.loads(good_line(0))

# name -> the lines that replace a good one (two for the last cases).
CASES = {
    "leading_zero": [with_counts("01, 300, 200, 0, 100, 100")],
    "zero_zero": [with_counts("100, 00, 200, 0, 100, 100")],
    "empty_value": [with_counts("100, , 200, 0, 100, 100")],
    "empty_array": [with_counts("")],
    "trailing_comma": [with_counts("100, 300, 200, 0, 100, 100,")],
    "trailing_comma_after_double_space": [with_counts("100,  300, 200, 0, 100,")],
    "minus": [with_counts("100, 300, -1, 0, 100, 100")],
    "plus": [with_counts("100, 300, +1, 0, 100, 100")],
    "float": [with_counts("100, 300, 1.0, 0, 100, 100")],
    "exponent": [with_counts("100, 300, 1e3, 0, 100, 100")],
    "true": [with_counts("100, true, 200, 0, 100, 100")],
    "digits_18": [with_counts(f"100, {10**18 - 1}, 200, 0, 100, 100")],
    "digits_19": [with_counts(f"100, {10**18}, 200, 0, 100, 100")],
    "int64_max": [with_counts(f"100, {INT64_MAX}, 200, 0, 100, 100")],
    "past_int64": [with_counts(f"100, {INT64_MAX + 1}, 200, 0, 100, 100")],
    "digits_20": [with_counts("100, 99999999999999999999, 200, 0, 100, 100")],
    "compact_array": [with_counts("100,300,200,0,100,100")],
    "spaced_array": [with_counts(" 100 , 300 , 200 , 0 , 100 , 100 ")],
    "space_before_comma": [with_counts("100 ,300, 200, 0, 100, 100")],
    "space_and_leading_zero": [with_counts("100 ,0300, 200, 0, 100, 100")],
    "tab": [with_counts("100,\t300, 200, 0, 100, 100")],
    "short": [with_counts("100, 300, 200, 0, 100")],
    "long": [with_counts("100, 300, 200, 0, 100, 100, 7")],
    "long_then_short": [
        with_counts("100, 300, 200, 0, 100, 100, 7"),
        with_counts("100, 300, 200, 0, 100"),
    ],
    "short_then_long": [
        with_counts("100, 300, 200, 0, 100"),
        with_counts("100, 300, 200, 0, 100, 100, 7"),
    ],
    "unclosed_array": [good_line(0).replace("]}\n", "0}\n")],
    "closed_before_counts": [good_line(0).replace(traceio._COUNTS_KEY, "}" + traceio._COUNTS_KEY)],
    "trailing_garbage": [good_line(0).replace("]}\n", "]} x\n")],
    "counts_first": [json.dumps({"counts": GOOD_COUNTS, **GOOD_OBJ}) + "\n"],
    "counts_middle": [
        json.dumps({"trace_id": "m", "counts": [1, 2, 3, 4, 5, 6], "n_rb": 0.0,
                    "bin_s": 0.02, "segments": GOOD_OBJ["segments"]}) + "\n"
    ],
    "reordered_keys": [reordered(GOOD_OBJ)],
    "duplicate_counts": [
        good_line(0).replace(
            '"trace_id"', '"counts": [9, 9], "trace_id"'
        ).replace("[100, 300", "[101, 300")
    ],
    "duplicate_counts_bad_last": [
        good_line(0).replace(
            '"trace_id"', '"counts": [1, 2, 3, 4, 5, 6], "trace_id"'
        ).replace("[100, 300", "[100, 1.5")
    ],
    "compact_separators": [json.dumps(GOOD_OBJ, separators=(",", ":")) + "\n"],
    "crlf": [good_line(0).replace("\n", "\r\n")],
    "trailing_spaces": [good_line(0).replace("\n", "  \t \n")],
    "trailing_form_feed": [good_line(0).replace("\n", "\f\n")],
    "leading_space": [" " + good_line(0)],
    "bad_field": [good_line(0).replace('"n_rb": 220.0', '"n_rb": NaN')],
    "string_field": [good_line(0).replace('"n_rb": 220.0', '"n_rb": "220.0"')],
    "missing_field": [good_line(0).replace('"bin_s": 0.02, ', "")],
    "not_json": [good_line(0).replace('{"trace_id"', '{trace_id')],
    "non_ascii_count": [with_counts("100, 300, ٢, 0, 100, 100")],
    "non_ascii_id": [good_line(0).replace('"g000"', '"é☃"')],
    "nested_counts_key": [
        good_line(0).replace('"background": [4, 6]}', '"background": [4, 6], "counts": [1]}')
    ],
    # Heads the reader may split after a plain trace_id, and near misses.
    "escaped_quote_id": [good_line(0).replace('"g000"', '"g\\"000"')],
    "escaped_backslash_id": [good_line(0).replace('"g000"', '"g\\\\000"')],
    "unicode_escape_id": [good_line(0).replace('"g000"', '"caf\\u00e9"')],
    "raw_tab_id": [good_line(0).replace('"g000"', '"g\t000"')],
    "empty_id": [good_line(0).replace('"g000"', '""')],
    "unterminated_id": [good_line(0).replace('"g000"', '"g000')],
    "numeric_id": [good_line(0).replace('"g000"', "7")],
    "duplicate_id": [good_line(0).replace('"bin_s"', '"trace_id": "", "bin_s"')],
    "duplicate_escaped_id": [
        good_line(0).replace('"bin_s"', '"trace\\u005fid": "d", "bin_s"')
    ],
    "duplicate_n_rb": [good_line(0).replace('"segments"', '"n_rb": 440.0, "segments"')],
    "space_before_id_comma": [good_line(0).replace('"g000",', '"g000" ,')],
    "missing_id_comma": [good_line(0).replace('"g000", ', '"g000"  ')],
    # Damage to lines of the good lines' length, which the reader checks as
    # rows of one byte matrix, and near misses of other lengths.
    "space_inside_number": [with_counts("100, 3 0, 200,   0, 100, 100")],
    "fixed_leading_zero": [with_counts("100, 030, 200,   0, 100, 100")],
    "padded_leading_zero": [with_counts("100, 300, 200,  00, 100, 100")],
    "no_digit": [with_counts("100,    , 200,   0, 100, 100")],
    "tab_pad": [with_counts("100, 300, 200, \t 0, 100, 100")],
    "pad_after_digits": [with_counts("100, 300, 200, 0  , 100, 100")],
    "separator_off_by_one": [with_counts("100, 300,200 ,   0, 100, 100")],
    "one_byte_short": [with_counts("100, 300, 200,  0, 100, 100")],
    "one_byte_long": [with_counts("100, 300, 200,    0, 100, 100")],
    "other_width": [with_counts(" 100,  300,  200,    0,  100,  100")],
    "other_n_rb": [good_line(0).replace('"n_rb": 220.0', '"n_rb": 440.0')],
    "other_segments": [
        good_line(0).replace('"detect": [0, 3], "off": [3, 4]', '"detect": [0, 2], "off": [2, 4]')
    ],
    "quote_in_id": [good_line(0).replace('"g000"', '"g"00"')],
    "backslash_in_id": [good_line(0).replace('"g000"', '"g\\\\0"')],
    "bad_escape_in_id": [good_line(0).replace('"g000"', '"g\\00"')],
    "control_in_id": [good_line(0).replace('"g000"', '"g\x0100"')],
    "delete_in_id": [good_line(0).replace('"g000"', '"g\x7f00"')],
    "non_ascii_id_same_length": [good_line(0).replace('"g000"', '"gé00"')],
    "width_19_int64_max": [with_counts(", ".join(
        f"{v:>19}" for v in [100, INT64_MAX, 200, 0, 100, 100]
    ))],
    "width_19_past_int64": [with_counts(", ".join(
        f"{v:>19}" for v in [100, INT64_MAX + 1, 200, 0, 100, 100]
    ))],
    "width_19_all_nines": [with_counts(", ".join(
        f"{v:>19}" for v in [100, 10**19 - 1, 200, 0, 100, 100]
    ))],
    "width_20": [with_counts(", ".join(f"{v:>20}" for v in GOOD_COUNTS))],
}


def reference_read(path):
    """json.loads and trace_from_dict line by line: the list of
    (trace_id, n_rb, bin_s, segments, counts), or the first TraceFileError.
    A line whose segments or bin_s differ from the first line's is refused
    once its fields pass, before its counts are checked."""
    rows, first = [], None
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                return TraceFileError(f"not valid JSON ({exc.msg})", i)
            try:
                _, _, segments, bin_s = traceio._trace_fields(obj, {})
            except (TypeError, ValueError, OverflowError) as exc:
                return TraceFileError(str(exc), i)
            if first is None:
                first = (i, segments, bin_s)
            elif (segments, bin_s) != first[1:]:
                return TraceFileError(
                    f"{segments!r} and bin_s {bin_s!r} differ from line {first[0]}'s "
                    f"{first[1]!r} and bin_s {first[2]!r}: a traces file holds one "
                    f"segment map and bin width", i
                )
            try:
                t = trace_from_dict(obj, i)
            except TraceFileError as exc:
                return exc
            rows.append((t.trace_id, t.n_rb, t.bin_s, t.segments, t.counts.tolist()))
    return rows


def table_rows(table):
    return [
        (t.trace_id, t.n_rb, t.bin_s, t.segments, t.counts.tolist()) for t in table
    ]


def assert_reads_like_reference(path):
    want = reference_read(path)
    if isinstance(want, TraceFileError):
        with pytest.raises(TraceFileError) as info:
            read_traces_jsonl(path)
        assert str(info.value) == str(want)
        assert info.value.line_number == want.line_number
    else:
        assert table_rows(read_traces_jsonl(path)) == want


class TestReaderParity:
    # Inside the first block, at its end, and past it.
    @pytest.mark.parametrize("line", [3, traceio._FILL_BLOCK, traceio._FILL_BLOCK + 36])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_case_reads_like_json(self, tmp_path, name, line):
        lines = [good_line(k) for k in range(130)]
        case = CASES[name]
        lines[line - 1:line - 1 + len(case)] = case
        path = tmp_path / "case.jsonl"
        path.write_bytes("".join(lines).encode())
        assert_reads_like_reference(path)

    def test_cases_are_what_they_say(self):
        """The cases meant to load do, and the others are refused."""
        loads = {
            "digits_18", "digits_19", "int64_max", "compact_array", "spaced_array",
            "space_before_comma", "tab", "counts_first", "counts_middle",
            "reordered_keys", "duplicate_counts", "compact_separators", "crlf",
            "trailing_spaces", "leading_space", "non_ascii_id", "nested_counts_key",
            "escaped_quote_id", "escaped_backslash_id", "unicode_escape_id", "empty_id",
            "duplicate_id", "duplicate_escaped_id", "duplicate_n_rb",
            "space_before_id_comma", "tab_pad", "pad_after_digits",
            "separator_off_by_one", "one_byte_short", "one_byte_long", "other_width",
            "other_n_rb", "backslash_in_id", "delete_in_id", "non_ascii_id_same_length",
            "width_19_int64_max",
            "width_20",
            # Loads on its own; in a file, its layout is refused.
            "other_segments",
        }
        for name, case in CASES.items():
            refused = False
            for k, text in enumerate(case):
                try:
                    trace_from_dict(json.loads(text))
                except (ValueError, TraceFileError):
                    refused = True
            assert refused == (name not in loads), name

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(sorted(CASES)), max_size=3), st.randoms())
    def test_mixed_cases_read_like_json(self, tmp_path_factory, names, rnd):
        lines = [good_line(k) for k in range(150)]
        for name in names:
            at = rnd.randrange(len(lines))
            lines[at:at] = CASES[name]
        path = tmp_path_factory.mktemp("mixed") / "case.jsonl"
        path.write_bytes("".join(lines).encode())
        assert_reads_like_reference(path)


def simulated_file(tmp_path):
    path = tmp_path / "traces.jsonl"
    assert main(["simulate", "--out", str(path), "--traces", "9", "--seed", "7", "--quiet"]) == 0
    return path


class TestReaderFastPath:
    def test_simulate_output_never_takes_the_line_path(self, tmp_path, monkeypatch):
        path = simulated_file(tmp_path)
        want = reference_read(path)

        def refuse(self, line_number, line):
            raise AssertionError(f"line path taken at line {line_number}")

        monkeypatch.setattr(traceio._TableReader, "_read_line", refuse)
        assert table_rows(read_traces_jsonl(path)) == want

    def test_each_distinct_head_is_checked_once_per_block(self, tmp_path, monkeypatch):
        """Within a bin, simulate writes lines that differ only in trace_id
        and counts, each as long as the others; with two bins to a block, a
        block is two runs, and each run's head is parsed with json once and
        checked once: two parses and checks a block, not 64."""
        per_bin = traceio._FILL_BLOCK // 2
        path = tmp_path / "traces.jsonl"
        assert main([
            "simulate", "--out", str(path), "--traces", str(per_bin), "--seed", "7", "--quiet",
        ]) == 0
        want = reference_read(path)
        blocks = range(0, len(want), traceio._FILL_BLOCK)
        heads = sum(
            len({row[1:4] for row in want[k:k + traceio._FILL_BLOCK]}) for k in blocks
        )
        assert heads == 2 * len(blocks)
        parsed, checked = [], []
        real_parse, real_check = traceio._parse_head, traceio._trace_fields

        def parse_spy(text):
            parsed.append(text)
            return real_parse(text)

        def check_spy(obj, segment_maps):
            checked.append(obj["n_rb"])
            return real_check(obj, segment_maps)

        monkeypatch.setattr(traceio, "_parse_head", parse_spy)
        monkeypatch.setattr(traceio, "_trace_fields", check_spy)
        assert table_rows(read_traces_jsonl(path)) == want
        assert len(parsed) == len(checked) == heads

    def test_a_last_line_with_no_newline_joins_its_run(self, tmp_path, monkeypatch):
        path = simulated_file(tmp_path)
        path.write_text(path.read_text().rstrip("\n"))
        want = reference_read(path)

        def refuse(self, line_number, line):
            raise AssertionError(f"line path taken at line {line_number}")

        monkeypatch.setattr(traceio._TableReader, "_read_line", refuse)
        assert table_rows(read_traces_jsonl(path)) == want


def test_variable_width_file_reads_and_analyzes_alike(tmp_path):
    """A default campaign at 60 traces a bin, each line rewritten as
    json.dumps of its record (the variable-width counts earlier builds
    wrote), reads to the same table as the file simulate wrote, and analyze
    and fit write the same bytes from it."""
    paths = {}
    for spelling in ("fixed", "variable"):
        (tmp_path / spelling).mkdir()
        paths[spelling] = tmp_path / spelling / "traces.jsonl"
    assert main([
        "simulate", "--out", str(paths["fixed"]), "--traces", "60", "--seed", "1234", "--quiet",
    ]) == 0
    with open(paths["fixed"]) as src, open(paths["variable"], "w") as dst:
        dst.writelines(json.dumps(json.loads(line)) + "\n" for line in src)
    fixed, variable = (read_traces_jsonl(paths[k]) for k in ("fixed", "variable"))
    assert table_rows(variable) == table_rows(fixed)
    assert np.array_equal(variable.counts, fixed.counts)
    outputs = {}
    for spelling, path in paths.items():
        root = path.parent
        assert main(["analyze", str(path), "--out", str(root / "analysis")]) == 0
        assert main(["fit", str(path), "--out", str(root / "fit"), "--bootstrap", "20"]) == 0
        outputs[spelling] = {
            str(p.relative_to(root)): p.read_bytes()
            for sub in ("analysis", "fit") for p in sorted((root / sub).iterdir())
        }
    assert len(outputs["fixed"]) == 20
    assert outputs["variable"] == outputs["fixed"]
