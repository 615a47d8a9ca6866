"""The block codec of trace files against json, one line at a time.

trace_lines formats a whole count matrix at once and read_traces_jsonl
parses a block's count texts with one numpy call. The references here are
json.dumps(trace_record(...)) for the writer and json.loads plus
trace_from_dict (reference.py), line by line, for the reader; every
comparison is exact.
"""

import json
import warnings

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


def reference_lines(trace_ids, n_rb, bin_s, segments, counts):
    return "".join(
        json.dumps(trace_record(t, n_rb, bin_s, segments, row)) + "\n"
        for t, row in zip(trace_ids, np.asarray(counts).tolist())
    )


# Counts next to the table's edge and to where their digit count changes.
EDGES = [0, 9, 10, 99, 100, 65535, 65536, 10**18 - 1, 10**18, INT64_MAX]


class TestWriter:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 5).flatmap(lambda rows: st.lists(
            st.lists(
                st.one_of(
                    st.sampled_from(EDGES),
                    st.integers(0, 70000),
                    st.integers(0, INT64_MAX),
                ),
                min_size=6, max_size=6,
            ),
            min_size=rows, max_size=rows,
        )),
        st.text(max_size=8),
    )
    @example([EDGES[:6], EDGES[4:]], "b00t0000")
    @example([], "none")
    def test_matches_json_dumps(self, rows, prefix):
        counts = np.array(rows, dtype=np.int64).reshape(len(rows), 6)
        ids = [f"{prefix}{k}" for k in range(len(rows))]
        got = trace_lines(ids, 1320.0, 0.02, SEG, counts)
        assert got == reference_lines(ids, 1320.0, 0.02, SEG, counts)

    def test_table_spells_every_count_as_python_does(self):
        """Word k, its NULs stripped, is "k, "; its NULs only trail, and
        the length table holds each text's length."""
        words, lengths = traceio._count_text_table()
        assert words.dtype == np.uint64 and lengths.dtype == np.uint8
        assert len(words) == len(lengths) == traceio._TABLE_COUNTS
        assert not words.flags.writeable and not lengths.flags.writeable
        for k, (word, length) in enumerate(zip(words, lengths.tolist())):
            spelt = word.tobytes()
            assert spelt.replace(b"\0", b"") == f"{k}, ".encode("ascii")
            assert spelt == spelt[:length] + b"\0" * (8 - length)

    def test_a_bin_interleaves_tabled_and_json_rows(self):
        """One bin whose rows hold counts of every digit length from 1 to 5,
        some with 65535 (tabled) and some with 65536 (written by json), so
        the row spans of the tabled text skip the json rows."""
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
        assert got == reference_lines(ids, 1540.0, 0.02, SEG, counts)

    @pytest.mark.parametrize("value", EDGES)
    def test_one_column(self, value):
        # No SegmentMap has one bin (detect and background hold one each),
        # but the matrix may.
        counts = np.array([[value], [7], [value]], dtype=np.int64)
        got = trace_lines(["a", "b", "c"], -0.0, 0.05, SEG, counts)
        assert got == reference_lines(["a", "b", "c"], -0.0, 0.05, SEG, counts)

    def test_zero_rows_and_zero_columns(self):
        assert trace_lines([], 0.0, 0.02, SEG, np.zeros((0, 6), dtype=np.int64)) == ""
        # No SegmentMap has zero bins, but the matrix may.
        got = trace_lines(["e"], 0.0, 0.02, SEG, np.zeros((1, 0), dtype=np.int64))
        assert got == reference_lines(["e"], 0.0, 0.02, SEG, [[]])

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64, np.float64, bool])
    def test_other_dtypes_match_json(self, dtype):
        counts = np.array([[1, 0, 2, 3, 1, 1], [5, 4, 3, 2, 1, 0]]).astype(dtype)
        got = trace_lines(["x", 'q"\\'], 440.0, 0.02, SEG, counts)
        assert got == reference_lines(["x", 'q"\\'], 440.0, 0.02, SEG, counts)

    def test_negative_count_matches_json(self):
        counts = np.array([[1, -1, 2, 3, 1, 1], [1, 2, 3, 4, 5, 6]], dtype=np.int64)
        got = trace_lines(["n", "p"], 0.0, 0.02, SEG, counts)
        assert got == reference_lines(["n", "p"], 0.0, 0.02, SEG, counts)

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
            assert got == json.dumps(trace_to_dict(t)) + "\n"


GOOD_COUNTS = [100, 300, 200, 0, 100, 100]


def good_line(k):
    return trace_lines([f"g{k}"], 220.0, 0.02, SEG, np.array([GOOD_COUNTS]))


def with_counts(text):
    """A good line whose counts are spelt as text."""
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
    "non_ascii_id": [good_line(0).replace('"g0"', '"é☃"')],
    "nested_counts_key": [
        good_line(0).replace('"background": [4, 6]}', '"background": [4, 6], "counts": [1]}')
    ],
    # Heads the reader may split after a plain trace_id, and near misses.
    "escaped_quote_id": [good_line(0).replace('"g0"', '"g\\"0"')],
    "escaped_backslash_id": [good_line(0).replace('"g0"', '"g\\\\0"')],
    "unicode_escape_id": [good_line(0).replace('"g0"', '"caf\\u00e9"')],
    "raw_tab_id": [good_line(0).replace('"g0"', '"g\t0"')],
    "empty_id": [good_line(0).replace('"g0"', '""')],
    "unterminated_id": [good_line(0).replace('"g0"', '"g0')],
    "numeric_id": [good_line(0).replace('"g0"', "7")],
    "duplicate_id": [good_line(0).replace('"bin_s"', '"trace_id": "", "bin_s"')],
    "duplicate_escaped_id": [
        good_line(0).replace('"bin_s"', '"trace\\u005fid": "d", "bin_s"')
    ],
    "duplicate_n_rb": [good_line(0).replace('"segments"', '"n_rb": 440.0, "segments"')],
    "space_before_id_comma": [good_line(0).replace('"g0",', '"g0" ,')],
    "missing_id_comma": [good_line(0).replace('"g0", ', '"g0"  ')],
}


def reference_read(path):
    """json.loads and trace_from_dict line by line: the list of
    (trace_id, n_rb, bin_s, segments, counts), or the first TraceFileError."""
    rows = []
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                return TraceFileError(f"not valid JSON ({exc.msg})", i)
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
            "space_before_id_comma",
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

        def refuse(self, block):
            raise AssertionError(f"line path taken at line {block[0][0]}")

        monkeypatch.setattr(traceio._TableReader, "_read_block_lines", refuse)
        assert table_rows(read_traces_jsonl(path)) == want

    def test_each_distinct_head_is_checked_once_per_block(self, tmp_path, monkeypatch):
        """Within a bin, simulate writes heads that differ only in trace_id;
        with two bins to a block, a block checks two heads, not 64."""
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
        checked = []
        real = traceio._trace_fields

        def spy(obj, segment_maps):
            checked.append(obj["n_rb"])
            return real(obj, segment_maps)

        monkeypatch.setattr(traceio, "_trace_fields", spy)
        assert table_rows(read_traces_jsonl(path)) == want
        assert 0 < len(checked) <= heads

    @pytest.mark.parametrize("failure", ["raises", "warns", "short"])
    def test_a_doubtful_parse_falls_back(self, tmp_path, monkeypatch, failure):
        """numpy 2.x raises on text it cannot parse, and 1.x warns and
        stops short; either way the block is read by json."""
        path = simulated_file(tmp_path)
        want = reference_read(path)
        real = np.fromstring

        def doubtful(text, dtype, sep):
            values = real(text, dtype=dtype, sep=sep)
            if failure == "raises":
                raise ValueError("string or file could not be read to its end")
            if failure == "warns":
                warnings.warn("string or file could not be read to its end", DeprecationWarning)
                return values + 1
            return values[:-1]

        monkeypatch.setattr(traceio.np, "fromstring", doubtful)
        # As outside the test suite, where a DeprecationWarning is not an error.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            assert table_rows(read_traces_jsonl(path)) == want
