"""File formats: JSON-lines traces and trajectory dumps, CSV summaries.

One JSON object per line keeps multi-thousand-trace campaigns streamable and
diffable. Readers validate eagerly and report the offending line number.

trace_lines writes each bin's counts right-aligned to one width, that of
the bin's largest count ("[   0,  103, 1021]", JSON that json.loads reads
as the same integers), and builds the text of a bin's counts as one uint8
matrix. Reading back, read_traces_jsonl takes each run of equal-length
lines in that form as one (lines x bytes) matrix: its head is parsed with
json once, and the rows are checked and their counts parsed with a few
numpy operations on the whole matrix. Any other line is read with json,
its fields checked by _trace_fields and its counts by _count_row as soon as
the line is parsed, so the first bad line is the first refused. A file
holds one segment map and bin width, that of its first trace line, and the
table one count matrix. The reader checks each line so that a refusal
names it; the segment rules are SegmentMap's own, and the TraceTable it
returns checks its whole matrix once more on construction.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

import numpy as np

from .gillespie import EventKind, EventTable
from .inference import BinnedDataset, NrbBin
from .photon import FluorescenceTrace, SegmentMap, TraceTable

__all__ = [
    "TraceFileError",
    "trace_record",
    "trace_lines",
    "trace_to_dict",
    "read_traces_jsonl",
    "trajectory_records",
    "write_histogram_csv",
    "write_bins_csv",
    "read_bins_csv",
    "write_curve_csv",
    "write_report_json",
]


class TraceFileError(ValueError):
    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


def trace_record(
    trace_id: str, n_rb: float, bin_s: float, segments: SegmentMap, counts: list
) -> dict:
    """The JSON object of one trace line; counts is a list of ints.

    trace_to_dict and the simulate stage both serialize through it, so the
    key order of the file has one definition.
    """
    return {
        "trace_id": trace_id,
        "n_rb": n_rb,
        "bin_s": bin_s,
        "segments": {
            "detect": list(segments.detect),
            "off": list(segments.off),
            "background": list(segments.background),
        },
        "counts": counts,
    }


@functools.lru_cache(maxsize=1)
def _group_tables() -> tuple[np.ndarray, np.ndarray]:
    """The text of each count below 10**4 in four bytes, one uint32 word
    each, built on first use: zero-padded ("0042"), and right-aligned with
    spaces ("  42"). Both are read-only."""
    k = np.arange(10**4, dtype=np.int16)[:, np.newaxis]
    digits = (k // np.array([1000, 100, 10, 1], dtype=np.int16) % 10).astype(np.uint8)
    digits += np.uint8(ord("0"))
    shown = k >= np.array([1000, 100, 10, 0], dtype=np.int16)
    spaced = np.where(shown, digits, np.uint8(ord(" ")))
    tables = digits.view(np.uint32).ravel(), spaced.view(np.uint32).ravel()
    for table in tables:
        table.flags.writeable = False
    return tables


_INT64_MAX = int(np.iinfo(np.int64).max)
# The widest count: _INT64_MAX has 19 digits.
_MAX_WIDTH = 19
# Column j of a count right-aligned to width w holds a digit, not a pad,
# when the count is at least _FLOORS[-w:][j]: the units column always does.
_FLOORS = np.array([10**k for k in range(_MAX_WIDTH - 1, 0, -1)] + [0], dtype=np.int64)
# A trace_id json.dumps writes as no other part of a trace record.
_ID_MARK = "\x00"


def _count_text(counts: np.ndarray, width: int) -> np.ndarray:
    """The text that closes each line of an int64 count matrix, as a
    (rows, bytes) uint8 matrix: the row's counts, each right-aligned with
    spaces to width and followed by ", ", the last ", " replaced by
    "]}\n".

    Each count must be within 0 and 10**width - 1 to be spelt as itself;
    any other value is spelt as something else, in digits and spaces, and
    never fails. The digits come four at a time from _group_tables.
    """
    rows, n_bins = counts.shape
    digit_groups, count_groups = _group_tables()
    if width <= 4:
        words = count_groups.take(counts, mode="clip")
        digits = words.view(np.uint8).reshape(rows, n_bins, 4)[:, :, 4 - width:]
    else:
        groups = -(-width // 4)
        words = np.empty((rows, n_bins, groups), dtype=np.uint32)
        rest = counts
        for g in range(groups - 1, -1, -1):
            rest, low = np.divmod(rest, 10**4)
            words[:, :, g] = digit_groups[low]
        digits = np.where(
            counts[:, :, np.newaxis] >= _FLOORS[-width:],
            words.view(np.uint8).reshape(rows, n_bins, 4 * groups)[:, :, 4 * groups - width:],
            np.uint8(ord(" ")),
        )
    # A line of no counts closes too; no segment map has no bins, but the
    # matrix may.
    text = np.empty((rows, max(n_bins * (width + 2), 2) + 1), dtype=np.uint8)
    cells = text[:, :n_bins * (width + 2)].reshape(rows, n_bins, width + 2)
    # Column by column: numpy copies a column of cells far faster than a
    # block of a few bytes per cell.
    for j in range(width):
        cells[:, :, j] = digits[:, :, j]
    cells[:, :, width] = ord(",")
    cells[:, :, width + 1] = ord(" ")
    text[:, -3:] = np.frombuffer(b"]}\n", dtype=np.uint8)
    return text


def trace_lines(
    trace_ids: "Sequence[str]", n_rb: float, bin_s: float, segments: SegmentMap, counts
) -> str:
    """The JSON lines of traces that share n_rb, bin_s and segments, one
    per row of the (len(trace_ids), n_bins) count matrix.

    Each line is json.dumps(trace_record(...)) but for its counts, which
    are right-aligned with spaces to the width of the matrix's largest
    count, "[   0,  103, 1021]": json.loads reads it as the record, and
    read_traces_jsonl reads a bin's lines as one byte matrix. The text
    before the counts comes from json.dumps of trace_record, the rest of
    every line from one _count_text matrix. The counts must be integers
    within 0 and INT64_MAX: a matrix of another dtype is refused with a
    ValueError, and one with a count out of bounds names its first row
    that holds one.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or len(counts) != len(trace_ids):
        raise ValueError(
            f"counts must be a ({len(trace_ids)}, n_bins) matrix, got shape {counts.shape}"
        )
    if counts.dtype.kind not in "iu":
        raise ValueError(f"counts must be integers, got a {counts.dtype} matrix")
    # A uint64 count past int64 turns negative here, and is refused.
    checked = counts.astype(np.int64, copy=False)
    bad = np.flatnonzero((checked < 0).any(axis=1))
    if len(bad):
        row = bad[0]
        raise ValueError(
            f"trace {trace_ids[row]!r} (row {row}) has a count outside 0 to "
            f"{_INT64_MAX}: {counts[row][checked[row] < 0][0]}"
        )
    template = json.dumps(trace_record(_ID_MARK, n_rb, bin_s, segments, []))
    before, after = template.split(json.dumps(_ID_MARK))
    after = after.removesuffix("]}")
    width = len(str(int(checked.max()))) if checked.size else 1
    text = _count_text(checked, width)
    body, step = text.tobytes().decode("ascii"), text.shape[1]
    return "".join([
        f"{before}{json.dumps(trace_id)}{after}{body[k * step:(k + 1) * step]}"
        for k, trace_id in enumerate(trace_ids)
    ])


def trace_to_dict(trace: FluorescenceTrace) -> dict:
    """The JSON object of one trace. The program writes whole bins with
    trace_lines; this one-trace form stays because the benchmark tracer
    (bench/tracing.py) wraps it by name."""
    return trace_record(
        trace.trace_id, trace.n_rb, trace.bin_s, trace.segments, trace.counts.tolist()
    )


_TRACE_KEYS = frozenset({"trace_id", "n_rb", "bin_s", "segments", "counts"})


def _trace_fields(
    obj, segment_maps: "dict[tuple, SegmentMap]"
) -> tuple[str, float, SegmentMap, float]:
    """trace_id, n_rb, segments and bin_s of a trace object, checked.

    segment_maps caches the validated SegmentMap of each distinct set of
    bounds; the bounds are checked to be ints before the lookup, so a float
    or boolean bound never matches an int one. n_rb and bin_s must be JSON
    numbers and trace_id a string; nothing is coerced. Raises ValueError or
    TypeError for a malformed field; the rules of the segments themselves
    (tiling, a detect and a background bin) are SegmentMap's, whose
    ValueError the reader wraps with the line number like any other.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a trace must be a JSON object, got {type(obj).__name__}")
    if not _TRACE_KEYS <= obj.keys():
        missing = _TRACE_KEYS.difference(obj)
        raise ValueError(f"missing key(s): {', '.join(sorted(missing))}")
    seg_raw = obj["segments"]
    if not isinstance(seg_raw, dict):
        raise ValueError(f"segments must be an object, got {seg_raw!r}")
    bounds = []
    for key in ("detect", "off", "background"):
        if key not in seg_raw:
            raise ValueError(f"segments.{key} must be a [start, stop] pair")
        pair = seg_raw[key]
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"segments.{key} must be a [start, stop] pair, got {pair!r}")
        start, stop = pair
        # type(), not isinstance(): a bool is an int too.
        if type(start) is not int or type(stop) is not int:
            raise ValueError(
                f"segments.{key} bounds must be integers, got {seg_raw[key]!r}"
            )
        bounds.append((start, stop))
    key = tuple(bounds)
    segments = segment_maps.get(key)
    if segments is None:
        segments = segment_maps[key] = SegmentMap(*bounds)
    for key in ("n_rb", "bin_s"):
        if type(obj[key]) not in (int, float):
            raise ValueError(f"{key} must be a number, got {obj[key]!r}")
    n_rb = float(obj["n_rb"])
    if not math.isfinite(n_rb):
        raise ValueError(f"n_rb must be finite, got {n_rb!r}")
    bin_s = float(obj["bin_s"])
    if not (math.isfinite(bin_s) and bin_s > 0):
        raise ValueError(f"bin_s must be finite and positive, got {bin_s!r}")
    trace_id = obj["trace_id"]
    if not isinstance(trace_id, str):
        raise ValueError(f"trace_id must be a string, got {trace_id!r}")
    return trace_id, n_rb, segments, bin_s


def _count_row(raw, n_bins: int) -> np.ndarray:
    """One JSON counts value as int64 counts; raises ValueError, or what
    np.asarray raises for the value, unless it is a flat list of n_bins
    non-negative integers within int64.

    The dtype numpy infers for the list tells it almost all: floats,
    booleans, unsigned (past int64) and object (past uint64, or mixed)
    arrays are refused, as is any shape but one dimension. Booleans mixed
    with integers infer int64, so the list is also scanned for them.
    """
    counts = np.asarray(raw)
    if counts.ndim != 1:
        raise ValueError(f"counts must be a flat list, got shape {counts.shape}")
    if counts.dtype.kind != "i" and counts.size:
        raise ValueError(f"counts must be integers within int64, got {counts.dtype} values")
    if bool in map(type, raw):
        raise ValueError("counts must be integers within int64, got booleans")
    if len(counts) != n_bins:
        raise ValueError(
            f"counts length {len(counts)} does not match segment map "
            f"({n_bins} bins)"
        )
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    return counts.astype(np.int64, copy=False)


# Non-blank lines read as one block, whose runs of equal-length lines are
# each parsed as one byte matrix. It bounds the text held at once, and is
# the count matrix's first capacity in rows.
_FILL_BLOCK = 64

# How a line trace_lines writes opens, up to the text of its trace_id; the
# key its counts follow; and how it closes.
_ID_OPEN = '{"trace_id": "'
_COUNTS_KEY = ', "counts": ['
_LINE_END = "]}\n"
_HEAD_DECODER = json.JSONDecoder()


def _parse_head(text: str) -> dict:
    """The object text spells in whole, with a counts key set to None (an
    earlier counts key is one json would overwrite too); raises ValueError
    for anything else."""
    head, end = _HEAD_DECODER.raw_decode(text)
    if end != len(text):
        raise ValueError("text after the head")
    head["counts"] = None
    return head


def _byte_matrix(lines: "list[str]") -> np.ndarray:
    """Equal-length lines as a (lines, length) uint8 matrix of their ASCII
    bytes; a line with any other character gets a NUL for its first byte,
    which no line trace_lines writes opens with."""
    text = "".join(lines)
    if text.isascii():
        return np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(len(lines), -1)
    # "replace" spells each other character as one "?", keeping the length.
    matrix = np.frombuffer(bytearray(text.encode("ascii", "replace")), dtype=np.uint8)
    matrix = matrix.reshape(len(lines), -1)
    matrix[[not line.isascii() for line in lines], 0] = 0
    return matrix


def _parse_counts(text: np.ndarray, n_bins: int, width: int) -> np.ndarray:
    """The (rows, n_bins) int64 counts of a matrix of count text, each count
    width bytes and two more (", " or "]}"), read from the low four bits of
    each byte: a digit's value, 0 for a pad.

    Any other text reads as some number; _TableReader._read_fixed keeps a
    row only if _count_text spells its numbers back as the row's text. Up to
    7 columns of at most 15 sum to less than 2**24, exact in float32 (the
    fastest product numpy has); wider counts are summed in uint64, where 19
    columns cannot overflow, and a sum past int64 turns negative.
    """
    kind = np.float32 if width <= 7 else np.uint64
    # The two bytes after each count have place value 0.
    places = np.array([10**k for k in range(width - 1, -1, -1)] + [0, 0], dtype=kind)
    nibbles = (text & np.uint8(0x0F)).astype(kind).reshape(len(text), n_bins, width + 2)
    return (nibbles @ places).astype(np.int64)


class _TableReader:
    """The columns of a trace table as read_traces_jsonl reads them, one
    block of lines at a time.

    The layout (segments, bin_s) is that of the first trace line, and a
    line with another is refused. counts grows in place (ndarray.resize)
    by half its rows whenever the checked int64 rows added do not fit, and
    is cut to the rows filled at the end; the file is read once, so a pipe
    works as well as a file.
    """

    def __init__(self):
        self.trace_ids: list[str] = []
        self.n_rb: list[float] = []
        self.segment_maps: dict[tuple, SegmentMap] = {}
        self.layout: tuple[SegmentMap, float] | None = None
        self.first_line = 0
        self.counts = np.empty((0, 0), dtype=np.int64)

    def _add(
        self, line_number: int, trace_ids: "list[str]", n_rb: "list[float]",
        layout: tuple[SegmentMap, float], rows: np.ndarray,
    ) -> None:
        """Append checked rows with their ids and n_rb; the first rows fix
        the layout, line_number being the first's line."""
        if self.layout is None:
            self.layout = layout
            self.first_line = line_number
            self.counts = np.empty((_FILL_BLOCK, rows.shape[1]), dtype=np.int64)
        filled, n = len(self.trace_ids), len(rows)
        if filled + n > len(self.counts):
            grown = max(filled + n, len(self.counts) * 3 // 2)
            self.counts.resize((grown, rows.shape[1]), refcheck=False)
        self.counts[filled:filled + n] = rows
        self.trace_ids.extend(trace_ids)
        self.n_rb.extend(n_rb)

    def read_block(self, block: "list[tuple[int, str]]") -> None:
        """Add the (line number, line) pairs of a block, each line ending in
        a newline; raise the TraceFileError of its first bad line, if it has
        one. Each run of equal-length lines goes to _read_run."""
        for _, run in itertools.groupby(block, key=lambda item: len(item[1])):
            self._read_run(list(run))

    def _read_run(self, run: "list[tuple[int, str]]") -> None:
        """Add a run of equal-length lines in order: from each line that
        opens a fixed-width stretch (_fixed_form), the rows _read_fixed
        takes, and any other line with json (_read_block_lines). The run's
        byte matrix is built once, when a stretch first needs it."""
        matrix = None
        i = 0
        while i < len(run):
            form = self._fixed_form(run[i][1])
            taken = 0
            if form is not None:
                if matrix is None:
                    matrix = _byte_matrix([line for _, line in run])
                taken = self._read_fixed(run[i:], matrix[i:], *form)
            if not taken:
                self._read_block_lines(run[i:i + 1])
                taken = 1
            i += taken

    def _fixed_form(self, line: str) -> "tuple | None":
        """How a line in the form trace_lines writes lays out, in the
        table's layout: its (n_rb, segments, bin_s), the column of the quote
        that closes its trace_id, the column of its first count and the
        width of its counts. None for any other line.

        The line must be ASCII, and its head (the text before the last
        _COUNTS_KEY) open with _ID_OPEN and an id up to the next quote,
        then ", "; the rest, parsed with json as an object of its own, must
        hold no trace_id key (json would let a second one win over the
        first) and pass _trace_fields. The counts must be segments.n_bins
        cells of one width, at most _MAX_WIDTH, each followed by ", " (the
        last by _LINE_END); _read_fixed checks their bytes.
        """
        quote = line.find('"', len(_ID_OPEN))
        at = line.rfind(_COUNTS_KEY)
        if not (
            line.isascii()
            and line.startswith(_ID_OPEN)
            and line.endswith(_LINE_END)
            and 0 < quote < at
            and line.startswith(', "', quote + 1)
        ):
            return None
        start = at + len(_COUNTS_KEY)
        # Each count takes its width and two bytes more: ", ", or the "]}"
        # that closes the line. Checked before the head, as it is cheaper.
        text = line[start:-1]
        cell = text.find(",") + 2
        n_bins, rest = divmod(len(text), cell)
        if (
            not 3 <= cell <= _MAX_WIDTH + 2
            or rest
            or text[cell - 2::cell] != "," * (n_bins - 1) + "]"
        ):
            return None
        try:
            obj = _parse_head("{" + line[quote + 3:at] + "}")
            if "trace_id" in obj:
                return None
            obj["trace_id"] = ""
            _, n_rb, segments, bin_s = _trace_fields(obj, self.segment_maps)
        except (TypeError, ValueError, OverflowError):
            return None
        if self.layout not in (None, (segments, bin_s)) or segments.n_bins != n_bins:
            return None
        return (n_rb, segments, bin_s), quote, start, cell - 2

    def _read_fixed(
        self, run: "list[tuple[int, str]]", matrix: np.ndarray,
        fields: tuple[float, SegmentMap, float], id_end: int, start: int, width: int,
    ) -> int:
        """Add the longest stretch of the run's lines, from its first, that
        read as the first does but for trace_id and counts; return how many
        it took (0 when the first line's own id or counts are not in form).

        The lines' (lines, bytes) matrix is checked as a whole: every byte
        before the counts but the ids' equal to the first line's, each id
        printable ASCII with no quote or backslash (text json reads as
        itself), and the text from the counts on exactly what _count_text
        spells for the counts _parse_counts reads from it. Such a line is
        what json reads as the first line's fields, with its own id and
        counts.
        """
        n_rb, segments, bin_s = fields
        rows, n_bins = len(matrix), segments.n_bins
        head = matrix[:, :start]
        same = head == head[0]
        same[:, len(_ID_OPEN):id_end] = True
        ok = same.all(axis=1)
        ids = head[:, len(_ID_OPEN):id_end]
        ok &= (
            (ids - np.uint8(ord(" ")) < 0x5F) & (ids != ord('"')) & (ids != ord("\\"))
        ).all(axis=1)
        values = _parse_counts(matrix[:, start:-1], n_bins, width)
        ok &= (matrix[:, start:] == _count_text(values, width)).all(axis=1)
        taken = rows if ok.all() else int(np.argmin(ok))
        if taken:
            trace_ids = [line[len(_ID_OPEN):id_end] for _, line in run[:taken]]
            self._add(
                run[0][0], trace_ids, [n_rb] * taken, (segments, bin_s), values[:taken]
            )
        return taken

    def _read_block_lines(self, block: "list[tuple[int, str]]") -> None:
        """Add a block line by line: each line parsed with json, its fields
        checked by _trace_fields, its layout against the table's and its
        counts converted by _count_row."""
        for i, line in block:
            try:
                obj = json.loads(line)
                trace_id, n_rb, segments, bin_s = _trace_fields(obj, self.segment_maps)
                if self.layout not in (None, (segments, bin_s)):
                    first_segments, first_bin_s = self.layout
                    raise ValueError(
                        f"{segments!r} and bin_s {bin_s!r} differ from line "
                        f"{self.first_line}'s {first_segments!r} and bin_s "
                        f"{first_bin_s!r}: a traces file holds one segment map "
                        f"and bin width"
                    )
                counts = _count_row(obj["counts"], segments.n_bins)
            except json.JSONDecodeError as exc:
                raise TraceFileError(f"not valid JSON ({exc.msg})", i) from exc
            except (TypeError, ValueError, OverflowError) as exc:
                raise TraceFileError(str(exc), i) from exc
            self._add(i, [trace_id], [n_rb], (segments, bin_s), counts[np.newaxis])

    def table(self) -> TraceTable:
        segments, bin_s = self.layout
        self.counts.resize((len(self.trace_ids), segments.n_bins), refcheck=False)
        return TraceTable(self.trace_ids, self.n_rb, segments, bin_s, self.counts)


def read_traces_jsonl(path: "str | Path") -> TraceTable:
    """Read a traces file into a TraceTable.

    The file is read in blocks of _FILL_BLOCK non-blank lines. A block's
    lines in the form trace_lines writes (each count right-aligned to one
    width) are read a stretch at a time: equal-length lines that differ
    only in trace_id and counts are checked and parsed as one byte matrix,
    with one json parse of the stretch's head (see _TableReader._read_fixed).
    Any other line (variable-width counts, CRLF endings, reordered keys) is
    parsed with json. Either way each line's scalar fields and segment
    layout are checked, and its counts go to the table's one int64 count
    matrix. Every line must have the segments and bin_s of the first: a
    file that mixes segment maps or bin widths is refused at the first line
    that differs. Any refusal names the first bad line of the file.
    """
    reader = _TableReader()
    with open(path) as fh:
        # Only the last line may lack its newline; with one, it reads alike.
        lines = (
            (i, line if line.endswith("\n") else line + "\n")
            for i, line in enumerate(fh, start=1)
            if not line.isspace()
        )
        while block := list(itertools.islice(lines, _FILL_BLOCK)):
            reader.read_block(block)
    if not reader.trace_ids:
        raise TraceFileError(f"{path}: no traces found")
    return reader.table()


def trajectory_records(trace_ids: "Sequence[str]", table: EventTable) -> Iterator[dict]:
    """The dump record of every shot of an event table, in order: its id,
    n_rb, seed, window end and one [time, kind, atom number after] per event."""
    names = [kind.value for kind in EventKind]
    time, kind, level = table.time.tolist(), table.kind.tolist(), table.level.tolist()
    bounds = table.offsets.tolist()
    shots = zip(
        trace_ids, bounds[:-1], bounds[1:],
        table.n_rb.tolist(), table.seed.tolist(), table.t_end.tolist(),
        strict=True,
    )
    for trace_id, lo, hi, n_rb, seed, t_end in shots:
        yield {
            "trace_id": trace_id,
            "n_rb": n_rb,
            "seed": seed,
            "t_end_s": t_end,
            "events": [[time[j], names[kind[j]], level[j]] for j in range(lo, hi)],
        }


def write_histogram_csv(
    path: "str | Path", bin_edges: np.ndarray, occurrences: np.ndarray
) -> None:
    """One row per histogram bin: its center and its occurrences."""
    centers = 0.5 * (bin_edges[:-1] + bin_edges[1:])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_center", "occurrences"])
        for center, occ in zip(centers, occurrences):
            writer.writerow([repr(float(center)), int(occ)])


# The bins.csv record, one entry per column in file order: (column, NrbBin
# attribute, kind, read rule). Int cells are written as they are and float
# cells by repr, so a reread gives the same bits (the ratio is inf with no
# losses). read_bins_csv skips a column whose rule is None, parses the
# others as their kind, then refuses a non-finite float in a column with a
# rule, a negative value in a "non-negative" one and a value not above zero
# in a "positive" one, in that order. poisson_lambda is NaN when
# unresolved. detect_time_s must be positive: its square weights the
# loading fit, so a negative value would pass unseen, and a zero one drops
# its bin.
_BIN_COLUMNS = (
    ("n_rb_center", "center", float, "finite"),
    ("n_traces", "n_traces", int, "non-negative"),
    ("mean_n_cs", "mean_n_cs", float, "finite"),
    ("se_mean_n_cs", "se_mean_n_cs", float, "non-negative"),
    ("loading_rate_per_s", "loading_rate", float, "finite"),
    ("load_count", "load_count", int, "non-negative"),
    ("loss_counts_per_time_per_s", "loss_counts_per_time", float, "finite"),
    ("loss_atom_count", "loss_atoms", int, "non-negative"),
    ("detect_time_s", "detect_time_s", float, "positive"),
    ("poisson_lambda", "poisson_lambda", float, ""),
    ("ratio_load_loss", "load_loss_ratio", float, None),
)


def _bin_to_row(b: NrbBin) -> list:
    return [
        getattr(b, attribute) if kind is int else repr(float(getattr(b, attribute)))
        for _, attribute, kind, _ in _BIN_COLUMNS
    ]


def write_bins_csv(
    path: "str | Path", binned: BinnedDataset, labels: "list[str] | None" = None
) -> None:
    """One row per bin; labels, one per bin, add a last column, state. A
    labels list of another length is refused, never truncated to fit."""
    header = [column for column, *_ in _BIN_COLUMNS]
    rows = map(_bin_to_row, binned.bins)
    if labels is not None:
        if len(labels) != len(binned.bins):
            raise ValueError(
                f"labels holds {len(labels)} entries for {len(binned.bins)} bins"
            )
        header.append("state")
        rows = (row + [label] for row, label in zip(rows, labels))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _bin_values(row: dict) -> dict:
    """The NrbBin attributes of one bins.csv row, checked by _BIN_COLUMNS;
    a refusal names the column."""
    read = [entry for entry in _BIN_COLUMNS if entry[3] is not None]
    values = {}
    for column, attribute, kind, _ in read:
        try:
            values[attribute] = kind(row[column])
        except (TypeError, ValueError):
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"{column} must be {what}, got {row[column]!r}") from None
    for column, attribute, kind, rule in read:
        if kind is float and rule and not math.isfinite(values[attribute]):
            raise ValueError(f"{column} must be finite, got {row[column]!r}")
    for bound, holds in (("non-negative", lambda v: v >= 0), ("positive", lambda v: v > 0)):
        for column, attribute, _, rule in read:
            if rule == bound and not holds(values[attribute]):
                raise ValueError(f"{column} must be {bound}, got {row[column]!r}")
    return values


def read_bins_csv(path: "str | Path") -> BinnedDataset:
    """Rebuild a binned dataset from its CSV export, its bins in order of
    center.

    Trace-level means are not stored in the CSV, so a dataset read this way
    supports every fit except the bootstrap. A cell that is
    not a number (an integer in a count column) is refused, naming its line
    and column, as are a NaN or infinite value in a column the fits read, a
    negative count or standard error and a detect_time_s that is not
    positive; so is a repeated n_rb_center, naming both its lines.
    """
    bins: list[NrbBin] = []
    center_lines: dict[float, int] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = {column for column, *_ in _BIN_COLUMNS} - set(reader.fieldnames or [])
        if missing:
            raise TraceFileError(
                f"{path}: missing column(s): {', '.join(sorted(missing))}"
            )
        for i, row in enumerate(reader, start=2):
            try:
                bins.append(NrbBin(**_bin_values(row)))
            except (TypeError, ValueError) as exc:
                raise TraceFileError(str(exc), i) from exc
            first = center_lines.setdefault(bins[-1].center, i)
            if first != i:
                raise TraceFileError(
                    f"n_rb_center {bins[-1].center!r} repeats the bin on line {first}", i
                )
    if not bins:
        raise TraceFileError(f"{path}: no bins found")
    bins.sort(key=lambda b: b.center)
    return BinnedDataset(bins)


def write_curve_csv(path: "str | Path", rows: Iterable[tuple[float, float, str]]) -> None:
    """Model curve for plotting: (n_rb, mean_n_cs, branch)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n_rb", "mean_n_cs", "branch"])
        for n_rb, mean, branch in rows:
            writer.writerow([repr(float(n_rb)), repr(float(mean)), branch])


def write_report_json(path: "str | Path", report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
