"""File formats: JSON-lines traces and trajectory dumps, CSV summaries.

One JSON object per line keeps multi-thousand-trace campaigns streamable and
diffable. Readers validate eagerly and report the offending line number.

The photon counts of a trace file go through one codec that works on whole
blocks of rows: trace_lines formats a count matrix in one vectorized pass,
and read_traces_jsonl parses a block's count texts with one numpy call,
falling back to json line by line for any block not in that form.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
import warnings
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

import numpy as np

from .gillespie import EventKind, EventTable
from .inference import BinnedDataset, NrbBin
from .photon import (
    FluorescenceTrace,
    SegmentMap,
    TraceHistogram,
    TraceLayout,
    TraceTable,
)

__all__ = [
    "TraceFileError",
    "trace_record",
    "trace_lines",
    "trace_to_dict",
    "read_traces_jsonl",
    "trajectory_records",
    "write_histogram_csv",
    "BIN_CSV_COLUMNS",
    "bin_to_row",
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


# Counts below _TABLE_COUNTS are formatted from a table of their text, built
# on first use; a row holding any other count goes through json.
_TABLE_COUNTS = 1 << 16
_TABLE_WIDTH = len(f"{_TABLE_COUNTS - 1}, ")
# A trace_id json.dumps writes as no other part of a trace record.
_ID_MARK = "\x00"


@functools.lru_cache(maxsize=1)
def _count_text_table() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII text of "k, " for every k below _TABLE_COUNTS, one
    zero-padded row of _TABLE_WIDTH bytes each, and each text's length;
    both read-only."""
    digits = np.arange(_TABLE_COUNTS).astype(f"S{_TABLE_WIDTH - 2}")
    texts = np.char.add(digits, b", ")
    table = texts.view(np.uint8).reshape(_TABLE_COUNTS, _TABLE_WIDTH)
    lengths = np.char.str_len(texts).astype(np.uint8)
    table.flags.writeable = False
    lengths.flags.writeable = False
    return table, lengths


def trace_lines(
    trace_ids: "Sequence[str]", n_rb: float, bin_s: float, segments: SegmentMap, counts
) -> str:
    """The JSON lines of traces that share n_rb, bin_s and segments, one
    per row of the (len(trace_ids), n_bins) count matrix.

    Each line is byte for byte json.dumps(trace_record(...)) + "\n": the
    text before the counts comes from json.dumps of trace_record, and the
    integer counts below _TABLE_COUNTS are spelt from _count_text_table in
    one gather and one masked compaction. A row with a negative, larger or
    non-integer count is written by json.dumps itself.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or len(counts) != len(trace_ids):
        raise ValueError(
            f"counts must be a ({len(trace_ids)}, n_bins) matrix, got shape {counts.shape}"
        )
    template = json.dumps(trace_record(_ID_MARK, n_rb, bin_s, segments, []))
    before, after = template.split(json.dumps(_ID_MARK))
    after = after.removesuffix("]}")
    if counts.dtype.kind in "iu":
        tabled = ((counts >= 0) & (counts < _TABLE_COUNTS)).all(axis=1)
    else:
        tabled = np.zeros(len(counts), dtype=bool)
    table, lengths = _count_text_table()
    rows = counts[tabled].astype(np.intp, copy=False)
    row_lengths = lengths[rows]
    text = table[rows][np.arange(_TABLE_WIDTH) < row_lengths[..., None]]
    body = text.tobytes().decode("ascii")
    # Each row's text ends in ", "; the "]}" of the line replaces it.
    ends = np.cumsum(row_lengths.sum(axis=1)).tolist()
    starts = [0] + ends[:-1]
    spans = iter(zip(starts, ends))
    lines = []
    for trace_id, fast, row in zip(trace_ids, tabled.tolist(), counts):
        if fast:
            start, end = next(spans)
            lines.append(
                f"{before}{json.dumps(trace_id)}{after}{body[start:max(start, end - 2)]}]}}\n"
            )
        else:
            record = trace_record(trace_id, n_rb, bin_s, segments, row.tolist())
            lines.append(json.dumps(record) + "\n")
    return "".join(lines)


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
    or boolean bound never matches an int one. Raises ValueError or
    TypeError for a malformed field.
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
        if key not in seg_raw or len(seg_raw[key]) != 2:
            raise ValueError(f"segments.{key} must be a [start, stop] pair")
        start, stop = seg_raw[key]
        # type(), not isinstance(): a bool is an int too.
        if type(start) is not int or type(stop) is not int:
            raise ValueError(
                f"segments.{key} bounds must be integers, got {seg_raw[key]!r}"
            )
        bounds.append((start, stop))
    key = tuple(bounds)
    segments = segment_maps.get(key)
    if segments is None:
        segments = SegmentMap(*bounds)
        # SegmentMap allows it, but background subtraction needs one bin.
        if segments.background[1] == segments.background[0]:
            raise ValueError(
                f"the background segment must hold at least one bin, got {segments!r}"
            )
        segment_maps[key] = segments
    n_rb = float(obj["n_rb"])
    if not math.isfinite(n_rb):
        raise ValueError(f"n_rb must be finite, got {n_rb!r}")
    bin_s = float(obj["bin_s"])
    if not (math.isfinite(bin_s) and bin_s > 0):
        raise ValueError(f"bin_s must be finite and positive, got {bin_s!r}")
    return str(obj["trace_id"]), n_rb, segments, bin_s


def _row_problem(raw, n_bins: int, may_hold_bools: bool) -> str | None:
    """Why one JSON counts value is not a flat list of n_bins non-negative
    integers within int64, or None if it is.

    The dtype numpy infers for the list tells it almost all: floats,
    booleans, unsigned (past int64) and object (past uint64, or mixed)
    arrays are refused, as is any shape but one dimension. Booleans mixed
    with integers infer int64, so the list is also scanned for them when
    may_hold_bools is set.
    """
    try:
        counts = np.asarray(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        return str(exc)
    if counts.ndim != 1:
        return f"counts must be a flat list, got shape {counts.shape}"
    if counts.dtype.kind != "i" and counts.size:
        return f"counts must be integers within int64, got {counts.dtype} values"
    if may_hold_bools and any(type(c) is bool for c in raw):
        return "counts must be integers within int64, got booleans"
    if len(counts) != n_bins:
        return (
            f"counts length {len(counts)} does not match segment map "
            f"({n_bins} bins)"
        )
    if np.any(counts < 0):
        return "counts must be non-negative"
    return None


def _count_matrix(
    rows: list, n_bins: int, line_numbers: "list[int | None]", flagged: "list[int]"
) -> np.ndarray:
    """JSON counts values as one int64 (len(rows), n_bins) matrix.

    One np.array call converts the whole block; only when its dtype, shape
    or sign is wrong are the rows checked one by one, for the first bad one.
    The rows at the indices in flagged may hold booleans, which numpy reads
    as integers, and are scanned for them. Raises a TraceFileError naming
    the line of the first bad row.
    """
    try:
        block = np.array(rows)
    except (TypeError, ValueError, OverflowError):
        block = None
    if (
        block is None
        or block.dtype.kind != "i"
        or block.shape != (len(rows), n_bins)
        or (block < 0).any()
    ):
        flags = set(flagged)
        for k, raw in enumerate(rows):
            problem = _row_problem(raw, n_bins, k in flags)
            if problem is not None:
                raise TraceFileError(problem, line_numbers[k])
    for k in flagged:
        if any(type(c) is bool for c in rows[k]):
            raise TraceFileError(
                "counts must be integers within int64, got booleans", line_numbers[k]
            )
    return block.astype(np.int64, copy=False)


# Non-blank lines read as one block: the count texts of a block are parsed
# together, and a block in another form is read line by line. It bounds the
# text and Python int lists held at once, and is a new layout's first
# capacity.
_FILL_BLOCK = 64

# What precedes the counts in a line trace_lines writes; the counts close
# the line, with "]}" and optional whitespace.
_COUNTS_KEY = ', "counts": ['
_JSON_SPACE = " \t\n\r"
_HEAD_DECODER = json.JSONDecoder()


class _LayoutFill:
    """The rows of one layout as read_traces_jsonl fills them.

    counts grows in place (ndarray.resize) by half its rows whenever a
    block does not fit, and is cut to the rows filled at the end; the file
    is read once, so a pipe works as well as a file. Rows come either as a
    checked int64 block (extend) or as JSON lists that wait in pending
    until fill converts them.
    """

    def __init__(self, segments: SegmentMap, bin_s: float):
        self.segments = segments
        self.bin_s = bin_s
        self.counts = np.empty((_FILL_BLOCK, segments.n_bins), dtype=np.int64)
        self.filled = 0
        self.positions: list[int] = []
        self.pending: list = []
        self.pending_lines: list[int] = []
        self.flagged: list[int] = []

    def add(self, position: int, line_number: int, counts, flagged: bool) -> None:
        if flagged:
            self.flagged.append(len(self.pending))
        self.pending.append(counts)
        self.pending_lines.append(line_number)
        self.positions.append(position)

    def extend(self, positions: "list[int]", block: np.ndarray) -> None:
        self.positions.extend(positions)
        self._append(block)

    def _append(self, block: np.ndarray) -> None:
        n = len(block)
        if self.filled + n > len(self.counts):
            rows = max(self.filled + n, len(self.counts) * 3 // 2)
            self.counts.resize((rows, self.segments.n_bins), refcheck=False)
        self.counts[self.filled:self.filled + n] = block
        self.filled += n

    def fill(self) -> TraceFileError | None:
        """Convert the pending counts into the matrix; the error of the
        first bad row instead, if there is one."""
        if not self.pending:
            return None
        try:
            block = _count_matrix(
                self.pending, self.segments.n_bins, self.pending_lines, self.flagged
            )
        except TraceFileError as exc:
            return exc
        self._append(block)
        self.pending = []
        self.pending_lines = []
        self.flagged = []
        return None

    def layout(self) -> TraceLayout:
        self.counts.resize((self.filled, self.segments.n_bins), refcheck=False)
        return TraceLayout(
            segments=self.segments,
            bin_s=self.bin_s,
            positions=np.array(self.positions, dtype=np.intp),
            counts=self.counts,
        )


def _parse_line(line: str, line_number: int, segment_maps: "dict[tuple, SegmentMap]"):
    """The JSON object of one line and its checked _trace_fields."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFileError(f"not valid JSON ({exc.msg})", line_number) from exc
    try:
        return obj, _trace_fields(obj, segment_maps)
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceFileError(str(exc), line_number) from exc


def _count_values(texts: "list[str]", n_bins: "list[int]") -> np.ndarray | None:
    """The counts of the texts, in order, as one int64 array; None unless
    each text is n_bins integers in the form trace_lines writes.

    That form is what np.fromstring reads the same as json: values of one
    to 18 digits with no leading zero, each but the last followed by ", ".
    np.fromstring alone reads an empty value as 0 and leading zeros as if
    absent, and clamps past int64; numpy 1.x warns and stops short on a
    text it cannot parse, where 2.x raises.
    """
    joined = ", ".join(texts)
    # Ending in a digit, the text has a character after each comma.
    if not "0" <= joined[-1:] <= "9":
        return None
    try:
        raw = np.frombuffer(joined.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    commas = np.flatnonzero(raw == ord(","))
    starts = np.append(0, commas + 2)
    ends = np.append(commas, len(raw))
    lengths = ends - starts
    # Where each text ends in the joined one.
    row_ends = np.cumsum([len(text) + 2 for text in texts]) - 2
    if (
        len(ends) != sum(n_bins)
        or not np.array_equal(ends[np.cumsum(n_bins) - 1], row_ends)
        or np.count_nonzero((raw - ord("0")) < 10) != len(raw) - 2 * len(commas)
        or (raw[commas + 1] != ord(" ")).any()
        or lengths.min() < 1
        or lengths.max() > 18
        or ((raw[starts] == ord("0")) & (lengths > 1)).any()
    ):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(joined, dtype=np.int64, sep=",")
        except (ValueError, DeprecationWarning):
            return None
    return values if len(values) == len(ends) else None


class _TableReader:
    """The columns of a trace table as read_traces_jsonl reads them, one
    block of lines at a time."""

    def __init__(self):
        self.trace_ids: list[str] = []
        self.n_rb: list[float] = []
        self.segment_maps: dict[tuple, SegmentMap] = {}
        self.fills: dict[tuple[SegmentMap, float], _LayoutFill] = {}

    def _fill(self, segments: SegmentMap, bin_s: float) -> _LayoutFill:
        fill = self.fills.get((segments, bin_s))
        if fill is None:
            fill = self.fills[segments, bin_s] = _LayoutFill(segments, bin_s)
        return fill

    def read_block(self, block: "list[tuple[int, str]]") -> None:
        """Add the (line number, line) pairs of a block; raise the
        TraceFileError of its first bad line, if it has one."""
        if not self._read_block_fast(block):
            self._read_block_lines(block)

    def _read_block_fast(self, block: "list[tuple[int, str]]") -> bool:
        """Add a block whose every line is in the form trace_lines writes:
        each head (the line before its last _COUNTS_KEY, closed with "}") is
        parsed with json and checked by _trace_fields, the count texts with
        one _count_values. Nothing is added, and False returned, when any
        line is in another form or fails a check."""
        fields, texts = [], []
        for _, line in block:
            at = line.rfind(_COUNTS_KEY)
            if at < 0:
                return False
            tail = line[at + len(_COUNTS_KEY):].rstrip(_JSON_SPACE)
            if not tail.endswith("]}"):
                return False
            head_text = line[:at] + "}"
            try:
                head, end = _HEAD_DECODER.raw_decode(head_text)
                if end != len(head_text):
                    return False
                # An earlier counts key is one json would overwrite too.
                head["counts"] = None
                fields.append(_trace_fields(head, self.segment_maps))
            except (TypeError, ValueError, OverflowError):
                return False
            texts.append(tail[:-2])
        n_bins = [segments.n_bins for _, _, segments, _ in fields]
        values = _count_values(texts, n_bins)
        if values is None:
            return False
        first = len(self.trace_ids)
        # In order of first appearance, as the table lists its layouts.
        layouts = dict.fromkeys(f[2:] for f in fields)
        if len(layouts) == 1:
            # The common case, as simulate writes one layout: a view.
            (layout,) = layouts
            self._fill(*layout).extend(
                list(range(first, first + len(fields))), values.reshape(len(fields), -1)
            )
        else:
            starts = np.cumsum([0] + n_bins[:-1])
            for segments, bin_s in layouts:
                ks = [k for k, f in enumerate(fields) if f[2:] == (segments, bin_s)]
                index = starts[ks][:, np.newaxis] + np.arange(segments.n_bins)
                self._fill(segments, bin_s).extend([first + k for k in ks], values[index])
        for trace_id, n_rb, _, _ in fields:
            self.trace_ids.append(trace_id)
            self.n_rb.append(n_rb)
        return True

    def _read_block_lines(self, block: "list[tuple[int, str]]") -> None:
        """Add a block line by line: each line parsed with json, its counts
        converted with its layout's pending rows at the end of the block."""
        for i, line in block:
            try:
                obj, (trace_id, n_rb, segments, bin_s) = _parse_line(
                    line, i, self.segment_maps
                )
            except TraceFileError:
                # A line before this one may hold bad counts, not yet converted.
                self._fill_all()
                raise
            # A JSON boolean is spelt true or false; most lines hold neither,
            # and skip the per-count scan for one.
            flagged = "true" in line or "false" in line
            self._fill(segments, bin_s).add(len(self.trace_ids), i, obj["counts"], flagged)
            self.trace_ids.append(trace_id)
            self.n_rb.append(n_rb)
        self._fill_all()

    def _fill_all(self) -> None:
        """Fill every layout's pending rows; raise the error of the first bad
        line among them."""
        errors = [err for err in (f.fill() for f in self.fills.values()) if err is not None]
        if errors:
            raise min(errors, key=lambda err: err.line_number)

    def table(self) -> TraceTable:
        return TraceTable(self.trace_ids, self.n_rb, [f.layout() for f in self.fills.values()])


def read_traces_jsonl(path: "str | Path") -> TraceTable:
    """Read a traces file into a TraceTable.

    The file is read in blocks of _FILL_BLOCK non-blank lines. A block in
    the form trace_lines writes has its heads parsed with json and its
    counts with one numpy call; any other block is parsed line by line with
    json. Either way each line's scalar fields and segment layout are
    checked, and its counts go to the int64 matrix of its (segments, bin_s)
    layout. Any refusal names the first bad line of the file, whether it
    was found in the line's fields or in its block's counts.
    """
    reader = _TableReader()
    with open(path) as fh:
        lines = ((i, line) for i, line in enumerate(fh, start=1) if not line.isspace())
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


def write_histogram_csv(path: "str | Path", hist: TraceHistogram) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_center", "occurrences"])
        for center, occ in zip(hist.bin_centers, hist.occurrences):
            writer.writerow([repr(float(center)), int(occ)])


BIN_CSV_COLUMNS = [
    "n_rb_center",
    "n_traces",
    "mean_n_cs",
    "se_mean_n_cs",
    "loading_rate_per_s",
    "load_count",
    "loss_counts_per_time_per_s",
    "loss_atom_count",
    "detect_time_s",
    "poisson_lambda",
    "ratio_load_loss",
]


def bin_to_row(b: NrbBin) -> list:
    ratio = b.load_loss_ratio
    return [
        repr(float(b.center)),
        b.n_traces,
        repr(float(b.mean_n_cs)),
        repr(float(b.se_mean_n_cs)),
        repr(float(b.loading_rate)),
        b.load_count,
        repr(float(b.loss_counts_per_time)),
        b.loss_atoms,
        repr(float(b.detect_time_s)),
        repr(float(b.poisson_lambda)),
        repr(float(ratio)) if math.isfinite(ratio) else "inf",
    ]


def write_bins_csv(path: "str | Path", binned: BinnedDataset) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BIN_CSV_COLUMNS)
        for b in binned.bins:
            writer.writerow(bin_to_row(b))


# Columns the fits read; poisson_lambda (NaN when unresolved) and
# ratio_load_loss (inf with no losses) are not among them.
_FINITE_BIN_COLUMNS = (
    "n_rb_center",
    "mean_n_cs",
    "se_mean_n_cs",
    "loading_rate_per_s",
    "loss_counts_per_time_per_s",
    "detect_time_s",
)


def read_bins_csv(path: "str | Path", width: float | None = None) -> BinnedDataset:
    """Rebuild a binned dataset from its CSV export.

    Trace-level means are not stored in the CSV, so a dataset read this way
    supports every fit except the bootstrap. A NaN or infinite value in a
    column the fits read is refused, naming its line and column, and so is
    a repeated n_rb_center, naming both its lines.
    """
    bins: list[NrbBin] = []
    center_lines: dict[float, int] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(BIN_CSV_COLUMNS) - set(reader.fieldnames or [])
        if missing:
            raise TraceFileError(
                f"{path}: missing column(s): {', '.join(sorted(missing))}"
            )
        for i, row in enumerate(reader, start=2):
            try:
                for column in _FINITE_BIN_COLUMNS:
                    if not math.isfinite(float(row[column])):
                        raise ValueError(f"{column} must be finite, got {row[column]!r}")
                bins.append(
                    NrbBin(
                        center=float(row["n_rb_center"]),
                        n_traces=int(row["n_traces"]),
                        mean_n_cs=float(row["mean_n_cs"]),
                        se_mean_n_cs=float(row["se_mean_n_cs"]),
                        loading_rate=float(row["loading_rate_per_s"]),
                        load_count=int(row["load_count"]),
                        loss_counts_per_time=float(row["loss_counts_per_time_per_s"]),
                        loss_atoms=int(row["loss_atom_count"]),
                        detect_time_s=float(row["detect_time_s"]),
                        poisson_lambda=float(row["poisson_lambda"]),
                        trace_means=None,
                    )
                )
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
    if width is None:
        centers = [b.center for b in bins]
        diffs = [b - a for a, b in zip(centers, centers[1:])]
        width = min(diffs) if diffs else 220.0
    return BinnedDataset(width=float(width), bins=bins)


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
