"""File formats: JSON-lines traces and trajectory dumps, CSV summaries.

One JSON object per line keeps multi-thousand-trace campaigns streamable and
diffable. Readers validate eagerly and report the offending line number.

trace_lines formats a whole count matrix in one vectorized pass: each
count below 2**16 is one 8-byte word of its text "k, ", NUL-padded, so a
bin's rows are one gather of words and one bytes.translate that drops the
padding; a row with any other count is written by json. Reading back,
read_traces_jsonl parses a block of lines in that form with one numpy
call for all their counts, and each distinct head after a plain trace_id
once per block, as the lines of a bin differ only in trace_id; any other
block is read line by line with json, each line's fields checked by
_trace_fields and its counts by _count_row as soon as the line is parsed,
so the first bad line is the first refused. A file holds one segment map
and bin width, that of its first trace line, and the table one count
matrix. The reader checks each line so that a refusal names it; the
segment rules are SegmentMap's own, and the TraceTable it returns checks
its whole matrix once more on construction.
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


# Counts below _TABLE_COUNTS are formatted from a table of their text, built
# on first use; a row holding any other count goes through json. The longest
# text, "65535, ", fits one 8-byte word with a NUL to spare.
_TABLE_COUNTS = 1 << 16
# A trace_id json.dumps writes as no other part of a trace record.
_ID_MARK = "\x00"


@functools.lru_cache(maxsize=1)
def _count_text_table() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII text of "k, " for every k below _TABLE_COUNTS as one uint64
    word, left-aligned and padded with NUL bytes, and each text's length as
    uint8; both read-only."""
    texts = np.char.add(np.arange(_TABLE_COUNTS).astype("S5"), b", ")
    words = texts.astype("S8").view(np.uint64)
    lengths = np.char.str_len(texts).astype(np.uint8)
    words.flags.writeable = False
    lengths.flags.writeable = False
    return words, lengths


def trace_lines(
    trace_ids: "Sequence[str]", n_rb: float, bin_s: float, segments: SegmentMap, counts
) -> str:
    """The JSON lines of traces that share n_rb, bin_s and segments, one
    per row of the (len(trace_ids), n_bins) count matrix.

    Each line is byte for byte json.dumps(trace_record(...)) + "\n": the
    text before the counts comes from json.dumps of trace_record, and the
    integer counts below _TABLE_COUNTS are spelt from _count_text_table:
    one gather of the rows' words, whose bytes lose their NUL padding in one
    bytes.translate, and one cumulative sum of the rows' text lengths to
    cut the result into lines. A row with a negative, larger or non-integer
    count is written by json.dumps itself.
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
    words, lengths = _count_text_table()
    rows = counts[tabled].astype(np.intp, copy=False)
    body = words[rows].tobytes().translate(None, b"\0").decode("ascii")
    # Each row's text ends in ", "; the "]}" of the line replaces it.
    ends = np.cumsum(lengths[rows].sum(axis=1)).tolist()
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


# Non-blank lines read as one block: the count texts of a block are parsed
# together, and a block in another form is read line by line. It bounds the
# text held at once, and is the count matrix's first capacity in rows.
_FILL_BLOCK = 64

# What precedes the counts in a line trace_lines writes; the counts close
# the line, with "]}" and optional whitespace.
_COUNTS_KEY = ', "counts": ['
_JSON_SPACE = " \t\n\r"
_HEAD_DECODER = json.JSONDecoder()
# How a line trace_lines writes opens, up to the text of its trace_id.
_ID_OPEN = '{"trace_id": "'


def _parse_head(text: str) -> dict:
    """The object text spells in whole, with a counts key set to None (an
    earlier counts key is one json would overwrite too); raises ValueError
    for anything else."""
    head, end = _HEAD_DECODER.raw_decode(text)
    if end != len(text):
        raise ValueError("text after the head")
    head["counts"] = None
    return head


def _count_values(texts: "list[str]", n_bins: int) -> np.ndarray | None:
    """The counts of the texts as an int64 (texts, n_bins) matrix; None
    unless each text is n_bins integers in the form trace_lines writes.

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
        len(ends) != len(texts) * n_bins
        or not np.array_equal(ends[n_bins - 1::n_bins], row_ends)
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
    return values.reshape(len(texts), n_bins) if len(values) == len(ends) else None


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

    def _add(self, line_number: int, fields: "list[tuple]", rows: np.ndarray) -> None:
        """Append checked rows and the ids and n_rb of their fields; the
        first rows fix the layout, line_number being the first's line."""
        if self.layout is None:
            self.layout = fields[0][2:]
            self.first_line = line_number
            self.counts = np.empty((_FILL_BLOCK, rows.shape[1]), dtype=np.int64)
        filled, n = len(self.trace_ids), len(rows)
        if filled + n > len(self.counts):
            grown = max(filled + n, len(self.counts) * 3 // 2)
            self.counts.resize((grown, rows.shape[1]), refcheck=False)
        self.counts[filled:filled + n] = rows
        for trace_id, n_rb, _, _ in fields:
            self.trace_ids.append(trace_id)
            self.n_rb.append(n_rb)

    def read_block(self, block: "list[tuple[int, str]]") -> None:
        """Add the (line number, line) pairs of a block; raise the
        TraceFileError of its first bad line, if it has one."""
        if not self._read_block_fast(block):
            self._read_block_lines(block)

    def _read_block_fast(self, block: "list[tuple[int, str]]") -> bool:
        """Add a block whose every line is in the form trace_lines writes
        and in the table's layout: each head (the line before its last
        _COUNTS_KEY) is checked by _head_fields, the count texts parsed
        with one _count_values. Nothing is added, and False returned, when
        any line is in another form or layout or fails a check."""
        fields, texts = [], []
        rests: dict[str, tuple[float, SegmentMap, float]] = {}
        for _, line in block:
            at = line.rfind(_COUNTS_KEY)
            if at < 0:
                return False
            tail = line[at + len(_COUNTS_KEY):].rstrip(_JSON_SPACE)
            if not tail.endswith("]}"):
                return False
            try:
                fields.append(self._head_fields(line[:at], rests))
            except (TypeError, ValueError, OverflowError):
                return False
            texts.append(tail[:-2])
        layout = self.layout or fields[0][2:]
        if any(f[2:] != layout for f in fields):
            return False
        rows = _count_values(texts, layout[0].n_bins)
        if rows is None:
            return False
        self._add(block[0][0], fields, rows)
        return True

    def _head_fields(
        self, head: str, rests: "dict[str, tuple[float, SegmentMap, float]]"
    ) -> tuple[str, float, SegmentMap, float]:
        """The fields of a head, checked by _trace_fields; raises what
        json or the check raises.

        A head that opens with _ID_OPEN, then id text free of backslashes
        and unprintable characters up to the next quote, then ", " is split
        after the id: the rest, parsed as an object of its own, is checked
        once and its (n_rb, segments, bin_s) kept in rests, the block's
        cache, for every head that repeats it. A rest holding a trace_id
        key (which json would let win over the first), and any other head,
        are parsed whole.
        """
        quote = head.find('"', len(_ID_OPEN))
        trace_id, rest = head[len(_ID_OPEN):quote], head[quote + 1:]
        if (
            head.startswith(_ID_OPEN)
            and quote > 0
            and rest.startswith(', "')
            and "\\" not in trace_id
            and trace_id.isprintable()
        ):
            known = rests.get(rest)
            if known is None:
                obj = _parse_head("{" + rest[2:] + "}")
                if "trace_id" in obj:
                    return _trace_fields(_parse_head(head + "}"), self.segment_maps)
                obj["trace_id"] = trace_id
                known = rests[rest] = _trace_fields(obj, self.segment_maps)[1:]
            return (trace_id, *known)
        return _trace_fields(_parse_head(head + "}"), self.segment_maps)

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
            self._add(i, [(trace_id, n_rb, segments, bin_s)], counts[np.newaxis])

    def table(self) -> TraceTable:
        segments, bin_s = self.layout
        self.counts.resize((len(self.trace_ids), segments.n_bins), refcheck=False)
        return TraceTable(self.trace_ids, self.n_rb, segments, bin_s, self.counts)


def read_traces_jsonl(path: "str | Path") -> TraceTable:
    """Read a traces file into a TraceTable.

    The file is read in blocks of _FILL_BLOCK non-blank lines. A block in
    the form trace_lines writes has each distinct head parsed with json
    once (see _TableReader._head_fields) and its counts with one numpy
    call; any other block, and any block not wholly in the layout of the
    first trace line, is parsed line by line with json. Either way each
    line's scalar fields and segment layout are checked, and its counts go
    to the table's one int64 count matrix. Every line must have the
    segments and bin_s of the first: a file that mixes segment maps or bin
    widths is refused at the first line that differs. Any refusal names
    the first bad line of the file.
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
