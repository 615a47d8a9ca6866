"""File formats: JSON-lines traces and trajectory dumps, CSV summaries.

One JSON object per line keeps multi-thousand-trace campaigns streamable and
diffable. Readers validate eagerly and report the offending line number.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

import numpy as np

from .gillespie import EventKind, EventTable, Trajectory
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
    "trace_to_dict",
    "trace_from_dict",
    "write_traces_jsonl",
    "read_traces_jsonl",
    "trajectory_records",
    "trajectory_to_dict",
    "write_trajectories_jsonl",
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


def trace_to_dict(trace: FluorescenceTrace) -> dict:
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


def trace_from_dict(obj: dict, line_number: int | None = None) -> FluorescenceTrace:
    """Build a trace from its JSON object, refusing malformed fields with a
    TraceFileError that names line_number.

    read_traces_jsonl makes the same checks, with the counts of many lines
    converted at once.
    """
    try:
        trace_id, n_rb, segments, bin_s = _trace_fields(obj, {})
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceFileError(str(exc), line_number) from exc
    (counts,) = _count_matrix([obj["counts"]], segments.n_bins, [line_number], [0])
    return FluorescenceTrace(
        trace_id=trace_id, n_rb=n_rb, bin_s=bin_s, segments=segments, counts=counts
    )


def write_traces_jsonl(path: "str | Path", traces: Iterable[FluorescenceTrace]) -> int:
    n = 0
    with open(path, "w") as fh:
        for trace in traces:
            fh.write(json.dumps(trace_to_dict(trace)))
            fh.write("\n")
            n += 1
    return n


# Lines parsed between two conversions of their counts into the matrices;
# it bounds the Python int lists held at once, and is a new layout's first
# capacity.
_FILL_BLOCK = 64


class _LayoutFill:
    """The rows of one layout as read_traces_jsonl fills them.

    counts grows in place (ndarray.resize) by half its rows whenever a
    block does not fit, and is cut to the rows filled at the end; the file
    is read once, so a pipe works as well as a file.
    """

    def __init__(self, segments: SegmentMap, bin_s: float):
        self.segments = segments
        self.bin_s = bin_s
        self.counts = np.empty((_FILL_BLOCK, segments.n_bins), dtype=np.int64)
        self.filled = 0
        self.positions: list[int] = []
        self.line_numbers: list[int] = []
        self.pending: list = []
        self.flagged: list[int] = []

    def add(self, position: int, line_number: int, counts, flagged: bool) -> None:
        if flagged:
            self.flagged.append(len(self.pending))
        self.pending.append(counts)
        self.positions.append(position)
        self.line_numbers.append(line_number)

    def fill(self) -> TraceFileError | None:
        """Convert the pending counts into the matrix; the error of the
        first bad row instead, if there is one."""
        n = len(self.pending)
        if not n:
            return None
        try:
            block = _count_matrix(
                self.pending, self.segments.n_bins,
                self.line_numbers[self.filled:], self.flagged,
            )
        except TraceFileError as exc:
            return exc
        if self.filled + n > len(self.counts):
            rows = max(self.filled + n, len(self.counts) * 3 // 2)
            self.counts.resize((rows, self.segments.n_bins), refcheck=False)
        self.counts[self.filled:self.filled + n] = block
        self.filled += n
        self.pending = []
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


def _fill_all(fills: "Iterable[_LayoutFill]") -> None:
    """Fill every layout's pending rows; raise the error of the first bad
    line among them."""
    errors = [err for err in (f.fill() for f in fills) if err is not None]
    if errors:
        raise min(errors, key=lambda err: err.line_number)


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


def read_traces_jsonl(path: "str | Path") -> TraceTable:
    """Read a traces file into a TraceTable.

    Each line is parsed with json and its scalar fields and segment layout
    are checked as it is read; a line's counts go to the int64 matrix of its
    (segments, bin_s) layout, converted in blocks of _FILL_BLOCK lines. Any
    refusal names the first bad line of the file, whether it was found in
    the line's fields or in its block's counts.
    """
    trace_ids: list[str] = []
    n_rb: list[float] = []
    segment_maps: dict[tuple, SegmentMap] = {}
    fills: dict[tuple[SegmentMap, float], _LayoutFill] = {}
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj, (trace_id, value, segments, bin_s) = _parse_line(line, i, segment_maps)
            except TraceFileError:
                # A line before this one may hold bad counts, not yet converted.
                _fill_all(fills.values())
                raise
            fill = fills.get((segments, bin_s))
            if fill is None:
                fill = fills[segments, bin_s] = _LayoutFill(segments, bin_s)
            # A JSON boolean is spelt true or false; most lines hold neither,
            # and skip the per-count scan for one.
            flagged = "true" in line or "false" in line
            fill.add(len(trace_ids), i, obj["counts"], flagged)
            trace_ids.append(trace_id)
            n_rb.append(value)
            if len(trace_ids) % _FILL_BLOCK == 0:
                _fill_all(fills.values())
    _fill_all(fills.values())
    if not trace_ids:
        raise TraceFileError(f"{path}: no traces found")
    return TraceTable(trace_ids, n_rb, [f.layout() for f in fills.values()])


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


def trajectory_to_dict(trace_id: str, traj: Trajectory) -> dict:
    """The dump record of one trajectory: the one-shot trajectory_records."""
    (record,) = trajectory_records([trace_id], EventTable.from_trajectories([traj]))
    return record


def write_trajectories_jsonl(path: "str | Path", trajectories: Iterable[tuple[str, Trajectory]]) -> int:
    """Dump (trace_id, trajectory) pairs for debugging and reanalysis."""
    n = 0
    with open(path, "w") as fh:
        for trace_id, traj in trajectories:
            fh.write(json.dumps(trajectory_to_dict(trace_id, traj)))
            fh.write("\n")
            n += 1
    return n


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
    column the fits read is refused, naming its line and column.
    """
    bins: list[NrbBin] = []
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
