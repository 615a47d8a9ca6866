"""File formats: JSON-lines traces and trajectory dumps, CSV summaries.

One JSON object per line keeps multi-thousand-trace campaigns streamable and
diffable. Readers validate eagerly and report the offending line number.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Iterable

import numpy as np

from .gillespie import Trajectory
from .inference import BinnedDataset, NrbBin
from .photon import FluorescenceTrace, SegmentMap, TraceHistogram

__all__ = [
    "TraceFileError",
    "trace_record",
    "trace_to_dict",
    "trace_from_dict",
    "write_traces_jsonl",
    "read_traces_jsonl",
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


def _counts_array(raw, may_hold_bools: bool = True) -> np.ndarray:
    """counts as int64, refusing what a cast would truncate, wrap or reshape.

    The dtype numpy infers for the list tells it almost all: floats,
    booleans, unsigned (past int64) and object (past uint64, or mixed)
    arrays are refused, as is any shape but one dimension. Booleans mixed
    with integers infer int64, so an integer list is also scanned for them
    unless the caller knows there are none (may_hold_bools false).
    """
    counts = np.asarray(raw)
    if counts.ndim != 1:
        raise ValueError(f"counts must be a flat list, got shape {counts.shape}")
    if counts.dtype.kind != "i" and counts.size:
        raise ValueError(
            f"counts must be integers within int64, got {counts.dtype} values"
        )
    if may_hold_bools and any(type(c) is bool for c in raw):
        raise ValueError("counts must be integers within int64, got booleans")
    return counts.astype(np.int64, copy=False)


def trace_from_dict(
    obj: dict, line_number: int | None = None, *, may_hold_bools: bool = True
) -> FluorescenceTrace:
    """Build a trace from its JSON object, refusing malformed fields with a
    TraceFileError that names line_number. may_hold_bools false skips the
    per-element scan for booleans among integer counts; pass it only when
    the source cannot hold any (JSON text without true or false)."""
    required = {"trace_id", "n_rb", "bin_s", "segments", "counts"}
    missing = required - set(obj)
    if missing:
        raise TraceFileError(f"missing key(s): {', '.join(sorted(missing))}", line_number)
    try:
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
        segments = SegmentMap(*bounds)
        # SegmentMap allows it, but background subtraction needs one bin.
        if segments.background[1] == segments.background[0]:
            raise ValueError(
                f"the background segment must hold at least one bin, got {segments!r}"
            )
        n_rb = float(obj["n_rb"])
        if not math.isfinite(n_rb):
            raise ValueError(f"n_rb must be finite, got {n_rb!r}")
        bin_s = float(obj["bin_s"])
        if not (math.isfinite(bin_s) and bin_s > 0):
            raise ValueError(f"bin_s must be finite and positive, got {bin_s!r}")
        return FluorescenceTrace(
            trace_id=str(obj["trace_id"]),
            n_rb=n_rb,
            bin_s=bin_s,
            segments=segments,
            counts=_counts_array(obj["counts"], may_hold_bools),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceFileError(str(exc), line_number) from exc


def write_traces_jsonl(path: "str | Path", traces: Iterable[FluorescenceTrace]) -> int:
    n = 0
    with open(path, "w") as fh:
        for trace in traces:
            fh.write(json.dumps(trace_to_dict(trace)))
            fh.write("\n")
            n += 1
    return n


def read_traces_jsonl(path: "str | Path") -> list[FluorescenceTrace]:
    traces = []
    with open(path) as fh:
        for i, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFileError(f"not valid JSON ({exc.msg})", i) from exc
            # A JSON boolean is spelt true or false; most lines hold neither,
            # and skip the per-count scan for one.
            flagged = "true" in line or "false" in line
            traces.append(trace_from_dict(obj, i, may_hold_bools=flagged))
    if not traces:
        raise TraceFileError(f"{path}: no traces found")
    return traces


def trajectory_to_dict(trace_id: str, traj: Trajectory) -> dict:
    return {
        "trace_id": trace_id,
        "n_rb": traj.n_rb,
        "seed": traj.seed,
        "t_end_s": traj.t_end,
        "events": [[t, kind.value, n_after] for t, kind, n_after in traj.events],
    }


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


def read_bins_csv(path: "str | Path", width: float | None = None) -> BinnedDataset:
    """Rebuild a binned dataset from its CSV export.

    Trace-level means are not stored in the CSV, so a dataset read this way
    supports every fit except the bootstrap.
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
