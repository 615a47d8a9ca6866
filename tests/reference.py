"""Exact per-row references for the batch kernels of motprobe.

Each function here is the one-row form a batch kernel replaced. The program
does not call them; the tests hold the kernels to them with equality:

- next_event, one Gillespie step, and replay_next_event, one shot stepped
  with it from an empty trap: the reference of gillespie.simulate_shots;
- group_by_bin, trace-by-trace grid assignment: the reference of the grid
  points bin_by_nrb groups on;
- trace_from_dict, the per-line trace loader: the reference of
  read_traces_jsonl, built on the same field and count checks.
"""

from __future__ import annotations

import math

import numpy as np

from motprobe.gillespie import EventKind, ExperimentSchedule, _rate_row
from motprobe.photon import FluorescenceTrace
from motprobe.physics import PhysicalParams
from motprobe.traceio import TraceFileError, _count_row, _trace_fields


def next_event(
    n_cs: int,
    n_rb: float,
    params: PhysicalParams,
    rng: np.random.Generator,
) -> tuple[float, EventKind] | None:
    """Draw the waiting time and type of the next event.

    Returns None when every rate vanishes (absorbing state); the caller then
    treats the remaining observation window as event-free. simulate_shots
    makes the same draws in the same order.
    """
    _, total, c_load, c_bg, c_rbcs = _rate_row(n_cs, n_rb, params)
    if total <= 0.0:
        return None
    dt = rng.exponential(1.0 / total)
    u = rng.random() * total
    if u < c_load:
        return dt, EventKind.LOAD
    if u < c_bg:
        return dt, EventKind.LOSS_BG
    if u < c_rbcs:
        return dt, EventKind.LOSS_RBCS
    return dt, EventKind.LOSS_CSCS_PAIR


def replay_next_event(
    n_rb: float, params: PhysicalParams, schedule: ExperimentSchedule, seed: int
) -> list[tuple[float, EventKind, int]]:
    """Events of one shot: next_event stepped from an empty trap on
    np.random.default_rng(seed) until the clock passes the window."""
    rng = np.random.default_rng(seed)
    t, n, events = 0.0, 0, []
    while True:
        step = next_event(n, n_rb, params, rng)
        if step is None:
            break
        dt, kind = step
        t = t + dt
        if t > schedule.detect_s:
            break
        n += kind.delta
        events.append((t, kind, n))
    return events


def group_by_bin(
    traces: "list[FluorescenceTrace]", width: float = 220.0, origin: float = 0.0
) -> dict[float, list[FluorescenceTrace]]:
    """Assign each trace to the nearest grid point origin + k * width."""
    if not width > 0:
        raise ValueError(f"bin width must be positive, got {width!r}")
    groups: dict[float, list[FluorescenceTrace]] = {}
    for t in traces:
        center = origin + math.floor((t.n_rb - origin) / width + 0.5) * width
        groups.setdefault(center, []).append(t)
    return dict(sorted(groups.items()))


def trace_from_dict(obj: dict, line_number: int | None = None) -> FluorescenceTrace:
    """Build a trace from its JSON object, refusing malformed fields with a
    TraceFileError that names line_number.

    read_traces_jsonl makes the same checks with the same two functions,
    _trace_fields and _count_row, on every line it reads with json.
    """
    try:
        trace_id, n_rb, segments, bin_s = _trace_fields(obj, {})
        counts = _count_row(obj["counts"], segments.n_bins)
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceFileError(str(exc), line_number) from exc
    return FluorescenceTrace(
        trace_id=trace_id, n_rb=n_rb, bin_s=bin_s, segments=segments, counts=counts
    )
