"""Photon-count synthesis and atom-number recovery.

Forward direction: turn simulated trajectories into Poisson photon counts in
fixed time bins, including the light-off and background segments of each
shot. A bin of shots is synthesized at once from its EventTable (the event
times and levels of all shots in flat columns): one occupancy matrix, one
matrix of Poisson means and one rng.poisson call on the bin's generator.
simulate_grid_bins runs a run of bins of a configured campaign and derives
every seed a campaign uses, one per bin of each stream, all in one hash
pass: it steps the run's shots as one gillespie.simulate_groups call, one
seed group per bin, then draws each bin's counts as it is asked for.
simulate_campaign stacks every bin into one TraceTable.
Inverse direction: background subtraction, integer staircase estimation
with a short median filter, and the Poisson rate of the integer-atom peaks
(peak_lambda of TraceTable.cell_sizes: the rounding cells that hold at
least five rates, weighted by their size). build_histogram adds the pooled
count-rate histogram (rate_histogram, all that analyze writes of it) and
the peaks themselves.
The inverse steps run on a TraceTable: trace ids, n_rb, one segment map
and bin width, and one (traces x bins) count matrix, whose detect rates,
whole-atom numbers and whole-atom cell sizes are computed once and shared
by the staircase, the peak rate and the histogram. A table never mixes
segment maps or bin widths: a bin that pooled two bin widths would fit a
beta whose bias is an uncontrolled mixture of theirs. Each rule of a
trace is checked once, by the type that carries it (SegmentMap,
DetectionCalibration, TraceTable), and the kernels trust them. In both
directions a whole bin of traces is processed at once; the one-trace forms
synthesize_counts and estimate_staircase stay because the benchmark tracer
(bench/tracing.py) wraps them by name.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .gillespie import (
    PHOTON_STREAM,
    TRAJECTORY_STREAM,
    EventTable,
    ExperimentSchedule,
    Trajectory,
    derive_seeds,
    simulate_groups,
)

if TYPE_CHECKING:
    # config imports this module.
    from .config import RunConfig

__all__ = [
    "DetectionCalibration",
    "SegmentMap",
    "FluorescenceTrace",
    "TraceTable",
    "AtomNumberEstimate",
    "GaussianPeak",
    "TraceHistogram",
    "SimulatedBin",
    "segment_map_for",
    "count_means",
    "synthesize_bin",
    "synthesize_counts",
    "simulate_grid_bins",
    "simulate_campaign",
    "estimate_staircase",
    "summarize_staircases",
    "peak_lambda",
    "build_histogram",
    "rate_histogram",
]


@dataclass(frozen=True)
class DetectionCalibration:
    """Detector model: counts arrive Poisson-distributed in fixed bins.

    rate_per_atom is the detected fluorescence rate per trapped atom,
    background_rate the stray-light rate present while the trap light is on,
    dark_rate the residual rate with the light off (zero by default, the
    background segment subsumes dark counts), bin_s the bin width.
    """

    rate_per_atom: float = 1.0e4
    background_rate: float = 5.0e3
    dark_rate: float = 0.0
    bin_s: float = 0.02

    def __post_init__(self) -> None:
        # rate_per_atom divides every rate the staircase quantizes.
        for name in ("rate_per_atom", "bin_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        for name in ("background_rate", "dark_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class SegmentMap:
    """Half-open bin-index ranges of the three shot segments, tiling the
    trace in order; the detect and background segments each hold at least
    one bin, as background subtraction needs both."""

    detect: tuple[int, int]
    off: tuple[int, int]
    background: tuple[int, int]

    def __post_init__(self) -> None:
        d, o, b = self.detect, self.off, self.background
        ok = (
            d[0] == 0
            and d[0] <= d[1] == o[0] <= o[1] == b[0] <= b[1]
        )
        if not ok:
            raise ValueError(f"segments must tile the trace in order, got {self!r}")
        if d[1] == d[0]:
            raise ValueError(f"the detect segment must hold at least one bin, got {self!r}")
        if b[1] == b[0]:
            raise ValueError(
                f"empty background segment: background subtraction needs at "
                f"least one bin, got {self!r}"
            )

    @property
    def n_bins(self) -> int:
        return self.background[1]


def _segment_bins(duration_s: float, bin_s: float, name: str) -> int:
    n = round(duration_s / bin_s)
    if n < 1 or abs(n * bin_s - duration_s) > 1e-9:
        raise ValueError(
            f"{name} = {duration_s!r} s is not a positive whole number of "
            f"{bin_s!r} s bins"
        )
    return n


def segment_map_for(schedule: ExperimentSchedule, bin_s: float) -> SegmentMap:
    nd = _segment_bins(schedule.detect_s, bin_s, "detect_s")
    no = _segment_bins(schedule.off_s, bin_s, "off_s")
    nb = _segment_bins(schedule.background_s, bin_s, "background_s")
    return SegmentMap(
        detect=(0, nd),
        off=(nd, nd + no),
        background=(nd + no, nd + no + nb),
    )


@dataclass
class FluorescenceTrace:
    """Photon counts of one shot plus the segment layout that produced them.

    A plain row record: it checks nothing itself. Its rules are checked
    where traces are analyzed, by TraceTable (from_traces for a list).
    """

    trace_id: str
    n_rb: float
    bin_s: float
    segments: SegmentMap
    counts: np.ndarray

    @property
    def detect_counts(self) -> np.ndarray:
        i0, i1 = self.segments.detect
        return self.counts[i0:i1]

    @property
    def background_counts(self) -> np.ndarray:
        i0, i1 = self.segments.background
        return self.counts[i0:i1]


class TraceTable(Sequence):
    """Traces that share one layout, held as columns: ids, n_rb, their
    segments and bin_s, and one (traces x bins) count matrix.

    It is also a read-only sequence of FluorescenceTrace: item i is a trace
    whose counts are a read-only view of row i, so code written for a list
    of traces runs on a table unchanged. The background-subtracted detect
    rates, their whole-atom numbers and the sizes of the whole-atom cells
    are computed on first use and kept (detect_rates, whole_atoms,
    cell_sizes).

    The counts are held as one read-only int64 matrix. The constructor
    refuses what the analysis would misread: counts not a (rows,
    segments.n_bins) matrix, no rows, ids or n_rb not one per row, counts
    not of an integer dtype (a float, bool or object matrix, naming its
    dtype) or with a negative entry, a non-finite n_rb (naming its trace)
    and a bin_s not finite and positive. Rows taken from a table are
    checked for their shape only: their values passed the checks already.
    """

    def __init__(
        self,
        trace_ids: "Sequence[str]",
        n_rb: "Sequence[float] | np.ndarray",
        segments: SegmentMap,
        bin_s: float,
        counts: np.ndarray,
    ):
        self._hold(trace_ids, n_rb, segments, bin_s, np.asarray(counts))
        if self.counts.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, got a {self.counts.dtype} matrix")
        # A uint64 count past int64 turns negative here, and is refused.
        self.counts = self.counts.astype(np.int64, copy=False)
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")
        bad = np.flatnonzero(~np.isfinite(self.n_rb))
        if len(bad):
            i = bad[0]
            raise ValueError(
                f"trace {self.trace_ids[i]!r} has a non-finite n_rb {float(self.n_rb[i])!r}"
            )
        if not (math.isfinite(bin_s) and bin_s > 0):
            raise ValueError(f"bin_s must be finite and positive, got {bin_s!r}")
        # Set once the matrix is accepted: a refused one stays the caller's.
        self.counts.flags.writeable = False

    def _hold(self, trace_ids, n_rb, segments: SegmentMap, bin_s: float, counts) -> None:
        """Hold the columns, refusing counts not a (rows, segments.n_bins)
        matrix, no rows, and ids or n_rb not one per row; the constructor
        then checks the values, which take's rows of a table passed."""
        self.trace_ids = list(trace_ids)
        self.n_rb = np.array(n_rb, dtype=float)
        self.n_rb.flags.writeable = False
        self.segments = segments
        self.bin_s = bin_s
        self.counts = counts
        if counts.ndim != 2 or counts.shape[1] != segments.n_bins:
            raise ValueError(
                f"counts must be a (traces, {segments.n_bins}) matrix for "
                f"{segments!r}, got shape {counts.shape}"
            )
        rows = len(counts)
        if rows == 0:
            raise ValueError("a trace table needs at least one trace")
        if not len(self.trace_ids) == len(self.n_rb) == rows:
            raise ValueError(
                f"{len(self.trace_ids)} trace ids and {len(self.n_rb)} n_rb "
                f"for {rows} rows of counts"
            )
        self._rates: np.ndarray | None = None
        self._atoms: tuple[float, np.ndarray] | None = None
        self._sizes: np.ndarray | None = None

    @classmethod
    def from_traces(cls, traces: "Sequence[FluorescenceTrace]") -> "TraceTable":
        """The table of a sequence of traces (itself, if it is a table):
        their counts stacked in trace order.

        Every trace must have the segments and bin_s of the first, and
        one count per bin of its segments; the first that does not is
        refused by name. The constructor checks the rest.
        """
        if isinstance(traces, TraceTable):
            return traces
        if not traces:
            raise ValueError("need at least one trace")
        first = traces[0]
        for t in traces:
            if t.segments != first.segments or t.bin_s != first.bin_s:
                raise ValueError(
                    f"trace {t.trace_id!r} has {t.segments!r} and bin_s {t.bin_s!r}, "
                    f"trace {first.trace_id!r} {first.segments!r} and bin_s "
                    f"{first.bin_s!r}: a trace table holds one segment map and bin width"
                )
            if np.shape(t.counts) != (first.segments.n_bins,):
                raise ValueError(
                    f"trace {t.trace_id!r} has counts of shape {np.shape(t.counts)}, "
                    f"its segment map {first.segments.n_bins} bins"
                )
        return cls(
            [t.trace_id for t in traces],
            [t.n_rb for t in traces],
            first.segments,
            first.bin_s,
            np.stack([t.counts for t in traces]),
        )

    def __len__(self) -> int:
        return len(self.trace_ids)

    def __getitem__(self, index: int) -> FluorescenceTrace:
        i = range(len(self))[operator.index(index)]
        return FluorescenceTrace(
            trace_id=self.trace_ids[i],
            n_rb=float(self.n_rb[i]),
            bin_s=self.bin_s,
            segments=self.segments,
            counts=self.counts[i],
        )

    def take(self, rows: np.ndarray) -> "TraceTable":
        """The table of the given rows, in the order given; their values,
        checked when this table was built, are not scanned again."""
        rows = np.asarray(rows, dtype=np.intp)
        table = TraceTable.__new__(TraceTable)
        table._hold(
            [self.trace_ids[i] for i in rows],
            self.n_rb[rows],
            self.segments,
            self.bin_s,
            self.counts[rows],
        )
        table.counts.flags.writeable = False
        return table

    def detect_rates(self) -> np.ndarray:
        """Background-subtracted detect rates (1/s), one row per trace;
        computed on the first call and kept."""
        if self._rates is None:
            self._rates = _detect_rates(self.counts, self.segments, self.bin_s)
        return self._rates

    def whole_atoms(self, rate_per_atom: float) -> np.ndarray:
        """detect_rates rounded to the nearest non-negative whole atom
        number, one row per trace; computed on the first call for a
        rate_per_atom and kept, so the staircase and the histogram of a bin
        share them."""
        if self._atoms is None or self._atoms[0] != rate_per_atom:
            self._atoms = (rate_per_atom, _whole_atoms(self.detect_rates(), rate_per_atom))
            self._sizes = None
        return self._atoms[1]

    def cell_sizes(self, rate_per_atom: float) -> np.ndarray:
        """How many of whole_atoms(rate_per_atom) equal each atom number,
        indexed by atom number; counted on the first call and kept beside
        them."""
        atoms = self.whole_atoms(rate_per_atom)
        if self._sizes is None:
            self._sizes = np.bincount(atoms.ravel())
            self._sizes.flags.writeable = False
        return self._sizes


@dataclass
class AtomNumberEstimate:
    """Recovered integer occupancy per detect bin plus the step events.

    load_events lists the bin index of every up-step (repeated for multi-atom
    steps). loss_events lists (bin index, atoms lost) with multiplicity 2
    flagging a pair-loss candidate. estimate_staircase returns it.
    """

    staircase: np.ndarray
    load_events: list[int]
    loss_events: list[tuple[int, int]]


@dataclass(frozen=True)
class GaussianPeak:
    """One integer-atom peak: the pooled rates that round to n_atoms.

    weight and sample_count are the number of those rates, center and width
    their mean and standard deviation (1/s).
    """

    n_atoms: int
    center: float
    width: float
    weight: float
    sample_count: int


@dataclass
class TraceHistogram:
    """Histogram of background-subtracted count rates pooled over traces.

    peaks are the rounding cells with at least _MIN_PEAK_SAMPLES rates, in
    order of atom number; poisson_lambda is their weight-weighted mean atom
    number, None when fewer than two peaks are found.
    """

    bin_edges: np.ndarray
    occurrences: np.ndarray
    peaks: list[GaussianPeak]
    poisson_lambda: float | None = None

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


def _occupancy_rows(
    trajectories: "Sequence[Trajectory]", n_bins: int, bin_s: float
) -> np.ndarray:
    """Time-averaged atom number in each detection bin, one row per trajectory.

    Each trajectory is piecewise constant from an empty trap at 0; its last
    level persists to the end of the detection window. Segment e runs from
    event e to the trajectory's next event (or to the horizon) at that
    event's level. Every (segment, bin) overlap of all trajectories is built
    at once from the time and level columns of their EventTable and summed
    by one bincount over trace * n_bins + bin, in trace then segment order,
    so each row is summed exactly as it would be alone.
    """
    table = EventTable.from_trajectories(trajectories)
    n_rows = len(table)
    horizon = n_bins * bin_s
    sizes = np.diff(table.offsets)
    start, level = table.time, table.level
    row = np.repeat(np.arange(n_rows), sizes)
    stop = np.empty(len(start))
    stop[:-1] = start[1:]
    stop[table.offsets[1:][sizes > 0] - 1] = horizon
    np.minimum(stop, horizon, out=stop)
    live = (level != 0) & (stop > start)
    start, stop, level, row = start[live], stop[live], level[live], row[live]
    first = (start / bin_s).astype(np.int64)
    last = np.minimum(np.ceil(stop / bin_s).astype(np.int64) - 1, n_bins - 1)
    span = np.maximum(last - first + 1, 0)
    seg = np.repeat(np.arange(len(span)), span)
    idx = first[seg] + np.arange(len(seg)) - np.repeat(np.cumsum(span) - span, span)
    lo = np.maximum(start[seg], idx * bin_s)
    hi = np.minimum(stop[seg], (idx + 1) * bin_s)
    keep = hi > lo
    occ = np.bincount(
        (row[seg] * n_bins + idx)[keep],
        weights=level[seg][keep] * (hi - lo)[keep],
        minlength=n_rows * n_bins,
    )
    return occ.reshape(n_rows, n_bins) / bin_s


def count_means(
    trajectories: "Sequence[Trajectory]", cal: DetectionCalibration, seg: SegmentMap
) -> np.ndarray:
    """Poisson mean of every count of every shot, one row per trajectory.

    Detect bins see the occupancy-weighted atom signal plus background, the
    off segment only the dark rate, the background segment only background.
    """
    means = np.empty((len(trajectories), seg.n_bins))
    d0, d1 = seg.detect
    occ = _occupancy_rows(trajectories, d1 - d0, cal.bin_s)
    means[:, d0:d1] = (occ * cal.rate_per_atom + cal.background_rate) * cal.bin_s
    means[:, seg.off[0]:seg.off[1]] = cal.dark_rate * cal.bin_s
    means[:, seg.background[0]:seg.background[1]] = cal.background_rate * cal.bin_s
    return means


def synthesize_bin(
    trajectories: "Sequence[Trajectory]",
    cal: DetectionCalibration,
    seg: SegmentMap,
    rng: np.random.Generator,
) -> np.ndarray:
    """Photon counts of a set of shots, one row per trajectory.

    The Poisson means of all shots form one matrix (count_means), drawn by
    one rng.poisson call. numpy draws an array of means element by element
    in C order, so the draws are those of one poisson call per segment, in
    segment order, shot after shot; the first rows do not depend on how
    many follow them. trajectories may be an EventTable (a lane of
    simulate_groups); any other sequence of trajectories is turned into one
    first.
    """
    return rng.poisson(count_means(trajectories, cal, seg)).astype(np.int64, copy=False)


def synthesize_counts(
    traj: Trajectory,
    cal: DetectionCalibration,
    schedule: ExperimentSchedule,
    seed: int,
    trace_id: str | None = None,
    *,
    rng: np.random.Generator | None = None,
) -> FluorescenceTrace:
    """Draw Poisson photon counts for one shot: the one-row synthesize_bin.
    The program does not call it; it stays because the benchmark tracer
    (bench/tracing.py) wraps it by name.

    rng, when given, must be np.random.default_rng(seed), fresh; by default
    it is built here.
    """
    seg = segment_map_for(schedule, cal.bin_s)
    if rng is None:
        rng = np.random.default_rng(int(seed))
    (counts,) = synthesize_bin([traj], cal, seg, rng)
    if trace_id is None:
        trace_id = f"seed{traj.seed:020d}"
    return FluorescenceTrace(
        trace_id=trace_id,
        n_rb=traj.n_rb,
        bin_s=cal.bin_s,
        segments=seg,
        counts=counts,
    )


@dataclass(frozen=True)
class SimulatedBin:
    """One bin of a campaign grid, as simulate_grid_bins yields it: the
    trace ids, their companion number and segments, their event table and
    their photon counts, one row per trace in trace order."""

    n_rb: float
    trace_ids: list[str]
    segments: SegmentMap
    events: EventTable
    counts: np.ndarray


def simulate_grid_bins(cfg: "RunConfig", bin_indices: "Sequence[int]") -> Iterator[SimulatedBin]:
    """Bins bin_indices of cfg's grid, in that order: cfg.traces_per_bin
    shots at each bin's companion number, and their photon counts.

    Trace ti of bin bi is named b{bi:02d}t{ti:04d}. The bin's shots are
    the seed group of derive_seed(master_seed, TRAJECTORY_STREAM, bi), and
    its counts are drawn by synthesize_bin on one generator,
    default_rng(derive_seed(master_seed, PHOTON_STREAM, bi)): neither seed
    carries a trace index. A campaign is seeded here and nowhere else, so a
    bin is the same whichever process computes it, in whatever run of
    bins, and its first traces do not depend on traces_per_bin. Both
    streams' seeds of the whole run are hashed in one derive_seeds pass,
    so the seed hashing is a fixed number of passes whatever the run's
    length. A bin index must be an integer (a bool, a float or a string is
    refused, not converted) in the grid. The run's shots are stepped as
    one simulate_groups call with one seed group per bin, so its chunks
    hold whole bins; each bin's counts are then drawn when it is asked
    for, and its event table is let go once it is yielded. Nothing is
    simulated before the first bin is asked for.
    """
    values = cfg.grid.values()
    bin_indices = list(bin_indices)
    for bi in bin_indices:
        if isinstance(bi, bool) or not isinstance(bi, numbers.Integral):
            raise ValueError(f"bin_index must be an integer, got {bi!r}")
        if not 0 <= bi < len(values):
            raise ValueError(f"bin_index must be in [0, {len(values)}), got {bi!r}")
    traces = cfg.traces_per_bin
    cal = cfg.calibration
    seg = segment_map_for(cfg.schedule, cal.bin_s)
    bins = [(float(values[bi]), bi) for bi in bin_indices]
    # Bin bi's seed of each stream is entry bi of that stream's seeds over
    # the grid: the bin index is the last word hashed, as in the scalar
    # derive_seed.
    seeds, photon_seeds = derive_seeds(
        cfg.master_seed, np.array([TRAJECTORY_STREAM, PHOTON_STREAM]), count=len(values)
    )[:, bin_indices]
    groups = [([(n_rb, cfg.physics)], seed, traces) for (n_rb, _), seed in zip(bins, seeds)]
    tables = [table for (table,) in simulate_groups(groups, cfg.schedule)]
    # Let go of the seed groups, then reverse in place, before the first
    # yield: the peak RSS of repeated campaigns in one process is sensitive
    # to this order of frees, and the other orders tried raised it by 2-3 MB.
    del groups
    # Taken from the end, so the list lets go of each table as it is yielded.
    tables.reverse()
    for (n_rb, bi), seed in zip(bins, photon_seeds):
        events = tables.pop()
        counts = synthesize_bin(events, cal, seg, np.random.default_rng(int(seed)))
        trace_ids = [f"b{bi:02d}t{ti:04d}" for ti in range(traces)]
        yield SimulatedBin(n_rb, trace_ids, seg, events, counts)


def simulate_campaign(cfg: "RunConfig") -> TraceTable:
    """Every bin of cfg's grid in one TraceTable: the trace ids, n_rb and
    counts of the file simulate writes for cfg, in its order, with no text
    in between. The bins are one run of simulate_grid_bins, and each bin's
    event table is dropped once its counts are drawn."""
    trace_ids: list[str] = []
    n_rb: list[float] = []
    counts = []
    for b in simulate_grid_bins(cfg, range(len(cfg.grid.values()))):
        trace_ids += b.trace_ids
        n_rb += [b.n_rb] * len(b.trace_ids)
        counts.append(b.counts)
    return TraceTable(
        trace_ids, n_rb, b.segments, cfg.calibration.bin_s, np.concatenate(counts)
    )


def _detect_rates(counts: np.ndarray, seg: SegmentMap, bin_s: float) -> np.ndarray:
    """Detect-bin rates minus each row's mean background-segment rate (1/s),
    for counts stacked one trace per row."""
    b0, b1 = seg.background
    bg_rate = counts[:, b0:b1].mean(axis=1) / bin_s
    d0, d1 = seg.detect
    rates = counts[:, d0:d1] / bin_s
    rates -= bg_rate[:, None]
    return rates


def _whole_atoms(rates: np.ndarray, rate_per_atom: float) -> np.ndarray:
    """Rates rounded to the nearest non-negative whole atom number."""
    atoms = np.rint(rates / rate_per_atom).astype(int)
    np.clip(atoms, 0, None, out=atoms)
    return atoms


def _staircase_rows(atoms: np.ndarray) -> np.ndarray:
    """Staircase of every row of whole-atom numbers: a 3-bin median with
    edges replicated, the median of (l, x, r) taken as
    max(min(l, x), min(max(l, x), r)).
    """
    padded = np.pad(atoms, ((0, 0), (1, 1)), mode="edge")
    left, mid, right = padded[:, :-2], padded[:, 1:-1], padded[:, 2:]
    return np.maximum(
        np.minimum(left, mid), np.minimum(np.maximum(left, mid), right)
    )


def estimate_staircase(
    trace: FluorescenceTrace, cal: DetectionCalibration
) -> AtomNumberEstimate:
    """Quantize background-subtracted rates to whole atoms and extract events.

    Rounding to the nearest non-negative integer is reliable because one atom
    is worth many shot-noise sigma per bin at the default calibration. The
    3-bin median filter (edges replicated) removes single-bin excursions;
    events are the level changes of the filtered staircase, with the level
    before the first bin defined as zero. The program runs whole bins through
    summarize_staircases; this one-trace form stays because the benchmark
    tracer (bench/tracing.py) wraps it by name. The trace is read through
    its one-row TraceTable, which refuses what that refuses.
    """
    stair = _staircase_rows(TraceTable.from_traces([trace]).whole_atoms(cal.rate_per_atom))[0]
    steps = np.diff(stair, prepend=0)
    load_events: list[int] = []
    loss_events: list[tuple[int, int]] = []
    for i in np.nonzero(steps)[0]:
        d = int(steps[i])
        if d > 0:
            load_events.extend([int(i)] * d)
        else:
            k = -d
            # A 2-atom drop is one pair-loss candidate; deeper drops (rare)
            # decompose into pairs plus at most one single.
            while k >= 2:
                loss_events.append((int(i), 2))
                k -= 2
            if k == 1:
                loss_events.append((int(i), 1))
    return AtomNumberEstimate(staircase=stair, load_events=load_events, loss_events=loss_events)


def summarize_staircases(
    traces: "Sequence[FluorescenceTrace]", cal: DetectionCalibration
) -> tuple[np.ndarray, int, int]:
    """Staircase totals of a set of traces, from their table's whole-atom
    numbers.

    Returns each trace's mean recovered atom number (in the order of traces),
    the number of up-steps and the number of atoms lost over all traces: the
    same figures estimate_staircase gives trace by trace.
    """
    stair = _staircase_rows(TraceTable.from_traces(traces).whole_atoms(cal.rate_per_atom))
    steps = np.diff(stair, axis=1, prepend=0)
    return stair.mean(axis=1), int(steps[steps > 0].sum()), -int(steps[steps < 0].sum())


# Minimum pooled samples rounding to an atom number before it is a peak.
_MIN_PEAK_SAMPLES = 5


def peak_lambda(sizes: np.ndarray) -> float | None:
    """The Poisson rate of the integer-atom peaks among rounding cells of
    these sizes (TraceTable.cell_sizes): atom number k is a peak when at least
    _MIN_PEAK_SAMPLES rates round to it, and the rate is the peaks' mean
    atom number weighted by those counts. None when fewer than two peaks
    are found."""
    peaks = np.flatnonzero(sizes >= _MIN_PEAK_SAMPLES).tolist()
    if len(peaks) < 2:
        return None
    weights = [float(sizes[k]) for k in peaks]
    # The rate of fit_poisson in tests/reference.py, summed in its order.
    return sum(k * w for k, w in zip(peaks, weights)) / sum(weights)


def rate_histogram(
    traces: "Sequence[FluorescenceTrace]", cal: DetectionCalibration
) -> tuple[np.ndarray, np.ndarray]:
    """Bin edges and occurrences of the pooled background-subtracted detect
    rates, at a fixed bin width of rate_per_atom / 20 with edges on whole
    multiples of it: the histogram analyze writes, and that of
    build_histogram."""
    pooled = TraceTable.from_traces(traces).detect_rates().ravel()
    width = cal.rate_per_atom / 20.0
    lo = math.floor(pooled.min() / width) * width
    hi = math.ceil(pooled.max() / width) * width
    if hi <= lo:
        hi = lo + width
    edges = np.arange(lo, hi + 0.5 * width, width)
    occurrences, _ = np.histogram(pooled, bins=edges)
    return edges, occurrences


def build_histogram(
    traces: "Sequence[FluorescenceTrace]", cal: DetectionCalibration
) -> TraceHistogram:
    """Pool background-subtracted detect rates and count the integer-atom peaks.

    The histogram is rate_histogram's. Every pooled
    rate is rounded to the nearest non-negative whole atom number, as the
    staircase does before its median filter; atom number k is a peak when at
    least _MIN_PEAK_SAMPLES rates round to it, with those samples' count as
    its weight and their mean and standard deviation as its center and width.
    Its poisson_lambda is peak_lambda of those cell sizes.
    """
    table = TraceTable.from_traces(traces)
    edges, occurrences = rate_histogram(table, cal)
    pooled = table.detect_rates().ravel()
    cells = table.whole_atoms(cal.rate_per_atom).ravel()
    sizes = table.cell_sizes(cal.rate_per_atom)
    peaks: list[GaussianPeak] = []
    for k in np.flatnonzero(sizes >= _MIN_PEAK_SAMPLES):
        samples = pooled[cells == k]
        peaks.append(
            GaussianPeak(
                n_atoms=int(k),
                center=float(samples.mean()),
                width=float(samples.std()),
                weight=float(sizes[k]),
                sample_count=int(sizes[k]),
            )
        )
    return TraceHistogram(
        bin_edges=edges,
        occurrences=occurrences,
        peaks=peaks,
        poisson_lambda=peak_lambda(sizes),
    )


def poisson_pmf(k: float, lam: float) -> float:
    """Poisson probability of k events at mean lam >= 0,
    exp(k log lam - lam - lgamma(k + 1)); k = 0 gives exp(-lam).

    The expression is also taken at half-integer k (see chi2_sf).
    """
    if k == 0:
        return math.exp(-lam)
    if lam == 0.0:
        return 0.0
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def poisson_sf(k: int, lam: float) -> float:
    """P(X > k) for X Poisson with mean lam >= 0.

    The pmf terms are summed upward from k + 1, so a far tail keeps its
    relative precision where 1 - cdf would cancel. Past the mean the terms
    fall off faster than geometrically; the sum stops there at the first
    term below the last bit of the total.
    """
    if not (math.isfinite(lam) and lam >= 0):
        raise ValueError(f"Poisson mean must be finite and non-negative, got {lam!r}")
    total = 0.0
    j = max(k + 1, 0)
    while True:
        term = poisson_pmf(j, lam)
        total += term
        if j > lam and term <= total * 2.0 ** -53:
            return total
        j += 1


def chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with a whole number dof >= 1 of degrees of
    freedom, from the finite series of the incomplete gamma function.

    With y = x / 2, it is e^-y sum_{i<m} y^i / i! for dof = 2m, and
    erfc(sqrt y) + e^-y sum_{i<m} y^(i+1/2) / Gamma(i + 3/2) for
    dof = 2m + 1; each term is a poisson_pmf at y. x = inf gives 0 and
    x <= 0 gives 1.
    """
    if dof < 1 or dof != int(dof):
        raise ValueError(
            f"chi-square degrees of freedom must be a whole number >= 1, got {dof!r}"
        )
    if x <= 0:
        return 1.0
    if math.isinf(x):
        return 0.0
    y = 0.5 * x
    m, odd = divmod(int(dof), 2)
    head = math.erfc(math.sqrt(y)) if odd else 0.0
    return head + sum(poisson_pmf(i + 0.5 * odd, y) for i in range(m))
