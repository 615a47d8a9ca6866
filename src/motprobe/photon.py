"""Photon-count synthesis and atom-number recovery.

Forward direction: turn simulated trajectories into Poisson photon counts in
fixed time bins, including the light-off and background segments of each
shot. A bin of shots is synthesized at once from its EventTable (the event
times and levels of all shots in flat columns): one occupancy matrix, one
matrix of Poisson means and one draw per shot on its own generator.
Inverse direction: background subtraction, integer staircase estimation
with a short median filter, pooled count-rate histograms whose integer-atom
peaks are counted in rounding cells, and the Poisson rate of the peak
weights (their weight-weighted mean atom number).
The inverse steps run on a TraceTable: trace ids, n_rb and one
(traces x bins) count matrix per segment layout, whose detect rates and
whole-atom numbers are computed once and shared by the staircase and the
histogram. In both directions a whole bin of traces is processed at once;
the one-trace forms synthesize_counts and estimate_staircase stay because
the benchmark tracer (bench/tracing.py) wraps them by name.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .gillespie import EventTable, ExperimentSchedule, Trajectory

__all__ = [
    "DetectionCalibration",
    "SegmentMap",
    "FluorescenceTrace",
    "TraceLayout",
    "TraceTable",
    "AtomNumberEstimate",
    "GaussianPeak",
    "TraceHistogram",
    "segment_map_for",
    "count_means",
    "synthesize_bin",
    "synthesize_counts",
    "estimate_staircase",
    "summarize_staircases",
    "build_histogram",
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
        for name in ("rate_per_atom", "background_rate", "dark_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        if not (math.isfinite(self.bin_s) and self.bin_s > 0):
            raise ValueError(f"bin_s must be finite and positive, got {self.bin_s!r}")


@dataclass(frozen=True)
class SegmentMap:
    """Half-open bin-index ranges of the three shot segments."""

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
    """Photon counts of one shot plus the segment layout that produced them."""

    trace_id: str
    n_rb: float
    bin_s: float
    segments: SegmentMap
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts)
        if self.counts.ndim != 1 or len(self.counts) != self.segments.n_bins:
            raise ValueError(
                f"counts length {len(self.counts)} does not match segment map "
                f"({self.segments.n_bins} bins)"
            )
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def detect_counts(self) -> np.ndarray:
        i0, i1 = self.segments.detect
        return self.counts[i0:i1]

    @property
    def background_counts(self) -> np.ndarray:
        i0, i1 = self.segments.background
        return self.counts[i0:i1]


@dataclass(frozen=True)
class TraceLayout:
    """The rows of a TraceTable that share one segment layout and bin width.

    positions are the table rows held, ascending; counts holds them one per
    row, in that order.
    """

    segments: SegmentMap
    bin_s: float
    positions: np.ndarray
    counts: np.ndarray


class TraceTable(Sequence):
    """Traces held as columns: ids, n_rb and one count matrix per layout.

    It is also a read-only sequence of FluorescenceTrace: item i is a trace
    whose counts are a read-only view of its matrix row, so code written for
    a list of traces runs on a table unchanged. The background-subtracted
    detect rates and their whole-atom numbers are computed on first use and
    kept (detect_rates, whole_atoms).
    """

    def __init__(
        self,
        trace_ids: "Sequence[str]",
        n_rb: "Sequence[float] | np.ndarray",
        layouts: "Sequence[TraceLayout]",
    ):
        self.trace_ids = list(trace_ids)
        self.n_rb = np.array(n_rb, dtype=float)
        self.n_rb.flags.writeable = False
        self.layouts = tuple(layouts)
        self._layout_of = np.empty(len(self.trace_ids), dtype=np.intp)
        self._row_of = np.empty(len(self.trace_ids), dtype=np.intp)
        for k, layout in enumerate(self.layouts):
            layout.counts.flags.writeable = False
            self._layout_of[layout.positions] = k
            self._row_of[layout.positions] = np.arange(len(layout.positions))
        self._rates: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._atoms: tuple[float, list[tuple[np.ndarray, np.ndarray]]] | None = None

    @classmethod
    def from_traces(cls, traces: "Sequence[FluorescenceTrace]") -> "TraceTable":
        """The table of a sequence of traces (itself, if it is a table).

        Layouts come in order of first appearance; each matrix is the
        layout's counts stacked in trace order.
        """
        if isinstance(traces, TraceTable):
            return traces
        groups: dict[tuple[SegmentMap, float], list[int]] = {}
        for i, t in enumerate(traces):
            groups.setdefault((t.segments, t.bin_s), []).append(i)
        layouts = [
            TraceLayout(
                segments=seg,
                bin_s=bin_s,
                positions=np.array(positions),
                counts=np.stack([traces[i].counts for i in positions]),
            )
            for (seg, bin_s), positions in groups.items()
        ]
        return cls([t.trace_id for t in traces], [t.n_rb for t in traces], layouts)

    def __len__(self) -> int:
        return len(self.trace_ids)

    def __getitem__(self, index: int) -> FluorescenceTrace:
        i = range(len(self))[operator.index(index)]
        layout = self.layouts[self._layout_of[i]]
        return FluorescenceTrace(
            trace_id=self.trace_ids[i],
            n_rb=float(self.n_rb[i]),
            bin_s=layout.bin_s,
            segments=layout.segments,
            counts=layout.counts[self._row_of[i]],
        )

    def take(self, rows: np.ndarray) -> "TraceTable":
        """The table of the given rows, in the order given."""
        rows = np.asarray(rows, dtype=np.intp)
        layout_of = self._layout_of[rows]
        layouts = []
        for k, layout in enumerate(self.layouts):
            positions = np.flatnonzero(layout_of == k)
            if not len(positions):
                continue
            layouts.append(TraceLayout(
                segments=layout.segments,
                bin_s=layout.bin_s,
                positions=positions,
                counts=layout.counts[self._row_of[rows[positions]]],
            ))
        return TraceTable([self.trace_ids[i] for i in rows], self.n_rb[rows], layouts)

    def detect_rates(self) -> "list[tuple[np.ndarray, np.ndarray]]":
        """Background-subtracted detect rates (1/s), one matrix per layout.

        Returns (positions, rates) per layout, in layout order; computed on
        the first call and kept.
        """
        if self._rates is None:
            self._rates = [
                (
                    layout.positions,
                    _detect_rates(
                        layout.counts, layout.segments, layout.bin_s,
                        self.trace_ids[layout.positions[0]],
                    ),
                )
                for layout in self.layouts
            ]
        return self._rates

    def whole_atoms(self, rate_per_atom: float) -> "list[tuple[np.ndarray, np.ndarray]]":
        """detect_rates rounded to the nearest non-negative whole atom number,
        as (positions, atoms) per layout; computed on the first call for a
        rate_per_atom and kept, so the staircase and the histogram of a bin
        share them."""
        if self._atoms is None or self._atoms[0] != rate_per_atom:
            self._atoms = (rate_per_atom, [
                (positions, _whole_atoms(rates, rate_per_atom))
                for positions, rates in self.detect_rates()
            ])
        return self._atoms[1]


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
    rngs: "Iterable[np.random.Generator]",
) -> np.ndarray:
    """Photon counts of a set of shots, one row per trajectory.

    The Poisson means of all shots form one matrix (count_means); each row
    is drawn by one rng.poisson call on that shot's own generator, taken
    from rngs in order. The draws are those of one poisson call per segment
    in segment order, since numpy draws an array of means element by element.
    trajectories may be an EventTable (what simulate_bin returns); any other
    sequence of trajectories is turned into one first.
    """
    means = count_means(trajectories, cal, seg)
    counts = np.empty(means.shape, dtype=np.int64)
    for out, mean, rng in zip(counts, means, rngs, strict=True):
        out[:] = rng.poisson(mean)
    return counts


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
    (counts,) = synthesize_bin([traj], cal, seg, [rng])
    if trace_id is None:
        trace_id = f"seed{traj.seed:020d}"
    return FluorescenceTrace(
        trace_id=trace_id,
        n_rb=traj.n_rb,
        bin_s=cal.bin_s,
        segments=seg,
        counts=counts,
    )


def _detect_rates(
    counts: np.ndarray, seg: SegmentMap, bin_s: float, trace_id: str
) -> np.ndarray:
    """Detect-bin rates minus each row's mean background-segment rate (1/s),
    for counts stacked one trace per row."""
    b0, b1 = seg.background
    if b1 == b0:
        raise ValueError(f"trace {trace_id!r} has an empty background segment")
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
    tracer (bench/tracing.py) wraps it by name.
    """
    if cal.rate_per_atom <= 0:
        raise ValueError("rate_per_atom must be positive to quantize occupancy")
    rates = _detect_rates(
        trace.counts[None, :], trace.segments, trace.bin_s, trace.trace_id
    )
    stair = _staircase_rows(_whole_atoms(rates, cal.rate_per_atom))[0]
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
    """Staircase totals of a set of traces, one rate matrix per layout.

    Returns each trace's mean recovered atom number (in the order of traces),
    the number of up-steps and the number of atoms lost over all traces: the
    same figures estimate_staircase gives trace by trace.
    """
    if cal.rate_per_atom <= 0:
        raise ValueError("rate_per_atom must be positive to quantize occupancy")
    table = TraceTable.from_traces(traces)
    means = np.empty(len(table))
    loads = 0
    lost = 0
    for positions, atoms in table.whole_atoms(cal.rate_per_atom):
        stair = _staircase_rows(atoms)
        means[positions] = stair.mean(axis=1)
        steps = np.diff(stair, axis=1, prepend=0)
        loads += int(steps[steps > 0].sum())
        lost -= int(steps[steps < 0].sum())
    return means, loads, lost


def _pooled(table: TraceTable, blocks: "list[tuple[np.ndarray, np.ndarray]]") -> np.ndarray:
    """Per-layout (positions, rows) blocks of a table, such as its detect
    rates, concatenated in trace order: each layout's rows are written to
    their offsets."""
    lengths = np.empty(len(table), dtype=np.intp)
    for positions, rows in blocks:
        lengths[positions] = rows.shape[1]
    starts = np.cumsum(lengths) - lengths
    pooled = np.empty(int(lengths.sum()), dtype=blocks[0][1].dtype)
    for positions, rows in blocks:
        pooled[starts[positions][:, None] + np.arange(rows.shape[1])] = rows
    return pooled


# Minimum pooled samples rounding to an atom number before it is a peak.
_MIN_PEAK_SAMPLES = 5


def build_histogram(
    traces: "Sequence[FluorescenceTrace]", cal: DetectionCalibration
) -> TraceHistogram:
    """Pool background-subtracted detect rates and count the integer-atom peaks.

    The histogram uses a fixed bin width of rate_per_atom / 20. Every pooled
    rate is rounded to the nearest non-negative whole atom number, as the
    staircase does before its median filter; atom number k is a peak when at
    least _MIN_PEAK_SAMPLES rates round to it, with those samples' count as
    its weight and their mean and standard deviation as its center and width.
    """
    if not traces:
        raise ValueError("need at least one trace")
    if cal.rate_per_atom <= 0:
        raise ValueError("rate_per_atom must be positive")
    table = TraceTable.from_traces(traces)
    pooled = _pooled(table, table.detect_rates())
    width = cal.rate_per_atom / 20.0
    lo = math.floor(pooled.min() / width) * width
    hi = math.ceil(pooled.max() / width) * width
    if hi <= lo:
        hi = lo + width
    edges = np.arange(lo, hi + 0.5 * width, width)
    occurrences, _ = np.histogram(pooled, bins=edges)

    cells = _pooled(table, table.whole_atoms(cal.rate_per_atom))
    sizes = np.bincount(cells)
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

    lam = None
    if len(peaks) >= 2:
        # The rate of fit_poisson in tests/reference.py, summed in its order.
        lam = sum(p.n_atoms * p.weight for p in peaks) / sum(p.weight for p in peaks)
    return TraceHistogram(
        bin_edges=edges, occurrences=occurrences, peaks=peaks, poisson_lambda=lam
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
