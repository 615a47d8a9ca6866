"""Exactness of the batched photon layer against trace-by-trace references.

The staircase, the pooled rates, the histogram peaks, the occupancy profile
and the count synthesis run on whole arrays. The references below are the
loop forms they replace: a per-trace staircase through scipy's median
filter, one rounding cell per atom number, the per-segment, per-bin
occupancy accumulation, and three Poisson draws per shot, one per segment.
The arithmetic is the same operation for operation, so every comparison
here asks for equality, not closeness.
"""

import math

import numpy as np
import pytest
from scipy.ndimage import median_filter

from motprobe import photon
from motprobe.gillespie import (
    EventKind,
    ExperimentSchedule,
    Trajectory,
    derive_seed,
    derive_seeds,
    seeded_generators,
    simulate_trajectory,
)
from motprobe.inference import bin_by_nrb
from motprobe.photon import (
    DetectionCalibration,
    FluorescenceTrace,
    SegmentMap,
    TraceTable,
    build_histogram,
    count_means,
    estimate_staircase,
    segment_map_for,
    summarize_staircases,
    synthesize_bin,
    synthesize_counts,
)
from motprobe.physics import PhysicalParams
from reference import fit_poisson

UM = 1e-4

DEFAULTS = PhysicalParams(
    r0=1.48, alpha=2.3e-4, gamma=0.03,
    beta_rbcs=1.6e-10, beta_cscs=0.0,
    w_cs=6.6 * UM, w_rb=26.4 * UM,
)
PAIR_LOSS = PhysicalParams(
    r0=10.0, alpha=2.3e-4, gamma=0.03,
    beta_rbcs=1.6e-10, beta_cscs=2e-9,
    w_cs=6.6 * UM, w_rb=26.4 * UM,
)

CAL = DetectionCalibration(
    rate_per_atom=1e4, background_rate=5e3, dark_rate=0.0, bin_s=0.02
)


# ----------------------------------------------------------------------------
# References: the trace-by-trace loops
# ----------------------------------------------------------------------------

def reference_rates(trace):
    bg_rate = trace.background_counts.mean() / trace.bin_s
    return trace.detect_counts / trace.bin_s - bg_rate


def reference_staircase(trace, cal):
    """Staircase, load events and loss events, one trace at a time."""
    raw = np.rint(reference_rates(trace) / cal.rate_per_atom).astype(int)
    np.clip(raw, 0, None, out=raw)
    stair = median_filter(raw, size=3, mode="nearest")
    steps = np.diff(np.concatenate(([0], stair)))
    loads, losses = [], []
    for i in np.nonzero(steps)[0]:
        d = int(steps[i])
        if d > 0:
            loads.extend([int(i)] * d)
        else:
            k = -d
            while k >= 2:
                losses.append((int(i), 2))
                k -= 2
            if k == 1:
                losses.append((int(i), 1))
    return stair, loads, losses


def reference_occupancy(traj, n_bins, bin_s):
    """Per-segment, per-bin accumulation of the piecewise-constant level."""
    occ = np.zeros(n_bins)
    horizon = n_bins * bin_s

    def accumulate(a, b, level):
        if level == 0 or b <= a:
            return
        first = int(a / bin_s)
        last = min(int(math.ceil(b / bin_s)) - 1, n_bins - 1)
        for i in range(first, last + 1):
            lo = max(a, i * bin_s)
            hi = min(b, (i + 1) * bin_s)
            if hi > lo:
                occ[i] += level * (hi - lo)

    t_prev, level = 0.0, 0
    for t, _, n_after in traj.events:
        accumulate(t_prev, min(t, horizon), level)
        t_prev, level = t, n_after
    accumulate(t_prev, horizon, level)
    return occ / bin_s


# ----------------------------------------------------------------------------
# Crafted count traces
# ----------------------------------------------------------------------------

def random_trace(rng, n_detect, trace_id, *, bin_s=0.02, bg_rate=5e3):
    """Poisson counts over a random piecewise level of 0-5 atoms.

    Levels change at random bins (drops of several atoms included) and some
    bins flicker, so the median filter and the event read-out see every case.
    """
    n_off, n_bg = 3, 5
    levels = np.empty(n_detect, dtype=int)
    level = int(rng.integers(0, 6))
    for i in range(n_detect):
        if rng.random() < 0.08:
            level = int(rng.integers(0, 6))
        levels[i] = level
    flicker = rng.random(n_detect) < 0.05
    levels[flicker] = rng.integers(0, 6, flicker.sum())
    lam = (levels * CAL.rate_per_atom + bg_rate) * bin_s
    counts = np.concatenate([
        rng.poisson(lam),
        rng.poisson(0.0, n_off),
        # A brighter background segment drives the subtracted rates negative.
        rng.poisson(bg_rate * bin_s * rng.choice([1.0, 1.0, 3.0]), n_bg),
    ])
    return FluorescenceTrace(
        trace_id=trace_id, n_rb=0.0, bin_s=bin_s,
        segments=SegmentMap(
            detect=(0, n_detect),
            off=(n_detect, n_detect + n_off),
            background=(n_detect + n_off, n_detect + n_off + n_bg),
        ),
        counts=counts,
    )


@pytest.fixture(scope="module")
def mixed_traces():
    """Traces of detect length 1, 2, 3 and 150, interleaved."""
    rng = np.random.default_rng(20240611)
    lengths = [1, 2, 3, 150] * 40
    rng.shuffle(lengths)
    return [random_trace(rng, n, f"t{i:03d}") for i, n in enumerate(lengths)]


class TestStaircaseKernel:
    @pytest.mark.parametrize("n_detect", [1, 2, 3, 150])
    def test_single_trace_matches_median_filter(self, n_detect):
        rng = np.random.default_rng(n_detect)
        for k in range(60):
            trace = random_trace(rng, n_detect, f"t{k}")
            stair, loads, losses = reference_staircase(trace, CAL)
            est = estimate_staircase(trace, CAL)
            assert est.staircase.dtype.kind == "i"
            assert np.array_equal(est.staircase, stair)
            assert est.load_events == loads
            assert est.loss_events == losses
            ((_, rates),) = TraceTable.from_traces([trace]).detect_rates()
            assert np.array_equal(rates[0], reference_rates(trace))

    def test_cases_are_covered(self, mixed_traces):
        # The crafted traces do reach negative rates and multi-atom drops.
        rates = np.concatenate([reference_rates(t) for t in mixed_traces])
        assert (rates < -0.5 * CAL.rate_per_atom).any()
        drops = [
            mult
            for t in mixed_traces
            for _, mult in reference_staircase(t, CAL)[2]
        ]
        assert 2 in drops

    def test_summary_matches_trace_by_trace(self, mixed_traces):
        means, loads, lost = summarize_staircases(mixed_traces, CAL)
        ref_means, ref_loads, ref_lost = [], 0, 0
        for t in mixed_traces:
            stair, up, down = reference_staircase(t, CAL)
            ref_means.append(float(stair.mean()))
            ref_loads += len(up)
            ref_lost += sum(mult for _, mult in down)
        assert np.array_equal(means, np.array(ref_means))
        assert (loads, lost) == (ref_loads, ref_lost)

    def test_pooled_rates_keep_trace_order(self, mixed_traces):
        table = TraceTable.from_traces(mixed_traces)
        pooled = photon._pooled(table, table.detect_rates())
        assert np.array_equal(
            pooled, np.concatenate([reference_rates(t) for t in mixed_traces])
        )

    def test_errors_name_the_first_failing_trace(self):
        good = random_trace(np.random.default_rng(1), 5, "good")
        lone = FluorescenceTrace(
            trace_id="lone", n_rb=0.0, bin_s=0.02,
            segments=SegmentMap(detect=(0, 4), off=(4, 6), background=(6, 6)),
            counts=np.zeros(6, dtype=int),
        )
        with pytest.raises(ValueError, match="'lone'"):
            summarize_staircases([good, lone, good], CAL)
        with pytest.raises(ValueError, match="'lone'"):
            build_histogram([good, lone], CAL)
        dark = DetectionCalibration(rate_per_atom=0.0)
        with pytest.raises(ValueError, match="rate_per_atom"):
            summarize_staircases([lone], dark)


def steady_trace(level, n_detect, trace_id):
    """Noise-free counts at a fixed whole-atom level over a 5e3 /s background."""
    bg = 5e3 * CAL.bin_s
    counts = np.concatenate([
        np.full(n_detect, level * CAL.rate_per_atom * CAL.bin_s + bg),
        np.zeros(2),
        np.full(4, bg),
    ]).astype(int)
    return FluorescenceTrace(
        trace_id=trace_id, n_rb=0.0, bin_s=CAL.bin_s,
        segments=SegmentMap(
            detect=(0, n_detect),
            off=(n_detect, n_detect + 2),
            background=(n_detect + 2, n_detect + 6),
        ),
        counts=counts,
    )


class TestHistogramCells:
    def test_peaks_are_rounding_cells(self, mixed_traces):
        # Five rates at 7 atoms make a peak, three at 9 do not.
        traces = mixed_traces + [steady_trace(7, 5, "seven"), steady_trace(9, 3, "nine")]
        rates = np.concatenate([reference_rates(t) for t in traces])
        cells = np.clip(np.rint(rates / CAL.rate_per_atom).astype(int), 0, None)
        sizes = np.bincount(cells)
        assert (sizes[7], sizes[9]) == (5, 3)
        expected = [
            (k, float(sizes[k]), int(sizes[k]),
             float(rates[cells == k].mean()), float(rates[cells == k].std()))
            for k in range(len(sizes))
            if sizes[k] >= 5
        ]
        hist = build_histogram(traces, CAL)
        got = [
            (p.n_atoms, p.weight, p.sample_count, p.center, p.width)
            for p in hist.peaks
        ]
        assert got == expected
        ks = [k for k, *_ in expected]
        ns = [n for _, n, *_ in expected]
        assert hist.poisson_lambda == sum(k * n for k, n in zip(ks, ns)) / sum(ns)
        assert hist.poisson_lambda == fit_poisson(hist).lam


class TestMixedLayoutBin:
    def test_bin_fields_match_trace_by_trace(self):
        """One bin mixing two detect lengths (and a second bin width)."""
        layouts = [
            (ExperimentSchedule(detect_s=3.0), CAL),
            (ExperimentSchedule(detect_s=1.5), CAL),
            (
                ExperimentSchedule(detect_s=1.0, off_s=0.5, background_s=0.2),
                DetectionCalibration(bin_s=0.01),
            ),
        ]
        traces = []
        for ti in range(30):
            sched, cal = layouts[ti % len(layouts)]
            traj = simulate_trajectory(1100.0, DEFAULTS, sched, derive_seed(5, 0, ti))
            traces.append(synthesize_counts(
                traj, cal, sched, derive_seed(5, 1, ti), trace_id=f"m{ti:02d}"
            ))
        (b,) = bin_by_nrb(traces, CAL).bins

        ref_means, loads, lost, detect_time = [], 0, 0, 0.0
        for t in traces:
            stair, up, down = reference_staircase(t, CAL)
            ref_means.append(float(stair.mean()))
            loads += len(up)
            lost += sum(mult for _, mult in down)
            detect_time += len(stair) * t.bin_s
        ref_means = np.array(ref_means)
        assert np.array_equal(b.trace_means, ref_means)
        assert b.n_traces == len(traces)
        assert b.mean_n_cs == float(ref_means.mean())
        assert b.se_mean_n_cs == float(ref_means.std(ddof=1) / math.sqrt(len(traces)))
        assert (b.load_count, b.loss_atoms) == (loads, lost)
        assert b.detect_time_s == detect_time
        assert b.loading_rate == loads / detect_time
        assert b.loss_counts_per_time == lost / detect_time
        hist = build_histogram(traces, CAL)
        assert np.array_equal(b.histogram.occurrences, hist.occurrences)
        assert b.histogram.peaks == hist.peaks
        assert b.poisson_lambda == hist.poisson_lambda == fit_poisson(hist).lam


# ----------------------------------------------------------------------------
# Occupancy profile
# ----------------------------------------------------------------------------

def assert_same_occupancy(traj, n_bins, bin_s):
    got = photon._occupancy_rows([traj], n_bins, bin_s)[0]
    assert np.array_equal(got, reference_occupancy(traj, n_bins, bin_s))


class TestOccupancyKernel:
    @pytest.mark.parametrize("params", [DEFAULTS, PAIR_LOSS], ids=["default", "pair_loss"])
    @pytest.mark.parametrize("n_rb", [0.0, 1100.0, 3300.0])
    def test_simulated_trajectories(self, params, n_rb):
        sched = ExperimentSchedule()
        for seed in range(40):
            traj = simulate_trajectory(n_rb, params, sched, derive_seed(77, seed))
            assert_same_occupancy(traj, 150, 0.02)
            # A horizon shorter than the window leaves events past it.
            assert_same_occupancy(traj, 70, 0.02)

    def test_events_on_bin_edges_and_past_the_horizon(self):
        bin_s = 0.02
        edge = [k * bin_s for k in (1, 2, 5, 7, 10)]
        events = [
            (edge[0], EventKind.LOAD, 1),
            (edge[1], EventKind.LOAD, 2),
            (0.1, EventKind.LOSS_CSCS_PAIR, 0),  # 0.1 as a literal, near edge 5
            (edge[3], EventKind.LOAD, 1),
            (edge[4], EventKind.LOAD, 2),
            (0.2, EventKind.LOAD, 3),  # exactly on the horizon of 10 bins
            (0.25, EventKind.LOSS_BG, 2),  # past it
        ]
        traj = Trajectory(events=events, t_end=3.0, n_rb=0.0, seed=0)
        for n_bins in (3, 7, 10, 12, 150):
            assert_same_occupancy(traj, n_bins, bin_s)

    def test_random_piecewise_levels(self):
        # Dense events put many segments into one bin, where the order of
        # the additions shows in the last bits.
        rng = np.random.default_rng(99)
        bin_s = 0.02
        for _ in range(300):
            m = int(rng.integers(0, 30))
            on_edge = rng.integers(1, 40, m) * bin_s
            anywhere = rng.uniform(0.0, rng.choice([0.05, 0.8]), m)
            times = np.sort(np.where(rng.random(m) < 0.5, on_edge, anywhere))
            times = np.unique(times[times > 0.0])
            levels = rng.integers(0, 5, len(times))
            events = [
                (float(t), EventKind.LOAD, int(n)) for t, n in zip(times, levels)
            ]
            traj = Trajectory(events=events, t_end=1.0, n_rb=0.0, seed=0)
            assert_same_occupancy(traj, int(rng.integers(1, 40)), bin_s)


# ----------------------------------------------------------------------------
# Count synthesis per bin
# ----------------------------------------------------------------------------

def reference_counts(traj, cal, sched, seed):
    """One shot's counts as three Poisson draws, detect then off then
    background, on default_rng(seed)."""
    seg = segment_map_for(sched, cal.bin_s)
    nd = seg.detect[1] - seg.detect[0]
    occ = reference_occupancy(traj, nd, cal.bin_s)
    rng = np.random.default_rng(seed)
    return np.concatenate([
        rng.poisson((occ * cal.rate_per_atom + cal.background_rate) * cal.bin_s),
        rng.poisson(cal.dark_rate * cal.bin_s, size=seg.off[1] - seg.off[0]),
        rng.poisson(cal.background_rate * cal.bin_s, size=seg.background[1] - seg.background[0]),
    ])


def mismatched_shots(trajectories, cal, sched, seeds):
    """Shots whose synthesize_bin row differs from synthesize_counts or from
    the three-draw reference."""
    seg = segment_map_for(sched, cal.bin_s)
    rows = synthesize_bin(trajectories, cal, seg, seeded_generators(seeds))
    assert rows.shape == (len(trajectories), seg.n_bins)
    assert rows.dtype == np.int64
    bad = []
    for i, (traj, seed, row) in enumerate(zip(trajectories, seeds, rows)):
        single = synthesize_counts(traj, cal, sched, int(seed)).counts
        if not (
            np.array_equal(row, single)
            and np.array_equal(row, reference_counts(traj, cal, sched, int(seed)))
        ):
            bad.append(i)
    return bad


DARK_CAL = DetectionCalibration(
    rate_per_atom=1e4, background_rate=5e3, dark_rate=2e3, bin_s=0.02
)
FINE_DARK_CAL = DetectionCalibration(
    rate_per_atom=8e3, background_rate=3e3, dark_rate=750.0, bin_s=0.01
)
# No loading at this companion number: every trajectory is empty, the trap
# sits in its absorbing state.
ABSORBING_NRB = 7000.0


def simulated(params, n_rb, sched, count=25, master=31):
    seeds = derive_seeds(master, 0, int(n_rb), count=count)
    return [
        simulate_trajectory(n_rb, params, sched, int(s), rng=g)
        for s, g in zip(seeds, seeded_generators(seeds))
    ]


def crafted_trajectories():
    """Empty, on-edge, past-the-horizon and persistent-level trajectories."""
    bin_s = 0.02
    edge = [k * bin_s for k in (1, 2, 5, 7, 10)]
    return [
        Trajectory(events=[], t_end=3.0, n_rb=0.0, seed=0),
        Trajectory(events=[
            (edge[0], EventKind.LOAD, 1),
            (edge[1], EventKind.LOAD, 2),
            (0.1, EventKind.LOSS_CSCS_PAIR, 0),
            (edge[3], EventKind.LOAD, 1),
            (edge[4], EventKind.LOAD, 2),
        ], t_end=3.0, n_rb=0.0, seed=0),
        Trajectory(events=[(1.5, EventKind.LOAD, 1)], t_end=3.0, n_rb=0.0, seed=0),
        Trajectory(events=[], t_end=3.0, n_rb=0.0, seed=0),
        Trajectory(events=[
            (0.01, EventKind.LOAD, 1), (2.999, EventKind.LOAD, 2),
            (3.0, EventKind.LOSS_BG, 1),
        ], t_end=3.0, n_rb=0.0, seed=0),
    ]


class TestBinSynthesis:
    """synthesize_bin draws each shot with one poisson call on the shot's
    generator; its rows must equal synthesize_counts and the three-draw
    reference, shot by shot."""

    @pytest.mark.parametrize("cal", [CAL, DARK_CAL, FINE_DARK_CAL], ids=["dark0", "dark", "fine_dark"])
    @pytest.mark.parametrize("params, n_rb", [
        (DEFAULTS, 1100.0),
        (DEFAULTS, 3300.0),
        (PAIR_LOSS, 0.0),
        (PAIR_LOSS, 2200.0),
        (DEFAULTS, ABSORBING_NRB),
    ], ids=["default-1100", "default-3300", "pair_loss-0", "pair_loss-2200", "absorbing"])
    def test_simulated_bin(self, cal, params, n_rb):
        sched = ExperimentSchedule()
        trajectories = simulated(params, n_rb, sched)
        if n_rb == ABSORBING_NRB:
            assert all(not t.events for t in trajectories)
        seeds = derive_seeds(32, 1, int(n_rb), count=len(trajectories))
        assert mismatched_shots(trajectories, cal, sched, seeds) == []

    @pytest.mark.parametrize("cal", [CAL, DARK_CAL], ids=["dark0", "dark"])
    def test_crafted_trajectories(self, cal):
        sched = ExperimentSchedule()
        trajectories = crafted_trajectories()
        seeds = derive_seeds(33, 1, 0, count=len(trajectories))
        assert mismatched_shots(trajectories, cal, sched, seeds) == []

    def test_other_schedule(self):
        sched = ExperimentSchedule(detect_s=1.0, off_s=0.3, background_s=0.1)
        trajectories = simulated(DEFAULTS, 440.0, sched)
        seeds = derive_seeds(34, 1, 0, count=len(trajectories))
        assert mismatched_shots(trajectories, FINE_DARK_CAL, sched, seeds) == []

    def test_means_by_segment(self):
        sched = ExperimentSchedule()
        seg = segment_map_for(sched, DARK_CAL.bin_s)
        trajectories = crafted_trajectories()
        means = count_means(trajectories, DARK_CAL, seg)
        for traj, row in zip(trajectories, means):
            occ = reference_occupancy(traj, seg.detect[1], DARK_CAL.bin_s)
            assert np.array_equal(row[:seg.detect[1]], (occ * 1e4 + 5e3) * 0.02)
        assert np.all(means[:, seg.off[0]:seg.off[1]] == 2e3 * 0.02)
        assert np.all(means[:, seg.background[0]:seg.background[1]] == 5e3 * 0.02)

    def test_empty_set(self):
        seg = segment_map_for(ExperimentSchedule(), CAL.bin_s)
        assert synthesize_bin([], CAL, seg, []).shape == (0, seg.n_bins)

    def test_one_generator_per_shot(self):
        seg = segment_map_for(ExperimentSchedule(), CAL.bin_s)
        trajectories = crafted_trajectories()
        with pytest.raises(ValueError):
            synthesize_bin(trajectories, CAL, seg, seeded_generators([1, 2]))

    @pytest.mark.parametrize("mutant", ["swap_off_background", "no_dark"])
    def test_mutants_are_caught(self, monkeypatch, mutant):
        real = photon.count_means

        def mutated(trajectories, cal, seg):
            means = real(trajectories, cal, seg)
            off = slice(*seg.off)
            bg = slice(*seg.background)
            if mutant == "swap_off_background":
                means[:, off] = cal.background_rate * cal.bin_s
                means[:, bg] = cal.dark_rate * cal.bin_s
            else:
                means[:, off] = 0.0
            return means

        sched = ExperimentSchedule()
        trajectories = simulated(DEFAULTS, 1100.0, sched, count=5)
        seeds = derive_seeds(35, 1, 0, count=len(trajectories))
        assert mismatched_shots(trajectories, DARK_CAL, sched, seeds) == []
        monkeypatch.setattr(photon, "count_means", mutated)
        assert mismatched_shots(trajectories, DARK_CAL, sched, seeds) == list(range(5))
