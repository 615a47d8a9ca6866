"""Detection layer: count synthesis, background subtraction, staircase
recovery, pooled histograms, and the Poisson occupancy fit.
"""

import math

import numpy as np
import pytest

from motprobe.gillespie import (
    EventKind,
    ExperimentSchedule,
    PHOTON_STREAM,
    TRAJECTORY_STREAM,
    Trajectory,
    derive_seed,
    simulate_trajectory,
)
from motprobe.photon import (
    DetectionCalibration,
    FluorescenceTrace,
    GaussianPeak,
    SegmentMap,
    TraceHistogram,
    TraceTable,
    _occupancy_rows,
    build_histogram,
    estimate_staircase,
    segment_map_for,
    synthesize_counts,
)
from motprobe.physics import PhysicalParams, steady_state_mean
from reference import fit_poisson

UM = 1e-4

DEFAULTS = PhysicalParams(
    r0=1.48, alpha=2.3e-4, gamma=0.03,
    beta_rbcs=1.6e-10, beta_cscs=0.0,
    w_cs=6.6 * UM, w_rb=26.4 * UM,
)

CAL = DetectionCalibration(
    rate_per_atom=1e4, background_rate=5e3, dark_rate=0.0, bin_s=0.02
)

SCHED = ExperimentSchedule()


def make_trace(detect_counts, off_counts, bg_counts, n_rb=0.0, bin_s=0.02):
    nd, no, nb = len(detect_counts), len(off_counts), len(bg_counts)
    return FluorescenceTrace(
        trace_id="crafted",
        n_rb=n_rb,
        bin_s=bin_s,
        segments=SegmentMap(
            detect=(0, nd), off=(nd, nd + no), background=(nd + no, nd + no + nb)
        ),
        counts=np.concatenate([detect_counts, off_counts, bg_counts]).astype(int),
    )


def occupancy_row(traj, n_bins, bin_s):
    """Time-averaged atom number per detection bin of one trajectory."""
    return _occupancy_rows([traj], n_bins, bin_s)[0]


def detect_rates(trace):
    """Background-subtracted detect rates of one trace, from its table."""
    ((_, rates),) = TraceTable.from_traces([trace]).detect_rates()
    return rates[0]


def synth_pair(n_rb, ti, master=4001):
    traj = simulate_trajectory(
        n_rb, DEFAULTS, SCHED, derive_seed(master, TRAJECTORY_STREAM, 0, ti)
    )
    trace = synthesize_counts(
        traj, CAL, SCHED, derive_seed(master, PHOTON_STREAM, 0, ti)
    )
    return traj, trace


class TestSegmentMap:
    def test_default_schedule_tiling(self):
        seg = segment_map_for(SCHED, 0.02)
        assert seg.detect == (0, 150)
        assert seg.off == (150, 175)
        assert seg.background == (175, 185)
        assert seg.n_bins == 185

    def test_rejects_partial_bins(self):
        with pytest.raises(ValueError):
            segment_map_for(ExperimentSchedule(detect_s=0.03), 0.02)

    def test_rejects_broken_tiling(self):
        with pytest.raises(ValueError):
            SegmentMap(detect=(0, 150), off=(151, 175), background=(175, 185))


class TestOccupancyProfile:
    def test_empty_trajectory(self):
        traj = Trajectory(events=[], t_end=3.0, n_rb=0.0, seed=0)
        assert np.all(occupancy_row(traj, 150, 0.02) == 0.0)

    def test_half_bin_presence(self):
        events = [(0.01, EventKind.LOAD, 1), (0.02, EventKind.LOSS_BG, 0)]
        traj = Trajectory(events=events, t_end=3.0, n_rb=0.0, seed=0)
        occ = occupancy_row(traj, 150, 0.02)
        assert occ[0] == pytest.approx(0.5, rel=1e-12)
        assert np.all(occ[1:] == 0.0)

    def test_persistent_atom_fills_rest_of_trace(self):
        events = [(1.0, EventKind.LOAD, 1)]
        traj = Trajectory(events=events, t_end=3.0, n_rb=0.0, seed=0)
        occ = occupancy_row(traj, 150, 0.02)
        assert np.all(occ[:50] == 0.0)
        assert np.all(occ[50:] == pytest.approx(1.0))


class TestSynthesis:
    def test_background_only_means(self):
        traj = Trajectory(events=[], t_end=3.0, n_rb=0.0, seed=0)
        counts = np.concatenate([
            synthesize_counts(traj, CAL, SCHED, seed).detect_counts
            for seed in range(200)
        ])
        # Expected 100 counts per 20 ms bin from the 5 kHz background.
        assert abs(counts.mean() - 100.0) < 3 * math.sqrt(100.0 / len(counts))

    def test_single_atom_means(self):
        traj = Trajectory(events=[(1e-9, EventKind.LOAD, 1)], t_end=3.0, n_rb=0.0, seed=0)
        counts = np.concatenate([
            synthesize_counts(traj, CAL, SCHED, seed).detect_counts
            for seed in range(200)
        ])
        # 200 counts/atom/bin on top of 100 background counts.
        assert abs(counts.mean() - 300.0) < 3 * math.sqrt(300.0 / len(counts))

    def test_half_bin_occupancy_gives_half_signal(self):
        # Atom present for exactly half of every even bin: those bins must
        # average 100 excess counts over background.
        events = []
        n = 0
        for k in range(75):
            events.append((k * 0.04 + 0.01, EventKind.LOAD, 1))
            events.append((k * 0.04 + 0.02, EventKind.LOSS_BG, 0))
        traj = Trajectory(events=events, t_end=3.0, n_rb=0.0, seed=0)
        occ = occupancy_row(traj, 150, 0.02)
        assert np.allclose(occ[::2], 0.5, atol=1e-12)
        assert np.allclose(occ[1::2], 0.0, atol=1e-12)

        half_bins = np.concatenate([
            synthesize_counts(traj, CAL, SCHED, seed).detect_counts[::2]
            for seed in range(1400)
        ])
        assert len(half_bins) >= 100_000
        excess = half_bins.mean() - 100.0
        assert abs(excess - 100.0) < 3 * math.sqrt(200.0 / len(half_bins))

    def test_off_segment_sees_only_dark_rate(self):
        traj = Trajectory(events=[(1e-9, EventKind.LOAD, 1)], t_end=3.0, n_rb=0.0, seed=0)
        trace = synthesize_counts(traj, CAL, SCHED, 7)
        off = trace.counts[trace.segments.off[0]:trace.segments.off[1]]
        assert np.all(off == 0)

    def test_deterministic_given_seed(self):
        traj, _ = synth_pair(550.0, 0)
        a = synthesize_counts(traj, CAL, SCHED, 123)
        b = synthesize_counts(traj, CAL, SCHED, 123)
        assert np.array_equal(a.counts, b.counts)


class TestBackgroundSubtraction:
    def test_zero_atom_trace_centers_on_zero(self):
        # Each trace shares one background estimate across its detect bins,
        # so the independent unit is the trace, not the bin.
        traj = Trajectory(events=[], t_end=3.0, n_rb=0.0, seed=0)
        means = np.array([
            detect_rates(synthesize_counts(traj, CAL, SCHED, seed)).mean()
            for seed in range(100)
        ])
        se = means.std(ddof=1) / math.sqrt(len(means))
        assert abs(means.mean()) < 3 * se

    def test_single_atom_rate_recovered(self):
        traj = Trajectory(events=[(1e-9, EventKind.LOAD, 1)], t_end=3.0, n_rb=0.0, seed=0)
        means = np.array([
            detect_rates(synthesize_counts(traj, CAL, SCHED, seed)).mean()
            for seed in range(100)
        ])
        se = means.std(ddof=1) / math.sqrt(len(means))
        assert abs(means.mean() - 1e4) < 3 * se

    def test_common_offset_cancels(self):
        _, trace = synth_pair(550.0, 3)
        shifted = FluorescenceTrace(
            trace_id=trace.trace_id,
            n_rb=trace.n_rb,
            bin_s=trace.bin_s,
            segments=trace.segments,
            counts=trace.counts + 37,
        )
        assert np.allclose(
            detect_rates(trace), detect_rates(shifted), atol=1e-6
        )

    def test_requires_background_bins(self):
        trace = make_trace(np.full(150, 100), np.zeros(25), np.full(10, 100))
        lone = FluorescenceTrace(
            trace_id="x", n_rb=0.0, bin_s=0.02,
            segments=SegmentMap(detect=(0, 150), off=(150, 175), background=(175, 175)),
            counts=trace.counts[:175],
        )
        with pytest.raises(ValueError):
            detect_rates(lone)


class TestStaircase:
    def test_background_only_is_flat_zero(self):
        trace = make_trace(np.full(150, 100), np.zeros(25), np.full(10, 100))
        est = estimate_staircase(trace, CAL)
        assert np.all(est.staircase == 0)
        assert est.load_events == []
        assert est.loss_events == []

    def test_clean_single_atom_step(self):
        detect = np.concatenate([np.full(50, 100), np.full(100, 300)])
        trace = make_trace(detect, np.zeros(25), np.full(10, 100))
        est = estimate_staircase(trace, CAL)
        assert est.load_events == [50]
        assert est.loss_events == []
        assert est.staircase[49] == 0 and est.staircase[50] == 1

    def test_pair_loss_has_single_candidate(self):
        # Two atoms vanish at once: exactly one loss entry of multiplicity 2.
        detect = np.concatenate([np.full(10, 500), np.full(140, 100)])
        trace = make_trace(detect, np.zeros(25), np.full(10, 100))
        est = estimate_staircase(trace, CAL)
        assert est.load_events == [0, 0]
        assert est.loss_events == [(10, 2)]

    def test_triple_drop_decomposes_into_pair_plus_single(self):
        detect = np.concatenate([np.full(10, 700), np.full(140, 100)])
        trace = make_trace(detect, np.zeros(25), np.full(10, 100))
        est = estimate_staircase(trace, CAL)
        assert est.loss_events == [(10, 2), (10, 1)]

    def test_isolated_flicker_suppressed(self):
        detect = np.full(150, 100)
        detect[75] = 300  # single-bin outlier, no physical step
        trace = make_trace(detect, np.zeros(25), np.full(10, 100))
        est = estimate_staircase(trace, CAL)
        assert np.all(est.staircase == 0)
        assert est.load_events == [] and est.loss_events == []

    def test_round_trip_bin_accuracy(self):
        # >= 99% of bins must carry the true occupancy at default SNR.
        total = correct = 0
        for ti in range(120):
            traj, trace = synth_pair(550.0, ti)
            est = estimate_staircase(trace, CAL)
            occ = occupancy_row(traj, 150, CAL.bin_s)
            truth = np.clip(np.rint(occ), 0, None).astype(int)
            correct += int((est.staircase == truth).sum())
            total += truth.size
        assert correct / total >= 0.99, f"bin accuracy {correct / total:.4f}"


class TestHistogram:
    def test_all_empty_traces_single_peak_at_zero(self):
        traj = Trajectory(events=[], t_end=3.0, n_rb=0.0, seed=0)
        traces = [synthesize_counts(traj, CAL, SCHED, s) for s in range(50)]
        hist = build_histogram(traces, CAL)
        assert len(hist.peaks) == 1
        assert hist.peaks[0].n_atoms == 0
        assert abs(hist.peaks[0].center) < 500.0

    def test_mid_grid_ensemble_resolves_multiple_atoms(self):
        traces = [synth_pair(550.0, ti)[1] for ti in range(250)]
        hist = build_histogram(traces, CAL)
        assert len(hist.peaks) >= 4
        assert hist.poisson_lambda == fit_poisson(hist).lam
        for peak in hist.peaks[:4]:
            target = peak.n_atoms * CAL.rate_per_atom
            assert abs(peak.center - target) <= 0.05 * CAL.rate_per_atom

    def test_peak_count_bounded_by_occupancy(self):
        traces = []
        max_n = 0
        for ti in range(150):
            _, trace = synth_pair(550.0, ti)
            traces.append(trace)
            max_n = max(max_n, int(estimate_staircase(trace, CAL).staircase.max()))
        hist = build_histogram(traces, CAL)
        assert len(hist.peaks) <= 1 + max_n

    def test_weights_bounded_by_bin_count(self):
        traces = [synth_pair(550.0, ti)[1] for ti in range(100)]
        hist = build_histogram(traces, CAL)
        assert sum(p.weight for p in hist.peaks) <= 100 * 150
        assert all(p.weight >= 0 for p in hist.peaks)


def _weights_histogram(weights):
    peaks = [
        GaussianPeak(
            n_atoms=k, center=k * 1e4, width=500.0,
            weight=float(w), sample_count=max(int(w), 1),
        )
        for k, w in enumerate(weights)
    ]
    edges = np.arange(-0.5e4, (len(weights) + 0.5) * 1e4, 1e4)
    return TraceHistogram(
        bin_edges=edges,
        occurrences=np.asarray(weights, dtype=int),
        peaks=peaks,
    )


class TestPoissonFit:
    def test_all_weight_at_zero(self):
        fit = fit_poisson(_weights_histogram([1000, 0, 0]))
        assert fit.lam == 0.0

    def test_degenerate_weights_rejected(self):
        with pytest.raises(ValueError):
            fit_poisson(_weights_histogram([0, 0, 0]))

    def test_sampled_poisson_weights_recover_rate(self):
        rng = np.random.default_rng(42)
        n = 20_000
        ws = np.bincount(rng.poisson(1.0, n))
        fit = fit_poisson(_weights_histogram(ws))
        assert abs(fit.lam - 1.0) < 3 * math.sqrt(1.0 / n)
        assert fit.p_value > 0.01

    def test_steady_state_occupancy_is_poisson(self):
        # One independent sample per trace: the final detect bin, long after
        # the fill-up transient and decorrelated across traces. Pooling all
        # bins would feed the chi-square thousands of serially correlated
        # samples and reject any rate.
        singles = []
        for ti in range(400):
            traj, trace = synth_pair(2300.0, ti, master=3001)
            seg = SegmentMap(detect=(0, 1), off=(1, 26), background=(26, 36))
            singles.append(FluorescenceTrace(
                trace_id=trace.trace_id,
                n_rb=trace.n_rb,
                bin_s=trace.bin_s,
                segments=seg,
                counts=np.concatenate([trace.counts[149:150], trace.counts[150:185]]),
            ))
        hist = build_histogram(singles, CAL)
        fit = fit_poisson(hist)
        assert hist.poisson_lambda == fit.lam
        assert fit.p_value > 0.01, f"p={fit.p_value:.4f}"
        lam_true = steady_state_mean(2300.0, DEFAULTS)
        assert abs(fit.lam - lam_true) < 3 * math.sqrt(lam_true / 400)
