"""Estimation chain: binning, loading-line fit, steady-state labeling, the
loss-coefficient fit, and both uncertainty estimates.
"""

import math

import numpy as np
import pytest

from motprobe.inference import (
    BinnedDataset,
    IllConditionedFitError,
    InferenceError,
    LoadingFit,
    NoSteadyBinsError,
    NrbBin,
    bin_by_nrb,
    bootstrap_stat_error,
    classify_steady_state,
    fit_beta,
    fit_loading_rate,
    group_by_bin,
    propagate_systematics,
)
from motprobe.photon import DetectionCalibration, FluorescenceTrace, SegmentMap
from motprobe.physics import PhysicalParams, pair_overlap_volume, steady_state_mean

UM = 1e-4

DEFAULTS = PhysicalParams(
    r0=1.48, alpha=2.3e-4, gamma=0.03,
    beta_rbcs=1.6e-10, beta_cscs=0.0,
    w_cs=6.6 * UM, w_rb=26.4 * UM,
)

CAL = DetectionCalibration(
    rate_per_atom=1e4, background_rate=5e3, dark_rate=0.0, bin_s=0.02
)


def make_bin(center, *, mean=0.0, se=0.01, loading=0.0, loads=100,
             loss_rate=0.0, loss_atoms=0, t=600.0, trace_means=None):
    return NrbBin(
        center=float(center), n_traces=200, mean_n_cs=float(mean),
        se_mean_n_cs=float(se), loading_rate=float(loading),
        load_count=int(loads), loss_counts_per_time=float(loss_rate),
        loss_atoms=int(loss_atoms), detect_time_s=float(t),
        poisson_lambda=float("nan"), trace_means=trace_means,
    )


def flat_trace(n_rb, n_detect=150):
    counts = np.concatenate([
        np.full(n_detect, 100), np.zeros(25, dtype=int), np.full(10, 100)
    ])
    return FluorescenceTrace(
        trace_id=f"flat{n_rb}", n_rb=float(n_rb), bin_s=0.02,
        segments=SegmentMap(
            detect=(0, n_detect), off=(n_detect, n_detect + 25),
            background=(n_detect + 25, n_detect + 35),
        ),
        counts=counts,
    )


class TestGrouping:
    def test_nearest_multiple_assignment(self):
        traces = [flat_trace(v) for v in (0.0, 109.9, 110.0, 329.9, 330.0, 3300.0)]
        groups = group_by_bin(traces, width=220.0)
        assert sorted(groups) == [0.0, 220.0, 440.0, 3300.0]
        assert [t.n_rb for t in groups[0.0]] == [0.0, 109.9]
        assert [t.n_rb for t in groups[220.0]] == [110.0, 329.9]
        assert [t.n_rb for t in groups[440.0]] == [330.0]

    def test_off_origin_grid_keeps_grid_points(self):
        grid = np.arange(110, 3411, 220)
        traces = [flat_trace(v) for v in grid]
        groups = group_by_bin(traces, width=220.0, origin=110.0)
        assert list(groups) == [float(v) for v in grid]
        binned = bin_by_nrb(traces, CAL, width=220.0, origin=110.0)
        assert binned.centers().tolist() == [float(v) for v in grid]

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            group_by_bin([flat_trace(0.0)], width=0.0)


class TestBinning:
    def test_eventless_trace_gives_zero_rates(self):
        binned = bin_by_nrb([flat_trace(0.0)], CAL)
        b = binned.bins[0]
        assert b.loading_rate == 0.0
        assert b.loss_counts_per_time == 0.0
        assert b.mean_n_cs == 0.0
        assert b.se_mean_n_cs == 0.0
        assert b.detect_time_s == pytest.approx(3.0)

    def test_requires_traces(self):
        with pytest.raises(ValueError):
            bin_by_nrb([], CAL)


class TestLoadingFit:
    def test_exact_on_noiseless_line(self):
        bins = [
            make_bin(c, loading=1.48 - 2.3e-4 * c, loads=500 + 7 * i)
            for i, c in enumerate(np.arange(0, 3301, 220.0))
        ]
        fit = fit_loading_rate(BinnedDataset(width=220.0, bins=bins))
        assert fit.r0 == pytest.approx(1.48, rel=1e-10)
        assert fit.alpha == pytest.approx(2.3e-4, rel=1e-10)

    def test_all_zero_rates(self):
        bins = [make_bin(c, loading=0.0, loads=0) for c in (0.0, 220.0, 440.0)]
        fit = fit_loading_rate(BinnedDataset(width=220.0, bins=bins))
        assert fit.r0 == 0.0
        assert fit.alpha == 0.0

    def test_needs_three_bins(self):
        bins = [make_bin(0.0, loading=1.0), make_bin(220.0, loading=0.9)]
        with pytest.raises(InferenceError):
            fit_loading_rate(BinnedDataset(width=220.0, bins=bins))

    def test_degenerate_abscissa_rejected(self):
        bins = [make_bin(220.0, loading=v) for v in (1.0, 1.1, 0.9)]
        with pytest.raises(IllConditionedFitError):
            fit_loading_rate(BinnedDataset(width=220.0, bins=bins))

    def test_unbiased_over_replications(self):
        # Clean Poisson counts on the true line; the mean estimate over 100
        # replications must sit within two standard errors of truth.
        rng = np.random.default_rng(2718)
        centers = np.arange(0, 3301, 220.0)
        t_tot = 600.0
        r0s, alphas = [], []
        for _ in range(100):
            bins = []
            for c in centers:
                k = int(rng.poisson((1.48 - 2.3e-4 * c) * t_tot))
                bins.append(make_bin(c, loading=k / t_tot, loads=k, t=t_tot))
            fit = fit_loading_rate(BinnedDataset(width=220.0, bins=bins))
            r0s.append(fit.r0)
            alphas.append(fit.alpha)
        r0s, alphas = np.array(r0s), np.array(alphas)
        assert abs(r0s.mean() - 1.48) < 2 * r0s.std(ddof=1) / 10
        assert abs(alphas.mean() - 2.3e-4) < 2 * alphas.std(ddof=1) / 10


class TestSteadyClassifier:
    def test_balanced_bin_is_steady(self):
        bins = [make_bin(c, loading=1.0, loss_rate=1.0) for c in (2200.0, 2420.0)]
        assert classify_steady_state(BinnedDataset(220.0, bins)) == ["steady", "steady"]

    def test_lossless_bin_is_transient(self):
        bins = [make_bin(0.0, loading=1.0, loss_rate=0.0)]
        assert classify_steady_state(BinnedDataset(220.0, bins)) == ["transient"]

    def test_contiguous_from_the_top(self):
        # The middle bin balances, but the region must be contiguous from
        # the high-companion side, so the break below it stays transient.
        bins = [
            make_bin(0.0, loading=2.0, loss_rate=0.1),
            make_bin(220.0, loading=1.0, loss_rate=1.0),
            make_bin(440.0, loading=2.0, loss_rate=0.5),
            make_bin(660.0, loading=1.0, loss_rate=1.05),
            make_bin(880.0, loading=1.0, loss_rate=0.95),
        ]
        labels = classify_steady_state(BinnedDataset(220.0, bins), tol=0.3)
        assert labels == ["transient", "transient", "transient", "steady", "steady"]

    def test_wider_tolerance_extends_the_region(self):
        bins = [
            make_bin(c, loading=1.0 + 0.1 * (5 - i), loss_rate=1.0)
            for i, c in enumerate(np.arange(0, 1101, 220.0))
        ]
        for tol_lo, tol_hi in [(0.05, 0.2), (0.2, 0.4), (0.0, 0.6)]:
            lo = classify_steady_state(BinnedDataset(220.0, bins), tol=tol_lo)
            hi = classify_steady_state(BinnedDataset(220.0, bins), tol=tol_hi)
            assert all(
                h == "steady" or l == "transient" for l, h in zip(lo, hi)
            ), (lo, hi)


def noiseless_bins(params, centers, se=0.01):
    return [
        make_bin(
            c,
            mean=steady_state_mean(c, params),
            se=se,
            loading=1.48 - 2.3e-4 * c,
            loss_rate=1.48 - 2.3e-4 * c,
        )
        for c in centers
    ]


EXACT_LINE = LoadingFit(
    r0=1.48, r0_err=0.0, alpha=2.3e-4, alpha_err=0.0,
    residuals=np.zeros(1), chi2=0.0, dof=1,
)


class TestBetaFit:
    def test_noiseless_inversion(self):
        centers = np.arange(1100, 3301, 220.0)
        binned = BinnedDataset(220.0, noiseless_bins(DEFAULTS, centers))
        fit = fit_beta(binned, DEFAULTS, EXACT_LINE)
        assert abs(fit.beta - 1.6e-10) / 1.6e-10 < 1e-6
        assert fit.n_points == len(centers)

    def test_zero_coefficient_lands_on_boundary(self):
        p = PhysicalParams(
            r0=1.48, alpha=2.3e-4, gamma=0.03, beta_rbcs=0.0, beta_cscs=0.0,
            w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        centers = np.arange(1100, 3301, 220.0)
        binned = BinnedDataset(220.0, noiseless_bins(p, centers))
        fit = fit_beta(binned, p, EXACT_LINE)
        assert fit.beta == 0.0

    def test_refuses_pair_loss_physics(self):
        centers = np.arange(1100, 3301, 220.0)
        binned = BinnedDataset(220.0, noiseless_bins(DEFAULTS, centers))
        pair = PhysicalParams(
            r0=1.48, alpha=2.3e-4, gamma=0.03, beta_rbcs=1.6e-10, beta_cscs=2e-9,
            w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        with pytest.raises(InferenceError, match="beta_cscs"):
            fit_beta(binned, pair, EXACT_LINE)

    def test_needs_two_steady_bins(self):
        bins = [make_bin(c, loading=1.0, loss_rate=0.0) for c in (0.0, 220.0, 440.0)]
        with pytest.raises(NoSteadyBinsError) as err:
            fit_beta(BinnedDataset(220.0, bins), DEFAULTS, EXACT_LINE)
        assert "per-bin outcome" in str(err.value)

    def test_transient_bins_would_skew_the_fit(self):
        # Window-averaged means lie below the steady values, most strongly
        # at low companion numbers; forcing those bins into the fit must
        # move the estimate by much more than its statistical error.
        v_pair = pair_overlap_volume(DEFAULTS.w_cs, DEFAULTS.w_rb)
        t_end = 3.0
        centers = np.arange(220, 3301, 220.0)
        bins = []
        for c in centers:
            load = 1.48 - 2.3e-4 * c
            g = DEFAULTS.gamma + DEFAULTS.beta_rbcs * c / v_pair
            window_mean = load / g * (1.0 - (1.0 - math.exp(-g * t_end)) / (g * t_end))
            bins.append(make_bin(c, mean=window_mean, loading=load, loss_rate=load))
        binned = BinnedDataset(220.0, bins)
        labels_proper = ["transient" if c < 1100 else "steady" for c in centers]
        fit_proper = fit_beta(binned, DEFAULTS, EXACT_LINE, labels=labels_proper)
        fit_all = fit_beta(binned, DEFAULTS, EXACT_LINE, labels=["steady"] * len(bins))
        assert abs(fit_all.beta - fit_proper.beta) > 3 * fit_proper.stat_err


class TestSystematics:
    def test_unit_factors_give_zero(self):
        centers = np.arange(1100, 3301, 220.0)
        binned = BinnedDataset(220.0, noiseless_bins(DEFAULTS, centers))
        fit = fit_beta(binned, DEFAULTS, EXACT_LINE)
        assert propagate_systematics(
            binned, DEFAULTS, EXACT_LINE, fit, nrb_factor=1.0, size_frac=0.0
        ) == 0.0

    def test_abscissa_scaling_analytic_when_gamma_negligible(self):
        # With gamma = 0 the model is (R0 - alpha*n) * V / (beta * n), so
        # scaling all abscissas by f (with the slope transformed exactly)
        # rescales the fitted coefficient by 1/f. The corner spread is then
        # beta * (f - 1/f) / 2 in closed form.
        p = PhysicalParams(
            r0=1.48, alpha=2.3e-4, gamma=0.0, beta_rbcs=1.6e-10, beta_cscs=0.0,
            w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        centers = np.arange(1100, 3301, 220.0)
        binned = BinnedDataset(220.0, noiseless_bins(p, centers))
        fit = fit_beta(binned, p, EXACT_LINE)
        assert fit.beta == pytest.approx(1.6e-10, rel=1e-6)
        syst = propagate_systematics(
            binned, p, EXACT_LINE, fit, nrb_factor=1.3, size_frac=0.0
        )
        predicted = 1.6e-10 * (1.3 - 1.0 / 1.3) / 2.0
        assert syst == pytest.approx(predicted, rel=1e-3)

    def test_rejects_bad_factors(self):
        centers = np.arange(1100, 3301, 220.0)
        binned = BinnedDataset(220.0, noiseless_bins(DEFAULTS, centers))
        fit = fit_beta(binned, DEFAULTS, EXACT_LINE)
        with pytest.raises(ValueError):
            propagate_systematics(
                binned, DEFAULTS, EXACT_LINE, fit, nrb_factor=0.0
            )


class TestBootstrap:
    def _binned_with_traces(self, spread):
        rng = np.random.default_rng(11)
        centers = np.arange(1100, 3301, 220.0)
        bins = []
        for c in centers:
            mean = steady_state_mean(c, DEFAULTS)
            tm = np.full(200, mean) + spread * rng.standard_normal(200)
            bins.append(make_bin(
                c, mean=float(tm.mean()),
                se=float(tm.std(ddof=1) / math.sqrt(len(tm))) if spread else 0.01,
                loading=1.48 - 2.3e-4 * c, loss_rate=1.48 - 2.3e-4 * c,
                trace_means=tm,
            ))
        return BinnedDataset(220.0, bins)

    def test_zero_variance_data_gives_negligible_error(self):
        binned = self._binned_with_traces(spread=0.0)
        fit = fit_beta(binned, DEFAULTS, EXACT_LINE)
        err = bootstrap_stat_error(
            binned, DEFAULTS, EXACT_LINE, fit, resamples=50, seed=1
        )
        # every resample refits identical means; only float residue remains
        assert err <= 1e-12 * fit.beta

    def test_deterministic_given_seed(self):
        binned = self._binned_with_traces(spread=0.05)
        fit = fit_beta(binned, DEFAULTS, EXACT_LINE)
        a = bootstrap_stat_error(binned, DEFAULTS, EXACT_LINE, fit, resamples=30, seed=9)
        b = bootstrap_stat_error(binned, DEFAULTS, EXACT_LINE, fit, resamples=30, seed=9)
        assert a == b

    def test_requires_trace_means(self):
        centers = np.arange(1100, 3301, 220.0)
        binned = BinnedDataset(220.0, noiseless_bins(DEFAULTS, centers))
        fit = fit_beta(binned, DEFAULTS, EXACT_LINE)
        with pytest.raises(InferenceError):
            bootstrap_stat_error(binned, DEFAULTS, EXACT_LINE, fit, resamples=10, seed=0)


class TestCampaignRecovery:
    def test_loading_rate_decreases_with_companions(self, default_campaign):
        bins = default_campaign.binned.bins
        rates = [b.loading_rate for b in bins]
        assert rates[0] == max(rates)
        assert rates[-1] == min(rates)
        fit = fit_loading_rate(default_campaign.binned)
        assert fit.alpha > 3 * fit.alpha_err

    def test_ratio_approaches_unity_in_steady_region(self, default_campaign):
        by_center = {b.center: b for b in default_campaign.binned.bins}
        assert by_center[0.0].load_loss_ratio > 2.0
        for c in (2200.0, 2640.0, 3080.0, 3300.0):
            assert abs(by_center[c].load_loss_ratio - 1.0) < 0.3

    def test_bootstrap_matches_curvature_error(self, default_campaign):
        rep = default_campaign.report
        curv = rep["stat_err_cm3_per_s"]
        boot = rep["stat_err_bootstrap_cm3_per_s"]
        assert abs(boot - curv) / curv < 0.5
