"""Estimation chain: binning, loading-line fit, steady-state labeling, the
loss-coefficient fit, and both uncertainty estimates.
"""

import math

from itertools import product

import numpy as np
import pytest
from scipy import optimize

from motprobe.inference import (
    _BOOTSTRAP_BLOCK,
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
    _minimize_beta,
    propagate_systematics,
)
from motprobe.photon import DetectionCalibration, FluorescenceTrace, SegmentMap
from motprobe.physics import PhysicalParams, pair_overlap_volume, steady_state_mean
from reference import group_by_bin

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
        assert propagate_systematics(DEFAULTS, fit, nrb_factor=1.0, size_frac=0.0) == 0.0

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
        syst = propagate_systematics(p, fit, nrb_factor=1.3, size_frac=0.0)
        predicted = 1.6e-10 * (1.3 - 1.0 / 1.3) / 2.0
        assert syst == pytest.approx(predicted, rel=1e-3)
        assert syst == pytest.approx(fit.beta * (1.3 - 1.0 / 1.3) / 2.0, rel=1e-12)

    def test_rejects_bad_factors(self):
        centers = np.arange(1100, 3301, 220.0)
        binned = BinnedDataset(220.0, noiseless_bins(DEFAULTS, centers))
        fit = fit_beta(binned, DEFAULTS, EXACT_LINE)
        with pytest.raises(ValueError):
            propagate_systematics(DEFAULTS, fit, nrb_factor=0.0)

    @pytest.mark.parametrize("seed", [7, 13, 21])
    def test_closed_form_equals_corner_refit(self, seed):
        n, m, se = noisy_lanes(11, lanes=4, seed=seed)
        for lane in range(len(m)):
            binned = BinnedDataset(220.0, [
                make_bin(c, mean=mi, se=si) for c, mi, si in zip(n, m[lane], se[lane])
            ])
            fit = fit_beta(binned, DEFAULTS, EXACT_LINE, labels=["steady"] * len(n))
            assert propagate_systematics(DEFAULTS, fit) == pytest.approx(
                corner_refit_systematics(binned, DEFAULTS, EXACT_LINE, fit), rel=1e-8
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
        # Neighbouring bins differ by about one standard error, so their
        # order is the seed's; the two ends of the grid are far apart.
        first, last = default_campaign.binned.bins[0], default_campaign.binned.bins[-1]
        se = math.hypot(*(math.sqrt(b.load_count) / b.detect_time_s for b in (first, last)))
        assert first.loading_rate - last.loading_rate > 5 * se
        fit = fit_loading_rate(default_campaign.binned)
        assert fit.alpha > 3 * fit.alpha_err

    def test_ratio_approaches_unity_in_steady_region(self, default_campaign):
        by_center = {b.center: b for b in default_campaign.binned.bins}
        assert by_center[0.0].load_loss_ratio > 2.0
        for c in (2200.0, 2640.0, 3080.0, 3300.0):
            assert abs(by_center[c].load_loss_ratio - 1.0) < 0.3

    def test_systematics_equal_corner_refit(self, default_campaign):
        binned = default_campaign.binned
        params = default_campaign.config.physics
        loading = fit_loading_rate(binned)
        fit = fit_beta(binned, params, loading)
        assert propagate_systematics(params, fit) == pytest.approx(
            corner_refit_systematics(binned, params, loading, fit), rel=1e-8
        )

    def test_bootstrap_matches_curvature_error(self, default_campaign):
        rep = default_campaign.report
        curv = rep["stat_err_cm3_per_s"]
        boot = rep["stat_err_bootstrap_cm3_per_s"]
        assert abs(boot - curv) / curv < 0.5


# The scalar fit that _minimize_beta replaced, one minimize_scalar call per
# lane, kept here as the reference the batched search must equal bit for bit.
def scalar_minimize_beta(n, m, se, r0, alpha, gamma, v_pair):
    n = np.asarray(n, dtype=float)
    m = np.asarray(m, dtype=float)
    se = np.asarray(se, dtype=float)
    usable = np.isfinite(se) & (se > 0)
    if usable.any():
        w = 1.0 / np.where(usable, se, se[usable].min()) ** 2
    else:
        w = np.ones_like(se)

    def objective(beta):
        num = np.maximum(r0 - alpha * n, 0.0)
        den = gamma + beta * n / v_pair
        model = np.full_like(num, np.inf)
        ok = den > 0
        model[ok] = num[ok] / den[ok]
        model[(~ok) & (num == 0.0)] = 0.0
        if not np.all(np.isfinite(model)):
            return 1e300
        return float(np.sum(w * (m - model) ** 2))

    rough = []
    for ni, mi in zip(n, m):
        num = max(r0 - alpha * ni, 0.0)
        if mi > 0 and ni > 0:
            rough.append(max(v_pair * (num / mi - gamma) / ni, 0.0))
    positives = [r for r in rough if r > 0]
    scale = float(np.median(positives)) if positives else 0.0
    n_max = float(n.max()) if n.size else 0.0
    if gamma > 0.0 and n_max > 0.0:
        scale = max(scale, gamma * v_pair / n_max)
    if scale <= 0.0:
        scale = 1e-12

    def f(u):
        return objective(u * scale)

    res = optimize.minimize_scalar(
        f, bounds=(0.0, 1e3), method="bounded",
        options={"xatol": 1e-10, "maxiter": 2000},
    )
    u_hat = float(res.x)
    if f(0.0) <= res.fun:
        u_hat = 0.0
    chi2_min = f(u_hat)
    h = max(1e-4 * u_hat, 1e-7)
    if u_hat - h < 0.0:
        curv = (f(u_hat + 2 * h) - 2.0 * f(u_hat + h) + chi2_min) / h ** 2
    else:
        curv = (f(u_hat + h) - 2.0 * chi2_min + f(u_hat - h)) / h ** 2
    if not math.isfinite(curv) or curv <= 0.0:
        raise IllConditionedFitError("flat")
    return u_hat * scale, math.sqrt(2.0 / curv) * scale, chi2_min


# The refit that propagate_systematics replaced: beta refitted by the scalar
# search at each of the eight calibration corners, kept here as the reference
# its closed form must equal.
def corner_refit_systematics(binned, params, loading, fit, nrb_factor=1.3, size_frac=0.15):
    wanted = set(fit.fitted_bins)
    steady = [b for b in binned.bins if b.center in wanted]
    n = np.array([b.center for b in steady])
    m = np.array([b.mean_n_cs for b in steady])
    se = np.array([b.se_mean_n_cs for b in steady])
    sizes = (1.0 + size_frac, 1.0 - size_frac)
    betas = []
    for f, g_cs, g_rb in product((nrb_factor, 1.0 / nrb_factor), sizes, sizes):
        v_pair = pair_overlap_volume(params.w_cs * g_cs, params.w_rb * g_rb)
        beta, _, _ = scalar_minimize_beta(
            n * f, m, se, loading.r0, loading.alpha / f, params.gamma, v_pair
        )
        betas.append(beta)
    return (max(betas) - min(betas)) / 2.0


V_PAIR = pair_overlap_volume(DEFAULTS.w_cs, DEFAULTS.w_rb)


def noisy_lanes(k, lanes, seed, noise=0.03):
    rng = np.random.default_rng(seed)
    n = np.linspace(1100.0, 3300.0, k)
    truth = np.array([steady_state_mean(c, DEFAULTS) for c in n])
    m = truth * (1.0 + noise * rng.standard_normal((lanes, k)))
    se = truth * noise * rng.uniform(0.5, 1.5, (lanes, k))
    return n, m, se


def assert_lanes_equal(n, m, se, r0, alpha, v_pair, gamma=DEFAULTS.gamma):
    beta, err, chi2 = _minimize_beta(n, m, se, r0, alpha, gamma, v_pair)
    for i in range(len(m)):
        want = scalar_minimize_beta(n, m[i], se[i], r0, alpha, gamma, v_pair)
        assert (beta[i], err[i], chi2[i]) == want, i
    return beta


class TestBatchedMinimizer:
    """Every lane of _minimize_beta equals scipy's bounded Brent on that
    lane alone: beta, curvature error and chi-square, exactly."""

    # numpy sums fewer than 8 values one by one and more in 8 partial sums.
    @pytest.mark.parametrize("k", range(2, 21))
    def test_lanes_equal_scalar_fit(self, k):
        n, m, se = noisy_lanes(k, lanes=12, seed=k)
        assert_lanes_equal(n, m, se, 1.48, 2.3e-4, V_PAIR)

    def test_single_lane(self):
        n, m, se = noisy_lanes(11, lanes=1, seed=3)
        assert_lanes_equal(n, m, se, 1.48, 2.3e-4, V_PAIR)

    def test_lanes_on_the_zero_boundary(self):
        n, m, se = noisy_lanes(10, lanes=8, seed=5)
        m = m.copy()
        # More atoms than one-body loss alone allows: beta = 0 fits best.
        m[::2] = 1.2 * (1.48 - 2.3e-4 * n) / DEFAULTS.gamma
        beta = assert_lanes_equal(n, m, se, 1.48, 2.3e-4, V_PAIR)
        assert np.all(beta[::2] == 0.0)
        assert np.all(beta[1::2] > 0.0)

    def test_degenerate_points(self):
        n, m, se = noisy_lanes(9, lanes=6, seed=9)
        m, se = m.copy(), se.copy()
        m[0, 2] = 0.0       # no rough inversion from this point
        m[1, :3] = -0.1     # nor from these
        se[2, 4] = 0.0      # unusable errors take the lane's smallest
        se[3, 1] = np.nan
        se[4] = 0.0         # no usable error: unweighted
        assert_lanes_equal(n, m, se, 1.48, 2.3e-4, V_PAIR)

    def test_flat_lane_raises(self):
        n, m, se = noisy_lanes(10, lanes=4, seed=11)
        # No loading: the model is 0 for any beta, in every lane.
        with pytest.raises(IllConditionedFitError):
            scalar_minimize_beta(n, m[2], se[2], 0.0, 2.3e-4, DEFAULTS.gamma, V_PAIR)
        with pytest.raises(IllConditionedFitError):
            _minimize_beta(n, m, se, 0.0, 2.3e-4, DEFAULTS.gamma, V_PAIR)


def loop_bootstrap(binned, params, loading, fit, resamples, seed):
    """bootstrap_stat_error one resample at a time: at the start of each
    block of _BOOTSTRAP_BLOCK resamples, one rng.integers(0, size,
    (block, size)) call per steady bin, bins in order; resample r reads its
    row of each bin's matrix and is fitted by the scalar search."""
    wanted = set(fit.fitted_bins)
    steady = [b for b in binned.bins if b.center in wanted]
    n = np.array([b.center for b in steady])
    se_orig = np.array([b.se_mean_n_cs for b in steady])
    v_pair = pair_overlap_volume(params.w_cs, params.w_rb)
    rng = np.random.default_rng(int(seed))
    betas = np.empty(resamples)
    for r in range(resamples):
        if r % _BOOTSTRAP_BLOCK == 0:
            block = min(_BOOTSTRAP_BLOCK, resamples - r)
            idx = [
                rng.integers(0, len(b.trace_means), (block, len(b.trace_means)))
                for b in steady
            ]
        m_b = np.empty(len(steady))
        se_b = np.empty(len(steady))
        for j, b in enumerate(steady):
            tm = b.trace_means
            sample = tm[idx[j][r % _BOOTSTRAP_BLOCK]]
            m_b[j] = sample.mean()
            se_b[j] = (
                sample.std(ddof=1) / math.sqrt(len(sample))
                if len(sample) > 1
                else se_orig[j]
            )
        betas[r], _, _ = scalar_minimize_beta(
            n, m_b, se_b, loading.r0, loading.alpha, params.gamma, v_pair
        )
    return float(betas.std(ddof=1))


class TestBootstrapEquivalence:
    """bootstrap_stat_error returns exactly what the per-resample loop gives."""

    def _binned(self):
        rng = np.random.default_rng(17)
        centers = np.arange(1100, 3301, 220.0)
        # unequal bins, one of a single trace, one past a pairwise-sum block
        sizes = [37, 200, 5, 1, 64, 150, 9, 2, 300, 80, 13]
        bins = []
        for c, size in zip(centers, sizes):
            mean = steady_state_mean(c, DEFAULTS)
            tm = mean + 0.4 * mean * rng.standard_normal(size)
            se = float(tm.std(ddof=1) / math.sqrt(size)) if size > 1 else 0.05
            bins.append(make_bin(
                c, mean=float(tm.mean()), se=se,
                loading=1.48 - 2.3e-4 * c, loss_rate=1.48 - 2.3e-4 * c,
                trace_means=tm,
            ))
        return BinnedDataset(220.0, bins)

    @pytest.mark.parametrize("resamples", [2, 3, 2 * _BOOTSTRAP_BLOCK + 5])
    def test_equals_per_resample_loop(self, resamples):
        binned = self._binned()
        fit = fit_beta(binned, DEFAULTS, EXACT_LINE)
        assert len(fit.fitted_bins) == 11
        got = bootstrap_stat_error(
            binned, DEFAULTS, EXACT_LINE, fit, resamples=resamples, seed=4
        )
        want = loop_bootstrap(binned, DEFAULTS, EXACT_LINE, fit, resamples, seed=4)
        assert got == want
