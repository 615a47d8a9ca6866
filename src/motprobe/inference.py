"""Estimation chain: binned statistics, loading-line fit, steady-state
classification, and the one-parameter fit of the inter-species loss
coefficient with statistical and systematic uncertainties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np
from scipy import optimize

from .photon import (
    DetectionCalibration,
    FluorescenceTrace,
    TraceHistogram,
    build_histogram,
    summarize_staircases,
)
from .physics import PhysicalParams, pair_overlap_volume

__all__ = [
    "InferenceError",
    "NoSteadyBinsError",
    "IllConditionedFitError",
    "NrbBin",
    "BinnedDataset",
    "LoadingFit",
    "BetaFit",
    "DEFAULT_STEADY_TOL",
    "group_by_bin",
    "bin_by_nrb",
    "fit_loading_rate",
    "classify_steady_state",
    "fit_beta",
    "propagate_systematics",
    "bootstrap_stat_error",
]


class InferenceError(RuntimeError):
    pass


class NoSteadyBinsError(InferenceError):
    pass


class IllConditionedFitError(InferenceError):
    pass


# Tolerance on |loading/loss - 1| below which a bin counts as steady. With a
# finite observation window the counted losses always lag the loadings (atoms
# still trapped at the end were never seen to leave), so the ratio sits well
# above 1 even deep in the balanced regime; 0.3 puts the onset near 1000
# companion atoms for the default campaign, matching where the mean-number
# curve flattens.
DEFAULT_STEADY_TOL = 0.30


@dataclass
class NrbBin:
    """Aggregated statistics of all traces sharing one companion-number bin."""

    center: float
    n_traces: int
    mean_n_cs: float
    se_mean_n_cs: float
    loading_rate: float
    load_count: int
    loss_counts_per_time: float
    loss_atoms: int
    detect_time_s: float
    poisson_lambda: float
    trace_means: np.ndarray | None = None
    histogram: TraceHistogram | None = None

    @property
    def load_loss_ratio(self) -> float:
        if self.loss_counts_per_time <= 0.0:
            return math.inf
        return self.loading_rate / self.loss_counts_per_time


@dataclass
class BinnedDataset:
    width: float
    bins: list[NrbBin]

    def centers(self) -> np.ndarray:
        return np.array([b.center for b in self.bins])


@dataclass
class LoadingFit:
    """Weighted straight-line fit of loading rate against companion number."""

    r0: float
    r0_err: float
    alpha: float
    alpha_err: float
    residuals: np.ndarray
    chi2: float
    dof: int


@dataclass
class BetaFit:
    beta: float
    stat_err: float
    syst_err: float | None
    fitted_bins: list[float]
    goodness: float
    n_points: int


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


def bin_by_nrb(
    traces: "list[FluorescenceTrace]",
    cal: DetectionCalibration,
    width: float = 220.0,
    origin: float = 0.0,
) -> BinnedDataset:
    """Build per-bin aggregates from the recovered staircases.

    Traces are grouped on the grid points origin + k * width. For every
    bin: the mean recovered atom number over all detect bins, its standard
    error from the trace-to-trace spread, the loading rate as up-steps per
    detection time, the loss rate as lost atoms per detection time, and the
    Poisson rate fitted to the pooled count-rate histogram (NaN when fewer
    than two peaks are resolvable). The histogram itself is kept on the bin
    for writing out.
    """
    if not traces:
        raise ValueError("need at least one trace")
    bins: list[NrbBin] = []
    for center, members in group_by_bin(traces, width, origin).items():
        means, loads, loss_atoms = summarize_staircases(members, cal)
        detect_time = 0.0
        for t in members:
            detect_time += (t.segments.detect[1] - t.segments.detect[0]) * t.bin_s
        n = len(means)
        se = float(means.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        hist = build_histogram(members, cal)
        lam = hist.poisson_lambda if hist.poisson_lambda is not None else math.nan
        bins.append(
            NrbBin(
                center=float(center),
                n_traces=n,
                mean_n_cs=float(means.mean()),
                se_mean_n_cs=se,
                loading_rate=loads / detect_time,
                load_count=loads,
                loss_counts_per_time=loss_atoms / detect_time,
                loss_atoms=loss_atoms,
                detect_time_s=detect_time,
                poisson_lambda=float(lam),
                trace_means=means,
                histogram=hist,
            )
        )
    return BinnedDataset(width=float(width), bins=bins)


def fit_loading_rate(binned: BinnedDataset) -> LoadingFit:
    """Weighted least squares of the per-bin loading rates against the bin
    centers, weighting each point by the inverse Poisson variance of its step
    count. Parameter errors carry the usual conservative inflation by the
    reduced chi-square when it exceeds one.
    """
    if len(binned.bins) < 3:
        raise InferenceError("need at least three bins to fit the loading line")
    x = binned.centers()
    y = np.array([b.loading_rate for b in binned.bins])
    t_tot = np.array([b.detect_time_s for b in binned.bins])
    counts = np.array([max(b.load_count, 1) for b in binned.bins])
    w = t_tot ** 2 / counts

    s = w.sum()
    sx = (w * x).sum()
    sy = (w * y).sum()
    sxx = (w * x * x).sum()
    sxy = (w * x * y).sum()
    delta = s * sxx - sx * sx
    if delta <= 0:
        raise IllConditionedFitError("loading fit is degenerate (single abscissa?)")
    slope = (s * sxy - sx * sy) / delta
    intercept = (sxx * sy - sx * sxy) / delta
    residuals = y - (intercept + slope * x)
    chi2 = float((w * residuals ** 2).sum())
    dof = len(x) - 2
    scale = max(chi2 / dof, 1.0) if dof > 0 else 1.0
    return LoadingFit(
        r0=float(intercept),
        r0_err=float(math.sqrt(sxx / delta * scale)),
        alpha=float(-slope),
        alpha_err=float(math.sqrt(s / delta * scale)),
        residuals=residuals,
        chi2=chi2,
        dof=dof,
    )


def classify_steady_state(
    binned: BinnedDataset, tol: float = DEFAULT_STEADY_TOL
) -> list[str]:
    """Label each bin "steady" or "transient".

    A bin is steady when its loading rate matches its loss rate within tol
    and losses were actually observed. The steady region is the contiguous
    run of such bins taken from the high-companion-number side; anything
    below the first failure stays transient.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    order = np.argsort([b.center for b in binned.bins])
    labels = ["transient"] * len(binned.bins)
    for i in reversed(order):
        b = binned.bins[i]
        if b.loss_counts_per_time > 0 and abs(b.load_loss_ratio - 1.0) <= tol:
            labels[i] = "steady"
        else:
            break
    return labels


def _weights_from_se(se: np.ndarray) -> np.ndarray:
    se = np.asarray(se, dtype=float)
    usable = np.isfinite(se) & (se > 0)
    if not usable.any():
        return np.ones_like(se)
    filled = np.where(usable, se, se[usable].min())
    return 1.0 / filled ** 2


def _mean_model(n_rb, beta, r0, alpha, gamma, v_pair):
    """Steady-state mean with soft handling of a vanishing denominator.

    Returns +inf where the loss rate is zero but loading is not, which lets
    the minimizer steer away instead of crashing mid-bracket.
    """
    n_rb = np.asarray(n_rb, dtype=float)
    num = np.maximum(r0 - alpha * n_rb, 0.0)
    den = gamma + beta * n_rb / v_pair
    out = np.full_like(num, np.inf)
    ok = den > 0
    out[ok] = num[ok] / den[ok]
    out[(~ok) & (num == 0.0)] = 0.0
    return out


_BIG = 1e300


def _beta_objective(beta, n, m, w, r0, alpha, gamma, v_pair):
    model = _mean_model(n, beta, r0, alpha, gamma, v_pair)
    if not np.all(np.isfinite(model)):
        return _BIG
    return float(np.sum(w * (m - model) ** 2))


def _minimize_beta(n, m, se, r0, alpha, gamma, v_pair):
    """Bracketed 1-D minimization of the weighted residual over beta >= 0.

    Works on beta rescaled by a rough per-bin inversion so the bounded Brent
    search sees order-one numbers; converges far tighter than the 1e-4
    relative tolerance asked of it. Returns (beta, stat_err, chi2_min) with
    the error taken from the curvature at the minimum.
    """
    n = np.asarray(n, dtype=float)
    m = np.asarray(m, dtype=float)
    w = _weights_from_se(se)

    rough = []
    for ni, mi in zip(n, m):
        num = max(r0 - alpha * ni, 0.0)
        if mi > 0 and ni > 0:
            rough.append(max(v_pair * (num / mi - gamma) / ni, 0.0))
    positives = [r for r in rough if r > 0]
    scale = float(np.median(positives)) if positives else 0.0
    # When the data are consistent with beta = 0 the inversions collapse to
    # rounding residue; floor the scale at the value that would double the
    # single-atom loss rate at the largest companion number so the curvature
    # probe still perturbs the model.
    n_max = float(n.max()) if n.size else 0.0
    if gamma > 0.0 and n_max > 0.0:
        scale = max(scale, gamma * v_pair / n_max)
    if scale <= 0.0:
        scale = 1e-12

    def f(u: float) -> float:
        return _beta_objective(u * scale, n, m, w, r0, alpha, gamma, v_pair)

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
        raise IllConditionedFitError(
            "objective is flat around the minimum; beta is unconstrained by these bins"
        )
    stat_err = math.sqrt(2.0 / curv) * scale
    return u_hat * scale, stat_err, chi2_min


def fit_beta(
    binned: BinnedDataset,
    params_known: PhysicalParams,
    loading_fit: LoadingFit,
    tol: float = DEFAULT_STEADY_TOL,
    labels: "list[str] | None" = None,
) -> BetaFit:
    """Fit the inter-species loss coefficient to the steady-state bin means.

    The model is the steady-state mean with the loading line taken from
    loading_fit and everything except beta taken from params_known. Only
    steady bins enter the fit; each is weighted by the inverse variance of
    its mean. The statistical error comes from the curvature of the
    objective at the minimum.

    The model has no intra-species pair-loss term, so params_known must have
    beta_cscs = 0; fitting pair-loss data with it would return a biased beta
    with no warning.
    """
    if params_known.beta_cscs != 0.0:
        raise InferenceError(
            f"cannot fit beta with beta_cscs = {params_known.beta_cscs:g} cm^3/s: "
            "the steady-state model has no pair-loss term and requires beta_cscs = 0"
        )
    if labels is None:
        labels = classify_steady_state(binned, tol)
    steady = [b for b, lab in zip(binned.bins, labels) if lab == "steady"]
    if len(steady) < 2:
        detail = "; ".join(
            f"{b.center:g}: {lab} (load {b.loading_rate:.3g}/s, loss "
            f"{b.loss_counts_per_time:.3g}/s)"
            for b, lab in zip(binned.bins, labels)
        )
        raise NoSteadyBinsError(
            f"fewer than two steady bins, cannot fit beta; per-bin outcome: {detail}"
        )
    v_pair = pair_overlap_volume(params_known.w_cs, params_known.w_rb)
    n = np.array([b.center for b in steady])
    m = np.array([b.mean_n_cs for b in steady])
    se = np.array([b.se_mean_n_cs for b in steady])
    beta, stat_err, chi2 = _minimize_beta(
        n, m, se, loading_fit.r0, loading_fit.alpha, params_known.gamma, v_pair
    )
    return BetaFit(
        beta=beta,
        stat_err=stat_err,
        syst_err=None,
        fitted_bins=[b.center for b in steady],
        goodness=chi2,
        n_points=len(steady),
    )


def _steady_arrays(binned: BinnedDataset, beta_fit: BetaFit):
    wanted = set(beta_fit.fitted_bins)
    steady = [b for b in binned.bins if b.center in wanted]
    if len(steady) != len(wanted):
        raise InferenceError("fitted_bins do not match the dataset")
    n = np.array([b.center for b in steady])
    m = np.array([b.mean_n_cs for b in steady])
    se = np.array([b.se_mean_n_cs for b in steady])
    return steady, n, m, se


def propagate_systematics(
    binned: BinnedDataset,
    params_known: PhysicalParams,
    loading_fit: LoadingFit,
    beta_fit: BetaFit,
    nrb_factor: float = 1.3,
    size_frac: float = 0.15,
) -> float:
    """Half-spread of beta over the calibration-uncertainty corners.

    Corners: companion number scaled up or down by nrb_factor, each cloud
    radius scaled by (1 +- size_frac), all combinations, refitting beta on
    the same steady bins each time. Rescaling the abscissa of a straight-line
    fit by f leaves the intercept alone and divides the slope by f exactly,
    so the corner loading line is obtained analytically.
    """
    if nrb_factor <= 0 or size_frac < 0 or size_frac >= 1:
        raise ValueError("nrb_factor must be positive and size_frac in [0, 1)")
    _, n, m, se = _steady_arrays(binned, beta_fit)
    betas = []
    for f, g_cs, g_rb in product(
        (nrb_factor, 1.0 / nrb_factor),
        (1.0 + size_frac, 1.0 - size_frac),
        (1.0 + size_frac, 1.0 - size_frac),
    ):
        v_pair = pair_overlap_volume(params_known.w_cs * g_cs, params_known.w_rb * g_rb)
        beta_c, _, _ = _minimize_beta(
            n * f, m, se, loading_fit.r0, loading_fit.alpha / f,
            params_known.gamma, v_pair,
        )
        betas.append(beta_c)
    return (max(betas) - min(betas)) / 2.0


def bootstrap_stat_error(
    binned: BinnedDataset,
    params_known: PhysicalParams,
    loading_fit: LoadingFit,
    beta_fit: BetaFit,
    resamples: int = 500,
    seed: int = 0,
) -> float:
    """Trace-level bootstrap of the beta fit.

    Resamples traces with replacement inside every steady bin, recomputes the
    bin means and their errors, refits beta, and returns the standard
    deviation over resamples. Deterministic for a given seed.
    """
    if resamples < 2:
        raise ValueError(f"resamples must be >= 2, got {resamples!r}")
    steady, n, _, se_orig = _steady_arrays(binned, beta_fit)
    if any(b.trace_means is None for b in steady):
        raise InferenceError("bootstrap needs trace-level means; refit from traces")
    v_pair = pair_overlap_volume(params_known.w_cs, params_known.w_rb)
    rng = np.random.default_rng(int(seed))
    betas = np.empty(resamples)
    for r in range(resamples):
        m_b = np.empty(len(steady))
        se_b = np.empty(len(steady))
        for j, b in enumerate(steady):
            tm = b.trace_means
            idx = rng.integers(0, len(tm), len(tm))
            sample = tm[idx]
            m_b[j] = sample.mean()
            se_b[j] = (
                sample.std(ddof=1) / math.sqrt(len(sample))
                if len(sample) > 1
                else se_orig[j]
            )
        beta_r, _, _ = _minimize_beta(
            n, m_b, se_b, loading_fit.r0, loading_fit.alpha,
            params_known.gamma, v_pair,
        )
        betas[r] = beta_r
    return float(betas.std(ddof=1))
