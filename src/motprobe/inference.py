"""Estimation chain: binned statistics, loading-line fit, steady-state
classification, and the one-parameter fit of the inter-species loss
coefficient with statistical and systematic uncertainties. fit_campaign
runs the whole chain on a binned dataset and builds the report that fit
writes.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .config import GridSpec
from .photon import (
    DetectionCalibration,
    FluorescenceTrace,
    TraceTable,
    peak_lambda,
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
    "CampaignFit",
    "DEFAULT_STEADY_TOL",
    "iter_bins",
    "bin_by_nrb",
    "fit_loading_rate",
    "classify_steady_state",
    "fit_beta",
    "propagate_systematics",
    "bootstrap_stat_error",
    "fit_campaign",
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

    @property
    def load_loss_ratio(self) -> float:
        if self.loss_counts_per_time <= 0.0:
            return math.inf
        return self.loading_rate / self.loss_counts_per_time


@dataclass
class BinnedDataset:
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
    fitted_bins: list[float]
    goodness: float
    n_points: int


def _grid_points(table: TraceTable, width: float, origin: float) -> np.ndarray:
    """The grid point origin + k * width nearest to each trace's n_rb, by the
    float operations of the trace-by-trace group_by_bin (tests/reference.py).
    Every n_rb is finite: TraceTable refuses any other."""
    return origin + np.floor((table.n_rb - origin) / width + 0.5) * width


def iter_bins(
    traces: "Sequence[FluorescenceTrace]",
    cal: DetectionCalibration,
    grid: GridSpec,
) -> Iterator[tuple[NrbBin, TraceTable]]:
    """Yield each bin's aggregates with the table of its traces, in order
    of bin center.

    Traces are grouped on the point of grid nearest to their n_rb
    (_grid_points, grid.min + k * grid.step), in file order within each
    bin. For every bin: the mean recovered atom number over all detect
    bins, its standard error from the trace-to-trace spread, the loading
    rate as up-steps per detection time, the loss rate as lost atoms per
    detection time, and the Poisson rate of the integer-atom peaks
    (peak_lambda; NaN when fewer than two peaks are resolvable).

    traces may be a TraceTable (what read_traces_jsonl returns); any other
    sequence is turned into one first, and so must share one segment map
    and bin width; the table has checked its counts and n_rb, and cal its
    rate_per_atom. Each bin's rows are taken from it as a table of their
    own, which computes the bin's rates, whole-atom numbers and cell sizes
    (TraceTable.cell_sizes) once for the staircase and the peak rate; a
    caller that builds the bin's histogram from the yielded table reuses
    them. A caller should drop the table before asking for the next bin,
    so that two bins' tables are never held at once.

    A trace whose nearest point lies outside [grid.min, grid.max] is
    refused, naming the first such trace, before any bin is built.
    """
    table = TraceTable.from_traces(traces)
    lo, hi = float(grid.min), float(grid.max)
    points = _grid_points(table, float(grid.step), lo)
    off = np.flatnonzero((points < lo) | (points > hi))
    if len(off):
        i = off[0]
        raise ValueError(
            f"trace {table.trace_ids[i]!r} has n_rb {float(table.n_rb[i])!r}, "
            f"nearest to grid point {float(points[i]):g}, outside the grid "
            f"range [{lo:g}, {hi:g}]"
        )
    d0, d1 = table.segments.detect
    duration = (d1 - d0) * table.bin_s
    centers, inverse = np.unique(points, return_inverse=True)
    # Rows of each bin, in file order.
    order = np.argsort(inverse, kind="stable")
    groups = np.split(order, np.cumsum(np.bincount(inverse))[:-1])
    for center, rows in zip(centers.tolist(), groups):
        members = table.take(rows)
        means, loads, loss_atoms = summarize_staircases(members, cal)
        # cumsum adds left to right, as a trace-by-trace sum would; n * duration
        # rounds differently.
        detect_time = float(np.cumsum(np.full(len(members), duration))[-1])
        n = len(means)
        se = float(means.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        lam = peak_lambda(members.cell_sizes(cal.rate_per_atom))
        yield NrbBin(
            center=float(center),
            n_traces=n,
            mean_n_cs=float(means.mean()),
            se_mean_n_cs=se,
            loading_rate=loads / detect_time,
            load_count=loads,
            loss_counts_per_time=loss_atoms / detect_time,
            loss_atoms=loss_atoms,
            detect_time_s=detect_time,
            poisson_lambda=math.nan if lam is None else float(lam),
            trace_means=means,
        ), members


def bin_by_nrb(
    traces: "Sequence[FluorescenceTrace]",
    cal: DetectionCalibration,
    grid: GridSpec,
) -> BinnedDataset:
    """The per-bin aggregates of the recovered staircases: the bins of
    iter_bins, each bin's table of traces let go before the next is built."""
    bins = iter_bins(traces, cal, grid)
    return BinnedDataset(list(map(operator.itemgetter(0), bins)))


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
    """Inverse-variance weights per lane (row); an unusable error takes the
    smallest usable one of its lane, and a lane with none is unweighted."""
    se = np.asarray(se, dtype=float)
    usable = np.isfinite(se) & (se > 0)
    floor = np.where(usable, se, np.inf).min(axis=-1, keepdims=True)
    filled = np.where(usable, se, floor)
    return np.where(usable.any(axis=-1, keepdims=True), 1.0 / filled ** 2, 1.0)


def _rough_scale(n, m, r0, alpha, gamma, v_pair):
    """Per-lane beta scale: the median over points of the per-point inversion
    of the steady-state mean, floored as explained below. Call it with
    numpy's floating-point warnings off, as _minimize_beta does."""
    num = np.maximum(r0 - alpha * n, 0.0)
    rough = np.maximum(v_pair * (num / m - gamma) / n, 0.0)
    positive = (m > 0) & (n > 0) & (rough > 0)
    # np.median of each lane's positives: sort them to the front, then take
    # the middle one or the mean of the middle two.
    ranked = np.sort(np.where(positive, rough, np.inf), axis=1)
    count = positive.sum(axis=1)
    lanes = np.arange(len(count))
    lo = ranked[lanes, np.maximum(count - 1, 0) // 2]
    hi = ranked[lanes, count // 2]
    scale = np.where(count % 2 == 1, hi, (lo + hi) / 2)
    scale = np.where(count > 0, scale, 0.0)
    # When the data are consistent with beta = 0 the inversions collapse to
    # rounding residue; floor the scale at the value that would double the
    # single-atom loss rate at the largest companion number so the curvature
    # probe still perturbs the model.
    n_max = n.max()
    if gamma > 0.0 and n_max > 0.0:
        scale = np.maximum(scale, gamma * v_pair / n_max)
    return np.where(scale <= 0.0, 1e-12, scale)


# The constants of scipy's minimize_scalar(method="bounded") and of
# the options the fit has always asked of it.
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_U_BOUNDS = (0.0, 1e3)
_XATOL = 1e-10
_MAXITER = 2000


def _bounded_brent(f, lanes: int):
    """Minimize f over u in _U_BOUNDS for every lane at once.

    f maps an (L,) array of abscissae to the (L,) objective values. This is
    scipy's bounded Brent search (_minimize_scalar_bounded; Brent 1973,
    "Algorithms for Minimization without Derivatives", ch. 5) run lane by
    lane in lockstep: the same constants, the same parabolic/golden choice,
    update order and stopping test, each written as an np.where over lanes.
    A lane stops when its own test is met, or when the search has spent
    _MAXITER evaluations. Returns (u_min, f_min) per lane. Call it with
    numpy's floating-point warnings off: lanes that take a golden step still
    form the parabola, which may divide by zero or overflow.
    """
    a = np.full(lanes, _U_BOUNDS[0])
    b = np.full(lanes, _U_BOUNDS[1])
    xf = a + _GOLDEN * (b - a)
    fulc = nfc = xf
    rat = e = np.zeros(lanes)
    fx = f(xf)
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * np.abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1
    active = np.abs(xf - xm) > (tol2 - 0.5 * (b - a))
    evaluations = 1
    while evaluations < _MAXITER and active.any():
        # Parabola through the three best points.
        r = (xf - nfc) * (fx - ffulc)
        q = (xf - fulc) * (fx - fnfc)
        p = (xf - fulc) * q - (xf - nfc) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        parabolic = (
            (np.abs(e) > tol1)
            & (np.abs(p) < np.abs(0.5 * q * e))
            & (p > q * (a - xf))
            & (p < q * (b - xf))
        )
        rat_p = (p + 0.0) / q
        x = xf + rat_p
        toward_mid = np.sign(xm - xf) + ((xm - xf) == 0)
        near_edge = ((x - a) < tol2) | ((b - x) < tol2)
        rat_p = np.where(near_edge, tol1 * toward_mid, rat_p)
        # Otherwise a golden-section step into the larger side.
        e_golden = np.where(xf >= xm, a - xf, b - xf)
        e_new = np.where(parabolic, rat, e_golden)
        rat_new = np.where(parabolic, rat_p, _GOLDEN * e_golden)

        si = np.sign(rat_new) + (rat_new == 0)
        x = xf + si * np.maximum(np.abs(rat_new), tol1)
        fu = f(x)
        evaluations += 1

        # Only active lanes move. scipy tests x >= xf when the trial point
        # is better and x < xf when it is worse; both are kept, for NaN.
        better = active & (fu <= fx)
        worse = active & ~(fu <= fx)
        # Where the trial point is worse: does it replace the second best
        # point, or else the third?
        second = worse & ((fu <= fnfc) | (nfc == xf))
        third = worse & ~second & ((fu <= ffulc) | (fulc == xf) | (fulc == nfc))
        a = np.where(better & (x >= xf), xf, np.where(worse & (x < xf), x, a))
        b = np.where(better & ~(x >= xf), xf, np.where(worse & ~(x < xf), x, b))
        shift = better | second
        fulc = np.where(shift, nfc, np.where(third, x, fulc))
        ffulc = np.where(shift, fnfc, np.where(third, fu, ffulc))
        nfc = np.where(better, xf, np.where(second, x, nfc))
        fnfc = np.where(better, fx, np.where(second, fu, fnfc))
        xf = np.where(better, x, xf)
        fx = np.where(better, fu, fx)
        e = np.where(active, e_new, e)
        rat = np.where(active, rat_new, rat)

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * np.abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        active &= np.abs(xf - xm) > (tol2 - 0.5 * (b - a))
    return xf, fx


_BIG = 1e300


def _minimize_beta(n, m, se, r0, alpha, gamma, v_pair):
    """Weighted least-squares beta >= 0 for L independent lanes at once.

    n is the (k,) companion numbers shared by every lane; m and se are
    (L, k), each lane's bin means and their errors. r0, alpha, gamma and
    v_pair are scalars shared by all lanes. Each lane minimizes the
    inverse-variance weighted residual of the steady-state mean over beta
    rescaled by its rough per-point inversion, so the bounded Brent search
    sees order-one numbers, on u in [0, 1e3] with xatol 1e-10 and at most
    2000 evaluations. A lane whose objective at beta = 0 is no worse than
    at the search's minimum ends on the boundary.

    Every lane gives bit for bit what scipy's minimize_scalar(
    method="bounded") gives on that lane alone with the same options: the
    search is _bounded_brent, and the objective's row sums reduce each
    lane's k contiguous values as numpy sums a 1-D array.

    Returns (beta, stat_err, chi2_min), each of shape (L,), with stat_err
    from the curvature at the minimum. Raises IllConditionedFitError if any
    lane's objective is flat there.
    """
    n = np.asarray(n, dtype=float)
    m = np.asarray(m, dtype=float)
    lanes = m.shape[0]
    w = _weights_from_se(se)
    with np.errstate(all="ignore"):
        scale = _rough_scale(n, m, r0, alpha, gamma, v_pair)

    # Steady-state mean: +inf where the loss rate is zero but loading is not,
    # which lets the search steer away instead of crashing mid-bracket.
    num = np.maximum(r0 - alpha * n, 0.0)
    unbounded = np.where(num == 0.0, 0.0, np.inf)

    def f(u: np.ndarray) -> np.ndarray:
        den = gamma + (u * scale)[:, None] * n / v_pair
        model = np.where(den > 0, num / den, unbounded)
        chi2 = (w * (m - model) ** 2).sum(axis=1)
        return np.where(np.isfinite(model).all(axis=1), chi2, _BIG)

    with np.errstate(all="ignore"):
        u_hat, fun = _bounded_brent(f, lanes)
        u_hat = np.where(f(np.zeros(lanes)) <= fun, 0.0, u_hat)
        chi2_min = f(u_hat)

        h = np.maximum(1e-4 * u_hat, 1e-7)
        low = u_hat - h < 0.0
        # Python's float ** (C pow), as the scalar fit squared h; numpy
        # squares by multiplication, which rounds differently about once in
        # a thousand.
        h2 = np.array([x ** 2 for x in h.tolist()])
        f_far = f(u_hat + np.where(low, 2 * h, h))
        f_near = f(np.where(low, u_hat + h, u_hat - h))
        curv = np.where(
            low,
            (f_far - 2.0 * f_near + chi2_min) / h2,
            (f_far - 2.0 * chi2_min + f_near) / h2,
        )
    if not np.all(np.isfinite(curv) & (curv > 0.0)):
        raise IllConditionedFitError(
            "objective is flat around the minimum; beta is unconstrained by these bins"
        )
    stat_err = np.sqrt(2.0 / curv) * scale
    return u_hat * scale, stat_err, chi2_min


def fit_beta(
    binned: BinnedDataset,
    params_known: PhysicalParams,
    loading_fit: LoadingFit,
    labels: "list[str] | None" = None,
) -> BetaFit:
    """Fit the inter-species loss coefficient to the steady-state bin means.

    The model is the steady-state mean with the loading line taken from
    loading_fit and everything except beta taken from params_known. Only
    steady bins enter the fit, as labels (one per bin) name them; by
    default classify_steady_state labels them at DEFAULT_STEADY_TOL. Each
    is weighted by the inverse variance of its mean. The statistical error
    comes from the curvature of the objective at the minimum.

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
        labels = classify_steady_state(binned)
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
        n, m[None], se[None], loading_fit.r0, loading_fit.alpha,
        params_known.gamma, v_pair,
    )
    return BetaFit(
        beta=float(beta[0]),
        stat_err=float(stat_err[0]),
        fitted_bins=[b.center for b in steady],
        goodness=float(chi2[0]),
        n_points=len(steady),
    )


def propagate_systematics(
    params_known: PhysicalParams,
    beta_fit: BetaFit,
    nrb_factor: float = 1.3,
    size_frac: float = 0.15,
) -> float:
    """Half-spread of beta over the calibration-uncertainty corners.

    Corners: companion number scaled up or down by nrb_factor, each cloud
    radius scaled by (1 +- size_frac), all combinations. Each corner's beta
    is what a refit on the same steady bins would return, in closed form:
    the steady-state mean (r0 - alpha n) / (gamma + beta n / V) does not
    change under n -> f n, alpha -> alpha / f, beta -> beta V' / (f V), and
    rescaling the abscissa of the loading line by f leaves its intercept
    alone and divides its slope by f. So the corner with factor f and
    overlap volume V' = V(g_cs w_cs, g_rb w_rb) has beta_fit.beta V' / (f V).
    """
    if nrb_factor <= 0 or size_frac < 0 or size_frac >= 1:
        raise ValueError("nrb_factor must be positive and size_frac in [0, 1)")
    w_cs, w_rb = params_known.w_cs, params_known.w_rb
    v_pair = pair_overlap_volume(w_cs, w_rb)
    sizes = (1.0 + size_frac, 1.0 - size_frac)
    betas = [
        beta_fit.beta * pair_overlap_volume(w_cs * g_cs, w_rb * g_rb) / (f * v_pair)
        for f in (nrb_factor, 1.0 / nrb_factor) for g_cs in sizes for g_rb in sizes
    ]
    return (max(betas) - min(betas)) / 2.0


# Resamples are drawn and summarized this many at a time, so a bin's index
# and sample matrices hold one block whatever the count.
_BOOTSTRAP_BLOCK = 32


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
    bin means and their errors (a bin of one trace keeps its original
    error), refits beta, and returns the standard deviation over resamples.
    Resamples are drawn and reduced in blocks of _BOOTSTRAP_BLOCK, so
    memory does not grow with their number. Deterministic for a given seed:
    each block makes one rng.integers call per steady bin, in bin order,
    drawing that bin's (block, size) matrix of trace indices, one row per
    resample. All resamples are then fitted as the lanes of one
    _minimize_beta call on the shared companion numbers, each lane exactly
    the scalar fit of that resample.
    """
    if resamples < 2:
        raise ValueError(f"resamples must be >= 2, got {resamples!r}")
    wanted = set(beta_fit.fitted_bins)
    steady = [b for b in binned.bins if b.center in wanted]
    if len(steady) != len(wanted):
        raise InferenceError("fitted_bins do not match the dataset")
    if any(b.trace_means is None for b in steady):
        raise InferenceError("bootstrap needs trace-level means; refit from traces")
    n = np.array([b.center for b in steady])
    v_pair = pair_overlap_volume(params_known.w_cs, params_known.w_rb)
    rng = np.random.default_rng(int(seed))
    m_b = np.empty((resamples, len(steady)))
    se_b = np.empty((resamples, len(steady)))
    for start in range(0, resamples, _BOOTSTRAP_BLOCK):
        block = min(_BOOTSTRAP_BLOCK, resamples - start)
        rows = slice(start, start + block)
        for j, b in enumerate(steady):
            size = len(b.trace_means)
            sample = b.trace_means[rng.integers(0, size, (block, size))]
            m_b[rows, j] = sample.mean(axis=1)
            se_b[rows, j] = (
                sample.std(axis=1, ddof=1) / math.sqrt(size) if size > 1 else b.se_mean_n_cs
            )
    betas, _, _ = _minimize_beta(
        n, m_b, se_b, loading_fit.r0, loading_fit.alpha, params_known.gamma, v_pair
    )
    return float(betas.std(ddof=1))


@dataclass
class CampaignFit:
    """What fit_campaign returns: the report fit writes as report.json, and
    each bin's steady-state label, in bin order."""

    report: dict
    labels: list[str]


def fit_campaign(
    binned: BinnedDataset,
    params: PhysicalParams,
    *,
    tol: float = DEFAULT_STEADY_TOL,
    bootstrap: int = 0,
    seed: int = 0,
) -> CampaignFit:
    """The whole fit of a binned campaign, in the order fit runs it: the
    loading line, the steady labels at tol, beta with its curvature error,
    the systematic error and, unless bootstrap is 0, the bootstrap error
    from that many resamples drawn from seed (bootstrap_stat_error). The
    report is built here and nowhere else.
    """
    if bootstrap < 0 or bootstrap == 1:
        raise ValueError(f"bootstrap must be 0 (skip) or >= 2, got {bootstrap!r}")
    loading = fit_loading_rate(binned)
    labels = classify_steady_state(binned, tol)
    beta_fit = fit_beta(binned, params, loading, labels=labels)
    report = {
        "r0_per_s": loading.r0,
        "r0_err_per_s": loading.r0_err,
        "alpha_per_s_per_rb": loading.alpha,
        "alpha_err_per_s_per_rb": loading.alpha_err,
        "beta_rbcs_cm3_per_s": beta_fit.beta,
        "stat_err_cm3_per_s": beta_fit.stat_err,
        "syst_err_cm3_per_s": propagate_systematics(params, beta_fit),
        "steady_bins": beta_fit.fitted_bins,
        "goodness": {
            "beta_chi2": beta_fit.goodness,
            "beta_points": beta_fit.n_points,
            "loading_chi2": loading.chi2,
            "loading_dof": loading.dof,
        },
        "n_bins": len(binned.bins),
        "tol": tol,
    }
    if bootstrap > 0:
        report["stat_err_bootstrap_cm3_per_s"] = bootstrap_stat_error(
            binned, params, loading, beta_fit, resamples=bootstrap, seed=seed,
        )
    return CampaignFit(report, labels)
