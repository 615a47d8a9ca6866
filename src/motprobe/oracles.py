"""Independent cross-checks of the closed-form physics.

Each oracle avoids the formula it validates: the overlap volume is
recomputed by brute-force 3-D quadrature of the density product, mean-number
formulas are checked against ensembles from the event-driven simulator, and
the stationary occupancy law is tested with a chi-square. The command-line
frontend exposes these as `oracle`, and the test suite reuses them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .gillespie import ExperimentSchedule, derive_seeds, simulate_shots
from .physics import CloudModel, PhysicalParams, transient_mean

__all__ = [
    "OracleCheck",
    "overlap_volume_quadrature",
    "overlap_checks",
    "transient_mean_ensemble",
    "transient_checks",
    "poisson_end_state_check",
]


@dataclass(frozen=True)
class OracleCheck:
    name: str
    passed: bool
    detail: str


@functools.lru_cache(maxsize=8)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of the nodes-point Gauss-Legendre rule on
    [-1, 1], computed once per nodes; the arrays are read-only."""
    x, wts = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    wts.flags.writeable = False
    return x, wts


def overlap_volume_quadrature(w_a: float, w_b: float, nodes: int = 64) -> float:
    """Pair overlap volume from direct 3-D Gauss-Legendre integration.

    Integrates the product of two unit-atom Gaussian clouds on a cube wide
    enough that the truncated tails are far below the quadrature error, then
    inverts: integral of n_a n_b equals 1/V for N_a = N_b = 1.
    """
    a = CloudModel.from_atom_number(1.0, w_a)
    b = CloudModel.from_atom_number(1.0, w_b)
    w_prod = 1.0 / math.sqrt(1.0 / w_a ** 2 + 1.0 / w_b ** 2)
    half = 7.5 * w_prod
    x, wts = _gauss_legendre(nodes)
    x = x * half
    wts = wts * half
    xx, yy, zz = np.meshgrid(x, x, x, indexing="ij", sparse=True)
    r = np.sqrt(xx ** 2 + yy ** 2 + zz ** 2)
    integrand = a.density(r) * b.density(r)
    integral = np.einsum("i,j,k,ijk->", wts, wts, wts, integrand)
    return 1.0 / float(integral)


def overlap_checks(
    lo_cm: float = 1e-4,
    hi_cm: float = 1e-2,
    n_radii: int = 5,
    rel_tol: float = 1e-6,
) -> list[OracleCheck]:
    """Compare the closed-form pair volume with quadrature on a log grid of
    radius pairs, plus the four-to-one radius special case against its cubic
    form."""
    from .physics import pair_overlap_volume

    radii = np.logspace(math.log10(lo_cm), math.log10(hi_cm), n_radii)
    # The quadrature is symmetric in its radii bit for bit (w_prod adds its
    # two terms in either order, the integrand is a product of the two
    # densities), so each unordered pair is integrated once.
    quad = {
        (i, j): overlap_volume_quadrature(radii[i], radii[j])
        for i in range(n_radii)
        for j in range(i, n_radii)
    }
    worst = 0.0
    worst_pair = (radii[0], radii[0])
    for i, wa in enumerate(radii):
        for j, wb in enumerate(radii):
            v_closed = pair_overlap_volume(wa, wb)
            v_quad = quad[min(i, j), max(i, j)]
            rel = abs(v_closed - v_quad) / v_quad
            if rel > worst:
                worst, worst_pair = rel, (wa, wb)
    checks = [
        OracleCheck(
            name="pair_overlap_vs_quadrature",
            passed=worst < rel_tol,
            detail=(
                f"worst rel err {worst:.3e} at radii {worst_pair[0]:.3e}/"
                f"{worst_pair[1]:.3e} cm (tol {rel_tol:g}, {n_radii}x{n_radii} grid)"
            ),
        )
    ]

    w = 6.6e-4
    v_general = pair_overlap_volume(w, 4.0 * w)
    v_special = (17.0 * math.pi) ** 1.5 * w ** 3
    rel = abs(v_general - v_special) / v_special
    checks.append(
        OracleCheck(
            name="four_to_one_radius_special_case",
            passed=rel < 1e-12,
            detail=f"rel err {rel:.3e} between general and cubic form",
        )
    )
    return checks


def transient_mean_ensemble(
    n_rb: float,
    params: PhysicalParams,
    checkpoints: "np.ndarray | list[float]",
    runs: int,
    master_seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble mean and standard error of the atom number at each checkpoint."""
    checkpoints = np.asarray(checkpoints, dtype=float)
    schedule = ExperimentSchedule(detect_s=float(checkpoints.max()))
    seeds = derive_seeds(master_seed, 2, count=runs)
    table = simulate_shots(n_rb, params, schedule, seeds)
    samples = table.levels_at(checkpoints).astype(float)
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(runs)
    return mean, se


def _check_runs(runs: int) -> None:
    # One run gives no standard error and no spread to test against.
    if runs < 2:
        raise ValueError(f"runs must be >= 2, got {runs!r}")


def transient_checks(
    param_sets: "list[tuple[str, float, PhysicalParams]]",
    runs: int = 10000,
    n_checkpoints: int = 10,
    master_seed: int = 777,
    z_max: float = 3.0,
) -> list[OracleCheck]:
    """Fill-up curve of the simulator against the closed-form mean.

    param_sets holds (label, n_rb, params) entries; each is checked at
    n_checkpoints times spread over the detection window.
    """
    _check_runs(runs)
    checks = []
    for label, n_rb, params in param_sets:
        checkpoints = np.linspace(0.3, 3.0, n_checkpoints)
        mean, se = transient_mean_ensemble(n_rb, params, checkpoints, runs, master_seed)
        analytic = np.array([transient_mean(t, n_rb, params) for t in checkpoints])
        z = np.abs(mean - analytic) / np.where(se > 0, se, np.inf)
        checks.append(
            OracleCheck(
                name=f"transient_mean[{label}]",
                passed=bool(z.max() < z_max),
                detail=(
                    f"worst |z| {z.max():.2f} over {n_checkpoints} checkpoints, "
                    f"{runs} runs (limit {z_max:g})"
                ),
            )
        )
    return checks


def poisson_end_state_check(
    load: float = 5.0,
    gamma: float = 2.5,
    runs: int = 3000,
    detect_s: float = 3.0,
    master_seed: int = 4242,
    p_min: float = 0.01,
) -> OracleCheck:
    """End-of-window occupancy of a pure immigration-death trap against the
    Poisson law with rate load/gamma, via chi-square with tail pooling."""
    _check_runs(runs)
    params = PhysicalParams(
        r0=load, alpha=0.0, gamma=gamma, beta_rbcs=0.0, beta_cscs=0.0,
        w_cs=1e-4, w_rb=1e-4,
    )
    schedule = ExperimentSchedule(detect_s=detect_s)
    seeds = derive_seeds(master_seed, 3, count=runs)
    finals = simulate_shots(0.0, params, schedule, seeds).final_levels()
    lam = load / gamma
    chi2, dof, p = poisson_chi2(finals, lam)
    return OracleCheck(
        name="stationary_occupancy_poisson",
        passed=bool(p > p_min),
        detail=(
            f"chi2 {chi2:.2f} with {dof} dof, p {p:.3f} against rate {lam:g} "
            f"({runs} runs, need p > {p_min:g})"
        ),
    )


def poisson_chi2(
    samples: np.ndarray, lam: float, min_expected: float = 5.0
) -> tuple[float, int, float]:
    """Chi-square of integer samples against a Poisson law with known rate.

    Cells from the top are pooled until every expected count reaches
    min_expected; the tail above the largest observation is pooled in as
    well. The rate is not estimated from the data, so dof = cells - 1.
    """
    n = len(samples)
    k_top = int(samples.max())
    obs = np.bincount(samples, minlength=k_top + 1).astype(float)
    exp = n * stats.poisson.pmf(np.arange(k_top + 1), lam)
    obs = np.append(obs, 0.0)
    exp = np.append(exp, n * stats.poisson.sf(k_top, lam))

    # Pool from the top down so sparse high-occupancy cells merge.
    o_cells, e_cells = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(obs[::-1], exp[::-1]):
        o_acc += o
        e_acc += e
        if e_acc >= min_expected:
            o_cells.append(o_acc)
            e_cells.append(e_acc)
            o_acc = e_acc = 0.0
    if e_acc > 0 and o_cells:
        o_cells[-1] += o_acc
        e_cells[-1] += e_acc
    o_arr = np.array(o_cells)
    e_arr = np.array(e_cells)
    chi2 = float(((o_arr - e_arr) ** 2 / e_arr).sum())
    dof = max(len(o_arr) - 1, 1)
    return chi2, dof, float(stats.chi2.sf(chi2, dof))
