"""Independent cross-checks of the closed-form physics.

Each oracle avoids the formula it validates: the overlap volume is
recomputed by radial quadrature of the density product, mean-number
formulas are checked against ensembles from the event-driven simulator, and
the stationary occupancy law is tested with a chi-square. The command-line
frontend exposes these as `oracle`, and the test suite reuses them.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .gillespie import (
    POISSON_STREAM,
    TRANSIENT_STREAM,
    ExperimentSchedule,
    derive_seed,
    simulate_groups,
)
from .photon import chi2_sf, poisson_pmf, poisson_sf
from .physics import CloudModel, PhysicalParams, pair_overlap_volume, transient_mean

__all__ = [
    "OracleCheck",
    "overlap_volume_quadrature",
    "overlap_checks",
    "transient_mean_ensembles",
    "transient_checks",
    "poisson_end_state_check",
]


@dataclass(frozen=True)
class OracleCheck:
    name: str
    passed: bool
    detail: str


# The fixed settings of the checks: the overlap check's radius range (cm)
# and relative tolerance; the |z| at which a transient check fails; the
# Poisson check's trap (loading rate, per-atom loss rate, 1/s), its window
# (s) and least passing p-value; the expected count of a chi-square cell.
_OVERLAP_LO_CM, _OVERLAP_HI_CM, _OVERLAP_REL_TOL = 1e-4, 1e-2, 1e-6
_TRANSIENT_Z_MAX = 3.0
_POISSON_LOAD, _POISSON_GAMMA, _POISSON_DETECT_S, _POISSON_P_MIN = 5.0, 2.5, 3.0, 0.01
_MIN_EXPECTED = 5.0


@functools.lru_cache(maxsize=8)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of the nodes-point Gauss-Legendre rule on
    [-1, 1], computed once per nodes; the arrays are read-only."""
    x, wts = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = False
    wts.flags.writeable = False
    return x, wts


def overlap_volume_quadrature(w_a: float, w_b: float, nodes: int = 64) -> float:
    """Pair overlap volume from Gauss-Legendre integration along the radius.

    Integrates 4 pi r^2 n_a(r) n_b(r) for two unit-atom Gaussian clouds over
    [0, 7.5 w_prod], far enough out that the truncated tail is far below the
    quadrature error, then inverts: the integral of n_a n_b equals 1/V for
    N_a = N_b = 1. Only the spherical symmetry of CloudModel.density is
    used, not the closed form it checks.
    """
    a, b = (CloudModel(1.0, w) for w in (w_a, w_b))
    w_prod = 1.0 / math.sqrt(1.0 / w_a ** 2 + 1.0 / w_b ** 2)
    half = 0.5 * 7.5 * w_prod
    x, wts = _gauss_legendre(nodes)
    r = half * (x + 1.0)
    shell = wts * half * (4.0 * math.pi * r ** 2)
    return 1.0 / float(np.dot(shell, a.density(r) * b.density(r)))


def overlap_checks(n_radii: int = 5) -> list[OracleCheck]:
    """Compare the closed-form pair volume with quadrature on an n_radii x
    n_radii log grid of radius pairs from _OVERLAP_LO_CM to _OVERLAP_HI_CM,
    plus the four-to-one radius special case against its cubic form."""
    radii = np.logspace(math.log10(_OVERLAP_LO_CM), math.log10(_OVERLAP_HI_CM), n_radii)
    # The quadrature is symmetric in its radii bit for bit (w_prod adds its
    # two terms in either order, the shell weights multiply the product of
    # the two densities), so each unordered pair is integrated once.
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
            passed=worst < _OVERLAP_REL_TOL,
            detail=(
                f"worst rel err {worst:.3e} at radii {worst_pair[0]:.3e}/"
                f"{worst_pair[1]:.3e} cm (tol {_OVERLAP_REL_TOL:g}, {n_radii}x{n_radii} grid)"
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


# Runs per seed group of the oracles' ensembles. It is a seeding constant,
# not a tuning one: the runs of group g are seeded by derive_seed(master,
# stream, g), so another value changes every oracle draw. It is its own
# literal, apart from gillespie._CHUNK, for that reason. The transient
# ensembles simulate one group per simulate_groups call and reduce its
# tables to checkpoint levels before the next, so only one group's event
# tables are held at a time.
_RUN_BLOCK = 512


def _run_groups(master_seed: int, stream: int, runs: int) -> list[tuple[int, int]]:
    """(seed, shots) of each group of runs: group g holds runs g * _RUN_BLOCK
    on, at most _RUN_BLOCK of them, and is seeded by derive_seed(master_seed,
    stream, g)."""
    return [
        (derive_seed(master_seed, stream, g), min(_RUN_BLOCK, runs - start))
        for g, start in enumerate(range(0, runs, _RUN_BLOCK))
    ]


def transient_mean_ensembles(
    sets: "list[tuple[float, PhysicalParams]]",
    checkpoints: "np.ndarray | list[float]",
    runs: int,
    master_seed: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Ensemble mean and standard error of the atom number at each
    checkpoint, for each (n_rb, params) of sets.

    The runs are split into seed groups of _RUN_BLOCK, group g seeded by
    derive_seed(master_seed, TRANSIENT_STREAM, g). Run i of every set is
    the same shot of the same group: the sets share their draws by design
    (common random numbers), so they run as the lanes of each group, one
    simulate_groups call per group. A set's result equals that of the set
    run alone bit for bit when, in every round of draws the set still
    needs, no other set keeps alive a run that the set has left (see
    simulate_groups). At the oracle's defaults (10 000 runs, seed 777) no
    run of its three sets reaches a second round, so each set's result is
    its one-set result.

    runs must be an integer >= 2, and checkpoints a non-empty list of
    finite times >= 0 whose largest, the end of the simulated window, is
    positive; anything else is refused.
    """
    _check_runs(runs)
    checkpoints = _check_checkpoints(checkpoints)
    schedule = ExperimentSchedule(detect_s=float(checkpoints.max()))
    # Atom numbers fit int32 by far (each is at most its shot's event
    # count), which halves what is held across groups.
    levels = np.empty((len(sets), runs, len(checkpoints)), dtype=np.int32)
    start = 0
    for seed, shots in _run_groups(master_seed, TRANSIENT_STREAM, runs):
        # The call's list of tables is not bound to a name, so it is let go
        # once the loop has read it, before the next group is simulated.
        for lane, table in enumerate(simulate_groups([(sets, seed, shots)], schedule)[0]):
            levels[lane, start:start + shots] = table.levels_at(checkpoints)
        start += shots
    ensembles = []
    for set_levels in levels:
        samples = set_levels.astype(float)
        ensembles.append((samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(runs)))
    return ensembles


def _check_count(name: str, value: int, least: int) -> None:
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_runs(runs: int) -> None:
    # One run gives no standard error and no spread to test against.
    _check_count("runs", runs, 2)


def _check_checkpoints(checkpoints: "np.ndarray | list[float]") -> np.ndarray:
    """checkpoints as a float array, refused unless it holds at least one
    time, every time is finite and >= 0, and the largest, the end of the
    simulated window, is > 0."""
    times = np.asarray(checkpoints, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError(f"checkpoints must be a non-empty list of times, got {checkpoints!r}")
    if not (np.isfinite(times).all() and (times >= 0.0).all()):
        raise ValueError(f"checkpoints must be finite and >= 0, got {times.tolist()!r}")
    if not times.max() > 0.0:
        raise ValueError(
            f"checkpoints must include a time > 0, the end of the simulated window, "
            f"got {times.tolist()!r}"
        )
    return times


def transient_checks(
    param_sets: "list[tuple[str, float, PhysicalParams]]",
    runs: int = 10000,
    n_checkpoints: int = 10,
    *,
    master_seed: int,
) -> list[OracleCheck]:
    """Fill-up curve of the simulator against the closed-form mean.

    param_sets holds (label, n_rb, params) entries; each is checked at
    n_checkpoints times spread over the detection window, all on the same
    runs (see transient_mean_ensembles), and passes while every
    |z| stays below _TRANSIENT_Z_MAX.
    """
    _check_count("n_checkpoints", n_checkpoints, 1)
    checkpoints = np.linspace(0.3, 3.0, n_checkpoints)
    ensembles = transient_mean_ensembles(
        [(n_rb, params) for _, n_rb, params in param_sets], checkpoints, runs, master_seed
    )
    checks = []
    for (label, n_rb, params), (mean, se) in zip(param_sets, ensembles):
        analytic = np.array([transient_mean(t, n_rb, params) for t in checkpoints])
        z = np.abs(mean - analytic) / np.where(se > 0, se, np.inf)
        checks.append(
            OracleCheck(
                name=f"transient_mean[{label}]",
                passed=bool(z.max() < _TRANSIENT_Z_MAX),
                detail=(
                    f"worst |z| {z.max():.2f} over {n_checkpoints} checkpoints, "
                    f"{runs} runs (limit {_TRANSIENT_Z_MAX:g})"
                ),
            )
        )
    return checks


def poisson_end_state_check(runs: int = 3000, *, master_seed: int) -> OracleCheck:
    """End-of-window occupancy of a pure immigration-death trap (loading
    _POISSON_LOAD, loss _POISSON_GAMMA per atom, read at _POISSON_DETECT_S)
    against the Poisson law with rate load/gamma, via chi-square with tail
    pooling; it passes when p > _POISSON_P_MIN. The runs are one-lane seed
    groups of _RUN_BLOCK, group g seeded by derive_seed(master_seed,
    POISSON_STREAM, g), stepped in one simulate_groups call."""
    _check_runs(runs)
    params = PhysicalParams(
        r0=_POISSON_LOAD, alpha=0.0, gamma=_POISSON_GAMMA, beta_rbcs=0.0, beta_cscs=0.0,
        w_cs=1e-4, w_rb=1e-4,
    )
    schedule = ExperimentSchedule(detect_s=_POISSON_DETECT_S)
    groups = [
        ([(0.0, params)], seed, shots)
        for seed, shots in _run_groups(master_seed, POISSON_STREAM, runs)
    ]
    finals = np.concatenate(
        [table.final_levels() for (table,) in simulate_groups(groups, schedule)]
    )
    lam = _POISSON_LOAD / _POISSON_GAMMA
    chi2, dof, p = poisson_chi2(finals, lam)
    return OracleCheck(
        name="stationary_occupancy_poisson",
        passed=bool(p > _POISSON_P_MIN),
        detail=(
            f"chi2 {chi2:.2f} with {dof} dof, p {p:.3f} against rate {lam:g} "
            f"({runs} runs, need p > {_POISSON_P_MIN:g})"
        ),
    )


def poisson_chi2(samples: np.ndarray, lam: float) -> tuple[float, int, float]:
    """Chi-square of integer samples against a Poisson law with known rate.

    Cells from the top are pooled until every expected count reaches
    _MIN_EXPECTED; the tail above the largest observation is pooled in as
    well. The rate is not estimated from the data, so dof = cells - 1.
    Samples too few to fill two cells raise ValueError: one cell has no
    dof and would pass any law.
    """
    n = len(samples)
    k_top = int(samples.max())
    obs = np.bincount(samples, minlength=k_top + 1).astype(float)
    exp = n * np.array([poisson_pmf(k, lam) for k in range(k_top + 1)])
    obs = np.append(obs, 0.0)
    exp = np.append(exp, n * poisson_sf(k_top, lam))

    # Pool from the top down so sparse high-occupancy cells merge.
    o_cells, e_cells = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(obs[::-1], exp[::-1]):
        o_acc += o
        e_acc += e
        if e_acc >= _MIN_EXPECTED:
            o_cells.append(o_acc)
            e_cells.append(e_acc)
            o_acc = e_acc = 0.0
    if len(o_cells) < 2:
        raise ValueError(
            f"{n} samples pool into {len(o_cells)} cell(s) of expected count >= "
            f"{_MIN_EXPECTED:g}; a chi-square test needs at least 2"
        )
    if e_acc > 0:
        o_cells[-1] += o_acc
        e_cells[-1] += e_acc
    o_arr = np.array(o_cells)
    e_arr = np.array(e_cells)
    chi2 = float(((o_arr - e_arr) ** 2 / e_arr).sum())
    dof = len(o_arr) - 1
    return chi2, dof, chi2_sf(chi2, dof)
