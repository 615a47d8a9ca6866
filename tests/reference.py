"""Exact per-row references for the batch kernels of motprobe.

Each function here is the one-row form a batch kernel replaced. The program
does not call them; the tests hold the kernels to them with equality:

- next_event, one Gillespie step on a shot's BlockDraws, and
  replay_next_event, one shot stepped with it from an empty trap: the
  reference of every lane of gillespie.simulate_lanes;
- group_by_bin, trace-by-trace grid assignment: the reference of the grid
  points bin_by_nrb groups on;
- trace_from_dict, the per-line trace loader: the reference of
  read_traces_jsonl, built on the same field and count checks;
- overlap_volume_cube, the overlap integral on a 3-D tensor grid: the
  reference of the radial rule of oracles.overlap_volume_quadrature. The
  two rules sum different terms, so the tests hold them within 1e-13
  relative, not to equality;
- fit_poisson, the chi-square of a histogram's peak weights against the
  Poisson law of its rate: the analysis keeps only that rate (equal to
  TraceHistogram.poisson_lambda), and the tests hold the closed-form tails
  poisson_pmf, poisson_sf and chi2_sf through it to scipy.stats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from motprobe.gillespie import _BLOCK, EventKind, ExperimentSchedule
from motprobe.oracles import _gauss_legendre
from motprobe.photon import (
    FluorescenceTrace,
    TraceHistogram,
    chi2_sf,
    poisson_pmf,
    poisson_sf,
)
from motprobe.physics import CloudModel, PhysicalParams, rates
from motprobe.traceio import TraceFileError, _count_row, _trace_fields


class BlockDraws:
    """The draws of one shot under the block contract of simulate_lanes.

    On the shot's generator: rng.standard_exponential(_BLOCK), then
    rng.random(_BLOCK); event j of a block takes wait j and uniform j, and a
    used-up block is followed by the next pair, drawn when first needed.
    blocks counts the pairs drawn so far.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.j = _BLOCK
        self.blocks = 0

    def pair(self) -> tuple[float, float]:
        """Wait and uniform of the next event."""
        if self.j == _BLOCK:
            self.waits = self.rng.standard_exponential(_BLOCK)
            self.uniforms = self.rng.random(_BLOCK)
            self.j = 0
            self.blocks += 1
        self.j += 1
        return float(self.waits[self.j - 1]), float(self.uniforms[self.j - 1])


def next_event(
    n_cs: int,
    n_rb: float,
    params: PhysicalParams,
    draws: BlockDraws,
) -> tuple[float, EventKind] | None:
    """Draw the waiting time and type of the next event from draws.

    Returns None when every rate vanishes (absorbing state), without
    drawing; the caller then treats the remaining observation window as
    event-free. Otherwise takes the next (wait, uniform) pair: the waiting
    time is wait / total, as the product (1 / total) * wait, and the event
    is the first of LOAD, LOSS_BG, LOSS_RBCS whose cumulative rate exceeds
    uniform * total, else LOSS_CSCS_PAIR; with no pair rate the last
    threshold is +inf. The rates are summed here from physics.rates, in the
    order gillespie._rate_row documents.
    """
    rs = rates(n_cs, n_rb, params)
    total = rs.total
    if total <= 0.0:
        return None
    c_load = rs.load
    c_bg = c_load + rs.loss_bg
    c_rbcs = c_bg + rs.loss_rbcs if rs.loss_cscs > 0.0 else math.inf
    wait, uniform = draws.pair()
    dt = (1.0 / total) * wait
    u = uniform * total
    if u < c_load:
        return dt, EventKind.LOAD
    if u < c_bg:
        return dt, EventKind.LOSS_BG
    if u < c_rbcs:
        return dt, EventKind.LOSS_RBCS
    return dt, EventKind.LOSS_CSCS_PAIR


def replay_next_event(
    n_rb: float,
    params: PhysicalParams,
    schedule: ExperimentSchedule,
    seed: int,
    draws: BlockDraws | None = None,
) -> list[tuple[float, EventKind, int]]:
    """Events of one shot: next_event stepped from an empty trap on the
    block draws of np.random.default_rng(seed) until the clock passes the
    window; the step that passes it uses only its wait. draws, when given,
    must be fresh BlockDraws on that generator (a test can then read its
    block count)."""
    if draws is None:
        draws = BlockDraws(np.random.default_rng(seed))
    t, n, events = 0.0, 0, []
    while True:
        step = next_event(n, n_rb, params, draws)
        if step is None:
            break
        dt, kind = step
        t = t + dt
        if t > schedule.detect_s:
            break
        n += kind.delta
        events.append((t, kind, n))
    return events


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


def trace_from_dict(obj: dict, line_number: int | None = None) -> FluorescenceTrace:
    """Build a trace from its JSON object, refusing malformed fields with a
    TraceFileError that names line_number.

    read_traces_jsonl makes the same checks with the same two functions,
    _trace_fields and _count_row, on every line it reads with json.
    """
    try:
        trace_id, n_rb, segments, bin_s = _trace_fields(obj, {})
        counts = _count_row(obj["counts"], segments.n_bins)
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceFileError(str(exc), line_number) from exc
    return FluorescenceTrace(
        trace_id=trace_id, n_rb=n_rb, bin_s=bin_s, segments=segments, counts=counts
    )


def overlap_volume_cube(w_a: float, w_b: float, nodes: int = 64) -> float:
    """Pair overlap volume from 3-D Gauss-Legendre integration.

    The nodes-point rule on each axis of the cube [-7.5 w_prod, 7.5 w_prod]^3,
    applied to the product of two unit-atom Gaussian clouds and inverted:
    the integral of n_a n_b equals 1/V for N_a = N_b = 1.
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


@dataclass(frozen=True)
class PoissonFit:
    lam: float
    chi2: float
    dof: int
    p_value: float


def fit_poisson(hist: TraceHistogram) -> PoissonFit:
    """Poisson law for the atom-number weights of the histogram peaks.

    The rate estimate is the weight-weighted mean atom number. The chi-square
    statistic compares the peak weights against the fitted law, with all
    probability at and above the highest peak lumped into a tail cell; the
    degrees of freedom account for the fitted total and rate. The cell
    probabilities and the p-value are closed forms (poisson_pmf, poisson_sf
    summed upward, chi2_sf as a finite series) that agree with scipy.stats
    to 1e-12 relative.
    """
    if len(hist.peaks) < 2:
        raise ValueError("need at least two peaks to fit an atom-number law")
    w = {p.n_atoms: p.weight for p in hist.peaks}
    total = sum(w.values())
    if total <= 0 or any(v < 0 for v in w.values()):
        raise ValueError("degenerate peak weights")
    lam = sum(k * v for k, v in w.items()) / total

    k_top = max(w)
    obs, exp = [], []
    for k in range(k_top):
        obs.append(w.get(k, 0.0))
        exp.append(total * poisson_pmf(k, lam))
    obs.append(w[k_top])
    exp.append(total * poisson_sf(k_top - 1, lam))

    chi2 = 0.0
    cells = 0
    for o, e in zip(obs, exp):
        if e < 1e-12:
            if o > 1e-12:
                chi2 = math.inf
                cells += 1
            continue
        chi2 += (o - e) ** 2 / e
        cells += 1
    dof = cells - 2
    if dof < 1:
        return PoissonFit(lam=lam, chi2=0.0, dof=0, p_value=1.0)
    return PoissonFit(lam=lam, chi2=float(chi2), dof=dof, p_value=chi2_sf(chi2, dof))
