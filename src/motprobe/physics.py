"""Closed-form trap physics for a single-atom probe inside a larger cloud.

Units are lab-style CGS throughout: lengths in cm, times in s, rates in 1/s,
two-body loss coefficients in cm^3/s, densities in 1/cm^3. Everything here is
a pure function of its arguments; the stochastic simulator consumes the rate
set and the analysis chain reuses the mean-number formulas as fit models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PhysicalParams",
    "CloudModel",
    "RateSet",
    "pair_overlap_volume",
    "self_overlap_volume",
    "loading_rate",
    "rates",
    "steady_state_mean",
    "transient_mean",
    "peak_density",
]

_PI_32 = math.pi ** 1.5


@dataclass(frozen=True)
class PhysicalParams:
    """Rate-equation coefficients plus cloud geometry.

    Attributes
    ----------
    r0 : float
        Probe loading rate with the large cloud absent [1/s].
    alpha : float
        Loading-rate reduction per atom of the large cloud [1/s per atom].
    gamma : float
        One-body loss rate from background-gas collisions [1/s].
    beta_rbcs : float
        Inter-species two-body loss coefficient [cm^3/s].
    beta_cscs : float
        Intra-species two-body loss coefficient [cm^3/s].
    w_cs : float
        1/e radius of the probe-species cloud [cm].
    w_rb : float
        1/e radius of the large cloud [cm].
    """

    r0: float
    alpha: float
    gamma: float
    beta_rbcs: float
    beta_cscs: float
    w_cs: float
    w_rb: float

    def __post_init__(self) -> None:
        for name in ("r0", "alpha", "gamma", "beta_rbcs", "beta_cscs"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        for name in ("w_cs", "w_rb"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be a positive finite radius, got {value!r}")


@dataclass(frozen=True)
class CloudModel:
    """Spherical Gaussian cloud of n_atoms atoms within 1/e radius w,
    n(r) = n0 * exp(-r^2 / w^2).

    The peak density n0 follows from the atom number by the normalization
    of the Gaussian profile: n0 = N / (pi^{3/2} w^3).
    """

    n_atoms: float
    w: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.w) or self.w <= 0.0:
            raise ValueError(f"cloud radius must be positive, got {self.w!r}")
        if self.n_atoms < 0.0:
            raise ValueError(f"atom number must be non-negative, got {self.n_atoms!r}")

    @property
    def n0(self) -> float:
        return peak_density(self.n_atoms, self.w)

    def density(self, r):
        """Density at radius r (scalar or numpy array)."""
        import numpy as np

        r = np.asarray(r, dtype=float)
        out = self.n0 * np.exp(-(r ** 2) / self.w ** 2)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RateSet:
    """Instantaneous event rates for one trap state, all in 1/s."""

    load: float
    loss_bg: float
    loss_rbcs: float
    loss_cscs: float

    def __post_init__(self) -> None:
        for name in ("load", "loss_bg", "loss_rbcs", "loss_cscs"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")

    @property
    def total_loss(self) -> float:
        return self.loss_bg + self.loss_rbcs + self.loss_cscs

    @property
    def total(self) -> float:
        return self.load + self.total_loss


def pair_overlap_volume(w_a: float, w_b: float) -> float:
    """Effective volume dividing the product of atom numbers in the two-cloud
    density overlap: integral of n_a * n_b over space equals N_a N_b / V with
    V = (pi (w_a^2 + w_b^2))^{3/2}.
    """
    if w_a <= 0.0 or w_b <= 0.0:
        raise ValueError(f"cloud radii must be positive, got {w_a!r}, {w_b!r}")
    return (math.pi * (w_a * w_a + w_b * w_b)) ** 1.5


def self_overlap_volume(w: float) -> float:
    """Effective volume for same-cloud pair collisions, (2 pi)^{3/2} w^3.

    Identical to pair_overlap_volume(w, w); kept separate because the
    intra-species loss term is normalized by this volume.
    """
    if w <= 0.0:
        raise ValueError(f"cloud radius must be positive, got {w!r}")
    return (2.0 * math.pi) ** 1.5 * w ** 3


def loading_rate(n_rb: float, params: PhysicalParams) -> float:
    """Shielded loading rate, clamped at zero once the large cloud blocks loading."""
    if n_rb < 0.0:
        raise ValueError(f"n_rb must be non-negative, got {n_rb!r}")
    return max(0.0, params.r0 - params.alpha * n_rb)


def rates(n_cs: int, n_rb: float, params: PhysicalParams) -> RateSet:
    """Event rates for a trap holding n_cs probe atoms next to n_rb cloud atoms.

    The intra-species term counts discrete pairs, n(n-1), because the
    continuum n^2 form would allow a lone atom to collide with itself.
    """
    if n_cs < 0:
        raise ValueError(f"n_cs must be non-negative, got {n_cs!r}")
    v_pair = pair_overlap_volume(params.w_cs, params.w_rb)
    v_self = self_overlap_volume(params.w_cs)
    return RateSet(
        load=loading_rate(n_rb, params),
        loss_bg=params.gamma * n_cs,
        loss_rbcs=params.beta_rbcs * n_rb * n_cs / v_pair,
        loss_cscs=params.beta_cscs * n_cs * (n_cs - 1) / v_self,
    )


def steady_state_mean(n_rb: float, params: PhysicalParams) -> float:
    """Mean trapped probe number once loading balances one-body-equivalent loss.

    Requires beta_cscs = 0 (the default operating point); the pair-loss term
    makes the mean equation nonlinear, so this form would overstate the mean.
    """
    if params.beta_cscs != 0.0:
        raise ValueError("closed-form steady-state mean requires beta_cscs = 0")
    load = loading_rate(n_rb, params)
    v_pair = pair_overlap_volume(params.w_cs, params.w_rb)
    denom = params.gamma + params.beta_rbcs * n_rb / v_pair
    if denom <= 0.0:
        raise ZeroDivisionError(
            "total per-atom loss rate is zero (gamma = 0 and no companion atoms); "
            "the steady-state mean is undefined"
        )
    return load / denom


def transient_mean(t: float, n_rb: float, params: PhysicalParams) -> float:
    """Mean probe number at time t after starting from an empty trap.

    Closed form for the linear birth-death process: R/G * (1 - exp(-G t))
    with R the clamped loading rate and G the per-atom loss rate. Requires
    beta_cscs = 0; the pair-loss term makes the mean equation nonlinear.
    """
    if t < 0.0:
        raise ValueError(f"t must be non-negative, got {t!r}")
    if params.beta_cscs != 0.0:
        raise ValueError("closed-form transient mean requires beta_cscs = 0")
    load = loading_rate(n_rb, params)
    v_pair = pair_overlap_volume(params.w_cs, params.w_rb)
    g = params.gamma + params.beta_rbcs * n_rb / v_pair
    if g == 0.0:
        return load * t
    return load / g * -math.expm1(-g * t)


def peak_density(n_atoms: float, w: float) -> float:
    """Peak density of a Gaussian cloud holding n_atoms within 1/e radius w."""
    if w <= 0.0:
        raise ValueError(f"cloud radius must be positive, got {w!r}")
    if n_atoms < 0.0:
        raise ValueError(f"atom number must be non-negative, got {n_atoms!r}")
    return n_atoms / (_PI_32 * w ** 3)
