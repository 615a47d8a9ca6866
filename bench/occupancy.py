"""Exact expected probe-atom occupancy from the master equation.

The output checks compare each bin's staircase mean with the occupancy the
trap model predicts. That prediction is computed here, apart from the
program: the birth-death generator is built on a truncated state space and
propagated with a matrix exponential, so no formula of ``motprobe.physics``
is reused. The rates follow the model the program documents: loading
``max(0, R0 - alpha n_rb)``, per-atom loss ``gamma + beta_rbcs n_rb / V_pair``
and pair loss ``beta_cscs n (n - 1) / V_self`` that removes two atoms.
"""

from __future__ import annotations

import math

UM_TO_CM = 1e-4


def overlap_volumes(physics: dict) -> tuple[float, float]:
    """(V_pair, V_self) in cm^3 for 1/e Gaussian radii given in micrometers."""
    w_cs = physics["w_cs_um"] * UM_TO_CM
    w_rb = physics["w_rb_um"] * UM_TO_CM
    v_pair = (math.pi * (w_cs ** 2 + w_rb ** 2)) ** 1.5
    v_self = (2.0 * math.pi * w_cs ** 2) ** 1.5
    return v_pair, v_self


def window_mean_occupancy(physics: dict, n_rb: float, window_s: float, n_max: int = 60) -> float:
    """Mean atom number averaged over [0, window_s], starting from an empty trap.

    Uses the Van Loan block exponential, whose upper-right block is the exact
    time integral of exp(Q t), so no quadrature error enters. States above
    n_max are cut off; n_max = 60 is far above any occupancy the benchmark
    configurations reach within the window.
    """
    import numpy as np
    from scipy.linalg import expm

    v_pair, v_self = overlap_volumes(physics)
    load = max(0.0, physics["r0_per_s"] - physics["alpha_per_s_per_rb"] * n_rb)
    per_atom = physics["gamma_per_s"] + physics["beta_rbcs_cm3_per_s"] * n_rb / v_pair
    pair = physics["beta_cscs_cm3_per_s"] / v_self

    size = n_max + 1
    q = np.zeros((size, size))
    for n in range(size):
        if n < n_max:
            q[n, n + 1] += load
        if n >= 1:
            q[n, n - 1] += per_atom * n
        if n >= 2:
            q[n, n - 2] += pair * n * (n - 1)
        q[n, n] = -q[n].sum()

    block = np.zeros((2 * size, 2 * size))
    block[:size, :size] = q
    block[:size, size:] = np.eye(size)
    integral = expm(block * window_s)[:size, size:]
    # Row 0: the trap starts empty.
    return float(integral[0] @ np.arange(size)) / window_s
