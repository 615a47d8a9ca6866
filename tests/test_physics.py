"""Closed-form layer: frozen reference values, quadrature cross-checks, and
structural properties of the rate formulas.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motprobe.oracles import overlap_volume_quadrature
from motprobe.physics import (
    CloudModel,
    PhysicalParams,
    loading_rate,
    pair_overlap_volume,
    peak_density,
    rates,
    self_overlap_volume,
    steady_state_mean,
    transient_mean,
)
from reference import overlap_volume_cube

UM = 1e-4  # cm

DEFAULTS = PhysicalParams(
    r0=1.48, alpha=2.3e-4, gamma=0.03,
    beta_rbcs=1.6e-10, beta_cscs=0.0,
    w_cs=6.6 * UM, w_rb=26.4 * UM,
)

# Reference values computed once from the closed forms and pinned; the
# quadrature oracle below independently verifies the volume formula itself.
V_PAIR_DEFAULT = 1.1220959574138552e-07   # cm^3, radii 6.6/26.4 um
STEADY_AT_3300 = 0.1522548953067772
LOSS_RBCS_AT_3300 = 1.6e-10 * 3300 / V_PAIR_DEFAULT  # ~4.7055 1/s
PEAK_DENSITY_3300 = 32209008071.69109     # 1/cm^3 at w = 26.4 um


class TestOverlapVolumes:
    def test_frozen_default_volume(self):
        v = pair_overlap_volume(6.6 * UM, 26.4 * UM)
        assert v == pytest.approx(V_PAIR_DEFAULT, rel=1e-12)

    def test_four_to_one_cubic_form(self):
        w = 6.6 * UM
        assert pair_overlap_volume(w, 4 * w) == pytest.approx(
            (17 * math.pi) ** 1.5 * w ** 3, rel=1e-12
        )

    def test_equal_radii_match_self_volume(self):
        w = 3.3 * UM
        assert pair_overlap_volume(w, w) == pytest.approx(
            self_overlap_volume(w), rel=1e-12
        )
        assert self_overlap_volume(w) == pytest.approx(
            (2 * math.pi) ** 1.5 * w ** 3, rel=1e-12
        )

    def test_quadrature_agrees_at_default_radii(self):
        v_quad = overlap_volume_quadrature(6.6 * UM, 26.4 * UM)
        assert abs(pair_overlap_volume(6.6 * UM, 26.4 * UM) - v_quad) / v_quad < 1e-6

    # The unordered radius pairs of overlap_checks' 5x5 log grid, and the
    # default radii: the radial rule against the 3-D tensor rule.
    @pytest.mark.parametrize("w_a, w_b", [
        *itertools.combinations_with_replacement(
            [float(w) for w in np.logspace(-4, -2, 5)], 2
        ),
        (6.6 * UM, 26.4 * UM),
    ])
    def test_radial_rule_equals_cube_rule(self, w_a, w_b):
        v_cube = overlap_volume_cube(w_a, w_b)
        assert abs(overlap_volume_quadrature(w_a, w_b) - v_cube) / v_cube < 1e-13

    def test_rejects_nonpositive_radii(self):
        with pytest.raises(ValueError):
            pair_overlap_volume(0.0, 1e-4)
        with pytest.raises(ValueError):
            self_overlap_volume(-1e-4)

    @given(
        w_a=st.floats(1e-4, 1e-2), w_b=st.floats(1e-4, 1e-2),
        scale=st.floats(0.5, 2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_scaling(self, w_a, w_b, scale):
        assert pair_overlap_volume(w_a, w_b) == pair_overlap_volume(w_b, w_a)
        # Volume scales as length^3 under uniform dilation.
        assert pair_overlap_volume(scale * w_a, scale * w_b) == pytest.approx(
            scale ** 3 * pair_overlap_volume(w_a, w_b), rel=1e-9
        )


class TestLoadingRate:
    def test_zero_companions_gives_base_rate(self):
        assert loading_rate(0.0, DEFAULTS) == 1.48

    def test_zero_crossing(self):
        assert loading_rate(DEFAULTS.r0 / DEFAULTS.alpha, DEFAULTS) == 0.0

    def test_value_at_grid_top(self):
        assert loading_rate(3300.0, DEFAULTS) == pytest.approx(0.721, abs=1e-12)

    def test_clamped_beyond_crossing(self):
        assert loading_rate(1e6, DEFAULTS) == 0.0

    @given(n_rb=st.floats(0, 1e5))
    @settings(max_examples=60, deadline=None)
    def test_never_negative(self, n_rb):
        assert loading_rate(n_rb, DEFAULTS) >= 0.0


class TestRates:
    def test_empty_trap_has_no_loss(self):
        rs = rates(0, 1000.0, DEFAULTS)
        assert rs.loss_bg == rs.loss_rbcs == rs.loss_cscs == 0.0
        assert rs.load > 0

    def test_single_atom_background_only(self):
        rs = rates(1, 0.0, DEFAULTS)
        assert rs.total_loss == pytest.approx(0.03, rel=1e-12)

    def test_single_atom_companion_loss(self):
        rs = rates(1, 3300.0, DEFAULTS)
        assert rs.loss_rbcs == pytest.approx(LOSS_RBCS_AT_3300, rel=1e-12)
        assert rs.loss_rbcs == pytest.approx(4.7055, rel=1e-4)

    def test_pair_loss_counts_discrete_pairs(self):
        p = PhysicalParams(
            r0=1.0, alpha=0.0, gamma=0.0, beta_rbcs=0.0, beta_cscs=1e-11,
            w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        assert rates(1, 0.0, p).loss_cscs == 0.0
        r2 = rates(2, 0.0, p).loss_cscs
        r3 = rates(3, 0.0, p).loss_cscs
        assert r2 > 0
        assert r3 == pytest.approx(3.0 * r2, rel=1e-12)

    def test_rejects_negative_occupancy(self):
        with pytest.raises(ValueError):
            rates(-1, 0.0, DEFAULTS)


class TestSteadyStateMean:
    def test_immigration_death_balance(self):
        p = PhysicalParams(
            r0=1.48, alpha=2.3e-4, gamma=0.03, beta_rbcs=0.0, beta_cscs=0.0,
            w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        assert steady_state_mean(0.0, p) == pytest.approx(1.48 / 0.03, rel=1e-12)

    def test_frozen_value_at_grid_top(self):
        assert steady_state_mean(3300.0, DEFAULTS) == pytest.approx(
            STEADY_AT_3300, rel=1e-10
        )

    def test_monotone_decreasing_up_to_crossing(self):
        top = DEFAULTS.r0 / DEFAULTS.alpha
        values = [steady_state_mean(x, DEFAULTS) for x in
                  [0, 200, 800, 1600, 2400, 3200, top * 0.99]]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_undefined_without_any_loss(self):
        p = PhysicalParams(
            r0=1.0, alpha=0.0, gamma=0.0, beta_rbcs=1.6e-10, beta_cscs=0.0,
            w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        with pytest.raises(ZeroDivisionError):
            steady_state_mean(0.0, p)

    def test_requires_no_pair_loss_term(self):
        p = PhysicalParams(
            r0=10.0, alpha=0.0, gamma=0.03, beta_rbcs=0.0, beta_cscs=2e-9,
            w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        with pytest.raises(ValueError, match="beta_cscs"):
            steady_state_mean(0.0, p)


class TestTransientMean:
    def test_starts_empty(self):
        assert transient_mean(0.0, 1100.0, DEFAULTS) == 0.0

    def test_long_time_limit_is_steady_state(self):
        assert transient_mean(1e6, 1100.0, DEFAULTS) == pytest.approx(
            steady_state_mean(1100.0, DEFAULTS), rel=1e-12
        )

    def test_lossless_limit_grows_linearly(self):
        p = PhysicalParams(
            r0=2.0, alpha=0.0, gamma=0.0, beta_rbcs=0.0, beta_cscs=0.0,
            w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        assert transient_mean(1.5, 0.0, p) == pytest.approx(3.0, rel=1e-12)

    def test_requires_no_pair_loss_term(self):
        p = PhysicalParams(
            r0=1.0, alpha=0.0, gamma=0.1, beta_rbcs=0.0, beta_cscs=1e-12,
            w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        with pytest.raises(ValueError):
            transient_mean(1.0, 0.0, p)

    @given(t=st.floats(0.0, 100.0), n_rb=st.floats(0.0, 6000.0))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_steady_state(self, t, n_rb):
        mean = transient_mean(t, n_rb, DEFAULTS)
        assert 0.0 <= mean <= steady_state_mean(n_rb, DEFAULTS) * (1 + 1e-12)

    def test_monotone_in_time(self):
        ts = [0.1, 0.5, 1.0, 2.0, 3.0]
        vals = [transient_mean(t, 1100.0, DEFAULTS) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestPeakDensity:
    def test_zero_atoms(self):
        assert peak_density(0.0, 6.6 * UM) == 0.0

    def test_unit_normalization(self):
        w = 6.6 * UM
        assert peak_density(1.0, w) == pytest.approx(
            1.0 / (math.pi ** 1.5 * w ** 3), rel=1e-12
        )

    def test_frozen_value_large_cloud(self):
        # Model value for 3300 atoms in the 26.4 um cloud; kept as computed,
        # not reconciled with any externally quoted density.
        assert peak_density(3300.0, 26.4 * UM) == pytest.approx(
            PEAK_DENSITY_3300, rel=1e-10
        )


class TestCloudModel:
    def test_from_atom_number_consistent(self):
        c = CloudModel(3300.0, 26.4 * UM)
        assert c.n0 == pytest.approx(PEAK_DENSITY_3300, rel=1e-10)
        assert c.density(0.0) == pytest.approx(c.n0, rel=1e-12)
        assert c.density(c.w) == pytest.approx(c.n0 / math.e, rel=1e-12)


class TestParamValidation:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            PhysicalParams(
                r0=-1.0, alpha=0.0, gamma=0.0, beta_rbcs=0.0, beta_cscs=0.0,
                w_cs=1e-4, w_rb=1e-4,
            )

    def test_rejects_zero_radius(self):
        with pytest.raises(ValueError):
            PhysicalParams(
                r0=1.0, alpha=0.0, gamma=0.0, beta_rbcs=0.0, beta_cscs=0.0,
                w_cs=0.0, w_rb=1e-4,
            )
