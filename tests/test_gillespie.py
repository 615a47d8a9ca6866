"""Stochastic simulator: distributional oracles against closed forms, seed
contracts, and trajectory invariants.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from motprobe.config import GridSpec, RunConfig
from motprobe.gillespie import (
    EventKind,
    ExperimentSchedule,
    TRAJECTORY_STREAM,
    Trajectory,
    derive_seed,
    simulate_trajectory,
)
from motprobe.oracles import (
    poisson_chi2,
    poisson_end_state_check,
    transient_checks,
    transient_mean_ensembles,
)
from motprobe.photon import DetectionCalibration, simulate_grid_bins
from motprobe.physics import PhysicalParams, rates, transient_mean
from reference import BlockDraws, next_event, one_lane, replay_next_event

UM = 1e-4

DEFAULTS = PhysicalParams(
    r0=1.48, alpha=2.3e-4, gamma=0.03,
    beta_rbcs=1.6e-10, beta_cscs=0.0,
    w_cs=6.6 * UM, w_rb=26.4 * UM,
)

LOAD_ONLY = PhysicalParams(
    r0=1.0, alpha=0.0, gamma=0.0, beta_rbcs=0.0, beta_cscs=0.0,
    w_cs=6.6 * UM, w_rb=26.4 * UM,
)

SILENT = PhysicalParams(
    r0=0.0, alpha=0.0, gamma=0.5, beta_rbcs=0.0, beta_cscs=0.0,
    w_cs=6.6 * UM, w_rb=26.4 * UM,
)

PAIR_LOSS = PhysicalParams(
    r0=10.0, alpha=2.3e-4, gamma=0.03,
    beta_rbcs=1.6e-10, beta_cscs=2e-9,
    w_cs=6.6 * UM, w_rb=26.4 * UM,
)

ABSORBING = PhysicalParams(
    r0=0.0, alpha=0.0, gamma=0.0, beta_rbcs=0.0, beta_cscs=0.0,
    w_cs=6.6 * UM, w_rb=26.4 * UM,
)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(1234, 0, 3, 17) == derive_seed(1234, 0, 3, 17)

    def test_distinct_paths_distinct_seeds(self):
        seeds = {
            derive_seed(1234, stream, bi, ti)
            for stream in (0, 1) for bi in range(4) for ti in range(50)
        }
        assert len(seeds) == 2 * 4 * 50

    def test_master_seed_matters(self):
        assert derive_seed(1, 0, 0, 0) != derive_seed(2, 0, 0, 0)


class TestNextEvent:
    def test_absorbing_state_returns_none(self):
        draws = BlockDraws(np.random.default_rng(0))
        assert next_event(0, 0.0, SILENT, draws) is None
        assert draws.blocks == 0

    def test_waiting_times_exponential(self):
        # Load-only configuration has constant total rate 1, so waiting
        # times must be Exponential(1) draws.
        draws = BlockDraws(np.random.default_rng(2024))
        dts = np.array([next_event(0, 0.0, LOAD_ONLY, draws)[0] for _ in range(100_000)])
        stat = stats.kstest(dts, "expon")
        assert stat.pvalue > 0.01, f"KS p={stat.pvalue:.4f}"

    def test_event_choice_frequencies(self):
        # load 1/s against background loss 3/s from one atom: pick
        # probability 1/4 for the load branch.
        p = PhysicalParams(
            r0=1.0, alpha=0.0, gamma=3.0, beta_rbcs=0.0, beta_cscs=0.0,
            w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        draws = BlockDraws(np.random.default_rng(99))
        n = 100_000
        loads = sum(
            next_event(1, 0.0, p, draws)[1] is EventKind.LOAD for _ in range(n)
        )
        freq = loads / n
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(freq - 0.25) < 3 * sigma, f"freq={freq:.4f}"


class StubBits:
    """A bit generator whose state and position nothing reads."""

    state = None

    def advance(self, delta):
        pass


class StubGenerator:
    """Block draws of a shot that loads at once, then draws uniform second:
    waits 0.01, 0.01 and then 1e9, so the third step leaves the window;
    uniforms 0, second, then 0.5."""

    def __init__(self, second):
        self.second = second
        self.bit_generator = StubBits()

    def _block(self, first, rest, size, out):
        block = np.full(size if out is None else out.shape, rest)
        block[..., :2] = first
        if out is None:
            return block
        out[:] = block

    def standard_exponential(self, size=None, out=None):
        return self._block((0.01, 0.01), 1e9, size, out)

    def random(self, size=None, out=None):
        return self._block((0.0, self.second), 0.5, size, out)


class TestSimulateTrajectory:
    def test_no_rates_no_events(self):
        traj = simulate_trajectory(0.0, SILENT, ExperimentSchedule(), seed=5)
        assert traj.events == []
        assert traj.n_final == 0

    def test_same_seed_same_trajectory(self):
        a = simulate_trajectory(1100.0, DEFAULTS, ExperimentSchedule(), seed=42)
        b = simulate_trajectory(1100.0, DEFAULTS, ExperimentSchedule(), seed=42)
        assert a.events == b.events

    def test_different_seeds_differ(self):
        a = simulate_trajectory(1100.0, DEFAULTS, ExperimentSchedule(), seed=1)
        b = simulate_trajectory(1100.0, DEFAULTS, ExperimentSchedule(), seed=2)
        assert a.events != b.events

    def test_occupancy_readback(self):
        events = [(0.5, EventKind.LOAD, 1), (1.5, EventKind.LOAD, 2),
                  (2.5, EventKind.LOSS_BG, 1)]
        traj = Trajectory(events=events, t_end=3.0, n_rb=0.0, seed=0)
        assert traj.n_at(0.25) == 0
        assert traj.n_at(1.0) == 1
        assert traj.n_at(2.0) == 2
        assert traj.n_at(2.9) == 1

    @given(seed=st.integers(0, 2**32 - 1), n_rb=st.sampled_from([0.0, 550.0, 2200.0]))
    @settings(max_examples=50, deadline=None)
    def test_trajectory_invariants(self, seed, n_rb):
        traj = simulate_trajectory(n_rb, DEFAULTS, ExperimentSchedule(), seed=seed)
        traj.validate()
        ns = [n for _, _, n in traj.events]
        assert all(n >= 0 for n in ns)


class TestMatchesStepwiseReplay:
    """simulate_trajectory reads rates from shared per-state rows; it must
    reproduce the single-step reference float for float."""

    @pytest.mark.parametrize("n_rb", [0.0, 1100.0, 3300.0])
    @pytest.mark.parametrize(
        "params",
        [DEFAULTS, PAIR_LOSS, ABSORBING, LOAD_ONLY],
        ids=["default", "pair_loss", "absorbing", "load_only"],
    )
    def test_identical_events(self, params, n_rb):
        schedule = ExperimentSchedule()
        for seed in range(200):
            traj = simulate_trajectory(n_rb, params, schedule, seed)
            assert traj.events == replay_next_event(n_rb, params, schedule, seed), seed

    def test_pair_losses_are_replayed(self):
        kinds = {
            kind
            for seed in range(50)
            for _, kind, _ in simulate_trajectory(0.0, PAIR_LOSS, ExperimentSchedule(), seed).events
        }
        assert EventKind.LOSS_CSCS_PAIR in kinds

    def test_no_pair_loss_without_a_pair_rate(self):
        # At n_rb 3080 and one atom the total, summed losses first, lies an
        # ulp above the last threshold. A load, then the largest uniform
        # rng.random returns, must draw LOSS_RBCS to 0, not a pair loss to -1.
        rs = rates(1, 3080.0, DEFAULTS)
        top = 1.0 - 2.0 ** -53
        assert top * rs.total >= (rs.load + rs.loss_bg) + rs.loss_rbcs
        schedule = ExperimentSchedule()
        want = [(EventKind.LOAD, 1), (EventKind.LOSS_RBCS, 0)]
        table = one_lane(3080.0, DEFAULTS, schedule, 0, 1, rngs=[StubGenerator(top)])
        assert [(kind, n) for _, kind, n in table[0].events] == want
        replay = replay_next_event(
            3080.0, DEFAULTS, schedule, 0, BlockDraws(StubGenerator(top))
        )
        assert replay == table[0].events

    def test_negative_companion_number_rejected(self):
        # Twice: a rejected companion number must not leave a cached table.
        for _ in range(2):
            with pytest.raises(ValueError):
                simulate_trajectory(-1.0, DEFAULTS, ExperimentSchedule(), seed=3)


def simulate_grid(grid, traces, params, master_seed):
    """The event table of every bin of a campaign on grid, in grid order."""
    cfg = RunConfig(
        params, DetectionCalibration(), ExperimentSchedule(), grid, traces, master_seed
    )
    return [b.events for b in simulate_grid_bins(cfg, range(len(grid.values())))]


class TestEnsemble:
    def test_single_point_matches_direct_call(self):
        (ens,) = simulate_grid(GridSpec(0, 0), 1, DEFAULTS, master_seed=7)
        direct = simulate_trajectory(
            0.0, DEFAULTS, ExperimentSchedule(),
            derive_seed(7, TRAJECTORY_STREAM, 0),
        )
        assert len(ens) == 1
        assert ens[0].events == direct.events

    def test_reproducible(self):
        grid = GridSpec(0, 1100, 1100)
        a = simulate_grid(grid, 5, DEFAULTS, master_seed=3)
        b = simulate_grid(grid, 5, DEFAULTS, master_seed=3)
        assert [t.events for table in a for t in table] == [
            t.events for table in b for t in table
        ]

    def test_loss_counts_peak_at_low_companion_numbers(self):
        # Loss events per bin rise steeply from near zero and decay toward
        # the top of the grid. The expected curve has a broad flat maximum
        # spanning the lower half (the loss rate saturates while occupancy,
        # and with it the chance to lose anything, keeps falling), so only
        # the qualitative shape is pinned, not the exact peak bin.
        grid = GridSpec(0, 3300, 220)
        # Kind 0 is LOAD; every other kind is a loss.
        losses = [
            int(np.count_nonzero(table.kind != 0))
            for table in simulate_grid(grid, 60, DEFAULTS, 777)
        ]
        peak = int(np.argmax(losses))
        assert 1 <= peak <= 9, f"losses={losses}"
        assert losses[0] < max(losses) / 2
        assert losses[-1] < 0.9 * max(losses)


class TestAgainstClosedForms:
    def test_mean_fillup_without_companions(self):
        ((mean, se),) = transient_mean_ensembles([(0.0, DEFAULTS)], [3.0], 10_000, 101)
        analytic = transient_mean(3.0, 0.0, DEFAULTS)
        assert abs(mean[0] - analytic) < 3 * se[0]

    def test_mean_fillup_mid_grid(self):
        ((mean, se),) = transient_mean_ensembles([(550.0, DEFAULTS)], [1.0], 10_000, 102)
        analytic = transient_mean(1.0, 550.0, DEFAULTS)
        assert abs(mean[0] - analytic) < 3 * se[0]

    def test_stationary_occupancy_is_poisson(self):
        check = poisson_end_state_check(master_seed=4242)
        assert check.passed, check.detail

    @pytest.mark.parametrize("runs", [1, 0, -3, 300.5, 2.0])
    def test_checks_refuse_fewer_than_two_runs(self, runs):
        # One run has no standard error: it must not read as |z| 0 or chi2 0.
        with pytest.raises(ValueError, match="runs"):
            transient_checks([("x", 0.0, DEFAULTS)], runs=runs, master_seed=777)
        with pytest.raises(ValueError, match="runs"):
            poisson_end_state_check(runs=runs, master_seed=4242)

    @pytest.mark.parametrize("runs", [0, 1])
    def test_ensembles_refuse_fewer_than_two_runs(self, runs):
        # Zero or one run gives a NaN mean or se, not a number to test.
        with pytest.raises(ValueError, match="runs must be an integer >= 2"):
            transient_mean_ensembles([(0.0, DEFAULTS)], [1.0, 3.0], runs, 777)

    @pytest.mark.parametrize("checkpoints, message", [
        ([], "checkpoints must be a non-empty list"),
        ([0.0], "checkpoints must include a time > 0"),
        ([-1.0, 1.0], "checkpoints must be finite and >= 0"),
        ([1.0, math.nan], "checkpoints must be finite and >= 0"),
        ([1.0, math.inf], "checkpoints must be finite and >= 0"),
    ], ids=["empty", "only-zero", "negative", "nan", "inf"])
    def test_ensembles_refuse_bad_checkpoints(self, checkpoints, message):
        # transient_mean refuses t < 0, and a window must end after 0.
        with pytest.raises(ValueError, match=message):
            transient_mean_ensembles([(0.0, DEFAULTS)], checkpoints, 20, 777)

    def test_ensembles_take_a_checkpoint_at_zero(self):
        ((mean, se),) = transient_mean_ensembles([(0.0, DEFAULTS)], [0.0, 3.0], 20, 777)
        assert mean[0] == se[0] == 0.0

    @pytest.mark.parametrize("n_checkpoints", [0, -2, 2.5, np.float64(3.0), "3"])
    def test_transient_checks_refuse_bad_checkpoint_counts(self, n_checkpoints):
        with pytest.raises(ValueError, match=r"n_checkpoints must be an integer >= 1"):
            transient_checks(
                [("x", 0.0, DEFAULTS)], runs=2, n_checkpoints=n_checkpoints, master_seed=777
            )

    @pytest.mark.parametrize("n_checkpoints", [1, np.int64(2)])
    def test_transient_checks_take_integer_checkpoint_counts(self, n_checkpoints):
        (check,) = transient_checks(
            [("x", 0.0, DEFAULTS)], runs=20, n_checkpoints=n_checkpoints, master_seed=777
        )
        assert f"over {n_checkpoints} checkpoints" in check.detail

    def test_poisson_chi2_flags_wrong_rate(self):
        rng = np.random.default_rng(8)
        samples = rng.poisson(4.0, 4000)
        _, _, p_right = poisson_chi2(samples, 4.0)
        _, _, p_wrong = poisson_chi2(samples, 2.0)
        assert p_right > 0.01
        assert p_wrong < 1e-6

    def test_poisson_chi2_counts_the_cells_below_the_last_pool(self):
        # At rate 6 the 0-atom cell expects under 5 and is merged into the
        # cell above it; an excess of zeros must still show.
        rng = np.random.default_rng(8)
        samples = rng.poisson(6.0, 400)
        _, _, p_clean = poisson_chi2(samples, 6.0)
        _, _, p_zeros = poisson_chi2(np.append(samples, np.zeros(30, dtype=int)), 6.0)
        assert p_clean > 0.01
        assert p_zeros < 1e-6

    @pytest.mark.parametrize("samples, cells", [
        (np.full(10, 9), 1),   # pooled into one cell of expected count 10
        (np.full(4, 2), 0),    # expected count 4 in all: no cell reaches 5
    ])
    def test_poisson_chi2_refuses_fewer_than_two_cells(self, samples, cells):
        # One cell has no dof: it must not read as chi2 0, p 1.
        with pytest.raises(ValueError, match=f"{len(samples)} samples pool into {cells} cell"):
            poisson_chi2(samples, 2.0)
