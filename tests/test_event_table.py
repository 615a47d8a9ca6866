"""Exactness of the flat event table against per-shot references.

simulate_shots writes the events of many shots into one EventTable; the
oracles read atom numbers at their checkpoints from it with vectorized
counts, and the trajectory dump formats from it. The references here are
the per-shot forms: next_event stepped from an empty trap, the former
per-shot loop that built one list of (time, kind, n) tuples per shot, and
bisect_right on a shot's event times. Every comparison asks for equality.
"""

import bisect
import json
import math

import numpy as np
import pytest

from motprobe import oracles
from motprobe.gillespie import (
    EventKind,
    EventTable,
    ExperimentSchedule,
    TRAJECTORY_STREAM,
    derive_seeds,
    next_event,
    simulate_bin,
    simulate_ensemble,
    simulate_shots,
    simulate_trajectory,
)
from motprobe.oracles import transient_mean_ensemble
from motprobe.photon import DetectionCalibration, occupancy_profile, segment_map_for, synthesize_bin
from motprobe.physics import PhysicalParams, rates
from motprobe.traceio import trajectory_records, trajectory_to_dict

UM = 1e-4

DEFAULTS = PhysicalParams(
    r0=1.48, alpha=2.3e-4, gamma=0.03,
    beta_rbcs=1.6e-10, beta_cscs=0.0,
    w_cs=6.6 * UM, w_rb=26.4 * UM,
)
PAIR_LOSS = PhysicalParams(
    r0=10.0, alpha=2.3e-4, gamma=0.03,
    beta_rbcs=1.6e-10, beta_cscs=2e-9,
    w_cs=6.6 * UM, w_rb=26.4 * UM,
)
# No rate at all: every shot stays empty.
ABSORBING = PhysicalParams(
    r0=0.0, alpha=0.0, gamma=0.0, beta_rbcs=0.0, beta_cscs=0.0,
    w_cs=6.6 * UM, w_rb=26.4 * UM,
)
SCHEDULE = ExperimentSchedule()


def replay_next_event(n_rb, params, schedule, seed):
    """Events of one shot: next_event stepped from an empty trap."""
    rng = np.random.default_rng(seed)
    t, n, events = 0.0, 0, []
    while True:
        step = next_event(n, n_rb, params, rng)
        if step is None:
            break
        dt, kind = step
        t = t + dt
        if t > schedule.detect_s:
            break
        n += kind.delta
        events.append((t, kind, n))
    return events


def per_shot_loop(n_rb, params, schedule, seed):
    """The former per-shot event loop: rate rows (total and cumulative
    thresholds) grown as atom numbers are reached, one waiting time
    rng.exponential(1 / total) and one uniform per event, events kept as
    (time, kind, n) tuples."""

    def row(n):
        rs = rates(n, n_rb, params)
        c_bg = rs.load + rs.loss_bg
        return rs.total, rs.load, c_bg, c_bg + rs.loss_rbcs

    rng = np.random.default_rng(seed)
    rows = [row(0)]
    t_end = schedule.detect_s
    t, n, events = 0.0, 0, []
    total, c_load, c_bg, c_rbcs = rows[0]
    while total > 0.0:
        t = t + rng.exponential(1.0 / total)
        if t > t_end:
            break
        u = rng.random() * total
        if u < c_load:
            n += 1
            if n == len(rows):
                rows.append(row(n))
            events.append((t, EventKind.LOAD, n))
        elif u < c_bg:
            n -= 1
            events.append((t, EventKind.LOSS_BG, n))
        elif u < c_rbcs:
            n -= 1
            events.append((t, EventKind.LOSS_RBCS, n))
        else:
            n -= 2
            events.append((t, EventKind.LOSS_CSCS_PAIR, n))
        total, c_load, c_bg, c_rbcs = rows[n]
    return events


def table_rows(table):
    """Each shot's events as (time, kind, n) tuples, read from the columns."""
    kinds = list(EventKind)
    out = []
    for i in range(len(table)):
        lo, hi = table.offsets[i], table.offsets[i + 1]
        out.append([
            (float(t), kinds[k], int(n))
            for t, k, n in zip(table.time[lo:hi], table.kind[lo:hi], table.level[lo:hi])
        ])
    return out


class TestTableAgainstPerShotReferences:
    @pytest.mark.parametrize("params, n_rb", [
        (DEFAULTS, 0.0), (DEFAULTS, 1100.0), (DEFAULTS, 3300.0),
        (PAIR_LOSS, 0.0), (PAIR_LOSS, 2200.0),
    ], ids=["default-0", "default-1100", "default-3300", "pair_loss-0", "pair_loss-2200"])
    def test_rows_equal_replay_and_former_loop(self, params, n_rb):
        seeds = derive_seeds(61, TRAJECTORY_STREAM, int(n_rb), count=150)
        table = simulate_shots(n_rb, params, SCHEDULE, seeds)
        assert len(table) == len(seeds)
        assert table.time.dtype == np.float64
        assert table.level.dtype == np.int64
        assert table.kind.dtype == np.int8
        assert table.offsets.dtype == np.int64 and len(table.offsets) == len(seeds) + 1
        for seed, row in zip(seeds.tolist(), table_rows(table)):
            assert row == replay_next_event(n_rb, params, SCHEDULE, seed), seed
            assert row == per_shot_loop(n_rb, params, SCHEDULE, seed), seed
        assert np.array_equal(table.seed, seeds)
        assert np.all(table.n_rb == n_rb) and np.all(table.t_end == SCHEDULE.detect_s)

    def test_all_four_kinds_are_covered(self):
        seen = set()
        for params, n_rb in [(DEFAULTS, 1100.0), (PAIR_LOSS, 0.0)]:
            seeds = derive_seeds(61, TRAJECTORY_STREAM, int(n_rb), count=150)
            seen.update(np.unique(simulate_shots(n_rb, params, SCHEDULE, seeds).kind).tolist())
        assert seen == {0, 1, 2, 3}

    def test_items_are_the_rows_as_trajectories(self):
        seeds = derive_seeds(62, 0, count=40)
        table = simulate_shots(550.0, PAIR_LOSS, SCHEDULE, seeds)
        for i, (seed, traj) in enumerate(zip(seeds.tolist(), table)):
            assert traj.events == table_rows(table)[i]
            assert (traj.seed, traj.n_rb, traj.t_end) == (seed, 550.0, 3.0)
            assert traj.events == simulate_trajectory(550.0, PAIR_LOSS, SCHEDULE, seed).events
            traj.validate()
        assert [t.events for t in table[5:9]] == [table[i].events for i in range(5, 9)]
        assert table[-1].events == table[len(table) - 1].events

    def test_bin_and_ensemble_tables(self):
        grid = [0.0, 1100.0, 2200.0]
        ens = simulate_ensemble(grid, 7, DEFAULTS, SCHEDULE, master_seed=3)
        bins = [simulate_bin(n_rb, DEFAULTS, SCHEDULE, 3, bi, 7) for bi, n_rb in enumerate(grid)]
        assert table_rows(ens) == sum((table_rows(b) for b in bins), [])
        assert ens.n_rb.tolist() == [n for n in grid for _ in range(7)]
        assert np.array_equal(ens.seed, np.concatenate([b.seed for b in bins]))

    def test_from_trajectories_round_trip(self):
        seeds = derive_seeds(63, 0, count=30)
        table = simulate_shots(1100.0, DEFAULTS, SCHEDULE, seeds)
        again = EventTable.from_trajectories(list(table))
        for name in ("time", "level", "kind", "offsets", "n_rb", "seed", "t_end"):
            assert np.array_equal(getattr(again, name), getattr(table, name)), name
        assert EventTable.from_trajectories(table) is table

    def test_columns_are_read_only(self):
        table = simulate_shots(1100.0, DEFAULTS, SCHEDULE, [1, 2, 3])
        with pytest.raises(ValueError):
            table.time[0] = 0.0

    def test_one_generator_per_seed(self):
        with pytest.raises(ValueError):
            simulate_shots(1100.0, DEFAULTS, SCHEDULE, [1, 2], rngs=[np.random.default_rng(1)])


class TestShotsWithoutEvents:
    def test_absorbing_trap(self):
        table = simulate_shots(0.0, ABSORBING, SCHEDULE, range(20))
        assert len(table) == 20
        assert table.offsets.tolist() == [0] * 21
        assert len(table.time) == len(table.level) == len(table.kind) == 0
        assert np.array_equal(table.levels_at([0.0, 1.5, 3.0]), np.zeros((20, 3)))
        assert np.array_equal(table.final_levels(), np.zeros(20))
        assert all(traj.events == [] and traj.n_final == 0 for traj in table)
        seg = segment_map_for(SCHEDULE, 0.02)
        assert not occupancy_profile(table[0], seg.detect[1], 0.02).any()

    def test_no_shots(self):
        table = simulate_shots(1100.0, DEFAULTS, SCHEDULE, [])
        assert len(table) == 0 and table.offsets.tolist() == [0]
        assert table.levels_at([1.0]).shape == (0, 1)
        assert len(EventTable.concat([])) == 0

    def test_empty_rows_between_full_ones(self):
        empty = simulate_shots(0.0, ABSORBING, SCHEDULE, [5, 6])
        full = simulate_shots(1100.0, DEFAULTS, SCHEDULE, derive_seeds(64, 0, count=10))
        table = EventTable.concat([empty, full, empty, full, empty])
        assert table_rows(table) == (
            table_rows(empty) + table_rows(full) + table_rows(empty)
            + table_rows(full) + table_rows(empty)
        )
        checkpoints = [0.0, 0.7, 1.9, 3.0]
        assert np.array_equal(table.levels_at(checkpoints), bisect_levels(table, checkpoints))
        assert table.final_levels().tolist() == [traj.n_final for traj in table]

    def test_synthesis_of_empty_shots(self):
        cal = DetectionCalibration()
        seg = segment_map_for(SCHEDULE, cal.bin_s)
        table = simulate_shots(0.0, ABSORBING, SCHEDULE, [1, 2])
        rows = synthesize_bin(table, cal, seg, [np.random.default_rng(s) for s in (8, 9)])
        lists = synthesize_bin(list(table), cal, seg, [np.random.default_rng(s) for s in (8, 9)])
        assert np.array_equal(rows, lists)


def bisect_levels(table, checkpoints):
    """Atom number of every shot at each checkpoint, by bisect_right on the
    shot's event times."""
    out = np.zeros((len(table), len(checkpoints)), dtype=np.int64)
    for i in range(len(table)):
        lo, hi = table.offsets[i], table.offsets[i + 1]
        times = table.time[lo:hi].tolist()
        for j, t in enumerate(checkpoints):
            k = bisect.bisect_right(times, t)
            out[i, j] = 0 if k == 0 else table.level[lo + k - 1]
    return out


class TestCheckpointLevels:
    def exact_checkpoints(self, table):
        """t = 0, t_end, and event times of the table itself, with their
        neighbouring floats on both sides."""
        picked = table.time[:: max(1, len(table.time) // 40)]
        return [
            0.0, SCHEDULE.detect_s,
            *picked.tolist(),
            *np.nextafter(picked, -np.inf).tolist(),
            *np.nextafter(picked, np.inf).tolist(),
        ]

    @pytest.mark.parametrize("params, n_rb", [(DEFAULTS, 1100.0), (PAIR_LOSS, 0.0)],
                             ids=["default", "pair_loss"])
    def test_levels_equal_bisect(self, params, n_rb):
        table = simulate_shots(n_rb, params, SCHEDULE, derive_seeds(65, 0, count=200))
        checkpoints = self.exact_checkpoints(table)
        got = table.levels_at(checkpoints)
        assert got.shape == (len(table), len(checkpoints))
        assert np.array_equal(got, bisect_levels(table, checkpoints))
        assert table.final_levels().tolist() == [traj.n_final for traj in table]

    def test_levels_equal_trajectory_readback(self):
        table = simulate_shots(2200.0, DEFAULTS, SCHEDULE, derive_seeds(66, 0, count=60))
        checkpoints = self.exact_checkpoints(table)
        got = table.levels_at(checkpoints)
        for i, traj in enumerate(table):
            assert got[i].tolist() == [traj.n_at(t) for t in checkpoints]

    def test_transient_ensemble_equals_per_trajectory_readback(self):
        runs, master = 300, 67
        seeds = derive_seeds(master, 2, count=runs)
        harvest = simulate_shots(1100.0, DEFAULTS, SCHEDULE, seeds)
        checkpoints = np.array(self.exact_checkpoints(harvest))
        assert checkpoints.max() == SCHEDULE.detect_s
        mean, se = transient_mean_ensemble(1100.0, DEFAULTS, checkpoints, runs, master)
        samples = np.empty((runs, len(checkpoints)))
        for i, seed in enumerate(seeds.tolist()):
            traj = simulate_trajectory(1100.0, DEFAULTS, SCHEDULE, seed)
            samples[i] = [traj.n_at(t) for t in checkpoints]
        assert np.array_equal(mean, samples.mean(axis=0))
        assert np.array_equal(se, samples.std(axis=0, ddof=1) / math.sqrt(runs))


class TestTrajectoryDump:
    def test_records_equal_the_per_trajectory_format(self):
        table = simulate_shots(0.0, PAIR_LOSS, SCHEDULE, derive_seeds(68, 0, count=25))
        ids = [f"t{i}" for i in range(len(table))]
        for trace_id, record, traj in zip(ids, trajectory_records(ids, table), table):
            expected = {
                "trace_id": trace_id,
                "n_rb": traj.n_rb,
                "seed": traj.seed,
                "t_end_s": traj.t_end,
                "events": [[t, kind.value, n] for t, kind, n in traj.events],
            }
            assert json.dumps(record) == json.dumps(expected)
            assert trajectory_to_dict(trace_id, traj) == expected


class TestOverlapQuadratures:
    def test_each_unordered_pair_once(self, monkeypatch):
        calls = []
        real = oracles.overlap_volume_quadrature

        def counted(w_a, w_b, nodes=64):
            calls.append((w_a, w_b))
            return real(w_a, w_b, nodes)

        monkeypatch.setattr(oracles, "overlap_volume_quadrature", counted)
        checks = oracles.overlap_checks(n_radii=4)
        assert len(calls) == 4 * 5 // 2
        assert len({frozenset(pair) for pair in calls}) == len(calls)
        assert checks[0].passed

    def test_quadrature_is_symmetric_bit_for_bit(self):
        for w_a, w_b in [(1e-4, 1e-3), (3.16e-4, 1e-2)]:
            q = oracles.overlap_volume_quadrature
            assert q(w_a, w_b, nodes=24) == q(w_b, w_a, nodes=24)
