"""Exactness of the flat event table against per-shot references.

simulate_lanes steps the shots of a set together, in one or more lanes of
(n_rb, params), and writes each lane's events into one EventTable;
simulate_shots is its one-lane call. The oracles read atom numbers at their
checkpoints from it with vectorized counts, and the trajectory dump formats
from it. The
references here are the per-shot forms: next_event stepped one event at a
time on a shot's own block draws (replay_next_event in reference.py), which
sums each state's rates from physics.rates itself, and bisect_right on a
shot's event times. Every comparison asks for equality.
"""

import bisect
import json
import math

import numpy as np
import pytest

from motprobe import gillespie, oracles
from motprobe.gillespie import (
    EventKind,
    EventTable,
    ExperimentSchedule,
    TRAJECTORY_STREAM,
    derive_seed,
    derive_seeds,
    TRANSIENT_STREAM,
    simulate_bin,
    simulate_lanes,
    simulate_shots,
    simulate_trajectory,
)
from motprobe.oracles import transient_mean_ensemble
from motprobe.photon import DetectionCalibration, count_means, segment_map_for, synthesize_bin
from motprobe.physics import PhysicalParams
from motprobe.traceio import trajectory_records
from reference import BlockDraws, replay_next_event

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
        """The former per-shot loop is folded into the replay, whose
        next_event sums each state's rates from physics.rates itself."""
        seeds = derive_seeds(61, TRAJECTORY_STREAM, int(n_rb), count=150)
        table = simulate_shots(n_rb, params, SCHEDULE, seeds)
        assert len(table) == len(seeds)
        assert table.time.dtype == np.float64
        assert table.level.dtype == np.int64
        assert table.kind.dtype == np.int8
        assert table.offsets.dtype == np.int64 and len(table.offsets) == len(seeds) + 1
        for seed, row in zip(seeds.tolist(), table_rows(table)):
            assert row == replay_next_event(n_rb, params, SCHEDULE, seed), seed
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
        """The bins of a grid: trace ti of bin bi is the shot of seed
        derive_seed(master, TRAJECTORY_STREAM, bi, ti)."""
        grid = [0.0, 1100.0, 2200.0]
        for bi, n_rb in enumerate(grid):
            table = simulate_bin(n_rb, DEFAULTS, SCHEDULE, 3, bi, 7)
            seeds = [derive_seed(3, TRAJECTORY_STREAM, bi, ti) for ti in range(7)]
            assert table.seed.tolist() == seeds
            assert table.n_rb.tolist() == [n_rb] * 7
            assert table_rows(table) == [
                replay_next_event(n_rb, DEFAULTS, SCHEDULE, seed) for seed in seeds
            ]

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
        with pytest.raises(ValueError):
            simulate_shots(
                1100.0, DEFAULTS, SCHEDULE, [1],
                rngs=[np.random.default_rng(1), np.random.default_rng(2)],
            )


def assert_equals_replay(table, n_rb, params, schedule=SCHEDULE):
    """Every shot of table is its seed's replay_next_event; returns the
    number of draw blocks each replay used."""
    blocks = []
    for seed, row in zip(table.seed.tolist(), table_rows(table)):
        draws = BlockDraws(np.random.default_rng(seed))
        assert row == replay_next_event(n_rb, params, schedule, seed, draws), seed
        blocks.append(draws.blocks)
    return blocks


def same_columns(a, b):
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("time", "level", "kind", "offsets", "n_rb", "seed", "t_end")
    )


class TestLockstepAgainstReplay:
    """The lockstep loop against the one-shot, one-event replay of the
    block contract, at its edges."""

    def test_shots_that_need_three_or_more_blocks(self):
        seeds = derive_seeds(71, 0, count=60)
        table = simulate_shots(0.0, PAIR_LOSS, SCHEDULE, seeds)
        blocks = assert_equals_replay(table, 0.0, PAIR_LOSS)
        # A shot reads a third block of draws from its 65th step on.
        assert {2, 3} <= set(blocks)

    def test_rate_table_grows_past_its_first_rows(self):
        gillespie._rate_table.cache_clear()
        params = PhysicalParams(
            r0=12.0, alpha=2.3e-4, gamma=0.05, beta_rbcs=1.6e-10, beta_cscs=1e-9,
            w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        table_of_rates = gillespie._rate_table(440.0, params)
        assert table_of_rates.columns.shape == (5, 1)
        seeds = derive_seeds(72, 0, count=40)
        table = simulate_shots(440.0, params, SCHEDULE, seeds)
        assert_equals_replay(table, 440.0, params)
        reached = int(table.level.max())
        assert reached > 3
        assert table_of_rates.columns.shape == (5, reached + 1)
        for n in range(reached + 1):
            assert tuple(table_of_rates.columns[:, n]) == gillespie._rate_row(n, 440.0, params)
        # A second set reads the grown table and still equals its replay.
        again = simulate_shots(440.0, params, SCHEDULE, derive_seeds(73, 0, count=40))
        assert_equals_replay(again, 440.0, params)

    @pytest.mark.parametrize("params, n_rb", [
        (ABSORBING, 0.0), (ABSORBING, 2200.0), (DEFAULTS, 7000.0),
    ], ids=["no-rate", "no-rate-2200", "load-shielded"])
    def test_absorbing_trap(self, params, n_rb):
        # Shielded past r0 / alpha (about 6435 atoms), the default trap
        # never loads: state 0 has no rate, so its wait is infinite.
        assert gillespie._rate_row(0, n_rb, params)[:2] == (math.inf, 0.0)
        table = simulate_shots(n_rb, params, SCHEDULE, derive_seeds(74, 0, count=9))
        assert table.offsets.tolist() == [0] * 10
        assert assert_equals_replay(table, n_rb, params) == [0] * 9

    @pytest.mark.parametrize("shots", [0, 1])
    def test_zero_and_one_shots(self, shots):
        seeds = derive_seeds(75, 0, count=shots)
        for params, n_rb in [(DEFAULTS, 1100.0), (PAIR_LOSS, 0.0)]:
            table = simulate_shots(n_rb, params, SCHEDULE, seeds)
            assert len(table) == shots and len(table.offsets) == shots + 1
            assert_equals_replay(table, n_rb, params)

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_one_shot_either_side_of_a_chunk(self, offset):
        seeds = derive_seeds(76, 0, count=gillespie._CHUNK + offset)
        table = simulate_shots(1100.0, DEFAULTS, SCHEDULE, seeds)
        assert len(table) == len(seeds)
        assert_equals_replay(table, 1100.0, DEFAULTS)

    @pytest.mark.parametrize("params, n_rb", [(DEFAULTS, 1100.0), (PAIR_LOSS, 0.0)],
                             ids=["default", "pair_loss"])
    def test_chunk_size_changes_nothing(self, monkeypatch, params, n_rb):
        seeds = derive_seeds(77, 0, count=50)
        whole = simulate_shots(n_rb, params, SCHEDULE, seeds)
        for chunk in (1, 7):
            monkeypatch.setattr(gillespie, "_CHUNK", chunk)
            assert same_columns(simulate_shots(n_rb, params, SCHEDULE, seeds), whole), chunk


class CountingGenerator:
    """default_rng(seed) that counts the blocks of waits it hands out."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.blocks = 0

    def standard_exponential(self, size=None, out=None):
        self.blocks += 1
        return self.rng.standard_exponential(size, out=out)

    def random(self, size=None, out=None):
        return self.rng.random(size, out=out)


class TestLanes:
    """Every lane of simulate_lanes is the one-lane simulate_shots at its
    (n_rb, params), and so its seeds' replay, in every column."""

    MIXED = [(1100.0, DEFAULTS), (0.0, PAIR_LOSS), (0.0, ABSORBING), (2200.0, DEFAULTS)]

    def assert_lanes_exact(self, lanes, seeds, tables):
        assert len(tables) == len(lanes)
        blocks = []
        for (n_rb, params), table in zip(lanes, tables):
            assert same_columns(table, simulate_shots(n_rb, params, SCHEDULE, seeds))
            blocks.append(assert_equals_replay(table, n_rb, params))
        return blocks

    def test_lanes_with_different_params(self):
        """Pair-loss shots need two or more blocks of draws while the default
        ones need one: each generator draws its blocks once, as many as the
        lane that needs most, and the others read the extra ones harmlessly."""
        lanes = [(1100.0, DEFAULTS), (0.0, PAIR_LOSS)]
        seeds = derive_seeds(81, TRANSIENT_STREAM, count=60)
        gens = [CountingGenerator(seed) for seed in seeds.tolist()]
        tables = simulate_lanes(lanes, SCHEDULE, seeds, rngs=gens)
        default_blocks, pair_blocks = self.assert_lanes_exact(lanes, seeds, tables)
        assert set(default_blocks) == {1} and max(pair_blocks) >= 2
        assert [gen.blocks for gen in gens] == list(map(max, default_blocks, pair_blocks))
        # Lane order changes no lane.
        swapped = simulate_lanes(lanes[::-1], SCHEDULE, seeds)
        assert same_columns(swapped[0], tables[1]) and same_columns(swapped[1], tables[0])

    def test_absorbing_and_repeated_lanes(self):
        lanes = [*self.MIXED, (1100.0, DEFAULTS)]
        seeds = derive_seeds(82, TRANSIENT_STREAM, count=40)
        tables = simulate_lanes(lanes, SCHEDULE, seeds)
        self.assert_lanes_exact(lanes, seeds, tables)
        assert tables[2].offsets.tolist() == [0] * 41
        assert same_columns(tables[0], tables[-1])

    def test_rate_tables_grow_to_a_common_width(self):
        gillespie._rate_table.cache_clear()
        lanes = [(0.0, PAIR_LOSS), (3300.0, DEFAULTS), (0.0, ABSORBING)]
        seeds = derive_seeds(83, 0, count=30)
        tables = simulate_lanes(lanes, SCHEDULE, seeds)
        self.assert_lanes_exact(lanes, seeds, tables)
        widths = {gillespie._rate_table(n_rb, params).columns.shape[1] for n_rb, params in lanes}
        assert widths == {max(int(table.level.max(initial=0)) for table in tables) + 1}

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_size_changes_nothing(self, monkeypatch, chunk):
        seeds = derive_seeds(84, 0, count=50)
        whole = simulate_lanes(self.MIXED, SCHEDULE, seeds)
        monkeypatch.setattr(gillespie, "_CHUNK", chunk)
        chunked = simulate_lanes(self.MIXED, SCHEDULE, seeds)
        assert all(same_columns(a, b) for a, b in zip(chunked, whole, strict=True))
        self.assert_lanes_exact(self.MIXED, seeds, chunked)

    def test_explicit_generators(self):
        seeds = derive_seeds(85, 0, count=gillespie._CHUNK + 3)
        given = simulate_lanes(
            self.MIXED, SCHEDULE, seeds, rngs=(np.random.default_rng(s) for s in seeds.tolist())
        )
        built = simulate_lanes(self.MIXED, SCHEDULE, seeds)
        assert all(same_columns(a, b) for a, b in zip(given, built, strict=True))
        self.assert_lanes_exact(self.MIXED, seeds, given)

    @pytest.mark.parametrize("lanes", [MIXED, []], ids=["lanes", "no-lanes"])
    def test_one_generator_per_seed(self, lanes):
        with pytest.raises(ValueError, match="fewer"):
            simulate_lanes(lanes, SCHEDULE, [1, 2], rngs=[np.random.default_rng(1)])
        with pytest.raises(ValueError, match="more"):
            simulate_lanes(
                lanes, SCHEDULE, [1], rngs=[np.random.default_rng(1), np.random.default_rng(2)]
            )

    def test_zero_shots_and_zero_lanes(self):
        tables = simulate_lanes(self.MIXED, SCHEDULE, [])
        assert len(tables) == len(self.MIXED)
        for (n_rb, _), table in zip(self.MIXED, tables):
            assert len(table) == 0 and table.offsets.tolist() == [0]
            assert len(table.time) == len(table.level) == len(table.kind) == 0
        assert simulate_lanes([], SCHEDULE, derive_seeds(86, 0, count=5)) == []
        assert simulate_lanes([], SCHEDULE, []) == []


class TestShotsWithoutEvents:
    def test_absorbing_trap(self):
        table = simulate_shots(0.0, ABSORBING, SCHEDULE, range(20))
        assert len(table) == 20
        assert table.offsets.tolist() == [0] * 21
        assert len(table.time) == len(table.level) == len(table.kind) == 0
        assert np.array_equal(table.levels_at([0.0, 1.5, 3.0]), np.zeros((20, 3)))
        assert np.array_equal(table.final_levels(), np.zeros(20))
        assert all(traj.events == [] and traj.n_final == 0 for traj in table)
        cal = DetectionCalibration(background_rate=0.0)
        assert not count_means(table, cal, segment_map_for(SCHEDULE, cal.bin_s)).any()

    def test_no_shots(self):
        table = simulate_shots(1100.0, DEFAULTS, SCHEDULE, [])
        assert len(table) == 0 and table.offsets.tolist() == [0]
        assert table.levels_at([1.0]).shape == (0, 1)
        assert len(EventTable.from_trajectories([])) == 0

    def test_empty_rows_between_full_ones(self):
        empty = simulate_shots(0.0, ABSORBING, SCHEDULE, [5, 6])
        full = simulate_shots(1100.0, DEFAULTS, SCHEDULE, derive_seeds(64, 0, count=10))
        table = EventTable.from_trajectories([*empty, *full, *empty, *full, *empty])
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
        seeds = derive_seeds(master, TRANSIENT_STREAM, count=runs)
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


def whole_run_ensemble(n_rb, params, checkpoints, runs, master):
    """Mean and se of one set from one simulate_shots call on all its runs."""
    seeds = derive_seeds(master, TRANSIENT_STREAM, count=runs)
    schedule = ExperimentSchedule(detect_s=float(max(checkpoints)))
    samples = simulate_shots(n_rb, params, schedule, seeds).levels_at(checkpoints).astype(float)
    return samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(runs)


class TestTransientSetsAsLanes:
    """transient_checks runs its sets as lanes, in blocks of seeds; each set's
    mean and se must be exactly those of the set run alone on all its runs."""

    # The closed form needs beta_cscs = 0; set b still differs in params.
    FAST = PhysicalParams(
        r0=5.0, alpha=2.3e-4, gamma=0.3, beta_rbcs=1.6e-10, beta_cscs=0.0,
        w_cs=6.6 * UM, w_rb=26.4 * UM,
    )
    SETS = [("a", 1100.0, DEFAULTS), ("b", 0.0, FAST), ("c", 2200.0, DEFAULTS)]

    @pytest.mark.parametrize("runs", [oracles._RUN_BLOCK + 1, gillespie._CHUNK - 1])
    def test_checks_take_the_per_set_ensembles(self, monkeypatch, runs):
        master, n_checkpoints = 91, 7
        seen = []
        real = oracles.transient_mean_ensembles

        def recorded(*args):
            seen.append((args, real(*args)))
            return seen[-1][1]

        monkeypatch.setattr(oracles, "transient_mean_ensembles", recorded)
        checks = oracles.transient_checks(
            self.SETS, runs=runs, n_checkpoints=n_checkpoints, master_seed=master
        )
        assert [c.name for c in checks] == [f"transient_mean[{label}]" for label, _, _ in self.SETS]
        ((sets, checkpoints, got_runs, got_master), ensembles), = seen
        assert (got_runs, got_master) == (runs, master)
        assert np.array_equal(checkpoints, np.linspace(0.3, 3.0, n_checkpoints))
        assert sets == [(n_rb, params) for _, n_rb, params in self.SETS]
        for (_, n_rb, params), (mean, se) in zip(self.SETS, ensembles, strict=True):
            for want_mean, want_se in (
                transient_mean_ensemble(n_rb, params, checkpoints, runs, master),
                whole_run_ensemble(n_rb, params, checkpoints, runs, master),
            ):
                assert np.array_equal(mean, want_mean) and np.array_equal(se, want_se)

    def test_block_edges(self):
        sets = [(1100.0, DEFAULTS), (0.0, PAIR_LOSS)]
        checkpoints = [0.5, 1.5, 3.0]
        for runs in (oracles._RUN_BLOCK, oracles._RUN_BLOCK + 1, 2):
            ensembles = oracles.transient_mean_ensembles(sets, checkpoints, runs, 92)
            for (n_rb, params), (mean, se) in zip(sets, ensembles, strict=True):
                want_mean, want_se = whole_run_ensemble(n_rb, params, checkpoints, runs, 92)
                assert np.array_equal(mean, want_mean) and np.array_equal(se, want_se)


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
