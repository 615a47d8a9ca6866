"""Exactness of the flat event table against per-shot references.

simulate_groups, the one simulator, steps seed groups together, each one
seed and a number of shots shared by one or more lanes of (n_rb, params),
in chunks of whole groups, and writes each lane's events into one
EventTable. Every test calls it directly; one_lane in reference.py is the
table of its one-lane, one-group call. The oracles read atom numbers at
their checkpoints from it with vectorized counts, and the trajectory dump
formats from it. The references here are the per-shot forms: next_event
stepped one event at a time on each shot's rows of its group's round draws
(replay_group in reference.py), which sums each state's rates from
physics.rates itself; replay_next_event, one shot on its own generator,
which a one-shot group equals; and bisect_right on a shot's event times.
Every comparison asks for equality.
"""

import bisect
import importlib.util
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from motprobe import gillespie, oracles
from motprobe.config import RunConfig
from motprobe.gillespie import (
    EventKind,
    EventTable,
    ExperimentSchedule,
    TRAJECTORY_STREAM,
    derive_seed,
    TRANSIENT_STREAM,
    simulate_groups,
    simulate_trajectory,
)
from motprobe.oracles import transient_mean_ensembles
from motprobe.photon import (
    DetectionCalibration,
    count_means,
    segment_map_for,
    simulate_grid_bins,
    synthesize_bin,
)
from motprobe.physics import PhysicalParams
from motprobe.traceio import trajectory_records
from reference import BlockDraws, one_lane, replay_group, replay_next_event

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
        """The former per-shot loop is folded into the group replay, whose
        next_event sums each state's rates from physics.rates itself."""
        seed = derive_seed(61, TRAJECTORY_STREAM, int(n_rb))
        table = one_lane(n_rb, params, SCHEDULE, seed, 150)
        assert len(table) == 150
        assert table.time.dtype == np.float64
        assert table.level.dtype == np.int64
        assert table.kind.dtype == np.int8
        assert table.offsets.dtype == np.int64 and len(table.offsets) == 151
        assert table_rows(table) == replay_group([(n_rb, params)], SCHEDULE, seed, 150)[0]
        assert table.seed.dtype == np.uint64 and table.seed.tolist() == [seed] * 150
        assert np.all(table.n_rb == n_rb) and np.all(table.t_end == SCHEDULE.detect_s)

    def test_all_four_kinds_are_covered(self):
        seen = set()
        for params, n_rb in [(DEFAULTS, 1100.0), (PAIR_LOSS, 0.0)]:
            seed = derive_seed(61, TRAJECTORY_STREAM, int(n_rb))
            seen.update(np.unique(one_lane(n_rb, params, SCHEDULE, seed, 150).kind).tolist())
        assert seen == {0, 1, 2, 3}

    def test_items_are_the_rows_as_trajectories(self):
        seed = derive_seed(62, 0)
        table = one_lane(550.0, PAIR_LOSS, SCHEDULE, seed, 40)
        for i, traj in enumerate(table):
            assert traj.events == table_rows(table)[i]
            assert (traj.seed, traj.n_rb, traj.t_end) == (seed, 550.0, 3.0)
            traj.validate()
        assert [t.events for t in table[5:9]] == [table[i].events for i in range(5, 9)]
        assert table[-1].events == table[len(table) - 1].events

    def test_bin_and_ensemble_tables(self):
        """The bins of a campaign grid: the traces of bin bi are the shots
        of the seed group derive_seed(master, TRAJECTORY_STREAM, bi)."""
        cfg = replace(RunConfig.default(), traces_per_bin=7, master_seed=3)
        for bi in (0, 5, 10):
            n_rb = float(cfg.grid.values()[bi])
            table = next(simulate_grid_bins(cfg, [bi])).events
            seed = derive_seed(3, TRAJECTORY_STREAM, bi)
            assert table.seed.tolist() == [seed] * 7
            assert table.n_rb.tolist() == [n_rb] * 7
            (want,) = replay_group([(n_rb, cfg.physics)], cfg.schedule, seed, 7)
            assert table_rows(table) == want

    def test_from_trajectories_round_trip(self):
        table = one_lane(1100.0, DEFAULTS, SCHEDULE, derive_seed(63, 0), 30)
        again = EventTable.from_trajectories(list(table))
        for name in ("time", "level", "kind", "offsets", "n_rb", "seed", "t_end"):
            assert np.array_equal(getattr(again, name), getattr(table, name)), name
        assert EventTable.from_trajectories(table) is table

    def test_columns_are_read_only(self):
        table = one_lane(1100.0, DEFAULTS, SCHEDULE, 1, 3)
        with pytest.raises(ValueError):
            table.time[0] = 0.0

    def test_one_generator_per_seed(self):
        """One generator per group seed: rngs must yield exactly one for
        each group, and a group's shot count must be a whole number >= 0."""
        with pytest.raises(ValueError, match="fewer"):
            one_lane(1100.0, DEFAULTS, SCHEDULE, 1, 2, rngs=[])
        with pytest.raises(ValueError, match="more"):
            one_lane(
                1100.0, DEFAULTS, SCHEDULE, 1, 2,
                rngs=[np.random.default_rng(1), np.random.default_rng(2)],
            )
        with pytest.raises(ValueError, match="shots must be >= 0"):
            one_lane(1100.0, DEFAULTS, SCHEDULE, 1, -1)
        with pytest.raises(TypeError):
            one_lane(1100.0, DEFAULTS, SCHEDULE, 1, 2.0)


def assert_equals_replay(table, n_rb, params, schedule=SCHEDULE):
    """Every shot of a one-lane group's table is its group's replay."""
    (seed,) = set(table.seed.tolist()) or {0}
    (want,) = replay_group([(n_rb, params)], schedule, seed, len(table))
    assert table_rows(table) == want, seed


def same_columns(a, b):
    return all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("time", "level", "kind", "offsets", "n_rb", "seed", "t_end")
    )


def rounds_drawn(lanes_events):
    """Rows a group draws in each round, from its shots' events in every
    lane: a shot takes a row in round r while, in some lane, it had not
    left the window after r * _BLOCK events, that is while it has at least
    r * _BLOCK events there (every shot takes a row in round 0)."""
    most = [max(map(len, shot)) for shot in zip(*lanes_events)]
    block = gillespie._BLOCK
    rounds = max(most, default=-1) // block + 1
    return [sum(events >= r * block for events in most) for r in range(rounds)]


def lanes_alone(lanes_rows):
    """For each lane of a group's rows, whether in every round it still
    draws in, each shot live in some lane is live in it too: such a lane
    is its own one-lane group. A round's rows go out by rank among the
    shots live in any lane, so otherwise a later shot's rows may shift.
    A shot with e events in a lane draws in rounds 0 to e // _BLOCK."""
    block = gillespie._BLOCK
    rounds = [[len(shot) // block + 1 for shot in rows] for rows in lanes_rows]
    most = [max(shot) for shot in zip(*rounds)]
    return [
        all(min(m, max(lane)) <= r for r, m in zip(lane, most)) if lane else True
        for lane in rounds
    ]


def spy_chunks(monkeypatch):
    """Record the shots of each group of every _step_chunk call, one list
    per call, in call order."""
    sizes = []
    real = gillespie._step_chunk

    def recorded(parts, t_end):
        sizes.append([shots for shots, _, _ in parts])
        return real(parts, t_end)

    monkeypatch.setattr(gillespie, "_step_chunk", recorded)
    return sizes


class CountingGenerator:
    """default_rng(seed) that keeps the shape of every block of waits it
    draws."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.bit_generator = self.rng.bit_generator
        self.shapes = []

    @property
    def rounds(self):
        """Rows of waits drawn in each round. A round draws the first
        shot's row, one block of _BLOCK, before the rows of its other
        shots, and the first shot is live in every round before one
        without it."""
        rounds, after_first = [], False
        for shape in self.shapes:
            if len(shape) == 1:
                rounds.append(1)
            elif after_first:
                rounds[-1] += shape[0]
            else:
                rounds.append(shape[0])
            after_first = len(shape) == 1
        return rounds

    def standard_exponential(self, size=None, out=None):
        self.shapes.append(size if out is None else out.shape)
        return self.rng.standard_exponential(size, out=out)

    def random(self, size=None, out=None):
        return self.rng.random(size, out=out)


class TestLockstepAgainstReplay:
    """The lockstep loop against the one-event replay of the group
    contract, at its edges."""

    def test_shots_that_need_three_or_more_blocks(self):
        seed = derive_seed(71, 0)
        gen = CountingGenerator(seed)
        table = one_lane(0.0, PAIR_LOSS, SCHEDULE, seed, 200, rngs=[gen])
        assert_equals_replay(table, 0.0, PAIR_LOSS)
        # A shot takes a row in a third round from its 65th step on, and
        # a round draws rows only for the shots that are still inside.
        assert gen.rounds == rounds_drawn([table_rows(table)])
        assert len(gen.rounds) >= 3 and gen.rounds[0] == 200 > gen.rounds[1] > gen.rounds[-1]

    def test_rate_table_grows_past_its_first_rows(self):
        gillespie._rate_table.cache_clear()
        params = PhysicalParams(
            r0=12.0, alpha=2.3e-4, gamma=0.05, beta_rbcs=1.6e-10, beta_cscs=1e-9,
            w_cs=6.6 * UM, w_rb=26.4 * UM,
        )
        table_of_rates = gillespie._rate_table(440.0, params)
        assert table_of_rates.columns.shape == (5, 1)
        table = one_lane(440.0, params, SCHEDULE, derive_seed(72, 0), 40)
        assert_equals_replay(table, 440.0, params)
        reached = int(table.level.max())
        assert reached > 3
        assert table_of_rates.columns.shape == (5, reached + 1)
        for n in range(reached + 1):
            assert tuple(table_of_rates.columns[:, n]) == gillespie._rate_row(n, 440.0, params)
        # A second set reads the grown table and still equals its replay.
        again = one_lane(440.0, params, SCHEDULE, derive_seed(73, 0), 40)
        assert_equals_replay(again, 440.0, params)

    @pytest.mark.parametrize("params, n_rb", [
        (ABSORBING, 0.0), (ABSORBING, 2200.0), (DEFAULTS, 7000.0),
    ], ids=["no-rate", "no-rate-2200", "load-shielded"])
    def test_absorbing_trap(self, params, n_rb):
        # Shielded past r0 / alpha (about 6435 atoms), the default trap
        # never loads: state 0 has no rate, so its wait is infinite.
        assert gillespie._rate_row(0, n_rb, params)[:2] == (math.inf, 0.0)
        gen = CountingGenerator(74)
        table = one_lane(n_rb, params, SCHEDULE, 74, 9, rngs=[gen])
        assert table.offsets.tolist() == [0] * 10
        assert_equals_replay(table, n_rb, params)
        # Every shot takes its round-0 row and leaves at its first step.
        assert gen.rounds == [9]

    @pytest.mark.parametrize("shots", [0, 1])
    def test_zero_and_one_shots(self, shots):
        seed = derive_seed(75, 0)
        for params, n_rb in [(DEFAULTS, 1100.0), (PAIR_LOSS, 0.0)]:
            table = one_lane(n_rb, params, SCHEDULE, seed, shots)
            assert len(table) == shots and len(table.offsets) == shots + 1
            assert_equals_replay(table, n_rb, params)
            assert table_rows(table) == [replay_next_event(n_rb, params, SCHEDULE, seed)] * shots

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_one_shot_either_side_of_a_chunk(self, offset):
        table = one_lane(1100.0, DEFAULTS, SCHEDULE, derive_seed(76, 0), gillespie._CHUNK + offset)
        assert len(table) == gillespie._CHUNK + offset
        assert_equals_replay(table, 1100.0, DEFAULTS)

    @pytest.mark.parametrize("params, n_rb", [(DEFAULTS, 1100.0), (PAIR_LOSS, 0.0)],
                             ids=["default", "pair_loss"])
    def test_chunk_size_changes_nothing(self, monkeypatch, params, n_rb):
        seed = derive_seed(77, 0)
        whole = one_lane(n_rb, params, SCHEDULE, seed, 50)
        for chunk in (1, 7):
            monkeypatch.setattr(gillespie, "_CHUNK", chunk)
            assert same_columns(one_lane(n_rb, params, SCHEDULE, seed, 50), whole), chunk


class TestOneShotGroups:
    """A one-shot group is one shot on its own generator: the BlockDraws
    replay of its seed, the draws every shot made before groups shared a
    generator. Many one-shot groups run in one call, several to a chunk."""

    @pytest.mark.parametrize("params, n_rb", [
        (DEFAULTS, 1100.0), (PAIR_LOSS, 0.0), (ABSORBING, 0.0), (DEFAULTS, 7000.0),
    ], ids=["default", "pair_loss", "absorbing", "load-shielded"])
    def test_one_shot_groups_are_the_block_replay(self, params, n_rb):
        seeds = [derive_seed(78, 0, i) for i in range(40)]
        tables = simulate_groups([([(n_rb, params)], seed, 1) for seed in seeds], SCHEDULE)
        for seed, (table,) in zip(seeds, tables, strict=True):
            draws = BlockDraws(np.random.default_rng(seed))
            assert table[0].events == replay_next_event(n_rb, params, SCHEDULE, seed, draws)
            assert table[0].events == replay_group([(n_rb, params)], SCHEDULE, seed, 1)[0][0]
            assert table[0].events == simulate_trajectory(n_rb, params, SCHEDULE, seed).events


class TestGroupPrefixes:
    """A shot depends on its group's seed, its index and the shots before
    it: a group's first shots do not change when more follow them."""

    @pytest.mark.parametrize("lanes", [
        [(1100.0, DEFAULTS)],
        [(0.0, PAIR_LOSS)],
        [(1100.0, DEFAULTS), (0.0, PAIR_LOSS), (0.0, ABSORBING)],
    ], ids=["default", "pair_loss", "three-lanes"])
    def test_first_shots_do_not_depend_on_those_after(self, lanes):
        seed = derive_seed(79, 0)
        (longest,) = simulate_groups([(lanes, seed, 90)], SCHEDULE)
        for shots in (1, 7, 40, 89):
            (tables,) = simulate_groups([(lanes, seed, shots)], SCHEDULE)
            for short, long in zip(tables, longest, strict=True):
                assert table_rows(short) == table_rows(long)[:shots], shots


class TestLanes:
    """Every lane of a one-group simulate_groups call is its group's
    replay, in every column; a lane for which lanes_alone holds is also
    its own one-lane group at its (n_rb, params)."""

    MIXED = [(1100.0, DEFAULTS), (0.0, PAIR_LOSS), (0.0, ABSORBING), (2200.0, DEFAULTS)]

    def assert_lanes_exact(self, lanes, seed, tables):
        """Each lane equals the group replay of all the lanes together and,
        when lanes_alone holds for it, its one-lane group; returns each
        lane's rows."""
        assert len(tables) == len(lanes)
        shots = len(tables[0]) if tables else 0
        rows = [table_rows(table) for table in tables]
        assert rows == replay_group(lanes, SCHEDULE, seed, shots)
        for (n_rb, params), table, alone in zip(lanes, tables, lanes_alone(rows), strict=True):
            if alone:
                assert same_columns(table, one_lane(n_rb, params, SCHEDULE, seed, shots))
        return rows

    def test_lanes_with_different_params(self):
        """Pair-loss shots need two or more rounds of draws while the
        default ones need one: the group draws a row for a shot in a round
        while any of its lanes needs one, and the others read the extra
        rows harmlessly."""
        lanes = [(1100.0, DEFAULTS), (0.0, PAIR_LOSS)]
        seed = derive_seed(81, TRANSIENT_STREAM, 0)
        gen = CountingGenerator(seed)
        (tables,) = simulate_groups([(lanes, seed, 60)], SCHEDULE, rngs=[gen])
        default_rows, pair_rows = self.assert_lanes_exact(lanes, seed, tables)
        assert rounds_drawn([default_rows]) == [60]
        assert len(rounds_drawn([pair_rows])) >= 2
        assert gen.rounds == rounds_drawn([default_rows, pair_rows])
        # Lane order changes no lane.
        (swapped,) = simulate_groups([(lanes[::-1], seed, 60)], SCHEDULE)
        assert same_columns(swapped[0], tables[1]) and same_columns(swapped[1], tables[0])

    def test_a_later_lane_keeps_its_shots_alive(self):
        """A shot whose first lane has left the window still takes rows
        while a later lane is inside: pair loss needs more rounds than the
        absorbing and default lanes before it."""
        lanes = [(0.0, ABSORBING), (1100.0, DEFAULTS), (0.0, PAIR_LOSS)]
        seed = derive_seed(87, 0)
        gen = CountingGenerator(seed)
        (tables,) = simulate_groups([(lanes, seed, 50)], SCHEDULE, rngs=[gen])
        rows = self.assert_lanes_exact(lanes, seed, tables)
        assert gen.rounds == rounds_drawn(rows) and len(gen.rounds) >= 2
        assert rounds_drawn(rows[:2]) == [50]

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_a_lane_outlived_in_some_shot_is_not_its_own_group(self, seed):
        """Two busy lanes that each need several rounds: a shot that the
        second lane keeps inside in a round the first still draws in
        shifts the rows of the first lane's later shots, so the first lane
        differs from its one-lane group, while the second, never outlived
        so, equals its own. Both are the group's replay."""
        busy = replace(DEFAULTS, r0=10.0, gamma=0.3)
        lanes = [(0.0, busy), (0.0, replace(busy, r0=12.0))]
        (tables,) = simulate_groups([(lanes, seed, 200)], SCHEDULE)
        rows = self.assert_lanes_exact(lanes, seed, tables)
        assert lanes_alone(rows) == [False, True]
        alone = [one_lane(n_rb, params, SCHEDULE, seed, 200) for n_rb, params in lanes]
        assert not same_columns(tables[0], alone[0])
        assert same_columns(tables[1], alone[1])

    def test_absorbing_and_repeated_lanes(self):
        lanes = [*self.MIXED, (1100.0, DEFAULTS)]
        seed = derive_seed(82, TRANSIENT_STREAM, 0)
        (tables,) = simulate_groups([(lanes, seed, 40)], SCHEDULE)
        self.assert_lanes_exact(lanes, seed, tables)
        assert tables[2].offsets.tolist() == [0] * 41
        assert same_columns(tables[0], tables[-1])

    def test_rate_tables_grow_to_a_common_width(self):
        gillespie._rate_table.cache_clear()
        lanes = [(0.0, PAIR_LOSS), (3300.0, DEFAULTS), (0.0, ABSORBING)]
        seed = derive_seed(83, 0)
        (tables,) = simulate_groups([(lanes, seed, 30)], SCHEDULE)
        self.assert_lanes_exact(lanes, seed, tables)
        widths = {gillespie._rate_table(n_rb, params).columns.shape[1] for n_rb, params in lanes}
        assert widths == {max(int(table.level.max(initial=0)) for table in tables) + 1}

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunk_size_changes_nothing(self, monkeypatch, chunk):
        seed = derive_seed(84, 0)
        (whole,) = simulate_groups([(self.MIXED, seed, 50)], SCHEDULE)
        monkeypatch.setattr(gillespie, "_CHUNK", chunk)
        (chunked,) = simulate_groups([(self.MIXED, seed, 50)], SCHEDULE)
        assert all(same_columns(a, b) for a, b in zip(chunked, whole, strict=True))
        self.assert_lanes_exact(self.MIXED, seed, chunked)

    def test_explicit_generators(self, monkeypatch):
        # A group of more shots than a chunk; the chunk is pinned small, as
        # the replay's cost grows with the shots.
        monkeypatch.setattr(gillespie, "_CHUNK", 256)
        seed = derive_seed(85, 0)
        shots = gillespie._CHUNK + 3
        (given,) = simulate_groups(
            [(self.MIXED, seed, shots)], SCHEDULE, rngs=iter([np.random.default_rng(seed)])
        )
        (built,) = simulate_groups([(self.MIXED, np.uint64(seed), shots)], SCHEDULE)
        assert all(same_columns(a, b) for a, b in zip(given, built, strict=True))
        self.assert_lanes_exact(self.MIXED, seed, given)

    @pytest.mark.parametrize("lanes", [MIXED, []], ids=["lanes", "no-lanes"])
    def test_one_generator_per_seed(self, lanes):
        with pytest.raises(ValueError, match="fewer"):
            simulate_groups(
                [(lanes, 1, 2), (lanes, 2, 2)], SCHEDULE, rngs=[np.random.default_rng(1)]
            )
        with pytest.raises(ValueError, match="more"):
            simulate_groups(
                [(lanes, 1, 2)], SCHEDULE,
                rngs=[np.random.default_rng(1), np.random.default_rng(2)],
            )

    def test_zero_shots_and_zero_lanes(self):
        (tables,) = simulate_groups([(self.MIXED, 5, 0)], SCHEDULE)
        assert len(tables) == len(self.MIXED)
        for (n_rb, _), table in zip(self.MIXED, tables):
            assert len(table) == 0 and table.offsets.tolist() == [0]
            assert len(table.time) == len(table.level) == len(table.kind) == 0
        assert simulate_groups([([], 86, 5)], SCHEDULE) == [[]]
        assert simulate_groups([([], 86, 0)], SCHEDULE) == [[]]


class TestSeedGroups:
    """simulate_groups steps whole groups together in chunks; every lane of
    every group is still its group's replay, in every column, and, when
    lanes_alone holds for it, its own one-lane group on the group's
    seed."""

    def groups(self, master, specs):
        """One group per (lanes, shots) of specs, each on its own seed."""
        return [
            (lanes, derive_seed(master, TRAJECTORY_STREAM, gi), shots)
            for gi, (lanes, shots) in enumerate(specs)
        ]

    def assert_groups_exact(self, groups, tables, replay=True):
        assert len(tables) == len(groups)
        rows = []
        for (lanes, seed, shots), group_tables in zip(groups, tables, strict=True):
            assert len(group_tables) == len(lanes)
            group_rows = [table_rows(table) for table in group_tables]
            alone = lanes_alone(group_rows)
            for (n_rb, params), table, lane_alone in zip(lanes, group_tables, alone, strict=True):
                if lane_alone:
                    assert same_columns(table, one_lane(n_rb, params, SCHEDULE, seed, shots))
            if replay:
                assert group_rows == replay_group(lanes, SCHEDULE, seed, shots)
            rows.append(group_rows)
        return rows

    def test_chunk_boundary_inside_a_group(self, monkeypatch):
        """A chunk holds whole groups: it closes after the group that
        takes it to _CHUNK shots or more. The chunk is pinned small, as the
        replay's cost grows with the shots."""
        monkeypatch.setattr(gillespie, "_CHUNK", 256)
        sizes = spy_chunks(monkeypatch)
        chunk = gillespie._CHUNK
        specs = [([(0.0, PAIR_LOSS)], chunk - 40), ([(1100.0, DEFAULTS)], 90)]
        groups = self.groups(101, specs)
        # The second group's shots straddle _CHUNK.
        assert specs[0][1] < chunk < specs[0][1] + specs[1][1]
        tables = simulate_groups(groups, SCHEDULE)
        assert sizes == [[chunk - 40, 90]]
        self.assert_groups_exact(groups, tables)

    def test_groups_smaller_than_a_chunk(self, monkeypatch):
        """Seven bins of 100 shots at a chunk of 256 shots: each chunk
        holds three whole bins, the last the seventh alone."""
        monkeypatch.setattr(gillespie, "_CHUNK", 256)
        sizes = spy_chunks(monkeypatch)
        cfg = replace(RunConfig.default(), physics=PAIR_LOSS, traces_per_bin=100, master_seed=102)
        grid = cfg.grid.values()[:7].tolist()
        groups = self.groups(102, [([(n_rb, PAIR_LOSS)], 100) for n_rb in grid])
        tables = simulate_groups(groups, SCHEDULE)
        assert sizes == [[100] * 3, [100] * 3, [100]]
        self.assert_groups_exact(groups, tables, replay=False)
        # simulate_grid_bins seeds bin bi as these groups are seeded, and a
        # run of bins gives each bin as its own one-bin run does.
        bins = list(simulate_grid_bins(cfg, range(7)))
        for bi, b in enumerate(bins):
            assert same_columns(b.events, tables[bi][0])
            alone = next(simulate_grid_bins(cfg, [bi]))
            assert same_columns(b.events, alone.events)
            assert b.trace_ids == alone.trace_ids and np.array_equal(b.counts, alone.counts)

    @pytest.mark.parametrize("traces, chunks", [
        (100, [[100] * 16]),
        (200, [[200] * 11, [200] * 5]),
    ], ids=["16x100", "16x200"])
    def test_a_run_of_bins_fills_chunks_of_whole_bins(self, monkeypatch, traces, chunks):
        """A run of the 16 default bins steps every bin of 100 shots in
        one chunk; at 200 shots the first chunk closes at the eleventh bin,
        the first to take it to _CHUNK shots or more."""
        sizes = spy_chunks(monkeypatch)
        cfg = replace(RunConfig.default(), physics=PAIR_LOSS, traces_per_bin=traces)
        bins = list(simulate_grid_bins(cfg, range(len(cfg.grid.values()))))
        assert len(bins) == 16
        assert sizes == chunks

    def test_shared_group_beside_one_lane_groups(self):
        """A three-lane group between one-lane groups in the same chunk:
        its generator draws once for its three lanes, and the one-lane
        groups beside it are not touched by its copies."""
        specs = [
            ([(2200.0, DEFAULTS)], 50),
            ([(1100.0, DEFAULTS), (0.0, PAIR_LOSS), (0.0, ABSORBING)], 60),
            ([(0.0, PAIR_LOSS)], 40),
        ]
        groups = self.groups(103, specs)
        tables = simulate_groups(groups, SCHEDULE)
        self.assert_groups_exact(groups, tables)
        assert all(
            same_columns(a, b)
            for a, b in zip(tables[1], simulate_groups([groups[1]], SCHEDULE)[0], strict=True)
        )

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunk_size_changes_nothing(self, monkeypatch, chunk):
        specs = [
            ([(1100.0, DEFAULTS), (0.0, PAIR_LOSS)], 30),
            ([(0.0, PAIR_LOSS)], 25),
            ([(2200.0, DEFAULTS), (2200.0, DEFAULTS)], 20),
        ]
        groups = self.groups(104, specs)
        whole = simulate_groups(groups, SCHEDULE)
        monkeypatch.setattr(gillespie, "_CHUNK", chunk)
        chunked = simulate_groups(groups, SCHEDULE)
        for a_group, b_group in zip(chunked, whole, strict=True):
            assert all(same_columns(a, b) for a, b in zip(a_group, b_group, strict=True))

    def test_neighbouring_groups_change_nothing(self):
        """A group's tables are the same whatever groups come before or
        after it in the call."""
        specs = [
            ([(0.0, PAIR_LOSS)], 70),
            ([(1100.0, DEFAULTS), (0.0, PAIR_LOSS)], 45),
            ([(0.0, ABSORBING), (2200.0, DEFAULTS)], 300),
        ]
        groups = self.groups(108, specs)
        alone = [simulate_groups([group], SCHEDULE)[0] for group in groups]
        for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0, 1]):
            tables = simulate_groups([groups[g] for g in order], SCHEDULE)
            for g, group_tables in zip(order, tables, strict=True):
                assert all(
                    same_columns(a, b) for a, b in zip(group_tables, alone[g], strict=True)
                ), order

    def test_explicit_generators_across_groups(self):
        specs = [([(0.0, PAIR_LOSS)], 200), ([(1100.0, DEFAULTS), (0.0, PAIR_LOSS)], 100)]
        groups = self.groups(105, specs)
        seeds = [seed for _, seed, _ in groups]
        given = simulate_groups(groups, SCHEDULE, rngs=(np.random.default_rng(s) for s in seeds))
        self.assert_groups_exact(groups, given)
        with pytest.raises(ValueError, match="fewer"):
            simulate_groups(groups, SCHEDULE, rngs=[np.random.default_rng(s) for s in seeds[:-1]])
        with pytest.raises(ValueError, match="more"):
            simulate_groups(
                groups, SCHEDULE, rngs=[np.random.default_rng(s) for s in seeds + [1]]
            )

    def test_empty_groups_and_zero_lanes(self):
        """A group with no shots gives empty tables; one with no lanes gives
        no table; neither draws from its generator."""
        specs = [
            ([(1100.0, DEFAULTS)], 0),
            ([], 30),
            ([(0.0, PAIR_LOSS), (1100.0, DEFAULTS)], 20),
            ([(0.0, PAIR_LOSS)], 0),
            ([], 0),
        ]
        groups = self.groups(106, specs)
        gens = [CountingGenerator(seed) for _, seed, _ in groups]
        tables = simulate_groups(groups, SCHEDULE, rngs=gens)
        assert [len(t) for t in tables] == [1, 0, 2, 1, 0]
        for table in (tables[0][0], tables[3][0]):
            assert len(table) == 0 and table.offsets.tolist() == [0]
        self.assert_groups_exact(groups, tables)
        assert [len(gen.rounds) > 0 for gen in gens] == [False, False, True, False, False]
        assert simulate_groups([], SCHEDULE) == []
        assert simulate_groups([([], 1, 0)], SCHEDULE) == [[]]

    def test_bad_lane_is_refused_before_any_chunk(self, monkeypatch):
        """Every lane's rate table is looked up before any chunk is
        stepped, so a negative n_rb is refused in a group of no shots too,
        and no group before it draws, even at a chunk of one shot."""
        monkeypatch.setattr(gillespie, "_CHUNK", 1)
        sizes = spy_chunks(monkeypatch)
        groups = self.groups(109, [([(1100.0, DEFAULTS)], 30), ([(-1.0, DEFAULTS)], 0)])
        gens = [CountingGenerator(seed) for _, seed, _ in groups]
        with pytest.raises(ValueError, match="n_rb must be non-negative"):
            simulate_groups(groups, SCHEDULE, rngs=gens)
        assert sizes == [] and gens[0].shapes == []
        with pytest.raises(ValueError, match="n_rb must be non-negative"):
            simulate_groups([([(-1.0, DEFAULTS)], 1, 0)], SCHEDULE)

    def test_each_generator_draws_what_its_group_needs(self):
        """Across groups in one chunk, each group's generator draws, round
        by round, a row for each of its shots that some lane of its own
        group still needs."""
        specs = [
            ([(1100.0, DEFAULTS)], 40),
            ([(1100.0, DEFAULTS), (0.0, PAIR_LOSS)], 40),
            ([(0.0, PAIR_LOSS)], 40),
            ([(0.0, ABSORBING), (2200.0, DEFAULTS)], 40),
        ]
        groups = self.groups(107, specs)
        gens = [CountingGenerator(seed) for _, seed, _ in groups]
        rows = self.assert_groups_exact(groups, simulate_groups(groups, SCHEDULE, rngs=gens))
        assert [gen.rounds for gen in gens] == [rounds_drawn(group_rows) for group_rows in rows]
        assert gens[0].rounds == [40] and len(gens[2].rounds) >= 2


class TestShotsWithoutEvents:
    def test_absorbing_trap(self):
        table = one_lane(0.0, ABSORBING, SCHEDULE, 0, 20)
        assert len(table) == 20
        assert table.offsets.tolist() == [0] * 21
        assert len(table.time) == len(table.level) == len(table.kind) == 0
        assert np.array_equal(table.levels_at([0.0, 1.5, 3.0]), np.zeros((20, 3)))
        assert np.array_equal(table.final_levels(), np.zeros(20))
        assert all(traj.events == [] and traj.n_final == 0 for traj in table)
        cal = DetectionCalibration(background_rate=0.0)
        assert not count_means(table, cal, segment_map_for(SCHEDULE, cal.bin_s)).any()

    def test_no_shots(self):
        table = one_lane(1100.0, DEFAULTS, SCHEDULE, 0, 0)
        assert len(table) == 0 and table.offsets.tolist() == [0]
        assert table.levels_at([1.0]).shape == (0, 1)
        assert len(EventTable.from_trajectories([])) == 0

    def test_empty_rows_between_full_ones(self):
        empty = one_lane(0.0, ABSORBING, SCHEDULE, 5, 2)
        full = one_lane(1100.0, DEFAULTS, SCHEDULE, derive_seed(64, 0), 10)
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
        table = one_lane(0.0, ABSORBING, SCHEDULE, 1, 2)
        rows = synthesize_bin(table, cal, seg, np.random.default_rng(8))
        lists = synthesize_bin(list(table), cal, seg, np.random.default_rng(8))
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
        table = one_lane(n_rb, params, SCHEDULE, derive_seed(65, 0), 200)
        checkpoints = self.exact_checkpoints(table)
        # Repeats: t = 0, t_end and an event time, each a second time.
        checkpoints += checkpoints[:3]
        got = table.levels_at(checkpoints)
        assert got.shape == (len(table), len(checkpoints))
        assert np.array_equal(got, bisect_levels(table, checkpoints))
        assert table.final_levels().tolist() == [traj.n_final for traj in table]

    def test_levels_equal_trajectory_readback(self):
        table = one_lane(2200.0, DEFAULTS, SCHEDULE, derive_seed(66, 0), 60)
        checkpoints = self.exact_checkpoints(table)
        got = table.levels_at(checkpoints)
        for i, traj in enumerate(table):
            assert got[i].tolist() == [traj.n_at(t) for t in checkpoints]

    def test_transient_ensemble_equals_per_trajectory_readback(self):
        runs, master = 300, 67
        # Fewer runs than a group: the one group of derive_seed(master,
        # TRANSIENT_STREAM, 0).
        assert runs < oracles._RUN_BLOCK
        seed = derive_seed(master, TRANSIENT_STREAM, 0)
        harvest = one_lane(1100.0, DEFAULTS, SCHEDULE, seed, runs)
        checkpoints = np.array(self.exact_checkpoints(harvest))
        assert checkpoints.max() == SCHEDULE.detect_s
        ((mean, se),) = transient_mean_ensembles([(1100.0, DEFAULTS)], checkpoints, runs, master)
        samples = np.empty((runs, len(checkpoints)))
        for i, traj in enumerate(harvest):
            samples[i] = [traj.n_at(t) for t in checkpoints]
        assert np.array_equal(mean, samples.mean(axis=0))
        assert np.array_equal(se, samples.std(axis=0, ddof=1) / math.sqrt(runs))


def whole_run_ensemble(n_rb, params, checkpoints, runs, master):
    """Mean and se of one set from one simulate_groups call of all its
    runs: one one-lane group per _RUN_BLOCK runs, group g seeded by
    derive_seed(master, TRANSIENT_STREAM, g)."""
    block = oracles._RUN_BLOCK
    groups = [
        ([(n_rb, params)], derive_seed(master, TRANSIENT_STREAM, g), min(block, runs - start))
        for g, start in enumerate(range(0, runs, block))
    ]
    schedule = ExperimentSchedule(detect_s=float(max(checkpoints)))
    samples = np.concatenate(
        [table.levels_at(checkpoints) for (table,) in simulate_groups(groups, schedule)]
    ).astype(float)
    assert len(samples) == runs
    return samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(runs)


class TestTransientSetsAsLanes:
    """transient_checks runs its sets as the lanes of its groups of runs.
    Only set b's runs reach a second round of draws, so no set keeps alive
    a run another has left in a round that one still draws in, and each
    set's mean and se must be exactly those of the set run alone, as its
    own one-set ensembles and as one call of all its one-lane groups."""

    # The closed form needs beta_cscs = 0; set b still differs in params.
    FAST = PhysicalParams(
        r0=5.0, alpha=2.3e-4, gamma=0.3, beta_rbcs=1.6e-10, beta_cscs=0.0,
        w_cs=6.6 * UM, w_rb=26.4 * UM,
    )
    SETS = [("a", 1100.0, DEFAULTS), ("b", 0.0, FAST), ("c", 2200.0, DEFAULTS)]

    # Four whole groups and a one-run group; fewer runs than one group.
    @pytest.mark.parametrize("runs", [4 * oracles._RUN_BLOCK + 1, oracles._RUN_BLOCK // 2 - 1])
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
                transient_mean_ensembles([(n_rb, params)], checkpoints, runs, master)[0],
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

    def test_run_block_does_not_follow_the_chunk(self, monkeypatch):
        """_RUN_BLOCK seeds the oracles' groups of runs, so it is not
        derived from gillespie._CHUNK: a copy of the oracles module loaded
        under another chunk size has the same _RUN_BLOCK, ensembles and
        Poisson check."""
        sets = [(1100.0, DEFAULTS), (0.0, PAIR_LOSS)]
        checkpoints = [0.5, 1.5, 3.0]
        runs = oracles._RUN_BLOCK + 3
        want = oracles.transient_mean_ensembles(sets, checkpoints, runs, 93)
        want_poisson = oracles.poisson_end_state_check(runs=3 * oracles._RUN_BLOCK, master_seed=94)
        for chunk in (7, 256):
            monkeypatch.setattr(gillespie, "_CHUNK", chunk)
            spec = importlib.util.spec_from_file_location(
                "motprobe._oracles_copy", oracles.__file__
            )
            copy = importlib.util.module_from_spec(spec)
            monkeypatch.setitem(sys.modules, spec.name, copy)
            spec.loader.exec_module(copy)
            assert copy._RUN_BLOCK == oracles._RUN_BLOCK == 512
            got = copy.transient_mean_ensembles(sets, checkpoints, runs, 93)
            for (want_mean, want_se), (mean, se) in zip(want, got, strict=True):
                assert np.array_equal(mean, want_mean) and np.array_equal(se, want_se)
            got_poisson = copy.poisson_end_state_check(
                runs=3 * oracles._RUN_BLOCK, master_seed=94
            )
            assert (got_poisson.passed, got_poisson.detail) == (
                want_poisson.passed, want_poisson.detail
            )


class TestTrajectoryDump:
    def test_records_equal_the_per_trajectory_format(self):
        table = one_lane(0.0, PAIR_LOSS, SCHEDULE, derive_seed(68, 0), 25)
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
