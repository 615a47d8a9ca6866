"""Exact event-driven simulation of the trapped-atom birth-death process.

The trap state is the integer probe-atom number. Waiting times between events
are exponential in the total rate and the event type is drawn in proportion
to its component rate, so trajectories sample the master equation exactly,
with no time discretization. Detection binning happens later, in the photon
layer.

There is one event loop and one public simulator, simulate_groups. It runs
seed groups: a group is one seed, a number of shots and the lanes that
share them, each lane one (companion number, parameters) pair. Every shot of
every lane of a group draws from the group's one generator,
np.random.default_rng(seed), a round of 32 events at a time, under one draw
contract. A shot takes a row of 32 waits and 32 uniforms in round r while
it is still inside the window in any lane after 32 r events. The first
shot takes its rows from the generator's own stream,
rng.standard_exponential(32) then rng.random(32), so a one-shot group is
one shot drawn alone on its seed; the group's other shots take theirs in
shot order, k at a time, rng.standard_exponential((k, 32)) on the
generator jumped 2 r + 1 times (PCG64.jumped) and rng.random((k, 32)) on
it jumped 2 r + 2 times. Event j of a round takes wait j and uniform j of
the shot's row, and the step that leaves the window uses only its wait.
Every stream starts at a fixed place, so a shot is a function of its
group's seed, its index, the shots before it and its lane, not of the
shots after it, and the group draws each round once for all its lanes.
Whole groups are stepped together in chunks of at least 2048 shots, and the
shots of a chunk advance together in all their lanes, one event per numpy
step, reading their states' rates from per-atom-number tables held as
arrays. Below about 2000 entries a step costs mostly numpy's fixed
per-call overhead, so the number of steps, not of events, sets the loop's
cost: the 16 bins of a default grid at 100 shots are one chunk. Each
lane's events become one flat EventTable, built once from the step record
of the chunk that stepped its group: float64 time, int64 level (the atom
number after the event) and int8 kind, with offsets marking where each
shot's events start. This module
knows nothing of campaigns or bins: the seeds are its callers'. A campaign
steps its run of bins as one group each (photon.simulate_grid_bins, which
derives every seed of a campaign, two derive_seed calls per bin), the
oracles their transient parameter sets as the lanes of one group per block
of runs and their Poisson check as one-lane groups, one per block of runs,
each group's seed one derive_seed call. The photon layer
reads time and level per shot, and the oracles read the atom number at
their checkpoints for all shots at once. A Trajectory, the list-of-events
form of one shot, is built only when asked for; simulate_trajectory is the
one-shot group. The exact one-event replay of this contract (next_event
stepped by replay_group) is in tests/reference.py.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .physics import PhysicalParams, rates

__all__ = [
    "EventKind",
    "EventTable",
    "ExperimentSchedule",
    "Trajectory",
    "derive_seed",
    "simulate_groups",
    "simulate_trajectory",
    "TRAJECTORY_STREAM",
    "PHOTON_STREAM",
    "TRANSIENT_STREAM",
    "POISSON_STREAM",
]

# Stream tags for the seed derivation, see derive_seed(). Each stream seeds
# one generator per group, with no trace or run index: the trajectories of
# campaign bin bi are the seed group (TRAJECTORY_STREAM, bi) and the photon
# counts of the whole bin are drawn on (PHOTON_STREAM, bi), by
# photon.simulate_grid_bins alone. The oracles' runs take their own: the
# runs of block g, of oracles._RUN_BLOCK runs each, are the seed group
# (TRANSIENT_STREAM, g) for every transient set and (POISSON_STREAM, g) for
# the Poisson check.
TRAJECTORY_STREAM = 0
PHOTON_STREAM = 1
TRANSIENT_STREAM = 2
POISSON_STREAM = 3


class EventKind(enum.Enum):
    LOAD = "load"
    LOSS_BG = "loss_bg"
    LOSS_RBCS = "loss_rbcs"
    LOSS_CSCS_PAIR = "loss_cscs_pair"

    @property
    def delta(self) -> int:
        """Change of the trapped-atom number caused by this event."""
        return _DELTA[self]


_DELTA = {
    EventKind.LOAD: +1,
    EventKind.LOSS_BG: -1,
    EventKind.LOSS_RBCS: -1,
    EventKind.LOSS_CSCS_PAIR: -2,
}

# EventTable.kind holds an event's position in this tuple: 0 LOAD, 1 LOSS_BG,
# 2 LOSS_RBCS, 3 LOSS_CSCS_PAIR.
_KINDS = tuple(EventKind)
_KIND_CODES = {kind: code for code, kind in enumerate(_KINDS)}


@dataclass(frozen=True)
class ExperimentSchedule:
    """Timing of one experimental shot, in seconds.

    detect_s is the fluorescence recording window with the trap running,
    off_s the dead window with the probe light off, background_s the final
    stretch used for background estimation. Atom dynamics are only simulated
    during detect_s; the other segments carry no atom signal.
    """

    detect_s: float = 3.0
    off_s: float = 0.5
    background_s: float = 0.2

    def __post_init__(self) -> None:
        for name in ("detect_s", "off_s", "background_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass
class Trajectory:
    """One stochastic history of the trapped-atom number.

    events holds (time, kind, atom number after the event) with strictly
    increasing times inside [0, t_end]. The trap starts empty at t = 0.
    This is the list form of one row of an EventTable, which builds it on
    indexing; simulate_trajectory returns one.
    """

    events: list[tuple[float, EventKind, int]]
    t_end: float
    n_rb: float
    seed: int

    _times: list[float] = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._times = [t for t, _, _ in self.events]

    def n_at(self, t: float) -> int:
        """Atom number at time t (events take effect at their timestamp)."""
        idx = bisect.bisect_right(self._times, t)
        return 0 if idx == 0 else self.events[idx - 1][2]

    @property
    def n_final(self) -> int:
        return self.events[-1][2] if self.events else 0

    def validate(self) -> None:
        t_prev = 0.0
        n_prev = 0
        for t, kind, n_after in self.events:
            if not (t_prev < t <= self.t_end):
                raise ValueError(f"event time {t!r} outside ({t_prev!r}, {self.t_end!r}]")
            if n_after != n_prev + kind.delta:
                raise ValueError(
                    f"step mismatch at t={t!r}: {n_prev} + {kind.delta} != {n_after}"
                )
            if n_after < 0:
                raise ValueError(f"negative atom number {n_after} at t={t!r}")
            t_prev, n_prev = t, n_after


def _frozen(values, dtype) -> np.ndarray:
    out = np.asarray(values, dtype=dtype)
    out.flags.writeable = False
    return out


class EventTable(Sequence):
    """The events of a set of shots, in flat columns.

    Shot i's events are entries offsets[i] to offsets[i + 1] of time
    (float64, strictly increasing inside (0, t_end]), level (int64, the atom
    number after the event) and kind (int8, the event's position in
    EventKind). n_rb, seed and t_end hold one entry per shot. Every trap
    starts empty at t = 0.

    It is also a read-only sequence of Trajectory: item i is shot i as a
    Trajectory, built when asked for, so code written for a list of
    trajectories runs on a table unchanged.
    """

    def __init__(self, time, level, kind, offsets, n_rb, seed, t_end):
        self.time = _frozen(time, np.float64)
        self.level = _frozen(level, np.int64)
        self.kind = _frozen(kind, np.int8)
        self.offsets = _frozen(offsets, np.int64)
        self.n_rb = _frozen(n_rb, np.float64)
        self.seed = _frozen(seed, np.uint64)
        self.t_end = _frozen(t_end, np.float64)
        shots = len(self.offsets) - 1
        if (
            shots < 0
            or self.offsets[0] != 0
            or self.offsets[-1] != len(self.time)
            or not len(self.time) == len(self.level) == len(self.kind)
            or not shots == len(self.n_rb) == len(self.seed) == len(self.t_end)
        ):
            raise ValueError("event columns and offsets do not match")

    @classmethod
    def from_trajectories(cls, trajectories: "Sequence[Trajectory]") -> "EventTable":
        """The table of a sequence of trajectories (itself, if it is a table)."""
        if isinstance(trajectories, EventTable):
            return trajectories
        events = [e for traj in trajectories for e in traj.events]
        sizes = [len(traj.events) for traj in trajectories]
        return cls(
            time=[t for t, _, _ in events],
            level=[n for _, _, n in events],
            kind=[_KIND_CODES[k] for _, k, _ in events],
            offsets=np.cumsum([0, *sizes]),
            n_rb=[traj.n_rb for traj in trajectories],
            seed=[traj.seed for traj in trajectories],
            t_end=[traj.t_end for traj in trajectories],
        )

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[operator.index(index)]
        lo, hi = self.offsets[i], self.offsets[i + 1]
        events = list(zip(
            self.time[lo:hi].tolist(),
            [_KINDS[k] for k in self.kind[lo:hi].tolist()],
            self.level[lo:hi].tolist(),
        ))
        return Trajectory(
            events=events,
            t_end=float(self.t_end[i]),
            n_rb=float(self.n_rb[i]),
            seed=int(self.seed[i]),
        )

    def levels_at(self, times: "np.ndarray | list[float]") -> np.ndarray:
        """Atom number of every shot at each of times, shape (shots, times).

        Events take effect at their timestamp: the level at t is the level
        of the shot's last event at or before t, 0 before its first event,
        as Trajectory.n_at reads it with bisect_right.
        """
        times = np.asarray(times, dtype=float)
        shots, q = len(self), len(times)
        order = np.argsort(times, kind="stable")
        # Each event counts toward the first sorted time at or after it (q if
        # none) and every later one: time <= t, with no float arithmetic.
        first = np.searchsorted(times[order], self.time, side="left")
        shot = np.repeat(np.arange(shots), np.diff(self.offsets))
        per_time = np.bincount(shot * (q + 1) + first, minlength=shots * (q + 1))
        # A shot's times increase, so its events at or before sorted time k
        # are the first reached[:, k] of its row.
        reached = per_time.reshape(shots, q + 1)[:, :q].cumsum(axis=1)
        hit = reached > 0
        levels = np.zeros((shots, q), dtype=np.int64)
        levels[hit] = self.level[(self.offsets[:-1, np.newaxis] + reached - 1)[hit]]
        out = np.empty_like(levels)
        out[:, order] = levels
        return out

    def final_levels(self) -> np.ndarray:
        """Atom number of every shot after its last event (0 with none)."""
        return self.levels_at([math.inf])[:, 0]


def derive_seed(master_seed: int, *path: int) -> int:
    """Derive a child seed from a master seed and an integer path.

    Uses numpy's SeedSequence over the tuple (master_seed, *path), so any
    (stream, group) coordinate maps to a stable 64-bit seed no matter
    how many worker processes are used or in which order traces are drawn.
    It is the package's one seed function: a campaign calls it twice per
    bin (photon.simulate_grid_bins) and the oracles once per group of runs.
    """
    ss = np.random.SeedSequence([int(master_seed), *map(int, path)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# Each shot takes its waiting times and uniforms in rows of this many events,
# drawn a round at a time on its seed group's generator; see simulate_groups.
_BLOCK = 32
# The step of numpy's PCG64.jumped, (phi - 1) * 2**128 made odd: in round r
# a group's shots after its first draw their waits on its generator jumped
# 2 r + 1 times and their uniforms on it jumped 2 r + 2 times (see
# _GroupDraws). A power-of-two jump would leave the streams' low 64 state
# bits equal, the case in which PCG64's outputs are known to correlate.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835
# Least number of shots stepped together by simulate_groups, in whole groups;
# a larger group is a chunk of its own. Any value gives the same output:
# each group's draws come from its own generator alone. Below about 2000
# entries a numpy step costs mostly its fixed call overhead, so the loop's
# cost follows its step count, the longest shot's events in each chunk:
# at this size 16 bins of 100 pair-loss shots are one chunk of 86 steps.
# A chunk's step record holds about steps x entries x 9 bytes twice, some
# 3 MB at 2048 shots and 90 steps.
_CHUNK = 2048
# Change of the atom number for each EventTable.kind code.
_STEP = np.array([_DELTA[kind] for kind in _KINDS], dtype=np.int64)


def _rate_row(n_cs: int, n_rb: float, params: PhysicalParams) -> tuple[float, ...]:
    """Rate row of one trap state: (1 / total, total, load, load + loss_bg,
    load + loss_bg + loss_rbcs), the last +inf where the pair rate is 0.

    The cumulative sums are the thresholds of the categorical event draw,
    added in the fixed order LOAD, LOSS_BG, LOSS_RBCS, LOSS_CSCS_PAIR; any
    other order or grouping would change the floats and with them seeded
    streams. The total is RateSet.total, which sums the losses first, so it
    can lie an ulp above the last sum; with no pair rate that threshold is
    +inf instead, so a uniform near 1 never draws a pair loss. The first
    entry is the scale of the waiting time, 1.0 / total; with no rate left
    the wait is infinite, so the shot leaves the window at its next step.
    """
    rs = rates(n_cs, n_rb, params)
    total = rs.total
    c_load = rs.load
    c_bg = c_load + rs.loss_bg
    c_rbcs = c_bg + rs.loss_rbcs if rs.loss_cscs > 0.0 else math.inf
    scale = 1.0 / total if total > 0.0 else math.inf
    return scale, total, c_load, c_bg, c_rbcs


class _RateTable:
    """Rate rows indexed by atom number at fixed (n_rb, params), held as a
    read-only (5 x atom numbers) float64 array: row k holds entry k of
    _rate_row for every atom number reached so far.

    Rates depend on the trap state only through the atom number, so every
    shot with the same companion number and parameters shares one table.
    It starts with the empty-trap state, which also validates n_rb, and
    grows to the largest atom number a shot has reached. Entries are a pure
    function of (n, n_rb, params), so which shots grow the table never
    changes one.
    """

    def __init__(self, n_rb: float, params: PhysicalParams):
        self.n_rb = n_rb
        self.params = params
        self.columns = _frozen(np.transpose([_rate_row(0, n_rb, params)]), np.float64)

    def cover(self, top: int) -> np.ndarray:
        """The columns, grown to hold every atom number up to top."""
        have = self.columns.shape[1]
        if top >= have:
            grown = [_rate_row(n, self.n_rb, self.params) for n in range(have, top + 1)]
            self.columns = _frozen(
                np.concatenate([self.columns, np.transpose(grown)], axis=1), np.float64
            )
        return self.columns


@functools.lru_cache(maxsize=64)
def _rate_table(n_rb: float, params: PhysicalParams) -> _RateTable:
    return _RateTable(n_rb, params)


def simulate_groups(
    groups: "Sequence[tuple[Sequence[tuple[float, PhysicalParams]], int, int]]",
    schedule: ExperimentSchedule,
    *,
    rngs: "Iterable[np.random.Generator] | None" = None,
) -> list[list[EventTable]]:
    """Simulate seed groups in one event loop, from an empty trap over the
    detection window; return one table per lane of each group.

    A group is (lanes, seed, shots): lane l is one (n_rb, params) pair, and
    the group's shots, in every lane, take their draws from one generator,
    np.random.default_rng(seed), a round at a time (_GroupDraws): in round
    r each shot still inside the window in any lane after r * _BLOCK events
    takes one row of _BLOCK waits and _BLOCK uniforms. The first shot takes
    its rows from the generator's own stream,
    rng.standard_exponential(_BLOCK) then rng.random(_BLOCK); the k others,
    in shot order, rows of rng.standard_exponential((k, _BLOCK)) on the
    generator jumped 2 r + 1 times and of rng.random((k, _BLOCK)) on it
    jumped 2 r + 2 times. Event j of a round takes wait j and uniform j of
    the shot's row. In state n the clock advances by
    (1 / total) * wait and, if it is still inside the window, the event is
    the first of LOAD, LOSS_BG, LOSS_RBCS whose cumulative threshold
    exceeds uniform * total, else LOSS_CSCS_PAIR. The step that leaves the
    window uses only its wait. replay_group in tests/reference.py is this
    contract one shot and one event at a time, and the tests hold every
    shot of every lane to it bit for bit. A shot depends on its group's
    seed, its index and the shots before it, not on those after it, and a
    one-shot group is the one shot drawn alone on its seed.

    Every lane of a shot reads the same rows, but a round's rows go out by
    rank among the shots live in any lane: a shot that another lane keeps
    inside the window shifts the rows of the later shots. So a lane equals
    its own one-lane group when, in every round it still draws in, each
    shot live in some lane is live in it too, and may differ otherwise.

    Whole groups, in order, are stepped together in chunks of at least
    _CHUNK shots, and the shots of a chunk take one event per numpy step
    together in all their groups' lanes, reading their states' rates from
    the lanes' shared rate tables (see _step_chunk). A step's cost is
    mostly numpy's fixed per-call overhead below about 2000 entries, so it
    is the number of steps, one per event of a chunk's longest shot, that
    sets the loop's cost, and the fewer chunks the better. A group's draws
    come from its generator alone, so neither the chunk size nor the other
    groups change it: a group's tables equal those of its own one-group
    call. A group is never split across chunks, so each lane's table is
    built once, from the columns its chunk's step record gives: no Python
    object is kept per event. Every shot's seed entry is its group's seed.

    rngs, when given, must yield np.random.default_rng(seed) for the seed
    of each group in order, fresh; by default each group's is built as its
    chunk is filled.
    """
    groups = [(list(lanes), int(seed), operator.index(shots)) for lanes, seed, shots in groups]
    for _, _, shots in groups:
        if shots < 0:
            raise ValueError(f"a group's shots must be >= 0, got {shots}")
    rngs = None if rngs is None else iter(rngs)
    t_end = schedule.detect_s
    # Looked up for every lane before any chunk runs: a lane's table
    # validates its n_rb, in a group of no shots too.
    tables = [[_rate_table(n_rb, params) for n_rb, params in lanes] for lanes, _, _ in groups]
    stepped = []  # each stepped group's lane columns, in group order
    parts, size = [], 0  # the groups of the chunk being filled, and its shots
    for (lanes, seed, shots), lane_tables in zip(groups, tables):
        if rngs is None:
            rng = None
        elif (rng := next(rngs, None)) is None:
            raise ValueError(f"rngs yields fewer generators than the {len(groups)} groups")
        # A group with no lanes or no shots draws nothing.
        if not (shots and lanes):
            continue
        parts.append((shots, lane_tables, np.random.default_rng(seed) if rng is None else rng))
        size += shots
        if size >= _CHUNK:
            stepped += _step_chunk(parts, t_end)
            parts, size = [], 0
    if parts:
        stepped += _step_chunk(parts, t_end)
    if rngs is not None and next(rngs, None) is not None:
        raise ValueError(f"rngs yields more generators than the {len(groups)} groups")
    stepped = iter(stepped)
    empty = ((), (), (), (0,))
    return [
        [
            EventTable(
                *columns,
                n_rb=np.full(shots, n_rb, dtype=float),
                seed=np.full(shots, seed, dtype=np.uint64),
                t_end=np.full(shots, t_end, dtype=float),
            )
            for (n_rb, _), columns in zip(
                lanes, next(stepped) if shots and lanes else [empty] * len(lanes)
            )
        ]
        for lanes, seed, shots in groups
    ]


class _GroupDraws:
    """The draws of one seed group, a round at a time, on its one generator.

    The group's first shot takes its rows from the generator's own stream:
    standard_exponential(_BLOCK), then random(_BLOCK), each round, as a
    shot drawn alone would. In round r its other live shots take k rows of
    waits, standard_exponential((k, _BLOCK)) on the generator jumped
    2 r + 1 times, and k rows of uniforms, random((k, _BLOCK)) on it jumped
    2 r + 2 times, one row each in shot order. The generator is put in
    each state in place, not rebuilt. Every stream starts at a fixed place,
    so a shot's row does not depend on the shots after it, in this round
    or in any before it.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.start = self.own = rng.bit_generator.state
        self.rounds = 0

    def next_round(self, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Waits and uniforms of the next round, one row per shot of live
        (the group's live shots, in order; the first round takes them all)."""
        rng, bits = self.rng, self.rng.bit_generator
        waits, uniforms = np.empty((2, len(live), _BLOCK))
        first = int(live[0] == 0)
        if first:
            bits.state = self.own
            rng.standard_exponential(out=waits[0])
            rng.random(out=uniforms[0])
            self.own = bits.state
        if len(live) > first:
            for out, draw, jumps in (
                (waits, rng.standard_exponential, 2 * self.rounds + 1),
                (uniforms, rng.random, 2 * self.rounds + 2),
            ):
                bits.state = self.start
                bits.advance(jumps * _JUMP)
                out[first:] = draw((len(live) - first, _BLOCK))
        self.rounds += 1
        return waits, uniforms


def _lane_columns(tables: "list[_RateTable]", top: int) -> tuple[int, np.ndarray]:
    """The common width of the lanes' rate tables, grown to hold every atom
    number up to top, and their columns interleaved at that width: lane l's
    rates for atom number n are at flat row n * lanes + l, so a row stays
    valid when the tables grow, and with one lane it is n."""
    width = max(table.cover(top).shape[1] for table in tables)
    interleaved = np.stack([table.cover(width - 1) for table in tables], axis=2)
    return width, interleaved.reshape(len(interleaved), -1)


def _step_chunk(
    parts: "list[tuple[int, list[_RateTable], np.random.Generator]]",
    t_end: float,
) -> "list[list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]]":
    """Step the shots of whole seed groups together in every lane of their
    group until each has left the window; return each group's lanes'
    event columns (time, level, kind, offsets), as EventTable holds them.

    parts holds (shots, lanes, rng) for each group, in order: lanes are the
    rate tables its lanes run all its shots on, and rng its generator. At
    each round boundary a group draws one round of rows for its shots still
    inside the window in any of its lanes, in shot order, once for all its
    lanes. A lane whose shot has already left reads those draws too,
    harmlessly: waits are >= 0, so its clock only grows. So every lane of a
    shot reads the same rows, and a shot kept inside by one lane can shift
    the rows of later shots in the others (see simulate_groups).

    Every array of a step holds one entry per (lane, shot). Entry i, for i
    below the chunk's shots, is shot i in its group's first lane, whose
    rows of draws its generator fills; the other lanes of each group
    follow, lane-major, and copy those rows. So with one group the layout
    is lane-major, and with one lane it is that of a one-lane loop. A shot
    that has left the window stays in them: its clock only grows, on stale
    draws, and its atom number is held. The lanes' rates are held as flat
    columns at the tables' full common width, and each entry reads them at
    one row, n * lanes + lane, which is all a step updates. Only each
    step's clocks and kinds are kept: a shot's events are its steps with
    the clock inside the window, and its levels are the running sums of its
    kinds' steps.
    """
    shots = sum(size for size, _, _ in parts)
    tables = [table for _, lanes, _ in parts for table in lanes]
    lanes_total = len(tables)
    entries = sum(size * len(lanes) for size, lanes, _ in parts)
    draws = np.empty((2, entries, _BLOCK))
    waits, uniforms = draws[:, :shots]
    lane_waits, lane_uniforms = draws
    # row is n * lanes_total + lane, from n = 0; a change of n moves it
    # lanes_total-fold.
    row = np.empty(entries, dtype=np.int64)
    spans = []  # the entries of each lane of each group
    # (entries of the first lane, draws, the shots still inside in some
    # lane) of each group.
    heads = []
    # (entries of the first lane, entries of the others, shots) of each
    # group with more than one lane.
    wide = []
    first = lane = 0
    extra = shots
    for size, lanes, rng in parts:
        head = slice(first, first + size)
        row[head] = lane
        heads.append((head, _GroupDraws(rng), np.arange(size)))
        spans.append([head])
        more = len(lanes) - 1
        if more:
            rest = slice(extra, extra + more * size)
            row[rest] = np.repeat(np.arange(lane + 1, lane + 1 + more), size)
            spans[-1] += [slice(extra + k * size, extra + (k + 1) * size) for k in range(more)]
            wide.append((head, rest, size))
            extra += more * size
        first += size
        lane += len(lanes)
    row_step = _STEP * lanes_total
    t = np.zeros(entries)
    width = 0
    top = 0  # bounds every atom number from above
    clocks, kinds = [], []
    while True:
        j = len(clocks) % _BLOCK
        if j == 0:
            for head, group_draws, live in heads:
                if len(live):
                    waits[head][live], uniforms[head][live] = group_draws.next_round(live)
            for head, rest, size in wide:
                draws[:, rest].reshape(2, -1, size, _BLOCK)[...] = draws[:, None, head]
        if top >= width:
            # Tighten the bound; grow the columns only if it still reaches them.
            top = int(row.max()) // lanes_total
            if top >= width:
                width, (scale, total, c_load, c_bg, c_rbcs) = _lane_columns(tables, top)
        t = t + scale[row] * lane_waits[:, j]
        inside = t <= t_end
        if not np.count_nonzero(inside):
            break
        u = lane_uniforms[:, j] * total[row]
        kind = (u >= c_load[row]).view(np.int8) + (u >= c_bg[row]) + (u >= c_rbcs[row])
        # A pair loss can only be drawn from n >= 2: below that its rate,
        # which carries the discrete n(n-1) factor, is 0 and its threshold
        # +inf, so n stays non-negative.
        row = row + row_step[kind] * inside
        clocks.append(t)
        kinds.append(kind)
        if j == _BLOCK - 1:
            alive = inside[:shots].copy()
            for head, rest, size in wide:
                alive[head] |= inside[rest].reshape(-1, size).any(axis=0)
            heads = [
                (head, group_draws, np.flatnonzero(alive[head]))
                for head, group_draws, _ in heads
            ]
        top += 1
    steps = len(clocks)
    clocks = np.array(clocks).reshape(steps, entries)
    kinds = np.array(kinds, dtype=np.int8).reshape(steps, entries)

    def lane(span):
        # Transposed, a lane's (step x shot) records are shot-major: row i
        # holds shot i's steps in order, and its clock only grows.
        time = clocks[:, span].T
        taken = time <= t_end
        kind = kinds[:, span].T[taken]
        count = np.count_nonzero(taken, axis=1)
        offsets = np.concatenate(([0], np.cumsum(count)))
        level = np.cumsum(_STEP[kind])
        level -= np.repeat(np.concatenate(([0], level))[offsets[:-1]], count)
        return time[taken], level, kind, offsets

    return [[lane(span) for span in group_spans] for group_spans in spans]


def simulate_trajectory(
    n_rb: float,
    params: PhysicalParams,
    schedule: ExperimentSchedule,
    seed: int,
) -> Trajectory:
    """Simulate one shot from an empty trap: the one-shot, one-lane
    simulate_groups call, as a Trajectory. The program does not call it; it
    stays because the benchmark tracer (bench/tracing.py) wraps it by name.
    """
    ((table,),) = simulate_groups([([(n_rb, params)], seed, 1)], schedule)
    return table[0]
