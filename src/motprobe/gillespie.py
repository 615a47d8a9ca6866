"""Exact event-driven simulation of the trapped-atom birth-death process.

The trap state is the integer probe-atom number. Waiting times between events
are exponential in the total rate and the event type is drawn in proportion
to its component rate, so trajectories sample the master equation exactly,
with no time discretization. Detection binning happens later, in the photon
layer.

There is one event loop and one public simulator, simulate_groups. It runs
seed groups: a group is one array of seeds and the lanes that share it, each
lane one (companion number, parameters) pair, with shot i of every lane of
the group on the same seeded generator, under one draw contract: a shot
draws rng.standard_exponential(32), then rng.random(32), and event j of that
block takes wait j and uniform j; a shot that uses up its block draws the
next pair from its own generator, and the step that leaves the window uses
only its wait. So each shot is a function of its seed and its lane alone,
and a generator draws each block once for all lanes of its group. The
groups' shots fill chunks of 256 across group boundaries, and the shots of
a chunk advance together in all their lanes, one event per numpy step,
reading their states' rates from per-atom-number tables held as arrays;
each lane's events go into typed buffers that become one flat EventTable:
float64 time, int64 level (the atom number after the event) and int8 kind,
with offsets marking where each shot's events start. This module knows
nothing of campaigns or bins: the seeds are its callers'. A campaign steps
its run of bins as one group each (photon.simulate_grid_bins, which derives
every seed of a campaign), the oracles their transient parameter sets as
the lanes of one group per block of runs and their Poisson check as one
one-lane group. The photon layer reads time and level per shot, and the
oracles read the atom number at their checkpoints for all shots at once. A
Trajectory, the list-of-events form of one shot, is built only when asked
for. The exact one-shot, one-event replay of this contract (next_event and
replay_next_event) is in tests/reference.py.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import math
import numbers
import operator
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .physics import PhysicalParams, rates

__all__ = [
    "EventKind",
    "EventTable",
    "ExperimentSchedule",
    "Trajectory",
    "derive_seed",
    "derive_seeds",
    "seeded_generators",
    "simulate_groups",
    "simulate_trajectory",
    "TRAJECTORY_STREAM",
    "PHOTON_STREAM",
    "TRANSIENT_STREAM",
    "POISSON_STREAM",
]

# Stream tags for the per-trace seed derivation, see derive_seed(). Trace ti
# of campaign bin bi is seeded from (TRAJECTORY_STREAM, bi, ti) and
# (PHOTON_STREAM, bi, ti), by photon.simulate_grid_bins alone. The oracles'
# runs take their own: run i of every transient set is seeded from
# (TRANSIENT_STREAM, i), of the Poisson check from (POISSON_STREAM, i).
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
        starts, stops = self.offsets[:-1], self.offsets[1:]
        out = np.zeros((len(self), len(times)), dtype=np.int64)
        # reached[k]: events among the first k of the table at or before t.
        reached = np.zeros(len(self.time) + 1, dtype=np.int64)
        for j, t in enumerate(times):
            # A shot's times increase, so its events at or before t are the
            # first count of its row.
            np.cumsum(self.time <= t, out=reached[1:])
            count = reached[stops] - reached[starts]
            hit = count > 0
            out[hit, j] = self.level[starts[hit] + count[hit] - 1]
        return out

    def final_levels(self) -> np.ndarray:
        """Atom number of every shot after its last event (0 with none)."""
        return self.levels_at([math.inf])[:, 0]


def derive_seed(master_seed: int, *path: int) -> int:
    """Derive a child seed from a master seed and an integer path.

    Uses numpy's SeedSequence over the tuple (master_seed, *path), so any
    (stream, bin, trace) coordinate maps to a stable 64-bit seed no matter
    how many worker processes are used or in which order traces are drawn.
    The program uses derive_seeds, which the tests hold to this scalar form;
    it stays because the benchmark tracer (bench/tracing.py) wraps it by name.
    """
    ss = np.random.SeedSequence([int(master_seed), *map(int, path)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# Constants of numpy's SeedSequence pool hash (numpy/random/bit_generator.pyx).
# derive_seeds and seeded_generators run that hash on columns of uint32 words,
# one column per seed sequence.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _int_words(value: int) -> list[int]:
    """Little-endian uint32 words of a non-negative integer, split the way
    SeedSequence splits each entry of its entropy."""
    value = int(value)
    if value < 0:
        raise ValueError(f"seed entropy must be non-negative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_state(entropy: list, n_words: int) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(n_words) on columns of words.

    entropy holds uint32 words, each a scalar or an array; they broadcast,
    and every element is one seed sequence. Returns n_words uint32 arrays.
    Entropy shorter than the pool is padded with zero words, which is what
    SeedSequence hashes into the unfilled pool slots when it has no spawn key.
    """
    words = [np.asarray(w, dtype=np.uint32) for w in entropy]
    words += [np.zeros((), dtype=np.uint32)] * (_POOL_SIZE - len(words))
    words = np.broadcast_arrays(*words)
    hash_a = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = (hash_a * _MULT_A) & _MASK32
        value = value * hash_a
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_b = _INIT_B
    out = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_b
        hash_b = (hash_b * _MULT_B) & _MASK32
        value = value * hash_b
        out.append(value ^ (value >> _XSHIFT))
    return out


def _join_words(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """uint64 words from little-endian pairs of uint32 words."""
    return lo.astype(np.uint64) | (hi.astype(np.uint64) << 32)


def _word_column(values) -> np.ndarray:
    """A 1-D array prefix entry of derive_seeds as a column of uint32 words:
    each entry must be an integer in [0, 2**32), so that it is one entropy
    word of SeedSequence, as the scalar derive_seed splits it. An empty
    entry (such as []) is taken whatever its dtype."""
    column = np.asarray(values)
    if column.ndim != 1 or (column.size and column.dtype.kind not in "iu"):
        raise ValueError(
            f"an array prefix entry must be a 1-D integer array, got {column.dtype} "
            f"of shape {column.shape}"
        )
    bad = column[(column < 0) | (column > _MASK32)]
    if bad.size:
        raise ValueError(f"array prefix entries must be in [0, 2**32), got {bad[0].item()!r}")
    return column.astype(np.uint32)[:, np.newaxis]


def derive_seeds(master_seed: int, *prefix: "int | np.ndarray", count: int) -> np.ndarray:
    """derive_seed(master_seed, *prefix, i) for i in range(count), as uint64.

    Hashes all count seed sequences at once, with the same uint32 arithmetic
    as SeedSequence, so every element equals the scalar derive_seed.
    count must be an int (Python or numpy) >= 0; a float, even a whole one,
    and a bool are refused rather than rounded.

    One prefix entry may be a 1-D integer array, such as a run of bin
    indices, in any order and with repeats: the result then has one row of
    count seeds per entry, row r being the seeds with that entry's r-th
    value in its place, all hashed in one pass. Its entries must lie in
    [0, 2**32); a negative or larger one is refused, not wrapped.
    """
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise ValueError(f"count must be an integer, got {count!r}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count!r}")
    words = _int_words(master_seed)
    arrays = 0
    for p in prefix:
        if np.ndim(p) == 0:
            words += _int_words(p)
        else:
            arrays += 1
            words.append(_word_column(p))
    if arrays > 1:
        raise ValueError(f"at most one prefix entry may be an array, got {arrays}")
    index = np.arange(count, dtype=np.uint32)
    return _join_words(*_seed_state([*words, index], 2))


class _FixedSeedSequence(np.random.bit_generator.ISeedSequence):
    """Seed sequence that hands a bit generator state words computed ahead."""

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self._words) or np.dtype(dtype) != self._words.dtype:
            raise ValueError(
                f"state holds {len(self._words)} {self._words.dtype} words, "
                f"asked for {n_words} {np.dtype(dtype)}"
            )
        return self._words


def _pcg64_states(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64) for each seed, one row
    per seed."""
    # A seed below 2**32 is one entropy word for SeedSequence; a zero high
    # word hashes exactly like the pool padding, so one path serves both.
    w = _seed_state([seeds & _MASK32, seeds >> 32], 8)
    return np.stack([_join_words(w[k], w[k + 1]) for k in range(0, 8, 2)], axis=1)


def seeded_generators(seeds: "np.ndarray | list[int]") -> Iterator[np.random.Generator]:
    """Yield np.random.default_rng(seed) for each seed, in order.

    default_rng seeds PCG64 with SeedSequence(seed).generate_state(4,
    np.uint64). Those words are hashed for all seeds at once here and handed
    to PCG64, whose own seeding then runs, so every Generator starts in the
    same state as default_rng(seed). Generators are built one at a time as
    the caller asks for them.
    """
    for row in _pcg64_states(np.asarray(seeds, dtype=np.uint64)):
        yield np.random.Generator(np.random.PCG64(_FixedSeedSequence(row)))


# Each shot draws its waiting times and uniforms from its own generator in
# blocks of this many events; see simulate_groups.
_BLOCK = 32
# Shots stepped together by simulate_groups. Any value gives the same output:
# each shot's draws come from its own generator alone.
_CHUNK = 256
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


class _LaneEvents:
    """One lane of a seed group: the rate table it steps on and its events
    so far, in typed buffers that grow chunk by chunk and become the
    columns of its EventTable."""

    def __init__(self, rates: _RateTable):
        self.rates = rates
        self.time, self.level, self.kind = array("d"), array("q"), array("b")
        self.offsets = array("q", [0])

    def extend(self, time: np.ndarray, level: np.ndarray, kind: np.ndarray, count: np.ndarray):
        """Append the events of consecutive shots, count[i] of them for the
        i-th, in shot order."""
        for column, values in ((self.time, time), (self.level, level), (self.kind, kind)):
            column.frombytes(values.tobytes())
        self.offsets.frombytes((np.cumsum(count) + self.offsets[-1]).tobytes())

    def table(self, n_rb: float, seeds: np.ndarray, t_end: float) -> EventTable:
        shots = len(seeds)
        return EventTable(
            time=np.frombuffer(self.time, dtype=np.float64),
            level=np.frombuffer(self.level, dtype=np.int64),
            kind=np.frombuffer(self.kind, dtype=np.int8),
            offsets=np.frombuffer(self.offsets, dtype=np.int64),
            n_rb=np.full(shots, n_rb, dtype=float),
            seed=seeds,
            t_end=np.full(shots, t_end, dtype=float),
        )


def simulate_groups(
    groups: "Sequence[tuple[Sequence[tuple[float, PhysicalParams]], np.ndarray | list[int]]]",
    schedule: ExperimentSchedule,
    *,
    rngs: "Iterable[np.random.Generator] | None" = None,
) -> list[list[EventTable]]:
    """Simulate seed groups in one event loop, from an empty trap over the
    detection window; return one table per lane of each group.

    A group is (lanes, seeds): lane l is one (n_rb, params) pair, and shot
    i of every lane of the group runs on the same generator,
    np.random.default_rng(seeds[i]), drawn from in blocks:
    rng.standard_exponential(_BLOCK), then rng.random(_BLOCK). Event j of a
    block takes wait j and uniform j; a shot that has used up its block
    draws the next pair of blocks. In state n the clock advances by
    (1 / total) * wait and, if it is still inside the window, the event is
    the first of LOAD, LOSS_BG, LOSS_RBCS whose cumulative threshold exceeds
    uniform * total, else LOSS_CSCS_PAIR. The step that leaves the window
    uses only its wait. replay_next_event in tests/reference.py is this
    contract one shot and one event at a time, and the tests hold every
    shot of every lane to it bit for bit.

    The groups' shots, in group order, run in chunks of _CHUNK that fill
    across group boundaries, and the shots of a chunk take one event per
    numpy step together in all their groups' lanes, reading their states'
    rates from the lanes' shared rate tables (see _step_chunk). A generator
    is built once and draws each block once for all lanes of its group. Each
    shot is a function of its seed and lane alone, so neither the chunk
    size nor the other lanes and groups change it: a group's tables equal
    those of its own one-group call, and each lane's its own one-lane group.
    Events go into typed buffers, which become the columns of the returned
    tables: no Python object is kept per event.

    rngs, when given, must yield np.random.default_rng(seed) for each seed
    of every group in order, fresh; by default seeded_generators builds them.
    """
    groups = [(list(lanes), np.array(seeds, dtype=np.uint64)) for lanes, seeds in groups]
    seeds = np.concatenate([np.empty(0, dtype=np.uint64), *(s for _, s in groups)])
    rngs = iter(seeded_generators(seeds) if rngs is None else rngs)
    t_end = schedule.detect_s
    events = [
        [_LaneEvents(_rate_table(n_rb, params)) for n_rb, params in lanes] for lanes, _ in groups
    ]
    g = done = 0  # the next shot to step is shot done of group g
    for start in range(0, len(seeds), _CHUNK):
        size = min(_CHUNK, len(seeds) - start)
        gens = list(itertools.islice(rngs, size))
        if len(gens) < size:
            raise ValueError(f"rngs yields fewer generators than the {len(seeds)} seeds")
        # The chunk's runs of shots of one group; a group with no lanes
        # builds its generators and steps nothing.
        parts, stepped = [], []
        at = 0
        while at < size:
            shots = min(len(groups[g][1]) - done, size - at)
            if shots and events[g]:
                parts.append((shots, events[g]))
                stepped += gens[at:at + shots]
            at += shots
            done += shots
            if done == len(groups[g][1]):
                g, done = g + 1, 0
        if parts:
            _step_chunk(parts, t_end, stepped)
    if next(rngs, None) is not None:
        raise ValueError(f"rngs yields more generators than the {len(seeds)} seeds")
    return [
        [lane.table(n_rb, group_seeds, t_end) for (n_rb, _), lane in zip(lanes, group_events)]
        for (lanes, group_seeds), group_events in zip(groups, events)
    ]


def _lane_columns(tables: "list[_RateTable]", top: int) -> tuple[int, np.ndarray]:
    """The common width of the lanes' rate tables, grown to hold every atom
    number up to top, and their columns interleaved at that width: lane l's
    rates for atom number n are at flat row n * lanes + l, so a row stays
    valid when the tables grow, and with one lane it is n."""
    width = max(table.cover(top).shape[1] for table in tables)
    interleaved = np.stack([table.cover(width - 1) for table in tables], axis=2)
    return width, interleaved.reshape(len(interleaved), -1)


def _step_chunk(
    parts: "list[tuple[int, list[_LaneEvents]]]",
    t_end: float,
    gens: "list[np.random.Generator]",
) -> None:
    """Step the shots of gens together in every lane of their groups until
    each has left the window, and append each lane's events, shot by shot,
    to its _LaneEvents.

    parts splits gens into runs, in order: (shots, lanes) says that the next
    shots generators belong to one seed group, and lanes are its
    _LaneEvents, each of which runs all of them on its rate table. At each
    block boundary a generator draws its next block once, if its shot is
    inside the window in any lane of its group. A lane whose shot has
    already left reads those draws too, harmlessly: waits are >= 0, so its
    clock only grows. So each lane steps exactly as it would alone.

    Every array of a step holds one entry per (lane, shot). Entry i, for i
    below len(gens), is shot i in its group's first lane, whose rows of
    draws its generator fills; the other lanes of each group follow,
    lane-major, and copy those rows. So with one group the layout is
    lane-major, and with one lane it is that of a one-lane loop. A shot
    that has left the window stays in them: its clock only grows, on stale draws, and its atom
    number is held. The lanes' rates are held as flat columns at the
    tables' full common width, and each entry reads them at one row,
    n * lanes + lane, which is all a step updates. Only each step's clocks
    and kinds are kept: a shot's events are its steps with the clock inside
    the window, and its levels are the running sums of its kinds' steps.
    """
    shots = len(gens)
    tables = [lane.rates for _, lanes in parts for lane in lanes]
    lanes_total = len(tables)
    entries = sum(size * len(lanes) for size, lanes in parts)
    draws = np.empty((2, entries, _BLOCK))
    waits, uniforms = draws[:, :shots]
    lane_waits, lane_uniforms = draws
    # row is n * lanes_total + lane, from n = 0; a change of n moves it
    # lanes_total-fold.
    row = np.empty(entries, dtype=np.int64)
    spans = []  # (entries, events) of every lane
    # (entries of the first lane, entries of the others, shots) of each
    # group with more than one lane.
    wide = []
    first = lane = 0
    extra = shots
    for size, lanes in parts:
        head = slice(first, first + size)
        row[head] = lane
        spans.append((head, lanes[0]))
        more = len(lanes) - 1
        if more:
            rest = slice(extra, extra + more * size)
            row[rest] = np.repeat(np.arange(lane + 1, lane + 1 + more), size)
            spans += [
                (slice(extra + k * size, extra + (k + 1) * size), lane_events)
                for k, lane_events in enumerate(lanes[1:])
            ]
            wide.append((head, rest, size))
            extra += more * size
        first += size
        lane += len(lanes)
    row_step = _STEP * lanes_total
    t = np.zeros(entries)
    live = range(shots)
    width = 0
    top = 0  # bounds every atom number from above
    clocks, kinds = [], []
    while True:
        j = len(clocks) % _BLOCK
        if j == 0:
            for i in live:
                gens[i].standard_exponential(out=waits[i])
                gens[i].random(out=uniforms[i])
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
            live = np.flatnonzero(alive).tolist()
        top += 1
    steps = len(clocks)
    clocks = np.array(clocks).reshape(steps, entries)
    kinds = np.array(kinds, dtype=np.int8).reshape(steps, entries)
    for span, lane_events in spans:
        # Transposed, a lane's (step x shot) records are shot-major: row i
        # holds shot i's steps in order, and its clock only grows.
        time = clocks[:, span].T
        taken = time <= t_end
        kind = kinds[:, span].T[taken]
        count = np.count_nonzero(taken, axis=1)
        level = np.cumsum(_STEP[kind])
        level -= np.repeat(np.concatenate(([0], level))[np.cumsum(count) - count], count)
        lane_events.extend(time[taken], level, kind, count)


def simulate_trajectory(
    n_rb: float,
    params: PhysicalParams,
    schedule: ExperimentSchedule,
    seed: int,
    *,
    rng: np.random.Generator | None = None,
) -> Trajectory:
    """Simulate one shot from an empty trap: the one-shot, one-lane
    simulate_groups call, as a Trajectory. The program does not call it; it
    stays because the benchmark tracer (bench/tracing.py) wraps it by name.

    rng, when given, must be np.random.default_rng(seed), fresh (as built by
    seeded_generators); by default it is built here.
    """
    if rng is None:
        rng = np.random.default_rng(int(seed))
    ((table,),) = simulate_groups([([(n_rb, params)], [int(seed)])], schedule, rngs=[rng])
    return table[0]
