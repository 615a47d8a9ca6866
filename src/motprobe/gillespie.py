"""Exact event-driven simulation of the trapped-atom birth-death process.

The trap state is the integer probe-atom number. Waiting times between events
are exponential in the total rate and the event type is drawn in proportion
to its component rate, so trajectories sample the master equation exactly,
with no time discretization. Detection binning happens later, in the photon
layer.

There is one event loop, simulate_shots. It runs a set of shots at one
companion number, each on its own seeded generator, and writes their events
straight into typed buffers that become one flat EventTable: float64 time,
int64 level (the atom number after the event) and int8 kind, with offsets
marking where each shot's events start. Everything else reads that table:
simulate_trajectory is its one-shot case, simulate_bin and simulate_ensemble
return tables, the photon layer reads time and level per shot, and the
oracles read the atom number at their checkpoints for all shots at once.
A Trajectory, the list-of-events form of one shot, is built only when asked
for.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
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
    "next_event",
    "simulate_shots",
    "simulate_trajectory",
    "simulate_bin",
    "simulate_ensemble",
    "TRAJECTORY_STREAM",
    "PHOTON_STREAM",
]

# Stream tags for the per-trace seed derivation, see derive_seed().
TRAJECTORY_STREAM = 0
PHOTON_STREAM = 1


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

    @property
    def total_s(self) -> float:
        return self.detect_s + self.off_s + self.background_s


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

    def event_counts(self) -> dict[EventKind, int]:
        out = {kind: 0 for kind in EventKind}
        for _, kind, _ in self.events:
            out[kind] += 1
        return out

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

    @classmethod
    def concat(cls, tables: "Iterable[EventTable]") -> "EventTable":
        """The shots of several tables, in order, as one table."""
        tables = list(tables)

        def column(name, dtype):
            return np.concatenate([np.zeros(0, dtype)] + [getattr(t, name) for t in tables])

        sizes = np.concatenate([np.zeros(1, np.int64)] + [np.diff(t.offsets) for t in tables])
        return cls(
            time=column("time", np.float64),
            level=column("level", np.int64),
            kind=column("kind", np.int8),
            offsets=np.cumsum(sizes),
            n_rb=column("n_rb", np.float64),
            seed=column("seed", np.uint64),
            t_end=column("t_end", np.float64),
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
    """
    ss = np.random.SeedSequence([int(master_seed), *map(int, path)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# Constants of numpy's SeedSequence pool hash (numpy/random/bit_generator.pyx).
# derive_seeds and seeded_generators run that hash on columns of uint32 words,
# one column per seed sequence; derive_seed stays the scalar reference the
# tests hold them to.
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

    entropy holds uint32 words, each a scalar or a 1-D array; they broadcast,
    and every column is one seed sequence. Returns n_words uint32 arrays.
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


def derive_seeds(master_seed: int, *prefix: int, count: int) -> np.ndarray:
    """derive_seed(master_seed, *prefix, i) for i in range(count), as uint64.

    Hashes all count seed sequences at once, with the same uint32 arithmetic
    as SeedSequence, so every element equals the scalar derive_seed.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count!r}")
    words = _int_words(master_seed)
    for p in prefix:
        words += _int_words(p)
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


_Row = tuple[float, float, float, float, float]


def _rate_row(n_cs: int, n_rb: float, params: PhysicalParams) -> _Row:
    """Rate row of one trap state: (1 / total, total, load, load + loss_bg,
    load + loss_bg + loss_rbcs).

    The cumulative sums are the thresholds of the categorical event draw,
    added in the fixed order LOAD, LOSS_BG, LOSS_RBCS, LOSS_CSCS_PAIR; any
    other order or grouping would change the floats and with them seeded
    streams. The total is RateSet.total, which sums the losses first. The
    first entry is the scale of the waiting time, 1.0 / total (0.0 when no
    rate is left).
    """
    rs = rates(n_cs, n_rb, params)
    total = rs.total
    c_load = rs.load
    c_bg = c_load + rs.loss_bg
    scale = 1.0 / total if total > 0.0 else 0.0
    return scale, total, c_load, c_bg, c_bg + rs.loss_rbcs


@functools.lru_cache(maxsize=64)
def _rate_rows(n_rb: float, params: PhysicalParams) -> list[_Row]:
    """Rate rows indexed by atom number at fixed (n_rb, params).

    Rates depend on the trap state only through the atom number, so every
    trajectory with the same companion number and parameters shares one
    table. It starts with the empty-trap row, which also validates n_rb, and
    simulate_shots appends the row of an atom number the first time it is
    reached. Rows are a pure function of (n, n_rb, params), so which
    trajectory builds a row never changes its value.
    """
    return [_rate_row(0, n_rb, params)]


def next_event(
    n_cs: int,
    n_rb: float,
    params: PhysicalParams,
    rng: np.random.Generator,
) -> tuple[float, EventKind] | None:
    """Draw the waiting time and type of the next event.

    Returns None when every rate vanishes (absorbing state); the caller then
    treats the remaining observation window as event-free. This is the
    single-step reference of simulate_shots, which makes the same draws in
    the same order.
    """
    _, total, c_load, c_bg, c_rbcs = _rate_row(n_cs, n_rb, params)
    if total <= 0.0:
        return None
    dt = rng.exponential(1.0 / total)
    u = rng.random() * total
    if u < c_load:
        return dt, EventKind.LOAD
    if u < c_bg:
        return dt, EventKind.LOSS_BG
    if u < c_rbcs:
        return dt, EventKind.LOSS_RBCS
    return dt, EventKind.LOSS_CSCS_PAIR


def simulate_shots(
    n_rb: float,
    params: PhysicalParams,
    schedule: ExperimentSchedule,
    seeds: "np.ndarray | list[int]",
    *,
    rngs: "Iterable[np.random.Generator] | None" = None,
) -> EventTable:
    """Simulate one shot per seed from an empty trap over the detection window.

    Shot i is next_event stepped from n = 0 on np.random.default_rng(seeds[i])
    until the clock passes the window, but each state's rates are read from
    the shared row table, and the event draw of the step that leaves the
    window is skipped; no result depends on it, because the generator is
    private to the shot. Events go straight into typed buffers, which become
    the columns of the returned table: no Python object is kept per event or
    per shot.

    rngs, when given, must yield np.random.default_rng(seed) for each seed,
    fresh; by default seeded_generators builds them.
    """
    seeds = np.array(seeds, dtype=np.uint64)
    if rngs is None:
        rngs = seeded_generators(seeds)
    rows = _rate_rows(n_rb, params)
    t_end = schedule.detect_s
    times, levels, kinds = array("d"), array("q"), array("b")
    offsets = array("q", [0])
    put_time, put_level, put_kind = times.append, levels.append, kinds.append
    for _, rng in zip(seeds, rngs, strict=True):
        # rng.exponential(scale) draws scale * standard_exponential(): the
        # same draw and the same product as next_event's, without the
        # division and argument checks per event.
        exponential = rng.standard_exponential
        uniform = rng.random
        t = 0.0
        n = 0
        scale, total, c_load, c_bg, c_rbcs = rows[0]
        while total > 0.0:
            t = t + scale * exponential()
            if t > t_end:
                break
            u = uniform() * total
            if u < c_load:
                n += 1
                if n == len(rows):
                    rows.append(_rate_row(n, n_rb, params))
                put_kind(0)
            elif u < c_bg:
                n -= 1
                put_kind(1)
            elif u < c_rbcs:
                n -= 1
                put_kind(2)
            else:
                # A pair loss can only be drawn from n >= 2 because its rate
                # carries the discrete n(n-1) factor, so n stays non-negative.
                n -= 2
                put_kind(3)
            put_time(t)
            put_level(n)
            scale, total, c_load, c_bg, c_rbcs = rows[n]
        offsets.append(len(times))
    shots = len(seeds)
    return EventTable(
        time=np.frombuffer(times, dtype=np.float64),
        level=np.frombuffer(levels, dtype=np.int64),
        kind=np.frombuffer(kinds, dtype=np.int8),
        offsets=np.frombuffer(offsets, dtype=np.int64),
        n_rb=np.full(shots, n_rb, dtype=float),
        seed=seeds,
        t_end=np.full(shots, t_end, dtype=float),
    )


def simulate_trajectory(
    n_rb: float,
    params: PhysicalParams,
    schedule: ExperimentSchedule,
    seed: int,
    *,
    rng: np.random.Generator | None = None,
) -> Trajectory:
    """Simulate one shot from an empty trap: the one-shot simulate_shots.

    rng, when given, must be np.random.default_rng(seed), fresh (as built by
    seeded_generators); by default it is built here.
    """
    if rng is None:
        rng = np.random.default_rng(int(seed))
    return simulate_shots(n_rb, params, schedule, [int(seed)], rngs=[rng])[0]


def simulate_bin(
    n_rb: float,
    params: PhysicalParams,
    schedule: ExperimentSchedule,
    master_seed: int,
    bin_index: int,
    traces: int,
) -> EventTable:
    """Simulate the traces of one companion-number bin, in trace order.

    Trace ti uses the seed derive_seed(master_seed, TRAJECTORY_STREAM,
    bin_index, ti). Seeds are derived for the whole bin at once.
    """
    seeds = derive_seeds(master_seed, TRAJECTORY_STREAM, bin_index, count=traces)
    return simulate_shots(n_rb, params, schedule, seeds)


def simulate_ensemble(
    grid: "np.ndarray | list[float]",
    traces_per_bin: int,
    params: PhysicalParams,
    schedule: ExperimentSchedule,
    master_seed: int,
) -> EventTable:
    """Simulate traces_per_bin trajectories at every companion-number grid point.

    Each bin comes from simulate_bin, so the ensemble is reproducible trace
    by trace and the result is independent of evaluation order. Shots are
    ordered by (grid point, trace index).
    """
    if traces_per_bin < 1:
        raise ValueError(f"traces_per_bin must be >= 1, got {traces_per_bin!r}")
    return EventTable.concat(
        simulate_bin(float(n_rb), params, schedule, master_seed, bi, traces_per_bin)
        for bi, n_rb in enumerate(grid)
    )
