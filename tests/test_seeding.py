"""Batched seeding against numpy's scalar seeding.

derive_seeds must equal derive_seed element by element, and the generator
of every seed group simulate_groups steps must be np.random.default_rng of
its seed, whatever the seed's size or type. Masters of 2**32 and above take
several entropy words; seeds below 2**32 take one. A count must be an
integer: a float or a bool is refused, never rounded. One prefix entry may
be an array of indices below 2**32, giving one row of seeds per index. A
campaign's two streams are seeded in one function of the package,
photon.simulate_grid_bins, with a fixed number of hash passes per run of
bins: one trajectory seed group and one photon seed per bin, neither of
which carries a trace index.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import motprobe
from motprobe import gillespie
from motprobe.config import ConfigError, RunConfig
from motprobe.gillespie import (
    PHOTON_STREAM,
    TRAJECTORY_STREAM,
    derive_seed,
    derive_seeds,
    simulate_groups,
)
from motprobe.photon import simulate_campaign, simulate_grid_bins, synthesize_bin
from reference import replay_group

MASTERS = [0, 1, 777, 1234, 4242, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 3]
PREFIXES = [(0, 3), (1, 11), (2,), (3,), ()]
COUNT = 1000
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@pytest.mark.parametrize("master", MASTERS)
@pytest.mark.parametrize("prefix", PREFIXES)
def test_derive_seeds_matches_scalar(master, prefix):
    seeds = derive_seeds(master, *prefix, count=COUNT)
    assert seeds.dtype == np.uint64
    assert seeds.tolist() == [derive_seed(master, *prefix, i) for i in range(COUNT)]


def assert_same_as_default_rng(seeds):
    """Each seed, as the seed of a two-shot group, gives the events of the
    group replayed on np.random.default_rng(int(seed))."""
    lanes = [(1100.0, SMALL.physics)]
    tables = simulate_groups([(lanes, seed, 2) for seed in seeds], SMALL.schedule)
    assert len(tables) == len(seeds)
    for seed, (table,) in zip(seeds, tables):
        assert table.seed.tolist() == [int(seed)] * 2
        (want,) = replay_group(lanes, SMALL.schedule, int(seed), 2)
        assert [traj.events for traj in table] == want


@pytest.mark.parametrize("master", MASTERS)
def test_generators_match_default_rng(master):
    assert_same_as_default_rng(derive_seeds(master, 0, 3, count=50))


def test_generators_at_edge_seeds():
    assert_same_as_default_rng(np.array(EDGE_SEEDS, dtype=np.uint64))
    assert_same_as_default_rng(EDGE_SEEDS)


def test_negative_master_is_rejected_like_derive_seed():
    with pytest.raises(ValueError):
        derive_seed(-1, 0)
    with pytest.raises(ValueError):
        derive_seeds(-1, 0, count=5)


def test_zero_count_yields_nothing():
    seeds = derive_seeds(1234, 0, 0, count=0)
    assert seeds.shape == (0,)


@pytest.mark.parametrize("count", [2.5, 3.0, True, False, np.bool_(True), "3", None])
def test_count_that_is_not_an_integer_is_refused(count):
    with pytest.raises(ValueError, match="count must be an integer"):
        derive_seeds(1, 2, count=count)


@pytest.mark.parametrize("count", [np.int64(3), np.uint32(3), np.intp(3)])
def test_numpy_integer_count_is_taken(count):
    assert derive_seeds(1, 2, count=count).tolist() == derive_seeds(1, 2, count=3).tolist()


@pytest.mark.parametrize("master", [0, 1234, 2**32, 2**70 + 3])
@pytest.mark.parametrize("index", [
    [5, 2, 5], [0], [], [2**32 - 1, 0, 7, 2**31], np.array([3, 1, 3, 0], dtype=np.uint8),
])
def test_array_prefix_matches_scalar(master, index):
    """Row r of an array-prefix call is the scalar form with index[r] in
    the array's place, in any order and with repeats."""
    for prefix in ([TRAJECTORY_STREAM, index], [PHOTON_STREAM, index, 9], [index]):
        seeds = derive_seeds(master, *prefix, count=6)
        assert seeds.dtype == np.uint64
        assert seeds.shape == (len(index), 6)
        for r, bi in enumerate(np.asarray(index).tolist()):
            path = [bi if p is index else p for p in prefix]
            assert seeds[r].tolist() == [derive_seed(master, *path, i) for i in range(6)]


@pytest.mark.parametrize("index, match", [
    ([1, -1], r"in \[0, 2\*\*32\), got -1"),
    ([2**32], r"in \[0, 2\*\*32\), got 4294967296"),
    (np.array([0, 2**40], dtype=np.int64), r"in \[0, 2\*\*32\), got 1099511627776"),
    ([1.0, 2.0], "1-D integer array"),
    ([True, False], "1-D integer array"),
    ([[1, 2]], "1-D integer array"),
    ([2**70], "1-D integer array"),
])
def test_bad_array_prefix_is_refused(index, match):
    with pytest.raises(ValueError, match=match):
        derive_seeds(1, 0, index, count=3)


def test_two_array_prefixes_are_refused():
    with pytest.raises(ValueError, match="at most one prefix entry may be an array"):
        derive_seeds(1, [0, 1], [2, 3], count=3)


SMALL = replace(RunConfig.default(), traces_per_bin=5, master_seed=99)


def bin_photon_generator(master, bi):
    """The generator a campaign bin's counts are drawn on: default_rng of
    the scalar photon seed of its master seed and bin index."""
    return np.random.default_rng(derive_seed(master, PHOTON_STREAM, bi))


def test_a_run_is_seeded_as_its_bins_alone():
    """A run with a repeat, out of order, gives each bin the scalar seeds of
    its coordinates, counts drawn on the one generator of its scalar photon
    seed, and the output of its own one-bin run."""
    run = list(simulate_grid_bins(SMALL, [5, 2, 5]))
    assert [b.trace_ids[0] for b in run] == ["b05t0000", "b02t0000", "b05t0000"]
    for b, bi in zip(run, [5, 2, 5]):
        seed = derive_seed(99, TRAJECTORY_STREAM, bi)
        assert b.events.seed.tolist() == [seed] * 5
        (want,) = replay_group([(b.n_rb, SMALL.physics)], SMALL.schedule, seed, 5)
        assert [traj.events for traj in b.events] == want
        rng = bin_photon_generator(99, bi)
        drawn = synthesize_bin(b.events, SMALL.calibration, b.segments, rng)
        np.testing.assert_array_equal(b.counts, drawn)
        (alone,) = simulate_grid_bins(SMALL, [bi])
        np.testing.assert_array_equal(b.counts, alone.counts)
        np.testing.assert_array_equal(b.events.time, alone.events.time)


@pytest.mark.parametrize("master", [0, 1234, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 3])
def test_a_bins_photon_seed_carries_no_trace_index(master):
    """Bin bi's counts are drawn on default_rng(derive_seed(master,
    PHOTON_STREAM, bi)). Below 2**32 that seed equals derive_seed(master,
    PHOTON_STREAM, bi, 0), since SeedSequence pads short entropy with zero
    words; the masters from 2**32 up tell the two apart."""
    cfg = replace(SMALL, master_seed=master, traces_per_bin=2)
    run = [5, 2, 5]
    for b, bi in zip(simulate_grid_bins(cfg, run), run):
        rng = bin_photon_generator(master, bi)
        drawn = synthesize_bin(b.events, cfg.calibration, b.segments, rng)
        np.testing.assert_array_equal(b.counts, drawn)
    if master >= 2**32:
        assert derive_seed(master, PHOTON_STREAM, 5) != derive_seed(master, PHOTON_STREAM, 5, 0)


@pytest.mark.parametrize("master", [0, 1234, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 3])
def test_a_bins_trajectory_seed_carries_no_trace_index(master):
    """Bin bi's shots are the seed group of derive_seed(master,
    TRAJECTORY_STREAM, bi): every shot carries that seed, and the bin's
    events are the group's one-group call."""
    cfg = replace(SMALL, master_seed=master, traces_per_bin=3)
    run = [5, 2, 5]
    for b, bi in zip(simulate_grid_bins(cfg, run), run):
        seed = derive_seed(master, TRAJECTORY_STREAM, bi)
        assert b.events.seed.tolist() == [seed] * 3
        ((alone,),) = simulate_groups([([(b.n_rb, cfg.physics)], seed, 3)], cfg.schedule)
        np.testing.assert_array_equal(b.events.time, alone.time)
        np.testing.assert_array_equal(b.events.kind, alone.kind)


def test_seed_hashing_does_not_grow_with_the_run(monkeypatch):
    """simulate_grid_bins hashes each stream's seeds of a whole run in a
    fixed number of passes, whatever the number of bins."""
    calls = []
    real = gillespie._seed_state

    def counted(entropy, n_words):
        calls.append(n_words)
        return real(entropy, n_words)

    monkeypatch.setattr(gillespie, "_seed_state", counted)
    per_run = []
    for run in ([4], [0, 1, 2], list(range(16)) + [3, 3]):
        calls.clear()
        bins = list(simulate_grid_bins(replace(SMALL, traces_per_bin=2), run))
        assert len(bins) == len(run)
        per_run.append(len(calls))
    assert per_run == [per_run[0]] * 3


def test_a_campaign_builds_at_most_two_generators_per_bin(monkeypatch):
    """A default campaign builds one trajectory generator and one photon
    generator per bin, whether by np.random.default_rng or by
    np.random.Generator itself: a generator built per shot would show."""
    built = []
    default_rng = np.random.default_rng

    class CountedGenerator(np.random.Generator):
        def __init__(self, *args, **kwargs):
            built.append("Generator")
            super().__init__(*args, **kwargs)

    def counted_default_rng(*args, **kwargs):
        built.append("default_rng")
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted_default_rng)
    monkeypatch.setattr(np.random, "Generator", CountedGenerator)
    cfg = RunConfig.default()
    table = simulate_campaign(cfg)
    bins = len(cfg.grid.values())
    assert len(table.trace_ids) == bins * cfg.traces_per_bin > 2 * bins
    assert 0 < len(built) <= 2 * bins, built


def test_a_fractional_trace_count_is_refused_at_replace():
    """RunConfig checks its own scalars, so a fractional traces_per_bin
    never reaches simulate_grid_bins, even by dataclasses.replace."""
    with pytest.raises(ConfigError, match="traces_per_bin must be an integer, got 2.5"):
        replace(RunConfig.default(), traces_per_bin=2.5)


CAMPAIGN_STREAMS = {"TRAJECTORY_STREAM", "PHOTON_STREAM"}


def campaign_seeding_calls(tree):
    """Every derive_seed or derive_seeds call of a module's syntax tree that
    is handed a campaign stream tag."""
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        name = getattr(call.func, "id", getattr(call.func, "attr", None))
        names = {n.id for arg in call.args for n in ast.walk(arg) if isinstance(n, ast.Name)}
        if name in ("derive_seed", "derive_seeds") and names & CAMPAIGN_STREAMS:
            yield call


def test_campaign_streams_are_seeded_in_one_function():
    """A campaign is seeded in photon.simulate_grid_bins and nowhere else:
    no other function of the package, and no module-level code, hands
    TRAJECTORY_STREAM or PHOTON_STREAM to derive_seeds."""
    homes = set()
    for path in sorted(Path(motprobe.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [
            f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for call in campaign_seeding_calls(tree):
            around = [f for f in funcs if f.lineno <= call.lineno <= f.end_lineno]
            home = max(around, key=lambda f: f.lineno).name if around else None
            homes.add((path.stem, home))
    assert homes == {("photon", "simulate_grid_bins")}
