"""Seeding against numpy's.

Every seed of the package comes from gillespie.derive_seed, numpy's
SeedSequence over (master, *path), the only SeedSequence call of the
package, and the generator of every seed group simulate_groups steps must
be np.random.default_rng of its seed, whatever the seed's size or type.
Masters of 2**32 and above take several entropy words; seeds below 2**32
take one. A campaign's two streams are seeded in one function of the
package, photon.simulate_grid_bins, with two derive_seed calls per bin:
one trajectory seed group and one photon seed per bin, neither of which
carries a trace index.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import motprobe
from motprobe import photon
from motprobe.config import ConfigError, RunConfig
from motprobe.gillespie import (
    PHOTON_STREAM,
    TRAJECTORY_STREAM,
    derive_seed,
    simulate_groups,
)
from motprobe.photon import simulate_campaign, simulate_grid_bins, synthesize_bin
from reference import replay_group

MASTERS = [0, 1, 777, 1234, 4242, 2**32 - 1, 2**32, 2**64 - 1, 2**70 + 3]
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


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
    assert_same_as_default_rng([derive_seed(master, 0, 3, i) for i in range(50)])


def test_generators_at_edge_seeds():
    assert_same_as_default_rng(np.array(EDGE_SEEDS, dtype=np.uint64))
    assert_same_as_default_rng(EDGE_SEEDS)


def test_negative_master_is_rejected_like_derive_seed():
    with pytest.raises(ValueError):
        derive_seed(-1, 0)


SMALL = replace(RunConfig.default(), traces_per_bin=5, master_seed=99)


def bin_photon_generator(master, bi):
    """The generator a campaign bin's counts are drawn on: default_rng of
    the photon seed of its master seed and bin index."""
    return np.random.default_rng(derive_seed(master, PHOTON_STREAM, bi))


def test_a_run_is_seeded_as_its_bins_alone():
    """A run with a repeat, out of order, gives each bin the seeds of its
    coordinates, counts drawn on the one generator of its photon seed, and
    the output of its own one-bin run."""
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


def test_a_run_derives_two_seeds_per_bin(monkeypatch):
    """simulate_grid_bins makes one derive_seed call per bin of each stream,
    with the bin's coordinates and no trace index, whatever the run: a
    seed derived per shot would show."""
    calls = []

    def counted(master_seed, *path):
        calls.append((master_seed, *path))
        return derive_seed(master_seed, *path)

    monkeypatch.setattr(photon, "derive_seed", counted)
    cfg = replace(SMALL, traces_per_bin=2)
    for run in ([4], [0, 1, 2], list(range(16)) + [3, 3]):
        calls.clear()
        bins = list(simulate_grid_bins(cfg, run))
        assert len(bins) == len(run)
        want = [(99, stream, bi) for bi in run for stream in (TRAJECTORY_STREAM, PHOTON_STREAM)]
        assert sorted(calls) == sorted(want)


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


def is_campaign_seeding_call(node):
    """A derive_seed call that is handed a campaign stream tag."""
    if not isinstance(node, ast.Call):
        return False
    name = getattr(node.func, "id", getattr(node.func, "attr", None))
    names = {n.id for arg in node.args for n in ast.walk(arg) if isinstance(n, ast.Name)}
    return name == "derive_seed" and bool(names & CAMPAIGN_STREAMS)


def names_seed_sequence(node):
    """Any reference to SeedSequence: an attribute, a bare name or an
    imported name."""
    return (
        isinstance(node, ast.Attribute) and node.attr == "SeedSequence"
        or isinstance(node, ast.Name) and node.id == "SeedSequence"
        or isinstance(node, ast.ImportFrom) and any(a.name == "SeedSequence" for a in node.names)
    )


def package_homes(matches):
    """(module, innermost enclosing function or None) of every node of the
    package's modules for which matches holds."""
    homes = set()
    for path in sorted(Path(motprobe.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [
            f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in filter(matches, ast.walk(tree)):
            around = [f for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
            home = max(around, key=lambda f: f.lineno).name if around else None
            homes.add((path.stem, home))
    return homes


def test_campaign_streams_are_seeded_in_one_function():
    """A campaign is seeded in photon.simulate_grid_bins and nowhere else:
    no other function of the package, and no module-level code, hands
    TRAJECTORY_STREAM or PHOTON_STREAM to derive_seed."""
    assert package_homes(is_campaign_seeding_call) == {("photon", "simulate_grid_bins")}


def test_seed_sequence_is_used_in_one_function():
    """numpy's SeedSequence appears in the package only inside
    gillespie.derive_seed, so every seed of the package is derived there."""
    assert package_homes(names_seed_sequence) == {("gillespie", "derive_seed")}
