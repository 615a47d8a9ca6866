"""Batched seeding against numpy's scalar seeding.

derive_seeds must equal derive_seed element by element, and every Generator
from seeded_generators must start in the state of np.random.default_rng of
its seed. Masters of 2**32 and above take several entropy words; seeds below
2**32 take one. A count must be an integer: a float or a bool is refused,
never rounded. A campaign's two streams are seeded in one function of the
package, photon.simulate_grid_bins.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import motprobe
from motprobe.config import RunConfig
from motprobe.gillespie import derive_seed, derive_seeds, seeded_generators
from motprobe.photon import simulate_grid_bins

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
    generators = list(seeded_generators(seeds))
    assert len(generators) == len(seeds)
    for seed, rng in zip(seeds, generators):
        reference = np.random.default_rng(int(seed))
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.random(16).tolist() == reference.random(16).tolist()


@pytest.mark.parametrize("master", MASTERS)
def test_generators_match_default_rng(master):
    assert_same_as_default_rng(derive_seeds(master, 0, 3, count=200))


def test_generators_at_edge_seeds():
    assert_same_as_default_rng(np.array(EDGE_SEEDS, dtype=np.uint64))
    assert_same_as_default_rng(EDGE_SEEDS)


def test_generators_are_built_lazily():
    it = seeded_generators(derive_seeds(1, 2, count=3))
    first = next(it)
    assert isinstance(first, np.random.Generator)
    assert len(list(it)) == 2


def test_negative_master_is_rejected_like_derive_seed():
    with pytest.raises(ValueError):
        derive_seed(-1, 0)
    with pytest.raises(ValueError):
        derive_seeds(-1, 0, count=5)


def test_zero_count_yields_nothing():
    seeds = derive_seeds(1234, 0, 0, count=0)
    assert seeds.shape == (0,)
    assert list(seeded_generators(seeds)) == []


@pytest.mark.parametrize("count", [2.5, 3.0, True, False, np.bool_(True), "3", None])
def test_count_that_is_not_an_integer_is_refused(count):
    with pytest.raises(ValueError, match="count must be an integer"):
        derive_seeds(1, 2, count=count)


@pytest.mark.parametrize("count", [np.int64(3), np.uint32(3), np.intp(3)])
def test_numpy_integer_count_is_taken(count):
    assert derive_seeds(1, 2, count=count).tolist() == derive_seeds(1, 2, count=3).tolist()


def test_simulate_grid_bins_refuses_a_fractional_trace_count():
    """simulate_grid_bins passes traces_per_bin to derive_seeds as the
    count, so a fractional one that skipped from_dict's check is refused
    on the first next(), before any bin is yielded."""
    cfg = replace(RunConfig.default(), traces_per_bin=2.5)
    bins = simulate_grid_bins(cfg, [0, 1])
    with pytest.raises(ValueError, match="count must be an integer, got 2.5"):
        next(bins)


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
