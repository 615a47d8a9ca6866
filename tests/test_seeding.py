"""Batched seeding against numpy's scalar seeding.

derive_seeds must equal derive_seed element by element, and every Generator
from seeded_generators must start in the state of np.random.default_rng of
its seed. Masters of 2**32 and above take several entropy words; seeds below
2**32 take one. A count must be an integer: a float or a bool is refused,
never rounded.
"""

import numpy as np
import pytest

from motprobe.config import RunConfig
from motprobe.gillespie import (
    ExperimentSchedule,
    derive_seed,
    derive_seeds,
    seeded_generators,
    simulate_bin,
)

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


def test_simulate_bin_refuses_a_fractional_trace_count():
    """simulate_bin passes its traces to derive_seeds as the count."""
    with pytest.raises(ValueError, match="count must be an integer, got 2.5"):
        simulate_bin(440.0, RunConfig.default().physics, ExperimentSchedule(), 1, 0, 2.5)
