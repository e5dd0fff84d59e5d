"""The package's one seeded generator and its labeled streams."""

import numpy as np
import pytest

from hessavg import rng as rng_mod


def _philox_of(seed_sequence):
    return np.random.Generator(np.random.Philox(seed_sequence))


@pytest.mark.parametrize("seed", [0, 5, 2**40], ids=["0", "5", "2**40"])
def test_an_int_seed_draws_the_bits_of_its_seed_sequence(seed):
    # the builders seeded Philox(SeedSequence(seed)) before they shared this function
    assert np.array_equal(rng_mod.generator(seed).random(64), _philox_of(np.random.SeedSequence(seed)).random(64))


def test_a_spawned_sequence_draws_its_own_bits():
    child = np.random.SeedSequence(7).spawn(2)[1]
    again = np.random.SeedSequence(7).spawn(2)[1]
    assert np.array_equal(rng_mod.generator(child).random(8), _philox_of(again).random(8))
    assert np.array_equal(rng_mod.stream(3, "hessian").random(8), _philox_of(np.random.SeedSequence(3, spawn_key=(2,))).random(8))


def test_a_negative_seed_is_numpys_value_error():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        rng_mod.generator(-1)


def test_no_seed_is_refused():
    # numpy would seed from the operating system, and the draws would not repeat
    with pytest.raises(TypeError, match="needs a seed"):
        rng_mod.generator(None)


def test_an_unknown_stream_label_is_refused():
    with pytest.raises(KeyError, match="unknown stream label 'data'"):
        rng_mod.stream(0, "data")
