"""Labeled, counter-based random streams.

Each run owns independent streams for initialization, gradient batches,
Hessian batches, and Hutchinson probes, all derived from one integer seed.
Streams are keyed by a fixed label table, so adding a consumer of one
stream never perturbs the draws seen by another.

:func:`generator` is the package's one seeded generator: every seeded draw,
a run's streams and the problems', samplers' and splits' own, comes from it,
and this is the one module that names the bit generator.
"""

from __future__ import annotations

import numpy as np

STREAM_IDS = {
    "init": 0,
    "gradient": 1,
    "hessian": 2,
    "probes": 3,
}


def generator(seed) -> np.random.Generator:
    """The Philox generator seeded by ``seed``, an int or a ``SeedSequence``;
    an int seeds as ``SeedSequence(seed)`` does, and a negative one is numpy's
    ValueError. ``None``, which numpy would seed from the operating system,
    is refused."""
    if seed is None:
        raise TypeError("a seeded generator needs a seed, got None")
    return np.random.Generator(np.random.Philox(seed))


def stream(seed: int, label: str) -> np.random.Generator:
    """Return the labeled Philox stream for ``seed``."""
    if label not in STREAM_IDS:
        raise KeyError(f"unknown stream label {label!r}; expected one of {sorted(STREAM_IDS)}")
    return generator(np.random.SeedSequence(entropy=int(seed), spawn_key=(STREAM_IDS[label],)))


def streams(seed: int) -> dict[str, np.random.Generator]:
    """All labeled streams for one run seed."""
    return {label: stream(seed, label) for label in STREAM_IDS}
