"""Seeded, splittable random streams.

Every random routine in this package takes a SeededRng argument; there is
no global generator. Parallel work gets one child stream per task via
``split``, so results do not depend on scheduling order.
"""
from __future__ import annotations

import numpy as np
# numpy 2 loads numpy.random lazily, on first attribute access; load it with
# the package so its import is not charged to the first SeededRng.
import numpy.random

from .core import integer


def natural(key, value) -> int:
    """value read by core.integer, refused by key name if negative: numpy's
    SeedSequence takes no negative entry."""
    value = integer(key, value)
    if value < 0:
        raise ValueError(f"{key} must be >= 0, got {value}")
    return value


class SeededRng:
    """Counter-style seeded stream built on numpy's SeedSequence.

    The pair (seed, key) fully determines the stream: the same seed and
    the same sequence of calls always produce the same values. ``split``
    derives an independent child stream indexed by an integer, suitable
    for one-stream-per-replication parallelism.
    """

    def __init__(self, seed: int, key: tuple = ()):
        self.seed = natural("seed", seed)
        self.key = tuple(natural("key", k) for k in key)
        self._gen = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=self.key)
        )

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def split(self, index: int) -> "SeededRng":
        """Independent child stream; children with distinct indices never collide."""
        return SeededRng(self.seed, self.key + (natural("index", index),))

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, key={self.key})"
