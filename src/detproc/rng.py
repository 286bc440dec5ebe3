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


class SeededRng:
    """Counter-style seeded stream built on numpy's SeedSequence.

    The pair (seed, key) fully determines the stream: the same seed and
    the same sequence of calls always produce the same values. ``split``
    derives an independent child stream indexed by an integer, suitable
    for one-stream-per-replication parallelism.
    """

    def __init__(self, seed: int, key: tuple = ()):
        # numpy's SeedSequence takes no negative entry, so the seed and every
        # key entry are refused by name below 0
        self.seed = integer("seed", seed, 0)
        self.key = tuple(integer("key", k, 0) for k in key)
        self._gen = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=self.key)
        )

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def split(self, index: int) -> "SeededRng":
        """Independent child stream; children with distinct indices never collide."""
        return SeededRng(self.seed, self.key + (integer("index", index, 0),))

    def __repr__(self):
        return f"SeededRng(seed={self.seed}, key={self.key})"
