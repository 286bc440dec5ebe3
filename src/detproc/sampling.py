"""Exact samplers for determinantal processes.

Two independent routes are kept permanently: the inverse-CDF oracle over
the enumerated density table is the reference, and the sequential
projection sampler is the scalable path. Mutual agreement of the two is
the package's core trust mechanism for randomness.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import (
    Config,
    DensityTable,
    DppDensity,
    OrthonormalFamily,
    Spectrum,
)
from .rng import SeededRng

RANK_TOL = 1e-10


class SamplerConsistencyError(RuntimeError):
    """Numerical rank of the working basis disagrees with the remaining count."""


@dataclass(frozen=True)
class SampleSet:
    """Ordered draws plus the parameters and seed that produced them."""

    draws: tuple
    source_params: object
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "draws", tuple(self.draws))

    def __len__(self):
        return len(self.draws)

    def __iter__(self):
        return iter(self.draws)

    def masks(self) -> np.ndarray:
        cached = getattr(self, "_masks", None)
        if cached is None:
            cached = np.array([d.mask for d in self.draws], dtype=np.int64)
            cached.setflags(write=False)
            object.__setattr__(self, "_masks", cached)
        return cached

    def write_csv(self, path):
        """CSV export: draw_index,config_bitmask."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["draw_index", "config_bitmask"])
            for i, draw in enumerate(self.draws):
                writer.writerow([i, draw.mask])


def sample_active_set(spectrum: Spectrum, rng: SeededRng) -> tuple:
    """Independent Bernoulli(lambda_j^2) inclusion of each index."""
    u = rng.generator.random(spectrum.r)
    return tuple(int(j + 1) for j in np.nonzero(u < spectrum.values**2)[0])


def sample_projection_sequential(family: OrthonormalFamily, active,
                                 rng: SeededRng) -> Config:
    """One draw of the fixed-cardinality law by sequential conditioning.

    Maintains an orthonormal basis B of the active span. Each step picks a
    point x with probability (row norms of B at x)^2 / remaining rank, then
    deflates B to an orthonormal basis of the subspace vanishing at x.
    """
    active = family.check_active(active)
    if not active:
        return Config()
    gen = rng.generator
    basis = np.array(family.columns[:, [j - 1 for j in active]])
    picked = []
    for remaining in range(len(active), 0, -1):
        if basis.shape[1] != remaining:
            raise SamplerConsistencyError(
                f"basis rank {basis.shape[1]} but {remaining} points remain"
            )
        weights = np.sum(np.abs(basis) ** 2, axis=1)
        total = weights.sum()
        if total <= RANK_TOL:
            raise SamplerConsistencyError("working basis collapsed to zero mass")
        x = int(gen.choice(family.p, p=weights / total))
        picked.append(x + 1)
        if remaining == 1:
            break
        # coefficients c with (B c)(x) = 0 form the complement of w in C^m
        w = basis[x, :].conj()
        norm_w = np.linalg.norm(w)
        if norm_w <= RANK_TOL:
            raise SamplerConsistencyError("picked a point where the span vanishes")
        m = basis.shape[1]
        block = np.concatenate([w[:, None], np.eye(m, dtype=complex)], axis=1)
        q = np.linalg.qr(block, mode="reduced")[0]
        basis = basis @ q[:, 1:m]
    return Config(picked)


def sample_table(table: DensityTable, count: int, rng: SeededRng) -> SampleSet:
    """count exact inverse-CDF draws from a density table."""
    if count < 1:
        raise ValueError("count must be >= 1")
    cdf = np.cumsum(table.probs)
    cdf[-1] = max(cdf[-1], 1.0)
    u = rng.generator.random(count)
    masks = np.searchsorted(cdf, u, side="right")
    return SampleSet(
        tuple(Config.from_mask(int(m)) for m in masks), table, rng.seed
    )


def sample_dpp(density: DppDensity, n: int, rng: SeededRng) -> SampleSet:
    """n independent draws by the two-step scheme: Bernoulli indices, then
    a sequential projection draw on the realized index set."""
    if n < 1:
        raise ValueError("n must be >= 1")
    draws = []
    for _ in range(n):
        active = sample_active_set(density.spectrum, rng)
        draws.append(sample_projection_sequential(density.family, active, rng))
    return SampleSet(tuple(draws), density, rng.seed)


def empirical_table(samples: SampleSet, p: int) -> np.ndarray:
    """Empirical frequencies indexed by bitmask (not a DensityTable: it is
    an estimate, not an exact density)."""
    return np.bincount(samples.masks(), minlength=1 << p) / len(samples)


def total_variation(probs_a: np.ndarray, probs_b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(probs_a) - np.asarray(probs_b)).sum())
