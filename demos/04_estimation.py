"""Density estimation by testing over a net-based candidate family.

Builds separated nets on the unit sphere of a model subspace, combines
sets of net points (projected to the nearest orthonormal tuple) with a uniform
weight grid into a candidate family carrying a sub-probability prior,
then selects by pairwise signed-root tests: the winner minimizes the
largest distance to any candidate that beats it.

Run: python demos/04_estimation.py
"""
import math

import numpy as np

from detproc import (
    CandidateCaps,
    DppDensity,
    SeededRng,
    Spectrum,
    SubspaceModel,
    build_candidates,
    density_table,
    haar_orthonormal,
    hellinger,
    oracle_bound,
    sample_table,
    select,
)

rng = SeededRng(3)
p, k, n = 8, 2, 1000

# Unknown truth: a rank-k projection density.
truth_fam = haar_orthonormal(p, k, rng.split(0))
truth = DppDensity(truth_fam, Spectrum.ones(k))
truth_table = density_table(truth)
samples = sample_table(truth_table, n, rng.split(1))
print(f"truth: rank-{k} projection density on {{1..{p}}}, n = {n} samples")

# One model: the full space, Dirac prior. Nets at separation 1/sqrt(n),
# anchored at the truth so the family contains it plus near neighbors
# (emulating what a maximal net would hold around the truth).
model = SubspaceModel(np.eye(p, dtype=complex), id=0)
caps = CandidateCaps(j_max=2, per_net=4, family_max=40)
family = build_candidates([model], {0: 1.0}, n, caps, rng.split(2),
                          pool_size=64, anchor=truth_fam, anchor_jitter=1)
print(f"candidate family: {len(family)} densities, "
      f"prior mass = {family.prior_mass():.3e}, truncated = {family.truncated}")

result = select(family, samples)
chosen = family.entries[result.chosen_index]
h2, _ = hellinger(truth_table, chosen.table())
print(f"selected candidate #{result.chosen_index} "
      f"(index {chosen.index}, prior {chosen.prior:.2e})")
print(f"h^2(truth, selected) = {h2:.3e}")
print(f"crit of selected = {result.crit_values[result.chosen_index]:.4f}")

bound = oracle_bound(truth_fam, Spectrum.ones(k), [model], {0: 1.0}, n, k)
print(f"\ntheoretical bound (subspace form): {bound:.4f}")
print(f"which is k * 2p * log(n) / n = "
      f"{k * 2 * p * math.log(n) / n:.4f} for the full-space model")
