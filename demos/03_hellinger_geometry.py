"""Hellinger geometry of determinantal densities.

Computes exact distances between densities, checks the parameter-space
distance inequalities (with their explicit constants) on random instances,
and demonstrates the minor-coordinate map whose modulus vector is
isometric to rank-k projection densities under sqrt(2) * Hellinger.

Run: python demos/03_hellinger_geometry.py
"""
import numpy as np

from detproc import (
    DppDensity,
    SeededRng,
    bernoulli_weight_hellinger,
    check_bound_dpp,
    check_bound_projection,
    density_table,
    gplus_delta,
    haar_orthonormal,
    hellinger,
    random_spectrum,
    wedge_coords,
)

rng = SeededRng(2)
p, k = 6, 2

fam_a = haar_orthonormal(p, k, rng.split(0))
fam_b = haar_orthonormal(p, k, rng.split(1))
lam = random_spectrum(k, rng.split(2))
gam = random_spectrum(k, rng.split(3))

# Exact distance between the two full mixtures.
h2, affinity = hellinger(
    density_table(DppDensity(fam_a, lam)),
    density_table(DppDensity(fam_b, gam)),
)
print(f"exact h^2 between two random mixtures: {h2:.6f} (affinity {affinity:.6f})")

# Closed form for the distance between the Bernoulli weight distributions.
print(f"weight-distribution h^2 (closed form): "
      f"{bernoulli_weight_hellinger(lam, gam):.6f}")

# Distance inequalities: exact lhs against parameter-space rhs.
print("\nprojection-density inequality reports:")
for rep in check_bound_projection(fam_a, fam_b, (1, 2)):
    print(f"  {rep.context}: lhs={rep.lhs:.6f} rhs={rep.rhs:.6f} "
          f"slack={rep.slack:+.6f}")

print("full-mixture inequality reports:")
for rep in check_bound_dpp(fam_a, lam, fam_b, gam):
    print(f"  {rep.context}: lhs={rep.lhs:.6f} rhs={rep.rhs:.6f} "
          f"slack={rep.slack:+.6f}")

# Minor coordinates: the vector of k x k minor moduli lives on the unit
# sphere, and the distance between modulus vectors is exactly 2 h^2.
wa = wedge_coords(fam_a, k)
delta2, h2 = gplus_delta(fam_a, fam_b, k)
print(f"\nminor coordinates: their squares sum to "
      f"{float(np.sum(wa ** 2)):.12f}")
print(f"Delta^2 = {delta2:.6f}, 2 h^2 = {2.0 * h2:.6f}, "
      f"gap = {abs(delta2 - 2.0 * h2):.2e} (isometry)")
