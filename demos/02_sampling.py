"""Exact sampling, two independent ways.

The sequential sampler draws one point at a time from the conditional law
of a projection process, deflating the working basis after each pick; the
oracle sampler inverts the CDF of the exhaustively enumerated table. Their
mutual agreement (and agreement with the table) is the package's trust
mechanism for randomness.

Run: python demos/02_sampling.py
"""
import numpy as np

from detproc import (
    Config,
    DppDensity,
    SeededRng,
    density_table,
    empirical_table,
    haar_orthonormal,
    random_spectrum,
    sample_dpp,
    sample_table,
    total_variation,
)

rng = SeededRng(1)
p, r, n = 6, 3, 50_000

fam = haar_orthonormal(p, r, rng.split(0))
spec = random_spectrum(r, rng.split(1))
density = DppDensity(fam, spec)
table = density_table(density)

print(f"drawing {n} samples with each sampler (p={p}, r={r})...")
seq = sample_dpp(density, n, rng.split(2))
orc = sample_table(table, n, rng.split(3))

emp_seq = empirical_table(seq, p)
emp_orc = empirical_table(orc, p)
print(f"TV(sequential, exact table) = {total_variation(emp_seq, table.probs):.4f}")
print(f"TV(oracle,     exact table) = {total_variation(emp_orc, table.probs):.4f}")
print(f"TV(sequential, oracle)      = {total_variation(emp_seq, emp_orc):.4f}")

# draws are int64 bitmasks: bit i-1 set iff point i is drawn
sizes = np.bincount([bin(m).count("1") for m in seq.masks().tolist()],
                    minlength=r + 1)
print(f"\ncardinality histogram (sequential): {sizes.tolist()}")
print("expected cardinality law: sum of independent Bernoulli(lambda_j^2)")

# Determinism: the same seed reproduces the draws bit for bit.
again = sample_dpp(density, 5, SeededRng(1).split(2))
print(f"\nfirst five draws, twice with the same seed:")
for draws in (seq, again):
    first = draws.masks()[:5].tolist()
    print(f"  {[Config.from_mask(m).members for m in first]}")
