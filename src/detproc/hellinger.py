"""Exact Hellinger geometry of determinantal densities.

Everything here is exact enumeration (no sampling estimators). It computes
distances and affinities between density tables, the distance between two
Bernoulli weight distributions, numerical verification of the
three distance inequalities (projection, mixture, full-mixture forms), and
the minor-vector coordinates whose modulus map is isometric to rank-k
projection densities under sqrt(2) * Hellinger. Every minor modulus here,
those coordinates included, is a row of OrthonormalFamily.minors(k), the
one store per family the tables are built from; the one determinant taken
in this module is the Gram bound's in check_bound_projection. Tables and
coordinates are arrays indexed by bitmask or in core.subsets order. Every
h^2 in the package, here and in the estimator's selection, comes from one
kernel, _h2, over arrays of square roots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    TABLE_TOL,
    DensityTable,
    DppDensity,
    OrthonormalFamily,
    ProjectionDensity,
    Spectrum,
    density_table,
    index_set_weights,
    integer,
)

SLACK_TOL = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """Both sides of one inequality instance; slack distributions are artifacts."""

    lhs: float
    rhs: float
    context: str

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.slack >= -SLACK_TOL


def _h2(roots_a: np.ndarray, roots_b: np.ndarray):
    """h^2 = 1 - clip(roots_a . roots_b^T, 0, 1) from arrays of square roots.

    Two vectors of square roots of two distributions (table entries, minor
    moduli, mixture weights) give a float; two stacks of them, one
    distribution per row, give the matrix of every pair. The one place in
    the package where an affinity becomes h^2: the clip keeps rounding from
    pushing h^2 below 0 or above 1, and keeps a NaN affinity NaN. It is
    np.minimum of np.maximum: np.clip's values, with less per-call overhead.
    """
    h2 = 1.0 - np.minimum(np.maximum(roots_a @ roots_b.T, 0.0), 1.0)
    return float(h2) if h2.ndim == 0 else h2


def hellinger(table_p: DensityTable, table_q: DensityTable):
    """Squared Hellinger distance and affinity between two tables.

    Returns (h2, affinity) with h2 = 1 - sum sqrt(P) sqrt(Q) (clipped to
    [0, 1]) and affinity = 1 - h2.
    """
    if table_p.ground.p != table_q.ground.p:
        raise ValueError("tables live on different ground sets")
    h2 = _h2(np.sqrt(table_p.probs), np.sqrt(table_q.probs))
    return h2, 1.0 - h2


def bernoulli_weight_hellinger(lam: Spectrum, gam: Spectrum) -> float:
    """Exact h^2 between the two weight distributions over index sets.

    Index j is in the set with probability l_j^2, independently; both laws
    are core.index_set_weights, the weights of the mixture sum, so the
    affinity is prod_j (l_j g_j + sqrt(1-l_j^2) sqrt(1-g_j^2)) up to
    rounding. The shorter spectrum, if any, is padded with zeros.
    """
    if lam.r != gam.r:
        r = max(lam.r, gam.r)
        lam, gam = (Spectrum(np.concatenate([s.values, np.zeros(r - s.r)]))
                    for s in (lam, gam))
    return _h2(np.sqrt(index_set_weights(lam)), np.sqrt(index_set_weights(gam)))


# ---------------------------------------------------------------------------
# minor-vector (blade) coordinates

def wedge_coords(family: OrthonormalFamily, k: int) -> np.ndarray:
    """|det| of the (alpha, {1..k}) blocks over every size-k alpha, in
    core.subsets order: the read-only row family.moduli((1, ..., k)) of the
    family's minor store. For an orthonormal family the squares sum to 1
    and are the rank-k projection density."""
    k = integer("k", k, 0, family.r)
    return family.moduli(tuple(range(1, k + 1)))


def gplus_delta(fam_a: OrthonormalFamily, fam_b: OrthonormalFamily, k: int):
    """Squared distance between the modulus vectors wedge_coords(fam_a, k)
    and wedge_coords(fam_b, k), and the h^2 it is checked against.

    Returns (delta2, h2); for orthonormal families the isometry gap
    |delta2 - 2 h2| vanishes up to enumeration round-off.
    """
    if fam_a.p != fam_b.p:
        raise ValueError("families live on different ground sets")
    mod_a, mod_b = wedge_coords(fam_a, k), wedge_coords(fam_b, k)
    return float(np.sum((mod_a - mod_b) ** 2)), _h2(mod_a, mod_b)


# ---------------------------------------------------------------------------
# inequality checks

def check_bound_projection(fam_phi: OrthonormalFamily, fam_psi: OrthonormalFamily,
                           active) -> list:
    """Three reports on the distance between two projection densities.

    (i) the exact h^2 equals 1 minus the determinant-table affinity;
    (ii) h^2 <= 1 - |det Gram|; (iii) h^2 <= (5/2) sum ||phi_j - psi_j||^2.
    Both families are compared on the same index set J (re-align by
    permuting columns beforehand if needed). The affinity in (i) reads the
    minor moduli the two tables were just built from.
    """
    active = fam_phi.check_active(active)
    fam_psi.check_active(active)
    if fam_phi.p != fam_psi.p:
        raise ValueError("families live on different ground sets")
    h2_exact, _ = hellinger(
        density_table(ProjectionDensity(fam_phi, active)),
        density_table(ProjectionDensity(fam_psi, active)),
    )
    h2_minors = _h2(fam_phi.moduli(active), fam_psi.moduli(active))
    cols_phi = fam_phi.columns[:, [j - 1 for j in active]]
    cols_psi = fam_psi.columns[:, [j - 1 for j in active]]
    gram = cols_phi.conj().T @ cols_psi
    gram_bound = 1.0 - abs(np.linalg.det(gram))
    l2_bound = 2.5 * float(np.sum(np.abs(cols_phi - cols_psi) ** 2))
    return [
        BoundReport(h2_exact, h2_minors, "h2 equals det-table affinity"),
        BoundReport(h2_exact, gram_bound, "h2 <= 1 - |det gram|"),
        BoundReport(h2_exact, l2_bound, "h2 <= 2.5 * sum ||phi-psi||^2"),
    ]


def _probability_vector(name, weights) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    for i, w in enumerate(weights):
        if not (math.isfinite(w) and w >= 0.0):
            raise ValueError(f"{name}[{i}] must be finite and >= 0, got {w}")
    total = math.fsum(weights)
    if not abs(total - 1.0) <= TABLE_TOL:
        raise ValueError(f"{name} sums to {total}, not 1")
    return weights


def check_bound_mixture(weights_p, weights_q, tables_p, tables_q) -> BoundReport:
    """h^2 between two mixtures vs 2 h^2(weights) + 2 sum q_t h^2(components).

    Each weight vector must be a probability vector: finite entries >= 0
    summing to 1 within core.TABLE_TOL, and every component table must lie
    on the ground set of tables_p[0].
    """
    weights_p = _probability_vector("weights_p", weights_p)
    weights_q = _probability_vector("weights_q", weights_q)
    if not (len(weights_p) == len(weights_q) == len(tables_p) == len(tables_q)):
        raise ValueError("mismatched mixture component counts")
    ground = tables_p[0].ground
    for name, tables in (("tables_p", tables_p), ("tables_q", tables_q)):
        for i, table in enumerate(tables):
            if table.ground.p != ground.p:
                raise ValueError(f"{name}[{i}] has p={table.ground.p} but "
                                 f"tables_p[0] has p={ground.p}")
    mix_p = np.zeros_like(tables_p[0].probs)
    mix_q = np.zeros_like(mix_p)
    for w, t in zip(weights_p, tables_p):
        mix_p += w * t.probs
    for w, t in zip(weights_q, tables_q):
        mix_q += w * t.probs
    lhs, _ = hellinger(DensityTable(ground, mix_p), DensityTable(ground, mix_q))
    h2_weights = _h2(np.sqrt(weights_p), np.sqrt(weights_q))
    h2_parts = sum(
        w * hellinger(tp, tq)[0] for w, tp, tq in zip(weights_q, tables_p, tables_q)
    )
    return BoundReport(lhs, 2.0 * h2_weights + 2.0 * h2_parts, "mixture bound")


def check_bound_dpp(fam_phi: OrthonormalFamily, spec_lam: Spectrum,
                    fam_psi: OrthonormalFamily, spec_gam: Spectrum) -> list:
    """Distance between two full mixtures against the parameter bound.

    Main report: exact h^2 vs 2[|l-g|^2 + |lc-gc|^2] + 5 sum g_j^2 ||phi_j-psi_j||^2.
    Also returns the two intermediate reports it is assembled from (weight
    distance, weighted component sum). Both parameter sets must have the
    same rank; pad with extra orthonormal columns and zero weights to
    compare unequal ranks.
    """
    if fam_phi.r != spec_lam.r or fam_psi.r != spec_gam.r:
        raise ValueError("family/spectrum rank mismatch")
    if fam_phi.r != fam_psi.r or fam_phi.p != fam_psi.p:
        raise ValueError("families must share p and rank")
    lam = spec_lam.values
    gam = spec_gam.values
    weight_term = float(
        np.sum((lam - gam) ** 2)
        + np.sum((spec_lam.checked - spec_gam.checked) ** 2)
    )
    col_dist = np.sum(np.abs(fam_phi.columns - fam_psi.columns) ** 2, axis=0)
    col_term = float(np.sum(gam**2 * col_dist))

    table_phi = density_table(DppDensity(fam_phi, spec_lam))
    table_psi = density_table(DppDensity(fam_psi, spec_gam))
    lhs, _ = hellinger(table_phi, table_psi)

    # weighted sum of component projection distances under the gamma weights
    # (the order and weights of the table's mixture sum, without J = ())
    comp_sum = 0.0
    rows = ((row_phi, row_psi) for k in range(1, fam_phi.r + 1)
            for row_phi, row_psi in zip(fam_phi.minors(k), fam_psi.minors(k)))
    for w, (row_phi, row_psi) in zip(index_set_weights(spec_gam)[1:].tolist(), rows):
        if w != 0.0:
            comp_sum += w * _h2(row_phi, row_psi)

    return [
        BoundReport(lhs, 2.0 * weight_term + 5.0 * col_term,
                    "h2 <= parameter distance bound"),
        BoundReport(bernoulli_weight_hellinger(spec_lam, spec_gam), weight_term,
                    "weight h2 <= |lam-gam|^2 + |lam_c-gam_c|^2"),
        BoundReport(comp_sum, 2.5 * col_term,
                    "weighted components <= 2.5 sum gam^2 ||phi-psi||^2"),
    ]
