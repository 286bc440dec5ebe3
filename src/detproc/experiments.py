"""Reproducible batch experiments.

Every run is a pure function of its configuration (seed included): rows
come out in a deterministic order, and reruns produce byte-identical
files. Tables are CSV, metadata is JSON; plotting is left to external
tools.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .core import (
    DEFAULT_ENUM_CAP,
    DppDensity,
    OrthonormalFamily,
    Spectrum,
    density_table,
    haar_orthonormal,
    random_spectrum,
)
from .estimator import (
    CandidateCaps,
    SubspaceModel,
    build_candidates,
    oracle_bound,
    select,
)
from .hellinger import (
    SLACK_TOL,
    check_bound_dpp,
    check_bound_mixture,
    check_bound_projection,
    gplus_delta,
    hellinger,
    wedge_coords,
)
from .rng import SeededRng
from .sampling import (
    empirical_table,
    sample_dpp,
    sample_table,
    total_variation,
)

SWEEP_HEADER = ["instance_id", "inequality_id", "lhs", "rhs", "slack"]


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def write_rows_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def write_metadata(path, config, extra=None):
    payload = {"config": config, "library_version": __version__}
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# inequality sweep

@dataclass
class BoundsSweepConfig:
    instances: int = 1000
    p_max: int = 6
    rank_max: int = 3
    seed: int = 0

    def __post_init__(self):
        # comparisons written so that NaN fails them
        if not self.instances >= 1:
            raise ValueError(f"instances must be >= 1, got {self.instances}")
        # every instance builds tables on up to p_max points
        if not 2 <= self.p_max <= DEFAULT_ENUM_CAP:
            raise ValueError(f"p_max must be in [2, {DEFAULT_ENUM_CAP}], "
                             f"got {self.p_max}")
        if not self.rank_max >= 1:
            raise ValueError(f"rank_max must be >= 1, got {self.rank_max}")


def run_bounds_sweep(cfg: BoundsSweepConfig):
    """Random instances of all three distance inequalities.

    Returns (rows, violations); a violation is any slack below -1e-9.
    """
    root = SeededRng(cfg.seed)
    rows = []
    for i in range(cfg.instances):
        rng = root.split(i)
        gen = rng.generator
        # projection pair
        p = int(gen.integers(2, cfg.p_max + 1))
        k = int(gen.integers(1, min(cfg.rank_max, p) + 1))
        fam_a = haar_orthonormal(p, k, rng.split(0))
        fam_b = haar_orthonormal(p, k, rng.split(1))
        active = tuple(range(1, k + 1))
        labels = ["proj_exact", "proj_gram", "proj_l2"]
        for label, rep in zip(labels, check_bound_projection(fam_a, fam_b, active)):
            rows.append((i, label, rep.lhs, rep.rhs, rep.slack))
        # two-component mixtures of full densities on p=4
        weights_p = gen.dirichlet(np.ones(2))
        weights_q = gen.dirichlet(np.ones(2))
        tabs_p, tabs_q = [], []
        for t in range(2):
            r = int(gen.integers(1, 3))
            tabs_p.append(density_table(DppDensity(
                haar_orthonormal(4, r, rng.split(10 + t)),
                random_spectrum(r, rng.split(20 + t)))))
            r = int(gen.integers(1, 3))
            tabs_q.append(density_table(DppDensity(
                haar_orthonormal(4, r, rng.split(30 + t)),
                random_spectrum(r, rng.split(40 + t)))))
        rep = check_bound_mixture(weights_p, weights_q, tabs_p, tabs_q)
        rows.append((i, "mixture", rep.lhs, rep.rhs, rep.slack))
        # full mixture pair
        p = int(gen.integers(2, cfg.p_max + 1))
        r = int(gen.integers(1, min(cfg.rank_max, p) + 1))
        fam_a = haar_orthonormal(p, r, rng.split(2))
        fam_b = haar_orthonormal(p, r, rng.split(3))
        lam = random_spectrum(r, rng.split(4))
        gam = random_spectrum(r, rng.split(5))
        labels = ["dpp_main", "dpp_weights", "dpp_components"]
        for label, rep in zip(labels, check_bound_dpp(fam_a, lam, fam_b, gam)):
            rows.append((i, label, rep.lhs, rep.rhs, rep.slack))
    # written so that a NaN slack counts as a violation
    violations = sum(1 for row in rows if not row[4] >= -SLACK_TOL)
    return rows, violations


# ---------------------------------------------------------------------------
# isometry sweep

@dataclass
class IsometrySweepConfig:
    instances: int = 1000
    p_max: int = 6
    k_max: int = 3
    seed: int = 0
    gap_tol: float = 1e-9

    def __post_init__(self):
        # comparisons written so that NaN fails them
        if not self.instances >= 1:
            raise ValueError(f"instances must be >= 1, got {self.instances}")
        if not self.p_max >= 2:
            raise ValueError(f"p_max must be >= 2, got {self.p_max}")
        # an instance's subsets(p, k) holds C(p, k) rows
        if not self.p_max <= DEFAULT_ENUM_CAP:
            raise ValueError(f"p_max must be <= {DEFAULT_ENUM_CAP}, got {self.p_max}")
        if not self.k_max >= 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")


def run_isometry_sweep(cfg: IsometrySweepConfig):
    """Distance of modulus coordinates against twice the squared Hellinger
    distance, on random pairs of projection parameters."""
    root = SeededRng(cfg.seed)
    rows = []
    violations = 0
    for i in range(cfg.instances):
        rng = root.split(i)
        gen = rng.generator
        p = int(gen.integers(2, cfg.p_max + 1))
        k = int(gen.integers(1, min(cfg.k_max, p) + 1))
        fam_a = haar_orthonormal(p, k, rng.split(0))
        fam_b = haar_orthonormal(p, k, rng.split(1))
        wa = wedge_coords(fam_a, k)
        wb = wedge_coords(fam_b, k)
        delta2, gap = gplus_delta(wa, wb)
        two_h2 = 2.0 * (1.0 - float(np.sum(np.abs(wa.coords) * np.abs(wb.coords))))
        rows.append((i, "isometry", delta2, two_h2, gap))
        if not gap <= cfg.gap_tol:  # a NaN gap is a violation
            violations += 1
    return rows, violations


# ---------------------------------------------------------------------------
# sampler validation

# a two-sample chi-square p-value at or below this fails the sampler check
CHI2_LEVEL = 1e-3


@dataclass
class SamplerCheckConfig:
    p: int = 6
    rank: int = 3
    draws: int = 100_000
    settings: int = 3
    seed: int = 0
    tv_limit: float = 0.02


def _chi2_two_sample(counts_a, counts_b):
    """Two-sample chi-square homogeneity p-value over pooled non-empty cells.

    scipy is imported here, not at module level: only run_sampler_check
    needs it, and no CLI command does.
    """
    from scipy import stats

    counts_a = np.asarray(counts_a, dtype=float)
    counts_b = np.asarray(counts_b, dtype=float)
    keep = (counts_a + counts_b) > 0
    a, b = counts_a[keep], counts_b[keep]
    na, nb = a.sum(), b.sum()
    pooled = (a + b) / (na + nb)
    expected_a = na * pooled
    expected_b = nb * pooled
    stat = float(np.sum((a - expected_a) ** 2 / expected_a)
                 + np.sum((b - expected_b) ** 2 / expected_b))
    dof = int(keep.sum()) - 1
    if dof < 1:
        return 1.0
    return float(stats.chi2.sf(stat, dof))


def run_sampler_check(cfg: SamplerCheckConfig):
    """TV of both samplers against the exact table, plus a two-sample
    chi-square between the samplers, for several random parameter settings."""
    root = SeededRng(cfg.seed)
    rows = []
    failures = 0
    for s in range(cfg.settings):
        rng = root.split(s)
        fam = haar_orthonormal(cfg.p, cfg.rank, rng.split(0))
        if s == 0:
            spec = Spectrum.ones(cfg.rank)  # pure projection setting
        else:
            spec = random_spectrum(cfg.rank, rng.split(1))
        density = DppDensity(fam, spec)
        table = density_table(density)
        seq = sample_dpp(density, cfg.draws, rng.split(2))
        orc = sample_table(table, cfg.draws, rng.split(3))
        emp_seq = empirical_table(seq, cfg.p)
        emp_orc = empirical_table(orc, cfg.p)
        tv_seq = total_variation(emp_seq, table.probs)
        tv_orc = total_variation(emp_orc, table.probs)
        pval = _chi2_two_sample(emp_seq * cfg.draws, emp_orc * cfg.draws)
        rows.append((s, "tv_sequential", tv_seq, cfg.tv_limit, cfg.tv_limit - tv_seq))
        rows.append((s, "tv_oracle", tv_orc, cfg.tv_limit, cfg.tv_limit - tv_orc))
        rows.append((s, "chi2_pvalue", pval, CHI2_LEVEL, pval - CHI2_LEVEL))
        # written so that a NaN TV or p-value is a failure, never a pass
        if not (tv_seq < cfg.tv_limit and tv_orc < cfg.tv_limit
                and pval > CHI2_LEVEL):
            failures += 1
    return rows, failures


# ---------------------------------------------------------------------------
# risk curve

@dataclass
class RiskCurveConfig:
    p: int = 8
    k: int = 2
    n_grid: tuple = (100, 300, 1000, 3000)
    replications: int = 100
    caps: tuple = (2, 4, 40)  # (j_max, per_net, family_max)
    pool_size: int = 64
    anchor_jitter: int = 1
    seed: int = 0

    def __post_init__(self):
        grid = tuple(int(n) for n in self.n_grid)
        if len(grid) < 2:
            raise ValueError("n_grid needs at least 2 sample sizes to fit a slope")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if grid[0] < 2:  # the normalized risk divides by log n
            raise ValueError("n_grid sample sizes must be >= 2")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not 1 <= self.k < self.p <= DEFAULT_ENUM_CAP:
            raise ValueError(f"need 1 <= k < p <= {DEFAULT_ENUM_CAP}")
        if len(self.caps) != 3:
            raise ValueError("caps must be (j_max, per_net, family_max)")
        # a candidate of rank j < k has no mass on the truth's k-point
        # configurations, so a run with j_max < k only ever measures h^2 = 1
        if self.caps[0] < self.k:
            raise ValueError(f"caps j_max={self.caps[0]} is below k={self.k}: "
                             "no candidate could have the truth's rank")
        self.n_grid = grid


@dataclass
class RiskCurveRow:
    n: int
    empirical_mean_h2: float
    oracle_bound: float
    normalized: float


@dataclass
class RiskCurveResult:
    rows: list
    per_rep_h2: dict  # n -> list of squared distances, replication order
    slope: float

    def medians(self) -> dict:
        return {n: float(np.median(v)) for n, v in self.per_rep_h2.items()}

    def positive_rows(self) -> list:
        """Rows whose mean risk is positive, the ones the slope is fitted on.

        A mean of exactly 0 (the anchored family can contain the truth) is
        no violation, but it has no logarithm.
        """
        return [r for r in self.rows if r.empirical_mean_h2 > 0]


def _risk_replication(cfg: RiskCurveConfig, n: int, stream: SeededRng) -> float:
    truth_fam = haar_orthonormal(cfg.p, cfg.k, stream.split(0))
    truth = DppDensity(truth_fam, Spectrum.ones(cfg.k))
    truth_table = density_table(truth)
    samples = sample_table(truth_table, n, stream.split(1))
    model = SubspaceModel(np.eye(cfg.p, dtype=complex), id=0)
    caps = CandidateCaps(*cfg.caps)
    fam = build_candidates([model], {0: 1.0}, n, caps, stream.split(2),
                           pool_size=cfg.pool_size, anchor=truth_fam,
                           anchor_jitter=cfg.anchor_jitter)
    result = select(fam, samples)
    chosen = fam.entries[result.chosen_index]
    return hellinger(truth_table, chosen.table())[0]


def run_risk_curve(cfg: RiskCurveConfig) -> RiskCurveResult:
    """Mean exact squared distance of the selected candidate to a random
    rank-k truth, over a grid of sample sizes, with the matching
    subspace-form risk bound for comparison."""
    root = SeededRng(cfg.seed)
    model = SubspaceModel(np.eye(cfg.p, dtype=complex), id=0)
    rows = []
    per_rep = {}
    for ni, n in enumerate(cfg.n_grid):
        values = [_risk_replication(cfg, n, root.split(ni).split(rep))
                  for rep in range(cfg.replications)]
        per_rep[n] = values
        mean_h2 = math.fsum(values) / len(values)
        # single full-space model: bound = k (D log n)/n with D = 2p real dims
        # whatever the truth, since every column lies in the model
        bound = oracle_bound(OrthonormalFamily(np.eye(cfg.p, cfg.k)),
                             Spectrum.ones(cfg.k), [model], {0: 1.0}, n, cfg.k)
        normalized = mean_h2 * n / (cfg.k * 2 * cfg.p * math.log(n))
        rows.append(RiskCurveRow(n, mean_h2, bound, normalized))
    result = RiskCurveResult(rows, per_rep, float("nan"))
    fitted = result.positive_rows()
    # a negative or NaN mean leaves the slope NaN, which fails its check
    if len(fitted) >= 2 and all(r.empirical_mean_h2 >= 0 for r in rows):
        result.slope = float(np.polyfit(
            np.log(np.array([r.n for r in fitted], dtype=float)),
            np.log(np.array([r.empirical_mean_h2 for r in fitted])), 1)[0])
    return result


def risk_rows_for_csv(result: RiskCurveResult):
    header = ["n", "empirical_mean_h2", "oracle_bound", "normalized"]
    rows = [(r.n, r.empirical_mean_h2, r.oracle_bound, r.normalized)
            for r in result.rows]
    return header, rows
