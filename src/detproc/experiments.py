"""Reproducible batch experiments.

Every run is a pure function of its configuration (seed included): rows
come out in a deterministic order, and reruns produce byte-identical
files. Tables are CSV, metadata is JSON; plotting is left to external
tools.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from . import __version__
from .core import (
    DEFAULT_ENUM_CAP,
    DppDensity,
    OrthonormalFamily,
    Spectrum,
    density_table,
    haar_orthonormal,
    integer,
    integer_fields,
    random_spectrum,
    write_csv,
    write_json,
)
from .estimator import (
    CandidateCaps,
    SubspaceModel,
    build_candidates,
    oracle_bound,
    select,
)
from .hellinger import (
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


def write_rows_csv(path, header, rows):
    """CSV export of a list of row tuples, through core.write_csv: each
    position of the rows is one column, formatted by its dtype."""
    write_csv(path, header, zip(*rows))


def write_metadata(path, config, extra=None):
    payload = {"config": config, "library_version": __version__}
    if extra:
        payload.update(extra)
    write_json(path, payload)


# ---------------------------------------------------------------------------
# inequality sweep

def _check_sweep(cfg, rank_key) -> None:
    """A sweep config's fields as integers; each instance builds tables, or
    subsets(p, k), on up to p_max points, and draws a rank up to rank_key."""
    integer_fields(cfg, "instances", "p_max", rank_key, "seed")
    if cfg.instances < 1:
        raise ValueError(f"instances must be >= 1, got {cfg.instances}")
    if not 2 <= cfg.p_max <= DEFAULT_ENUM_CAP:
        raise ValueError(f"p_max must be in [2, {DEFAULT_ENUM_CAP}], "
                         f"got {cfg.p_max}")
    if getattr(cfg, rank_key) < 1:
        raise ValueError(f"{rank_key} must be >= 1, got {getattr(cfg, rank_key)}")


@dataclass
class BoundsSweepConfig:
    instances: int = 1000
    p_max: int = 6
    rank_max: int = 3
    seed: int = 0

    def __post_init__(self):
        _check_sweep(self, "rank_max")


def run_bounds_sweep(cfg: BoundsSweepConfig):
    """Random instances of all three distance inequalities.

    Returns (rows, violations); a violation is any report that does not
    hold (BoundReport.holds), a NaN slack included.
    """
    root = SeededRng(cfg.seed)
    rows = []
    violations = 0
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
            violations += not rep.holds
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
        violations += not rep.holds
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
            violations += not rep.holds
    return rows, violations


# ---------------------------------------------------------------------------
# isometry sweep

# an isometry gap above this is a violation
GAP_TOL = 1e-9


@dataclass
class IsometrySweepConfig:
    instances: int = 1000
    p_max: int = 6
    k_max: int = 3
    seed: int = 0

    def __post_init__(self):
        _check_sweep(self, "k_max")


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
        delta2, h2 = gplus_delta(wedge_coords(fam_a, k), wedge_coords(fam_b, k))
        gap = abs(delta2 - 2.0 * h2)
        rows.append((i, "isometry", delta2, 2.0 * h2, gap))
        if not gap <= GAP_TOL:  # a NaN gap is a violation
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

    def __post_init__(self):
        integer_fields(self, "p", "rank", "draws", "settings", "seed")
        # comparisons written so that NaN fails them
        if not self.settings >= 1:
            raise ValueError(f"settings must be >= 1, got {self.settings}")
        if not self.draws >= 1:
            raise ValueError(f"draws must be >= 1, got {self.draws}")
        if not 1 <= self.rank <= self.p <= DEFAULT_ENUM_CAP:
            raise ValueError(f"need 1 <= rank <= p <= {DEFAULT_ENUM_CAP}, "
                             f"got rank={self.rank}, p={self.p}")
        if not 0.0 < self.tv_limit <= 1.0:
            raise ValueError(f"tv_limit must be in (0, 1], got {self.tv_limit}")


def _chi2_two_sample(counts_a, counts_b):
    """Two-sample chi-square homogeneity p-value over pooled non-empty cells.

    scipy is imported here, not at module level: only run_sampler_check
    needs it, and no CLI command does.
    """
    from scipy import stats

    counts_a = np.asarray(counts_a, dtype=float)
    counts_b = np.asarray(counts_b, dtype=float)
    keep = (counts_a + counts_b) > 0
    if keep.sum() < 2:
        return 1.0
    table = np.vstack([counts_a[keep], counts_b[keep]])
    return float(stats.chi2_contingency(table, correction=False).pvalue)


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
        integer_fields(self, "p", "k", "replications", "pool_size",
                       "anchor_jitter", "seed")
        for key in ("n_grid", "caps"):
            values = getattr(self, key)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{key} must be a list of integers, got {values!r}")
        self.n_grid = tuple(integer("n_grid", v) for v in self.n_grid)
        try:  # CandidateCaps checks the count, the integers and their signs
            self.caps = astuple(CandidateCaps(*self.caps))
        except TypeError:
            raise ValueError(f"caps must be (j_max, per_net, family_max), "
                             f"got {self.caps!r}") from None
        grid = self.n_grid
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
        # a candidate of rank j < k has no mass on the truth's k-point
        # configurations, so a run with j_max < k only ever measures h^2 = 1
        if self.caps[0] < self.k:
            raise ValueError(f"caps j_max={self.caps[0]} is below k={self.k}: "
                             "no candidate could have the truth's rank")


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
