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
    gaussian,
    haar_orthonormal,
    haar_orthonormal_many,
    integer,
    integer_fields,
    is_real,
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
    integer_fields(cfg, instances=1, **{rank_key: 1}, seed=None)
    cfg.p_max = integer("p_max", cfg.p_max, 2, DEFAULT_ENUM_CAP)


# Instances per block of a sweep. A block's Haar families are built with one
# haar_orthonormal_many call, one stack per shape, so each minor size a
# check reads is one kernel call per shape in the block; this saves numpy's
# per-call overhead, but the block holds its families and their stores
# until its last instance is checked: on the default bounds sweep, one
# block of all 1000 instances raised the peak RSS from 40.0 to 52.6 MB
# (in-process).
_SWEEP_BLOCK = 64


def _run_sweep(cfg, draw, check):
    """The block loop of both sweeps. For each block of _SWEEP_BLOCK
    instances: draw(cfg, root.split(i)) gives instance i's Gaussian
    matrices and the rest of its inputs, for every instance in turn; one
    haar_orthonormal_many call builds the block's families, one stack per
    shape, so the first read of a minor size on one family fills it for
    every family of its shape in the block (one kernel call per (p, r, k)
    read in the block); check(families, *rest) gives instance i's rows
    (label, lhs, rhs, slack, holds), in instance order. Returns (rows,
    violations), a violation being a row that does not hold."""
    root = SeededRng(cfg.seed)
    rows = []
    violations = 0
    for start in range(0, cfg.instances, _SWEEP_BLOCK):
        block = range(start, min(start + _SWEEP_BLOCK, cfg.instances))
        drawn = [draw(cfg, root.split(i)) for i in block]
        families = iter(haar_orthonormal_many(
            [g for gaussians, _ in drawn for g in gaussians]))
        for i, (gaussians, rest) in zip(block, drawn):
            for label, lhs, rhs, slack, holds in check(
                    [next(families) for _ in gaussians], *rest):
                rows.append((i, label, lhs, rhs, slack))
                violations += not holds
    return rows, violations


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

    Instance i draws all of its inputs from the stream root.split(i), in
    program order: a projection pair, a two-component mixture pair on p = 4
    and a full mixture pair. The instances go in blocks of _SWEEP_BLOCK
    (see _run_sweep), and each check_bound_* function runs once per
    instance, in instance order. Returns (rows, violations); a violation is
    any report that does not hold (BoundReport.holds), a NaN slack included.
    """
    return _run_sweep(cfg, _draw_bounds_instance, _check_bounds_instance)


def _draw_bounds_instance(cfg: BoundsSweepConfig, rng: SeededRng):
    """One instance's eight Gaussian matrices and the rest of its inputs
    (k, the two weight vectors, six spectra), drawn from rng in turn."""
    gen = rng.generator
    # projection pair
    p = int(gen.integers(2, cfg.p_max + 1))
    k = int(gen.integers(1, min(cfg.rank_max, p) + 1))
    gaussians = [gaussian((p, k), rng), gaussian((p, k), rng)]
    # two-component mixtures of full densities on p=4, in the order
    # p-side 0, q-side 0, p-side 1, q-side 1
    weights = (gen.dirichlet(np.ones(2)), gen.dirichlet(np.ones(2)))
    spectra = []
    for _ in range(4):
        r = int(gen.integers(1, 3))
        gaussians.append(gaussian((4, r), rng))
        spectra.append(random_spectrum(r, rng))
    # full mixture pair
    p = int(gen.integers(2, cfg.p_max + 1))
    r = int(gen.integers(1, min(cfg.rank_max, p) + 1))
    gaussians += [gaussian((p, r), rng), gaussian((p, r), rng)]
    spectra += [random_spectrum(r, rng), random_spectrum(r, rng)]
    return gaussians, (k, weights, spectra)


def _check_bounds_instance(families, k, weights, spectra):
    """The seven rows of one instance: three projection bounds, the mixture
    bound and three full-mixture bounds."""
    fam_a, fam_b, *mixed, fam_c, fam_d = families
    reports = list(zip(["proj_exact", "proj_gram", "proj_l2"],
                       check_bound_projection(fam_a, fam_b, tuple(range(1, k + 1)))))
    tables = [density_table(DppDensity(fam, spec))
              for fam, spec in zip(mixed, spectra)]
    reports.append(("mixture", check_bound_mixture(*weights, tables[0::2],
                                                   tables[1::2])))
    reports += zip(["dpp_main", "dpp_weights", "dpp_components"],
                   check_bound_dpp(fam_c, spectra[4], fam_d, spectra[5]))
    return [(label, rep.lhs, rep.rhs, rep.slack, rep.holds)
            for label, rep in reports]


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
    distance, on random pairs of projection parameters.

    Instance i draws all of its inputs from the stream root.split(i), in
    program order: p, k and the two Gaussian matrices. The instances go in
    blocks of _SWEEP_BLOCK (see _run_sweep), and gplus_delta runs once per
    instance, in instance order. Returns (rows, violations); a gap above
    GAP_TOL, or NaN, is a violation.
    """
    return _run_sweep(cfg, _draw_isometry_instance, _check_isometry_instance)


def _draw_isometry_instance(cfg: IsometrySweepConfig, rng: SeededRng):
    gen = rng.generator
    p = int(gen.integers(2, cfg.p_max + 1))
    k = int(gen.integers(1, min(cfg.k_max, p) + 1))
    return [gaussian((p, k), rng), gaussian((p, k), rng)], (k,)


def _check_isometry_instance(families, k):
    fam_a, fam_b = families
    delta2, h2 = gplus_delta(fam_a, fam_b, k)
    gap = abs(delta2 - 2.0 * h2)
    return [("isometry", delta2, 2.0 * h2, gap, gap <= GAP_TOL)]


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
        self.p = integer("p", self.p, 1, DEFAULT_ENUM_CAP)
        self.rank = integer("rank", self.rank, 1, self.p)
        integer_fields(self, draws=1, settings=1, seed=None)
        if not (is_real(self.tv_limit) and 0.0 < self.tv_limit <= 1.0):
            raise ValueError(f"tv_limit must be a number in (0, 1], "
                             f"got {self.tv_limit!r}")


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
        self.p = integer("p", self.p, 2, DEFAULT_ENUM_CAP)
        self.k = integer("k", self.k, 1, self.p - 1)
        integer_fields(self, replications=1, pool_size=None, anchor_jitter=None,
                       seed=None)
        for key in ("n_grid", "caps"):
            values = getattr(self, key)
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"{key} must be a list of integers, got {values!r}")
        # the normalized risk divides by log n
        self.n_grid = tuple(integer("n_grid", v, 2) for v in self.n_grid)
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


def _risk_replication(cfg: RiskCurveConfig, n: int, stream: SeededRng,
                      model: SubspaceModel, caps: CandidateCaps) -> float:
    """Squared distance of the selected candidate to one random truth; model
    (the full space) and caps are built once per run by run_risk_curve."""
    truth_fam = haar_orthonormal(cfg.p, cfg.k, stream.split(0))
    truth = DppDensity(truth_fam, Spectrum.ones(cfg.k))
    truth_table = density_table(truth)
    samples = sample_table(truth_table, n, stream.split(1))
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
    caps = CandidateCaps(*cfg.caps)
    rows = []
    per_rep = {}
    for ni, n in enumerate(cfg.n_grid):
        values = [_risk_replication(cfg, n, root.split(ni).split(rep), model, caps)
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
