"""Aggregation-by-testing estimation of a point-process density.

Pipeline: separated nets on unit spheres of finite-dimensional subspaces,
a uniform grid for the mixture weights, projection of net point sets onto the
closest orthonormal tuple (polar factor), a candidate family carrying a
sub-probability prior, and selection by pairwise signed-root tests: the
winner minimizes the largest Hellinger distance to any candidate that
beats it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations, islice, product

import numpy as np

from .core import (
    GRAM_TOL,
    DensityTable,
    DppDensity,
    OrthonormalFamily,
    Spectrum,
    check_orthonormal,
    column_matrix,
    density_table,
    integer,
    integer_fields,
    is_real,
    path_entry,
)
from .hellinger import _h2
from .rng import SeededRng
from .sampling import SampleSet

POLAR_RANK_TOL = 1e-10
# select tests pairs in blocks of _PAIR_BLOCK_CELLS // (observed cells), so
# each temporary holds at most 2^13 floats (64 KB) whatever the family size.
# Larger blocks ran no faster at m = 640 and raised the peak memory of a
# default risk curve.
_PAIR_BLOCK_CELLS = 1 << 13


# ---------------------------------------------------------------------------
# models, nets, approximation

@dataclass(frozen=True)
class SubspaceModel:
    """A subspace of C^p (or R^p) given by an orthonormal basis of columns."""

    basis: np.ndarray
    id: int = 0

    def __post_init__(self):
        basis = np.array(self.basis)  # a copy: the caller's array stays writable
        if basis.ndim != 2 or basis.shape[1] < 1:
            raise ValueError(f"basis must be p x d with d >= 1, got {basis.shape}")
        check_orthonormal(basis)
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def p(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.basis)

    @property
    def dim_real(self) -> int:
        """Dimension as a real linear space: 2d for complex scalars."""
        return 2 * self.dim if self.is_complex else self.dim

    def project(self, phi: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.conj().T @ phi)


def model_from_dict(key, data: dict):
    """The SubspaceModel and prior of the config object named key, e.g.
    models[1]: {"id": int, "p": int, "dim": int, "basis": [[re, im], ...]
    column-major over (p, dim), "prior": number}. Every error names the
    entry it is about by its path, e.g. models[1].p, and a missing entry is
    a KeyError of that path; the prior is checked by build_candidates."""
    entry = functools.partial(path_entry, key, data)
    p = integer(f"{key}.p", entry("p"))
    if p < 1:
        raise ValueError(f"{key}.p must be >= 1, got {p}")
    dim = integer(f"{key}.dim", entry("dim"))
    if dim < 1:
        raise ValueError(f"{key}.dim must be >= 1, got {dim}")
    basis = column_matrix(key, data, "basis", p, dim)
    model_id = integer(f"{key}.id", entry("id"))
    try:
        model = SubspaceModel(basis, id=model_id)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None
    return model, entry("prior")


@dataclass(frozen=True)
class SphereNet:
    """Unit vectors in a model subspace, strictly separated by the eta of
    sphere_net in the distance densities see (_net_distance).

    Built greedily from a finite random pool, so maximality (hence the
    covering property) is certified only relative to that pool; the
    pool-relative covering radius is recorded as the certificate.
    """

    model: SubspaceModel
    points: np.ndarray
    pool_covering_radius: float

    def __post_init__(self):
        pts = np.asarray(self.points)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]

    def min_pairwise_distance(self) -> float:
        pts = self.points
        return min((float(_net_distance(pts[i + 1:], pts[i]).min())
                    for i in range(len(self) - 1)), default=float("inf"))

    def log_size_bound(self, n: int) -> float:
        """Volumetric ceiling for separation radius 1/sqrt(n)."""
        return self.model.dim_real * math.log(2.0 * math.sqrt(n) + 1.0)


def _net_distance(points: np.ndarray, v: np.ndarray) -> np.ndarray:
    """min over theta of |u - e^(i theta) v| for each unit row u of points.

    A density sees a column phi only through phi phi^*, so phi and
    e^(i theta) phi (-phi on a real model) are one net point. For unit
    vectors the minimum is sqrt(2 - 2 |<u, v>|), clipped at zero against
    rounding.
    """
    overlap = np.abs(points @ v.conj())
    return np.sqrt(np.maximum(2.0 - 2.0 * overlap, 0.0))


def _random_unit_coefficients(count, dim, rng, complex_mode):
    gen = rng.generator
    c = gen.standard_normal((count, dim))
    if complex_mode:
        c = c + 1j * gen.standard_normal((count, dim))
    norms = np.linalg.norm(c, axis=1, keepdims=True)
    return c / norms


def sphere_net(model: SubspaceModel, eta: float, pool_size: int, rng: SeededRng,
               seed_points=None) -> SphereNet:
    """Greedy separated subset of the unit sphere of the model subspace.

    Draws pool_size uniform unit vectors, inserts each iff its distance
    (_net_distance) to every current net point exceeds eta. seed_points
    (unit vectors in the subspace) are processed first and therefore anchor
    the net; a seed farther than core.GRAM_TOL from the subspace is
    rejected, and on a real model their imaginary parts must be exactly zero.
    """
    if not 0.0 < eta <= 2.0:
        raise ValueError(f"eta must be in (0, 2], got {eta}")
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    coeffs = _random_unit_coefficients(pool_size, model.dim, rng, model.is_complex)
    pool = coeffs @ model.basis.T
    if seed_points is not None and len(seed_points):
        seeds = np.atleast_2d(np.asarray(seed_points))
        if not model.is_complex and np.any(seeds.imag):
            raise ValueError(f"seed points for the real model {model.id} have "
                             f"imaginary parts up to {np.abs(seeds.imag).max():.3g}")
        off = np.linalg.norm(seeds.T - model.project(seeds.T), axis=0)
        if not off.max() <= GRAM_TOL:  # a NaN distance fails too
            i = int(np.argmax(off))  # the first NaN, if there is one
            raise ValueError(f"seed point {i} lies {off[i]:.3g} from model "
                             f"{model.id}, farther than {GRAM_TOL:g}")
        pool = np.concatenate([seeds if model.is_complex else seeds.real, pool])
    # nearest[i]: distance from pool[i] to the closest net point so far
    nearest = np.full(pool.shape[0], np.inf)
    keep = []
    for i in range(pool.shape[0]):
        if nearest[i] > eta:
            keep.append(i)
            np.minimum(nearest, _net_distance(pool, pool[i]), out=nearest)
    return SphereNet(model, pool[keep], float(nearest.max()))


def sphere_approx(phi: np.ndarray, model: SubspaceModel) -> np.ndarray:
    """Nearest-direction approximation of a unit vector inside the model sphere.

    Returns the normalized projection when its norm is at least 1/2, else a
    fixed unit vector of the subspace; either way the error is at most four
    times the distance from phi to the subspace itself.
    """
    phi = np.asarray(phi)
    nrm = np.linalg.norm(phi)
    if not abs(nrm - 1.0) <= 1e-9:  # a NaN norm fails too
        raise ValueError(f"phi must be a unit vector, got norm {nrm}")
    proj = model.project(phi)
    pn = np.linalg.norm(proj)
    if pn >= 0.5:
        return proj / pn
    return model.basis[:, 0].astype(proj.dtype, copy=True)


def nearest_orthonormal(vectors) -> OrthonormalFamily:
    """Closest orthonormal tuple (polar factor) in sum-of-squares distance.

    The polar factor of the stacked matrix is the global minimizer over all
    orthonormal tuples; rank-deficient input is rejected.
    """
    m = np.column_stack([np.asarray(v, dtype=complex) for v in vectors])
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if not s.min() >= POLAR_RANK_TOL:  # a NaN singular value fails too
        raise ValueError("vectors are numerically rank deficient")
    return OrthonormalFamily(u @ vh)


# ---------------------------------------------------------------------------
# candidate families

@dataclass(frozen=True)
class CandidateCaps:
    """Mandatory truncation bounds for candidate enumeration."""

    j_max: int
    per_net: int
    family_max: int

    def __post_init__(self):
        integer_fields(self, "j_max", "per_net", "family_max")
        if min(self.j_max, self.per_net, self.family_max) < 1:
            raise ValueError("all caps must be positive")


@dataclass
class CandidateEntry:
    """One candidate density with its enumeration index and prior mass."""

    index: tuple  # (j, model ids, net point indices, gamma grid rank)
    family: OrthonormalFamily
    spectrum: Spectrum
    prior: float
    _table: DensityTable = field(default=None, repr=False)

    @property
    def density(self) -> DppDensity:
        return DppDensity(self.family, self.spectrum)

    def table(self) -> DensityTable:
        if self._table is None:
            self._table = density_table(self.density)
        return self._table


@dataclass
class CandidateFamily:
    """Finite candidate list with a sub-probability prior."""

    entries: list
    truncated: bool
    net_sizes: dict

    def __len__(self):
        return len(self.entries)

    def prior_mass(self) -> float:
        return math.fsum(e.prior for e in self.entries)


def build_candidates(models, prior, n: int, caps: CandidateCaps, rng: SeededRng,
                     pool_size: int = 256, anchor=None,
                     anchor_jitter: int = 0) -> CandidateFamily:
    """Enumerate candidate densities from sets of net points and the weight grid.

    prior maps model id to its weight (a sub-probability over models). A candidate
    (j, {(m_1, psi_1), .., (m_j, psi_j)}, gamma) stands for the j! orderings of its
    points, so its prior mass j! (2n)^(-j) prod_l prior(m_l) / |net(m_l)| sums to at
    most 1 over the full enumeration (j! e_j(w) <= (sum w)^j), and after truncation.

    Truncation is deterministic: candidates are ordered by interleaved
    depth (grid rank + subset rank) across truncation levels j, so each
    j keeps its shallowest candidates when family_max binds. An anchor
    (OrthonormalFamily) seeds every net with its columns, putting the
    anchored set at depth zero; anchor_jitter adds that many perturbed
    copies per column at distance 1.5 * eta, emulating the neighbors a
    maximal net would contain around the anchor.

    Candidates on the same set of net points differ only in gamma, so the
    polar factor is computed once per set and the candidates share one
    OrthonormalFamily (and with it the squared minors of their tables).

    Every input is checked here, a ValueError naming the value it refuses.
    """
    models = list(models)
    if not models:
        raise ValueError("need at least one model")
    # models and anchor must share one ground set
    p = models[0].p
    named = [(f"models[{i}]", model) for i, model in enumerate(models[1:], 1)]
    if anchor is not None:
        named.append(("anchor", anchor))
    for key, family in named:
        if family.p != p:
            raise ValueError(f"{key} has p={family.p} but models[0] has p={p}")
    n = integer("n", n)
    pool_size = integer("pool_size", pool_size)
    anchor_jitter = integer("anchor_jitter", anchor_jitter)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if anchor_jitter < 0:
        raise ValueError(f"anchor_jitter must be >= 0, got {anchor_jitter}")
    for model in models:
        if model.id not in prior:
            raise ValueError(f"prior has no entry for model {model.id}")
    for mid, weight in prior.items():
        if not is_real(weight):
            raise ValueError(f"model prior must be a number, got {weight!r} "
                             f"for model {mid}")
        if not (math.isfinite(weight) and weight >= 0.0):  # NaN fails too
            raise ValueError(f"prior of model {mid} must be finite and >= 0, "
                             f"got {weight}")
    if not math.fsum(prior.values()) <= 1.0 + 1e-12:
        raise ValueError("model prior weights must sum to at most 1")
    nets = _candidate_nets(models, n, rng, pool_size, anchor, anchor_jitter)
    polar = {}  # subset -> family, or None if rank deficient

    def factor(subset):
        if subset not in polar:
            vectors = [nets[mid].points[i] for mid, i in subset]
            try:
                polar[subset] = nearest_orthonormal(vectors)
            except ValueError:
                polar[subset] = None  # near-parallel net points
        return polar[subset]

    entries = []
    levels = set()  # the j that hold a full-rank set
    walk = _candidate_order(models, nets, n, caps)
    for j, subset, g_rank, gamma in walk:
        if factor(subset) is None:
            continue
        levels.add(j)
        mass = math.factorial(j) * (2.0 * n) ** (-j)
        for mid, _ in subset:
            mass *= prior[mid] / len(nets[mid])
        index = (j, *zip(*subset), g_rank)
        # only survivors get a Spectrum
        entries.append(CandidateEntry(index, polar[subset], Spectrum(gamma), mass))
        if len(entries) == caps.family_max:
            break
    if not entries:
        raise ValueError("caps too tight: empty candidate family")
    # a full-rank candidate is missing iff per_net dropped a net point, the
    # walk caps the gamma rank of a level that has one, or the walk stopped
    # at family_max before one (the rest of the walk is read only then)
    truncated = (any(len(net) > caps.per_net for net in nets.values())
                 or any(n**j > caps.family_max for j in levels)
                 or any(factor(subset) is not None for _, subset, _, _ in walk))
    return CandidateFamily(
        entries, truncated, {mid: len(net) for mid, net in nets.items()})


def _candidate_order(models, nets, n, caps):
    """Yield (j, subset, g_rank, gamma) by depth g_rank + t_rank, then j, g_rank;
    subset is a j-subset of the (model id, point index) pairs of each net's first
    per_net points, in model then point order, and t_rank ranks it in combinations
    order. gamma is the g_rank-th of the n^j weight vectors on the uniform 1/n grid
    (zero excluded), in descending lexicographic order: (1, ..., 1) first, so a
    truncation keeps the projection-like corner. j above the dimension of the
    models' joint span is skipped: j vectors in a smaller space have no
    orthonormal polar factor."""
    pool = [(m.id, i) for m in models for i in range(min(len(nets[m.id]), caps.per_net))]
    span = np.linalg.matrix_rank(np.hstack([m.basis for m in models]))
    levels = range(1, min(caps.j_max, span, len(pool)) + 1)
    grid = [i / n for i in range(n, 0, -1)]
    counts = {j: math.comb(len(pool), j) for j in levels}
    walks = {j: combinations(pool, j) for j in levels}
    gamma_walks = {j: product(grid, repeat=j) for j in levels}
    subsets = {j: [] for j in levels}  # each grows by one entry per depth
    gammas = {j: [] for j in levels}
    # the deepest candidate: the last gamma on the last subset
    for depth in range(max(min(n**j, caps.family_max) + counts[j] - 1 for j in levels)):
        for j in levels:
            subsets[j].extend(islice(walks[j], 1))
            gammas[j].extend(islice(gamma_walks[j], 1))
            for g_rank in range(max(0, depth - counts[j] + 1),
                                min(depth, n**j - 1, caps.family_max - 1) + 1):
                yield j, subsets[j][depth - g_rank], g_rank, gammas[j][g_rank]


def _candidate_nets(models, n, rng, pool_size, anchor, anchor_jitter) -> dict:
    """Model id -> separated net at radius 1/sqrt(n), seeded by the anchor."""
    eta = 1.0 / math.sqrt(n)
    nets = {}
    for rank, model in enumerate(models):
        if model.id in nets:
            raise ValueError(f"model id {model.id} is given to more than one model")
        stream = rng.split(rank)
        seed_points = None
        if anchor is not None:
            # each anchor column moved onto the model's sphere, so that seeds
            # and their jittered copies lie in the model
            anchored = [sphere_approx(anchor.columns[:, i], model)
                        for i in range(anchor.r)]
            seed_points = list(anchored)
            gen = stream.split(10**6).generator
            cos_t = 1.0 - (1.5 * eta) ** 2 / 2.0
            sin_t = math.sqrt(max(1.0 - cos_t**2, 0.0))
            for phi in anchored:
                for _ in range(anchor_jitter):
                    u = (gen.standard_normal(model.dim)
                         + (1j * gen.standard_normal(model.dim)
                            if model.is_complex else 0.0)) @ model.basis.T
                    u = u - phi * (np.vdot(phi, u))
                    u_norm = np.linalg.norm(u)
                    if u_norm < 1e-12:
                        continue
                    seed_points.append(cos_t * phi + sin_t * u / u_norm)
        nets[model.id] = sphere_net(model, eta, pool_size, stream,
                                    seed_points=seed_points)
    return nets


# ---------------------------------------------------------------------------
# tests and selection

def test_statistic(u: DensityTable, v: DensityTable, samples: SampleSet) -> float:
    """Signed-root statistic sum_i [sqrt(v(N_i)) - sqrt(u(N_i))] / sqrt(u+v).

    Positive values favor v over u; exactly antisymmetric in (u, v); a term
    where both densities vanish contributes zero. The one-pair case of the
    arithmetic select runs on every pair.
    """
    if u.ground.p != v.ground.p:
        raise ValueError("tables live on different ground sets")
    cells, weights = _observed_cells(samples, u)
    p_obs = np.stack([u.probs[cells], v.probs[cells]])
    return float(_signed_roots(p_obs, np.sqrt(p_obs), weights, [0], [1])[0])


def _observed_cells(samples: SampleSet, table: DensityTable):
    """The configurations the samples hit, in ascending bitmask order, and
    how often each was drawn; a mask outside the table's ground set raises."""
    masks = samples.masks()
    size = len(table.probs)
    outside = np.flatnonzero(masks >= size)
    if outside.size:
        i = int(outside[0])
        raise ValueError(
            f"draw {i} has mask {int(masks[i])}, outside the ground set of "
            f"p={table.ground.p} (masks must be < {size})")
    counts = np.bincount(masks, minlength=size)
    cells = np.flatnonzero(counts)
    return cells, counts[cells].astype(float)


def _signed_roots(p_obs, r_obs, weights, a, b) -> np.ndarray:
    """Statistic t(a[i], b[i]) for each pair i, from the candidates'
    probabilities p_obs and their square roots r_obs on the observed cells
    (one row per candidate) and the cell counts weights."""
    denom = p_obs[a]  # fancy indexing copies, so in-place ops are safe
    denom += p_obs[b]
    np.sqrt(denom, out=denom)
    diff = r_obs[b]
    diff -= r_obs[a]
    terms = np.divide(diff, denom, out=np.zeros_like(denom), where=denom > 0.0)
    return terms @ weights


@dataclass
class SelectionResult:
    """Winner of the pairwise-test tournament plus its full diagnostics."""

    chosen_index: int
    crit_values: np.ndarray
    test_matrix: np.ndarray  # [a, b] = +1 if b beats a, -1 if a beats b


def select(family: CandidateFamily, samples: SampleSet) -> SelectionResult:
    """Pick the candidate minimizing the largest distance to anything beating it.

    Candidate b beats a when the signed-root statistic t(a, b) is positive.
    An exact tie (t == 0) goes to the larger prior, then to the lower index.
    Only configurations observed in the samples enter t, and only the pairs
    a < b are tested; the verdict for (b, a) is the negation. The distances
    are the square roots of hellinger._h2 over the candidates' table roots.
    """
    entries = family.entries
    m = len(entries)
    if m == 0:
        raise ValueError("empty candidate family")
    tables = [e.table() for e in entries]
    cells, weights = _observed_cells(samples, tables[0])
    probs = np.stack([t.probs for t in tables])
    roots = np.sqrt(probs)
    h_matrix = np.sqrt(_h2(roots, roots))

    p_obs = probs[:, cells]
    r_obs = roots[:, cells]
    priors = np.array([e.prior for e in entries])
    first, second = np.triu_indices(m, 1)
    t = np.empty(first.size)
    step = max(1, _PAIR_BLOCK_CELLS // max(1, cells.size))
    for lo in range(0, first.size, step):
        t[lo:lo + step] = _signed_roots(p_obs, r_obs, weights,
                                        first[lo:lo + step], second[lo:lo + step])
    b_beats_a = (t > 0.0) | ((t == 0.0) & (priors[second] > priors[first]))
    sign = np.zeros((m, m), dtype=np.int8)
    sign[first, second] = np.where(b_beats_a, 1, -1)
    sign[second, first] = -sign[first, second]
    crit = h_matrix.max(axis=1, where=sign > 0, initial=0.0)
    # argmin with ties broken by larger prior, then lower index (stable sort)
    chosen = int(np.lexsort((-priors, crit))[0])
    return SelectionResult(chosen, crit, sign)


# ---------------------------------------------------------------------------
# theoretical risk bound

def oracle_bound(family: OrthonormalFamily, spectrum: Spectrum, models, prior,
                 n: int, j: int, nets=None) -> float:
    """Bias/complexity trade-off bound for a target parameter pair.

    Per retained column: the best over models of approximation error plus a
    complexity price. With nets=None the subspace form is used, with the
    projector distance and price (D_m log n + log(1/prior))/n; passing the
    constructed nets switches to the net form with the realized net sizes,
    whose error is the squared net distance 2 - 2 max_v |<v, phi>|. A model
    of prior 0 costs log(1/0) = +inf in both forms, so the other models
    decide the bound.
    """
    if j < 0 or j > family.r:
        raise ValueError(f"truncation j={j} outside [0, {family.r}]")
    total = float(np.sum(spectrum.values[j:] ** 2))
    for jp in range(j):
        phi = family.columns[:, jp]
        best = float("inf")
        for model in models:
            if prior[model.id] == 0.0:
                continue
            if nets is None:
                err = float(np.linalg.norm(phi - model.project(phi)) ** 2)
                price = (model.dim_real * math.log(n)
                         + math.log(1.0 / prior[model.id])) / n
            else:
                net = nets[model.id]
                err = float(_net_distance(net.points, phi).min()) ** 2
                price = math.log(len(net) * n / prior[model.id]) / n
            best = min(best, err + price)
        total += best
    return total
