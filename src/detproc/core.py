"""Exact densities of determinantal processes on a finite ground set.

The ground space is {1, ..., p} with the counting measure, so the space of
configurations (finite subsets) has 2^p elements and every integral is a
finite sum. This module holds the parameter types, the density evaluators
for projection processes and their Bernoulli mixtures, the kernel and its
correlation function, and the full density table, the production object
every estimate and distance is computed from; each minor modulus it reads
is a row of the family's one store, OrthonormalFamily.minors(k). The table
is checked against three independent oracles: the per-configuration mixture
sum, the L-ensemble likelihood and the pivoted-QR determinant abs_det.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

# 2^p enumeration is the workhorse; no ground set is larger than this.
DEFAULT_ENUM_CAP = 20
GRAM_TOL = 1e-9
KERNEL_TOL = 1e-9
TABLE_TOL = 1e-9
# Rows per formatting pass of write_csv: each pass turns one slice of every
# column into Python values, so memory does not grow with 2^p.
_CSV_CHUNK_ROWS = 4096


class EnumerationCapError(ValueError):
    """Raised for a ground set of more than DEFAULT_ENUM_CAP points."""


# ---------------------------------------------------------------------------
# determinant helpers

def abs_det(a: np.ndarray) -> float:
    """|det a| for a square matrix, via column-pivoted QR.

    Only the modulus is ever needed for densities; the product of |R_ii|
    from a pivoted QR is stable for near-singular submatrices. This is the
    oracle route; scipy is imported on the first call, so importing the
    package (and every CLI command) does not load it.
    """
    import scipy.linalg

    a = np.asarray(a)
    k = a.shape[0]
    if k == 0:
        return 1.0
    if a.shape != (k, k):
        raise ValueError(f"expected square matrix, got {a.shape}")
    r = scipy.linalg.qr(a, mode="r", pivoting=True)[0]
    return float(np.prod(np.abs(np.diag(r))))


def abs_det_many(stack: np.ndarray) -> np.ndarray:
    """|det| for a stack of square matrices (..., k, k), one batched LU.

    The one production kernel for k x k minors: the tables, the
    inequality checks and the isometry sweep's coordinates all take their
    moduli from it, through _fill_minors, its one caller, one call per
    stack of families and size read. A 0 x 0 block has determinant 1.
    Agreement with the pivoted-QR oracle abs_det is asserted in the test
    suite.
    """
    return np.abs(np.linalg.det(stack))


# ---------------------------------------------------------------------------
# configurations

@dataclass(frozen=True, order=True)
class Config:
    """A finite subset of the ground set, stored as sorted 1-based indices.

    The input type of the per-configuration oracles (projection_density_eval,
    dpp_density_eval, l_ensemble_oracle, correlation); tables and samples
    are indexed by bitmask instead.
    """

    members: tuple

    def __init__(self, members=()):
        members = tuple(sorted(integer("members", x, 1) for x in members))
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate indices in configuration: {members}")
        object.__setattr__(self, "members", members)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    @property
    def mask(self) -> int:
        m = 0
        for x in self.members:
            m |= 1 << (x - 1)
        return m

    @classmethod
    def from_mask(cls, mask: int) -> "Config":
        return cls(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@dataclass(frozen=True)
class GroundSet:
    """The finite ground space {1, ..., p}."""

    p: int

    def __post_init__(self):
        integer_fields(self, p=1)
        if self.p > DEFAULT_ENUM_CAP:
            raise EnumerationCapError(
                f"p={self.p} exceeds enumeration cap {DEFAULT_ENUM_CAP}")

    def validate(self, alpha: Config):
        if len(alpha) and alpha.members[-1] > self.p:
            raise ValueError(f"configuration {alpha.members} not inside {{1..{self.p}}}")

    def configs(self):
        """All 2^p configurations in ascending bitmask order."""
        for mask in range(1 << self.p):
            yield Config.from_mask(mask)


# A sweep over p <= 6 uses 27 (p, k) pairs. The bound keeps a large
# enumeration from living for the rest of the run: all k at p = 20 take
# ~90 MB.
@functools.lru_cache(maxsize=32)
def subsets(p: int, k: int):
    """The size-k subsets of {1..p}, in lexicographic order of their members.

    Returns (masks, rows): masks[i] is the bitmask of the i-th subset and
    rows[i] holds its k members as 0-based indices, so columns[rows] stacks
    the k x k blocks of every subset in one fancy index. The order is not
    ascending bitmask order: at p=4, k=2 the masks run 3, 5, 9, 6, 10, 12.
    For k=0 the one subset is the empty set, with mask 0. Both arrays are
    cached and shared by every caller, hence read-only.
    """
    rows = np.array(list(combinations(range(p), k)), dtype=np.intp)
    rows = rows.reshape(math.comb(p, k), k)
    masks = (1 << rows).sum(axis=1)
    rows.setflags(write=False)
    masks.setflags(write=False)
    return masks, rows


# ---------------------------------------------------------------------------
# parameters

def check_orthonormal(columns: np.ndarray) -> None:
    """The one orthonormality check of a p x d matrix, for families and
    models alike, or of a (g, p, d) stack of them at once: a ValueError
    unless the entries are finite and every entry of each Gram matrix lies
    within GRAM_TOL of the identity's (a NaN deviation fails too). The
    message gives the largest deviation; for a stack it names the first
    family that fails, e.g. "family 3: columns are not orthonormal (Gram
    deviation 2.100e-03)"."""
    stack = columns if columns.ndim == 3 else columns[None]
    finite = np.isfinite(stack).all(axis=(1, 2))
    with np.errstate(all="ignore"):  # the Gram of a non-finite family is not read
        gram = stack.conj().swapaxes(1, 2) @ stack
    dev = np.abs(gram - np.eye(stack.shape[2])).max(axis=(1, 2), initial=0.0)
    fails = ~finite | ~(dev <= GRAM_TOL)
    if fails.any():
        i = int(np.argmax(fails))
        message = (f"columns are not orthonormal (Gram deviation {dev[i]:.3e})"
                   if finite[i] else "column entries must be finite")
        raise ValueError(f"family {i}: {message}" if columns.ndim == 3 else message)


@dataclass(frozen=True)
class OrthonormalFamily:
    """p x r complex matrix whose columns are orthonormal in C^p.

    Inputs failing the Gram check are rejected rather than silently
    re-orthonormalized, so caller bugs surface here. The columns are a
    read-only copy of the input, so the family's minor moduli, minors(k),
    are computed once per size k and kept with it; every table and
    inequality check on the family reads them. Every family belongs to one
    stack, the families one call built: OrthonormalFamily(columns) checks
    one matrix and makes a stack of one, and OrthonormalFamily.stack builds
    a whole stack of one shape with one check. The first read of minors(k)
    on any member fills size k for the whole stack.
    """

    columns: np.ndarray
    _minors: dict = field(init=False, repr=False, compare=False)
    # (column arrays, minor stores) of the stack's members, in order: the
    # record holds no family, so a family and its stack make no cycle
    _stack: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cols = np.atleast_2d(np.array(self.columns, dtype=complex))
        _check_rank(*cols.shape)
        check_orthonormal(cols)
        self._join(((cols,), ({},)), 0)

    def _join(self, stack, i) -> None:
        """Make the family member i of stack: its columns, made read-only,
        and its minor store are entry i of the record's two tuples."""
        stack[0][i].setflags(write=False)
        object.__setattr__(self, "columns", stack[0][i])
        object.__setattr__(self, "_minors", stack[1][i])
        object.__setattr__(self, "_stack", stack)

    @classmethod
    def stack(cls, columns) -> list:
        """The family of each p x r matrix of the (g, p, r) stack columns, in
        order, after one check_orthonormal call on the whole stack.

        Each family holds its own read-only copy of its matrix, never a view
        into the stack: OpenBLAS products on a view can round differently
        from the same product on a fresh array, so a view would move
        results by an ulp. The minor stores start empty; the families share
        one stack record, so the first minors(k) on any of them fills size
        k for all of them with one kernel call.
        """
        cols = np.asarray(columns, dtype=complex)
        if cols.ndim != 3:
            raise ValueError(f"expected a (g, p, r) stack, got shape {cols.shape}")
        _check_rank(*cols.shape[1:])
        check_orthonormal(cols)
        matrices = tuple(matrix.copy() for matrix in cols)
        stack = matrices, tuple({} for _ in matrices)
        families = [object.__new__(cls) for _ in matrices]
        for i, family in enumerate(families):
            family._join(stack, i)
        return families

    @property
    def p(self) -> int:
        return self.columns.shape[0]

    @property
    def r(self) -> int:
        return self.columns.shape[1]

    def ground(self) -> GroundSet:
        return _ground_set(self.p)

    def check_active(self, active) -> tuple:
        active = tuple(sorted(integer("active", j, 1, self.r) for j in active))
        if len(set(active)) != len(active):
            raise ValueError(f"duplicate indices in active set {active}")
        return active

    def submatrix(self, alpha: Config, active) -> np.ndarray:
        rows = [x - 1 for x in alpha]
        cols = [j - 1 for j in active]
        return self.columns[np.ix_(rows, cols)]

    def minors(self, k: int) -> np.ndarray:
        """Read-only |det| of the (alpha, J) block for every size-k J of {1..r}
        (rows) and alpha of {1..p} (columns), both in core.subsets order.
        The first read on any member of the family's stack fills size k for
        every member (_fill_minors): one kernel call for k >= 1, [[1.0]]
        for k = 0. A size no member reads is never computed."""
        if k not in self._minors:
            _fill_minors(*self._stack, k)
        return self._minors[k]

    def moduli(self, active: tuple) -> np.ndarray:
        """|det| of the (alpha, J) blocks over every alpha with |alpha| = |J|,
        J = active (a sorted tuple), in core.subsets order: the row of
        minors(|J|) that belongs to J."""
        k = len(active)
        row = subsets(self.r, k)[0].tolist().index(sum(1 << (j - 1) for j in active))
        return self.minors(k)[row]

    @functools.cached_property
    def squared_minors(self) -> np.ndarray:
        """|det|^2 of the (alpha, J) block for every index set J of {1..r}
        and every alpha with |alpha| = |J|, in _index_sets order (J by size,
        then lexicographically; alpha in core.subsets order): the blocks
        minors(0), ..., minors(r), flattened in turn and squared."""
        sq = np.concatenate(
            [self.minors(k).reshape(-1) for k in range(self.r + 1)]) ** 2
        sq.setflags(write=False)
        return sq


@functools.lru_cache(maxsize=DEFAULT_ENUM_CAP)
def _ground_set(p: int) -> GroundSet:
    """The one GroundSet of p points, shared by every family on them: a
    GroundSet is immutable, so no table needs its own (building one checks
    p). A p the cap refuses raises and is not kept."""
    return GroundSet(p)


def _check_rank(p: int, r: int) -> None:
    if r > p:
        raise ValueError(f"rank r={r} exceeds p={p}")


def _fill_minors(columns, stores, k: int) -> None:
    """Store minors(k) in each of stores, the minor stores of one stack's
    families, whose p x r column arrays are columns: one gather of all
    their k x k blocks and one abs_det_many call, the package's only one.
    The block for k = 0 is [[1.0]], with no kernel call. Each family's
    block is its own read-only copy, never a view into the stack's result.
    """
    if k:
        stack = np.stack(columns)
        rows, cols = subsets(stack.shape[1], k)[1], subsets(stack.shape[2], k)[1]
        # one (C(r, k), C(p, k), k, k) block of matrices per family, the
        # families' blocks one after another along the first axis
        gathered = stack[:, rows[None, :, :, None], cols[:, None, None, :]]
        shape = len(columns), len(cols), len(rows)
        blocks = abs_det_many(gathered.reshape(-1, *shape[2:], k, k))
        blocks = blocks.reshape(shape)
    else:
        blocks = np.ones((len(columns), 1, 1))
    for store, block in zip(stores, blocks):
        block = block.copy()
        block.setflags(write=False)
        store[k] = block


@dataclass(frozen=True)
class Spectrum:
    """Square-root eigenvalues lambda_j in [0, 1] of the mixture weights."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size and not (v.min() >= 0.0 and v.max() <= 1.0):
            raise ValueError("spectrum entries must be finite and lie in [0, 1]")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def r(self) -> int:
        return self.values.size

    @property
    def checked(self) -> np.ndarray:
        """The companion sequence 1 - sqrt(1 - lambda_j^2)."""
        return 1.0 - np.sqrt(np.maximum(1.0 - self.values**2, 0.0))

    @functools.cached_property
    def index_set_weights(self) -> np.ndarray:
        """The read-only core.index_set_weights of this spectrum, computed on
        the first read and kept with it, as squared_minors is kept with its
        family: a table, check_bound_dpp's component sum and
        bernoulli_weight_hellinger on the same spectrum share one vector."""
        sq = self.values**2
        weights = np.where(_index_sets(self.r), sq, 1 - sq).prod(axis=1)
        weights.setflags(write=False)
        return weights

    @classmethod
    def ones(cls, k: int) -> "Spectrum":
        return cls(np.ones(integer("k", k, 0)))


@dataclass(frozen=True)
class ProjectionDensity:
    """Fixed-cardinality density |det submatrix|^2 on size-|J| configurations."""

    family: OrthonormalFamily
    active: tuple

    def __post_init__(self):
        object.__setattr__(self, "active", self.family.check_active(self.active))

    @property
    def rank(self) -> int:
        return len(self.active)


@dataclass(frozen=True)
class DppDensity:
    """Mixture of projection densities with Bernoulli product weights."""

    family: OrthonormalFamily
    spectrum: Spectrum

    def __post_init__(self):
        if self.spectrum.r != self.family.r:
            raise ValueError(
                f"spectrum length {self.spectrum.r} != family rank {self.family.r}"
            )


@dataclass(frozen=True)
class KernelMatrix:
    """p x p Hermitian matrix with eigenvalues in [0, 1]."""

    entries: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.entries, dtype=complex)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError(f"kernel must be square, got {k.shape}")
        if not np.isfinite(k).all():
            raise ValueError("kernel entries must be finite")
        if np.max(np.abs(k - k.conj().T)) > KERNEL_TOL:
            raise ValueError("kernel is not Hermitian")
        eigs = np.linalg.eigvalsh(k)
        if eigs.min() < -KERNEL_TOL or eigs.max() > 1.0 + KERNEL_TOL:
            raise ValueError("kernel eigenvalues must lie in [0, 1]")
        k.setflags(write=False)
        object.__setattr__(self, "entries", k)

    @property
    def p(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class DensityTable:
    """Exhaustive map from every configuration to its probability.

    probs is indexed by configuration bitmask (bit i-1 set iff point i is
    in the configuration). This is the production object: samples, tests,
    distances and inequality checks all read it. It is checked against the
    mixture-sum (dpp_density_eval), L-ensemble (l_ensemble_oracle) and
    pivoted-QR (abs_det) oracles.
    """

    ground: GroundSet
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (1 << self.ground.p,):
            raise ValueError(
                f"expected {1 << self.ground.p} entries, got {probs.shape}"
            )
        # comparisons written so that NaN fails them
        if not probs.min() >= 0.0:
            raise ValueError(
                f"probabilities must be finite and >= 0 (min {probs.min():.3e})"
            )
        # exact zeros add nothing to the exact sum, and a low-rank table is
        # mostly zeros
        total = math.fsum(probs[probs != 0.0].tolist())
        if not abs(total - 1.0) <= TABLE_TOL:
            raise ValueError(f"total mass {total} differs from 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


# ---------------------------------------------------------------------------
# operations

def projection_density_eval(family: OrthonormalFamily, active, alpha: Config) -> float:
    """|det of the (alpha, J) submatrix|^2 when |alpha| = |J|, else 0."""
    active = family.check_active(active)
    family.ground().validate(alpha)
    if len(alpha) != len(active):
        return 0.0
    if not active:
        return 1.0
    return abs_det(family.submatrix(alpha, active)) ** 2


def mixture_weight(spectrum: Spectrum, active) -> float:
    """Probability that the Bernoulli(lambda_j^2) draws realize exactly J."""
    active = [integer("active", j, 1, spectrum.r) for j in active]
    sq = spectrum.values**2
    inside = np.zeros(spectrum.r, dtype=bool)
    for j in active:
        inside[j - 1] = True
    return float(np.prod(np.where(inside, sq, 1.0 - sq)))


@functools.lru_cache(maxsize=32)
def _index_sets(r: int) -> np.ndarray:
    """The read-only (2^r, r) membership matrix of the 2^r index sets J of
    {1..r}, by size and then lexicographically: entry [i, j-1] is whether
    j is in J_i. The mixture-sum table and check_bound_dpp walk this order.
    """
    masks = np.concatenate([subsets(r, k)[0] for k in range(r + 1)])
    inside = (masks[:, None] >> np.arange(r) & 1).astype(bool)
    inside.setflags(write=False)
    return inside


# Bounded like subsets: the pairs at p = 20 run to 2^20 entries each.
@functools.lru_cache(maxsize=32)
def _minor_pairs(p: int, r: int):
    """The (J, alpha) pairs of the mixture sum, |alpha| = |J|: J in
    _index_sets(r) order and, within one J, alpha in core.subsets(p, |J|)
    order. Returns (rows, cells), read-only: rows holds the index of J,
    cells the bitmask of alpha. There are C(p + r, r) pairs (Vandermonde).
    """
    sizes = _index_sets(r).sum(axis=1).tolist()
    rows = np.repeat(np.arange(len(sizes)), [math.comb(p, k) for k in sizes])
    cells = np.concatenate([subsets(p, k)[0] for k in sizes])
    rows.setflags(write=False)
    cells.setflags(write=False)
    return rows, cells


def index_set_weights(spectrum: Spectrum) -> np.ndarray:
    """The mixture weight of every index set J of {1..r}, by size and then
    lexicographically, each equal to mixture_weight(spectrum, J) bit for
    bit. Zero weights are kept. The vector is computed once per spectrum
    and is read-only (Spectrum.index_set_weights)."""
    return spectrum.index_set_weights


def dpp_density_eval(density: DppDensity, alpha: Config) -> float:
    """Mixture sum over all index sets J of matching cardinality.

    An oracle for the table route: it walks the index sets with
    itertools.combinations and weighs each by mixture_weight, sharing no
    code with the table's index_set_weights.
    """
    fam, spec = density.family, density.spectrum
    fam.ground().validate(alpha)
    total = 0.0
    for active in combinations(range(1, spec.r + 1), len(alpha)):
        w = mixture_weight(spec, active)
        if w != 0.0:
            total += w * projection_density_eval(fam, active, alpha)
    return total


def kernel_from_params(family: OrthonormalFamily, spectrum: Spectrum) -> KernelMatrix:
    """K(x, y) = sum_j lambda_j^2 phi_j(x) conj(phi_j(y))."""
    if spectrum.r != family.r:
        raise ValueError("dimension mismatch between family and spectrum")
    cols = family.columns
    k = (cols * spectrum.values**2) @ cols.conj().T
    return KernelMatrix((k + k.conj().T) / 2.0)


def correlation(kernel: KernelMatrix, alpha: Config) -> float:
    """Inclusion probability det K_{alpha,alpha}; 1 for the empty set."""
    GroundSet(kernel.p).validate(alpha)
    if not len(alpha):
        return 1.0
    rows = [x - 1 for x in alpha]
    sub = kernel.entries[np.ix_(rows, rows)]
    return float(np.linalg.det(sub).real)


def density_table(density) -> DensityTable:
    """Exhaustive probability table over all 2^p configurations.

    Two routes give the same table up to rounding, and the shape (p, r)
    picks between them by their measured cost (_chain_rule_pays). A
    DppDensity goes to the chain rule over the points, _chain_table, at
    O(p^2 2^p), when 64 p + 2^p / 4 < 16 r + C(p + r, r): its p Schur steps
    and 2^p entries cost less than the mixture sum's r kernel calls and
    C(p + r, r) minors. Every other density, including every
    ProjectionDensity, is summed from the family's stored minors by
    _mixture_table.
    """
    fam = density.family
    ground = fam.ground()
    if not isinstance(density, (ProjectionDensity, DppDensity)):
        raise TypeError(f"unsupported density type {type(density).__name__}")
    if isinstance(density, DppDensity) and _chain_rule_pays(fam.p, fam.r):
        probs = _chain_table(fam, density.spectrum)
    else:
        probs = _mixture_table(density)
    return DensityTable(ground, probs)


def _chain_rule_pays(p: int, r: int) -> bool:
    """Whether the chain rule builds a rank-r mixture table on p points
    faster than the mixture sum, by their costs in units of one minor. The
    chain rule pays about 64 per point (one Schur step's numpy calls) and a
    quarter per table entry, 64 p + 2^p / 4. The mixture sum pays about 16
    per kernel call, one per size 1..r, and one per minor, 16 r +
    C(p + r, r) (C(p, |J|) minors for every index set J, by Vandermonde).
    The two routes' fixed costs, the chain rule's kernel and its check
    included, about cancel.

    The constants are a least-squares fit of both routes' time per table
    (chain rule 13 + 25 p + 0.077 2^p us, mixture sum 20 + 4 r + 0.43
    C(p + r, r) us, fresh Haar families), rounded to powers of 2, over 78
    shapes: p = 2..14 and every r >= 1 with C(p + r, r) <= 60,000, best of
    5 with one BLAS thread on a 2-core Intel Xeon (Python 3.11, numpy 2.4,
    OpenBLAS 0.3). In each of three measurements of that grid, the rule's
    route is within 1.03x of the faster one at every shape. The route
    depends on (p, r) alone, so a density always gets the same bits.
    """
    return 64 * p + (1 << p) / 4 < 16 * r + math.comb(p + r, r)


def _mixture_table(density) -> np.ndarray:
    """Table entries as the weighted sum of the family's stored squared
    minor moduli (the mixture-sum route).

    A DppDensity gathers the weight of each (J, alpha) pair's index set and
    adds the products into the cells with one bincount, which adds in input
    order (J by size, then lexicographically); a zero weight adds an exact 0.
    """
    fam = density.family
    if isinstance(density, ProjectionDensity):
        probs = np.zeros(1 << fam.p)
        probs[subsets(fam.p, density.rank)[0]] = fam.moduli(density.active) ** 2
        return probs
    rows, cells = _minor_pairs(fam.p, fam.r)
    weights = index_set_weights(density.spectrum)
    return np.bincount(cells, weights=weights[rows] * fam.squared_minors,
                       minlength=1 << fam.p)


def _chain_table(family: OrthonormalFamily, spectrum: Spectrum) -> np.ndarray:
    """Table entries by the chain rule over the points 1..p.

    P(N = alpha) is the product over x = 1..p of the probability of the
    decision on x given the decisions on 1..x-1. Given them, N restricted
    to {x..p} is again determinantal, with kernel the Schur complement
    K <- K - K[:,0] K[0,:] / d after taking x and K <- K + K[:,0] K[0,:] /
    (1 - d) after leaving it, where d = K[0,0] is the probability of taking
    x (Poulson 2019; Launay, Galerne and Desolneux 2020). Level i keeps the
    kernels of all 2^i decision prefixes in one (2^i, p-i, p-i) array; leaf
    index = bitmask, point i <-> bit i-1. A branch with d = 0 or d = 1 has
    probability 0, and its kernel is carried along without dividing.

    The mixture lives on the sizes [#{lambda_j = 1}, #{lambda_j > 0}]. A
    prefix that no configuration of those sizes extends gets probability
    exactly 0 (rounding would leave ~1e-18) and a zero kernel, so that
    rounding noise there is not amplified by later pivots into an overflow.
    """
    p = family.p
    sq = spectrum.values**2
    lo, hi = np.count_nonzero(sq == 1.0), np.count_nonzero(sq > 0.0)
    kern = kernel_from_params(family, spectrum).entries[None]
    probs = np.ones(1)
    sizes = np.zeros(1, dtype=np.intp)
    for i in range(p):
        n, m = kern.shape[0], p - i - 1
        d = np.minimum(np.maximum(kern[:, 0, 0].real, 0.0), 1.0)
        e = 1.0 - d
        leave = np.divide(1.0, e, out=np.zeros(n), where=e > 0.0)
        take = np.divide(-1.0, d, out=np.zeros(n), where=d > 0.0)
        col, rest = kern[:, 1:, 0], kern[:, 1:, 1:]
        outer = col[:, :, None] * col.conj()[:, None, :]
        kern = np.empty((2 * n, m, m), dtype=complex)
        np.multiply(outer, leave[:, None, None], out=kern[:n])
        np.multiply(outer, take[:, None, None], out=kern[n:])
        kern[:n] += rest
        kern[n:] += rest
        probs = np.concatenate([probs * e, probs * d])
        sizes = np.concatenate([sizes, sizes + 1])
        if i + 1 > hi or m < lo:  # else every prefix can still reach the support
            dead = (sizes > hi) | (sizes + m < lo)
            probs[dead] = 0.0
            kern[dead] = 0.0
    return probs


def normalization_check(table: DensityTable) -> float:
    """Total mass of the table; equals 1 for any valid parameter set."""
    return math.fsum(table.probs)


def inclusion_probabilities(table: DensityTable) -> np.ndarray:
    """P[alpha subset of N] for every alpha, by superset summation."""
    s = np.array(table.probs, dtype=float)
    p = table.ground.p
    idx = np.arange(1 << p)
    for i in range(p):
        bit = 1 << i
        lower = idx[(idx & bit) == 0]
        s[lower] += s[lower | bit]
    return s


def l_ensemble_oracle(density: DppDensity, alpha: Config) -> float:
    """Independent likelihood route det(I-K) det(L_{alpha,alpha}), L = K(I-K)^{-1}.

    Requires every lambda_j < 1 strictly (I - K must be invertible).
    """
    spec = density.spectrum
    if spec.r and spec.values.max() >= 1.0:
        raise ValueError("L-ensemble route needs all lambda_j < 1")
    fam = density.family
    fam.ground().validate(alpha)
    kern = kernel_from_params(fam, spec).entries
    eye = np.eye(fam.p)
    resolvent = np.linalg.solve(eye - kern, np.eye(fam.p))
    ell = kern @ resolvent
    base = float(np.linalg.det(eye - kern).real)
    if not len(alpha):
        return base
    rows = [x - 1 for x in alpha]
    return base * float(np.linalg.det(ell[np.ix_(rows, rows)]).real)


# ---------------------------------------------------------------------------
# random parameter generators (Haar via QR with positive-real diagonal)

def gaussian(shape, rng, real: bool = False) -> np.ndarray:
    """An iid standard Gaussian array of the given shape, drawn from the
    stream rng as one (2, *shape) draw, real part then imaginary part: the
    same numbers as two draws of shape. real=True draws (1, *shape) and
    returns a real array."""
    draw = rng.generator.standard_normal((1 if real else 2, *shape))
    return draw[0] if real else draw[0] + 1j * draw[1]


def haar_orthonormal(p: int, r: int, rng, real: bool = False) -> OrthonormalFamily:
    """Haar-distributed orthonormal p x r family, drawn from the stream rng.

    The QR factor of a gaussian((p, r), rng, real) matrix, through
    haar_orthonormal_many. real=True restricts to real entries for
    debugging; the family still has complex dtype, with every imaginary
    part 0.
    """
    shape = integer("p", p, 0), integer("r", r, 0)
    return haar_orthonormal_many([gaussian(shape, rng, real)])[0]


def haar_orthonormal_many(gaussians) -> list:
    """The Haar-distributed orthonormal family of each p x r Gaussian matrix
    of gaussians (any mix of shapes, real or complex), in input order.

    Each family is the Q factor of its matrix with the phase fixed so that
    the R diagonal is positive real, which makes the factor unique (Mezzadri
    2007, "How to generate random matrices from the classical compact
    groups"). The matrices of one shape and dtype are factorized by one
    stacked QR with one phase fix and built by one OrthonormalFamily.stack
    call, one Gram check for the group; this saves numpy's per-call
    overhead and gives the same bits as one QR per matrix. No minor store
    is filled here: the first minors(k) read on a family fills size k for
    its whole group, the stack it was built in.
    """
    groups = {}
    for i, g in enumerate(gaussians):
        p, r = g.shape
        if r > p:
            raise ValueError(f"rank r={r} exceeds p={p}: a p x r family has at "
                             "most p orthonormal columns")
        groups.setdefault((g.shape, g.dtype), []).append(i)
    families = [None] * len(gaussians)
    for indices in groups.values():
        q, rr = np.linalg.qr(np.stack([gaussians[i] for i in indices]))
        d = np.diagonal(rr, axis1=1, axis2=2)
        stacked = OrthonormalFamily.stack(q * (d / np.abs(d)).conj()[:, None, :])
        for i, family in zip(indices, stacked):
            families[i] = family
    return families


def random_spectrum(r: int, rng, max_value: float = 1.0) -> Spectrum:
    return Spectrum(rng.generator.uniform(0.0, max_value, size=integer("r", r, 0)))


# ---------------------------------------------------------------------------
# external formats

def params_to_dict(family: OrthonormalFamily, spectrum: Spectrum) -> dict:
    """JSON form: {"p": int, "phi": [[re, im], ...] column-major, "lambda": [...]}"""
    flat = family.columns.T.reshape(-1)  # column-major over (p, r)
    return {
        "p": family.p,
        "phi": [[float(z.real), float(z.imag)] for z in flat],
        "lambda": [float(v) for v in spectrum.values],
    }


def integer(key, value, low=None, high=None) -> int:
    """The int a value stands for, in the range [low, high]: the package's
    one reader of an integer argument or config value, and of its range.

    An int (a numpy integer too) or a float with no fractional part (not
    NaN or inf) is read as its int; anything else is a ValueError naming
    key, so that True is not run as 1, 1.5 as 1 nor "3" as 3. low=None is
    no bound, and high is only given with low. A value below low is refused
    as "{key} must be >= {low}, got {value}", or, when high is given, a
    value outside the range as "{key} must be in [{low}, {high}], got
    {value}"."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    elif isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        value = int(value)
    else:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{key} must be in [{low}, {high}], got {value}")
    if low is not None and value < low:
        raise ValueError(f"{key} must be >= {low}, got {value}")
    return value


def integer_fields(obj, **low) -> None:
    """Set each field of the dataclass obj (frozen or not) named in low to
    the integer it stands for, read by integer(name, value, low[name]): each
    keyword gives a field's lower bound, None for no bound."""
    for name, bound in low.items():
        object.__setattr__(obj, name, integer(name, getattr(obj, name), bound))


def is_real(value) -> bool:
    """Whether a value stands for a real number: an int or a float (a numpy
    integer or float too). A boolean or a numeric string is not, where numpy
    and complex() would read true as 1 and "0.5" as 0.5."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


def complex_pairs(key, pairs) -> np.ndarray:
    """A JSON list of [re, im] pairs as a complex vector; a ValueError naming
    key unless pairs is a list of two-entry lists of real numbers (is_real)."""
    if not isinstance(pairs, list):
        raise ValueError(f"{key} must be a list of [re, im] pairs, got {pairs!r}")
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(is_real(x) for x in pair)):
            raise ValueError(f"{key} entries must be [re, im] pairs of numbers, "
                             f"got {pair!r}")
    return np.array([complex(re, im) for re, im in pairs])


def path_entry(key, data: dict, name):
    """data[name] of the config object named key; a KeyError of the path
    key.name, e.g. params_b.phi, when it is missing."""
    if name not in data:
        raise KeyError(f"{key}.{name}")
    return data[name]


def column_matrix(key, data: dict, name, p: int, d: int) -> np.ndarray:
    """The p x d complex matrix held column-major, as [re, im] pairs
    (complex_pairs), in the entry name of the config object named key; a
    ValueError naming the entry, e.g. models[1].basis, unless it holds p * d
    pairs."""
    path = f"{key}.{name}"
    flat = complex_pairs(path, path_entry(key, data, name))
    if flat.size != p * d:
        raise ValueError(f"{path} has {flat.size} entries, expected {p * d}")
    return flat.reshape(d, p).T


def params_from_dict(key, data: dict):
    """The family and spectrum of the params_to_dict object named key. Every
    error names the entry it is about by its path, e.g. params_b.p, and a
    missing entry is a KeyError of that path."""
    if not isinstance(data, dict):
        raise ValueError(f"{key} must be an object with the keys p, lambda, "
                         f"phi, got {data!r}")

    entry = functools.partial(path_entry, key, data)
    p = integer(f"{key}.p", entry("p"), 1)
    lam = entry("lambda")
    if not isinstance(lam, list):
        raise ValueError(f"{key}.lambda must be a list of numbers, got {lam!r}")
    if not all(is_real(v) for v in lam):
        raise ValueError(f"{key}.lambda entries must be numbers, got {lam!r}")
    lam = np.asarray(lam, dtype=float)
    phi = column_matrix(key, data, "phi", p, lam.size)
    try:
        return OrthonormalFamily(phi), Spectrum(lam)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


# The one CSV number format, by numpy dtype kind: a bitmask, index or count
# in decimal, a float in 17 significant digits (it reads back as the same
# double), a label as it is.
_CSV_FORMATS = {"i": "%d", "u": "%d", "f": "%.17g", "U": "%s"}


def write_csv(path, header, columns):
    """Write the line of header names, then for each i the line holding
    entry i of every column.

    Each column is read as a numpy array, whose dtype picks its format from
    _CSV_FORMATS. Lines end in \r\n and nothing is quoted, the bytes the
    csv module's default dialect writes for such values; zero rows write the
    header line alone. Each chunk of _CSV_CHUNK_ROWS rows is one % operation
    on one string.
    """
    columns = [np.asarray(c) for c in columns]
    row = ",".join(_CSV_FORMATS[c.dtype.kind] for c in columns) + "\r\n"
    size = len(columns[0]) if columns else 0
    width = len(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, size, _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, size)
            flat = [None] * (width * (stop - start))
            for j, column in enumerate(columns):
                flat[j::width] = column[start:stop].tolist()
            fh.write((row * (stop - start)) % tuple(flat))


def write_json(path, payload):
    """Write payload as JSON with indent 1, sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_table_csv(table: DensityTable, path):
    """CSV export: config_bitmask,probability with the bitmask in decimal
    and the probability as %.17g (exact round trip)."""
    write_csv(path, ["config_bitmask", "probability"],
              [np.arange(table.probs.size), table.probs])
