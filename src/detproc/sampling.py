"""Exact samplers for determinantal processes.

One production route: sample_dpp draws whole blocks of samples at once with
the sequential projection sampler of Hough, Krishnapur, Peres and Virag
(2006) (Algorithm 1 in Kulesza and Taskar 2012), run with numpy array
operations over every draw of the block. The chain rule runs in the
Gram-Schmidt form of Tremblay, Barthelme and Amblard (2018): each draw keeps
a residual mass per point and the directions it has picked, and each step
takes one product of the new directions against the family columns, which
all draws share; no draw holds a basis of its own. A 0/1 spectrum makes it
the fixed-cardinality projection law on the index set of its ones.
sample_table, the inverse-CDF sampler over the enumerated density table, is
the oracle the production route is checked against; agreement of the two is
the package's core trust mechanism for randomness. It has one production
caller as well: each risk-curve replication draws from the truth's table,
which it builds anyway to score the selected candidate.

Samples are int64 bitmasks only (bit i-1 set iff point i is drawn), from
the samplers through the empirical table and the estimator.
"""
from __future__ import annotations

import numpy as np

from .core import DensityTable, DppDensity, integer, write_csv
from .rng import SeededRng

RANK_TOL = 1e-10
# Allowed gap between the total residual mass and the number of points
# still to draw; orthonormality is only checked to core.GRAM_TOL per Gram
# entry, so the mass may drift by about r times that.
COUNT_TOL = 1e-6
# Draws per batched kernel call. It bounds the (block, steps, p) store of
# inner products of the picked directions with every family row, the
# kernel's largest array; at p=12, r=6 blocks of 512 to 4096 draw about
# equally fast, and 512 keeps the store near 0.6 MB.
_BLOCK = 512
# Points an int64 bitmask can hold: bit 63 is the sign bit.
MAX_POINTS = 63


class SamplerConsistencyError(RuntimeError):
    """A draw's residual mass disagrees with the count it has left to draw."""


class SampleSet:
    """Ordered draws as a read-only int64 bitmask array.

    The masks are read as one array, of any integer dtype. A boolean or
    float array (a list holding a fraction reads as one) is refused rather
    than read as 1 or truncated, and so is a list or tuple that holds a
    boolean, which numpy would read into an integer array; an empty input
    holds no draw. Only a list or tuple is walked in Python; an array is
    checked by its dtype alone."""

    def __init__(self, masks):
        given = masks
        masks = np.asarray(masks)
        if masks.size and masks.dtype.kind not in "iu":
            raise ValueError(f"masks must be integers, got dtype {masks.dtype}")
        if isinstance(given, (list, tuple)):
            flat = np.asarray(given, dtype=object).reshape(-1).tolist()
            for i, mask in enumerate(flat):
                if isinstance(mask, (bool, np.bool_)):
                    raise ValueError(f"masks must be integers, got {mask!r} "
                                     f"at draw {i}")
        masks = np.array(masks, dtype=np.int64).reshape(-1)
        if masks.size and masks.min() < 0:
            raise ValueError(f"negative configuration bitmask {masks.min()}")
        masks.setflags(write=False)
        self._masks = masks

    def __len__(self):
        return self._masks.size

    def masks(self) -> np.ndarray:
        return self._masks

    def write_csv(self, path):
        """CSV export: draw_index,config_bitmask."""
        write_csv(path, ["draw_index", "config_bitmask"],
                  [np.arange(self._masks.size), self._masks])


def _projection_masks(columns: np.ndarray, active: np.ndarray,
                      u: np.ndarray) -> np.ndarray:
    """Bitmasks of one sequential projection draw per row of active.

    active is a (g, r) boolean matrix of index sets and u holds one uniform
    per draw and step (g, r). A draw's kernel is the projection on the span
    of its masked rows a_y (the family rows with inactive columns zeroed).
    Each draw keeps, in Gram-Schmidt form, the residual mass w[y] of every
    point: |a_y|^2 less the squared inner products of a_y with the
    orthonormal directions e_s picked so far. At each step it picks x with
    probability w[x] / remaining count, by inverse CDF, takes the new
    direction e = (a_x - sum_s <e_s, a_x> e_s) / sqrt(w[x]), and lowers w
    by |<e, a_y>|^2, one product against the shared columns. No draw
    holds a basis of its own.
    """
    if columns.shape[0] > MAX_POINTS:
        raise ValueError(f"p={columns.shape[0]} exceeds {MAX_POINTS}, the most "
                         "points an int64 draw bitmask can hold")
    count = active.sum(axis=1)
    order = np.argsort(-count, kind="stable")
    count = count[order]
    active = active[order]
    u = u[order]
    steps = count.max(initial=0)
    g = len(order)
    mass = active @ (columns.real**2 + columns.imag**2).T
    directions = np.empty((g, steps, columns.shape[1]), dtype=complex)
    # coeffs[i, s, y] = <e_s, a_y> of draw i
    coeffs = np.empty((g, steps, columns.shape[0]), dtype=complex)
    draw = np.arange(g)
    masks = np.zeros(g, dtype=np.int64)
    for step in range(steps):
        live = int(np.count_nonzero(count > step))
        w = mass[:live]
        cdf = np.cumsum(w, axis=1)
        total = cdf[:, -1]
        if np.any(total <= RANK_TOL):
            raise SamplerConsistencyError("working basis collapsed to zero mass")
        drift = np.abs(total - (count[:live] - step)).max()
        if drift > COUNT_TOL:
            raise SamplerConsistencyError(
                f"basis mass differs from the remaining count by {drift:.3e}"
            )
        # side="right": a cell of zero weight adds nothing to the CDF, so no
        # target u * total < total can stop on it
        x = np.count_nonzero(cdf <= (u[:live, step] * total)[:, None], axis=1)
        masks[:live] |= 1 << x
        # w[x] is the squared norm of x's residual row; RANK_TOL bounds the norm
        picked = w[draw[:live], x]
        if np.any(picked <= RANK_TOL**2):
            raise SamplerConsistencyError("picked a point where the span vanishes")
        going = int(np.count_nonzero(count > step + 1))
        if not going:
            break
        x, at = x[:going], draw[:going]
        e = columns[x] * active[:going]
        if step:
            e -= np.einsum("gs,gsr->gr", coeffs[at, :step, x],
                           directions[:going, :step])
        e /= np.sqrt(picked[:going])[:, None]
        c = e.conj() @ columns.T
        directions[:going, step] = e
        coeffs[:going, step] = c
        w = mass[:going]
        w -= c.real**2 + c.imag**2
        # x's residual is rounding only; zeroed, it is never picked again
        w[at, x] = 0.0
        np.maximum(w, 0.0, out=w)
    out = np.empty_like(masks)
    out[order] = masks
    return out


def sample_table(table: DensityTable, count: int, rng: SeededRng) -> SampleSet:
    """count exact inverse-CDF draws from a density table."""
    count = integer("count", count, 1)
    cdf = np.cumsum(table.probs)
    u = rng.generator.random(count)
    # searching u * total keeps every target below the last CDF value, so a
    # trailing cell of zero probability is never drawn
    masks = np.searchsorted(cdf, u * cdf[-1], side="right")
    return SampleSet(masks)


def sample_dpp(density: DppDensity, n: int, rng: SeededRng) -> SampleSet:
    """n independent draws by the two-step scheme: Bernoulli indices, then
    a sequential projection draw on the realized index set, in blocks."""
    n = integer("n", n, 1)
    gen = rng.generator
    columns = density.family.columns
    r = density.family.r
    sq = density.spectrum.values**2
    masks = np.empty(n, dtype=np.int64)
    for start in range(0, n, _BLOCK):
        g = min(_BLOCK, n - start)
        # row i holds draw i's 2r uniforms: r Bernoulli indices, then one
        # per step, so the first k draws do not depend on n
        uniforms = gen.random((g, 2 * r))
        masks[start:start + g] = _projection_masks(
            columns, uniforms[:, :r] < sq, uniforms[:, r:])
    return SampleSet(masks)


def cell_counts(samples: SampleSet, p: int) -> np.ndarray:
    """How often each of the 2^p configurations was drawn, indexed by
    bitmask; a mask outside the ground set of p points raises, naming the
    first such draw and its mask."""
    masks = samples.masks()
    size = 1 << integer("p", p, 1)
    outside = np.flatnonzero(masks >= size)
    if outside.size:
        i = int(outside[0])
        raise ValueError(
            f"draw {i} has mask {int(masks[i])}, outside the ground set of "
            f"p={p} (masks must be < {size})")
    return np.bincount(masks, minlength=size)


def empirical_table(samples: SampleSet, p: int) -> np.ndarray:
    """Empirical frequencies indexed by bitmask (not a DensityTable: it is
    an estimate, not an exact density); a mask outside the ground set of p
    points raises (cell_counts)."""
    return cell_counts(samples, p) / len(samples)


def total_variation(probs_a: np.ndarray, probs_b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(probs_a) - np.asarray(probs_b)).sum())
