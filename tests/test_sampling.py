import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from detproc.core import (
    Config,
    DensityTable,
    DppDensity,
    GroundSet,
    OrthonormalFamily,
    ProjectionDensity,
    Spectrum,
    correlation,
    density_table,
    haar_orthonormal,
    kernel_from_params,
    random_spectrum,
)
from detproc.rng import SeededRng
from detproc.sampling import (
    _BLOCK,
    SampleSet,
    SamplerConsistencyError,
    _projection_masks,
    empirical_table,
    sample_dpp,
    sample_table,
    total_variation,
)


# ---------------------------------------------------------------------------
# rng streams

def test_rng_same_seed_same_stream():
    a = SeededRng(42).generator.random(10)
    b = SeededRng(42).generator.random(10)
    assert np.array_equal(a, b)


def test_rng_split_streams_differ():
    root = SeededRng(42)
    a = root.split(0).generator.random(10)
    b = root.split(1).generator.random(10)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("seed", [2.5, True])
def test_rng_refuses_a_seed_that_is_not_an_integer(seed):
    # 2.5 once ran as seed 2 (the stream of SeededRng(2)), True as seed 1
    with pytest.raises(ValueError, match=f"seed must be an integer, got {seed}"):
        SeededRng(seed)


@pytest.mark.parametrize("index", [2.5, True])
def test_rng_refuses_a_split_index_that_is_not_an_integer(index):
    # split(2.5) once gave the stream of split(2), split(True) the key (1,)
    with pytest.raises(ValueError, match=f"index must be an integer, got {index}"):
        SeededRng(0).split(index)
    with pytest.raises(ValueError, match=f"key must be an integer, got {index}"):
        SeededRng(0, (index,))


def test_rng_refuses_a_negative_seed_or_key_by_name():
    # each once numpy's "expected non-negative integer", naming no key
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        SeededRng(-1)
    with pytest.raises(ValueError, match=r"^key must be >= 0, got -2$"):
        SeededRng(0, (3, -2))
    with pytest.raises(ValueError, match=r"^index must be >= 0, got -1$"):
        SeededRng(0).split(-1)


def test_rng_split_reads_a_numpy_integer_index():
    a = SeededRng(0).split(np.int64(2))
    assert a.key == (2,) and type(a.key[0]) is int
    assert np.array_equal(a.generator.random(4),
                          SeededRng(0).split(2).generator.random(4))


def test_rng_split_is_stable():
    a = SeededRng(7).split(3).split(1).generator.random(4)
    b = SeededRng(7).split(3).split(1).generator.random(4)
    assert np.array_equal(a, b)


def popcount(masks):
    return np.array([bin(m).count("1") for m in masks.tolist()], dtype=int)


# ---------------------------------------------------------------------------
# fixed-cardinality draws: sample_dpp on a 0/1 spectrum

def projection_law(fam, active):
    """The DppDensity whose law is the projection law on the index set active."""
    values = np.zeros(fam.r)
    values[[j - 1 for j in active]] = 1.0
    return DppDensity(fam, Spectrum(values))


def test_sequential_empty_active_set():
    fam = haar_orthonormal(4, 2, SeededRng(2))
    samples = sample_dpp(projection_law(fam, ()), 20, SeededRng(0))
    assert samples.masks().tolist() == [0] * 20


def test_sequential_point_mass():
    fam = OrthonormalFamily(np.eye(3, 1, dtype=complex))
    samples = sample_dpp(projection_law(fam, (1,)), 20, SeededRng(0))
    assert samples.masks().tolist() == [1] * 20


def test_sequential_draw_cardinality():
    fam = haar_orthonormal(6, 3, SeededRng(3))
    samples = sample_dpp(projection_law(fam, (1, 2, 3)), 30, SeededRng(0))
    assert np.all(popcount(samples.masks()) == 3)


def test_sequential_tv_against_table():
    rng = SeededRng(4)
    fam = haar_orthonormal(6, 2, rng.split(0))
    table = density_table(ProjectionDensity(fam, (1, 2)))
    samples = sample_dpp(projection_law(fam, (1, 2)), 20_000, rng.split(1))
    emp = empirical_table(samples, 6)
    assert total_variation(emp, table.probs) < 0.03


# ---------------------------------------------------------------------------
# oracle sampler and tables

def test_sample_table_two_point_symmetry():
    fam = OrthonormalFamily(
        np.array([[1 / math.sqrt(2)], [1 / math.sqrt(2)]], dtype=complex)
    )
    table = density_table(ProjectionDensity(fam, (1,)))
    samples = sample_table(table, 100_000, SeededRng(6))
    emp = empirical_table(samples, 2)
    assert emp[1] == pytest.approx(0.5, abs=0.01)
    assert emp[2] == pytest.approx(0.5, abs=0.01)


class _FixedUniforms:
    """Stands in for a SeededRng whose uniforms are all u."""

    def __init__(self, u):
        self.generator = self
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


def test_sample_table_never_draws_zero_last_cell():
    # total mass just below 1 and a zero last cell: the largest uniform
    # below 1 must still stop on the last cell of positive mass
    probs = np.array([0.5, 0.25, 0.25 - 1e-12, 0.0])
    table = DensityTable(GroundSet(2), probs)
    samples = sample_table(table, 3, _FixedUniforms(np.nextafter(1.0, 0.0)))
    assert samples.masks().tolist() == [2, 2, 2]


@pytest.mark.parametrize("masks", [[2.7, True], [True, False], np.array([3.0])],
                         ids=["fraction", "bool", "float-array"])
def test_sample_set_refuses_masks_that_are_not_integers(masks):
    # [2.7, True] once read as the draws [2, 1]
    with pytest.raises(ValueError, match=r"^masks must be integers, got dtype "):
        SampleSet(masks)


@pytest.mark.parametrize("masks, message", [
    ([2, True], "masks must be integers, got True at draw 1"),
    ((0, 3, False), "masks must be integers, got False at draw 2"),
    ([[1, 2], [np.True_, 0]], "masks must be integers, got np.True_ at draw 2"),
], ids=["list", "tuple", "nested-numpy-bool"])
def test_sample_set_refuses_a_list_that_holds_a_boolean(masks, message):
    # [2, True] once read as the draws [2, 1]: numpy makes an int64 array
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SampleSet(masks)


def test_sample_set_reads_integer_masks_of_any_width():
    for masks in ([5, 0, 3], np.array([5, 0, 3], dtype=np.uint8),
                  np.array([5, 0, 3], dtype=np.int32)):
        read = SampleSet(masks).masks()
        assert read.dtype == np.int64 and read.tolist() == [5, 0, 3]
    assert len(SampleSet([])) == 0


@pytest.mark.parametrize("masks, p, message", [
    ([5], 1, "draw 0 has mask 5, outside the ground set of p=1 (masks must be < 2)"),
    ([1, 3, 4, 9], 2, "draw 2 has mask 4, outside the ground set of p=2 "
                      "(masks must be < 4)"),
], ids=["one-point", "first-of-two"])
def test_empirical_table_refuses_masks_outside_the_ground_set(masks, p, message):
    # empirical_table(SampleSet([5]), 1) once returned [0, 0, 0, 0, 0, 1]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        empirical_table(SampleSet(masks), p)
    assert empirical_table(SampleSet([3, 0, 3, 1]), 2).tolist() == [
        0.25, 0.25, 0.0, 0.5]


def test_sample_table_rejects_bad_count():
    fam = haar_orthonormal(3, 1, SeededRng(7))
    table = density_table(ProjectionDensity(fam, (1,)))
    with pytest.raises(ValueError):
        sample_table(table, 0, SeededRng(0))


@pytest.mark.parametrize("count", [True, 2.5, math.nan],
                         ids=["bool", "fraction", "nan"])
def test_draw_counts_are_read_as_integers(count):
    # each once failed inside numpy with "expected a sequence of integers or
    # a single integer", naming no argument
    density = DppDensity(haar_orthonormal(3, 2, SeededRng(7)), Spectrum.ones(2))
    table = density_table(density)
    with pytest.raises(ValueError, match=rf"^n must be an integer, got {count!r}$"):
        sample_dpp(density, count, SeededRng(0))
    with pytest.raises(ValueError,
                       match=rf"^count must be an integer, got {count!r}$"):
        sample_table(table, count, SeededRng(0))
    # a float with no fractional part stands for its integer
    for sampler, source in [(sample_dpp, density), (sample_table, table)]:
        assert (sampler(source, 3.0, SeededRng(1)).masks().tolist()
                == sampler(source, 3, SeededRng(1)).masks().tolist())


# ---------------------------------------------------------------------------
# full two-step sampler

def test_dpp_zero_spectrum_always_empty():
    fam = haar_orthonormal(4, 2, SeededRng(8))
    samples = sample_dpp(DppDensity(fam, Spectrum(np.zeros(2))), 50, SeededRng(0))
    assert not samples.masks().any()


def test_dpp_projection_spectrum_fixed_cardinality():
    fam = haar_orthonormal(5, 3, SeededRng(9))
    spec = Spectrum(np.array([1.0, 0.0, 1.0]))
    samples = sample_dpp(DppDensity(fam, spec), 100, SeededRng(1))
    assert np.all(popcount(samples.masks()) == 2)


def test_dpp_bitmask_holds_point_63():
    # all mass on the last point of p = 63: bit 62, the highest an int64
    # mask holds
    cols = np.zeros((63, 1), dtype=complex)
    cols[62, 0] = 1.0
    density = DppDensity(OrthonormalFamily(cols), Spectrum.ones(1))
    masks = sample_dpp(density, 5, SeededRng(0)).masks()
    assert masks.tolist() == [1 << 62] * 5


def test_dpp_determinism():
    rng_params = SeededRng(10)
    fam = haar_orthonormal(5, 2, rng_params.split(0))
    spec = random_spectrum(2, rng_params.split(1))
    d = DppDensity(fam, spec)
    a = sample_dpp(d, 200, SeededRng(11))
    b = sample_dpp(d, 200, SeededRng(11))
    assert np.array_equal(a.masks(), b.masks())


def test_dpp_tv_against_table():
    rng = SeededRng(12)
    fam = haar_orthonormal(6, 3, rng.split(0))
    spec = random_spectrum(3, rng.split(1))
    d = DppDensity(fam, spec)
    table = density_table(d)
    samples = sample_dpp(d, 20_000, rng.split(2))
    emp = empirical_table(samples, 6)
    assert total_variation(emp, table.probs) < 0.03


def test_dpp_cardinality_law_chi_square():
    rng = SeededRng(13)
    fam = haar_orthonormal(6, 3, rng.split(0))
    spec = random_spectrum(3, rng.split(1))
    samples = sample_dpp(DppDensity(fam, spec), 20_000, rng.split(2))
    sizes = popcount(samples.masks())
    observed = np.bincount(sizes, minlength=4)
    # law of a sum of independent Bernoulli(lambda_j^2) variables
    expected = np.zeros(4)
    sq = spec.values**2
    for mask in range(8):
        bits = [(mask >> j) & 1 for j in range(3)]
        prob = np.prod([sq[j] if b else 1 - sq[j] for j, b in enumerate(bits)])
        expected[sum(bits)] += prob
    expected *= len(samples)
    keep = expected > 0
    stat = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    pval = stats.chi2.sf(stat, int(keep.sum()) - 1)
    assert pval > 1e-3


def test_one_point_marginals_match_correlation():
    rng = SeededRng(14)
    fam = haar_orthonormal(6, 3, rng.split(0))
    spec = random_spectrum(3, rng.split(1))
    d = DppDensity(fam, spec)
    kern = kernel_from_params(fam, spec)
    samples = sample_dpp(d, 30_000, rng.split(2))
    masks = samples.masks()
    for x in range(1, 7):
        freq = float(np.mean((masks >> (x - 1)) & 1))
        assert freq == pytest.approx(correlation(kern, Config([x])), abs=0.015)


def test_dpp_draws_are_prefix_consistent_across_blocks():
    # the first k draws of a seeded run do not depend on how many follow
    rng = SeededRng(16)
    fam = haar_orthonormal(5, 3, rng.split(0))
    d = DppDensity(fam, random_spectrum(3, rng.split(1)))
    table = density_table(d)
    n = 2 * _BLOCK + 17
    masks = sample_dpp(d, n, rng.split(2)).masks()
    assert masks.shape == (n,)
    assert np.all(table.probs[masks] > 0.0)
    for k in (1, 5, _BLOCK, _BLOCK + 3):
        assert np.array_equal(sample_dpp(d, k, rng.split(2)).masks(), masks[:k])


# ---------------------------------------------------------------------------
# kernel consistency checks

def test_kernel_rejects_mass_that_misses_the_count():
    cols = 1.01 * np.eye(3, 2, dtype=complex)
    with pytest.raises(SamplerConsistencyError, match="remaining count"):
        _projection_masks(cols, np.ones((1, 2), dtype=bool), np.zeros((1, 2)))


def test_kernel_rejects_collapsed_mass():
    cols = np.zeros((3, 1), dtype=complex)
    with pytest.raises(SamplerConsistencyError, match="zero mass"):
        _projection_masks(cols, np.ones((1, 1), dtype=bool), np.zeros((1, 1)))


def test_kernel_rejects_pick_where_span_vanishes():
    # the first cell has mass 1e-22 > 0, and u = 0 stops on it
    tiny = 1e-11
    cols = np.array([[tiny], [math.sqrt(1.0 - tiny**2)]], dtype=complex)
    with pytest.raises(SamplerConsistencyError, match="vanishes"):
        _projection_masks(cols, np.ones((1, 1), dtype=bool), np.zeros((1, 1)))


def test_kernel_rejects_vanishing_pick_before_the_last_step():
    # rank 2: the first pick stops on a cell of mass 1e-22 with one step
    # still to go, where dividing by its root would build a direction from
    # rounding
    tiny = 1e-11
    cols = np.array([[tiny, 0.0], [math.sqrt(1.0 - tiny**2), 0.0], [0.0, 1.0]],
                    dtype=complex)
    with pytest.raises(SamplerConsistencyError, match="vanishes"):
        _projection_masks(cols, np.ones((1, 2), dtype=bool), np.zeros((1, 2)))


def test_kernel_inverse_cdf_with_fixed_uniforms():
    # p=3, rank 1, column (0, a, b): point 2 is drawn iff u < |a|^2, and
    # the zero-weight point 1 never, not even for u = 0
    cols = np.array([[0.0], [math.sqrt(0.3)], [math.sqrt(0.7)]], dtype=complex)
    active = np.ones((4, 1), dtype=bool)
    u = np.array([[0.0], [0.2999], [0.3001], [np.nextafter(1.0, 0.0)]])
    assert _projection_masks(cols, active, u).tolist() == [2, 2, 4, 4]


def test_kernel_keeps_draw_order():
    # the kernel groups draws by size internally; row i of the result must
    # still belong to row i of the index sets
    cols = np.eye(3, 2, dtype=complex)
    active = np.array([[False, False], [True, True], [False, True], [True, False]])
    u = np.full((4, 2), 0.5)
    assert _projection_masks(cols, active, u).tolist() == [0, 3, 2, 1]


def _deflation_draw(columns, active, u):
    """Reference: one sequential projection draw that deflates an explicit
    basis of the active span, B <- B - (B v) v*, v = B[x,:]* / |B[x,:]|."""
    basis = columns * active
    mask = 0
    for step in range(int(active.sum())):
        cdf = np.cumsum(np.sum(np.abs(basis) ** 2, axis=1))
        x = int(np.count_nonzero(cdf <= u[step] * cdf[-1]))
        mask |= 1 << x
        v = basis[x].conj() / np.linalg.norm(basis[x])
        basis = basis - np.outer(basis @ v, v.conj())
    return mask


@given(p=st.integers(1, 10), real=st.booleans(), seed=st.integers(0, 2**32),
       data=st.data())
def test_kernel_matches_the_deflation_reference(p, real, seed, data):
    r = data.draw(st.integers(1, p), label="r")
    columns = haar_orthonormal(p, r, SeededRng(seed), real=real).columns
    unit = st.floats(0.0, 1.0, exclude_max=True)
    values = data.draw(st.one_of(st.just([1.0] * r),
                                 st.lists(unit, min_size=r, max_size=r)),
                       label="spectrum")
    g = data.draw(st.integers(1, 8), label="draws")
    coins = np.array(data.draw(st.lists(unit, min_size=g * r, max_size=g * r),
                               label="coins")).reshape(g, r)
    # a step uniform below ~1e-30 could stop on the reference's rounding
    # residue at a point it already drew, which the kernel sets to zero
    positive = st.floats(1e-12, 1.0, exclude_max=True)
    u = np.array(data.draw(st.lists(positive, min_size=g * r, max_size=g * r),
                           label="uniforms")).reshape(g, r)
    active = coins < np.square(values)
    expected = [_deflation_draw(columns, active[i], u[i]) for i in range(g)]
    assert _projection_masks(columns, active, u).tolist() == expected


def test_sample_seq_draws_are_pinned():
    # the first draws of the benchmark's sample_seq input at seed 0 (p = 12,
    # rank 6, spectrum 0.95 down to 0.45): a change to how the kernel
    # consumes the stream must change this list on purpose
    fam = haar_orthonormal(12, 6, SeededRng(0))
    d = DppDensity(fam, Spectrum(np.linspace(0.95, 0.45, 6)))
    assert sample_dpp(d, 16, SeededRng(0)).masks().tolist() == [
        3264, 73, 272, 288, 84, 2086, 2052, 3072,
        2048, 2624, 2060, 2136, 65, 2080, 3392, 2256]


# ---------------------------------------------------------------------------
# exports

def test_sample_set_csv(tmp_path):
    fam = haar_orthonormal(4, 2, SeededRng(15))
    samples = sample_dpp(DppDensity(fam, Spectrum.ones(2)), 5, SeededRng(3))
    path = tmp_path / "draws.csv"
    samples.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "draw_index,config_bitmask"
    assert len(lines) == 6
    idx, mask = lines[1].split(",")
    assert idx == "0"
    assert int(mask) == samples.masks()[0]
