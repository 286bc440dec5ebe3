import ast
import gc
import math
import re
import weakref
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from detproc import core
from detproc.core import (
    DEFAULT_ENUM_CAP,
    TABLE_TOL,
    Config,
    DensityTable,
    DppDensity,
    EnumerationCapError,
    GroundSet,
    KernelMatrix,
    OrthonormalFamily,
    ProjectionDensity,
    Spectrum,
    abs_det,
    abs_det_many,
    correlation,
    density_table,
    dpp_density_eval,
    gaussian,
    haar_orthonormal,
    haar_orthonormal_many,
    inclusion_probabilities,
    kernel_from_params,
    l_ensemble_oracle,
    mixture_weight,
    normalization_check,
    params_from_dict,
    params_to_dict,
    projection_density_eval,
    random_spectrum,
    subsets,
    write_table_csv,
)
from detproc.estimator import SubspaceModel, oracle_bound
from detproc.hellinger import gplus_delta, hellinger, wedge_coords
from detproc.rng import SeededRng
from detproc.sampling import SampleSet, empirical_table

RT_HALF = 1.0 / math.sqrt(2.0)


def family_from_columns(*cols):
    return OrthonormalFamily(np.column_stack(cols).astype(complex))


def e(p, i):
    v = np.zeros(p)
    v[i - 1] = 1.0
    return v


# ---------------------------------------------------------------------------
# determinant helpers

def test_abs_det_empty_matrix_is_one():
    assert abs_det(np.zeros((0, 0))) == 1.0


def test_abs_det_rejects_non_square():
    with pytest.raises(ValueError):
        abs_det(np.ones((2, 3)))


def test_abs_det_matches_numpy_on_random_matrices():
    gen = SeededRng(7).generator
    for _ in range(50):
        k = int(gen.integers(1, 6))
        a = gen.standard_normal((k, k)) + 1j * gen.standard_normal((k, k))
        assert abs_det(a) == pytest.approx(abs(np.linalg.det(a)), abs=1e-10)


def test_abs_det_many_agrees_with_scalar_route():
    # two different algorithms (batched LU vs scalar pivoted QR) must
    # agree; they cross-validate each other throughout the package
    gen = SeededRng(11).generator
    for k in range(1, 5):
        stack = gen.standard_normal((40, k, k)) + 1j * gen.standard_normal((40, k, k))
        bulk = abs_det_many(stack)
        for i in range(40):
            assert bulk[i] == pytest.approx(abs_det(stack[i]), abs=1e-10)


def test_abs_det_many_zero_size():
    out = abs_det_many(np.zeros((5, 0, 0)))
    assert np.all(out == 1.0)


def test_family_moduli_match_oracle_and_are_memoized():
    # moduli(J) is the row of the stored block minors(|J|) that belongs to J,
    # rows in combinations order; each block is computed once per size
    fam = haar_orthonormal(5, 3, SeededRng(12))
    for k in range(4):
        block = fam.minors(k)
        assert fam.minors(k) is block
        assert not block.flags.writeable
        masks = subsets(5, k)[0]
        assert block.shape == (math.comb(3, k), masks.size)
        for row, active in enumerate(combinations(range(1, 4), k)):
            got = fam.moduli(active)
            assert got.base is block and np.array_equal(got, block[row])
            assert not got.flags.writeable
            for mask, value in zip(masks.tolist(), got):
                alpha = Config.from_mask(mask)
                assert value == pytest.approx(
                    abs_det(fam.submatrix(alpha, active)), abs=1e-12)
    assert set(fam._minors) == {0, 1, 2, 3}
    assert np.array_equal(fam.minors(0), [[1.0]])


# ---------------------------------------------------------------------------
# configurations and ground set

def test_config_sorted_and_mask_roundtrip():
    c = Config([3, 1, 2])
    assert c.members == (1, 2, 3)
    assert c.mask == 0b111
    assert Config.from_mask(c.mask) == c


def test_config_rejects_duplicates_and_bad_indices():
    with pytest.raises(ValueError):
        Config([1, 1])
    with pytest.raises(ValueError):
        Config([0, 2])


def test_ground_set_enumerates_all_configs():
    ground = GroundSet(3)
    configs = list(ground.configs())
    assert len(configs) == 8
    assert configs[0] == Config()
    assert configs[-1] == Config([1, 2, 3])


def test_ground_set_validates_membership():
    with pytest.raises(ValueError):
        GroundSet(2).validate(Config([3]))


def test_enumeration_cap_enforced():
    fam = haar_orthonormal(DEFAULT_ENUM_CAP + 1, 2, SeededRng(0))
    with pytest.raises(EnumerationCapError):
        density_table(ProjectionDensity(fam, (1, 2)))
    with pytest.raises(EnumerationCapError):
        GroundSet(DEFAULT_ENUM_CAP + 1)
    with pytest.raises(ValueError):
        GroundSet(0)
    assert GroundSet(DEFAULT_ENUM_CAP).p == DEFAULT_ENUM_CAP


# ---------------------------------------------------------------------------
# parameter types

def test_orthonormal_family_rejects_bad_gram():
    cols = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        OrthonormalFamily(cols)


def test_orthonormal_family_rejects_scaled_column():
    with pytest.raises(ValueError):
        OrthonormalFamily(1.1 * np.eye(2, 1, dtype=complex))


def test_spectrum_range_checked():
    with pytest.raises(ValueError):
        Spectrum(np.array([1.2]))
    with pytest.raises(ValueError):
        Spectrum(np.array([-0.1]))


def test_spectrum_companion_inequalities():
    # 1 - sqrt(1 - l^2) <= l^2 <= l entrywise for l in [0, 1]
    gen = SeededRng(3).generator
    spec = Spectrum(gen.uniform(0, 1, 100))
    lam = spec.values
    chk = spec.checked
    assert np.all(chk >= -1e-15) and np.all(chk <= 1.0 + 1e-15)
    assert np.all(chk <= lam**2 + 1e-12)
    assert np.all(lam**2 <= lam + 1e-12)


def test_kernel_matrix_rejects_non_hermitian_and_bad_spectrum():
    with pytest.raises(ValueError):
        KernelMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        KernelMatrix(2.0 * np.eye(2))


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_spectrum_rejects_non_finite(bad):
    # every range comparison is False for NaN
    with pytest.raises(ValueError, match="finite"):
        Spectrum(np.array([bad, 0.5]))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_orthonormal_family_rejects_non_finite(bad):
    cols = np.eye(3, 2, dtype=complex)
    cols[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        OrthonormalFamily(cols)
    cols[2, 1] = complex(0.0, bad)
    with pytest.raises(ValueError, match="finite"):
        OrthonormalFamily(cols)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_density_table_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        DensityTable(GroundSet(2), np.array([bad, 0.5, 0.25, 0.25]))


@pytest.mark.parametrize("low", [-1e-13, -1e-300, -5e-324],
                         ids=["minus-1e-13", "minus-1e-300", "minus-denormal"])
def test_density_table_rejects_any_negative_entry(low):
    # an entry down to -1e-12 was once accepted, and the table's Hellinger
    # distance to itself was NaN, from the square root of the negative entry
    with pytest.raises(ValueError, match=re.escape(
            f"probabilities must be finite and >= 0 (min {low:.3e})")):
        DensityTable(GroundSet(2), [low, 0.5, 0.5, -low])
    # a negative zero is no negative entry
    table = DensityTable(GroundSet(2), [-0.0, 0.5, 0.5, 0.0])
    assert hellinger(table, table)[0] == 0.0


@pytest.mark.parametrize("bad", NON_FINITE)
def test_kernel_matrix_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        KernelMatrix(np.array([[bad, 0.0], [0.0, 0.5]]))


# ---------------------------------------------------------------------------
# projection density

def test_projection_identity_column():
    fam = family_from_columns(e(2, 1))
    assert projection_density_eval(fam, (1,), Config([1])) == pytest.approx(1.0)
    assert projection_density_eval(fam, (1,), Config([2])) == pytest.approx(0.0)


def test_projection_balanced_column():
    fam = family_from_columns(np.array([RT_HALF, RT_HALF]))
    assert projection_density_eval(fam, (1,), Config([1])) == pytest.approx(0.5)


def test_projection_two_column_hand_value():
    fam = family_from_columns(e(3, 1), (e(3, 2) + e(3, 3)) * RT_HALF)
    assert projection_density_eval(fam, (1, 2), Config([1, 2])) == pytest.approx(0.5)
    assert projection_density_eval(fam, (1, 2), Config([2, 3])) == pytest.approx(0.0)
    table = density_table(ProjectionDensity(fam, (1, 2)))
    assert normalization_check(table) == pytest.approx(1.0, abs=1e-12)


def test_projection_empty_active_set_is_dirac_at_empty():
    fam = haar_orthonormal(3, 2, SeededRng(1))
    assert projection_density_eval(fam, (), Config()) == 1.0
    assert projection_density_eval(fam, (), Config([1])) == 0.0


def test_projection_rejects_out_of_range_active():
    fam = haar_orthonormal(3, 2, SeededRng(1))
    with pytest.raises(ValueError):
        projection_density_eval(fam, (3,), Config([1]))


def test_projection_cardinality_mismatch_is_exact_zero():
    fam = haar_orthonormal(4, 2, SeededRng(2))
    assert projection_density_eval(fam, (1, 2), Config([1])) == 0.0


def test_projection_ordering_invariance():
    fam = haar_orthonormal(5, 3, SeededRng(4))
    a = projection_density_eval(fam, (1, 2, 3), Config([4, 1, 3]))
    b = projection_density_eval(fam, (1, 2, 3), Config([1, 3, 4]))
    assert a == b


# ---------------------------------------------------------------------------
# mixture weights and full density

def test_mixture_weight_degenerate_cases():
    assert mixture_weight(Spectrum(np.array([1.0])), (1,)) == pytest.approx(1.0)
    assert mixture_weight(Spectrum(np.array([1.0])), ()) == pytest.approx(0.0)
    assert mixture_weight(Spectrum(np.array([0.0])), ()) == pytest.approx(1.0)


def test_mixture_weight_two_level_example():
    spec = Spectrum(np.array([math.sqrt(0.5), math.sqrt(0.2)]))
    values = {
        (): 0.4,
        (1,): 0.4,
        (2,): 0.1,
        (1, 2): 0.1,
    }
    for active, expected in values.items():
        assert mixture_weight(spec, active) == pytest.approx(expected)
    assert math.fsum(values.values()) == pytest.approx(1.0)


def test_dpp_density_diagonal_example():
    fam = OrthonormalFamily(np.eye(2, dtype=complex))
    spec = Spectrum(np.array([math.sqrt(0.5), math.sqrt(0.2)]))
    density = DppDensity(fam, spec)
    assert dpp_density_eval(density, Config()) == pytest.approx(0.4)
    assert dpp_density_eval(density, Config([1])) == pytest.approx(0.4)
    assert dpp_density_eval(density, Config([2])) == pytest.approx(0.1)
    assert dpp_density_eval(density, Config([1, 2])) == pytest.approx(0.1)


def test_dpp_density_eval_is_independent_of_the_table_route(monkeypatch):
    # the mixture-sum oracle must not share the index-set layout the table
    # sums through
    rng = SeededRng(12)
    density = DppDensity(haar_orthonormal(5, 3, rng.split(0)),
                         random_spectrum(3, rng.split(1)))
    table = density_table(density)

    def unavailable(*_):
        raise AssertionError("dpp_density_eval used the table's index-set layout")

    for name in ("index_set_weights", "_index_sets", "_minor_pairs"):
        monkeypatch.setattr(core, name, unavailable)
    for mask, alpha in enumerate(GroundSet(5).configs()):
        assert dpp_density_eval(density, alpha) == pytest.approx(table.probs[mask],
                                                                  abs=1e-12)


def test_dpp_density_zero_spectrum_is_dirac():
    fam = haar_orthonormal(4, 2, SeededRng(5))
    density = DppDensity(fam, Spectrum(np.zeros(2)))
    assert dpp_density_eval(density, Config()) == pytest.approx(1.0)
    assert dpp_density_eval(density, Config([2])) == pytest.approx(0.0)


def test_dpp_density_all_ones_equals_projection():
    fam = haar_orthonormal(5, 2, SeededRng(6))
    density = DppDensity(fam, Spectrum.ones(2))
    for alpha in GroundSet(5).configs():
        assert dpp_density_eval(density, alpha) == pytest.approx(
            projection_density_eval(fam, (1, 2), alpha), abs=1e-12
        )


def test_relabeling_invariance():
    # permuting the (lambda_j, phi_j) pairs leaves the density unchanged
    rng = SeededRng(8)
    fam = haar_orthonormal(5, 3, rng.split(0))
    spec = random_spectrum(3, rng.split(1))
    perm = [2, 0, 1]
    fam_p = OrthonormalFamily(fam.columns[:, perm])
    spec_p = Spectrum(spec.values[perm])
    t1 = density_table(DppDensity(fam, spec))
    t2 = density_table(DppDensity(fam_p, spec_p))
    assert np.max(np.abs(t1.probs - t2.probs)) < 1e-10


# ---------------------------------------------------------------------------
# kernels and correlation

def test_kernel_diagonal_example():
    fam = OrthonormalFamily(np.eye(2, dtype=complex))
    spec = Spectrum(np.array([math.sqrt(0.5), math.sqrt(0.2)]))
    kern = kernel_from_params(fam, spec)
    assert np.allclose(kern.entries, np.diag([0.5, 0.2]))


def test_kernel_full_rank_identity():
    fam = OrthonormalFamily(np.eye(3, dtype=complex))
    kern = kernel_from_params(fam, Spectrum.ones(3))
    assert np.allclose(kern.entries, np.eye(3))


def test_kernel_rank_one_outer_product():
    fam = family_from_columns(np.array([RT_HALF, RT_HALF]))
    kern = kernel_from_params(fam, Spectrum.ones(1))
    assert np.allclose(kern.entries, 0.5 * np.ones((2, 2)))


def test_correlation_diagonal_values():
    kern = KernelMatrix(np.diag([0.5, 0.2]).astype(complex))
    assert correlation(kern, Config([1])) == pytest.approx(0.5)
    assert correlation(kern, Config()) == pytest.approx(1.0)
    assert correlation(kern, Config([1, 2])) == pytest.approx(0.1)


def test_correlation_matches_enumerated_inclusion():
    rng = SeededRng(9)
    fam = haar_orthonormal(5, 3, rng.split(0))
    spec = random_spectrum(3, rng.split(1))
    table = density_table(DppDensity(fam, spec))
    kern = kernel_from_params(fam, spec)
    incl = inclusion_probabilities(table)
    for alpha in GroundSet(5).configs():
        assert correlation(kern, alpha) == pytest.approx(
            incl[alpha.mask], abs=1e-9
        )


# ---------------------------------------------------------------------------
# tables, normalization, oracles

def test_density_table_zero_spectrum():
    fam = haar_orthonormal(3, 2, SeededRng(10))
    table = density_table(DppDensity(fam, Spectrum(np.zeros(2))))
    assert table.probs[0] == pytest.approx(1.0)
    assert np.all(table.probs[1:] == 0.0)


def test_density_table_projection_support_exact():
    fam = haar_orthonormal(6, 2, SeededRng(12))
    table = density_table(ProjectionDensity(fam, (1, 2)))
    for alpha in GroundSet(6).configs():
        if len(alpha) != 2:
            assert table.probs[alpha.mask] == 0.0
    assert np.count_nonzero(table.probs) <= math.comb(6, 2)


def test_density_table_matches_pointwise_eval():
    rng = SeededRng(13)
    fam = haar_orthonormal(4, 3, rng.split(0))
    spec = random_spectrum(3, rng.split(1))
    density = DppDensity(fam, spec)
    table = density_table(density)
    for alpha in GroundSet(4).configs():
        assert table.probs[alpha.mask] == pytest.approx(
            dpp_density_eval(density, alpha), abs=1e-12
        )


def _loop_blocks(columns, k):
    """Reference for subsets: masks and k x k blocks (rows = subset, columns
    = the first k), built one subset at a time with np.ix_."""
    p = columns.shape[0]
    masks = [sum(1 << (x - 1) for x in c) for c in combinations(range(1, p + 1), k)]
    subs = np.empty((len(masks), k, k), dtype=complex)
    for i, members in enumerate(combinations(range(p), k)):
        subs[i] = columns[np.ix_(members, range(k))]
    return masks, subs


def _loop_table(fam, spec):
    """Reference for density_table: the per-subset mixture loop."""
    probs = np.zeros(1 << fam.p)
    for k in range(spec.r + 1):
        for active in combinations(range(1, spec.r + 1), k):
            w = mixture_weight(spec, active)
            if w == 0.0:
                continue
            if k == 0:
                probs[0] += w
                continue
            masks, subs = _loop_blocks(fam.columns[:, [j - 1 for j in active]], k)
            for m, v in zip(masks, abs_det_many(subs) ** 2):
                probs[m] += w * v
    return probs


def test_subsets_match_per_subset_loop():
    gen = SeededRng(30).generator
    for p in range(8):
        columns = gen.standard_normal((p, p)) + 1j * gen.standard_normal((p, p))
        for k in range(p + 1):
            masks, rows = subsets(p, k)
            want_masks, want_blocks = _loop_blocks(columns, k)
            assert np.array_equal(masks, want_masks)
            assert np.array_equal(columns[:, :k][rows], want_blocks)


def test_density_table_matches_per_subset_loop():
    # C(14, 4) = 1001 <= 2^10 minors: the mixture-sum route, which adds the
    # zero-weight index sets as exact zeros
    rng = SeededRng(31)
    fam = haar_orthonormal(10, 4, rng.split(0))
    values = np.array(random_spectrum(4, rng.split(1)).values)
    values[[0, 2]] = [1.0, 0.0]  # index 1 always drawn, index 3 never
    spec = Spectrum(values)
    table = density_table(DppDensity(fam, spec))
    assert np.array_equal(table.probs, _loop_table(fam, spec))


def test_normalization_random_instances():
    root = SeededRng(14)
    for i in range(20):
        rng = root.split(i)
        gen = rng.generator
        p = int(gen.integers(2, 13))
        k = int(gen.integers(1, min(p, 4) + 1))
        fam = haar_orthonormal(p, k, rng.split(0))
        table = density_table(ProjectionDensity(fam, tuple(range(1, k + 1))))
        assert normalization_check(table) == pytest.approx(1.0, abs=1e-9)


def test_non_orthonormal_negative_control():
    # scaling one column by c breaks normalization: the rank-1 "density"
    # sums to c^2, caught by direct enumeration without the Gram check
    c = 1.3
    col = c * np.array([RT_HALF, RT_HALF, 0.0])
    total = math.fsum(abs(col[x]) ** 2 for x in range(3))
    assert total == pytest.approx(c**2)
    table_cls_rejects = DensityTable
    with pytest.raises(ValueError):
        table_cls_rejects(GroundSet(2), np.array([0.5, 0.5, 0.5, 0.5]))


def test_l_ensemble_zero_spectrum():
    fam = haar_orthonormal(3, 2, SeededRng(15))
    density = DppDensity(fam, Spectrum(np.zeros(2)))
    assert l_ensemble_oracle(density, Config()) == pytest.approx(1.0)
    assert l_ensemble_oracle(density, Config([1])) == pytest.approx(0.0)


def test_l_ensemble_diagonal_hand_value():
    fam = OrthonormalFamily(np.eye(2, dtype=complex))
    spec = Spectrum(np.array([math.sqrt(0.5), math.sqrt(0.2)]))
    val = l_ensemble_oracle(DppDensity(fam, spec), Config([1]))
    assert val == pytest.approx(0.4)


def test_l_ensemble_rejects_unit_eigenvalue():
    fam = haar_orthonormal(3, 1, SeededRng(16))
    with pytest.raises(ValueError):
        l_ensemble_oracle(DppDensity(fam, Spectrum.ones(1)), Config())


def test_l_ensemble_cross_check_random():
    root = SeededRng(17)
    for i in range(10):
        rng = root.split(i)
        fam = haar_orthonormal(5, 3, rng.split(0))
        spec = random_spectrum(3, rng.split(1), max_value=0.9)
        density = DppDensity(fam, spec)
        for alpha in GroundSet(5).configs():
            assert l_ensemble_oracle(density, alpha) == pytest.approx(
                dpp_density_eval(density, alpha), abs=1e-8
            )


def test_density_table_at_the_enumeration_cap():
    # p = 20, r = 10: the mixture sum would need C(30, 10) ~ 3e7 minors, so
    # this table comes from the chain rule over the points
    rng = SeededRng(20)
    fam = haar_orthonormal(20, 10, rng.split(0))
    density = DppDensity(fam, Spectrum(np.linspace(0.95, 0.45, 10)))
    table = density_table(density)
    assert abs(normalization_check(table) - 1.0) <= TABLE_TOL
    gen = rng.split(1).generator
    for _ in range(10):
        members = gen.choice(20, size=int(gen.integers(0, 11)), replace=False) + 1
        alpha = Config(members)
        value = table.probs[alpha.mask]
        assert abs(value - dpp_density_eval(density, alpha)) <= 1e-12
        assert abs(value - l_ensemble_oracle(density, alpha)) <= 1e-12


# ---------------------------------------------------------------------------
# generators and formats

def test_haar_orthonormal_is_valid_and_deterministic():
    a = haar_orthonormal(6, 3, SeededRng(20))
    b = haar_orthonormal(6, 3, SeededRng(20))
    assert np.array_equal(a.columns, b.columns)
    gram = a.columns.conj().T @ a.columns
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12


def test_haar_orthonormal_real_mode():
    fam = haar_orthonormal(4, 2, SeededRng(21), real=True)
    assert np.all(fam.columns.imag == 0.0)


def test_haar_orthonormal_refuses_rank_above_p():
    # (3, 5) once returned a 3 x 3 family
    with pytest.raises(ValueError, match=r"r=5 exceeds p=3"):
        haar_orthonormal(3, 5, SeededRng(0))
    assert haar_orthonormal(3, 3, SeededRng(0)).r == 3


def reference_haar(p, r, rng, real=False) -> np.ndarray:
    """The per-family Haar route: one QR and one phase fix per call."""
    gen = rng.generator
    if r == 0:
        return np.zeros((p, 0), dtype=complex)
    g = gen.standard_normal((p, r))
    if not real:
        g = g + 1j * gen.standard_normal((p, r))
    q, rr = np.linalg.qr(g)
    d = np.diag(rr)
    return np.asarray(q * (d / np.abs(d)).conj(), dtype=complex)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_haar_orthonormal_many_matches_one_family_per_stream(real):
    for p in range(9):
        for r in range(p + 1):
            streams = [SeededRng(30, (p, r, j)) for j in range(4)]
            families = haar_orthonormal_many(
                [gaussian((p, r), stream, real) for stream in streams])
            assert len(families) == len(streams)
            for j, (fam, stream) in enumerate(zip(families, streams)):
                alone = SeededRng(30, (p, r, j))
                single = haar_orthonormal(p, r, alone, real).columns
                reference = reference_haar(p, r, SeededRng(30, (p, r, j)), real)
                # bit for bit, signed zeros included
                assert fam.columns.shape == single.shape == reference.shape == (p, r)
                assert fam.columns.tobytes() == single.tobytes() == reference.tobytes()
                # the stream is left where drawing its family alone leaves it
                assert stream.generator.random() == alone.generator.random()


def test_haar_orthonormal_many_keeps_input_order_across_shapes():
    # mixed shapes and dtypes, r = 0 included, each shape several times
    shapes = [(4, 2, False), (3, 3, True), (5, 0, False), (4, 2, True),
              (1, 1, False), (4, 2, False), (5, 0, True), (3, 3, True),
              (6, 1, False), (4, 2, False)]
    gaussians = [gaussian((p, r), SeededRng(31, (j,)), real)
                 for j, (p, r, real) in enumerate(shapes)]
    families = haar_orthonormal_many(gaussians)
    assert len(families) == len(shapes)
    for j, (fam, (p, r, real)) in enumerate(zip(families, shapes)):
        single = haar_orthonormal(p, r, SeededRng(31, (j,)), real).columns
        reference = reference_haar(p, r, SeededRng(31, (j,)), real)
        # bit for bit, signed zeros included
        assert fam.columns.shape == single.shape == reference.shape == (p, r)
        assert fam.columns.tobytes() == single.tobytes() == reference.tobytes()


def test_gaussian_is_one_draw_of_both_parts():
    # the same numbers, and the same stream state afterwards, as one draw
    # of each part
    for shape in [(64, 8), (5,), (3, 2)]:
        for real in (False, True):
            drawn, stream = SeededRng(32), SeededRng(32)
            g = gaussian(shape, drawn, real)
            parts = [stream.generator.standard_normal(shape)
                     for _ in range(1 if real else 2)]
            expected = parts[0] if real else parts[0] + 1j * parts[1]
            assert g.dtype == expected.dtype
            assert g.tobytes() == expected.tobytes()
            assert drawn.generator.random() == stream.generator.random()


def test_haar_orthonormal_many_of_no_matrices_is_empty():
    assert haar_orthonormal_many([]) == []


@pytest.mark.parametrize("build, message", [
    # without the check, a 3 x 5 Gaussian factors silently to a 3 x 3 family
    (lambda: haar_orthonormal_many([gaussian((3, 2), SeededRng(1)),
                                    gaussian((3, 5), SeededRng(0))]),
     "rank r=5 exceeds p=3"),
    # once numpy's "negative dimensions are not allowed"
    (lambda: haar_orthonormal(3, -1, SeededRng(0)), "r must be >= 0, got -1"),
], ids=["above-p", "negative"])
def test_haar_orthonormal_many_refuses_rank_out_of_range(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


# ---------------------------------------------------------------------------
# stacked families: one Gram check per stack, one kernel call per (stack, k)

def _haar_stack(p, r, count, seed, real=False):
    """count Haar p x r matrices, each from its own stream, as one array."""
    return np.stack([haar_orthonormal(p, r, SeededRng(seed, (j,)), real).columns
                     for j in range(count)])


def _count_kernel_calls(monkeypatch):
    """Record (matrices, k) of each abs_det_many call from now on."""
    calls = []
    real = core.abs_det_many
    monkeypatch.setattr(core, "abs_det_many", lambda stack: calls.append(
        (math.prod(stack.shape[:-2]), stack.shape[-1])) or real(stack))
    return calls


@pytest.mark.parametrize("p, r, real", [(1, 0, False), (1, 1, False),
                                        (4, 2, False), (5, 3, True),
                                        (6, 3, False), (6, 6, False)],
                         ids=["p1-r0", "p1-r1", "p4-r2", "p5-r3-real",
                              "p6-r3", "p6-r6"])
def test_stacked_families_equal_one_by_one_families(p, r, real):
    stack = _haar_stack(p, r, 4, 40 + p, real)
    stacked = OrthonormalFamily.stack(stack)
    alone = [OrthonormalFamily(matrix) for matrix in stack]
    # half the stacked families read every size first, which fills the
    # other half's stores too; the one-by-one families fill their own
    for fam in stacked[::2]:
        for k in range(r + 1):
            fam.minors(k)
    assert all(set(fam._minors) == set(range(r + 1)) for fam in stacked)
    spectrum = Spectrum(np.linspace(0.9, 0.3, r))
    for fam, ref in zip(stacked, alone):
        assert fam.columns.dtype == ref.columns.dtype == complex
        assert fam.columns.tobytes() == ref.columns.tobytes()
        assert not fam.columns.flags.writeable
        for k in range(r + 1):
            assert fam.minors(k).shape == ref.minors(k).shape
            assert fam.minors(k).tobytes() == ref.minors(k).tobytes()
            assert not fam.minors(k).flags.writeable
        assert fam.squared_minors.tobytes() == ref.squared_minors.tobytes()
        tables = [(DppDensity(fam, spectrum), DppDensity(ref, spectrum)),
                  (ProjectionDensity(fam, tuple(range(1, r + 1))),
                   ProjectionDensity(ref, tuple(range(1, r + 1))))]
        for mine, theirs in tables:
            assert (density_table(mine).probs.tobytes()
                    == density_table(theirs).probs.tobytes())


@pytest.mark.parametrize("p, r, first", [(5, 3, 0), (5, 3, 3), (4, 1, 2)],
                         ids=["p5-r3-first-member", "p5-r3-last-member",
                              "p4-r1-middle-member"])
def test_first_read_fills_its_size_for_the_whole_stack(monkeypatch, p, r, first):
    families = OrthonormalFamily.stack(_haar_stack(p, r, 4, 48))
    calls = _count_kernel_calls(monkeypatch)
    block = families[first].minors(r)
    assert calls == [(4 * math.comb(p, r), r)]
    # every member holds size r now, and no other size
    assert all(set(fam._minors) == {r} for fam in families)
    second = families[(first + 1) % 4]
    assert second.minors(r) is second._minors[r]
    assert families[first].minors(r) is block
    assert len(calls) == 1
    # another size fills the whole stack again: one more call for k >= 1,
    # none for k = 0
    other = 1 if r > 1 else 0
    families[first].minors(other)
    assert calls[1:] == ([(4 * math.comb(r, 1) * p, 1)] if other else [])
    assert all(set(fam._minors) == {r, other} for fam in families)


@pytest.mark.parametrize("kind", ["stack", "haar-many", "one-family"],
                         ids=["stack", "haar-many", "one-family"])
def test_dropping_a_filled_stack_frees_every_family(kind):
    # the stack record holds the members' arrays and stores, never the
    # families, so with the cyclic collector off the last reference to the
    # list is the last reference to every family
    if kind == "stack":
        families = OrthonormalFamily.stack(_haar_stack(5, 2, 4, 49))
    elif kind == "haar-many":
        families = haar_orthonormal_many(
            [gaussian(shape, SeededRng(50, (j,)))
             for j, shape in enumerate([(5, 2), (4, 1), (5, 2), (4, 1)])])
    else:
        families = [OrthonormalFamily(_haar_stack(5, 2, 1, 51)[0])]
    for fam in families:
        for k in range(fam.r + 1):
            fam.minors(k)
        fam.squared_minors
    refs = [weakref.ref(fam) for fam in families]
    gc.disable()
    try:
        del fam, families
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_minor_stores_over_mixed_shapes_equal_one_by_one_minors(monkeypatch):
    shapes = [(4, 2), (3, 0), (5, 3), (4, 2), (1, 1), (5, 3), (3, 0), (6, 1)]
    families = haar_orthonormal_many(
        [gaussian(shape, SeededRng(41, (j,))) for j, shape in enumerate(shapes)])
    alone = [OrthonormalFamily(np.array(fam.columns)) for fam in families]
    calls = _count_kernel_calls(monkeypatch)
    for fam in families:
        for k in range(fam.r + 1):
            fam.minors(k)
    # one call per (shape, k >= 1), the shape's stack read by its first
    # member; k = 0 makes none
    groups = {(p, r, k) for p, r in shapes for k in range(1, r + 1)}
    assert len(calls) == len(groups)
    assert sum(m for m, _ in calls) == sum(
        shapes.count((p, r)) * math.comb(r, k) * math.comb(p, k)
        for p, r, k in groups)
    calls.clear()
    for fam, ref in zip(families, alone):
        for k in range(fam.r + 1):
            assert fam.minors(k).tobytes() == ref.minors(k).tobytes()
    # the one-by-one families made the calls; the stacked ones read stores
    assert len(calls) == sum(r for _, r in shapes)


def test_stacked_families_share_no_memory():
    # a view into the stack would give each family the stack's alignment,
    # and OpenBLAS products on it can round differently: with views, 426 of
    # the 7,000 rows of the default bounds sweep moved by an ulp. Views of
    # two families do not overlap, so each array must also own its memory.
    stack = _haar_stack(5, 2, 3, 42)
    families = OrthonormalFamily.stack(stack)
    families += haar_orthonormal_many(
        [gaussian((5, 2), SeededRng(43, (j,))) for j in range(3)])
    families[0].minors(1)  # fills k = 1 for the first stack
    families[-1].minors(2)  # and k = 2 for the second
    for fam in families:
        assert not np.shares_memory(fam.columns, stack)
        assert fam.columns.flags.owndata
        assert all(fam.minors(k).flags.owndata for k in range(3))
    for a, b in combinations(families, 2):
        assert not np.shares_memory(a.columns, b.columns)
        for k in range(3):
            assert not np.shares_memory(a.minors(k), b.minors(k))


def test_haar_families_fill_no_store_by_themselves():
    # a full store at p = 20, r = 10 would hold C(30, 10) minors
    assert haar_orthonormal(20, 10, SeededRng(44))._minors == {}
    assert all(fam._minors == {} for fam in haar_orthonormal_many(
        [gaussian((6, 3), SeededRng(45, (j,))) for j in range(3)]))


def _spoil(stack, i, kind):
    if kind == "gram":
        stack[i, :, 0] *= 1.0 + 2e-3
    else:
        stack[i, 1, 0] = {"nan": np.nan, "inf": np.inf}[kind]


@pytest.mark.parametrize("kind, message", [
    ("gram", "columns are not orthonormal (Gram deviation 4.004e-03)"),
    ("nan", "column entries must be finite"),
    ("inf", "column entries must be finite"),
], ids=["gram", "nan", "inf"])
def test_stack_with_one_bad_family_is_refused_by_its_index(kind, message):
    stack = _haar_stack(4, 2, 5, 46)
    _spoil(stack, 3, kind)
    with pytest.raises(ValueError) as raised:
        OrthonormalFamily.stack(stack)
    assert str(raised.value) == f"family 3: {message}"
    # the same family alone gives the message without an index
    with pytest.raises(ValueError) as raised:
        OrthonormalFamily(stack[3])
    assert str(raised.value) == message


@pytest.mark.parametrize("first, second", [("gram", "nan"), ("inf", "gram")],
                         ids=["gram-then-nan", "inf-then-gram"])
def test_stack_check_names_the_first_failing_family(first, second):
    stack = _haar_stack(3, 3, 6, 47)
    _spoil(stack, 1, first)
    _spoil(stack, 4, second)
    with pytest.raises(ValueError, match=r"^family 1: "):
        OrthonormalFamily.stack(stack)


def test_stack_refuses_a_rank_above_p_and_a_lone_matrix():
    with pytest.raises(ValueError, match=re.escape("rank r=3 exceeds p=2")):
        OrthonormalFamily.stack(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match=re.escape("expected a (g, p, r) stack")):
        OrthonormalFamily.stack(np.eye(3))


def test_abs_det_many_has_one_call_site_in_the_package():
    # every minor store comes from one fill, _fill_minors, one call per
    # stack and size read
    calls = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r"(?<!def )\babs_det_many\(", line):
                calls.append(f"{path.name}:{number}")
    assert len(calls) == 1 and calls[0].startswith("core.py:")
    store = next(node for node in ast.parse(Path(core.__file__).read_text()).body
                 if isinstance(node, ast.FunctionDef) and node.name == "_fill_minors")
    assert store.lineno <= int(calls[0].split(":")[1]) <= store.end_lineno


def test_params_dict_roundtrip():
    rng = SeededRng(22)
    fam = haar_orthonormal(4, 2, rng.split(0))
    spec = random_spectrum(2, rng.split(1))
    fam2, spec2 = params_from_dict("params", params_to_dict(fam, spec))
    assert np.allclose(fam.columns, fam2.columns)
    assert np.allclose(spec.values, spec2.values)


def test_write_table_csv(tmp_path):
    fam = OrthonormalFamily(np.eye(2, dtype=complex))
    spec = Spectrum(np.array([math.sqrt(0.5), math.sqrt(0.2)]))
    table = density_table(DppDensity(fam, spec))
    path = tmp_path / "table.csv"
    write_table_csv(table, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "config_bitmask,probability"
    assert len(lines) == 5
    mask, prob = lines[1].split(",")
    assert mask == "0" and float(prob) == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# integer arguments

def test_integer_reads_integral_values_and_names_the_range():
    for value in (2, 2.0, np.int64(2), np.float64(2.0)):
        assert type(core.integer("x", value, 1, 7)) is int
        assert core.integer("x", value, 1, 7) == 2
    assert core.integer("x", -5) == -5  # no bound
    with pytest.raises(ValueError, match=r"^x must be >= 1, got 0$"):
        core.integer("x", 0, 1)
    with pytest.raises(ValueError, match=r"^x must be in \[1, 7\], got 8$"):
        core.integer("x", 8, 1, 7)
    with pytest.raises(ValueError, match=r"^x must be in \[1, 7\], got 0$"):
        core.integer("x", 0.0, 1, 7)
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match=rf"^x must be an integer, got {bad!r}$"):
            core.integer("x", bad, 0)


def _bound(j):
    model = SubspaceModel(np.eye(4, dtype=complex), id=0)
    return oracle_bound(OrthonormalFamily(np.eye(4, 2)), Spectrum.ones(2),
                        [model], {0: 1.0}, 50, j)


def _gplus(k):
    rng = SeededRng(41)
    return gplus_delta(haar_orthonormal(5, 3, rng.split(0)),
                       haar_orthonormal(5, 3, rng.split(1)), k)


def _wedge(k):
    return wedge_coords(haar_orthonormal(5, 3, SeededRng(42)), k)


def _projection(active):
    return ProjectionDensity(haar_orthonormal(4, 2, SeededRng(43)), active)


def _weight(active):
    return mixture_weight(Spectrum(np.array([0.5, 0.5])), active)


# Each entry point read its integer without core.integer: True ran as 1, a
# fraction was truncated or failed inside numpy naming no argument, and an
# out-of-range value met a check of its own wording, or none.
@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: _bound(True), "j must be an integer, got True",
                 id="oracle_bound-j-bool"),
    pytest.param(lambda: _bound(1.5), "j must be an integer, got 1.5",
                 id="oracle_bound-j-fraction"),
    pytest.param(lambda: _bound(3), "j must be in [0, 2], got 3",
                 id="oracle_bound-j-above-rank"),
    pytest.param(lambda: _wedge(True), "k must be an integer, got True",
                 id="wedge_coords-k-bool"),
    pytest.param(lambda: _wedge(1.5), "k must be an integer, got 1.5",
                 id="wedge_coords-k-fraction"),
    pytest.param(lambda: _wedge(-1), "k must be in [0, 3], got -1",
                 id="wedge_coords-k-negative"),
    pytest.param(lambda: _gplus(True), "k must be an integer, got True",
                 id="gplus_delta-k-bool"),
    pytest.param(lambda: _gplus(1.5), "k must be an integer, got 1.5",
                 id="gplus_delta-k-fraction"),
    pytest.param(lambda: _gplus(4), "k must be in [0, 3], got 4",
                 id="gplus_delta-k-above-rank"),
    pytest.param(lambda: _projection((True,)), "active must be an integer, got True",
                 id="projection-active-bool"),
    pytest.param(lambda: _projection((1.7, 2)), "active must be an integer, got 1.7",
                 id="projection-active-fraction"),
    pytest.param(lambda: _projection((3,)), "active must be in [1, 2], got 3",
                 id="projection-active-above-rank"),
    pytest.param(lambda: _weight((True,)), "active must be an integer, got True",
                 id="mixture_weight-active-bool"),
    pytest.param(lambda: _weight((1.5,)), "active must be an integer, got 1.5",
                 id="mixture_weight-active-fraction"),
    pytest.param(lambda: _weight((0,)), "active must be in [1, 2], got 0",
                 id="mixture_weight-active-zero"),
    pytest.param(lambda: Config([True, 2]), "members must be an integer, got True",
                 id="config-members-bool"),
    pytest.param(lambda: Config([1.5, 2.9]), "members must be an integer, got 1.5",
                 id="config-members-fraction"),
    pytest.param(lambda: Config([0, 2]), "members must be >= 1, got 0",
                 id="config-members-zero"),
    pytest.param(lambda: GroundSet(True), "p must be an integer, got True",
                 id="ground_set-p-bool"),
    pytest.param(lambda: GroundSet(2.5), "p must be an integer, got 2.5",
                 id="ground_set-p-fraction"),
    pytest.param(lambda: haar_orthonormal(True, 1, SeededRng(0)),
                 "p must be an integer, got True", id="haar-p-bool"),
    pytest.param(lambda: haar_orthonormal(1.5, 1, SeededRng(0)),
                 "p must be an integer, got 1.5", id="haar-p-fraction"),
    pytest.param(lambda: haar_orthonormal(-1, 0, SeededRng(0)),
                 "p must be >= 0, got -1", id="haar-p-negative"),
    pytest.param(lambda: haar_orthonormal(3, True, SeededRng(0)),
                 "r must be an integer, got True", id="haar-r-bool"),
    pytest.param(lambda: haar_orthonormal(3, 1.5, SeededRng(0)),
                 "r must be an integer, got 1.5", id="haar-r-fraction"),
    pytest.param(lambda: random_spectrum(True, SeededRng(0)),
                 "r must be an integer, got True", id="random_spectrum-r-bool"),
    pytest.param(lambda: random_spectrum(1.5, SeededRng(0)),
                 "r must be an integer, got 1.5", id="random_spectrum-r-fraction"),
    pytest.param(lambda: random_spectrum(-1, SeededRng(0)),
                 "r must be >= 0, got -1", id="random_spectrum-r-negative"),
    pytest.param(lambda: Spectrum.ones(True), "k must be an integer, got True",
                 id="spectrum_ones-k-bool"),
    pytest.param(lambda: Spectrum.ones(1.5), "k must be an integer, got 1.5",
                 id="spectrum_ones-k-fraction"),
    pytest.param(lambda: Spectrum.ones(-1), "k must be >= 0, got -1",
                 id="spectrum_ones-k-negative"),
    pytest.param(lambda: empirical_table(SampleSet([1]), True),
                 "p must be an integer, got True", id="empirical_table-p-bool"),
    pytest.param(lambda: empirical_table(SampleSet([1]), 1.5),
                 "p must be an integer, got 1.5", id="empirical_table-p-fraction"),
    pytest.param(lambda: empirical_table(SampleSet([1]), 0),
                 "p must be >= 1, got 0", id="empirical_table-p-zero"),
    pytest.param(lambda: SubspaceModel(np.eye(3), id=True),
                 "id must be an integer, got True", id="subspace_model-id-bool"),
    pytest.param(lambda: SubspaceModel(np.eye(3), id=1.5),
                 "id must be an integer, got 1.5", id="subspace_model-id-fraction"),
])
def test_integer_arguments_are_read_with_their_range(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("build", [_bound, _gplus],
                         ids=["oracle_bound-j", "gplus_delta-k"])
def test_integral_float_arguments_run_as_their_integers(build):
    # each once failed inside numpy or range() with a TypeError naming no
    # argument
    assert build(2.0) == build(2)
    assert build(1.0) == build(1)


def test_only_integer_writes_a_range_message():
    # a range check written by hand drifts from integer's two message forms;
    # the risk-curve verdict in cli is output, not a check
    source = Path(core.__file__)
    reader = next(node for node in ast.parse(source.read_text()).body
                  if isinstance(node, ast.FunctionDef) and node.name == "integer")
    found = []
    for path in sorted(source.parent.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if not any(form in line for form in ("must be >=", "must be in [",
                                                 "outside [")):
                continue
            if path == source and reader.lineno <= number <= reader.end_lineno:
                continue
            if path.name == "cli.py" and "failures.append(f\"slope" in line:
                continue
            found.append(f"{path.name}:{number}: {line.strip()}")
    assert found == []
