import importlib
import math
from itertools import combinations, product

import numpy as np
import pytest

from detproc import core
from detproc.core import (
    Config,
    DppDensity,
    GroundSet,
    OrthonormalFamily,
    ProjectionDensity,
    Spectrum,
    density_table,
    haar_orthonormal,
    index_set_weights,
    mixture_weight,
    projection_density_eval,
    random_spectrum,
    subsets,
)
from detproc.hellinger import (
    BoundReport,
    _h2,
    bernoulli_weight_hellinger,
    check_bound_dpp,
    check_bound_mixture,
    check_bound_projection,
    gplus_delta,
    hellinger,
    wedge_coords,
)
from detproc.rng import SeededRng

RT_HALF = 1.0 / math.sqrt(2.0)


def family_from_columns(*cols):
    return OrthonormalFamily(np.column_stack(cols).astype(complex))


def e(p, i):
    v = np.zeros(p)
    v[i - 1] = 1.0
    return v


# ---------------------------------------------------------------------------
# exact distances

def test_hellinger_identical_tables():
    fam = haar_orthonormal(4, 2, SeededRng(0))
    t = density_table(ProjectionDensity(fam, (1, 2)))
    h2, affinity = hellinger(t, t)
    assert h2 == pytest.approx(0.0, abs=1e-12)
    assert affinity == pytest.approx(1.0, abs=1e-12)


def test_hellinger_disjoint_rank_strata():
    rng = SeededRng(1)
    fam = haar_orthonormal(4, 3, rng.split(0))
    t1 = density_table(ProjectionDensity(fam, (1,)))
    t2 = density_table(ProjectionDensity(fam, (1, 2)))
    h2, affinity = hellinger(t1, t2)
    assert h2 == pytest.approx(1.0)
    assert affinity == pytest.approx(0.0)


def test_hellinger_hand_value_two_lines():
    a = family_from_columns(e(2, 1))
    b = family_from_columns(np.array([RT_HALF, RT_HALF]))
    h2, affinity = hellinger(
        density_table(ProjectionDensity(a, (1,))),
        density_table(ProjectionDensity(b, (1,))),
    )
    assert affinity == pytest.approx(RT_HALF)
    assert h2 == pytest.approx(1.0 - RT_HALF)


def test_hellinger_symmetry_and_range():
    rng = SeededRng(2)
    ta = density_table(DppDensity(haar_orthonormal(4, 2, rng.split(0)),
                                  random_spectrum(2, rng.split(1))))
    tb = density_table(DppDensity(haar_orthonormal(4, 2, rng.split(2)),
                                  random_spectrum(2, rng.split(3))))
    h_ab = hellinger(ta, tb)
    h_ba = hellinger(tb, ta)
    assert h_ab == h_ba
    assert 0.0 <= h_ab[0] <= 1.0


def test_hellinger_rejects_mismatched_ground_sets():
    t1 = density_table(ProjectionDensity(haar_orthonormal(3, 1, SeededRng(3)), (1,)))
    t2 = density_table(ProjectionDensity(haar_orthonormal(4, 1, SeededRng(4)), (1,)))
    with pytest.raises(ValueError):
        hellinger(t1, t2)


# ---------------------------------------------------------------------------
# weight-distribution distance

def test_bernoulli_weight_identical():
    spec = random_spectrum(3, SeededRng(5))
    assert bernoulli_weight_hellinger(spec, spec) == pytest.approx(0.0, abs=1e-12)


def test_bernoulli_weight_disjoint_supports():
    one = Spectrum(np.array([1.0]))
    zero = Spectrum(np.array([0.0]))
    assert bernoulli_weight_hellinger(one, zero) == pytest.approx(1.0)


def test_bernoulli_weight_hand_value():
    lam = Spectrum(np.array([math.sqrt(0.5)]))
    gam = Spectrum(np.array([math.sqrt(0.2)]))
    expected = 1.0 - (math.sqrt(0.1) + math.sqrt(0.4))
    h2 = bernoulli_weight_hellinger(lam, gam)
    assert h2 == pytest.approx(expected, abs=1e-12)
    assert h2 == pytest.approx(0.051317, abs=1e-6)


def weight_vector(spec: Spectrum, r: int) -> np.ndarray:
    """Enumerated weight distribution over all index subsets of {1..r}."""
    out = []
    for k in range(r + 1):
        for active in combinations(range(1, r + 1), k):
            out.append(mixture_weight(spec, active))
    return np.array(out)


def test_bernoulli_weight_matches_enumeration():
    root = SeededRng(6)
    for i in range(20):
        rng = root.split(i)
        lam = random_spectrum(3, rng.split(0))
        gam = random_spectrum(3, rng.split(1))
        wa = weight_vector(lam, 3)
        wb = weight_vector(gam, 3)
        h2_enum = 1.0 - float(np.sqrt(wa * wb).sum())
        assert bernoulli_weight_hellinger(lam, gam) == pytest.approx(
            h2_enum, abs=1e-10
        )


def test_bernoulli_weight_pads_shorter_spectrum():
    lam = Spectrum(np.array([0.5]))
    gam = Spectrum(np.array([0.5, 0.0]))
    assert bernoulli_weight_hellinger(lam, gam) == pytest.approx(0.0, abs=1e-12)


def test_bernoulli_weight_of_equal_ranks_builds_no_spectrum(monkeypatch):
    # equal ranks read the two spectra's own weight vectors, the bits that
    # padding each by zero entries gave
    lam, gam = random_spectrum(3, SeededRng(7)), random_spectrum(3, SeededRng(8))
    want = _h2(np.sqrt(index_set_weights(lam)), np.sqrt(index_set_weights(gam)))

    def unavailable(*_):
        raise AssertionError("built a padded spectrum for equal ranks")

    # the package exports a function named hellinger, so import the module
    module = importlib.import_module("detproc.hellinger")
    monkeypatch.setattr(module, "Spectrum", unavailable)
    assert bernoulli_weight_hellinger(lam, gam) == want


def closed_form_weight_h2(lam: np.ndarray, gam: np.ndarray) -> float:
    """1 - prod_j (l_j g_j + sqrt(1-l_j^2) sqrt(1-g_j^2)), zero-padded,
    clipped to [0, 1] like every h^2 of the package."""
    r = max(lam.size, gam.size)
    lam, gam = np.pad(lam, (0, r - lam.size)), np.pad(gam, (0, r - gam.size))
    affinity = math.prod(float(l * g + math.sqrt(1.0 - l * l) * math.sqrt(1.0 - g * g))
                         for l, g in zip(lam, gam))
    return 1.0 - min(max(affinity, 0.0), 1.0)


def test_bernoulli_weight_matches_closed_form():
    gen = SeededRng(7).generator
    ranks = set()
    for _ in range(1200):
        pair = []
        for r in gen.integers(1, 6, size=2):
            values = gen.uniform(0.0, 1.0, size=r)
            # about a third of the entries exactly 0 or exactly 1
            values[gen.uniform(size=r) < 1 / 6] = 0.0
            values[gen.uniform(size=r) < 1 / 6] = 1.0
            pair.append(values)
        ranks.add((pair[0].size, pair[1].size))
        h2 = bernoulli_weight_hellinger(Spectrum(pair[0]), Spectrum(pair[1]))
        assert abs(h2 - closed_form_weight_h2(*pair)) <= 1e-15, pair
    assert ranks == set(product(range(1, 6), repeat=2))


# ---------------------------------------------------------------------------
# wedge coordinates and the modulus isometry

def test_wedge_identity_columns():
    fam = OrthonormalFamily(np.eye(4, 2, dtype=complex))
    w = wedge_coords(fam, 2)
    assert w[0] == pytest.approx(1.0)  # {1, 2}, first in subsets order
    assert np.sum(w) == pytest.approx(1.0)


def test_wedge_squared_moduli_equal_projection_density():
    fam = haar_orthonormal(5, 2, SeededRng(7))
    w = wedge_coords(fam, 2)
    for i, mask in enumerate(subsets(5, 2)[0].tolist()):
        alpha = Config.from_mask(mask)
        assert w[i] ** 2 == pytest.approx(
            projection_density_eval(fam, (1, 2), alpha), abs=1e-12
        )


def test_wedge_coord_follows_masks_order():
    # w[i] is the minor modulus on the rows of the i-th size-k subset
    fam = haar_orthonormal(6, 3, SeededRng(11))
    w = wedge_coords(fam, 3)
    masks = subsets(6, 3)[0].tolist()
    assert masks == [Config(c).mask for c in combinations(range(1, 7), 3)]
    for coord, mask in zip(w, masks):
        minor = np.linalg.det(fam.submatrix(Config.from_mask(mask), (1, 2, 3)))
        assert coord == pytest.approx(abs(minor), abs=1e-12)


def test_wedge_unit_norm():
    fam = haar_orthonormal(5, 2, SeededRng(8))
    w = wedge_coords(fam, 2)
    assert float(np.sum(w ** 2)) == pytest.approx(1.0, abs=1e-9)


def test_wedge_coords_are_the_read_only_row_of_the_minor_store():
    fam = haar_orthonormal(6, 3, SeededRng(12))
    for k in range(4):
        w = wedge_coords(fam, k)
        assert np.shares_memory(w, fam.minors(k)) and not w.flags.writeable
        assert np.array_equal(w, fam.minors(k)[0])
    with pytest.raises(ValueError, match=r"k must be in \[0, 3\], got 4"):
        wedge_coords(fam, 4)


def test_gplus_identical_families():
    fam = haar_orthonormal(4, 2, SeededRng(9))
    delta2, h2 = gplus_delta(fam, fam, 2)
    gap = abs(delta2 - 2.0 * h2)
    assert delta2 == pytest.approx(0.0, abs=1e-12)
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_gplus_orthogonal_spans():
    a = family_from_columns(e(4, 1), e(4, 2))
    b = family_from_columns(e(4, 3), e(4, 4))
    delta2, h2 = gplus_delta(a, b, 2)
    gap = abs(delta2 - 2.0 * h2)
    assert delta2 == pytest.approx(2.0)
    assert gap == pytest.approx(0.0, abs=1e-12)


def test_gplus_gap_matches_exact_tables():
    rng = SeededRng(10)
    a = haar_orthonormal(5, 2, rng.split(0))
    b = haar_orthonormal(5, 2, rng.split(1))
    delta2, h2 = gplus_delta(a, b, 2)
    gap = abs(delta2 - 2.0 * h2)
    h2_tables, _ = hellinger(
        density_table(ProjectionDensity(a, (1, 2))),
        density_table(ProjectionDensity(b, (1, 2))),
    )
    assert delta2 == pytest.approx(2.0 * h2_tables, abs=1e-9)
    assert gap <= 1e-9


def test_gplus_refuses_other_ground_sets_and_sizes_out_of_range():
    rng = SeededRng(13)
    a, b = haar_orthonormal(5, 2, rng.split(0)), haar_orthonormal(5, 3, rng.split(1))
    # at k = 0 both modulus vectors are [1.0] on any ground set, so only the
    # families can tell the ground sets apart
    for k in (0, 2):
        with pytest.raises(ValueError, match="different ground sets"):
            gplus_delta(a, haar_orthonormal(6, 2, rng.split(2)), k)
    with pytest.raises(ValueError, match=r"k must be in \[0, 2\], got 3"):
        gplus_delta(a, b, 3)
    with pytest.raises(ValueError, match=r"k must be in \[0, 2\], got -1"):
        gplus_delta(a, b, -1)


def test_gplus_reads_each_family_minor_store_with_one_kernel_call(monkeypatch):
    calls = []
    kernel = core.abs_det_many

    def counting(stack):
        calls.append(stack.shape)
        return kernel(stack)

    monkeypatch.setattr(core, "abs_det_many", counting)
    rng = SeededRng(14)
    for p, k in [(4, 1), (5, 2), (6, 3), (7, 7)]:
        calls.clear()
        a, b = (haar_orthonormal(p, k, rng.split(2 * p + i)) for i in range(2))
        delta2, h2 = gplus_delta(a, b, k)
        assert calls == [(1, math.comb(p, k), k, k)] * 2
        assert abs(delta2 - 2.0 * h2) <= 1e-9
        gplus_delta(a, b, k)  # the second pass reads the stores
        assert len(calls) == 2


# ---------------------------------------------------------------------------
# inequality reports

def test_bound_report_slack_and_holds():
    rep = BoundReport(0.2, 0.5, "example")
    assert rep.slack == pytest.approx(0.3)
    assert rep.holds
    assert not BoundReport(0.5, 0.2, "example").holds


def test_projection_bounds_identical_families():
    fam = haar_orthonormal(5, 2, SeededRng(11))
    reports = check_bound_projection(fam, fam, (1, 2))
    exact, gram, l2 = reports
    assert exact.lhs == pytest.approx(0.0, abs=1e-12)
    assert gram.rhs == pytest.approx(0.0, abs=1e-9)
    assert all(r.holds for r in reports)


def test_projection_bounds_negated_column():
    # negating a column leaves the density fixed (h^2 = 0) but moves the
    # columns by distance 2, so the L2 bound is slack by 10
    fam = haar_orthonormal(5, 2, SeededRng(12), real=True)
    flipped = OrthonormalFamily(fam.columns * np.array([1.0, -1.0]))
    exact, gram, l2 = check_bound_projection(fam, flipped, (1, 2))
    assert exact.lhs == pytest.approx(0.0, abs=1e-12)
    assert l2.rhs == pytest.approx(10.0)
    assert l2.slack == pytest.approx(10.0, abs=1e-9)


def test_projection_bounds_random_pairs():
    root = SeededRng(13)
    for i in range(50):
        rng = root.split(i)
        fam_a = haar_orthonormal(5, 3, rng.split(0))
        fam_b = haar_orthonormal(5, 3, rng.split(1))
        for rep in check_bound_projection(fam_a, fam_b, (1, 2, 3)):
            assert rep.holds


def test_projection_bound_reads_the_tables_moduli():
    # (i) is computed from the minors the two tables were built from, and
    # the check computes no minors of any other size
    rng = SeededRng(23)
    fam_a = haar_orthonormal(5, 3, rng.split(0))
    fam_b = haar_orthonormal(5, 3, rng.split(1))
    exact = check_bound_projection(fam_a, fam_b, (3, 1))[0]
    active = (1, 3)
    assert set(fam_a._minors) == set(fam_b._minors) == {2}
    want = 1.0 - float(np.sum(fam_a.moduli(active) * fam_b.moduli(active)))
    assert exact.rhs == want
    # the table entries are the squares of the same vector, bit for bit
    table_a = density_table(ProjectionDensity(fam_a, active))
    assert np.array_equal(table_a.probs[subsets(5, 2)[0]], fam_a.moduli(active) ** 2)


def test_dpp_bound_components_read_the_moduli():
    rng = SeededRng(24)
    fam_a = haar_orthonormal(4, 2, rng.split(0))
    fam_b = haar_orthonormal(4, 2, rng.split(1))
    lam = random_spectrum(2, rng.split(2))
    gam = random_spectrum(2, rng.split(3))
    components = check_bound_dpp(fam_a, lam, fam_b, gam)[2]
    want = 0.0
    for active, w in zip(((1,), (2,), (1, 2)), index_set_weights(gam)[1:]):
        affinity = float(fam_a.moduli(active) @ fam_b.moduli(active))
        want += w * (1.0 - min(affinity, 1.0))
    assert components.lhs == want
    # one stored block per size of index set, shared with the tables
    assert set(fam_a._minors) == set(fam_b._minors) == {0, 1, 2}


def test_mixture_bound_identical_mixtures():
    fam = haar_orthonormal(4, 2, SeededRng(14))
    t = density_table(ProjectionDensity(fam, (1, 2)))
    rep = check_bound_mixture([0.6, 0.4], [0.6, 0.4], [t, t], [t, t])
    assert rep.lhs == pytest.approx(0.0, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0, abs=1e-12)


def test_mixture_bound_identical_components():
    rng = SeededRng(15)
    t1 = density_table(ProjectionDensity(haar_orthonormal(4, 1, rng.split(0)), (1,)))
    t2 = density_table(ProjectionDensity(haar_orthonormal(4, 2, rng.split(1)), (1, 2)))
    rep = check_bound_mixture([0.7, 0.3], [0.2, 0.8], [t1, t2], [t1, t2])
    weights_h2 = 1.0 - (math.sqrt(0.7 * 0.2) + math.sqrt(0.3 * 0.8))
    assert rep.rhs == pytest.approx(2.0 * weights_h2, abs=1e-12)
    assert rep.holds


@pytest.mark.parametrize("side,weights,match", [
    ("p", [math.nan, 1.0], r"weights_p\[0\] must be finite and >= 0, got nan"),
    ("q", [-0.5, 1.5], r"weights_q\[0\] must be finite and >= 0, got -0.5"),
    ("q", [0.2, 0.2], r"weights_q sums to 0.4, not 1"),
], ids=["nan", "negative", "mass"])
def test_mixture_bound_rejects_bad_weights_by_name(side, weights, match):
    t = density_table(ProjectionDensity(haar_orthonormal(4, 2, SeededRng(14)), (1, 2)))
    good = [0.5, 0.5]
    weights_p, weights_q = (weights, good) if side == "p" else (good, weights)
    with pytest.raises(ValueError, match=match):
        check_bound_mixture(weights_p, weights_q, [t, t], [t, t])


@pytest.mark.parametrize("side, index", [("p", 1), ("q", 0), ("q", 1)],
                         ids=["tables_p", "tables_q-first", "tables_q-second"])
def test_mixture_bound_refuses_components_on_another_ground_set(side, index):
    # once numpy's "operands could not be broadcast together", naming no table
    rng = SeededRng(17)
    t4 = density_table(ProjectionDensity(haar_orthonormal(4, 1, rng.split(0)), (1,)))
    t3 = density_table(ProjectionDensity(haar_orthonormal(3, 1, rng.split(1)), (1,)))
    tables = {"p": [t4, t4], "q": [t4, t4]}
    tables[side][index] = t3
    with pytest.raises(ValueError, match=rf"^tables_{side}\[{index}\] has p=3 but "
                                         r"tables_p\[0\] has p=4$"):
        check_bound_mixture([0.5, 0.5], [0.5, 0.5], tables["p"], tables["q"])


def test_dpp_bound_identical_parameters():
    rng = SeededRng(16)
    fam = haar_orthonormal(4, 2, rng.split(0))
    spec = random_spectrum(2, rng.split(1))
    reports = check_bound_dpp(fam, spec, fam, spec)
    assert reports[0].lhs == pytest.approx(0.0, abs=1e-12)
    assert reports[0].rhs == pytest.approx(0.0, abs=1e-12)


def test_dpp_bound_shared_family_reduces_to_weights():
    rng = SeededRng(17)
    lam = random_spectrum(2, rng.split(1))
    gam = random_spectrum(2, rng.split(2))
    # identity columns: the mixture components are mutually singular point
    # masses on index sets, so the full distance equals the weight distance
    fam_id = OrthonormalFamily(np.eye(4, 2, dtype=complex))
    main, weights, components = check_bound_dpp(fam_id, lam, fam_id, gam)
    assert main.lhs == pytest.approx(
        bernoulli_weight_hellinger(lam, gam), abs=1e-10
    )
    assert components.lhs == pytest.approx(0.0, abs=1e-12)
    assert weights.holds
    # generic shared family: overlapping components can only shrink it
    fam = haar_orthonormal(4, 2, rng.split(0))
    main, weights, components = check_bound_dpp(fam, lam, fam, gam)
    assert main.lhs <= bernoulli_weight_hellinger(lam, gam) + 1e-10
    assert components.lhs == pytest.approx(0.0, abs=1e-12)


def test_dpp_bound_random_pairs():
    root = SeededRng(18)
    for i in range(30):
        rng = root.split(i)
        fam_a = haar_orthonormal(5, 2, rng.split(0))
        fam_b = haar_orthonormal(5, 2, rng.split(1))
        lam = random_spectrum(2, rng.split(2))
        gam = random_spectrum(2, rng.split(3))
        for rep in check_bound_dpp(fam_a, lam, fam_b, gam):
            assert rep.holds


def test_dpp_bound_rejects_rank_mismatch():
    rng = SeededRng(19)
    fam_a = haar_orthonormal(4, 2, rng.split(0))
    fam_b = haar_orthonormal(4, 1, rng.split(1))
    with pytest.raises(ValueError):
        check_bound_dpp(fam_a, random_spectrum(2, rng.split(2)),
                        fam_b, random_spectrum(1, rng.split(3)))
