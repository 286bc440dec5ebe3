import math
from itertools import product

import numpy as np
import pytest

from detproc.core import (
    OrthonormalFamily,
    Spectrum,
    density_table,
    haar_orthonormal,
    random_spectrum,
    DppDensity,
    ProjectionDensity,
)
from detproc.estimator import (
    CandidateCaps,
    CandidateEntry,
    CandidateFamily,
    SubspaceModel,
    _candidate_nets,
    _random_unit_coefficients,
    build_candidates,
    nearest_orthonormal,
    oracle_bound,
    select,
    sphere_approx,
    sphere_net,
    test_statistic as signed_root_statistic,
)
from detproc.hellinger import hellinger
from detproc.rng import SeededRng
from detproc.sampling import SampleSet, sample_table


def full_space_model(p, model_id=0):
    return SubspaceModel(np.eye(p, dtype=complex), id=model_id)


# ---------------------------------------------------------------------------
# models

def test_model_requires_orthonormal_basis():
    with pytest.raises(ValueError):
        SubspaceModel(np.ones((3, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_model_rejects_non_finite_basis(bad):
    basis = np.eye(3)[:, :2]
    basis[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        SubspaceModel(basis)


@pytest.mark.parametrize("bad, message", [
    (np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
     "columns are not orthonormal (Gram deviation 1.000e+00)"),
    (np.array([[np.nan], [0.0]]), "column entries must be finite"),
], ids=["gram", "nan"])
def test_model_and_family_share_one_orthonormality_check(bad, message):
    # SubspaceModel once had a copy of the check that gave no deviation
    for build in (SubspaceModel, OrthonormalFamily):
        with pytest.raises(ValueError) as raised:
            build(bad)
        assert str(raised.value) == message


def test_model_and_family_leave_the_callers_array_writable():
    # each freezes a private copy; both once froze the caller's array
    b = np.eye(3)
    model = SubspaceModel(b)
    c = haar_orthonormal(3, 2, SeededRng(3)).columns.copy()
    fam = OrthonormalFamily(c)
    assert b.flags.writeable and c.flags.writeable
    assert not model.basis.flags.writeable and not fam.columns.flags.writeable
    b[0, 0] = c[0, 0] = 5.0
    assert model.basis[0, 0] == 1.0 and fam.columns[0, 0] != 5.0


def test_model_real_dimension_doubles_for_complex():
    assert full_space_model(3).dim_real == 6
    assert SubspaceModel(np.eye(3)[:, :2]).dim_real == 2


def test_model_projection():
    basis = np.eye(4, dtype=complex)[:, :2]
    model = SubspaceModel(basis)
    phi = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    assert np.allclose(model.project(phi), [0.5, 0.5, 0.0, 0.0])


# ---------------------------------------------------------------------------
# sphere nets

def test_net_one_real_dimension_one_point():
    # +e1 and -e1 span one line, so they give one density: the net keeps one
    model = SubspaceModel(np.eye(3)[:, :1])
    net = sphere_net(model, 1.0, 50, SeededRng(0))
    assert len(net) == 1
    assert np.allclose(np.abs(net.points[0]), [1.0, 0.0, 0.0])
    assert net.pool_covering_radius == 0.0


def test_net_strict_separation():
    model = SubspaceModel(np.eye(5, dtype=complex)[:, :2])
    net = sphere_net(model, 0.5, 300, SeededRng(1))
    assert net.min_pairwise_distance() > 0.5


def test_net_log_size_bound_example():
    # complex d=2, separation 1/2 (n = 4): log size <= 4 log 5
    model = SubspaceModel(np.eye(4, dtype=complex)[:, :2])
    net = sphere_net(model, 0.5, 2000, SeededRng(2))
    assert math.log(len(net)) <= net.log_size_bound(4) + 1e-12
    assert net.log_size_bound(4) == pytest.approx(4 * math.log(5))


def test_net_covering_certificate():
    model = SubspaceModel(np.eye(4, dtype=complex)[:, :2])
    net = sphere_net(model, 0.5, 500, SeededRng(3))
    assert net.pool_covering_radius <= 0.5


def test_net_rejects_bad_eta():
    model = full_space_model(3)
    with pytest.raises(ValueError):
        sphere_net(model, 0.0, 10, SeededRng(0))
    with pytest.raises(ValueError):
        sphere_net(model, 3.0, 10, SeededRng(0))


def test_net_seed_points_come_first():
    model = full_space_model(4)
    seed = np.zeros(4, dtype=complex)
    seed[0] = 1.0
    net = sphere_net(model, 0.3, 100, SeededRng(4), seed_points=[seed])
    assert np.allclose(net.points[0], seed)


def test_sphere_net_takes_real_part_of_real_valued_seeds():
    # OrthonormalFamily stores complex columns even for a real anchor
    basis = haar_orthonormal(4, 2, SeededRng(16), real=True).columns.real.copy()
    model = SubspaceModel(basis, id=3)
    seed = OrthonormalFamily(basis).columns[:, 0]
    assert np.iscomplexobj(seed)
    net = sphere_net(model, 0.3, 50, SeededRng(17), seed_points=[seed])
    assert not np.iscomplexobj(net.points)
    assert np.array_equal(net.points[0], basis[:, 0])


def test_sphere_net_rejects_complex_seeds_on_real_model():
    model = SubspaceModel(np.eye(4)[:, :2], id=3)
    seed = np.array([0.6, 0.8j, 0.0, 0.0])
    with pytest.raises(ValueError, match="real model 3 have imaginary parts up to 0.8"):
        sphere_net(model, 0.3, 50, SeededRng(18), seed_points=[seed])


def test_sphere_net_rejects_seeds_off_the_model():
    model = SubspaceModel(np.eye(4, dtype=complex)[:, :2], id=5)
    seed = np.array([0.6, 0.0, 0.8, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="seed point 1 lies 0.8 from model 5"):
        sphere_net(model, 0.3, 50, SeededRng(19),
                   seed_points=[np.eye(4, dtype=complex)[0], seed])


def test_anchored_nets_lie_in_the_model():
    # an anchor outside span(e1, e2): its columns and their jittered copies
    # are moved onto the model's sphere before they seed the net
    anchor = haar_orthonormal(5, 1, SeededRng(3))
    model = SubspaceModel(np.eye(5, dtype=complex)[:, :2], id=0)
    net = _candidate_nets([model], 50, SeededRng(1), 64, anchor, 1)[0]
    off = np.linalg.norm(net.points.T - model.project(net.points.T), axis=0)
    assert off.max() <= 1e-12
    assert np.allclose(net.points[0], sphere_approx(anchor.columns[:, 0], model))


def phase_distance(u, v):
    """min over theta of |u - e^(i theta) v|, one pair at a time."""
    return math.sqrt(max(2.0 - 2.0 * abs(np.vdot(v, u)), 0.0))


def loop_sphere_net(model, eta, pool_size, rng, seed_points=None):
    """Reference greedy net: one distance per pair of a pool point and a net
    point built so far, then one more pass for the covering radius."""
    coeffs = _random_unit_coefficients(pool_size, model.dim, rng, model.is_complex)
    pool = coeffs @ model.basis.T
    if seed_points is not None and len(seed_points):
        seeds = np.atleast_2d(np.asarray(seed_points, dtype=pool.dtype))
        pool = np.concatenate([seeds, pool], axis=0)
    net = []
    for v in pool:
        if all(phase_distance(v, u) > eta for u in net):
            net.append(v)
    covering = max(min(phase_distance(v, u) for u in net) for v in pool)
    return np.array(net), covering


@pytest.mark.parametrize("p", [4, 6, 8, 12])
@pytest.mark.parametrize("eta", [0.05, 0.3, 1.0])
def test_net_matches_loop_reference(p, eta):
    for seed in range(5):
        rng = SeededRng(seed)
        dim = 1 + seed % p
        complex_mode = seed % 2 == 0
        basis = haar_orthonormal(p, dim, rng.split(0), real=not complex_mode).columns
        model = SubspaceModel(basis if complex_mode else basis.real.copy())
        assert model.is_complex == complex_mode
        seed_points = [model.basis[:, 0]] if seed % 3 == 0 else None
        net = sphere_net(model, eta, 60 + 20 * seed, rng.split(1), seed_points)
        points, covering = loop_sphere_net(model, eta, 60 + 20 * seed, rng.split(1),
                                           seed_points)
        assert np.array_equal(net.points, points)
        # vdot and the batched product round differently; the squared
        # distance 2 - 2|<u, v>| carries that rounding without the square
        # root's amplification near zero
        assert net.pool_covering_radius**2 == pytest.approx(covering**2, rel=0, abs=1e-12)


# ---------------------------------------------------------------------------
# sphere approximation and orthonormal projection

def test_sphere_approx_fixed_point():
    model = SubspaceModel(np.eye(4, dtype=complex)[:, :2])
    phi = np.array([0.6, 0.8, 0.0, 0.0], dtype=complex)
    assert np.allclose(sphere_approx(phi, model), phi)


def test_sphere_approx_orthogonal_worst_case():
    model = SubspaceModel(np.eye(4, dtype=complex)[:, :2])
    phi = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
    out = sphere_approx(phi, model)
    assert np.linalg.norm(out) == pytest.approx(1.0)
    # distance to the subspace is 1; any unit answer is within factor 4
    assert np.linalg.norm(phi - out) <= 4.0


def test_sphere_approx_factor_four_random():
    root = SeededRng(5)
    for i in range(200):
        rng = root.split(i)
        gen = rng.generator
        basis = haar_orthonormal(5, 2, rng.split(0)).columns
        model = SubspaceModel(basis)
        phi = gen.standard_normal(5) + 1j * gen.standard_normal(5)
        phi = phi / np.linalg.norm(phi)
        out = sphere_approx(phi, model)
        dist = np.linalg.norm(phi - model.project(phi))
        assert np.linalg.norm(phi - out) <= 4.0 * dist + 1e-12


def test_sphere_approx_rejects_non_unit_input():
    with pytest.raises(ValueError):
        sphere_approx(np.array([2.0, 0.0, 0.0]), full_space_model(3))


def test_sphere_approx_rejects_nan_input():
    with pytest.raises(ValueError, match="unit vector"):
        sphere_approx(np.array([np.nan, 0.0, 0.0]), full_space_model(3))


def test_nearest_orthonormal_fixes_orthonormal_input():
    fam = haar_orthonormal(4, 2, SeededRng(6))
    out = nearest_orthonormal([fam.columns[:, 0], fam.columns[:, 1]])
    assert np.allclose(out.columns, fam.columns, atol=1e-12)


def test_nearest_orthonormal_normalizes_scaled_columns():
    fam = haar_orthonormal(4, 2, SeededRng(7))
    out = nearest_orthonormal([3.0 * fam.columns[:, 0], 0.5 * fam.columns[:, 1]])
    assert np.allclose(out.columns, fam.columns, atol=1e-12)


def test_nearest_orthonormal_rejects_rank_deficient():
    v = haar_orthonormal(4, 1, SeededRng(8)).columns[:, 0]
    with pytest.raises(ValueError):
        nearest_orthonormal([v, v])


def test_nearest_orthonormal_rejects_nan():
    v = haar_orthonormal(4, 2, SeededRng(8)).columns
    w = v[:, 1].copy()
    w[0] = np.nan
    with pytest.raises(ValueError):
        nearest_orthonormal([v[:, 0], w])


def test_nearest_orthonormal_beats_random_tuples():
    rng = SeededRng(9)
    gen = rng.generator
    vecs = [gen.standard_normal(4) + 1j * gen.standard_normal(4) for _ in range(2)]
    out = nearest_orthonormal(vecs)
    stacked = np.column_stack(vecs)
    best = float(np.sum(np.abs(out.columns - stacked) ** 2))
    for i in range(2000):
        cand = haar_orthonormal(4, 2, rng.split(i)).columns
        d = float(np.sum(np.abs(cand - stacked) ** 2))
        assert best <= d + 1e-12


# ---------------------------------------------------------------------------
# candidate families

@pytest.mark.parametrize("j,n,per_net", [(1, 4, 1), (2, 3, 2)])
def test_build_candidates_walks_gamma_in_descending_lexicographic_order(j, n, per_net):
    # family_max >= n^j: every point set of level j carries the whole grid
    fam = build_candidates([full_space_model(3)], {0: 1.0}, n,
                           CandidateCaps(j, per_net, 100), SeededRng(4), pool_size=32)
    levels = [i / n for i in range(n, 0, -1)]
    want = np.array(list(product(levels, repeat=j)))
    spectra = {}  # (model ids, point indices) -> spectra in family order
    for entry in fam.entries:
        if entry.index[0] == j:
            spectra.setdefault(entry.index[1:3], []).append(entry.spectrum.values)
    (values,) = spectra.values()
    assert np.array_equal(np.array(values), want)
    assert np.array_equal(values[0], np.ones(j))
    assert np.all(np.array(values) > 0.0)

def test_build_candidates_minimal_caps():
    model = full_space_model(4)
    fam = build_candidates([model], {0: 1.0}, 4, CandidateCaps(1, 1, 1),
                           SeededRng(10), pool_size=32)
    assert len(fam) == 1
    assert fam.truncated


def test_build_candidates_truncated_iff_enumeration_is_longer():
    # j_max = 1, n = 3: the full enumeration is 3 * |net| candidates
    model = full_space_model(3)
    full = build_candidates([model], {0: 1.0}, 3, CandidateCaps(1, 100, 1000),
                            SeededRng(19), pool_size=16)
    size = 3 * full.net_sizes[0]
    assert len(full) == size and not full.truncated
    cut = build_candidates([model], {0: 1.0}, 3, CandidateCaps(1, 100, size - 1),
                           SeededRng(19), pool_size=16)
    assert len(cut) == size - 1 and cut.truncated


def test_build_candidates_huge_j_max_stops_at_p():
    # levels j > p have no orthonormal tuple and are never enumerated
    model = full_space_model(3)
    fam = build_candidates([model], {0: 1.0}, 2, CandidateCaps(10**30, 3, 10**30),
                           SeededRng(20), pool_size=16)
    levels = {e.index[0] for e in fam.entries}
    assert levels == {1, 2, 3}
    assert fam.truncated


def test_build_candidates_prior_formula():
    # j_max = 1, n = 2: each prior is exactly (1/4) * pi(m) / |net|
    model = full_space_model(3)
    fam = build_candidates([model], {0: 0.5}, 2, CandidateCaps(1, 100, 1000),
                           SeededRng(11), pool_size=64)
    net_size = fam.net_sizes[0]
    for entry in fam.entries:
        assert entry.prior == pytest.approx(0.25 * 0.5 / net_size)


def test_build_candidates_prior_counts_both_orders_of_a_pair():
    # a j = 2 entry stands for the two orders of its net points, so its prior
    # is 2! * (1/4)^2 * (pi(m) / |net|)^2
    model = full_space_model(3)
    fam = build_candidates([model], {0: 0.5}, 2, CandidateCaps(2, 100, 1000),
                           SeededRng(11), pool_size=64)
    pairs = [e for e in fam.entries if e.index[0] == 2]
    assert pairs
    for entry in pairs:
        assert entry.prior == pytest.approx(2 * 0.25**2 * (0.5 / fam.net_sizes[0]) ** 2)


def test_build_candidates_one_point_net_is_complete():
    # the whole enumeration is one candidate: a single net point and n = 1,
    # however large j_max is
    model = full_space_model(3)
    fam = build_candidates([model], {0: 1.0}, 1, CandidateCaps(10**30, 4, 100),
                           SeededRng(21), pool_size=1)
    assert len(fam) == 1
    assert not fam.truncated


def test_build_candidates_complete_above_p_is_not_truncated():
    # j_max = 4 > p = 2: the sets of 3 or 4 points of C^2 have no polar
    # factor, so every full-rank member is a point or a pair, at n^j weights
    model = full_space_model(2)
    fam = build_candidates([model], {0: 1.0}, 2, CandidateCaps(4, 100, 10**6),
                           SeededRng(22), pool_size=16)
    size = fam.net_sizes[0]
    assert len(fam) == size * 2 + math.comb(size, 2) * 4
    assert not fam.truncated


def test_build_candidates_complete_nested_models_is_not_truncated():
    # M2 = span(e1, e2) inside M3 = span(e1, e2, e3) in R^5, j_max = 4: three
    # points of M2 are dependent and no four points are independent
    m2 = SubspaceModel(np.eye(5)[:, :2], id=0)
    m3 = SubspaceModel(np.eye(5)[:, :3], id=1)

    def build(family_max):
        return build_candidates([m2, m3], {0: 0.5, 1: 0.5}, 1,
                                CandidateCaps(4, 100, family_max), SeededRng(23),
                                pool_size=16)

    fam = build(10**6)
    n2, total = fam.net_sizes[0], sum(fam.net_sizes.values())
    size = total + math.comb(total, 2) + math.comb(total, 3) - math.comb(n2, 3)
    assert len(fam) == size and not fam.truncated
    # a family_max that the full-rank members just fill leaves only
    # dependent sets behind; one less drops a member
    assert not build(size).truncated
    cut = build(size - 1)
    assert len(cut) == size - 1 and cut.truncated


def test_build_candidates_holds_each_anchored_density_once():
    # ordered tuples held (0, 1) and (1, 0) at gamma = (1, 1): one density
    # twice, whose mutual test came down to rounding noise
    anchor = haar_orthonormal(3, 2, SeededRng(3))
    fam = build_candidates([full_space_model(3)], {0: 1.0}, 60,
                           CandidateCaps(3, 4, 60), SeededRng(3).split(1),
                           anchor=anchor)
    keys = [(frozenset(zip(e.index[1], e.index[2])), tuple(sorted(e.spectrum.values)))
            for e in fam.entries]
    assert len(set(keys)) == len(keys)
    # the anchor's columns are net points 0 and 1, the pair at depth zero
    assert fam.entries[1].index == (2, (0, 0), (0, 1), 0)


def test_build_candidates_prior_mass_sub_probability():
    model = full_space_model(4)
    for caps in [CandidateCaps(1, 2, 10), CandidateCaps(2, 3, 60),
                 CandidateCaps(2, 4, 200)]:
        fam = build_candidates([model], {0: 1.0}, 5, caps, SeededRng(12),
                               pool_size=64)
        assert fam.prior_mass() <= 1.0 + 1e-12


def test_build_candidates_entries_are_valid():
    model = full_space_model(4)
    fam = build_candidates([model], {0: 1.0}, 3, CandidateCaps(2, 3, 30),
                           SeededRng(13), pool_size=64)
    for entry in fam.entries:
        gram = entry.family.columns.conj().T @ entry.family.columns
        assert np.max(np.abs(gram - np.eye(entry.family.r))) < 1e-9
        assert np.all(entry.spectrum.values > 0.0)
        assert entry.prior > 0.0


def test_build_candidates_empty_model_list_rejected():
    with pytest.raises(ValueError):
        build_candidates([], {}, 4, CandidateCaps(1, 1, 1), SeededRng(0))


@pytest.mark.parametrize("n, prior, jitter, message", [
    (0, {0: 1.0}, 0, "n must be >= 1"),
    (-3, {0: 1.0}, 0, "n must be >= 1"),
    (4, {0: -1.0}, 0, "prior of model 0"),
    (4, {0: math.nan}, 0, "prior of model 0"),
    (4, {0: math.inf}, 0, "prior of model 0"),
    (4, {0: 0.75, 1: 0.5}, 0, "sum to at most 1"),
    (4, {0: 1.0}, -1, "anchor_jitter"),
])
def test_build_candidates_rejects_bad_inputs(n, prior, jitter, message):
    model = full_space_model(3)
    with pytest.raises(ValueError, match=message):
        build_candidates([model], prior, n, CandidateCaps(1, 2, 4), SeededRng(0),
                         pool_size=8, anchor=OrthonormalFamily(np.eye(3, 1)),
                         anchor_jitter=jitter)


@pytest.mark.parametrize("change, message", [
    # once numpy's hstack error
    ({"models": [full_space_model(5), full_space_model(4, 1)]},
     "models[1] has p=4 but models[0] has p=5"),
    # once a matmul core-dimension error
    ({"anchor": OrthonormalFamily(np.eye(4, 1))},
     "anchor has p=4 but models[0] has p=5"),
    # once run as 1.0, and TypeError: must be real number, not str
    ({"prior": {0: True}}, "model prior must be a number, got True for model 0"),
    ({"prior": {0: "0.5"}}, "model prior must be a number, got '0.5' for "
                            "model 0"),
    # once a bare KeyError 0
    ({"prior": {1: 0.5}}, "prior has no entry for model 0"),
    # each once "'float' object cannot be interpreted as an integer"
    ({"n": 4.5}, "n must be an integer, got 4.5"),
    ({"pool_size": 8.5}, "pool_size must be an integer, got 8.5"),
    ({"anchor_jitter": 1.5}, "anchor_jitter must be an integer, got 1.5"),
], ids=["models-ground-set", "anchor-ground-set", "prior-true", "prior-string",
        "prior-missing", "n", "pool-size", "anchor-jitter"])
def test_build_candidates_names_each_bad_input(change, message):
    inputs = {"models": [full_space_model(5)], "prior": {0: 1.0}, "n": 4,
              "pool_size": 8, "anchor": OrthonormalFamily(np.eye(5, 1)),
              "anchor_jitter": 1, **change}
    with pytest.raises(ValueError) as raised:
        build_candidates(caps=CandidateCaps(1, 2, 4), rng=SeededRng(0), **inputs)
    assert str(raised.value) == message


def test_build_candidates_rejects_repeated_model_id():
    # nets and priors are keyed by model id: a second model under the same
    # id would replace the first one's
    models = [full_space_model(3), SubspaceModel(np.eye(3, 2, dtype=complex))]
    with pytest.raises(ValueError, match="model id 0"):
        build_candidates(models, {0: 0.5}, 4, CandidateCaps(1, 2, 4), SeededRng(0),
                         pool_size=8)


def test_build_candidates_deterministic():
    model = full_space_model(4)
    a = build_candidates([model], {0: 1.0}, 4, CandidateCaps(2, 3, 20),
                         SeededRng(14), pool_size=64)
    b = build_candidates([model], {0: 1.0}, 4, CandidateCaps(2, 3, 20),
                         SeededRng(14), pool_size=64)
    assert [e.index for e in a.entries] == [e.index for e in b.entries]
    for ea, eb in zip(a.entries, b.entries):
        assert np.array_equal(ea.family.columns, eb.family.columns)


# ---------------------------------------------------------------------------
# tests and selection

def make_entry(table_source, prior, idx):
    fam, spec = table_source
    return CandidateEntry((1, (0,), (idx,), 0), fam, spec, prior)


def test_statistic_zero_on_diagonal():
    fam = haar_orthonormal(4, 2, SeededRng(15))
    t = density_table(ProjectionDensity(fam, (1, 2)))
    samples = sample_table(t, 50, SeededRng(1))
    assert signed_root_statistic(t, t, samples) == 0.0


def test_statistic_counts_disjoint_support():
    # every draw lands where v > 0 and u = 0, so each term contributes 1
    fam = OrthonormalFamily(np.eye(3, 2, dtype=complex))
    u = density_table(ProjectionDensity(fam, (1,)))
    v = density_table(ProjectionDensity(fam, (1, 2)))
    samples = sample_table(v, 40, SeededRng(2))
    assert signed_root_statistic(u, v, samples) == pytest.approx(40.0)


def test_statistic_antisymmetric():
    rng = SeededRng(16)
    u = density_table(DppDensity(haar_orthonormal(4, 2, rng.split(0)),
                                 random_spectrum(2, rng.split(1))))
    v = density_table(DppDensity(haar_orthonormal(4, 2, rng.split(2)),
                                 random_spectrum(2, rng.split(3))))
    samples = sample_table(u, 100, rng.split(4))
    assert signed_root_statistic(u, v, samples) == -signed_root_statistic(v, u, samples)


def test_statistic_rejects_mask_outside_ground_set():
    t = density_table(ProjectionDensity(haar_orthonormal(3, 1, SeededRng(18)), (1,)))
    samples = SampleSet([1, 8, 2])
    with pytest.raises(ValueError, match="draw 1 has mask 8, outside the ground set"):
        signed_root_statistic(t, t, samples)


def test_statistic_sign_under_true_density():
    # sampling from u: the statistic favoring v should be negative on
    # average whenever the densities are well separated
    root = SeededRng(17)
    negative = 0
    reps = 200
    for i in range(reps):
        rng = root.split(i)
        u_fam = haar_orthonormal(6, 2, rng.split(0))
        v_fam = haar_orthonormal(6, 2, rng.split(1))
        u = density_table(ProjectionDensity(u_fam, (1, 2)))
        v = density_table(ProjectionDensity(v_fam, (1, 2)))
        h2, _ = hellinger(u, v)
        if math.sqrt(h2) < 0.3:
            negative += 1  # skip weakly separated pairs, count as neutral
            continue
        samples = sample_table(u, 500, rng.split(2))
        if signed_root_statistic(u, v, samples) < 0.0:
            negative += 1
    assert negative / reps > 0.95


def test_select_single_candidate():
    fam = haar_orthonormal(4, 2, SeededRng(18))
    spec = Spectrum.ones(2)
    entry = make_entry((fam, spec), 1.0, 0)
    family = CandidateFamily([entry], False, {0: 1})
    samples = sample_table(entry.table(), 20, SeededRng(3))
    result = select(family, samples)
    assert result.chosen_index == 0
    assert result.crit_values[0] == 0.0


def test_select_prefers_truth_between_two():
    rng = SeededRng(19)
    truth_fam = haar_orthonormal(6, 2, rng.split(0))
    other_fam = haar_orthonormal(6, 2, rng.split(1))
    spec = Spectrum.ones(2)
    entries = [make_entry((truth_fam, spec), 0.5, 0),
               make_entry((other_fam, spec), 0.5, 1)]
    family = CandidateFamily(entries, False, {0: 2})
    wins = 0
    for i in range(50):
        samples = sample_table(entries[0].table(), 200, rng.split(100 + i))
        if select(family, samples).chosen_index == 0:
            wins += 1
    assert wins >= 45


def test_select_matrix_antisymmetric_and_deterministic():
    rng = SeededRng(20)
    model = full_space_model(4)
    fam = build_candidates([model], {0: 1.0}, 3, CandidateCaps(1, 3, 6),
                           rng.split(0), pool_size=64)
    samples = sample_table(fam.entries[0].table(), 50, rng.split(1))
    r1 = select(fam, samples)
    r2 = select(fam, samples)
    assert r1.chosen_index == r2.chosen_index
    assert np.array_equal(r1.crit_values, r2.crit_values)
    assert np.array_equal(r1.test_matrix, -r1.test_matrix.T)


def test_select_rejects_empty_family():
    family = CandidateFamily([], False, {})
    fam = haar_orthonormal(3, 1, SeededRng(21))
    samples = sample_table(density_table(ProjectionDensity(fam, (1,))), 5,
                           SeededRng(0))
    with pytest.raises(ValueError):
        select(family, samples)


# ---------------------------------------------------------------------------
# oracle bound

def test_oracle_bound_full_space_target():
    # target inside the single full-space model: bound is exactly
    # k * (D log n + log(1/pi)) / n with D = 2p real dimensions
    p, k, n = 8, 2, 100
    fam = haar_orthonormal(p, k, SeededRng(22))
    model = full_space_model(p)
    bound = oracle_bound(fam, Spectrum.ones(k), [model], {0: 1.0}, n, k)
    assert bound == pytest.approx(k * (2 * p * math.log(n)) / n, abs=1e-12)
    half = oracle_bound(fam, Spectrum.ones(k), [model], {0: 0.5}, n, k)
    assert half == pytest.approx(
        k * (2 * p * math.log(n) + math.log(2.0)) / n, abs=1e-12
    )


def test_oracle_bound_zero_tail_at_full_truncation():
    fam = haar_orthonormal(5, 2, SeededRng(23))
    spec = Spectrum(np.array([0.9, 0.4]))
    model = full_space_model(5)
    bound = oracle_bound(fam, spec, [model], {0: 1.0}, 50, 2)
    assert bound == pytest.approx(2 * (10 * math.log(50)) / 50, abs=1e-12)


def test_oracle_bound_tail_dominates():
    fam = haar_orthonormal(5, 3, SeededRng(24))
    spec = Spectrum(np.array([0.5, math.sqrt(0.2), math.sqrt(0.1)]))
    model = full_space_model(5)
    bound = oracle_bound(fam, spec, [model], {0: 1.0}, 50, 1)
    assert bound >= 0.3 - 1e-12


def test_oracle_bound_prices_a_zero_prior_model_at_infinity():
    # log(1/0) once raised ZeroDivisionError; the C^3 model decides alone
    fam = haar_orthonormal(3, 1, SeededRng(27))
    plane = SubspaceModel(np.eye(3, dtype=complex)[:, :2], id=0)
    models = [plane, full_space_model(3, 1)]
    prior = {0: 0.0, 1: 1.0}
    spec = Spectrum.ones(1)
    assert oracle_bound(fam, spec, models, prior, 50, 1) == oracle_bound(
        fam, spec, models[1:], prior, 50, 1)
    nets = {m.id: sphere_net(m, 0.5, 50, SeededRng(28 + m.id)) for m in models}
    assert oracle_bound(fam, spec, models, prior, 50, 1, nets=nets) == oracle_bound(
        fam, spec, models[1:], prior, 50, 1, nets=nets)


def test_oracle_bound_net_form_uses_net_distances():
    fam = haar_orthonormal(4, 1, SeededRng(25))
    model = full_space_model(4)
    net = sphere_net(model, 0.5, 200, SeededRng(26),
                     seed_points=[fam.columns[:, 0]])
    bound = oracle_bound(fam, Spectrum.ones(1), [model], {0: 1.0}, 4, 1,
                         nets={0: net})
    # the target itself is a net point, so only the complexity price remains
    assert bound == pytest.approx(math.log(len(net) * 4) / 4, abs=1e-12)
