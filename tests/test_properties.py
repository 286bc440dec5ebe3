"""Property tests for the batched sampler, bitmask-native SampleSet, the
selection tournament, the shared minors of the table engine, the sphere
net certificate, the lazy candidate enumeration and the CLI exit contract.

Families are Haar draws on small ground sets (p <= 6) from a seeded stream,
with spectra chosen by hypothesis.
"""
import json
import math
from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_core import _loop_table

from detproc import estimator
from detproc.cli import main as cli_main
from detproc.core import (
    TABLE_TOL,
    DppDensity,
    OrthonormalFamily,
    ProjectionDensity,
    Spectrum,
    density_table,
    haar_orthonormal,
    mixture_weight,
    params_to_dict,
    random_spectrum,
    subsets,
    weighted_active_sets,
)
from detproc.core import _chain_rule_pays, _chain_table, _mixture_table
from detproc.estimator import (
    CandidateCaps,
    CandidateEntry,
    CandidateFamily,
    LambdaGrid,
    SubspaceModel,
    build_candidates,
    nearest_orthonormal,
    select,
)
from detproc.rng import SeededRng
from detproc.sampling import SampleSet, sample_dpp, sample_table


@st.composite
def densities(draw, spectrum=None):
    p = draw(st.integers(1, 6))
    r = draw(st.integers(0, p))
    fam = haar_orthonormal(p, r, SeededRng(draw(st.integers(0, 2**32 - 1))))
    if spectrum is None:
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=r, max_size=r))
    else:
        values = [spectrum] * r
    return DppDensity(fam, Spectrum(np.array(values, dtype=float)))


draw_counts = st.integers(1, 300)
seeds = st.integers(0, 2**32 - 1)


def popcount(masks):
    return np.array([bin(m).count("1") for m in masks.tolist()], dtype=int)


@given(densities(), draw_counts, seeds)
def test_masks_inside_ground_set_and_rank(density, n, seed):
    masks = sample_dpp(density, n, SeededRng(seed)).masks()
    assert masks.dtype == np.int64 and masks.shape == (n,)
    assert np.all((masks >= 0) & (masks < 1 << density.family.p))
    assert np.all(popcount(masks) <= density.family.r)


@given(densities(spectrum=0.0), draw_counts, seeds)
def test_zero_spectrum_gives_empty_draws(density, n, seed):
    assert not sample_dpp(density, n, SeededRng(seed)).masks().any()


@given(densities(spectrum=1.0), draw_counts, seeds)
def test_unit_spectrum_gives_rank_many_points(density, n, seed):
    masks = sample_dpp(density, n, SeededRng(seed)).masks()
    assert np.all(popcount(masks) == density.family.r)


@given(densities(), draw_counts, seeds)
def test_same_seed_same_masks(density, n, seed):
    a = sample_dpp(density, n, SeededRng(seed)).masks()
    b = sample_dpp(density, n, SeededRng(seed)).masks()
    assert np.array_equal(a, b)


@given(st.lists(st.integers(0, 2**20 - 1), min_size=0, max_size=50))
def test_sample_set_round_trip(tmp_path_factory, masks):
    samples = SampleSet(masks)
    assert len(samples) == len(masks)
    assert samples.masks().tolist() == masks
    assert not samples.masks().flags.writeable
    path = tmp_path_factory.mktemp("csv") / "draws.csv"
    samples.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "draw_index,config_bitmask"
    assert lines[1:] == [f"{i},{m}" for i, m in enumerate(masks)]


# ---------------------------------------------------------------------------
# selection tournament

def reference_beats(t_ab, prior_a, prior_b, a, b):
    """Whether candidate b beats candidate a (the per-pair rule of select)."""
    if t_ab > 0.0:
        return True
    if t_ab < 0.0:
        return False
    # tie: larger prior beats smaller; equal priors: lower index beats higher
    if prior_b != prior_a:
        return prior_b > prior_a
    return b < a


def reference_select(family, samples):
    """Pairwise loop over every candidate pair and all 2^p cells."""
    entries = family.entries
    m = len(entries)
    probs = np.stack([e.table().probs for e in entries])
    roots = np.sqrt(probs)
    counts = np.bincount(samples.masks(), minlength=probs.shape[1])
    affinity = np.clip(roots @ roots.T, 0.0, 1.0)
    h_matrix = np.sqrt(np.clip(1.0 - affinity, 0.0, None))
    np.fill_diagonal(h_matrix, 0.0)
    sign = np.zeros((m, m), dtype=np.int8)
    for a in range(m):
        for b in range(a + 1, m):
            denom = np.sqrt(probs[a] + probs[b])
            terms = np.divide(roots[b] - roots[a], denom,
                              out=np.zeros_like(denom), where=denom > 0.0)
            t = float(np.dot(counts, terms))
            b_beats_a = reference_beats(t, entries[a].prior, entries[b].prior, a, b)
            sign[a, b] = 1 if b_beats_a else -1
            sign[b, a] = -sign[a, b]
    crit = np.zeros(m)
    for a in range(m):
        beating = np.nonzero(sign[a] > 0)[0]
        crit[a] = h_matrix[a, beating].max() if beating.size else 0.0
    order = sorted(range(m), key=lambda a: (crit[a], -entries[a].prior, a))
    return order[0], crit, sign


@st.composite
def tournaments(draw):
    """A candidate family on p <= 6 with duplicated candidates and shared
    priors (so exact ties occur), plus draws from one of its members."""
    p = draw(st.integers(1, 6))
    stream = SeededRng(draw(seeds))
    distinct = []
    for i in range(draw(st.integers(1, 5))):
        r = draw(st.integers(0, p))
        fam = haar_orthonormal(p, r, stream.split(2 * i))
        values = draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 1.0),
                               min_size=r, max_size=r))
        distinct.append((fam, Spectrum(np.array(values, dtype=float))))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=9))
    priors = draw(st.lists(st.sampled_from([0.01, 0.02, 0.05]),
                           min_size=len(picks), max_size=len(picks)))
    entries = [CandidateEntry((1, (0,), (i,), 0), *distinct[k], prior)
               for i, (k, prior) in enumerate(zip(picks, priors))]
    family = CandidateFamily(entries, False, {0: len(entries)})
    n = draw(st.integers(0, 200))
    if n == 0:  # no draws: every statistic is an exact tie
        return family, SampleSet([])
    source = entries[draw(st.integers(0, len(entries) - 1))].table()
    return family, sample_table(source, n, stream.split(1))


@given(tournaments())
def test_select_matches_pairwise_reference(case):
    family, samples = case
    result = select(family, samples)
    chosen, crit, sign = reference_select(family, samples)
    assert np.array_equal(result.test_matrix, sign)
    assert result.test_matrix.dtype == sign.dtype
    assert np.array_equal(result.crit_values, crit)
    assert result.chosen_index == chosen


@given(tournaments())
def test_select_matrix_antisymmetric_with_hellinger_crit(case):
    family, samples = case
    result = select(family, samples)
    m = len(family)
    assert np.array_equal(result.test_matrix, -result.test_matrix.T)
    off_diagonal = ~np.eye(m, dtype=bool)
    assert np.all(np.abs(result.test_matrix[off_diagonal]) == 1)
    assert np.all((result.crit_values >= 0.0) & (result.crit_values <= 1.0))


@pytest.mark.parametrize("block_cells", [1, 97, None])
def test_select_matches_reference_across_blocks(monkeypatch, block_cells):
    # 60 candidates on p = 8 with ~200 observed cells: many pair blocks even
    # at the default block size
    if block_cells is not None:
        monkeypatch.setattr(estimator, "_PAIR_BLOCK_CELLS", block_cells)
    rng = SeededRng(31)
    truth = DppDensity(haar_orthonormal(8, 6, rng.split(0)),
                       random_spectrum(6, rng.split(1)))
    samples = sample_table(density_table(truth), 3000, rng.split(2))
    family = build_candidates([SubspaceModel(np.eye(8, dtype=complex))], {0: 1.0},
                              3000, CandidateCaps(2, 8, 60), rng.split(3),
                              pool_size=64)
    assert np.count_nonzero(np.bincount(samples.masks())) > 150
    result = select(family, samples)
    chosen, crit, sign = reference_select(family, samples)
    assert np.array_equal(result.test_matrix, sign)
    assert np.array_equal(result.crit_values, crit)
    assert result.chosen_index == chosen


# ---------------------------------------------------------------------------
# shared minors: one |det|^2 vector per (family, J), one polar factor per set
# of net points

spectrum_values = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def reused_families(draw):
    """A family on p <= 6 of rank r <= 4 with 1-4 spectra (entries 0 and 1
    included) to build tables on."""
    p = draw(st.integers(1, 6))
    r = draw(st.integers(0, min(p, 4)))
    fam = haar_orthonormal(p, r, SeededRng(draw(seeds)))
    spectra = draw(st.lists(
        st.lists(spectrum_values, min_size=r, max_size=r), min_size=1, max_size=4))
    return fam, [Spectrum(np.array(v, dtype=float)) for v in spectra]


@given(reused_families())
def test_reused_family_tables_match_fresh_and_loop(case):
    """The mixture-sum route against a fresh family and the per-subset loop;
    density_table returns whichever route its rule picks, bit for bit."""
    fam, spectra = case
    used = set()
    for spec in spectra:
        probs = _mixture_table(DppDensity(fam, spec))
        fresh = OrthonormalFamily(np.array(fam.columns))
        assert not fresh._moduli
        assert np.array_equal(probs, _mixture_table(DppDensity(fresh, spec)))
        assert np.array_equal(probs, _loop_table(fam, spec))
        assert abs(math.fsum(probs) - 1.0) <= TABLE_TOL
        picked = _chain_table(fam, spec) if _chain_rule_pays(fam.p, spec) else probs
        assert np.array_equal(density_table(DppDensity(fam, spec)).probs, picked)
        used |= {a for a, _ in weighted_active_sets(spec, range(spec.r + 1))}
    # one memo entry per index set J that entered some table
    assert set(fam._moduli) == used
    for active in used:
        want = density_table(ProjectionDensity(
            OrthonormalFamily(np.array(fam.columns)), active)).probs
        assert np.array_equal(density_table(ProjectionDensity(fam, active)).probs,
                              want)


# ---------------------------------------------------------------------------
# the chain rule over the points: the table route for large mixtures

edge_values = st.sampled_from([0.0, 1.0, 1 - 1e-12, 1 - 1e-6, 0.3, 1e-7])


@st.composite
def chain_cases(draw):
    """A family on p <= 10 of rank r <= 6, real or complex, with a spectrum
    mixing edge entries and uniform draws."""
    p = draw(st.integers(1, 10))
    r = draw(st.integers(0, min(p, 6)))
    fam = haar_orthonormal(p, r, SeededRng(draw(seeds)), real=draw(st.booleans()))
    values = draw(st.lists(edge_values | st.floats(0.0, 1.0), min_size=r, max_size=r))
    return fam, Spectrum(np.array(values, dtype=float))


@given(chain_cases())
def test_chain_table_matches_loop_and_support(case):
    fam, spec = case
    probs = _chain_table(fam, spec)
    assert np.abs(probs - _loop_table(fam, spec)).max() <= 1e-12
    sq = spec.values**2
    sizes = np.array([bin(m).count("1") for m in range(1 << fam.p)])
    outside = (sizes < np.count_nonzero(sq == 1.0)) | (sizes > np.count_nonzero(sq > 0.0))
    assert np.all(probs[outside] == 0.0)
    assert probs.min() >= 0.0


def _minors_needed(p, spec):
    """Squared minors of the mixture sum: C(p, |J|) for every index set J
    whose Bernoulli factors are all nonzero."""
    sq = spec.values**2
    return sum(math.comb(p, k)
               for k in range(spec.r + 1)
               for active in combinations(range(spec.r), k)
               if all(sq[j] > 0.0 if j in active else sq[j] < 1.0
                      for j in range(spec.r)))


@pytest.mark.parametrize("p, values, chain", [
    (4, [0.5, 0.5], False),  # M = 15 <= 16
    (2, [0.5, 0.5], True),  # M = 6 > 4
    (4, [0.5, 0.5, 0.0], False),  # C(7, 3) = 35 > 16, but M = 15
    (4, [0.5, 0.5, 1.0], True),  # M = 20
    (6, [1.0, 1.0, 1.0], False),  # a projection: M = C(6, 3)
    (8, [0.9, 0.7], False),  # the estimator's tables: C(10, 2) = 45
    (15, np.linspace(0.95, 0.45, 7), True),  # M = C(22, 7) = 170,544
])
def test_density_table_picks_chain_rule_when_minors_exceed_table(p, values, chain):
    spec = Spectrum(np.array(values, dtype=float))
    assert (_minors_needed(p, spec) > 1 << p) == chain
    assert _chain_rule_pays(p, spec) == chain
    fam = haar_orthonormal(p, spec.r, SeededRng(p))
    table = density_table(DppDensity(fam, spec))
    # only the mixture-sum route fills the family's minor memo
    assert (not fam._moduli) == chain
    want = _chain_table(fam, spec) if chain else _mixture_table(DppDensity(fam, spec))
    assert np.array_equal(table.probs, want)


@given(st.integers(1, 7).flatmap(lambda p: st.tuples(
    st.just(p), st.lists(edge_values | st.floats(0.0, 1.0), max_size=p))))
def test_chain_rule_choice_matches_minor_count(case):
    p, values = case
    spec = Spectrum(np.array(values, dtype=float))
    assert _chain_rule_pays(p, spec) == (_minors_needed(p, spec) > 1 << p)


@given(st.integers(0, 8).flatmap(
    lambda r: st.lists(spectrum_values, min_size=r, max_size=r)))
def test_weighted_active_sets_match_mixture_weight(values):
    spec = Spectrum(np.array(values, dtype=float))
    r = spec.r
    want = [(active, mixture_weight(spec, active))
            for k in range(r + 1) for active in combinations(range(1, r + 1), k)]
    assert list(weighted_active_sets(spec, range(r + 1))) == [
        (active, w) for active, w in want if w != 0.0]


def test_subsets_are_cached_and_read_only():
    masks, rows = subsets(5, 2)
    assert subsets(5, 2)[0] is masks
    assert not masks.flags.writeable and not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 4
    # tables built in between leave the shared enumeration intact
    density_table(DppDensity(haar_orthonormal(5, 3, SeededRng(3)),
                             Spectrum(np.array([1.0, 0.5, 0.2]))))
    assert rows.tolist() == [list(c) for c in combinations(range(5), 2)]
    assert masks.tolist() == [sum(1 << i for i in c)
                              for c in combinations(range(5), 2)]


@st.composite
def net_setups(draw):
    """A random real or complex subspace of dimension <= 3 in R^p or C^p,
    p <= 6, with a separation radius and a pool size."""
    p = draw(st.integers(1, 6))
    real = draw(st.booleans())
    basis = haar_orthonormal(p, draw(st.integers(1, min(p, 3))), SeededRng(draw(seeds)),
                             real=real).columns
    model = SubspaceModel(basis.real.copy() if real else basis)
    eta = draw(st.sampled_from([0.1, 0.3, 0.7, 1.0, 1.5, 2.0]))
    return model, eta, draw(st.integers(1, 300)), draw(seeds)


@given(net_setups())
def test_sphere_net_certificate_in_phase_invariant_distance(setup):
    # u and e^(i theta) u are one net point: the net is separated, and the
    # pool covered, in min_theta |u - e^(i theta) v|^2 = 2 - 2|<u, v>|
    model, eta, pool_size, seed = setup
    net = estimator.sphere_net(model, eta, pool_size, SeededRng(seed))
    coeffs = estimator._random_unit_coefficients(pool_size, model.dim, SeededRng(seed),
                                                  model.is_complex)
    pool = coeffs @ model.basis.T
    squared = 2.0 - 2.0 * np.abs(pool.conj() @ net.points.T)  # pool x net
    assert squared.min(axis=1).max() <= net.pool_covering_radius**2 + 1e-12
    assert net.pool_covering_radius <= eta
    gram = 2.0 - 2.0 * np.abs(net.points.conj() @ net.points.T)
    pairs = np.triu_indices(len(net), 1)
    assert np.all(gram[pairs] > eta**2)
    assert net.min_pairwise_distance() == pytest.approx(
        math.sqrt(gram[pairs].min()) if len(net) > 1 else math.inf)


def reference_candidate_descriptors(models, nets, n, caps):
    """Every (net tuple, gamma) pair within the caps, in truncation order.

    Returns (descriptors, total_theoretical): descriptors are tuples
    (depth, j, model_rank, gamma_rank, tuple_rank, payload) sorted on their
    first five entries, payload = (model_tuple, net_lists, point_idx,
    gamma); total_theoretical counts the candidates of the full enumeration.
    """
    descriptors = []
    total_theoretical = 0
    for j in range(1, caps.j_max + 1):
        # the old LambdaGrid iteration: descending lexicographic order
        levels = [i / n for i in range(n, 0, -1)]
        gammas = [Spectrum(np.array(values)) for values in
                  islice(product(levels, repeat=j), caps.family_max)]
        for model_rank, model_tuple in enumerate(product(models, repeat=j)):
            net_lists = [nets[m.id].points[: caps.per_net] for m in model_tuple]
            tuples = list(product(*[range(len(pts)) for pts in net_lists]))
            total_theoretical += (
                math.prod(len(nets[m.id]) for m in model_tuple) * LambdaGrid(j, n).count
            )
            for g_rank, gamma in enumerate(gammas):
                for t_rank, point_idx in enumerate(tuples):
                    depth = g_rank + t_rank
                    payload = (model_tuple, net_lists, point_idx, gamma)
                    descriptors.append(
                        (depth, j, model_rank, g_rank, t_rank, payload)
                    )
    descriptors.sort(key=lambda d: d[:5])
    return descriptors, total_theoretical


def reference_build_candidates(models, prior, n, caps, rng, pool_size, anchor,
                               anchor_jitter):
    """build_candidates over the sorted descriptor list, with one polar
    factor per candidate (no memo); returns (entries, total_theoretical)."""
    nets = estimator._candidate_nets(models, n, rng, pool_size, anchor,
                                     anchor_jitter)
    descriptors, total = reference_candidate_descriptors(models, nets, n, caps)
    entries = []
    for depth, j, model_rank, g_rank, t_rank, payload in descriptors:
        if len(entries) >= caps.family_max:
            break
        model_tuple, net_lists, point_idx, gamma = payload
        vectors = [net_lists[l][point_idx[l]] for l in range(j)]
        try:
            fam = nearest_orthonormal(vectors)
        except ValueError:
            continue
        mass = (2.0 * n) ** (-j)
        for m in model_tuple:
            mass *= prior[m.id] / len(nets[m.id])
        index = (j, tuple(m.id for m in model_tuple), tuple(point_idx), g_rank)
        entries.append(CandidateEntry(index, fam, gamma, mass))
    return entries, total


# the reference lists every descriptor and builds a table for each full-rank
# one; keep that list below ~600 entries
REFERENCE_DESCRIPTORS = 600


@st.composite
def candidate_setups(draw):
    """Two or three models on p <= 5 (random subspaces, all real or all
    complex), so net points of different models share point indices, plus
    caps (j_max up to p + 1) whose family_max truncates nothing and an
    optional anchor of the same field."""
    p = draw(st.integers(2, 5))
    stream = SeededRng(draw(seeds))
    real = draw(st.booleans())
    j_max = draw(st.integers(1, p + 1))
    models = []
    for i in range(draw(st.integers(2, 3 if j_max <= 3 else 2))):
        basis = haar_orthonormal(p, draw(st.integers(1, p)), stream.split(i),
                                 real=real).columns
        models.append(SubspaceModel(basis.real.copy() if real else basis, id=i))
    prior = {m.id: 1.0 / len(models) for m in models}

    def size(per_net, n):
        return sum((len(models) * per_net * n) ** j for j in range(1, j_max + 1))

    # largest first, which hypothesis tries first
    n = draw(st.sampled_from([k for k in (3, 2, 1) if size(1, k) <= REFERENCE_DESCRIPTORS]))
    per_net = draw(st.sampled_from(
        [k for k in (4, 3, 2, 1) if size(k, n) <= REFERENCE_DESCRIPTORS] or [1]))
    caps = CandidateCaps(j_max, per_net, 10**6)
    anchor = None
    if draw(st.booleans()):
        anchor = haar_orthonormal(p, draw(st.integers(1, 2)), stream.split(9),
                                  real=real)
    return models, prior, n, caps, stream.split(10), anchor


@given(candidate_setups())
def test_build_candidates_matches_unshared_polar_factors(setup):
    # the ordered reference holds each set of distinct net points in all j!
    # orders; with nothing truncated the family holds each set once, with
    # the same densities and the same total prior
    models, prior, n, caps, rng, anchor = setup
    want, _ = reference_build_candidates(models, prior, n, caps, rng, 16, anchor, 1)
    family = build_candidates(models, prior, n, caps, rng, pool_size=16,
                              anchor=anchor, anchor_jitter=1)
    got = family.entries
    # family_max and n^j <= 3^6 never bind, so only per_net can drop a
    # full-rank candidate
    assert family.truncated == any(size > caps.per_net for size in family.net_sizes.values())
    # each entry is one set of net points: (model rank, point index) strictly increasing
    rank = {m.id: r for r, m in enumerate(models)}
    for e in got:
        pairs = [(rank[mid], i) for mid, i in zip(e.index[1], e.index[2])]
        assert all(a < b for a, b in zip(pairs, pairs[1:]))
    assert len({e.index for e in got}) == len(got)
    # entries come in depth order: gamma rank + the set's rank in combinations
    # order over the pooled net points, then j, then gamma rank
    pool = [(m.id, i) for m in models
            for i in range(min(family.net_sizes[m.id], caps.per_net))]
    order = {j: {c: t for t, c in enumerate(combinations(pool, j))}
             for j in range(1, min(caps.j_max, len(pool)) + 1)}
    keys = [(e.index[3] + order[e.index[0]][tuple(zip(e.index[1], e.index[2]))],
             e.index[0], e.index[3]) for e in got]
    assert keys == sorted(keys)
    # a smaller family_max keeps a prefix of that order
    cut = build_candidates(models, prior, n,
                           CandidateCaps(caps.j_max, caps.per_net, len(got) // 2 + 1),
                           rng, pool_size=16, anchor=anchor, anchor_jitter=1)
    assert [e.index for e in cut.entries] == [e.index for e in got[:len(cut)]]
    assert len(cut) == len(got) // 2 + 1
    # the same set of distinct tables, each within 1e-12
    g = np.stack([e.table().probs for e in got])
    w = np.stack([e.table().probs for e in want])
    gap = np.abs(g[:, None, :] - w[None, :, :]).max(axis=2)
    assert gap.min(axis=1).max() <= 1e-12 and gap.min(axis=0).max() <= 1e-12
    # the mass of the ordered tuples of distinct points, which are all of the
    # reference's full-rank tuples
    assert family.prior_mass() == pytest.approx(math.fsum(e.prior for e in want),
                                                rel=1e-12, abs=0.0)
    # candidates on one set of net points share one family object
    by_set = {}
    for e in got:
        assert by_set.setdefault(e.index[:3], e.family) is e.family


# ---------------------------------------------------------------------------
# CLI exit contract: 0, 1 or 2, never an exception

BAD_VALUES = [None, "x", [], [1.5], {}, True, -1, 0, 1.5, math.nan, math.inf,
              -math.inf, 10**30, -(10**30)]
# Huge counts here are long runs, not errors: replications and
# anchor_jitter loops would run 10^30 times.
LOOP_COUNTS = {"replications", "anchor_jitter"}

CLI_BASE = {
    "density": {"params": params_to_dict(
        haar_orthonormal(3, 2, SeededRng(5)), Spectrum(np.array([0.9, 0.4])))},
    "sample": {"params": params_to_dict(
        haar_orthonormal(3, 2, SeededRng(6)), Spectrum(np.array([1.0, 0.5]))),
        "n": 5, "seed": 1},
    "risk-curve": {"p": 4, "k": 1, "n_grid": [20, 40], "replications": 1,
                   "caps": [1, 2, 4], "pool_size": 8, "anchor_jitter": 1,
                   "seed": 2},
}


@st.composite
def cli_cases(draw):
    """A tiny config of one command with some keys, top-level or inside
    params, dropped or replaced by a bad value."""
    command = draw(st.sampled_from(sorted(CLI_BASE)))
    config = json.loads(json.dumps(CLI_BASE[command]))
    for _ in range(draw(st.integers(0, 3))):
        target = config
        if "params" in config and isinstance(config["params"], dict) \
                and draw(st.booleans()):
            target = config["params"]
        if not target:
            break
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
            continue
        values = BAD_VALUES
        if key in LOOP_COUNTS:
            values = [v for v in values if not (isinstance(v, int) and v > 10**6)]
        target[key] = draw(st.sampled_from(values))
    return command, config


@given(cli_cases())
def test_cli_exits_0_1_or_2_on_broken_configs(tmp_path_factory, case):
    command, config = case
    work = tmp_path_factory.mktemp("cli")
    path = work / "config.json"
    path.write_text(json.dumps(config))
    code = cli_main([command, "--config", str(path), "--out", str(work / "out")])
    assert code in (0, 1, 2)
