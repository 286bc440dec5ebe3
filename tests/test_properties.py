"""Property tests for the batched sampler, bitmask-native SampleSet, the
selection tournament, the shared minors of the table engine, the sphere
net certificate, the lazy candidate enumeration, the one Hellinger kernel,
the CLI exit contract and the bytes of the CSV writers.

Families are Haar draws on small ground sets (p <= 6) from a seeded stream,
with spectra chosen by hypothesis.
"""
import csv
import json
import math
from itertools import combinations, islice, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_core import _loop_table

from detproc import core, estimator
from detproc.cli import main as cli_main
from detproc.core import (
    TABLE_TOL,
    DppDensity,
    OrthonormalFamily,
    ProjectionDensity,
    Spectrum,
    density_table,
    haar_orthonormal,
    index_set_weights,
    mixture_weight,
    params_from_dict,
    params_to_dict,
    random_spectrum,
    subsets,
    write_table_csv,
)
from detproc.core import (
    _chain_rule_pays,
    _chain_table,
    _index_sets,
    _minor_pairs,
    _mixture_table,
)
from detproc.estimator import (
    CandidateCaps,
    CandidateEntry,
    CandidateFamily,
    SubspaceModel,
    build_candidates,
    nearest_orthonormal,
    select,
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
)
from detproc.experiments import SWEEP_HEADER, write_rows_csv
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


# The csv.writer code of both writers before they formatted whole chunks
# with one % operation: the reference for their bytes.

def reference_table_csv(probs, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config_bitmask", "probability"])
        for mask, prob in enumerate(probs):
            writer.writerow([mask, f"{prob:.17g}"])


def reference_samples_csv(masks, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["draw_index", "config_bitmask"])
        writer.writerows(enumerate(masks.tolist()))


def reference_rows_csv(header, rows, path):
    # the rows writer of the sweeps, risk-curve, hellinger and estimate
    # before every CSV went through core.write_csv
    def fmt(x):
        return f"{x:.17g}" if isinstance(x, float) else str(x)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(x) for x in row])


CHUNK = core._CSV_CHUNK_ROWS
csv_lengths = st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
# zeros of both signs, the tiny negatives DensityTable admits, subnormals
# and the largest probability
SPECIAL_PROBS = [0.0, -0.0, -1e-12, -5e-13, -5e-324, 5e-324, 2.2e-308,
                 1e-300, 1.0]


@given(csv_lengths, seeds,
       st.lists(st.sampled_from(SPECIAL_PROBS)
                | st.floats(-1e-12, 1.0, allow_subnormal=True), max_size=20))
def test_table_csv_bytes_match_csv_writer(tmp_path_factory, size, seed, extra):
    gen = np.random.default_rng(seed)
    probs = gen.random(size)
    n = min(len(extra), size)
    probs[gen.integers(0, max(size, 1), size=n)] = extra[:n]
    # write_table_csv reads only table.probs, so any length can be checked
    table = SimpleNamespace(probs=probs)
    work = tmp_path_factory.mktemp("csv")
    write_table_csv(table, work / "new.csv")
    reference_table_csv(probs, work / "ref.csv")
    assert (work / "new.csv").read_bytes() == (work / "ref.csv").read_bytes()


@given(csv_lengths, seeds)
def test_sample_csv_bytes_match_csv_writer(tmp_path_factory, size, seed):
    gen = np.random.default_rng(seed)
    masks = gen.integers(0, 2**63 - 1, size=size, endpoint=True)
    masks[: size // 2] >>= gen.integers(0, 63, size=size // 2)
    samples = SampleSet(masks)
    work = tmp_path_factory.mktemp("csv")
    samples.write_csv(work / "new.csv")
    reference_samples_csv(samples.masks(), work / "ref.csv")
    assert (work / "new.csv").read_bytes() == (work / "ref.csv").read_bytes()


# (header, kind of each column) of the sweep, risk-curve and hellinger rows
ROW_SHAPES = [
    (SWEEP_HEADER, "int label float float float"),
    (["n", "empirical_mean_h2", "oracle_bound", "normalized"], "int float float float"),
    (["h2", "affinity"], "float float"),
]
LABELS = ["proj_exact", "proj_gram", "proj_l2", "mixture", "dpp_main",
          "dpp_weights", "dpp_components", "isometry"]
SPECIAL_FLOATS = SPECIAL_PROBS + [math.nan, math.inf, -math.inf, 1e300, -1e300]


@settings(max_examples=30)  # 3 shapes by 6 lengths, each up to 12k rows
@given(st.sampled_from(ROW_SHAPES), csv_lengths, seeds,
       st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), max_size=20),
       st.lists(st.integers(-2**62, 2**62), max_size=20))
def test_rows_csv_bytes_match_csv_writer(tmp_path_factory, shape, size, seed,
                                         extra_floats, extra_ints):
    header, kinds = shape
    gen = np.random.default_rng(seed)
    columns = []
    for kind in kinds.split():
        if kind == "label":
            columns.append(gen.choice(LABELS, size=size).tolist())
            continue
        if kind == "int":
            values, extra = gen.integers(0, 2**62, size=size), extra_ints
        else:
            values, extra = gen.standard_normal(size) * 10.0 ** gen.integers(
                -300, 300, size=size), extra_floats
        n = min(len(extra), size)
        values[gen.integers(0, max(size, 1), size=n)] = extra[:n]
        # numpy scalars as well as Python numbers, as the experiments give
        columns.append([v if i % 3 else values[i] for i, v in
                        enumerate(values.tolist())])
    rows = list(zip(*columns))
    work = tmp_path_factory.mktemp("csv")
    write_rows_csv(work / "new.csv", header, rows)
    reference_rows_csv(header, rows, work / "ref.csv")
    assert (work / "new.csv").read_bytes() == (work / "ref.csv").read_bytes()


def test_density_command_bytes_match_csv_writer(tmp_path):
    # p = 13: two full chunks of the table writer
    rng = SeededRng(13)
    params = params_to_dict(haar_orthonormal(13, 4, rng.split(0)),
                            random_spectrum(4, rng.split(1)))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"params": params}))
    out = tmp_path / "table.csv"
    assert cli_main(["density", "--config", str(config), "--out", str(out)]) == 0
    table = density_table(DppDensity(*params_from_dict("params", params)))
    reference_table_csv(table.probs, tmp_path / "ref.csv")
    assert table.probs.size == 2 * CHUNK
    assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()


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
    for spec in spectra:
        probs = _mixture_table(DppDensity(fam, spec))
        fresh = OrthonormalFamily(np.array(fam.columns))
        assert not fresh._minors
        assert np.array_equal(probs, _mixture_table(DppDensity(fresh, spec)))
        assert np.array_equal(probs, _loop_table(fam, spec))
        assert abs(math.fsum(probs) - 1.0) <= TABLE_TOL
        picked = _chain_table(fam, spec) if _chain_rule_pays(fam.p, fam.r) else probs
        assert np.array_equal(density_table(DppDensity(fam, spec)).probs, picked)
    # one stored block per size of index set J of {1..r}, zero weights
    # included, and every J's projection table reads its row
    assert set(fam._minors) == set(range(fam.r + 1))
    for active in (a for k in range(fam.r + 1)
                   for a in combinations(range(1, fam.r + 1), k)):
        want = density_table(ProjectionDensity(
            OrthonormalFamily(np.array(fam.columns)), active)).probs
        assert np.array_equal(density_table(ProjectionDensity(fam, active)).probs,
                              want)


def test_second_table_of_a_family_computes_no_minors(monkeypatch):
    """The squared-minor vector is built once per family: a second spectrum
    on it gathers and sums without calling the minor kernel."""
    fam = haar_orthonormal(8, 2, SeededRng(5))
    density_table(DppDensity(fam, Spectrum(np.array([0.9, 0.7]))))
    calls = []
    real = core.abs_det_many
    monkeypatch.setattr(core, "abs_det_many",
                        lambda stack: calls.append(stack.shape) or real(stack))
    for values in ([0.3, 1.0], [0.0, 0.5], [1.0, 1.0]):
        spec = Spectrum(np.array(values))
        assert np.array_equal(density_table(DppDensity(fam, spec)).probs,
                              _loop_table(fam, spec))
    assert calls == []


def test_minor_store_calls_the_kernel_once_per_size(monkeypatch):
    """Every modulus is a row of the family's minors(k): per-J reads, tables
    and inequality checks share one kernel call per (family, k >= 1)."""
    calls = []  # the size k of each call's blocks
    real = core.abs_det_many
    monkeypatch.setattr(core, "abs_det_many",
                        lambda stack: calls.append(stack.shape[-1]) or real(stack))
    fam = haar_orthonormal(8, 2, SeededRng(6))
    fam.moduli((1,))
    fam.moduli((2,))
    density_table(DppDensity(fam, Spectrum(np.array([0.9, 0.7]))))
    assert calls == [1, 2]
    # a chain-routed pair of tables computes no minors; the component sum
    # then reads every size once per family
    rng = SeededRng(7)
    fam_a = haar_orthonormal(6, 3, rng.split(0))
    fam_b = haar_orthonormal(6, 3, rng.split(1))
    assert _chain_rule_pays(6, 3)
    calls.clear()
    check_bound_dpp(fam_a, random_spectrum(3, rng.split(2)),
                    fam_b, random_spectrum(3, rng.split(3)))
    assert sorted(calls) == [1, 1, 2, 2, 3, 3]


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


@pytest.mark.parametrize("p, values, chain", [
    (4, [0.5, 0.5], False),  # C(6, 2) = 15 <= 16
    (2, [0.5, 0.5], True),  # C(4, 2) = 6 > 4
    (4, [0.5, 0.0], False),  # C(6, 2) = 15, the zero weights included
    (4, [0.5, 0.5, 1.0], True),  # C(7, 3) = 35
    (6, [1.0, 1.0], False),  # a projection as a mixture: C(8, 2) = 28
    (8, [0.9, 0.7], False),  # the estimator's tables: C(10, 2) = 45
    (15, np.linspace(0.95, 0.45, 7), True),  # C(22, 7) = 170,544
    # the rule counts every index set: 15 of these 35 minors (respectively
    # C(6, 3) = 20 of 84) have nonzero weight; the chain rule builds both
    (4, [0.5, 0.5, 0.0], True),
    (6, [1.0, 1.0, 1.0], True),
])
def test_density_table_picks_chain_rule_when_minors_exceed_table(p, values, chain):
    spec = Spectrum(np.array(values, dtype=float))
    assert (math.comb(p + spec.r, spec.r) > 1 << p) == chain
    assert _chain_rule_pays(p, spec.r) == chain
    fam = haar_orthonormal(p, spec.r, SeededRng(p))
    table = density_table(DppDensity(fam, spec))
    # only the mixture-sum route fills the family's minor store
    assert (not fam._minors) == chain
    want = _chain_table(fam, spec) if chain else _mixture_table(DppDensity(fam, spec))
    assert np.array_equal(table.probs, want)


@given(st.integers(1, 7).flatmap(lambda p: st.tuples(st.just(p), st.integers(0, p))))
def test_chain_rule_choice_matches_minor_count(case):
    """The rule compares the mixture sum's (J, alpha) pairs, C(p + r, r) by
    Vandermonde, with the table's 2^p entries."""
    p, r = case
    pairs = _minor_pairs(p, r)[0].size
    assert pairs == sum(math.comb(r, k) * math.comb(p, k) for k in range(r + 1))
    assert pairs == math.comb(p + r, r)
    assert _chain_rule_pays(p, r) == (pairs > 1 << p)


@pytest.mark.parametrize("p, r", [(1, 0), (1, 1), (3, 2), (4, 2), (4, 3),
                                  (6, 2), (6, 3), (8, 2), (10, 4)])
def test_chain_rule_matches_minors_the_kernel_computes(monkeypatch, p, r):
    """The mixture-sum route on a fresh family computes exactly the minors
    the rule counts (the 0 x 0 block of J = () is 1 without a kernel call),
    and the rule sends it to the chain rule iff they outnumber the table's
    entries."""
    matrices = []
    real = core.abs_det_many
    monkeypatch.setattr(core, "abs_det_many",
                        lambda stack: matrices.append(math.prod(stack.shape[:-2]))
                        or real(stack))
    fam = haar_orthonormal(p, r, SeededRng(p + r))
    _mixture_table(DppDensity(fam, Spectrum(np.full(r, 0.5))))
    assert 1 + sum(matrices) == math.comb(p + r, r)
    assert len(matrices) == r
    assert _chain_rule_pays(p, r) == (1 + sum(matrices) > 1 << p)


@given(st.integers(0, 8).flatmap(
    lambda r: st.lists(spectrum_values, min_size=r, max_size=r)))
def test_index_set_weights_match_mixture_weight(values):
    """The table's weight vector, one entry per index set by size and then
    lexicographically, zero weights kept, equals mixture_weight bit for bit."""
    spec = Spectrum(np.array(values, dtype=float))
    r = spec.r
    want = [active for k in range(r + 1)
            for active in combinations(range(1, r + 1), k)]
    inside = _index_sets(r)
    assert [tuple(np.flatnonzero(row) + 1) for row in inside] == want
    weights = index_set_weights(spec)
    assert weights.tolist() == [mixture_weight(spec, active) for active in want]


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
        # the weight grid in descending lexicographic order
        levels = [i / n for i in range(n, 0, -1)]
        gammas = [Spectrum(np.array(values)) for values in
                  islice(product(levels, repeat=j), caps.family_max)]
        for model_rank, model_tuple in enumerate(product(models, repeat=j)):
            net_lists = [nets[m.id].points[: caps.per_net] for m in model_tuple]
            tuples = list(product(*[range(len(pts)) for pts in net_lists]))
            total_theoretical += (
                math.prod(len(nets[m.id]) for m in model_tuple) * n**j
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
# one Hellinger kernel

@st.composite
def hellinger_cases(draw):
    """Two families of one rank r on p <= 5, spectra from hypothesis (exact
    0s and 1s included) and the weights of two two-component mixtures."""
    p = draw(st.integers(1, 5))
    r = draw(st.integers(1, p))
    stream = SeededRng(draw(seeds))
    fams = [haar_orthonormal(p, r, stream.split(i)) for i in range(2)]
    specs = [Spectrum(np.array(draw(st.lists(
        st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=r, max_size=r))))
        for _ in range(2)]
    weights = [np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
               for _ in range(2)]
    weights = [w / w.sum() if w.sum() > 0 else np.array([1.0, 0.0]) for w in weights]
    return fams, specs, weights


@given(hellinger_cases())
def test_every_h2_lies_in_the_unit_interval(case):
    (fam_a, fam_b), (lam, gam), (w_p, w_q) = case
    ta, tb = (density_table(DppDensity(f, s)) for f, s in ((fam_a, lam), (fam_b, gam)))
    active = tuple(range(1, fam_a.r + 1))
    _, h2 = gplus_delta(fam_a, fam_b, fam_a.r)
    projection = check_bound_projection(fam_a, fam_b, active)
    mixture = check_bound_mixture(w_p, w_q, [ta, tb], [tb, ta])
    dpp = check_bound_dpp(fam_a, lam, fam_b, gam)
    h2s = [hellinger(ta, tb)[0], h2, bernoulli_weight_hellinger(lam, gam),
           projection[0].lhs, projection[0].rhs, mixture.lhs,
           dpp[0].lhs, dpp[1].lhs, dpp[2].lhs]
    assert all(0.0 <= h2 <= 1.0 for h2 in h2s), h2s
    # the matrix form of the kernel against its pair form and hellinger
    roots = np.sqrt(np.stack([ta.probs, tb.probs]))
    matrix = _h2(roots, roots)
    for i, j in product(range(2), repeat=2):
        assert abs(matrix[i, j] - _h2(roots[i], roots[j])) <= 1e-15
    assert abs(matrix[0, 1] - hellinger(ta, tb)[0]) <= 1e-15


def test_nan_affinity_stays_nan():
    roots = np.array([[0.6, 0.8], [math.nan, 0.8]])
    assert math.isnan(_h2(roots[1], roots[0]))
    matrix = _h2(roots, roots)
    assert matrix[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert np.isnan(matrix[1]).all() and np.isnan(matrix[:, 1]).all()
    # Python's min(1.0, nan) would read 1.0, an h^2 of 0 that passes any bound
    assert not BoundReport(_h2(roots[1], roots[0]), 1.0, "nan").holds


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
