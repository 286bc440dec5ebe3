"""Property tests for the batched sampler, bitmask-native SampleSet and
the selection tournament.

Families are Haar draws on small ground sets (p <= 6) from a seeded stream,
with spectra chosen by hypothesis.
"""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from detproc import estimator
from detproc.core import (
    DppDensity,
    Spectrum,
    density_table,
    haar_orthonormal,
    random_spectrum,
)
from detproc.estimator import (
    CandidateCaps,
    CandidateEntry,
    CandidateFamily,
    SubspaceModel,
    build_candidates,
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


@given(st.lists(st.integers(0, 2**20 - 1), min_size=0, max_size=50), seeds)
def test_sample_set_round_trip(tmp_path_factory, masks, seed):
    samples = SampleSet(masks, None, seed)
    assert len(samples) == len(masks)
    assert samples.masks().tolist() == masks
    assert not samples.masks().flags.writeable
    assert [d.mask for d in samples.draws] == masks
    assert [d.mask for d in samples] == masks
    assert SampleSet([d.mask for d in samples.draws], None, seed).draws == samples.draws
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
    family = CandidateFamily(entries, CandidateCaps(1, len(entries), len(entries)),
                             False, {0: len(entries)})
    n = draw(st.integers(0, 200))
    if n == 0:  # no draws: every statistic is an exact tie
        return family, SampleSet([], None, 0)
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
