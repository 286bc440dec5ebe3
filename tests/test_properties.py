"""Property tests for the batched sampler and bitmask-native SampleSet.

Families are Haar draws on small ground sets (p <= 6) from a seeded stream,
with spectra chosen by hypothesis.
"""
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from detproc.core import DppDensity, Spectrum, haar_orthonormal
from detproc.rng import SeededRng
from detproc.sampling import SampleSet, sample_dpp


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
