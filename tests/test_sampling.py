import math

import numpy as np
import pytest
from scipy import stats

from detproc.core import (
    Config,
    DppDensity,
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
    SampleSet,
    empirical_table,
    sample_active_set,
    sample_dpp,
    sample_projection_sequential,
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


def test_rng_split_is_stable():
    a = SeededRng(7).split(3).split(1).generator.random(4)
    b = SeededRng(7).split(3).split(1).generator.random(4)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# active-set draws

def test_active_set_degenerate_spectra():
    rng = SeededRng(0)
    assert sample_active_set(Spectrum(np.zeros(3)), rng) == ()
    assert sample_active_set(Spectrum.ones(3), rng) == (1, 2, 3)


def test_active_set_inclusion_frequency():
    spec = Spectrum(np.array([math.sqrt(0.5)]))
    rng = SeededRng(1)
    hits = sum(1 in sample_active_set(spec, rng) for _ in range(100_000))
    assert hits / 100_000 == pytest.approx(0.5, abs=0.01)


# ---------------------------------------------------------------------------
# sequential projection sampler

def test_sequential_empty_active_set():
    fam = haar_orthonormal(4, 2, SeededRng(2))
    assert sample_projection_sequential(fam, (), SeededRng(0)) == Config()


def test_sequential_point_mass():
    fam = OrthonormalFamily(np.eye(3, 1, dtype=complex))
    for i in range(20):
        assert sample_projection_sequential(fam, (1,), SeededRng(i)) == Config([1])


def test_sequential_draw_cardinality():
    fam = haar_orthonormal(6, 3, SeededRng(3))
    for i in range(30):
        draw = sample_projection_sequential(fam, (1, 2, 3), SeededRng(i))
        assert len(draw) == 3


def test_sequential_tv_against_table():
    rng = SeededRng(4)
    fam = haar_orthonormal(6, 2, rng.split(0))
    table = density_table(ProjectionDensity(fam, (1, 2)))
    n = 20_000
    draws = [sample_projection_sequential(fam, (1, 2), rng.split(100 + i))
             for i in range(n)]
    emp = empirical_table(SampleSet(tuple(draws), fam, 4), 6)
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


def test_sample_table_rejects_bad_count():
    fam = haar_orthonormal(3, 1, SeededRng(7))
    table = density_table(ProjectionDensity(fam, (1,)))
    with pytest.raises(ValueError):
        sample_table(table, 0, SeededRng(0))


# ---------------------------------------------------------------------------
# full two-step sampler

def test_dpp_zero_spectrum_always_empty():
    fam = haar_orthonormal(4, 2, SeededRng(8))
    samples = sample_dpp(DppDensity(fam, Spectrum(np.zeros(2))), 50, SeededRng(0))
    assert all(d == Config() for d in samples)


def test_dpp_projection_spectrum_fixed_cardinality():
    fam = haar_orthonormal(5, 3, SeededRng(9))
    spec = Spectrum(np.array([1.0, 0.0, 1.0]))
    samples = sample_dpp(DppDensity(fam, spec), 100, SeededRng(1))
    assert all(len(d) == 2 for d in samples)


def test_dpp_determinism():
    rng_params = SeededRng(10)
    fam = haar_orthonormal(5, 2, rng_params.split(0))
    spec = random_spectrum(2, rng_params.split(1))
    d = DppDensity(fam, spec)
    a = sample_dpp(d, 200, SeededRng(11))
    b = sample_dpp(d, 200, SeededRng(11))
    assert a.draws == b.draws


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
    sizes = np.array([len(d) for d in samples])
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
    assert int(mask) == samples.draws[0].mask
