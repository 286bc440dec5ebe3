"""Acceptance suite: one test per release criterion.

Each test records a single pass/fail line (printed in the terminal summary)
and asserts the same verdict, so a red test and a FAIL line always agree.
Timed criteria assert their runtime budget as part of the verdict.
"""
import json
import math
import time

import numpy as np

from conftest import record

from detproc.core import (
    Config,
    DppDensity,
    GroundSet,
    OrthonormalFamily,
    ProjectionDensity,
    Spectrum,
    correlation,
    density_table,
    dpp_density_eval,
    haar_orthonormal,
    inclusion_probabilities,
    kernel_from_params,
    l_ensemble_oracle,
    normalization_check,
    params_to_dict,
    random_spectrum,
)
from detproc.cli import main as cli_main
from detproc.estimator import (
    CandidateCaps,
    CandidateEntry,
    CandidateFamily,
    SubspaceModel,
    build_candidates,
    select,
    sphere_approx,
    sphere_net,
)
from detproc.experiments import (
    BoundsSweepConfig,
    IsometrySweepConfig,
    RiskCurveConfig,
    SamplerCheckConfig,
    run_bounds_sweep,
    run_isometry_sweep,
    run_risk_curve,
    run_sampler_check,
)
from detproc.hellinger import hellinger
from detproc.rng import SeededRng
from detproc.sampling import sample_table


def test_criterion_01_normalization():
    start = time.time()
    root = SeededRng(101)
    worst = 0.0
    for i in range(1000):
        rng = root.split(i)
        gen = rng.generator
        p = int(gen.integers(1, 13))
        k = int(gen.integers(0, p + 1))
        fam = haar_orthonormal(p, k, rng.split(0))
        table = density_table(ProjectionDensity(fam, tuple(range(1, k + 1))))
        worst = max(worst, abs(normalization_check(table) - 1.0))
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    assert record(
        "criterion 1 normalization (1000 projection instances, p <= 12)",
        ok, f"max |mass-1| = {worst:.2e}, {elapsed:.1f}s"
    )


def test_criterion_02_correlation_identity():
    root = SeededRng(102)
    worst = 0.0
    for i in range(200):
        rng = root.split(i)
        gen = rng.generator
        p = int(gen.integers(2, 9))
        r = int(gen.integers(1, min(p, 4) + 1))
        fam = haar_orthonormal(p, r, rng.split(0))
        spec = random_spectrum(r, rng.split(1))
        table = density_table(DppDensity(fam, spec))
        kern = kernel_from_params(fam, spec)
        incl = inclusion_probabilities(table)
        for alpha in GroundSet(p).configs():
            worst = max(worst, abs(correlation(kern, alpha) - incl[alpha.mask]))
    ok = worst <= 1e-9
    assert record(
        "criterion 2 correlation identity (200 instances, p <= 8)",
        ok, f"max deviation = {worst:.2e}"
    )


def test_criterion_03_oracle_cross_check():
    root = SeededRng(103)
    worst = 0.0
    for i in range(200):
        rng = root.split(i)
        gen = rng.generator
        p = int(gen.integers(2, 7))
        r = int(gen.integers(1, min(p, 3) + 1))
        fam = haar_orthonormal(p, r, rng.split(0))
        spec = random_spectrum(r, rng.split(1), max_value=0.95)
        density = DppDensity(fam, spec)
        for alpha in GroundSet(p).configs():
            worst = max(worst, abs(
                dpp_density_eval(density, alpha) - l_ensemble_oracle(density, alpha)
            ))
    ok = worst <= 1e-8
    assert record(
        "criterion 3 L-ensemble oracle cross-check (200 instances)",
        ok, f"max deviation = {worst:.2e}"
    )


def test_criterion_04_inequality_sweeps():
    start = time.time()
    rows, violations = run_bounds_sweep(BoundsSweepConfig(instances=1000, seed=104))
    elapsed = time.time() - start
    min_slack = min(row[4] for row in rows)
    counts = {}
    for row in rows:
        counts[row[1]] = counts.get(row[1], 0) + 1
    enough = all(c >= 1000 for c in counts.values())
    ok = violations == 0 and min_slack >= -1e-9 and enough and elapsed < 300.0
    assert record(
        "criterion 4 distance inequality sweeps (>= 1000 instances each)",
        ok, f"min slack = {min_slack:.2e}, {elapsed:.1f}s"
    )


def test_criterion_05_isometry():
    rows, violations = run_isometry_sweep(IsometrySweepConfig(instances=1000, seed=105))
    worst = max(row[4] for row in rows)
    ok = violations == 0 and worst <= 1e-9
    assert record(
        "criterion 5 modulus-coordinate isometry (1000 pairs)",
        ok, f"max gap = {worst:.2e}"
    )


def test_criterion_06_sampler_exactness():
    cfg = SamplerCheckConfig(p=6, rank=3, draws=100_000, settings=3, seed=106)
    rows, failures = run_sampler_check(cfg)
    tv_worst = max(row[2] for row in rows if row[1].startswith("tv"))
    pval_min = min(row[2] for row in rows if row[1] == "chi2_pvalue")
    ok = failures == 0
    assert record(
        "criterion 6 sampler exactness (TV < 0.02 at 1e5 draws, 3 settings)",
        ok, f"worst TV = {tv_worst:.4f}, min chi2 p = {pval_min:.4f}"
    )


def test_criterion_07_net_properties():
    root = SeededRng(107)
    ok_sep = True
    ok_size = True
    configs = [(1, False, 4), (2, True, 4), (2, True, 100), (3, True, 25)]
    for idx, (d, complex_mode, n) in enumerate(configs):
        dtype = complex if complex_mode else float
        model = SubspaceModel(np.eye(5, dtype=dtype)[:, :d])
        eta = 1.0 / math.sqrt(n)
        net = sphere_net(model, eta, 1500, root.split(idx))
        ok_sep = ok_sep and net.min_pairwise_distance() > eta
        ok_size = ok_size and math.log(len(net)) <= net.log_size_bound(n) + 1e-12
    ok_factor = True
    worst_factor = 0.0
    for i in range(1000):
        rng = root.split(1000 + i)
        gen = rng.generator
        d = int(gen.integers(1, 4))
        model = SubspaceModel(haar_orthonormal(6, d, rng.split(0)).columns)
        phi = gen.standard_normal(6) + 1j * gen.standard_normal(6)
        phi = phi / np.linalg.norm(phi)
        err = np.linalg.norm(phi - sphere_approx(phi, model))
        dist = np.linalg.norm(phi - model.project(phi))
        if err > 4.0 * dist + 1e-12:
            ok_factor = False
        if dist > 1e-12:
            worst_factor = max(worst_factor, err / dist)
    ok = ok_sep and ok_size and ok_factor
    assert record(
        "criterion 7 net separation, size bound, factor-4 approximation",
        ok, f"worst approximation factor = {worst_factor:.3f}"
    )


def test_criterion_08_prior_mass():
    root = SeededRng(108)
    families = []
    model4 = SubspaceModel(np.eye(4, dtype=complex), id=0)
    model4b = SubspaceModel(np.eye(4, dtype=complex)[:, :2], id=1)
    families.append(build_candidates([model4], {0: 1.0}, 5,
                                     CandidateCaps(1, 3, 30), root.split(0),
                                     pool_size=64))
    families.append(build_candidates([model4], {0: 1.0}, 20,
                                     CandidateCaps(2, 4, 120), root.split(1),
                                     pool_size=128))
    families.append(build_candidates([model4, model4b], {0: 0.5, 1: 0.5}, 9,
                                     CandidateCaps(2, 3, 80), root.split(2),
                                     pool_size=64))
    anchor = haar_orthonormal(8, 2, root.split(3))
    model8 = SubspaceModel(np.eye(8, dtype=complex), id=0)
    families.append(build_candidates([model8], {0: 1.0}, 100,
                                     CandidateCaps(2, 4, 40), root.split(4),
                                     pool_size=64, anchor=anchor,
                                     anchor_jitter=1))
    worst = max(f.prior_mass() for f in families)
    ok = worst <= 1.0 + 1e-12
    assert record(
        "criterion 8 candidate prior is a sub-probability",
        ok, f"max total prior = {worst:.15f}"
    )


def test_criterion_09_selection_sanity():
    # part 1: truth against a single competitor at Hellinger distance 0.8
    theta = math.asin(0.8)
    truth_cols = np.eye(6, 2, dtype=complex)
    other_cols = np.zeros((6, 2), dtype=complex)
    other_cols[0, 0] = other_cols[1, 1] = math.cos(theta)
    other_cols[2, 0] = other_cols[3, 1] = math.sin(theta)
    truth_fam = OrthonormalFamily(truth_cols)
    other_fam = OrthonormalFamily(other_cols)
    spec = Spectrum.ones(2)
    entries = [
        CandidateEntry((1, (0,), (0,), 0), truth_fam, spec, 0.5),
        CandidateEntry((1, (0,), (1,), 0), other_fam, spec, 0.5),
    ]
    family = CandidateFamily(entries, False, {0: 2})
    h2, _ = hellinger(entries[0].table(), entries[1].table())
    separation_ok = abs(math.sqrt(h2) - 0.8) < 1e-9
    root = SeededRng(109)
    wins = 0
    for i in range(500):
        samples = sample_table(entries[0].table(), 200, root.split(i))
        if select(family, samples).chosen_index == 0:
            wins += 1
    part1 = separation_ok and wins >= 475

    # part 2: selected-to-truth distance shrinks with n in the rank-k
    # risk-curve setting
    cfg = RiskCurveConfig(n_grid=(100, 1000), replications=200, seed=109)
    result = run_risk_curve(cfg)
    med = result.medians()
    part2 = med[1000] <= med[100]

    ok = part1 and part2
    assert record(
        "criterion 9 selection sanity (truth wins at h = 0.8; median shrinks)",
        ok, f"truth wins {wins}/500, medians {med[100]:.2e} -> {med[1000]:.2e}"
    )


def test_criterion_10_risk_curve_shadow():
    start = time.time()
    result = run_risk_curve(RiskCurveConfig(seed=110))
    elapsed = time.time() - start
    normalized = [row.normalized for row in result.rows]
    factor = max(normalized) / min(normalized)
    ok = factor <= 10.0 and -1.5 <= result.slope <= -0.5 and elapsed < 1800.0
    assert record(
        "criterion 10 normalized risk curve (factor <= 10, slope in [-1.5,-0.5])",
        ok, f"factor = {factor:.2f}, slope = {result.slope:.3f}, {elapsed:.1f}s"
    )


def test_criterion_11_cli_determinism(tmp_path):
    params = params_to_dict(haar_orthonormal(5, 2, SeededRng(111)),
                            Spectrum(np.array([0.9, 0.6])))
    basis = [[float(x), 0.0] for x in np.eye(5).reshape(-1)]
    runs = [
        ("sample", {"params": params, "n": 50, "seed": 1}, ["draws.csv"]),
        ("density", {"params": params}, ["table.csv"]),
        ("hellinger", {"params_a": params, "params_b": params}, ["h.csv"]),
        ("bounds-sweep", {"instances": 15, "seed": 2},
         ["sweep.csv", "sweep.csv.meta.json"]),
        ("isometry-sweep", {"instances": 15, "seed": 3},
         ["iso.csv", "iso.csv.meta.json"]),
        ("estimate", {
            "models": [{"id": 0, "p": 5, "dim": 5, "basis": basis,
                        "prior": 1.0}],
            "n": 40,
            "caps": {"j_max": 1, "per_net": 4, "family_max": 15},
            "pool_size": 32, "seed": 4, "truth": params,
        }, ["est.json", "est.json.tests.csv"]),
        ("risk-curve", {"p": 6, "k": 2, "n_grid": [30, 60],
                        "replications": 3, "caps": [2, 4, 12],
                        "pool_size": 32, "seed": 5},
         ["risk.csv", "risk.csv.meta.json"]),
    ]
    ok = True
    for command, config, outputs in runs:
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(config))
        snapshots = []
        for attempt in ("first", "second"):
            workdir = tmp_path / f"{command}-{attempt}"
            workdir.mkdir()
            out = workdir / outputs[0]
            code = cli_main([command, "--config", str(cfg_path),
                             "--out", str(out)])
            if code == 2:
                ok = False
            snapshots.append([
                (workdir / name).read_bytes() for name in outputs
            ])
        if snapshots[0] != snapshots[1]:
            ok = False
    assert record(
        "criterion 11 CLI reruns are byte-identical",
        ok, f"{len(runs)} subcommands checked"
    )
