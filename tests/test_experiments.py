import importlib
import json
import math

import numpy as np
import pytest

from detproc import core, experiments
from detproc.core import DppDensity, density_table, haar_orthonormal, random_spectrum
from detproc.estimator import CandidateCaps
from detproc.experiments import (
    SWEEP_HEADER,
    BoundsSweepConfig,
    IsometrySweepConfig,
    RiskCurveConfig,
    SamplerCheckConfig,
    risk_rows_for_csv,
    run_bounds_sweep,
    run_isometry_sweep,
    run_risk_curve,
    run_sampler_check,
    write_metadata,
    write_rows_csv,
)
from detproc.hellinger import (
    BoundReport,
    check_bound_dpp,
    check_bound_mixture,
    check_bound_projection,
    gplus_delta,
)
from detproc.rng import SeededRng


def test_bounds_sweep_small_corpus_clean():
    rows, violations = run_bounds_sweep(BoundsSweepConfig(instances=40, seed=0))
    assert violations == 0
    # seven inequality rows per instance
    assert len(rows) == 40 * 7
    labels = {row[1] for row in rows}
    assert labels == {"proj_exact", "proj_gram", "proj_l2", "mixture",
                      "dpp_main", "dpp_weights", "dpp_components"}


def test_bounds_sweep_deterministic():
    a = run_bounds_sweep(BoundsSweepConfig(instances=10, seed=5))
    b = run_bounds_sweep(BoundsSweepConfig(instances=10, seed=5))
    assert a == b


def test_isometry_sweep_small_corpus_clean():
    rows, violations = run_isometry_sweep(IsometrySweepConfig(instances=40, seed=1))
    assert violations == 0
    for _, _, delta2, two_h2, gap in rows:
        assert gap <= 1e-9
        assert delta2 == pytest.approx(two_h2, abs=1e-9)


def test_isometry_sweep_rows_agree_with_their_gap():
    # each row writes the 2 h^2 its gap was computed from, clipped at 0
    rows, violations = run_isometry_sweep(IsometrySweepConfig())
    assert violations == 0
    assert [i for i, _, delta2, two_h2, gap in rows
            if not (two_h2 >= 0.0 and gap == abs(delta2 - two_h2))] == []


def test_bounds_sweep_exact_projection_h2_is_never_negative():
    rows, violations = run_bounds_sweep(BoundsSweepConfig())
    assert violations == 0
    assert [row[0] for row in rows if row[1] == "proj_exact" and not row[3] >= 0.0] == []


def test_bounds_sweep_counts_nan_slack_as_violation(monkeypatch):
    nan_report = BoundReport(math.nan, 1.0, "mixture bound")
    monkeypatch.setattr(experiments, "check_bound_mixture",
                        lambda *args: nan_report)
    rows, violations = run_bounds_sweep(BoundsSweepConfig(instances=1, seed=0))
    assert violations == 1
    assert [row[1] for row in rows if math.isnan(row[4])] == ["mixture"]


def test_isometry_sweep_counts_nan_gap_as_violation(monkeypatch):
    monkeypatch.setattr(experiments, "gplus_delta", lambda fam_a, fam_b, k: (0.0, math.nan))
    rows, violations = run_isometry_sweep(IsometrySweepConfig(instances=1, seed=0))
    assert violations == 1
    assert math.isnan(rows[0][4])


def reference_bounds_sweep(cfg):
    """The per-instance bounds sweep: instance i draws every input from
    root.split(i) where it needs it, each Haar family by its own
    haar_orthonormal call."""
    root = SeededRng(cfg.seed)
    rows = []
    violations = 0
    for i in range(cfg.instances):
        rng = root.split(i)
        gen = rng.generator
        p = int(gen.integers(2, cfg.p_max + 1))
        k = int(gen.integers(1, min(cfg.rank_max, p) + 1))
        fam_a = haar_orthonormal(p, k, rng)
        fam_b = haar_orthonormal(p, k, rng)
        active = tuple(range(1, k + 1))
        labels = ["proj_exact", "proj_gram", "proj_l2"]
        for label, rep in zip(labels, check_bound_projection(fam_a, fam_b, active)):
            rows.append((i, label, rep.lhs, rep.rhs, rep.slack))
            violations += not rep.holds
        weights_p = gen.dirichlet(np.ones(2))
        weights_q = gen.dirichlet(np.ones(2))
        tabs_p, tabs_q = [], []
        for t in range(2):
            r = int(gen.integers(1, 3))
            tabs_p.append(density_table(DppDensity(
                haar_orthonormal(4, r, rng), random_spectrum(r, rng))))
            r = int(gen.integers(1, 3))
            tabs_q.append(density_table(DppDensity(
                haar_orthonormal(4, r, rng), random_spectrum(r, rng))))
        rep = check_bound_mixture(weights_p, weights_q, tabs_p, tabs_q)
        rows.append((i, "mixture", rep.lhs, rep.rhs, rep.slack))
        violations += not rep.holds
        p = int(gen.integers(2, cfg.p_max + 1))
        r = int(gen.integers(1, min(cfg.rank_max, p) + 1))
        fam_a = haar_orthonormal(p, r, rng)
        fam_b = haar_orthonormal(p, r, rng)
        lam = random_spectrum(r, rng)
        gam = random_spectrum(r, rng)
        labels = ["dpp_main", "dpp_weights", "dpp_components"]
        for label, rep in zip(labels, check_bound_dpp(fam_a, lam, fam_b, gam)):
            rows.append((i, label, rep.lhs, rep.rhs, rep.slack))
            violations += not rep.holds
    return rows, violations


def reference_isometry_sweep(cfg):
    """The per-instance isometry sweep, as reference_bounds_sweep."""
    root = SeededRng(cfg.seed)
    rows = []
    violations = 0
    for i in range(cfg.instances):
        rng = root.split(i)
        gen = rng.generator
        p = int(gen.integers(2, cfg.p_max + 1))
        k = int(gen.integers(1, min(cfg.k_max, p) + 1))
        fam_a = haar_orthonormal(p, k, rng)
        fam_b = haar_orthonormal(p, k, rng)
        delta2, h2 = gplus_delta(fam_a, fam_b, k)
        gap = abs(delta2 - 2.0 * h2)
        rows.append((i, "isometry", delta2, 2.0 * h2, gap))
        if not gap <= experiments.GAP_TOL:
            violations += 1
    return rows, violations


SWEEPS = [
    (run_bounds_sweep, reference_bounds_sweep,
     lambda n: BoundsSweepConfig(instances=n, seed=4)),
    (run_isometry_sweep, reference_isometry_sweep,
     lambda n: IsometrySweepConfig(instances=n, seed=6)),
]


@pytest.mark.parametrize("run, reference, config", SWEEPS,
                         ids=["bounds", "isometry"])
@pytest.mark.parametrize("instances", [1, 63, 64, 65, 130])
def test_blocked_sweep_matches_per_instance_loop(run, reference, config,
                                                 instances):
    cfg = config(instances)
    assert run(cfg) == reference(cfg)


@pytest.mark.parametrize("run, reference, config", SWEEPS,
                         ids=["bounds", "isometry"])
@pytest.mark.parametrize("block", [1, 7])
def test_blocked_sweep_matches_per_instance_loop_at_any_block(
        monkeypatch, run, reference, config, block):
    monkeypatch.setattr(experiments, "_SWEEP_BLOCK", block)
    for instances in (1, 7, 20):
        cfg = config(instances)
        assert run(cfg) == reference(cfg)


@pytest.mark.parametrize("run, reference, config", SWEEPS,
                         ids=["bounds", "isometry"])
def test_blocked_sweep_counts_violations_as_per_instance_loop(
        monkeypatch, run, reference, config):
    # tolerances below the rounding noise make some rows fail, so the
    # counts compared are not all 0
    # (detproc.hellinger the name is the function, hence import_module)
    monkeypatch.setattr(importlib.import_module("detproc.hellinger"),
                        "SLACK_TOL", -1e-3)
    monkeypatch.setattr(experiments, "GAP_TOL", 0.0)
    cfg = config(70)
    rows, violations = run(cfg)
    assert 0 < violations < len(rows)
    assert (rows, violations) == reference(cfg)


@pytest.mark.parametrize("run, config, draw, top_only", [
    (run_bounds_sweep, lambda n: BoundsSweepConfig(instances=n, seed=4),
     experiments._draw_bounds_instance, False),
    (run_isometry_sweep, lambda n: IsometrySweepConfig(instances=n, seed=6),
     experiments._draw_isometry_instance, True),
], ids=["bounds", "isometry"])
def test_sweep_fills_each_block_with_one_kernel_call_per_shape_and_size(
        monkeypatch, run, config, draw, top_only):
    # each block's families are one stack per shape: a minor size is
    # computed once per (block, p, r, k), for every family of that shape
    # in the block, when a check first reads it; the isometry sweep reads
    # only k = r, the one size gplus_delta reads
    monkeypatch.setattr(experiments, "_SWEEP_BLOCK", 16)
    blocks = []  # the shapes of each block's families, in order
    many = experiments.haar_orthonormal_many
    monkeypatch.setattr(experiments, "haar_orthonormal_many", lambda gaussians: (
        blocks.append([g.shape for g in gaussians]) or many(gaussians)))
    fills = []  # (block, p, r, k, families) of each fill
    fill = core._fill_minors

    def recording(columns, stores, k):
        fills.append((len(blocks) - 1, *columns[0].shape, k, len(columns)))
        fill(columns, stores, k)

    monkeypatch.setattr(core, "_fill_minors", recording)
    kernel = []
    real = core.abs_det_many
    monkeypatch.setattr(core, "abs_det_many",
                        lambda stack: kernel.append(stack.shape) or real(stack))
    cfg = config(40)
    root = SeededRng(cfg.seed)
    run(cfg)
    assert blocks == [[g.shape for i in range(start, min(start + 16, 40))
                       for g in draw(cfg, root.split(i))[0]]
                      for start in range(0, 40, 16)]
    keys = [fill[:4] for fill in fills]
    assert len(set(keys)) == len(keys)
    for block, p, r, k, families in fills:
        assert families == blocks[block].count((p, r))
        assert k == r or not top_only
    assert len(kernel) == sum(k > 0 for _, _, _, k, _ in fills)
    if top_only:
        assert set(keys) == {(block, p, r, r) for block, shapes in enumerate(blocks)
                             for p, r in shapes}


def test_sampler_check_small():
    cfg = SamplerCheckConfig(draws=20_000, settings=1, tv_limit=0.05, seed=2)
    rows, failures = run_sampler_check(cfg)
    assert failures == 0
    assert len(rows) == 3


def test_sampler_check_nan_is_a_failure(monkeypatch):
    monkeypatch.setattr(experiments, "total_variation", lambda *_: math.nan)
    cfg = SamplerCheckConfig(p=4, rank=2, draws=500, settings=2, seed=2)
    rows, failures = run_sampler_check(cfg)
    assert failures == cfg.settings
    assert sum(math.isnan(row[2]) for row in rows) == 2 * cfg.settings


@pytest.mark.parametrize("kwargs,key", [
    ({"settings": 0}, "settings"),
    ({"draws": 0}, "draws"),
    ({"rank": 7, "p": 6}, "rank"),
    ({"rank": 0}, "rank"),
    ({"p": 21, "rank": 3}, "p"),
    ({"tv_limit": math.nan}, "tv_limit"),
    ({"tv_limit": 0.0}, "tv_limit"),
    ({"tv_limit": 1.5}, "tv_limit"),
], ids=["settings", "draws", "rank-above-p", "rank-zero", "p-above-cap",
        "tv-nan", "tv-zero", "tv-above-one"])
def test_sampler_check_config_validation(kwargs, key):
    # settings=0 once returned ([], 0): a pass with nothing checked
    with pytest.raises(ValueError, match=key):
        SamplerCheckConfig(**kwargs)


def test_chi2_two_sample_exact_at_two_degrees_of_freedom():
    # the empty last cell is dropped, leaving 3 cells and dof = 2, where the
    # chi-square survival function is exp(-stat / 2). Both samples have 60
    # draws, so each expected count is (15, 20, 25) and
    # stat = 2 * (5^2 / 15 + 0 + 5^2 / 25) = 16 / 3.
    pval = experiments._chi2_two_sample([10, 20, 30, 0], [20, 20, 20, 0])
    assert pval == pytest.approx(math.exp(-8.0 / 3.0), rel=1e-12, abs=0.0)


def test_chi2_two_sample_single_cell_is_one():
    assert experiments._chi2_two_sample([5, 0], [7, 0]) == 1.0


def test_risk_curve_config_validation():
    with pytest.raises(ValueError):
        RiskCurveConfig(n_grid=(100, 100))
    with pytest.raises(ValueError, match="at least 2"):
        RiskCurveConfig(n_grid=(10,))
    with pytest.raises(ValueError):
        RiskCurveConfig(replications=0)
    with pytest.raises(ValueError):
        RiskCurveConfig(p=2, k=2)
    with pytest.raises(ValueError, match=r"p must be in \[2, 20\], got 21"):
        RiskCurveConfig(p=21)
    with pytest.raises(ValueError, match=">= 2"):
        RiskCurveConfig(n_grid=(1, 10))
    with pytest.raises(ValueError, match="caps must be"):
        RiskCurveConfig(caps=(2, 4))
    # j_max < k: every candidate misses the truth's rank, h^2 = 1 throughout
    with pytest.raises(ValueError, match="j_max=1 is below k=2"):
        RiskCurveConfig(k=2, caps=(1, 4, 12))
    RiskCurveConfig(k=2, caps=(2, 4, 12))


@pytest.mark.parametrize("config, kwargs, message", [
    # each once ran: True as 1, 1.5 as 1 (or as a rank range up to 1.5)
    pytest.param(RiskCurveConfig, {"replications": True},
                 "replications must be an integer", id="risk-replications-bool"),
    pytest.param(RiskCurveConfig, {"seed": True}, "seed must be an integer",
                 id="risk-seed-bool"),
    pytest.param(RiskCurveConfig, {"pool_size": True}, "pool_size must be an integer",
                 id="risk-pool_size-bool"),
    pytest.param(RiskCurveConfig, {"anchor_jitter": True},
                 "anchor_jitter must be an integer", id="risk-anchor_jitter-bool"),
    pytest.param(RiskCurveConfig, {"caps": (2, 4.5, 40)},
                 "per_net must be an integer, got 4.5", id="risk-caps-fraction"),
    pytest.param(BoundsSweepConfig, {"instances": True}, "instances must be an integer",
                 id="bounds-instances-bool"),
    pytest.param(BoundsSweepConfig, {"rank_max": 1.5}, "rank_max must be an integer",
                 id="bounds-rank_max-fraction"),
    pytest.param(BoundsSweepConfig, {"seed": 1.5}, "seed must be an integer",
                 id="bounds-seed-fraction"),
    pytest.param(IsometrySweepConfig, {"k_max": True}, "k_max must be an integer",
                 id="isometry-k_max-bool"),
    pytest.param(SamplerCheckConfig, {"draws": 2.5}, "draws must be an integer",
                 id="sampler-draws-fraction"),
    pytest.param(CandidateCaps, {"j_max": True, "per_net": 2, "family_max": 3},
                 "j_max must be an integer", id="caps-j_max-bool"),
    # True once ran as a limit of 1, which turns the TV check off; a string
    # raised a TypeError naming no key
    pytest.param(SamplerCheckConfig, {"tv_limit": True}, "tv_limit must be a number",
                 id="sampler-tv_limit-bool"),
    pytest.param(SamplerCheckConfig, {"tv_limit": "0.05"}, "tv_limit must be a number",
                 id="sampler-tv_limit-string"),
])
def test_library_configs_refuse_booleans_and_fractions(config, kwargs, message):
    with pytest.raises(ValueError, match=message):
        config(**kwargs)


def test_library_configs_take_integral_floats_as_ints():
    sweep = BoundsSweepConfig(instances=5.0, rank_max=np.int64(2), seed=3.0)
    assert (sweep.instances, sweep.rank_max, sweep.seed) == (5, 2, 3)
    assert all(type(v) is int for v in vars(sweep).values())
    assert CandidateCaps(2.0, 4, 40.0) == CandidateCaps(2, 4, 40)
    assert RiskCurveConfig(caps=(2.0, 4, 40)).caps == (2, 4, 40)


def test_risk_curve_config_refuses_fractional_n_grid():
    # (100.7, 300.2) was once run as (100, 300)
    with pytest.raises(ValueError, match="n_grid"):
        RiskCurveConfig(n_grid=(100.7, 300.2))
    assert RiskCurveConfig(n_grid=(100.0, 300)).n_grid == (100, 300)


def test_risk_curve_tiny_run():
    cfg = RiskCurveConfig(p=6, k=2, n_grid=(30, 60), replications=4,
                          caps=(2, 4, 12), pool_size=32, seed=3)
    result = run_risk_curve(cfg)
    assert len(result.rows) == 2
    for row in result.rows:
        assert row.empirical_mean_h2 >= 0.0
        assert math.isfinite(row.oracle_bound) and row.oracle_bound > 0.0
        assert math.isfinite(row.normalized) and row.normalized >= 0.0
    assert set(result.per_rep_h2) == {30, 60}
    assert all(len(v) == 4 for v in result.per_rep_h2.values())


def test_risk_curve_deterministic():
    cfg = RiskCurveConfig(p=6, k=2, n_grid=(30, 60), replications=3,
                          caps=(2, 4, 12), pool_size=32, seed=4)
    a = run_risk_curve(cfg)
    b = run_risk_curve(cfg)
    assert a.per_rep_h2 == b.per_rep_h2
    assert risk_rows_for_csv(a) == risk_rows_for_csv(b)


@pytest.mark.parametrize("means,fitted", [
    ({100: 0.0, 300: 0.01, 1000: 0.003, 3000: 0.001}, [300, 1000, 3000]),
    ({100: 0.02, 300: 0.01, 1000: 0.0, 3000: 0.001}, [100, 300, 3000]),
    ({100: 0.02, 300: 0.01, 1000: 0.003, 3000: 0.001}, [100, 300, 1000, 3000]),
])
def test_risk_curve_fits_slope_over_positive_means(monkeypatch, means, fitted):
    monkeypatch.setattr(experiments, "_risk_replication",
                        lambda cfg, n, stream, model, caps: means[n])
    result = run_risk_curve(RiskCurveConfig(replications=2))
    assert [r.n for r in result.positive_rows()] == fitted
    want = np.polyfit(np.log(np.array(fitted, dtype=float)),
                      np.log(np.array([means[n] for n in fitted])), 1)[0]
    assert result.slope == want


@pytest.mark.parametrize("means", [
    {100: 0.0, 300: 0.0, 1000: 0.0, 3000: 0.001},
    {100: math.nan, 300: 0.01, 1000: 0.003, 3000: 0.001},
    {100: -1e-17, 300: 0.01, 1000: 0.003, 3000: 0.001},
])
def test_risk_curve_slope_nan_without_two_positive_means_or_on_bad_means(
        monkeypatch, means):
    monkeypatch.setattr(experiments, "_risk_replication",
                        lambda cfg, n, stream, model, caps: means[n])
    assert math.isnan(run_risk_curve(RiskCurveConfig(replications=1)).slope)


def test_write_rows_csv_format(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows_csv(path, SWEEP_HEADER, [(0, "x", 0.25, 0.5, 0.25)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert lines[1] == "0,x,0.25,0.5,0.25"


def test_write_metadata_includes_version(tmp_path):
    path = tmp_path / "meta.json"
    write_metadata(path, {"seed": 1}, {"violations": 0})
    data = json.loads(path.read_text())
    assert data["config"] == {"seed": 1}
    assert data["violations"] == 0
    assert "library_version" in data


@pytest.mark.parametrize("run, config", [
    (run_bounds_sweep, BoundsSweepConfig(instances=2, seed=-4)),
    (run_isometry_sweep, IsometrySweepConfig(instances=2, seed=-3)),
    (run_risk_curve, RiskCurveConfig(p=4, k=1, n_grid=[30, 60], replications=1,
                                     caps=[1, 2, 4], pool_size=8, seed=-2)),
])
def test_negative_seed_is_named_when_the_run_starts(run, config):
    # once numpy's "expected non-negative integer", naming no key
    with pytest.raises(ValueError, match=rf"^seed must be >= 0, got {config.seed}$"):
        run(config)
