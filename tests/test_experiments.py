import json
import math

import numpy as np
import pytest

from detproc import experiments
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
from detproc.hellinger import BoundReport


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


def test_bounds_sweep_counts_nan_slack_as_violation(monkeypatch):
    nan_report = BoundReport(math.nan, 1.0, "mixture bound")
    monkeypatch.setattr(experiments, "check_bound_mixture",
                        lambda *args: nan_report)
    rows, violations = run_bounds_sweep(BoundsSweepConfig(instances=1, seed=0))
    assert violations == 1
    assert [row[1] for row in rows if math.isnan(row[4])] == ["mixture"]


def test_isometry_sweep_counts_nan_gap_as_violation(monkeypatch):
    monkeypatch.setattr(experiments, "gplus_delta", lambda wa, wb: (0.0, math.nan))
    rows, violations = run_isometry_sweep(IsometrySweepConfig(instances=1, seed=0))
    assert violations == 1
    assert math.isnan(rows[0][4])


def test_sampler_check_small():
    cfg = SamplerCheckConfig(draws=20_000, settings=1, tv_limit=0.05, seed=2)
    rows, failures = run_sampler_check(cfg)
    assert failures == 0
    assert len(rows) == 3


def test_risk_curve_config_validation():
    with pytest.raises(ValueError):
        RiskCurveConfig(n_grid=(100, 100))
    with pytest.raises(ValueError, match="at least 2"):
        RiskCurveConfig(n_grid=(10,))
    with pytest.raises(ValueError):
        RiskCurveConfig(replications=0)
    with pytest.raises(ValueError):
        RiskCurveConfig(p=2, k=2)
    with pytest.raises(ValueError, match="p <= 20"):
        RiskCurveConfig(p=21)
    with pytest.raises(ValueError, match=">= 2"):
        RiskCurveConfig(n_grid=(1, 10))
    with pytest.raises(ValueError, match="caps must be"):
        RiskCurveConfig(caps=(2, 4))
    # j_max < k: every candidate misses the truth's rank, h^2 = 1 throughout
    with pytest.raises(ValueError, match="j_max=1 is below k=2"):
        RiskCurveConfig(k=2, caps=(1, 4, 12))
    RiskCurveConfig(k=2, caps=(2, 4, 12))


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
                        lambda cfg, n, stream: means[n])
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
                        lambda cfg, n, stream: means[n])
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
