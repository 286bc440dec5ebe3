"""Self-tests of the benchmark: span arithmetic and planted output faults.

    PYTHONPATH=src python3 -m pytest -q bench

Each output check must reject a planted fault in output the CLI really
produced at a small size.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import detproc.cli  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    BoundsSweep,
    CheckError,
    SampleSeq,
    TableLarge,
)


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("a", 6.0, 7.0, 3),
        ("c", 6.5, 8.0, 3),  # overlaps its sibling: covered time counts once
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10 - 3 - 4)
    assert got["a"] == pytest.approx((3 - 1) + 1)
    assert got["leaf"] == pytest.approx(1)
    assert got["b"] == pytest.approx(4 - 2)
    assert got["c"] == pytest.approx(1.5)


def test_tracer_wraps_every_binding_and_restores_them():
    import detproc.core
    import detproc.estimator
    original = detproc.core.density_table
    tracer = Tracer()
    tracer.install()
    try:
        assert detproc.estimator.density_table is not original
        assert detproc.cli.density_table is detproc.core.density_table
    finally:
        tracer.uninstall()
    assert detproc.estimator.density_table is original
    assert detproc.cli.density_table is original


def _run_cli(workload, seed, tmp_path):
    cfg = workload.config(seed)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert detproc.cli.main([workload.command, "--config", str(cfg_path),
                             "--out", str(out)]) == 0
    return out, workload.reference(cfg)


def _replace_column(path, column, edit):
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    edit(rows, column)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def test_complement_route_matches_the_production_table(tmp_path):
    workload = TableLarge(p=6, rank=3)
    out, (exact, _) = _run_cli(workload, 3, tmp_path)
    probs = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
    assert np.max(np.abs(probs - exact)) < 1e-14


def test_table_check_rejects_a_perturbed_entry(tmp_path):
    workload = TableLarge(p=6, rank=3)
    out, reference = _run_cli(workload, 3, tmp_path)
    workload.check(out, reference)

    def shift_mass(rows, column):  # keeps the total at 1
        for index, delta in ((5, 1e-9), (6, -1e-9)):
            rows[index][column] = repr(float(rows[index][column]) + delta)

    _replace_column(out, 1, shift_mass)
    with pytest.raises(CheckError, match="complement route"):
        workload.check(out, reference)


def test_sample_check_rejects_an_out_of_range_mask(tmp_path):
    workload = SampleSeq(p=6, rank=3, draws=2000)
    out, reference = _run_cli(workload, 4, tmp_path)
    workload.check(out, reference)

    def out_of_range(rows, column):
        rows[17][column] = str(1 << 6)

    _replace_column(out, 1, out_of_range)
    with pytest.raises(CheckError, match="outside"):
        workload.check(out, reference)


def test_sample_check_rejects_draws_from_the_wrong_law(tmp_path):
    workload = SampleSeq(p=6, rank=3, draws=2000)
    out, reference = _run_cli(workload, 4, tmp_path)

    def most_likely_cell(rows, column):
        for row in rows[::4]:
            row[column] = str(int(np.argmax(reference)))

    _replace_column(out, 1, most_likely_cell)
    with pytest.raises(CheckError, match="chi-square"):
        workload.check(out, reference)


def test_sweep_check_rejects_a_nonzero_violation_count(tmp_path):
    workload = BoundsSweep(instances=5)
    out, reference = _run_cli(workload, 5, tmp_path)
    workload.check(out, reference)
    meta_path = Path(f"{out}.meta.json")
    meta = json.loads(meta_path.read_text())
    meta["violations"] = 1
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(CheckError, match="violations"):
        workload.check(out, reference)

