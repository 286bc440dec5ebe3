import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from detproc import cli, estimator, experiments
from detproc.cli import main
from detproc.core import haar_orthonormal, params_to_dict, Spectrum
from detproc.estimator import CandidateCaps
from detproc.experiments import (
    BoundsSweepConfig,
    IsometrySweepConfig,
    RiskCurveConfig,
    RiskCurveResult,
    RiskCurveRow,
)
from detproc.rng import SeededRng


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def diag_params():
    return {
        "p": 2,
        "phi": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
        "lambda": [math.sqrt(0.5), math.sqrt(0.2)],
    }


def estimate_dict(seed=7):
    truth = params_to_dict(haar_orthonormal(4, 1, SeededRng(seed)),
                           Spectrum.ones(1))
    basis = [[float(x), 0.0] for x in np.eye(4).reshape(-1)]
    return {
        "models": [{"id": 0, "p": 4, "dim": 4, "basis": basis, "prior": 1.0}],
        "n": 40,
        "caps": {"j_max": 1, "per_net": 4, "family_max": 20},
        "pool_size": 32,
        "seed": seed,
        "truth": truth,
        "anchor": truth,
    }


def params_config(command, params):
    """A sample or density config holding the parameter set params."""
    return {"params": params, "n": 3} if command == "sample" else {"params": params}


def random_params(seed, p=4, r=2):
    rng = SeededRng(seed)
    fam = haar_orthonormal(p, r, rng.split(0))
    spec = Spectrum(rng.split(1).generator.uniform(0, 0.9, r))
    return params_to_dict(fam, spec)


# ---------------------------------------------------------------------------
# usage errors (exit code 2)

def test_unknown_command_exits_2():
    assert main(["frobnicate"]) == 2


def test_missing_config_exits_2(tmp_path):
    assert main(["sample", "--out", str(tmp_path / "o.csv")]) == 2


def test_bad_json_config_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["sample", "--config", str(path),
                 "--out", str(tmp_path / "o.csv")]) == 2


def test_missing_out_exits_2(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"params": diag_params(), "n": 3})
    assert main(["sample", "--config", cfg]) == 2


def test_estimate_unknown_statistic_exits_2(tmp_path, capsys):
    # test_statistic had one accepted value, "signed-root", and is no key now:
    # naming it exits 2 as any unknown key does, whatever its value
    out = tmp_path / "o.json"
    for value in ["signed-root", "wald"]:
        path = write_config(tmp_path, "c.json",
                            {**estimate_dict(), "test_statistic": value})
        err = assert_usage_error(capsys, ["estimate", "--config", path,
                                          "--out", str(out)])
        assert "unexpected keyword argument 'test_statistic'" in err
        assert not out.exists()


def assert_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["sample", "density"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_lambda_exits_2(tmp_path, capsys, command, bad):
    params = diag_params()
    params["lambda"] = [bad, 0.5]
    cfg = write_config(tmp_path, "c.json", params_config(command, params))
    out = tmp_path / "o.csv"
    assert_usage_error(capsys, [command, "--config", cfg, "--out", str(out)])
    assert not out.exists()


def test_non_finite_phi_exits_2(tmp_path, capsys):
    params = diag_params()
    params["phi"][0] = [math.nan, 0.0]
    cfg = write_config(tmp_path, "c.json", {"params": params})
    assert_usage_error(capsys, ["density", "--config", cfg,
                                "--out", str(tmp_path / "o.csv")])


@pytest.mark.parametrize("field,value", [("phi", 5), ("n", None)])
def test_wrongly_typed_config_value_exits_2(tmp_path, capsys, field, value):
    cfg = {"params": diag_params(), "n": 3}
    if field == "n":
        cfg["n"] = value
    else:
        cfg["params"][field] = value
    path = write_config(tmp_path, "c.json", cfg)
    assert_usage_error(capsys, ["sample", "--config", path,
                                "--out", str(tmp_path / "o.csv")])


def test_unwritable_out_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"params": diag_params(), "n": 3})
    out = tmp_path / "no_such_dir" / "x.csv"
    assert_usage_error(capsys, ["sample", "--config", cfg, "--out", str(out)])


@pytest.mark.parametrize("p", [64, 70])
def test_sample_beyond_int64_masks_exits_2(tmp_path, capsys, p):
    # all mass on point p, which no int64 bitmask can hold
    phi = [[0.0, 0.0]] * (p - 1) + [[1.0, 0.0]]
    cfg = write_config(tmp_path, "c.json",
                       {"params": {"p": p, "phi": phi, "lambda": [1.0]}, "n": 3})
    out = tmp_path / "o.csv"
    err = assert_usage_error(capsys, ["sample", "--config", cfg, "--out", str(out)])
    assert "int64" in err
    assert not out.exists()


def test_memory_error_exits_2(tmp_path, capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 7.3 TiB")

    monkeypatch.setattr(cli, "sample_dpp", exhausted)
    cfg = write_config(tmp_path, "c.json", {"params": diag_params(), "n": 10**12})
    err = assert_usage_error(capsys, ["sample", "--config", cfg,
                                      "--out", str(tmp_path / "o.csv")])
    assert "out of memory" in err and "7.3 TiB" in err


def full_config(command):
    """A fresh copy of the RUNNING_CONFIGS entry of command."""
    return json.loads(json.dumps(dict(RUNNING_CONFIGS)[command]))


@pytest.mark.parametrize("command, key", [
    # each once printed the bare key, e.g. "error: 'caps'"
    ("estimate", "caps"),
    ("density", "phi"),
    ("sample", "params"),
    ("hellinger", "params_b"),
])
def test_missing_config_key_is_named(tmp_path, capsys, command, key):
    cfg = full_config(command)
    cfg.pop(key, None)
    cfg.get("params", {}).pop(key, None)
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "o.out"
    err = assert_usage_error(capsys, [command, "--config", path, "--out", str(out)])
    if command == "density":
        # an entry of a parameter set is named by its path
        assert err == "error: config key 'params.phi' is missing\n"
    else:
        # a key of the command is one of its parameters
        assert f"missing 1 required keyword-only argument: '{key}'" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# sample / density / hellinger

def test_sample_writes_csv(tmp_path):
    cfg = write_config(tmp_path, "c.json",
                       {"params": diag_params(), "n": 5, "seed": 1})
    out = tmp_path / "draws.csv"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "draw_index,config_bitmask"
    assert len(lines) == 6


def test_sample_at_forty_points_keeps_rank_and_marginals(tmp_path):
    # p = 40 is past any table; with lambda = 1 every draw has r points and
    # point i is drawn with probability K_ii = |row i|^2. Bound set before
    # the run: 5 standard errors per point, so a false alarm on any of the
    # 40 points has probability below 40 * 5.7e-7 = 2.3e-5.
    p, r, n = 40, 4, 20_000
    fam = haar_orthonormal(p, r, SeededRng(40))
    cfg = write_config(tmp_path, "c.json", {
        "params": params_to_dict(fam, Spectrum.ones(r)), "n": n, "seed": 41})
    out = tmp_path / "draws.csv"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    masks = np.loadtxt(out, delimiter=",", skiprows=1, dtype=np.int64)[:, 1]
    assert masks.shape == (n,)
    points = (masks[:, None] >> np.arange(p)) & 1
    assert np.all(points.sum(axis=1) == r)
    k_diag = np.sum(np.abs(fam.columns) ** 2, axis=1)
    bound = 5 * np.sqrt(k_diag * (1 - k_diag) / n)
    assert np.all(np.abs(points.mean(axis=0) - k_diag) <= bound)


def test_density_matches_hand_values(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"params": diag_params()})
    out = tmp_path / "table.csv"
    assert main(["density", "--config", cfg, "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    values = {int(m): float(v) for m, v in (row.split(",") for row in rows)}
    assert values[0] == pytest.approx(0.4)
    assert values[1] == pytest.approx(0.4)
    assert values[2] == pytest.approx(0.1)
    assert values[3] == pytest.approx(0.1)


def test_hellinger_identical_params_is_zero(tmp_path):
    params = random_params(10)
    cfg = write_config(tmp_path, "c.json",
                       {"params_a": params, "params_b": params})
    out = tmp_path / "h.csv"
    assert main(["hellinger", "--config", cfg, "--out", str(out)]) == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "h2,affinity"
    h2, affinity = (float(x) for x in row.split(","))
    assert h2 == pytest.approx(0.0, abs=1e-9)
    assert affinity == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# sweeps

def test_bounds_sweep_cli(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"instances": 10, "seed": 3})
    out = tmp_path / "sweep.csv"
    assert main(["bounds-sweep", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == \
        "instance_id,inequality_id,lhs,rhs,slack"
    meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
    assert meta["violations"] == 0


def test_isometry_sweep_cli(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"instances": 10, "seed": 4})
    out = tmp_path / "iso.csv"
    assert main(["isometry-sweep", "--config", cfg, "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["bounds-sweep", "isometry-sweep"])
@pytest.mark.parametrize("instances", [0, -5])
def test_sweep_without_instances_exits_2(tmp_path, capsys, command, instances):
    # an empty sweep would report 0 violations without checking anything
    cfg = write_config(tmp_path, "c.json", {"instances": instances})
    out = tmp_path / "sweep.csv"
    err = assert_usage_error(capsys, [command, "--config", cfg, "--out", str(out)])
    assert "instances must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value, message", [
    ("bounds-sweep", "p_max", 1, "p_max must be in [2, 20], got 1"),
    ("bounds-sweep", "p_max", 30, "p_max must be in [2, 20], got 30"),
    ("bounds-sweep", "rank_max", 0, "rank_max must be >= 1, got 0"),
    ("isometry-sweep", "p_max", 1, "p_max must be in [2, 20], got 1"),
    ("isometry-sweep", "p_max", 10**6, "p_max must be in [2, 20], got 1000000"),
    ("isometry-sweep", "k_max", 0, "k_max must be >= 1, got 0"),
], ids=["bounds-p_max-1", "bounds-p_max-30", "bounds-rank_max-0",
        "isometry-p_max-1", "isometry-p_max-1000000", "isometry-k_max-0"])
def test_sweep_impossible_size_exits_2(tmp_path, capsys, command, key, value,
                                       message):
    # rejected before the first instance, with the key named
    cfg = write_config(tmp_path, "c.json", {"instances": 5, key: value})
    out = tmp_path / "sweep.csv"
    err = assert_usage_error(capsys, [command, "--config", cfg, "--out", str(out)])
    assert message in err
    assert not out.exists()


TINY_RISK_CURVE = {"p": 4, "k": 1, "n_grid": [30, 60], "replications": 1,
                   "caps": [1, 2, 4], "pool_size": 8}
# a config of each command that runs: every key it requires, and some of
# the keys it may be given
RUNNING_CONFIGS = [
    ("bounds-sweep", {"instances": 2}),
    ("isometry-sweep", {"instances": 2}),
    ("risk-curve", TINY_RISK_CURVE),
    ("sample", {"params": diag_params(), "n": 3}),
    ("density", {"params": diag_params()}),
    ("hellinger", {"params_a": diag_params(), "params_b": diag_params()}),
    ("estimate", estimate_dict()),
]


@pytest.mark.parametrize("command, config, key, value", [
    ("isometry-sweep", {}, "instances", 3.7),
    ("isometry-sweep", {"instances": 2}, "k_max", 2.5),
    ("bounds-sweep", {"instances": 2}, "rank_max", 1.5),
    ("isometry-sweep", {"instances": 2}, "seed", 1.5),
    ("risk-curve", TINY_RISK_CURVE, "n_grid", [100.7, 300]),
    ("risk-curve", TINY_RISK_CURVE, "replications", 1.2),
    ("risk-curve", TINY_RISK_CURVE, "caps", [1, 2.5, 4]),
    ("sample", {"params": diag_params()}, "n", 2.5),
    ("sample", {"params": diag_params()}, "n", True),  # once wrote one draw
    ("sample", {"params": diag_params()}, "n", "3"),  # once wrote three draws
    ("sample", {"params": diag_params(), "n": 2}, "seed", True),  # once ran
])
def test_fractional_integer_key_exits_2(tmp_path, capsys, command, config, key,
                                        value):
    # a fractional number is refused, not truncated; a boolean or a numeric
    # string is refused, not read as a number
    cfg = write_config(tmp_path, "c.json", {**config, key: value})
    out = tmp_path / "o.csv"
    err = assert_usage_error(capsys, [command, "--config", cfg, "--out", str(out)])
    # CandidateCaps names a caps entry by its field, here the second
    assert f"{'per_net' if key == 'caps' else key} must be an integer" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "density"])
@pytest.mark.parametrize("p", [2.7, math.nan, math.inf, "2", True])
def test_fractional_or_non_finite_p_exits_2(tmp_path, capsys, command, p):
    # "p": 2.7 or "2" with four phi entries once wrote a p = 2 table
    params = {**diag_params(), "p": p}
    cfg = write_config(tmp_path, "c.json", params_config(command, params))
    out = tmp_path / "o.csv"
    err = assert_usage_error(capsys, [command, "--config", cfg, "--out", str(out)])
    assert "p must be an integer" in err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("sample", "lambda", "0.5"),  # once read as 0.5
    ("density", "lambda", True),  # once read as 1.0
    ("density", "phi", [True, False]),  # once read as 1 + 0j
])
def test_non_number_params_entry_exits_2(tmp_path, capsys, command, key, value):
    # a boolean or a numeric string is refused, not read as a number
    params = diag_params()
    params[key][0] = value
    cfg = write_config(tmp_path, "c.json", params_config(command, params))
    out = tmp_path / "o.csv"
    err = assert_usage_error(capsys, [command, "--config", cfg, "--out", str(out)])
    assert f"{key} entries must be" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    # each once exited 2 with a Python message naming neither key nor entry
    ("phi", [[1.0, 0.0, 9.0]] + diag_params()["phi"][1:],
     "phi entries must be [re, im] pairs of numbers, got [1.0, 0.0, 9.0]"),
    ("phi", [[1.0]] + diag_params()["phi"][1:],
     "phi entries must be [re, im] pairs of numbers, got [1.0]"),
    ("phi", [1.0] + diag_params()["phi"][1:],
     "phi entries must be [re, im] pairs of numbers, got 1.0"),
    ("phi", 5, "phi must be a list of [re, im] pairs, got 5"),
    ("lambda", 0.8, "lambda must be a list of numbers, got 0.8"),
], ids=["three-numbers", "one-number", "bare-number", "phi-number",
        "lambda-number"])
def test_malformed_params_list_exits_2(tmp_path, capsys, key, value, message):
    params = {**diag_params(), key: value}
    cfg = write_config(tmp_path, "c.json", {"params": params})
    out = tmp_path / "o.csv"
    err = assert_usage_error(capsys, ["density", "--config", cfg, "--out", str(out)])
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("command, config, message", [
    # once "'int' object is not subscriptable"
    ("sample", {"params": 5, "n": 3},
     "params must be an object with the keys p, lambda, phi, got 5"),
    # once "list indices must be integers or slices, not str"
    ("hellinger", {"params_a": [1], "params_b": diag_params()},
     "params_a must be an object with the keys p, lambda, phi, got [1]"),
], ids=["sample-number", "hellinger-list"])
def test_params_not_an_object_exits_2(tmp_path, capsys, command, config, message):
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "o.csv"
    err = assert_usage_error(capsys, [command, "--config", cfg, "--out", str(out)])
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("config, message", [
    # each once printed the same text for params_a and params_b
    ({"params_b": {**diag_params(), "p": 2.5}},
     "params_b.p must be an integer, got 2.5"),
    ({"params_b": {**diag_params(), "lambda": [0.5, 1.5]}},
     "params_b: spectrum entries must be finite and lie in [0, 1]"),
    ({"params_b": {**diag_params(),
                   "phi": [[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}},
     "params_b: columns are not orthonormal (Gram deviation 1.000e+00)"),
    ({"params_b": {"p": 2, "lambda": [0.5, 0.5]}},
     "config key 'params_b.phi' is missing"),
], ids=["fractional-p", "spectrum", "not-orthonormal", "missing-phi"])
def test_params_entry_error_names_its_set(tmp_path, capsys, config, message):
    cfg = write_config(tmp_path, "c.json", {"params_a": diag_params(), **config})
    out = tmp_path / "o.csv"
    err = assert_usage_error(capsys, ["hellinger", "--config", cfg,
                                      "--out", str(out)])
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, config_class, values", [
    ("risk-curve", RiskCurveConfig, {"n_grid": 100}),
    ("risk-curve", RiskCurveConfig, {**TINY_RISK_CURVE, "caps": [1, 2.5, 4]}),
    ("bounds-sweep", BoundsSweepConfig, {"rank_max": 1.5}),
    ("bounds-sweep", BoundsSweepConfig, {"p_max": 30}),
    ("isometry-sweep", IsometrySweepConfig, {"k_max": True}),
    # once refused only inside the first replication
    ("risk-curve", RiskCurveConfig, {**TINY_RISK_CURVE, "caps": [2, 0, 40]}),
])
def test_cli_error_is_the_config_class_error(tmp_path, capsys, command,
                                             config_class, values):
    # the CLI passes the JSON values through; the class alone checks them
    with pytest.raises(ValueError) as raised:
        config_class(**values)
    cfg = write_config(tmp_path, "c.json", values)
    err = assert_usage_error(capsys, [command, "--config", cfg,
                                      "--out", str(tmp_path / "o.csv")])
    assert err == f"error: {raised.value}\n"


def assert_key_refused(tmp_path, capsys, command, config, key):
    cfg = write_config(tmp_path, "c.json", {**config, key: 1})
    out = tmp_path / "o.out"
    err = assert_usage_error(capsys, [command, "--config", cfg, "--out", str(out)])
    assert f"'{key}'" in err
    assert not list(tmp_path.glob("o.out*"))


@pytest.mark.parametrize("command, config", RUNNING_CONFIGS)
def test_unknown_config_key_exits_2(tmp_path, capsys, command, config):
    # a misspelt key was once dropped and the run went on with the default;
    # sample, density, hellinger and estimate dropped it until their keys
    # became their parameters
    assert_key_refused(tmp_path, capsys, command, config, "replication")


@pytest.mark.parametrize("command, config", RUNNING_CONFIGS)
def test_out_is_not_a_config_key(tmp_path, capsys, command, config):
    # the output path is the --out flag alone
    assert_key_refused(tmp_path, capsys, command, config, "out")


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_every_command_accepts_a_seed(tmp_path, command):
    cfg = full_config(command)
    outputs = []
    for name, config, flags in [("config", {**cfg, "seed": 3}, []),
                                ("flag", cfg, ["--seed", "3"])]:
        path = write_config(tmp_path, f"{name}.json", config)
        out = tmp_path / f"{name}.out"
        assert main([command, "--config", path, "--out", str(out)] + flags) in (0, 1)
        outputs.append(out.read_bytes())
    # --seed is written into the config, so both runs are one run
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command, config", [
    ("bounds-sweep", {"instances": 2, "seed": -4}),
    ("sample", {"params": diag_params(), "seed": -1}),
])
def test_negative_seed_exits_2_naming_it(tmp_path, capsys, command, config):
    # once numpy's "expected non-negative integer", which names no key
    cfg = write_config(tmp_path, "c.json", config)
    out = tmp_path / "o.csv"
    err = assert_usage_error(capsys, [command, "--config", cfg, "--out", str(out)])
    assert err == f"error: seed must be >= 0, got {config['seed']}\n"
    assert not out.exists()


def test_negative_seed_flag_exits_2_naming_it(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"params": diag_params()})
    err = assert_usage_error(capsys, ["sample", "--config", cfg, "--seed", "-1",
                                      "--out", str(tmp_path / "o.csv")])
    assert err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("command, config", [
    ("density", {"params": diag_params()}),
    ("hellinger", {"params_a": diag_params(), "params_b": diag_params()}),
], ids=["density", "hellinger"])
@pytest.mark.parametrize("seed, message", [
    ("x", "seed must be an integer, got 'x'"),
    (2.5, "seed must be an integer, got 2.5"),
    (-5, "seed must be >= 0, got -5"),
], ids=["string", "fraction", "negative"])
def test_table_commands_refuse_a_bad_seed(tmp_path, capsys, command, config,
                                          seed, message):
    # density and hellinger draw nothing; each once ran with any seed and
    # exited 0 where sample exits 2
    cfg = write_config(tmp_path, "c.json", {**config, "seed": seed})
    out = tmp_path / "o.csv"
    err = assert_usage_error(capsys, [command, "--config", cfg, "--out", str(out)])
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "density"])
@pytest.mark.parametrize("p, phi", [(0, []), (-3, []), (-1, [[1.0, 0.0]])])
def test_ground_set_below_one_point_exits_2(tmp_path, capsys, command, p, phi):
    # p = 0 once sampled an empty ground set; p = -3 failed in a reshape
    cfg = write_config(tmp_path, "c.json",
                       params_config(command, {"p": p, "lambda": [], "phi": phi}))
    out = tmp_path / "o.csv"
    err = assert_usage_error(capsys, [command, "--config", cfg, "--out", str(out)])
    assert err == f"error: params.p must be >= 1, got {p}\n"
    assert not out.exists()


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, "c.json", {"instances": 5, "seed": 1})
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["isometry-sweep", "--config", cfg, "--out", str(out_a),
                 "--seed", "99"]) == 0
    assert main(["isometry-sweep", "--config", cfg, "--out", str(out_b)]) == 0
    assert out_a.read_bytes() != out_b.read_bytes()


# ---------------------------------------------------------------------------
# estimate

def estimate_config(tmp_path, seed=7):
    return write_config(tmp_path, "est.json", estimate_dict(seed))


def test_estimate_outputs_payload(tmp_path):
    cfg = estimate_config(tmp_path)
    out = tmp_path / "est.json.out"
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    for key in ["chosen", "chosen_position", "chosen_prior", "crit", "priors",
                "prior_mass", "truncated", "net_sizes", "n_samples", "seed"]:
        assert key in payload
    assert payload["prior_mass"] <= 1.0 + 1e-12
    assert payload["n_samples"] == 40
    tests_csv = (tmp_path / "est.json.out.tests.csv").read_text()
    assert tests_csv.splitlines()[0] == "row,col,sign"


def test_estimate_real_basis_chooses_a_real_family(tmp_path):
    # estimate_dict's basis has every imaginary part 0, so its model is real;
    # read as complex, it once chose a phi with nonzero imaginary parts
    cfg = estimate_config(tmp_path)
    out = tmp_path / "est.json.out"
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
    phi = json.loads(out.read_text())["chosen"]["phi"]
    assert [im for _, im in phi] == [0.0] * len(phi)
    assert any(re != 0.0 for re, _ in phi)


def test_estimate_tests_csv_is_the_sign_matrix(tmp_path, monkeypatch):
    # every line (a, b, sign) of .tests.csv is test_matrix[a, b], row-major
    results = []

    def recording_select(family, samples):
        results.append(estimator.select(family, samples))
        return results[-1]

    monkeypatch.setattr(cli, "select", recording_select)
    cfg = estimate_config(tmp_path)
    out = tmp_path / "est.json.out"
    assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
    sign = results[0].test_matrix
    m = sign.shape[0]
    assert m == len(json.loads(out.read_text())["priors"]) > 1
    data = (tmp_path / "est.json.out.tests.csv").read_bytes()
    lines = data.decode().split("\r\n")
    assert lines[0] == "row,col,sign" and lines[-1] == ""
    assert lines[1:-1] == [f"{a},{b},{sign[a, b]}"
                           for a in range(m) for b in range(m)]
    assert all(sign[a, a] == 0 for a in range(m))
    assert set(np.unique(sign)) == {-1, 0, 1}


@pytest.mark.parametrize("key, value, message", [
    ("n", 0, "n must be >= 1"),
    ("prior", -1.0, "prior of model 0"),
    ("prior", math.nan, "prior of model 0"),
], ids=["n-zero", "prior-negative", "prior-nan"])
def test_estimate_bad_n_or_prior_exits_2(tmp_path, capsys, key, value, message):
    # draws from a file, so that n reaches build_candidates and not the sampler
    draws = tmp_path / "draws.csv"
    draws.write_text("draw_index,config_bitmask\n0,1\n1,4\n2,2\n")
    cfg = json.loads(Path(estimate_config(tmp_path)).read_text())
    del cfg["truth"]
    cfg["samples_csv"] = str(draws)
    if key == "prior":
        cfg["models"][0]["prior"] = value
    else:
        cfg[key] = value
    path = write_config(tmp_path, "bad.json", cfg)
    out = tmp_path / "o.json"
    err = assert_usage_error(capsys, ["estimate", "--config", path,
                                      "--out", str(out)])
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("prior", "0.5", "model prior must be a number"),  # once read as 0.5
    ("prior", True, "model prior must be a number"),  # once read as 1.0
    ("basis", [True, False], "models[0].basis entries must be"),  # once 1 + 0j
    # once "too many values to unpack (expected 2)"
    ("basis", [1.0, 0.0, 9.0], "models[0].basis entries must be [re, im] pairs "
                               "of numbers, got [1.0, 0.0, 9.0]"),
], ids=["prior-string", "prior-bool", "basis-bools", "basis-three-numbers"])
def test_estimate_non_number_model_entry_exits_2(tmp_path, capsys, key, value,
                                                 message):
    cfg = json.loads(Path(estimate_config(tmp_path)).read_text())
    if key == "basis":
        cfg["models"][0]["basis"][0] = value
    else:
        cfg["models"][0][key] = value
    path = write_config(tmp_path, "bad.json", cfg)
    out = tmp_path / "o.json"
    err = assert_usage_error(capsys, ["estimate", "--config", path,
                                      "--out", str(out)])
    assert message in err
    assert not out.exists()


def test_estimate_fractional_cap_exits_2(tmp_path, capsys):
    # the caps values go to CandidateCaps unchanged, which alone checks them
    with pytest.raises(ValueError) as raised:
        CandidateCaps(1, 3.5, 20)
    cfg = json.loads(Path(estimate_config(tmp_path)).read_text())
    cfg["caps"]["per_net"] = 3.5
    path = write_config(tmp_path, "bad.json", cfg)
    out = tmp_path / "o.json"
    err = assert_usage_error(capsys, ["estimate", "--config", path,
                                      "--out", str(out)])
    assert err == f"error: {raised.value}\n"
    assert "per_net must be an integer, got 3.5" in err
    assert not out.exists()


@pytest.mark.parametrize("caps, message", [
    # once "error: 'per_net'" and "list indices must be integers or slices"
    ({"j_max": 1, "family_max": 20},
     "missing 1 required positional argument: 'per_net'"),
    ([1, 4, 20], "caps must be an object with the keys j_max, per_net, "
                 "family_max, got [1, 4, 20]"),
    # once ignored, and the run exited 0
    ({"j_max": 1, "per_net": 4, "family_max": 15, "famly_max": 3},
     "unexpected keyword argument 'famly_max'"),
], ids=["missing-per-net", "list", "misspelled"])
def test_estimate_malformed_caps_exits_2(tmp_path, capsys, caps, message):
    cfg = json.loads(Path(estimate_config(tmp_path)).read_text())
    cfg["caps"] = caps
    path = write_config(tmp_path, "bad.json", cfg)
    out = tmp_path / "o.json"
    err = assert_usage_error(capsys, ["estimate", "--config", path,
                                      "--out", str(out)])
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("models", [5, {"a": 1}, [5]],
                         ids=["number", "object", "list-of-numbers"])
def test_estimate_models_not_a_list_of_objects_exits_2(tmp_path, capsys, models):
    # once "'int' object is not iterable", "string indices must be integers,
    # not 'str'" and "'int' object is not subscriptable"
    cfg = json.loads(Path(estimate_config(tmp_path)).read_text())
    cfg["models"] = models
    path = write_config(tmp_path, "bad.json", cfg)
    out = tmp_path / "o.json"
    err = assert_usage_error(capsys, ["estimate", "--config", path,
                                      "--out", str(out)])
    assert f"models must be a list of objects, got {models!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    # once "error: 'config_bitmask'"
    ("draw_index,mask\n0,1\n", "samples_csv has no config_bitmask column"),
    # once "invalid literal for int() with base 10: 'x'"
    ("draw_index,config_bitmask\n0,1\n1,x\n",
     "samples_csv draw 1 config_bitmask must be an integer, got 'x'"),
], ids=["no-column", "not-an-integer"])
def test_estimate_malformed_samples_csv_exits_2(tmp_path, capsys, text, message):
    draws = tmp_path / "draws.csv"
    draws.write_text(text)
    cfg = json.loads(Path(estimate_config(tmp_path)).read_text())
    del cfg["truth"]
    cfg["samples_csv"] = str(draws)
    path = write_config(tmp_path, "bad.json", cfg)
    out = tmp_path / "o.json"
    err = assert_usage_error(capsys, ["estimate", "--config", path,
                                      "--out", str(out)])
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "draw_index,config_bitmask\n"])
def test_estimate_samples_csv_without_draws_exits_2(tmp_path, capsys, text):
    # with no draws every test is a tie, and the winner would be arbitrary
    draws = tmp_path / "draws.csv"
    draws.write_text(text)
    cfg = json.loads(Path(estimate_config(tmp_path)).read_text())
    del cfg["truth"]
    cfg["samples_csv"] = str(draws)
    path = write_config(tmp_path, "empty.json", cfg)
    out = tmp_path / "o.json"
    err = assert_usage_error(capsys, ["estimate", "--config", path,
                                      "--out", str(out)])
    assert "samples_csv holds no draws" in err
    assert not out.exists()


def test_estimate_samples_csv_size_must_match_n_exits_2(tmp_path, capsys):
    # nets, weight grid and prior are built for the config's n
    draws = tmp_path / "draws.csv"
    draws.write_text("draw_index,config_bitmask\n0,1\n1,4\n2,2\n")
    cfg = json.loads(Path(estimate_config(tmp_path)).read_text())
    del cfg["truth"]
    cfg["samples_csv"] = str(draws)
    cfg["n"] = 5000
    path = write_config(tmp_path, "mismatch.json", cfg)
    out = tmp_path / "o.json"
    err = assert_usage_error(capsys, ["estimate", "--config", path,
                                      "--out", str(out)])
    assert "3 draws" in err and "n is 5000" in err
    assert not out.exists()


@pytest.mark.parametrize("garbage", [False, True], ids=["valid-truth", "garbage-truth"])
def test_estimate_samples_csv_beside_truth_exits_2(tmp_path, capsys, garbage):
    # the truth beside a samples_csv was once ignored and never read, so a
    # garbage truth ran too
    cfg = json.loads(Path(estimate_config(tmp_path)).read_text())
    sample_cfg = write_config(tmp_path, "s.json",
                              {"params": cfg["truth"], "n": cfg["n"], "seed": 2})
    draws = tmp_path / "draws.csv"
    assert main(["sample", "--config", sample_cfg, "--out", str(draws)]) == 0
    cfg["samples_csv"] = str(draws)
    if garbage:
        cfg["truth"] = {"p": "garbage"}
    path = write_config(tmp_path, "both.json", cfg)
    out = tmp_path / "o.json"
    err = assert_usage_error(capsys, ["estimate", "--config", path,
                                      "--out", str(out)])
    assert err == "error: estimate config takes 'samples_csv' or 'truth', not both\n"
    assert not out.exists()
    # null counts as absent
    for key in ["truth"] if garbage else ["truth", "samples_csv"]:
        assert main(["estimate", "--config", write_config(
            tmp_path, "one.json", dict(cfg, **{key: None})),
            "--out", str(out)]) == 0


def test_estimate_without_samples_csv_or_truth_exits_2(tmp_path, capsys):
    cfg = json.loads(Path(estimate_config(tmp_path)).read_text())
    path = write_config(tmp_path, "neither.json", dict(cfg, truth=None))
    err = assert_usage_error(capsys, ["estimate", "--config", path,
                                      "--out", str(tmp_path / "o.json")])
    assert "'samples_csv'" in err and "'truth'" in err


def test_estimate_repeated_model_id_exits_2(tmp_path, capsys):
    cfg = json.loads(Path(estimate_config(tmp_path)).read_text())
    cfg["models"] = [dict(cfg["models"][0], prior=0.5)] * 2
    path = write_config(tmp_path, "twice.json", cfg)
    out = tmp_path / "o.json"
    err = assert_usage_error(capsys, ["estimate", "--config", path,
                                      "--out", str(out)])
    assert "model id 0" in err
    assert not out.exists()


def model_dict(p, model_id, prior):
    basis = [[float(x), 0.0] for x in np.eye(p).reshape(-1)]
    return {"id": model_id, "p": p, "dim": p, "basis": basis, "prior": prior}


@pytest.mark.parametrize("models, truth_p, anchor_p, message", [
    # without the check this fits a 5-point density to 4-point draws, exit 0
    ([(5, 1.0)], 4, None, "truth has p=4 but models[0] has p=5"),
    ([(5, 0.5), (4, 0.5)], 5, None, "models[1] has p=4 but models[0] has p=5"),
    ([(5, 1.0)], 5, 4, "anchor has p=4 but models[0] has p=5"),
], ids=["truth", "second-model", "anchor"])
def test_estimate_mixed_ground_sets_exit_2(tmp_path, capsys, models, truth_p,
                                           anchor_p, message):
    cfg = json.loads(Path(estimate_config(tmp_path)).read_text())
    cfg["models"] = [model_dict(p, i, prior) for i, (p, prior) in enumerate(models)]
    cfg["truth"] = random_params(3, p=truth_p, r=1)
    del cfg["anchor"]
    if anchor_p is not None:
        cfg["anchor"] = random_params(4, p=anchor_p, r=1)
    path = write_config(tmp_path, "mixed.json", cfg)
    out = tmp_path / "o.json"
    err = assert_usage_error(capsys, ["estimate", "--config", path,
                                      "--out", str(out)])
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("change, message", [
    # once "config key 'dim' is missing" and "config key 'prior' is missing"
    ({"dim": None}, "config key 'models[1].dim' is missing"),
    ({"prior": None}, "config key 'models[1].prior' is missing"),
    # once "model p must be an integer, got 2.5"
    ({"p": 2.5}, "models[1].p must be an integer, got 2.5"),
    ({"id": "b"}, "models[1].id must be an integer, got 'b'"),
    # once "model basis has 16 entries, expected 8"
    ({"dim": 2}, "models[1].basis has 16 entries, expected 8"),
    # once "model basis is not orthonormal", with no amount
    ({"basis": [[1.0, 0.0]] * 16},
     "models[1]: columns are not orthonormal (Gram deviation 4.000e+00)"),
    # once "model basis is not orthonormal", read as a 0 x 1 basis
    ({"p": 0, "dim": 1, "basis": []}, "models[1].p must be >= 1, got 0"),
    # once "can only specify one unknown dimension"
    ({"p": -1, "dim": -1, "basis": [[1.0, 0.0]]},
     "models[1].p must be >= 1, got -1"),
    # once "models[1].basis has 0 entries, expected -2"
    ({"p": 2, "dim": -1, "basis": []}, "models[1].dim must be >= 1, got -1"),
    ({"dim": 0}, "models[1].dim must be >= 1, got 0"),
], ids=["missing-dim", "missing-prior", "p", "id", "basis-size", "basis-gram",
        "p-zero", "p-negative", "dim-negative", "dim-zero"])
def test_estimate_model_errors_name_their_model(tmp_path, capsys, change,
                                                message):
    # with two models, the error must say which one is bad
    cfg = json.loads(Path(estimate_config(tmp_path)).read_text())
    second = model_dict(4, 1, 0.5)
    for key, value in change.items():
        if value is None:
            del second[key]
        else:
            second[key] = value
    cfg["models"] = [dict(cfg["models"][0], prior=0.5), second]
    path = write_config(tmp_path, "two.json", cfg)
    out = tmp_path / "o.json"
    err = assert_usage_error(capsys, ["estimate", "--config", path,
                                      "--out", str(out)])
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_estimate_huge_j_max_finishes(tmp_path):
    # levels j > p are never enumerated, so a j_max of 10^30 costs no more
    # than j_max = p
    cfg = json.loads(Path(estimate_config(tmp_path)).read_text())
    cfg["caps"]["j_max"] = 10**30
    path = write_config(tmp_path, "huge.json", cfg)
    start = time.perf_counter()
    assert main(["estimate", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert time.perf_counter() - start < 10
    assert json.loads((tmp_path / "o").read_text())["truncated"]


def test_estimate_reads_samples_csv(tmp_path):
    # generate draws with `sample`, then feed them to `estimate`
    params = params_to_dict(haar_orthonormal(4, 1, SeededRng(8)),
                            Spectrum.ones(1))
    sample_cfg = write_config(tmp_path, "s.json",
                              {"params": params, "n": 30, "seed": 2})
    draws = tmp_path / "draws.csv"
    assert main(["sample", "--config", sample_cfg, "--out", str(draws)]) == 0
    basis = [[float(x), 0.0] for x in np.eye(4).reshape(-1)]
    est_cfg = write_config(tmp_path, "e.json", {
        "models": [{"id": 0, "p": 4, "dim": 4, "basis": basis, "prior": 1.0}],
        "n": 30,
        "caps": {"j_max": 1, "per_net": 3, "family_max": 10},
        "pool_size": 32,
        "seed": 2,
        "samples_csv": str(draws),
    })
    out = tmp_path / "est.out"
    assert main(["estimate", "--config", est_cfg, "--out", str(out)]) == 0


def test_estimate_mask_outside_ground_set_exits_2(tmp_path, capsys):
    draws = tmp_path / "draws.csv"
    draws.write_text("draw_index,config_bitmask\n0,1\n1,64\n2,3\n")
    basis = [[float(x), 0.0] for x in np.eye(2).reshape(-1)]
    cfg = write_config(tmp_path, "e.json", {
        "models": [{"id": 0, "p": 2, "dim": 2, "basis": basis, "prior": 1.0}],
        "n": 3,
        "caps": {"j_max": 1, "per_net": 2, "family_max": 4},
        "pool_size": 8,
        "samples_csv": str(draws),
    })
    err = assert_usage_error(capsys, ["estimate", "--config", cfg,
                                      "--out", str(tmp_path / "est.out")])
    assert "draw 1 has mask 64" in err and "p=2" in err


def test_estimate_non_finite_model_basis_exits_2(tmp_path, capsys):
    # a NaN passes a Gram check written as "> tol"; the error must name the
    # basis, not report an empty candidate family
    basis = [[float(x), 0.0] for x in np.eye(3)[:, :2].T.reshape(-1)]
    basis[0][0] = math.nan
    cfg = write_config(tmp_path, "e.json", {
        "models": [{"id": 0, "p": 3, "dim": 2, "basis": basis, "prior": 1.0}],
        "n": 20,
        "caps": {"j_max": 1, "per_net": 4, "family_max": 8},
        "pool_size": 16,
        "truth": params_to_dict(haar_orthonormal(3, 1, SeededRng(3)),
                                Spectrum.ones(1)),
    })
    out = tmp_path / "est.json"
    err = assert_usage_error(capsys, ["estimate", "--config", cfg,
                                      "--out", str(out)])
    assert err == "error: models[0]: column entries must be finite\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# risk curve

def test_risk_curve_cli_tiny(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "p": 6, "k": 2, "n_grid": [30, 60], "replications": 3,
        "caps": [2, 4, 12], "pool_size": 32, "seed": 5,
    })
    out = tmp_path / "risk.csv"
    code = main(["risk-curve", "--config", cfg, "--out", str(out)])
    assert code in (0, 1)  # slope band is not meaningful on a 2-point grid
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err and all(line.startswith("risk-curve: ")
                           for line in err.splitlines())
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,empirical_mean_h2,oracle_bound,normalized"
    assert len(lines) == 3
    meta = json.loads((tmp_path / "risk.csv.meta.json").read_text())
    assert "slope" in meta and "medians" in meta


def test_risk_curve_huge_j_max_finishes(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "p": 4, "k": 1, "n_grid": [20, 40], "replications": 1,
        "caps": [10**30, 2, 4], "pool_size": 8, "anchor_jitter": 1, "seed": 2,
    })
    start = time.perf_counter()
    code = main(["risk-curve", "--config", cfg, "--out", str(tmp_path / "r.csv")])
    assert code in (0, 1)
    assert time.perf_counter() - start < 10
    assert len((tmp_path / "r.csv").read_text().splitlines()) == 3


def test_risk_curve_zero_mean_risk_is_not_a_violation(tmp_path, capsys):
    # the anchored family contains the truth at n = 100 in every replication
    cfg = write_config(tmp_path, "c.json", {
        "p": 8, "k": 2, "n_grid": [100, 3000], "replications": 3,
        "caps": [2, 4, 40], "seed": 1,
    })
    out = tmp_path / "risk.csv"
    assert main(["risk-curve", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "risk-curve: only 1 of 2 mean risks are positive, a slope needs 2"]
    assert out.read_text().splitlines()[1].startswith("100,0,")


def test_risk_curve_zero_mean_left_out_of_the_checks(tmp_path, capsys, monkeypatch):
    means = {100: 0.0, 300: 0.01, 1000: 0.003, 3000: 0.001}
    monkeypatch.setattr(experiments, "_risk_replication",
                        lambda cfg, n, stream: means[n])
    cfg = write_config(tmp_path, "c.json", {"replications": 2})
    assert main(["risk-curve", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_cli_defaults_are_the_config_defaults(tmp_path, monkeypatch):
    seen = {}

    def record(command, result):
        def run(cfg):
            seen[command] = cfg
            return result
        return run

    rows = [RiskCurveRow(100, 0.1, 0.2, 1.0), RiskCurveRow(300, 0.04, 0.1, 1.1)]
    monkeypatch.setattr(cli, "run_risk_curve",
                        record("risk-curve", RiskCurveResult(rows, {}, -0.9)))
    monkeypatch.setattr(cli, "run_bounds_sweep", record("bounds-sweep", ([], 0)))
    monkeypatch.setattr(cli, "run_isometry_sweep", record("isometry-sweep", ([], 0)))
    for command in ("risk-curve", "bounds-sweep", "isometry-sweep"):
        assert main([command, "--out", str(tmp_path / command)]) == 0
    assert seen == {"risk-curve": RiskCurveConfig(),
                    "bounds-sweep": BoundsSweepConfig(),
                    "isometry-sweep": IsometrySweepConfig()}


@pytest.mark.parametrize("key, value", [("n_grid", 100), ("caps", 2)])
def test_risk_curve_list_key_given_a_number_exits_2(tmp_path, capsys, key, value):
    # once "'int' object is not iterable"
    cfg = write_config(tmp_path, "c.json", {**TINY_RISK_CURVE, key: value})
    out = tmp_path / "risk.csv"
    err = assert_usage_error(capsys, ["risk-curve", "--config", cfg,
                                      "--out", str(out)])
    assert f"{key} must be a list of integers, got {value}" in err
    assert not out.exists()


def test_risk_curve_one_point_grid_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {"n_grid": [10], "replications": 1})
    out = tmp_path / "risk.csv"
    err = assert_usage_error(capsys, ["risk-curve", "--config", cfg,
                                      "--out", str(out)])
    assert "n_grid" in err
    assert not out.exists()


def test_risk_curve_negative_anchor_jitter_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "p": 4, "k": 1, "n_grid": [30, 60], "replications": 1,
        "caps": [1, 2, 4], "pool_size": 8, "anchor_jitter": -1,
    })
    out = tmp_path / "risk.csv"
    err = assert_usage_error(capsys, ["risk-curve", "--config", cfg,
                                      "--out", str(out)])
    assert "anchor_jitter must be >= 0" in err
    assert not out.exists()


def test_risk_curve_caps_below_rank_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "c.json", {
        "p": 6, "k": 2, "n_grid": [30, 60], "replications": 3,
        "caps": [1, 4, 12], "pool_size": 32, "seed": 5,
    })
    out = tmp_path / "risk.csv"
    err = assert_usage_error(capsys, ["risk-curve", "--config", cfg,
                                      "--out", str(out)])
    assert "j_max=1 is below k=2" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# exit 1 names the failed property

def test_risk_curve_exit_1_names_failures(tmp_path, capsys, monkeypatch):
    rows = [RiskCurveRow(100, 0.1, 0.2, 1.0), RiskCurveRow(300, 0.05, 0.1, 14.2)]
    result = RiskCurveResult(rows, {100: [0.1], 300: [0.05]}, -0.31)
    monkeypatch.setattr(cli, "run_risk_curve", lambda cfg: result)
    out = tmp_path / "risk.csv"
    assert main(["risk-curve", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "risk-curve: normalized risk varies by a factor 14.2 > 10",
        "risk-curve: slope -0.31 outside [-1.5, -0.5]",
    ]
    meta = json.loads((tmp_path / "risk.csv.meta.json").read_text())
    assert set(meta) == {"config", "library_version", "slope", "medians"}


@pytest.mark.parametrize("command,runner,rows,violations,line", [
    ("bounds-sweep", "run_bounds_sweep",
     [(3, "proj_exact", 0.1, 0.2, 0.1), (17, "dpp_main", 0.2, 0.2 - 2.1e-8, -2.1e-8),
      (18, "mixture", 0.2, 0.2 - 2e-9, -2e-9)], 2,
     "bounds-sweep: 2 violations, worst slack -2.1e-08 (instance 17, dpp_main)"),
    ("bounds-sweep", "run_bounds_sweep",
     [(0, "mixture", 0.2, 0.1, -0.1), (1, "dpp_main", math.nan, 0.2, math.nan)], 2,
     "bounds-sweep: 2 violations, worst slack nan (instance 1, dpp_main)"),
    ("isometry-sweep", "run_isometry_sweep",
     [(4, "isometry", 0.5, 0.5, 0.0), (5, "isometry", 0.5, 0.5, 3.1e-9)], 1,
     "isometry-sweep: 1 violations, worst gap 3.1e-09 (instance 5, isometry)"),
], ids=["bounds-negative-slack", "bounds-nan-slack", "isometry-gap"])
def test_sweep_exit_1_names_worst_row(tmp_path, capsys, monkeypatch, command,
                                      runner, rows, violations, line):
    monkeypatch.setattr(cli, runner, lambda cfg: (rows, violations))
    assert main([command, "--out", str(tmp_path / "sweep.csv")]) == 1
    assert capsys.readouterr().err.splitlines() == [line]
