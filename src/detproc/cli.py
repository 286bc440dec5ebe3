"""Batch command-line interface.

Subcommands: sample, density, hellinger, bounds-sweep, isometry-sweep,
estimate, risk-curve. Every run is driven by a JSON config plus the global
flags --seed/--config/--out, and is byte-identical when repeated
with the same inputs. Exit codes: 0 all assertions passed, 1 property
violation, 2 usage, configuration or I/O error (an "error:" line on stderr,
never a traceback).
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .core import (
    DppDensity,
    density_table,
    params_from_dict,
    params_to_dict,
    write_table_csv,
)
from .estimator import CandidateCaps, SubspaceModel, build_candidates, select
from .experiments import (
    SWEEP_HEADER,
    BoundsSweepConfig,
    IsometrySweepConfig,
    RiskCurveConfig,
    risk_rows_for_csv,
    run_bounds_sweep,
    run_isometry_sweep,
    run_risk_curve,
    write_metadata,
    write_rows_csv,
)
from .hellinger import hellinger
from .rng import SeededRng
from .sampling import SampleSet, sample_dpp


class ConfigError(Exception):
    pass


def _load_config(args) -> dict:
    if not args.config:
        raise ConfigError("this subcommand requires --config <path>")
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return data


def _require_out(args) -> str:
    if not args.out:
        raise ConfigError("this subcommand requires --out <path>")
    return args.out


def _seed(args, cfg: dict, default=0) -> int:
    if args.seed is not None:
        return args.seed
    return int(cfg.get("seed", default))


def _cmd_sample(args) -> int:
    cfg = _load_config(args)
    fam, spec = params_from_dict(cfg["params"])
    n = int(cfg.get("n", 1))
    rng = SeededRng(_seed(args, cfg))
    samples = sample_dpp(DppDensity(fam, spec), n, rng)
    samples.write_csv(_require_out(args))
    return 0


def _cmd_density(args) -> int:
    cfg = _load_config(args)
    fam, spec = params_from_dict(cfg["params"])
    table = density_table(DppDensity(fam, spec))
    write_table_csv(table, _require_out(args))
    return 0


def _cmd_hellinger(args) -> int:
    cfg = _load_config(args)
    fam_a, spec_a = params_from_dict(cfg["params_a"])
    fam_b, spec_b = params_from_dict(cfg["params_b"])
    h2, affinity = hellinger(
        density_table(DppDensity(fam_a, spec_a)),
        density_table(DppDensity(fam_b, spec_b)),
    )
    write_rows_csv(_require_out(args), ["h2", "affinity"], [(h2, affinity)])
    return 0


def _sweep_exit(command, rows, violations, quantity, badness) -> int:
    """Exit code of a sweep; on violations, name the worst row on stderr.

    badness orders rows from worst to best; a NaN in the checked column
    (rows[i][4]) counts as worst of all.
    """
    if violations == 0:
        return 0
    worst = min(rows, key=lambda row: (not math.isnan(row[4]), badness(row[4])))
    print(f"{command}: {violations} violations, worst {quantity} {worst[4]:.3g} "
          f"(instance {worst[0]}, {worst[1]})", file=sys.stderr)
    return 1


def _present(cfg: dict, conversions: dict) -> dict:
    """The config keys that are present, converted; absent keys keep the
    defaults of the config dataclass."""
    return {key: convert(cfg[key]) for key, convert in conversions.items()
            if key in cfg}


def _cmd_sweep(args, config, run, keys, quantity, badness) -> int:
    cfg = _load_config(args) if args.config else {}
    sweep = config(**_present(cfg, dict.fromkeys(keys, int)), seed=_seed(args, cfg))
    rows, violations = run(sweep)
    out = _require_out(args)
    write_rows_csv(out, SWEEP_HEADER, rows)
    write_metadata(out + ".meta.json", vars(sweep), {"violations": violations})
    return _sweep_exit(args.command, rows, violations, quantity, badness)


def _cmd_bounds_sweep(args) -> int:
    return _cmd_sweep(args, BoundsSweepConfig, run_bounds_sweep,
                      ("instances", "p_max", "rank_max"), "slack", lambda x: x)


def _cmd_isometry_sweep(args) -> int:
    return _cmd_sweep(args, IsometrySweepConfig, run_isometry_sweep,
                      ("instances", "p_max", "k_max"), "gap", lambda x: -x)


def _model_from_dict(data: dict) -> SubspaceModel:
    p = int(data["p"])
    dim = int(data["dim"])
    flat = np.array([complex(re, im) for re, im in data["basis"]])
    if flat.size != p * dim:
        raise ConfigError(f"model basis has {flat.size} entries, expected {p * dim}")
    return SubspaceModel(flat.reshape(dim, p).T, id=int(data["id"]))


def _read_samples_csv(path, seed: int) -> SampleSet:
    with open(path) as fh:
        reader = csv.DictReader(fh)
        masks = [int(row["config_bitmask"]) for row in reader]
    return SampleSet(masks, path, seed)


def _cmd_estimate(args) -> int:
    cfg = _load_config(args)
    if cfg.get("test_statistic", "signed-root") != "signed-root":
        raise ConfigError("unknown test_statistic (only 'signed-root' is available)")
    models = [_model_from_dict(m) for m in cfg["models"]]
    prior = {int(m["id"]): float(m["prior"]) for m in cfg["models"]}
    if math.fsum(prior.values()) > 1.0 + 1e-12:
        raise ConfigError("model prior weights must sum to at most 1")
    n = int(cfg["n"])
    caps_cfg = cfg["caps"]
    caps = CandidateCaps(int(caps_cfg["j_max"]), int(caps_cfg["per_net"]),
                         int(caps_cfg["family_max"]))
    seed = _seed(args, cfg)
    rng = SeededRng(seed)
    anchor = None
    if "anchor" in cfg:
        anchor, _ = params_from_dict(cfg["anchor"])
    if "samples_csv" in cfg:
        samples = _read_samples_csv(cfg["samples_csv"], seed)
    elif "truth" in cfg:
        fam, spec = params_from_dict(cfg["truth"])
        samples = sample_dpp(DppDensity(fam, spec), n, rng.split(0))
    else:
        raise ConfigError("estimate config needs 'samples_csv' or 'truth'")
    family = build_candidates(models, prior, n, caps, rng.split(1),
                              pool_size=int(cfg.get("pool_size", 256)),
                              anchor=anchor)
    result = select(family, samples)
    chosen = family.entries[result.chosen_index]
    out = _require_out(args)
    payload = {
        "chosen": params_to_dict(chosen.family, chosen.spectrum),
        "chosen_position": result.chosen_index,
        "chosen_index": [
            chosen.index[0], list(chosen.index[1]), list(chosen.index[2]),
            chosen.index[3],
        ],
        "chosen_prior": chosen.prior,
        "crit": [float(c) for c in result.crit_values],
        "priors": [e.prior for e in family.entries],
        "prior_mass": family.prior_mass(),
        "truncated": family.truncated,
        "net_sizes": {str(k): v for k, v in family.net_sizes.items()},
        "n_samples": len(samples),
        "seed": seed,
    }
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    write_rows_csv(
        out + ".tests.csv",
        ["row", "col", "sign"],
        [(a, b, int(result.test_matrix[a, b]))
         for a in range(len(family)) for b in range(len(family))],
    )
    return 0


RISK_CURVE_KEYS = {"p": int, "k": int, "n_grid": tuple, "replications": int,
                   "caps": tuple, "pool_size": int, "anchor_jitter": int}


def _cmd_risk_curve(args) -> int:
    cfg = _load_config(args) if args.config else {}
    curve = RiskCurveConfig(**_present(cfg, RISK_CURVE_KEYS), seed=_seed(args, cfg))
    result = run_risk_curve(curve)
    out = _require_out(args)
    header, rows = risk_rows_for_csv(result)
    write_rows_csv(out, header, rows)
    write_metadata(out + ".meta.json", vars(curve),
                   {"slope": result.slope, "medians":
                    {str(n): m for n, m in result.medians().items()}})
    fitted = result.positive_rows()
    failures = []
    if len(fitted) < 2:
        failures.append(f"only {len(fitted)} of {len(result.rows)} mean risks "
                        "are positive, a slope needs 2")
    else:
        normalized = [r.normalized for r in fitted]
        low, high = min(normalized), max(normalized)
        if not high <= 10 * low:
            factor = high / low if low > 0 else math.inf
            failures.append(f"normalized risk varies by a factor {factor:.3g} > 10")
        if not -1.5 <= result.slope <= -0.5:
            failures.append(f"slope {result.slope:.3g} outside [-1.5, -0.5]")
    for failure in failures:
        print(f"risk-curve: {failure}", file=sys.stderr)
    return 1 if failures else 0


COMMANDS = {
    "sample": _cmd_sample,
    "density": _cmd_density,
    "hellinger": _cmd_hellinger,
    "bounds-sweep": _cmd_bounds_sweep,
    "isometry-sweep": _cmd_isometry_sweep,
    "estimate": _cmd_estimate,
    "risk-curve": _cmd_risk_curve,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detproc",
        description="Exact determinantal point process toolkit",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed (u64)")
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default=None, help="output path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return COMMANDS[args.command](args)
    except (ConfigError, KeyError, ValueError, TypeError, OverflowError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
