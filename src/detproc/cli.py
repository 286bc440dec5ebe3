"""Batch command-line interface.

Subcommands: sample, density, hellinger, bounds-sweep, isometry-sweep,
estimate, risk-curve. Every run is driven by a JSON config plus the global
flags --seed/--config/--out, and is byte-identical when repeated
with the same inputs. Exit codes: 0 all assertions passed, 1 property
violation, 2 usage, configuration or I/O error (an "error:" line on stderr,
never a traceback; a missing or unknown config key is named).

One config path serves all seven commands: main loads the config object
({} without --config), writes --seed in when given, and calls the command
with the config's keys as keyword arguments. The keys a command accepts are
its signature's parameters (the sweeps and risk-curve pass theirs on to
their experiments class), so a missing or unknown key is a TypeError naming
it before any work starts. The library alone checks config values:
parameter sets go to core.params_from_dict, estimate's models to
estimator.model_from_dict, its caps to CandidateCaps and the rest of its
estimation inputs to build_candidates. The CLI itself checks only the JSON
shape of estimate's models (a list of objects) and caps (an object), that
estimate's truth lies on the models' ground set, and the unused seed of
density and hellinger.
"""
from __future__ import annotations

import argparse
import csv
import json
# argparse's gettext imports locale when the first parser is built, inside
# every command; load it with the module so that it counts as set-up.
import locale
import math
import sys

import numpy as np

from .core import (
    DppDensity,
    density_table,
    integer,
    params_from_dict,
    params_to_dict,
    write_csv,
    write_json,
    write_table_csv,
)
from .estimator import CandidateCaps, build_candidates, model_from_dict, select
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


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    return data


def _cmd_sample(out, *, params, n=1, seed=0) -> int:
    fam, spec = params_from_dict("params", params)
    samples = sample_dpp(DppDensity(fam, spec), n, SeededRng(seed))
    samples.write_csv(out)
    return 0


def _cmd_density(out, *, params, seed=0) -> int:
    # seed is checked as SeededRng checks it, and unused: the table is
    # exact and draws nothing
    integer("seed", seed, 0)
    fam, spec = params_from_dict("params", params)
    write_table_csv(density_table(DppDensity(fam, spec)), out)
    return 0


def _cmd_hellinger(out, *, params_a, params_b, seed=0) -> int:
    # seed is checked and unused, as in density
    integer("seed", seed, 0)
    fam_a, spec_a = params_from_dict("params_a", params_a)
    fam_b, spec_b = params_from_dict("params_b", params_b)
    h2, affinity = hellinger(
        density_table(DppDensity(fam_a, spec_a)),
        density_table(DppDensity(fam_b, spec_b)),
    )
    write_rows_csv(out, ["h2", "affinity"], [(h2, affinity)])
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


def _cmd_sweep(out, command, sweep, run, quantity, badness) -> int:
    rows, violations = run(sweep)
    write_rows_csv(out, SWEEP_HEADER, rows)
    write_metadata(out + ".meta.json", vars(sweep), {"violations": violations})
    return _sweep_exit(command, rows, violations, quantity, badness)


def _cmd_bounds_sweep(out, **cfg) -> int:
    return _cmd_sweep(out, "bounds-sweep", BoundsSweepConfig(**cfg),
                      run_bounds_sweep, "slack", lambda x: x)


def _cmd_isometry_sweep(out, **cfg) -> int:
    return _cmd_sweep(out, "isometry-sweep", IsometrySweepConfig(**cfg),
                      run_isometry_sweep, "gap", lambda x: -x)


def _read_samples_csv(path) -> SampleSet:
    """The draws in the config_bitmask column of a CSV such as sample
    writes; a usage error naming samples_csv, and the draw if one is not an
    integer."""
    with open(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames and "config_bitmask" not in reader.fieldnames:
            raise ValueError("samples_csv has no config_bitmask column")
        masks = []
        for i, row in enumerate(reader):
            try:
                masks.append(int(row["config_bitmask"]))
            except (TypeError, ValueError):
                raise ValueError(f"samples_csv draw {i} config_bitmask must be an "
                                 f"integer, got {row['config_bitmask']!r}") from None
    if not masks:
        raise ValueError("samples_csv holds no draws")
    return SampleSet(masks)


def _cmd_estimate(out, *, models, n, caps, seed=0, pool_size=256,
                  anchor=None, samples_csv=None, truth=None) -> int:
    if not (isinstance(models, list) and all(isinstance(m, dict) for m in models)):
        raise ValueError(f"models must be a list of objects, got {models!r}")
    pairs = [model_from_dict(f"models[{i}]", m) for i, m in enumerate(models)]
    subspaces = [model for model, _ in pairs]
    prior = {model.id: weight for model, weight in pairs}
    n = integer("n", n)
    # CandidateCaps names a missing, misspelled or bad entry
    if not isinstance(caps, dict):
        raise ValueError(f"caps must be an object with the keys j_max, per_net, "
                         f"family_max, got {caps!r}")
    caps = CandidateCaps(**caps)
    rng = SeededRng(seed)
    if anchor is not None:
        anchor, _ = params_from_dict("anchor", anchor)
    if samples_csv is not None and truth is not None:
        raise ValueError("estimate config takes 'samples_csv' or 'truth', not both")
    if samples_csv is not None:
        samples = _read_samples_csv(samples_csv)
    elif truth is not None:
        fam, spec = params_from_dict("truth", truth)
        if subspaces and fam.p != subspaces[0].p:
            raise ValueError(f"truth has p={fam.p} but models[0] has "
                             f"p={subspaces[0].p}")
        samples = sample_dpp(DppDensity(fam, spec), n, rng.split(0))
    else:
        raise ValueError("estimate config needs 'samples_csv' or 'truth'")
    # build_candidates checks the models, prior, n, pool_size and anchor
    family = build_candidates(subspaces, prior, n, caps, rng.split(1),
                              pool_size=pool_size, anchor=anchor)
    # after build_candidates, so that a bad n or prior is reported as such
    if len(samples) != n:
        raise ValueError(f"samples_csv holds {len(samples)} draws but the config's "
                         f"n is {n}, the size the nets, grid and prior are built for")
    result = select(family, samples)
    chosen = family.entries[result.chosen_index]
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
        "seed": rng.seed,
    }
    write_json(out, payload)
    # line a * m + b holds (a, b, test_matrix[a, b])
    m = len(family)
    write_csv(out + ".tests.csv", ["row", "col", "sign"],
              [np.repeat(np.arange(m), m), np.tile(np.arange(m), m),
               result.test_matrix.reshape(-1)])
    return 0


def _cmd_risk_curve(out, **cfg) -> int:
    curve = RiskCurveConfig(**cfg)
    result = run_risk_curve(curve)
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
        cfg = _load_config(args.config) if args.config else {}
        if args.seed is not None:
            cfg["seed"] = args.seed
        if not args.out:
            raise ValueError("this subcommand requires --out <path>")
        return COMMANDS[args.command](args.out, **cfg)
    except KeyError as exc:
        print(f"error: config key {exc} is missing", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
