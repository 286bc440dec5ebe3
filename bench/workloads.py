"""The four benchmark workloads: inputs, op counts and output checks.

Each workload is one ``detproc`` CLI command. Its inputs come from the
workload seed alone. Its outputs are checked by routes that do not run the
production code path being measured: the exact distribution of a draw comes
from |det(K - I_complement)| (Kulesza & Taskar 2012), and table entries are
compared with the mixture-sum and L-ensemble evaluators.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import chdtrc

from detproc.core import (
    Config,
    DppDensity,
    OrthonormalFamily,
    Spectrum,
    dpp_density_eval,
    haar_orthonormal,
    l_ensemble_oracle,
    params_to_dict,
)
from detproc.rng import SeededRng

SWEEP_LABELS = ("proj_exact", "proj_gram", "proj_l2", "mixture",
                "dpp_main", "dpp_weights", "dpp_components")
SLACK_TOL = 1e-9
MASS_TOL = 1e-9
ENTRY_TOL = 1e-12  # absolute, per table entry
CHI2_BINS = 32
CHI2_FALSE_ALARM = 1e-6  # chance that correct draws fail the check


class CheckError(Exception):
    """An output of the command under test is wrong."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) >= 1, f"{path} is empty")
    return rows[0], rows[1:]


def complement_table(columns, values, chunk=2048) -> np.ndarray:
    """P(N = alpha) = |det(K - I_complement(alpha))| for every bitmask alpha.

    K = Phi diag(lambda^2) Phi^*; I_complement(alpha) is the diagonal
    indicator of the points outside alpha. This route shares no code with
    detproc's table engine.
    """
    p = columns.shape[0]
    kernel = (columns * np.asarray(values) ** 2) @ columns.conj().T
    masks = np.arange(1 << p)
    outside = 1 - ((masks[:, None] >> np.arange(p)) & 1)
    diag = np.arange(p)
    probs = np.empty(1 << p)
    for lo in range(0, 1 << p, chunk):
        block = np.repeat(kernel[None], min(chunk, (1 << p) - lo), axis=0)
        block[:, diag, diag] -= outside[lo:lo + chunk]
        probs[lo:lo + chunk] = np.abs(np.linalg.det(block))
    return probs


def chi2_pvalue(masks, probs, bins=CHI2_BINS) -> float:
    """Goodness of fit of drawn bitmasks to the exact cell probabilities.

    Cells are sorted by probability and cut into ``bins`` groups of about
    equal mass, so every group has a large expected count.
    """
    order = np.argsort(probs, kind="stable")
    cum = np.cumsum(probs[order])
    group = np.empty(probs.size, dtype=np.int64)
    group[order] = np.minimum((cum - probs[order] / 2) / cum[-1] * bins,
                              bins - 1).astype(np.int64)
    expected = np.bincount(group, weights=probs, minlength=bins) / cum[-1]
    expected *= len(masks)
    observed = np.bincount(group[masks], minlength=bins)
    keep = expected > 0
    _require(observed[~keep].sum() == 0, "draws landed on zero-probability cells")
    stat = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    return float(chdtrc(int(keep.sum()) - 1, stat))


def _haar_params(p, rank, seed):
    """Seeded orthonormal family with the spectrum 0.95 down to 0.45."""
    fam = haar_orthonormal(p, rank, SeededRng(seed))
    return fam, Spectrum(np.linspace(0.95, 0.45, rank))


class Workload:
    """One CLI command; subclasses define its input, op count and checks."""

    name = ""
    command = ""

    def config(self, seed: int) -> dict:
        raise NotImplementedError

    def ops(self) -> int:
        raise NotImplementedError

    def reference(self, cfg: dict):
        """Exact data for the check, computed once outside the timed region."""
        return None

    def check(self, out: Path, reference) -> None:
        raise NotImplementedError

    def expected_counts(self, counts: dict) -> dict:
        """Trace counts the config implies, keyed as in ``Tracer.counts``."""
        raise NotImplementedError


class RiskCurve(Workload):
    """README default risk curve; op = one replication."""

    name = "risk_curve"
    command = "risk-curve"

    def __init__(self, replications=100, n_grid=(100, 300, 1000, 3000)):
        self.params = {"p": 8, "k": 2, "n_grid": list(n_grid),
                       "replications": replications, "caps": [2, 4, 40],
                       "pool_size": 64, "anchor_jitter": 1}

    def config(self, seed):
        return {**self.params, "seed": seed}

    def ops(self):
        return self.params["replications"] * len(self.params["n_grid"])

    def check(self, out, reference):
        header, rows = _read_csv(out)
        _require(header == ["n", "empirical_mean_h2", "oracle_bound", "normalized"],
                 f"unexpected header {header}")
        _require([int(r[0]) for r in rows] == self.params["n_grid"],
                 "rows do not follow n_grid")
        values = np.array([[float(x) for x in r] for r in rows])
        _require(np.all(np.isfinite(values)) and np.all(values[:, 1:] > 0),
                 "non-finite or non-positive risk row")
        n, mean = values[:, 0], values[:, 1]
        k, p = self.params["k"], self.params["p"]
        normalized = mean * n / (k * 2 * p * np.log(n))
        _require(np.allclose(normalized, values[:, 3], rtol=1e-12, atol=0),
                 "normalized column disagrees with mean_h2 * n / (2kp log n)")
        x, y = np.log(n), np.log(mean)
        slope = float(np.sum((x - x.mean()) * (y - y.mean()))
                      / np.sum((x - x.mean()) ** 2))
        meta = json.loads(Path(f"{out}.meta.json").read_text())
        _require(abs(slope - meta["slope"]) <= 1e-9,
                 f"meta slope {meta['slope']} != least-squares slope {slope}")
        _require(-1.5 <= slope <= -0.5, f"slope {slope} outside [-1.5, -0.5]")
        _require(normalized.max() <= 10 * normalized.min(),
                 "normalized risk varies by more than a factor 10")

    def expected_counts(self, counts):
        reps = self.params["replications"]
        return {
            "experiments.run_risk_curve.calls": 1,
            "estimator.build_candidates.calls": self.ops(),
            "estimator.select.calls": self.ops(),
            "hellinger.hellinger.calls": self.ops(),
            "sampling.sample_table.draws": reps * sum(self.params["n_grid"]),
            # one truth table per replication plus one per candidate
            "core.density_table.calls": (self.ops()
                                         + counts.get("estimator.candidates", 0)),
            "cli.write.rows": len(self.params["n_grid"]),
        }


class BoundsSweep(Workload):
    """Random instances of the three distance inequalities; op = instance."""

    name = "bounds_sweep"
    command = "bounds-sweep"

    def __init__(self, instances=1000):
        self.instances = instances

    def config(self, seed):
        return {"instances": self.instances, "p_max": 6, "rank_max": 3,
                "seed": seed}

    def ops(self):
        return self.instances

    def check(self, out, reference):
        meta = json.loads(Path(f"{out}.meta.json").read_text())
        _require(meta.get("violations") == 0,
                 f"meta reports {meta.get('violations')} violations")
        header, rows = _read_csv(out)
        _require(header == ["instance_id", "inequality_id", "lhs", "rhs", "slack"],
                 f"unexpected header {header}")
        _require(len(rows) == len(SWEEP_LABELS) * self.instances,
                 f"{len(rows)} rows for {self.instances} instances")
        for i, row in enumerate(rows):
            label = SWEEP_LABELS[i % len(SWEEP_LABELS)]
            _require(row[:2] == [str(i // len(SWEEP_LABELS)), label],
                     f"row {i} is {row[:2]}, expected instance "
                     f"{i // len(SWEEP_LABELS)} {label}")
        lhs, rhs, slack = (np.array([float(r[c]) for r in rows]) for c in (2, 3, 4))
        _require(np.all(np.isfinite(lhs) & np.isfinite(rhs)), "non-finite side")
        _require(np.array_equal(slack, rhs - lhs), "slack column != rhs - lhs")
        worst = int(np.argmin(slack))
        _require(slack[worst] >= -SLACK_TOL,
                 f"row {worst} violates its inequality by {-slack[worst]:.3e}")

    def expected_counts(self, counts):
        return {
            "experiments.run_bounds_sweep.calls": 1,
            "hellinger.check_bound_projection.calls": self.instances,
            "hellinger.check_bound_mixture.calls": self.instances,
            "hellinger.check_bound_dpp.calls": self.instances,
            "cli.write.rows": len(SWEEP_LABELS) * self.instances,
        }


class SampleSeq(Workload):
    """Sequential projection sampler, no table; op = draw."""

    name = "sample_seq"
    command = "sample"

    def __init__(self, p=12, rank=6, draws=10_000):
        self.p, self.rank, self.draws = p, rank, draws

    def config(self, seed):
        fam, spec = _haar_params(self.p, self.rank, seed)
        return {"params": params_to_dict(fam, spec), "n": self.draws, "seed": seed}

    def ops(self):
        return self.draws

    def reference(self, cfg):
        probs = complement_table(*_family(cfg["params"]))
        _require(abs(math.fsum(probs) - 1.0) <= MASS_TOL,
                 "reference table does not sum to 1")
        return probs

    def check(self, out, reference):
        header, rows = _read_csv(out)
        _require(header == ["draw_index", "config_bitmask"], f"unexpected header {header}")
        _require(len(rows) == self.draws, f"{len(rows)} draws, expected {self.draws}")
        _require([int(r[0]) for r in rows] == list(range(self.draws)),
                 "draw_index is not 0..n-1")
        masks = np.array([int(r[1]) for r in rows], dtype=np.int64)
        bad = np.nonzero((masks < 0) | (masks >= 1 << self.p))[0]
        _require(bad.size == 0, f"draw {bad[:1]} has a mask outside [0, 2^{self.p})")
        sizes = np.array([bin(m).count("1") for m in masks])
        _require(sizes.max() <= self.rank,
                 f"a draw has {sizes.max()} points, rank is {self.rank}")
        pvalue = chi2_pvalue(masks, reference)
        _require(pvalue >= CHI2_FALSE_ALARM,
                 f"draws fail the chi-square test against the exact table "
                 f"(p-value {pvalue:.3e} < {CHI2_FALSE_ALARM})")

    def expected_counts(self, counts):
        return {
            "sampling.sample_dpp.calls": 1,
            "sampling.sample_dpp.draws": self.draws,
            "core.density_table.calls": 0,
            "cli.write.rows": self.draws,
        }


class TableLarge(Workload):
    """One exhaustive density table; op = configuration."""

    name = "table_large"
    command = "density"
    spot_checks = 48

    def __init__(self, p=15, rank=7):
        self.p, self.rank = p, rank

    def config(self, seed):
        fam, spec = _haar_params(self.p, self.rank, seed)
        return {"params": params_to_dict(fam, spec), "seed": seed}

    def ops(self):
        return 1 << self.p

    def reference(self, cfg):
        """Complement-determinant table plus mixture-sum and L-ensemble
        values on a seeded set of configurations of size <= rank."""
        cols, lam = _family(cfg["params"])
        gen = SeededRng(cfg["seed"]).split(1).generator
        density = DppDensity(OrthonormalFamily(cols), Spectrum(lam))
        spots = {}
        for _ in range(self.spot_checks):
            size = int(gen.integers(0, self.rank + 1))
            members = gen.choice(self.p, size=size, replace=False) + 1
            alpha = Config(members)
            spots[alpha.mask] = (dpp_density_eval(density, alpha),
                                 l_ensemble_oracle(density, alpha))
        return complement_table(cols, lam), spots

    def check(self, out, reference):
        exact, spots = reference
        header, rows = _read_csv(out)
        _require(header == ["config_bitmask", "probability"], f"unexpected header {header}")
        _require(len(rows) == 1 << self.p, f"{len(rows)} rows, expected 2^{self.p}")
        _require([int(r[0]) for r in rows] == list(range(1 << self.p)),
                 "bitmasks are not 0..2^p-1 in order")
        probs = np.array([float(r[1]) for r in rows])
        _require(np.all(probs >= 0.0), f"negative entry {probs.min():.3e}")
        total = math.fsum(probs)
        _require(abs(total - 1.0) <= MASS_TOL, f"entries sum to {total!r}")
        worst = int(np.argmax(np.abs(probs - exact)))
        _require(abs(probs[worst] - exact[worst]) <= ENTRY_TOL,
                 f"entry {worst} is {probs[worst]!r}, complement route gives "
                 f"{exact[worst]!r}")
        for mask, (mixture, ensemble) in spots.items():
            for route, value in (("mixture-sum", mixture), ("L-ensemble", ensemble)):
                _require(abs(probs[mask] - value) <= ENTRY_TOL,
                         f"entry {mask} is {probs[mask]!r}, {route} gives {value!r}")

    def expected_counts(self, counts):
        return {
            "core.density_table.calls": 1,
            "core.density_table.configs": 1 << self.p,
            "sampling.sample_dpp.draws": 0,
            "cli.write.rows": 1 << self.p,
        }


def _family(params):
    """(columns, lambda) arrays straight from the params JSON."""
    p = params["p"]
    lam = np.asarray(params["lambda"], dtype=float)
    flat = np.array([complex(re, im) for re, im in params["phi"]])
    return flat.reshape(lam.size, p).T, lam


WORKLOADS = {w.name: w for w in (RiskCurve(), BoundsSweep(), SampleSeq(), TableLarge())}
