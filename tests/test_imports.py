"""Cold-start guards: the CLI import path loads numpy and detproc only.

scipy backs two routes that no CLI command takes (the pivoted-QR oracle
``core.abs_det`` and the chi-square p-value of ``run_sampler_check``), and
importing it costs about a second per command. numpy.random (which numpy
loads lazily) and locale (which argparse's gettext loads when the first
parser is built) are loaded with the package, so that their imports land in
set-up rather than inside the first command. Both checks run in a fresh child
interpreter, since this test process has long since imported scipy. The last
three checks load the benchmark's modules and install its tracer, so that a
name or config field the benchmark needs cannot disappear from the package
unnoticed, and a traced command cannot drift from the counts its config
implies.
"""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from detproc.core import Spectrum, haar_orthonormal, params_to_dict
from detproc.rng import SeededRng

SRC = Path(__file__).resolve().parents[1] / "src"
BENCH = SRC.parent / "bench"

REFUSE_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"import of {name} refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
"""


def run_child(code, *args):
    """Run code in a fresh interpreter with src on its path; parse the
    JSON object on its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def test_cli_import_loads_no_scipy_and_loads_lazy_modules_eagerly():
    loaded, _ = run_child("""
        import json, sys
        import detproc.cli
        print(json.dumps({
            "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
            "eager": [m for m in ("numpy.random", "locale") if m in sys.modules],
        }))
    """)
    assert loaded == {"scipy": [], "eager": ["numpy.random", "locale"]}


def test_every_command_runs_with_scipy_refused(tmp_path):
    params = params_to_dict(haar_orthonormal(5, 2, SeededRng(111)),
                            Spectrum(np.array([0.9, 0.6])))
    basis = [[float(x), 0.0] for x in np.eye(5).reshape(-1)]
    configs = {
        "sample": {"params": params, "n": 50, "seed": 1},
        "density": {"params": params},
        "hellinger": {"params_a": params, "params_b": params},
        "bounds-sweep": {"instances": 15, "seed": 2},
        "isometry-sweep": {"instances": 15, "seed": 3},
        "estimate": {
            "models": [{"id": 0, "p": 5, "dim": 5, "basis": basis,
                        "prior": 1.0}],
            "n": 40,
            "caps": {"j_max": 1, "per_net": 4, "family_max": 15},
            "pool_size": 32, "seed": 4, "truth": params,
        },
        # a fitted slope of -1.15 and a factor of 2.4, inside both checks
        "risk-curve": {"p": 4, "k": 1, "n_grid": [30, 300],
                       "replications": 3, "caps": [1, 4, 8],
                       "pool_size": 16, "seed": 5},
    }
    for command, config in configs.items():
        (tmp_path / f"{command}.json").write_text(json.dumps(config))
    codes, stderr = run_child(REFUSE_SCIPY + """
import json, os, sys
from detproc.cli import COMMANDS, main

workdir = sys.argv[1]
codes = {}
for command in sorted(COMMANDS):
    base = os.path.join(workdir, command)
    codes[command] = main([command, "--config", base + ".json",
                           "--out", base + ".out"])
print(json.dumps(codes))
""", str(tmp_path))
    assert codes == dict.fromkeys(configs, 0), stderr
    assert stderr == ""
    for command in configs:
        assert (tmp_path / f"{command}.out").stat().st_size > 0


def test_benchmark_tracer_binds_every_name_it_wraps():
    # bench/run.py imports these modules and wraps detproc functions by
    # name; a deleted or renamed binding must fail here, not only there
    wrapped, _ = run_child(f"""
        import json, sys
        sys.path.insert(0, {str(BENCH)!r})
        import detproc.cli
        import detproc.sampling
        import tracing, workloads

        original = detproc.sampling.sample_dpp
        tracer = tracing.Tracer()
        tracer.install()
        swapped = detproc.sampling.sample_dpp is not original
        tracer.uninstall()
        print(json.dumps({{
            "swapped": swapped,
            "restored": detproc.sampling.sample_dpp is original,
            "workloads": sorted(workloads.WORKLOADS),
        }}))
    """)
    assert wrapped == {"swapped": True, "restored": True, "workloads": [
        "bounds_sweep", "risk_curve", "sample_seq", "table_large"]}


def test_benchmark_counts_match_what_each_config_implies(tmp_path):
    # bench/run.py --trace 1 fails a run whose traced counts differ from
    # Workload.expected_counts; each workload's command at a tiny size here
    result, _ = run_child(f"""
        import json, os, sys
        sys.path.insert(0, {str(BENCH)!r})
        import detproc.cli
        import tracing, workloads

        workdir = sys.argv[1]
        tiny = [workloads.RiskCurve(replications=2, n_grid=(100, 300)),
                workloads.BoundsSweep(instances=3),
                workloads.SampleSeq(p=6, rank=3, draws=50),
                workloads.TableLarge(p=6, rank=3)]
        result = {{}}
        for workload in tiny:
            base = os.path.join(workdir, workload.name)
            with open(base + ".json", "w") as fh:
                json.dump(workload.config(0), fh)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                rc = detproc.cli.main([workload.command, "--config", base + ".json",
                                       "--out", base + ".out"])
            finally:
                tracer.uninstall()
            counts = tracer.counts()
            result[workload.name] = [rc, {{
                key: [counts.get(key, 0), want]
                for key, want in workload.expected_counts(counts).items()
                if counts.get(key, 0) != want}}]
        print(json.dumps(result))
    """, str(tmp_path))
    assert result == {name: [0, {}] for name in (
        "risk_curve", "bounds_sweep", "sample_seq", "table_large")}


def test_benchmark_configs_build_their_config_classes():
    # the CLI hands a config object to its class unchanged, so a renamed or
    # deleted field would make the benchmark's own config an exit-2 run
    pairs, _ = run_child(f"""
        import json, sys
        sys.path.insert(0, {str(BENCH)!r})
        from detproc.experiments import BoundsSweepConfig, RiskCurveConfig
        from workloads import WORKLOADS

        pairs = []
        for name, config_class in (("bounds_sweep", BoundsSweepConfig),
                                   ("risk_curve", RiskCurveConfig)):
            cfg = WORKLOADS[name].config(0)
            pairs.append([vars(config_class(**cfg)), cfg])
        print(json.dumps(pairs))
    """)
    assert len(pairs) == 2
    for built, given in pairs:
        assert built == given
