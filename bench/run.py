"""Benchmark of the detproc command line, one workload per run.

    python3 bench/run.py                                  # every workload
    python3 bench/run.py --workload table_large --seed 7 --seconds 25
    python3 bench/run.py --workload risk_curve --trace 1  # per-layer metrics

Load is closed-loop: one client runs one CLI command at a time, each in a
fresh process, until the next command would overrun ``--seconds``. Every
output is checked. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from BENCHMARK.json. Without ``--trace``, the line before it is
a JSON object ``{"unscaled": {...}}`` with the measured, unscaled times and
the median host tick. See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("risk_curve", "bounds_sweep", "sample_seq", "table_large")
# One client runs at a time, so BLAS threads would only compete with it and
# add noise; 1 is also <= nproc on any machine.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
# The host's speed drifts between states lasting seconds to minutes: one
# fixed command took 1.5 s to 2.9 s within two minutes on the baseline
# machine, and run-to-run spreads of raw times reached 28%. While a child
# runs, the benchmark times a short fixed loop every TICK_INTERVAL_S on its
# own thread's CPU clock, and scales the child's times by
# REFERENCE_TICK_S / (median tick). The loop needs no second core, and its
# CPU clock does not count time spent waiting for one. bench/tickcheck.py
# checks how the child's own load moves the tick (bench/README.md).
TICK_INTERVAL_S = 0.1
REFERENCE_TICK_S = 0.0012  # median tick on the baseline machine
COMMAND_TIMEOUT_S = 150


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def host_tick() -> float:
    """CPU seconds of a fixed interpreter loop (about a millisecond)."""
    start = time.thread_time()
    total = 0
    for i in range(20_000):
        total += i % 7
    return time.thread_time() - start


def _spawn(argv, env, workdir) -> dict:
    """Run bench/child.py in a fresh interpreter and tick while it runs.

    Times come from the child's own report; ``scale`` converts them to the
    reference host speed.
    """
    ticks = []
    start = time.monotonic()
    with open(workdir / "child.out", "w+") as out, \
            open(workdir / "child.err", "w+") as err:
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *argv],
                                env=env, cwd=ROOT, stdout=out, stderr=err)
        try:
            while proc.poll() is None:
                if time.monotonic() - start > COMMAND_TIMEOUT_S:
                    return {"error": f"timed out after {COMMAND_TIMEOUT_S} s",
                            "total_s": time.monotonic() - start}
                ticks.append(host_tick())
                time.sleep(TICK_INTERVAL_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        total = time.monotonic() - start
        out.seek(0)
        err.seek(0)
        lines = out.read().strip().splitlines()
        stderr_tail = (err.read().strip().splitlines() or ["no stderr"])[-1]
    if not lines:
        return {"error": f"exit code {proc.returncode}: {stderr_tail}",
                "total_s": total}
    report = json.loads(lines[-1])
    tick = statistics.median(ticks or [host_tick()])
    return {
        "error": f"exit code {report['rc']}: {stderr_tail}" if report["rc"] else None,
        "setup_s": report["t_ready"] - start,
        "wall_s": report["t_done"] - report["t_ready"],
        "rss_mb": report["maxrss_kb"] / 1024.0,
        "total_s": total,
        "tick_s": tick,
        "scale": REFERENCE_TICK_S / tick,
    }


def _check(workload, out, reference):
    """None when the command's output passes the workload's checks."""
    from workloads import CheckError
    try:
        workload.check(out, reference)
    except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
        return f"output check: {exc}"
    return None


def _prepare(workload, seed, workdir):
    cfg = workload.config(seed)
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = workdir / "out.csv"
    argv = [workload.command, "--config", str(cfg_path), "--out", str(out)]
    return argv, out, workload.reference(cfg)


def _clear(out):
    for path in out.parent.glob(out.name + "*"):
        path.unlink()


def run_end_to_end(workload, seed, seconds, workdir):
    """Closed loop of fresh-process commands; end-to-end metrics."""
    argv, out, reference = _prepare(workload, seed, workdir)
    env = _child_env()
    runs, errors = [], []
    busy = 0.0
    while True:
        _clear(out)
        run = _spawn(argv, env, workdir)
        error = run["error"] or _check(workload, out, reference)
        if error:
            errors.append(error)
        runs.append(run)
        busy += run["total_s"]
        if busy + statistics.median(r["total_s"] for r in runs) > seconds:
            break
    timed = [r for r in runs if "wall_s" in r]
    setups = timed[:]
    while len(setups) < SETUP_SAMPLES:  # set-up only: import, then exit
        probe = _spawn([], env, workdir)
        if probe["error"]:
            raise RuntimeError(f"set-up probe failed: {probe['error']}")
        setups.append(probe)
    raw, metrics = {}, {}
    if timed:
        raw = {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "wall_s": statistics.median(r["wall_s"] for r in timed),
            "tick_s": statistics.median(r["tick_s"] for r in timed),
        }
        wall = statistics.median(r["wall_s"] * r["scale"] for r in timed)
        metrics = {
            "setup_s": statistics.median(r["setup_s"] * r["scale"] for r in setups),
            "wall_s": wall,
            "ops_per_s": workload.ops() / wall,
            "peak_rss_mb": max(r["rss_mb"] for r in timed),
        }
    return len(runs), errors, metrics, raw


def run_traced(workload, seed, workdir):
    """Untraced, traced, untraced in-process commands; per-layer metrics.

    The traced command's counts must equal the counts its config implies,
    so a call that escaped the wrappers fails the run.
    """
    import detproc.cli
    from tracing import Tracer, layer_metrics

    argv, out, reference = _prepare(workload, seed, workdir)

    def once():
        _clear(out)
        start = time.perf_counter()
        try:
            rc = detproc.cli.main(argv)
        except Exception as exc:  # a crash is a failed run, not a dead benchmark
            return time.perf_counter() - start, "".join(
                traceback.format_exception_only(exc)).strip()
        wall = time.perf_counter() - start
        return wall, (f"exit code {rc}" if rc else _check(workload, out, reference))

    wall_before, error_before = once()
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, error_traced = once()
    finally:
        tracer.uninstall()
    wall_after, error_after = once()
    counts = tracer.counts()
    mismatches = [f"{key} = {counts.get(key, 0)}, config implies {want}"
                  for key, want in workload.expected_counts(counts).items()
                  if counts.get(key, 0) != want]
    if mismatches and not error_traced:
        error_traced = "trace count check: " + "; ".join(mismatches)
    errors = [e for e in (error_before, error_traced, error_after) if e]
    metrics = layer_metrics(tracer, traced_wall, (wall_before + wall_after) / 2)
    return 3, errors, metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to measure; the standard invocation "
                        "passes run_seconds from BENCHMARK.json, which is "
                        "also the default")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "detproc" / "cli.py").is_file():
        print(f"error: no detproc sources under {SRC}; run from a detproc "
              "checkout", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy first loads it.
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    sys.path.insert(0, str(SRC))
    import detproc
    if Path(detproc.__file__).resolve().parent != (SRC / "detproc").resolve():
        print(f"error: detproc imported from {detproc.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    print(f"# BLAS threads {BLAS_THREADS} ({', '.join(BLAS_VARS)}), "
          f"nproc {os.cpu_count()}, seed {args.seed}")
    attempted, failed, metrics, unscaled = 0, 0, {}, {}
    workdir_root = ROOT / ".bench_work"
    for name in names:
        workdir = workdir_root / f"{name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            if args.trace:
                runs, errors, values, raw = run_traced(
                    WORKLOADS[name], args.seed, workdir)
            else:
                runs, errors, values, raw = run_end_to_end(
                    WORKLOADS[name], args.seed, seconds, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if values and set(values) != set(units):
            raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                               "differ from BENCHMARK.json")
        attempted += runs
        failed += len(errors)
        for error in errors:
            print(f"{name}: FAILED {error}", file=sys.stderr)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in units.items():
            if metric in values:
                value = values[metric]
                shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6f}"
                print(f"{name:13} {metric:40} {shown} {unit}")
                metrics[prefix + metric] = {"value": value, "unit": unit}
        print(f"{name:13} {'fail_ratio':40} {len(errors) / runs:16.6f} ratio "
              f"({len(errors)} of {runs} runs)")
        unscaled.update({prefix + key: value for key, value in raw.items()})
    try:
        workdir_root.rmdir()
    except OSError:
        pass
    if not args.trace:
        print(json.dumps({"unscaled": unscaled,
                          "reference_tick_s": REFERENCE_TICK_S}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
