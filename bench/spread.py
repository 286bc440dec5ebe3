"""Run the benchmark over ten seeds and report each metric's spread.

    python3 bench/spread.py                              # one ten-seed set
    python3 bench/spread.py --out bench/baseline.json    # two sets, recorded

For every workload and end-to-end metric it prints the median of the
per-seed values and the quartile spread (q3 - q1) / median, as
``statistics.quantiles(values, n=4)`` gives the quartiles, next to a third
of the metric's bound. ``--out`` runs the ten seeds twice, one whole set
after the other, and prints how far each median of the second set lies from
the first, next to the metric's bound. It then makes one traced run per
workload and writes the machine facts, every per-seed value of both sets
with its unscaled times, the summaries and the agreement to a JSON file.
The exit code is 1 when a spread reaches a third of its bound or two
medians differ by more than the bound.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from run import BLAS_THREADS, BLAS_VARS, WORKLOAD_NAMES  # noqa: E402

SEEDS = list(range(1, 11))


def run_once(workload, seed, seconds, trace=0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not trace:  # measured times and host tick, for the record
        values["unscaled"] = json.loads(lines[-2])["unscaled"]
    return values


def summary(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def machine_facts() -> dict:
    import numpy
    import scipy
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": BLAS_THREADS,
        "blas_thread_vars": list(BLAS_VARS),
    }


def one_set(spec) -> tuple[dict, bool]:
    """Every workload once per seed; per-seed values and spreads."""
    result, steady = {}, True
    for workload in WORKLOAD_NAMES:
        per_seed = [run_once(workload, seed, spec["run_seconds"])
                    for seed in SEEDS]
        entry = {"per_seed": per_seed, "end_to_end": {}}
        for metric in spec["end_to_end"]:
            name, third = metric["name"], metric["bound"] / 3
            stats = summary([values[name] for values in per_seed])
            stats["unit"] = metric["unit"]
            entry["end_to_end"][name] = stats
            ok = stats["spread"] < third
            steady &= ok
            print(f"{workload:13} {name:12} median {stats['median']:12.5g} "
                  f"{metric['unit']:4} spread {stats['spread']:7.4f} "
                  f"(bound/3 {third:.4f}){'' if ok else '  WIDE'}", flush=True)
        result[workload] = entry
    return result, steady


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, steady = one_set(spec)
    if not args.out:
        return 0 if steady else 1
    print("second set", flush=True)
    second, steady_again = one_set(spec)
    steady &= steady_again
    agreement = {}
    for workload in WORKLOAD_NAMES:
        agreement[workload] = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before = first[workload]["end_to_end"][name]["median"]
            after = second[workload]["end_to_end"][name]["median"]
            change = (after - before) / before
            ok = abs(change) <= metric["bound"]
            steady &= ok
            agreement[workload][name] = change
            print(f"{workload:13} {name:12} median change {change:+8.4f} "
                  f"(bound {metric['bound']}){'' if ok else '  APART'}",
                  flush=True)
    report = {
        "seconds": spec["run_seconds"],
        "seeds": SEEDS,
        "machine": machine_facts(),
        "computed_counts": [m["name"] for m in spec["per_layer"]
                            if m["unit"] == "computed_count"],
        "sets": [first, second],
        "agreement": agreement,
        "per_layer": {workload: run_once(workload, SEEDS[0],
                                         spec["run_seconds"], trace=1)
                      for workload in WORKLOAD_NAMES},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
