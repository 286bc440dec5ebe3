"""Check how the host tick depends on the child's own load.

    python3 bench/tickcheck.py

run.py scales a child's times by the median of ticks taken while the child
runs. This script runs each workload's command (seed 1) several times. For
each command it ticks as run.py does while the child runs, and also ticks
in a window just before and just after it, while no child runs. It prints,
per workload:

- the median ratio of the tick during the child to the tick around it. A
  ratio above 1 would mean the child slows the tick (a shared core, caches
  or memory bandwidth), so that scaling would credit a heavier child;
- the coefficient of variation of the command's wall time: raw, scaled by
  the tick during it (as run.py does), and scaled by the tick around it. A
  scaling that tracks the host's drift lowers it.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from run import (BLAS_THREADS, BLAS_VARS, ROOT, SRC,  # noqa: E402
                 TICK_INTERVAL_S, WORKLOAD_NAMES, _child_env, _prepare,
                 host_tick)

ROUNDS = {"risk_curve": 6}
DEFAULT_ROUNDS = 10


def _cv(values) -> float:
    return statistics.pstdev(values) / statistics.fmean(values)


def _tick_window() -> list:
    """Ticks over 0.2 s while no child runs."""
    ticks = []
    for _ in range(10):
        ticks.append(host_tick())
        time.sleep(0.02)
    return ticks


def one_command(argv, env):
    around = _tick_window()
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), *argv],
                            env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    during = []
    while proc.poll() is None:
        during.append(host_tick())
        time.sleep(TICK_INTERVAL_S)
    report = json.loads(proc.communicate()[0].strip().splitlines()[-1])
    if report["rc"]:
        raise RuntimeError(f"exit code {report['rc']}")
    around += _tick_window()
    return (report["t_done"] - report["t_ready"], statistics.median(around),
            statistics.median(during))


def main() -> int:
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    env = _child_env()
    workdir = ROOT / ".bench_work" / f"tickcheck-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOAD_NAMES:
            argv, _, _ = _prepare(WORKLOADS[name], 1, workdir)
            rows = [one_command(argv, env)
                    for _ in range(ROUNDS.get(name, DEFAULT_ROUNDS))]
            walls, around, during = zip(*rows)
            ratio = statistics.median(d / a for d, a in zip(during, around))
            print(f"{name:13} tick during/around {ratio:.4f}; wall time CV "
                  f"raw {_cv(walls):.4f}, "
                  f"during {_cv([w / d for w, d in zip(walls, during)]):.4f}, "
                  f"around {_cv([w / a for w, a in zip(walls, around)]):.4f}",
                  flush=True)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
