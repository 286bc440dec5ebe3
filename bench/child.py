"""Run one detproc CLI command in a fresh process and report its timings.

    python3 bench/child.py [<detproc argv>...]

With no arguments the process only sets up (imports ``detproc.cli``) and
exits. The last stdout line is a JSON object: ``t_ready`` and ``t_done``
on the CLOCK_MONOTONIC time base shared with the parent, the command's exit
code ``rc`` and the peak resident set ``maxrss_kb``. The parent sets
PYTHONPATH so that ``detproc`` comes from the checkout's ``src``.
"""
import json
import resource
import sys
import time

import detproc.cli


if __name__ == "__main__":
    t_ready = time.monotonic()
    rc = detproc.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
    t_done = time.monotonic()
    print(json.dumps({
        "t_ready": t_ready,
        "t_done": t_done,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    sys.exit(rc)
