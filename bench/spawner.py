"""Start the benchmark's child processes from a small process.

    python3 bench/spawner.py

Reads one JSON job per line on standard input (``argv``, ``cwd``, ``env``,
``log``), runs it to the end and answers one JSON line with its wall time,
exit code, and the child's own rusage (peak RSS, CPU time). Exits when its
standard input closes.

Linux carries the peak RSS of the process that starts a child into the
child's rusage across exec, so a child of the benchmark process, which holds
the generated plan, would report at least the benchmark's own size.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

RUN_TIMEOUT_S = 120


def run_child(argv: list, cwd: str, env: dict, log: str) -> dict:
    """Run one child process; wall time and its own rusage (not its children's)."""
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        _pid, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024,
            "cpu_s": usage.ru_utime + usage.ru_stime, "exit": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run_child(**json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
