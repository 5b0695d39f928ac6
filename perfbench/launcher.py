"""Spawn and reap the benchmark's child processes, one at a time.

The harness starts this process before it imports numpy and keeps it for
the whole run.  Linux carries the parent's peak RSS into a child across
fork and exec, so spawning from the harness itself, which holds fields and
oracle outputs, would inflate each child's ``ru_maxrss``.  This process
stays small.

Protocol: one JSON request per line on stdin,
``{"argv", "cwd", "env", "stdout", "stderr", "timeout"}``; one JSON reply
per line on stdout, ``{"t_spawn", "wall_s", "cpu_s", "returncode",
"maxrss_mib"}``.  ``t_spawn`` is on CLOCK_MONOTONIC, which every process on
the machine shares; ``cpu_s`` is the child's user plus system time.  The
process exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdout=out, stderr=err)
        watchdog = threading.Timer(req["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"t_spawn": t_spawn, "wall_s": t_exit - t_spawn,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "returncode": proc.returncode,
            "maxrss_mib": usage.ru_maxrss / 1024.0}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
