"""Spawner for the benchmark's child processes.

Reads one JSON job per line on stdin: ``argv``, ``out``, ``err`` (files for
the child's stdout and stderr) and ``timeout`` in seconds.  Runs the child,
waits for it and writes one JSON line back: ``t0`` and ``t1`` (perf_counter
at spawn and at reap), the exit ``code``, the child's own ``maxrss_kb`` from
``wait4`` and ``timed_out``.  A child that outlives its timeout is killed.

It runs as its own small process because Linux carries the spawning
process's peak RSS into the child's ``ru_maxrss`` across vfork and exec; a
harness that holds reference values would otherwise raise every reading.
"""

import json
import os
import select
import signal
import sys
import time


def run(job: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, job["out"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, job["err"], flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(job["argv"][0], job["argv"], os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], job["timeout"])
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        t1 = time.perf_counter()
    finally:
        os.close(pidfd)
    return {"t0": t0, "t1": t1, "code": os.waitstatus_to_exitcode(status),
            "maxrss_kb": usage.ru_maxrss, "timed_out": not ready}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
