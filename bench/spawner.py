"""Lean job spawner: runs one child at a time and reports its resource use.

Started once per benchmark run with ``python -S -E``, so it stays far
smaller than any padicq process.  A child's peak RSS, as the kernel reports
it, starts at the high-water mark of whoever spawned it; spawning from this
process instead of the larger harness keeps ``peak_rss_mb`` the program's
own.

Protocol: one JSON line per job on stdin,
``{"argv": [...], "out": path, "err": path, "timeout": seconds}``; one JSON
line per finished job on stdout with the spawn and reap times
(``time.perf_counter``, the system-wide monotonic clock), the exit code and
the child's rusage.  A child still running at its timeout is killed.
"""

import json
import os
import signal
import sys
import time


def run(job: dict) -> dict:
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, job["out"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, job["err"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    argv = job["argv"]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, max(job["timeout"], 0.001))
    try:
        _, status, ru = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    t1 = time.perf_counter()
    return {"t0": t0, "t1": t1, "rc": os.waitstatus_to_exitcode(status),
            "cpu_s": ru.ru_utime + ru.ru_stime, "maxrss_kb": ru.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
