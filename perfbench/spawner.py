"""Starts the benchmark's child processes from a small process.

Linux reports a child's peak RSS (``ru_maxrss``) as at least the peak
RSS of the process that spawned it, because the spawner's memory map is
the one the child replaces at exec.  The benchmark process holds parsed
outputs and oracle decisions, so children spawned from it would report
its size, not their own.  This helper stays small: ``run.py`` starts it
before doing anything large and sends it one request per child.

Protocol, one JSON line each way:
request ``{"argv": [...], "env": {...}, "stdout": path, "stderr": path}``
(``argv`` without the interpreter), reply
``[wall_seconds, exit_code, max_rss_kib]``.  End of input ends the
helper.
"""

import json
import os
import sys
import time

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], FLAGS, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], FLAGS, 0o644),
        ]
        argv = [sys.executable, *request["argv"]]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, request["env"], file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        print(json.dumps([wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
