"""Spawns the benchmark's processes one at a time and reports each one's rusage.

Linux carries the peak RSS of a process's memory into ru_maxrss of a child
that execs from it, so a job spawned by ``run.py`` (which imports trigvee
and parses large outputs) would report at least the peak of ``run.py``
itself.  This launcher stays small, so each job's ru_maxrss is the job's
own.

Protocol: one JSON request per line on stdin, ``{"argv", "out", "timeout"}``;
one JSON reply per line on stdout, ``{"wall", "cpu", "rss_mb", "exit_code",
"timed_out"}``.  stdout and stderr of the job go to ``out`` and
``out + ".err"``.  The launcher exits when stdin closes.
"""

import json
import os
import signal
import sys
import threading
import time

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def run(argv: list, out: str, timeout: float) -> dict:
    fds = [os.open(out, FLAGS, 0o644), os.open(out + ".err", FLAGS, 0o644)]
    actions = [(os.POSIX_SPAWN_DUP2, fds[0], 1), (os.POSIX_SPAWN_DUP2, fds[1], 2)]
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}

    def kill():
        with lock:
            if not state["exited"]:
                state["timed_out"] = True
                os.kill(pid, signal.SIGKILL)

    t0 = time.perf_counter()
    try:
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    finally:
        for fd in fds:
            os.close(fd)
    timer = threading.Timer(max(timeout, 1.0), kill)
    timer.start()
    # wait without reaping, so the timer can never signal a reused pid
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    with lock:
        state["exited"] = True
    timer.cancel()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": os.waitstatus_to_exitcode(status),
        "timed_out": state["timed_out"],
    }


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps(run(req["argv"], req["out"], req["timeout"])) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
