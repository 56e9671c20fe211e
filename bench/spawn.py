"""Closed-loop CLI runner: one `python -m entroscope` child in flight at a time.

Children are started by a small launcher process (this file run as a
script) rather than by the benchmark itself.  Linux charges a vfork'd
child the peak RSS of the process it was spawned from, so spawning from
the benchmark, which holds numpy and the inputs, would put a floor of
the benchmark's own size under every child's `ru_maxrss`.  The launcher
imports nothing heavy.  It starts each child with posix_spawn, reaps it
with os.wait4, and returns the child's wall time from spawn to exit with
its own rusage: user+sys CPU and peak RSS.  Output goes to files.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

# One BLAS/OpenMP thread per child: otherwise idle BLAS threads spin and
# count as CPU time, and a 2-core box runs children against each other.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

CHILD_TIMEOUT_S = 60.0


def child_env(src: Path) -> dict[str, str]:
    """The environment every child gets: the checkout's sources, pinned threads."""
    env = dict(os.environ)
    env.pop("ENTROSCOPE_SEED", None)
    env["PYTHONPATH"] = str(src)
    env.update(THREAD_PINS)
    return env


class Sample(NamedTuple):
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit_code: int
    stdout: str
    stderr: str


def _run_child(argv: list[str], out: str, err: str) -> dict:
    """Run `python <argv>` to completion; kill it after CHILD_TIMEOUT_S."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ, file_actions=actions)
    try:
        fd = os.pidfd_open(pid)
        try:
            if not select.select([fd], [], [], CHILD_TIMEOUT_S)[0]:
                os.kill(pid, signal.SIGKILL)
        finally:
            os.close(fd)
    finally:
        _, status, usage = os.wait4(pid, 0)
    return {
        "wall_s": time.perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "exit_code": os.waitstatus_to_exitcode(status),
    }


def serve() -> None:
    """Launcher loop: one JSON request [argv, out, err] per line, one reply per line."""
    for line in sys.stdin:
        argv, out, err = json.loads(line)
        sys.stdout.write(json.dumps(_run_child(argv, out, err)) + "\n")
        sys.stdout.flush()


class Spawner:
    """Client of one launcher; children see `env` and write output under `scratch`."""

    def __init__(self, env: dict[str, str], scratch: Path):
        scratch.mkdir(parents=True, exist_ok=True)
        self.out = scratch / "stdout.txt"
        self.err = scratch / "stderr.txt"
        self._launcher = subprocess.Popen(
            [sys.executable, __file__], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def run(self, argv: list[str]) -> Sample:
        """Run `python <argv>` in the launcher and collect its result."""
        self._launcher.stdin.write(json.dumps([argv, str(self.out), str(self.err)]) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self._launcher.wait()}")
        return Sample(**json.loads(reply), stdout=self.out.read_text(), stderr=self.err.read_text())

    def cli(self, args) -> Sample:
        return self.run(["-m", "entroscope", *args])

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.stdout.close()
        self._launcher.wait(timeout=CHILD_TIMEOUT_S)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
