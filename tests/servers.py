"""`python -m brickeval serve` as a child process of a test, in its own session.

The server leads a process group of its own, which its worker processes
and multiprocessing's resource tracker join. Leaving serve_process kills
the whole group, so a test that fails, or a server that leaks its
workers, leaves none of them running.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator


@contextmanager
def serve_process(*args: str, **popen) -> Iterator[subprocess.Popen]:
    """A running `python -m brickeval serve *args`, started with the given Popen keywords."""
    with subprocess.Popen([sys.executable, "-m", "brickeval", "serve", *args], start_new_session=True,
                          **popen) as proc:
        try:
            yield proc
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:  # no process of the group is left
                pass


def group_members(pgid: int) -> list[int]:
    """The processes of a process group that have not exited (zombies left out), read from /proc."""
    members = []
    for name in os.listdir("/proc"):
        try:
            with open(f"/proc/{name}/stat") as f:
                state, _, group = f.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):  # not a process, or one that has just exited
            continue
        if int(group) == pgid and state != "Z":
            members.append(int(name))
    return members


def ready_workers(server: subprocess.Popen) -> list[int]:
    """The server's pool workers that ignore SIGINT, as they do once their initializer has run."""
    ready = []
    for pid in group_members(server.pid):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                spawned = b"spawn_main" in f.read()
            with open(f"/proc/{pid}/status") as f:
                ignored = int(next(line.split()[1] for line in f if line.startswith("SigIgn:")), 16)
        except OSError:
            continue
        if spawned and ignored >> (signal.SIGINT - 1) & 1:
            ready.append(pid)
    return ready


def wait_until(condition: Callable[[], bool], seconds: float) -> bool:
    """Whether condition() holds within the given seconds, polled every 50 ms."""
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True
