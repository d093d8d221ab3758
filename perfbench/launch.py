"""Runs child processes and reports their wall time and peak RSS.

Linux carries a process's peak RSS across ``execve`` as a floor under the
new program's: a child spawned from the benchmark after it generated a
corpus would report at least the benchmark's own peak.  So the children
are spawned by a launcher forked at start-up, while the benchmark is
still a bare interpreter, and the launcher times each child itself.
One child runs at a time.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

CHILD_TIMEOUT_S = 120


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout


def child_env(root: str) -> dict:
    """The children import glocon from the checkout's ``src``; hash seeds stay random."""
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], env: dict, stdout: str, stderr: str
              ) -> tuple[float, int, float, float]:
    """Run ``python <args>``; return (wall s, exit code, peak RSS in MB, CPU s)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ]
        started = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
        try:
            signal.alarm(CHILD_TIMEOUT_S)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - started
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            signal.alarm(0)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0, cpu


class Launcher:
    """A forked helper that runs one child at a time on request."""

    def __init__(self, env: dict):
        requests_r, requests_w = os.pipe()
        replies_r, replies_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the launcher
            os.close(requests_w)
            os.close(replies_r)
            code = 0
            try:
                signal.signal(signal.SIGALRM, _alarm)
                signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
                with os.fdopen(requests_r, "r") as requests, os.fdopen(replies_w, "w") as replies:
                    for line in requests:
                        args, stdout, stderr = json.loads(line)
                        try:
                            reply = run_child(args, env, stdout, stderr)
                        except ChildTimeout:
                            reply = None
                        replies.write(json.dumps(reply) + "\n")
                        replies.flush()
            except BaseException:
                code = 1
            finally:
                os._exit(code)
        os.close(requests_r)
        os.close(replies_w)
        self.requests = os.fdopen(requests_w, "w")
        self.replies = os.fdopen(replies_r, "r")

    def run(self, args: list[str], stdout: str, stderr: str
            ) -> tuple[float, int, float, float]:
        """(wall s, exit code, peak RSS in MB, CPU s) of ``python <args>``."""
        self.requests.write(json.dumps([args, stdout, stderr]) + "\n")
        self.requests.flush()
        reply = self.replies.readline()
        if not reply:
            raise RuntimeError("the launcher died")
        result = json.loads(reply)
        if result is None:
            raise RuntimeError(f"child timed out after {CHILD_TIMEOUT_S} s: {args[:4]}")
        return tuple(result)

    def close(self) -> None:
        """Stop the launcher (and a child it is waiting for) and reap it."""
        self.requests.close()
        self.replies.close()
        try:
            os.kill(self.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        os.waitpid(self.pid, 0)
