"""A background probe of the host's speed, for rescaling CPU times.

The host changes speed from one second to the next, so a probe run
between operations says little about the speed during one.  This probe
runs all the time instead: a forked process at the lowest priority,
on the same CPU as the benchmark and its children, doing fixed units of
pure-Python work and publishing the units done and the CPU seconds they
took.  While a child runs, the probe gets a small share of the CPU in
short slices spread over the child's run, so the CPU seconds per unit it
reports between two reads is the host's speed over that interval.
"""

from __future__ import annotations

import mmap
import os
import signal
import time

UNIT_LOOPS = 2000
MIN_UNITS = 5  # fewer units than this between two reads give no usable speed
# three doubles: a write count (odd while a write is under way), the units
# done and the CPU seconds spent on them; each is one aligned 8-byte store
_SLOTS = 3
_PARENT_CHECK = 1000  # units between checks that the benchmark is still there


def _unit(x: int) -> int:
    for i in range(UNIT_LOOPS):
        x = (x * 31 + i) % 1_000_003
    return x


class SpeedProbe:
    """The probe process and the shared counters it writes."""

    def __init__(self):
        self.shared = mmap.mmap(-1, 8 * _SLOTS)
        self.slots = memoryview(self.shared).cast("d")
        parent = os.getpid()
        self.pid = os.fork()
        if self.pid == 0:  # the probe
            code = 0
            try:
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                os.nice(19)
                slots, units, x = self.slots, 0, 0
                started = time.process_time()
                while units % _PARENT_CHECK or os.getppid() == parent:
                    x = _unit(x)
                    units += 1
                    slots[0] += 1
                    slots[1] = units
                    slots[2] = time.process_time() - started
                    slots[0] += 1
            except BaseException:
                code = 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 10
        while self.read()[0] < MIN_UNITS:  # the benchmark sleeps, so the probe runs
            if time.monotonic() > deadline:
                self.close()
                raise RuntimeError("the speed probe did not start")
            time.sleep(0.01)

    def read(self) -> tuple[float, float]:
        """(units done, CPU seconds) so far."""
        slots, tries = self.slots, 0
        while True:
            writes = slots[0]
            if writes % 2 == 0:
                done = (slots[1], slots[2])
                if slots[0] == writes:  # no write began meanwhile
                    return done
            tries += 1
            if tries % 1000 == 0 and os.waitpid(self.pid, os.WNOHANG)[0]:
                self.pid = None
                raise RuntimeError("the speed probe stopped during a write")
            os.sched_yield()  # let the probe finish its write

    def unit_seconds(self, since: tuple[float, float]) -> float:
        """CPU seconds per unit from the read ``since`` until now.

        If the probe got fewer than ``MIN_UNITS`` units in, its whole run
        so far stands in.
        """
        now = self.read()
        units, seconds = now[0] - since[0], now[1] - since[1]
        if units < MIN_UNITS:
            units, seconds = now
        return seconds / units

    def close(self) -> None:
        """Stop the probe and reap it."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGTERM)
            os.waitpid(self.pid, 0)
        self.slots.release()
        self.shared.close()
