"""Timing in reference seconds, steady on a CPU shared with other tenants.

On a shared machine the CPU this process gets can run at half speed for
seconds or minutes while a neighbour is busy.  Wall-clock samples then
spread by more than any useful regression bound, and medians cannot help
when a whole run lands in a slow period.  So every timed step is paired
with a fixed calibration pass -- pure-Python dict, tuple, object and sort
work, like the compiler's and the simulator's -- measured right before and
right after it, and the step's wall time is scaled by the calibration's
speed:

    reference_s = wall_s * REFERENCE_PASS_S / mean(pass_before_s, pass_after_s)

A reference second is the time the step would take on a machine where one
calibration pass takes ``REFERENCE_PASS_S``.  The calibration code is part
of the benchmark, not of the program, so a change to the program moves the
step's wall time and leaves the pass alone.  Long phases are timed as many
short steps (one compile request, one play) so that the calibration stays
close in time to the work it scales.
"""

from __future__ import annotations

import gc
import time

__all__ = ["Meter", "REFERENCE_PASS_S"]

REFERENCE_PASS_S = 0.02
CALIBRATION_ITEMS = 20_000
# A step whose last calibration is older than this recalibrates first:
# untimed work (checks, tracing bookkeeping) may have run in between.
STALE_CALIBRATION_S = 0.05


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def calibration_pass() -> float:
    """Wall seconds of one fixed pass of interpreter-bound work.

    The garbage collector is off during the pass: a collection would scan
    every object the program holds, which would make the pass depend on
    the program's heap instead of the machine's speed."""
    gc.disable()
    try:
        return _timed_pass()
    finally:
        gc.enable()


def _timed_pass() -> float:
    start = time.perf_counter()
    table = {}
    items = []
    acc = 0
    for i in range(CALIBRATION_ITEMS):
        key = (i % 97, i % 13, "k")
        item = _Item(key, i)
        table[key] = table.get(key, 0) + item.value
        items.append(item)
        acc += hash(key) & 7
    items.sort(key=lambda item: (item.value % 101, item.key))
    if acc < 0 or not table:  # keep the work observable
        raise AssertionError("calibration pass")
    return time.perf_counter() - start


class Meter:
    """Runs steps and sums their wall and reference seconds."""

    def __init__(self):
        self.wall_s = 0.0
        self.seconds = 0.0  # reference seconds
        self.passes = []
        self._pass_s = calibration_pass()
        self._pass_at = time.perf_counter()

    def _calibrate(self) -> float:
        self._pass_s = calibration_pass()
        self._pass_at = time.perf_counter()
        self.passes.append(self._pass_s)
        return self._pass_s

    def step(self, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` as one timed step; return its result."""
        before = self._pass_s
        if time.perf_counter() - self._pass_at > STALE_CALIBRATION_S:
            before = self._calibrate()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        after = self._calibrate()
        self.wall_s += wall
        self.seconds += wall * REFERENCE_PASS_S / ((before + after) / 2.0)
        return result

    def timed(self, fn, *args, **kwargs):
        """Like :meth:`step`, also returning the step's reference seconds."""
        mark = self.seconds
        result = self.step(fn, *args, **kwargs)
        return result, self.seconds - mark
