"""Host-speed calibration for shared, throttled machines.

On a shared virtual machine the same interpreted code can run at half
speed for seconds at a time: the process stays on the CPU, so CPU time
slows along with wall time, and medians of whole runs drift by a quarter
or more between runs.  A short fixed calibration slice of interpreted
integer and numpy-scalar work, run between consecutive timed calls, slows
by the same factor.  Scaling each call's host seconds by
``REF_SLICE_S / slice seconds`` (the mean of the slices on either side of
the call) turns them into *reference seconds*: the seconds the call would
take on a host that runs the slice in ``REF_SLICE_S``.

Process start-up (exec, imports, dynamic loading) slows by less than
interpreted loops do, so set-up launches get their own calibration: a
fresh ``python3 -c "import numpy"`` between consecutive set-up launches,
scaled to ``REF_LAUNCH_S`` the same way.

The slice and the calibration launch are benchmark code, so a change to
rankpipe cannot alter them; the scaling removes host drift, never a change
in the program's own cost.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

SLICE_ITERATIONS = 40000
REF_SLICE_S = 0.013  # the slice on an unthrottled 2-core x86_64 VM
REF_LAUNCH_S = 0.15  # the calibration launch on the same VM


def timed_launch(argv, **kwargs):
    """``(seconds, CompletedProcess)`` of one child process run to its end."""
    start = time.perf_counter()
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120, check=False,
                          **kwargs)
    return time.perf_counter() - start, proc


class _Calibrated:
    """Calibration measurements taken between timed intervals."""

    ref_s: float

    def __init__(self):
        self._last = self._measure()
        self.factors: list[float] = []

    def _measure(self) -> float:
        raise NotImplementedError

    def scale(self) -> float:
        """Factor to reference seconds for the interval since the last
        measurement: ``ref_s`` over the mean of the measurements on either
        side of it."""
        new = self._measure()
        factor = self.ref_s / ((self._last + new) / 2)
        self._last = new
        self.factors.append(factor)
        return factor


class HostSpeed(_Calibrated):
    """Interleaved slices of interpreted work, for in-process calls."""

    ref_s = REF_SLICE_S

    def __init__(self):
        self._table = np.zeros(256, dtype=np.int64)
        super().__init__()

    def _measure(self) -> float:
        table = self._table
        x = 1
        hits = 0
        start = time.perf_counter()
        for i in range(SLICE_ITERATIONS):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
            if table[x & 255] >= 128:
                hits += 1
            table[i & 255] = x & 255
        return time.perf_counter() - start


class LaunchSpeed(_Calibrated):
    """Interleaved ``import numpy`` launches, for fresh-process set-up."""

    ref_s = REF_LAUNCH_S

    def _measure(self) -> float:
        return timed_launch([sys.executable, "-c", "import numpy"])[0]
