"""Host-speed calibration: latencies in reference-speed seconds.

The benchmark runs on a few vCPUs of a shared host whose speed switches
between levels about 1.4-1.8x apart, for seconds to minutes at a time; CPU
time moves with wall time, so it is the host (neighbours on the same cores),
not preemption.  A fixed calibration kernel slows down with the ops, so the
benchmark times the kernel every ``CADENCE_S`` seconds between ops and reports
each op's latency as

    wall latency x CAL_REF_S / (median kernel time within WINDOW_S of the op)

that is, the latency the op would have had with the kernel at ``CAL_REF_S``.
The kernel uses nothing of the library, so a faster library gives a
proportionally smaller figure; only the host's speed cancels.  The kernel
mixes interpreter-bound scalar math (the Fredholm quadrature and flow
right-hand sides) with small LU, GEMM and ``eigvalsh`` calls (Fredholm
determinants, Monte Carlo), roughly half and half in time.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np
import scipy.linalg

# the kernel's time on the reference VM (2 vCPUs, Intel Xeon, OpenBLAS) in
# its fast periods; it only fixes the unit of the reported latencies
CAL_REF_S = 1.0e-3
CADENCE_S = 0.25      # at most this long between two calibrations
WINDOW_S = 1.0        # calibrations this close to an op set its speed
REPEATS = 3           # a calibration is the fastest of this many kernel runs

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((96, 96))
_G = _rng.standard_normal((64, 64)) + 1j * _rng.standard_normal((64, 64))
_H = _G @ _G.conj().T
_eigvalsh = np.linalg.eigvalsh    # bound now, so a traced run does not see the kernel


def _kernel() -> float:
    acc = 0.0
    for i in range(1, 2500):
        x = i * 1e-3
        acc += math.exp(-x) * math.sin(x) / (1.0 + x * x)
    scipy.linalg.lu_factor(_A)
    acc += float(_eigvalsh(_H)[0])
    acc += float(np.abs(_G @ _G).sum())
    return acc


def calibrate() -> float:
    """Seconds of the fastest of ``REPEATS`` kernel runs, now."""
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class SetupTimer:
    """Set-up time of this process in reference-speed seconds.

    The kernel is timed when the timer starts and when it stops; the time of
    those calibrations is left out of the set-up time.
    """

    def __init__(self, t_start: float):
        self.t_start = t_start
        self.cal, self.excluded = [], 0.0
        self._calibrate()

    def _calibrate(self):
        t0 = time.perf_counter()
        self.cal += [calibrate() for _ in range(3)]
        self.excluded += time.perf_counter() - t0

    def stop(self) -> float:
        wall = time.perf_counter() - self.t_start - self.excluded
        self._calibrate()
        return wall * CAL_REF_S / statistics.median(self.cal)


class Clock:
    """Calibrations taken through a phase, and op latencies scaled by them.

    The first ``tick`` of a phase must be forced.
    """

    def __init__(self):
        self.at: list = []       # midpoint of each calibration, perf_counter s
        self.cal: list = []      # its kernel time, s

    def tick(self, force: bool = False) -> None:
        """Calibrate if forced or ``CADENCE_S`` has passed since the last one."""
        now = time.perf_counter()
        if force or now - self.at[-1] >= CADENCE_S:
            t = calibrate()
            self.at.append(now + t * REPEATS / 2.0)
            self.cal.append(t)

    def speed(self, start: float, end: float) -> float:
        """Median kernel time of the calibrations within ``WINDOW_S`` of [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return statistics.median(self.cal[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Reference-speed seconds of an op that ran from ``start`` to ``end``."""
        return (end - start) * CAL_REF_S / self.speed(start, end)

    def record(self) -> dict:
        return {"cal_ref_s": CAL_REF_S, "calibrations": len(self.cal),
                "cal_median_s": statistics.median(self.cal),
                "cal_min_s": min(self.cal), "cal_max_s": max(self.cal)}
