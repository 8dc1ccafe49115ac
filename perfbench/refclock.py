"""Reference clock: wall seconds rescaled by the measured speed of the core.

The benchmark's host shares its cores with other tenants.  The same grid
run's wall time swings by up to 1.7x between phases of 10-20 s, and the two
cores of one machine are slowed at different times.  So the benchmark pins
itself and its children to one core, and while an operation runs, a timer
interrupts it every `PERIOD_S` to run a fixed reference kernel on that
core.  The kernel mixes an interpreted loop, small LAPACK solves, small
complex-array algebra and scalar complex arithmetic, as the package does,
and does not call the package.

An operation's busy seconds are its wall seconds minus the kernel's.  Its
*reference seconds* are its busy seconds times `REF_KERNEL_S` over the
kernel's mean time during the operation: the time it would take on a core
that runs the kernel in `REF_KERNEL_S`, which is about the kernel's
uncontended time on the host the benchmark was calibrated on.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

# about the seconds of one `_kernel()` call on an uncontended core of the
# calibration host (Xeon, 2 vCPUs, Python 3.11, numpy 2.4, scipy 1.17)
REF_KERNEL_S = 3.3e-3
PERIOD_S = 0.1           # one kernel call per 100 ms: 3-5 % of the time
BRACKET_REPS = 20        # kernel calls before and after work in a child

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((80, 80)) + 80.0 * np.eye(80)
_B = _rng.standard_normal(80)
_Y = _rng.standard_normal((40, 40)) + 1j * _rng.standard_normal((40, 40))
_V = _rng.standard_normal(40) + 1j * _rng.standard_normal(40)


def _slip_power(slip: float, v: complex) -> float:
    z = complex(0.01 / max(slip, 1e-3), 0.1) + 2.0j
    return (v * (v / z).conjugate()).real - 0.5 * slip


def _kernel() -> float:
    # an interpreted float loop and small LU solves ...
    x = 0.0
    for i in range(6000):
        x = (x + i * 1e-6) * 0.999
    b = _B
    for _ in range(5):
        b = lu_solve(lu_factor(_A), b) + np.abs(b) * 1e-3
    # ... small complex-array algebra, shaped like a network step ...
    v = _V
    for _ in range(60):
        s = v * np.conj(_Y @ v)
        m = np.abs(v)
        v = v / np.maximum(m, 0.5) + 1e-3 * s.real
        x += float(np.sum(m)) + max(0.0, float(s.imag[0]))
    # ... and scalar complex arithmetic in small function calls, shaped
    # like the motor's slip scan
    for j in range(2500):
        x += _slip_power(0.01 + j * 1e-5, complex(1.0, 0.01))
    return x + float(b[0])


def _timed_kernel() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def pin_to_one_core() -> int:
    """Run this process, and the children it starts, on one core."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def time_op(fn, probe: bool):
    """(output, busy s, reference s) of one call of `fn`.

    Without `probe` the kernel does not run and both times are the wall
    time.  An exception from `fn` propagates.
    """
    if not probe:
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        return out, wall, wall

    samples = []

    def on_alarm(signum, frame):
        samples.append(_timed_kernel())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    t0 = time.perf_counter()
    try:
        out = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    busy = wall - sum(samples)
    if not samples:                  # shorter than one period
        samples.append(_timed_kernel())
    return out, busy, busy * REF_KERNEL_S / statistics.fmean(samples)


def time_child(fn):
    """(output, wall s, reference s) of `fn`, which waits for a child
    process on this core.

    A kernel call in this process would compete with the child for the
    core, so the kernel runs `BRACKET_REPS` times before and after `fn`
    instead of during it.
    """
    before = [_timed_kernel() for _ in range(BRACKET_REPS)]
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    after = [_timed_kernel() for _ in range(BRACKET_REPS)]
    return out, wall, wall * REF_KERNEL_S / statistics.fmean(before + after)
