"""Machine-speed calibration for the entloc benchmark.

The reference machine is a few vCPUs of a shared host.  In phases that last
minutes the same code runs up to twice as slowly there, and the slowdown
shows as slower cycles, not as time the process waits: its CPU time grows
with its wall time.  Ten runs of one workload span several minutes, so a
wall-clock rate spreads across runs by more than a useful bound.

``kernel_seconds`` times a fixed kernel with the instruction mix of the
workloads: interpreter-bound Python, many small numpy calls and one dense
LAPACK eigenvalue problem, about a third each.  Its inputs are fixed, so
its time moves only with the machine.  ``speed`` is REFERENCE_S over that
time: 1 in a quiet phase on the reference machine, 0.6 in a phase that
runs everything 1.7 times slower.  The timed runs call the kernel between
passes and divide each pass's wall-clock rate by the speed around it.
Nothing here imports entloc, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the reference machine (2-vCPU x86-64 sandbox,
# Python 3.11.7, numpy 2.4.6, OPENBLAS_NUM_THREADS=1) in a quiet phase.
REFERENCE_S = 0.0300

_RNG = np.random.default_rng(411109)
_DENSE = _RNG.normal(size=(160, 160))
_SMALL = [_RNG.normal(size=(4, 4)) for _ in range(50)]
_EYE = np.eye(4)


def _interpreter() -> float:
    table, acc = {}, 0.0
    for i in range(60000):
        table[i & 255] = acc
        acc += (i % 7) * 0.5 - table.get((i + 3) & 255, 0.0) * 1e-3
    return acc


def _small_arrays() -> float:
    total = 0.0
    for _ in range(20):
        for m in _SMALL:
            x = m @ m.T + _EYE
            total += float(np.linalg.eigvalsh(x)[0]) + float(np.sum(np.abs(x)))
    return total


def _dense() -> float:
    return float(np.linalg.eigvals(_DENSE).real.sum())


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    _interpreter()
    _small_arrays()
    _dense()
    return time.perf_counter() - start


def speed(seconds: float) -> float:
    """Machine speed relative to the reference, from one kernel time."""
    return REFERENCE_S / seconds
