"""Speed gauge: a fixed reference loop timed between measured operations,
so that each timing can be stated at one reference machine speed.

On a shared host the speed of the same code drifts by 20-50 % over
seconds to minutes as other tenants load the machine, long enough that
whole runs land in a slow phase.  The reference loop does fixed work of
the kinds the program spends its time on: interpreted bookkeeping, small
array ops as in a batch-32 training step, and row-wise ops over a
5000 x 20 array as in prediction on a test split.  It never calls
``evidfuse``, so a change to the program cannot move it.

A duration ``t`` measured between gauge readings is reported as
``t * REFERENCE_S / mean(readings)``: the seconds it would take on a
machine where one reference loop takes ``REFERENCE_S``.
"""

import time

import numpy as np

# one reference loop on the machine the benchmark was built on (2-core
# shared Xeon VM, Python 3.11, numpy 2.4, one BLAS thread) at its typical
# speed; fixed, so scaled times compare across runs and commits
REFERENCE_S = 0.042

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal((32, 20))
_ROWS = _rng.standard_normal((5000, 20))


def _interpreted():
    table = {}
    acc = 0
    for i in range(60000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        acc += (i * 31) % 17
    return acc


def _small_arrays():
    x = _SMALL
    for _ in range(900):
        x = np.exp(-np.abs(x)) * 0.5 + x.mean(axis=0)
    return x


def _row_arrays():
    x = _ROWS
    for _ in range(20):
        y = np.exp(-np.abs(x))
        x = x * 0.5 + y / (1.0 + y.sum(axis=1, keepdims=True))
    return x


def reference_seconds():
    """Wall time of one pass of the reference loop."""
    t0 = time.perf_counter()
    _interpreted()
    _small_arrays()
    _row_arrays()
    return time.perf_counter() - t0
