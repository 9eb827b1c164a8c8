"""A fixed reference workload that measures how fast the host runs now.

The host this benchmark was written on runs the same code up to 1.6x
slower or faster in phases of seconds to minutes (perfbench/README.md,
Noise). The probe below takes about 12 ms there; the worker runs it
between ops, and run.py rescales each op's wall time to the speed at
which the probe takes ``REF_S``, so that those phases cancel out.

The probe exercises what the arrcohom ops spend their time on
(interpreter work on dicts and tuples, per-call overhead of small numpy
operations, int64 arithmetic on arrays that fit in cache) without calling
arrcohom, so a change to the program cannot change it. Its arrays stay
small (about 1 MB) so that it does not raise the worker's peak RSS.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_VEC = np.arange(1 << 17, dtype=np.int64)  # 1 MB
_MAT = np.arange(64 * 64, dtype=np.int64).reshape(64, 64) % 7


def probe():
    """Wall seconds of one pass of the reference workload."""
    t = perf_counter()
    d = {}
    for i in range(12000):
        k = (i * 7919) % 1009, i % 13
        d[k] = d.get(k, 0) + i
    x = 0
    for i in range(600):
        x += int((_MAT[i % 64] * 3 + 1).sum() % 7)
    a = _VEC
    for _ in range(6):
        a = (a * 3 + 1) % 1000003
    b = _MAT
    for _ in range(3):
        b = (b @ b) % 7
    return perf_counter() - t
