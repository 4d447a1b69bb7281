"""Host-speed reference: a fixed kernel timed beside the ops.

The benchmark runs on a few cores of a shared host whose speed moves by
30-50% over seconds to minutes as other tenants load it; the same natspec op
on the same input then takes 17 ms in one window and 26 ms in the next.
Timing this kernel next to the ops measures how fast the host runs at that
moment, and the benchmark reports every time metric in *reference seconds*:
wall seconds scaled by ``NOMINAL_S / (kernel time measured beside them)``.
On a host where the kernel takes ``NOMINAL_S``, a reference second is a wall
second.

The kernel does not call natspec, so a change to the program moves its ops
and leaves the reference alone.  It mixes the three kinds of work natspec's
ops are made of, in about equal time: vectorised complex exponentials (the
transform and Kronecker scans), a streaming pass over an array larger than
the cache (convolution's pair temporaries), and Python-level Fraction and dict
arithmetic (angle bookkeeping).
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.006  # kernel time that defines one reference second
REPEATS = 5  # a measurement is the median of this many kernel runs

_rng = np.random.default_rng(20141125)
_PHASES = _rng.uniform(0.0, 1.0, 32_768)
_STREAM = _rng.uniform(0.0, 1.0, 1_000_000)


def _kernel() -> float:
    compute = float(np.abs(np.exp(1j * 3.7 * _PHASES)).sum())
    stream = float((_STREAM * 1.5 + 2.0).sum())
    total, table = Fraction(0), {}
    for i in range(1, 400):
        total += Fraction(1, i % 7 + 1)
        table[i % 13, i % 5] = table.get((i % 13, i % 5), 0) + i
    return compute + stream + float(total) + len(table)


def measure() -> float:
    """Wall time of one kernel run: the median of ``REPEATS`` runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(kernel_s: float) -> float:
    """Factor turning wall seconds into reference seconds at this host speed."""
    return NOMINAL_S / kernel_s
