"""The host's speed, read with a fixed kernel that runs no qhmm code.

On a shared host the speed of the same single-threaded work drifts by tens
of percent within seconds to minutes. Alternating a qhmm kernel (Hankel
build plus dilated sampling, about 0.3 s) with ``reference_s`` for four
minutes on a 2-vCPU host, the two times correlated at 0.77, and over
windows of 2.5 to 10 s the qhmm time's coefficient of variation fell from
0.10-0.12 to 0.02-0.05 once divided by the reference time. The workloads
therefore read the reference between their timed calls, run.py reads it
around each set-up process, and each time is reported scaled to a host
that runs the kernel in ``REF_NOMINAL_S``.

The reading has to be taken close to the work: readings one round apart
(2 to 15 s) tracked the drift too loosely to narrow the run-to-run spread.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

REF_ITERATIONS = 20_000
# reference_s() on the 2-vCPU host the benchmark was sized on (Python 3.11,
# numpy 2.4, one OpenBLAS thread); only the scale of scaled times depends on it
REF_NOMINAL_S = 0.1

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((16, 8, 8)) + 1j * _rng.standard_normal((16, 8, 8))
_BIG = _rng.standard_normal((2, 128, 128)) + 1j * _rng.standard_normal((2, 128, 128))


def reference_s() -> float:
    """Seconds for a fixed mix of small complex products, a few 128-dim ones
    and interpreted arithmetic: the kinds of work the workloads spend their
    time on."""
    acc = 0.0
    t0 = perf_counter()
    for i in range(REF_ITERATIONS):
        m = _SMALL[i & 15] @ _SMALL[(i + 1) & 15]
        acc += abs(m[0, 0]) + math.sin(i)
        if i % 1000 == 0:
            acc += abs((_BIG[0] @ _BIG[1])[0, 0])
    return perf_counter() - t0
