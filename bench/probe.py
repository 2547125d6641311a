"""Host speed probe: a fixed piece of work timed between timed sessions.

The host this benchmark was built on runs both vCPUs at speeds that step
between about 1.0x and 1.8x the time of the fastest, for a fraction of a
second to minutes, with CPU time equal to wall time (nothing the guest
can read, such as steal time, shows it).  Raw seconds from two runs minutes
apart therefore differ by more than any change worth detecting.

:func:`probe` times a fixed mix of the work the library does (interpreted
Python, small NumPy calls, a dense product and a sort) that depends on
nothing in ``src/``.  :func:`calibrated` rescales a session's time by the
probes run just before and just after it, to the seconds it would have
taken while the probe ran in :data:`REFERENCE_PROBE_S`: a change to the
library moves the session, not the probe, so it still shows in full.
"""

from __future__ import annotations

import time

import numpy as np

#: About the probe's median duration on the reference host (2 vCPUs of an
#: Intel Xeon VM at 2.0 GHz, Python 3.11 with one BLAS thread) in a quiet
#: phase: 0.0196 s over 500 probes.  Calibrated seconds are seconds on that
#: host at that speed.  Changing it or the probe's work makes results from
#: before and after the change incomparable.
REFERENCE_PROBE_S = 0.02

_RNG = np.random.default_rng(0)
_SQUARE = _RNG.standard_normal((96, 96))
_VECTOR = _RNG.standard_normal(20_000)
_SMALL = _RNG.standard_normal(64)


def _interpreted() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(100_000):
        total += (i * i) % 7
        table[i % 97] = total
    return total + len(table)


def _numpy_calls() -> float:
    total = 0.0
    for _ in range(3_000):
        total += float(np.dot(_SMALL, np.maximum(_SMALL, 0.0)))
    return total


def _dense() -> float:
    product = _SQUARE
    for _ in range(40):
        product = np.tanh(product @ _SQUARE)
    return float(np.sort(_VECTOR)[0] + product[0, 0])


def probe() -> float:
    """Seconds the fixed probe work takes right now."""
    start = time.perf_counter()
    _interpreted()
    _numpy_calls()
    _dense()
    return time.perf_counter() - start


def calibrated(seconds: float, before: float, after: float) -> float:
    """``seconds`` timed between probes ``before`` and ``after``, at reference speed."""
    return seconds * REFERENCE_PROBE_S / ((before + after) / 2.0)
