"""Reference kernel and drift correction for task timings.

The speed of a shared virtual machine wanders by tens of percent within a
minute. Every timed task is therefore bracketed by a fixed reference kernel
that does not call kpokit, and its time is rescaled to a nominal reference
speed:

    corrected = raw * NOMINAL_REF_S / mean(ref_before, ref_after)

The kernel mixes the kinds of work kpokit does: Python dict and tuple
work, small NumPy operations and a dense ``numpy.linalg.eigh``.
"""

from __future__ import annotations

import time

import numpy as np

# median reference time on the machine the README figures come from
# (2-vCPU VM, one BLAS thread); corrected times are in these units
NOMINAL_REF_S = 0.0050

_REPEATS = 5
_RNG = np.random.default_rng(20251018)
_HALF = _RNG.standard_normal((120, 120))
_SYMMETRIC = _HALF + _HALF.T
_VECTOR = _RNG.standard_normal(256)


def _kernel() -> float:
    table: dict[tuple[int, int], float] = {}
    for i in range(5000):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0.0) + 0.5 * i
    acc = 0.0
    for j in range(150):
        acc += float(np.dot(_VECTOR, _VECTOR * (j + 1)) + np.sqrt(np.abs(_VECTOR)).sum())
    values = np.linalg.eigh(_SYMMETRIC)[0]
    return acc + float(values[0]) + len(table)


def reference_time() -> float:
    """Median of a few kernel runs, in seconds."""
    times = []
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return sorted(times)[_REPEATS // 2]


def correct(raw: float, ref_before: float, ref_after: float) -> float:
    """Rescale a raw time to the nominal reference speed."""
    return raw * NOMINAL_REF_S / (0.5 * (ref_before + ref_after))
