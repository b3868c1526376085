"""Machine-speed reference for normalizing measured times.

The machines this benchmark runs on share their cores with other tenants,
and their effective speed drifts by 20% and more over seconds to minutes:
the same operation, repeated in one process, took anywhere between 1.1 s
and 2.2 s, with CPU time tracking wall time.  A median over one run cannot
remove a drift that lasts as long as the run.

So every timed sample is paired with the time of a fixed reference kernel
measured next to it, and reported as ``raw * REFERENCE_S / reference``:
seconds on a machine that runs the kernel in ``REFERENCE_S``.  The kernel
is shaped like chlab's solver work (real FFT round trips and elementwise
products at N = 8192) but is the benchmark's own code, so no change to
chlab can change it.  It binds numpy's transforms at import, before the
span recorder wraps them, so a traced pass does not count it.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.fft import irfft, rfft

#: Nominal kernel time; the median measured on the machine that defined
#: the benchmark (2-core Intel Xeon VM, numpy 2.4.6).
REFERENCE_S = 0.022

_N = 8192
_REPS = 128
_X = np.sin(np.linspace(0.0, 20.0, _N)) * np.exp(-np.linspace(-3.0, 3.0, _N) ** 2)
_SYMBOL = 1.0 / (1.0 + np.arange(_N // 2 + 1) ** 2)


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    y = _X
    for _ in range(_REPS):
        y = irfft(rfft(y) * _SYMBOL, n=_N) * _X + _X
    return time.perf_counter() - t0


def normalized(raw_s: float, reference_s: float) -> float:
    """A measured time, scaled to the nominal machine speed."""
    return raw_s * REFERENCE_S / reference_s
