"""Machine-speed probe: how fast the core ran while the benchmark measured.

The benchmark's host shares its cores with other tenants, and the same pass
can take from 1x to 1.8x its time depending on what runs beside it, for
minutes at a time.  The probe times a fixed slice of pure-Python work
(``kernel``: Fraction arithmetic, tuples, lists and a dict, the mix the
engine spends its time on) in the measured process itself:

- ``Probe`` runs the kernel from a SIGALRM handler every ``PERIOD_S`` of
  wall time, in the main thread, in between the program's own bytecodes.
  Its samples cover the whole pass, so a slow minute shows in them as it
  shows in the pass.  They cost about 3 % of the pass, and that time is
  taken off the pass time.
- ``burst`` runs the kernel a few times in a row, for a span too short for
  the timer (set-up).

``to_reference`` rescales a measured time to the speed at which one kernel
takes ``REFERENCE_S``, so times from slow and fast minutes compare.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
# One kernel takes about this long on an unloaded 2.1 GHz Xeon core
# (Python 3.11); reported times are seconds at that speed.
REFERENCE_S = 0.0008
# Share of samples dropped at each end before averaging: a sample that a
# context switch or a page fault lands in says nothing about the core.
TRIM = 0.1


def kernel() -> float:
    """Seconds for one fixed slice of Fraction, list and dict work.

    The cyclic collector is off meanwhile: the kernel makes no cycles, and
    a collection would time the program's heap instead of the core.
    """
    collecting = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i, i + 1) * Fraction(3, i + 2)
    table = {}
    for i in range(300):
        table[(i, i % 7)] = [i] * 3
    elapsed = time.perf_counter() - t
    if collecting:
        gc.enable()
    return elapsed


def burst(n: int) -> list[float]:
    return [kernel() for _ in range(n)]


def trimmed_mean(samples: list[float]) -> float:
    xs = sorted(samples)
    cut = int(len(xs) * TRIM)
    return sum(xs[cut:len(xs) - cut]) / (len(xs) - 2 * cut)


def to_reference(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while one kernel took ``kernel_s``, at reference speed."""
    return seconds * REFERENCE_S / kernel_s


class Probe:
    """Samples ``kernel`` every ``PERIOD_S`` while the ``with`` block runs."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(kernel())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
