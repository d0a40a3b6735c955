"""Machine pace: a fixed reference unit timed between the measured steps.

On a shared host the same code runs tens of percent faster or slower from
one second or minute to the next, which no amount of repetition inside one
run removes. So the benchmark also times a small fixed reference unit (a mix
of interpreter work and small numpy calls, like the gnssfix hot paths):
about every ``TICK_S`` between the measured steps, and in short bursts
around each set-up. Every timing metric is reported at nominal pace,

    nominal time = raw time * NOMINAL_REF_MS / reference-unit time nearby,

where "nearby" is the local reference time at a short step's end, or the
mean local reference time within one step length of a long step. The local
reference time at a moment is the median of the units timed within
``STEP_WINDOW_S`` of it, so a unit that an interrupt slowed does not count.
``NOMINAL_REF_MS`` is the reference unit's mean time on the machine the
bounds were set on (a 2-core KVM guest, Xeon 2.1 GHz), so there nominal
figures read as plain milliseconds and seconds. The reference unit is
benchmark code and must not change between two commits that are compared.
"""

from __future__ import annotations

import time

import numpy as np

clock = time.perf_counter

NOMINAL_REF_MS = 0.14
TICK_S = 0.005  # reference units take about 6 % of a measured phase
BURST_S = 0.1  # reference time before and after each set-up
STEP_WINDOW_S = 0.05

_rng = np.random.default_rng(20240229)
_A = _rng.normal(size=(12, 4))
_B = _rng.normal(size=12)
_ITEMS = list(range(60))


def reference_unit() -> float:
    """Fixed work: small normal equations solved and a Python-level loop."""
    total = 0.0
    for _ in range(8):
        x = np.linalg.solve(_A.T @ _A, _A.T @ _B)
        total += float(x[0]) + sum(i * i for i in _ITEMS)
    return total


class Pace:
    """Reference-unit times of one run, and when each was taken."""

    def __init__(self) -> None:
        self.ref_s: list[float] = []
        self.ref_at: list[float] = []
        self.spent_s = 0.0  # wall time spent in reference units
        self._last = clock()

    def tick(self) -> None:
        """Time one reference unit if ``TICK_S`` has passed since the last."""
        if clock() - self._last >= TICK_S:
            self._one()

    def burst(self, seconds: float = BURST_S) -> None:
        """Time reference units back to back for ``seconds``."""
        start = clock()
        while clock() - start < seconds:
            self._one()

    def _one(self) -> None:
        # the first call warms the caches the measured step left cold, so
        # the timed call sees the machine's pace, not the step's footprint
        t0 = clock()
        reference_unit()
        t1 = clock()
        reference_unit()
        t2 = clock()
        self.ref_s.append(t2 - t1)
        self.ref_at.append(t2)
        self.spent_s += t2 - t0
        self._last = t2

    def _at(self) -> np.ndarray:
        """When each unit was timed; times one first if none was."""
        if not self.ref_s:
            self._one()
        return np.asarray(self.ref_at)

    def _local(self, times) -> np.ndarray:
        """Local reference time at each of ``times``: the median of the units
        timed within ``STEP_WINDOW_S`` of it, or the nearest unit."""
        at = self._at()
        refs = np.asarray(self.ref_s)
        times = np.asarray(times, dtype=float)
        lo = np.searchsorted(at, times - STEP_WINDOW_S)
        hi = np.searchsorted(at, times + STEP_WINDOW_S)
        nearest = np.minimum(np.searchsorted(at, times), refs.size - 1)
        return np.array([np.median(refs[a:b]) if b > a else refs[c] for a, b, c in zip(lo, hi, nearest)])

    def scale_steps(self, raw, ends) -> np.ndarray:
        """Short steps that ended at clock times ``ends``, at nominal pace."""
        return np.asarray(raw, dtype=float) * (NOMINAL_REF_MS * 1e-3) / self._local(ends)

    def scale_span(self, raw: float, t0: float, t1: float) -> float:
        """A long step from ``t0`` to ``t1`` at nominal pace, by the units
        timed within one step length of it (all units if none)."""
        at = self._at()
        near = at[(at >= t0 - (t1 - t0)) & (at <= t1 + (t1 - t0))]
        return raw * (NOMINAL_REF_MS * 1e-3) / float(np.mean(self._local(near if near.size else at)))

    def factor(self) -> float:
        """Nominal time per raw time over the whole run."""
        return NOMINAL_REF_MS * 1e-3 / float(np.mean(self._local(self._at())))
