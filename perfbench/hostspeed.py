"""Wall time corrected for the host's changing CPU speed.

On a shared host the CPU time a fixed piece of work takes is not fixed:
on the 2-vCPU VM this benchmark was written on, a small-array numpy loop
swings between about 125 and 230 us from one second to the next, and
whole passes of a workload drift by 30-50 % over minutes, with CPU time
equal to wall time throughout (the work is slowed, not descheduled).

``HostSpeed`` samples that speed while a pass runs: whenever at least
``SPACING_S`` has gone by, the next ``tracing.TICKS`` call first runs a
fixed calibration kernel (the fastest of ``REPEATS`` runs).  Each stretch
of wall time between samples is then scaled by the kernel's reference
time over the kernel time measured at its start, so a corrected second
is the time the work would take on a host where the kernel runs at its
reference speed.  The calibration's own time is left out of both the raw
and the corrected figures.

Different work slows down by different amounts, so each workload names
the kernel whose slowdown follows its own: ``numpy`` (a Python loop of
numpy operations on arrays of a few elements, like the integrators) or
``python`` (plain interpreter work, like the CLI around a small synthesis
and like an import).
"""

from __future__ import annotations

import time

import numpy as np

SPACING_S = 0.025
REPEATS = 3

_A = np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, -0.5, 0.2, 0.0],
               [0.0, 0.0, 0.0, 1.0], [0.1, 0.0, -2.0, -0.3]])
_X0 = np.array([1.0, 0.0, 0.5, 0.0])


def numpy_kernel() -> float:
    """Sixteen explicit Euler steps of a 4-state linear system."""
    x = _X0
    for _ in range(16):
        k = _A @ x
        x = x + 1e-3 * np.concatenate([k[:2], k[2:]])
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("calibration kernel diverged")
    return float(x @ x)


def python_kernel() -> int:
    """A loop of integer arithmetic."""
    total = 0
    for i in range(1500):
        total += i * i % 7
    return total


#: name -> (kernel, its time in seconds on that VM in its fast phases)
KERNELS = {"numpy": (numpy_kernel, 1.05e-4), "python": (python_kernel, 1.1e-4)}


def kernel_time(name: str, repeats: int = REPEATS) -> float:
    """The fastest of ``repeats`` timed runs of a kernel, in seconds."""
    kernel = KERNELS[name][0]
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


class HostSpeed:
    """Raw and corrected clocks for untraced passes; ``tick`` goes on TICKS calls."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self.reference_s = KERNELS[kernel][1]
        self.samples: list[float] = []  # kernel times, every pass
        self.raw = self.corrected = 0.0  # seconds since the pass started
        self._last = 0.0
        self._kernel_s = self.reference_s

    def _calibrate(self) -> None:
        self._kernel_s = kernel_time(self.kernel)
        self.samples.append(self._kernel_s)
        self._last = time.perf_counter()

    def _advance(self, now: float) -> None:
        self.raw += now - self._last
        self.corrected += (now - self._last) * self.reference_s / self._kernel_s
        self._last = now

    def start_pass(self) -> None:
        self.raw = self.corrected = 0.0
        self._calibrate()

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._last >= SPACING_S:
            self._advance(now)
            self._calibrate()

    def recalibrate(self) -> None:
        """Sample now, whatever the spacing; for the start of an operation."""
        self._advance(time.perf_counter())
        self._calibrate()

    def read(self) -> tuple[float, float]:
        """(raw, corrected) seconds of work since ``start_pass``."""
        self._advance(time.perf_counter())
        return self.raw, self.corrected
