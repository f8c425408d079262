"""Host-speed calibration, so that timings from a shared host compare.

On a few vCPUs of a shared host, the same work takes up to 1.6 times as long
from one minute to the next, because other tenants share the physical cores
and caches.  The benchmark therefore times a fixed kernel right before and
after each measured step, in the same process, and scales the step's time by
``REFERENCE_S / kernel time``.  The kernel is fixed benchmark code: a change
to carrierlab does not move it, so the scaled time still moves with
carrierlab, but not with the host.

The kernel mixes the work carrierlab spends its time on: formatting floats
to text and parsing them back (``sigio``), a long complex convolution
(``generate_baseband``), an FFT (``spectrum``) and complex exponentials
(``oscillator``).  Its inputs are the same in every run.
"""

from __future__ import annotations

import statistics
import time

#: a typical ``sample()`` on a 2-vCPU Intel Xeon VM (2.1 GHz, one BLAS
#: thread): scaled times are seconds on a host that runs the kernel this fast
REFERENCE_S = 0.0056
#: kernel timings per sample; the fastest of them is the sample
REPEATS = 3


class Calibration:
    """The kernel's fixed inputs, built once per process."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(20101207)
        self._np = np
        self._x = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        self._taps = rng.standard_normal(1025)
        self._wide = rng.standard_normal(16384) + 1j * rng.standard_normal(16384)
        self._floats = rng.standard_normal(1500).tolist()
        for _ in range(REPEATS):  # first touches and lazy set-up, untimed
            self._kernel()

    def _kernel(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        text = "\n".join(f"{v:.17g},{-v:.17g}" for v in self._floats)
        parsed = [float(x) for line in text.splitlines() for x in line.split(",")]
        np.convolve(self._x, self._taps)
        np.fft.fft(self._wide)
        np.exp(1j * np.angle(self._wide))
        elapsed = time.perf_counter() - t0
        if len(parsed) != 2 * len(self._floats):
            raise RuntimeError("calibration kernel parsed the wrong number of floats")
        return elapsed

    def sample(self) -> float:
        """Current kernel time in seconds: the fastest of ``REPEATS`` runs."""
        return min(self._kernel() for _ in range(REPEATS))

    @staticmethod
    def scale(seconds: float, *samples: float) -> float:
        """``seconds`` measured between ``samples``, at the reference speed."""
        return seconds * REFERENCE_S / statistics.fmean(samples)
