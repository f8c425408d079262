"""Linear-phase FIR low-pass design and application.

Filters are windowed-sinc (Kaiser window sized from the requested stopband
attenuation and transition width) with an odd tap count, so the group delay
is an integer number of samples and can be compensated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal as _sig

from .signals import ComplexSignal

#: Hard cap on designed filter length.
MAX_TAPS = 4097


@dataclass(frozen=True)
class FilterSpec:
    """Low-pass requirements: -6 dB point at ``cutoff_hz``, transition band
    of width ``transition_hz`` centered on it."""

    cutoff_hz: float
    transition_hz: float
    stopband_atten_db: float = 60.0

    def __post_init__(self) -> None:
        if not self.cutoff_hz > 0:
            raise ValueError("cutoff_hz must be positive")
        if not self.transition_hz > 0:
            raise ValueError("transition_hz must be positive")
        if not self.stopband_atten_db > 0:
            raise ValueError("stopband_atten_db must be positive")


def design_lowpass(spec: FilterSpec, sample_rate_hz: float) -> np.ndarray:
    """Design the taps for ``spec`` at the given rate.

    Returns an odd-length, symmetric tap vector with unity DC gain.  The
    realized stopband rejection is within 3 dB of ``stopband_atten_db`` and
    passband ripple stays well under 0.5 dB up to
    ``cutoff_hz - transition_hz/2``.
    """
    if spec.cutoff_hz + spec.transition_hz >= sample_rate_hz / 2:
        raise ValueError(
            "cutoff_hz + transition_hz must stay below half the sample rate "
            f"({spec.cutoff_hz} + {spec.transition_hz} vs {sample_rate_hz / 2})"
        )
    numtaps, beta = kaiser_order(spec, sample_rate_hz)
    return _sig.firwin(numtaps, spec.cutoff_hz, window=("kaiser", beta), fs=sample_rate_hz)


def kaiser_order(spec: FilterSpec, sample_rate_hz: float) -> tuple[int, float]:
    """Tap count and Kaiser beta of the design for ``spec``; raises ValueError
    when the count exceeds ``MAX_TAPS``."""
    numtaps, beta = _sig.kaiserord(spec.stopband_atten_db, spec.transition_hz / (sample_rate_hz / 2))
    numtaps |= 1  # odd length -> integer group delay
    if numtaps > MAX_TAPS:
        raise ValueError(
            f"transition band too narrow: design needs {numtaps} taps, cap is {MAX_TAPS}"
        )
    return numtaps, beta


def apply_filter(s: ComplexSignal, taps: np.ndarray) -> ComplexSignal:
    """Convolve and compensate the ``(len(taps)-1)//2``-sample group delay.

    Output length equals input length; the first and last
    ``(len(taps)-1)//2`` samples are edge transients and are flagged in the
    output's ``transient`` field.
    """
    taps = np.asarray(taps, dtype=np.float64)
    if taps.size == 0:
        raise ValueError("taps must be nonempty")
    half = (taps.size - 1) // 2
    full = np.convolve(s.samples, taps)
    out = full[half : half + s.n]
    return ComplexSignal(out, s.sample_rate_hz, s.t0_s, transient=s.transient + half)
