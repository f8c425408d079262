"""Linear-phase FIR low-pass design and application.

Filters are windowed-sinc (Kaiser window with Cephes ``i0``, sized from the
requested stopband attenuation and transition width) with an odd tap count,
so the group delay is an integer number of samples and can be compensated
exactly.  The design takes scipy.signal's ``kaiserord`` and ``firwin`` steps in
order, so the taps are scipy's bit for bit, without importing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .signals import ComplexSignal, _sealed

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

    Returns an odd-length, symmetric, read-only tap vector with unity DC
    gain; designs are memoised.  The realized stopband rejection is within
    3 dB of ``stopband_atten_db`` and passband ripple stays well under
    0.5 dB up to ``cutoff_hz - transition_hz/2``.
    """
    numtaps, beta = kaiser_order(spec, sample_rate_hz)
    return _kaiser_lowpass(numtaps, spec.cutoff_hz / (0.5 * float(sample_rate_hz)), beta)


@lru_cache(maxsize=64)
def _kaiser_lowpass(numtaps: int, right: float, beta: float) -> np.ndarray:
    """``scipy.signal.firwin(numtaps, right, window=("kaiser", beta))``, the
    cutoff ``right`` a fraction of half the sample rate."""
    alpha = 0.5 * (numtaps - 1)
    m = np.arange(numtaps, dtype=np.float64) - alpha
    h = right * np.sinc(right * m)
    # scipy.signal.windows.kaiser(numtaps, beta), whose n - alpha is m
    h *= _i0(beta * np.sqrt(1 - (m / alpha) ** 2.0)) / _i0(np.array([beta]))
    h /= np.sum(h)  # firwin's sum(h * cos(pi * m * 0.0)): every cosine is 1.0
    return _sealed(h)


def kaiser_order(spec: FilterSpec, sample_rate_hz: float) -> tuple[int, float]:
    """Tap count and Kaiser beta of the design for ``spec``; raises ValueError
    when the filter band reaches half the sample rate, the cutoff is a
    subnormal fraction of it, or the count exceeds ``MAX_TAPS``."""
    if spec.cutoff_hz + spec.transition_hz >= sample_rate_hz / 2:
        raise ValueError(
            "cutoff_hz + transition_hz must stay below half the sample rate "
            f"({spec.cutoff_hz} + {spec.transition_hz} vs {sample_rate_hz / 2})"
        )
    if spec.cutoff_hz / (sample_rate_hz / 2) < np.finfo(np.float64).tiny:  # below it the taps underflow
        raise ValueError(f"cutoff_hz {spec.cutoff_hz} is too small a fraction of half the sample rate")
    # Kaiser's formulas as scipy.signal.kaiserord and kaiser_beta evaluate them
    atten = spec.stopband_atten_db
    if atten < 8:
        raise ValueError(f"Requested maximum ripple attenuation {atten:f} is too small for the Kaiser formula.")
    beta = 0.0
    if atten > 50:
        beta = 0.1102 * (atten - 8.7)
    elif atten > 21:
        beta = 0.5842 * (atten - 21) ** 0.4 + 0.07886 * (atten - 21)
    width = spec.transition_hz / (sample_rate_hz / 2)
    try:
        numtaps = math.ceil((atten - 7.95) / 2.285 / (math.pi * width) + 1) | 1  # odd: integer group delay
    except ArithmeticError:  # the length estimate itself overflows
        raise ValueError(f"filter design needs over {MAX_TAPS} taps") from None
    if numtaps > MAX_TAPS:
        raise ValueError(
            f"transition band too narrow: design needs {numtaps} taps, cap is {MAX_TAPS}"
        )
    return numtaps, beta


#: Cephes' Chebyshev coefficients of ``exp(-x) * i0(x)`` on [0, 8] and of
#: ``exp(-x) * sqrt(x) * i0(x)`` on (8, inf), highest order first.
_I0_A = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16, 1.715391285555133e-15,
    -1.1685332877993451e-14, 7.676185498604936e-14, -4.856446783111929e-13, 2.95505266312964e-12,
    -1.726826291441556e-11, 9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07, 1.1173875391201037e-06,
    -4.4167383584587505e-06, 1.6448448070728896e-05, -5.754195010082104e-05, 0.00018850288509584165,
    -0.0005763755745385824, 0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764, 0.17162090152220877,
    -0.3046826723431984, 0.6767952744094761,
)
_I0_B = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17, 3.461222867697461e-17,
    -2.8276239805165836e-16, -3.425485619677219e-16, 1.7725601330565263e-15, 3.8116806693526224e-15,
    -9.554846698828307e-15, -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11, -3.1499165279632416e-11,
    1.1889147107846439e-11, 4.94060238822497e-10, 3.3962320257083865e-09, 2.266668990498178e-08,
    2.0489185894690638e-07, 2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
)


def _chbevl(y: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Cephes ``chbevl``: the Chebyshev series ``coef`` at each ``y``."""
    b0, b1 = coef[0], 0.0
    for c in coef[1:]:
        b2, b1 = b1, b0
        b0 = y * b1 - b2 + c
    return 0.5 * (b0 - b2)


def _i0(x: np.ndarray) -> np.ndarray:
    """Cephes ``i0`` of each nonnegative ``x``, with the C library's ``exp``
    (``math.exp``): numpy's own ``exp`` rounds some arguments differently."""
    exp = np.array([math.exp(v) for v in x.tolist()])
    out = np.empty_like(x)
    low, high = x <= 8.0, x > 8.0
    out[low] = exp[low] * _chbevl(x[low] / 2.0 - 2.0, _I0_A)
    out[high] = exp[high] * _chbevl(32.0 / x[high] - 2.0, _I0_B) / np.sqrt(x[high])
    return out


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
    return ComplexSignal(out, s.sample_rate_hz, transient=s.transient + half)
