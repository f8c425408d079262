"""The conventional chain: modulate with a complex carrier but transmit only
the real part, then demodulate by mixing and low-pass filtering.

Taking the real part splits the baseband's energy into two conjugate-mirrored
bands around +/- the carrier frequency.  Demodulation mixes one back to DC
with ``complex_demodulate`` and low-pass filters the other, the image, away
with its half of the energy: the recovered waveform is the baseband at half
amplitude (or its conjugate, depending on the mixing direction).  The image
lands 2*f_c from DC, or fs - 2*f_c once that wraps past fs/2, and the
stopband, from cutoff + transition/2, must not pass its inner edge.
Modulation keeps the two bands apart by the dual chain's rule with no guard:
the band moved to f stays on f's side of DC, so its mirror never meets it.
"""

from __future__ import annotations

import numpy as np

from .complexcarrier import _clear_of_dc, _isolating_lowpass, complex_demodulate, complex_modulate
from .filters import FilterSpec, apply_filter
from .signals import ComplexSignal, real_part


def real_modulate(bb: ComplexSignal, frequency_hz: float) -> ComplexSignal:
    """Mix the baseband up to the carrier at the signed ``frequency_hz`` and
    keep only the real part.

    The output's imaginary part is exactly zero and its spectrum occupies
    both bands around +/- carrier, each holding half the energy.  ValueError
    unless the moved band's DC-facing edge stays on the carrier's side of DC,
    touching it at most: past DC, the band's mirror would overlap it.  The
    shift itself is ``complex_modulate``'s, guard included.
    """
    _clear_of_dc(bb, frequency_hz, 0.0, "baseband")
    return real_part(complex_modulate(bb, frequency_hz))


def real_demodulate(passband: ComplexSignal, frequency_hz: float, lpf: FilterSpec) -> ComplexSignal:
    """Mix a real passband signal by a carrier and low-pass filter.

    ``frequency_hz`` is the mixing oscillator's signed frequency:
    mixing a signal that was modulated at +f with a -f carrier recovers
    baseband/2; mixing with +f recovers conj(baseband)/2.  Either way the
    image, 2*f from DC or fs - 2*f once that wraps past fs/2, is filtered
    off with half the received energy; ValueError when the stopband, from
    ``cutoff_hz + transition_hz/2``, passes the image's inner edge.  The
    output is group-delay compensated and flags the filter transients.
    """
    if np.any(passband.samples.imag != 0.0):
        raise ValueError("real-carrier demodulation expects a real-valued passband signal")
    taps = _isolating_lowpass(passband, abs(frequency_hz), lpf)
    return apply_filter(complex_demodulate(passband, -frequency_hz), taps)
