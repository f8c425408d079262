"""The conventional chain: modulate with a complex carrier but transmit only
the real part, then demodulate by mixing and low-pass filtering.

Taking the real part splits the baseband's energy into two conjugate-mirrored
bands around +/- the carrier frequency.  Demodulation mixes one of them back
to DC with ``complex_demodulate``, and the low-pass filter that removes the
2x-carrier image necessarily discards the other band's half of the energy:
the recovered waveform is the baseband at half amplitude (or its conjugate,
depending on the mixing direction).
"""

from __future__ import annotations

import numpy as np

from .complexcarrier import complex_demodulate, complex_modulate
from .filters import FilterSpec, apply_filter, design_lowpass
from .signals import ComplexSignal, real_part
from .spectrum import occupied_bandwidth


def real_modulate(bb: ComplexSignal, frequency_hz: float) -> ComplexSignal:
    """Mix the baseband up to the carrier at the signed ``frequency_hz`` and
    keep only the real part.

    The output's imaginary part is exactly zero and its spectrum occupies
    both bands around +/- carrier, each holding half the energy.  The shift
    itself is ``complex_modulate``'s, guard included.
    """
    b = occupied_bandwidth(bb)
    if b >= abs(frequency_hz):
        raise ValueError(
            f"baseband bandwidth {b} Hz overlaps the carrier at {frequency_hz} Hz; "
            "real-carrier modulation needs bandwidth below |carrier|"
        )
    return real_part(complex_modulate(bb, frequency_hz))


def real_demodulate(passband: ComplexSignal, frequency_hz: float, lpf: FilterSpec) -> ComplexSignal:
    """Mix a real passband signal by a carrier and low-pass filter.

    ``frequency_hz`` is the mixing oscillator's signed frequency:
    mixing a signal that was modulated at +f with a -f carrier recovers
    baseband/2; mixing with +f recovers conj(baseband)/2.  Either way the
    image at twice the carrier is filtered off, discarding half the received
    energy.  The output is group-delay compensated and flags the filter
    transients.
    """
    if np.any(passband.samples.imag != 0.0):
        raise ValueError("real-carrier demodulation expects a real-valued passband signal")
    f_c = abs(frequency_hz)
    b = occupied_bandwidth(passband, f_center=f_c)
    if lpf.cutoff_hz >= 2 * f_c - b:
        raise ValueError(
            f"low-pass cutoff {lpf.cutoff_hz} Hz cannot reject the image at "
            f"{2 * f_c} Hz (passband width {b} Hz)"
        )
    taps = design_lowpass(lpf, passband.sample_rate_hz)
    return apply_filter(complex_demodulate(passband, -frequency_hz), taps)
