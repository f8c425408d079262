"""Complex-carrier chain: transmit the full complex product instead of its
real part.

Multiplying by a unit-modulus carrier translates the whole spectrum by the
signed carrier frequency and conserves energy exactly, so modulation and
demodulation are the same operation in opposite directions ("band moves"),
and the negative and positive bands can carry two independent streams at
once.  Band moves compose additively and commute, with zero shift as the
identity and the negated shift as the inverse.  Every demodulation in the
library is ``complex_demodulate``, the unguarded inverse of modulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import FilterSpec, apply_filter, design_lowpass
from .signals import ComplexSignal, _mix, _require_aligned, _sum_sq, add, steady_pair
from .spectrum import occupied_bandwidth, occupied_extent


def complex_modulate(bb: ComplexSignal, frequency_hz: float) -> ComplexSignal:
    """Shift the baseband to the carrier's signed frequency ``frequency_hz``.

    Energy is conserved and the output occupies a single band (negative for
    a negative carrier, positive for a positive one).  This is the one
    guarded shift: it raises ValueError when the moved content would leave
    ``[-fs/2, fs/2)``; a zero shift and a signal without energy are never
    checked.
    """
    extent = occupied_extent(bb) if frequency_hz != 0.0 else None
    if extent is not None:
        lo, hi = extent
        nyq = bb.sample_rate_hz / 2
        if lo + frequency_hz < -nyq or hi + frequency_hz >= nyq:
            raise ValueError(
                f"band move by {frequency_hz} Hz would push content occupying "
                f"[{lo}, {hi}] Hz past the Nyquist limit"
            )
    return _mix(bb, frequency_hz)


def complex_demodulate(cb: ComplexSignal, frequency_hz: float) -> ComplexSignal:
    """Undo ``complex_modulate`` with the conjugate carrier, the negated
    frequency, and no band guard.  No filter is involved and no energy is
    lost: the round trip reproduces the baseband to rounding error."""
    return _mix(cb, -frequency_hz)


def band_move(s: ComplexSignal, delta_hz: float) -> ComplexSignal:
    """Translate the whole spectrum by ``delta_hz``."""
    return complex_modulate(s, delta_hz)


@dataclass(frozen=True)
class DualMessage:
    """Two independent streams destined for the negative (stream_a) and
    positive (stream_b) bands, with a spectral guard toward DC."""

    stream_a: ComplexSignal
    stream_b: ComplexSignal
    guard_hz: float = 0.0

    def __post_init__(self) -> None:
        _require_aligned(self.stream_a, self.stream_b, "DualMessage")
        if self.guard_hz < 0:
            raise ValueError("guard_hz cannot be negative")


def dual_modulate(msg: DualMessage, f_c: float) -> ComplexSignal:
    """Carry stream A on the negative band and stream B on the positive band
    of a single complex waveform."""
    if not f_c > 0:
        raise ValueError("dual modulation carrier frequency must be positive")
    for name, stream in (("stream_a", msg.stream_a), ("stream_b", msg.stream_b)):
        b = occupied_bandwidth(stream)
        if b + 2 * msg.guard_hz > 2 * f_c:
            raise ValueError(
                f"{name} bandwidth {b} Hz plus guard {msg.guard_hz} Hz does not "
                f"fit a band at +/-{f_c} Hz"
            )
    moved_a = complex_modulate(msg.stream_a, -f_c)
    moved_b = complex_modulate(msg.stream_b, +f_c)
    return add(moved_a, moved_b)


def dual_demodulate(
    cb: ComplexSignal, f_c: float, lpf: FilterSpec
) -> tuple[ComplexSignal, ComplexSignal]:
    """Recover both streams of a dual-band signal.

    Each branch demodulates one band to DC with ``complex_demodulate`` and
    low-pass filters the other away; the branches are independent, so their
    results do not depend on evaluation order.  The other band lands at
    2*f_c from DC, or at fs - 2*f_c once 2*f_c wraps past fs/2, and the
    filter's stopband must begin before the nearer of the two.
    """
    if not f_c > 0:
        raise ValueError("dual demodulation carrier frequency must be positive")
    b = occupied_bandwidth(cb, f_center=f_c)
    sep = min(2 * f_c, cb.sample_rate_hz - 2 * f_c)
    if lpf.cutoff_hz + lpf.transition_hz > sep - b:
        raise ValueError(
            f"low-pass cutoff {lpf.cutoff_hz} Hz + transition {lpf.transition_hz} Hz "
            f"cannot isolate one band at +/-{f_c} Hz from the other, {sep} Hz "
            f"away (stream width {b} Hz)"
        )
    taps = design_lowpass(lpf, cb.sample_rate_hz)
    recovered_a = apply_filter(complex_demodulate(cb, -f_c), taps)
    recovered_b = apply_filter(complex_demodulate(cb, +f_c), taps)
    return recovered_a, recovered_b


def evm_db(recovered: ComplexSignal, reference: ComplexSignal) -> float:
    """Error vector magnitude, ``10*log10(err_energy / ref_energy)`` in dB,
    over the samples outside both signals' transient regions."""
    _require_aligned(recovered, reference, "evm_db")
    r, ref = steady_pair(recovered, reference)
    ref_energy = _sum_sq(ref)
    if ref_energy == 0.0:
        raise ValueError("EVM reference signal has zero energy")
    err_energy = _sum_sq(r - ref)
    if err_energy == 0.0:
        return float("-inf")
    return float(10.0 * np.log10(err_energy / ref_energy))
