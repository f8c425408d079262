"""Complex-carrier chain: transmit the full complex product instead of its
real part.

Multiplying by a unit-modulus carrier translates the whole spectrum by the
signed carrier frequency and conserves energy exactly, so modulation and
demodulation are the same operation in opposite directions ("band moves"),
and the negative and positive bands can carry two independent streams at
once.  Band moves compose additively and commute, with zero shift as the
identity and the negated shift as the inverse.  Both modulators that put a
band beside another, the dual one and the real one (whose real part mirrors
the band), keep one rule: the band moved by f must stay on f's side of DC,
its DC-facing edge at least the guard from it.  Every demodulation in the
library is ``complex_demodulate``, the unguarded inverse of modulation;
where a low-pass filter then isolates one band, dual or real, the other band
lands 2*f_c from DC, or fs - 2*f_c once 2*f_c wraps past fs/2, and the
stopband, from cutoff + transition/2, must not pass its inner edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import FilterSpec, apply_filter, design_lowpass
from .signals import ComplexSignal, _mix, _require_aligned, _sum_sq, add, steady_pair
from .spectrum import occupied_extent


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


def _clear_of_dc(s: ComplexSignal, frequency_hz: float, guard_hz: float, name: str) -> None:
    """Raise ValueError unless ``s`` moved by ``frequency_hz`` lies on that
    shift's side of DC, ``guard_hz`` clear of it: ``lo + f >= guard_hz`` for
    ``f > 0`` and ``hi + f <= -guard_hz`` for ``f < 0``, over the extent
    ``[lo, hi]``.  A zero shift rejects any signal with energy; a signal
    without energy is never rejected."""
    extent = occupied_extent(s)
    if extent is None:
        return
    lo, hi = extent
    # the moved band's DC-facing edge, signed so that away from DC is positive
    clearance = lo + frequency_hz if frequency_hz > 0 else -(hi + frequency_hz)
    if frequency_hz == 0 or clearance < guard_hz:
        raise ValueError(
            f"{name} occupying [{lo}, {hi}] Hz does not fit a band at {frequency_hz} Hz "
            f"on its side of DC, {guard_hz} Hz clear of it"
        )


def dual_modulate(msg: DualMessage, f_c: float) -> ComplexSignal:
    """Carry stream A on the negative band and stream B on the positive band
    of a single complex waveform.  Each moved stream must keep to its own
    side of DC, ``guard_hz`` clear of it, so the two bands never meet."""
    if not f_c > 0:
        raise ValueError("dual modulation carrier frequency must be positive")
    _clear_of_dc(msg.stream_a, -f_c, msg.guard_hz, "stream_a")
    _clear_of_dc(msg.stream_b, +f_c, msg.guard_hz, "stream_b")
    moved_a = complex_modulate(msg.stream_a, -f_c)
    moved_b = complex_modulate(msg.stream_b, +f_c)
    return add(moved_a, moved_b)


def _isolating_lowpass(s: ComplexSignal, f_c: float, lpf: FilterSpec) -> np.ndarray:
    """``lpf``'s taps at ``s``'s rate, once it keeps the module's isolation
    rule, with ``b`` the two-sided width of the bands at +/-``f_c``: twice
    the largest ``|f| - f_c`` over ``s``'s occupied extent, 0 without energy."""
    lo, hi = occupied_extent(s) or (0.0, 0.0)
    b = 2.0 * max(hi - f_c, -lo - f_c, 0.0)
    sep = min(2 * f_c, s.sample_rate_hz - 2 * f_c)
    if lpf.cutoff_hz + lpf.transition_hz / 2 > sep - b / 2:
        raise ValueError(
            f"low-pass cutoff {lpf.cutoff_hz} Hz + transition {lpf.transition_hz}/2 Hz cannot isolate "
            f"one band at +/-{f_c} Hz from the other, {sep} Hz away (band width {b} Hz)"
        )
    return design_lowpass(lpf, s.sample_rate_hz)


def dual_demodulate(cb: ComplexSignal, f_c: float, lpf: FilterSpec) -> tuple[ComplexSignal, ComplexSignal]:
    """Recover both streams of a dual-band signal.

    Each branch demodulates one band to DC with ``complex_demodulate`` and
    low-pass filters the other away; the branches are independent, so their
    results do not depend on evaluation order.
    """
    if not f_c > 0:
        raise ValueError("dual demodulation carrier frequency must be positive")
    taps = _isolating_lowpass(cb, f_c, lpf)
    recovered_a = apply_filter(complex_demodulate(cb, -f_c), taps)
    recovered_b = apply_filter(complex_demodulate(cb, +f_c), taps)
    return recovered_a, recovered_b


def evm_db(recovered: ComplexSignal, reference: ComplexSignal) -> float:
    """Error vector magnitude, ``10*log10(err_energy / ref_energy)`` in dB,
    over the samples outside both signals' transient regions."""
    r, ref = steady_pair(recovered, reference)
    ref_energy = _sum_sq(ref)
    if ref_energy == 0.0:
        raise ValueError("EVM reference signal has zero energy")
    err_energy = _sum_sq(r - ref)
    if err_energy == 0.0:
        return float("-inf")
    return float(10.0 * np.log10(err_energy / ref_energy))
