"""Two-sided spectral analysis on a signed frequency axis.

The negative half of the axis is the L-band (left/clockwise-rotating
content), the positive half the R-band; the f = 0 bin is reported
separately as DC.  Bin energies are normalized as ``|X_m|^2 / (N * fs)`` so
that spectral energy and the time-domain energy ``sum(|x|^2)/fs`` agree
(Parseval) without per-module fudge factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

import numpy as np

from .signals import ComplexSignal, _adopt, _sealed, _sum_sq


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Two-sided DFT view of a signal.

    ``bins`` run from -fs/2 toward +fs/2 in steps of ``resolution_hz``, at
    the frequencies ``freq_axis_hz`` derives from the two (bin ``n // 2``
    is DC); ``energy``, the sum of ``bin_energies()``, is derived from them.
    """

    bins: np.ndarray
    resolution_hz: float
    energy: float = field(init=False)

    def __post_init__(self) -> None:
        bins = _adopt(self.bins)
        if bins.ndim != 1:
            raise ValueError("bins must be one-dimensional")
        if not 0 < self.resolution_hz < np.inf:
            raise ValueError("resolution_hz must be positive and finite")
        object.__setattr__(self, "bins", bins)
        # NaN/Inf bins and an overflow are rejected once, here, for every
        # later bin_energies()
        with np.errstate(over="ignore"):
            energy = float(np.sum(self.bin_energies()))
        if not np.isfinite(energy):
            raise ValueError("spectral bins are NaN/Inf or their energy overflows double precision")
        object.__setattr__(self, "energy", energy)

    @property
    def freq_axis_hz(self) -> np.ndarray:
        return (np.arange(self.n) - self.n // 2) * self.resolution_hz

    @property
    def n(self) -> int:
        return int(self.bins.size)

    @property
    def sample_rate_hz(self) -> float:
        return self.resolution_hz * self.n

    def bin_energies(self) -> np.ndarray:
        b = self.bins
        energies = b.real**2
        energies += b.imag**2
        energies /= self.n * self.sample_rate_hz
        return energies


@dataclass(frozen=True)
class BandEnergyReport:
    """Energy partition of a spectrum into L-band (f < 0), R-band (f > 0)
    and the DC bin, with fractions of the total."""

    l_band: float
    r_band: float
    dc: float
    total: float
    l_fraction: float
    r_fraction: float


def dft_two_sided(s: ComplexSignal) -> Spectrum:
    """DFT with the axis centered so negative frequencies precede positive,
    checked against the signal's energy ``sum(|x|^2)/fs`` (Parseval)."""
    if s.n < 2:
        raise ValueError("spectral analysis needs at least 2 samples")
    spectrum = np.fft.fft(s.samples)
    # fftshift's rotation, as two slices: bin n - n//2 becomes the first
    h = s.n - s.n // 2
    bins = np.concatenate((spectrum[h:], spectrum[:h]))
    with np.errstate(over="ignore"):
        source = _sum_sq(s.samples) / s.sample_rate_hz
    if not np.isfinite(source):
        raise ValueError("signal energy overflows double precision")
    sp = Spectrum(_sealed(bins), s.sample_rate_hz / s.n)
    if source > 0 and abs(sp.energy - source) > 1e-9 * source:
        raise ValueError("spectral energy does not match the signal's (Parseval violated)")
    return sp


def band_report(sp: Spectrum) -> BandEnergyReport:
    """Partition spectral energy into L-band, R-band and DC."""
    energies = sp.bin_energies()
    total = sp.energy
    if total <= 0.0:
        raise ValueError("cannot partition an all-zero spectrum")
    center = sp.n // 2
    l_band = float(np.sum(energies[:center]))
    r_band = float(np.sum(energies[center + 1 :]))
    dc = float(energies[center])
    return BandEnergyReport(l_band, r_band, dc, total, l_band / total, r_band / total)


def peak_frequency(sp: Spectrum) -> float:
    """Signed frequency of the maximum-energy bin.

    Ties break toward the smaller |f|, then toward the negative frequency,
    so the result is reproducible across platforms.
    """
    energies = sp.bin_energies()
    peak = energies.max()
    if peak <= 0.0:
        raise ValueError("cannot locate a peak in an all-zero spectrum")
    candidates = (np.flatnonzero(energies == peak) - sp.n // 2) * sp.resolution_hz
    order = np.lexsort((candidates, np.abs(candidates)))
    return float(candidates[order[0]])


#: Share of the energy the occupied band holds.
OCCUPIED_FRACTION = 0.999


def _occupied_range(sp: Spectrum) -> tuple[float, float]:
    """Trims up to ``(1 - OCCUPIED_FRACTION)/2`` of the total energy from
    each tail and returns the (lowest, highest) surviving bin frequencies."""
    if sp.energy <= 0.0:
        raise ValueError("an all-zero spectrum occupies no band")
    energies = sp.bin_energies()
    tail = (1.0 - OCCUPIED_FRACTION) / 2.0 * sp.energy
    fwd = np.cumsum(energies)
    lo = int(np.searchsorted(fwd, tail, side="right"))
    rev = np.cumsum(energies[::-1])
    hi = sp.n - 1 - int(np.searchsorted(rev, tail, side="right"))
    if lo > hi:
        lo = hi = int(np.argmax(energies))
    # the entries of freq_axis_hz at lo and hi, without building the axis
    center = sp.n // 2
    return float((lo - center) * sp.resolution_hz), float((hi - center) * sp.resolution_hz)


#: ``(lo, hi)`` per signal, or ``None`` for an all-zero one.  Signals are
#: immutable and compare by identity, so an entry stays valid until the
#: signal is collected; only the two floats are kept, never the spectrum.
_EXTENTS: WeakKeyDictionary[ComplexSignal, tuple[float, float] | None] = WeakKeyDictionary()


def occupied_extent(s: ComplexSignal) -> tuple[float, float] | None:
    """Frequency range holding ``OCCUPIED_FRACTION`` of the signal's
    energy, or ``None`` when every sample is zero and no band is occupied;
    worked out once per signal.

    This is the bandwidth guard every chain checks its preconditions with.
    """
    if s not in _EXTENTS:
        _EXTENTS[s] = _occupied_range(dft_two_sided(s)) if np.any(s.samples) else None
    return _EXTENTS[s]


def occupied_bandwidth(s: ComplexSignal, *, f_center: float = 0.0) -> float:
    """Two-sided occupied bandwidth: twice the largest ``|f| - f_center``
    over the frequencies ``occupied_extent`` keeps.  The default measures
    DC-centered content; ``f_center`` set to a carrier measures the bands
    around +/- that carrier.  Zero for an all-zero signal."""
    extent = occupied_extent(s)
    if extent is None:
        return 0.0
    lo, hi = extent
    return 2.0 * max(hi - f_center, -lo - f_center, 0.0)


def _mirror_pairs(sp: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Bins at (-f, +f) for f = k*resolution, k = 1..kmax."""
    center = sp.n // 2
    kmax = min(center, sp.n - 1 - center)
    if kmax < 1:
        raise ValueError("spectrum too short for mirror comparison")
    neg = sp.bins[center - 1 :: -1][:kmax]
    pos = sp.bins[center + 1 : center + 1 + kmax]
    return neg, pos


def conj_mirror_error(sp: Spectrum) -> float:
    """Max deviation from S(-f) == conj(S(+f)), relative to the peak bin.

    Zero (to rounding) for the spectrum of any real-valued signal.
    """
    neg, pos = _mirror_pairs(sp)
    peak = float(np.max(np.abs(sp.bins)))
    if peak <= 0.0:
        raise ValueError("all-zero spectrum has no mirror structure")
    return float(np.max(np.abs(neg - np.conj(pos))) / peak)


def conj_mirror_correlation(sp: Spectrum) -> float:
    """Normalized correlation between L-band bins and conjugated mirrored
    R-band bins: 1 for real-valued signals, near 0 when the two bands carry
    independent content."""
    neg, pos = _mirror_pairs(sp)
    norm = float(np.sqrt(_sum_sq(neg)) * np.sqrt(_sum_sq(pos)))
    if norm == 0.0:
        return 0.0
    # np.sum, not np.vdot, for the reason _sum_sq gives
    return float(np.abs(np.sum(pos * neg)) / norm)
