"""Two-sided spectral analysis on a signed frequency axis.

The negative half of the axis is the L-band (left/clockwise-rotating
content), the positive half the R-band; the f = 0 bin is reported
separately as DC.  Bin energies are normalized as ``|X_m|^2 / (N * fs)`` so
that spectral energy and the time-domain energy ``sum(|x|^2)/fs`` agree
(Parseval) without per-module fudge factors.  Every transform, the band
guard's included, is one checked step: ``dft_two_sided`` wraps its bins in
a ``Spectrum``, and ``occupied_extent`` trims its bin energies directly.
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
        return _bin_energies(self.bins, self.sample_rate_hz)


def _bin_energies(bins: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """``|X_m|^2 / (N * fs)`` per bin."""
    energies = bins.real**2
    energies += bins.imag**2
    energies /= bins.size * sample_rate_hz
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


def _checked_transform(s: ComplexSignal) -> tuple[np.ndarray, np.ndarray, float]:
    """The one transform of the module: the fftshifted DFT bins of ``s``,
    their energies ``|X_m|^2 / (N * fs)`` and the energies' sum, checked
    against the signal's energy ``sum(|x|^2)/fs`` (Parseval)."""
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
        # Spectrum's checks, at the rate it derives: the resolution times n
        resolution = s.sample_rate_hz / s.n
        if not resolution > 0:  # fs/n underflows for a subnormal fs
            raise ValueError("resolution_hz must be positive and finite")
        energies = _bin_energies(bins, resolution * s.n)
        total = float(energies.sum())
    if not np.isfinite(total):
        raise ValueError("spectral bins are NaN/Inf or their energy overflows double precision")
    if source > 0 and abs(total - source) > 1e-9 * source:
        raise ValueError("spectral energy does not match the signal's (Parseval violated)")
    return bins, energies, total


def dft_two_sided(s: ComplexSignal) -> Spectrum:
    """DFT with the axis centered so negative frequencies precede positive,
    checked against the signal's energy ``sum(|x|^2)/fs`` (Parseval)."""
    return Spectrum(_sealed(_checked_transform(s)[0]), s.sample_rate_hz / s.n)


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


def _occupied_range(s: ComplexSignal) -> tuple[float, float] | None:
    """Trims up to ``(1 - OCCUPIED_FRACTION)/2`` of the total energy from
    each tail of the checked transform's bin energies and returns the
    (lowest, highest) surviving bin frequencies; None when they sum to 0."""
    _, energies, total = _checked_transform(s)
    if total == 0.0:
        return None
    tail = (1.0 - OCCUPIED_FRACTION) / 2.0 * total
    # array methods, not their np.* wrappers, whose dispatch costs about a
    # microsecond a call, a few percent of a guard at 4096 samples
    lo = int(energies.cumsum().searchsorted(tail, side="right"))
    # the reverse running sum over the bins from lo up only: when it never
    # passes the tail, hi = lo - 1, as over all bins, and the peak decides
    hi = s.n - 1 - int(energies[lo:][::-1].cumsum().searchsorted(tail, side="right"))
    if lo > hi:
        lo = hi = int(energies.argmax())
    # the entries of freq_axis_hz at lo and hi, without building the axis
    center = s.n // 2
    resolution = s.sample_rate_hz / s.n
    return float((lo - center) * resolution), float((hi - center) * resolution)


#: ``(lo, hi)`` per signal, or ``None`` for one without energy.  Signals are
#: immutable and compare by identity, so an entry stays valid until the
#: signal is collected; only the two floats are kept, never the spectrum.
_EXTENTS: WeakKeyDictionary[ComplexSignal, tuple[float, float] | None] = WeakKeyDictionary()


def occupied_extent(s: ComplexSignal) -> tuple[float, float] | None:
    """Frequency range holding ``OCCUPIED_FRACTION`` of the signal's
    energy, or ``None`` when its energy is zero (every sample is zero, or
    too small for its square to be a double) and no band is occupied;
    worked out once per signal.

    This is the bandwidth guard every chain checks its preconditions with.
    It runs the transform ``dft_two_sided`` runs, with the same checks and
    errors, but trims the bin energies without building a ``Spectrum``.
    """
    extent = _EXTENTS.get(s, ())  # () marks a miss: an extent is a pair or None
    if extent == ():
        # silence skips the transform, which needs two samples, for the same None
        extent = _EXTENTS[s] = _occupied_range(s) if s.samples.any() else None
    return extent


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
