"""Physical embedding of complex signals as two orthogonal field components.

A complex waveform maps onto a propagating field by sending its real part on
one spatial axis and its imaginary part on the orthogonal axis: a
positive-frequency tone becomes a right-hand circularly polarized pair
(cos, sin), a negative-frequency tone the left-hand pair, and a real-valued
signal is linearly polarized (one component identically zero).  The channel
model adds seeded per-component Gaussian noise and optional real-valued
crosstalk between the components.  A ``PolarizedPair`` takes its float64
components by the rule of every value type, ``signals._adopt``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .signals import ComplexSignal, _adopt, _sealed
from .spectrum import band_report, dft_two_sided

#: Band-energy fraction above which a pair is classified as circular.
HANDEDNESS_THRESHOLD = 0.9


class Handedness(Enum):
    L = "L"
    R = "R"
    #: linear or otherwise indeterminate polarization
    LINEAR = "linear"


@dataclass(frozen=True, eq=False)
class PolarizedPair:
    """Two orthogonal real-valued field components at a common rate."""

    comp_y: np.ndarray
    comp_z: np.ndarray
    sample_rate_hz: float

    def __post_init__(self) -> None:
        comp_y = _adopt(self.comp_y, np.float64)
        comp_z = _adopt(self.comp_z, np.float64)
        if comp_y.ndim != 1 or comp_z.ndim != 1:
            raise ValueError("field components must be one-dimensional")
        if comp_y.size != comp_z.size:
            raise ValueError("field components must have equal lengths")
        if comp_y.size < 1:
            raise ValueError("a polarized pair must contain at least one sample")
        if not 0 < self.sample_rate_hz < np.inf:
            raise ValueError("sample_rate_hz must be positive and finite")
        if not np.isfinite(comp_y).all() or not np.isfinite(comp_z).all():
            raise ValueError("field components must be finite")
        object.__setattr__(self, "comp_y", comp_y)
        object.__setattr__(self, "comp_z", comp_z)

    @property
    def n(self) -> int:
        return int(self.comp_y.size)


@dataclass(frozen=True)
class ChannelConfig:
    """Additive-noise two-component channel with symmetric crosstalk."""

    noise_sigma: float = 0.0
    crosstalk: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma cannot be negative")
        if not 0.0 <= self.crosstalk < 1.0:
            raise ValueError("crosstalk must lie in [0, 1)")


def to_polarized(s: ComplexSignal) -> PolarizedPair:
    """Split a complex signal into its orthogonal real field components."""
    return PolarizedPair(s.samples.real, s.samples.imag, s.sample_rate_hz)


def from_polarized(p: PolarizedPair) -> ComplexSignal:
    """Exact inverse of :func:`to_polarized`."""
    return ComplexSignal(_sealed(p.comp_y + 1j * p.comp_z), p.sample_rate_hz)


def pair_energy(p: PolarizedPair) -> float:
    """Total field energy; equals the energy of the underlying complex
    signal exactly."""
    return float(np.sum(p.comp_y**2 + p.comp_z**2) / p.sample_rate_hz)


def transmit(p: PolarizedPair, ch: ChannelConfig) -> PolarizedPair:
    """Pass the pair through the channel.

    Each component keeps ``1 - crosstalk`` of itself, picks up ``crosstalk``
    of the other, and receives independent Gaussian noise of std
    ``noise_sigma``; all noise draws are deterministic under the seed.
    """
    rng = np.random.Generator(np.random.PCG64(ch.seed))
    keep = 1.0 - ch.crosstalk
    # an overflow leaves Inf behind, which PolarizedPair rejects
    with np.errstate(over="ignore"):
        noise_y = ch.noise_sigma * rng.standard_normal(p.n)
        noise_z = ch.noise_sigma * rng.standard_normal(p.n)
        out_y = keep * p.comp_y + ch.crosstalk * p.comp_z + noise_y
        out_z = keep * p.comp_z + ch.crosstalk * p.comp_y + noise_z
    return PolarizedPair(_sealed(out_y), _sealed(out_z), p.sample_rate_hz)


def detect_handedness(p: PolarizedPair) -> Handedness:
    """Classify the pair by where its reconstructed spectrum's energy sits.

    Right-hand circular content concentrates at positive frequencies,
    left-hand at negative; a linearly polarized (real) signal splits 50/50
    and comes back as :attr:`Handedness.LINEAR`.
    """
    s = from_polarized(p)
    if not np.any(s.samples):
        raise ValueError("cannot classify an all-zero pair")
    report = band_report(dft_two_sided(s))
    if report.r_fraction > HANDEDNESS_THRESHOLD:
        return Handedness.R
    if report.l_fraction > HANDEDNESS_THRESHOLD:
        return Handedness.L
    return Handedness.LINEAR
