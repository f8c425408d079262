"""Complex sampled-signal core: value types, oscillators, pointwise algebra,
and seeded baseband message generation.

All values are immutable and every operation is a pure function returning a
new signal, so everything here is safe to share across threads.

Two conventions matter throughout:

* The time base is index-based, ``t_k = k / sample_rate_hz``, so the
  algebraic identities between oscillators hold exactly at sample instants.
* Oscillator phase is computed from the cycle count reduced to the nearest
  whole cycle, ``2*pi * (f*k/fs - round(f*k/fs))``, instead of the raw
  ``2*pi*f*k/fs``.  For on-grid frequencies (integer cycles over a
  power-of-two rate) the reduced count is exact in double precision, which
  keeps multi-step frequency-shift identities below 1e-12 per sample even
  after one second of accumulated phase, and makes negating the frequency
  an exact conjugation.

Symbol generation uses numpy's PCG64 generator, seeded explicitly: the same
seed yields the same symbols on every platform and run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.signal import upfirdn

TWO_PI = 2.0 * np.pi

#: Raised-cosine pulses are truncated to this many symbol durations per side.
RC_SPAN_SYMBOLS = 8


@dataclass(frozen=True, eq=False)
class ComplexSignal:
    """Uniformly sampled complex waveform.

    Attributes:
        samples: complex128 array, length >= 1, all values finite.
        sample_rate_hz: sampling rate, > 0.
        transient: number of leading and trailing samples contaminated by
            filter edge effects; 0 for freshly generated signals.
    """

    samples: np.ndarray
    sample_rate_hz: float
    transient: int = 0

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.ndim != 1:
            raise ValueError("samples must be a one-dimensional sequence")
        if samples.size < 1:
            raise ValueError("a signal must contain at least one sample")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        if not np.isfinite(samples).all():
            raise ValueError("signal samples must be finite (no NaN/Inf)")
        if self.transient < 0:
            raise ValueError("transient sample count cannot be negative")
        samples = samples.copy()
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return int(self.samples.size)

    def time_axis(self) -> np.ndarray:
        return np.arange(self.n) / self.sample_rate_hz

    def steady(self) -> np.ndarray:
        """Samples with the transient edges removed."""
        if 2 * self.transient >= self.n:
            raise ValueError("signal has no steady-state samples left")
        return self.samples[self.transient : self.n - self.transient]


@dataclass(frozen=True)
class CarrierConfig:
    """A rotating complex carrier: the sign of ``frequency_hz`` selects the
    rotation direction (negative = left/clockwise, positive =
    right/counterclockwise)."""

    frequency_hz: float
    initial_phase_rad: float = 0.0


class Constellation(Enum):
    QPSK = "qpsk"
    QAM16 = "qam16"

    @property
    def points(self) -> np.ndarray:
        """Constellation point set, normalized to unit average power."""
        return _CONSTELLATION_POINTS[self]

    @classmethod
    def parse(cls, name: str) -> "Constellation":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(c.value for c in cls)
            raise ValueError(f"unknown constellation {name!r}; expected one of: {valid}") from None


_CONSTELLATION_POINTS = {
    # 4-PSK on the axes; unit modulus, so unit average power as well
    Constellation.QPSK: np.array([1 + 0j, 1j, -1 + 0j, -1j]),
    Constellation.QAM16: np.array(
        [i + 1j * q for i in (-3.0, -1.0, 1.0, 3.0) for q in (-3.0, -1.0, 1.0, 3.0)]
    )
    / np.sqrt(10.0),
}
for _pts in _CONSTELLATION_POINTS.values():
    _pts.setflags(write=False)


@dataclass(frozen=True, eq=False)
class SymbolStream:
    """A baseband message: constellation symbols plus the seed they came from."""

    symbols: np.ndarray
    constellation: Constellation
    seed: int

    def __post_init__(self) -> None:
        symbols = np.asarray(self.symbols, dtype=np.complex128)
        if symbols.ndim != 1 or symbols.size < 1:
            raise ValueError("a symbol stream must contain at least one symbol")
        if not np.all(np.isin(symbols, self.constellation.points)):
            raise ValueError(f"symbols contain points outside the {self.constellation.value} set")
        symbols = symbols.copy()
        symbols.setflags(write=False)
        object.__setattr__(self, "symbols", symbols)

    @classmethod
    def random(cls, constellation: Constellation, count: int, seed: int) -> "SymbolStream":
        """Draw ``count`` symbols uniformly from the constellation (PCG64)."""
        if count < 1:
            raise ValueError("symbol count must be at least 1")
        rng = np.random.Generator(np.random.PCG64(seed))
        points = constellation.points
        idx = rng.integers(0, points.size, size=count)
        return cls(points[idx], constellation, seed)


def oscillator(carrier: CarrierConfig, n: int, sample_rate_hz: float) -> ComplexSignal:
    """Unit-modulus complex exponential: sample k is
    ``exp(1j*(2*pi*f*k/fs + phase))``."""
    if n < 1:
        raise ValueError("oscillator sample count must be at least 1")
    if not abs(carrier.frequency_hz) < sample_rate_hz / 2:
        raise ValueError(
            f"carrier frequency {carrier.frequency_hz} Hz violates the Nyquist "
            f"limit for sample rate {sample_rate_hz} Hz"
        )
    k = np.arange(n, dtype=np.float64)
    cycles = (carrier.frequency_hz * k) / sample_rate_hz
    phase = TWO_PI * (cycles - np.round(cycles)) + carrier.initial_phase_rad
    return ComplexSignal(np.exp(1j * phase), sample_rate_hz)


def conjugate(s: ComplexSignal) -> ComplexSignal:
    """Elementwise complex conjugate (flips rotation handedness)."""
    return ComplexSignal(np.conj(s.samples), s.sample_rate_hz, transient=s.transient)


def real_part(s: ComplexSignal) -> ComplexSignal:
    """Keep the real component; the output's imaginary part is exactly zero."""
    return ComplexSignal(s.samples.real.astype(np.complex128), s.sample_rate_hz, transient=s.transient)


def _require_aligned(a: ComplexSignal, b: ComplexSignal, op: str) -> None:
    if a.n != b.n:
        raise ValueError(f"{op} requires equal lengths: {a.n} != {b.n}")
    if a.sample_rate_hz != b.sample_rate_hz:
        raise ValueError(
            f"{op} requires equal sample rates: {a.sample_rate_hz} != {b.sample_rate_hz}"
        )


def multiply(a: ComplexSignal, b: ComplexSignal) -> ComplexSignal:
    """Elementwise complex product."""
    _require_aligned(a, b, "multiply")
    return ComplexSignal(a.samples * b.samples, a.sample_rate_hz, transient=max(a.transient, b.transient))


def add(a: ComplexSignal, b: ComplexSignal) -> ComplexSignal:
    """Elementwise sum."""
    _require_aligned(a, b, "add")
    return ComplexSignal(a.samples + b.samples, a.sample_rate_hz, transient=max(a.transient, b.transient))


def scale(s: ComplexSignal, c: complex) -> ComplexSignal:
    """Multiply every sample by the scalar ``c``."""
    return ComplexSignal(s.samples * c, s.sample_rate_hz, transient=s.transient)


def steady_pair(x: ComplexSignal, y: ComplexSignal) -> tuple[np.ndarray, np.ndarray]:
    """Samples of ``x`` and of ``y`` outside the larger of their two
    transient edges, so both slices cover the same instants."""
    skip = max(x.transient, y.transient)
    if 2 * skip >= x.n:
        raise ValueError("no steady-state samples left for comparison")
    return x.samples[skip : x.n - skip], y.samples[skip : y.n - skip]


def energy(s: ComplexSignal) -> float:
    """Signal energy ``sum(|x|^2) / fs``; zero iff every sample is zero."""
    return float(np.sum(s.samples.real**2 + s.samples.imag**2) / s.sample_rate_hz)


def raised_cosine_pulse(samples_per_symbol: int, rolloff: float) -> np.ndarray:
    """Time-domain raised-cosine pulse, peak 1 at t=0, truncated to
    ``RC_SPAN_SYMBOLS`` symbol durations on each side."""
    if samples_per_symbol < 1:
        raise ValueError("samples_per_symbol must be at least 1")
    if not 0.0 <= rolloff <= 1.0:
        raise ValueError("rolloff must lie in [0, 1]")
    half = RC_SPAN_SYMBOLS * samples_per_symbol
    t = np.arange(-half, half + 1, dtype=np.float64) / samples_per_symbol
    if rolloff == 0.0:
        return np.sinc(t)
    denom = 1.0 - (2.0 * rolloff * t) ** 2
    singular = np.abs(denom) < 1e-8
    pulse = np.empty_like(t)
    reg = ~singular
    pulse[reg] = np.sinc(t[reg]) * np.cos(np.pi * rolloff * t[reg]) / denom[reg]
    # limit value at t = +/- 1/(2*rolloff)
    pulse[singular] = (np.pi / 4.0) * np.sinc(1.0 / (2.0 * rolloff))
    return pulse


def generate_baseband(
    msg: SymbolStream,
    samples_per_symbol: int,
    shaping: str = "rectangular",
    *,
    rolloff: float = 0.25,
    sample_rate_hz: float,
) -> ComplexSignal:
    """Turn a symbol stream into a sampled baseband waveform.

    ``shaping`` is ``"rectangular"`` (each symbol held for
    ``samples_per_symbol`` samples) or ``"raised_cosine"`` (symbols
    interpolated through a truncated raised-cosine pulse; the occupied
    two-sided bandwidth is then at most ``(1 + rolloff) * symbol_rate``).
    Output is deterministic for a fixed (seed, constellation, shaping).
    """
    if samples_per_symbol < 1:
        raise ValueError("samples_per_symbol must be at least 1")
    n_out = msg.symbols.size * samples_per_symbol
    if shaping == "rectangular":
        samples = np.repeat(msg.symbols, samples_per_symbol)
    elif shaping == "raised_cosine":
        pulse = raised_cosine_pulse(samples_per_symbol, rolloff)
        delay = (pulse.size - 1) // 2
        # polyphase interpolation: the convolution of the zero-stuffed
        # symbols with the pulse, without the multiplies by stuffed zeros
        samples = upfirdn(pulse, msg.symbols, up=samples_per_symbol)[delay : delay + n_out]
    else:
        raise ValueError(f"unknown shaping {shaping!r}; expected 'rectangular' or 'raised_cosine'")
    return ComplexSignal(samples, sample_rate_hz)
