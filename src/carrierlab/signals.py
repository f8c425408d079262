"""Complex sampled-signal core: value types, oscillators, pointwise algebra,
and seeded baseband message generation.

All values are immutable and every operation is a pure function returning a
new signal, so everything here is safe to share across threads.  All four
value types (``ComplexSignal``, ``SymbolStream``, ``Spectrum``,
``PolarizedPair``) take arrays through ``_adopt``: a read-only array of the
type's dtype that owns its data is held as it is, anything else is copied.
Producers and memos seal what they build with ``_sealed``.

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
* On that grid -- integer frequency and a power-of-two rate of at most
  ``CARRIER_TABLE_MAX_RATE_HZ`` -- ``oscillator`` gathers its samples from a
  memoised table instead of calling ``np.exp`` per sample.
  ``f*k/fs`` is then exact, and its reduced count repeats every two cycles
  (round-half-to-even sends the half-cycle tie down after an even whole
  count and up after an odd one), so entry ``(f*k) mod 2*fs`` is the
  ``np.exp`` of the very double the formula would pass it: the bits are
  the same as the formula's.
* A carrier is its signed frequency alone.  Every frequency shift in the
  library multiplies by the carrier's samples in one step (``_mix``),
  bit-identical to ``multiply(s, oscillator(...))``.

Symbol generation uses numpy's PCG64 generator, seeded explicitly: the same
seed yields the same symbols on every platform and run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi

#: Raised-cosine pulses are truncated to this many symbol durations per side.
RC_SPAN_SYMBOLS = 8


@dataclass(frozen=True, eq=False)
class ComplexSignal:
    """Uniformly sampled complex waveform.

    Attributes:
        samples: complex128 array, length >= 1, all values finite.
        sample_rate_hz: sampling rate, finite and > 0.
        transient: number of leading and trailing samples contaminated by
            filter edge effects; 0 for freshly generated signals.
    """

    samples: np.ndarray
    sample_rate_hz: float
    transient: int = 0

    def __post_init__(self) -> None:
        samples = _adopt(self.samples)
        if samples.ndim != 1:
            raise ValueError("samples must be a one-dimensional sequence")
        if samples.size < 1:
            raise ValueError("a signal must contain at least one sample")
        if not 0 < self.sample_rate_hz < np.inf:
            raise ValueError("sample_rate_hz must be positive and finite")
        if not np.isfinite(samples.view(np.float64)).all():
            raise ValueError("signal samples must be finite (no NaN/Inf)")
        if self.transient < 0:
            raise ValueError("transient sample count cannot be negative")
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return int(self.samples.size)


def _adopt(a, dtype=np.complex128) -> np.ndarray:
    """``a`` as a read-only ``dtype`` array: ``a`` itself when it is one and
    owns its data (its holder hands it over; nothing may unseal it or write
    through an older view), else a copy that writes to ``a`` cannot reach."""
    if isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.owndata and not a.flags.writeable:
        return a
    return _sealed(np.array(a, dtype=dtype))


def _sealed(fresh: np.ndarray) -> np.ndarray:
    """``fresh``, an array no one else holds, made read-only for ``_adopt``."""
    fresh.setflags(write=False)
    return fresh


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
    Constellation.QPSK: _sealed(np.array([1 + 0j, 1j, -1 + 0j, -1j])),
    Constellation.QAM16: _sealed(
        np.array([i + 1j * q for i in (-3.0, -1.0, 1.0, 3.0) for q in (-3.0, -1.0, 1.0, 3.0)]) / np.sqrt(10.0)
    ),
}


@dataclass(frozen=True, eq=False)
class SymbolStream:
    """A baseband message: symbols drawn from one constellation."""

    symbols: np.ndarray
    constellation: Constellation

    def __post_init__(self) -> None:
        symbols = _adopt(self.symbols)
        if symbols.ndim != 1 or symbols.size < 1:
            raise ValueError("a symbol stream must contain at least one symbol")
        if not np.all(np.isin(symbols, self.constellation.points)):
            raise ValueError(f"symbols contain points outside the {self.constellation.value} set")
        object.__setattr__(self, "symbols", symbols)

    @classmethod
    def random(cls, constellation: Constellation, count: int, seed: int) -> "SymbolStream":
        """Draw ``count`` symbols uniformly from the constellation (PCG64)."""
        if count < 1:
            raise ValueError("symbol count must be at least 1")
        rng = np.random.Generator(np.random.PCG64(seed))
        points = constellation.points
        idx = rng.integers(0, points.size, size=count)
        return cls(_sealed(points[idx]), constellation)


#: Largest sample rate whose on-grid oscillators are gathered from a table;
#: the table holds two cycles, 2 MiB at this rate.
CARRIER_TABLE_MAX_RATE_HZ = 2**16
_TABLE_BLOCK = 4096


def _carrier(cycles: np.ndarray) -> np.ndarray:
    """``exp(1j*2*pi*(c - round(c)))`` for each cycle count ``c``."""
    return np.exp(1j * (TWO_PI * (cycles - np.round(cycles))))


@cache
def _carrier_table(fs: int) -> np.ndarray:
    """Read-only ``_carrier(j/fs)`` for ``j`` in ``[0, 2*fs)``, ``fs`` a
    power of two."""
    table = np.empty(2 * fs, dtype=np.complex128)
    # evaluated in blocks, so that the temporaries stay small beside the table
    for lo in range(0, 2 * fs, _TABLE_BLOCK):
        hi = min(lo + _TABLE_BLOCK, 2 * fs)
        table[lo:hi] = _carrier(np.arange(lo, hi) / fs)
    return _sealed(table)


def oscillator(frequency_hz: float, n: int, sample_rate_hz: float) -> ComplexSignal:
    """Unit-modulus complex exponential: sample k is
    ``exp(1j*2*pi*f*k/fs)``, computed as ``exp(1j*2*pi*(c - round(c)))``
    with ``c = f*k/fs``.  The sign of ``f`` selects the rotation (negative =
    left/clockwise, positive = right/counterclockwise).

    When ``f`` is an integer and ``fs`` is a power of two no larger than
    ``CARRIER_TABLE_MAX_RATE_HZ``, sample k is entry ``(f*k) mod 2*fs`` of a
    memoised table of that same formula at ``c = j/fs``.  ``f*k/fs`` is exact
    there and ``c - round(c)`` depends only on ``c`` mod 2, since
    round-half-to-even looks at the parity of the whole-cycle count; so each
    sample is the same double through the same ``np.exp``, bit for bit.  Any
    other input evaluates the formula.
    """
    return ComplexSignal(_sealed(_carrier_samples(frequency_hz, n, sample_rate_hz)), sample_rate_hz)


def _carrier_samples(frequency_hz: float, n: int, sample_rate_hz: float) -> np.ndarray:
    """The samples of ``oscillator`` with these arguments, in a fresh array."""
    if n < 1:
        raise ValueError("oscillator sample count must be at least 1")
    if not abs(frequency_hz) < sample_rate_hz / 2:
        raise ValueError(
            f"carrier frequency {frequency_hz} Hz violates the Nyquist "
            f"limit for sample rate {sample_rate_hz} Hz"
        )
    fs = int(sample_rate_hz) if float(sample_rate_hz).is_integer() else 0
    if float(frequency_hz).is_integer() and 0 < fs <= CARRIER_TABLE_MAX_RATE_HZ and fs & (fs - 1) == 0:
        f = int(frequency_hz)
        index = np.arange(0, f * n, f, dtype=np.int64) if f else np.zeros(n, dtype=np.int64)
        return _carrier_table(fs).take(np.bitwise_and(index, 2 * fs - 1, out=index))
    cycles = (frequency_hz * np.arange(n, dtype=np.float64)) / sample_rate_hz
    return _carrier(cycles)


def _mix(s: ComplexSignal, frequency_hz: float) -> ComplexSignal:
    """``multiply(s, oscillator(frequency_hz, s.n, s.sample_rate_hz))`` bit for
    bit, the same product of the same samples, without the carrier's ``ComplexSignal``."""
    carrier = _carrier_samples(frequency_hz, s.n, s.sample_rate_hz)
    return ComplexSignal(_sealed(s.samples * carrier), s.sample_rate_hz, transient=s.transient)


def real_part(s: ComplexSignal) -> ComplexSignal:
    """Keep the real component; the output's imaginary part is exactly zero."""
    return ComplexSignal(s.samples.real, s.sample_rate_hz, transient=s.transient)


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
    return ComplexSignal(_sealed(a.samples * b.samples), a.sample_rate_hz, transient=max(a.transient, b.transient))


def add(a: ComplexSignal, b: ComplexSignal) -> ComplexSignal:
    """Elementwise sum."""
    _require_aligned(a, b, "add")
    return ComplexSignal(_sealed(a.samples + b.samples), a.sample_rate_hz, transient=max(a.transient, b.transient))


def steady_pair(x: ComplexSignal, y: ComplexSignal) -> tuple[np.ndarray, np.ndarray]:
    """Samples of ``x`` and of ``y``, two aligned signals, outside the larger
    of their two transient edges, so both slices cover the same instants."""
    _require_aligned(x, y, "steady_pair")
    skip = max(x.transient, y.transient)
    if 2 * skip >= x.n:
        raise ValueError("no steady-state samples left for comparison")
    return x.samples[skip : x.n - skip], y.samples[skip : y.n - skip]


def _sum_sq(x: np.ndarray) -> float:
    """``sum(|x|^2)`` by numpy summation.  Not ``np.vdot``/``np.linalg.norm``:
    BLAS splits those across threads above about 10000 elements, so their
    rounding, and the report bytes with it, would depend on the thread count."""
    return float(np.sum(x.real**2 + x.imag**2))


def energy(s: ComplexSignal) -> float:
    """Signal energy ``sum(|x|^2) / fs``; zero iff every sample is zero."""
    return _sum_sq(s.samples) / s.sample_rate_hz


def _raised_cosine_pulse(samples_per_symbol: int, rolloff: float) -> np.ndarray:
    """Time-domain raised-cosine pulse, peak 1 at t=0, truncated to
    ``RC_SPAN_SYMBOLS`` symbol durations on each side."""
    if samples_per_symbol < 1:
        raise ValueError("samples_per_symbol must be at least 1")
    if not 0.0 <= rolloff <= 1.0:
        raise ValueError("rolloff must lie in [0, 1]")
    half = RC_SPAN_SYMBOLS * samples_per_symbol
    t = np.arange(-half, half + 1, dtype=np.float64) / samples_per_symbol
    denom = 1.0 - (2.0 * rolloff * t) ** 2
    singular = np.abs(denom) < 1e-8
    pulse = np.empty_like(t)
    reg = ~singular
    pulse[reg] = np.sinc(t[reg]) * np.cos(np.pi * rolloff * t[reg]) / denom[reg]
    if np.any(singular):  # limit value at t = +/- 1/(2*rolloff), which may overflow
        pulse[singular] = (np.pi / 4.0) * np.sinc(1.0 / (2.0 * rolloff))
    return pulse


@lru_cache(maxsize=64)
def _pulse_rows(samples_per_symbol: int, rolloff: float) -> np.ndarray:
    """The raised-cosine pulse as read-only complex128 rows of
    ``samples_per_symbol`` taps, zero-padded: row ``j`` holds taps
    ``j*samples_per_symbol`` on."""
    pulse = _raised_cosine_pulse(samples_per_symbol, rolloff)
    rows = np.zeros((-(-pulse.size // samples_per_symbol), samples_per_symbol), dtype=np.complex128)
    rows.flat[: pulse.size] = pulse
    return _sealed(rows)


def _polyphase(rows: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """The symbols, each followed by ``up - 1`` zeros, convolved with the
    pulse held in ``rows`` (``up`` taps each) and cut to the ``up`` samples
    per symbol that follow the pulse's center tap, ``RC_SPAN_SYMBOLS`` rows
    in; a new read-only array.  Only the kept rows are built, without the
    multiplies by those zeros.  Rows are added in from the last to the
    first, the order of ``scipy.signal.upfirdn(pulse, symbols, up=up)``, so
    the sums round alike (complex rows give the products of float ones,
    which numpy casts first).
    """
    n, (n_rows, up) = symbols.size, rows.shape
    samples = np.zeros(n * up, dtype=np.complex128)
    out = samples.reshape(n, up)
    term = np.empty((n, up), dtype=np.complex128)
    for j in range(n_rows - 1, -1, -1):
        # symbol i lands on kept row i + j - RC_SPAN_SYMBOLS
        shift = j - RC_SPAN_SYMBOLS
        lo, hi = max(0, -shift), min(n, n - shift)
        if lo < hi:
            np.multiply(symbols[lo:hi, None], rows[j], out=term[: hi - lo])
            out[lo + shift : hi + shift] += term[: hi - lo]
    return _sealed(samples)


def generate_baseband(
    msg: SymbolStream,
    samples_per_symbol: int,
    shaping: str = "rectangular",
    *,
    rolloff: float = 0.25,
    sample_rate_hz: float,
) -> ComplexSignal:
    """Turn a symbol stream into a sampled baseband waveform.

    ``shaping`` is ``"rectangular"`` (each symbol held for ``samples_per_symbol``
    samples) or ``"raised_cosine"`` (symbols interpolated through a truncated
    raised-cosine pulse, nominally ``(1 + rolloff) * symbol_rate`` wide; measured by
    ``occupied_extent``, the default stream at 4096 samples spans 1776 Hz, not 1280).
    Output is deterministic for a fixed (seed, constellation, shaping).
    """
    if samples_per_symbol < 1:
        raise ValueError("samples_per_symbol must be at least 1")
    if shaping == "rectangular":
        samples = _sealed(np.repeat(msg.symbols, samples_per_symbol))
    elif shaping == "raised_cosine":
        samples = _polyphase(_pulse_rows(samples_per_symbol, rolloff), msg.symbols)
    else:
        raise ValueError(f"unknown shaping {shaping!r}; expected 'rectangular' or 'raised_cosine'")
    return ComplexSignal(samples, sample_rate_hz)
