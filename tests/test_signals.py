"""Tests for the signal value types, oscillators and pointwise algebra."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from carrierlab import (
    ComplexSignal,
    Constellation,
    PolarizedPair,
    Spectrum,
    SymbolStream,
    add,
    dft_two_sided,
    energy,
    generate_baseband,
    multiply,
    oscillator,
    raised_cosine_pulse,
    real_part,
    signals,
)

FS = 4096.0


def _osc(f, n=256, fs=FS):
    return oscillator(f, n, fs)


def _signal(values, fs=FS):
    return ComplexSignal(np.asarray(values, dtype=np.complex128), fs)


complex_arrays = hnp.arrays(
    np.complex128,
    st.integers(min_value=2, max_value=128),
    elements=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)

on_grid_freqs = st.integers(min_value=-1023, max_value=1023).map(float)

_QPSK8 = np.resize(Constellation.QPSK.points, 8)

#: Every value type that holds arrays: eight values it accepts, in the dtype
#: it holds, and how to build one from an array and read back what it holds.
VALUE_TYPES = {
    "ComplexSignal": (_QPSK8, lambda a: ComplexSignal(a, FS).samples),
    "Spectrum": (_QPSK8, lambda a: Spectrum(a, 1.0).bins),
    "PolarizedPair": (_QPSK8.real.copy(), lambda a: PolarizedPair(a, a, FS).comp_y),
    "SymbolStream": (_QPSK8, lambda a: SymbolStream(a, Constellation.QPSK).symbols),
}


class TestComplexSignal:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ComplexSignal(np.array([], dtype=complex), FS)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ComplexSignal(np.array([1.0, np.nan]), FS)
        with pytest.raises(ValueError):
            ComplexSignal(np.array([1.0 + 1j * np.inf]), FS)
        with pytest.raises(ValueError):
            ComplexSignal(np.array([-np.inf + 0j, 1j * np.nan]), FS)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("position", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("sealed", [False, True], ids=["copied", "adopted"])
    def test_rejects_nonfinite_in_either_part(self, bad, part, position, sealed):
        # 4097 samples: an odd count reaches the tail of a vectorized loop
        samples = np.ones(4097, dtype=np.complex128)
        setattr(samples[position:][:1], part, bad)
        assert not np.isfinite(getattr(samples[position], part))
        assert np.isfinite(samples.real).sum() + np.isfinite(samples.imag).sum() == 2 * 4097 - 1
        samples.setflags(write=not sealed)
        with pytest.raises(ValueError, match="finite"):
            ComplexSignal(samples, FS)

    @pytest.mark.parametrize("writeable", [True, False])
    def test_non_contiguous_input_is_accepted(self, writeable):
        base = np.arange(2 * 4097, dtype=np.float64) * (1 - 1j)
        strided = base[::-2]
        strided.setflags(write=writeable)
        assert not strided.flags.c_contiguous
        held = ComplexSignal(strided, FS).samples
        assert held.flags.c_contiguous
        np.testing.assert_array_equal(held, strided)

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_nonpositive_or_nonfinite_rate(self, rate):
        with pytest.raises(ValueError):
            ComplexSignal(np.ones(4), rate)

    def test_rejects_negative_transient(self):
        with pytest.raises(ValueError):
            ComplexSignal(np.ones(4), FS, transient=-1)

    def test_samples_are_immutable(self):
        s = _signal([1, 2, 3])
        with pytest.raises(ValueError):
            s.samples[0] = 5.0

    @pytest.mark.parametrize("kind", list(VALUE_TYPES))
    def test_writable_array_is_copied(self, kind):
        accepted, held_by = VALUE_TYPES[kind]
        values = accepted.copy()
        held = held_by(values)
        assert held is not values
        values[0] = 9.0
        np.testing.assert_array_equal(held, accepted)

    @pytest.mark.parametrize("kind", list(VALUE_TYPES))
    def test_read_only_view_of_writable_base_is_copied(self, kind):
        accepted, held_by = VALUE_TYPES[kind]
        base = accepted.copy()
        view = base[2:6]
        view.setflags(write=False)
        held = held_by(view)
        assert held is not view
        base[2:6] = 9.0
        np.testing.assert_array_equal(held, accepted[2:6])

    @pytest.mark.parametrize("kind", list(VALUE_TYPES))
    def test_read_only_owned_array_of_its_dtype_is_adopted(self, kind):
        accepted, held_by = VALUE_TYPES[kind]
        values = accepted.copy()
        values.setflags(write=False)
        assert held_by(values) is values

    @pytest.mark.parametrize("kind", list(VALUE_TYPES))
    @pytest.mark.parametrize(
        "values",
        [
            pytest.param([1.0, np.nan], id="nan"),
            pytest.param([1.0, np.inf], id="inf"),
            pytest.param(np.ones((2, 2)), id="2-d"),
        ],
    )
    def test_adoptable_array_is_still_checked(self, kind, values):
        accepted, held_by = VALUE_TYPES[kind]
        values = np.array(values, dtype=accepted.dtype)
        values.setflags(write=False)
        assert values.flags.owndata
        with pytest.raises(ValueError):
            held_by(values)

    def test_steady_trims_both_edges(self):
        s = ComplexSignal(np.arange(10, dtype=complex), FS, transient=2)
        np.testing.assert_array_equal(s.steady(), np.arange(2, 8))

    def test_steady_empty_raises(self):
        s = ComplexSignal(np.ones(4), FS, transient=2)
        with pytest.raises(ValueError):
            s.steady()


class TestOscillator:
    def test_zero_frequency_is_all_ones(self):
        s = oscillator(0.0, 4, 4.0)
        np.testing.assert_array_equal(s.samples, np.ones(4, dtype=complex))

    def test_quarter_rate_tone(self):
        s = oscillator(1.0, 4, 4.0)
        np.testing.assert_allclose(s.samples, [1, 1j, -1, -1j], atol=1e-15)

    def test_negative_frequency_is_conjugate(self):
        pos = oscillator(1.0, 4, 4.0)
        neg = oscillator(-1.0, 4, 4.0)
        np.testing.assert_array_equal(neg.samples, np.conj(pos.samples))
        np.testing.assert_allclose(neg.samples, [1, -1j, -1, 1j], atol=1e-15)

    @given(f=on_grid_freqs, n=st.integers(min_value=1, max_value=512))
    def test_unit_modulus(self, f, n):
        s = oscillator(f, n, FS)
        np.testing.assert_allclose(np.abs(s.samples), 1.0, atol=1e-12)

    @pytest.mark.parametrize("f, fs", [(FS / 2, FS), (-FS, FS), (1.0, np.inf), (1.0, np.nan)])
    def test_nyquist_violation_or_nonfinite_rate_rejected(self, f, fs):
        with pytest.raises(ValueError):
            oscillator(f, 8, fs)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            oscillator(1.0, 0, FS)


def _documented_carrier(f, n, fs):
    """The oscillator formula as documented, evaluated sample by sample."""
    k = np.arange(n, dtype=np.float64)
    cycles = (f * k) / fs
    return np.exp(1j * (2.0 * np.pi * (cycles - np.round(cycles))))


class TestOscillatorTable:
    """On-grid oscillators come from a table; their bits must be the formula's."""

    @pytest.mark.parametrize("log2_fs", range(2, 17))
    def test_on_grid_is_bitwise_the_formula(self, log2_fs):
        fs = 2**log2_fs
        half = fs // 2
        rng = np.random.default_rng(log2_fs)
        freqs = [-0.0, 1.0, -1.0, fs / 4, -fs / 4, half - 1.0, 1.0 - half]
        freqs += [float(f) for f in rng.integers(1 - half, half, size=6)]
        tie_counts = set()
        for f in freqs:
            for n in (1, 7, 4096, 65536):
                got = oscillator(f, n, float(fs)).samples
                assert got.tobytes() == _documented_carrier(f, n, float(fs)).tobytes(), (f, n)
                cycles = f * np.arange(n) / fs
                ties = cycles[cycles - np.floor(cycles) == 0.5]
                tie_counts.update(np.floor(ties).astype(np.int64) % 2)
        # half-cycle ties after an even and after an odd whole-cycle count
        # round opposite ways; both must have been compared
        assert tie_counts == {0, 1}

    @pytest.mark.parametrize(
        "f, fs",
        [
            (1000.5, 4096.0),  # non-integer frequency
            (-1000.5, 4096.0),
            (8192.5, 65536.0),
            (12000.0, 48000.0),  # not a power of two
            (16384.0, 2.0**17),  # above the table's rate cap
            (-65535.0, 2.0**17),
        ],
    )
    def test_off_grid_is_bitwise_the_formula(self, f, fs):
        for n in (1, 7, 4096):
            got = oscillator(f, n, fs).samples
            assert got.tobytes() == _documented_carrier(f, n, fs).tobytes()

    def test_table_is_read_only(self):
        oscillator(3.0, 8, 64.0)
        table = signals._carrier_table(64)
        assert table.shape == (128,)
        with pytest.raises(ValueError):
            table[0] = 0.0


class TestConjugate:
    @given(f=on_grid_freqs)
    def test_flips_oscillator_handedness(self, f):
        np.testing.assert_allclose(
            np.conj(_osc(f).samples), _osc(-f).samples, atol=1e-12
        )


class TestMultiply:
    def test_identity(self):
        s = _signal([2 + 1j, -3j, 0.5])
        ones = _signal(np.ones(3))
        np.testing.assert_array_equal(multiply(s, ones).samples, s.samples)

    @given(f1=on_grid_freqs, f2=on_grid_freqs)
    def test_oscillator_exponent_addition(self, f1, f2):
        product = multiply(_osc(f1), _osc(f2))
        np.testing.assert_allclose(product.samples, _osc(f1 + f2).samples, atol=1e-12)

    def test_modulus_identity(self):
        s = _osc(37.0)
        sq = multiply(s, _signal(np.conj(s.samples)))
        assert np.max(np.abs(sq.samples.imag)) < 1e-15
        np.testing.assert_allclose(sq.samples.real, np.abs(s.samples) ** 2, atol=1e-15)

    @given(a=complex_arrays, b=complex_arrays)
    def test_commutative(self, a, b):
        n = min(a.size, b.size)
        x, y = _signal(a[:n]), _signal(b[:n])
        xy = multiply(x, y).samples
        yx = multiply(y, x).samples
        tol = 1e-12 * max(1.0, float(np.max(np.abs(xy))))
        np.testing.assert_allclose(xy, yx, atol=tol)

    @given(a=complex_arrays)
    def test_associative(self, a):
        x = _signal(a)
        y = _osc(5.0, n=a.size)
        z = _osc(-9.0, n=a.size)
        left = multiply(multiply(x, y), z)
        right = multiply(x, multiply(y, z))
        tol = 1e-12 * max(1.0, float(np.max(np.abs(left.samples))))
        np.testing.assert_allclose(left.samples, right.samples, atol=tol)

    @pytest.mark.parametrize(
        "other",
        [
            ComplexSignal(np.ones(3), FS),
            ComplexSignal(np.ones(4), 2 * FS),
        ],
    )
    def test_mismatch_rejected(self, other):
        s = ComplexSignal(np.ones(4), FS)
        with pytest.raises(ValueError):
            multiply(s, other)

    def test_transient_propagates(self):
        a = ComplexSignal(np.ones(8), FS, transient=3)
        b = ComplexSignal(np.ones(8), FS, transient=1)
        assert multiply(a, b).transient == 3


class TestRealPart:
    def test_positive_frequency_gives_cosine(self):
        n, f = 256, 64.0
        s = real_part(_osc(f, n=n))
        expected = np.cos(2 * np.pi * f * np.arange(n) / FS)
        np.testing.assert_allclose(s.samples.real, expected, atol=1e-12)
        assert np.all(s.samples.imag == 0.0)

    def test_sign_of_frequency_invisible(self):
        pos = real_part(_osc(129.0))
        neg = real_part(_osc(-129.0))
        np.testing.assert_array_equal(pos.samples, neg.samples)

    def test_pure_imaginary_becomes_zero(self):
        s = _signal(1j * np.arange(5))
        np.testing.assert_array_equal(real_part(s).samples, np.zeros(5, dtype=complex))


class TestEnergy:
    def test_zeros(self):
        assert energy(_signal(np.zeros(16))) == 0.0

    def test_oscillator_energy_is_duration(self):
        n = 512
        assert energy(_osc(100.0, n=n)) == pytest.approx(n / FS, rel=1e-12)

    def test_quadratic_scaling(self):
        s = _signal(np.arange(1, 9) * (1 + 1j))
        assert energy(_signal(0.5 * s.samples)) == pytest.approx(0.25 * energy(s), rel=1e-12)

    @given(a=complex_arrays, f=on_grid_freqs)
    def test_invariant_under_oscillator(self, a, f):
        s = _signal(a)
        e0 = energy(s)
        e1 = energy(multiply(s, _osc(f, n=a.size)))
        assert abs(e1 - e0) <= 1e-12 * max(e0, 1e-300)

    # magnitudes below ~1.5e-162 square to an underflowed 0.0, so the
    # iff-zero property is stated for values above that floor
    @given(
        a=hnp.arrays(
            np.complex128,
            st.integers(min_value=1, max_value=64),
            elements=st.just(0j)
            | st.complex_numbers(
                min_magnitude=1e-150, max_magnitude=1e3, allow_nan=False, allow_infinity=False
            ),
        )
    )
    def test_zero_iff_all_zero(self, a):
        s = _signal(a)
        assert (energy(s) == 0.0) == (not np.any(a))


class TestAddScale:
    def test_euler_cosine_reconstruction(self):
        f = 160.0
        rebuilt = 0.5 * add(_osc(-f), _osc(f)).samples
        np.testing.assert_allclose(
            rebuilt, real_part(_osc(f)).samples, atol=1e-12
        )

    def test_euler_sine_reconstruction(self):
        f, n = 160.0, 256
        rebuilt = 0.5j * add(_osc(-f), _signal(-_osc(f).samples)).samples
        expected = np.sin(2 * np.pi * f * np.arange(n) / FS)
        np.testing.assert_allclose(rebuilt.real, expected, atol=1e-12)
        np.testing.assert_allclose(rebuilt.imag, 0.0, atol=1e-12)

    def test_add_zeros_identity(self):
        s = _signal([1 + 2j, -3, 4j])
        zeros = _signal(np.zeros(3))
        np.testing.assert_array_equal(add(s, zeros).samples, s.samples)

    def test_add_mismatch_rejected(self):
        with pytest.raises(ValueError):
            add(_signal(np.ones(3)), _signal(np.ones(4)))


class TestConstellations:
    @pytest.mark.parametrize("constellation", list(Constellation))
    def test_unit_average_power(self, constellation):
        points = constellation.points
        assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_qpsk_contains_axis_points(self):
        assert (1 + 0j) in set(Constellation.QPSK.points)
        assert len(Constellation.QPSK.points) == 4
        assert len(Constellation.QAM16.points) == 16

    def test_parse(self):
        assert Constellation.parse("QPSK") is Constellation.QPSK
        assert Constellation.parse(" qam16 ") is Constellation.QAM16
        with pytest.raises(ValueError):
            Constellation.parse("qam64")


class TestSymbolStream:
    def test_random_draws_are_members(self):
        stream = SymbolStream.random(Constellation.QAM16, 500, seed=7)
        assert np.all(np.isin(stream.symbols, Constellation.QAM16.points))

    def test_determinism(self):
        a = SymbolStream.random(Constellation.QPSK, 64, seed=42)
        b = SymbolStream.random(Constellation.QPSK, 64, seed=42)
        np.testing.assert_array_equal(a.symbols, b.symbols)

    def test_different_seeds_differ(self):
        a = SymbolStream.random(Constellation.QPSK, 64, seed=1)
        b = SymbolStream.random(Constellation.QPSK, 64, seed=2)
        assert not np.array_equal(a.symbols, b.symbols)

    def test_foreign_symbol_rejected(self):
        with pytest.raises(ValueError):
            SymbolStream(np.array([0.5 + 0.5j]), Constellation.QPSK)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SymbolStream.random(Constellation.QPSK, 0, seed=0)


class TestGenerateBaseband:
    def test_rectangular_hold(self):
        msg = SymbolStream(np.array([1 + 0j]), Constellation.QPSK)
        bb = generate_baseband(msg, 4, "rectangular", sample_rate_hz=FS)
        np.testing.assert_array_equal(bb.samples, np.ones(4, dtype=complex))

    def test_deterministic_across_runs(self):
        msg = SymbolStream.random(Constellation.QPSK, 16, seed=42)
        a = generate_baseband(msg, 8, "raised_cosine", rolloff=0.25, sample_rate_hz=FS)
        b = generate_baseband(msg, 8, "raised_cosine", rolloff=0.25, sample_rate_hz=FS)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_raised_cosine_band_occupancy(self):
        # independent check: measure where the shaped energy actually lands
        sps, rolloff = 16, 0.25
        fs = FS
        symbol_rate = fs / sps
        msg = SymbolStream.random(Constellation.QPSK, 256, seed=3)
        bb = generate_baseband(msg, sps, "raised_cosine", rolloff=rolloff, sample_rate_hz=fs)
        sp = dft_two_sided(bb)
        edge = (1 + rolloff) * symbol_rate / 2 + sp.resolution_hz
        f = sp.freq_axis_hz
        inside = np.sum(sp.bin_energies()[(f >= -edge) & (f < edge + sp.resolution_hz / 2)])
        assert inside / sp.energy >= 0.99

    def test_symbol_instants_preserved(self):
        # raised-cosine pulse is zero at nonzero whole-symbol offsets
        sps = 8
        msg = SymbolStream.random(Constellation.QPSK, 64, seed=9)
        bb = generate_baseband(msg, sps, "raised_cosine", rolloff=0.5, sample_rate_hz=FS)
        np.testing.assert_allclose(bb.samples[::sps], msg.symbols, atol=1e-12)

    def test_output_length(self):
        msg = SymbolStream.random(Constellation.QAM16, 21, seed=5)
        for shaping in ("rectangular", "raised_cosine"):
            bb = generate_baseband(msg, 6, shaping, sample_rate_hz=FS)
            assert bb.n == 21 * 6

    def test_invalid_rolloff_rejected(self):
        msg = SymbolStream.random(Constellation.QPSK, 4, seed=0)
        with pytest.raises(ValueError):
            generate_baseband(msg, 4, "raised_cosine", rolloff=1.5, sample_rate_hz=FS)

    def test_unknown_shaping_rejected(self):
        msg = SymbolStream.random(Constellation.QPSK, 4, seed=0)
        with pytest.raises(ValueError):
            generate_baseband(msg, 4, "triangular", sample_rate_hz=FS)

    def test_zero_sps_rejected(self):
        msg = SymbolStream.random(Constellation.QPSK, 4, seed=0)
        with pytest.raises(ValueError):
            generate_baseband(msg, 0, "rectangular", sample_rate_hz=FS)

    @pytest.mark.parametrize("shaping", ["rectangular", "raised_cosine"])
    def test_samples_adopted_uncopied(self, shaping, monkeypatch):
        # the shaping builds a new read-only array, which the signal holds
        # as it is
        msg = SymbolStream.random(Constellation.QAM16, 24, seed=7)
        adopt = signals._adopt
        adopted = []

        def spy(a, dtype=np.complex128):
            held = adopt(a, dtype)
            adopted.append(held is a)
            return held

        monkeypatch.setattr(signals, "_adopt", spy)
        generate_baseband(msg, 8, shaping, sample_rate_hz=FS)
        assert adopted == [True]

    @pytest.mark.parametrize("n_samples", [4096, 65536])
    def test_default_config_matches_zero_stuffed_convolution_bitwise(self, n_samples):
        # the scenarios' default: QPSK, 64 samples per symbol, rolloff 0.25
        msg = SymbolStream.random(Constellation.QPSK, n_samples // 64, seed=42)
        bb = generate_baseband(msg, 64, "raised_cosine", rolloff=0.25, sample_rate_hz=65536.0)
        assert bb.samples.tobytes() == _zero_stuffed(msg, 64, 0.25).tobytes()

    @pytest.mark.parametrize("rolloff", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("sps", [1, 2, 3, 16, 64])
    @pytest.mark.parametrize("constellation", list(Constellation))
    def test_matches_zero_stuffed_convolution(self, constellation, sps, rolloff):
        msg = SymbolStream.random(constellation, 96, seed=sps)
        bb = generate_baseband(msg, sps, "raised_cosine", rolloff=rolloff, sample_rate_hz=FS)
        ref = _zero_stuffed(msg, sps, rolloff)
        assert np.max(np.abs(bb.samples - ref)) <= 1e-15 * np.max(np.abs(ref))


def _zero_stuffed(msg, sps, rolloff):
    """Raised-cosine shaping by its definition: the symbols, spaced ``sps``
    samples apart with zeros between them, convolved with the pulse and
    trimmed to the pulse's center."""
    pulse = raised_cosine_pulse(sps, rolloff)
    n_out = msg.symbols.size * sps
    upsampled = np.zeros(n_out, dtype=np.complex128)
    upsampled[::sps] = msg.symbols
    delay = (pulse.size - 1) // 2
    return np.convolve(upsampled, pulse)[delay : delay + n_out]


class TestRaisedCosinePulse:
    def test_peak_and_zero_crossings(self):
        sps = 8
        pulse = raised_cosine_pulse(sps, 0.25)
        center = (pulse.size - 1) // 2
        assert pulse[center] == pytest.approx(1.0, abs=1e-12)
        nonzero_offsets = pulse[center + sps :: sps]
        np.testing.assert_allclose(nonzero_offsets, 0.0, atol=1e-12)

    def test_singularity_is_finite(self):
        # rolloff 0.25 puts the removable singularity exactly on the grid
        pulse = raised_cosine_pulse(8, 0.25)
        assert np.all(np.isfinite(pulse))

    def test_zero_rolloff_is_sinc(self):
        pulse = raised_cosine_pulse(4, 0.0)
        half = (pulse.size - 1) // 2
        t = np.arange(-half, half + 1) / 4
        np.testing.assert_array_equal(pulse, np.sinc(t))
