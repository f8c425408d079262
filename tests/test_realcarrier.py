"""Tests for the conventional real-carrier modulation/demodulation chain."""

import numpy as np
import pytest

from carrierlab import (
    ComplexSignal,
    Constellation,
    FilterSpec,
    SymbolStream,
    band_report,
    conj_mirror_error,
    dft_two_sided,
    generate_baseband,
    multiply,
    oscillator,
    real_demodulate,
    real_modulate,
    add,
)

FS = 65536.0
N = 65536
F_C = 8192.0
LPF = FilterSpec(cutoff_hz=0.75 * F_C, transition_hz=0.25 * F_C, stopband_atten_db=60.0)


def _shaped_baseband(seed=42, n_symbols=1024, sps=64):
    msg = SymbolStream.random(Constellation.QPSK, n_symbols, seed)
    return generate_baseband(msg, sps, "raised_cosine", rolloff=0.25, sample_rate_hz=FS)


def _constant(value, n=N):
    return ComplexSignal(np.full(n, value, dtype=np.complex128), FS)


def _steady_pair(x, y):
    skip = max(x.transient, y.transient)
    return x.samples[skip : x.n - skip], y.samples[skip : y.n - skip]


class TestRealModulate:
    def test_constant_baseband_gives_cosine(self):
        passband = real_modulate(_constant(1.0, n=4096), F_C)
        expected = np.cos(2 * np.pi * F_C * np.arange(4096) / FS)
        np.testing.assert_allclose(passband.samples.real, expected, atol=1e-12)
        assert np.all(passband.samples.imag == 0.0)
        report = band_report(dft_two_sided(passband))
        assert report.l_fraction == pytest.approx(0.5, abs=1e-6)
        assert report.r_fraction == pytest.approx(0.5, abs=1e-6)

    def test_imaginary_baseband_gives_negative_sine(self):
        passband = real_modulate(_constant(1j, n=4096), F_C)
        expected = -np.sin(2 * np.pi * F_C * np.arange(4096) / FS)
        np.testing.assert_allclose(passband.samples.real, expected, atol=1e-12)

    @pytest.mark.parametrize("f_c", [F_C, -F_C, F_C + 0.5, -(F_C + 0.5)])
    def test_half_sum_identity(self, f_c):
        # transmitted real part equals the half-sum of the two mirrored bands
        bb = _shaped_baseband()
        passband = real_modulate(bb, f_c)
        rebuilt = 0.5 * add(
            multiply(ComplexSignal(np.conj(bb.samples), FS), oscillator(-f_c, bb.n, FS)),
            multiply(bb, oscillator(f_c, bb.n, FS)),
        ).samples
        np.testing.assert_allclose(passband.samples, rebuilt, atol=1e-12)

    def test_shaped_baseband_occupancy_and_symmetry(self):
        passband = real_modulate(_shaped_baseband(), F_C)
        sp = dft_two_sided(passband)
        report = band_report(sp)
        assert 0.49 <= report.l_fraction <= 0.51
        assert 0.49 <= report.r_fraction <= 0.51
        assert conj_mirror_error(sp) < 1e-9

    def test_baseband_overlap_rejected(self):
        # shaped bandwidth 1.25 * 1024 Hz exceeds a 1 kHz carrier
        bb = _shaped_baseband(n_symbols=64, sps=64)
        with pytest.raises(ValueError):
            real_modulate(bb, 1000.0)

    def test_nyquist_violation_rejected(self):
        bb = _shaped_baseband(n_symbols=64, sps=64)
        with pytest.raises(ValueError):
            real_modulate(bb, 32600.0)


class TestRealDemodulate:
    def test_opposite_carrier_recovers_half_baseband(self):
        bb = _shaped_baseband()
        passband = real_modulate(bb, F_C)
        recovered = real_demodulate(passband, -F_C, LPF)
        rec, ref = _steady_pair(recovered, bb)
        deviation = np.max(np.abs(rec - ref / 2)) / np.max(np.abs(ref / 2))
        assert deviation < 1e-3

    def test_same_carrier_recovers_half_conjugate(self):
        bb = _shaped_baseband()
        passband = real_modulate(bb, F_C)
        direct = real_demodulate(passband, -F_C, LPF)
        mirrored = real_demodulate(passband, +F_C, LPF)
        a, b = _steady_pair(mirrored, direct)
        err = np.max(np.abs(a - np.conj(b))) / np.max(np.abs(b))
        assert err < 1e-9

    def test_quarter_energy_recovery(self):
        bb = _shaped_baseband()
        passband = real_modulate(bb, F_C)
        recovered = real_demodulate(passband, -F_C, LPF)
        rec, ref = _steady_pair(recovered, bb)
        ratio = float(np.sum(np.abs(rec) ** 2) / np.sum(np.abs(ref) ** 2))
        assert 0.245 <= ratio <= 0.255

    def test_constant_baseband_recovers_half(self):
        bb = _constant(1.0, n=16384)
        passband = real_modulate(bb, F_C)
        recovered = real_demodulate(passband, -F_C, LPF)
        np.testing.assert_allclose(recovered.steady(), 0.5, atol=1e-3)
        rec, ref = _steady_pair(recovered, bb)
        ratio = float(np.sum(np.abs(rec) ** 2) / np.sum(np.abs(ref) ** 2))
        assert ratio == pytest.approx(0.25, rel=0.02)

    def test_complex_input_rejected(self):
        cplx = ComplexSignal(np.exp(1j * np.arange(N) * 0.5), FS)
        with pytest.raises(ValueError):
            real_demodulate(cplx, -F_C, LPF)

    def test_leaky_cutoff_rejected(self):
        bb = _shaped_baseband()
        passband = real_modulate(bb, F_C)
        # cutoff above 2*f_c - B cannot reject the image
        leaky = FilterSpec(cutoff_hz=15500.0, transition_hz=512.0)
        with pytest.raises(ValueError):
            real_demodulate(passband, -F_C, leaky)
