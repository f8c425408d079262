"""Tests for the two-sided spectrum analyzer and band accounting."""

import os
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from carrierlab import (
    ComplexSignal,
    Constellation,
    SymbolStream,
    add,
    band_move,
    band_report,
    complex_modulate,
    conj_mirror_correlation,
    conj_mirror_error,
    dft_two_sided,
    energy,
    generate_baseband,
    multiply,
    occupied_extent,
    oscillator,
    peak_frequency,
    real_part,
)
from carrierlab import spectrum
from carrierlab.spectrum import OCCUPIED_FRACTION

FS = 1024.0
N = 1024


def _osc(f, n=N, fs=FS):
    return oscillator(f, n, fs)


def _signal(values, fs=FS):
    return ComplexSignal(np.asarray(values, dtype=np.complex128), fs)


complex_arrays = hnp.arrays(
    np.complex128,
    st.integers(min_value=2, max_value=256),
    elements=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
)

real_arrays = hnp.arrays(
    np.float64,
    st.integers(min_value=4, max_value=256),
    elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


class TestDftTwoSided:
    @pytest.mark.parametrize("m", [1, 16, 100])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_on_bin_tone_concentrates_in_one_bin(self, m, sign):
        f = sign * m * FS / N
        sp = dft_two_sided(_osc(f))
        mags = np.abs(sp.bins)
        peak_idx = int(np.argmax(mags))
        assert sp.freq_axis_hz[peak_idx] == f
        others = np.delete(mags, peak_idx)
        assert np.max(others) / mags[peak_idx] < 1e-10

    def test_real_tone_splits_into_two_half_bins(self):
        f = 64.0
        complex_sp = dft_two_sided(_osc(f))
        real_sp = dft_two_sided(real_part(_osc(f)))
        peak_complex = np.max(np.abs(complex_sp.bins))
        pos = real_sp.bins[real_sp.freq_axis_hz == f][0]
        neg = real_sp.bins[real_sp.freq_axis_hz == -f][0]
        assert abs(pos) == pytest.approx(peak_complex / 2, rel=1e-12)
        assert abs(neg) == pytest.approx(peak_complex / 2, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 8, 15, 16, 16384])
    @pytest.mark.parametrize("fs", [8.0, 100.0, 48000.0, 65536.0])
    def test_axis_shape_and_order(self, n, fs):
        sp = dft_two_sided(_signal(np.ones(n), fs=fs))
        expected = (np.arange(n) - n // 2) * (fs / n)
        assert sp.freq_axis_hz.tobytes() == expected.tobytes()
        assert sp.resolution_hz == fs / n
        assert sp.n == n

    def test_odd_length_axis(self):
        sp = dft_two_sided(_signal(np.ones(5), fs=5.0))
        np.testing.assert_array_equal(sp.freq_axis_hz, np.arange(-2, 3))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            dft_two_sided(_signal([1.0]))

    def test_parseval_mismatch_rejected(self, monkeypatch):
        # an FFT 0.1% off in amplitude breaks Parseval by 0.2%
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda x: fft(x) * 1.001)
        with pytest.raises(ValueError, match="Parseval"):
            dft_two_sided(_osc(4.0))

    def test_overflowing_signal_rejected(self):
        # the signal's own energy is checked before it is compared with the bins'
        with pytest.raises(ValueError, match="signal energy overflows double precision"):
            dft_two_sided(_signal([1e200, 1.0, 1.0, 1.0]))

    @pytest.mark.parametrize(
        "s, message",
        [
            # |X|^2 overflows at DC (4096 * 1e152, squared), sum(|x|^2) does not
            (_signal(np.full(4096, 1e152)), "spectral bins are NaN/Inf or their energy overflows double precision"),
            (_signal(np.full(4096, 1e200)), "signal energy overflows double precision"),
            # a subnormal rate over 4 samples rounds to a resolution of 0
            (ComplexSignal(np.full(4, 1e-200 + 0j), 5e-324), "resolution_hz must be positive and finite"),
        ],
        ids=["bins-overflow", "signal-overflows", "zero-resolution"],
    )
    def test_guard_raises_what_the_transform_raises(self, s, message):
        with pytest.raises(ValueError) as transform:
            dft_two_sided(s)
        with pytest.raises(ValueError) as guard:
            band_move(s, 8.0)
        assert str(guard.value) == str(transform.value) == message


class TestParseval:
    @given(a=complex_arrays)
    def test_energy_matches_time_domain(self, a):
        s = _signal(a)
        sp = dft_two_sided(s)
        e_time = energy(s)
        e_spec = float(np.sum(sp.bin_energies()))
        assert abs(e_spec - e_time) <= 1e-9 * max(e_time, 1e-300)


class TestBandReport:
    def test_single_tone_is_all_r_band(self):
        report = band_report(dft_two_sided(_osc(32.0)))
        assert report.r_fraction > 1 - 1e-10
        assert report.l_fraction < 1e-10

    def test_real_tone_splits_evenly(self):
        report = band_report(dft_two_sided(real_part(_osc(32.0))))
        assert report.l_fraction == pytest.approx(0.5, abs=1e-6)
        assert report.r_fraction == pytest.approx(0.5, abs=1e-6)

    def test_partition_sums_to_total(self):
        s = _signal(np.exp(0.3j * np.arange(128) ** 1.5))
        report = band_report(dft_two_sided(s))
        assert report.l_band + report.r_band + report.dc == pytest.approx(
            report.total, rel=1e-9
        )
        assert report.l_fraction + report.r_fraction + report.dc / report.total == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            band_report(dft_two_sided(_signal(np.zeros(16))))


class TestPeakFrequency:
    @pytest.mark.parametrize("f", [96.0, -96.0])
    def test_tone_peak(self, f):
        assert peak_frequency(dft_two_sided(_osc(f))) == f

    def test_mirror_tie_breaks_negative(self):
        # a real cosine has exactly equal energy at +/- f
        sp = dft_two_sided(real_part(_osc(64.0)))
        assert peak_frequency(sp) == -64.0

    def test_tie_breaks_toward_smaller_absolute_frequency(self):
        s = add(_osc(0.0), _osc(128.0))
        assert peak_frequency(dft_two_sided(s)) == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            peak_frequency(dft_two_sided(_signal(np.zeros(8))))


class TestConjugateSymmetry:
    @given(values=real_arrays)
    def test_real_signals_have_mirror_symmetry(self, values):
        if not np.any(values):
            values = values + 1.0
        sp = dft_two_sided(_signal(values))
        assert conj_mirror_error(sp) < 1e-9

    def test_real_signal_correlation_is_one(self):
        rng = np.random.default_rng(11)
        sp = dft_two_sided(_signal(rng.standard_normal(N)))
        assert conj_mirror_correlation(sp) >= 1 - 1e-9

    def test_independent_bands_decorrelate(self):
        rng = np.random.default_rng(5)
        a = _signal(rng.standard_normal(N) + 1j * rng.standard_normal(N))
        b = _signal(rng.standard_normal(N) + 1j * rng.standard_normal(N))
        dual = add(
            multiply(a, _osc(-256.0)),
            multiply(b, _osc(+256.0)),
        )
        assert conj_mirror_correlation(dft_two_sided(dual)) < 0.1

    def test_correlation_matches_blas_reference(self):
        # the numpy sums change only the summation order of vdot/norm
        rng = np.random.default_rng(17)
        x = rng.standard_normal(N) + 0.5j * rng.standard_normal(N)
        sp = dft_two_sided(_signal(x))
        center = N // 2
        neg = sp.bins[center - 1 :: -1][: center - 1]
        pos = sp.bins[center + 1 :]
        reference = abs(np.vdot(np.conj(pos), neg)) / (np.linalg.norm(neg) * np.linalg.norm(pos))
        assert 0.2 < reference < 0.9
        assert conj_mirror_correlation(sp) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("measure", [conj_mirror_error, conj_mirror_correlation])
    def test_two_bins_have_no_mirror_pair(self, measure):
        # bins -fs/2 and 0: no +f bin mirrors a -f bin
        sp = dft_two_sided(_signal([1.0, 2.0]))
        with pytest.raises(ValueError, match="^spectrum too short for mirror comparison$"):
            measure(sp)

    def test_all_zero_spectrum_has_no_mirror_error(self):
        with pytest.raises(ValueError, match="^all-zero spectrum has no mirror structure$"):
            conj_mirror_error(dft_two_sided(_signal(np.zeros(N))))

    def test_correlation_without_energy_off_dc_is_zero(self):
        # a constant: all its energy in the DC bin, none in a mirrored pair
        assert conj_mirror_correlation(dft_two_sided(_signal(np.ones(N)))) == 0.0


class TestShiftTheorem:
    @pytest.mark.parametrize("m", [1, 5, -17])
    def test_on_bin_shift_rolls_bins(self, m):
        rng = np.random.default_rng(23)
        s = _signal(rng.standard_normal(N) + 1j * rng.standard_normal(N))
        delta = m * FS / N
        shifted = multiply(s, _osc(delta))
        rolled = np.roll(dft_two_sided(s).bins, m)
        got = dft_two_sided(shifted).bins
        peak = np.max(np.abs(rolled))
        assert np.max(np.abs(got - rolled)) / peak < 1e-9


class TestOccupied:
    def test_tone_occupies_single_frequency(self):
        assert occupied_extent(_osc(48.0)) == (48.0, 48.0)

    def test_two_tones_span(self):
        s = add(_osc(-32.0), _osc(96.0))
        assert occupied_extent(s) == (-32.0, 96.0)

    def test_mirrored_tones_span_both_sides_of_dc(self):
        s = add(_osc(-96.0), _osc(96.0))
        assert occupied_extent(s) == (-96.0, 96.0)

    def test_silence_occupies_no_band(self):
        assert occupied_extent(_signal(np.zeros(16))) is None

    def test_energy_that_underflows_occupies_no_band(self):
        # every sample is nonzero, but every square underflows to zero
        s = ComplexSignal(np.full(16, 1e-200 + 0j), 16.0)
        assert occupied_extent(s) is None
        moved = complex_modulate(s, 4.0)
        assert moved.samples.tobytes() == multiply(s, oscillator(4.0, 16, 16.0)).samples.tobytes()


@st.composite
def _guard_cases(draw):
    """A signal of 2 to 4096 samples at 48000 or 65536 Hz: white noise, one
    bin, a flat spectrum (an impulse) or a band against -fs/2 or +fs/2,
    scaled from where every square underflows to where the bins' or the
    samples' squares overflow, sometimes over a floor whose squares
    underflow; and the occupied fraction to trim to.  A fraction of 0 trims
    half the energy from each tail, so that the tails of a flat spectrum
    cross (``lo > hi``), which the library's fraction never lets them do."""
    n = draw(st.integers(min_value=2, max_value=4096))
    fs = draw(st.sampled_from([48000.0, 65536.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["noise", "bin", "flat", "edge"]))
    if kind == "noise":
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    elif kind == "bin":
        x = np.exp(2j * np.pi * draw(st.integers(min_value=0, max_value=n - 1)) * np.arange(n) / n)
    elif kind == "flat":
        x = np.zeros(n, dtype=np.complex128)
        x[draw(st.integers(min_value=0, max_value=n - 1))] = 1.0
    else:
        # a run of bins from the first (-fs/2) or up to the last (toward +fs/2)
        width = draw(st.integers(min_value=1, max_value=n))
        shifted = np.zeros(n, dtype=np.complex128)
        band = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        if draw(st.booleans()):
            shifted[:width] = band
        else:
            shifted[n - width :] = band
        x = np.fft.ifft(np.fft.ifftshift(shifted))
    # unit scale half the time; the edges drawn apart: squares that
    # underflow, and squares of bins (1e152) or of samples (1e200) that overflow
    edges = st.integers(min_value=-200, max_value=160) | st.sampled_from([-165, -160, 152, 200])
    x = x * 10.0 ** draw(st.just(0) | edges)
    if draw(st.booleans()):
        x = x + 1e-170 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    fraction = draw(st.sampled_from([OCCUPIED_FRACTION, 0.0]))
    return ComplexSignal(x, fs), fraction


#: CARRIERLAB_FUZZ_EXAMPLES=N draws N guard cases instead of the suite's 200
_GUARD_EXAMPLES = int(os.environ.get("CARRIERLAB_FUZZ_EXAMPLES") or 200)


@settings(max_examples=_GUARD_EXAMPLES, deadline=None)
@given(case=_guard_cases())
def test_guard_extent_is_the_reference_trim(case):
    s, fraction = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "OCCUPIED_FRACTION", fraction)
        try:
            sp = dft_two_sided(s)
        except ValueError as transform:
            with pytest.raises(ValueError) as guard:
                occupied_extent(s)
            assert str(guard.value) == str(transform)
            event("the transform rejects the signal")
            return
        reference, crossed = _reference_trim(sp.bin_energies(), sp.energy, sp.resolution_hz, fraction)
        event(f"lo > hi: {crossed}, no band: {reference is None}")
        # repr tells every double apart, -0.0 from 0.0 included
        assert repr(occupied_extent(s)) == repr(reference)


@pytest.mark.parametrize("n", [4, 64, 4096])
def test_crossed_tails_leave_the_peak_bin(n):
    # a unit impulse at t = 0 has every bin exactly 1; trimmed to nothing,
    # the tails of an even n cross and the first bin, at -fs/2, decides
    s = _signal(np.eye(1, n)[0], fs=65536.0)
    sp = dft_two_sided(s)
    reference, crossed = _reference_trim(sp.bin_energies(), sp.energy, sp.resolution_hz, 0.0)
    assert crossed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "OCCUPIED_FRACTION", 0.0)
        assert occupied_extent(s) == reference == (-32768.0, -32768.0)


def _reference_trim(energies, total, resolution, fraction):
    """The guard's trim as it was first written, with both running sums
    over every bin: the (lowest, highest) frequencies left after up to
    ``(1 - fraction)/2`` of ``total`` goes from each tail, read off
    ``freq_axis_hz``'s ``(arange(n) - n // 2) * resolution``, or None when
    ``total`` is 0; and whether the tails crossed (``lo > hi``), leaving the
    peak bin."""
    if total <= 0.0:
        return None, False
    n = energies.size
    tail = (1.0 - fraction) / 2.0 * total
    lo = int(np.searchsorted(np.cumsum(energies), tail, side="right"))
    hi = n - 1 - int(np.searchsorted(np.cumsum(energies[::-1]), tail, side="right"))
    crossed = lo > hi
    if crossed:
        lo = hi = int(np.argmax(energies))
    freqs = (np.arange(n) - n // 2) * resolution
    return (float(freqs[lo]), float(freqs[hi])), crossed


def _guard_oracle(s):
    """Bins, bin energies, their total and occupied range by the plain formulas: fftshift
    of the FFT, ``(re**2 + im**2) / (n * fs)`` with the rate rebuilt from the
    resolution as ``Spectrum.sample_rate_hz`` does, and the reference trim."""
    n = s.n
    resolution = s.sample_rate_hz / n
    bins = np.fft.fftshift(np.fft.fft(s.samples))
    energies = (bins.real**2 + bins.imag**2) / (n * (resolution * n))
    total = float(np.sum(energies))
    return bins, energies, total, _reference_trim(energies, total, resolution, OCCUPIED_FRACTION)[0]


def _guard_corpus():
    rng = np.random.default_rng(2010)
    fs = 65536.0
    cases = {}
    for n in (1024, 4096, 16384):
        msg = SymbolStream.random(Constellation.QPSK, n // 64, seed=n)
        bb = generate_baseband(msg, 64, "raised_cosine", rolloff=0.25, sample_rate_hz=fs)
        cases[f"baseband-{n}"] = bb
        shift = float(rng.integers(-8192, 8193))
        cases[f"baseband-{n}-moved-{shift:+.0f}Hz"] = multiply(bb, oscillator(shift, n, fs))
    for n in (4096, 5, 7, 4097):
        cases[f"noise-{n}"] = _signal(rng.standard_normal(n) + 1j * rng.standard_normal(n), fs=fs)
    cases["tone"] = oscillator(-3000.0, 4096, fs)
    cases["zeros"] = _signal(np.zeros(4096), fs=fs)
    return cases


GUARD_CORPUS = _guard_corpus()


class TestGuardOracle:
    """The guard path is bitwise the plain formulas it was first written as."""

    @pytest.mark.parametrize("name", list(GUARD_CORPUS))
    def test_bitwise_the_plain_formulas(self, name):
        s = GUARD_CORPUS[name]
        bins, energies, total, extent = _guard_oracle(s)
        sp = dft_two_sided(s)
        assert sp.bins.tobytes() == bins.tobytes()
        assert sp.bin_energies().tobytes() == energies.tobytes()
        assert np.float64(sp.energy).tobytes() == np.float64(total).tobytes()
        if extent is None:
            assert occupied_extent(s) is None
        else:
            assert np.array(occupied_extent(s)).tobytes() == np.array(extent).tobytes()
            # band_report and peak_frequency index bins from n // 2; the
            # masks over freq_axis_hz they were written with give the same bits
            freqs = sp.freq_axis_hz
            l_band, r_band = np.sum(energies[freqs < 0]), np.sum(energies[freqs > 0])
            total = np.sum(energies)
            masked = (l_band, r_band, np.sum(energies[freqs == 0]), total, l_band / total, r_band / total)
            assert np.array(astuple(band_report(sp))).tobytes() == np.array(masked).tobytes()
            candidates = freqs[energies == energies.max()]
            peak = candidates[np.lexsort((candidates, np.abs(candidates)))[0]]
            assert np.float64(peak_frequency(sp)).tobytes() == np.float64(peak).tobytes()


class TestSpectrumInvariants:
    @pytest.mark.parametrize(
        "bins, resolution, message",
        [
            pytest.param(np.ones(4), np.inf, "resolution_hz", id="inf-resolution"),
            pytest.param(np.ones(4), np.nan, "resolution_hz", id="nan-resolution"),
            pytest.param(np.ones(4), 0.0, "resolution_hz", id="zero-resolution"),
            pytest.param(np.ones((2, 2)), 1.0, "one-dimensional", id="two-dimensional-bins"),
            pytest.param([1, np.nan, 1, 1], 1.0, "NaN/Inf", id="nan-bins"),
            pytest.param([1, complex(0, np.inf), 1, 1], 1.0, "NaN/Inf", id="inf-bins"),
            pytest.param([1e200, 1, 1, 1], 1.0, "energy overflows double precision", id="overflowing-bins"),
        ],
    )
    def test_inconsistent_scalars_rejected(self, bins, resolution, message):
        from carrierlab import Spectrum

        with pytest.raises(ValueError, match=message):
            Spectrum(np.asarray(bins, dtype=complex), resolution)

    def test_energy_scaling_under_amplitude(self):
        s = _osc(32.0)
        half = dft_two_sided(_signal(0.5 * s.samples))
        full = dft_two_sided(s)
        assert float(np.sum(half.bin_energies())) == pytest.approx(
            0.25 * float(np.sum(full.bin_energies())), rel=1e-12
        )
