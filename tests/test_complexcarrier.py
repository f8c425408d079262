"""Tests for complex-carrier modulation, band moves and dual-band carriage."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carrierlab import (
    ComplexSignal,
    Constellation,
    DualMessage,
    FilterSpec,
    ScenarioConfig,
    SymbolStream,
    add,
    apply_filter,
    band_move,
    band_report,
    complex_demodulate,
    complex_modulate,
    conj_mirror_correlation,
    design_lowpass,
    dft_two_sided,
    dual_demodulate,
    dual_modulate,
    energy,
    evm_db,
    execute_scenario,
    generate_baseband,
    multiply,
    occupied_extent,
    oscillator,
    peak_frequency,
    real_demodulate,
    real_modulate,
    real_part,
    spectrum,
)
from carrierlab.scenarios import GROUP_LAW_TRIALS

FS = 65536.0
N = 65536
F_C = 8192.0
GUARD = 512.0
LPF = FilterSpec(cutoff_hz=0.75 * F_C, transition_hz=0.25 * F_C, stopband_atten_db=60.0)


def _shaped_baseband(seed=42, n_symbols=1024, sps=64, fs=FS):
    msg = SymbolStream.random(Constellation.QPSK, n_symbols, seed)
    return generate_baseband(msg, sps, "raised_cosine", rolloff=0.25, sample_rate_hz=fs)


def _tone(f, n=N, fs=FS):
    return oscillator(f, n, fs)


class TestComplexModulate:
    def test_unit_baseband_becomes_carrier(self):
        ones = ComplexSignal(np.ones(4096), FS)
        moved = complex_modulate(ones, -F_C)
        np.testing.assert_allclose(moved.samples, _tone(-F_C, n=4096).samples, atol=1e-12)
        assert peak_frequency(dft_two_sided(moved)) == -F_C

    def test_single_band_occupancy(self):
        moved = complex_modulate(_shaped_baseband(), +F_C)
        report = band_report(dft_two_sided(moved))
        assert report.l_fraction < 0.01
        assert report.r_fraction > 0.99

    def test_energy_conserved(self):
        bb = _shaped_baseband()
        moved = complex_modulate(bb, -F_C)
        assert abs(energy(moved) - energy(bb)) <= 1e-12 * energy(bb)

    def test_real_projection_matches_real_modulation(self):
        bb = _shaped_baseband()
        np.testing.assert_array_equal(
            real_part(complex_modulate(bb, +F_C)).samples,
            real_modulate(bb, +F_C).samples,
        )

    def test_nyquist_violation_rejected(self):
        bb = _shaped_baseband(n_symbols=64, sps=64)
        with pytest.raises(ValueError):
            complex_modulate(bb, 32200.0)


class TestComplexDemodulate:
    # the table path (integer carrier) and the formula path (off-integer)
    @pytest.mark.parametrize("f_c", [-F_C, +F_C, -(F_C + 0.5), F_C + 0.5])
    def test_round_trip_is_lossless(self, f_c):
        bb = _shaped_baseband()
        moved = complex_modulate(bb, f_c)
        back = complex_demodulate(moved, f_c)
        assert np.max(np.abs(back.samples - bb.samples)) < 1e-12

    def test_wrong_handedness_moves_content_away(self):
        bb = _shaped_baseband()
        moved = complex_modulate(bb, +F_C)
        # conjugate-carrier convention: passing -f_c mixes by +f_c again
        wrong = complex_demodulate(moved, -F_C)
        sp = dft_two_sided(wrong)
        b_half = 1.25 * 1024.0 / 2
        f = sp.freq_axis_hz
        near_dc = np.sum(sp.bin_energies()[(f >= -b_half) & (f < b_half)])
        assert near_dc / sp.energy < 0.01
        assert abs(peak_frequency(sp)) == pytest.approx(2 * F_C, abs=b_half)


class TestBandMove:
    def test_sign_flip(self):
        f0 = F_C
        flipped = band_move(_tone(-f0), +2 * f0)
        np.testing.assert_allclose(flipped.samples, _tone(+f0).samples, atol=1e-12)
        assert peak_frequency(dft_two_sided(flipped)) == +f0

    def test_zero_move_is_identity(self):
        s = _shaped_baseband(n_symbols=64, sps=16)
        np.testing.assert_array_equal(band_move(s, 0.0).samples, s.samples)

    def test_inverse_element(self):
        s = _shaped_baseband(n_symbols=64, sps=16)
        back = band_move(band_move(s, 3000.0), -3000.0)
        assert np.max(np.abs(back.samples - s.samples)) < 1e-12

    @given(
        f1=st.integers(min_value=-2048, max_value=2048).map(float),
        f2=st.integers(min_value=-2048, max_value=2048).map(float),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25)
    def test_additive_and_commutative(self, f1, f2, seed):
        s = _shaped_baseband(seed=seed, n_symbols=32, sps=16, fs=16384.0)
        via = band_move(band_move(s, f1), f2)
        direct = band_move(s, f1 + f2)
        swapped = band_move(band_move(s, f2), f1)
        assert np.max(np.abs(via.samples - direct.samples)) < 1e-12
        assert np.max(np.abs(via.samples - swapped.samples)) < 1e-12

    def test_nyquist_violation_rejected(self):
        with pytest.raises(ValueError):
            band_move(_tone(15000.0), +20000.0)


#: (rate, symbols, samples per symbol, carriers) per carrier path: the table
#: (integer carrier, power-of-two rate up to 65536 Hz) and the formula
#: (anything else)
MIX_GRID = {
    "table-4096": (4096.0, 256, 16, [-1000.0, 0.0, 1000.0]),
    "table-65536": (65536.0, 64, 64, [-8192.0, 0.0, 8192.0]),
    "formula-48000": (48000.0, 32, 256, [-1000.5, 1000.5]),
    "formula-65536": (65536.0, 64, 64, [-8192.5, 8192.5]),
}
MIX_CASES = [
    pytest.param(fs, n_symbols, sps, f, transient, id=f"{path}-f{f}-transient{transient}")
    for path, (fs, n_symbols, sps, freqs) in MIX_GRID.items()
    for f in freqs
    for transient in (0, 37)
]


def _bytes(s):
    return s.samples.tobytes(), s.sample_rate_hz, s.transient


class TestShiftIsMultiplyByOscillator:
    """Every frequency shift is, byte for byte, its documented definition:
    the signal times ``oscillator`` at the signed frequency."""

    @pytest.mark.parametrize("fs, n_symbols, sps, f, transient", MIX_CASES)
    def test_complex_shifts(self, fs, n_symbols, sps, f, transient):
        bb = _shaped_baseband(n_symbols=n_symbols, sps=sps, fs=fs)
        s = ComplexSignal(bb.samples, fs, transient=transient)
        n = s.n
        up = multiply(s, oscillator(f, n, fs))
        assert _bytes(complex_modulate(s, f)) == _bytes(up)
        assert _bytes(band_move(s, f)) == _bytes(up)
        assert _bytes(complex_demodulate(s, f)) == _bytes(multiply(s, oscillator(-f, n, fs)))

    @pytest.mark.parametrize(
        "fs, n_symbols, sps, f, transient",
        [
            pytest.param(fs, n_symbols, sps, f, transient, id=f"{path}-f{f}-transient{transient}")
            for path, (fs, n_symbols, sps, freqs) in MIX_GRID.items()
            for f in freqs
            if f != 0.0
            for transient in (0, 37)
        ],
    )
    def test_real_demodulate_mix(self, fs, n_symbols, sps, f, transient):
        bb = _shaped_baseband(n_symbols=n_symbols, sps=sps, fs=fs)
        pb = real_modulate(bb, abs(f))
        pb = ComplexSignal(pb.samples, fs, transient=transient)
        lpf = FilterSpec(cutoff_hz=0.5 * abs(f), transition_hz=0.4 * abs(f), stopband_atten_db=60.0)
        expected = apply_filter(multiply(pb, oscillator(f, pb.n, fs)), design_lowpass(lpf, fs))
        assert _bytes(real_demodulate(pb, f, lpf)) == _bytes(expected)


def _drawn_signal(kind, f0, seed):
    """An asymmetric two-tone signal, or a shaped baseband moved off DC by a
    tone, at 4096 samples."""
    n = 4096
    if kind == "tones":
        return ComplexSignal(_tone(f0, n=n).samples + 0.5 * _tone(-f0 / 3 + 5, n=n).samples, FS)
    return multiply(_shaped_baseband(seed=seed, n_symbols=64, sps=64), _tone(f0, n=n))


class TestOneShiftGuard:
    @given(
        kind=st.sampled_from(["tones", "baseband"]),
        f0=st.integers(min_value=-32767, max_value=32767).map(float),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        shift=st.integers(min_value=-32767, max_value=32767).map(float),
    )
    @example(kind="tones", f0=-3000.0, seed=0, shift=31000.0)
    @settings(max_examples=60)
    def test_complex_modulate_is_band_move(self, kind, f0, seed, shift):
        s = _drawn_signal(kind, f0, seed)
        outcomes = []
        for move in (lambda: complex_modulate(s, shift), lambda: band_move(s, shift)):
            try:
                outcomes.append(move().samples.tobytes())
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    def test_tone_moved_up_to_near_nyquist_is_accepted(self):
        # content at -3000 Hz lands at 28000 Hz, inside fs/2 = 32768 Hz
        tone = _tone(-3000.0)
        moved = complex_modulate(tone, 31000.0)
        assert peak_frequency(dft_two_sided(moved)) == 28000.0
        np.testing.assert_array_equal(
            real_modulate(tone, 31000.0).samples, real_part(moved).samples
        )


@pytest.fixture
def fft_calls(monkeypatch):
    """Lengths of the FFTs ``spectrum`` runs while the test is active."""
    calls = []
    fft = spectrum.np.fft.fft

    def counting(x, *args, **kwargs):
        calls.append(len(x))
        return fft(x, *args, **kwargs)

    monkeypatch.setattr(spectrum.np.fft, "fft", counting)
    return calls


class TestGuardMemo:
    def test_repeated_guards_on_one_signal_run_one_fft(self, fft_calls):
        s = _shaped_baseband(n_symbols=64, sps=16)
        extent = occupied_extent(s)
        band_move(s, 3000.0)
        band_move(s, -2000.0)
        band_move(s, 0.0)
        assert occupied_extent(s) == extent
        assert fft_calls == [s.n]

    def test_equal_samples_in_a_new_signal_run_a_new_fft(self, fft_calls):
        s = _shaped_baseband(n_symbols=64, sps=16)
        band_move(s, 3000.0)
        band_move(ComplexSignal(s.samples, s.sample_rate_hz), 3000.0)
        assert len(fft_calls) == 2

    def test_repeated_over_nyquist_move_raises_the_same_message(self, fft_calls):
        s = _tone(15000.0)
        with pytest.raises(ValueError, match="past the Nyquist limit") as first:
            band_move(s, +20000.0)
        with pytest.raises(ValueError) as again:
            band_move(s, +20000.0)
        assert str(again.value) == str(first.value)
        assert len(fft_calls) == 1

    def test_all_zero_signal_skips_the_guard(self, fft_calls):
        z = ComplexSignal(np.zeros(N), FS)
        assert not np.any(band_move(z, +20000.0).samples)
        assert occupied_extent(z) is None
        assert fft_calls == []

    def test_memo_does_not_keep_the_signal_alive(self):
        s = _shaped_baseband(n_symbols=64, sps=16)
        band_move(s, 3000.0)
        ref = weakref.ref(s)
        del s
        gc.collect()
        assert ref() is None

    def test_group_laws_guards_each_trial_with_three_ffts(self, fft_calls):
        report, _ = execute_scenario(ScenarioConfig(scenario="group_laws", n_samples=4096))
        assert report.passed
        # per trial: s, band_move(s, f1) and band_move(s, f2); then the tone's
        # guard, the flipped tone's spectrum (its peak and its artifact) and
        # the tone's spectrum artifact
        assert fft_calls == [4096] * (3 * GROUP_LAW_TRIALS + 3)


class TestDualMessage:
    def test_length_mismatch_rejected(self):
        a = ComplexSignal(np.ones(8), FS)
        b = ComplexSignal(np.ones(9), FS)
        with pytest.raises(ValueError):
            DualMessage(a, b)

    def test_rate_mismatch_rejected(self):
        a = ComplexSignal(np.ones(8), FS)
        b = ComplexSignal(np.ones(8), FS / 2)
        with pytest.raises(ValueError):
            DualMessage(a, b)

    def test_negative_guard_rejected(self):
        a = ComplexSignal(np.ones(8), FS)
        with pytest.raises(ValueError):
            DualMessage(a, a, guard_hz=-1.0)


class TestDualModulate:
    def test_silent_a_reduces_to_single_stream(self):
        b = _shaped_baseband(seed=8)
        silent = ComplexSignal(np.zeros(b.n), FS)
        dual = dual_modulate(DualMessage(silent, b, GUARD), F_C)
        np.testing.assert_array_equal(
            dual.samples, complex_modulate(b, +F_C).samples
        )

    def test_two_tones_land_on_two_bins(self):
        tone_a = _tone(256.0)
        tone_b = _tone(-128.0)
        dual = dual_modulate(DualMessage(tone_a, tone_b, GUARD), F_C)
        sp = dft_two_sided(dual)
        mags = np.abs(sp.bins)
        order = np.argsort(mags)[::-1]
        top_freqs = sorted(sp.freq_axis_hz[order[:2]])
        assert top_freqs == [-F_C + 256.0, F_C - 128.0]
        assert mags[order[2]] / mags[order[0]] < 1e-10

    def test_band_split_and_independence(self):
        a = _shaped_baseband(seed=7)
        b = _shaped_baseband(seed=8)
        dual = dual_modulate(DualMessage(a, b, GUARD), F_C)
        sp = dft_two_sided(dual)
        report = band_report(sp)
        assert 0.45 <= report.l_fraction <= 0.55
        assert 0.45 <= report.r_fraction <= 0.55
        assert conj_mirror_correlation(sp) < 0.1
        # contrast: a real passband is perfectly mirror-correlated
        sp_real = dft_two_sided(real_modulate(a, F_C))
        assert conj_mirror_correlation(sp_real) >= 1 - 1e-9

    def test_linear_in_each_stream(self):
        a1 = _shaped_baseband(seed=1, n_symbols=64, sps=64)
        a2 = _shaped_baseband(seed=2, n_symbols=64, sps=64)
        b = _shaped_baseband(seed=3, n_symbols=64, sps=64)
        silent = ComplexSignal(np.zeros(b.n), FS)
        combined = dual_modulate(DualMessage(add(a1, a2), b, GUARD), F_C)
        separate = add(
            dual_modulate(DualMessage(a1, b, GUARD), F_C),
            dual_modulate(DualMessage(a2, silent, GUARD), F_C),
        )
        assert np.max(np.abs(combined.samples - separate.samples)) < 1e-12

    def test_guard_violation_rejected(self):
        a = _shaped_baseband(n_symbols=64, sps=16)  # occupies [-4672, 2368] Hz
        with pytest.raises(ValueError):
            dual_modulate(DualMessage(a, a, guard_hz=2048.0), 4096.0)

    def test_nonpositive_carrier_rejected(self):
        a = _tone(256.0, n=1024)
        with pytest.raises(ValueError):
            dual_modulate(DualMessage(a, a, GUARD), -F_C)


class TestDualDemodulate:
    def test_round_trip_evm(self):
        a = _shaped_baseband(seed=7)
        b = _shaped_baseband(seed=8)
        dual = dual_modulate(DualMessage(a, b, GUARD), F_C)
        rec_a, rec_b = dual_demodulate(dual, F_C, LPF)
        assert evm_db(rec_a, a) < -40.0
        assert evm_db(rec_b, b) < -40.0

    def test_single_stream_matches_plain_chain(self):
        from carrierlab import apply_filter, design_lowpass

        a = _shaped_baseband(seed=9)
        silent = ComplexSignal(np.zeros(a.n), FS)
        dual = dual_modulate(DualMessage(a, silent, GUARD), F_C)
        rec_a, _ = dual_demodulate(dual, F_C, LPF)
        taps = design_lowpass(LPF, FS)
        plain = apply_filter(
            band_move(complex_modulate(a, -F_C), +F_C), taps
        )
        np.testing.assert_array_equal(rec_a.samples, plain.samples)

    def test_cross_stream_leakage(self):
        a = _shaped_baseband(seed=7)
        silent = ComplexSignal(np.zeros(a.n), FS)
        dual = dual_modulate(DualMessage(a, silent, GUARD), F_C)
        _, leak_branch = dual_demodulate(dual, F_C, LPF)
        skip = leak_branch.transient
        leak = leak_branch.samples[skip : leak_branch.n - skip]
        ref = a.samples[skip : a.n - skip]
        leak_db = 10 * np.log10(np.sum(np.abs(leak) ** 2) / np.sum(np.abs(ref) ** 2))
        assert leak_db < -40.0

    def test_unisolatable_cutoff_rejected(self):
        a = _shaped_baseband(seed=7)
        dual = dual_modulate(DualMessage(a, a, GUARD), F_C)
        # the stopband from 15000 + 2048/2 Hz passes the other band's inner
        # edge, 2*F_C less half the 1116 Hz band width
        wide = FilterSpec(cutoff_hz=15000.0, transition_hz=2048.0)
        with pytest.raises(ValueError, match="cannot isolate one band"):
            dual_demodulate(dual, F_C, wide)


class TestIsolationRule:
    """Both demodulators keep one rule: the low-pass stopband, from cutoff +
    transition/2, may reach the other band's inner edge, sep - b/2, and no
    further, with the other band at 2*f_c or, wrapped, at fs - 2*f_c."""

    @pytest.mark.parametrize(
        "demodulate",
        [
            pytest.param(lambda s, f_c, lpf: real_demodulate(s, -f_c, lpf), id="real"),
            pytest.param(dual_demodulate, id="dual"),
        ],
    )
    @pytest.mark.parametrize("f_c", [F_C, 24000.0], ids=["2fc-below-half-fs", "2fc-above-half-fs"])
    def test_stopband_edge_reaches_the_other_band_and_no_further(self, f_c, demodulate):
        passband = real_modulate(_shaped_baseband(n_symbols=64), f_c)
        lo, hi = occupied_extent(passband)
        b = 2.0 * max(hi - f_c, -lo - f_c)
        sep = min(2 * f_c, FS - 2 * f_c)
        transition = 512.0
        cutoff = sep - b / 2 - transition / 2
        assert cutoff + transition / 2 == sep - b / 2
        demodulate(passband, f_c, FilterSpec(cutoff, transition))
        above = np.nextafter(cutoff, np.inf)
        assert above + transition / 2 > sep - b / 2
        with pytest.raises(ValueError, match=f"cannot isolate one band .* {sep} Hz away"):
            demodulate(passband, f_c, FilterSpec(above, transition))


class TestClearOfDc:
    """Both modulators keep one rule: the band moved by f stays on f's side of
    DC, guard_hz clear of it, and equality passes.  The DC-facing edge of the
    band decides, not its larger side: this band occupies [-64, 320] Hz."""

    @staticmethod
    def _band():
        return add(_tone(-64.0, n=1024), _tone(320.0, n=1024))

    def test_band_extent(self):
        assert occupied_extent(self._band()) == (-64.0, 320.0)

    @pytest.mark.parametrize("f", [64.0, -320.0], ids=["positive", "negative"])
    def test_real_modulate_accepts_the_edge_on_dc_and_no_further(self, f):
        band = self._band()
        real_modulate(band, f)
        with pytest.raises(ValueError, match=r"baseband occupying \[-64.0, 320.0\] Hz does not fit a band"):
            real_modulate(band, np.nextafter(f, 0.0))

    @pytest.mark.parametrize("guard", [0.0, 128.0])
    @pytest.mark.parametrize(
        "stream, edge",
        [pytest.param("stream_a", 320.0, id="a-negative"), pytest.param("stream_b", 64.0, id="b-positive")],
    )
    def test_dual_modulate_accepts_the_edge_at_the_guard_and_no_further(self, stream, edge, guard):
        band = self._band()
        silent = ComplexSignal(np.zeros(band.n), FS)
        streams = (band, silent) if stream == "stream_a" else (silent, band)
        f_c = edge + guard
        dual_modulate(DualMessage(*streams, guard_hz=guard), f_c)
        with pytest.raises(ValueError, match=f"{stream} occupying .* does not fit a band"):
            dual_modulate(DualMessage(*streams, guard_hz=guard), np.nextafter(f_c, 0.0))
        with pytest.raises(ValueError, match=f"{stream} occupying .* does not fit a band"):
            dual_modulate(DualMessage(*streams, guard_hz=np.nextafter(guard, np.inf)), f_c)

    def test_zero_shift_rejects_any_energy(self):
        with pytest.raises(ValueError, match="does not fit a band at 0.0 Hz"):
            real_modulate(_tone(0.0, n=1024), 0.0)

    def test_signal_without_energy_is_never_rejected(self):
        silent = ComplexSignal(np.zeros(1024), FS)
        assert not np.any(real_modulate(silent, 0.0).samples)
        dual = dual_modulate(DualMessage(silent, silent, guard_hz=1e9), 64.0)
        assert not np.any(dual.samples)


class TestEvm:
    def test_exact_recovery_is_minus_infinity(self):
        s = _tone(256.0, n=1024)
        assert evm_db(s, s) == float("-inf")

    def test_known_error_ratio(self):
        ref = _tone(256.0, n=1024)
        rec = ComplexSignal(1.01 * ref.samples, FS)  # 1% amplitude error -> -40 dB
        assert evm_db(rec, ref) == pytest.approx(-40.0, abs=1e-9)

    def test_zero_reference_rejected(self):
        s = _tone(256.0, n=64)
        zeros = ComplexSignal(np.zeros(64), FS)
        with pytest.raises(ValueError):
            evm_db(s, zeros)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evm_db(_tone(256.0, n=64), _tone(256.0, n=65))
