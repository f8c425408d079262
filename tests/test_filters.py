"""Tests for the windowed-sinc low-pass design and its application."""

import numpy as np
import pytest

from carrierlab import (
    MAX_TAPS,
    ComplexSignal,
    FilterSpec,
    apply_filter,
    design_lowpass,
    oscillator,
)
from carrierlab.signals import steady_pair

FS = 65536.0
DEFAULT = FilterSpec(cutoff_hz=6144.0, transition_hz=2048.0, stopband_atten_db=60.0)


def _tone(f, n=16384):
    return oscillator(f, n, FS)


def _gain_db(taps, f):
    """Steady-state energy gain of an on-bin tone through the filter."""
    tone = _tone(f)
    out = apply_filter(tone, taps)
    steady_out, steady_in = steady_pair(out, tone)
    e_out = float(np.sum(np.abs(steady_out) ** 2))
    e_in = float(np.sum(np.abs(steady_in) ** 2))
    return 10.0 * np.log10(e_out / e_in)


class TestDesignLowpass:
    def test_dc_gain_is_unity(self):
        taps = design_lowpass(DEFAULT, FS)
        assert abs(np.sum(taps) - 1.0) < 1e-9

    def test_taps_are_symmetric_and_odd(self):
        taps = design_lowpass(DEFAULT, FS)
        assert taps.size % 2 == 1
        np.testing.assert_array_equal(taps, taps[::-1])

    def test_stopband_attenuation(self):
        # measured on an actual tone, not from the design formula
        taps = design_lowpass(DEFAULT, FS)
        f_stop = DEFAULT.cutoff_hz + DEFAULT.transition_hz
        att = -_gain_db(taps, f_stop)
        assert att >= DEFAULT.stopband_atten_db - 3.0

    def test_passband_preserved(self):
        taps = design_lowpass(DEFAULT, FS)
        for f in (512.0, 2048.0, DEFAULT.cutoff_hz - DEFAULT.transition_hz / 2):
            assert abs(_gain_db(taps, f)) < 0.5

    def test_infeasible_transition_rejected(self):
        with pytest.raises(ValueError):
            design_lowpass(FilterSpec(100.0, 1.0, 60.0), FS)

    @pytest.mark.parametrize(
        "spec",
        [
            FilterSpec(6144.0, 1e-320),  # the length estimate divides by zero
            FilterSpec(6144.0, 2048.0, 1e308),  # the length estimate overflows
        ],
    )
    def test_overflowing_length_estimate_rejected(self, spec):
        with pytest.raises(ValueError, match=f"^filter design needs over {MAX_TAPS} taps$"):
            design_lowpass(spec, FS)

    @pytest.mark.parametrize("cutoff_hz", [1e-320, 5e-324])
    def test_subnormal_normalized_cutoff_rejected(self, cutoff_hz):
        # its taps would sum to 0, and normalizing them would divide 0 by 0
        with pytest.raises(ValueError, match=f"^cutoff_hz {cutoff_hz} is too small"):
            design_lowpass(FilterSpec(cutoff_hz, 2048.0), FS)

    def test_cutoff_beyond_nyquist_rejected(self):
        with pytest.raises(ValueError):
            design_lowpass(FilterSpec(30000.0, 4000.0, 60.0), FS)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(cutoff_hz=0.0, transition_hz=100.0),
            dict(cutoff_hz=100.0, transition_hz=0.0),
            dict(cutoff_hz=100.0, transition_hz=100.0, stopband_atten_db=0.0),
        ],
    )
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FilterSpec(**kwargs)

    def test_design_is_memoised_and_read_only(self):
        taps = design_lowpass(DEFAULT, FS)
        assert design_lowpass(FilterSpec(6144.0, 2048.0, 60.0), FS) is taps
        with pytest.raises(ValueError, match="read-only"):
            taps[0] = 0.0

    def test_tap_budget_boundary(self):
        # a wide transition needs few taps and always fits the budget
        taps = design_lowpass(FilterSpec(8192.0, 8192.0, 60.0), FS)
        assert taps.size <= MAX_TAPS


class TestApplyFilter:
    def test_single_tap_identity(self):
        s = ComplexSignal(np.exp(1j * np.arange(32)), FS)
        out = apply_filter(s, np.array([1.0]))
        np.testing.assert_array_equal(out.samples, s.samples)
        assert out.transient == 0

    def test_constant_through_unity_dc_filter(self):
        taps = design_lowpass(DEFAULT, FS)
        s = ComplexSignal(np.full(4096, 2.0 - 1.0j), FS)
        out = apply_filter(s, taps)
        steady_out, _ = steady_pair(out, s)
        np.testing.assert_allclose(steady_out, 2.0 - 1.0j, atol=1e-9)

    def test_passband_tone_amplitude_and_alignment(self):
        # group-delay compensation leaves a passband tone nearly in place
        taps = design_lowpass(DEFAULT, FS)
        tone = _tone(1024.0, n=8192)
        out = apply_filter(tone, taps)
        steady_out, steady_in = steady_pair(out, tone)
        assert np.max(np.abs(steady_out - steady_in)) < 5e-3

    def test_output_length_and_transient(self):
        taps = design_lowpass(DEFAULT, FS)
        s = _tone(256.0, n=2048)
        out = apply_filter(s, taps)
        assert out.n == s.n
        assert out.transient == (taps.size - 1) // 2

    def test_transient_accumulates(self):
        s = ComplexSignal(np.ones(64), FS, transient=3)
        out = apply_filter(s, np.ones(5) / 5)
        assert out.transient == 5

    def test_empty_taps_rejected(self):
        with pytest.raises(ValueError):
            apply_filter(_tone(256.0, n=64), np.array([]))
