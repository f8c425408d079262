"""Tests for the polarized-pair embedding and the two-component channel."""

import numpy as np
import pytest

from carrierlab import (
    ChannelConfig,
    ComplexSignal,
    Handedness,
    PolarizedPair,
    detect_handedness,
    energy,
    from_polarized,
    oscillator,
    pair_energy,
    real_part,
    to_polarized,
    transmit,
)

FS = 8192.0
N = 8192
F0 = 512.0


def _tone(f):
    return oscillator(f, N, FS)


def _random_signal(seed=0):
    rng = np.random.default_rng(seed)
    return ComplexSignal(rng.standard_normal(N) + 1j * rng.standard_normal(N), FS)


class TestPairConversion:
    def test_positive_tone_splits_into_cos_sin(self):
        pair = to_polarized(_tone(F0))
        t = np.arange(N) / FS
        np.testing.assert_allclose(pair.comp_y, np.cos(2 * np.pi * F0 * t), atol=1e-12)
        np.testing.assert_allclose(pair.comp_z, np.sin(2 * np.pi * F0 * t), atol=1e-12)

    def test_negative_tone_flips_second_component(self):
        pair = to_polarized(_tone(-F0))
        t = np.arange(N) / FS
        np.testing.assert_allclose(pair.comp_z, -np.sin(2 * np.pi * F0 * t), atol=1e-12)

    def test_real_signal_has_zero_orthogonal_component(self):
        pair = to_polarized(real_part(_tone(F0)))
        assert np.all(pair.comp_z == 0.0)

    def test_round_trip_is_bitwise(self):
        s = _random_signal(3)
        back = from_polarized(to_polarized(s))
        assert back.samples.tobytes() == s.samples.tobytes()
        assert back.sample_rate_hz == s.sample_rate_hz

    def test_zero_z_gives_real_signal(self):
        pair = PolarizedPair(np.arange(8.0), np.zeros(8), FS)
        s = from_polarized(pair)
        assert np.all(s.samples.imag == 0.0)

    def test_cos_sin_pair_is_positive_tone(self):
        t = np.arange(N) / FS
        pair = PolarizedPair(np.cos(2 * np.pi * F0 * t), np.sin(2 * np.pi * F0 * t), FS)
        np.testing.assert_allclose(from_polarized(pair).samples, _tone(F0).samples, atol=1e-12)

    def test_pair_energy_matches_signal_energy_exactly(self):
        s = _random_signal(11)
        assert pair_energy(to_polarized(s)) == energy(s)


class TestPairInvariants:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PolarizedPair(np.ones(4), np.ones(5), FS)

    def test_empty_pair_rejected(self):
        with pytest.raises(ValueError, match="^a polarized pair must contain at least one sample$"):
            PolarizedPair(np.ones(0), np.ones(0), FS)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            PolarizedPair(np.array([1.0, np.inf]), np.ones(2), FS)

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.inf, np.nan])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(ValueError):
            PolarizedPair(np.ones(4), np.ones(4), rate)

    def test_components_read_only(self):
        pair = PolarizedPair(np.ones(4), np.ones(4), FS)
        with pytest.raises(ValueError):
            pair.comp_y[0] = 2.0


class TestChannel:
    def test_clean_channel_is_identity(self):
        pair = to_polarized(_tone(F0))
        out = transmit(pair, ChannelConfig(noise_sigma=0.0, crosstalk=0.0, seed=1))
        np.testing.assert_array_equal(out.comp_y, pair.comp_y)
        np.testing.assert_array_equal(out.comp_z, pair.comp_z)

    def test_half_crosstalk_collapses_components(self):
        pair = to_polarized(_tone(F0))
        out = transmit(pair, ChannelConfig(crosstalk=0.5))
        np.testing.assert_allclose(out.comp_y, (pair.comp_y + pair.comp_z) / 2, atol=1e-15)
        np.testing.assert_array_equal(out.comp_y, out.comp_z)
        assert detect_handedness(out) is Handedness.LINEAR

    def test_noise_is_seed_deterministic(self):
        pair = to_polarized(_tone(F0))
        cfg = ChannelConfig(noise_sigma=0.1, seed=99)
        a = transmit(pair, cfg)
        b = transmit(pair, cfg)
        assert a.comp_y.tobytes() == b.comp_y.tobytes()
        assert a.comp_z.tobytes() == b.comp_z.tobytes()
        assert not np.array_equal(a.comp_y, pair.comp_y)

    def test_different_seed_changes_noise(self):
        pair = to_polarized(_tone(F0))
        a = transmit(pair, ChannelConfig(noise_sigma=0.1, seed=1))
        b = transmit(pair, ChannelConfig(noise_sigma=0.1, seed=2))
        assert not np.array_equal(a.comp_y, b.comp_y)

    def test_channel_is_affine(self):
        # transmit(a+b) == transmit(a) + transmit(b) - transmit(0) per seed
        cfg = ChannelConfig(noise_sigma=0.2, crosstalk=0.3, seed=5)
        a = to_polarized(_random_signal(1))
        b = to_polarized(_random_signal(2))
        zero = PolarizedPair(np.zeros(N), np.zeros(N), FS)
        combined = transmit(PolarizedPair(a.comp_y + b.comp_y, a.comp_z + b.comp_z, FS), cfg)
        separate_y = transmit(a, cfg).comp_y + transmit(b, cfg).comp_y - transmit(zero, cfg).comp_y
        separate_z = transmit(a, cfg).comp_z + transmit(b, cfg).comp_z - transmit(zero, cfg).comp_z
        np.testing.assert_allclose(combined.comp_y, separate_y, atol=1e-12)
        np.testing.assert_allclose(combined.comp_z, separate_z, atol=1e-12)

    @pytest.mark.parametrize("kwargs", [dict(noise_sigma=-0.1), dict(crosstalk=1.0), dict(crosstalk=-0.2)])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChannelConfig(**kwargs)


class TestHandedness:
    def test_positive_tone_is_right_handed(self):
        assert detect_handedness(to_polarized(_tone(F0))) is Handedness.R

    def test_negative_tone_is_left_handed(self):
        assert detect_handedness(to_polarized(_tone(-F0))) is Handedness.L

    def test_cosine_is_linear(self):
        assert detect_handedness(to_polarized(real_part(_tone(F0)))) is Handedness.LINEAR

    def test_clean_transmission_preserves_handedness(self):
        cfg = ChannelConfig(noise_sigma=0.0, crosstalk=0.0, seed=0)
        for f, expected in ((F0, Handedness.R), (-F0, Handedness.L)):
            out = transmit(to_polarized(_tone(f)), cfg)
            assert detect_handedness(out) is expected

    def test_moderate_noise_preserves_handedness(self):
        cfg = ChannelConfig(noise_sigma=0.05, seed=13)
        out = transmit(to_polarized(_tone(F0)), cfg)
        assert detect_handedness(out) is Handedness.R

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            detect_handedness(PolarizedPair(np.zeros(16), np.zeros(16), FS))
