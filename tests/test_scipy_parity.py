"""carrierlab's own filter design and pulse shaping give scipy's bits.

The program computes the Kaiser-window low-pass and the polyphase
raised-cosine shaping with numpy alone; scipy serves here only as the oracle
they are compared with, byte for byte.
"""

import numpy as np
import pytest

from carrierlab import Constellation, FilterSpec, SymbolStream, design_lowpass, generate_baseband
from carrierlab.filters import MAX_TAPS, _i0, kaiser_order
from carrierlab.signals import _raised_cosine_pulse

signal = pytest.importorskip("scipy.signal")
special = pytest.importorskip("scipy.special")

ATTENUATIONS_DB = (8.5, 21.0, 30.0, 50.0, 60.0, 80.0, 140.0)
SAMPLE_RATES_HZ = (1000.0, 8000.0, 48000.0, 65536.0)
#: (cutoff, transition) as fractions of the sample rate
BANDS = ((0.01, 0.005), (0.05, 0.02), (0.1, 0.05), (0.12, 0.01), (0.2, 0.1), (0.3, 0.05), (0.4, 0.05))


def _specs(atten_db, fs):
    """The grid's specs at one attenuation and rate, within ``MAX_TAPS``."""
    specs = [FilterSpec(c * fs, t * fs, atten_db) for c, t in BANDS]
    return [s for s in specs if signal.kaiserord(atten_db, s.transition_hz / (fs / 2))[0] | 1 <= MAX_TAPS]


@pytest.mark.parametrize("fs", SAMPLE_RATES_HZ)
@pytest.mark.parametrize("atten_db", ATTENUATIONS_DB)
def test_design_is_kaiserord_and_firwin(atten_db, fs):
    specs = _specs(atten_db, fs)
    assert specs
    for spec in specs:
        numtaps, beta = signal.kaiserord(atten_db, spec.transition_hz / (fs / 2))
        assert kaiser_order(spec, fs) == (numtaps | 1, beta)
        expected = signal.firwin(numtaps | 1, spec.cutoff_hz, window=("kaiser", beta), fs=fs)
        assert design_lowpass(spec, fs).tobytes() == expected.tobytes()


def test_i0_is_cephes_i0():
    # both sides of the x = 8 branch, and the doubles next to it
    x = np.concatenate([np.linspace(0.0, 30.0, 30001), [np.nextafter(8.0, 0.0), 8.0, np.nextafter(8.0, 9.0)]])
    assert _i0(x).tobytes() == special.i0(x).tobytes()


@pytest.mark.parametrize("rolloff", (0.0, 0.25, 0.5, 1.0))
@pytest.mark.parametrize("sps", (1, 2, 3, 5, 16, 64))
def test_raised_cosine_shaping_is_upfirdn(sps, rolloff):
    pulse = _raised_cosine_pulse(sps, rolloff)
    delay = (pulse.size - 1) // 2
    for constellation in Constellation:
        for count in (1, 2, 7, 96):
            msg = SymbolStream.random(constellation, count, seed=count)
            got = generate_baseband(msg, sps, "raised_cosine", rolloff=rolloff, sample_rate_hz=1000.0)
            expected = signal.upfirdn(pulse, msg.symbols, up=sps)[delay : delay + count * sps]
            # signed zeros included
            assert got.samples.tobytes() == expected.tobytes()
