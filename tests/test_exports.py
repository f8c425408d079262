"""Tests for the package's exports: each public name resolves, on every
access, to the object its module defines."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import carrierlab

#: the package's public names, by the module that defines each
EXPORTS = {
    "complexcarrier": [
        "DualMessage", "band_move", "complex_demodulate", "complex_modulate",
        "dual_demodulate", "dual_modulate", "evm_db",
    ],
    "filters": ["MAX_TAPS", "FilterSpec", "apply_filter", "design_lowpass"],
    "polarization": [
        "ChannelConfig", "Handedness", "PolarizedPair", "detect_handedness",
        "from_polarized", "pair_energy", "to_polarized", "transmit",
    ],
    "realcarrier": ["real_demodulate", "real_modulate"],
    "scenarios": [
        "SCENARIOS", "RunReport", "ScenarioConfig", "Verdict",
        "execute_scenario", "run_scenario", "verify_run",
    ],
    "signals": [
        "ComplexSignal", "Constellation", "SymbolStream", "add", "energy",
        "generate_baseband", "multiply", "oscillator", "real_part",
    ],
    "spectrum": [
        "BandEnergyReport", "Spectrum", "band_report", "conj_mirror_correlation",
        "conj_mirror_error", "dft_two_sided", "occupied_extent", "peak_frequency",
    ],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)
#: the submodules that resolve as attributes after a bare ``import carrierlab``
SUBMODULES = [*EXPORTS, "sigio", "_split"]


def test_all_lists_the_45_names():
    assert len(NAMES) == 45
    assert sorted(carrierlab.__all__) == NAMES


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_each_name_is_its_modules_object(module, name):
    assert getattr(carrierlab, name) is getattr(importlib.import_module(f"carrierlab.{module}"), name)


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from carrierlab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        carrierlab.no_such_name
    assert not hasattr(carrierlab, "no_such_name")


def test_a_patched_function_is_seen_through_the_package(monkeypatch):
    original = carrierlab.signals.energy

    def wrapped(signal):
        return original(signal)

    with monkeypatch.context() as patch:
        patch.setattr(carrierlab.signals, "energy", wrapped)
        assert carrierlab.energy is wrapped
    assert carrierlab.energy is original
    assert "energy" not in vars(carrierlab)


def test_submodules_resolve_after_a_bare_import():
    script = (
        "import sys\n"
        "import carrierlab\n"
        f"for name in {SUBMODULES!r}:\n"
        "    assert getattr(carrierlab, name) is sys.modules['carrierlab.' + name], name\n"
        "print('ok')\n"
    )
    src = str(Path(carrierlab.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_dir_lists_the_exports():
    assert set(NAMES) <= set(dir(carrierlab))
