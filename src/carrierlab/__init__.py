"""carrierlab: real-carrier vs complex-carrier modulation on a signed
two-sided spectrum.

The library models waveforms as immutable complex sample vectors and treats
modulation, demodulation and frequency translation as pure operations on
them.  A spectrum module with a signed frequency axis makes negative- and
positive-band occupancy and energy directly measurable, a polarization
module embeds complex signals as orthogonal field-component pairs, and a
scenario runner turns the whole thing into reproducible CSV-backed
experiments with pass/fail verdicts.

Each public name is loaded from its module on first use, so ``import
carrierlab`` loads no numpy, and ``carrierlab.cli`` can choose the BLAS
threads before numpy starts them.
"""

import importlib

__version__ = "0.1.0"

# each module and the names it exports; sigio and _split export none, but
# resolve as attributes of the package like the others
_EXPORTS = {
    "complexcarrier": "DualMessage band_move complex_demodulate complex_modulate dual_demodulate dual_modulate evm_db",
    "filters": "MAX_TAPS FilterSpec apply_filter design_lowpass",
    "polarization": (
        "ChannelConfig Handedness PolarizedPair detect_handedness from_polarized pair_energy to_polarized transmit"
    ),
    "realcarrier": "real_demodulate real_modulate",
    "scenarios": "SCENARIOS RunReport ScenarioConfig Verdict execute_scenario run_scenario verify_run",
    "signals": "ComplexSignal Constellation SymbolStream add energy generate_baseband multiply oscillator real_part",
    "spectrum": (
        "BandEnergyReport Spectrum band_report conj_mirror_correlation conj_mirror_error dft_two_sided "
        "occupied_extent peak_frequency"
    ),
    "sigio": "",
    "_split": "",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Look ``name`` up in its module on every access, never binding it here,
    so that a wrapper set on the module is seen through the package too."""
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
