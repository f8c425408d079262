"""carrierlab: real-carrier vs complex-carrier modulation on a signed
two-sided spectrum.

The library models waveforms as immutable complex sample vectors and treats
modulation, demodulation and frequency translation as pure operations on
them.  A spectrum module with a signed frequency axis makes negative- and
positive-band occupancy and energy directly measurable, a polarization
module embeds complex signals as orthogonal field-component pairs, and a
scenario runner turns the whole thing into reproducible CSV-backed
experiments with pass/fail verdicts.
"""

from .complexcarrier import (
    DualMessage,
    band_move,
    complex_demodulate,
    complex_modulate,
    dual_demodulate,
    dual_modulate,
    evm_db,
)
from .filters import MAX_TAPS, FilterSpec, apply_filter, design_lowpass
from .polarization import (
    ChannelConfig,
    Handedness,
    PolarizedPair,
    detect_handedness,
    from_polarized,
    pair_energy,
    to_polarized,
    transmit,
)
from .realcarrier import real_demodulate, real_modulate
from .scenarios import (
    SCENARIOS,
    RunReport,
    ScenarioConfig,
    Verdict,
    execute_scenario,
    run_scenario,
    verify_run,
)
from .signals import (
    ComplexSignal,
    Constellation,
    SymbolStream,
    add,
    energy,
    generate_baseband,
    multiply,
    oscillator,
    real_part,
)
from .spectrum import (
    BandEnergyReport,
    Spectrum,
    band_report,
    conj_mirror_correlation,
    conj_mirror_error,
    dft_two_sided,
    occupied_extent,
    peak_frequency,
)

__version__ = "0.1.0"

__all__ = [
    "BandEnergyReport",
    "ChannelConfig",
    "ComplexSignal",
    "Constellation",
    "DualMessage",
    "FilterSpec",
    "Handedness",
    "MAX_TAPS",
    "PolarizedPair",
    "RunReport",
    "SCENARIOS",
    "ScenarioConfig",
    "Spectrum",
    "SymbolStream",
    "Verdict",
    "add",
    "apply_filter",
    "band_move",
    "band_report",
    "complex_demodulate",
    "complex_modulate",
    "conj_mirror_correlation",
    "conj_mirror_error",
    "design_lowpass",
    "detect_handedness",
    "dft_two_sided",
    "dual_demodulate",
    "dual_modulate",
    "energy",
    "evm_db",
    "execute_scenario",
    "from_polarized",
    "generate_baseband",
    "multiply",
    "occupied_extent",
    "oscillator",
    "pair_energy",
    "peak_frequency",
    "real_demodulate",
    "real_modulate",
    "real_part",
    "run_scenario",
    "to_polarized",
    "transmit",
    "verify_run",
]
