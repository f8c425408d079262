"""Named end-to-end experiments with machine-checkable verdicts.

Each scenario builds a signal chain, dumps per-stage CSVs (all but
``compare``, whose stages fig4, fig5 and fig10 dump) and evaluates a fixed
set of pass/fail checks at frozen tolerances.  No run writes an artifact
that another artifact of the run and ``config.txt`` determine: fig5, fig9
and polarization dump a stage's samples and not also their spectrum, which
README.md's File schemas rebuild bit for bit.  Reports are plain text, one
``name: measured / threshold / pass|fail`` line per check, ending in a
single ``verdict:`` line, so they diff and grep cleanly in CI.

Everything is deterministic: a configuration (including its seeds) maps to
byte-identical artifacts and report on repeat runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, zip_longest
from pathlib import Path
from typing import Any, get_type_hints

import numpy as np

from .complexcarrier import (
    DualMessage,
    band_move,
    complex_demodulate,
    complex_modulate,
    dual_demodulate,
    dual_modulate,
    evm_db,
)
from .filters import FilterSpec, apply_filter, design_lowpass, kaiser_order
from .polarization import (
    ChannelConfig,
    Handedness,
    detect_handedness,
    from_polarized,
    pair_energy,
    to_polarized,
    transmit,
)
from .realcarrier import real_demodulate, real_modulate
from . import sigio
from ._split import split
from .sigio import fmt
from .signals import (
    ComplexSignal,
    Constellation,
    SymbolStream,
    _sum_sq,
    energy,
    generate_baseband,
    oscillator,
    real_part,
    steady_pair,
)
from .spectrum import Spectrum, band_report, conj_mirror_correlation, conj_mirror_error, dft_two_sided, peak_frequency

#: largest accepted ``n_samples``, 16 MiB per complex signal; bounds the
#: memory a config can ask for
MAX_SAMPLES = 1 << 20


@dataclass
class ScenarioConfig:
    """Inputs for one scenario run.

    Defaults put every tone exactly on a DFT bin (power-of-two rate and
    length, integer frequencies) so the chain identities hold at double
    precision.  ``cutoff_hz`` and ``transition_hz`` default to 0.75 and 0.25
    of the carrier frequency.
    """

    scenario: str = "fig9"
    sample_rate_hz: float = 65536.0
    n_samples: int = 65536
    f_c_hz: float = 8192.0
    symbol_rate_hz: float = 1024.0
    constellation: Constellation = Constellation.QPSK
    seed: int = 42
    guard_hz: float = 512.0
    rolloff: float = 0.25
    cutoff_hz: float = 0.0  # 0 -> 0.75 * f_c_hz
    transition_hz: float = 0.0  # 0 -> 0.25 * f_c_hz
    stopband_atten_db: float = 60.0
    noise_sigma: float = 0.05
    crosstalk: float = 0.0
    channel_seed: int = 777

    def __post_init__(self) -> None:
        if isinstance(self.constellation, str):
            self.constellation = Constellation.parse(self.constellation)
        if not self.cutoff_hz:
            self.cutoff_hz = 0.75 * self.f_c_hz
        if not self.transition_hz:
            self.transition_hz = 0.25 * self.f_c_hz

    def validate(self) -> None:
        """Raise ValueError naming the first violated invariant of the domain; the chains' guards check the band."""
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; see `carrierlab list`")
        for name, kind in _FIELD_TYPES.items():
            if kind is float and not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.sample_rate_hz > 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.n_samples < 2 or self.n_samples & (self.n_samples - 1):
            raise ValueError("n_samples must be a power of two")
        if self.n_samples > MAX_SAMPLES:
            raise ValueError(f"n_samples must be at most {MAX_SAMPLES}")
        if not self.f_c_hz > 0:
            raise ValueError("f_c_hz must be positive")
        if not self.symbol_rate_hz > 0:
            raise ValueError("symbol_rate_hz must be positive")
        sps = self.sample_rate_hz / self.symbol_rate_hz
        if not sps.is_integer() or sps < 1:  # also false for inf, an overflowed ratio
            raise ValueError("sample_rate_hz must be an integer multiple of symbol_rate_hz")
        if self.n_samples % int(sps):
            raise ValueError("n_samples must be a multiple of sample_rate_hz/symbol_rate_hz")
        if not 0.0 <= self.rolloff <= 1.0:
            raise ValueError("rolloff must lie in [0, 1]")
        if self.guard_hz < 0:
            raise ValueError("guard_hz cannot be negative")
        # FilterSpec invariants, a band below fs/2, length within MAX_TAPS
        kaiser_order(self.filter_spec(), self.sample_rate_hz)
        self.channel_config()  # ChannelConfig invariants
        if self.seed < 0 or self.channel_seed < 0:
            raise ValueError("seeds must be nonnegative")

    @property
    def samples_per_symbol(self) -> int:
        return int(self.sample_rate_hz // self.symbol_rate_hz)

    def filter_spec(self) -> FilterSpec:
        return FilterSpec(self.cutoff_hz, self.transition_hz, self.stopband_atten_db)

    def channel_config(self) -> ChannelConfig:
        return ChannelConfig(self.noise_sigma, self.crosstalk, self.channel_seed)

    def to_text(self) -> str:
        """Canonical flat key = value form; also the config.txt artifact."""
        lines = ["# carrierlab scenario configuration"]
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if kind is Constellation:
                text = value.value
            elif kind is float:
                text = fmt(value)
            else:
                text = str(value)
            lines.append(f"{name} = {text}")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """64-bit content hash of the canonical configuration."""
        return hashlib.blake2b(self.to_text().encode(), digest_size=8).hexdigest()

    @classmethod
    def from_mapping(cls, mapping: dict[str, str]) -> "ScenarioConfig":
        """Build a config from raw text values, parsed by each field's type."""
        kwargs = {}
        for key, raw in mapping.items():
            kind = _FIELD_TYPES.get(key)
            if kind is None:
                raise ValueError(f"unknown configuration key {key!r}")
            kwargs[key] = Constellation.parse(raw) if kind is Constellation else kind(raw)
        return cls(**kwargs)


#: field name -> its type (int, float, str or Constellation), in field order;
#: parsing, printing and the finiteness check all follow it
_FIELD_TYPES = get_type_hints(ScenarioConfig)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the flat ``key = value`` format (``#`` starts a comment)."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not 'key = value': {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in mapping:
            raise ValueError(f"config line {lineno} repeats key {key!r}")
        mapping[key] = value.strip()
    return mapping


@dataclass(frozen=True)
class Verdict:
    name: str
    measured: str
    threshold: str
    passed: bool


@dataclass
class RunReport:
    """Outcome of one scenario: artifacts written, measured quantities, and
    the pass/fail checks."""

    scenario_id: str
    config_digest: str
    artifacts: list[str]
    metrics: dict[str, float]
    verdicts: list[Verdict]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_text(self) -> str:
        verdict = {True: "pass", False: "fail"}
        lines = [
            f"scenario: {self.scenario_id}",
            f"config_digest: {self.config_digest}",
            *(f"artifact: {name}" for name in self.artifacts),
            *(f"{key}: {fmt(value)}" for key, value in self.metrics.items()),
            *(f"{v.name}: {v.measured} / {v.threshold} / {verdict[v.passed]}" for v in self.verdicts),
            f"verdict: {verdict[self.passed]}",
        ]
        return "".join(f"{line}\n" for line in lines)


def _check_below(name: str, value: float, limit: float) -> Verdict:
    return Verdict(name, fmt(value), f"< {fmt(limit)}", bool(value < limit))


def _check_range(name: str, value: float, lo: float, hi: float) -> Verdict:
    return Verdict(name, fmt(value), f"in [{fmt(lo)}, {fmt(hi)}]", bool(lo <= value <= hi))


def _check_equals(name: str, measured: object, expected: object) -> Verdict:
    return Verdict(name, str(measured), f"= {expected}", measured == expected)


def _make_baseband(cfg: ScenarioConfig, seed: int) -> ComplexSignal:
    msg = SymbolStream.random(cfg.constellation, cfg.n_samples // cfg.samples_per_symbol, seed)
    return generate_baseband(
        msg,
        cfg.samples_per_symbol,
        "raised_cosine",
        rolloff=cfg.rolloff,
        sample_rate_hz=cfg.sample_rate_hz,
    )


def _dual(cfg: ScenarioConfig) -> tuple[ComplexSignal, ComplexSignal, ComplexSignal]:
    """Streams A and B (seeds ``seed`` and ``seed + 1``) and the dual-band
    waveform carrying them."""
    stream_a = _make_baseband(cfg, cfg.seed)
    stream_b = _make_baseband(cfg, cfg.seed + 1)
    return stream_a, stream_b, dual_modulate(DualMessage(stream_a, stream_b, cfg.guard_hz), cfg.f_c_hz)


def _max_diff(a: ComplexSignal, b: ComplexSignal) -> float:
    return float(np.max(np.abs(a.samples - b.samples)))


def _energies(**signals: ComplexSignal) -> dict[str, float]:
    """``energy.<name>`` metrics, in argument order."""
    return {f"energy.{name}": energy(s) for name, s in signals.items()}


def _spectrum(x: ComplexSignal) -> tuple[str, Spectrum]:
    """The spectrum artifact of ``x``."""
    return "spectrum", dft_two_sided(x)


def _build_fig4(cfg: ScenarioConfig):
    bb = _make_baseband(cfg, cfg.seed)
    pb = real_modulate(bb, cfg.f_c_hz)
    sp_pb = dft_two_sided(pb)
    report = band_report(sp_pb)
    mirror_err = conj_mirror_error(sp_pb)
    metrics = {
        **_energies(baseband=bb, passband=pb),
        "dc_fraction": report.dc / report.total,
        "conj_mirror_correlation": conj_mirror_correlation(sp_pb),
    }
    verdicts = [
        _check_range("l_fraction", report.l_fraction, 0.49, 0.51),
        _check_range("r_fraction", report.r_fraction, 0.49, 0.51),
        _check_below("conj_mirror_error", mirror_err, 1e-9),
    ]
    artifacts = {
        "spectrum_baseband.csv": _spectrum(bb),
        "spectrum_passband.csv": ("spectrum", sp_pb),
    }
    return metrics, verdicts, artifacts


def _build_fig5(cfg: ScenarioConfig):
    bb = _make_baseband(cfg, cfg.seed)
    pb = real_modulate(bb, cfg.f_c_hz)
    lpf = cfg.filter_spec()
    taps = design_lowpass(lpf, cfg.sample_rate_hz)
    mixed = complex_demodulate(pb, cfg.f_c_hz)
    recovered = real_demodulate(pb, -cfg.f_c_hz, lpf)
    conj_path = real_demodulate(pb, +cfg.f_c_hz, lpf)

    rec, ref = steady_pair(recovered, bb)
    half_ref = ref / 2.0
    peak_rel = float(np.max(np.abs(rec - half_ref)) / np.max(np.abs(half_ref)))
    energy_ratio = _sum_sq(rec) / _sum_sq(ref)
    cpath, rpath = steady_pair(conj_path, recovered)
    conj_err = float(np.max(np.abs(cpath - np.conj(rpath))) / np.max(np.abs(rpath)))

    metrics = {
        **_energies(baseband=bb, passband=pb, recovered=recovered),
        "filter.taps": float(taps.size),
    }
    verdicts = [
        _check_below("recovered_peak_rel_err", peak_rel, 1e-3),
        _check_range("recovered_energy_ratio", energy_ratio, 0.245, 0.255),
        _check_below("conjugate_path_err", conj_err, 1e-9),
    ]
    artifacts = {
        "spectrum_passband.csv": _spectrum(pb),
        "spectrum_mixed_prefilter.csv": _spectrum(mixed),
        "signal_recovered.csv": ("signal", recovered),
        "filter_taps.csv": ("taps", taps),
    }
    return metrics, verdicts, artifacts


def _build_fig6(cfg: ScenarioConfig):
    bb = _make_baseband(cfg, cfg.seed)
    moved = complex_modulate(bb, -cfg.f_c_hz)
    sp_moved = dft_two_sided(moved)
    report = band_report(sp_moved)
    metrics = {**_energies(baseband=bb, modulated=moved), "r_fraction": report.r_fraction}
    e_bb = metrics["energy.baseband"]
    energy_rel_err = abs(metrics["energy.modulated"] - e_bb) / e_bb
    verdicts = [
        _check_range("l_fraction", report.l_fraction, 0.99, 1.0),
        _check_below("r_fraction", report.r_fraction, 0.01),
        _check_below("modulation_energy_rel_err", energy_rel_err, 1e-12),
    ]
    artifacts = {
        "spectrum_baseband.csv": _spectrum(bb),
        "spectrum_modulated.csv": ("spectrum", sp_moved),
    }
    return metrics, verdicts, artifacts


def _build_fig7(cfg: ScenarioConfig):
    stream_a, stream_b, dual = _dual(cfg)
    sp_dual = dft_two_sided(dual)
    report = band_report(sp_dual)
    corr = conj_mirror_correlation(sp_dual)
    metrics = _energies(stream_a=stream_a, stream_b=stream_b, dual=dual)
    verdicts = [
        _check_range("l_fraction", report.l_fraction, 0.45, 0.55),
        _check_range("r_fraction", report.r_fraction, 0.45, 0.55),
        _check_below("conj_mirror_correlation", corr, 0.1),
    ]
    artifacts = {
        "spectrum_stream_a.csv": _spectrum(stream_a),
        "spectrum_stream_b.csv": _spectrum(stream_b),
        "spectrum_dual.csv": ("spectrum", sp_dual),
    }
    return metrics, verdicts, artifacts


def _build_fig9(cfg: ScenarioConfig):
    bb = _make_baseband(cfg, cfg.seed)
    moved_l = complex_modulate(bb, -cfg.f_c_hz)
    back_l = complex_demodulate(moved_l, -cfg.f_c_hz)
    moved_r = complex_modulate(bb, +cfg.f_c_hz)
    back_r = complex_demodulate(moved_r, +cfg.f_c_hz)
    metrics = _energies(baseband=bb, modulated=moved_l, demodulated=back_l)
    e_bb = metrics["energy.baseband"]
    energy_rel_err = abs(metrics["energy.modulated"] - e_bb) / e_bb
    verdicts = [
        _check_below("round_trip_max_err_l", _max_diff(back_l, bb), 1e-12),
        _check_below("round_trip_max_err_r", _max_diff(back_r, bb), 1e-12),
        _check_below("modulation_energy_rel_err", energy_rel_err, 1e-12),
    ]
    artifacts = {
        "spectrum_baseband.csv": _spectrum(bb),
        "spectrum_modulated.csv": _spectrum(moved_l),
        "signal_demodulated.csv": ("signal", back_l),
    }
    return metrics, verdicts, artifacts


def _build_fig10(cfg: ScenarioConfig):
    stream_a, stream_b, dual = _dual(cfg)
    lpf = cfg.filter_spec()
    taps = design_lowpass(lpf, cfg.sample_rate_hz)
    rec_a, rec_b = dual_demodulate(dual, cfg.f_c_hz, lpf)
    evm_a = evm_db(rec_a, stream_a)
    evm_b = evm_db(rec_b, stream_b)

    # cross-stream leakage: A alone on its band, measured in B's branch of the
    # receiver just checked on the dual waveform, with its taps; a second
    # isolation check would see stream A's lopsided extent alone
    leak_branch = apply_filter(complex_demodulate(complex_modulate(stream_a, -cfg.f_c_hz), cfg.f_c_hz), taps)
    leak, a_ref = steady_pair(leak_branch, stream_a)
    leak_db = float(10.0 * np.log10(_sum_sq(leak) / _sum_sq(a_ref)))

    metrics = {
        **_energies(dual=dual, recovered_a=rec_a, recovered_b=rec_b),
        "filter.taps": float(taps.size),
    }
    verdicts = [
        _check_below("evm_a_db", evm_a, -40.0),
        _check_below("evm_b_db", evm_b, -40.0),
        _check_below("cross_leakage_db", leak_db, -40.0),
    ]
    artifacts = {
        "spectrum_dual.csv": _spectrum(dual),
        "spectrum_recovered_a.csv": _spectrum(rec_a),
        "spectrum_recovered_b.csv": _spectrum(rec_b),
        "filter_taps.csv": ("taps", taps),
    }
    return metrics, verdicts, artifacts


GROUP_LAW_TRIALS = 100


def _group_law_trial(cfg: ScenarioConfig, seed: int, f1: float, f2: float) -> tuple[float, ...]:
    # integer-Hz shifts stay exactly on the sampling grid, keeping both
    # composition orders bit-comparable in double precision
    s = _make_baseband(cfg, seed)
    moved = band_move(s, f1)
    via = band_move(moved, f2)
    return (
        _max_diff(via, band_move(s, f1 + f2)),
        _max_diff(via, band_move(band_move(s, f2), f1)),
        _max_diff(band_move(s, 0.0), s),
        _max_diff(band_move(moved, -f1), s),
    )


def _build_group_laws(cfg: ScenarioConfig):
    # the sign flip first: its 2*f0 shift fails at a rate of 4*f0 before any trial
    # runs, and it draws nothing from their RNG; a wide baseband fails a trial's move
    f0 = cfg.f_c_hz
    tone = oscillator(-f0, cfg.n_samples, cfg.sample_rate_hz)
    flipped = band_move(tone, 2 * f0)

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    f_cap = int(cfg.sample_rate_hz // 8)
    trials = []
    for _ in range(GROUP_LAW_TRIALS):  # each trial's seed, f1 and f2, all drawn before any trial runs
        seed = int(rng.integers(0, 2**63))
        f1 = float(rng.integers(-f_cap, f_cap + 1))
        f2 = float(rng.integers(-f_cap, f_cap + 1))
        trials.append(partial(_group_law_trial, cfg, seed, f1, f2))
    errors = list(split(trials))
    max_add, max_comm, max_ident, max_inv = (max(0.0, *column) for column in zip(*errors))

    sp_flipped = dft_two_sided(flipped)
    peak = peak_frequency(sp_flipped)

    metrics = {"trials": float(GROUP_LAW_TRIALS)}
    verdicts = [
        _check_below("additivity_max_err", max_add, 1e-12),
        _check_below("commutativity_max_err", max_comm, 1e-12),
        _check_below("identity_max_err", max_ident, 1e-12),
        _check_below("inverse_max_err", max_inv, 1e-12),
        Verdict(
            "sign_flip_peak_hz",
            fmt(peak),
            f"= {fmt(f0)}",
            bool(abs(peak - f0) < 1e-9),
        ),
    ]
    artifacts = {
        "spectrum_tone_before.csv": _spectrum(tone),
        "spectrum_tone_after.csv": ("spectrum", sp_flipped),
    }
    return metrics, verdicts, artifacts


def _ledger(sp: Spectrum) -> tuple[int, float, int]:
    """Bands holding over a tenth of the energy, the conjugate-mirror
    correlation, and the number of independent streams that implies."""
    report = band_report(sp)
    bands = int(report.l_fraction > 0.1) + int(report.r_fraction > 0.1)
    corr = conj_mirror_correlation(sp)
    return bands, corr, 1 if corr > 0.9 else 2


def _build_compare(cfg: ScenarioConfig):
    # both chains draw unit-average-power symbols of the same length, so the
    # configured transmit energy budget is identical
    stream_a, stream_b, dual = _dual(cfg)
    lpf = cfg.filter_spec()

    # conventional chain: one stream, real passband
    passband = real_modulate(stream_a, cfg.f_c_hz)
    recovered = real_demodulate(passband, -cfg.f_c_hz, lpf)
    rec, ref = steady_pair(recovered, stream_a)
    # np.sum, not np.vdot, for the reason _sum_sq gives
    fit = np.sum(np.conj(ref) * rec) / _sum_sq(ref)
    amplitude_factor = float(np.abs(fit))
    energy_ratio = _sum_sq(rec) / _sum_sq(ref)
    real_bands, corr_real, real_streams = _ledger(dft_two_sided(passband))

    # proposed chain: two streams, one complex waveform
    rec_a, rec_b = dual_demodulate(dual, cfg.f_c_hz, lpf)
    evm_a = evm_db(rec_a, stream_a)
    evm_b = evm_db(rec_b, stream_b)
    dual_bands, corr_dual, dual_streams = _ledger(dft_two_sided(dual))

    metrics = {
        **_energies(
            stream_a=stream_a,
            stream_b=stream_b,
            real_tx=passband,
            real_recovered=recovered,
            dual_tx=dual,
            dual_recovered_a=rec_a,
            dual_recovered_b=rec_b,
        ),
        "real_conj_mirror_correlation": corr_real,
        "dual_conj_mirror_correlation": corr_dual,
    }
    verdicts = [
        _check_range("real_amplitude_factor", amplitude_factor, 0.499, 0.501),
        _check_range("real_energy_ratio", energy_ratio, 0.245, 0.255),
        _check_equals("real_bands_occupied", real_bands, 2),
        _check_equals("real_independent_streams", real_streams, 1),
        _check_below("dual_evm_a_db", evm_a, -40.0),
        _check_below("dual_evm_b_db", evm_b, -40.0),
        _check_equals("dual_bands_occupied", dual_bands, 2),
        _check_equals("dual_independent_streams", dual_streams, 2),
    ]
    # a ledger, not a figure: fig4, fig5 and fig10 write every spectrum and
    # the taps of these chains
    return metrics, verdicts, {}


def _build_polarization(cfg: ScenarioConfig):
    channel = cfg.channel_config()
    n, fs = cfg.n_samples, cfg.sample_rate_hz
    tone_r = oscillator(+cfg.f_c_hz, n, fs)
    tone_l = oscillator(-cfg.f_c_hz, n, fs)
    pairs = {"r": to_polarized(tone_r), "l": to_polarized(tone_l), "linear": to_polarized(real_part(tone_r))}
    received = {name: transmit(pair, channel) for name, pair in pairs.items()}

    handed = {name: detect_handedness(pair) for name, pair in received.items()}
    bitwise = from_polarized(pairs["r"]).samples.tobytes() == tone_r.samples.tobytes()
    tone_energy, field_energy = energy(tone_r), pair_energy(pairs["r"])
    energy_match = field_energy == tone_energy

    metrics = {
        "energy.tone": tone_energy,
        "energy.pair": field_energy,
        "channel.noise_sigma": channel.noise_sigma,
        "channel.crosstalk": channel.crosstalk,
    }
    verdicts = [
        _check_equals("handedness_r", handed["r"].value, Handedness.R.value),
        _check_equals("handedness_l", handed["l"].value, Handedness.L.value),
        _check_equals("handedness_linear", handed["linear"].value, Handedness.LINEAR.value),
        _check_equals("roundtrip_bitwise", str(bitwise).lower(), "true"),
        _check_equals("energy_match_exact", str(energy_match).lower(), "true"),
    ]
    artifacts = {
        "pair_transmitted_r.csv": ("pair", received["r"]),
        "spectrum_received_l.csv": _spectrum(from_polarized(received["l"])),
        "spectrum_received_linear.csv": _spectrum(from_polarized(received["linear"])),
    }
    return metrics, verdicts, artifacts


#: scenario id -> (builder, description), in ``carrierlab list`` order
_SCENARIO_TABLE = {
    "fig4": (_build_fig4, "real-carrier modulation: two mirrored bands, 50/50 energy split"),
    "fig5": (_build_fig5, "real-carrier demodulation: image at twice the carrier, half-amplitude recovery"),
    "fig6": (_build_fig6, "complex modulation onto the negative band: single-band occupancy, energy conserved"),
    "fig7": (_build_fig7, "dual modulation: independent streams on the negative and positive bands"),
    "fig9": (_build_fig9, "complex modulate/demodulate round trip: lossless to rounding error"),
    "fig10": (_build_fig10, "dual demodulation: both streams recovered, cross-band leakage bounded"),
    "group_laws": (_build_group_laws, "frequency-shift composition: additive, commutative, identity, inverse"),
    "compare": (_build_compare, "real chain vs dual complex chain: amplitude, energy and stream ledger"),
    "polarization": (_build_polarization, "circular-polarization embedding with a noisy two-component channel"),
}
SCENARIOS = tuple(_SCENARIO_TABLE)
SCENARIO_DESCRIPTIONS = {name: description for name, (_, description) in _SCENARIO_TABLE.items()}


def execute_scenario(cfg: ScenarioConfig) -> tuple[RunReport, dict[str, tuple[str, Any]]]:
    """Run a scenario in memory; returns the report and the run's files, in
    the order ``run_scenario`` writes them, as ``name -> (kind, data)``:
    ``config.txt`` as ``("text", cfg.to_text())``, each CSV artifact with its
    kind a ``sigio.SCHEMAS`` table, and ``report.txt`` as ``("text",
    report.to_text())``.  The report lists every file but itself."""
    cfg.validate()
    build, _ = _SCENARIO_TABLE[cfg.scenario]
    metrics, verdicts, artifacts = build(cfg)
    report = RunReport(cfg.scenario, cfg.digest(), ["config.txt", *artifacts], metrics, verdicts)
    return report, {"config.txt": ("text", cfg.to_text()), **artifacts, "report.txt": ("text", report.to_text())}


def run_scenario(cfg: ScenarioConfig, out_dir: Path) -> RunReport:
    """Run a scenario and write the files of ``execute_scenario``'s table to
    ``out_dir``, in its order.

    An ``OSError`` while writing, or a helper process that ends without the
    text it formats, removes every file of the table before it propagates,
    so a failed run leaves no partial run behind.
    """
    report, files = execute_scenario(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # each CSV in two halves cut at its middle row, for split to format while
    # this process writes the files in order; sigio.csv_text is looked up on
    # the module here, so that wrappers installed there for profiling see
    # every half
    halves = []
    for kind, data in files.values():
        if kind != "text":
            cut = (len(sigio.SCHEMAS[kind].columns(data)[0]) + 1) // 2
            halves += [partial(sigio.csv_text, kind, data, 0, cut), partial(sigio.csv_text, kind, data, cut)]
    try:
        with contextlib.closing(split(halves)) as texts:
            for name, (kind, data) in files.items():
                with open(out / name, "w", newline="") as fh:  # "\n" on every platform, as verify compares bytes
                    fh.writelines([data] if kind == "text" else islice(texts, 2))
    except OSError:
        for name in files:
            with contextlib.suppress(OSError):  # e.g. a directory in the file's place
                (out / name).unlink()
        raise
    return report


def _bits(values: np.ndarray) -> np.ndarray:
    """The float64 bit patterns of ``values``: ``-0.0`` and ``0.0`` differ."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _text_divergence(path: Path, fresh: Iterable[str]) -> str | None:
    """None when the file at ``path`` holds the text whose pieces, each of
    whole lines, are ``fresh``; else one message naming the file missing or
    unreadable, or its first line that differs, with both texts, or saying that
    only its line endings or final newline differ.  A line ends at ``\n``, as
    ``run`` writes, or ``\r\n``; both are read a line at a time, up to there."""
    wanted_lines = chain.from_iterable(io.BytesIO(piece.encode()) for piece in fresh)
    try:
        with open(path, "rb") as fh:
            first = fh.readline()
            exact = bool(first)  # the bytes so far are the same
            # the empty file is one empty line, as "\n" is
            for i, (line, wanted) in enumerate(zip_longest(chain([first or b"\n"], fh), wanted_lines), start=1):
                if line != wanted:  # by their bytes, then reading "\r\n" as "\n" and without a final "\n"
                    exact = False
                    line = None if line is None else line.replace(b"\r\n", b"\n").removesuffix(b"\n")
                    wanted = None if wanted is None else wanted.removesuffix(b"\n")
                if line != wanted:
                    # undecodable bytes become U+FFFD, which no fresh line contains
                    shown = ["nothing" if t is None else repr(t.decode(errors="replace")) for t in (line, wanted)]
                    return f"{path.name} line {i}: stored {shown[0]}, recomputed {shown[1]}"
    except OSError as exc:
        return _unreadable(path.name, exc)
    return None if exact else f"{path.name} matches line for line, but its line endings or final newline differ"


def _unreadable(name: str, exc: OSError) -> str:
    """The message for file ``name`` of a run that could not be read."""
    return f"missing artifact: {name}" if isinstance(exc, FileNotFoundError) else f"artifact {name} unreadable: {exc}"


def _csv_half(path: Path, kind: str, data: Any, second: bool) -> int | None:
    """The row of the table of ``kind`` for ``data`` at which the CSV at
    ``path`` is cut, as its first half (rows before the cut) or, with
    ``second``, its second half (the table's rows less those after it) puts
    it, if the half parses to the bits of the table's first, or last, rows;
    else None, also for a file that cannot be read.  The cut follows the
    first ``\n`` at or after the file's middle byte, and each half is read on
    its own."""
    try:
        with open(path, "rb") as fh:
            fh.seek(fh.seek(0, io.SEEK_END) // 2)
            cut = fh.tell() + len(fh.readline())
            fh.seek(cut if second else 0)
            # on the module, as in run_scenario
            rows = sigio.parse_rows(kind, fh.read() if second else fh.read(cut), header=not second)
    except (OSError, ValueError):
        return None
    columns = sigio.SCHEMAS[kind].columns(data)  # in header order
    at = len(columns[0]) - len(rows) if second else len(rows)
    span = slice(at, None) if second else slice(at)
    return at if all(np.array_equal(_bits(a), _bits(b[span])) for a, b in zip(rows.T, columns)) else None


def verify_run(out_dir: Path) -> tuple[bool, list[str]]:
    """Re-check a run against the table of files of a fresh execution of its
    stored ``config.txt``, read first: if it is missing, unreadable or does
    not execute, that is the one message.  Then each entry is checked in
    order: a text file must hold its entry's bytes, a CSV parse to its table
    bit for bit, its two halves (``_csv_half``) each in one ``split`` task,
    so the helper checks every second half.  A file that differs, missing or
    unreadable gets ``_text_divergence``'s one message, read only up to its
    first differing line (a CSV against ``run``'s text, a block at a time);
    each entry of ``out_dir`` outside the table is named.  Every verdict must pass."""
    out = Path(out_dir)
    try:
        stored = (out / "config.txt").read_bytes()
    except OSError as exc:
        return False, [_unreadable("config.txt", exc)]
    try:
        fresh, files = execute_scenario(ScenarioConfig.from_mapping(parse_config_text(stored.decode(errors="replace"))))
    except ValueError as exc:
        return False, [f"stored configuration does not execute: {exc}"]
    messages = [_text_divergence(out / name, [data]) for name, (kind, data) in files.items() if kind == "text"]
    csvs = {name: entry for name, entry in files.items() if entry[0] != "text"}
    # each CSV's two halves, in artifact order, as run_scenario formats them
    halves = [partial(_csv_half, out / name, *entry, half) for name, entry in csvs.items() for half in (False, True)]
    with contextlib.closing(split(halves)) as counts:
        for name, (kind, data) in csvs.items():
            first, second = islice(counts, 2)  # the two halves must meet at one row
            if first is None or first != second:
                # a CSV that fails is compared with the text run writes, a block at a time
                messages.append(_text_divergence(out / name, sigio.csv_blocks(kind, data)))
    messages = [message for message in messages if message is not None]
    undeclared = sorted(p.name for p in out.iterdir() if p.name not in files)
    messages.extend(f"undeclared file: {name}" for name in undeclared)
    messages.extend(f"verdict {v.name} is failing" for v in fresh.verdicts if not v.passed)
    return not messages, messages
