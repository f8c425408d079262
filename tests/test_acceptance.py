"""Acceptance suite: every criterion at the default working point, each at
its frozen tolerance, printing one pass/fail line per criterion.

The default working point is the library default configuration: 65536 Hz
rate, 65536 samples (one second), 8192 Hz carrier, 1024 baud QPSK with
raised-cosine rolloff 0.25, 512 Hz guard, 60 dB low-pass, seed 42.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import numpy as np

from carrierlab import (
    ComplexSignal,
    Constellation,
    DualMessage,
    FilterSpec,
    Handedness,
    ScenarioConfig,
    SymbolStream,
    add,
    apply_filter,
    band_report,
    complex_demodulate,
    complex_modulate,
    conj_mirror_correlation,
    conj_mirror_error,
    design_lowpass,
    detect_handedness,
    dft_two_sided,
    dual_demodulate,
    dual_modulate,
    energy,
    evm_db,
    execute_scenario,
    from_polarized,
    generate_baseband,
    oscillator,
    pair_energy,
    real_demodulate,
    real_modulate,
    real_part,
    run_scenario,
    to_polarized,
)

FS = 65536.0
N = 65536
F_C = 8192.0
SYMBOL_RATE = 1024.0
SPS = int(FS // SYMBOL_RATE)
GUARD = 512.0
LPF = FilterSpec(cutoff_hz=0.75 * F_C, transition_hz=0.25 * F_C, stopband_atten_db=60.0)


def _baseband(seed=42):
    msg = SymbolStream.random(Constellation.QPSK, N // SPS, seed)
    return generate_baseband(msg, SPS, "raised_cosine", rolloff=0.25, sample_rate_hz=FS)


def _steady_pair(x, y):
    skip = max(x.transient, y.transient)
    return x.samples[skip : x.n - skip], y.samples[skip : y.n - skip]


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_euler_superposition():
    """Cos and sin rebuilt from opposite-handed oscillators, < 1e-12."""
    worst_cos = worst_sin = 0.0
    for f in (1.0, 7.0, 1024.0, 8191.0):
        pos = oscillator(+f, N, FS)
        neg = oscillator(-f, N, FS)
        cos_rebuilt = 0.5 * add(neg, pos).samples
        cos_err = np.max(np.abs(cos_rebuilt - real_part(pos).samples))
        sin_rebuilt = 0.5j * (neg.samples - pos.samples)
        sine_wave = pos.samples.imag  # the sine the oscillator actually carries
        sin_err = np.max(np.abs(sin_rebuilt - sine_wave))
        worst_cos = max(worst_cos, float(cos_err))
        worst_sin = max(worst_sin, float(sin_err))
    assert worst_cos < 1e-12
    assert worst_sin < 1e-12
    _report(1, f"cos err {worst_cos:.2e}, sin err {worst_sin:.2e}")


def test_criterion_2_real_carrier_occupancy():
    """Shaped QPSK at 8192 Hz: 49-51% per band, mirror error < 1e-9."""
    passband = real_modulate(_baseband(), F_C)
    sp = dft_two_sided(passband)
    report = band_report(sp)
    mirror = conj_mirror_error(sp)
    assert 0.49 <= report.l_fraction <= 0.51
    assert 0.49 <= report.r_fraction <= 0.51
    assert mirror < 1e-9
    _report(
        2,
        f"l={report.l_fraction:.4f}, r={report.r_fraction:.4f}, mirror err {mirror:.2e}",
    )


def test_criterion_3_real_carrier_demod_loss():
    """Recovery at half amplitude and quarter energy; conjugate path match."""
    bb = _baseband()
    passband = real_modulate(bb, F_C)
    recovered = real_demodulate(passband, -F_C, LPF)
    mirrored = real_demodulate(passband, +F_C, LPF)

    rec, ref = _steady_pair(recovered, bb)
    peak_rel = float(np.max(np.abs(rec - ref / 2)) / np.max(np.abs(ref / 2)))
    energy_ratio = float(np.sum(np.abs(rec) ** 2) / np.sum(np.abs(ref) ** 2))
    a, b = _steady_pair(mirrored, recovered)
    conj_err = float(np.max(np.abs(a - np.conj(b))) / np.max(np.abs(b)))

    assert peak_rel < 1e-3
    assert 0.245 <= energy_ratio <= 0.255
    assert conj_err < 1e-9
    _report(
        3,
        f"peak dev {peak_rel:.2e}, energy ratio {energy_ratio:.4f}, conj err {conj_err:.2e}",
    )


def test_criterion_4_complex_round_trip():
    """Lossless modulate/demodulate: < 1e-12 per sample, energy conserved."""
    bb = _baseband()
    e_bb = energy(bb)
    worst_err = worst_energy = 0.0
    # integer carriers come from the oscillator's table, the others from its formula
    for f_c in (-F_C, +F_C, -(F_C + 0.5), +(F_C + 0.5)):
        moved = complex_modulate(bb, f_c)
        back = complex_demodulate(moved, f_c)
        worst_err = max(worst_err, float(np.max(np.abs(back.samples - bb.samples))))
        worst_energy = max(worst_energy, abs(energy(moved) - e_bb) / e_bb)
    assert worst_err < 1e-12
    assert worst_energy < 1e-12
    _report(4, f"round-trip err {worst_err:.2e}, energy rel err {worst_energy:.2e}")


def test_criterion_5_band_move_group_laws():
    """100 randomized trials of the shift-composition laws, < 1e-12 each."""
    report, _ = execute_scenario(ScenarioConfig(scenario="group_laws"))
    by_name = {v.name: v for v in report.verdicts}
    for law in ("additivity_max_err", "commutativity_max_err", "identity_max_err", "inverse_max_err"):
        assert by_name[law].passed, law
        assert float(by_name[law].measured) < 1e-12
    assert by_name["sign_flip_peak_hz"].passed
    assert float(by_name["sign_flip_peak_hz"].measured) == F_C
    _report(
        5,
        "add "
        + by_name["additivity_max_err"].measured
        + ", comm "
        + by_name["commutativity_max_err"].measured
        + f", sign-flip peak {by_name['sign_flip_peak_hz'].measured} Hz",
    )


def test_criterion_6_dual_information_carriage():
    """Independent streams per band: EVM and leakage < -40 dB, mirror
    correlation < 0.1 (vs 1 for the real chain)."""
    stream_a = _baseband(42)
    stream_b = _baseband(43)
    dual = dual_modulate(DualMessage(stream_a, stream_b, GUARD), F_C)
    rec_a, rec_b = dual_demodulate(dual, F_C, LPF)
    evm_a = evm_db(rec_a, stream_a)
    evm_b = evm_db(rec_b, stream_b)

    silent = ComplexSignal(np.zeros(N), FS)
    only_a = dual_modulate(DualMessage(stream_a, silent, GUARD), F_C)
    _, leak_branch = dual_demodulate(only_a, F_C, LPF)
    leak, ref = _steady_pair(leak_branch, stream_a)
    leak_db = float(10 * np.log10(np.sum(np.abs(leak) ** 2) / np.sum(np.abs(ref) ** 2)))

    corr_dual = conj_mirror_correlation(dft_two_sided(dual))
    corr_real = conj_mirror_correlation(
        dft_two_sided(real_modulate(stream_a, F_C))
    )

    assert evm_a < -40.0
    assert evm_b < -40.0
    assert leak_db < -40.0
    assert corr_dual < 0.1
    assert corr_real >= 1 - 1e-9
    _report(
        6,
        f"EVM a {evm_a:.1f} dB, b {evm_b:.1f} dB, leakage {leak_db:.1f} dB, "
        f"corr dual {corr_dual:.3f} vs real {corr_real:.12f}",
    )


def test_criterion_7_polarization_embedding():
    """Bitwise pair round trip, handedness mapping, exact energy match."""
    tone = oscillator(+F_C, N, FS)
    back = from_polarized(to_polarized(tone))
    assert back.samples.tobytes() == tone.samples.tobytes()

    assert detect_handedness(to_polarized(tone)) is Handedness.R
    assert detect_handedness(to_polarized(oscillator(-F_C, N, FS))) is Handedness.L
    assert detect_handedness(to_polarized(real_part(tone))) is Handedness.LINEAR

    assert pair_energy(to_polarized(tone)) == energy(tone)
    _report(7, "bitwise round trip, R/L/linear mapping, exact energy equality")


def test_criterion_8_filter_contract():
    """Default low-pass: >= 57 dB measured stopband, < 0.5 dB passband ripple."""
    taps = design_lowpass(LPF, FS)

    def gain_db(f):
        tone = oscillator(f, 16384, FS)
        out = apply_filter(tone, taps)
        steady_out = out.steady()
        steady_in = tone.samples[out.transient : out.n - out.transient]
        return float(
            10
            * np.log10(
                np.sum(np.abs(steady_out) ** 2) / np.sum(np.abs(steady_in) ** 2)
            )
        )

    # the first ripple lobes just past the stopband edge are the weak spot
    stop_edge = LPF.cutoff_hz + LPF.transition_hz / 2
    edge_sweep = [stop_edge + 64.0 * k for k in range(9)]
    worst_stop = min(
        -gain_db(f) for f in edge_sweep + [8192.0, 12288.0, 16384.0, 24576.0, 32000.0]
    )
    pass_edge = LPF.cutoff_hz - LPF.transition_hz / 2
    worst_ripple = max(
        abs(gain_db(f)) for f in (64.0, 1024.0, 2048.0, 4096.0, pass_edge)
    )
    assert worst_stop >= 57.0
    assert worst_ripple < 0.5
    _report(8, f"stopband {worst_stop:.1f} dB, passband ripple {worst_ripple:.3f} dB")


def test_criterion_9_determinism(tmp_path):
    """Identical config twice: byte-identical report and artifacts."""
    cfg_a = ScenarioConfig(scenario="fig9")
    cfg_b = ScenarioConfig(scenario="fig9")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    report_a = run_scenario(cfg_a, out_a)
    report_b = run_scenario(cfg_b, out_b)
    assert (out_a / "report.txt").read_bytes() == (out_b / "report.txt").read_bytes()
    for name in report_a.artifacts:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    # verdict values also agree when compared numerically at 1e-9
    for va, vb in zip(report_a.verdicts, report_b.verdicts):
        assert va == vb
    assert report_a.passed and report_b.passed
    _report(9, "byte-identical reports and artifacts across two runs")
