"""Tests for the scenario engine: configs, reports, artifacts, verification."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import carrierlab
from carrierlab import ScenarioConfig, SCENARIOS, execute_scenario, run_scenario, verify_run
from carrierlab.cli import main
from carrierlab.scenarios import MAX_SAMPLES, parse_config_text
from carrierlab import polarization, scenarios, signals, sigio
from carrierlab.spectrum import dft_two_sided

# desk-scale configuration: same structure as the defaults, 8x smaller
SMALL = dict(
    sample_rate_hz=8192.0,
    n_samples=8192,
    f_c_hz=1024.0,
    symbol_rate_hz=128.0,
    guard_hz=64.0,
)


def small_config(scenario, **overrides):
    return ScenarioConfig(scenario=scenario, **{**SMALL, **overrides})


class TestScenarioConfig:
    def test_defaults_validate(self):
        ScenarioConfig().validate()

    def test_filter_defaults_derive_from_carrier(self):
        cfg = ScenarioConfig(f_c_hz=4096.0)
        assert cfg.cutoff_hz == 0.75 * 4096.0
        assert cfg.transition_hz == 0.25 * 4096.0

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            (dict(scenario="fig8"), "unknown scenario"),
            (dict(n_samples=1000), "power of two"),
            (dict(sample_rate_hz=0.0), "sample_rate_hz must be positive"),
            (dict(symbol_rate_hz=-1024.0), "symbol_rate_hz must be positive"),
            (dict(f_c_hz=-256.0), "f_c_hz must be positive"),  # a domain check; the band is the chain's
            (dict(symbol_rate_hz=100.0), "integer multiple"),
            (dict(rolloff=2.0), "rolloff"),
            (dict(guard_hz=-5.0), "guard_hz"),
            # a carrier at fs/2, whose default low-pass reaches past it
            (dict(f_c_hz=32768.0, symbol_rate_hz=8192.0), "below half the sample rate"),
            (dict(crosstalk=1.5), "crosstalk"),
            (dict(noise_sigma=-1.0), "noise_sigma"),
            (dict(seed=-1), "seeds"),
            (dict(guard_hz=math.nan), "guard_hz must be finite"),
            (dict(noise_sigma=math.nan), "noise_sigma must be finite"),
            (dict(sample_rate_hz=math.inf), "sample_rate_hz must be finite"),
            (dict(transition_hz=1.0), "design needs 237595 taps, cap is 4097"),
            (dict(stopband_atten_db=5.0), "too small for the Kaiser formula"),
            (dict(stopband_atten_db=1e308), "needs over 4097 taps"),
            (dict(transition_hz=1e-320), "needs over 4097 taps"),
            (dict(sample_rate_hz=1e308, symbol_rate_hz=1e-300), "integer multiple"),
            (dict(n_samples=1 << 21), "n_samples must be at most 1048576"),
            (dict(n_samples=1 << 62), "n_samples must be at most 1048576"),
            (dict(cutoff_hz=30000.0, transition_hz=4000.0), "below half the sample rate"),
        ],
    )
    def test_invalid_config_names_the_invariant(self, overrides, fragment):
        cfg = ScenarioConfig(**overrides)
        with pytest.raises(ValueError, match=fragment):
            cfg.validate()

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_carrier_below_the_symbol_rate_is_left_to_the_chain(self, scenario):
        # validate() checks no band: at f_c 256 Hz, a quarter of the symbol
        # rate, the modulators that keep a band on its side of DC reject the
        # run, and the chains that move one band anywhere reach a verdict
        cfg = ScenarioConfig(scenario=scenario, n_samples=4096, f_c_hz=256.0)
        cfg.validate()
        if scenario in ("fig4", "fig5", "fig7", "fig10", "compare"):
            with pytest.raises(ValueError, match="does not fit a band .* on its side of DC"):
                execute_scenario(cfg)
        else:
            report, _ = execute_scenario(cfg)
            assert report.verdicts

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_carrier_at_half_the_rate_is_left_to_the_chain(self, scenario):
        # the carrier at fs/2 above, with a low-pass narrow enough for
        # validate(): a band move's guard rejects it, or, where the carrier
        # moves no baseband, the oscillator's
        cfg = ScenarioConfig(
            scenario=scenario,
            n_samples=4096,
            f_c_hz=32768.0,
            symbol_rate_hz=8192.0,
            cutoff_hz=4096.0,
            transition_hz=1024.0,
        )
        cfg.validate()
        if scenario in ("group_laws", "polarization"):
            expected = "carrier frequency .* violates the Nyquist limit"
        else:
            expected = "band move by .* past the Nyquist limit"
        with pytest.raises(ValueError, match=expected):
            execute_scenario(cfg)

    def test_sample_ceiling_is_accepted(self):
        ScenarioConfig(n_samples=MAX_SAMPLES).validate()  # validation only; nothing runs

    def test_text_round_trip_preserves_digest(self):
        cfg = ScenarioConfig(scenario="fig7", seed=9)
        parsed = ScenarioConfig.from_mapping(parse_config_text(cfg.to_text()))
        assert parsed == cfg
        assert parsed.digest() == cfg.digest()

    def test_digest_tracks_content(self):
        assert ScenarioConfig(seed=1).digest() != ScenarioConfig(seed=2).digest()
        assert len(ScenarioConfig().digest()) == 16

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration key"):
            ScenarioConfig.from_mapping({"sample_rate": "8000"})

    def test_config_text_parsing(self):
        text = "# comment\nscenario = fig4\n\nseed = 7  # trailing comment\n"
        mapping = parse_config_text(text)
        assert mapping == {"scenario": "fig4", "seed": "7"}

    def test_malformed_config_line_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("scenario = fig4\nbogus line\n")

    def test_duplicate_config_key_rejected(self):
        with pytest.raises(ValueError, match="line 2 repeats key 'seed'"):
            parse_config_text("seed = 1\nseed = 2")


class TestScenarioRuns:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_scenario_passes_at_desk_scale(self, scenario):
        report, files = execute_scenario(small_config(scenario))
        failing = [v.name for v in report.verdicts if not v.passed]
        assert report.passed, f"failing checks: {failing}"
        assert report.scenario_id == scenario
        assert list(files) == [*report.artifacts, "report.txt"]

    def test_run_writes_declared_artifacts(self, tmp_path):
        # a run's directory is execute_scenario's table of files: each text
        # entry's bytes and each CSV as sigio formats it whole, nothing else
        for scenario in SCENARIOS:
            out = tmp_path / scenario
            report = run_scenario(small_config(scenario), out)
            _, files = execute_scenario(small_config(scenario))
            assert sorted(p.name for p in out.iterdir()) == sorted(files), scenario
            for name, (kind, data) in files.items():
                text = data if kind == "text" else sigio.csv_text(kind, data)
                assert (out / name).read_bytes() == text.encode(), (scenario, name)
            assert (out / "report.txt").read_text() == report.to_text()
            assert verify_run(out) == (True, []), scenario

    @pytest.mark.parametrize("name", ["spectrum_passband.csv", "filter_taps.csv", "report.txt"])
    def test_failed_run_removes_only_its_own_files(self, tmp_path, capsys, name):
        # fig5 writes config.txt and some of its CSVs before it meets the
        # directory, then removes them; a file it does not write stays
        (tmp_path / name).mkdir()
        (tmp_path / "notes.txt").write_text("kept\n")
        assert main(["run", "--scenario", "fig5", "--n-samples", "4096", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"output error: [Errno 21] Is a directory: '{tmp_path / name}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, "notes.txt"])
        assert (tmp_path / "notes.txt").read_text() == "kept\n"

    def test_spectrum_artifacts_parse(self, tmp_path):
        out = tmp_path / "fig6"
        report = run_scenario(small_config("fig6"), out)
        for name in report.artifacts:
            if name.startswith("spectrum"):
                cols = sigio.read_spectrum_csv(out / name)
                assert cols["freq_hz"].size == SMALL["n_samples"]

    def test_determinism_bytes(self, tmp_path):
        cfg = small_config("fig9")
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_scenario(cfg, a)
        run_scenario(small_config("fig9"), b)
        assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()
        for name in ("config.txt", "spectrum_baseband.csv", "signal_demodulated.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("scenario", ["group_laws", "fig5"])
    def test_cold_and_warm_shaping_memo_give_the_same_bytes(self, scenario, tmp_path):
        cfg = ScenarioConfig(scenario=scenario, n_samples=4096)
        signals._pulse_rows.cache_clear()
        run_scenario(cfg, tmp_path / "cold")
        hits = signals._pulse_rows.cache_info().hits
        run_scenario(cfg, tmp_path / "warm")
        assert signals._pulse_rows.cache_info().hits > hits
        names = sorted(p.name for p in (tmp_path / "cold").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "warm").iterdir())
        assert "report.txt" in names
        for name in names:
            assert (tmp_path / "cold" / name).read_bytes() == (tmp_path / "warm" / name).read_bytes(), name
        assert not signals._pulse_rows(cfg.samples_per_symbol, cfg.rolloff).flags.writeable

    def test_compare_chains_report(self):
        report, _ = execute_scenario(small_config("compare"))
        assert report.scenario_id == "compare"
        assert report.passed
        names = {v.name for v in report.verdicts}
        assert {"real_independent_streams", "dual_independent_streams"} <= names

    @pytest.mark.parametrize(
        "overrides", [pytest.param({}, id="default"), pytest.param(dict(constellation="qam16", seed=7), id="qam16")]
    )
    def test_compare_energies_equal_fig5_and_fig10(self, overrides):
        # compare writes no spectrum because its chains are fig5's and
        # fig10's; their energies say so, bit for bit
        metrics = {
            scenario: execute_scenario(ScenarioConfig(scenario=scenario, n_samples=4096, **overrides))[0].metrics
            for scenario in ("fig5", "fig10", "compare")
        }
        pairs = {
            "real_recovered": ("fig5", "recovered"),
            "real_tx": ("fig5", "passband"),
            "stream_a": ("fig5", "baseband"),
            "dual_tx": ("fig10", "dual"),
            "dual_recovered_a": ("fig10", "recovered_a"),
            "dual_recovered_b": ("fig10", "recovered_b"),
        }
        for name, (scenario, theirs) in pairs.items():
            assert metrics["compare"][f"energy.{name}"] == metrics[scenario][f"energy.{theirs}"], name

    def test_report_independent_of_blas_threads(self):
        # OpenBLAS splits long dot products and norms across threads, which
        # changes their rounding; 32768 samples give 16383-bin mirror spectra,
        # long enough to be split.  group_laws is left out: it sums nothing
        # that long, and takes longer than all the others together.
        scenarios = [s for s in SCENARIOS if s != "group_laws"]
        script = (
            "import hashlib\n"
            "from carrierlab import ScenarioConfig, execute_scenario, sigio\n"
            f"for scenario in {scenarios!r}:\n"
            "    report, files = execute_scenario(ScenarioConfig(scenario=scenario, n_samples=32768))\n"
            "    print(report.to_text())\n"
            "    for name, (kind, data) in files.items():\n"
            "        if kind == 'text':\n"
            "            chunks = [data.encode()]\n"
            "        else:\n"
            "            chunks = [c.tobytes() for c in sigio.SCHEMAS[kind].columns(data)]\n"
            "        print(name, hashlib.sha256(b''.join(chunks)).hexdigest())\n"
        )
        src = str(Path(carrierlab.__file__).parents[1])
        reports = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for threads in ("1", "2")
        ]
        assert reports[0].count("verdict: pass") == len(scenarios)
        assert reports[0] == reports[1]

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ValueError):
            execute_scenario(small_config("fig4", n_samples=1000))


class TestCompareWritesNoArtifact:
    # the six CSVs compare wrote before fig4, fig5 and fig10 became the only
    # writers of its chains' spectra and taps
    OLD_ARTIFACTS = (
        "spectrum_real_passband.csv",
        "spectrum_real_recovered.csv",
        "spectrum_dual.csv",
        "spectrum_dual_recovered_a.csv",
        "spectrum_dual_recovered_b.csv",
        "filter_taps.csv",
    )

    @pytest.fixture()
    def compare_run(self, tmp_path):
        run_scenario(ScenarioConfig(scenario="compare", n_samples=4096), tmp_path)
        return tmp_path

    def test_writes_config_and_report_only(self, compare_run, capsys):
        assert sorted(p.name for p in compare_run.iterdir()) == ["config.txt", "report.txt"]
        assert _verify_output(compare_run, capsys) == (0, ["verify: pass"])

    def test_run_with_the_old_artifact_lines_fails_verify(self, compare_run, capsys):
        path = compare_run / "report.txt"
        old = "".join(f"artifact: {name}\n" for name in self.OLD_ARTIFACTS)
        path.write_text(path.read_text().replace("artifact: config.txt\n", "artifact: config.txt\n" + old))
        code, lines = _verify_output(compare_run, capsys)
        assert code == 1
        assert lines[0].startswith("report.txt line 4: stored 'artifact: spectrum_real_passband.csv', recomputed "), lines
        assert lines[-1] == "verify: fail"


class TestVerdictEnvelope:
    """Boundary points of README's verdict envelope, at 4096 samples (unless
    a case sets ``n_samples``) and the default rates and seed.  A change
    that moves one updates that table."""

    @pytest.mark.parametrize(
        "scenario, overrides, failing",
        [
            *(pytest.param(scenario, {}, set(), id=scenario) for scenario in SCENARIOS),
            pytest.param("fig5", dict(rolloff=0.0), {"recovered_peak_rel_err"}, id="fig5-rolloff-0"),
            pytest.param("fig5", dict(stopband_atten_db=40.0), {"recovered_peak_rel_err"}, id="fig5-stopband-40dB"),
            # the dual chain demodulates without a band guard, so its other
            # band may wrap past fs/2 on the way to DC (to 25536 Hz from DC
            # at f_c 20000)
            *(
                pytest.param(scenario, overrides, set(), id=f"{scenario}-{name}")
                for scenario in ("fig10", "compare")
                for name, overrides in (
                    ("fs-32768", dict(sample_rate_hz=32768.0)),
                    ("fc-20000", dict(f_c_hz=20000.0)),
                )
            ),
            # the real chain at its widest baseband: moved to the carrier,
            # the band's DC-facing edge stays on the carrier's side of DC
            *(
                pytest.param(scenario, dict(n_samples=1024, rolloff=1.0), set(), id=f"{scenario}-1024-rolloff-1")
                for scenario in ("fig4", "fig5", "compare")
            ),
            # the largest guard both dual streams clear: stream B's lower
            # edge, -912 Hz, moved to 8192 Hz lies 7280 Hz from DC
            *(
                pytest.param(scenario, dict(guard_hz=7280.0), set(), id=f"{scenario}-guard-7280")
                for scenario in ("fig7", "fig10", "compare")
            ),
            # a stopband from 15000 + 1000/2 Hz stays below the other band's
            # inner edge, 16384 Hz less half the dual waveform's width; the
            # leak branch reuses that receiver, so stream A's lopsided extent
            # alone (2368 Hz wide at 4096 samples) is never checked
            *(
                pytest.param(
                    "fig10",
                    dict(n_samples=n, cutoff_hz=15000.0, transition_hz=1000.0),
                    set(),
                    id=f"fig10-{n}-cutoff-15000-transition-1000",
                )
                for n in (4096, 65536)
            ),
            # carriers below 4x the symbol rate and near fs/2, which the chains'
            # guards alone check; the carriers nearest DC that the real chain
            # (baseband's lower edge -1184 Hz) and the dual chain (stream B's,
            # -912 Hz, plus the 512 Hz guard) accept
            pytest.param("fig9", dict(f_c_hz=512.0), set(), id="fig9-fc-512"),
            pytest.param("fig6", dict(f_c_hz=512.0), {"l_fraction"}, id="fig6-fc-512"),
            pytest.param(
                "fig5", dict(f_c_hz=1280.0, rolloff=1.0), {"recovered_peak_rel_err"}, id="fig5-fc-1280-rolloff-1"
            ),
            pytest.param(
                "polarization",
                dict(f_c_hz=32767.0),
                {"handedness_r", "handedness_linear"},
                id="polarization-fc-32767",
            ),
            pytest.param("fig4", dict(f_c_hz=1184.0), set(), id="fig4-fc-1184"),
            pytest.param("fig10", dict(f_c_hz=1424.0), set(), id="fig10-fc-1424"),
            # a circular tone's band holds (1 + s^2)/(1 + 2 s^2) of the energy
            # under noise s per component and (1 - c)^2/((1 - c)^2 + c^2)
            # under crosstalk c: above the 0.9 threshold up to s = sqrt(1/8)
            # and c = 1/4
            *(
                pytest.param("polarization", {axis: value}, failing, id=f"polarization-{axis}-{value}")
                for axis, value, failing in (
                    ("noise_sigma", 0.34, set()),
                    ("noise_sigma", 0.37, {"handedness_r", "handedness_l"}),
                    ("crosstalk", 0.24, set()),
                    ("crosstalk", 0.26, {"handedness_r", "handedness_l"}),
                )
            ),
        ],
    )
    def test_failing_verdicts(self, scenario, overrides, failing):
        report, _ = execute_scenario(ScenarioConfig(**{"scenario": scenario, "n_samples": 4096, **overrides}))
        assert {v.name for v in report.verdicts if not v.passed} == failing

    @pytest.mark.parametrize("scenario", ["fig5", "fig10", "compare"])
    def test_wrapped_other_band_in_the_passband_is_rejected(self, scenario):
        # at f_c 24000 the other band wraps to 65536 - 48000 = 17536 Hz from
        # DC, inside the default 18000 Hz passband
        cfg = ScenarioConfig(scenario=scenario, n_samples=4096, f_c_hz=24000.0)
        cfg.validate()  # accepted; the demodulation rejects it
        with pytest.raises(ValueError, match="cannot isolate one band .* 17536.0 Hz away"):
            execute_scenario(cfg)

    @pytest.mark.parametrize(
        "scenario, overrides, expected",
        [
            *(
                pytest.param(scenario, dict(guard_hz=7280.5), r"stream_b occupying \[-912.0, 944.0\] Hz", id=scenario)
                for scenario in ("fig7", "fig10", "compare")
            ),
            # carriers too near DC for the guard, 0 Hz in the real chain
            pytest.param("fig4", dict(f_c_hz=1183.0), r"baseband occupying \[-1184.0, 592.0\] Hz", id="fig4-fc-1183"),
            pytest.param("fig10", dict(f_c_hz=1024.0), r"stream_a occupying \[-1184.0, 592.0\] Hz", id="fig10-fc-1024"),
            pytest.param("fig10", dict(f_c_hz=1423.0), r"stream_b occupying \[-912.0, 944.0\] Hz", id="fig10-fc-1423"),
        ],
    )
    def test_guard_past_a_streams_dc_facing_edge_is_rejected(self, scenario, overrides, expected):
        cfg = ScenarioConfig(scenario=scenario, n_samples=4096, **overrides)
        cfg.validate()  # accepted; the modulation rejects it
        with pytest.raises(ValueError, match=expected + " does not fit a band"):
            execute_scenario(cfg)

    def test_band_a_trial_moves_past_half_the_rate_is_rejected(self):
        # at two samples per symbol the baseband is as wide as the rate allows,
        # and one of group_laws' random moves pushes it past fs/2
        cfg = ScenarioConfig(scenario="group_laws", n_samples=4096, symbol_rate_hz=32768.0)
        cfg.validate()  # accepted; the trial's band move rejects it
        with pytest.raises(
            ValueError, match=r"band move by 7145.0 Hz would push content occupying \[-10176.0, 26336.0\] Hz past"
        ):
            execute_scenario(cfg)

    def test_carrier_at_a_quarter_of_the_rate_is_rejected(self, monkeypatch):
        # group_laws' sign-flip carrier sits at fs/2: rejected before the
        # first of its band-move trials
        cfg = ScenarioConfig(scenario="group_laws", n_samples=4096, sample_rate_hz=32768.0)
        cfg.validate()  # accepted; the chain's own guard rejects it
        monkeypatch.setattr(scenarios, "_make_baseband", lambda *args: pytest.fail("a trial ran"))
        with pytest.raises(ValueError, match="carrier frequency .* violates the Nyquist limit"):
            execute_scenario(cfg)


class TestVerifyRun:
    @pytest.fixture()
    def fig9_run(self, tmp_path):
        out = tmp_path / "run"
        run_scenario(small_config("fig9"), out)
        return out

    def test_fresh_run_verifies(self, fig9_run):
        ok, messages = verify_run(fig9_run)
        assert ok, messages

    def test_missing_artifact_detected(self, fig9_run):
        (fig9_run / "spectrum_baseband.csv").unlink()
        ok, messages = verify_run(fig9_run)
        assert not ok
        assert any("missing artifact" in m for m in messages)

    def test_corrupt_artifact_detected(self, fig9_run):
        (fig9_run / "spectrum_modulated.csv").write_text("freq_hz,re\n0,0\n")
        ok, messages = verify_run(fig9_run)
        assert not ok
        assert any("spectrum_modulated.csv line 1: stored 'freq_hz,re'" in m for m in messages)

    # fig9's report.txt: scenario, digest, four artifacts, three energies
    # (lines 7-9), three checks (lines 10-12) and the verdict line
    @pytest.mark.parametrize(
        "name, pattern, replacement, expected",
        [
            pytest.param(
                "report.txt", r"^round_trip_max_err_l: \S+", "round_trip_max_err_l: 0.5",
                "report.txt line 10: stored 'round_trip_max_err_l: 0.5 / < 1e-12 / pass'", id="measured",
            ),
            pytest.param(
                "report.txt", r"^energy\.modulated: .*", "energy.modulated: 0.5",
                "report.txt line 8: stored 'energy.modulated: 0.5'", id="metric",
            ),
            pytest.param(
                "report.txt", r"^energy\.modulated: ", "energy.modulated: +",
                "report.txt line 8: stored 'energy.modulated: +", id="respelled",
            ),
            pytest.param(
                "report.txt", r"< 1e-12", "< 1000.0",
                "report.txt line 10: stored 'round_trip_max_err_l: ", id="threshold",
            ),
            pytest.param(
                "report.txt", r"^scenario: fig9", "scenario: fig6",
                "report.txt line 1: stored 'scenario: fig6', recomputed 'scenario: fig9'", id="scenario",
            ),
            pytest.param(
                "report.txt", r"^energy\.demodulated: .*\n", "",
                "report.txt line 9: stored 'round_trip_max_err_l: ", id="deleted",
            ),
            pytest.param(
                "report.txt", r"\Z", "energy.extra: 1.0\n",
                "report.txt line 14: stored 'energy.extra: 1.0', recomputed nothing", id="appended",
            ),
            pytest.param(
                "report.txt", r"^(energy\.baseband: .*)\n(energy\.modulated: .*)", r"\2\n\1",
                "report.txt line 7: stored 'energy.modulated: ", id="swapped",
            ),
            pytest.param(
                "config.txt", r"\Z", "# edited\n",
                "config.txt line 17: stored '# edited', recomputed nothing", id="config-comment",
            ),
            # a value respelled as the same double: loadtxt strips the
            # whitespace and the "+", but run never writes them
            pytest.param(
                "spectrum_baseband.csv", r"^(-?\d[^,\n]*),", r"\1, ",
                "spectrum_baseband.csv line 2: stored ", id="csv-space",
            ),
            pytest.param(
                "signal_demodulated.csv", r"^(0,.*)$", "\\1\t",
                "signal_demodulated.csv line 2: stored ", id="csv-tab",
            ),
            pytest.param(
                "signal_demodulated.csv", r"^1,", "+1,",
                "signal_demodulated.csv line 3: stored '+1,", id="csv-leading-plus",
            ),
        ],
    )
    def test_tampered_measurement_detected(self, fig9_run, name, pattern, replacement, expected):
        # each edit leaves the file readable, but no longer what a fresh run writes
        path = fig9_run / name
        text = path.read_text()
        edited = re.sub(pattern, replacement, text, count=1, flags=re.MULTILINE)
        assert edited != text
        path.write_text(edited)
        ok, messages = verify_run(fig9_run)
        assert not ok
        assert any(m.startswith(expected) for m in messages), messages

    def test_messages_follow_the_order_of_the_files(self, fig9_run):
        # the text files first, in the order run writes them (config.txt,
        # then report.txt), then each CSV, then the file no run writes
        with open(fig9_run / "config.txt", "a") as f:
            f.write("# edited\n")
        report = fig9_run / "report.txt"
        report.write_text(report.read_text().replace("scenario: fig9", "scenario: fig6"))
        (fig9_run / "spectrum_modulated.csv").unlink()
        (fig9_run / "notes.txt").write_text("")
        ok, messages = verify_run(fig9_run)
        assert not ok
        assert messages == [
            "config.txt line 17: stored '# edited', recomputed nothing",
            "report.txt line 1: stored 'scenario: fig6', recomputed 'scenario: fig9'",
            "missing artifact: spectrum_modulated.csv",
            "undeclared file: notes.txt",
        ]

    def test_undecodable_report_detected(self, fig9_run):
        with open(fig9_run / "report.txt", "ab") as f:
            f.write(b"\xff\n")
        ok, messages = verify_run(fig9_run)
        assert not ok
        assert "report.txt line 14: stored '\ufffd', recomputed nothing" in messages

    @pytest.mark.parametrize(
        "name, expected",
        [
            pytest.param("report.txt", "artifact report.txt unreadable: ", id="report.txt"),
            pytest.param("config.txt", "artifact config.txt unreadable: ", id="config.txt"),
            pytest.param(
                "spectrum_baseband.csv", "artifact spectrum_baseband.csv unreadable: ", id="spectrum_baseband.csv"
            ),
        ],
    )
    def test_unreadable_file_named(self, fig9_run, capsys, name, expected):
        (fig9_run / name).unlink()
        (fig9_run / name).mkdir()
        assert main(["verify", "--out", str(fig9_run)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and lines[0].startswith(expected + "[Errno "), lines
        assert lines[1] == "verify: fail"

    def test_run_in_the_older_schema_fails_verify(self, fig9_run):
        # the five- and four-column tables runs wrote before magnitude, energy
        # and t_s were dropped; verify names each such CSV by its header line
        older = {
            "spectrum": (
                "freq_hz,re,im,magnitude,energy",
                lambda sp: (sp.freq_axis_hz, sp.bins.real, sp.bins.imag, np.abs(sp.bins), sp.bin_energies()),
            ),
            "signal": (
                "index,t_s,re,im",
                lambda s: (np.arange(s.n), np.arange(s.n) / s.sample_rate_hz, s.samples.real, s.samples.imag),
            ),
        }
        _, files = execute_scenario(small_config("fig9"))
        expected = []
        for name, (kind, data) in files.items():
            if kind == "text":
                continue
            header, columns = older[kind]
            rows = zip(*(col.tolist() for col in columns(data)))
            (fig9_run / name).write_text(header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
            expected.append(f"{name} line 1: stored {header!r}, recomputed {sigio.SCHEMAS[kind].header!r}")
        ok, messages = verify_run(fig9_run)
        assert not ok
        assert messages == expected

    def test_tampered_config_detected(self, fig9_run):
        config_path = fig9_run / "config.txt"
        config_path.write_text(config_path.read_text().replace("seed = 42", "seed = 43"))
        ok, messages = verify_run(fig9_run)
        assert not ok

    def test_empty_directory_names_its_config(self, tmp_path):
        # config.txt is the one file read before the run is re-executed
        ok, messages = verify_run(tmp_path)
        assert not ok
        assert messages == ["missing artifact: config.txt"]

    def test_missing_report_detected(self, fig9_run):
        (fig9_run / "report.txt").unlink()
        ok, messages = verify_run(fig9_run)
        assert not ok
        assert messages == ["missing artifact: report.txt"]

    def test_missing_report_does_not_end_the_check(self, fig9_run):
        # report.txt's message comes in its place, before those of the CSVs
        (fig9_run / "report.txt").unlink()
        path = fig9_run / "spectrum_baseband.csv"
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[1] = repr(float(cells[1]) + 1.0)
        lines[1] = ",".join(cells)
        path.write_text("".join(lines))
        ok, messages = verify_run(fig9_run)
        assert not ok
        assert messages[0] == "missing artifact: report.txt"
        assert messages[1].startswith(f"spectrum_baseband.csv line 2: stored {lines[1][:-1]!r}, recomputed "), messages
        assert len(messages) == 2, messages

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_untouched_run_verifies(self, tmp_path, scenario):
        run_scenario(small_config(scenario), tmp_path)
        ok, messages = verify_run(tmp_path)
        assert ok, messages

    @pytest.mark.parametrize(
        "scenario, name, cell",
        [
            pytest.param("fig9", "spectrum_modulated.csv", -1, id="fig9-spectrum_modulated.csv"),
            pytest.param("fig9", "signal_demodulated.csv", -1, id="fig9-signal_demodulated.csv"),
            pytest.param("fig5", "filter_taps.csv", -1, id="fig5-filter_taps.csv"),
            pytest.param("fig5", "filter_taps.csv", 0, id="fig5-filter_taps.csv-k"),
            pytest.param("polarization", "pair_transmitted_r.csv", -1, id="polarization-pair_transmitted_r.csv"),
        ],
    )
    def test_edited_artifact_value_detected(self, tmp_path, scenario, name, cell):
        run_scenario(small_config(scenario), tmp_path)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        cells = lines[37].split(",")  # data row 37; line 0 is the header
        cells[cell] = repr(float(cells[cell]) + 1.0)
        lines[37] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        ok, messages = verify_run(tmp_path)
        assert not ok
        assert any(m.startswith(f"{name} line 38: stored {lines[37]!r}, recomputed ") for m in messages), messages

    def test_truncated_artifact_detected(self, fig9_run):
        path = fig9_run / "signal_demodulated.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        ok, messages = verify_run(fig9_run)
        assert not ok
        assert any(m.startswith("signal_demodulated.csv line 8193: stored nothing, recomputed ") for m in messages), messages

    def test_files_a_fresh_run_does_not_write_are_named(self, tmp_path, capsys):
        # fig6 writes fig9's spectrum_baseband.csv and spectrum_modulated.csv
        # over them, its own report and config, and leaves fig9's signal dump
        for scenario in ("fig9", "fig6"):
            run_scenario(ScenarioConfig(scenario=scenario, n_samples=4096), tmp_path)
        code, printed = _verify_output(tmp_path, capsys)
        assert code == 1
        assert printed == [
            "undeclared file: signal_demodulated.csv",
            "verify: fail",
        ]

    def test_stored_config_that_does_not_validate(self, tmp_path, capsys):
        run_scenario(ScenarioConfig(scenario="fig9", n_samples=4096), tmp_path)
        path = tmp_path / "config.txt"
        text = path.read_text()
        assert "n_samples = 4096\n" in text
        path.write_text(text.replace("n_samples = 4096\n", "n_samples = 4000\n"))
        code, printed = _verify_output(tmp_path, capsys)
        assert code == 1
        assert printed == ["stored configuration does not execute: n_samples must be a power of two", "verify: fail"]

    def test_artifact_cut_to_its_header(self, tmp_path, capsys):
        run_scenario(ScenarioConfig(scenario="fig9", n_samples=4096), tmp_path)
        path = tmp_path / "signal_demodulated.csv"
        path.write_text(path.read_text().splitlines(keepends=True)[0])
        code, printed = _verify_output(tmp_path, capsys)
        assert code == 1
        assert printed == [
            "signal_demodulated.csv line 2: stored nothing, recomputed '0,1.0,-3.294516363338534e-17'",
            "verify: fail",
        ]

    def test_undeclared_artifact_detected(self, fig9_run):
        report_path = fig9_run / "report.txt"
        text = report_path.read_text().replace("artifact: spectrum_baseband.csv\n", "")
        report_path.write_text(text)
        ok, messages = verify_run(fig9_run)
        assert not ok
        assert messages[0] == (
            "report.txt line 4: stored 'artifact: spectrum_modulated.csv', "
            "recomputed 'artifact: spectrum_baseband.csv'"
        ), messages

    def test_failing_scan_holds_no_line_lists(self, tmp_path):
        # a failing verify of a 2^20-sample run compares texts of 2^20 lines;
        # the stored file is read and the fresh one formatted a line or a
        # block at a time, so the peak is far below one copy of either text
        rng = np.random.default_rng(3)
        n = 1 << 17
        table = signals.ComplexSignal(rng.standard_normal(n) + 1j * rng.standard_normal(n), 1.0)
        fresh = sigio.csv_text("signal", table)
        last = fresh.rindex(",") + 1
        path = tmp_path / "signal.csv"
        path.write_text(fresh[:last] + "1" + fresh[last:])
        stored = path.stat().st_size
        del fresh
        tracemalloc.start()
        try:
            message = scenarios._text_divergence(path, sigio.csv_blocks("signal", table))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert message.startswith(f"signal.csv line {n + 1}: stored '{n - 1},"), message
        assert peak < stored // 4, (peak, stored)

    @pytest.fixture()
    def fig9_failing_csv(self, tmp_path, no_idle_cpu):
        """A fig9 run at 2^14 samples, with the helper off, and its
        ``signal_demodulated.csv``'s path and bytes, one line per row."""
        run_scenario(ScenarioConfig(scenario="fig9", n_samples=1 << 14), tmp_path)
        path = tmp_path / "signal_demodulated.csv"
        return tmp_path, path, path.read_bytes()

    def test_failing_verify_holds_no_copy_of_the_file(self, fig9_failing_csv):
        # one digit added to the last line: the comparison of the failing CSV
        # adds less than a quarter of the file to the peak of an intact verify
        out, path, data = fig9_failing_csv

        def peak() -> tuple[int, list[str]]:
            tracemalloc.start()
            try:
                ok, messages = verify_run(out)
                return tracemalloc.get_traced_memory()[1], messages
            finally:
                tracemalloc.stop()

        intact, messages = peak()
        assert messages == []
        last = data.rindex(b",") + 1
        path.write_bytes(data[:last] + b"1" + data[last:])
        failing, messages = peak()
        assert messages[0].startswith(f"{path.name} line {(1 << 14) + 1}: stored "), messages
        assert failing - intact < len(data) / 4, (failing, intact, len(data))

    def test_failing_csv_formatted_only_to_its_first_differing_line(self, fig9_failing_csv, monkeypatch):
        # one byte of line 3 changed: of the 2^14 rows, the fallback formats
        # the block that holds it and at most one more
        out, path, data = fig9_failing_csv
        third = data.index(b"\n", data.index(b"\n") + 1) + 1
        path.write_bytes(data[:third] + b"9" + data[third + 1 :])
        rows = []
        blocks = sigio.csv_blocks

        def counting(kind, data, lo=0, hi=None):
            for piece in blocks(kind, data, lo, hi):
                rows.append(piece.count("\n") - piece.startswith(sigio.SCHEMAS[kind].header))
                yield piece

        monkeypatch.setattr(sigio, "csv_blocks", counting)
        ok, messages = verify_run(out)
        assert not ok and messages[0].startswith(f"{path.name} line 3: stored '9"), messages
        assert 0 < sum(rows) <= 2 * sigio.BLOCK_ROWS, rows


def _verify_output(out, capsys):
    """Exit code and printed lines of ``carrierlab verify --out out``."""
    code = main(["verify", "--out", str(out)])
    return code, capsys.readouterr().out.splitlines()


def _blank_line_at_row(data: bytes, row: int) -> bytes:
    """``data`` with an empty line inserted as data row ``row`` (1-based)."""
    lines = data.split(b"\n")
    lines.insert(row, b"")
    return b"\n".join(lines)


def _whole_file_edits(name: str, first: str, second: str, end: int) -> list:
    """``test_line_endings_edited``'s cases that edit file ``name`` of a fig9
    run as a whole, where ``first`` and ``second`` are its first two lines
    and line ``end`` the one after its last."""

    def all_cr(data: bytes) -> str:
        # no "\n" is left, so the whole file is its one line
        stored = data.replace(b"\n", b"\r").decode()
        return f"{name} line 1: stored {stored!r}, recomputed {first!r}"

    cases = {
        "emptied": (lambda data: b"", f"{name} line 1: stored '', recomputed {first!r}"),
        "lone-newline": (lambda data: b"\n", f"{name} line 1: stored '', recomputed {first!r}"),
        "all-cr": (lambda data: data.replace(b"\n", b"\r"), all_cr),
        "invalid-utf8-appended": (
            lambda data: data + b"\xff\xfe\n",
            f"{name} line {end}: stored '\ufffd\ufffd', recomputed nothing",
        ),
        "cut-to-header": (
            lambda data: data[: data.index(b"\n") + 1],
            f"{name} line 2: stored nothing, recomputed {second!r}",
        ),
    }
    return [pytest.param(name, edit, expected, id=f"{how}-{name}") for how, (edit, expected) in cases.items()]


@pytest.fixture(scope="module")
def edit_runs(tmp_path_factory):
    """A fig9 and a polarization run at 4096 samples, each as its directory
    and its CSVs' kinds by name, in name order; a test that edits a file
    puts its bytes back."""
    runs = {}
    for scenario in ("fig9", "polarization"):
        out = tmp_path_factory.mktemp(scenario)
        run_scenario(ScenarioConfig(scenario=scenario, n_samples=4096), out)
        _, files = execute_scenario(ScenarioConfig(scenario=scenario, n_samples=4096))
        runs[scenario] = out, {name: kind for name, (kind, _) in sorted(files.items()) if kind != "text"}
    return runs


class TestVerifyIsExact:
    """Changes far below any 1e-9 band, each caught by verify."""

    def test_small_values_written_over_a_spectrum(self, tmp_path, capsys):
        name = "spectrum_tone_after.csv"
        run_scenario(ScenarioConfig(scenario="group_laws", n_samples=4096), tmp_path)
        path = tmp_path / name
        fresh = sigio.read_spectrum_csv(path)["re"]
        peak = int(np.argmax(np.abs(fresh)))
        header, *rows = path.read_text().splitlines()
        for i, row in enumerate(rows):
            if i != peak:
                freq, _, im = row.split(",")
                rows[i] = f"{freq},1e-06,{im}"
        path.write_text("\n".join([header, *rows]) + "\n")
        code, lines = _verify_output(tmp_path, capsys)
        assert code == 1
        freq, _, im = rows[0].split(",")
        assert lines == [
            f"{name} line 2: stored '{freq},1e-06,{im}', recomputed '{freq},{sigio.fmt(fresh[0])},{im}'",
            "verify: fail",
        ]

    def test_one_value_scaled_by_1e_11(self, tmp_path, capsys):
        name = "signal_demodulated.csv"
        run_scenario(small_config("fig9"), tmp_path)
        path = tmp_path / name
        fresh = sigio.read_signal_csv(path)["re"]
        lines = path.read_text().splitlines()
        cells = lines[37].split(",")  # data row 37; line 0 is the header
        stored = float(cells[1]) * (1 + 1e-11)
        assert stored != fresh[36]
        cells[1] = repr(stored)
        lines[37] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        code, printed = _verify_output(tmp_path, capsys)
        assert code == 1
        assert printed == [
            f"{name} line 38: stored {lines[37]!r}, recomputed '{cells[0]},{sigio.fmt(fresh[36])},{cells[2]}'",
            "verify: fail",
        ]

    def test_report_metric_scaled_by_1e_12(self, tmp_path, capsys):
        run_scenario(small_config("fig9"), tmp_path)
        path = tmp_path / "report.txt"
        text = path.read_text()
        line = re.search(r"^energy\.modulated: (\S+)$", text, flags=re.MULTILINE)
        stored = f"energy.modulated: {float(line[1]) * (1 + 1e-12)!r}"
        assert stored != line[0]
        path.write_text(text.replace(line[0], stored))
        code, printed = _verify_output(tmp_path, capsys)
        assert code == 1
        # fig9's report: the three energies are lines 7-9
        assert printed == [f"report.txt line 8: stored {stored!r}, recomputed {line[0]!r}", "verify: fail"]

    @pytest.mark.parametrize(
        "name, edit, expected",
        [
            pytest.param(
                "report.txt", lambda data: data.removesuffix(b"\n"),
                "report.txt matches line for line, but its line endings or final newline differ",
                id="report-without-final-newline",
            ),
            pytest.param(
                "config.txt", lambda data: data.replace(b"\n", b"\r\n"),
                "config.txt matches line for line, but its line endings or final newline differ",
                id="config-with-crlf",
            ),
            pytest.param(
                "spectrum_baseband.csv", lambda data: data.replace(b"\n", b"\r\n"),
                "spectrum_baseband.csv matches line for line, but its line endings or final newline differ",
                id="csv-with-crlf",
            ),
            pytest.param(
                "signal_demodulated.csv", lambda data: data.removesuffix(b"\n"),
                "signal_demodulated.csv matches line for line, but its line endings or final newline differ",
                id="csv-without-final-newline",
            ),
            pytest.param(
                "spectrum_modulated.csv", lambda data: _blank_line_at_row(data, 101),
                "spectrum_modulated.csv line 102: stored '', "
                "recomputed '-31168.0,0.4983359335222344,0.2639538217604035'",
                id="csv-with-blank-line",
            ),
            *_whole_file_edits("report.txt", "scenario: fig9", "config_digest: b774d51b5411f3f0", 14),
            *_whole_file_edits(
                "spectrum_baseband.csv", "freq_hz,re,im", "-32768.0,0.49943794608205394,0.00856202109247306", 4098
            ),
            pytest.param(
                "report.txt", lambda data: data[: len(data) // 2],
                "report.txt line 8: stored 'energy.modulated: 0.0581476195', "
                "recomputed 'energy.modulated: 0.05814761952875417'",
                id="cut-mid-line-report.txt",
            ),
            pytest.param(
                "spectrum_baseband.csv", lambda data: data[: len(data) // 2],
                "spectrum_baseband.csv line 2050: stored '0.0,-222.64407367111696', "
                "recomputed '0.0,-222.64407367111696,-332.5982593066255'",
                id="cut-mid-line-spectrum_baseband.csv",
            ),
        ],
    )
    def test_line_endings_edited(self, tmp_path, capsys, name, edit, expected):
        # also the edits of a whole file, where the empty file is one empty line
        run_scenario(ScenarioConfig(scenario="fig9", n_samples=4096), tmp_path)
        path = tmp_path / name
        data = path.read_bytes()
        path.write_bytes(edit(data))
        code, printed = _verify_output(tmp_path, capsys)
        assert code == 1
        assert printed == [expected(data) if callable(expected) else expected, "verify: fail"]

    @pytest.mark.parametrize(
        "scenario, name, pattern, replacement, expected",
        [
            pytest.param(
                "polarization", "spectrum_received_l.csv", r"^0\.0,", "-0.0,",
                "line 2050: stored '-0.0,1.6498352895596602,3.8836390072470177', "
                "recomputed '0.0,1.6498352895596602,3.8836390072470177'",
                id="polarization-dc-frequency",
            ),
            pytest.param(
                "fig9", "signal_demodulated.csv", r"^0,", "-0,",
                "line 2: stored '-0,1.0,-3.294516363338534e-17', recomputed '0,1.0,-3.294516363338534e-17'",
                id="fig9-index",
            ),
        ],
    )
    def test_signed_zero_respelled(self, tmp_path, capsys, scenario, name, pattern, replacement, expected):
        # -0.0 parses to another double than 0.0: equal under ==, not bit for bit
        run_scenario(ScenarioConfig(scenario=scenario, n_samples=4096), tmp_path)
        path = tmp_path / name
        text = path.read_text()
        edited = re.sub(pattern, replacement, text, flags=re.MULTILINE)
        assert edited.count("\n-0") == 1
        path.write_text(edited)
        code, printed = _verify_output(tmp_path, capsys)
        assert code == 1
        assert printed == [f"{name} {expected}", "verify: fail"]

    @pytest.mark.parametrize(
        "rows, expected",
        [
            pytest.param(
                {5: "nan", 9: "5.0"},
                lambda fresh: (
                    f"line 6: stored '4,nan,{sigio.fmt(fresh['im'][4])}', "
                    f"recomputed '4,{sigio.fmt(fresh['re'][4])},{sigio.fmt(fresh['im'][4])}'"
                ),
                id="nan-beside-a-real-difference",
            ),
            pytest.param(
                {5: "inf", 9: "-inf"},
                lambda fresh: (
                    f"line 6: stored '4,inf,{sigio.fmt(fresh['im'][4])}', "
                    f"recomputed '4,{sigio.fmt(fresh['re'][4])},{sigio.fmt(fresh['im'][4])}'"
                ),
                id="only-infinities",
            ),
            pytest.param(
                {1: "-0", 5: "nan"},
                lambda fresh: (
                    f"line 2: stored '-0,{sigio.fmt(fresh['re'][0])},{sigio.fmt(fresh['im'][0])}', "
                    f"recomputed '0,{sigio.fmt(fresh['re'][0])},{sigio.fmt(fresh['im'][0])}'"
                ),
                id="nan-beside-a-signed-zero",
            ),
        ],
    )
    def test_stored_values_that_are_not_finite(self, tmp_path, capsys, rows, expected):
        # a stored nan or inf differs from every fresh value, which is finite;
        # its line is named like any other
        name = "signal_demodulated.csv"
        run_scenario(ScenarioConfig(scenario="fig9", n_samples=4096), tmp_path)
        path = tmp_path / name
        fresh = sigio.read_signal_csv(path)
        lines = path.read_text().splitlines()
        for row, value in rows.items():
            cells = lines[row].split(",")  # line 0 is the header
            cells[0 if value == "-0" else 1] = value
            lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        code, printed = _verify_output(tmp_path, capsys)
        assert code == 1
        assert printed == [f"{name} {expected(fresh)}", "verify: fail"]

    # CARRIERLAB_FUZZ_EXAMPLES=N draws N edits instead of hypothesis's default 100
    @settings(max_examples=int(os.environ.get("CARRIERLAB_FUZZ_EXAMPLES") or 100))
    @given(
        scenario=st.sampled_from(["fig9", "polarization"]),
        file=st.integers(0, 2),
        how=st.sampled_from(["swap", "insert", "delete"]),
        line=st.integers(0, 4097),
        col=st.integers(0, 64),
        byte=st.sampled_from(b"0123456789.-e,\n\r\x0c +") | st.integers(0, 255),
    )
    # a form feed, a "\r" or a "\n" inserted before a "\n", a "\n" swapped
    # for a "\r", the final newline deleted, and a "\n" or a digit appended
    @example(scenario="fig9", file=0, how="insert", line=1, col=64, byte=0x0C)
    @example(scenario="fig9", file=0, how="insert", line=0, col=64, byte=0x0A)
    @example(scenario="fig9", file=1, how="insert", line=7, col=64, byte=0x0D)
    @example(scenario="polarization", file=0, how="swap", line=5, col=64, byte=0x0D)
    @example(scenario="polarization", file=2, how="delete", line=4096, col=64, byte=0)
    @example(scenario="fig9", file=2, how="insert", line=4097, col=0, byte=0x0A)
    @example(scenario="fig9", file=2, how="insert", line=4097, col=0, byte=0x30)
    def test_one_byte_edit_named_by_its_line(self, edit_runs, scenario, file, how, line, col, byte):
        # one byte swapped, inserted or deleted at offset p, column ``col``
        # of line ``line`` (0 is the header) or its end: verify passes
        # exactly when the edited file parses to the same bits, and else
        # names the line holding p, or says that only line endings differ
        out, kinds = edit_runs[scenario]
        name, kind = list(kinds.items())[file]
        path = out / name
        original = path.read_bytes()
        lines = original.split(b"\n")
        start = sum(len(text) + 1 for text in lines[:line])
        p = min(start + min(col, len(lines[line])), len(original) - (how != "insert"))
        edited = original[:p] + (b"" if how == "delete" else bytes([byte])) + original[p + (how != "insert") :]
        read = getattr(sigio, f"read_{kind}_csv")
        want = [values.tobytes() for values in read(path).values()]
        try:
            path.write_bytes(edited)
            ok, messages = verify_run(out)
            try:
                same = [values.tobytes() for values in read(path).values()] == want
            except ValueError:
                same = False
        finally:
            path.write_bytes(original)
        if same:
            assert ok and messages == [], messages
        else:
            # a "\n" inserted before a "\n" leaves its line as it was and adds
            # an empty line after it
            at = edited[:p].count(b"\n") + 1 + (how == "insert" and edited[p : p + 2] == b"\n\n")
            assert not ok and len(messages) == 1, messages
            assert messages[0].startswith(f"{name} line {at}: stored ") or messages[0] == (
                f"{name} matches line for line, but its line endings or final newline differ"
            ), messages

    def test_runs_verify_in_a_new_process_with_other_blas_threads(self, tmp_path):
        # each run is written with one BLAS thread and verified, cold, with two
        src = str(Path(carrierlab.__file__).parents[1])
        for scenario in ("group_laws", "fig10", "compare"):
            out = str(tmp_path / scenario)
            for threads, args in (
                ("1", ["run", "--scenario", scenario, "--n-samples", "4096", "--out", out]),
                ("2", ["verify", "--out", out]),
            ):
                done = subprocess.run(
                    [sys.executable, "-m", "carrierlab.cli", *args],
                    env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src},
                    capture_output=True,
                    text=True,
                )
                assert done.returncode == 0, (scenario, args[0], done.stdout, done.stderr)


def _recipe_dft(re_: np.ndarray, im: np.ndarray) -> np.ndarray:
    """README's rebuild of a dropped spectrum's bins from a dump's two value
    columns."""
    return np.fft.fftshift(np.fft.fft(re_ + 1j * im))


class TestDroppedColumns:
    """The README's formulas rebuild the columns that artifacts no longer
    write, and the spectra that runs no longer write, from a dump and the
    run's config.txt, bit for bit."""

    RATES = [
        pytest.param({}, id="65536Hz"),
        pytest.param(
            dict(sample_rate_hz=48000.0, symbol_rate_hz=750.0, f_c_hz=6000.0, guard_hz=375.0), id="48000Hz"
        ),
    ]

    @pytest.mark.parametrize("overrides", RATES)
    def test_rebuilt_bitwise(self, tmp_path, overrides):
        cfg = ScenarioConfig(scenario="fig9", n_samples=4096, **overrides)
        run_scenario(cfg, tmp_path)
        stored = parse_config_text((tmp_path / "config.txt").read_text())
        n_samples, sample_rate_hz = int(stored["n_samples"]), float(stored["sample_rate_hz"])
        _, artifacts = execute_scenario(cfg)
        assert {"spectrum", "signal"} <= {kind for kind, _ in artifacts.values()}
        for name, (kind, data) in artifacts.items():
            if kind == "spectrum":
                cols = sigio.read_spectrum_csv(tmp_path / name)
                re_, im = cols["re"], cols["im"]
                assert np.abs(re_ + 1j * im).tobytes() == np.abs(data.bins).tobytes(), name
                energy = (re_**2 + im**2) / (n_samples * sample_rate_hz)
                assert energy.tobytes() == data.bin_energies().tobytes(), name
            elif kind == "signal":
                cols = sigio.read_signal_csv(tmp_path / name)
                time_axis = np.arange(data.n) / data.sample_rate_hz
                assert (cols["index"] / sample_rate_hz).tobytes() == time_axis.tobytes(), name

    @pytest.mark.parametrize(
        "scenario, dump, stage",
        [
            pytest.param("fig5", "signal_recovered.csv", lambda s: s, id="fig5-spectrum_recovered"),
            pytest.param("fig9", "signal_demodulated.csv", lambda s: s, id="fig9-spectrum_demodulated"),
            pytest.param(
                "polarization",
                "pair_transmitted_r.csv",
                polarization.from_polarized,
                id="polarization-spectrum_received_r",
            ),
        ],
    )
    @pytest.mark.parametrize("overrides", RATES)
    def test_dropped_spectrum_rebuilt_bitwise(self, tmp_path, scenario, dump, stage, overrides):
        cfg = ScenarioConfig(scenario=scenario, n_samples=4096, **overrides)
        run_scenario(cfg, tmp_path)
        stored = parse_config_text((tmp_path / "config.txt").read_text())
        n, fs = int(stored["n_samples"]), float(stored["sample_rate_hz"])
        kind, data = execute_scenario(cfg)[1][dump]
        _, re_, im = getattr(sigio, f"read_{kind}_csv")(tmp_path / dump).values()
        bins = _recipe_dft(re_, im)
        rebuilt = {"freq_hz": (np.arange(n) - n // 2) * (fs / n), "re": bins.real, "im": bins.imag}
        # the table the spectrum artifact held for this stage before it was dropped
        schema = sigio.SCHEMAS["spectrum"]
        for column, values in zip(schema.names, schema.columns(dft_two_sided(stage(data)))):
            assert rebuilt[column].tobytes() == values.tobytes(), column

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_no_spectrum_is_the_dft_of_a_dump(self, scenario):
        _, files = execute_scenario(ScenarioConfig(scenario=scenario, n_samples=4096))
        artifacts = {name: (kind, data) for name, (kind, data) in files.items() if kind != "text"}
        tables = {name: sigio.SCHEMAS[kind].columns(data) for name, (kind, data) in artifacts.items()}
        spectra = {name: tables[name] for name, (kind, _) in artifacts.items() if kind == "spectrum"}
        for dump, (kind, _) in artifacts.items():
            if kind not in ("signal", "pair"):
                continue
            rebuilt = _recipe_dft(*tables[dump][1:])
            for name, (_, re_, im) in spectra.items():
                stored = (re_.tobytes(), im.tobytes())
                assert (rebuilt.real.tobytes(), rebuilt.imag.tobytes()) != stored, f"{name} is the DFT of {dump}"
