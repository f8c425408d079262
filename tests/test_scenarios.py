"""Tests for the scenario engine: configs, reports, artifacts, verification."""

import math

import pytest

from carrierlab import RunReport, ScenarioConfig, SCENARIOS, compare_chains, execute_scenario, run_scenario, verify_run
from carrierlab.scenarios import parse_config_text
from carrierlab import sigio

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
            (dict(f_c_hz=256.0), "4x symbol_rate_hz"),
            (dict(symbol_rate_hz=100.0), "integer multiple"),
            (dict(rolloff=2.0), "rolloff"),
            (dict(guard_hz=-5.0), "guard_hz"),
            (dict(f_c_hz=32768.0, symbol_rate_hz=8192.0), "Nyquist"),
            (dict(crosstalk=1.5), "crosstalk"),
            (dict(noise_sigma=-1.0), "noise_sigma"),
            (dict(seed=-1), "seeds"),
            (dict(guard_hz=math.nan), "guard_hz must be finite"),
            (dict(noise_sigma=math.nan), "noise_sigma must be finite"),
            (dict(sample_rate_hz=math.inf), "sample_rate_hz must be finite"),
            (dict(transition_hz=1.0), "design needs 237595 taps, cap is 4097"),
            (dict(stopband_atten_db=5.0), "too small for the Kaiser formula"),
        ],
    )
    def test_invalid_config_names_the_invariant(self, overrides, fragment):
        cfg = ScenarioConfig(**overrides)
        with pytest.raises(ValueError, match=fragment):
            cfg.validate()

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


class TestScenarioRuns:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_scenario_passes_at_desk_scale(self, scenario):
        report, artifacts = execute_scenario(small_config(scenario))
        failing = [v.name for v in report.verdicts if not v.passed]
        assert report.passed, f"failing checks: {failing}"
        assert report.scenario_id == scenario
        assert "config.txt" in artifacts

    def test_run_writes_declared_artifacts(self, tmp_path):
        out = tmp_path / "fig4"
        report = run_scenario(small_config("fig4"), out)
        for name in report.artifacts:
            assert (out / name).exists(), name
        assert (out / "report.txt").exists()
        stored = RunReport.from_text((out / "report.txt").read_text())
        assert stored.config_digest == report.config_digest
        assert [v.name for v in stored.verdicts] == [v.name for v in report.verdicts]

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

    def test_compare_chains_report(self):
        report = compare_chains(small_config("fig4"))
        assert report.scenario_id == "compare"
        assert report.passed
        names = {v.name for v in report.verdicts}
        assert {"real_independent_streams", "dual_independent_streams"} <= names

    def test_report_text_round_trip(self):
        report, _ = execute_scenario(small_config("polarization"))
        parsed = RunReport.from_text(report.to_text())
        assert parsed.scenario_id == report.scenario_id
        assert parsed.metrics == report.metrics
        assert parsed.verdicts == report.verdicts
        assert parsed.passed == report.passed

    def test_invalid_scenario_rejected(self):
        with pytest.raises(ValueError):
            execute_scenario(small_config("fig4", n_samples=1000))


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
        assert any("schema" in m for m in messages)

    def test_tampered_measurement_detected(self, fig9_run):
        # rewrite one measured value; the line stays parseable but wrong
        report_path = fig9_run / "report.txt"
        lines = [
            line if not line.startswith("round_trip_max_err_l") else
            "round_trip_max_err_l: 0.5 / < 1e-12 / pass"
            for line in report_path.read_text().splitlines()
        ]
        report_path.write_text("\n".join(lines) + "\n")
        ok, messages = verify_run(fig9_run)
        assert not ok
        assert any("round_trip_max_err_l" in m for m in messages)

    def test_tampered_config_detected(self, fig9_run):
        config_path = fig9_run / "config.txt"
        config_path.write_text(config_path.read_text().replace("seed = 42", "seed = 43"))
        ok, messages = verify_run(fig9_run)
        assert not ok

    def test_missing_report_detected(self, tmp_path):
        ok, messages = verify_run(tmp_path)
        assert not ok
        assert any("missing report" in m for m in messages)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_untouched_run_verifies(self, tmp_path, scenario):
        run_scenario(small_config(scenario), tmp_path)
        ok, messages = verify_run(tmp_path)
        assert ok, messages

    @pytest.mark.parametrize(
        "scenario, name",
        [
            ("fig9", "spectrum_modulated.csv"),
            ("fig9", "signal_demodulated.csv"),
            ("fig5", "filter_taps.csv"),
            ("polarization", "pair_transmitted_r.csv"),
        ],
    )
    def test_edited_artifact_value_detected(self, tmp_path, scenario, name):
        run_scenario(small_config(scenario), tmp_path)
        path = tmp_path / name
        lines = path.read_text().splitlines()
        cells = lines[37].split(",")  # data row 37; line 0 is the header
        cells[-1] = repr(float(cells[-1]) + 1.0)
        lines[37] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        ok, messages = verify_run(tmp_path)
        assert not ok
        column = lines[0].split(",")[-1]
        assert any(f"{name} row 37 column {column}:" in m for m in messages), messages

    def test_truncated_artifact_detected(self, fig9_run):
        path = fig9_run / "signal_demodulated.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        ok, messages = verify_run(fig9_run)
        assert not ok
        assert any("signal_demodulated.csv has 8191 rows" in m for m in messages), messages

    def test_undeclared_artifact_detected(self, fig9_run):
        report_path = fig9_run / "report.txt"
        text = report_path.read_text().replace("artifact: spectrum_baseband.csv\n", "")
        report_path.write_text(text)
        ok, messages = verify_run(fig9_run)
        assert not ok
        assert "artifact list differs from a fresh execution" in messages
