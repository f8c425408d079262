"""Tests for the command-line interface and its exit-status contract."""

import pytest

from carrierlab.cli import main
from carrierlab.scenarios import SCENARIOS

SMALL_FLAGS = [
    "--sample-rate-hz", "8192",
    "--n-samples", "8192",
    "--f-c-hz", "1024",
    "--symbol-rate-hz", "128",
    "--guard-hz", "64",
]


class TestList:
    def test_lists_every_scenario(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for scenario in SCENARIOS:
            assert scenario in out


class TestRun:
    def test_run_passes_and_writes(self, tmp_path, capsys):
        out_dir = tmp_path / "fig9"
        code = main(["run", "--scenario", "fig9", "--out", str(out_dir)] + SMALL_FLAGS)
        assert code == 0
        assert (out_dir / "report.txt").exists()
        stdout = capsys.readouterr().out
        assert "verdict: pass" in stdout

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "scenario = fig6\n"
            "sample_rate_hz = 8192\n"
            "n_samples = 8192\n"
            "f_c_hz = 1024\n"
            "symbol_rate_hz = 128\n"
            "guard_hz = 64\n"
            "seed = 5\n"
        )
        out_dir = tmp_path / "out"
        code = main(
            ["run", "--config", str(config), "--out", str(out_dir), "--seed", "7"]
        )
        assert code == 0
        config_echo = (out_dir / "config.txt").read_text()
        assert "seed = 7" in config_echo  # flag wins over file

    def test_invalid_config_exits_2_with_diagnostic(self, tmp_path, capsys):
        code = main(
            ["run", "--scenario", "fig4", "--out", str(tmp_path), "--n-samples", "1000"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "power of two" in err

    @pytest.mark.parametrize(
        "flags, fragment",
        [
            (["--scenario", "fig5", "--transition-hz", "1"], "237595 taps"),
            (["--scenario", "polarization", "--noise-sigma", "nan"], "noise_sigma must be finite"),
            (["--scenario", "fig7", "--guard-hz", "nan"], "guard_hz must be finite"),
        ],
    )
    def test_unusable_value_exits_2_with_one_line(self, tmp_path, capsys, flags, fragment):
        assert main(["run", "--out", str(tmp_path)] + flags) == 2
        err = capsys.readouterr().err
        assert fragment in err
        assert err.count("\n") == 1

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_scenario_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "fig11"])


class TestVerify:
    def test_verify_fresh_run(self, tmp_path, capsys):
        out_dir = tmp_path / "fig9"
        assert main(["run", "--scenario", "fig9", "--out", str(out_dir)] + SMALL_FLAGS) == 0
        capsys.readouterr()
        assert main(["verify", "--out", str(out_dir)]) == 0
        assert "verify: pass" in capsys.readouterr().out

    def test_verify_detects_tampering(self, tmp_path, capsys):
        out_dir = tmp_path / "fig9"
        assert main(["run", "--scenario", "fig9", "--out", str(out_dir)] + SMALL_FLAGS) == 0
        (out_dir / "spectrum_baseband.csv").unlink()
        assert main(["verify", "--out", str(out_dir)]) == 1
        assert "verify: fail" in capsys.readouterr().out

    def test_verify_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["verify", "--out", str(tmp_path / "ghost")]) == 2
