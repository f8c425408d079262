"""Tests for the command-line interface and its exit-status contract."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import carrierlab
from carrierlab import Constellation, ScenarioConfig, cli
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
            (["--scenario", "fig7", "--guard-hz", "8000"], "does not fit a band"),
            (["--scenario", "fig5", "--n-samples", "1024", "--transition-hz", "200"], "no steady-state samples"),
            (["--scenario", "fig10", "--n-samples", "1024", "--transition-hz", "200"], "no steady-state samples"),
            (["--scenario", "fig10", "--cutoff-hz", "15500", "--transition-hz", "1000"], "cannot isolate one band"),
            (["--scenario", "group_laws", "--n-samples", "64"], "past the Nyquist limit"),
            (["--scenario", "fig4", "--n-samples", "abc"], "invalid literal for int()"),
            (["--scenario", "fig4", "--n-samples", str(1 << 21)], "n_samples must be at most 1048576"),
            (["--scenario", "polarization", "--n-samples", "256", "--noise-sigma", "1e308"], "field components must be finite"),
            (["--scenario", "polarization", "--n-samples", "256", "--noise-sigma", "1e200"], "energy overflows double precision"),
        ],
    )
    def test_unusable_value_exits_2_with_one_line(self, tmp_path, capsys, flags, fragment):
        assert main(["run", "--out", str(tmp_path)] + flags) == 2
        err = capsys.readouterr().err
        assert fragment in err
        assert err.count("\n") == 1
        assert not (tmp_path / "report.txt").exists()

    def test_run_and_verify_import_no_scipy(self, tmp_path):
        # scipy is an oracle for the tests, not a dependency of the program
        out = str(tmp_path / "fig10")
        script = (
            "import sys\n"
            "from carrierlab.cli import main\n"
            f"assert main(['run', '--scenario', 'fig10', '--n-samples', '4096', '--out', {out!r}]) == 0\n"
            f"assert main(['verify', '--out', {out!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
        )
        src = str(Path(carrierlab.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_every_field_has_a_flag(self, tmp_path, capsys):
        flags = {
            "sample_rate_hz": "8192",
            "n_samples": "4096",
            "f_c_hz": "1024",
            "symbol_rate_hz": "128",
            "constellation": "QAM16",
            "seed": "5",
            "guard_hz": "32",
            "rolloff": "0.5",
            "cutoff_hz": "700",
            "transition_hz": "300",
            "stopband_atten_db": "50",
            "noise_sigma": "0.01",
            "crosstalk": "0.1",
            "channel_seed": "9",
        }
        assert set(flags) == {f.name for f in fields(ScenarioConfig)} - {"scenario"}
        argv = ["run", "--scenario", "fig6", "--out", str(tmp_path)]
        for key, value in flags.items():
            argv += ["--" + key.replace("_", "-"), value]
        assert main(argv) == 0
        expected = ScenarioConfig(
            scenario="fig6",
            sample_rate_hz=8192.0,
            n_samples=4096,
            f_c_hz=1024.0,
            symbol_rate_hz=128.0,
            constellation=Constellation.QAM16,
            seed=5,
            guard_hz=32.0,
            rolloff=0.5,
            cutoff_hz=700.0,
            transition_hz=300.0,
            stopband_atten_db=50.0,
            noise_sigma=0.01,
            crosstalk=0.1,
            channel_seed=9,
        )
        assert (tmp_path / "config.txt").read_text() == expected.to_text()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_scenario_rejected_by_argparse(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--scenario", "fig11"])

    @pytest.mark.parametrize("under", ["", "run"])
    def test_out_on_a_file_exits_2_with_one_line(self, tmp_path, capsys, under):
        # exit 1 would read as a failed check
        existing = tmp_path / "taken"
        existing.write_text("not a directory\n")
        out = existing / under if under else existing
        assert main(["run", "--scenario", "fig9", "--out", str(out)] + SMALL_FLAGS) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ")
        assert err.count("\n") == 1
        assert existing.read_text() == "not a directory\n"

    def test_failed_write_leaves_no_partial_run(self, tmp_path, capsys):
        out = tmp_path / "fig9"
        (out / "report.txt").mkdir(parents=True)
        flags = ["--scenario", "fig9", "--n-samples", "4096", "--out", str(out)]
        assert main(["run"] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ")
        assert err.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == ["report.txt"]
        assert (out / "report.txt").is_dir()


class TestParser:
    def test_one_parser_parses_each_call_afresh(self, tmp_path, capsys):
        assert cli._build_parser() is cli._build_parser()
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["run", "--scenario", "fig9", "--seed", "7", "--out", str(first)] + SMALL_FLAGS) == 0
        assert main(["verify", "--out", str(first)]) == 0
        # no flag of the first run carries over: seed and scenario are the defaults again
        assert main(["run", "--n-samples", "4096", "--out", str(second)]) == 0
        assert (second / "config.txt").read_text() == ScenarioConfig(n_samples=4096).to_text()
        assert "seed = 7\n" in (first / "config.txt").read_text()
        capsys.readouterr()
        with pytest.raises(SystemExit) as rejected:
            main(["run", "--no-such-flag", "1"])
        assert rejected.value.code == 2
        assert "unrecognized arguments: --no-such-flag 1" in capsys.readouterr().err
        assert main(["verify", "--out", str(second)]) == 0


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

    def test_verify_on_a_file_exits_2_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "report.txt"
        path.write_text("verdict: pass\n")
        assert main(["verify", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"verify error: no such directory {path}\n"
        assert captured.out == ""


_BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh_python(script: str, *args: str, **env: str) -> str:
    """The stdout of ``script`` in a new interpreter whose environment has
    none of the three BLAS thread counts but those given in ``env``."""
    base = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    src = str(Path(carrierlab.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**base, **env, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


class TestBlasThreads:
    """A CLI process starts numpy with one BLAS thread unless the user set a
    count, so it has the one OS thread from which the helper forks."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task to count threads")
    @pytest.mark.parametrize(
        "env, counts",
        [
            ({}, ["1", "1", "1"]),
            ({"OPENBLAS_NUM_THREADS": "2"}, ["None", "2", "None"]),
            ({"OMP_NUM_THREADS": "2"}, ["2", "None", "None"]),
        ],
    )
    def test_cli_starts_numpy_with_one_blas_thread_by_default(self, env, counts):
        script = (
            "import os, sys\n"
            "import carrierlab\n"
            "assert 'numpy' not in sys.modules, 'import carrierlab loaded numpy'\n"
            "from carrierlab import cli\n"
            "assert 'numpy' in sys.modules\n"
            "print(len(os.listdir('/proc/self/task')))\n"
            f"print(*(os.environ.get(var) for var in {_BLAS_THREADS!r}))\n"
        )
        threads, values = _fresh_python(script, **env).splitlines()
        assert values.split() == counts
        if not env:
            assert threads == "1"

    def test_default_cli_process_forks_the_helper(self, tmp_path):
        script = (
            "import os, sys\n"
            "forks = []\n"
            "real_fork = os.fork\n"
            "os.fork = lambda: forks.append(1) or real_fork()\n"
            "from carrierlab import _split, cli\n"
            "_split._idle_cpu = lambda: True\n"
            "out = sys.argv[1]\n"
            "run = cli.main(['run', '--scenario', 'group_laws', '--n-samples', '4096', '--out', out])\n"
            "verify = cli.main(['verify', '--out', out])\n"
            "print(run, verify, len(forks))\n"
        )
        run, verify, forks = _fresh_python(script, str(tmp_path / "group_laws")).splitlines()[-1].split()
        assert (run, verify) == ("0", "0")
        assert int(forks) >= 1


_DEFAULTS = ScenarioConfig()
#: malformed, non-finite, overflowing, or out of range for most fields
_UNUSABLE = ["-1", "0", "1e-320", "1e308", "nan", "-inf", "", "abc"]


def _raw_values(name):
    """Text for field ``name``: half the time its default scaled by 0.5, 1
    or 2, half the time a value from ``_UNUSABLE``.  ``f_c_hz`` is also
    scaled by 0.125 and 0.25, down to the symbol rate, where a band reaches
    past DC."""
    if name == "constellation":
        return st.sampled_from(["qpsk", "QAM16"]) | st.sampled_from(["bpsk", ""])
    default = getattr(_DEFAULTS, name)
    scales = (0.125, 0.25, 0.5, 1, 2) if name == "f_c_hz" else (0.5, 1, 2)
    usable = [str(type(default)(default * k)) for k in scales]
    return st.sampled_from(usable) | st.sampled_from(_UNUSABLE)


_OVERRIDES = st.lists(
    st.sampled_from([f.name for f in fields(ScenarioConfig) if f.name not in ("scenario", "n_samples")])
    .flatmap(lambda name: st.tuples(st.just(name), _raw_values(name))),
    max_size=3,
).map(dict)
# n_samples is always set, and small, so that every example runs quickly
_N_SAMPLES = st.sampled_from(["256", "1024", "2048"]) | st.sampled_from(["1000", "0", "-2", "abc"])
#: CARRIERLAB_FUZZ_EXAMPLES=N draws N examples, all at 256 samples, for a
#: deeper fuzz than the suite's 40 (an explicit max_examples overrides any
#: hypothesis profile, so a profile cannot raise it)
_DEEP_EXAMPLES = os.environ.get("CARRIERLAB_FUZZ_EXAMPLES")


@settings(max_examples=int(_DEEP_EXAMPLES or 40), deadline=None)
@given(
    scenario=st.sampled_from(SCENARIOS),
    n_samples=st.just("256") if _DEEP_EXAMPLES else _N_SAMPLES,
    overrides=_OVERRIDES,
)
# 1/(2*rolloff) overflows; a cutoff whose normalized value is subnormal
@example(scenario="fig4", n_samples="256", overrides={"rolloff": "1e-320"})
@example(scenario="fig5", n_samples="1024", overrides={"cutoff_hz": "1e-320"})
def test_every_config_ends_in_a_verdict_or_one_line(scenario, n_samples, overrides):
    """A run either writes a report and exits 0 or 1, or writes nothing and
    exits 2 with a one-line diagnostic; no exception escapes ``main``."""
    argv = ["run", "--scenario", scenario, f"--n-samples={n_samples}"]
    argv += [f"--{key.replace('_', '-')}={value}" for key, value in overrides.items()]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)])
        if code == 2:
            assert stderr.getvalue().startswith("config error: ")
            assert stderr.getvalue().count("\n") == 1
            assert not out.exists()
        else:
            assert code in (0, 1)
            assert (out / "report.txt").exists()
            assert stdout.getvalue().count("verdict: ") == 1
