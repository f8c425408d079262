"""Tests for ``carrierlab._split``: one forked helper process runs every
second task of a list and streams each result back, and nothing a caller
sees depends on whether it ran."""

import contextlib
import io
import itertools
import os
import threading
import time

import pytest

from carrierlab import _split, sigio
from carrierlab.cli import main
from carrierlab.scenarios import SCENARIOS, ScenarioConfig, run_scenario, verify_run
from carrierlab._split import split

#: four tasks: the helper runs tasks 1 and 3, the caller 0 and 2
N = 4


@pytest.fixture
def forks(monkeypatch):
    """The process may use a CPU that no runnable task holds, whatever the
    host has and runs, and every fork the helper makes is counted."""
    monkeypatch.setattr(_split, "_idle_cpu", lambda: True)
    forks = []
    fork = os.fork

    def counting():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raising(i, failing):
    def task():
        if i in failing:
            raise FileNotFoundError(2, f"task {i} found nothing", f"file{i}")
        return i * i

    return task


def _outcome(failing):
    try:
        return list(split([_raising(i, failing) for i in range(N)]))
    except Exception as exc:
        return type(exc), str(exc)


class TestSplit:
    def test_results_in_task_order(self, forks):
        pids = list(split([lambda i=i: (i, os.getpid()) for i in range(6)]))
        assert [i for i, _ in pids] == list(range(6))
        # the helper ran tasks 1, 3 and 5, and the caller the rest
        helper = pids[1][1]
        assert helper != os.getpid()
        assert [pid for _, pid in pids] == [os.getpid(), helper] * 3
        assert forks == [1]
        assert_no_child_left()

    def test_no_idle_cpu_runs_every_task_here(self, no_idle_cpu, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with no idle CPU"))
        assert list(split([lambda i=i: (i, os.getpid()) for i in range(N)])) == [
            (i, os.getpid()) for i in range(N)
        ]

    @pytest.mark.parametrize(
        "runnable, idle",
        [([1] * 9, True), ([2] * 9, False), ([1, 2] * 4 + [1], True), ([2, 1] * 4 + [2], False), ([3] * 9, False)],
    )
    def test_idle_cpu_is_most_readings_below_the_cpus(self, runnable, idle, monkeypatch):
        readings = iter(runnable)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(
            _split, "open", lambda path: io.StringIO(f"0.52 0.58 0.59 {next(readings)}/180 9931\n"), raising=False
        )
        assert _split._idle_cpu.__wrapped__() is idle  # uncached: each process decides once
        assert next(readings, None) is None

    def test_another_thread_keeps_every_task_here(self, forks):
        # a lock that thread held would stay held in a forked helper
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert _split._threads() == 2
            assert list(split([lambda i=i: (i, os.getpid()) for i in range(N)])) == [
                (i, os.getpid()) for i in range(N)
            ]
        finally:
            release.set()
            other.join()
        assert forks == []

    def test_one_task_runs_here(self, forks):
        assert list(split([os.getpid])) == [os.getpid()]
        assert forks == []

    @pytest.mark.parametrize(
        "failing",
        [set(c) for r in (1, 2, 3) for c in itertools.combinations(range(N), r)],
        ids=lambda failing: "raise-" + "-".join(map(str, sorted(failing))),
    )
    def test_first_exception_in_task_order(self, failing, forks, monkeypatch):
        forked = _outcome(failing)
        assert forks == [1]
        assert_no_child_left()
        monkeypatch.setattr(_split, "_idle_cpu", lambda: False)
        first = min(failing)
        assert forked == _outcome(failing) == (FileNotFoundError, f"[Errno 2] task {first} found nothing: 'file{first}'")
        assert forks == [1]

    def test_failed_fork_runs_every_task_here(self, forks, monkeypatch):
        def refused():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        fds = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", refused)
        assert list(split([lambda i=i: (i, os.getpid()) for i in range(N)])) == [
            (i, os.getpid()) for i in range(N)
        ]
        assert len(os.listdir("/proc/self/fd")) == fds  # the pipe is closed

    def test_helper_that_dies_without_results(self, forks):
        with pytest.raises(ChildProcessError, match="ended without its results"):
            list(split([lambda: 1, lambda: os._exit(3)]))
        assert forks == [1]
        assert_no_child_left()

    def test_raise_here_kills_the_helper(self, forks):
        # the helper gets task 1, which would outlast the test; task 0
        # raises here first, so the helper's outcome is not needed
        def boom():
            raise ValueError("task 0")

        start = time.monotonic()
        with pytest.raises(ValueError, match="task 0"):
            list(split([boom, lambda: time.sleep(60), lambda: 2]))
        assert time.monotonic() - start < 30
        assert forks == [1]
        assert_no_child_left()

    def test_result_larger_than_the_pipe_arrives_intact(self, forks):
        # 3 MiB, past the pipe's 1 MiB: the helper writes it in parts
        big = bytes(range(256)) * (3 * 4096)
        assert list(split([lambda: 0, lambda: big, lambda: 2, lambda: big[::-1]])) == [0, big, 2, big[::-1]]
        assert forks == [1]
        assert_no_child_left()

    def test_caller_runs_its_next_task_while_the_helper_works(self, forks):
        def late():
            time.sleep(0.3)
            return time.monotonic()

        done = list(split([time.monotonic, late, lambda: (os.getpid(), time.monotonic())]))
        # the caller did not wait for task 1 before it ran task 2
        assert done[2][0] == os.getpid()
        assert done[2][1] < done[1]
        assert done[1] - done[0] > 0.2  # task 1 slept in the helper meanwhile
        assert forks == [1]
        assert_no_child_left()

    def test_consumer_that_raises_mid_stream_leaves_no_child(self, forks):
        # this frame and the traceback pytest.raises keeps hold the iterator;
        # closing it, not its collection, kills the helper and its 60 s task
        fds = len(os.listdir("/proc/self/fd"))
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="consumer"):
            with contextlib.closing(split([lambda: 0, lambda: time.sleep(60), lambda: 2])) as results:
                for _ in results:
                    raise RuntimeError("the consumer stops")
        assert_no_child_left()
        assert len(os.listdir("/proc/self/fd")) == fds  # the pipe is closed
        assert time.monotonic() - start < 30
        assert forks == [1]


class TestSplitRuns:
    def test_run_whose_helper_dies_exits_2_and_leaves_nothing(self, tmp_path, capsys, forks, monkeypatch):
        # fig9's helper dies while it formats the second row piece of
        # spectrum_baseband.csv, which the caller has opened
        parent = os.getpid()
        text = sigio.csv_text

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return text(*args)

        monkeypatch.setattr(sigio, "csv_text", dying)
        out = tmp_path / "fig9"
        assert main(["run", "--scenario", "fig9", "--n-samples", "4096", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert list(out.iterdir()) == []
        assert forks == [1]
        assert_no_child_left()

    def test_verify_whose_helper_dies_exits_2(self, tmp_path, capsys, forks, monkeypatch):
        # fig9's verify helper reads spectrum_modulated.csv, and dies there
        out = tmp_path / "fig9"
        run_scenario(ScenarioConfig(scenario="fig9", n_samples=4096), out)
        parent = os.getpid()
        read = sigio.read_spectrum_csv

        def dying(path):
            if os.getpid() != parent:
                os._exit(3)
            return read(path)

        monkeypatch.setattr(sigio, "read_spectrum_csv", dying)
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "verify error: the helper process ended without its results\n"
        assert forks == [1, 1]  # the run's writes, then verify's reads
        assert_no_child_left()

    @pytest.mark.parametrize("name", ["spectrum_baseband.csv", "spectrum_modulated.csv"])
    def test_directory_in_an_artifacts_place_exits_2_and_stays(self, name, tmp_path, capsys, forks):
        # the caller opens every file, each before it takes its row pieces;
        # the helper formats the second piece of each, so a directory in the
        # first CSV's place stops the run before it forks
        out = tmp_path / "fig9"
        (out / name).mkdir(parents=True)
        assert main(["run", "--scenario", "fig9", "--n-samples", "4096", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"output error: [Errno 21] Is a directory: '{out / name}'\n"
        assert [p.name for p in out.iterdir()] == [name]
        assert forks == ([] if name == "spectrum_baseband.csv" else [1])
        assert_no_child_left()

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_helper_and_no_helper_write_the_same_bytes(self, scenario, tmp_path, forks, monkeypatch):
        runs = {}
        for idle in (True, False):
            monkeypatch.setattr(_split, "_idle_cpu", lambda idle=idle: idle)
            out = tmp_path / str(idle)
            run_scenario(ScenarioConfig(scenario=scenario, n_samples=4096), out)
            assert verify_run(out) == (True, [])
            assert_no_child_left()
            runs[idle] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert runs[True] == runs[False]
        # run, verify and group_laws' trials (at each execution) used the helper
        # wherever there was more than one task
        assert len(forks) == {"group_laws": 4, "compare": 0}.get(scenario, 2)

    def test_run_splits_each_csv_into_two_row_pieces(self, tmp_path, forks, monkeypatch):
        # fig5 at 4096 samples: three tables of 4096 rows cut at row 2048, and
        # 119 filter taps in one piece; the caller formats tasks 0, 2, 4 and 6
        formatted = []
        text = sigio.csv_text

        def recording(kind, data, lo=0, hi=None):
            formatted.append((kind, lo, hi))
            return text(kind, data, lo, hi)

        monkeypatch.setattr(sigio, "csv_text", recording)
        out = tmp_path / "fig5"
        run_scenario(ScenarioConfig(scenario="fig5", n_samples=4096), out)
        assert formatted == [("spectrum", 0, 2048), ("spectrum", 0, 2048), ("signal", 0, 2048), ("taps", 0, None)]
        assert forks == [1]
        assert_no_child_left()
        monkeypatch.setattr(sigio, "csv_text", text)
        monkeypatch.setattr(_split, "_idle_cpu", lambda: False)
        assert verify_run(out) == (True, [])

    def test_verify_messages_keep_artifact_order(self, tmp_path, forks, monkeypatch):
        out = tmp_path / "fig9"
        run_scenario(ScenarioConfig(scenario="fig9", n_samples=4096), out)
        (out / "spectrum_baseband.csv").write_text("freq_hz,re,im\n")
        (out / "spectrum_modulated.csv").unlink()
        (out / "signal_demodulated.csv").write_text("index,re\n0,1.0\n")
        forked = verify_run(out)
        monkeypatch.setattr(_split, "_idle_cpu", lambda: False)
        assert forked == verify_run(out)
        names = ["spectrum_baseband.csv", "spectrum_modulated.csv", "signal_demodulated.csv"]
        assert [[name in message for name in names] for message in forked[1]] == [
            [True, False, False],
            [False, True, False],
            [False, False, True],
        ]
        assert forks == [1, 1]  # the run's writes, then the forked verify
        assert_no_child_left()
