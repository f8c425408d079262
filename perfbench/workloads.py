"""Benchmark workloads and the job that every measurement repeats.

A job is one ``carrierlab run`` followed by one ``carrierlab verify`` of the
same output directory, both driven in-process through ``carrierlab.cli.main``.
The program only sees the flags generated here from the benchmark seed.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import tempfile
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """Use one BLAS/OpenMP thread, here and in child processes.  Call before
    numpy loads.  Besides steadier timings, this fixes the summation order of
    BLAS reductions: the report.txt of fig4, fig7 and compare differs in the
    last digits between one thread and the default."""
    for var in THREAD_VARS:
        os.environ[var] = "1"

#: fig7 is left out: its check that the two bands are uncorrelated
#: (conj_mirror_correlation < 0.1) is a 1/sqrt(symbols) statistic, and with
#: the 256 symbols of 16384 samples about 2% of random seeds fail it.
#: fig10 and compare run the same dual_modulate path.
FIGURES_ORDER = ("fig4", "fig5", "fig6", "fig9", "fig10", "compare", "polarization")
CONSTELLATIONS = ("qpsk", "qam16")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: jobs per pass; a timed window only ends between passes, so every
    #: run measures the same mix of scenarios
    pass_len: int
    #: fewest timed jobs per window, a whole number of passes (an even
    #: number on figures, so both constellations weigh the same).  At 10 s
    #: this count, not --seconds, ends the window, so the job count and the
    #: tail's percentile stay put when the program or the host gets faster.
    min_jobs: int

    def job_args(self, seed: int) -> Iterator[list[str]]:
        """``run`` flags (without ``--out``) of job 0, 1, 2, ... for ``seed``."""
        rng = random.Random(f"{self.name}/{seed}")
        for j in itertools.count():
            job_seed = str(rng.randrange(1 << 31))
            if self.name == "figures":
                yield [
                    "--scenario", FIGURES_ORDER[j % self.pass_len],
                    "--n-samples", "16384",
                    "--constellation", CONSTELLATIONS[(j // self.pass_len) % 2],
                    "--seed", job_seed,
                    "--channel-seed", str(rng.randrange(1 << 31)),
                ]
            else:
                yield ["--scenario", "group_laws", "--n-samples", "4096", "--seed", job_seed]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "figures",
            "seven paper scenarios at 16384 samples; CSV formatting and parsing dominate run and verify",
            len(FIGURES_ORDER),
            6 * len(FIGURES_ORDER),
        ),
        Workload(
            "shift_algebra",
            "group_laws at 4096 samples; pulse convolutions, oscillators and guard FFTs dominate, CSV barely matters",
            1,
            32,
        ),
    )
}


class NullSink:
    """Stdout replacement that drops everything the CLI prints."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


@dataclass
class JobResult:
    ok: bool
    run_s: float
    verify_s: float
    #: the whole job, temporary directory included, calibration excluded
    wall_s: float
    #: calibration sample taken between run and verify (0 without one)
    mid_calibration_s: float
    #: sha256 of every file the run wrote, when requested
    digests: dict[str, str] | None = None
    error: str = ""


def _call(main, argv: list[str]) -> tuple[int, str]:
    try:
        return main(argv), ""
    except SystemExit as exc:  # argparse rejects flags this way
        return (exc.code if isinstance(exc.code, int) else 2), f"SystemExit({exc.code!r})"
    except Exception as exc:  # a traceback is a failed job, not a dead benchmark
        return 1, f"{type(exc).__name__}: {exc}"


def digest_dir(path: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(path.iterdir())}


def run_job(cli, args: list[str], *, verify: bool = True, keep_digests: bool = False,
            calibration=None) -> JobResult:
    """Run one job in a fresh temporary directory that is removed afterwards.

    ``cli.main`` is looked up on every call so that a tracer's wrapper, when
    installed, sees the job.  With a ``calibration``, the host's speed is
    sampled between run and verify, outside both timings and ``wall_s``.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    mid_s, mid_cost = 0.0, 0.0
    with tempfile.TemporaryDirectory(dir=OUT, prefix="job-") as tmp:
        t0 = time.perf_counter()
        rc_run, err = _call(cli.main, ["run", *args, "--out", tmp])
        t1 = time.perf_counter()
        if calibration is not None:
            mid_s = calibration.sample()
            mid_cost = time.perf_counter() - t1
        rc_verify = 0
        t2 = time.perf_counter()
        if verify:
            rc_verify, err_v = _call(cli.main, ["verify", "--out", tmp])
            err = err or err_v
        t3 = time.perf_counter()
        digests = digest_dir(Path(tmp)) if keep_digests else None
    wall = time.perf_counter() - start - mid_cost
    ok = rc_run == 0 and rc_verify == 0
    if not ok and not err:
        err = f"exit codes run={rc_run} verify={rc_verify}"
    return JobResult(ok, t1 - t0, t3 - t2, wall, mid_s, digests, err)
