"""carrierlab benchmark: time to a verified verdict, end to end and per module.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0

One client runs jobs back to back in one process and one thread (a closed
loop with no think time).  A job is ``carrierlab run`` then ``carrierlab
verify`` of the same directory, called in-process through
``carrierlab.cli.main`` with stdout sent to a null sink.  The window ends at
the first pass boundary after ``--seconds`` and the workload's
``min_jobs`` jobs.  Every reported time is scaled to a reference host speed
by a calibration kernel timed around each step (see ``calibrate.py``); the
times as measured go to the result file beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the
modules' public functions (see ``tracer.py``) on half of the passes and
reports per-module metrics, plus the tracing overhead against the
untraced passes of the same run.

Outside the timed window every invocation also measures set-up in fresh
interpreters, re-runs the first job to check that its bytes repeat, and
checks the nine default-config reports against ``perfbench/reference``.
The last line of stdout is the JSON result; details go to
``perfbench/out/``.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from calibrate import Calibration
from tracer import Tracer
from workloads import OUT, ROOT, THREAD_VARS, WORKLOADS, NullSink, pin_threads, run_job

SETUP_PROBES = 3
REFERENCE = Path(__file__).resolve().parent / "reference"
#: the default-config reference runs, split over two concurrent children so
#: the check takes about half the wall time; group_laws alone costs about as
#: much as the five scenarios of the second part
REFERENCE_PARTS = (
    ("group_laws", "fig4", "fig6", "polarization"),
    ("fig5", "fig7", "fig9", "fig10", "compare"),
)
#: whole invocation, well inside the 180 s a run may take
DEADLINE_S = 170.0
E2E_UNITS = {
    "run_s.p50": "s",
    "run_s.tail": "s",
    "verify_s.p50": "s",
    "verify_s.tail": "s",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_KEYS = ("import_numpy_s", "import_scipy_signal_s", "import_carrierlab_s", "warmup_s")


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``; the maximum when there are ten or fewer."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def children(argvs: list[list[str]], deadline: float) -> list[tuple[dict | None, float, str]]:
    """Run benchmark helpers in fresh interpreters, all at once.  Returns,
    for each, its JSON line (None if it printed none), the wall time until
    it ended and its stderr.  Helpers still running at ``deadline`` are
    killed."""
    t0 = time.perf_counter()
    procs = [
        subprocess.Popen([sys.executable, *argv], cwd=ROOT, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for argv in argvs
    ]
    results = []
    for proc in procs:
        try:
            out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            err += f"\n{proc.args[1]} timed out"
        wall = time.perf_counter() - t0
        lines = out.strip().splitlines()
        try:
            results.append((json.loads(lines[-1]), wall, err))
        except (IndexError, json.JSONDecodeError):
            results.append((None, wall, err))
    return results


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("model name", "cache size"):
                env.setdefault(key.strip().replace(" ", "_"), value.strip())
        caches = {}
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (idx / "size").read_text().strip()
        env["caches"] = caches
    except OSError:
        pass
    return env


def layer_metrics(tracer: Tracer, traced_jobs: int, setup: dict, overhead: float) -> dict:
    """Every per-layer metric as ``name -> (value, unit, source)``."""
    m = tracer.layer_metrics(max(traced_jobs, 1))
    for key in SETUP_KEYS:
        m[f"setup.{key}"] = (setup[key], "s", "measured")
    m["trace.overhead_frac"] = (overhead, "ratio", "measured")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "carrierlab" / "cli.py").is_file():
        print(f"perfbench: no carrierlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    pin_threads()
    workload = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    errors: list[str] = []
    attempted = failed = 0
    calibration = Calibration()

    # set-up, each time in a fresh interpreter, between two calibrations
    probes, setup_walls, setup_raw = [], [], []
    for _ in range(SETUP_PROBES):
        before = calibration.sample()
        [(result, wall, err)] = children([["perfbench/probe_setup.py", workload.name, str(args.seed)]], deadline)
        after = calibration.sample()
        attempted += 1
        if result is None or not result["ok"]:
            failed += 1
            errors.append(f"setup probe failed: {err.strip()[-500:]}")
        else:
            probes.append(result)
            setup_walls.append(Calibration.scale(wall, before, after))
            setup_raw.append(wall)
    setup = {k: statistics.median(p[k] for p in probes) if probes else 0.0 for k in SETUP_KEYS}
    setup_s = statistics.median(setup_walls) if setup_walls else 0.0

    sys.path.insert(0, str(ROOT / "src"))
    from carrierlab import cli

    tracer = Tracer() if args.trace else None
    # per job, scaled to the reference speed
    runs: list[float] = []
    verifies: list[float] = []
    traced_runs: list[float] = []
    job_walls: list[float] = []
    # per job, as measured
    raw = {"run_s": [], "verify_s": [], "wall_s": [], "calibration_s": []}
    ok_jobs = 0
    first = None
    with contextlib.redirect_stdout(NullSink()):
        warm = run_job(cli, next(workload.job_args(args.seed)))
        attempted += 1
        failed += not warm.ok
        t0 = time.perf_counter()
        before = calibration.sample()
        for j, job_args in enumerate(workload.job_args(args.seed)):
            p, k = divmod(j, workload.pass_len)
            if k == 0 and j >= workload.min_jobs and time.perf_counter() - t0 >= args.seconds:
                break
            # U T T U U T T ...: tracing and the per-pass constellation
            # alternate out of phase, so each side sees both constellations
            traced = tracer is not None and p % 4 in (1, 2)
            if traced:
                tracer.job = j
            with tracer.active() if traced else contextlib.nullcontext():
                res = run_job(cli, job_args, keep_digests=j == 0, calibration=calibration)
            after = calibration.sample()
            mid = res.mid_calibration_s
            if j == 0:
                first = (job_args, res.digests)
            (traced_runs if traced else runs).append(Calibration.scale(res.run_s, before, mid))
            if not traced:
                verifies.append(Calibration.scale(res.verify_s, mid, after))
                raw["run_s"].append(res.run_s)
                raw["verify_s"].append(res.verify_s)
            job_walls.append(Calibration.scale(res.wall_s, before, mid, after))
            raw["wall_s"].append(res.wall_s)
            raw["calibration_s"] += [before, mid]
            before = after
            ok_jobs += res.ok
            if not res.ok:
                errors.append(f"job {j} {job_args}: {res.error}")
        wall = time.perf_counter() - t0
        jobs = j
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # the first job again: report and every artifact byte-identical
        again = run_job(cli, first[0], verify=False, keep_digests=True)
    attempted += jobs + 1
    failed += (jobs - ok_jobs) + (again.digests != first[1] or not again.ok)
    if again.digests != first[1]:
        errors.append("determinism: re-run of job 0 changed bytes")

    expected = {p.name.split(".")[0] for p in REFERENCE.glob("*.report.txt")}
    checked: set[str] = set()
    byte_diffs: list[str] = []
    for ref, _, err in children([["perfbench/refcheck.py", *part] for part in REFERENCE_PARTS], deadline):
        if ref is None:
            errors.append(f"reference check did not finish: {err.strip()[-500:]}")
            continue
        checked.update(ref["checked"])
        byte_diffs += ref["byte_diffs"]
        failed += len(ref["failures"])
        errors.extend(f"reference {name}: {'; '.join(why)}" for name, why in ref["failures"].items())
    attempted += len(expected)
    failed += len(expected - checked)
    errors.extend(f"reference {name}: not checked" for name in sorted(expected - checked))

    run_tail, run_pct = tail(runs)
    verify_tail, verify_pct = tail(verifies)
    values = {
        "run_s.p50": statistics.median(runs),
        "run_s.tail": run_tail,
        "verify_s.p50": statistics.median(verifies),
        "verify_s.tail": verify_tail,
        "jobs_per_s": ok_jobs / sum(job_walls),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    e2e = {k: (values[k], unit) for k, unit in E2E_UNITS.items()}
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "jobs": jobs,
        "wall_s": wall,
        "fail_frac": failed / attempted,
        "tail": {"run_s": {"percentile": run_pct, "samples": len(runs)},
                 "verify_s": {"percentile": verify_pct, "samples": len(verifies)}},
        "setup_split_s": setup,
        "calibration": {
            "reference_s": calibrate.REFERENCE_S,
            "median_sample_s": statistics.median(raw["calibration_s"]),
            "note": "reported times are scaled by reference_s / kernel time around each step",
        },
        "as_measured": {
            "run_s.p50": statistics.median(raw["run_s"]),
            "verify_s.p50": statistics.median(raw["verify_s"]),
            "setup_s": statistics.median(setup_raw) if setup_raw else 0.0,
            "jobs_per_s": ok_jobs / sum(raw["wall_s"]),
        },
        "reference_byte_diffs": byte_diffs,
        "errors": errors,
    }
    if tracer is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        detail["end_to_end"] = metrics
    else:
        overhead = statistics.median(traced_runs) / statistics.median(runs) - 1.0 if traced_runs else 0.0
        layers = layer_metrics(tracer, len(traced_runs), setup, overhead)
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in layers.items()}
        detail["per_layer"] = {k: {"value": v, "unit": u, "source": s} for k, (v, u, s) in layers.items()}
        detail["traced_jobs"] = len(traced_runs)
        tracer.dump(OUT / f"spans-{workload.name}-seed{args.seed}.tsv")
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )

    for error in errors:
        print(f"error: {error}")
    summary = f"{workload.name}: {jobs} jobs in {wall:.1f} s, fail_frac {failed}/{attempted}"
    if tracer is None:
        summary += (f", run_s.tail = p{run_pct:.1f} of {len(runs)}, "
                    f"verify_s.tail = p{verify_pct:.1f} of {len(verifies)}")
    print(summary)
    for name, (value, unit, *source) in (e2e.items() if tracer is None else layers.items()):
        print(f"  {name:44s} {value:14.6g} {unit}{'  (' + source[0] + ')' if source else ''}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
