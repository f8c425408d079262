"""Set-up probe: a fresh interpreter imports carrierlab and runs one warm-up job.

Usage: ``python3 perfbench/probe_setup.py <workload> <seed>``, from the root
of a checkout.  Prints one JSON object with the time of each step; the
caller times the whole process from outside as ``setup_s``.
"""

import json
import sys
import time

from workloads import ROOT, WORKLOADS, NullSink, pin_threads, run_job

sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    pin_threads()
    workload, seed = WORKLOADS[sys.argv[1]], int(sys.argv[2])
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import scipy.signal  # noqa: F401

    t2 = time.perf_counter()
    from carrierlab import cli

    t3 = time.perf_counter()
    stdout, sys.stdout = sys.stdout, NullSink()
    try:
        job = run_job(cli, next(workload.job_args(seed)))
    finally:
        sys.stdout = stdout
    t4 = time.perf_counter()
    print(json.dumps({
        "ok": job.ok,
        "import_numpy_s": t1 - t0,
        "import_scipy_signal_s": t2 - t1,
        "import_carrierlab_s": t3 - t2,
        "warmup_s": t4 - t3,
    }))
    return 0 if job.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
