"""Self-test of the benchmark.

Usage: ``python3 perfbench/selftest.py``, from the root of a checkout.
Exits 0 when both checks hold:

1. two traced runs of the same jobs (same seed) give identical computed
   counts, on each workload;
2. the metric names and units the benchmark reports are exactly those that
   ``BENCHMARK.json`` declares.
"""

import contextlib
import itertools
import json
import sys

from run import E2E_UNITS, SETUP_KEYS, layer_metrics
from tracer import Tracer
from workloads import ROOT, WORKLOADS, NullSink, pin_threads, run_job

sys.path.insert(0, str(ROOT / "src"))


def traced_counts(cli, workload, seed: int, jobs: int) -> dict:
    tracer = Tracer()
    with contextlib.redirect_stdout(NullSink()):
        for j, args in enumerate(itertools.islice(workload.job_args(seed), jobs)):
            tracer.job = j
            with tracer.active():
                if not run_job(cli, args).ok:
                    raise SystemExit(f"{workload.name} job {j} failed: {args}")
    return tracer.computed_counts()


def main() -> int:
    pin_threads()
    from carrierlab import cli

    ok = True
    for workload in WORKLOADS.values():
        jobs = max(workload.pass_len, 2)
        first, second = (traced_counts(cli, workload, 7, jobs) for _ in range(2))
        same = first == second
        ok &= same
        print(f"{workload.name}: computed counts over {jobs} jobs {'repeat' if same else 'DIFFER'}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = layer_metrics(Tracer(), 1, dict.fromkeys(SETUP_KEYS, 0.0), 0.0)
    for section, reported in (
        ("end_to_end", E2E_UNITS),
        ("per_layer", {k: unit for k, (_, unit, _) in layers.items()}),
    ):
        names = {m["name"]: m["unit"] for m in declared[section]}
        if names != reported:
            ok = False
            print(f"{section}: BENCHMARK.json {sorted(names.items() - reported.items())} "
                  f"vs reported {sorted(reported.items() - names.items())}")
        else:
            print(f"{section}: {len(names)} metrics match BENCHMARK.json")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
