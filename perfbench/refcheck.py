"""Default-config reference check for all nine scenarios.

Usage: ``python3 perfbench/refcheck.py [--record] [scenario ...]``, from the
root of a checkout.  Runs the named scenarios (default: all nine) at the
default ``ScenarioConfig`` through ``carrierlab run`` and compares each
``report.txt`` with the copy stored in ``perfbench/reference/``.  Prints one
JSON object with the scenarios ``checked`` and:

* ``failures``: a scenario whose run exits nonzero, whose verdict set or
  thresholds changed, whose pass/fail flipped, or whose metric or measured
  value moved by more than 1e-9 relative (absolute below 1);
* ``byte_diffs``: reports that differ in bytes but stay within that
  tolerance.  These do not fail, because announced byte changes are allowed.

``--record`` rewrites the stored reports from the current code instead.
"""

import json
import sys
import tempfile
from pathlib import Path

from workloads import OUT, ROOT, NullSink, pin_threads

sys.path.insert(0, str(ROOT / "src"))

REFERENCE = Path(__file__).resolve().parent / "reference"
TOLERANCE = 1e-9


def _close(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    return x == y or abs(x - y) <= TOLERANCE * max(1.0, abs(x), abs(y))


def _fields(text: str) -> tuple[dict[str, str], dict[str, tuple[str, str, str]]]:
    """Split a report into plain ``key: value`` lines and check lines."""
    plain: dict[str, str] = {}
    checks: dict[str, tuple[str, str, str]] = {}
    for line in text.splitlines():
        key, _, rest = line.partition(": ")
        parts = rest.split(" / ")
        if len(parts) == 3:
            checks[key] = (parts[0], parts[1], parts[2])
        elif key != "artifact":
            plain[key] = rest
    return plain, checks


def compare(stored: str, fresh: str) -> list[str]:
    """Differences between two reports that count as failures."""
    old_plain, old_checks = _fields(stored)
    new_plain, new_checks = _fields(fresh)
    problems = []
    if list(old_checks) != list(new_checks):
        problems.append(f"checks {list(old_checks)} became {list(new_checks)}")
    for name in old_checks.keys() & new_checks.keys():
        (m0, t0, v0), (m1, t1, v1) = old_checks[name], new_checks[name]
        if v0 != v1:
            problems.append(f"{name} flipped {v0} -> {v1}")
        if t0 != t1:
            problems.append(f"{name} threshold {t0!r} -> {t1!r}")
        if not _close(m0, m1):
            problems.append(f"{name} measured {m0} -> {m1}")
    # config_digest hashes config.txt bytes: a byte difference, not a value
    for key in old_plain.keys() - {"config_digest"}:
        if key not in new_plain:
            problems.append(f"{key} missing")
        elif not _close(old_plain[key], new_plain[key]):
            problems.append(f"{key} {old_plain[key]} -> {new_plain[key]}")
    return problems


def main() -> int:
    pin_threads()
    from carrierlab import cli
    from carrierlab.scenarios import SCENARIOS

    record = "--record" in sys.argv[1:]
    scenarios = [a for a in sys.argv[1:] if a != "--record"] or list(SCENARIOS)
    failures: dict[str, list[str]] = {}
    byte_diffs = []
    OUT.mkdir(parents=True, exist_ok=True)
    stdout, sys.stdout = sys.stdout, NullSink()
    try:
        for scenario in scenarios:
            with tempfile.TemporaryDirectory(dir=OUT, prefix="ref-") as tmp:
                rc = cli.main(["run", "--scenario", scenario, "--out", tmp])
                fresh = (Path(tmp) / "report.txt").read_text()
            path = REFERENCE / f"{scenario}.report.txt"
            if record:
                REFERENCE.mkdir(exist_ok=True)
                path.write_text(fresh)
                continue
            stored = path.read_text()
            problems = compare(stored, fresh)
            if rc != 0:
                problems.append(f"run exited {rc}")
            if problems:
                failures[scenario] = problems
            elif fresh != stored:
                byte_diffs.append(scenario)
    finally:
        sys.stdout = stdout
    print(json.dumps({"checked": scenarios, "failures": failures, "byte_diffs": byte_diffs}))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
