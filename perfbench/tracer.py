"""Spans and computed work counts around calls into carrierlab's modules.

The tracer wraps every public function of each module from outside the
program and installs the wrapper in every namespace that holds the original
(``scenarios``, ``complexcarrier`` and ``realcarrier`` bind names such as
``dft_two_sided`` at import, so patching ``spectrum`` alone would miss most
calls).  Spans are kept in memory and written out by the caller.

Work counts (FFT flops, convolution MACs, CSV rows and bytes, signal
constructions) are *computed* from argument and result sizes, not measured;
they repeat exactly for the same seed.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = (
    "cli",
    "scenarios",
    "sigio",
    "signals",
    "spectrum",
    "filters",
    "complexcarrier",
    "realcarrier",
    "polarization",
)
#: called once per float while formatting; a span each would swamp the run
SKIP = {"sigio.fmt"}
#: FFTs below one of these are bandwidth guards, not spectra the user sees
GUARD_OWNERS = ("complexcarrier.", "realcarrier.")
SIGIO_WRITERS = tuple(f"sigio.{k}_csv_text" for k in ("signal", "spectrum", "pair", "taps"))
SIGIO_READERS = tuple(f"sigio.read_{k}_csv" for k in ("signal", "spectrum", "pair", "taps"))

# span record fields
NAME, START, END, PARENT, JOB, CHILD = range(6)


def _count_dft(c, result, args, kwargs):
    n = args[0].n
    c["flops"] += 5 * n * math.log2(n)


def _count_baseband(c, result, args, kwargs):
    from carrierlab.signals import RC_SPAN_SYMBOLS

    msg, sps = args[0], args[1]
    shaping = args[2] if len(args) > 2 else kwargs.get("shaping", "rectangular")
    if shaping == "raised_cosine":
        c["macs"] += msg.symbols.size * sps * (2 * RC_SPAN_SYMBOLS * sps + 1)


def _count_apply_filter(c, result, args, kwargs):
    c["macs"] += args[0].n * len(args[1])


def _count_design(c, result, args, kwargs):
    c["distinct:" + repr((args[0], args[1]))] = 1


def _count_format(c, result, args, kwargs):
    obj = args[0]
    c["rows"] += len(obj) if hasattr(obj, "__len__") else obj.n
    c["bytes"] += len(result)


def _count_parse(c, result, args, kwargs):
    first = result if not isinstance(result, dict) else next(iter(result.values()))
    c["rows"] += len(first)
    c["bytes"] += os.path.getsize(args[0])


def _count_run_scenario(c, result, args, kwargs):
    for p in Path(args[1]).iterdir():
        size = p.stat().st_size
        c["artifact_bytes"] += size
        if p.suffix == ".csv":
            c["csv_bytes"] += size


def _count_signal(c, result, args, kwargs):
    c["bytes_copied"] += args[0].samples.nbytes


COUNTERS = {
    "spectrum.dft_two_sided": _count_dft,
    "signals.generate_baseband": _count_baseband,
    "filters.apply_filter": _count_apply_filter,
    "filters.design_lowpass": _count_design,
    "scenarios.run_scenario": _count_run_scenario,
    "signals.ComplexSignal.__post_init__": _count_signal,
    **{name: _count_format for name in SIGIO_WRITERS},
    **{name: _count_parse for name in SIGIO_READERS},
}
#: methods traced besides the modules' public functions
METHODS = (("scenarios", "ScenarioConfig", "validate"), ("signals", "ComplexSignal", "__post_init__"))


class Tracer:
    """Records spans ``[name, start_ns, end_ns, parent, job, child_ns]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.job = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0, 0, parent, self.job, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = end = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - rec[START]
            counts[name]["calls"] += 1
            if count is not None:
                count(counts[name], result, args, kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers in every carrierlab namespace; undo on exit."""
        mods = {m: sys.modules[f"carrierlab.{m}"] for m in MODULES}
        namespaces = [m for k, m in sys.modules.items() if k == "carrierlab" or k.startswith("carrierlab.")]
        undo = []
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIP
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                wrapped = self._wrap(name, fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        undo.append((ns, attr, fn))
                        setattr(ns, attr, wrapped)
        for short, cls_name, attr in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = vars(cls)[attr]
            undo.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(f"{short}.{cls_name}.{attr}", fn))
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)

    def computed_counts(self) -> dict[str, dict[str, float]]:
        """Every computed count, for comparing two runs of one seed."""
        return {name: dict(sorted(c.items())) for name, c in sorted(self.counts.items())}

    def dump(self, path: Path) -> None:
        """Write the spans as tab-separated rows, one per span."""
        with open(path, "w") as f:
            f.write("id\tname\tstart_ns\tend_ns\tparent\tjob\tself_ns\n")
            for i, (name, start, end, parent, job, child) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{job}\t{end - start - child}\n")

    def layer_metrics(self, jobs: int) -> dict[str, tuple[float, str, str]]:
        """Per-job layer metrics as ``name -> (value, unit, source)``."""
        total = Counter()
        self_ns = Counter()
        guard_calls = guard_ns = 0
        spans = self.spans
        for s in spans:
            dur = s[END] - s[START]
            total[s[NAME]] += dur
            self_ns[s[NAME]] += dur - s[CHILD]
            if s[NAME] == "spectrum.dft_two_sided":
                p = s[PARENT]
                while p >= 0 and not spans[p][NAME].startswith(GUARD_OWNERS):
                    p = spans[p][PARENT]
                if p >= 0:
                    guard_calls += 1
                    guard_ns += dur
        c = self.counts
        per = 1.0 / jobs

        def ms(ns):
            return ns / 1e6 * per

        def calls(name):
            return c[name]["calls"] * per

        def rate(nbytes, ns):
            return nbytes / 1e6 / (ns / 1e9) if ns else 0.0

        def frac(num, den):
            return num / den if den else 0.0

        w_ns = sum(total[n] for n in SIGIO_WRITERS)
        w_bytes = sum(c[n]["bytes"] for n in SIGIO_WRITERS)
        r_ns = sum(total[n] for n in SIGIO_READERS)
        r_bytes = sum(c[n]["bytes"] for n in SIGIO_READERS)
        dft = "spectrum.dft_two_sided"
        design = c["filters.design_lowpass"]
        distinct = sum(1 for k in design if k.startswith("distinct:"))
        run = c["scenarios.run_scenario"]
        m = {
            "sigio.write.ms": (ms(w_ns), "ms", "measured"),
            "sigio.write.mb_per_s": (rate(w_bytes, w_ns), "MB/s", "measured"),
            "sigio.write.rows": (sum(c[n]["rows"] for n in SIGIO_WRITERS) * per, "row", "computed"),
            "sigio.write.useful_frac": (frac(run["csv_bytes"], w_bytes), "ratio", "computed"),
            "sigio.read.ms": (ms(r_ns), "ms", "measured"),
            "sigio.read.mb_per_s": (rate(r_bytes, r_ns), "MB/s", "measured"),
            "sigio.read.rows": (sum(c[n]["rows"] for n in SIGIO_READERS) * per, "row", "computed"),
            "scenarios.run_scenario.write_ms": (ms(self_ns["scenarios.run_scenario"]), "ms", "measured"),
            "scenarios.artifact_bytes": (run["artifact_bytes"] * per, "B", "computed"),
            "scenarios.execute_scenario.self_ms": (ms(self_ns["scenarios.execute_scenario"]), "ms", "measured"),
            "scenarios.verify_run.self_ms": (ms(self_ns["scenarios.verify_run"]), "ms", "measured"),
            "scenarios.validate.ms": (ms(total["scenarios.ScenarioConfig.validate"]), "ms", "measured"),
            "cli.main.self_ms": (ms(self_ns["cli.main"]), "ms", "measured"),
            f"{dft}.calls": (calls(dft), "count", "computed"),
            f"{dft}.ms": (ms(total[dft]), "ms", "measured"),
            f"{dft}.flops": (c[dft]["flops"] * per, "flop", "computed"),
            "spectrum.guard_fft.calls": (guard_calls * per, "count", "computed"),
            "spectrum.guard_fft.ms": (ms(guard_ns), "ms", "measured"),
            "spectrum.fft_useful_frac": (frac(c[dft]["calls"] - guard_calls, c[dft]["calls"]), "ratio", "computed"),
        }
        for name, extra in (
            ("signals.generate_baseband", ("macs", "mac")),
            ("signals.oscillator", None),
            ("filters.apply_filter", ("macs", "mac")),
        ):
            m[f"{name}.calls"] = (calls(name), "count", "computed")
            m[f"{name}.ms"] = (ms(total[name]), "ms", "measured")
            if extra:
                m[f"{name}.{extra[0]}"] = (c[name][extra[0]] * per, extra[1], "computed")
        post = c["signals.ComplexSignal.__post_init__"]
        m["signals.ComplexSignal.constructed"] = (post["calls"] * per, "count", "computed")
        m["signals.ComplexSignal.bytes_copied"] = (post["bytes_copied"] * per, "B", "computed")
        for name in (
            "complexcarrier.band_move",
            "complexcarrier.complex_modulate",
            "complexcarrier.dual_modulate",
            "complexcarrier.dual_demodulate",
            "realcarrier.real_modulate",
            "realcarrier.real_demodulate",
        ):
            m[f"{name}.self_ms"] = (ms(self_ns[name]), "ms", "measured")
        m["filters.design_lowpass.calls"] = (calls("filters.design_lowpass"), "count", "computed")
        m["filters.design_lowpass.ms"] = (ms(total["filters.design_lowpass"]), "ms", "measured")
        m["filters.design_lowpass.distinct_frac"] = (frac(distinct, design["calls"]), "ratio", "computed")
        for name in ("polarization.transmit", "polarization.detect_handedness"):
            m[f"{name}.ms"] = (ms(total[name]), "ms", "measured")
        return m
