"""The names the benchmark's tracer hooks into must exist in carrierlab.

``perfbench/tracer.py`` wraps carrierlab functions by name and derives
per-layer metrics from their calls.  A renamed or deleted function is not an
error there: its metric reads zero on every run, and zero repeats, so the
benchmark's own self-test does not notice.  These tests read the tracer's
tables and the per-layer metric names in ``BENCHMARK.json`` and resolve
every name in them.
"""

import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

from carrierlab import signals

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
#: per-layer metrics that name no function: the tracer computes them over
#: several functions, a method, the run directory or the process
COMPUTED_METRICS = (
    "sigio.write.",
    "sigio.read.",
    "scenarios.artifact_bytes",
    "scenarios.validate.ms",
    "spectrum.guard_fft.",
    "spectrum.fft_useful_frac",
    "signals.ComplexSignal.",
    "setup.",
    "trace.overhead_frac",
)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _hooked_names():
    names = {*tracer.COUNTERS, *tracer.SIGIO_WRITERS, *tracer.SIGIO_READERS}
    names |= {".".join(method) for method in tracer.METHODS}
    return sorted(names)


@pytest.mark.parametrize("name", _hooked_names())
def test_hooked_name_resolves(name):
    module_name, *path = name.split(".")
    module = importlib.import_module(f"carrierlab.{module_name}")
    assert module_name in tracer.MODULES
    if len(path) == 1:
        # the tracer wraps only public functions defined in the module itself
        fn = vars(module).get(path[0])
        assert inspect.isfunction(fn), name
        assert fn.__module__ == module.__name__, name
        assert not path[0].startswith("_"), name
    else:
        cls_name, attr = path
        assert (module_name, cls_name, attr) in tracer.METHODS, name
        assert inspect.isfunction(vars(getattr(module, cls_name)).get(attr)), name


def test_baseband_counter_reads_shaping_as_third_positional():
    params = list(inspect.signature(signals.generate_baseband).parameters.values())
    assert params[2].name == "shaping"
    assert params[2].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def _per_layer_names():
    return [metric["name"] for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


@pytest.mark.parametrize("name", [n for n in _per_layer_names() if not n.startswith(COMPUTED_METRICS)])
def test_per_layer_metric_names_a_public_function(name):
    # <module>.<function>.<stat>: a deleted or renamed function would read
    # zero on every run and fail nothing else
    module_name, fn_name, _stat = name.split(".")
    module = importlib.import_module(f"carrierlab.{module_name}")
    fn = vars(module).get(fn_name)
    assert inspect.isfunction(fn), name
    assert fn.__module__ == module.__name__, name
    assert not fn_name.startswith("_"), name


@pytest.mark.parametrize("prefix", COMPUTED_METRICS)
def test_every_computed_metric_exception_is_in_use(prefix):
    assert any(name.startswith(prefix) for name in _per_layer_names())
