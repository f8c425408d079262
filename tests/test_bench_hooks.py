"""The names the benchmark's tracer hooks into must exist in carrierlab.

``perfbench/tracer.py`` wraps carrierlab functions by name and derives
per-layer metrics from their calls.  A renamed or deleted function is not an
error there: its metric reads zero on every run, and zero repeats, so the
benchmark's own self-test does not notice.  These tests read the tracer's
tables and resolve every name in them.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from carrierlab import signals

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
