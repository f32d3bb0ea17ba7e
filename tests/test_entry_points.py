"""Every entry point that the benchmark's tracer wraps exists in finalg.

The tracer (``bench/tracer.py``) looks its entry points up by name and
skips a missing one, so a deleted or renamed function would only show as a
silently untraced layer.  This test reads the tracer's own tables and fails
on any name that no longer resolves.
"""

import importlib.util
from pathlib import Path

import pytest

import finalg

_TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("finalg_bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTIONS, module.METHODS


FUNCTIONS, METHODS = _tracer_tables()


@pytest.mark.parametrize(
    "module, attr", sorted({entry for entries in FUNCTIONS.values() for entry in entries})
)
def test_traced_function_exists(module, attr):
    assert callable(getattr(getattr(finalg, module), attr, None))


@pytest.mark.parametrize(
    "module, cls, attr", sorted({entry for entries in METHODS.values() for entry in entries})
)
def test_traced_method_is_defined_on_its_class(module, cls, attr):
    # The tracer wraps the method in the class's own namespace.
    assert callable(vars(getattr(getattr(finalg, module), cls)).get(attr))
