"""The benchmark's tracer wraps program functions by (module, attribute)
name.  A rename in `src/` must fail here, not silently break `--trace 1`."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_T = _tracer()


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _ in _T.FUNCTIONS + _T.CONSTRUCTORS]
)
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
