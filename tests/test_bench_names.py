"""The benchmark's tracer wraps program functions and methods by name
(``bench/spans.py``); every name it lists must exist, or a traced benchmark
run fails at install time."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("span", sorted(spans.FUNCTIONS))
def test_traced_function_resolves(span):
    module, attr = spans.FUNCTIONS[span]
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("span", sorted(spans.METHODS))
def test_traced_methods_are_defined_on_their_class(span):
    module, cls, methods = spans.METHODS[span]
    namespace = vars(getattr(importlib.import_module(module), cls))
    assert [m for m in methods if m not in namespace] == []
