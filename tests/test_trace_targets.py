"""The benchmark's tracer patches cfx functions by name: every name it lists
must exist, or ``bench/run.py --trace 1`` stops with an AttributeError."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "_bench_tracing",
    Path(__file__).resolve().parent.parent / "bench" / "tracing.py")
_T = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_T)


@pytest.mark.parametrize(
    "module, attr",
    [(m, a) for _, m, a in _T.SPAN_TARGETS] + list(_T.COUNT_TARGETS))
def test_trace_target_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), (module, attr)
