"""Every name the benchmark's tracer wraps still exists in the package.

perfbench/tracer.py wraps library functions at the module attributes
through which their callers look them up.  A name that leaves src/
breaks traced benchmark runs without failing any library test, so this
module loads the tracer by file path, reads its WRAPPED table and
resolves every entry.  It only reads the tracer; nothing is wrapped.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPPED


def test_tracer_table_is_not_empty():
    assert len(_wrapped()) >= 20


@pytest.mark.parametrize("module, attribute, span", _wrapped(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_wrapped_name_resolves(module, attribute, span):
    target = getattr(importlib.import_module(module), attribute, None)
    assert callable(target), f"{module}.{attribute} ({span}) is gone"
