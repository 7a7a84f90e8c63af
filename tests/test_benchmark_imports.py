"""Every hyperbisect name the benchmark imports still exists in the package.

The benchmark under perfbench/ imports library names directly, so a
name that leaves src/ (or leaves the module it is imported from) breaks
the benchmark without failing any library test.  This module parses
each perfbench/*.py file with ast, without running it, and resolves
every `import hyperbisect...` and `from hyperbisect... import name`,
and every attribute read through a hyperbisect module bound that way
(`verdicts.certificate_checks` after `from hyperbisect import verdicts`).
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _ours(module: str | None) -> bool:
    return module is not None and module.split(".")[0] == "hyperbisect"


def _lookup(module: str, name: str):
    """module.name as an attribute or as a submodule; None when neither."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def _unresolved(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    missing, bound = [], {}  # bound: local name -> hyperbisect module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _ours(alias.name):
                    module = importlib.import_module(alias.name)
                    bound[alias.asname or alias.name] = module
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and _ours(node.module):
            for alias in node.names:
                value = _lookup(node.module, alias.name)
                if value is None:
                    missing.append(f"from {node.module} import {alias.name}")
                elif isinstance(value, types.ModuleType):
                    bound[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            module = bound[node.value.id]
            if _lookup(module.__name__, node.attr) is None:
                missing.append(f"{module.__name__}.{node.attr}")
    return missing


def _sources() -> list[Path]:
    return sorted(PERFBENCH.glob("*.py"))


def test_the_benchmark_imports_the_package():
    # the scan below would pass vacuously on files that import nothing
    names = [p.name for p in _sources()
             if "hyperbisect" in p.read_text(encoding="utf-8")]
    assert {"checks.py", "workloads.py", "test_perfbench.py"} <= set(names)


@pytest.mark.parametrize("path", _sources(), ids=lambda p: p.name)
def test_every_imported_name_resolves(path):
    assert _unresolved(path) == []


def test_a_missing_name_is_reported(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from hyperbisect.momentcurve import NoSuchName\n"
                      "from hyperbisect import verdicts\n"
                      "verdicts.verdict(1, 1, 1)\n"
                      "verdicts.no_such_function()\n", encoding="utf-8")
    assert _unresolved(source) == [
        "from hyperbisect.momentcurve import NoSuchName",
        "hyperbisect.verdicts.no_such_function"]
