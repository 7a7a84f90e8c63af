"""numpy loads with the solver's names only.

The verdicts, parities, counts and moment-curve enumerations are exact
and never touch numpy; only hyperbisect.testmap does.  The package and
the CLI resolve the testmap names on first access (PEP 562), so a
command that never solves starts without numpy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import hyperbisect
import hyperbisect.cli as cli
from hyperbisect import testmap

# every CLI command that never solves, with a zero exit code
EXACT_COMMANDS = [
    ["lambda", "check", "2", "4", "2"],
    ["lambda", "table", "--k", "2", "--jmax", "6"],
    ["lambda", "figure", "--k", "2", "--jmax", "6", "--out", "FIGURE"],
    ["count", "3", "2", "--ell", "1"],
    ["parity", "lemma1", "3", "2"],
    ["parity", "lemma2", "3", "2", "1"],
    ["ideal", "member", "2", "4", "2"],
    ["enumerate", "2", "2", "--params", "1,2,3,4,5,6,7,8"],
]

# run in a fresh interpreter: argv[1] is a JSON list of exact commands,
# argv[2] the solve command; prints whether numpy was loaded after each
# stage, with the exit codes
_CHILD = """
import contextlib, io, json, sys
loaded = lambda: 'numpy' in sys.modules
import hyperbisect
after_package = loaded()
import hyperbisect.cli as cli
after_cli = loaded()
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
after_exact = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    solve_code = cli.main(json.loads(sys.argv[2]))
print(json.dumps({"after_package": after_package, "after_cli": after_cli,
                  "codes": codes, "after_exact": after_exact,
                  "solve_code": solve_code, "after_solve": loaded()}))
"""


def _write_line_instance(path) -> None:
    # two measures on the line, each split by one point at the origin
    measures = [{"points": [{"x": [x], "w": 1.0} for x in xs]}
                for xs in ((-2.0, -1.0, 1.0, 2.0), (-3.0, 3.0))]
    path.write_text(json.dumps({"d": 1, "measures": measures}))


def test_numpy_loads_only_when_the_cli_solves(tmp_path):
    figure = str(tmp_path / "frontier.svg")
    exact = [[figure if a == "FIGURE" else a for a in argv]
             for argv in EXACT_COMMANDS]
    instance = tmp_path / "line.json"
    _write_line_instance(instance)
    solve = ["solve", "--input", str(instance), "--k", "1", "--restarts", "2"]
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(hyperbisect.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(exact),
                           json.dumps(solve)], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    got = json.loads(proc.stdout)
    assert got["after_package"] is False, "import hyperbisect loads numpy"
    assert got["after_cli"] is False, "import hyperbisect.cli loads numpy"
    assert got["codes"] == [0] * len(EXACT_COMMANDS)
    assert got["after_exact"] is False, "an exact command loaded numpy"
    assert got["solve_code"] == 0
    assert got["after_solve"] is True


def test_every_exported_name_resolves():
    for name in hyperbisect.__all__:
        assert getattr(hyperbisect, name) is not None, name
    assert set(hyperbisect.__all__) <= set(dir(hyperbisect))
    namespace: dict = {}
    exec("from hyperbisect import *", namespace)
    assert set(hyperbisect.__all__) <= set(namespace)


def test_lazy_names_are_the_testmap_objects():
    assert hyperbisect.solve_bisection is testmap.solve_bisection
    assert hyperbisect.SolverConfig is testmap.SolverConfig
    assert cli.solve_bisection is testmap.solve_bisection
    assert cli.SolverConfig is testmap.SolverConfig
    assert cli.measures_from_jsonable is testmap.measures_from_jsonable


@pytest.mark.parametrize("module", [hyperbisect, cli])
def test_unknown_names_still_raise_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name  # noqa: B018


def test_solve_calls_the_module_attribute(monkeypatch, tmp_path, capsys):
    # a wrapper set on hyperbisect.cli.solve_bisection from outside (the
    # benchmark's tracer does this) must see the CLI's solve
    calls = []
    real = testmap.solve_bisection

    def wrapper(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_bisection", wrapper)
    instance = tmp_path / "line.json"
    _write_line_instance(instance)
    code = cli.main(["solve", "--input", str(instance), "--k", "1",
                     "--restarts", "2"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "SUCCESS"
    assert calls == [1]
