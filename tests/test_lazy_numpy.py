"""Each import loads only the layers its caller uses; numpy only for solve.

The verdicts, parities, counts and moment-curve enumerations are exact
and never touch numpy; only hyperbisect.testmap does.  The package and
the CLI resolve every library name on first access (PEP 562), so
``import hyperbisect`` and ``import hyperbisect.cli`` load no library
module, and each command loads exactly the modules of its own layers,
which a fresh interpreter per command checks.  Only ``hyperbisect.*``
modules and numpy are compared, never what ``site`` happens to import,
and json is loaded only by commands that print or read JSON.
The CLI calls those names as its own module attributes, so a wrapper
set there from outside (the benchmark's tracer) sees every command.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import hyperbisect
import hyperbisect.cli as cli
from hyperbisect import momentcurve, parity, testmap
from test_tracer_names import _wrapped

# every CLI command that never solves (each exits 0), with the library
# modules it loads besides the CLI
EXACT_COMMANDS = {
    "lambda check 2 4 2": {"parity", "gf2poly", "verdicts"},
    "lambda table --k 2 --jmax 6": {"parity", "gf2poly", "verdicts"},
    "lambda figure --k 2 --jmax 6 --out FIGURE":
        {"parity", "gf2poly", "verdicts", "figures"},
    "count 3 2 --ell 1": {"parity"},
    "parity lemma1 3 2": {"parity"},
    "parity lemma2 3 2 1": {"parity"},
    "ideal member 2 4 2": {"parity", "gf2poly"},
    "enumerate 2 2 --params 1,2,3,4,5,6,7,8":
        {"parity", "momentcurve", "polynomials"},
}
SOLVE_COMMAND = "solve --input LINE --k 1 --restarts 2"
SOLVE_MODULES = {"testmap"}
# the commands that print or read JSON; the others never load json
JSON_COMMANDS = {"enumerate 2 2 --params 1,2,3,4,5,6,7,8", SOLVE_COMMAND}

# run in a fresh interpreter: each argument is a command, its words
# joined by \x1f, run in order; prints the hyperbisect.* modules (and
# numpy, if loaded) after importing the package, after importing the CLI
# and after each command, with the exit codes and whether json was loaded
# at start and after each command (the child imports json only to print)
_CHILD = """
import contextlib, io, sys
def loaded():
    return sorted(m for m in sys.modules
                  if m == "numpy" or m.startswith("hyperbisect."))
json_at_start = "json" in sys.modules
import hyperbisect
after_package = loaded()
import hyperbisect.cli as cli
after_cli = loaded()
codes, after, json_after = [], [], []
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv.split("\\x1f")))
    after.append(loaded())
    json_after.append("json" in sys.modules)
import json
print(json.dumps({"after_package": after_package, "after_cli": after_cli,
                  "codes": codes, "after": after,
                  "json_at_start": json_at_start, "json_after": json_after}))
"""


def _write_line_instance(path) -> None:
    # two measures on the line, each split by one point at the origin
    measures = [{"points": [{"x": [x], "w": 1.0} for x in xs]}
                for xs in ((-2.0, -1.0, 1.0, 2.0), (-3.0, 3.0))]
    path.write_text(json.dumps({"d": 1, "measures": measures}))


def _argv(command: str, tmp_path) -> list[str]:
    """The command's argv, with FIGURE and LINE made paths in tmp_path."""
    line = tmp_path / "line.json"
    if not line.exists():
        _write_line_instance(line)
    paths = {"FIGURE": str(tmp_path / "frontier.svg"), "LINE": str(line)}
    return [paths.get(a, a) for a in command.split()]


def _in_fresh_interpreter(commands: list[list[str]]) -> dict:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(hyperbisect.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _CHILD,
                           *("\x1f".join(argv) for argv in commands)],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(proc.stdout)


def test_numpy_loads_only_when_the_cli_solves(tmp_path):
    exact = [_argv(command, tmp_path) for command in EXACT_COMMANDS]
    got = _in_fresh_interpreter(exact + [_argv(SOLVE_COMMAND, tmp_path)])
    assert "numpy" not in got["after_package"], "import hyperbisect loads numpy"
    assert "numpy" not in got["after_cli"], "import hyperbisect.cli loads numpy"
    assert got["codes"] == [0] * (len(EXACT_COMMANDS) + 1)
    assert "numpy" not in got["after"][-2], "an exact command loaded numpy"
    assert "numpy" in got["after"][-1]


@pytest.mark.parametrize("command", [*EXACT_COMMANDS, SOLVE_COMMAND])
def test_import_footprint(command, tmp_path):
    got = _in_fresh_interpreter([_argv(command, tmp_path)])
    assert got["after_package"] == [], "import hyperbisect loads a submodule"
    assert got["after_cli"] == ["hyperbisect.cli"], \
        "import hyperbisect.cli loads a library module"
    assert got["codes"] == [0]
    if command == SOLVE_COMMAND:
        want = {f"hyperbisect.{m}" for m in SOLVE_MODULES} | {"numpy"}
    else:
        want = {f"hyperbisect.{m}" for m in EXACT_COMMANDS[command]}
    assert got["after"] == [sorted(want | {"hyperbisect.cli"})]
    # text parity lemma1 and the other text commands leave json unloaded
    assert got["json_after"] == [got["json_at_start"]
                                 or command in JSON_COMMANDS]


def test_every_exported_name_resolves():
    for name in hyperbisect.__all__:
        assert getattr(hyperbisect, name) is not None, name
    assert set(hyperbisect.__all__) <= set(dir(hyperbisect))
    namespace: dict = {}
    exec("from hyperbisect import *", namespace)
    assert set(hyperbisect.__all__) <= set(namespace)


def test_helpers_only_tests_call_are_not_exported():
    for name in ("digit_sum", "is_carry_free", "legendre_valuation",
                 "multinomial_valuation", "is_power_of_two",
                 "hyperplane_to_sphere_point", "measures_to_jsonable",
                 "GenericityWarning"):
        assert name not in hyperbisect.__all__, name
        with pytest.raises(AttributeError):
            getattr(hyperbisect, name)


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


def test_every_export_is_its_home_modules_object():
    # the package's table names, for each export, the module defining it
    for module, names in hyperbisect._EXPORTS.items():
        home = importlib.import_module(f"hyperbisect.{module}")
        for name in names:
            value = getattr(hyperbisect, name)
            assert value is getattr(home, name), name
            assert getattr(value, "__module__", home.__name__) \
                == home.__name__, name
    assert (hyperbisect.count_bisections is parity.count_bisections
            is momentcurve.count_bisections)


# a command calling each library name that the benchmark's tracer wraps
# on hyperbisect.cli, plus _bisection_table.  cli.main is the entry point
# itself; no command calls surviving_monomials (ideal member counts the
# survivors instead) or enumerate_bisections (enumerate renders the rank
# table of _bisection_table and builds no Arrangement)
UNCALLED = {"main", "surviving_monomials", "enumerate_bisections"}
CALLS = {
    "verdict": "lambda check 2 4 2",
    "frontier_table": "lambda table --k 2 --jmax 6",
    "frontier_svg": "lambda figure --k 2 --jmax 6 --out FIGURE",
    "ideal_member": "ideal member 2 4 2",
    "equal_blocks_parity": "parity lemma1 3 2",
    "anchored_blocks_parity": "parity lemma2 3 2 1",
    "count_bisections": "count 3 2 --ell 1",
    "_bisection_table": "enumerate 2 2 --params 1,2,3,4,5,6,7,8",
    "solve_bisection": SOLVE_COMMAND,
}


def test_every_traced_cli_name_has_a_command():
    traced = {attribute for module, attribute, _ in _wrapped()
              if module == "hyperbisect.cli"}
    assert traced - UNCALLED == set(CALLS) - {"_bisection_table"}
    assert UNCALLED <= traced


@pytest.mark.parametrize("name", CALLS)
def test_command_calls_the_module_attribute(name, monkeypatch, tmp_path,
                                            capsys):
    # a wrapper set on hyperbisect.cli from outside (the benchmark's tracer
    # does this) must see the command's call and change nothing it prints
    argv = _argv(CALLS[name], tmp_path)
    code = cli.main(argv)
    out = capsys.readouterr().out
    calls = []
    real = getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    assert cli.main(argv) == code == 0
    assert capsys.readouterr().out == out
    assert len(calls) == 1
