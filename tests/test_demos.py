"""Smoke tests: every script in demos/, README's Library quick tour and
every command of README's command-line block run to completion."""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import hyperbisect
from hyperbisect.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text()


def _readme_block(heading: str, fence: str) -> str:
    section = README.split(heading, 1)[1]
    return section.split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def test_demos_are_found():
    assert [p.name for p in DEMOS] == ["certificates_and_frontier.py",
                                       "exact_enumeration.py",
                                       "numerical_solver.py"]


def _run_child(argv, cwd):
    # the child imports the same hyperbisect as this process, and fails
    # on a warning, as in-process tests do
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(hyperbisect.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-W", "error", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # it runs in tmp_path because a demo writes its figure to the working
    # directory
    proc = _run_child([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_tour_runs_and_prints_what_it_says(tmp_path):
    code = _readme_block("## Library quick tour", "python")
    proc = _run_child(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    # the first print's comment is the line it prints
    said = next(line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(") and "#" in line)
    assert proc.stdout.splitlines()[0] == said


def _readme_commands():
    """Each hyperbisect line of README's command-line block, with the
    comment lines right after it: the stdout it prints."""
    commands, said = [], None
    for line in _readme_block("## Command-line interface", "sh").splitlines():
        if line.startswith("hyperbisect "):
            said = []
            commands.append((line.split("#", 1)[0].strip(), said))
        elif line.startswith("# ") and said is not None:
            said.append(line[2:])
        else:  # a blank line ends a command's output
            said = None
    return commands


def test_readme_command_block_is_found():
    commands = _readme_commands()
    assert len(commands) == 9
    said = {cmd: lines for cmd, lines in commands if lines}
    assert said == {
        "hyperbisect lambda check 2 4 2": ["(d=2, j=4, k=2): IN",
                                           "certificate: THM25_I(d0=2, a=1)"],
        "hyperbisect ideal member 2 3 2": [
            "member=false surviving_monomials=2"]}


def _subcommand(command: str) -> str:
    words = command.split()[1:3]
    return " ".join(words if words[1].isidentifier() else words[:1])


@pytest.mark.parametrize("command, said", [
    pytest.param(cmd, said, id=_subcommand(cmd))
    for cmd, said in _readme_commands()])
def test_readme_command_runs(command, said, tmp_path, monkeypatch, capsys):
    # in a fresh working directory holding README's solver input as
    # measures.json; the example solve may report NOT_FOUND (exit 1)
    (tmp_path / "measures.json").write_text(
        _readme_block("### Solver input format", "json"))
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(command)[1:]
    code = main(argv)
    out = capsys.readouterr().out
    assert code in ((0, 1) if argv[0] == "solve" else (0,))
    if said:
        assert out.splitlines() == said


@pytest.mark.xfail(strict=True, reason="the solver never bisects a one-point "
                   "measure, and README's second measure is one point")
def test_readme_solve_example_finds_a_bisection(tmp_path, monkeypatch,
                                                capsys):
    # passes once the solver can bisect a point mass; then drop the mark
    # and README's NOT_FOUND note
    (tmp_path / "measures.json").write_text(
        _readme_block("### Solver input format", "json"))
    monkeypatch.chdir(tmp_path)
    command = next(cmd for cmd, _ in _readme_commands()
                   if cmd.split()[1] == "solve")
    code = main(shlex.split(command)[1:])
    assert json.loads(capsys.readouterr().out)["status"] == "SUCCESS"
    assert code == 0
