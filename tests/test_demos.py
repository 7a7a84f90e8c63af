"""Smoke tests: every script in demos/ and README's Library quick tour
run to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperbisect

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert [p.name for p in DEMOS] == ["certificates_and_frontier.py",
                                       "exact_enumeration.py",
                                       "numerical_solver.py"]


def _run_child(argv, cwd):
    # the child imports the same hyperbisect as this process
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(hyperbisect.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # it runs in tmp_path because a demo writes its figure to the working
    # directory
    proc = _run_child([str(demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_tour_runs_and_prints_what_it_says(tmp_path):
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    proc = _run_child(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    # the first print's comment is the line it prints
    said = next(line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(") and "#" in line)
    assert proc.stdout.splitlines()[0] == said
