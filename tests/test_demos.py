"""Smoke test: every script in demos/ runs to completion."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hyperbisect

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert [p.name for p in DEMOS] == ["certificates_and_frontier.py",
                                       "exact_enumeration.py",
                                       "numerical_solver.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # the child imports the same hyperbisect as this process; it runs in
    # tmp_path because a demo writes its figure to the working directory
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(hyperbisect.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
