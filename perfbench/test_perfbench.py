"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from hyperbisect.momentcurve import GenericityWarning, well_separated_family  # noqa: E402
from hyperbisect.verdicts import Certificate, Status, verdict  # noqa: E402

from perfbench import compare, harness, speed, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def runs_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "RUNS_DIR", tmp_path)
    monkeypatch.setattr(workloads, "RUNS_DIR", tmp_path)
    return tmp_path


def test_metric_tables_match_benchmark_json():
    assert SPEC["workloads"] and {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace, capsys, runs_dir):
    assert harness.run(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                        "--trace", str(trace), "--size", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    record = json.loads((runs_dir / f"{workload}-seed3-trace{trace}.json").read_text())
    assert len(record["fingerprint"]) == 64
    assert record["metadata"]["src_lines"] > 0


def _ops(cls, seed=5):
    wl = cls(seed, "tiny")
    return wl, wl.make_ops()


def _with_status(v, status, certificate=None):
    bad = copy.copy(v)  # bypasses the dataclass's own consistency asserts
    object.__setattr__(bad, "status", status)
    if certificate is not None:
        object.__setattr__(bad, "certificate", certificate)
    return bad


def test_verdict_check_rejects_flipped_status():
    wl, _ = _ops(workloads.VerdictSweep)
    op_in = workloads.Op(0, "", ("verdict", 4, 8, 2))
    v = verdict(4, 8, 2)
    assert wl.check(op_in, (v, True)).ok
    assert not wl.check(op_in, (_with_status(v, Status.NOT_IN), True)).ok
    op_out = workloads.Op(1, "", ("verdict", 1, 3, 2))
    v = verdict(1, 3, 2)
    assert wl.check(op_out, (v, True)).ok
    flipped = _with_status(v, Status.UNKNOWN, Certificate("NONE"))
    assert not wl.check(op_out, (flipped, True)).ok
    assert not wl.check(op_out, (v, False)).ok  # certificate_checks said no


def test_table_checks_reject_a_changed_cell():
    wl, ops = _ops(workloads.VerdictSweep)
    golden = next(op for op in ops if op.args == ("table", 2, 40))
    table = wl.run(golden)
    assert wl.check(golden, table).ok
    rows = list(table.rows)
    rows[6] = dataclasses.replace(rows[6], d_thm1=rows[6].d_thm1 + 1)
    bad = dataclasses.replace(table, rows=tuple(rows))
    assert not wl.check(golden, bad).ok
    other = workloads.Op(9, "", ("table", 2, 41))
    assert wl.check(other, wl.run(other)).ok
    table = wl.run(other)
    rows = list(table.rows)
    rows[6] = dataclasses.replace(rows[6], d_thm1=rows[6].d_thm1 + 1)
    assert not wl.check(other, dataclasses.replace(table, rows=tuple(rows))).ok


def test_enumerate_check_rejects_missing_or_warned_arrangements():
    wl, ops = _ops(workloads.MomentEnumerate)
    op = next(o for o in ops if o.args[:3] == (2, 2, 1))
    arrangements, caught = wl.run(op)
    assert wl.check(op, (arrangements, caught)).ok
    assert not wl.check(op, (arrangements[:-1], caught)).ok
    assert not wl.check(op, (arrangements[:-1] + arrangements[:1], caught)).ok
    with warnings.catch_warnings(record=True) as extra:
        warnings.simplefilter("always")
        warnings.warn("dropped", GenericityWarning)
    assert not wl.check(op, (arrangements, extra)).ok


def test_solve_check_rejects_perturbed_direction_and_false_success():
    wl, ops = _ops(workloads.SolveCertified)
    op = next(o for o in ops if o.args[0] == "d1j2k2n500")
    result = wl.run(op)
    assert result.success and wl.check(op, result).ok
    moved = np.array(result.directions)
    moved[0] = [1.0, 1e3]  # one cut point far left of every measure
    moved[0] /= np.linalg.norm(moved[0])
    assert not wl.check(op, dataclasses.replace(result, directions=moved)).ok
    atoms = next(o for o in ops if o.args[0] == "atoms3")
    assert wl.check(atoms, wl.run(atoms)).ok
    assert not wl.check(atoms, result).ok  # SUCCESS on an infeasible input


def test_cli_check_rejects_changed_output(runs_dir):
    wl, ops = _ops(workloads.CliSession)
    try:
        for op in ops:
            code, stdout, figure = wl.run(op)
            assert wl.check(op, (code, stdout, figure)).ok, op.label
        assert not wl.check(op, (code, stdout + " ", figure)).ok
        assert not wl.check(op, (code + 1, stdout, figure)).ok
    finally:
        wl.close()


def test_traced_spans_nest_and_self_time_is_nonnegative():
    from hyperbisect import momentcurve, verdicts
    original = momentcurve.enumerate_bisections
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("op", 0):
            momentcurve.enumerate_bisections(well_separated_family(2, 2, 1), 2)
            verdicts.verdict(40, 70, 2)
    assert momentcurve.enumerate_bisections is original
    spans = {s[0]: s for s in tracer.spans}
    assert len(spans) == sum(tracer.calls.values()) > 10
    children: dict = {}
    for sid, name, start, end, parent, op, self_ns in spans.values():
        assert start <= end and self_ns >= 0 and op == 0
        if parent is not None:
            p = spans[parent]
            assert p[2] <= start and end <= p[3]
            children.setdefault(parent, []).append(end - start)
    for parent, durations in children.items():
        p = spans[parent]
        assert p[6] == p[3] - p[2] - sum(durations)
    assert tracer.calls["polynomials.count_roots_open"] > 0
    assert tracer.calls["gf2poly.ideal_member"] > 0


def test_meter_speed_takes_samples_around_long_calls_and_a_window_for_short():
    meter = speed.Meter()
    meter.times = [float(t) for t in range(40)]
    meter.speeds = [1.0] * 30 + [2.0] * 10
    # 0.05 s from t = 32.5: the last WINDOW samples up to t = 32
    expected = (1.0 * (speed.WINDOW - 3) + 2.0 * 3) / speed.WINDOW
    assert meter.speed(32.5, 32.5 + speed.LONG_S / 2) == pytest.approx(expected)
    # 3 s from t = 28.5: t = 28 before, 29 to 31 during, 32 after
    assert meter.speed(28.5, 31.5) == pytest.approx((2 * 1.0 + 3 * 2.0) / 5)


class _Sleeps:
    """Two operations, one short and one long; outputs never change."""

    name = "sleeps"

    def run(self, op):
        time.sleep(op.args[0])

    def check(self, op, out):
        return workloads.Checked(True, "")


def test_short_operations_get_more_samples_than_long_ones():
    ops = [workloads.Op(0, "short", (0.0,)), workloads.Op(1, "long", (0.2,))]
    phase = harness.timed_phase(_Sleeps(), ops, 1.0)
    short, long = (len(s) for s in phase.samples)
    assert phase.failed == 0 and phase.passes == short
    assert long >= 2  # 0.2 s is below SAMPLED_S, so it runs again
    assert 10 * long < short
    assert phase.wall() == pytest.approx(sum(phase.per_op()))


def test_compare_refuses_different_fingerprints(tmp_path, capsys):
    record = {"workload": "verdict-sweep", "seed": 1, "fingerprint": "a" * 64,
              "metrics": {m["name"]: 1.0 for m in SPEC["end_to_end"]}}
    for name, fp in (("a", "a" * 64), ("b", "b" * 64)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "verdict-sweep-seed1-trace0.json").write_text(
            json.dumps(dict(record, fingerprint=fp)))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
    assert "refusing" in capsys.readouterr().out


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "verdict-sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
