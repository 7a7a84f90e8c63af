"""Run one workload: set up, time closed-loop passes, check, report.

One caller, one operation at a time, each starting after the previous one
finished; no threads or pools.  The timed phase repeats passes over the
workload's fixed list of operations while another pass still fits in
``--seconds``, judged by what its operations took last time (at least one
pass).  The first pass runs every operation; later ones only those whose
raw seconds add up to less than SAMPLED_S (doubled whenever none is left),
so a short operation gets many samples spread over the run and a long one,
whose single time already averages a quarter second or more of machine
noise, few.  An operation's time is the median of its samples, so every
metric describes the same fixed amount of work whatever the speed of the
program and however many passes fit.

Times are reported at a reference machine speed: each operation's raw
seconds are scaled by the machine speed a calibration loop measured around
it and while it ran (see ``speed.py``).  Raw seconds per pass stay in the
run record.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` an untraced phase is followed by one traced pass, and
the last line carries the per-layer metrics; the traced run feeds no
end-to-end metric.  Every run also writes a record (metrics, run metadata,
per-operation times, the result fingerprint) to ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .speed import Meter, at_reference_speed, pin_to_one_cpu
from .tracer import Tracer
from .workloads import SOLVE_SHAPES, WORKLOADS, Checked, child_env

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / "perfbench" / "runs"

# name -> unit; every workload reports every one (README.md says what each means)
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "results_per_s": "1/s",
    "found_ratio": "ratio",
}

PER_LAYER = {
    "gf2poly.ideal_member.calls": "count",
    "gf2poly.ideal_member.s": "s",
    "gf2poly.calls_per_verdict": "ratio",
    "gf2poly.surviving_monomials.s": "s",
    "parity.s": "s",
    "verdicts.verdict.calls": "count",
    "verdicts.verdict.self_s": "s",
    "verdicts.certificate_checks.s": "s",
    "verdicts.frontier_table.s": "s",
    "polynomials.count_roots_open.calls": "count",
    "polynomials.count_roots_open.s": "s",
    "polynomials.count_roots_open.distinct_ratio": "ratio",
    "momentcurve.hyperplane_through.calls": "count",
    "momentcurve.hyperplane_through.s": "s",
    "momentcurve.distinct_hyperplane_ratio": "ratio",
    "momentcurve.verify_bisection.calls": "count",
    "momentcurve.verify_bisection.self_s": "s",
    "momentcurve.enumerate.self_s": "s",
    "momentcurve.accept_ratio": "ratio",
    "testmap.solve.s": "s",
    "testmap.restarts": "count",
    "testmap.s_per_restart": "s",
    "testmap.phi.calls": "count",
    "testmap.phi.s": "s",
    **{f"testmap.found.{shape}": "ratio" for shape in SOLVE_SHAPES
       if shape != "atoms3"},
    "testmap.phi_probe.us_per_call": "us",
    "testmap.phi_probe.bytes_per_call": "B-computed",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.import_overhead_s": "s",
    "cli.numpy_loaded": "flag",
    "figures.frontier_svg.s": "s",
    "trace.overhead_ratio": "ratio",
}

OP_CAP_S = 60.0  # an operation running longer fails
PHASE_CAP_S = 110.0  # operations not started by then fail, so a run ends in time
SAMPLED_S = 0.25  # an operation runs in every pass until its raw seconds add up to this
SETUP_REPEATS = 5
TAIL_BEYOND = 10


@dataclass
class Phase:
    """What one timed phase measured and what its checks said."""

    passes: int = 0
    samples: list = field(default_factory=list)  # per op: reference seconds per pass
    raw_pass_s: list = field(default_factory=list)  # per pass: raw seconds
    speed: list = field(default_factory=list)  # per op run: speed factor
    checked: list = field(default_factory=list)  # per op: first pass's Checked
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    rss_mb: float = 0.0  # peak resident memory when the first pass ended

    def per_op(self) -> list[float]:
        return [statistics.median(s) for s in self.samples]

    def wall(self) -> float:
        return sum(self.per_op())


def timed_phase(wl, ops, seconds: float, tracer=None, max_passes=None) -> Phase:
    phase = Phase(samples=[[] for _ in ops], checked=[None] * len(ops))
    meter = Meter(OP_CAP_S)
    took = [0.0] * len(ops)  # per op: seconds its last run and check took
    raw_sums = [0.0] * len(ops)
    runs = []  # per op run: op index, raw seconds, start and end
    start = time.perf_counter()
    target = SAMPLED_S
    while True:
        while not (todo := [i for i, s in enumerate(raw_sums) if s < target]):
            target *= 2
        if phase.passes and (
                phase.passes == max_passes
                or time.perf_counter() - start + sum(took[i] for i in todo) > seconds):
            break
        raw_pass = 0.0
        for i in todo:
            op = ops[i]
            op_start = time.perf_counter()
            phase.attempted += 1
            error = None
            if time.perf_counter() - start > PHASE_CAP_S:
                error, dt, interval = "not started: phase cap", PHASE_CAP_S, None
            else:
                span = tracer.span("op", op.id) if tracer else contextlib.nullcontext()
                try:
                    with span:
                        out = meter.measure(wl.run, op)
                except Exception as exc:  # an operation that raises is a failed one
                    error = f"{type(exc).__name__}: {exc}"
                dt, interval = meter.raw_s, meter.span
            raw_pass += dt
            raw_sums[i] += dt
            runs.append((i, dt, interval))
            if error is None:
                span = (tracer.span("check", op.id) if tracer
                        else contextlib.nullcontext())
                try:
                    with span:
                        c = wl.check(op, out)
                except Exception as exc:  # a check that cannot read the output
                    c, error = Checked(False, "check raised"), repr(exc)
            else:
                c = Checked(False, f"error: {error}")
            first = phase.checked[i]
            if first is None:
                phase.checked[i] = c
            elif c.canonical != first.canonical:
                c.ok, error = False, "output differs from the first pass"
            if not c.ok:
                phase.failed += 1
                if len(phase.failures) < 20:
                    phase.failures.append({"op": op.label,
                                           "error": error or "check failed"})
            took[i] = time.perf_counter() - op_start
        phase.passes += 1
        phase.raw_pass_s.append(raw_pass)
        if phase.passes == 1:
            phase.rss_mb = peak_rss_mb(wl.name == "cli-session")
    meter.finish()
    for i, dt, interval in runs:
        speed = meter.speed(*interval) if interval else 1.0
        phase.speed.append(speed)
        phase.samples[i].append(dt * speed)
    return phase


def tail(values: list[float]) -> tuple[float, float]:
    """Value with TAIL_BEYOND values beyond it, and its percentile; the
    maximum when there are too few values."""
    ordered = sorted(values)
    n = len(ordered)
    idx = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n


def fingerprint(phase: Phase) -> str:
    h = hashlib.sha256()
    for c in phase.checked:
        h.update(c.canonical.encode())
        h.update(b"\0")
    return h.hexdigest()


def _python(code: str) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    return time.perf_counter() - t0, proc.stdout


_IMPORT_PROBE = "from perfbench.speed import import_probe; import_probe()"


def import_seconds() -> float:
    """Import time of the CLI and the package, in a fresh interpreter."""
    return float(_python(_IMPORT_PROBE)[1].split()[0])


def _make(workload_cls, seed: int, size: str):
    wl = workload_cls(seed, size)
    return wl, wl.make_ops()


def setup(workload_cls, seed: int, size: str):
    """Median import time plus median input generation, SETUP_REPEATS each."""
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    gens = []
    for _ in range(SETUP_REPEATS):
        (wl, ops), seconds = at_reference_speed(_make, workload_cls, seed, size)
        gens.append(seconds)
        if hasattr(wl, "close") and len(gens) < SETUP_REPEATS:
            wl.close()
    return statistics.median(imports) + statistics.median(gens), wl, ops


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(wl, ops, phase: Phase, setup_s: float) -> tuple[dict, dict]:
    per_op = phase.per_op()
    wall = sum(per_op)
    tail_s, tail_pct = tail(per_op)
    results = sum(c.results for c in phase.checked)
    found = sum(c.found for c in phase.checked)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": phase.rss_mb,
        "ok_ratio": 1.0 - phase.failed / phase.attempted,
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "results_per_s": results / wall,
        "found_ratio": found / sum(op.eligible for op in ops),
    }
    extra = {"tail_percentile": tail_pct, "operations": len(ops),
             "results": results, "found": found,
             "eligible": sum(op.eligible for op in ops),
             "fail_ratio": phase.failed / phase.attempted}
    return values, extra


def cli_probe() -> dict:
    """Start-up of a bare interpreter against one that imports the CLI."""
    bare = statistics.median(at_reference_speed(_python, "pass")[1]
                             for _ in range(3))
    code = "import sys, hyperbisect.cli; print(int('numpy' in sys.modules))"
    runs = [at_reference_speed(_python, code) for _ in range(3)]
    with_cli = statistics.median(seconds for _, seconds in runs)
    return {"cli.interpreter_s": bare, "cli.import_s": with_cli,
            "cli.import_overhead_s": with_cli - bare,
            "cli.numpy_loaded": float(runs[0][0][1])}


def per_layer(tr, wl, ops, plain: Phase, traced: Phase) -> dict:
    """Span totals of the one traced pass, seconds scaled by its mean speed."""
    speed = statistics.fmean(traced.speed)
    calls = tr.calls.get

    def secs(name):
        return tr.seconds(name) * speed

    def self_s(name):
        return tr.self_seconds(name) * speed

    def ratio(a, b):
        return a / b if b else 0.0

    im = calls("gf2poly.ideal_member", 0)
    solves_s = secs("testmap.solve_bisection")
    restarts = tr.counted["testmap.solve_bisection"]
    values = {
        "gf2poly.ideal_member.calls": im,
        "gf2poly.ideal_member.s": secs("gf2poly.ideal_member"),
        "gf2poly.calls_per_verdict": ratio(im, calls("verdicts.verdict", 0)),
        "gf2poly.surviving_monomials.s": secs("gf2poly.surviving_monomials"),
        "parity.s": sum(secs(n) for n in tr.calls if n.startswith("parity.")),
        "verdicts.verdict.calls": calls("verdicts.verdict", 0),
        "verdicts.verdict.self_s": self_s("verdicts.verdict"),
        "verdicts.certificate_checks.s": secs("verdicts.certificate_checks"),
        "verdicts.frontier_table.s": secs("verdicts.frontier_table"),
        "polynomials.count_roots_open.calls": calls("polynomials.count_roots_open", 0),
        "polynomials.count_roots_open.s": secs("polynomials.count_roots_open"),
        "polynomials.count_roots_open.distinct_ratio": ratio(
            len(tr.distinct["polynomials.count_roots_open"]),
            calls("polynomials.count_roots_open", 0)),
        "momentcurve.hyperplane_through.calls": calls("momentcurve.hyperplane_through", 0),
        "momentcurve.hyperplane_through.s": secs("momentcurve.hyperplane_through"),
        "momentcurve.distinct_hyperplane_ratio": ratio(
            len(tr.distinct["momentcurve.hyperplane_through"]),
            calls("momentcurve.hyperplane_through", 0)),
        "momentcurve.verify_bisection.calls": calls("momentcurve.verify_bisection", 0),
        "momentcurve.verify_bisection.self_s": self_s("momentcurve.verify_bisection"),
        "momentcurve.enumerate.self_s": self_s("momentcurve.enumerate_bisections"),
        "momentcurve.accept_ratio": ratio(
            tr.counted["momentcurve.enumerate_bisections"],
            calls("momentcurve.verify_bisection", 0)),
        "testmap.solve.s": solves_s,
        "testmap.restarts": restarts,
        "testmap.s_per_restart": ratio(solves_s, restarts),
        "testmap.phi.calls": calls("testmap.phi", 0),
        "testmap.phi.s": secs("testmap.phi"),
        "figures.frontier_svg.s": secs("figures.frontier_svg"),
        "trace.overhead_ratio": traced.wall() / plain.wall(),
    }
    values.update(cli_probe())
    if hasattr(wl, "layer_metrics"):
        values.update(wl.layer_metrics(ops, traced.checked))
    # layers a workload never reaches read 0: calls and time are both none
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"  # not a git checkout


def metadata() -> dict:
    import numpy
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "git_sha": _git_sha(), "src_lines": src_lines}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description="hyperbisect benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every workload, for the benchmark's tests")
    return p.parse_args(argv)


def run(argv=None) -> int:
    args = parse_args(argv)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "metadata": metadata()}
    pin_to_one_cpu()
    setup_s, wl, ops = setup(WORKLOADS[args.workload], args.seed, args.size)
    try:
        if args.trace:
            plain = timed_phase(wl, ops, args.seconds / 2)
            tracer = Tracer()
            with tracer.installed():
                traced = timed_phase(wl, ops, 0, tracer=tracer, max_passes=1)
            values = per_layer(tracer, wl, ops, plain, traced)
            units = PER_LAYER
            phases = (plain, traced)
            spans = RUNS_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
            RUNS_DIR.mkdir(parents=True, exist_ok=True)
            tracer.write_spans(spans)
            record["spans"] = {"file": spans.name,
                               "kept": len(tracer.spans),
                               "total": sum(tracer.calls.values())}
        else:
            plain = timed_phase(wl, ops, args.seconds)
            values, extra = end_to_end(wl, ops, plain, setup_s)
            units = END_TO_END
            phases = (plain,)
            record.update(extra)
    finally:
        if hasattr(wl, "close"):
            wl.close()
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record.update({
        "fingerprint": fingerprint(plain),
        "passes": [p.passes for p in phases],
        "raw_pass_s": [p.raw_pass_s for p in phases],
        "mean_speed": [statistics.fmean(p.speed) for p in phases],
        "failures": [f for p in phases for f in p.failures],
        "op_samples_s": {f"{op.label} #{op.id}": s
                         for op, s in zip(ops, plain.samples)},
        "metrics": values,
    })
    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    out = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"record: {out}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0
