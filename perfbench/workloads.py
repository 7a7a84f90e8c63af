"""The four workloads: seeded inputs, the timed call, and the output check.

A workload turns ``--seed`` into a fixed list of operations at set-up.  The
harness times ``run(op)`` alone and calls ``check(op, out)`` afterwards,
outside the timed region.  Library functions are reached through their
module attributes (``verdicts.verdict``, not a name bound at import), so a
traced run sees every call.

``size="tiny"`` shrinks every list for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import statistics
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import hyperbisect.cli as cli
from hyperbisect import momentcurve, testmap, verdicts
from hyperbisect.momentcurve import (IntervalFamily, arrangement_to_jsonable,
                                     well_separated_family)
from hyperbisect.testmap import DiscreteMeasure, SolverConfig
from hyperbisect.verdicts import Status, frontier_csv

from . import checks
from .speed import at_reference_speed

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CSV = ROOT / "tests" / "data" / "frontier_k2_j40.csv"
RUNS_DIR = ROOT / "perfbench" / "runs"


@dataclass(frozen=True)
class Op:
    id: int
    label: str
    args: tuple
    eligible: int = 1  # answers that could come back positive


@dataclass
class Checked:
    ok: bool
    canonical: str  # what the fingerprint hashes
    results: int = 0  # checked results this operation contributes
    found: int = 0  # positive answers among them


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), one per equal-width stratum, in seeded order."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def _log_scale(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


class VerdictSweep:
    """Point queries verdict + certificate_checks, plus frontier tables.

    Cost grows with d (the engine scans d0 = 1..d), so d is drawn
    log-uniform with one draw per stratum, and in each block of eight
    neighbouring d the ratio d*k/j takes eight strata of [0.5, 3] and k
    each of 2..5 twice.  That keeps the share of NOT_IN queries and the
    total cost nearly equal from seed to seed while j spreads log-uniformly
    up to about 1e5; 768 of them, because the median query costs tens of
    microseconds and which queries sit around it varies with the seed.
    Twelve large-d UNKNOWN queries (k = 2, d from 3.2e4 to 5e4, like
    (100000, 199990, 2)) set the tail: each costs more than any table, so
    op_tail_ms, the eleventh-largest time, is always the second-smallest of
    them.  A few k = 1 and THM25_I-shaped queries make every certificate
    kind appear.
    """

    name = "verdict-sweep"

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        tiny = size == "tiny"
        self.n_main = 24 if tiny else 768
        self.n_tail = 2 if tiny else 12
        self.tail_d = (2_500, 4_000) if tiny else (32_000, 50_000)
        self.tables = () if tiny else (2, 3, 4)
        self.golden = GOLDEN_CSV.read_text(encoding="utf-8")

    def make_ops(self) -> list[Op]:
        rng = random.Random(self.seed)
        triples = []
        for u in _chunks(sorted(_stratified(rng, self.n_main)), 8):
            ratios = _stratified(rng, len(u))
            ks = [2 + i % 4 for i in range(len(u))]
            rng.shuffle(ks)
            for ud, ur, k in zip(u, ratios, ks):
                d = max(1, round(_log_scale(ud, 1, 1e4)))
                j = max(1, round(d * k / _log_scale(ur, 0.5, 3.0)))
                triples.append((d, j, k))
        lo, hi = self.tail_d
        for u in _stratified(rng, self.n_tail):
            d = round(lo + u * (hi - lo)) | 1  # odd, so never a power of two
            top = 1 << d.bit_length()  # d < top < j keeps THM1 and THM25_I off
            triples.append((d, rng.randint(top + 1, 2 * d), 2))
        for _ in range(4):
            j = round(_log_scale(rng.random(), 1, 1e4))
            triples.append((rng.randint(j, 2 * j), j, 1))  # HAM_SANDWICH
            a, k = rng.randint(1, 10), rng.randint(2, 5)
            triples.append(((1 << a) + rng.randint(0, 1 << a), (1 << a) * k, k))
        rng.shuffle(triples)
        ops = [Op(i, f"verdict {d} {j} {k}", ("verdict", d, j, k))
               for i, (d, j, k) in enumerate(triples)]
        for k in self.tables:
            j_max = 300 + rng.randint(-20, 20)
            ops.append(Op(len(ops), f"frontier_table {k} {j_max}",
                          ("table", k, j_max), eligible=0))
        ops.append(Op(len(ops), "frontier_table 2 40 (golden)",
                      ("table", 2, 40), eligible=0))
        return ops

    def run(self, op: Op):
        kind, *params = op.args
        if kind == "verdict":
            v = verdicts.verdict(*params)
            return v, verdicts.certificate_checks(v)
        return verdicts.frontier_table(*params)

    def check(self, op: Op, out) -> Checked:
        kind, *params = op.args
        if kind == "verdict":
            v, certified = out
            ok = certified and checks.verdict_ok(*params, v)
            return Checked(ok, json.dumps(v.to_jsonable(), sort_keys=True),
                           results=1, found=int(v.status is not Status.UNKNOWN))
        text = frontier_csv(out)
        if params == [2, 40]:
            ok = text == self.golden
        else:
            ok = checks.frontier_rows_ok(out, *params)
        return Checked(ok, text)


def _chunks(items: list, n: int):
    for i in range(0, len(items), n):
        yield items[i:i + n]


def _rational_family(rng: random.Random, d: int, k: int,
                     ell: int) -> IntervalFamily:
    """Endpoints p/q with q drawn from 101..997, about one unit apart and
    after the anchors, so Fractions are larger than in the integer family
    but of the same size from seed to seed."""
    j = d * k if ell == 0 else (d - ell) * k + ell
    params = []
    for i in range(2 * j):
        q = rng.randint(101, 997)
        params.append(Fraction(round((ell + i + rng.uniform(0.1, 0.9)) * q), q))
    return IntervalFamily(d=d, parameters=tuple(params), anchor_count=ell)


# (d, k, ell): the acceptance suite's count-law tuples, then the larger
# families whose enumeration dominates today
COUNT_LAW = ((1, 2, 0), (2, 2, 0), (1, 3, 0), (2, 3, 0),
             (2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 1))
LARGER = ((4, 2, 1), (2, 4, 0), (3, 3, 0))


class MomentEnumerate:
    """enumerate_bisections on whole families, integer and rational.

    Every family appears with integer endpoints (well_separated_family);
    all but (3,3,0) appear again with seeded rational endpoints, so a gain
    that holds only for small integers shows.
    """

    name = "moment-enumerate"

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        if size == "tiny":
            self.integer, self.rational = ((1, 2, 0), (2, 2, 0), (2, 2, 1)), ((2, 2, 0),)
        else:
            self.integer = COUNT_LAW + LARGER
            self.rational = COUNT_LAW + LARGER[:2]

    def make_ops(self) -> list[Op]:
        rng = random.Random(self.seed)
        cases = [(t, well_separated_family(*t), "integer") for t in self.integer]
        cases += [(t, _rational_family(rng, *t), "rational") for t in self.rational]
        return [Op(i, f"enumerate {d},{k},{ell} {kind}", (d, k, ell, fam),
                   eligible=checks.expected_arrangements(d, k, ell))
                for i, ((d, k, ell), fam, kind) in enumerate(cases)]

    def run(self, op: Op):
        d, k, ell, fam = op.args
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            arrangements = momentcurve.enumerate_bisections(fam, k)
        return arrangements, caught

    def check(self, op: Op, out) -> Checked:
        d, k, ell, _ = op.args
        arrangements, caught = out
        ok = checks.arrangements_ok(d, k, ell, arrangements, caught)
        text = json.dumps([arrangement_to_jsonable(a) for a in arrangements])
        return Checked(ok, text, results=len(arrangements),
                       found=len(arrangements))


def _blobs(seed: int, d: int, j: int, n: int) -> list[DiscreteMeasure]:
    """j Gaussian clouds of n unit-weight points around spread-out centres."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(j, d)) * 3
    return [DiscreteMeasure(c + rng.normal(size=(n, d)), np.ones(n))
            for c in centres]


def _disks(seed: int, n: int = 200) -> list[DiscreteMeasure]:
    """Criterion 9's desk-scale instance: four uniform disks on a 6x6 grid."""
    rng = np.random.default_rng(seed)
    out = []
    for cx, cy in ((0.0, 0.0), (6.0, 0.0), (0.0, 6.0), (6.0, 6.0)):
        r = np.sqrt(rng.uniform(size=n))
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        pts = np.stack([cx + r * np.cos(theta), cy + r * np.sin(theta)], axis=1)
        out.append(DiscreteMeasure(pts, np.ones(n)))
    return out


def _atom_pairs(rng: random.Random) -> list[DiscreteMeasure]:
    """Criterion 10's infeasible input: three unit-atom pairs on a line,
    spread out; no two cut points bisect all three."""
    starts = sorted(rng.uniform(0, 5) + 10 * i for i in range(3))
    return [DiscreteMeasure(np.array([[s], [s + 1.0]]), np.ones(2))
            for s in starts]


# shape name -> the triple (d, j, k) its verdict is checked for; the shapes
# that fail today stay in the suite
SOLVE_SHAPES = {
    "d2j4k2n200": (2, 4, 2),
    "d2j6k3n300": (2, 6, 3),
    "d4j8k2n300": (4, 8, 2),
    "d1j2k2n500": (1, 2, 2),
    "disk4": (2, 4, 2),
    "atoms3": (1, 3, 2),
}


class SolveCertified:
    """solve_bisection with the default SolverConfig (seed 0) on a fixed
    suite.

    The clouds of the shapes that fail today use the fixed seeds 100 and
    101, so found_ratio compares like with like between runs.  --seed
    draws the (1,2,2,500) clouds, the infeasible atom positions (always
    NOT_IN, so always NOT_FOUND) and the order of operations.
    """

    name = "solve-certified"
    tolerance = SolverConfig().tolerance

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.tiny = size == "tiny"

    def make_ops(self) -> list[Op]:
        rng = random.Random(self.seed)
        cloud_seed = rng.randrange(1 << 30)
        if self.tiny:
            cases = [("d1j2k2n500", _blobs(cloud_seed, 1, 2, 50))]
        else:
            cases = [("d2j4k2n200", _blobs(100, 2, 4, 200)),
                     ("d2j4k2n200", _blobs(101, 2, 4, 200)),
                     ("d2j6k3n300", _blobs(100, 2, 6, 300)),
                     ("d4j8k2n300", _blobs(100, 4, 8, 300)),
                     ("d1j2k2n500", _blobs(cloud_seed, 1, 2, 500)),
                     ("disk4", _disks(1000))]
        cases.append(("atoms3", _atom_pairs(rng)))
        rng.shuffle(cases)
        ops = []
        for i, (shape, measures) in enumerate(cases):
            d, j, k = SOLVE_SHAPES[shape]
            status = verdicts.verdict(d, j, k).status
            if (status is Status.IN) != (shape != "atoms3"):
                raise RuntimeError(f"{shape}: verdict {status} breaks the suite")
            ops.append(Op(i, f"solve {shape}", (shape, k, measures),
                          eligible=int(status is Status.IN)))
        return ops

    def run(self, op: Op):
        _, k, measures = op.args
        return testmap.solve_bisection(measures, k, SolverConfig(seed=0))

    def check(self, op: Op, out) -> Checked:
        shape, k, measures = op.args
        ok = checks.solve_ok(out, measures, k, op.eligible == 1, self.tolerance)
        found = int(ok and out.success)
        return Checked(ok, f"{shape}:{out.status}", results=1, found=found)

    def layer_metrics(self, ops: list[Op], checked: list[Checked]) -> dict:
        """Found share per certified-IN shape, and a probe of phi alone."""
        out = {}
        for shape in SOLVE_SHAPES:
            hits = [c.found for op, c in zip(ops, checked)
                    if op.args[0] == shape and op.eligible]
            if shape != "atoms3":
                out[f"testmap.found.{shape}"] = sum(hits) / len(hits) if hits else 0.0
        rng = np.random.default_rng(self.seed)
        probes = []
        for op in ops:
            _, k, measures = op.args
            d = measures[0].dim
            for _ in range(20):
                W = rng.normal(size=(k, d + 1))
                probes.append((measures, W / np.linalg.norm(W, axis=1, keepdims=True)))
        _, seconds = at_reference_speed(_phi_all, probes)
        out["testmap.phi_probe.us_per_call"] = seconds / len(probes) * 1e6
        out["testmap.phi_probe.bytes_per_call"] = statistics.fmean(
            sum(_phi_bytes(m.points.shape[0], m.dim, len(W)) for m in measures)
            for measures, W in probes)
        return out


def _phi_all(probes) -> None:
    for measures, W in probes:
        testmap.phi(measures, W)


def _phi_bytes(n: int, d: int, k: int) -> int:
    """Bytes phi moves for one measure, computed from array sizes (float64):
    points read, lifted copy written and read, products written and read,
    their row products, signs, and weights."""
    return 8 * (n * d + 2 * n * (d + 1) + 2 * n * k + 4 * n)


def _cli_argv(rng: random.Random, tiny: bool, work: Path) -> list[list[str]]:
    """Mostly integer-only commands, then tables, a figure, a small
    enumerate and a small solve on a file written here."""
    pts = np.random.default_rng(rng.randrange(1 << 30)).normal(size=(2, 100))
    with open(work / "measures.json", "w", encoding="utf-8") as fh:
        json.dump({"d": 1, "measures": [
            {"points": [{"x": [float(x) + 4 * i], "w": 1.0} for x in row]}
            for i, row in enumerate(pts)]}, fh)
    params = ",".join(str(Fraction(round((i + rng.uniform(0.1, 0.9)) * q), q))
                      for i, q in enumerate(rng.randint(101, 997) for _ in range(8)))
    rest = [["lambda", "table", "--k", str(rng.randint(2, 4)), "--jmax",
             str(rng.randint(40, 80))],
            ["lambda", "figure", "--k", "3", "--jmax", str(rng.randint(20, 40)),
             "--out", "FIGURE"],
            ["enumerate", "2", "2", "--params", params],
            ["solve", "--input", str(work / "measures.json"), "--k", "2",
             "--seed", str(rng.randint(0, 99))]]
    calls = []
    for i in range(4 if tiny else 26):
        d, k = rng.randint(1, 64), rng.randint(2, 5)
        j = rng.randint(1, d * k + 8)
        calls.append([
            ["lambda", "check", str(d), str(j), str(k)],
            ["count", str(rng.randint(1, 6)), str(rng.randint(1, 4))],
            ["parity", "lemma1", str(d), str(k)],
            ["parity", "lemma2", str(d + 1), str(k), str(rng.randint(1, d))],
            ["ideal", "member", str(rng.randint(1, 12)), str(rng.randint(1, 24)),
             str(rng.randint(2, 4))],
        ][i % 5])
    calls += rest[1:3] if tiny else rest + rest[:2]
    rng.shuffle(calls)
    return calls


class CliSession:
    """One ``python -m hyperbisect.cli`` child per operation, one at a time.

    The library workloads pay interpreter start-up and import once, in
    set-up; this workload pays it on every call, as a shell user does.
    """

    name = "cli-session"

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.tiny = size == "tiny"
        self.work = RUNS_DIR / f"cli-work-{seed}"

    def make_ops(self) -> list[Op]:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        rng = random.Random(self.seed)
        return [Op(i, "hyperbisect " + " ".join(argv[:2]), tuple(argv))
                for i, argv in enumerate(_cli_argv(rng, self.tiny, self.work))]

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _figure(self, argv: tuple, who: str) -> tuple[list[str], Path | None]:
        if "FIGURE" not in argv:
            return list(argv), None
        path = self.work / f"figure-{who}.svg"
        return [str(path) if a == "FIGURE" else a for a in argv], path

    def run(self, op: Op):
        argv, figure = self._figure(op.args, "child")
        proc = subprocess.run([sys.executable, "-m", "hyperbisect.cli", *argv],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=60)
        return proc.returncode, proc.stdout, _read(figure)

    def reference(self, op: Op) -> tuple:
        argv, figure = self._figure(op.args, "reference")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, buf.getvalue(), _read(figure)

    def check(self, op: Op, out) -> Checked:
        code, stdout, figure = out
        ok = out == self.reference(op)
        # a solve's directions are floats whose last digits may change with
        # its arithmetic; what it answered is its status
        shown = json.loads(stdout)["status"] if op.args[0] == "solve" else stdout
        argv = " ".join(op.args).replace(str(self.work), "WORK")
        digest = hashlib.sha256(figure).hexdigest() if figure else ""
        return Checked(ok, f"{argv}|{code}|{shown}|{digest}",
                       results=1, found=int(code == 0))


def _read(path: Path | None) -> bytes | None:
    return None if path is None else path.read_bytes()


def child_env() -> dict:
    """Environment for child interpreters: the checkout's src/ and nothing
    inherited that could select another copy of the package."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONHOME", "HYPERBISECT_SEED")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


WORKLOADS = {w.name: w for w in (VerdictSweep, MomentEnumerate,
                                 SolveCertified, CliSession)}
