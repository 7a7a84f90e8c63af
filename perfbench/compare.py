"""Spread of one set of benchmark runs, or a second set against a first.

    python3 perfbench/compare.py RUNS_A            # spread per workload, metric
    python3 perfbench/compare.py RUNS_A RUNS_B     # B's medians against A's

RUNS_A and RUNS_B are directories of the ``*-trace0.json`` records that
``perfbench/run.py`` writes to ``perfbench/runs/``.  Runs of one workload
with one seed must carry one fingerprint: a different fingerprint means the
runs did different work, and the comparison refuses them (exit 2).

The spread is the distance between the first and third quartile as a share
of the median.  Exit 1 when a spread exceeds its metric's bound in
BENCHMARK.json, or when B is worse than A by more than the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(Path(directory).glob("*-trace0.json"))]


def fingerprint_conflicts(*sets: list[dict]) -> list[str]:
    seen: dict[tuple, str] = {}
    out = []
    for records in sets:
        for r in records:
            key = (r["workload"], r["seed"])
            if seen.setdefault(key, r["fingerprint"]) != r["fingerprint"]:
                out.append(f"{r['workload']} seed {r['seed']}")
    return out


def summary(values: list[float]) -> tuple[float, float]:
    """Median and quartile spread as a share of it."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def by_workload(records: list[dict]) -> dict[str, dict[str, list[float]]]:
    out: dict[str, dict[str, list[float]]] = {}
    for r in records:
        metrics = out.setdefault(r["workload"], {})
        for name, value in r["metrics"].items():
            metrics.setdefault(name, []).append(value)
    return out


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in argv]
    conflicts = fingerprint_conflicts(*sets)
    if conflicts:
        print("refusing: fingerprints differ for " + ", ".join(conflicts))
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    grouped = [by_workload(s) for s in sets]
    bad = False
    for workload in sorted(grouped[0]):
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            rows = []
            for g in grouped:
                values = g.get(workload, {}).get(name, [])
                if not values:
                    break
                rows.append((len(values), *summary(values)))
            if len(rows) != len(grouped):
                continue
            line = f"{workload:17} {name:14} bound {bound:<5}"
            for n, med, spread in rows:
                line += f" | n={n:2} median {med:12.6g} spread {spread:6.3f}"
            if name != "setup_s" and rows[0][2] > bound:
                line += "  SPREAD OVER BOUND"
                bad = True
            if len(rows) == 2:
                a, b = rows[0][1], rows[1][1]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                line += f" | worse by {worse:+.3f}"
                if worse > bound:
                    line += "  REGRESSION"
                    bad = True
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
