"""
Finding bisections numerically, with receipts
=============================================

The solver works on finite weighted point clouds.  It only reports SUCCESS
after the candidate hyperplanes pass a check: for every measure, the signed
mass difference across the arrangement, taken from float signs of float
products, must sit within the requested tolerance.  NOT_FOUND means that
none of the restarts it tried passed, not that no bisection exists, and it
names its best attempt.  Everything is seeded, so reruns are bit-identical.
How the search works is in the hyperbisect.testmap module docstring.
"""

import json
import time

import numpy as np

from hyperbisect import DiscreteMeasure, SolverConfig, solve_bisection

# Four disk-shaped clouds in the plane, deliberately far from the origin;
# the solver recenters internally so placement does not matter.
def disk_cloud(rng, center, n=200):
    r = np.sqrt(rng.uniform(size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = np.stack([center[0] + r * np.cos(theta),
                    center[1] + r * np.sin(theta)], axis=1)
    return DiscreteMeasure(pts, np.full(n, 1.0))

rng = np.random.default_rng(42)
centers = [(50.0, 50.0), (56.0, 50.0), (50.0, 56.0), (56.0, 56.0)]
measures = [disk_cloud(rng, c) for c in centers]

start = time.perf_counter()
result = solve_bisection(measures, k=2, config=SolverConfig(seed=7))
elapsed = time.perf_counter() - start

print(f"status: {result.status} after {result.restarts_used} restart(s), "
      f"{elapsed:.2f}s")
print("relative imbalances per measure:",
      [f"{v:.4f}" for v in result.relative_imbalances])
for h in result.arrangement().hyperplanes:
    print("  hyperplane: normal", tuple(round(float(u), 4) for u in h.normal),
          "offset", round(float(h.offset), 4))

# Same seed, same bytes: the JSON-facing form of two runs is identical.
again = solve_bisection(measures, k=2, config=SolverConfig(seed=7))
assert json.dumps(result.to_jsonable()) == json.dumps(again.to_jsonable())
print("rerun with seed 7 is byte-identical")

# A different seed may find a different (equally valid) arrangement.
other = solve_bisection(measures, k=2, config=SolverConfig(seed=8))
print(f"seed 8: {other.status} after {other.restarts_used} restart(s)")

# Honesty on infeasible input: three well-separated measures on a line
# cannot all be bisected by two points (the middle pair gets trapped),
# and the solver says so instead of returning a near miss.
line = [DiscreteMeasure(np.array([[x], [x + 1.0]]), np.ones(2))
        for x in (0.0, 10.0, 20.0)]
res = solve_bisection(line, k=2, config=SolverConfig(seed=0))
print(f"infeasible 1-D instance: {res.status} "
      f"after {res.restarts_used} restarts; best attempt: restart "
      f"{res.best_restart}, worst relative imbalance "
      f"{max(res.relative_imbalances):.4f}")
assert not res.success
