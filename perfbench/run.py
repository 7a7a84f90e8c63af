"""Benchmark entry point; run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verdict-sweep, moment-enumerate, solve-certified, cli-session.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exits 2 without a result when the
checkout's ``src/hyperbisect`` package is missing.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    src = ROOT / "src"
    if not (src / "hyperbisect" / "__init__.py").is_file():
        print(f"error: no hyperbisect package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    # one CPU does the work (speed.pin_to_one_cpu), so BLAS gets no threads
    # of its own that would run on another; children inherit this
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import hyperbisect
    if Path(hyperbisect.__file__).resolve().parent != src / "hyperbisect":
        print(f"error: imported hyperbisect from {hyperbisect.__file__}",
              file=sys.stderr)
        return 2
    from perfbench.harness import run
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
