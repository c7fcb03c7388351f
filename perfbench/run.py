"""Run one steincv benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; steincv is imported from ``src/``.
Human-readable lines (environment, every metric with its unit, notes) come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.  The
exit code is 0 when every job passed its check, 1 when one did not, and 2 when
the benchmark cannot run at all (no ``src/steincv``, or python -O).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sample-logistic", "postprocess-logistic", "evidence-conjugate")
# One closed-loop client; a single BLAS thread keeps the 2-core machine the
# baseline was measured on steady (two threads were slower there, not faster).
BLAS_THREADS = 1


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny problem sizes and no reference checks, for testing the benchmark")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if sys.flags.optimize:
        print("perfbench: run without -O; the lasso objective check is part of the work",
              file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "steincv" / "__init__.py").is_file():
        print(f"perfbench: no steincv sources under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(src), str(ROOT)]

    import steincv

    if src.resolve() not in Path(steincv.__file__).resolve().parents:
        print(f"perfbench: steincv imported from {steincv.__file__}, not {src}", file=sys.stderr)
        return 2

    from perfbench.harness import measure
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](smoke=args.smoke)
    out = measure(workload, args.seed, args.seconds, bool(args.trace), ROOT / ".bench_work")
    for line in out.lines:
        print(line)
    print(json.dumps(out.result()), flush=True)
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
