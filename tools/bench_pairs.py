"""Alternating pairs of perfbench runs on two git revisions.

    python3 tools/bench_pairs.py PARENT CHANGE --workload NAME --seeds 11-20
    python3 tools/bench_pairs.py PARENT --aa --workload NAME --seeds 11-20

Each revision is unpacked with ``git archive`` into its own directory under
``--workdir`` (a fresh temporary directory, removed afterwards, by default).
For every seed the two checkouts run ``perfbench/run.py --seed S`` for the
``run_seconds`` of the parent's ``BENCHMARK.json``, one after the other, and
the side that runs first alternates from pair to pair.  Only the last line of
each run's output, its result JSON, is read.
``--aa`` runs PARENT against a second copy of itself: the spread such an A/A
block shows is what two identical programs differ by on this machine.

For each end-to-end metric of ``BENCHMARK.json`` the report gives both sides'
median and quartiles, the relative change of the median, the pairs the change
side won, and whether the medians differ by more than the parent's
interquartile range; then both sides' failed-job counts.  The exit code is 0
when every run printed a result, 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """Seeds from a list of integers and inclusive ranges: "11-20" or "1,3,5-7"."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def unpack(rev: str, dest: Path) -> Path:
    """The tree of ``rev`` written to ``dest`` by ``git archive``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict | None:
    """The result JSON of one benchmark run, or None when it printed none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"  no result from {checkout.name} seed {seed} (exit {proc.returncode}):\n"
              f"{proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """One report line per metric over (parent, change) result pairs."""
    lines = []
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        got = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in pairs
               if name in p["metrics"] and name in c["metrics"]]
        if not got:
            continue
        parent, change = [p for p, _ in got], [c for _, c in got]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        wins = sum((c < p) if lower else (c > p) for p, c in got)
        rel = (cm - pm) / pm if pm else float("nan")
        lines.append(
            f"{name:12s} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} [{c1:.4g}, {c3:.4g}]"
            f"  {rel:+.1%}  change better in {wins}/{len(got)}"
            f"  |diff| > parent IQR: {'yes' if abs(cm - pm) > p3 - p1 else 'no'}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change", nargs="?")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds)
    p.add_argument("--aa", action="store_true", help="run PARENT against a copy of itself")
    p.add_argument("--workdir", type=Path, help="where to unpack (default: a temporary directory)")
    args = p.parse_args(argv)
    if args.aa == (args.change is not None):
        p.error("give either CHANGE or --aa")

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        sides = (unpack(args.parent, workdir / "parent"),
                 unpack(args.parent if args.aa else args.change, workdir / "change"))
        bench = json.loads((sides[0] / "BENCHMARK.json").read_text())
        metrics, seconds = bench["end_to_end"], bench["run_seconds"]
        pairs, missing, failed, attempted = [], 0, [0, 0], [0, 0]
        for i, seed in enumerate(args.seeds):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            results = [None, None]
            for side in order:
                results[side] = run_once(sides[side], args.workload, seed, seconds)
            for side, res in enumerate(results):
                if res is None:
                    missing += 1
                else:
                    failed[side] += res["failed"]
                    attempted[side] += res["attempted"]
            if None not in results:
                pairs.append(tuple(results))
            first = "parent" if order[0] == 0 else "change"
            print(f"seed {seed}: {first} first, " + ", ".join(
                f"{label} job_p50_s {res['metrics']['job_p50_s']['value']:.4g}"
                if res else f"{label} no result"
                for label, res in zip(("parent", "change"), results)), flush=True)
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)

    change = "copy of parent" if args.aa else args.change
    print(f"{args.workload}: {args.parent} (parent) against {change} (change), "
          f"{len(pairs)} pairs, --seconds {seconds}")
    for line in summarise(pairs, metrics):
        print(line)
    print(f"failed jobs: parent {failed[0]}/{attempted[0]}, change {failed[1]}/{attempted[1]};"
          f" runs without a result: {missing}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
