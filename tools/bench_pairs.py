"""Alternating perfbench runs on two git revisions, or digests of their outputs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload NAME --seeds 11-20 [--label LABEL]
    python3 tools/bench_pairs.py PARENT CHANGE --digest --seeds 1-5 --rounds 0-2 [--workload NAME]

Each revision is unpacked with ``git archive`` into its own directory under
``--workdir`` (a fresh temporary directory, removed afterwards, by default),
and PARENT a second time, as the copy.  A ``--workdir`` that already holds
a ``parent/``, ``copy/`` or ``change/`` is refused, with one line and exit
code 2.  For every seed the three checkouts run ``perfbench/run.py --seed S``
for the ``run_seconds`` of the parent's ``BENCHMARK.json``, one after the
other, and the order rotates from seed to seed (parent, copy, change; then
copy, change, parent; ...).  Only the last line of each run's output, its
result JSON, is read.  The copy is an A/A control: what it differs from the
parent by is what two identical programs differ by on this machine.

The report opens with the command that reruns the pairs.  Then, for each
end-to-end metric of ``BENCHMARK.json``, it gives the parent's and the
change's median and quartiles, the relative change of the median, the seeds
the change won, and whether the medians differ by more than the parent's
interquartile range; beside it, the copy's median gap from the parent and
the seeds the copy won.  Then every side's failed-job counts.  A run that
printed a result with failed jobs has its ``perfbench: ... failed`` lines
printed, with its seed and side (and, for a job that raised, the exception's
line).  The exit code is 0 when every run printed a result, 1 otherwise.

With ``--label`` the same statistics are appended to the JSON list in
``BENCH_trajectory.json`` at the repository root, the kept record of
measured changes: one row per metric, holding the label, workload,
revisions as given, seeds and run length besides them.

``--digest`` runs no timed pairs.  For every seed it sets up each workload
(every workload of the parent's ``BENCHMARK.json`` unless ``--workload``
names one) in each checkout, as ``perfbench`` does, and runs the jobs of the
given rounds in order, at one BLAS thread, in a fresh process per checkout
and workload.  Each job's output, its value after its own check passed (or
the error it raised), is written with ``repr`` (every array in full, floats
as the shortest text that reads back to the same value, the work directory
as ``<work>``) and hashed with sha256.  The report counts the outputs and
names each one whose digest differs between the checkouts; the exit code is
0 when none differs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "BENCH_trajectory.json"
BLAS_THREADS = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


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


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[dict | None, str]:
    """The result JSON of one benchmark run (None when it printed none) and its stderr."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.stderr
    except (IndexError, json.JSONDecodeError):
        print(f"  no result from {checkout.name} seed {seed} (exit {proc.returncode}):\n"
              f"{proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None, proc.stderr


_TRACEBACK_HEADS = ("Traceback", "The above exception", "During handling")


def _exception_line(lines: list[str]) -> str | None:
    """The last exception line of the traceback (chained or not) that ``lines`` start with."""
    found = None
    for i, line in enumerate(lines):
        if not line.strip():
            after = lines[i + 1] if i + 1 < len(lines) else ""
            if after.strip() and not after.startswith(_TRACEBACK_HEADS):
                break                       # the traceback ended here
        elif not line[0].isspace() and not line.startswith(_TRACEBACK_HEADS):
            found = line
    return found


def failure_lines(stderr: str) -> list[str]:
    """Why a run's jobs failed: each ``perfbench: ... failed`` line of its stderr,
    followed, where a traceback comes after it, by the traceback's exception line."""
    lines = stderr.splitlines()
    out = []
    for i, line in enumerate(lines):
        if line.startswith("perfbench: ") and " failed" in line:
            out.append(line)
            exception = _exception_line(lines[i + 1:]) if line.endswith("failed:") else None
            if exception:
                out.append("  " + exception)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


SIDES = ("parent", "copy", "change")


def compare(runs: list[tuple[dict, dict, dict]], metrics: list[dict]) -> list[dict]:
    """Per end-to-end metric over (parent, copy, change) results: the parent's
    and the change's median and quartiles, the relative gap of the change's
    median from the parent's and the seeds it won, whether that gap exceeds
    the parent's interquartile range, and the copy's gap and wins (the A/A
    control).  A gap is None when the parent's median is 0."""
    out = []
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        got = [tuple(res["metrics"][name]["value"] for res in run) for run in runs
               if all(name in res["metrics"] for res in run)]
        if not got:
            continue
        parent, copy, change = zip(*got)
        (p1, pm, p3), (_, am, _), (c1, cm, c3) = map(quartiles, (parent, copy, change))

        def gap(median):
            return (median - pm) / pm if pm else None

        def wins(side):
            return sum((s < p) if lower else (s > p) for p, s in zip(parent, side))

        out.append({
            "metric": name, "unit": spec.get("unit"), "better": spec["better"],
            "pairs": len(got),
            "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
            "change_median": cm, "change_q1": c1, "change_q3": c3,
            "change_gap": gap(cm), "change_wins": wins(change),
            "beyond_parent_iqr": abs(cm - pm) > p3 - p1,
            "aa_gap": gap(am), "aa_wins": wins(copy),
        })
    return out


def _percent(gap: float | None) -> str:
    return "n/a" if gap is None else f"{gap:+.1%}"


def summarise(runs: list[tuple[dict, dict, dict]], metrics: list[dict]) -> list[str]:
    """One report line per metric of ``compare``: the change against the
    parent, then the copy against the parent (the A/A gap)."""
    return [
        f"{st['metric']:12s} parent {st['parent_median']:.4g} [{st['parent_q1']:.4g}, "
        f"{st['parent_q3']:.4g}]  change {st['change_median']:.4g} [{st['change_q1']:.4g}, "
        f"{st['change_q3']:.4g}]  {_percent(st['change_gap'])}  change better in "
        f"{st['change_wins']}/{st['pairs']}  |diff| > parent IQR: "
        f"{'yes' if st['beyond_parent_iqr'] else 'no'}  A/A: copy {_percent(st['aa_gap'])}, "
        f"better in {st['aa_wins']}/{st['pairs']}"
        for st in compare(runs, metrics)]


def trajectory_rows(label: str, workload: str, parent: str, change: str, seeds: list[int],
                    seconds: int, stats: list[dict]) -> list[dict]:
    """One trajectory row per metric of ``compare``: who and what was run, then the stats."""
    run = {"label": label, "workload": workload, "parent": parent, "change": change,
           "seeds": seeds, "seconds": seconds}
    return [{**run, **st} for st in stats]


def append_trajectory(path: Path, rows: list[dict]) -> None:
    """Append ``rows`` to the JSON list in ``path`` (made when missing), one row a line."""
    kept = json.loads(path.read_text()) if path.exists() else []
    lines = [json.dumps(row) for row in kept + rows]
    path.write_text("[\n" + ",\n".join(lines) + "\n]\n")


def _job_output(job) -> str:
    """The repr of a job's value once its check passed, or the error it raised."""
    try:
        value = job.run()
        job.check(value)
        return repr(value)
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}"


def digest_worker(checkout: str, workload: str, seeds: list[int], rounds: list[int]) -> None:
    """Print, as JSON, the sha256 of every job output of ``workload`` in ``checkout``.

    Runs in a process of its own whose BLAS thread count is already set, and
    imports steincv and perfbench from ``checkout``.
    """
    sys.path[:0] = [str(Path(checkout) / "src"), str(checkout)]
    import numpy as np
    from perfbench.workloads import WORKLOADS

    np.set_printoptions(threshold=sys.maxsize, floatmode="unique")
    w = WORKLOADS[workload]()
    out = {}
    for seed in seeds:
        with tempfile.TemporaryDirectory() as work:

            def digest(text):
                return hashlib.sha256(text.replace(work, "<work>").encode()).hexdigest()

            state = w.setup(seed, Path(work) / "setup")
            for r in rounds:
                try:
                    for i, job in enumerate(w.round(state, r)):
                        out[f"seed {seed} round {r} job {i} {job.label}"] = digest(_job_output(job))
                except Exception as exc:     # the round's own code, between jobs
                    out[f"seed {seed} round {r}"] = digest(f"raised {type(exc).__name__}: {exc}")
                w.end_round(state, r)
    print(json.dumps(out))


def digests(checkout: Path, workload: str, seeds: list[int], rounds: list[int]) -> dict | None:
    """The output digests of ``digest_worker`` run on ``checkout``, or None when it failed."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            f"import bench_pairs; bench_pairs.digest_worker({str(checkout)!r}, {workload!r}, "
            f"{seeds!r}, {rounds!r})")
    proc = subprocess.run([sys.executable, "-c", code], cwd=checkout, capture_output=True,
                          text=True, env={**os.environ, **BLAS_THREADS})
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"  no digests from {checkout.name} {workload} (exit {proc.returncode}):\n"
              f"{proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return None


def compare_digests(parent: dict, change: dict) -> list[str]:
    """The outputs whose digests differ, or that only one side produced."""
    out = []
    for key in list(parent) + [k for k in change if k not in parent]:
        if key not in change:
            out.append(f"{key}: only in parent")
        elif key not in parent:
            out.append(f"{key}: only in change")
        elif parent[key] != change[key]:
            out.append(f"{key}: differs")
    return out


def run_digest(sides, names, args) -> int:
    same = True
    for name in names:
        got = [digests(side, name, args.seeds, args.rounds) for side in sides]
        if None in got:
            print(f"{name}: no digests from {'both sides' if got == [None, None] else 'one side'}")
            same = False
            continue
        differ = compare_digests(*got)
        print(f"{name}: {len(got[0])} parent outputs, {len(got[1])} change outputs, "
              f"{len(differ)} differ")
        for line in differ:
            print(f"  {line}")
        same = same and not differ
    return 0 if same else 1


def parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", help="required for pairs; every workload by default with --digest")
    p.add_argument("--seeds", required=True, type=parse_seeds)
    p.add_argument("--digest", action="store_true", help="compare output digests, time nothing")
    p.add_argument("--rounds", type=parse_seeds, default=[0],
                   help="rounds whose outputs --digest compares (default 0)")
    p.add_argument("--workdir", type=Path, help="where to unpack (default: a temporary directory)")
    p.add_argument("--label", help="append each metric's pair statistics, labelled so, to "
                                   f"{TRAJECTORY.name}")
    return p


def main(argv=None) -> int:
    p = parser()
    args = p.parse_args(argv)
    if args.workload is None and not args.digest:
        p.error("pairs need --workload")
    if args.label is not None and args.digest:
        p.error("--label records pairs, not digests")
    if args.workdir is not None:
        taken = [args.workdir / side for side in SIDES if (args.workdir / side).exists()]
        if taken:
            print(f"bench_pairs: {taken[0]} exists; give --workdir a directory without "
                  f"{', '.join(side + '/' for side in SIDES)}", file=sys.stderr)
            return 2

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        parent = unpack(args.parent, workdir / "parent")
        bench = json.loads((parent / "BENCHMARK.json").read_text())
        if args.digest:
            names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
            return run_digest((parent, unpack(args.change, workdir / "change")), names, args)
        sides = (parent, unpack(args.parent, workdir / "copy"),
                 unpack(args.change, workdir / "change"))
        metrics, seconds = bench["end_to_end"], bench["run_seconds"]
        runs, missing, failed, attempted = [], 0, [0] * 3, [0] * 3
        for i, seed in enumerate(args.seeds):
            # each side runs first, second and last once in any three seeds
            order = [(i + k) % len(SIDES) for k in range(len(SIDES))]
            results, stderrs = [None] * 3, [""] * 3
            for side in order:
                results[side], stderrs[side] = run_once(sides[side], args.workload, seed, seconds)
            for side, res in enumerate(results):
                if res is None:
                    missing += 1
                else:
                    failed[side] += res["failed"]
                    attempted[side] += res["attempted"]
            if None not in results:
                runs.append(tuple(results))
            print(f"seed {seed} ({', '.join(SIDES[side] for side in order)}): " + ", ".join(
                f"{label} job_p50_s {res['metrics']['job_p50_s']['value']:.4g}"
                f" failed {res['failed']}" if res else f"{label} no result"
                for label, res in zip(SIDES, results)), flush=True)
            for label, res, err in zip(SIDES, results, stderrs):
                if res is not None and res["failed"]:
                    print(f"  seed {seed}, {label}: {res['failed']} of {res['attempted']} jobs "
                          "failed")
                    for line in failure_lines(err):
                        print(f"    {line}", flush=True)
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload}: {args.parent} (parent and copy) against {args.change} (change), "
          f"{len(runs)} seeds of {seconds} s; rerun with: python3 tools/bench_pairs.py "
          f"{args.parent} {args.change} --workload {args.workload} "
          f"--seeds {','.join(map(str, args.seeds))}")
    for line in summarise(runs, metrics):
        print(line)
    if args.label is not None:
        rows = trajectory_rows(args.label, args.workload, args.parent, args.change, args.seeds,
                               seconds, compare(runs, metrics))
        append_trajectory(TRAJECTORY, rows)
        print(f"appended {len(rows)} rows labelled {args.label!r} to {TRAJECTORY}")
    print("failed jobs: " + ", ".join(f"{label} {f}/{a}" for label, f, a in
                                      zip(SIDES, failed, attempted))
          + f"; runs without a result: {missing}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
