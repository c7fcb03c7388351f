"""Measurement loop: set-up, rounds of jobs, checks, and the metrics of a run.

One closed-loop client runs the jobs of a workload one at a time.  A run with
tracing off repeats the set-up at least ``SETUP_REPEATS`` times and for at
least ``SETUP_MIN_S`` seconds (reporting the median), and then executes
``max(1, round(seconds / workload.round_s))`` rounds, a fixed amount of work
per ``--seconds`` so that two commits are compared on identical jobs.  Every timed interval is rescaled to nominal machine speed by
the speed probe (see calibration.py); raw values are printed beside the
rescaled ones.  A traced run executes one round untraced and the same round
twice under a tracer: the first traced pass gives the per-layer metrics, the
second must reproduce its counts exactly.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from perfbench.calibration import SpeedProbe
from perfbench.tracing import COUNTS, PER_LAYER, Tracer
from perfbench.workloads import CheckFailed

SETUP_REPEATS = 5
SETUP_MIN_S = 1.0   # sub-millisecond set-ups need many repeats for a steady median
TAIL_LADDER = (99, 95, 90, 75, 50)
# The tail percentile is the highest one on the ladder that keeps at least
# TAIL_BEYOND jobs beyond it when the jobs of a set of SET_RUNS runs are pooled.
SET_RUNS = 10
TAIL_BEYOND = 10

END_TO_END = (
    ("s", "setup_s"), ("s", "wall_s"), ("1/s", "jobs_per_s"),
    ("s", "job_p50_s"), ("s", "job_tail_s"), ("MB", "peak_rss_mb"),
)


@dataclass
class Times:
    """Durations at nominal machine speed, with the raw wall-clock values."""

    scaled: list[float] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)

    def add(self, pair: tuple[float, float]) -> None:
        self.raw.append(pair[0])
        self.scaled.append(pair[1])


@dataclass
class PassResult:
    jobs: Times = field(default_factory=Times)
    rounds: Times = field(default_factory=Times)
    errors: list[tuple[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


@dataclass
class Outcome:
    lines: list[str]
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]

    def result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:\n{traceback.format_exc(limit=6)}", file=sys.stderr)


def _span(tracer, name):
    return tracer.root(name) if tracer is not None else nullcontext()


def run_pass(workload, state, rounds, probe: SpeedProbe,
             tracer: Tracer | None = None) -> PassResult:
    """Run the given rounds; a failing job is counted and the run goes on.

    A round's time covers its jobs and the workload code between them (such
    as loading an archive) but not the checks or clean-up.
    """
    res = PassResult()
    for r in rounds:
        raw = scaled = 0.0
        jobs = workload.round(state, r)
        while True:
            mark = probe.start()
            try:
                with _span(tracer, "bench.prologue"):
                    job = next(jobs)
            except StopIteration:
                job = None
            except Exception:
                res.attempted += 1
                res.failed += 1
                _report_failure(f"round {r} of {workload.name}")
                job = None
            dt, ds = probe.stop(mark)
            raw, scaled = raw + dt, scaled + ds
            if job is None:
                break
            res.attempted += 1
            mark = probe.start()
            try:
                with _span(tracer, "bench.job"):
                    value = job.run()
            except Exception:
                dt, ds = probe.stop(mark)
                raw, scaled = raw + dt, scaled + ds
                res.failed += 1
                _report_failure(f"job {job.label} (round {r})")
                continue
            dt, ds = probe.stop(mark)
            raw, scaled = raw + dt, scaled + ds
            try:
                res.errors.append((job.label, job.check(value)))
            except CheckFailed as exc:
                res.failed += 1
                print(f"perfbench: check of {job.label} (round {r}) failed: {exc}",
                      file=sys.stderr)
                continue
            res.jobs.add((dt, ds))
        workload.end_round(state, r)
        res.rounds.add((raw, scaled))
    return res


def tail_percentile(jobs_per_run: int) -> int:
    pooled = SET_RUNS * jobs_per_run
    for p in TAIL_LADDER:
        if pooled * (100 - p) / 100 >= TAIL_BEYOND:
            return p
    return TAIL_LADDER[-1]


def nearest_rank(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        openblas = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "python": platform.python_version(),
        "optimize": sys.flags.optimize,
    }


def _timing_metrics(setups: Times, res: PassResult, pct: int, scaled: bool) -> dict:
    pick = (lambda t: t.scaled) if scaled else (lambda t: t.raw)
    jobs, rounds = pick(res.jobs), pick(res.rounds)
    return {
        "setup_s": statistics.median(pick(setups)),
        "wall_s": statistics.median(rounds),
        "jobs_per_s": len(jobs) / sum(rounds) if jobs else 0.0,
        "job_p50_s": statistics.median(jobs) if jobs else 0.0,
        "job_tail_s": nearest_rank(jobs, pct) if jobs else 0.0,
    }


def _end_to_end(workload, seed, seconds, workdir) -> Outcome:
    rounds = max(1, round(seconds / workload.round_s))
    setups = Times()
    with SpeedProbe() as probe:
        while len(setups.raw) < SETUP_REPEATS or sum(setups.raw) < SETUP_MIN_S:
            mark = probe.start()
            state = workload.setup(seed, workdir / f"setup{len(setups.raw)}")
            setups.add(probe.stop(mark))
        res = run_pass(workload, state, range(rounds), probe)
    done = len(res.jobs.scaled)
    pct = tail_percentile(res.attempted)
    values = _timing_metrics(setups, res, pct, scaled=True)
    raw = _timing_metrics(setups, res, pct, scaled=False)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {name: (values[name], unit) for unit, name in END_TO_END}

    notes = {name: f"  (raw {v!r})" for name, v in raw.items()}
    notes["setup_s"] += f", median of {len(setups.raw)}"
    notes["wall_s"] += f", median of {rounds} rounds"
    notes["job_tail_s"] += (f", p{pct}: nearest rank of {done} jobs; p{pct} leaves >= "
                            f"{TAIL_BEYOND} of {SET_RUNS * res.attempted} jobs beyond it "
                            f"over a {SET_RUNS}-run set")
    err_name, err_unit = workload.error_metric
    lines = [f"rounds {rounds}, jobs {res.attempted}, completed {done}, failed {res.failed}",
             f"speed probe: {len(probe.bursts)} bursts, median {statistics.median(probe.bursts)!r}"
             f" s; times are rescaled to nominal speed, raw wall-clock values in brackets"]
    lines += [f"metric {name} {value!r} {unit}{notes.get(name, '')}"
              for name, (value, unit) in metrics.items()]
    lines.append(f"metric failed_frac {res.failed / max(res.attempted, 1)!r} ratio")
    lines.append(f"metric {err_name} {workload.accuracy(res.errors)!r} {err_unit}")
    return Outcome(lines, res.failed == 0 and done > 0, res.attempted, res.failed, metrics)


def _traced_pass(workload, state, probe) -> tuple[PassResult, Tracer, bool]:
    tracer = Tracer()
    tracer.install()
    try:
        res = run_pass(workload, state, range(1), probe, tracer)
    finally:
        tracer.restore()
    return res, tracer, tracer.restored()


def _traced(workload, seed, workdir) -> Outcome:
    with SpeedProbe() as probe:
        state = workload.setup(seed, workdir / "setup")
        plain = run_pass(workload, state, range(1), probe)
        first, tracer, restored_a = _traced_pass(workload, state, probe)
        second, again, restored_b = _traced_pass(workload, state, probe)
    m = tracer.metrics()
    base, traced = sum(plain.rounds.scaled), sum(first.rounds.scaled)
    m["bench.trace_overhead_frac"] = traced / base - 1.0 if base else 0.0
    differ = [k for k in COUNTS if tracer.counts[k] != again.counts[k]]
    restored = restored_a and restored_b
    metrics = {name: (m[name], unit) for unit, name in PER_LAYER}
    lines = [f"metric {name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"round at nominal speed: untraced {base!r} s, traced {traced!r} s and "
                 f"{sum(second.rounds.scaled)!r} s; {len(tracer.spans)} spans")
    lines.append("counts of the two traced passes: " + ("identical" if not differ else
                                                         "DIFFER in " + ", ".join(differ)))
    lines.append("wrapped names restored: " + ("yes" if restored else "NO"))
    passes = (plain, first, second)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and not differ and restored
    return Outcome(lines, correct, sum(p.attempted for p in passes), failed, metrics)


def measure(workload, seed: int, seconds: int, trace: bool, work_root: Path) -> Outcome:
    """Run one workload; scratch files live in a directory under ``work_root``."""
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        if trace:
            out = _traced(workload, seed, workdir)
        else:
            out = _end_to_end(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    header = [f"perfbench workload={workload.name} seed={seed} seconds={seconds} "
              f"trace={int(trace)}",
              "env " + " ".join(f"{k}={v}" for k, v in environment().items())]
    out.lines = header + out.lines
    return out
