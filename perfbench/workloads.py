"""The three benchmark workloads, one per hot path of the steincv pipeline.

Each workload builds its inputs from the run seed in ``setup`` and then yields
jobs round by round.  A round is the unit of user-visible work whose wall time
the harness reports; a job is one call into steincv's public functions plus
the check of its output.  Calls go through module attributes (``smc.run_smc``,
``evidence.cti_estimate``, ...) so that the tracer's wrappers see them.

* ``sample-logistic``: one adaptive SMC pilot plus seeded replays of its
  schedule, each written as an archive.  Exercises models, smc and the CSV
  writer; no control-variate code runs.
* ``postprocess-logistic``: control-variate selection (ridge and lasso by
  10-fold CV, split OLS, kernel CF with a CV bandwidth) for posterior-mean
  integrands of one fixed population.  Exercises regression, polybasis, cf;
  nothing is sampled.
* ``evidence-conjugate``: load an archive, derive a post-hoc schedule and
  compute eight evidence reports.  Exercises the CSV reader, evidence fan-out
  and the N x N kernel solves of cf.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from steincv import evidence, smc
from steincv.evidence import VANILLA, CfMethod
from steincv.models import ConjugateGaussianModel, synthetic_logistic_model
from steincv.smc import SmcConfig
from steincv.zvcv import ZvSpec

REFERENCE_PATH = Path(__file__).with_name("reference.json")


class CheckFailed(Exception):
    """A job returned a result outside its correctness tolerance."""


@dataclass(frozen=True)
class Job:
    """One unit of work: ``run`` is timed, ``check`` validates its result.

    ``check`` returns the job's signed error against the reference and raises
    CheckFailed when the result is wrong.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], float]


def derive_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=tuple(key)).generate_state(1)[0])


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise CheckFailed(f"{what} is not finite: {value!r}")
    return value


def _within(err: float, tol: float, what: str) -> float:
    _finite(err, what)
    if abs(err) > tol:
        raise CheckFailed(f"{what} off by {err:.6g}, tolerance {tol:.6g}")
    return err


# --- sample-logistic ------------------------------------------------------------


@dataclass(frozen=True)
class SampleSizes:
    n_obs: int = 400
    dim: int = 8
    particles: int = 500
    replays: int = 4


class SampleLogistic:
    """Adaptive pilot plus replays on a synthetic logistic regression.

    A job is one ``run_smc`` call plus its ``save_particle_system`` write.  A
    round is one pilot followed by ``replays`` replays of its frozen schedule;
    every round uses fresh seeds, so a run averages over several pilots.
    """

    name = "sample-logistic"
    round_s = 11.5   # raw seconds per round when the benchmark was added (sizes a run)
    error_metric = ("logz_abs_err", "nat")

    def __init__(self, smoke: bool = False):
        self.sizes = SampleSizes(n_obs=40, dim=3, particles=60, replays=1) if smoke else SampleSizes()
        self.reference = None if smoke else load_reference()["sample_logistic"]

    def setup(self, seed: int, workdir: Path) -> dict:
        sz = self.sizes
        model = synthetic_logistic_model(n=sz.n_obs, dim=sz.dim)
        return {"seed": seed, "model": model, "workdir": workdir}

    def _check(self, ps, out: Path) -> float:
        log_z = _finite(ps.log_evidence, "log evidence")
        files = sorted(p.name for p in out.iterdir())
        if len(files) != len(ps.snapshots) + 1 or "manifest.json" not in files:
            raise CheckFailed(f"archive {out.name} has {len(files)} files")
        if self.reference is None:
            return 0.0
        ref = self.reference
        return _within(log_z - ref["log_evidence"], ref["tolerance"], "log evidence")

    def round(self, state: dict, r: int) -> Iterator[Job]:
        model, seed = state["model"], state["seed"]
        base = state["workdir"] / f"round{r:03d}"
        cfg = SmcConfig(n_particles=self.sizes.particles, seed=derive_seed(seed, r, 0))
        pilot: dict = {}

        def run_pilot():
            ps = smc.run_smc(model, cfg)
            smc.save_particle_system(ps, base / "pilot")
            pilot["record"] = ps.replay_record()
            return ps

        yield Job("pilot", run_pilot, lambda ps: self._check(ps, base / "pilot"))
        for k in range(self.sizes.replays):
            out = base / f"replay{k:02d}"

            def run_replay(out=out, k=k):
                if "record" not in pilot:
                    raise RuntimeError("pilot failed; nothing to replay")
                ps = smc.run_smc(model, replace(cfg, seed=derive_seed(seed, r, 1 + k)),
                                 replay=pilot["record"])
                smc.save_particle_system(ps, out)
                return ps

            yield Job("replay", run_replay, lambda ps, out=out: self._check(ps, out))

    def end_round(self, state: dict, r: int) -> None:
        shutil.rmtree(state["workdir"] / f"round{r:03d}", ignore_errors=True)

    @staticmethod
    def accuracy(errors: list[tuple[str, float]]) -> float:
        """|mean replay log Z - long-run reference|."""
        replays = [e for label, e in errors if label == "replay"]
        return abs(float(np.mean(replays))) if replays else float("nan")


# --- postprocess-logistic -------------------------------------------------------

POSTPROCESS_PARTICLES = 500
POSTPROCESS_METHODS = (
    ("zv:Q=2:ridge", ZvSpec(degree=2, penalty="ridge")),
    ("zv:Q=2:lasso", ZvSpec(degree=2, penalty="lasso")),
    ("zv:Q=2:split", ZvSpec(degree=2, estimator="split")),
    ("cf", CfMethod()),
)


def posterior_population_config(particles: int) -> SmcConfig:
    """The sampler settings of the logistic efficiency acceptance fixture."""
    return SmcConfig(n_particles=particles, rho=0.5, seed=808,
                     h_min=0.05, h_max=2.0, h_grid_size=8, max_repeats=20)


class PostprocessLogistic:
    """Control-variate post-processing of one fixed posterior population.

    The population is the logistic acceptance fixture (fixed sampler seed),
    so every run does the same regression work; the run seed drives the CV
    fold assignments of each job.  Round r estimates the posterior mean of
    coordinate r mod d with each of the four methods.  Lasso CD work varies
    almost twofold between populations, which is why the population is not
    drawn from the run seed.
    """

    name = "postprocess-logistic"
    round_s = 10.5
    error_metric = ("est_abs_err", "1")

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.particles = 60 if smoke else POSTPROCESS_PARTICLES
        self.reference = None if smoke else load_reference()["postprocess_logistic"]

    def setup(self, seed: int, workdir: Path) -> dict:
        model = synthetic_logistic_model(n=30, dim=2) if self.smoke else synthetic_logistic_model()
        ps = smc.run_smc(model, posterior_population_config(self.particles))
        return {"seed": seed, "samples": ps.snapshots[-1].sample_set()}

    def _check(self, record, j: int) -> float:
        est = _finite(record.estimate, "estimate")
        if self.reference is None:
            return 0.0
        ref = self.reference
        return _within(est - ref["posterior_mean"][j], ref["tolerance"][j], f"E[theta_{j + 1}]")

    def round(self, state: dict, r: int) -> Iterator[Job]:
        s = state["samples"]
        j = r % s.dim
        phi = s.theta[:, j]
        for m, (label, method) in enumerate(POSTPROCESS_METHODS):
            job_seed = derive_seed(state["seed"], r, m)
            yield Job(
                label,
                lambda method=method, job_seed=job_seed: evidence.expectation_with_provenance(
                    s, phi, method, seed=job_seed, kind=f"mean_{j + 1}"),
                lambda rec, j=j: self._check(rec, j),
            )

    def end_round(self, state: dict, r: int) -> None:
        pass

    @staticmethod
    def accuracy(errors: list[tuple[str, float]]) -> float:
        """Mean |estimate - reference posterior mean| over jobs."""
        return float(np.mean([abs(e) for _, e in errors])) if errors else float("nan")


# --- evidence-conjugate ---------------------------------------------------------

EVIDENCE_METHODS = (
    ("vanilla", VANILLA),
    ("zv:Q=2", ZvSpec(degree=2)),
    ("cf:poly:Q=2", CfMethod(kind="polynomial", degree=2)),
    ("cf:bw=3", CfMethod(bandwidth=3.0)),
)
POSTHOC_RHO = 0.95
EVIDENCE_TOLERANCE = 0.2   # nats; observed errors are below 0.05 at N = 1000


def conjugate_model(dim: int, n_obs: int) -> ConjugateGaussianModel:
    data = np.random.default_rng(2024).normal(0.5, 1.0, size=(n_obs, dim))
    return ConjugateGaussianModel(np.zeros(dim), 4.0 * np.eye(dim), np.eye(dim), data)


class EvidenceConjugate:
    """Evidence reports from an archived adaptive run on a conjugate Gaussian.

    Setup samples and writes the archive (sampler seed from the run seed).
    Each round loads it, derives a post-hoc schedule and computes the eight
    reports {cti2, smc} x {vanilla, zv:Q=2, cf:poly:Q=2, cf:bw=3}; loading
    and the schedule count toward the round's wall time but are not jobs.
    """

    name = "evidence-conjugate"
    round_s = 15.0
    error_metric = ("logz_abs_err", "nat")

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.dim, self.n_obs, self.particles = (2, 20, 80) if smoke else (3, 100, 1000)

    def setup(self, seed: int, workdir: Path) -> dict:
        model = conjugate_model(self.dim, self.n_obs)
        ps = smc.run_smc(model, SmcConfig(n_particles=self.particles, seed=derive_seed(seed, 0)))
        archive = workdir / "archive"
        smc.save_particle_system(ps, archive)
        return {"seed": seed, "model": model, "archive": archive,
                "log_evidence": model.log_evidence()}

    def _check(self, report, truth: float) -> float:
        err = _finite(report.log_evidence, "log evidence") - truth
        if self.smoke:
            return err
        return _within(err, EVIDENCE_TOLERANCE, f"{report.estimator} {report.method} log Z")

    def round(self, state: dict, r: int) -> Iterator[Job]:
        ps = smc.load_particle_system(state["archive"], state["model"])
        schedule = smc.posthoc_schedule(ps, POSTHOC_RHO)
        truth = state["log_evidence"]
        check = lambda rep: self._check(rep, truth)  # noqa: E731
        for m, (label, method) in enumerate(EVIDENCE_METHODS):
            seed = derive_seed(state["seed"], r, m)
            yield Job(f"cti2:{label}",
                      lambda method=method, seed=seed: evidence.cti_estimate(
                          schedule, ps, order=2, cv=method, seed=seed),
                      check)
            yield Job(f"smc:{label}",
                      lambda method=method, seed=seed: evidence.smc_evidence_estimate(
                          schedule, ps, cv=method, seed=seed),
                      check)

    def end_round(self, state: dict, r: int) -> None:
        pass

    @staticmethod
    def accuracy(errors: list[tuple[str, float]]) -> float:
        """Mean |log Z - closed form| over reports."""
        return float(np.mean([abs(e) for _, e in errors])) if errors else float("nan")


WORKLOADS = {w.name: w for w in (SampleLogistic, PostprocessLogistic, EvidenceConjugate)}
