"""Reference outputs of the benchmark workloads and the CLI pipeline.

    python tests/make_pipeline_oracle.py           # print every output as JSON
    python tests/make_pipeline_oracle.py --write   # rewrite tests/pipeline_oracle.json

``test_pipeline_oracle.py`` runs this script and compares what it prints with
the committed ``pipeline_oracle.json``.  Each output is a string: the ``repr``
of a result, a file's text with the work directory replaced by ``<work>``, or a
sha256 digest of bytes.  Outputs repeat across processes only at a fixed BLAS
thread count, so the script pins it to 1 before numpy loads.  The workloads
are those of ``perfbench.workloads``, imported and driven as the benchmark
drives them, round 0 at seed 1:

* ``sample-logistic``: the pilot's temperatures, step sizes, sweep counts and
  log increments, a digest of its last snapshot's arrays, and the log Z of
  the first replay;
* ``postprocess-logistic``: the four expectation records of the round;
* ``evidence-conjugate``: the post-hoc schedule and the eight reports'
  ``to_dict()``;
* the pipeline of acceptance criterion 12 (``smc``, ``postprocess`` and
  ``evidence`` commands): every file it writes except the ``run.log`` and
  ``timings.json`` sidecars, JSON as text and ``.npy`` archives as digests.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
ORACLE_PATH = Path(__file__).with_name("pipeline_oracle.json")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (  # noqa: E402
    POSTHOC_RHO, EvidenceConjugate, PostprocessLogistic, SampleLogistic,
)
from steincv import smc  # noqa: E402
from steincv.cli import EXIT_OK, main  # noqa: E402

SEED = 1
SIDECARS = ("run.log", "timings.json")
CONJUGATE_MODEL = {
    "kind": "conjugate_gaussian",
    "prior_mean": [0.0], "prior_cov": [[1.0]], "obs_cov": [[1.0]],
    "data": [[1.1], [0.4], [0.9]],
}


def _run(job):
    """Run a workload job and apply its own check, as the benchmark does."""
    result = job.run()
    job.check(result)
    return result


def _sample_logistic(work: Path) -> dict:
    w = SampleLogistic()
    jobs = w.round(w.setup(SEED, work), 0)
    pilot = _run(next(jobs))
    replay = _run(next(jobs))
    jobs.close()
    record = pilot.replay_record()
    last = pilot.snapshots[-1]
    digest = hashlib.sha256()
    for name in ("theta", "weights", "log_like", "log_prior", "grad_log_like", "grad_log_prior"):
        digest.update(getattr(last, name).tobytes())
    return {
        "pilot/temperatures": repr(record.temperatures),
        "pilot/step_sizes": repr(record.step_sizes),
        "pilot/sweeps": repr(record.repeats),
        "pilot/log_increments": repr(tuple(s.log_increment for s in pilot.snapshots)),
        "pilot/last_snapshot_sha256": digest.hexdigest(),
        "replay0/log_z": repr(replay.log_evidence),
    }


def _postprocess_logistic(work: Path) -> dict:
    w = PostprocessLogistic()
    state = w.setup(SEED, work)
    return {job.label: repr(_run(job)) for job in w.round(state, 0)}


def _evidence_conjugate(work: Path) -> dict:
    w = EvidenceConjugate()
    state = w.setup(SEED, work)
    ps = smc.load_particle_system(state["archive"], state["model"])
    out = {"schedule": repr(smc.posthoc_schedule(ps, POSTHOC_RHO))}
    for job in w.round(state, 0):
        out[job.label] = repr(_run(job).to_dict())
    return out


def _cli_pipeline(work: Path) -> dict:
    model = work / "model.json"
    model.write_text(json.dumps(CONJUGATE_MODEL))
    root = work / "pipeline"
    run = root / "run"
    for argv in (
        ["smc", "--model", str(model), "--n", "64", "--rho", "0.7", "--hmin", "0.1",
         "--hmax", "2.0", "--max-repeats", "5", "--replicates", "3", "--seed", "5",
         "--out", str(run)],
        ["postprocess", "--archive", str(run / "pilot"), "--methods", "vanilla,zv:Q=2",
         "--integrands", "mean,square", "--seed", "1", "--out", str(root / "pp")],
        ["evidence", "--archive", str(run / "pilot"), "--estimator", "cti2",
         "--methods", "vanilla,zv:Q=2", "--out", str(root / "ev")],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != EXIT_OK:
            raise RuntimeError(f"steincv {argv[0]} failed")
    out = {}
    for p in sorted(root.rglob("*")):
        if not p.is_file() or p.name in SIDECARS:
            continue
        name = str(p.relative_to(root))
        if p.suffix == ".npy":
            out[name] = hashlib.sha256(p.read_bytes()).hexdigest()
        else:
            out[name] = p.read_text(encoding="utf-8").replace(str(work), "<work>")
    return out


def collect() -> dict:
    """Every pinned output, keyed "<source>/<output>"."""
    out = {}
    for source, make in (("sample-logistic", _sample_logistic),
                         ("postprocess-logistic", _postprocess_logistic),
                         ("evidence-conjugate", _evidence_conjugate),
                         ("cli-pipeline", _cli_pipeline)):
        with tempfile.TemporaryDirectory() as work:
            for name, value in make(Path(work)).items():
                out[f"{source}/{name}"] = value
    return out


if __name__ == "__main__":
    outputs = collect()
    if sys.argv[1:] == ["--write"]:
        ORACLE_PATH.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    else:
        print(json.dumps(outputs, sort_keys=True))
