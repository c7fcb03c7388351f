"""Compute the stored reference values the benchmark checks results against.

    python3 perfbench/reference.py      # rewrites perfbench/reference.json

Run from the root of a source checkout.  Takes a few minutes on one core.

* ``sample_logistic``: a long-run log evidence of the sample-logistic model
  (mean of replays at 4000 particles) and the spread of single-run estimates
  at the benchmark's particle count; the check tolerance is six of those
  standard deviations.
* ``postprocess_logistic``: posterior means of the default logistic model,
  averaged over second-order ZV estimates of independent 4000-particle
  populations, with posterior standard deviations; the tolerance per
  coordinate is five plain Monte Carlo standard errors at 500 draws.

``evidence-conjugate`` needs no stored value: its model has a closed-form
evidence.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from steincv.samples import IntegrandValues, weighted_sd  # noqa: E402
from steincv.smc import SmcConfig, run_smc  # noqa: E402
from steincv.zvcv import ZvSpec, zvcv_estimate  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    POSTPROCESS_PARTICLES, REFERENCE_PATH, SampleSizes, posterior_population_config,
    synthetic_logistic_model,
)

SEED = 20240101
LONG_PARTICLES = 4000
LONG_RUNS = 8
SPREAD_RUNS = 16


def sample_logistic() -> dict:
    sz = SampleSizes()
    model = synthetic_logistic_model(n=sz.n_obs, dim=sz.dim)
    long_cfg = SmcConfig(n_particles=LONG_PARTICLES, seed=SEED)
    record = run_smc(model, long_cfg).replay_record()
    long_run = [run_smc(model, replace(long_cfg, seed=SEED + 1 + k), replay=record).log_evidence
                for k in range(LONG_RUNS)]
    cfg = SmcConfig(n_particles=sz.particles, seed=SEED + 100)
    record = run_smc(model, cfg).replay_record()
    short = [run_smc(model, replace(cfg, seed=SEED + 101 + k), replay=record).log_evidence
             for k in range(SPREAD_RUNS)]
    sd = float(np.std(short, ddof=1))
    return {
        "log_evidence": float(np.mean(long_run)),
        "long_run_log_evidence": long_run,
        "sd_at_benchmark_size": sd,
        "tolerance": 6.0 * sd,
    }


def postprocess_logistic() -> dict:
    model = synthetic_logistic_model()
    means, sds = [], []
    for k in range(LONG_RUNS):
        cfg = replace(posterior_population_config(LONG_PARTICLES), seed=SEED + k)
        s = run_smc(model, cfg).snapshots[-1].sample_set()
        means.append([zvcv_estimate(s, IntegrandValues(s.theta[:, j]), ZvSpec(degree=2))[0]
                      for j in range(s.dim)])
        sds.append(weighted_sd(s.theta, s.weights))
    sd = np.mean(sds, axis=0)
    return {
        "posterior_mean": np.mean(means, axis=0).tolist(),
        "posterior_sd": sd.tolist(),
        "tolerance": (5.0 * sd / np.sqrt(POSTPROCESS_PARTICLES)).tolist(),
    }


def main() -> None:
    ref = {
        "script": "perfbench/reference.py",
        "seed": SEED,
        "sample_logistic": sample_logistic(),
        "postprocess_logistic": postprocess_logistic(),
    }
    REFERENCE_PATH.write_text(json.dumps(ref, indent=2) + "\n")
    print(json.dumps(ref, indent=2))


if __name__ == "__main__":
    main()
