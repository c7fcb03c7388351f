"""Spans and counters recorded around calls into each steincv module.

The tracer wraps module attributes (and model methods) at the place where the
caller looks them up: ``cf.cho_factor`` is the name ``cf_estimate`` resolves,
``zvcv.build_design_matrix`` and ``evidence.build_design_matrix`` are the two
names the design matrix is built through.  A wrapper records a span (name,
start, end, parent) and updates counters from the call's arguments and result.
Spans stay in memory; per-layer metrics are computed from them after the run.
``restore`` puts every original object back, and ``restored`` confirms it.

A layer is the module part of a span name (``regression.lasso`` belongs to
``regression``).  Root spans (``bench.job``, ``bench.prologue``) are opened by
the harness; their self time is time no library span covers.
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from scipy.linalg import LinAlgError

from steincv import cf, evidence, models, regression, smc, zvcv

# (unit, name) of every per-layer metric, in report order.
PER_LAYER = (
    ("count", "models.calls"), ("count", "models.rows"),
    ("s", "models.busy_s"), ("1/s", "models.rows_per_s"),
    ("count", "smc.temperatures"), ("count", "smc.tune_sweeps"),
    ("count", "smc.move_sweeps"), ("ratio", "smc.useful_sweep_frac"),
    ("ratio", "smc.acceptance"), ("s", "smc.tune_s"), ("s", "smc.bisect_s"),
    ("s", "smc.distance_s"), ("s", "smc.posthoc_s"), ("s", "smc.self_s"),
    ("s", "samples.csv_write_s"), ("B", "samples.csv_write_bytes"),
    ("s", "samples.csv_read_s"), ("B", "samples.csv_read_bytes"),
    ("count", "samples.standardise_calls"), ("s", "samples.standardise_s"),
    ("count", "polybasis.designs"), ("count", "polybasis.design_cells"),
    ("count", "polybasis.repeat_designs"), ("s", "polybasis.design_s"),
    ("count", "regression.ols_fits"), ("count", "regression.ridge_fits"),
    ("count", "regression.lasso_fits"), ("count", "regression.lasso_sweeps"),
    ("count", "regression.cv_calls"), ("s", "regression.ridge_s"),
    ("s", "regression.lasso_s"), ("s", "regression.cv_s"),
    ("count", "zvcv.estimates"), ("s", "zvcv.busy_s"), ("s", "zvcv.self_s"),
    ("count", "cf.kernels"), ("count", "cf.kernel_cells"),
    ("count", "cf.repeat_kernels"), ("count", "cf.factorisations"),
    ("count", "cf.factor_failures"), ("s", "cf.factor_s"),
    ("count", "cf.bw_searches"), ("s", "cf.bw_search_s"), ("s", "cf.busy_s"),
    ("count", "evidence.reports"), ("count", "evidence.expectations"),
    ("count", "evidence.fallbacks"), ("ratio", "evidence.fallback_frac"),
    ("s", "evidence.self_s"),
    ("ratio", "bench.trace_overhead_frac"), ("s", "bench.unattributed_s"),
)

# Counters that must repeat exactly between two traced passes with one seed.
COUNTS = tuple(name for unit, name in PER_LAYER if unit in ("count", "B"))

_MODEL_METHODS = ("log_like", "grad_log_like", "log_prior", "grad_log_prior", "sample_prior")


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        if isinstance(a, (int, float, str)):
            h.update(repr(a).encode())
        else:
            h.update(a.tobytes())
            h.update(repr(a.shape).encode())
    return h.digest()


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """Installs wrappers, records spans and counters, and restores originals."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.acceptance_sum = 0.0
        self._stack: list[int] = []
        self._seen: set[bytes] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}

    # --- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str):
        """A harness span; ``bench.job`` also starts a new repeat-detection scope."""
        if name == "bench.job":
            self._seen.clear()
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _repeat(self, key: bytes) -> bool:
        seen = key in self._seen
        self._seen.add(key)
        return seen

    # --- wrapping ------------------------------------------------------------

    def _wrap(self, owner, attr: str, span: str, after=None, on_error=None) -> None:
        orig = owner.__dict__[attr]
        wrapper = self._wrappers.get(id(orig))
        if wrapper is None:
            tracer = self

            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                idx = tracer._open(span)
                try:
                    result = orig(*args, **kwargs)
                except BaseException as exc:
                    tracer._close(idx)
                    if on_error is not None:
                        on_error(exc)
                    raise
                tracer._close(idx)
                if after is not None:
                    after(args, kwargs, result)
                return result

            self._wrappers[id(orig)] = wrapper
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        c = self.counts

        def model_done(a, k, r):
            c["models.calls"] += 1
            c["models.rows"] += len(r)   # one value or gradient row per particle

        for cls in (models.LogisticModel, models.ConjugateGaussianModel):
            for attr in _MODEL_METHODS:
                self._wrap(cls, attr, f"models.{attr}", after=model_done)

        def run_done(a, k, ps):
            steps = ps.snapshots[1:]
            c["smc.temperatures"] += len(steps)
            c["smc.move_sweeps"] += sum(s.repeats for s in steps)
            self.acceptance_sum += sum(s.acceptance * s.repeats for s in steps)

        self._wrap(smc, "run_smc", "smc.run", after=run_done)
        self._wrap(smc, "tune_step_size", "smc.tune",
                   after=lambda a, k, r: c.update({"smc.tune_sweeps": len(_arg(a, k, 5, "grid"))}))
        self._wrap(smc, "next_temperature", "smc.bisect")
        self._wrap(smc, "mean_interparticle_distance", "smc.distance")
        self._wrap(smc, "posthoc_schedule", "smc.posthoc",
                   after=lambda a, k, sched: c.update({"smc.temperatures": len(sched) - 1}))
        self._wrap(smc, "save_particle_system", "smc.save")
        self._wrap(smc, "load_particle_system", "smc.load")

        def file_bytes(key, pos):
            return lambda a, k, r: c.update({key: os.path.getsize(_arg(a, k, pos, "path"))})

        self._wrap(smc, "write_sample_csv", "samples.csv_write",
                   after=file_bytes("samples.csv_write_bytes", 1))
        self._wrap(smc, "read_sample_csv", "samples.csv_read",
                   after=file_bytes("samples.csv_read_bytes", 0))
        self._wrap(regression, "standardise", "samples.standardise",
                   after=lambda a, k, r: c.update({"samples.standardise_calls": 1}))

        def design_done(theta, grad, A, X):
            c["polybasis.designs"] += 1
            c["polybasis.design_cells"] += X.size
            c["polybasis.repeat_designs"] += self._repeat(_digest("design", A, theta, grad))

        def sample_design(a, k, X):
            s, A = _arg(a, k, 0, "s"), _arg(a, k, 1, "A")
            design_done(s.theta, s.grad_log_target, A.A, X)

        for owner in (zvcv, evidence):
            self._wrap(owner, "build_design_matrix", "polybasis.design", after=sample_design)
        self._wrap(cf, "design_columns", "polybasis.design",
                   after=lambda a, k, X: design_done(a[1], a[2], a[0], X))

        def fitted(kind):
            def after(a, k, fit):
                c[f"regression.{kind}_fits"] += 1
                if kind == "lasso":
                    c["regression.lasso_sweeps"] += fit.n_sweeps
            return after

        for owner in (zvcv, regression):
            self._wrap(owner, "fit_ols", "regression.ols", after=fitted("ols"))
            self._wrap(owner, "fit_ridge", "regression.ridge", after=fitted("ridge"))
            self._wrap(owner, "fit_lasso", "regression.lasso", after=fitted("lasso"))
        self._wrap(zvcv, "cv_lambda", "regression.cv",
                   after=lambda a, k, r: c.update({"regression.cv_calls": 1}))

        def refit_done(a, k, fit):
            kind = fit.method.split("-")[0]
            c[f"regression.{kind}_fits"] += 1
            c["regression.lasso_sweeps"] += fit.n_sweeps

        self._wrap(evidence, "refit_fixed_intercept", "regression.refit", after=refit_done)
        self._wrap(evidence, "zvcv_estimate", "zvcv.estimate",
                   after=lambda a, k, r: c.update({"zvcv.estimates": 1}))

        def kernel_done(K, key):
            c["cf.kernels"] += 1
            c["cf.kernel_cells"] += K.size
            c["cf.repeat_kernels"] += self._repeat(key)

        def stein_done(a, k, K):
            s, spec = _arg(a, k, 0, "s"), _arg(a, k, 1, "kernel")
            if spec.kind == "polynomial":   # gaussian builds are counted in the cross block
                kernel_done(K, _digest("poly", spec.degree, s.theta, s.grad_log_target))

        self._wrap(cf, "stein_kernel_matrix", "cf.kernel", after=stein_done)
        self._wrap(cf, "_gaussian_stein_cross", "cf.gaussian_block",
                   after=lambda a, k, K: kernel_done(K, _digest("gauss", *a)))

        def factor_failed(exc):
            c["cf.factorisations"] += 1
            if isinstance(exc, LinAlgError):
                c["cf.factor_failures"] += 1

        self._wrap(cf, "cho_factor", "cf.factor",
                   after=lambda a, k, r: c.update({"cf.factorisations": 1}),
                   on_error=factor_failed)
        self._wrap(evidence, "cf_estimate", "cf.estimate")
        self._wrap(evidence, "cf_cv_bandwidth", "cf.bw_search",
                   after=lambda a, k, r: c.update({"cf.bw_searches": 1}))

        def report_done(a, k, rep):
            c["evidence.reports"] += 1
            c["evidence.expectations"] += len(rep.per_expectation)
            c["evidence.fallbacks"] += rep.fallbacks_triggered

        def record_done(a, k, rec):
            c["evidence.expectations"] += 1
            c["evidence.fallbacks"] += rec.fallback is not None

        self._wrap(evidence, "cti_estimate", "evidence.report", after=report_done)
        self._wrap(evidence, "smc_evidence_estimate", "evidence.report", after=report_done)
        self._wrap(evidence, "expectation_with_provenance", "evidence.expectation",
                   after=record_done)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)

    def restored(self) -> bool:
        return all(owner.__dict__[attr] is orig for owner, attr, orig in self._patches)

    # --- metrics -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics (without the ``bench.trace_overhead_frac`` ratio)."""
        n = len(self.spans)
        child = [0.0] * n
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total = defaultdict(float)      # summed duration per span name
        self_by_layer = defaultdict(float)
        busy = defaultdict(float)       # outermost spans of each layer
        layer_of = [s[0].split(".", 1)[0] for s in self.spans]
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            dur = t1 - t0
            total[name] += dur
            self_by_layer[layer_of[i]] += dur - child[i]
            p = parent
            while p >= 0 and layer_of[p] != layer_of[i]:
                p = self.spans[p][3]
            if p < 0:
                busy[layer_of[i]] += dur

        c = self.counts
        m = {name: float(c[name]) for name in COUNTS}
        m["models.busy_s"] = busy["models"]
        m["models.rows_per_s"] = c["models.rows"] / busy["models"] if busy["models"] else 0.0
        sweeps = c["smc.move_sweeps"] + c["smc.tune_sweeps"]
        m["smc.useful_sweep_frac"] = c["smc.move_sweeps"] / sweeps if sweeps else 0.0
        m["smc.acceptance"] = (self.acceptance_sum / c["smc.move_sweeps"]
                               if c["smc.move_sweeps"] else 0.0)
        m["smc.tune_s"] = total["smc.tune"]
        m["smc.bisect_s"] = total["smc.bisect"]
        m["smc.distance_s"] = total["smc.distance"]
        m["smc.posthoc_s"] = total["smc.posthoc"]
        m["smc.self_s"] = self_by_layer["smc"]
        m["samples.csv_write_s"] = total["samples.csv_write"]
        m["samples.csv_read_s"] = total["samples.csv_read"]
        m["samples.standardise_s"] = total["samples.standardise"]
        m["polybasis.design_s"] = busy["polybasis"]
        m["regression.ridge_s"] = total["regression.ridge"]
        m["regression.lasso_s"] = total["regression.lasso"]
        m["regression.cv_s"] = total["regression.cv"]
        m["zvcv.busy_s"] = busy["zvcv"]
        m["zvcv.self_s"] = self_by_layer["zvcv"]
        m["cf.factor_s"] = total["cf.factor"]
        m["cf.bw_search_s"] = total["cf.bw_search"]
        m["cf.busy_s"] = busy["cf"]
        exps = c["evidence.expectations"]
        m["evidence.fallback_frac"] = c["evidence.fallbacks"] / exps if exps else 0.0
        m["evidence.self_s"] = self_by_layer["evidence"]
        m["bench.unattributed_s"] = self_by_layer["bench"]
        return m
