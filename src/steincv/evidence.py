"""Variance-reduced evidence estimation from tempered particle populations.

Two estimators of the log normalising constant are provided, both driven by a
:class:`~steincv.smc.TemperatureSchedule` and the snapshots of a finished
annealing run:

* thermodynamic-integration quadrature of E_t[log l] over the inverse
  temperature, first order (trapezoid) or second order (trapezoid plus a
  variance-difference correction);
* the telescoping product  Z = prod_j E_{t_{j-1}}[l^(t_j - t_{j-1})], with the
  factors estimated and multiplied in log space.

Every expectation can be improved with a control variate method: a fixed
polynomial spec, kernel control functionals, or per-expectation
cross-validated selection.  Estimation always runs on the integrand divided
by its maximum absolute value; ratio factors additionally get a positivity
fallback chain (fixed-intercept refit for polynomial methods, then the plain
weighted mean) so a factor never poisons the product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from .cf import KernelSpec, _cf_weights, cf_cv_bandwidth
from .cf import cf_estimate  # noqa: F401  (perfbench/tracing.py wraps this name)
from .errors import DegenerateWeights, InvalidInput, InvalidSchedule
from .polybasis import build_design_matrix, enumerate_exponents
from .regression import refit_fixed_intercept
from .samples import IntegrandValues, SampleSet
from .smc import ParticleSystem, Snapshot, TemperatureSchedule
from .zvcv import ZvSpec, crossval_select, zvcv_estimate

VANILLA = "vanilla"


@dataclass(frozen=True)
class CfMethod:
    """Control-functional method selector.

    ``bandwidth`` None picks the gaussian bandwidth per expectation by k-fold
    cross-validation; ``lam_r`` is the kernel-matrix regulariser (0 keeps the
    interpolating estimator).
    """

    bandwidth: float | None = None
    lam_r: float = 0.0
    kind: str = "gaussian"
    degree: int = 2
    folds: int = 5

    def __post_init__(self):
        if self.kind not in ("gaussian", "polynomial"):
            raise InvalidInput(f"unknown kernel kind {self.kind!r}")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise InvalidInput("bandwidth must be positive")
        if self.lam_r < 0:
            raise InvalidInput("kernel regulariser must be >= 0")

    def label(self) -> str:
        if self.kind == "polynomial":
            return f"cf:poly:Q={self.degree}"
        if self.bandwidth is None:
            return "cf"
        return f"cf:bw={self.bandwidth:g}"


@dataclass(frozen=True)
class CrossvalMethod:
    """Per-expectation selection across polynomial orders and penalties."""

    max_degree: int | None = None
    min_degree: int = 1

    def label(self) -> str:
        return "crossval"


def method_label(method) -> str:
    if method is None or method == VANILLA:
        return VANILLA
    return method.label()


def _is_method(method) -> bool:
    return (
        method is None
        or method == VANILLA
        or isinstance(method, (ZvSpec, CfMethod, CrossvalMethod))
    )


@dataclass(frozen=True)
class ExpectationRecord:
    """Provenance of one estimated expectation.

    ``raw`` is the plain weighted mean, ``estimate`` the control-variate
    value actually used.  Ratio records hold both on the log scale
    (log_scale=True).  ``fallback`` marks the positivity rescue that fired,
    if any.
    """

    temperature: float
    kind: str                    # "E_logl" | "V_logl" | "ratio"
    raw: float
    estimate: float
    method: str
    detail: dict = field(default_factory=dict)
    fallback: str | None = None
    log_scale: bool = False


@dataclass(frozen=True)
class EvidenceReport:
    """One evidence estimate with full per-expectation provenance."""

    estimator: str               # "cti1" | "cti2" | "smc"
    log_evidence: float
    temperatures: tuple[float, ...]
    per_expectation: tuple[ExpectationRecord, ...]
    method: str
    fallbacks_triggered: int = 0

    def to_dict(self) -> dict:
        return {
            "estimator": self.estimator,
            "log_evidence": self.log_evidence,
            "temperatures": list(self.temperatures),
            "method": self.method,
            "fallbacks_triggered": self.fallbacks_triggered,
            "per_expectation": [
                {
                    "temperature": r.temperature,
                    "kind": r.kind,
                    "raw": r.raw,
                    "estimate": r.estimate,
                    "method": r.method,
                    "detail": r.detail,
                    "fallback": r.fallback,
                    "log_scale": r.log_scale,
                }
                for r in self.per_expectation
            ],
        }

    def save(self, path) -> None:
        with Path(path).open("w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_dict(cls, d: dict) -> "EvidenceReport":
        records = tuple(
            ExpectationRecord(
                temperature=float(r["temperature"]),
                kind=r["kind"],
                raw=float(r["raw"]),
                estimate=float(r["estimate"]),
                method=r["method"],
                detail=r.get("detail", {}),
                fallback=r.get("fallback"),
                log_scale=bool(r.get("log_scale", False)),
            )
            for r in d["per_expectation"]
        )
        return cls(
            estimator=d["estimator"],
            log_evidence=float(d["log_evidence"]),
            temperatures=tuple(float(t) for t in d["temperatures"]),
            per_expectation=records,
            method=d["method"],
            fallbacks_triggered=int(d.get("fallbacks_triggered", 0)),
        )

    @classmethod
    def load(cls, path) -> "EvidenceReport":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            raise InvalidInput(f"cannot read evidence report {path}: {exc}") from exc


def _derive_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=tuple(key)).generate_state(1)[0])


@dataclass
class _MethodOutcome:
    estimate: float
    label: str
    detail: dict
    zv_spec: ZvSpec | None = None   # resolved polynomial spec, for fallbacks
    lam: float = 0.0
    fallback: str | None = None


def _apply_method(s: SampleSet, phi: IntegrandValues, method, seed: int,
                  cf_memo: dict) -> _MethodOutcome:
    if method is None or method == VANILLA:
        return _MethodOutcome(float(s.weights @ phi.values), VANILLA, {})
    if isinstance(method, ZvSpec):
        est, fit = zvcv_estimate(s, phi, method, seed=seed)
        detail = {"Q": method.degree, "penalty": method.penalty, "lam": fit.lam}
        return _MethodOutcome(est, method.label(), detail, zv_spec=method, lam=fit.lam)
    if isinstance(method, CfMethod):
        if method.kind == "gaussian":
            bw = method.bandwidth
            if bw is None:
                bw = cf_cv_bandwidth(s, phi, folds=method.folds, seed=seed)
            kernel = KernelSpec(kind="gaussian", bandwidth=bw)
            detail = {"bandwidth": bw, "lam_r": method.lam_r}
        else:
            kernel = KernelSpec(kind="polynomial", degree=method.degree)
            detail = {"Q": method.degree, "lam_r": method.lam_r}
        # the CF weights depend on the draws, the kernel and lam_r only
        key = (kernel, method.lam_r)
        if key not in cf_memo:
            cf_memo[key] = _cf_weights(s, kernel, method.lam_r)
        return _MethodOutcome(float(cf_memo[key] @ phi.values), kernel.label(), detail)
    if isinstance(method, CrossvalMethod):
        result, est = crossval_select(
            s, phi, seed=seed,
            min_degree=method.min_degree, max_degree=method.max_degree,
        )
        chosen = result.chosen
        detail = {
            "selected": chosen.label(),
            "cv_error": result.cv_error,
            "trace": [[sp.label(), e] for sp, e in result.trace],
        }
        return _MethodOutcome(est, chosen.label(), detail, zv_spec=chosen,
                              lam=chosen.lam or 0.0)
    raise InvalidInput(f"unknown control-variate method {method!r}")


def stabilised_cv_expectation(s: SampleSet, phi, method=VANILLA, *,
                              ratio: bool = False, seed: int = 0):
    """Estimate E[phi] with the regression run on phi / max|phi|.

    Returns the rescaled estimate.  With ``ratio=True`` (positive integrands
    such as likelihood-ratio factors) a non-positive estimate triggers the
    fallback chain: polynomial methods are refit with the intercept pinned at
    the weighted mean of phi; if the result is still non-positive (and always
    for kernel methods) the plain weighted mean is used instead.
    """
    _, est, _ = _stabilised(s, _values(s, phi), method, ratio=ratio, seed=seed)
    return est


def expectation_with_provenance(s: SampleSet, phi, method=VANILLA, *,
                                ratio: bool = False, seed: int = 0,
                                temperature: float = float("nan"),
                                kind: str = "E") -> ExpectationRecord:
    """Like :func:`stabilised_cv_expectation`, but returns a full record."""
    raw, est, out = _stabilised(s, _values(s, phi), method, ratio=ratio, seed=seed)
    return _record(temperature, kind, raw, est, out)


def _values(s: SampleSet, phi) -> np.ndarray:
    values = phi.values if isinstance(phi, IntegrandValues) else \
        np.asarray(phi, dtype=float).reshape(-1)
    if values.shape[0] != s.count:
        raise InvalidInput("integrand length does not match the sample set")
    return values


def _record(temperature: float, kind: str, raw: float, estimate: float,
            out: _MethodOutcome, *, log_scale: bool = False, **detail) -> ExpectationRecord:
    return ExpectationRecord(
        temperature=temperature, kind=kind, raw=raw, estimate=estimate,
        method=out.label, detail={**out.detail, **detail}, fallback=out.fallback,
        log_scale=log_scale,
    )


def _report(estimator: str, log_z: float, temperatures, records, cv) -> EvidenceReport:
    return EvidenceReport(
        estimator=estimator,
        log_evidence=log_z,
        temperatures=temperatures,
        per_expectation=tuple(records),
        method=method_label(cv),
        fallbacks_triggered=sum(r.fallback is not None for r in records),
    )


def _stabilised(s: SampleSet, values: np.ndarray, method, *, ratio: bool, seed: int,
                cf_memo: dict | None = None):
    """(raw weighted mean, estimate, outcome) of E[values] under ``method``.

    ``cf_memo`` maps (KernelSpec, lam_r) to the CF weights of ``s``; pass one
    dict to every expectation of one sample set to share them.
    """
    raw = float(s.weights @ values)
    if method is None or method == VANILLA:
        return raw, raw, _MethodOutcome(raw, VANILLA, {})
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return raw, 0.0, _MethodOutcome(0.0, method_label(method), {"scale": 0.0})
    out = _apply_method(s, IntegrandValues(values / scale), method, seed,
                        {} if cf_memo is None else cf_memo)
    est = out.estimate * scale
    if not ratio:
        return raw, est, out
    if est > 0.0 and np.isfinite(est):
        return raw, est, out
    # positivity rescue for ratio factors
    c0 = raw  # weighted mean; positive whenever the integrand is
    if out.zv_spec is not None:
        spec = out.zv_spec
        A = enumerate_exponents(s.dim, spec.degree, spec.subset)
        X = build_design_matrix(s, A)
        fb = refit_fixed_intercept(
            X, values / scale, s.weights, intercept=c0 / scale,
            method=spec.penalty, lam=out.lam,
        )
        est_fb = scale * float(c0 / scale + s.weights @ (X @ fb.beta))
        if est_fb > 0.0 and np.isfinite(est_fb):
            return raw, est_fb, _MethodOutcome(est_fb, out.label, out.detail,
                                               zv_spec=spec, lam=out.lam,
                                               fallback="fixed_intercept")
    if not (c0 > 0.0 and np.isfinite(c0)):
        raise DegenerateWeights(
            "ratio factor has non-positive weighted mean; no rescue possible",
            raw=c0,
        )
    return raw, c0, _MethodOutcome(c0, out.label, out.detail, fallback="vanilla")


def _as_snapshots(snapshots) -> list[Snapshot]:
    if isinstance(snapshots, ParticleSystem):
        return list(snapshots.snapshots)
    snaps = list(snapshots)
    if not snaps:
        raise InvalidInput("no snapshots given")
    return snaps


def _cf_memo(snap: Snapshot, t: float) -> dict:
    """CF weight memo of ``snap`` retempered to ``t``, shared by every report."""
    return snap._cf_weights.setdefault(t, {})


def _check_schedule(schedule: TemperatureSchedule, snaps: list[Snapshot]) -> None:
    for t, k in zip(schedule.temperatures, schedule.population_index):
        if k >= len(snaps):
            raise InvalidSchedule(f"population index {k} out of range")
        if snaps[k].t > t + 1e-9:
            raise InvalidSchedule(
                f"snapshot at t={snaps[k].t} cannot serve temperature {t}"
            )


def cti_quadrature(temperatures, e_values, v_values=None) -> float:
    """Quadrature of E_t[log l] over t in [0, 1].

    First order is the trapezoid rule; passing per-temperature variances adds
    the second-order correction  -sum (dt)^2 / 12 * (V_{j+1} - V_j).
    """
    t = np.asarray(temperatures, dtype=float)
    e = np.asarray(e_values, dtype=float)
    if t.ndim != 1 or t.shape != e.shape or t.size < 2:
        raise InvalidInput("need aligned temperature and expectation arrays")
    dt = np.diff(t)
    total = float(np.sum(dt * 0.5 * (e[:-1] + e[1:])))
    if v_values is not None:
        v = np.asarray(v_values, dtype=float)
        if v.shape != t.shape:
            raise InvalidInput("variance array does not match the schedule")
        total -= float(np.sum(dt * dt / 12.0 * (v[1:] - v[:-1])))
    return total


def cti_estimate(schedule: TemperatureSchedule, snapshots, order: int = 2,
                 cv=VANILLA, *, v_mean_mode: str = "cv", seed: int = 0) -> EvidenceReport:
    """Thermodynamic-integration estimate of log Z over a temperature schedule.

    Per temperature, E_t[log l] (and for ``order=2`` the variance
    V_t[log l]) are estimated from the serving snapshot reweighted to t, each
    expectation improved by the ``cv`` method independently.  The variance
    integrand squares deviations from the CV-improved mean
    (``v_mean_mode="cv"``) or the raw weighted mean (``"raw"``).  A
    fixed-kernel CF method weights E and V with one weight vector per
    temperature, kept on the serving snapshot for later reports.
    """
    if order not in (1, 2):
        raise InvalidInput("quadrature order must be 1 or 2")
    if v_mean_mode not in ("cv", "raw"):
        raise InvalidInput("v_mean_mode must be 'cv' or 'raw'")
    if not _is_method(cv):
        raise InvalidInput(f"unknown control-variate method {cv!r}")
    snaps = _as_snapshots(snapshots)
    _check_schedule(schedule, snaps)

    records: list[ExpectationRecord] = []
    e_vals: list[float] = []
    v_vals: list[float] = []
    for j, (t, k) in enumerate(zip(schedule.temperatures, schedule.population_index)):
        ss = snaps[k].sample_set(t)
        if ss.log_like is None:
            raise InvalidInput("snapshots lack log-likelihood values")
        ll = ss.log_like
        cf_memo = _cf_memo(snaps[k], t)   # E and V share this temperature's CF weights
        raw_e, est_e, out = _stabilised(ss, ll, cv, ratio=False,
                                        seed=_derive_seed(seed, j, 0), cf_memo=cf_memo)
        records.append(_record(t, "E_logl", raw_e, est_e, out))
        e_vals.append(est_e)
        if order == 2:
            centre = est_e if v_mean_mode == "cv" else raw_e
            dev = ll - centre
            sq = dev * dev
            raw_v, est_v, out_v = _stabilised(ss, sq, cv, ratio=False,
                                              seed=_derive_seed(seed, j, 1),
                                              cf_memo=cf_memo)
            records.append(_record(t, "V_logl", raw_v, est_v, out_v))
            v_vals.append(est_v)

    log_z = cti_quadrature(
        schedule.temperatures, e_vals, v_vals if order == 2 else None
    )
    return _report(f"cti{order}", log_z, schedule.temperatures, records, cv)


def smc_evidence_estimate(schedule: TemperatureSchedule, snapshots,
                          cv=VANILLA, *, seed: int = 0) -> EvidenceReport:
    """Telescoping-product estimate of log Z over a temperature schedule.

    Factor j is E under p_{t_{j-1}} of l^(t_j - t_{j-1}), estimated from the
    serving snapshot on the max-scaled integrand and accumulated in log
    space; the scaling itself is done on log values, so likelihoods spanning
    hundreds of log units are safe.  With cv="vanilla" each factor is exactly
    the reweighting increment an SMC run would record.  A fixed-kernel CF
    method reuses the weight vectors :func:`cti_estimate` left on the
    snapshots at t_{j-1}, and leaves its own for later reports.
    """
    if not _is_method(cv):
        raise InvalidInput(f"unknown control-variate method {cv!r}")
    snaps = _as_snapshots(snapshots)
    _check_schedule(schedule, snaps)

    temps = schedule.temperatures
    pops = schedule.population_index
    records: list[ExpectationRecord] = []
    log_z = 0.0
    for j in range(1, len(temps)):
        t_prev, t_next = temps[j - 1], temps[j]
        ss = snaps[pops[j - 1]].sample_set(t_prev)
        if ss.log_like is None:
            raise InvalidInput("snapshots lack log-likelihood values")
        dll = (t_next - t_prev) * ss.log_like
        raw_log = float(logsumexp(dll, b=ss.weights))
        if not np.isfinite(raw_log):
            raise DegenerateWeights(
                "telescoping factor vanished", t_prev=t_prev, t_next=t_next,
            )
        shift = float(np.max(dll))
        if cv is None or cv == VANILLA:
            est_log, out = raw_log, _MethodOutcome(raw_log, VANILLA, {})
        else:
            phi_scaled = np.exp(dll - shift)   # in (0, 1], max-scaling in log space
            _, est, out = _stabilised(
                ss, phi_scaled, cv, ratio=True, seed=_derive_seed(seed, j, 2),
                cf_memo=_cf_memo(snaps[pops[j - 1]], t_prev),
            )
            est_log = shift + float(np.log(est))
        records.append(_record(t_prev, "ratio", raw_log, est_log, out,
                               log_scale=True, t_next=t_next))
        log_z += est_log
    return _report("smc", log_z, temps, records, cv)
