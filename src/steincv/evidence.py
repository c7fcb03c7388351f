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
by its maximum absolute value; a ratio factor whose estimate is not positive
falls back to the plain weighted mean, so a factor never poisons the product.

A method that is linear in the integrand -- polynomial ZV by least squares
or ridge at a fixed penalty (combined estimator), and kernel CF with a fixed
kernel -- is a quadrature rule: its estimate is v @ f with one weight vector
v per sample set (South, Karvonen, Nemeth, Girolami & Oates 2022, "Semi-exact
control functionals from Sard's method").  That vector is kept in the
sample set's memo, so every expectation and every report on one particle
system fits it once.  The lasso, a cross-validated penalty or bandwidth, the
split estimator and ``crossval`` fit each integrand.

The reports give each expectation its own seed, derived from the report seed
and the expectation's place in the schedule.  Only the methods that draw --
the lasso, a cross-validated penalty or bandwidth, the split estimator and
``crossval`` -- derive it; vanilla and linear methods never do.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import smc
from .cf import KernelSpec, _cf_weights, _gaussian_cf_weights, cf_cv_bandwidth
from .cf import cf_estimate  # noqa: F401  (perfbench/tracing.py wraps this name)
from .errors import DegenerateWeights, InvalidInput, InvalidSchedule
from .polybasis import build_design_matrix  # noqa: F401  (perfbench/tracing.py wraps this name)
from .regression import refit_fixed_intercept  # noqa: F401  (perfbench/tracing.py wraps this name)
from .samples import IntegrandValues, SampleSet, _as_int, _check_seed
from .smc import ParticleSystem, TemperatureSchedule
from .zvcv import (
    ZvSpec, _check_degree_range, _linear_lam, _number_label, _zv_weights, crossval_select,
    zvcv_estimate,
)

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
        object.__setattr__(self, "degree", _as_int(self.degree, "polynomial order"))
        object.__setattr__(self, "folds", _as_int(self.folds, "folds"))
        if self.kind not in ("gaussian", "polynomial"):
            raise InvalidInput(f"unknown kernel kind {self.kind!r}")
        if self.kind == "polynomial" and self.degree < 1:
            raise InvalidInput("polynomial order must be >= 1")
        if self.bandwidth is not None and not 0 < self.bandwidth < np.inf:
            raise InvalidInput("bandwidth must be finite and positive")
        if not 0 <= self.lam_r < np.inf:
            raise InvalidInput("kernel regulariser must be finite and >= 0")
        if self.folds < 2:
            raise InvalidInput("cross-validation needs at least 2 folds")

    def label(self) -> str:
        """The method string that parses back to this selector."""
        poly = self.kind == "polynomial"
        parts = ["cf:poly" if poly else "cf"]
        if self.bandwidth is not None:
            parts.append(f"bw={_number_label(self.bandwidth)}")
        if poly or self.degree != 2:
            parts.append(f"Q={self.degree}")
        if self.lam_r != 0.0:
            parts.append(f"lam={_number_label(self.lam_r)}")
        if self.folds != 5:
            parts.append(f"folds={self.folds}")
        return ":".join(parts)


@dataclass(frozen=True)
class CrossvalMethod:
    """Per-expectation selection across polynomial orders and penalties."""

    max_degree: int | None = None
    min_degree: int = 1

    def __post_init__(self):
        lo, hi = _check_degree_range(self.min_degree, self.max_degree)
        object.__setattr__(self, "min_degree", lo)
        object.__setattr__(self, "max_degree", hi)

    def label(self) -> str:
        """The method string that parses back to this selector (``min_degree`` aside)."""
        return "crossval" + ("" if self.max_degree is None else f":maxQ={self.max_degree}")


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
    (log_scale=True).  ``fallback`` is "vanilla" when a ratio factor's
    estimate was not positive and the weighted mean replaced it; older
    reports may also name "fixed_intercept", a refit no longer made.
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
        d = asdict(self)
        return {**d, "temperatures": list(d["temperatures"]),
                "per_expectation": list(d["per_expectation"])}

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
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise InvalidInput(f"cannot read evidence report {path}: {exc}") from exc


def _derive_seed(seed: int, *key: int) -> int:
    _check_seed(seed)
    return int(np.random.SeedSequence(seed, spawn_key=tuple(key)).generate_state(1)[0])


@dataclass
class _MethodOutcome:
    estimate: float
    label: str
    detail: dict
    fallback: str | None = None


def _cf_memo_key(kernel: KernelSpec, lam_r: float) -> tuple:
    """The SampleSet memo key of CF weights: they depend on the draws, kernel and lam_r only."""
    return ("cf", kernel, lam_r)


def _seed_of(seed: int | tuple[int, ...]) -> int:
    """A plain seed as given, or the seed derived from a key (seed, j, k)."""
    return _derive_seed(*seed) if isinstance(seed, tuple) else seed


def _apply_method(s: SampleSet, phi: IntegrandValues, method,
                  seed: int | tuple[int, ...]) -> _MethodOutcome:
    """Estimate E[phi] under ``method``; ``seed`` is a plain seed or a key
    (seed, j, k) whose seed is derived only by the branches that draw."""
    if isinstance(method, ZvSpec):
        lam = _linear_lam(method)
        if lam is None:
            est, fit = zvcv_estimate(s, phi, method, seed=_seed_of(seed))
            lam = fit.lam
        else:
            key = ("zv", method.degree, method.subset, method.penalty, lam)
            if key not in s._memo:
                s._memo[key] = _zv_weights(s, method)
            est = float(s._memo[key] @ phi.values)
        detail = {"Q": method.degree, "penalty": method.penalty, "lam": lam}
        return _MethodOutcome(est, method.label(), detail)
    if isinstance(method, CfMethod):
        if method.kind == "gaussian":
            bw = method.bandwidth
            if bw is None:
                bw = cf_cv_bandwidth(s, phi, folds=method.folds, seed=_seed_of(seed))
            kernel = KernelSpec(kind="gaussian", bandwidth=bw)
            detail = {"bandwidth": bw, "lam_r": method.lam_r}
        else:
            kernel = KernelSpec(kind="polynomial", degree=method.degree)
            detail = {"Q": method.degree, "lam_r": method.lam_r}
        key = _cf_memo_key(kernel, method.lam_r)
        if key not in s._memo:
            s._memo[key] = _cf_weights(s, kernel, method.lam_r)
        return _MethodOutcome(float(s._memo[key] @ phi.values), kernel.label(), detail)
    if isinstance(method, CrossvalMethod):
        result, est = crossval_select(
            s, phi, seed=_seed_of(seed),
            min_degree=method.min_degree, max_degree=method.max_degree,
        )
        chosen = result.chosen
        detail = {
            "selected": chosen.label(),
            "cv_error": result.cv_error,
            "trace": [[sp.label(), e] for sp, e in result.trace],
        }
        return _MethodOutcome(est, chosen.label(), detail)
    raise InvalidInput(f"unknown control-variate method {method!r}")


def stabilised_cv_expectation(s: SampleSet, phi, method=VANILLA, *,
                              ratio: bool = False, seed: int = 0):
    """Estimate E[phi] with the regression run on phi / max|phi|.

    Returns the rescaled estimate.  With ``ratio=True`` (positive integrands
    such as likelihood-ratio factors) a control-variate estimate that is not
    positive and finite is replaced by the plain weighted mean of phi, and
    DegenerateWeights is raised if that mean is not positive either.  The
    vanilla method, and any method on an all-zero phi, return the weighted
    mean unguarded.
    """
    _check_seed(seed)
    _, est, _ = _stabilised(s, _values(s, phi), method, ratio=ratio, seed=seed)
    return est


def expectation_with_provenance(s: SampleSet, phi, method=VANILLA, *,
                                ratio: bool = False, seed: int = 0,
                                temperature: float = float("nan"),
                                kind: str = "E") -> ExpectationRecord:
    """Like :func:`stabilised_cv_expectation`, but returns a full record."""
    _check_seed(seed)
    raw, est, out = _stabilised(s, _values(s, phi), method, ratio=ratio, seed=seed)
    return _record(temperature, kind, raw, est, out)


def _values(s: SampleSet, phi) -> np.ndarray:
    values = phi.values if isinstance(phi, IntegrandValues) else \
        np.asarray(phi, dtype=float).reshape(-1)
    if values.shape[0] != s.count:
        raise InvalidInput("integrand length does not match the sample set")
    if not np.all(np.isfinite(values)):
        raise InvalidInput("integrand values must be finite")
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


def _stabilised(s: SampleSet, values: np.ndarray, method, *, ratio: bool,
                seed: int | tuple[int, ...]):
    """(raw weighted mean, estimate, outcome) of E[values] under ``method``.

    ``seed`` is a plain seed, or a key (seed, j, k) from which only a method
    that draws derives its seed (see :func:`_apply_method`).  A linear
    method -- a fixed-kernel CF method, or ZV by least squares or ridge at a
    fixed penalty -- keeps its weight vector in the memo of ``s``,
    so every expectation on one sample set builds one design or factorises
    once; a snapshot gives out one sample set per temperature, so that holds
    for every report on it too.
    """
    raw = float(s.weights @ values)
    if method is None or method == VANILLA:
        return raw, raw, _MethodOutcome(raw, VANILLA, {})
    scale = float(np.max(np.abs(values)))
    if scale == 0.0:
        return raw, 0.0, _MethodOutcome(0.0, method_label(method), {"scale": 0.0})
    out = _apply_method(s, IntegrandValues(values / scale), method, seed)
    est = out.estimate * scale
    if not ratio or (est > 0.0 and np.isfinite(est)):
        return raw, est, out
    # positivity rescue for ratio factors: the weighted mean, positive whenever
    # the integrand is
    if not (raw > 0.0 and np.isfinite(raw)):
        raise DegenerateWeights(
            "ratio factor has non-positive weighted mean; no rescue possible",
            raw=raw,
        )
    return raw, raw, _MethodOutcome(raw, out.label, out.detail, fallback="vanilla")


def _serving_sample_sets(schedule: TemperatureSchedule, snapshots, cv):
    """The sample set serving each temperature of ``schedule``, in order.

    Each is its snapshot's own SampleSet at that temperature, so every report
    on one particle system reuses its weights and memo.  For a fixed-bandwidth
    gaussian CF method the sets come from a generator that, as each set lacking
    CF weights is read, puts the next vector of one ``cf._gaussian_cf_weights``
    call over exactly those sets in its memo: the sets of one snapshot share
    its draws, so one gaussian factor serves each run of them, and one N x N
    array, holding that factor and each set's kernel, the whole report.  A
    set the report does not read gets no weights, and a failing system
    raises its typed error as the report reads its set, once.  The whole
    schedule is checked first: InvalidInput for an unknown ``cv`` or no
    snapshots, InvalidSchedule for a population index out of range or a
    snapshot above the temperature it serves.
    """
    if not _is_method(cv):
        raise InvalidInput(f"unknown control-variate method {cv!r}")
    snaps = list(snapshots.snapshots if isinstance(snapshots, ParticleSystem) else snapshots)
    if not snaps:
        raise InvalidInput("no snapshots given")
    served = list(zip(schedule.temperatures, schedule.population_index))
    for t, k in served:
        if k >= len(snaps):
            raise InvalidSchedule(f"population index {k} out of range")
        if snaps[k].t > t + 1e-9:
            raise InvalidSchedule(
                f"snapshot at t={snaps[k].t} cannot serve temperature {t}"
            )
    sets = [snaps[k].sample_set(t) for t, k in served]
    if not (isinstance(cv, CfMethod) and cv.kind == "gaussian" and cv.bandwidth is not None):
        return sets
    kernel = KernelSpec(kind="gaussian", bandwidth=cv.bandwidth)
    key = _cf_memo_key(kernel, cv.lam_r)
    weights = _gaussian_cf_weights([s for s in sets if key not in s._memo], kernel, cv.lam_r)

    def with_weights():
        for s in sets:
            if key not in s._memo:
                s._memo[key] = next(weights)
            yield s

    return with_weights()


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
    (``v_mean_mode="cv"``) or the raw weighted mean (``"raw"``).  Each
    temperature reads the serving snapshot's own sample set at t, built once
    and kept on the snapshot with its retempered weights and memo; a linear
    method (fixed-kernel CF, or ZV by least squares or fixed-penalty ridge)
    weights E and V with one weight vector from that memo, which later
    reports reuse.  With a fixed gaussian bandwidth each vector the report
    lacks is computed as the loop reads its temperature, with one gaussian
    factor per run of temperatures on one snapshot (see
    :func:`_serving_sample_sets`); at most one N x N array is live.
    Expectation k (0 for E, 1 for V) at temperature j gets the seed
    ``_derive_seed(seed, j, k)``, derived only by a method that draws.
    """
    _check_seed(seed)
    order = _as_int(order, "quadrature order")
    if order not in (1, 2):
        raise InvalidInput("quadrature order must be 1 or 2")
    if v_mean_mode not in ("cv", "raw"):
        raise InvalidInput("v_mean_mode must be 'cv' or 'raw'")
    sets = _serving_sample_sets(schedule, snapshots, cv)

    records: list[ExpectationRecord] = []
    e_vals: list[float] = []
    v_vals: list[float] = []
    for j, (t, ss) in enumerate(zip(schedule.temperatures, sets)):
        ll = ss.log_like
        raw_e, est_e, out = _stabilised(ss, ll, cv, ratio=False, seed=(seed, j, 0))
        records.append(_record(t, "E_logl", raw_e, est_e, out))
        e_vals.append(est_e)
        if order == 2:
            centre = est_e if v_mean_mode == "cv" else raw_e
            dev = ll - centre
            sq = dev * dev
            raw_v, est_v, out_v = _stabilised(ss, sq, cv, ratio=False, seed=(seed, j, 1))
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
    the reweighting increment an SMC run would record.  Factor j reads the
    serving snapshot's own sample set at t_{j-1}, the one :func:`cti_estimate`
    reads there, so a linear method (fixed-kernel CF, or ZV by least squares
    or fixed-penalty ridge) reuses the weight vector kept in its memo, or
    leaves one for later reports.  Only t_0 .. t_{n-1} are read (the loop's
    ``zip`` stops before it takes the last set), so no weights are computed at
    the last temperature.  The raw factor is
    :func:`steincv.smc._logsumexp` of the scaled log-likelihoods under the
    set's weights.  Factor j gets the seed ``_derive_seed(seed, j, 2)``,
    derived only by a method that draws.
    """
    _check_seed(seed)
    sets = _serving_sample_sets(schedule, snapshots, cv)

    temps = schedule.temperatures
    records: list[ExpectationRecord] = []
    log_z = 0.0
    for j, (t_prev, t_next, ss) in enumerate(zip(temps, temps[1:], sets), start=1):
        dll = (t_next - t_prev) * ss.log_like
        raw_log = smc._logsumexp(dll, ss.weights)
        if not np.isfinite(raw_log):
            raise DegenerateWeights(
                "telescoping factor vanished", t_prev=t_prev, t_next=t_next,
            )
        shift = float(np.max(dll))
        if cv is None or cv == VANILLA:
            est_log, out = raw_log, _MethodOutcome(raw_log, VANILLA, {})
        else:
            phi_scaled = np.exp(dll - shift)   # in (0, 1], max-scaling in log space
            _, est, out = _stabilised(ss, phi_scaled, cv, ratio=True, seed=(seed, j, 2))
            est_log = shift + float(np.log(est))
        records.append(_record(t_prev, "ratio", raw_log, est_log, out,
                               log_scale=True, t_next=t_next))
        log_z += est_log
    return _report("smc", log_z, temps, records, cv)
