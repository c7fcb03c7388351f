"""Polynomial Stein control variate estimators.

Given weighted draws with log-target gradients and integrand values phi, fit
phi(theta) ~ c - x(theta)^T beta over the degree-Q Stein covariates x and
report sum_i w_i (phi_i + x_i^T beta).  For an exactly-fitting basis the
estimator returns c with zero variance; for plain least squares it *is* c.

Two estimators are provided: "combined" reuses all draws for fitting and
evaluation (biased in general, exact in the polynomial case); "split" fits on
one half and evaluates on the other, in both directions, which keeps the
estimator unbiased at fixed penalty.

``crossval_select`` picks polynomial order, penalty type and coordinate subset
by 2-fold cross-validation, ascending in Q until the error worsens.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import BasisTooLarge, InsufficientSamples, InvalidInput, SteinCvError
from .polybasis import SubsetSpec, build_design_matrix, enumerate_exponents
from .regression import (
    CvConfig, RegressionFit, _fit_weights, cv_lambda, fit_lasso, fit_ols, fit_ridge,
)
from .samples import IntegrandValues, SampleSet, _as_int, check_aligned

logger = logging.getLogger(__name__)

_PENALTIES = ("ols", "ridge", "lasso")
# preference order on cross-validation ties: plain least squares first
_PENALTY_RANK = {"ols": 0, "lasso": 1, "ridge": 2}


@dataclass(frozen=True)
class ZvSpec:
    """One ZV-CV configuration: order, penalty, coordinate subset, estimator.

    ``lam`` fixes the penalty level; None selects it by cross-validation with
    ``cv`` (defaults apply when that is None too).  ``relaxed`` requests the
    least-squares refit of the lasso support.
    """

    degree: int = 2
    penalty: str = "ols"
    subset: SubsetSpec | None = None
    estimator: str = "combined"
    lam: float | None = None
    cv: CvConfig | None = None
    relaxed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "degree", _as_int(self.degree, "polynomial order"))
        if self.degree < 1:
            raise InvalidInput("polynomial order must be an integer >= 1")
        if self.penalty not in _PENALTIES:
            raise InvalidInput(f"unknown penalty {self.penalty!r}")
        if self.estimator not in ("combined", "split"):
            raise InvalidInput(f"unknown estimator {self.estimator!r}")

    def label(self) -> str:
        """The method string that parses back to this spec (``cv`` aside)."""
        parts = [f"zv:Q={self.degree}", self.penalty]
        if self.lam is not None:
            parts.append(f"lam={_number_label(self.lam)}")
        if self.relaxed:
            parts.append("relaxed")
        if self.subset is not None:
            parts.append("sub=" + "+".join(str(i + 1) for i in self.subset.indices))
        if self.estimator != "combined":
            parts.append(self.estimator)
        return ":".join(parts)


def _number_label(x: float) -> str:
    """``x`` in %g form, or its repr where %g would not parse back to it."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


@dataclass(frozen=True)
class CvSelectionResult:
    """Outcome of crossval_select: winner, its error, and the full trace."""

    chosen: ZvSpec
    cv_error: float
    trace: tuple[tuple[ZvSpec, float], ...]


def _fit_dispatch(X, f, w, spec: ZvSpec, seed: int) -> RegressionFit:
    if spec.penalty == "ols":
        return fit_ols(X, f, w)
    if spec.lam is not None:
        if spec.penalty == "ridge":
            return fit_ridge(X, f, w, lam=spec.lam)
        return fit_lasso(X, f, w, lam=spec.lam, relaxed=spec.relaxed)
    cfg = spec.cv or CvConfig(seed=seed)
    _, fit = cv_lambda(X, f, w, method=spec.penalty, cfg=cfg)
    if spec.penalty == "lasso" and spec.relaxed:
        fit = fit_lasso(X, f, w, lam=fit.lam, relaxed=True)
    return fit


def _cv_corrected_mean(phi, X, weights, fit: RegressionFit) -> float:
    return float(weights @ (phi + X @ fit.beta))


def _halves(n: int, seed: int, what: str):
    """The two halves of a seeded random permutation of n >= 4 draws."""
    if n < 4:
        raise InsufficientSamples(f"{what} needs at least four draws")
    perm = np.random.default_rng(seed).permutation(n)
    return perm[: n // 2], perm[n // 2 :]


def _half_fits(X, f, w, spec: ZvSpec, halves, seed: int):
    """Fit on each half in turn; yield (fit, X, f, normalised weights) of the other."""
    for k, half in enumerate(halves, start=1):
        if w[half].sum() <= 0.0:
            raise InsufficientSamples(f"half {k} of the split has zero total weight")
    for train, hold in (halves, halves[::-1]):
        w_tr = w[train] / w[train].sum()
        fit = _fit_dispatch(X[train], f[train], w_tr, spec, seed)
        w_ho = w[hold] / w[hold].sum()
        yield fit, X[hold], f[hold], w_ho


def zvcv_estimate(s: SampleSet, phi: IntegrandValues, spec: ZvSpec, seed: int = 0):
    """Control-variate estimate of E[phi] under the samples' target.

    Returns (estimate, fit).  For the split estimator the reported fit is the
    one from the first half (diagnostic only); the estimate averages both
    fit-on-one-half / evaluate-on-the-other directions.
    """
    check_aligned(s, phi)
    A = enumerate_exponents(s.dim, spec.degree, spec.subset)
    X = build_design_matrix(s, A)
    f = phi.values
    w = s.weights

    if spec.estimator == "combined":
        fit = _fit_dispatch(X, f, w, spec, seed)
        return _cv_corrected_mean(f, X, w, fit), fit

    halves = _halves(s.count, seed, "split estimator")
    fits, estimates = [], []
    for fit, X_ho, f_ho, w_ho in _half_fits(X, f, w, spec, halves, seed):
        fits.append(fit)
        estimates.append(_cv_corrected_mean(f_ho, X_ho, w_ho, fit))
    return float(np.mean(estimates)), fits[0]


def _linear_lam(spec: ZvSpec) -> float | None:
    """The penalty of a spec whose estimate is linear in the integrand, else None.

    The combined estimator with OLS (0) or ridge at a fixed lam is one weight
    vector per sample set (:func:`_zv_weights`); the lasso, a CV-chosen lam
    and the split estimator fit each integrand.
    """
    if spec.estimator != "combined":
        return None
    if spec.penalty == "ols":
        return 0.0
    if spec.penalty == "ridge" and spec.lam is not None:
        return float(spec.lam)
    return None


def _zv_weights(s: SampleSet, spec: ZvSpec) -> np.ndarray:
    """Weights v with v @ phi.values equal to ``zvcv_estimate(s, phi, spec)`` for
    every integrand phi; ``spec`` must have a :func:`_linear_lam`."""
    A = enumerate_exponents(s.dim, spec.degree, spec.subset)
    X = build_design_matrix(s, A)
    return _fit_weights(X, s.weights, _linear_lam(spec), standardised=spec.penalty == "ridge")


def apriori_estimate(s: SampleSet, phi: IntegrandValues, subset: SubsetSpec,
                     inner: ZvSpec, seed: int = 0) -> float:
    """ZV-CV restricted to a coordinate subset of the gradient.

    Only gradient columns in ``subset`` are read, so draws whose other
    gradient coordinates are NaN-masked work unchanged.
    """
    est, _ = zvcv_estimate(s, phi, replace(inner, subset=subset), seed=seed)
    return est


def _holdout_error(X, f, w, spec: ZvSpec, halves, seed: int) -> float:
    """Weighted mean squared hold-out residual averaged over both directions."""
    errs = []
    for fit, X_ho, f_ho, w_ho in _half_fits(X, f, w, spec, halves, seed):
        resid = f_ho - fit.predict(X_ho)
        errs.append(float(w_ho @ (resid * resid)))
    return float(np.mean(errs))


def _check_degree_range(min_degree, max_degree) -> tuple[int, int | None]:
    """(min_degree, max_degree) as ints; InvalidInput unless both are integers
    with 1 <= min_degree <= max_degree (None: no cap).

    The selection scores min_degree before it reads the cap, so a lower cap
    would be overruled.
    """
    min_degree = _as_int(min_degree, "min_degree")
    if max_degree is not None:
        max_degree = _as_int(max_degree, "max_degree")
    if min_degree < 1:
        raise InvalidInput("min_degree must be >= 1")
    if max_degree is not None and max_degree < min_degree:
        raise InvalidInput(f"max_degree {max_degree} is below min_degree {min_degree}")
    return min_degree, max_degree


def crossval_select(
    s: SampleSet,
    phi: IntegrandValues,
    candidates=None,
    seed: int = 0,
    min_degree: int = 1,
    max_degree: int | None = None,
):
    """Select order/penalty/subset by 2-fold cross-validation.

    ``candidates`` is an iterable of (penalty, subset) pairs, defaulting to all
    three penalties on the full coordinate set.  Each candidate ascends from
    ``min_degree`` until its error worsens (or the basis cap / ``max_degree``
    stops it).  The global minimiser wins; ties break to lower Q, then
    ols > lasso > ridge, then smaller subset.  Candidates failing at their
    first order are excluded with a logged diagnostic.

    Returns (CvSelectionResult, estimate) with the estimate from a full-data
    refit of the winner.
    """
    check_aligned(s, phi)
    if candidates is None:
        candidates = [(p, None) for p in _PENALTIES]
    min_degree, max_degree = _check_degree_range(min_degree, max_degree)

    halves = _halves(s.count, seed, "2-fold selection")
    f, w = phi.values, s.weights

    trace: list[tuple[ZvSpec, float]] = []
    scored: list[tuple[ZvSpec, float]] = []
    for penalty, subset in candidates:
        prev_err = np.inf
        best_here = None
        q = min_degree
        while True:
            spec = ZvSpec(degree=q, penalty=penalty, subset=subset)
            try:
                A = enumerate_exponents(s.dim, q, subset)
                X = build_design_matrix(s, A)
                err = _holdout_error(X, f, w, spec, halves, seed)
            except BasisTooLarge:
                break
            except SteinCvError as exc:
                if q == min_degree:
                    logger.warning("candidate %s excluded: %s", spec.label(), exc)
                break
            trace.append((spec, err))
            if err < prev_err:
                best_here = (spec, err)
                prev_err = err
            else:
                break
            if max_degree is not None and q >= max_degree:
                break
            q += 1
        if best_here is not None:
            scored.append(best_here)

    if not scored:
        raise InvalidInput("no viable candidate at the minimum polynomial order")

    def sort_key(item):
        spec, err = item
        size = s.dim if spec.subset is None else len(spec.subset)
        return (err, spec.degree, _PENALTY_RANK[spec.penalty], size)

    best_err = min(err for _, err in scored)
    # exact-tie window keeps the ordering deterministic across float noise
    ties = [(sp, e) for sp, e in scored if e <= best_err * (1 + 1e-12) + 1e-300]
    chosen, err = min(ties, key=sort_key)

    result = CvSelectionResult(chosen=chosen, cv_error=err, trace=tuple(trace))
    estimate, _ = zvcv_estimate(s, phi, replace(chosen, estimator="combined"), seed=seed)
    return result, estimate
