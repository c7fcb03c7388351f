"""Weighted sample containers, standardisation, coordinate transforms, CSV IO.

The central type is :class:`SampleSet`: parameter draws together with the
gradient of the log target density at each draw and normalised importance
weights.  Everything downstream (polynomial control variates, control
functionals, evidence estimation) consumes SampleSets.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DomainError, InsufficientSamples, InvalidInput

# Columns with weighted sd below this are treated as constant and dropped from
# standardised designs.
SD_FLOOR = 1e-12


def _as_matrix(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise InvalidInput(f"{name} must be a 2-d array, got ndim={a.ndim}")
    return a


def _is_int(value) -> bool:
    """The integer rule: any integer type, numpy's included, but not bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """The real-number rule: any real type, numpy's included, but not bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_int(value, name: str) -> int:
    """``value`` as an int under the integer rule; anything else raises InvalidInput."""
    if _is_int(value):
        return int(value)
    raise InvalidInput(f"{name} must be an integer, got {value!r}")


def _check_seed(seed) -> None:
    """Raise InvalidInput unless ``seed`` is an integer >= 0 (bool excluded)."""
    if not (_is_int(seed) and seed >= 0):
        raise InvalidInput(f"seed must be an integer >= 0, got {seed!r}")


def _readonly(a) -> np.ndarray:
    """``a`` as a read-only C-ordered array that no caller can write through.

    An array already read-only and C-contiguous is shared; anything else is
    copied once, so the caller's own array stays writeable.
    """
    a = np.asarray(a)
    if a.flags.writeable or not a.flags.c_contiguous:
        a = np.array(a, order="C")
        a.setflags(write=False)
    return a


def normalised_weights(weights, n: int) -> np.ndarray:
    """Check a length-n weight vector and scale it to sum to one; None is uniform."""
    if weights is None:
        return np.full(n, 1.0 / n)
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.shape != (n,):
        raise InvalidInput(f"weights shape {w.shape} != ({n},)")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise InvalidInput("weights must be finite and nonnegative")
    total = w.sum()
    if total <= 0:
        raise InvalidInput("weights sum to zero")
    return w / total


@dataclass(frozen=True)
class SampleSet:
    """Weighted draws theta (N, d) with log-target gradients.

    Weights are normalised to sum to one on construction.  Gradient entries may
    be NaN to mark coordinates whose derivative was never computed; estimators
    that touch a masked column raise InvalidInput.  ``log_like`` and
    ``log_prior`` are optional per-draw caches used by the tempering and
    evidence code.  Arrays are frozen copies (the caller's stay writeable) and
    safe to share.  ``_memo`` holds quantities derived from those arrays, such
    as control-variate weight vectors; every new SampleSet, including those of
    ``with_weights``, ``take`` and ``dataclasses.replace``, starts it empty.
    A snapshot keeps the one SampleSet it gives out per temperature, so that
    set's memo lasts as long as the snapshot.
    """

    theta: np.ndarray
    grad_log_target: np.ndarray
    weights: np.ndarray
    log_like: np.ndarray | None = None
    log_prior: np.ndarray | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        theta = _as_matrix(self.theta, "theta")
        grad = _as_matrix(self.grad_log_target, "grad_log_target")
        n, d = theta.shape
        if n == 0:
            raise InsufficientSamples("SampleSet needs at least one draw")
        if grad.shape != (n, d):
            raise InvalidInput(
                f"grad_log_target shape {grad.shape} != theta shape {(n, d)}"
            )
        if not np.all(np.isfinite(theta)):
            raise InvalidInput("theta contains non-finite entries")
        # NaN marks a masked gradient coordinate; infinities are always bugs.
        if np.any(np.isinf(grad)):
            raise InvalidInput("grad_log_target contains infinite entries")

        object.__setattr__(self, "theta", _readonly(theta))
        object.__setattr__(self, "grad_log_target", _readonly(grad))
        object.__setattr__(self, "weights", _readonly(normalised_weights(self.weights, n)))
        for name in ("log_like", "log_prior"):
            v = getattr(self, name)
            if v is None:
                continue
            v = np.asarray(v, dtype=float).reshape(-1)
            if v.shape != (n,):
                raise InvalidInput(f"{name} shape {v.shape} != ({n},)")
            if not np.all(np.isfinite(v)):
                raise InvalidInput(f"{name} contains non-finite entries")
            object.__setattr__(self, name, _readonly(v))

    @property
    def count(self) -> int:
        return self.theta.shape[0]

    @property
    def dim(self) -> int:
        return self.theta.shape[1]

    def with_weights(self, weights) -> "SampleSet":
        return replace(self, weights=np.asarray(weights, dtype=float))

    def take(self, idx) -> "SampleSet":
        """Row subset; weights are renormalised."""
        return SampleSet(
            theta=self.theta[idx],
            grad_log_target=self.grad_log_target[idx],
            weights=self.weights[idx],
            log_like=None if self.log_like is None else self.log_like[idx],
            log_prior=None if self.log_prior is None else self.log_prior[idx],
        )


@dataclass(frozen=True)
class IntegrandValues:
    """Function values phi(theta_i) aligned with a SampleSet, plus a label."""

    values: np.ndarray
    label: str = "phi"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size == 0:
            raise InvalidInput("IntegrandValues is empty")
        if not np.all(np.isfinite(v)):
            raise InvalidInput("integrand values must be finite")
        object.__setattr__(self, "values", _readonly(v))


def check_aligned(s: SampleSet, phi: IntegrandValues) -> None:
    if phi.values.shape[0] != s.count:
        raise InvalidInput(
            f"integrand has {phi.values.shape[0]} values for {s.count} draws"
        )


def weighted_mean(a: np.ndarray, weights: np.ndarray, axis: int = 0) -> np.ndarray:
    return np.tensordot(weights, a, axes=(0, axis))


def weighted_sd(a: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Reliability-weighted standard deviation along axis 0.

    Denominator 1 - sum(w^2); for uniform weights this is the usual N-1
    convention.  Weights must be normalised.
    """
    denom = 1.0 - float(weights @ weights)
    if denom <= 0:
        raise InsufficientSamples("effective sample size too small for an sd")
    centred = a - weighted_mean(a, weights)
    var = np.tensordot(weights, centred * centred, axes=(0, 0)) / denom
    return np.sqrt(var)


@dataclass(frozen=True)
class Standardisation:
    """Location/scale record from :func:`standardise`.

    ``dropped`` lists covariate columns whose sd fell below SD_FLOOR; they are
    removed from the standardised design and get coefficient zero downstream.
    A constant response is recorded with response_sd = 0 and scaled by 1.
    """

    response_mean: float
    response_sd: float
    covariate_means: np.ndarray
    covariate_sds: np.ndarray
    dropped: tuple[int, ...]

    @property
    def retained(self) -> np.ndarray:
        keep = np.ones(self.covariate_sds.shape[0], dtype=bool)
        keep[list(self.dropped)] = False
        return np.flatnonzero(keep)


def moments(X: np.ndarray, f: np.ndarray, weights: np.ndarray) -> Standardisation:
    """Weighted means and sds of the columns of X and of f (weights normalised)."""
    x_sd = weighted_sd(X, weights)
    f_sd = float(weighted_sd(f, weights))
    return Standardisation(
        response_mean=float(weighted_mean(f, weights)),
        response_sd=f_sd if f_sd >= SD_FLOOR else 0.0,
        covariate_means=_readonly(weighted_mean(X, weights)),
        covariate_sds=_readonly(x_sd),
        dropped=tuple(int(j) for j in np.flatnonzero(x_sd < SD_FLOOR)),
    )


def standardise(X, f, weights=None):
    """Centre and scale covariates and response by their weighted moments.

    Returns (X_s, f_s, Standardisation).  Each retained column of X_s and f_s
    has weighted mean 0 and, for the reliability-weight convention above, unit
    weighted sd.  Zero-variance columns are dropped and recorded.
    """
    X = _as_matrix(X, "X")
    f = np.asarray(f, dtype=float).reshape(-1)
    n = X.shape[0]
    if f.shape[0] != n:
        raise InvalidInput("X and f disagree on the number of rows")
    if n < 2:
        raise InsufficientSamples("standardisation needs at least two samples")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(f))):
        raise InvalidInput("standardise requires finite inputs")
    st = moments(X, f, normalised_weights(weights, n))
    keep = st.retained
    X_s = (X[:, keep] - st.covariate_means[keep]) / st.covariate_sds[keep]
    f_s = (f - st.response_mean) / (st.response_sd if st.response_sd >= SD_FLOOR else 1.0)
    return X_s, f_s, st


# --- coordinatewise transforms ---------------------------------------------

_KINDS = ("identity", "log", "logit", "exp", "invlogit")
_INVERSE = {
    "identity": "identity",
    "log": "exp",
    "exp": "log",
    "logit": "invlogit",
    "invlogit": "logit",
}


def _apply_kind(kind: str, x: np.ndarray) -> np.ndarray:
    if kind == "identity":
        return x.copy()
    if kind == "log":
        if np.any(x <= 0):
            raise DomainError("log transform requires strictly positive values")
        return np.log(x)
    if kind == "logit":
        if np.any(x <= 0) or np.any(x >= 1):
            raise DomainError("logit transform requires values in (0, 1)")
        return np.log(x) - np.log1p(-x)
    if kind == "exp":
        return np.exp(x)
    if kind == "invlogit":
        # numerically stable sigmoid
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out
    raise InvalidInput(f"unknown transform kind {kind!r}")


def _pullback_kind(kind: str, y: np.ndarray):
    """For the map m: x -> y, return (x, dx/dy, d/dy log|dx/dy|) at y."""
    if kind == "identity":
        return y.copy(), np.ones_like(y), np.zeros_like(y)
    if kind == "log":
        x = np.exp(y)
        return x, x, np.ones_like(y)
    if kind == "logit":
        x = _apply_kind("invlogit", y)
        jac = x * (1.0 - x)
        return x, jac, 1.0 - 2.0 * x
    if kind == "exp":
        if np.any(y <= 0):
            raise DomainError("values must be positive to invert exp")
        return np.log(y), 1.0 / y, -1.0 / y
    if kind == "invlogit":
        if np.any(y <= 0) or np.any(y >= 1):
            raise DomainError("values must lie in (0, 1) to invert invlogit")
        x = np.log(y) - np.log1p(-y)
        jac = 1.0 / (y * (1.0 - y))
        return x, jac, (2.0 * y - 1.0) / (y * (1.0 - y))
    raise InvalidInput(f"unknown transform kind {kind!r}")


@dataclass(frozen=True)
class ParameterTransform:
    """Coordinatewise invertible reparameterisation.

    ``kinds`` holds one map name per coordinate from
    identity | log | logit | exp | invlogit.  ``log`` and ``logit`` move
    positive / unit-interval parameters onto the real line; ``exp`` and
    ``invlogit`` are their inverses.
    """

    kinds: tuple[str, ...]

    def __post_init__(self):
        for k in self.kinds:
            if k not in _KINDS:
                raise InvalidInput(f"unknown transform kind {k!r}")

    @classmethod
    def of(cls, kind, dim: int) -> "ParameterTransform":
        if isinstance(kind, str):
            return cls(kinds=(kind,) * dim)
        kinds = tuple(kind)
        if len(kinds) != dim:
            raise InvalidInput("one transform kind per coordinate required")
        return cls(kinds=kinds)

    @classmethod
    def identity(cls, dim: int) -> "ParameterTransform":
        return cls.of("identity", dim)

    @property
    def is_identity(self) -> bool:
        return all(k == "identity" for k in self.kinds)

    @property
    def dim(self) -> int:
        return len(self.kinds)

    def inverse(self) -> "ParameterTransform":
        return ParameterTransform(tuple(_INVERSE[k] for k in self.kinds))

    def forward(self, theta) -> np.ndarray:
        theta = _as_matrix(theta, "theta")
        if theta.shape[1] != self.dim:
            raise InvalidInput("transform dimension mismatch")
        out = np.empty_like(theta)
        for j, k in enumerate(self.kinds):
            out[:, j] = _apply_kind(k, theta[:, j])
        return out

    def pullback(self, psi):
        """At transformed points psi, return (theta, dtheta/dpsi, dlogjac/dpsi)."""
        psi = _as_matrix(psi, "psi")
        if psi.shape[1] != self.dim:
            raise InvalidInput("transform dimension mismatch")
        theta = np.empty_like(psi)
        jac = np.empty_like(psi)
        dlog = np.empty_like(psi)
        for j, k in enumerate(self.kinds):
            theta[:, j], jac[:, j], dlog[:, j] = _pullback_kind(k, psi[:, j])
        return theta, jac, dlog


def transform_samples(s: SampleSet, tmap: ParameterTransform) -> SampleSet:
    """Push a SampleSet through a coordinatewise transform.

    The gradient column for coordinate j becomes
    (dtheta_j/dpsi_j) * g_j + d/dpsi_j log|dtheta_j/dpsi_j|, the Jacobian term
    is absorbed into log_prior (so log_like is carried unchanged and tempered
    gradients stay linear in the temperature), and weights are untouched.
    """
    if tmap.dim != s.dim:
        raise InvalidInput("transform dimension mismatch")
    psi = tmap.forward(s.theta)
    _, jac, dlog = tmap.pullback(psi)
    grad = jac * s.grad_log_target + dlog
    log_prior = s.log_prior
    if log_prior is not None:
        log_prior = log_prior + np.sum(np.log(jac), axis=1)
    return SampleSet(
        theta=psi,
        grad_log_target=grad,
        weights=s.weights,
        log_like=s.log_like,
        log_prior=log_prior,
    )


# --- archive columns, CSV export -------------------------------------------


def sample_csv_header(dim: int, with_logs: bool) -> list[str]:
    cols = [f"theta_{j + 1}" for j in range(dim)]
    cols += [f"grad_{j + 1}" for j in range(dim)]
    cols.append("weight")
    if with_logs:
        cols += ["log_like", "log_prior"]
    return cols


def _sample_columns(s: SampleSet) -> np.ndarray:
    """The draws as one C-ordered (N, 2d + 1 [+ 2]) array in ``sample_csv_header`` order."""
    cols = [s.theta, s.grad_log_target, s.weights[:, None]]
    if s.log_like is not None and s.log_prior is not None:
        cols += [s.log_like[:, None], s.log_prior[:, None]]
    return np.hstack(cols)


def _sample_set_of_columns(data: np.ndarray, dim: int, with_logs: bool) -> SampleSet:
    """Inverse of :func:`_sample_columns`."""
    return SampleSet(
        theta=data[:, :dim],
        grad_log_target=data[:, dim : 2 * dim],
        weights=data[:, 2 * dim],
        log_like=data[:, 2 * dim + 1] if with_logs else None,
        log_prior=data[:, 2 * dim + 2] if with_logs else None,
    )


def write_sample_csv(s: SampleSet, path) -> None:
    """Write a SampleSet as CSV with round-trip (repr) float formatting."""
    with_logs = s.log_like is not None and s.log_prior is not None
    # No field needs quoting, so this is what csv.writer writes, CRLF included.
    lines = [",".join(sample_csv_header(s.dim, with_logs))]
    lines += [",".join(map(repr, row)) for row in _sample_columns(s).tolist()]
    lines.append("")
    Path(path).write_text("\r\n".join(lines), newline="")


def read_sample_csv(path) -> SampleSet:
    return _sample_set_of_columns(*_read_sample_columns(path))


def _read_sample_columns(path) -> tuple[np.ndarray, int, bool]:
    """(columns, d, with_logs) of a ``write_sample_csv`` file, checked for shape only."""
    path = Path(path)
    with path.open("r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidInput(f"{path} is empty") from None
        rows = list(reader)
    ncol = len(header)
    with_logs = header[-1] == "log_prior"
    dim = (ncol - (3 if with_logs else 1)) // 2
    if dim < 1 or header != sample_csv_header(dim, with_logs):
        raise InvalidInput(f"{path} does not have a sample-archive header")
    data = np.empty((len(rows), ncol))
    for i, row in enumerate(rows):
        if len(row) != ncol:
            raise InvalidInput(f"{path}: row {i + 2} has {len(row)} columns, expected {ncol}")
        try:
            data[i] = [float(v) for v in row]
        except ValueError as exc:
            raise InvalidInput(f"{path}: row {i + 2}: {exc}") from None
    return data, dim, with_logs
