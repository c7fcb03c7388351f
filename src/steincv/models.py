"""Target models: log prior/likelihood pairs with analytic gradients.

A :class:`TargetModel` exposes vectorised log densities and gradients over
(n, d) parameter arrays, prior sampling, and a declared coordinatewise
transform onto the real line.  The tempered density at inverse temperature t
is  log p_t = t * log_like + log_prior  (so its gradient is linear in t).

All gradients are hand-derived analytic expressions; tests check them against
central finite differences.
"""

from __future__ import annotations

import abc
import json
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import numpy as np
from scipy import linalg

from .errors import InvalidInput, InvalidSchedule
from .samples import ParameterTransform, _as_matrix


class TargetModel(abc.ABC):
    """Interface of a (prior, likelihood) pair on R^d or a transformed domain.

    ``boundary_note`` documents why tail decay is fast enough for the
    zero-expectation property of the Stein covariates to hold on the scale
    the model is sampled on.
    """

    dim: int
    transform: ParameterTransform
    boundary_note: str = ""

    @abc.abstractmethod
    def log_prior(self, theta) -> np.ndarray: ...

    @abc.abstractmethod
    def grad_log_prior(self, theta) -> np.ndarray: ...

    @abc.abstractmethod
    def log_like(self, theta) -> np.ndarray: ...

    @abc.abstractmethod
    def grad_log_like(self, theta) -> np.ndarray: ...

    @abc.abstractmethod
    def sample_prior(self, n: int, rng) -> np.ndarray: ...

    def _check(self, theta) -> np.ndarray:
        theta = _as_matrix(theta, "theta")
        if theta.shape[1] != self.dim:
            raise InvalidInput(f"theta has dim {theta.shape[1]}, model has {self.dim}")
        return theta

    def log_tempered(self, theta, t: float) -> np.ndarray:
        return t * self.log_like(theta) + self.log_prior(theta)

    def grad_log_tempered(self, theta, t: float) -> np.ndarray:
        return t * self.grad_log_like(theta) + self.grad_log_prior(theta)


def _finite(a, name) -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} must be finite")
    return a


def _spd_factor(mat, name):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.shape[0] != mat.shape[1] or not np.allclose(mat, mat.T):
        raise InvalidInput(f"{name} must be symmetric")
    try:
        chol = linalg.cholesky(mat, lower=True)
    except linalg.LinAlgError:
        raise InvalidInput(f"{name} must be positive definite") from None
    return mat, chol


class GaussianModel(TargetModel):
    """N(mu, sigma) as the full target: likelihood identically one.

    The zero-variance fixture: polynomial integrands are fit exactly by
    polynomial Stein covariates under this target.
    """

    def __init__(self, mu, sigma):
        self.mu = _finite(np.asarray(mu, dtype=float).reshape(-1), "mu")
        self.dim = self.mu.shape[0]
        self.sigma, self._chol = _spd_factor(sigma, "sigma")
        if self.sigma.shape[0] != self.dim:
            raise InvalidInput("mu and sigma disagree on dimension")
        self.transform = ParameterTransform.identity(self.dim)
        self.boundary_note = "Gaussian tails decay faster than any polynomial."
        self._logdet = 2.0 * float(np.sum(np.log(np.diag(self._chol))))

    def log_prior(self, theta):
        theta = self._check(theta)
        z = linalg.solve_triangular(self._chol, (theta - self.mu).T, lower=True)
        return -0.5 * (self.dim * np.log(2 * np.pi) + self._logdet + np.sum(z * z, axis=0))

    def grad_log_prior(self, theta):
        theta = self._check(theta)
        return -linalg.cho_solve((self._chol, True), (theta - self.mu).T).T

    def log_like(self, theta):
        return np.zeros(self._check(theta).shape[0])

    def grad_log_like(self, theta):
        return np.zeros_like(self._check(theta))

    def sample_prior(self, n, rng):
        rng = np.random.default_rng(rng)
        z = rng.standard_normal((n, self.dim))
        return self.mu + z @ self._chol.T


class ConjugateGaussianModel(TargetModel):
    """Prior N(mu0, sigma0) with likelihood prod_i N(y_i; theta, sigma_l).

    Everything is available in closed form: the evidence, the tempered
    posterior N(mu_t, Sigma_t) with precision Sigma0^-1 + t n SigmaL^-1, and
    the mean/variance of the log likelihood under any tempered posterior.
    These are the oracles for the evidence estimators.
    """

    def __init__(self, prior_mean, prior_cov, obs_cov, data):
        self.mu0 = _finite(np.asarray(prior_mean, dtype=float).reshape(-1), "prior_mean")
        self.dim = self.mu0.shape[0]
        self.sigma0, self._chol0 = _spd_factor(prior_cov, "prior_cov")
        self.sigma_l, self._chol_l = _spd_factor(obs_cov, "obs_cov")
        self.data = _finite(_as_matrix(data, "data"), "data")
        if self.sigma0.shape[0] != self.dim or self.sigma_l.shape[0] != self.dim:
            raise InvalidInput("covariance dimension mismatch")
        if self.data.shape[1] != self.dim:
            raise InvalidInput("data dimension mismatch")
        self.n_obs = self.data.shape[0]
        self.transform = ParameterTransform.identity(self.dim)
        self.boundary_note = "Gaussian posterior tails decay faster than any polynomial."

        self._prec0 = linalg.cho_solve((self._chol0, True), np.eye(self.dim))
        self._prec_l = linalg.cho_solve((self._chol_l, True), np.eye(self.dim))
        self._ybar = self.data.mean(axis=0)
        self._logdet0 = 2.0 * float(np.sum(np.log(np.diag(self._chol0))))
        self._logdet_l = 2.0 * float(np.sum(np.log(np.diag(self._chol_l))))
        # constant part of log_like: -(nd/2) log 2pi - (n/2) log|Sl|
        #                            - (1/2) sum_i (y_i - ybar)' Sl^-1 (y_i - ybar)
        dev = self.data - self._ybar
        self._ll_const = (
            -0.5 * self.n_obs * self.dim * np.log(2 * np.pi)
            - 0.5 * self.n_obs * self._logdet_l
            - 0.5 * float(np.sum(dev @ self._prec_l * dev))
        )
        self._M = self.n_obs * self._prec_l  # curvature of -2 log_like about ybar

    def log_prior(self, theta):
        theta = self._check(theta)
        z = linalg.solve_triangular(self._chol0, (theta - self.mu0).T, lower=True)
        return -0.5 * (self.dim * np.log(2 * np.pi) + self._logdet0 + np.sum(z * z, axis=0))

    def grad_log_prior(self, theta):
        theta = self._check(theta)
        return -(theta - self.mu0) @ self._prec0.T

    def log_like(self, theta):
        theta = self._check(theta)
        dev = theta - self._ybar
        return self._ll_const - 0.5 * np.sum(dev @ self._M * dev, axis=1)

    def grad_log_like(self, theta):
        theta = self._check(theta)
        return -(theta - self._ybar) @ self._M.T

    def sample_prior(self, n, rng):
        rng = np.random.default_rng(rng)
        z = rng.standard_normal((n, self.dim))
        return self.mu0 + z @ self._chol0.T

    # --- closed forms -------------------------------------------------------

    def tempered_moments(self, t: float):
        """Mean and covariance of the tempered posterior p_t."""
        prec = self._prec0 + t * self._M
        cov = linalg.inv(prec)
        mean = cov @ (self._prec0 @ self.mu0 + t * self._M @ self._ybar)
        return mean, cov

    def log_evidence(self) -> float:
        prec = self._prec0 + self._M
        b = self._prec0 @ self.mu0 + self._M @ self._ybar
        chol = linalg.cholesky(prec, lower=True)
        logdet_a = 2.0 * float(np.sum(np.log(np.diag(chol))))
        quad = float(b @ linalg.cho_solve((chol, True), b))
        return float(
            self._ll_const
            - 0.5 * float(self._ybar @ self._M @ self._ybar)
            - 0.5 * float(self.mu0 @ self._prec0 @ self.mu0)
            - 0.5 * self._logdet0
            - 0.5 * logdet_a
            + 0.5 * quad
        )

    def expected_log_like(self, t: float) -> float:
        """E_{p_t}[log likelihood]."""
        mean, cov = self.tempered_moments(t)
        dev = mean - self._ybar
        return float(self._ll_const - 0.5 * (np.trace(self._M @ cov) + dev @ self._M @ dev))

    def var_log_like(self, t: float) -> float:
        """Var_{p_t}[log likelihood] (= d/dt E_{p_t}[log likelihood])."""
        mean, cov = self.tempered_moments(t)
        dev = mean - self._ybar
        mc = self._M @ cov
        return float(0.5 * np.trace(mc @ mc) + dev @ self._M @ cov @ self._M @ dev)


class LogisticModel(TargetModel):
    """Bayesian logistic regression with independent Gaussian priors.

    log_like(theta) = sum_i [y_i x_i.theta - log(1 + exp(x_i.theta))],
    evaluated stably for any finite linear predictor x.theta.  The response
    may be coded {0,1} or {-1,1}; both give the same likelihood.
    """

    def __init__(self, design, response, prior_sds):
        self.design = _finite(_as_matrix(design, "design"), "design")
        y = np.asarray(response, dtype=float).reshape(-1)
        if y.shape[0] != self.design.shape[0]:
            raise InvalidInput("design and response disagree on rows")
        vals = set(np.unique(y).tolist())
        if vals <= {0.0, 1.0}:
            self.response = y
        elif vals <= {-1.0, 1.0}:
            self.response = (y + 1.0) / 2.0
        else:
            raise InvalidInput("response must be coded {0,1} or {-1,1}")
        self.dim = self.design.shape[1]
        sds = np.asarray(prior_sds, dtype=float).reshape(-1)
        if sds.shape == (1,):
            sds = np.full(self.dim, sds[0])
        if sds.shape != (self.dim,) or np.any(sds <= 0):
            raise InvalidInput("one positive prior sd per coefficient required")
        self.prior_sds = sds
        self.transform = ParameterTransform.identity(self.dim)
        self.boundary_note = (
            "Gaussian prior dominates the bounded-derivative likelihood; "
            "tails decay faster than any polynomial."
        )

    def log_prior(self, theta):
        theta = self._check(theta)
        z = theta / self.prior_sds
        return -0.5 * np.sum(z * z, axis=1) - 0.5 * self.dim * np.log(2 * np.pi) - np.sum(
            np.log(self.prior_sds)
        )

    def grad_log_prior(self, theta):
        theta = self._check(theta)
        return -theta / self.prior_sds**2

    def log_like(self, theta):
        # log(1 + e^a) = (a + |a|)/2 + log1p(e^-|a|), so the linear term folds
        # into a.(y - 1/2); every other step works in place in the one buffer.
        theta = self._check(theta)
        a = theta @ self.design.T                      # (n_particles, n_obs)
        ll = a @ (self.response - 0.5)
        np.abs(a, out=a)
        ll -= 0.5 * a.sum(axis=1)
        np.negative(a, out=a)
        np.exp(a, out=a)
        np.log1p(a, out=a)
        ll -= a.sum(axis=1)
        return ll

    def grad_log_like(self, theta):
        theta = self._check(theta)
        a = theta @ self.design.T
        # sigmoid(a) = 1/(1 + e^-a); where e^-a overflows, 1/(1 + inf) = 0 is
        # the exact limit.
        np.negative(a, out=a)
        with np.errstate(over="ignore"):
            np.exp(a, out=a)
        a += 1.0
        np.reciprocal(a, out=a)
        np.subtract(self.response, a, out=a)
        return a @ self.design

    def sample_prior(self, n, rng):
        rng = np.random.default_rng(rng)
        return rng.standard_normal((n, self.dim)) * self.prior_sds


def default_logistic_prior_sds(dim: int, intercept: bool = True) -> np.ndarray:
    """N(0, 5^2) slopes with a N(0, 20^2) intercept in column 0."""
    sds = np.full(dim, 5.0)
    if intercept and dim:
        sds[0] = 20.0
    return sds


def standardise_predictors(design, target_sd: float = 0.5, skip=(0,)):
    """Scale design columns to a common sd; columns in ``skip`` are untouched.

    Intended for an intercept-in-column-0 layout.  Returns the scaled copy.
    """
    X = _as_matrix(np.asarray(design, dtype=float), "design").copy()
    for j in range(X.shape[1]):
        if j in skip:
            continue
        sd = float(np.std(X[:, j], ddof=1))
        if sd > 0:
            X[:, j] *= target_sd / sd
    return X


def synthetic_logistic_model(n: int = 100, dim: int = 5, seed: int = 7) -> LogisticModel:
    """Deterministic logistic fixture: intercept plus dim-1 scaled predictors."""
    rng = np.random.default_rng(seed)
    X = np.hstack([np.ones((n, 1)), rng.standard_normal((n, dim - 1))])
    X = standardise_predictors(X)
    theta_true = rng.normal(scale=1.5, size=dim)
    p = 1.0 / (1.0 + np.exp(-X @ theta_true))
    y = (rng.uniform(size=n) < p).astype(float)
    return LogisticModel(X, y, default_logistic_prior_sds(dim))


class RecaptureModel(TargetModel):
    """Cormack-Jolly-Seber capture-recapture model on the unit cube.

    Eleven parameters theta = (phi_1..phi_5, p_2..p_6, phi6*p7): annual
    survival probabilities, capture probabilities, and the confounded final
    product treated as a single parameter.  For release year i and first
    recapture year k the cell probability is a product of factors theta_j and
    (1 - theta_j); with integer exponent rows a, b per cell,

        log P = a . log theta + b . log(1 - theta),
        d log P / d theta_j = a_j / theta_j - b_j / (1 - theta_j),

    and chi_i = 1 - sum_k P(i, k) is the never-recaptured probability.  The
    prior is U(0,1)^11; the declared transform is the coordinatewise logit,
    which moves sampling to R^11 and satisfies the boundary condition there.
    """

    def __init__(self, releases=None, recaptures=None):
        if releases is None or recaptures is None:
            payload = json.loads(
                resources.files("steincv.data").joinpath("dipper_recapture.json").read_text()
            )
            releases = payload["releases"] if releases is None else releases
            recaptures = payload["recaptures"] if recaptures is None else recaptures
        D = [int(v) for v in releases]
        periods = len(D)
        if periods < 2:
            raise InvalidInput("recapture data needs at least two release years")
        y = [list(map(int, row)) for row in recaptures]
        if len(y) != periods or any(
            len(row) != periods - i for i, row in enumerate(y)
        ):
            raise InvalidInput("recapture matrix must be upper-triangular over years")
        if any(v < 0 for row in y for v in row) or any(v < 0 for v in D):
            raise InvalidInput("counts must be nonnegative")

        self.releases = np.array(D)
        self.never_seen = np.array([D[i] - sum(y[i]) for i in range(periods)])
        if np.any(self.never_seen < 0):
            raise InvalidInput("recaptures exceed releases")
        self.dim = 2 * periods - 1
        last = periods + 1  # final capture year, paper indexing k = 2..last

        # one exponent row per (i, k) cell over theta and (1 - theta)
        a_rows, b_rows, counts, cohort = [], [], [], []
        n_phi = periods - 1  # phi_1..phi_{periods-1} are free
        for i in range(1, periods + 1):
            for k in range(i + 1, last + 1):
                a = np.zeros(self.dim, dtype=np.int64)
                b = np.zeros(self.dim, dtype=np.int64)
                if k < last:
                    a[i - 1] += 1                       # phi_i
                    a[n_phi + k - 2] += 1               # p_k
                    for m in range(i + 1, k):
                        a[m - 1] += 1                   # phi_m
                        b[n_phi + m - 2] += 1           # 1 - p_m
                else:
                    a[self.dim - 1] += 1                # phi_last-1 * p_last
                    if i < periods:
                        a[i - 1] += 1
                        for m in range(i + 1, periods + 1):
                            if m < periods:
                                a[m - 1] += 1
                            b[n_phi + m - 2] += 1
                a_rows.append(a)
                b_rows.append(b)
                counts.append(y[i - 1][k - i - 1])
                cohort.append(i - 1)
        self._A = np.array(a_rows)
        self._B = np.array(b_rows)
        self._y = np.array(counts, dtype=float)
        self._cohort = np.array(cohort)
        self.transform = ParameterTransform.of("logit", self.dim)
        self.boundary_note = (
            "Sampled on the logit scale, where the transformed prior "
            "exp(psi)/(1+exp(psi))^2 decays exponentially."
        )

    def _cells(self, theta):
        """log P per cell: (n_cells, n_particles); and chi per cohort."""
        logt = np.log(theta)
        log1mt = np.log1p(-theta)
        logP = self._A @ logt.T + self._B @ log1mt.T
        P = np.exp(logP)
        chi = np.ones((self.releases.shape[0], theta.shape[0]))
        np.subtract.at(chi, self._cohort, P)
        return logP, P, chi

    def _interior(self, theta):
        return np.all((theta > 0) & (theta < 1), axis=1)

    def log_prior(self, theta):
        theta = self._check(theta)
        out = np.zeros(theta.shape[0])
        out[~self._interior(theta)] = -np.inf
        return out

    def grad_log_prior(self, theta):
        theta = self._check(theta)
        return np.zeros_like(theta)

    def log_like(self, theta):
        theta = self._check(theta)
        ok = self._interior(theta)
        out = np.full(theta.shape[0], -np.inf)
        if np.any(ok):
            logP, _, chi = self._cells(theta[ok])
            out[ok] = self.never_seen @ np.log(chi) + self._y @ logP
        return out

    def grad_log_like(self, theta):
        theta = self._check(theta)
        ok = self._interior(theta)
        out = np.zeros_like(theta)
        if np.any(ok):
            th = theta[ok]
            _, P, chi = self._cells(th)
            # per-cell coefficient: observed count minus chi-correction mass
            c = self._y[:, None] - self.never_seen[self._cohort][:, None] * P / chi[self._cohort]
            out[ok] = (c.T @ self._A) / th - (c.T @ self._B) / (1.0 - th)
        return out

    def sample_prior(self, n, rng):
        rng = np.random.default_rng(rng)
        return rng.uniform(size=(n, self.dim))


class TransformedModel(TargetModel):
    """A base model reparameterised by its declared coordinatewise transform.

    Evaluations happen at psi = transform(theta); the Jacobian is absorbed
    into the prior so the tempered gradient stays linear in the temperature.
    """

    def __init__(self, base: TargetModel):
        if base.transform.is_identity:
            raise InvalidInput("base model declares no transform")
        self.base = base
        self.dim = base.dim
        self._map = base.transform
        self.transform = ParameterTransform.identity(self.dim)
        self.boundary_note = base.boundary_note

    def _pull(self, psi):
        psi = self._check(psi)
        return self._map.pullback(psi)

    def log_prior(self, psi):
        theta, jac, _ = self._pull(psi)
        return self.base.log_prior(theta) + np.sum(np.log(jac), axis=1)

    def grad_log_prior(self, psi):
        theta, jac, dlog = self._pull(psi)
        return jac * self.base.grad_log_prior(theta) + dlog

    def log_like(self, psi):
        theta, _, _ = self._pull(psi)
        return self.base.log_like(theta)

    def grad_log_like(self, psi):
        theta, jac, _ = self._pull(psi)
        return jac * self.base.grad_log_like(theta)

    def sample_prior(self, n, rng):
        return self._map.forward(self.base.sample_prior(n, rng))

    def to_base(self, psi) -> np.ndarray:
        theta, _, _ = self._pull(psi)
        return theta


# --- manifests ---------------------------------------------------------------


@contextmanager
def _manifest_fields(what: str):
    """Re-raise a missing key or a bad value read from a manifest, a broken
    temperature ladder included, as InvalidInput."""
    try:
        yield
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError,
            InvalidSchedule) as exc:
        raise InvalidInput(f"malformed {what}: {type(exc).__name__}: {exc}") from exc


_DATA_PATH_KEYS = ("data_csv", "design_csv", "response_csv")


def _resolve_data_paths(manifest: dict, base_dir=None) -> dict:
    """Copy of a model manifest whose CSV data paths are absolute: a relative
    one resolves against ``base_dir`` (default: the working directory)."""
    out = dict(manifest)
    base = Path(base_dir) if base_dir is not None else Path.cwd()
    with _manifest_fields("model manifest"):
        for key in _DATA_PATH_KEYS:
            if key in out:
                p = Path(out[key])
                out[key] = str(p if p.is_absolute() else (base / p).resolve())
    return out


def model_from_manifest(manifest: dict, base_dir=None) -> TargetModel:
    """Build a model from a JSON-style manifest dict.

    Recognised kinds: gaussian, conjugate_gaussian, logistic,
    synthetic_logistic, recapture.  Relative CSV paths resolve against
    ``base_dir``.  ``use_transform`` (default true) wraps models that declare
    a transform so sampling happens on the unbounded scale.  A missing key or
    a value that does not convert raises InvalidInput.
    """
    if "kind" not in manifest:
        raise InvalidInput("model manifest needs a 'kind'")
    with _manifest_fields("model manifest"):
        return _model_of_kind(manifest["kind"], _resolve_data_paths(manifest, base_dir))


def _model_of_kind(kind, manifest: dict) -> TargetModel:
    def matrix(name):   # inline, or from the CSV file that "<name>_csv" names
        key = f"{name}_csv"
        if key in manifest:
            return np.loadtxt(manifest[key], delimiter=",", ndmin=2)
        return np.asarray(manifest[name], dtype=float)

    if kind == "gaussian":
        model = GaussianModel(manifest["mu"], manifest["sigma"])
    elif kind == "conjugate_gaussian":
        model = ConjugateGaussianModel(
            manifest["prior_mean"], manifest["prior_cov"], manifest["obs_cov"], matrix("data")
        )
    elif kind == "logistic":
        X, y = matrix("design"), matrix("response")
        if manifest.get("standardise", False):
            X = standardise_predictors(X, manifest.get("standardise_sd", 0.5))
        sds = manifest.get("prior_sds")
        if sds is None:
            sds = default_logistic_prior_sds(X.shape[1], manifest.get("intercept", True))
        model = LogisticModel(X, y, sds)
    elif kind == "synthetic_logistic":
        model = synthetic_logistic_model(
            n=manifest.get("n", 100), dim=manifest.get("d", 5), seed=manifest.get("seed", 7)
        )
    elif kind == "recapture":
        model = RecaptureModel(manifest.get("releases"), manifest.get("recaptures"))
    else:
        raise InvalidInput(f"unknown model kind {kind!r}")

    if manifest.get("use_transform", True) and not model.transform.is_identity:
        return TransformedModel(model)
    return model


def load_model(path):
    """Read a manifest file; returns (model, manifest_dict)."""
    path = Path(path)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InvalidInput(f"cannot read model manifest {path}: {exc}") from exc
    return model_from_manifest(manifest, base_dir=path.parent), manifest
