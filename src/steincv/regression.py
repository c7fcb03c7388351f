"""Weighted penalised regression used to fit control variate coefficients.

The fitted model is  f(theta) ~ c - x(theta)^T beta  so that c is the quantity
of interest and +beta^T x is the variance-reducing correction: the estimator
downstream is sum_i w_i (f_i + x_i^T beta).  Penalised fits run on
standardised variables; ``beta`` is always reported on the raw scale with
``beta_s`` its standardised counterpart (beta[j] = beta_s[j] * sd_f / sd_xj).

Weights are importance weights normalised to sum to one.  The penalised
objectives are

    ridge:  sum_i w_i (f_i - c + x_i beta)^2 + lambda ||beta_s||_2^2
    lasso: (1/2) sum_i w_i (f_i - c + x_i beta)^2 + lambda ||beta_s||_1

with the intercept never penalised.  For uniform weights these are the usual
1/N-normalised forms, so lambda_max = max_j |sum_i w_i x_s[i,j] f_s[i]| kills
every lasso coefficient.

Every least-squares and ridge fit comes from one thin SVD of the weighted
design (:func:`_svd_fit`), which solves a whole vector of ridge penalties in
one matmul, J > N included; the lasso follows its exact solution path
(:func:`_lasso_path`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .errors import ConvergenceError, InsufficientSamples, InvalidInput
from .samples import (
    SD_FLOOR, Standardisation, _as_int, _check_seed, _is_real, moments, normalised_weights,
    standardise, weighted_sd,
)

# Lasso path: a joining column whose squared Cholesky pivot falls below this
# fraction of its own Gram diagonal lies in the span of the active set.
_PIVOT_TOL = 1e-10


@dataclass(frozen=True)
class RegressionFit:
    """Coefficients and diagnostics of one control-variate regression.

    For the lasso, ``n_sweeps`` counts the steps (variables joining or leaving
    the active set) its exact solution path took to reach ``lam``.
    """

    intercept: float
    beta: np.ndarray
    beta_s: np.ndarray
    method: str
    lam: float = 0.0
    cv_mse: float | None = None
    dropped: tuple[int, ...] = ()
    rank_deficient: bool = False
    n_sweeps: int = 0

    def __post_init__(self):
        for name in ("beta", "beta_s"):
            v = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return self.intercept - X @ self.beta

    def active(self) -> np.ndarray:
        return np.flatnonzero(self.beta != 0.0)


@dataclass(frozen=True)
class CvConfig:
    """Cross-validation settings for penalty selection.

    ``lambda_grid`` must be a sequence of finite, nonnegative and strictly
    descending numbers when given; the default is 100 log-spaced values from
    lambda_max down to lambda_max * 1e-4.  Score ties within ``tolerance`` (a
    finite number >= 0, relative to the response variance) resolve to the
    larger lambda.  ``seed`` is an integer >= 0 (``_check_seed``).  A bool is
    no number here.
    """

    folds: int = 10
    lambda_grid: tuple[float, ...] | None = None
    seed: int = 0
    tolerance: float = 1e-9

    def __post_init__(self):
        object.__setattr__(self, "folds", _as_int(self.folds, "folds"))
        if self.folds < 2:
            raise InvalidInput("cross-validation needs at least 2 folds")
        _check_seed(self.seed)
        if not (_is_real(self.tolerance) and math.isfinite(self.tolerance)
                and self.tolerance >= 0):
            raise InvalidInput("cross-validation tolerance must be a finite number >= 0")
        if self.lambda_grid is not None:
            try:
                grid = tuple(self.lambda_grid)
            except TypeError:
                grid = None
            if grid is None or not all(_is_real(v) for v in grid):
                raise InvalidInput("lambda grid must be a sequence of numbers")
            grid = tuple(float(v) for v in grid)
            if not grid:
                raise InvalidInput("lambda grid must be nonempty")
            for v in grid:
                _check_penalty(v, "every lambda grid value")
            if any(a <= b for a, b in zip(grid, grid[1:])):
                raise InvalidInput("lambda grid must be strictly descending")
            object.__setattr__(self, "lambda_grid", grid)


def _prepare(X, f, weights):
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    f = np.asarray(f, dtype=float).reshape(-1)
    n = X.shape[0]
    if f.shape[0] != n:
        raise InvalidInput("X and f disagree on the number of rows")
    if n < 2:
        raise InsufficientSamples("regression needs at least two samples")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(f))):
        raise InvalidInput("regression requires finite inputs")
    return X, f, normalised_weights(weights, n)


def _check_penalty(lam, what):
    if lam < 0 or not math.isfinite(lam):
        raise InvalidInput(f"{what} must be finite and >= 0")


def _finish(beta, st, *, lam, **fields):
    """The public fit of a raw-scale ``beta``; other ``fields`` pass through."""
    sds = np.where(st.covariate_sds < SD_FLOOR, 1.0, st.covariate_sds)
    sd_f = st.response_sd
    return RegressionFit(
        intercept=float(st.response_mean + beta @ st.covariate_means),
        beta=beta,
        beta_s=beta * sds / sd_f if sd_f >= SD_FLOOR else np.zeros_like(beta),
        lam=float(lam),
        dropped=st.dropped,
        **fields,
    )


def _weighted_svd(A, w):
    """Thin SVD of sqrt(w) A without its numerically zero directions.

    Singular values at or below LAPACK's least-squares cutoff eps max(n, J)
    s_max count as zero.  Returns (sqrt(w), U, s, V^T) cut to the k that
    remain.
    """
    sw = np.sqrt(w)
    try:
        U, s, Vt = np.linalg.svd(sw[:, None] * A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("SVD of the regression design did not converge") from exc
    k = int(np.count_nonzero(s > np.finfo(float).eps * max(A.shape) * s.max(initial=0.0)))
    return sw, U[:, :k], s[:k], Vt[:k]


def _shrink(s, lams):
    """The (k, L) ridge factors s / (s^2 + lam), written so s^2 cannot underflow."""
    with np.errstate(over="ignore"):
        return 1.0 / (s[:, None] + np.asarray(lams, dtype=float) / s[:, None])


def _svd_fit(A, b, w, lams):
    """Weighted ridge fits for a whole vector of penalties from one thin SVD.

    Minimises sum_i w_i (b_i - A_i g)^2 + lam ||g||_2^2 for each lam: with
    U diag(s) V^T the thin SVD of sqrt(w) A, g(lam) = V diag(s / (s^2 + lam))
    U^T (sqrt(w) b) (ESL 3.4.1), one column per lam, J > N included.  Singular
    values at or below the cutoff of :func:`_weighted_svd` count as zero, so
    lam = 0 gives the minimum-norm least-squares fit and a tiny lam > 0 agrees
    with it.  Returns the (J, L) coefficient matrix and the rank.
    """
    sw, U, s, Vt = _weighted_svd(A, w)
    return Vt.T @ (_shrink(s, lams) * (U.T @ (sw * b))[:, None]), s.size


def _fit_weights(X, weights, lam: float, *, standardised: bool) -> np.ndarray:
    """Weights v with v @ f the corrected mean w @ (f + X beta) of every f.

    beta is the fit of :func:`fit_ols` (lam = 0, ``standardised`` False) or of
    :func:`fit_ridge` at a fixed lam (``standardised`` True).  Both are linear
    in f: with mu = w^T X over the retained columns, X_c = X - 1 mu^T (and
    both divided by the column sds when standardised) and sqrt(w) X_c =
    U S V^T, the corrected mean is v^T f with b = sqrt(w) (U S(lam) V^T mu),
    S(lam) = diag(s / (s^2 + lam)), and v = (1 + 1^T b) w - b, so sum v = 1.
    The 1^T b term comes from the fit centring f; it is zero up to rounding,
    as sqrt(w) is orthogonal to the columns of sqrt(w) X_c, and keeps sum v
    at 1 to rounding.  Runs the checks of those fits that do not read f;
    returns v read-only.
    """
    X, f0, w = _prepare(X, np.zeros(np.shape(X)[0]), weights)
    _check_penalty(lam, "ridge penalty")
    st = moments(X, f0, w)
    keep = st.retained
    mu = st.covariate_means[keep]
    Xc = X[:, keep] - mu
    if standardised:
        Xc /= st.covariate_sds[keep]
        mu = mu / st.covariate_sds[keep]
    sw, U, s, Vt = _weighted_svd(Xc, w)
    b = sw * (U @ (_shrink(s, [lam])[:, 0] * (Vt @ mu)))
    v = (1.0 + b.sum()) * w - b
    v.setflags(write=False)
    return v


def _raw_beta(gamma_s, st):
    """Raw-scale beta (J, L) from standardised solutions on the retained columns."""
    f_scale = st.response_sd if st.response_sd >= SD_FLOOR else 1.0
    beta = np.zeros((st.covariate_sds.shape[0], gamma_s.shape[1]))
    beta[st.retained] = -gamma_s * f_scale / st.covariate_sds[st.retained, None]
    return beta


def _path(X_s, f_s, w, st, grid, method):
    """Fit one standardised data set at every lambda of a descending grid.

    ``X_s, f_s, st`` come from :func:`standardise` with normalised weights
    ``w``, or from the uncentred scaling of :func:`refit_fixed_intercept`.
    Ridge solves the whole grid from one SVD (:func:`_svd_fit`); lasso follows
    its exact solution path once, down to the smallest positive grid value
    (:func:`_lasso_path`).  lambda = 0 is least squares on the retained
    columns.  Returns (intercepts, beta, steps): the L intercepts, the (J, L)
    raw-scale beta matrix, one column per grid value, and the lasso path steps
    taken to reach each value (zero for ridge and for lambda = 0).
    """
    grid = np.asarray(grid, dtype=float)
    gamma_s = np.zeros((X_s.shape[1], grid.size))
    steps = np.zeros(grid.size, dtype=int)
    # the grid descends, so its positive values come first
    n_path = int(np.count_nonzero(grid)) if method == "lasso" else 0
    if n_path and X_s.shape[1] and st.response_sd >= SD_FLOOR:
        gamma_s[:, :n_path], steps[:n_path] = _lasso_path(X_s, f_s, w, grid[:n_path])
    if n_path < grid.size:
        gamma_s[:, n_path:] = _svd_fit(X_s, f_s, w, grid[n_path:])[0]
    beta = _raw_beta(gamma_s, st)
    return st.response_mean + st.covariate_means @ beta, beta, steps


def fit_ols(X, f, weights=None) -> RegressionFit:
    """Weighted least squares with intercept; minimum-norm when rank-deficient."""
    X, f, w = _prepare(X, f, weights)
    st = moments(X, f, w)
    keep = st.retained
    gamma, rank = _svd_fit(X[:, keep] - st.covariate_means[keep], f - st.response_mean, w, [0.0])
    beta = np.zeros(X.shape[1])
    beta[keep] = -gamma[:, 0]
    return _finish(beta, st, method="ols", lam=0.0, rank_deficient=rank < keep.size)


def fit_ridge(X, f, weights=None, lam: float = 0.0, *, standardised: bool = True) -> RegressionFit:
    """L2-penalised weighted regression.

    With ``standardised`` (default) the penalty applies to coefficients of the
    standardised design; lam = 0 reduces to least squares on the retained
    columns.  ``standardised=False`` centres but does not rescale, penalising
    raw-scale coefficients directly -- the form that matches a polynomial-kernel
    control functional with regulariser lam.
    """
    X, f, w = _prepare(X, f, weights)
    _check_penalty(lam, "ridge penalty")
    if standardised:
        X_s, f_s, st = standardise(X, f, w)
        gamma_s, rank = _svd_fit(X_s, f_s, w, [lam])
        return _finish(_raw_beta(gamma_s, st)[:, 0], st, method="ridge", lam=lam,
                       rank_deficient=lam == 0.0 and rank < X_s.shape[1])

    st = replace(moments(X, f, w), dropped=())
    gamma, rank = _svd_fit(X - st.covariate_means, f - st.response_mean, w, [lam])
    return _finish(-gamma[:, 0], st, method="ridge", lam=lam,
                   rank_deficient=lam == 0.0 and rank < X.shape[1])


def lasso_lambda_max(X, f, weights=None) -> float:
    """Smallest penalty at which every lasso coefficient is zero."""
    X, f, w = _prepare(X, f, weights)
    X_s, f_s, st = standardise(X, f, w)
    return float(np.max(np.abs(X_s.T @ (w * f_s)), initial=0.0))


def _lasso_path(X, f, w, lams):
    """Exact lasso solutions on a descending grid of positive penalties.

    Minimises (1/2) sum_i w_i (f_i - x_i gamma)^2 + lam ||gamma||_1 by the
    LARS-lasso homotopy (Osborne, Presnell & Turlach 2000; Efron et al. 2004):
    from lambda_max down, the solution is piecewise linear in lam and changes
    direction only where a variable joins or leaves the active set A.  On a
    segment, gamma_A(lam) = u - lam d with G_AA u = q_A and G_AA d = sign_A
    (G = X^T W X, q = X^T W f), so the grid values on a segment are read off
    it in one write.  Columns of G are formed only when their variable joins,
    and the Cholesky factor of G_AA grows by one row per join and is
    refactored after a drop.  A joining column in the span of A (non-positive
    pivot) stays at zero.  The steps call LAPACK's potrs, trtrs and potrf
    with the arguments scipy's cho_solve, solve_triangular and cholesky pass
    them (check_finite=False), so a path is bitwise the one those wrappers
    give.  Returns (gammas, steps): column k of the (J, L) matrix gammas
    solves lams[k], reached after steps[k] path events (joins, drops and
    rejected joins); more than 8 max(n, J) steps, or a factor LAPACK rejects,
    raise ConvergenceError.
    """
    n, J = X.shape
    lams = np.asarray(lams, dtype=float)
    grid = lams.tolist()
    q = X.T @ (w * f)
    m = min(n, J)
    cols = np.empty((J, m))          # G[:, A]
    L = np.zeros((m, m))             # lower Cholesky factor of G[A][:, A]
    active = np.empty(m, dtype=np.intp)
    qs = np.empty((m, 2))            # [q_A, sign_A]
    shut = np.zeros(J, dtype=bool)   # A and the joins rejected since the last drop
    side_signs = np.array([[1.0], [-1.0]])
    gammas = np.zeros((J, len(grid)))
    steps = np.zeros(len(grid), dtype=int)
    gi, k, n_steps, lam_cur = 0, 0, 0, np.inf

    def failed(what):
        return ConvergenceError(f"lasso path {what}", steps=n_steps, lam=float(lam_cur))

    with np.errstate(divide="ignore", invalid="ignore"):
        while gi < len(grid):
            if k:
                ud, info = dpotrs(L[:k, :k], qs[:k], lower=1)
                if info:
                    raise failed(f"could not solve with its factor (LAPACK info {info})")
                u, d = ud[:, 0], ud[:, 1]
            else:
                u = d = np.zeros(0)
            # inactive correlations are b + lam a along the segment; a variable
            # joins with sign s where s (b + lam a) = lam.  Only a correlation
            # moving towards s lam as lam falls (1 - s a > 0) gets there, so a
            # variable that has just dropped out cannot re-enter at once with
            # its old sign, but may return later with either sign.
            b = q - cols[:, :k] @ u
            a = cols[:, :k] @ d
            towards = 1.0 - side_signs * a
            roots = np.where(towards > 0.0, side_signs * b / towards, -np.inf)
            roots[:, shut] = -np.inf
            side, join = divmod(int(np.argmax(roots)), J)
            lam_join = min(roots[side, join], lam_cur)
            # an active coefficient moving towards zero drops out where it gets there
            drops = np.where(d * qs[:k, 1] < 0.0, u / d, -np.inf)
            lam_drop = min(drops.max(initial=-np.inf), lam_cur)
            lam_next = max(lam_join, lam_drop)
            hi = gi
            while hi < len(grid) and grid[hi] >= lam_next:
                hi += 1
            if hi > gi:
                gammas[active[:k], gi:hi] = u[:, None] - lams[gi:hi] * d[:, None]
                steps[gi:hi] = n_steps
                gi = hi
                if gi == len(grid):
                    break
            n_steps += 1
            if n_steps > 8 * max(n, J):
                raise ConvergenceError("lasso path exceeded its step bound",
                                       steps=n_steps, lam=float(lam_next))
            lam_cur = lam_next
            if lam_join >= lam_drop:
                shut[join] = True
                if k == m:
                    continue
                col = X.T @ (w * X[:, join])
                row = col[active[:k]]
                if k:
                    # as solve_triangular: a block that is not Fortran-ordered
                    # is solved as the transposed system of its transpose
                    T = L[:k, :k]
                    row, info = (dtrtrs(T, row, lower=1) if T.flags.f_contiguous
                                 else dtrtrs(T.T, row, lower=0, trans=1))
                    if info:
                        raise failed(f"could not solve with its factor (LAPACK info {info})")
                pivot = col[join] - row @ row
                if not pivot > _PIVOT_TOL * col[join]:
                    continue
                L[k, :k], L[k, k] = row, math.sqrt(pivot)
                cols[:, k] = col
                active[k] = join
                qs[k] = q[join], side_signs[side, 0]
                k += 1
            else:
                drop = int(np.argmax(drops))
                k -= 1
                active[drop:k] = active[drop + 1:k + 1]
                qs[drop:k] = qs[drop + 1:k + 1]
                cols[:, drop:k] = cols[:, drop + 1:k + 1]
                shut[:] = False
                shut[active[:k]] = True
                if k:
                    c, info = dpotrf(cols[active[:k], :k], lower=1, clean=1)
                    if info:
                        raise failed("lost its active-set factorisation")
                    L[:k, :k] = c
    return gammas, steps


def fit_lasso(X, f, weights=None, lam: float = 0.0, *, relaxed: bool = False) -> RegressionFit:
    """L1-penalised weighted regression on standardised variables.

    ``relaxed`` refits the selected support by least squares (coefficients are
    debiased, the support is kept).  lam >= lambda_max returns the all-zero
    solution; lam = 0 falls back to least squares.
    """
    X, f, w = _prepare(X, f, weights)
    _check_penalty(lam, "lasso penalty")
    if lam == 0.0:
        return replace(fit_ols(X, f, w), method="lasso")
    X_s, f_s, st = standardise(X, f, w)
    _, beta, steps = _path(X_s, f_s, w, st, (lam,), "lasso")
    if relaxed and np.any(beta):
        # least squares on the selected support, on the standardised scale
        support = np.flatnonzero(beta[st.retained, 0])
        gamma_s = np.zeros((X_s.shape[1], 1))
        gamma_s[support] = _svd_fit(X_s[:, support], f_s, w, [0.0])[0]
        beta = _raw_beta(gamma_s, st)
    return _finish(beta[:, 0], st, method="lasso", lam=lam, n_sweeps=int(steps[0]))


def refit_fixed_intercept(X, f, weights=None, intercept: float = 0.0, *,
                          method: str = "ols", lam: float = 0.0) -> RegressionFit:
    """Refit beta with the intercept pinned at a given value.

    Solves  min sum_i w_i (f_i - intercept + x_i beta)^2 (+ penalty)  without
    centring the covariates, so constant columns stay live regressors.
    """
    X, f, w = _prepare(X, f, weights)
    if method not in ("ols", "ridge", "lasso"):
        raise InvalidInput(f"unknown refit method {method!r}")
    _check_penalty(lam, "penalty")
    g = f - float(intercept)
    g_sd = float(weighted_sd(g, w))
    # root-mean-square column scales (no centring); flat-zero columns drop out.
    # Zero covariate means: the intercept stays where it was pinned.  Off the
    # pinned intercept a constant response is still a target, scaled by 1.
    rms = np.sqrt(np.einsum("ij,ij->j", w[:, None] * X, X))
    st = Standardisation(
        response_mean=float(intercept),
        response_sd=g_sd if g_sd >= SD_FLOOR else 1.0,
        covariate_means=np.zeros(X.shape[1]),
        covariate_sds=np.where(rms > SD_FLOOR, rms, 0.0),
        dropped=tuple(int(j) for j in np.flatnonzero(rms <= SD_FLOOR)),
    )
    keep = st.retained
    # least squares is any method at lam = 0, and "ols" at any lam
    _, beta, steps = _path(X[:, keep] / rms[keep], g / st.response_sd, w, st,
                           (0.0 if method == "ols" else lam,),
                           "lasso" if method == "lasso" else "ridge")
    return _finish(beta[:, 0], st, method=f"{method}-fixed-intercept", lam=lam,
                   n_sweeps=int(steps[0]))


def _default_grid(lam_max: float, size: int = 100, decades: float = 4.0):
    lam_max = max(lam_max, 1e-30)
    return np.geomspace(lam_max, lam_max * 10.0 ** (-decades), size)


def _fold_slices(n, folds, seed):
    perm = np.random.default_rng(seed).permutation(n)
    return [perm[k::folds] for k in range(folds)]


def cv_lambda(X, f, weights=None, method: str = "ridge", cfg: CvConfig | None = None):
    """K-fold selection of the penalty level.

    Returns (lam_star, fit) where fit is refit on all data at lam_star with
    its cross-validated MSE recorded.  Ties (within cfg.tolerance relative to
    the response variance) resolve to the larger lambda.
    """
    if method not in ("ridge", "lasso"):
        raise InvalidInput(f"unknown penalised method {method!r}")
    cfg = cfg or CvConfig()
    X, f, w = _prepare(X, f, weights)
    n = X.shape[0]
    if n < cfg.folds:
        raise InsufficientSamples(f"{n} samples cannot fill {cfg.folds} folds")

    if cfg.lambda_grid is not None:
        grid = np.asarray(cfg.lambda_grid, dtype=float)
    else:
        grid = _default_grid(lasso_lambda_max(X, f, w))

    scores = np.zeros(grid.size)
    used_folds = 0
    for hold in _fold_slices(n, cfg.folds, cfg.seed):
        mask = np.ones(n, dtype=bool)
        mask[hold] = False
        w_tr, w_ho = w[mask], w[hold]
        if w_tr.sum() <= 0 or w_ho.sum() <= 0:
            continue
        used_folds += 1
        # one standardisation of the training fold serves the whole grid
        w_tr = w_tr / w_tr.sum()
        X_s, f_s, st = standardise(X[mask], f[mask], w_tr)
        intercepts, beta, _ = _path(X_s, f_s, w_tr, st, grid, method)
        # weighted mean squared hold-out residual at every grid value
        resid = f[hold][:, None] - (intercepts - X[hold] @ beta)
        scores += (w_ho @ (resid * resid)) / w_ho.sum()
    if used_folds == 0:
        raise InsufficientSamples("every fold had zero weight")
    scores /= used_folds

    f_var = float(weighted_sd(f, w)) ** 2
    best = float(np.min(scores))
    threshold = best + cfg.tolerance * max(f_var, best)
    # grid is descending, so the first qualifying score is the largest lambda
    pick = int(np.argmax(scores <= threshold))
    lam_star = float(grid[pick])

    refit = fit_ridge if method == "ridge" else fit_lasso
    return lam_star, replace(refit(X, f, w, lam=lam_star), cv_mse=float(scores[pick]))
