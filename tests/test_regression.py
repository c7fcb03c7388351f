import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import linalg

from conftest import kkt_violation, standardise_oracle
import steincv.regression as regression
from steincv.errors import ConvergenceError, InsufficientSamples, InvalidInput, SteinCvError
from steincv.regression import (
    _PIVOT_TOL,
    CvConfig,
    cv_lambda,
    fit_lasso,
    fit_ols,
    fit_ridge,
    lasso_lambda_max,
    refit_fixed_intercept,
)
from steincv.cf import cf_cv_bandwidth
from steincv.samples import IntegrandValues, SampleSet, weighted_sd


def soft(x, lam):
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def linear_problem(n=30, J=4, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, J))
    gamma = rng.normal(size=J)
    c = rng.normal()
    f = c + X @ gamma + noise * rng.normal(size=n)
    return X, f, gamma, c


# --- ordinary least squares ------------------------------------------------


def test_ols_exact_recovery():
    X, f, gamma, c = linear_problem(seed=1)
    fit = fit_ols(X, f)
    # public convention is f ~ intercept - X beta, so beta = -gamma
    assert_allclose(fit.beta, -gamma, rtol=1e-10)
    assert fit.intercept == pytest.approx(c, rel=1e-10)
    assert_allclose(fit.predict(X), f, rtol=1e-9)


def test_ols_residual_orthogonality():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(25, 3))
    f = rng.normal(size=25)
    w = rng.uniform(0.5, 2.0, size=25)
    w = w / w.sum()
    fit = fit_ols(X, f, w)
    r = f - fit.predict(X)
    assert abs(w @ r) < 1e-12
    assert_allclose(X.T @ (w * r), np.zeros(3), atol=1e-12)


def test_weighted_ols_equals_replication():
    # integer weights = repeating rows
    X = np.array([[1.0], [2.0], [3.0]])
    f = np.array([1.0, 0.5, 2.5])
    w = np.array([2.0, 1.0, 3.0])
    fit_w = fit_ols(X, f, w)
    X_rep = np.repeat(X, [2, 1, 3], axis=0)
    f_rep = np.repeat(f, [2, 1, 3])
    fit_rep = fit_ols(X_rep, f_rep)
    assert fit_w.intercept == pytest.approx(fit_rep.intercept, rel=1e-12)
    assert_allclose(fit_w.beta, fit_rep.beta, rtol=1e-12)


def test_ols_constant_column_dropped():
    X = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
    f = 2.0 * np.arange(10.0) + 1.0
    fit = fit_ols(X, f)
    assert fit.dropped == (0,)
    assert fit.beta[0] == 0.0
    assert fit.beta[1] == pytest.approx(-2.0)


def test_ols_rank_deficient_flagged():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10, 2))
    X = np.column_stack([X, X[:, 0] + X[:, 1]])
    fit = fit_ols(X, rng.normal(size=10))
    assert fit.rank_deficient


@pytest.mark.parametrize("shape", ["full_rank", "duplicated_column", "more_columns_than_rows"])
def test_ridge_at_lam_zero_reports_the_rank_of_its_fit(shape):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(12, 20) if shape == "more_columns_than_rows" else (30, 4))
    if shape == "duplicated_column":
        X[:, 3] = X[:, 1]
    f = rng.normal(size=X.shape[0])
    w = rng.uniform(0.5, 1.5, size=X.shape[0])
    want = fit_ols(X, f, w).rank_deficient
    assert want == (shape != "full_rank")
    for standardised in (True, False):
        assert fit_ridge(X, f, w, lam=0.0, standardised=standardised).rank_deficient == want
        assert not fit_ridge(X, f, w, lam=0.1, standardised=standardised).rank_deficient


def test_input_validation():
    with pytest.raises(InvalidInput):
        fit_ols(np.zeros((4, 2)), np.zeros(3))
    with pytest.raises(InsufficientSamples):
        fit_ols(np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(InvalidInput):
        fit_ols(np.array([[np.inf], [1.0]]), np.zeros(2))
    with pytest.raises(InvalidInput):
        fit_ols(np.ones((3, 1)), np.ones(3), weights=np.array([1.0, -1.0, 1.0]))
    with pytest.raises(InvalidInput):
        fit_ridge(np.ones((3, 1)), np.ones(3), lam=-0.5)
    with pytest.raises(InvalidInput):
        fit_lasso(np.ones((3, 1)), np.ones(3), lam=np.inf)


# --- ridge -------------------------------------------------------------------


def test_ridge_zero_lambda_is_ols():
    X, f, _, _ = linear_problem(seed=4, noise=0.3)
    a = fit_ridge(X, f, lam=0.0)
    b = fit_ols(X, f)
    assert_allclose(a.beta, b.beta, rtol=1e-10)
    assert a.intercept == pytest.approx(b.intercept, rel=1e-10)


def test_ridge_single_column_closed_form():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 1))
    f = 1.5 * X[:, 0] + rng.normal(size=40)
    w = np.full(40, 1.0 / 40)
    lam = 0.7
    X_s, f_s, x_sd, f_sd = standardise_oracle(X, f, w)
    gamma_s = float(X_s[:, 0] @ (w * f_s)) / (float(w @ (X_s[:, 0] ** 2)) + lam)
    fit = fit_ridge(X, f, w, lam=lam)
    assert fit.beta[0] == pytest.approx(-gamma_s * f_sd / x_sd[0], rel=1e-12)


def test_ridge_shrinks_to_zero():
    X, f, _, c = linear_problem(seed=6, noise=0.1)
    fit = fit_ridge(X, f, lam=1e8)
    assert np.max(np.abs(fit.beta_s)) < 1e-6
    # with beta ~ 0 the intercept collapses to the response mean
    assert fit.intercept == pytest.approx(float(np.mean(f)), rel=1e-4)


def test_ridge_unstandardised_normal_equations():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(20, 3))
    f = rng.normal(size=20)
    w = np.full(20, 0.05)
    lam = 0.3
    Xc = X - w @ X
    fc = f - w @ f
    gamma = np.linalg.solve(Xc.T @ (w[:, None] * Xc) + lam * np.eye(3), Xc.T @ (w * fc))
    fit = fit_ridge(X, f, w, lam=lam, standardised=False)
    assert_allclose(fit.beta, -gamma, rtol=1e-10)


# --- the SVD core ----------------------------------------------------------------


def rel_err(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def weighted_problem(n, J, seed, deficient=False):
    """Random weighted least-squares problem; ``deficient`` adds a duplicated
    column and a column that is a combination of two others."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, J)) * rng.uniform(0.5, 2.0, size=J)
    if deficient:
        A[:, 1] = A[:, 0]
        A[:, 3] = A[:, 2] - 2.0 * A[:, 0]
    b = A[:, 0] + rng.normal(size=n)
    w = rng.uniform(0.2, 1.0, size=n)
    return A, b, w / w.sum()


def normal_equations_reference(A, b, w, lam):
    """Slow reference for lam > 0: one solve of (A^T W A + lam I) g = A^T W b."""
    return np.linalg.solve(A.T @ (w[:, None] * A) + lam * np.eye(A.shape[1]), A.T @ (w * b))


def min_norm_reference(A, b, w):
    """Slow reference for lam = 0: numpy's minimum-norm least squares and its rank."""
    sw = np.sqrt(w)
    sol, _, rank, _ = np.linalg.lstsq(sw[:, None] * A, sw * b, rcond=None)
    return sol, rank


@pytest.mark.parametrize("n, J", [(60, 8), (25, 70)])
def test_svd_core_matches_normal_equations(n, J):
    A, b, w = weighted_problem(n, J, seed=n + J)
    lams = np.array([10.0, 1.0, 0.1, 0.01])
    gammas, rank = regression._svd_fit(A, b, w, lams)
    assert gammas.shape == (J, lams.size) and rank == min(n, J)
    for k, lam in enumerate(lams):
        assert rel_err(gammas[:, k], normal_equations_reference(A, b, w, lam)) <= 1e-10


@pytest.mark.parametrize("n, J", [(60, 8), (25, 70)])
@pytest.mark.parametrize("deficient", [False, True])
def test_svd_core_matches_min_norm_least_squares(n, J, deficient):
    A, b, w = weighted_problem(n, J, seed=n * J, deficient=deficient)
    ref, ref_rank = min_norm_reference(A, b, w)
    # lambda = 0 alone and as the last point of a grid
    for lams in ([0.0], [1.0, 1e-3, 0.0]):
        gammas, rank = regression._svd_fit(A, b, w, lams)
        assert rank == ref_rank
        assert rel_err(gammas[:, -1], ref) <= 1e-10
    assert ref_rank == min(n, J) - 2 * (deficient and J < n)


@pytest.mark.parametrize("n, J", [(60, 8), (25, 70)])
@pytest.mark.parametrize("deficient", [False, True])
def test_fit_weights_give_the_corrected_mean_of_every_response(n, J, deficient):
    # v @ f against the fit's own corrected mean w @ (f + X beta), response by response
    A, b, w = weighted_problem(n, J, seed=n + J + 1, deficient=deficient)
    A[:, 4] = 2.5                              # a zero-variance column, dropped by both
    responses = [b, np.exp(A[:, 0] / 4.0), A[:, 2] ** 2 + 1.0]
    for lam, standardised, fit_of in (
        (0.0, False, lambda f: fit_ols(A, f, w)),
        (0.3, True, lambda f: fit_ridge(A, f, w, lam=0.3)),
    ):
        v = regression._fit_weights(A, w, lam, standardised=standardised)
        assert abs(v.sum() - 1.0) <= 1e-12 and not v.flags.writeable
        for f in responses:
            fit = fit_of(f)
            assert 4 in fit.dropped
            assert v @ f == pytest.approx(w @ (f + A @ fit.beta), rel=1e-12)


@pytest.mark.parametrize("n, J", [(30, 6), (20, 34)])
def test_tiny_ridge_penalty_is_the_minimum_norm_fit(n, J):
    # a duplicated column (and J > N in the second case): the normal equations
    # are singular, and a penalty far below the singular values changes nothing
    rng = np.random.default_rng(n + J)
    X = rng.normal(size=(n, J))
    X[:, 1] = X[:, 0]
    f = X[:, 0] - X[:, 2] + 0.3 * rng.normal(size=n)
    w = rng.uniform(0.2, 1.0, size=n)
    fits = (
        lambda lam: fit_ridge(X, f, w, lam=lam),
        lambda lam: fit_ridge(X, f, w, lam=lam, standardised=False),
        lambda lam: refit_fixed_intercept(X, f, w, intercept=0.3, method="ridge", lam=lam),
    )
    refs = [fit_at(0.0) for fit_at in fits]
    for fit_at, ref in zip(fits, refs):
        for lam in (1e-300, 1e-20):
            fit = fit_at(lam)
            assert np.isfinite(fit.intercept) and np.all(np.isfinite(fit.beta))
            assert rel_err(fit.beta, ref.beta) <= 1e-10
            assert fit.intercept == pytest.approx(ref.intercept, rel=1e-10)
    cfg = CvConfig(folds=5, lambda_grid=(1e-20, 1e-300))
    _, fit = cv_lambda(X, f, w, method="ridge", cfg=cfg)
    assert np.isfinite(fit.cv_mse) and rel_err(fit.beta, refs[0].beta) <= 1e-10


@settings(deadline=None, derandomize=True, max_examples=60)
@given(n=st.integers(3, 24), extra=st.integers(-12, 20), seed=st.integers(0, 2**32 - 1),
       lam=st.sampled_from([0.0, 1e-300, 1e-12, 1.0, 1e8]), duplicate=st.booleans(),
       constant=st.booleans(), weighted=st.booleans())
def test_every_fit_is_finite_or_a_typed_error(n, extra, seed, lam, duplicate, constant, weighted):
    # J > N whenever extra > 0
    J = max(3, n + extra)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, J)) * rng.uniform(0.1, 10.0, size=J)
    if duplicate:
        X[:, 1] = X[:, 0]
    if constant:
        X[:, 2] = 1.5
    f = X[:, 0] + rng.normal(size=n)
    w = rng.uniform(0.05, 1.0, size=n) if weighted else None
    cfg = CvConfig(folds=3, seed=seed % 7, lambda_grid=(lam,))
    calls = [
        lambda: fit_ols(X, f, w),
        lambda: fit_ridge(X, f, w, lam=lam),
        lambda: fit_ridge(X, f, w, lam=lam, standardised=False),
        *(lambda m=m: refit_fixed_intercept(X, f, w, intercept=0.5, method=m, lam=lam)
          for m in ("ols", "ridge", "lasso")),
        *(lambda m=m: cv_lambda(X, f, w, method=m, cfg=cfg)[1] for m in ("ridge", "lasso")),
    ]
    for call in calls:
        try:
            fit = call()
        except SteinCvError:
            continue
        assert np.isfinite(fit.intercept) and np.all(np.isfinite(fit.beta))


# --- lasso ---------------------------------------------------------------------


def test_lasso_orthogonal_design_soft_threshold():
    """On a weighted-orthogonal standardised design the solution is analytic."""
    rng = np.random.default_rng(8)
    n, J = 60, 5
    w = np.full(n, 1.0 / n)
    raw = rng.normal(size=(n, J))
    Q, _ = np.linalg.qr(raw - raw.mean(axis=0))   # orthogonal centred columns
    X = Q * rng.uniform(1.0, 4.0, size=J)         # arbitrary column scales
    f = X @ rng.normal(size=J) + 0.5 * rng.normal(size=n)

    X_s, f_s, x_sd, f_sd = standardise_oracle(X, f, w)
    z = w @ (X_s * X_s)
    rho = X_s.T @ (w * f_s)
    assert np.max(np.abs(X_s.T @ (w[:, None] * X_s) - np.diag(z))) < 1e-12

    for lam in (1e-4, 3e-3, 1e-2):
        gamma_star = soft(rho, lam) / z
        fit = fit_lasso(X, f, lam=lam)
        assert_allclose(-fit.beta_s, gamma_star, atol=1e-6)
        assert_allclose(fit.beta, -gamma_star * f_sd / x_sd, atol=1e-6)


def test_lasso_kkt_random_problems():
    rng = np.random.default_rng(9)
    for trial in range(8):
        n = int(rng.integers(20, 120))
        J = int(rng.integers(2, 40))
        X = rng.normal(size=(n, J)) * rng.uniform(0.5, 3.0, size=J)
        f = X @ (rng.normal(size=J) * (rng.random(J) < 0.4)) + rng.normal(size=n)
        w = rng.uniform(0.2, 1.0, size=n)
        lam = float(rng.uniform(0.1, 0.9)) * lasso_lambda_max(X, f, w)
        fit = fit_lasso(X, f, w, lam=lam)
        assert kkt_violation(X, f, w, fit) <= 1e-6


def cd_lasso_oracle(X, f, w, lam, tol=1e-13, max_sweeps=100_000):
    """Cyclic coordinate descent on (1/2) sum_i w_i (f_i - x_i g)^2 + lam ||g||_1.

    The slow reference for the exact path: one coordinate at a time with
    residual updates, until no coordinate moves by more than ``tol``.
    """
    g = np.zeros(X.shape[1])
    r = f.copy()
    z = w @ (X * X)
    for _ in range(max_sweeps):
        biggest = 0.0
        for j in range(X.shape[1]):
            new = float(soft(X[:, j] @ (w * r) + z[j] * g[j], lam)) / z[j]
            if new != g[j]:
                r -= (new - g[j]) * X[:, j]
                biggest = max(biggest, abs(new - g[j]))
                g[j] = new
        if biggest < tol:
            return g
    raise AssertionError("coordinate descent oracle did not converge")


def random_lasso_problem(n, J, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, J)) * rng.uniform(0.5, 2.0, size=J)
    f = X @ (rng.normal(size=J) * (rng.random(J) < 0.3)) + rng.normal(size=n)
    w = rng.uniform(0.2, 1.0, size=n)
    return X, f, w / w.sum()


@settings(deadline=None)
@given(n=st.integers(8, 40), extra=st.integers(1, 40), wide=st.booleans(),
       seed=st.integers(0, 2**32 - 1), frac=st.floats(0.05, 0.9))
def test_lasso_path_matches_coordinate_descent_oracle(n, extra, wide, seed, frac):
    J = n + extra if wide else max(1, n - extra)
    X, f, w = random_lasso_problem(n, J, seed)
    lam = frac * lasso_lambda_max(X, f, w)
    fit = fit_lasso(X, f, w, lam=lam)
    X_s, f_s, _, _ = standardise_oracle(X, f, w)
    assert_allclose(-fit.beta_s, cd_lasso_oracle(X_s, f_s, w, lam), rtol=0, atol=1e-6)
    assert kkt_violation(X, f, w, fit) <= 1e-8


@pytest.mark.parametrize("n, J", [(80, 12), (40, 90)])
def test_lasso_grid_path_equals_per_lambda_fits(n, J):
    X, f, w = random_lasso_problem(n, J, seed=n * J)
    grid = regression._default_grid(lasso_lambda_max(X, f, w))
    X_s, f_s, stz = regression.standardise(X, f, w)
    intercepts, beta, steps = regression._path(X_s, f_s, w, stz, grid, "lasso")
    assert beta.shape == (J, grid.size)
    assert list(steps) == sorted(steps)
    for k, lam in enumerate(grid):
        fit = regression._finish(beta[:, k], stz, lam=lam, method="lasso", n_sweeps=int(steps[k]))
        assert fit.intercept == pytest.approx(intercepts[k], rel=1e-14, abs=1e-14)
        cold = fit_lasso(X, f, w, lam=lam)
        assert cold.n_sweeps == fit.n_sweeps
        assert_allclose(fit.beta_s, cold.beta_s, rtol=0, atol=1e-10)
        assert kkt_violation(X, f, w, fit) <= 1e-8


@pytest.mark.parametrize("n, J", [(40, 8), (20, 60)])
def test_lasso_degenerate_designs(n, J):
    # duplicated column, a column that is the sum of two others and, for
    # J > N, more columns than the rank of the design
    X, f, w = random_lasso_problem(n, J, seed=J)
    X[:, 1] = X[:, 0]
    X[:, 4] = X[:, 2] + X[:, 3]
    f = f + X[:, 0] + X[:, 4]
    lam_max = lasso_lambda_max(X, f, w)
    for frac in (0.5, 0.1, 1e-2, 1e-4):
        fit = fit_lasso(X, f, w, lam=frac * lam_max)
        assert np.all(np.isfinite(fit.beta))
        assert kkt_violation(X, f, w, fit) <= 1e-8
    _, fit = cv_lambda(X, f, w, method="lasso", cfg=CvConfig(folds=5, seed=1))
    assert np.all(np.isfinite(fit.beta)) and np.isfinite(fit.cv_mse)
    assert kkt_violation(X, f, w, fit) <= 1e-8

    # pinned intercept: no centring, so a constant column is a live regressor
    X[:, 5] = 2.0
    c0 = 0.5
    fit = refit_fixed_intercept(X, f, w, intercept=c0, method="lasso", lam=0.05)
    assert fit.dropped == () and np.all(np.isfinite(fit.beta))
    rms = np.sqrt(w @ (X * X))
    scale = float(weighted_sd(f, w))
    X_k, g = X / rms, (f - c0) / scale
    gamma = -fit.beta * rms / scale
    corr = X_k.T @ (w * (g - X_k @ gamma))
    on = gamma != 0.0
    assert np.all(np.abs(corr[~on]) <= 0.05 + 1e-8)
    assert_allclose(corr[on], 0.05 * np.sign(gamma[on]), rtol=0, atol=1e-8)


# --- the lasso path against its bitwise reference ------------------------------


def lasso_path_reference(X, f, w, lams):
    """The lasso path as it was before its steps called LAPACK directly.

    Kept verbatim as the bitwise reference of ``regression._lasso_path``:
    scipy's checked wrappers, one list of active columns and one set of
    rejected joins, and one write per grid value.  Its own description:

    Exact lasso solutions on a descending grid of positive penalties.

    Minimises (1/2) sum_i w_i (f_i - x_i gamma)^2 + lam ||gamma||_1 by the
    LARS-lasso homotopy (Osborne, Presnell & Turlach 2000; Efron et al. 2004):
    from lambda_max down, the solution is piecewise linear in lam and changes
    direction only where a variable joins or leaves the active set A.  On a
    segment, gamma_A(lam) = u - lam d with G_AA u = q_A and G_AA d = sign_A
    (G = X^T W X, q = X^T W f), so each grid value is read off its segment
    exactly.  Columns of G are formed only when their variable joins, and the
    Cholesky factor of G_AA grows by one row per join and is refactored after
    a drop.  A joining column in the span of A (non-positive pivot) stays at
    zero.  Returns (gammas, steps): column k of the (J, L) matrix gammas
    solves lams[k], reached after steps[k] path events (joins, drops and
    rejected joins); more than 8 max(n, J) steps raise ConvergenceError.
    """
    n, J = X.shape
    q = X.T @ (w * f)
    m = min(n, J)
    cols = np.empty((J, m))          # G[:, A]
    L = np.zeros((m, m))             # lower Cholesky factor of G[A][:, A]
    active, signs, blocked = [], [], set()
    gammas = np.zeros((J, len(lams)))
    steps = np.zeros(len(lams), dtype=int)
    gi, n_steps, lam_cur = 0, 0, np.inf
    while gi < len(lams):
        k = len(active)
        u = d = np.zeros(0)
        if k:
            ud = linalg.cho_solve((L[:k, :k], True), np.column_stack([q[active], signs]),
                                  check_finite=False)
            u, d = ud[:, 0], ud[:, 1]
        # inactive correlations are b + lam a along the segment; a variable
        # joins with sign s where s (b + lam a) = lam.  Only a correlation
        # moving towards s lam as lam falls (1 - s a > 0) gets there, so a
        # variable that has just dropped out cannot re-enter at once with its
        # old sign, but may return later with either sign.
        b = q - cols[:, :k] @ u
        a = cols[:, :k] @ d
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = np.stack([np.where(1.0 - s * a > 0.0, s * b / (1.0 - s * a), -np.inf)
                              for s in (1.0, -1.0)])
        roots[:, active + list(blocked)] = -np.inf
        side, join = np.unravel_index(np.argmax(roots), roots.shape)
        lam_join = min(roots[side, join], lam_cur)
        # an active coefficient moving towards zero drops out where it gets there
        with np.errstate(divide="ignore", invalid="ignore"):
            drops = np.where(d * np.asarray(signs) < 0.0, u / d, -np.inf)
        lam_drop = min(drops.max(initial=-np.inf), lam_cur)
        lam_next = max(lam_join, lam_drop)
        while gi < len(lams) and lams[gi] >= lam_next:
            gammas[active, gi] = u - lams[gi] * d
            steps[gi] = n_steps
            gi += 1
        if gi == len(lams):
            break
        n_steps += 1
        if n_steps > 8 * max(n, J):
            raise ConvergenceError("lasso path exceeded its step bound",
                                   steps=n_steps, lam=float(lam_next))
        lam_cur = lam_next
        if lam_join >= lam_drop:
            col = X.T @ (w * X[:, join])
            row = linalg.solve_triangular(L[:k, :k], col[active], lower=True, check_finite=False)
            pivot = col[join] - row @ row
            if k == m or not pivot > _PIVOT_TOL * col[join]:
                blocked.add(join)
                continue
            L[k, :k], L[k, k] = row, math.sqrt(pivot)
            cols[:, k] = col
            active.append(int(join))
            signs.append(1.0 if side == 0 else -1.0)
        else:
            drop = int(np.argmax(drops))
            del active[drop], signs[drop]
            cols[:, drop:k - 1] = cols[:, drop + 1:k].copy()
            blocked.clear()
            try:
                L[:k - 1, :k - 1] = linalg.cholesky(cols[active, :k - 1], lower=True,
                                                    check_finite=False)
            except linalg.LinAlgError as exc:
                raise ConvergenceError("lasso path lost its active-set factorisation",
                                       steps=n_steps, lam=float(lam_cur)) from exc
    return gammas, steps


def path_problem(n, J, design, weighted, seed):
    """A standardised lasso problem and its default grid; ``design`` is
    "plain", "collinear" (four nearly proportional columns) or "duplicate"."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, J)) * rng.uniform(0.5, 2.0, size=J)
    if design == "collinear":
        X[:, :4] = X[:, [0]] * rng.uniform(0.5, 2.0, size=4) + 1e-6 * rng.normal(size=(n, 4))
    elif design == "duplicate":
        X[:, 1] = X[:, 0]
    f = X @ (rng.normal(size=J) * (rng.random(J) < 0.3)) + rng.normal(size=n)
    w = rng.uniform(0.2, 1.0, size=n) if weighted else np.ones(n)
    w = w / w.sum()
    X_s, f_s, _ = regression.standardise(X, f, w)
    return X_s, f_s, w, regression._default_grid(lasso_lambda_max(X, f, w))


def test_lasso_path_is_bitwise_its_reference(monkeypatch):
    # J < N and J > N, collinear and duplicated columns, uniform and unequal
    # weights, the default grid and one lambda inside it; the spy checks that
    # the family reaches the refactor after a drop
    refactors = []
    dpotrf = regression.dpotrf

    def counted(*args, **kwargs):
        refactors.append(args[0].shape)
        return dpotrf(*args, **kwargs)

    monkeypatch.setattr(regression, "dpotrf", counted)
    for n, J in ((60, 15), (25, 70)):
        for design in ("plain", "collinear", "duplicate"):
            for weighted in (False, True):
                X_s, f_s, w, grid = path_problem(n, J, design, weighted, seed=n * J)
                for lams in (grid, grid[60:61]):
                    gammas, steps = regression._lasso_path(X_s, f_s, w, lams)
                    ref_gammas, ref_steps = lasso_path_reference(X_s, f_s, w, lams)
                    assert np.array_equal(gammas, ref_gammas)
                    assert np.array_equal(steps, ref_steps)
    assert len(refactors) >= 10


def test_lasso_refactor_failure_is_convergence_error(monkeypatch):
    # a drop refactors G_AA; a factor LAPACK rejects stops the path with the
    # step and penalty of that drop, where the reference's cholesky raised
    X_s, f_s, w, grid = path_problem(25, 70, "plain", False, seed=25 * 70)
    monkeypatch.setattr(regression, "dpotrf", lambda a, **k: (a, 1))
    with pytest.raises(ConvergenceError, match="active-set factorisation") as new:
        regression._lasso_path(X_s, f_s, w, grid)

    def cholesky(*args, **kwargs):
        raise linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(linalg, "cholesky", cholesky)
    with pytest.raises(ConvergenceError, match="active-set factorisation") as ref:
        lasso_path_reference(X_s, f_s, w, grid)
    assert new.value.diagnostics == ref.value.diagnostics
    assert new.value.diagnostics["steps"] > 1
    assert grid[-1] < new.value.diagnostics["lam"] < grid[0]


def test_lasso_lambda_max_kills_everything():
    X, f, _, _ = linear_problem(seed=10, noise=0.5)
    lam_max = lasso_lambda_max(X, f)
    assert np.all(fit_lasso(X, f, lam=lam_max).beta == 0.0)
    assert np.any(fit_lasso(X, f, lam=0.95 * lam_max).beta != 0.0)


def test_lasso_zero_lambda_is_ols():
    X, f, _, _ = linear_problem(seed=11, noise=0.2)
    a = fit_lasso(X, f, lam=0.0)
    b = fit_ols(X, f)
    assert a.method == "lasso"
    assert_allclose(a.beta, b.beta, rtol=1e-10)


def test_relaxed_lasso_debias():
    X, f, _, _ = linear_problem(n=50, J=6, seed=12, noise=1.0)
    lam = 0.3 * lasso_lambda_max(X, f)
    base = fit_lasso(X, f, lam=lam)
    relaxed = fit_lasso(X, f, lam=lam, relaxed=True)
    support = base.beta != 0.0
    assert np.array_equal(relaxed.beta != 0.0, support)
    # the refit solves unpenalised LS on the support; KKT residual there is 0
    w = np.full(50, 0.02)
    X_s, f_s, _, _ = standardise_oracle(X, f, w)
    gamma = -relaxed.beta_s
    corr = X_s[:, support].T @ (w * (f_s - X_s @ gamma))
    assert np.max(np.abs(corr)) < 1e-10


def test_lasso_response_scale_equivariance():
    # standardising the response makes the penalty scale-free
    X, f, _, _ = linear_problem(seed=13, noise=0.4)
    lam = 0.2 * lasso_lambda_max(X, f)
    base = fit_lasso(X, f, lam=lam)
    scaled = fit_lasso(X, 250.0 * f, lam=lam)
    assert_allclose(scaled.beta, 250.0 * base.beta, rtol=1e-8)


def test_lasso_objective_no_worse_than_ols():
    X, f, _, _ = linear_problem(seed=14, noise=1.5)
    n = X.shape[0]
    w = np.full(n, 1.0 / n)
    lam = 0.05
    X_s, f_s, _, _ = standardise_oracle(X, f, w)

    def objective(gamma):
        r = f_s - X_s @ gamma
        return 0.5 * float(w @ (r * r)) + lam * float(np.abs(gamma).sum())

    lass = fit_lasso(X, f, lam=lam)
    ols = fit_ols(X, f)
    assert objective(-lass.beta_s) <= objective(-ols.beta_s) + 1e-12
    assert objective(-lass.beta_s) <= objective(np.zeros(X.shape[1])) + 1e-12


# --- penalty cross-validation ------------------------------------------------


def test_cv_lambda_deterministic_and_from_grid():
    X, f, _, _ = linear_problem(n=40, seed=15, noise=0.8)
    cfg = CvConfig(folds=5, seed=3)
    lam1, fit1 = cv_lambda(X, f, method="lasso", cfg=cfg)
    lam2, fit2 = cv_lambda(X, f, method="lasso", cfg=cfg)
    assert lam1 == lam2
    assert fit1.cv_mse == fit2.cv_mse
    assert_allclose(fit1.beta, fit2.beta, rtol=0, atol=0)


def test_cv_lambda_prefers_larger_on_pure_noise():
    # all-noise response: scores are flat in lambda, the tolerance rule
    # picks the largest grid value
    rng = np.random.default_rng(16)
    X = rng.normal(size=(50, 3))
    f = rng.normal(size=50)
    grid = (1e3, 1.0, 1e-3)
    lam, _ = cv_lambda(X, f, method="ridge",
                       cfg=CvConfig(folds=5, seed=0, lambda_grid=grid, tolerance=0.5))
    assert lam == 1e3


def test_cv_lambda_explicit_grid_respected():
    X, f, _, _ = linear_problem(n=30, seed=17, noise=0.5)
    grid = (0.5, 0.05, 0.005)
    lam, fit = cv_lambda(X, f, method="lasso", cfg=CvConfig(folds=3, lambda_grid=grid))
    assert lam in grid
    assert fit.lam == lam
    assert fit.cv_mse is not None and fit.cv_mse >= 0


def test_cv_lambda_too_few_samples():
    with pytest.raises(InsufficientSamples):
        cv_lambda(np.ones((4, 1)), np.ones(4), cfg=CvConfig(folds=10))
    with pytest.raises(InvalidInput):
        cv_lambda(np.ones((20, 1)), np.ones(20), method="ols")


BAD_SEEDS = (-1, 1.5, "3", True, None)


def test_cv_config_rejects_what_cross_validation_cannot_use():
    # a NaN grid value ran every lasso fold to its step bound and let ridge
    # pick the grid's first value; a negative or NaN tolerance picked
    # lambda_max, so every coefficient was 0.  A seed of -1 or 1.5 died in
    # numpy at the first fold split and True ran as seed 1; a string tolerance
    # and a scalar grid raised TypeError, and the string "321" was the grid
    # (3.0, 2.0, 1.0)
    nan, inf = float("nan"), float("inf")
    for kwargs in (dict(folds=1), dict(folds=2.5), dict(lambda_grid=()),
                   dict(lambda_grid=(1.0, -0.1)), dict(lambda_grid=(1.0, nan, 0.1)),
                   dict(lambda_grid=(inf, 1.0)), dict(lambda_grid=(0.1, 1.0)),
                   dict(lambda_grid=(1.0, 1.0)), dict(tolerance=-1.0), dict(tolerance=nan),
                   dict(tolerance=inf), dict(tolerance="0.1"), dict(tolerance=None),
                   dict(tolerance=True), dict(lambda_grid=1.0), dict(lambda_grid="321"),
                   dict(lambda_grid=(1.0, "0.5")), dict(lambda_grid=(True, False)),
                   dict(lambda_grid=np.array(1.0)),
                   *(dict(seed=bad) for bad in BAD_SEEDS)):
        with pytest.raises(InvalidInput):
            CvConfig(**kwargs)
    cfg = CvConfig(folds=np.int64(3), lambda_grid=[2, 1, 0], tolerance=0, seed=np.uint32(7))
    assert cfg.folds == 3 and cfg.lambda_grid == (2.0, 1.0, 0.0) and cfg.tolerance == 0
    cfg = CvConfig(lambda_grid=np.array([0.5, np.float32(0.25)]), tolerance=np.float64(0.1))
    assert cfg.lambda_grid == (0.5, 0.25) and cfg.tolerance == 0.1
    # the CF bandwidth search takes a seed by the same rule
    s = SampleSet(theta=np.linspace(-1.0, 1.0, 12)[:, None],
                  grad_log_target=-np.linspace(-1.0, 1.0, 12)[:, None], weights=None)
    phi = IntegrandValues(np.sin(s.theta[:, 0]))
    for bad in BAD_SEEDS:
        with pytest.raises(InvalidInput, match="seed"):
            cf_cv_bandwidth(s, phi, folds=3, seed=bad)
    assert cf_cv_bandwidth(s, phi, folds=3, seed=np.int64(2)) == cf_cv_bandwidth(
        s, phi, folds=3, seed=2)


def cv_lambda_oracle(X, f, w, method, cfg):
    """Per-lambda reference: a cold public fit on every fold at every grid value."""
    fit_one = fit_ridge if method == "ridge" else fit_lasso
    w = w / w.sum()
    n = f.shape[0]
    grid = np.asarray(cfg.lambda_grid)
    perm = np.random.default_rng(cfg.seed).permutation(n)
    scores = np.zeros(grid.size)
    for k in range(cfg.folds):
        hold = perm[k::cfg.folds]
        mask = np.ones(n, dtype=bool)
        mask[hold] = False
        for gi, lam in enumerate(grid):
            fit = fit_one(X[mask], f[mask], w[mask], lam=lam)
            resid = f[hold] - fit.predict(X[hold])
            scores[gi] += float(w[hold] @ (resid * resid)) / float(w[hold].sum())
    scores /= cfg.folds
    best = float(np.min(scores))
    threshold = best + cfg.tolerance * max(float(weighted_sd(f, w)) ** 2, best)
    pick = int(np.argmax(scores <= threshold))
    return float(grid[pick]), float(scores[pick])


@pytest.mark.parametrize("n, J", [(80, 12), (60, 120)])
def test_cv_lambda_matches_per_lambda_oracle(n, J):
    rng = np.random.default_rng(n + J)
    X = rng.normal(size=(n, J)) * rng.uniform(0.5, 2.0, size=J)
    f = X @ (rng.normal(size=J) * (rng.random(J) < 0.2)) + rng.normal(size=n)
    w = rng.uniform(0.2, 1.0, size=n)
    lam_max = lasso_lambda_max(X, f, w)
    grid = tuple(np.geomspace(lam_max, 1e-4 * lam_max, 10)) + (0.0,)
    cfg = CvConfig(folds=5, seed=7, lambda_grid=grid)

    # cv_lambda scores the whole grid with one matmul per fold, so its scores
    # round differently from the per-lambda fits (about 1e-16); the selected
    # lambda is the same grid value.  A cold lasso fit at one lambda takes the
    # same path steps as the fold's path down the whole grid.
    for method in ("ridge", "lasso"):
        lam, fit = cv_lambda(X, f, w, method=method, cfg=cfg)
        lam_ref, mse_ref = cv_lambda_oracle(X, f, w, method, cfg)
        assert lam == lam_ref
        assert fit.cv_mse == pytest.approx(mse_ref, rel=1e-12, abs=0)


# --- fixed-intercept refit -----------------------------------------------------


def test_refit_fixed_intercept_exact():
    rng = np.random.default_rng(18)
    X = rng.normal(size=(30, 3))
    beta_true = rng.normal(size=3)
    c0 = 1.7
    f = c0 - X @ beta_true
    fit = refit_fixed_intercept(X, f, intercept=c0)
    assert fit.intercept == c0
    assert_allclose(fit.beta, beta_true, rtol=1e-9)
    assert fit.method == "ols-fixed-intercept"


def test_refit_fixed_intercept_keeps_constant_columns():
    # no centring: a constant column is a live regressor here
    X = np.column_stack([np.ones(20), np.arange(20.0)])
    f = 3.0 - (2.0 * np.ones(20) + 0.5 * np.arange(20.0))
    fit = refit_fixed_intercept(X, f, intercept=3.0)
    assert fit.dropped == ()
    assert_allclose(fit.beta, [2.0, 0.5], rtol=1e-9)


def test_lasso_refit_fits_a_constant_response_off_the_pinned_intercept():
    # uncentred, f - intercept = -0.5 is a target, not a degenerate response:
    # the KKT conditions of the rms-scaled lasso hold with a nonzero solution
    rng = np.random.default_rng(4)
    X = rng.normal(size=(20, 3)) + 1.0
    w = np.full(20, 0.05)
    lam = 1e-3
    fit = refit_fixed_intercept(X, np.full(20, 2.0), w, intercept=2.5, method="lasso", lam=lam)
    assert fit.n_sweeps > 0 and np.all(fit.beta != 0.0)
    rms = np.sqrt(w @ (X * X))
    corr = (X / rms).T @ (w * (-0.5 + X @ fit.beta))
    assert_allclose(corr, lam * np.sign(-fit.beta), rtol=1e-8)


def test_refit_fixed_intercept_ridge_matches_normal_equations():
    rng = np.random.default_rng(19)
    X = rng.normal(size=(25, 2))
    f = rng.normal(size=25)
    w = np.full(25, 0.04)
    c0, lam = 0.3, 0.8
    g = f - c0
    rms = np.sqrt(w @ (X * X))
    Xk = X / rms
    sol = np.linalg.solve(Xk.T @ (w[:, None] * Xk) + lam * np.eye(2), Xk.T @ (w * g))
    fit = refit_fixed_intercept(X, f, w, intercept=c0, method="ridge", lam=lam)
    assert_allclose(fit.beta, -sol / rms, rtol=1e-10)


def test_refit_fixed_intercept_lasso_runs():
    rng = np.random.default_rng(20)
    X = rng.normal(size=(40, 5))
    f = 1.0 - X @ np.array([1.0, 0.0, 0.0, 2.0, 0.0]) + 0.1 * rng.normal(size=40)
    fit = refit_fixed_intercept(X, f, intercept=1.0, method="lasso", lam=0.05)
    assert fit.method == "lasso-fixed-intercept"
    assert np.any(fit.beta != 0.0)


def test_refit_fixed_intercept_validation():
    with pytest.raises(InvalidInput):
        refit_fixed_intercept(np.ones((3, 1)), np.ones(3), method="huber")
    with pytest.raises(InvalidInput):
        refit_fixed_intercept(np.ones((3, 1)), np.ones(3), lam=-1.0)


# --- misc ----------------------------------------------------------------------


def test_predict_convention():
    X, f, _, _ = linear_problem(seed=21)
    fit = fit_ols(X, f)
    assert_allclose(fit.predict(X), fit.intercept - X @ fit.beta, rtol=0, atol=0)


def test_lasso_divergence_guard_is_convergence_error():
    # ConvergenceError is the declared failure mode of the solver, and a
    # SteinCvError.  A NaN penalty is never reached, so the path walks on past
    # its last event until the step bound stops it
    assert issubclass(ConvergenceError, SteinCvError)
    rng = np.random.default_rng(3)
    n, J = 12, 7
    X, f, w = rng.normal(size=(n, J)), rng.normal(size=n), np.full(n, 1.0 / n)
    with pytest.raises(ConvergenceError, match="step bound") as exc:
        regression._lasso_path(X, f, w, np.array([np.nan]))
    assert exc.value.diagnostics == {"steps": 8 * max(n, J) + 1, "lam": -np.inf}
