"""Kernel control functionals: closed-form Stein kernel, estimator, bandwidth CV."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.linalg import LinAlgError, cho_solve
from scipy.stats import norm

import steincv.cf as cf_mod
from steincv.cf import (
    KernelSpec,
    _factor_with_jitter,
    _gaussian_stein_cross,
    cf_cv_bandwidth,
    cf_estimate,
    default_bandwidth_grid,
    stein_kernel_matrix,
)
from steincv.errors import ConditioningError, InvalidInput
from steincv.regression import fit_ridge
from steincv.polybasis import basis_size, enumerate_exponents, design_columns
from steincv.samples import IntegrandValues, SampleSet


def gaussian_draws(n, seed, d=1, mu=0.0, sd=1.0):
    rng = np.random.default_rng(seed)
    theta = rng.normal(mu, sd, size=(n, d))
    return SampleSet(theta=theta, grad_log_target=-(theta - mu) / sd**2, weights=None)


# --- closed-form kernel vs finite differences ------------------------------------


def fd_stein_kernel(x, y, ux, uy, bw, h=1e-4):
    """Brute-force k0(x, y) from the defining operator, via central differences."""
    def k(a, b):
        return float(np.exp(-np.sum((a - b) ** 2) / bw))

    d = x.size
    eye = np.eye(d)
    div = 0.0
    for j in range(d):
        e = h * eye[j]
        div += (k(x + e, y + e) - k(x + e, y - e)
                - k(x - e, y + e) + k(x - e, y - e)) / (4 * h * h)
    gx = np.array([(k(x + h * eye[j], y) - k(x - h * eye[j], y)) / (2 * h) for j in range(d)])
    gy = np.array([(k(x, y + h * eye[j]) - k(x, y - h * eye[j])) / (2 * h) for j in range(d)])
    return div + gx @ uy + gy @ ux + k(x, y) * (ux @ uy)


@pytest.mark.parametrize("bw", [0.5, 1.0, 3.0])
def test_gaussian_stein_kernel_matches_finite_differences(bw):
    rng = np.random.default_rng(0)
    theta = rng.normal(size=(6, 2))
    grad = rng.normal(size=(6, 2))          # arbitrary field: the algebra is generic
    K0 = _gaussian_stein_cross(theta, grad, theta, grad, bw)
    for i in range(6):
        for l in range(6):
            want = fd_stein_kernel(theta[i], theta[l], grad[i], grad[l], bw)
            assert K0[i, l] == pytest.approx(want, rel=1e-5, abs=1e-7)


def test_gaussian_stein_kernel_zero_mean_under_target():
    # the point of the construction: E_p[k0(X, y)] = 0 for p = N(0,1), u = -x
    for y0, bw in [(0.7, 1.0), (-1.3, 2.5), (0.0, 0.3)]:
        def integrand(x):
            val = _gaussian_stein_cross(
                np.array([[x]]), np.array([[-x]]),
                np.array([[y0]]), np.array([[-y0]]), bw,
            )[0, 0]
            return val * norm.pdf(x)

        total, err = quad(integrand, -12.0, 12.0, limit=200, epsabs=1e-12)
        assert abs(total) < 1e-9


def test_stein_kernel_matrix_symmetric_psd():
    s = gaussian_draws(20, seed=1, d=3)
    for spec in [KernelSpec("gaussian", bandwidth=2.0), KernelSpec("polynomial", degree=2)]:
        K0 = stein_kernel_matrix(s, spec)
        assert_allclose(K0, K0.T, atol=1e-12)
        w = np.linalg.eigvalsh(K0)
        assert w.min() > -1e-8 * max(w.max(), 1.0)


def test_gaussian_kernel_rejects_masked_gradients():
    s = gaussian_draws(8, seed=2, d=2)
    grad = s.grad_log_target.copy()
    grad[:, 1] = np.nan
    masked = SampleSet(theta=s.theta, grad_log_target=grad, weights=None)
    with pytest.raises(InvalidInput):
        stein_kernel_matrix(masked, KernelSpec("gaussian"))
    with pytest.raises(InvalidInput):
        cf_cv_bandwidth(masked, IntegrandValues(np.zeros(8)))


# --- estimator --------------------------------------------------------------------


def test_constant_integrand_recovered_exactly():
    s = gaussian_draws(15, seed=3, d=2)
    phi = IntegrandValues(np.full(15, 4.25))
    for spec in [KernelSpec("gaussian", bandwidth=1.5), KernelSpec("polynomial", degree=1)]:
        assert cf_estimate(s, phi, spec) == pytest.approx(4.25, abs=1e-9)
        assert cf_estimate(s, phi, spec, lam_r=0.3) == pytest.approx(4.25, abs=1e-9)


def test_interpolation_beats_plain_average():
    s = gaussian_draws(60, seed=4)
    phi = IntegrandValues(s.theta[:, 0])
    naive = abs(float(np.mean(phi.values)))
    est = cf_estimate(s, phi, KernelSpec("gaussian", bandwidth=2.0))
    assert abs(est) < naive
    assert abs(est) < 0.02


def test_polynomial_kernel_equals_unstandardised_ridge():
    """Representer duality: poly-CF with lam_r reproduces ridge ZV with lam = lam_r."""
    rng = np.random.default_rng(5)
    for trial in range(4):
        n, d, q = rng.integers(8, 30), rng.integers(1, 4), rng.integers(1, 4)
        theta = rng.normal(size=(n, d))
        s = SampleSet(theta=theta, grad_log_target=-theta, weights=None)
        phi = IntegrandValues(np.sin(theta[:, 0]) + theta.sum(axis=1) ** 2)
        lam = float(rng.uniform(0.01, 1.0))
        cf = cf_estimate(s, phi, KernelSpec("polynomial", degree=int(q)), lam_r=lam)
        X = design_columns(enumerate_exponents(int(d), int(q)).A, s.theta, s.grad_log_target)
        fit = fit_ridge(X, phi.values, s.weights, lam=lam, standardised=False)
        zv = fit.intercept
        assert cf == pytest.approx(zv, abs=1e-8 * max(1.0, abs(zv)))


def test_negative_regulariser_rejected():
    s = gaussian_draws(6, seed=6)
    with pytest.raises(InvalidInput):
        cf_estimate(s, IntegrandValues(np.zeros(6)), KernelSpec(), lam_r=-1e-3)


def test_jitter_escalation_exhaustion(monkeypatch):
    def always_fail(*args, **kwargs):
        raise LinAlgError("not positive definite")

    monkeypatch.setattr(cf_mod, "cho_factor", always_fail)
    s = gaussian_draws(6, seed=7)
    with pytest.raises(ConditioningError) as ei:
        cf_estimate(s, IntegrandValues(s.theta[:, 0]), KernelSpec())
    assert ei.value.diagnostics["jitter"] > 0


def test_kernel_spec_validation_and_labels():
    with pytest.raises(InvalidInput):
        KernelSpec(kind="matern")
    with pytest.raises(InvalidInput):
        KernelSpec(kind="gaussian", bandwidth=0.0)
    with pytest.raises(InvalidInput):
        KernelSpec(kind="polynomial", degree=0)
    with pytest.raises(InvalidInput):
        KernelSpec(jitter=-1e-12)
    assert KernelSpec("gaussian", bandwidth=0.25).label() == "cf:gaussian:bw=0.25"
    assert KernelSpec("polynomial", degree=3).label() == "cf:poly:Q=3"


# --- bandwidth selection -----------------------------------------------------------


def test_default_grid_shape():
    grid = default_bandwidth_grid()
    assert grid.size == 15
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(1e4)
    assert_allclose(np.diff(np.log10(grid)), 0.5)


def test_bandwidth_cv_deterministic_and_on_grid():
    s = gaussian_draws(40, seed=8, d=2)
    phi = IntegrandValues(np.cos(s.theta[:, 0]))
    bw1 = cf_cv_bandwidth(s, phi, seed=3)
    bw2 = cf_cv_bandwidth(s, phi, seed=3)
    assert bw1 == bw2
    assert bw1 in default_bandwidth_grid()
    custom = [0.5, 2.0, 8.0]
    assert cf_cv_bandwidth(s, phi, grid=custom, seed=3) in custom


def test_bandwidth_ties_resolve_large():
    # constant integrand interpolates exactly at every bandwidth: all scores zero
    s = gaussian_draws(25, seed=9)
    phi = IntegrandValues(np.full(25, 2.0))
    assert cf_cv_bandwidth(s, phi, grid=[0.1, 1.0, 10.0]) == 10.0


def test_bandwidth_cv_validation():
    s = gaussian_draws(4, seed=10)
    phi = IntegrandValues(np.zeros(4))
    with pytest.raises(InvalidInput):
        cf_cv_bandwidth(s, phi, folds=5)       # 4 draws cannot fill 5 folds
    with pytest.raises(InvalidInput):
        cf_cv_bandwidth(s, phi, grid=[])
    with pytest.raises(InvalidInput):
        cf_cv_bandwidth(s, phi, grid=[-1.0, 1.0], folds=2)


# --- oracles: the two-solve estimate, the unfused kernel build, per-fold search -----


def two_solve_reference(K0, lam_r, jitter_scale, wt, f):
    """(a, factor) for a = w~^T K^-1 f / w~^T K^-1 1, one solve per right-hand side.

    K = K0 + N lam_r I (+ jitter) is factorised as the library does; the
    estimate is the ratio of two solves instead of the weight vector v.
    """
    factor = _factor_with_jitter(K0, K0.shape[0] * lam_r, jitter_scale,
                                 float(np.mean(np.diag(K0))))
    denom = float(wt @ cho_solve(factor, np.ones(wt.size)))
    if denom == 0.0 or not np.isfinite(denom):
        raise ConditioningError("degenerate kernel system")
    return float(wt @ cho_solve(factor, f)) / denom, factor


def stein_cross_reference(theta_a, grad_a, theta_b, grad_b, bandwidth):
    """The gaussian Stein cross block as one expression, with full-size temporaries."""
    c = 2.0 / bandwidth
    d = theta_a.shape[1]
    sq = (
        np.sum(theta_a**2, axis=1)[:, None]
        - 2.0 * theta_a @ theta_b.T
        + np.sum(theta_b**2, axis=1)[None, :]
    )
    K = np.exp(-sq / bandwidth)
    P = theta_a @ grad_b.T
    Q = grad_a @ theta_b.T
    qa = np.sum(theta_a * grad_a, axis=1)
    qb = np.sum(theta_b * grad_b, axis=1)
    core = c * (d - c * sq)
    core = core - c * (P - qb[None, :])
    core = core + c * (qa[:, None] - Q)
    core = core + grad_a @ grad_b.T
    return K * core


def per_fold_search_reference(s, phi, grid=None, folds=5, seed=0):
    """Bandwidth CV building each fold's training and cross kernel from scratch."""
    grid = default_bandwidth_grid() if grid is None else np.asarray(grid, dtype=float)
    n = s.count
    perm = np.random.default_rng(seed).permutation(n)
    f = phi.values
    scores = np.zeros(grid.size)
    for gi, bw in enumerate(grid):
        err = 0.0
        for hold in [perm[k::folds] for k in range(folds)]:
            mask = np.ones(n, dtype=bool)
            mask[hold] = False
            th_tr, g_tr = s.theta[mask], s.grad_log_target[mask]
            K0 = stein_cross_reference(th_tr, g_tr, th_tr, g_tr, bw)
            K0 = 0.5 * (K0 + K0.T)
            try:
                a, factor = two_solve_reference(K0, 0.0, 1e-10, np.ones(K0.shape[0]), f[mask])
            except ConditioningError:
                err = np.inf
                break
            alpha = cho_solve(factor, f[mask] - a)
            K_cross = stein_cross_reference(
                s.theta[hold], s.grad_log_target[hold], th_tr, g_tr, bw
            )
            err += float(np.mean((f[hold] - (a + K_cross @ alpha)) ** 2))
        scores[gi] = err
    best = float(np.min(scores))
    if not np.isfinite(best):
        raise ConditioningError("every candidate bandwidth failed to factorise")
    for gi in np.argsort(grid)[::-1]:
        if scores[gi] <= best * (1 + 1e-12) + 1e-300:
            return float(grid[gi])


EPS = np.finfo(float).eps


def reference_tolerance(bw, *thetas):
    """Allowed max|fused - reference| / max|reference| at bandwidth bw.

    Both builds form exponent terms as large as ||theta||^2 / bw (and core
    terms as large as c^2 ||theta||^2), so an ulp of those is their shared
    rounding floor: about 1e-14 at bw >= 0.7 and 1e-10 at bw = 1e-3 for
    standard normal draws.  The worst of 600 random cross blocks reached 21
    such ulps.
    """
    sq = max(float(np.max(np.sum(t * t, axis=1))) for t in thetas)
    return 32 * EPS * (1.0 + sq / bw)


def test_fused_cross_block_matches_reference():
    rng = np.random.default_rng(11)
    for _ in range(60):
        na, nb = rng.choice(np.arange(1, 90), size=2, replace=False)
        d = int(rng.integers(1, 6))
        bw = float(10.0 ** rng.uniform(-3.0, 4.0))
        ta, ga = rng.normal(size=(na, d)), rng.normal(size=(na, d))
        tb, gb = rng.normal(size=(nb, d)), rng.normal(size=(nb, d))
        got = _gaussian_stein_cross(ta, ga, tb, gb, bw)
        want = stein_cross_reference(ta, ga, tb, gb, bw)
        tol = reference_tolerance(bw, ta, tb)
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("n, d", [(60, 1), (60, 3), (201, 5), (500, 5)])
def test_fused_square_kernel_matches_reference(n, d):
    rng = np.random.default_rng(n)
    theta = rng.normal(size=(n, d))
    grad = -theta + 0.1 * rng.normal(size=(n, d))
    for bw in (1e-3, 0.7, 30.0, 1e4):
        got = _gaussian_stein_cross(theta, grad, theta, grad, bw)
        want = stein_cross_reference(theta, grad, theta, grad, bw)
        tol = reference_tolerance(bw, theta)
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("n, d, bw, spread", [
    (40, 1, 1e-3, 30.0),        # |theta| up to 30: exp underflows off the diagonal
    (40, 3, 1e-3, 30.0),
    (2, 3, 1e-3, 30.0),
    (40, 2, 1e4, 3.0),
    (1, 2, 1.0, 1.0),
    (2, 1, 1.0, 1.0),
    (30, 1, 3.0, 3.0),
])
def test_fused_kernel_edge_cases(n, d, bw, spread):
    rng = np.random.default_rng(100 * n + d)
    theta = rng.uniform(-spread, spread, size=(n, d)) / np.sqrt(d)
    grad = -theta + rng.normal(size=(n, d))
    K0 = stein_kernel_matrix(SampleSet(theta=theta, grad_log_target=grad, weights=None),
                             KernelSpec(bandwidth=bw))
    assert K0.shape == (n, n) and np.all(np.isfinite(K0))
    if bw == 1e-3 and n > 2:
        assert np.any(K0 == 0.0)
    # k0(x, x) = c d + ||u(x)||^2, reached by cancelling terms as large as
    # c ||x||^2 in the exponent and c^2 ||x||^2 in the core
    want = 2.0 / bw * d + np.sum(grad**2, axis=1)
    tol = 32 * EPS * (1.0 + np.sum(theta**2, axis=1) / bw)
    assert np.all(np.abs(np.diag(K0) - want) <= tol * want)


@pytest.mark.parametrize("bw", [0.1, 1.0, 3.0, 30.0, 1e4])
def test_fused_kernel_symmetric_to_rounding(bw):
    s = gaussian_draws(1000, seed=15, d=3)
    K0 = stein_kernel_matrix(s, KernelSpec(bandwidth=bw))
    assert np.max(np.abs(K0 - K0.T)) <= 1e-14 * np.max(np.abs(K0))


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("lam_r, rel", [(0.01, 1e-12), (0.0, 1e-4)])
def test_fused_estimate_matches_reference_kernel_estimate(weighted, lam_r, rel):
    # lam_r = 0 interpolates through K0 + 1e-10 mean(diag K0) I: the reference
    # estimate itself moves by up to 5e-6 relative when its kernel is
    # perturbed at 1e-16, and the fused one sits within 1.2e-5 of it
    draw = weighted_draws if weighted else gaussian_draws
    for n, d in [(40, 1), (120, 2), (200, 3), (150, 5)]:
        s = draw(n, 50 + n, d=d)
        f = np.sin(s.theta[:, 0]) + 0.5 * s.theta[:, -1] ** 2
        for bw in (0.1, 1.0, 3.0, 30.0):
            got = cf_estimate(s, IntegrandValues(f), KernelSpec(bandwidth=bw), lam_r)
            R = stein_cross_reference(s.theta, s.grad_log_target,
                                      s.theta, s.grad_log_target, bw)
            want, _ = two_solve_reference(0.5 * (R + R.T), lam_r, 1e-10, n * s.weights, f)
            assert got == pytest.approx(want, rel=rel), (n, d, bw)


def weighted_draws(n, seed, d):
    s = gaussian_draws(n, seed, d=d, mu=0.3, sd=1.4)
    w = np.random.default_rng(seed + 100).uniform(0.2, 2.0, n)
    return SampleSet(theta=s.theta, grad_log_target=s.grad_log_target, weights=w)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("grid", [None, [0.05, 0.3, 1.0, 4.0, 40.0]])
def test_sliced_search_matches_per_fold_search(weighted, grid):
    for trial, (n, d) in enumerate([(45, 1), (70, 2), (96, 3)]):
        draw = weighted_draws if weighted else gaussian_draws
        s = draw(n, 20 + trial, d=d)
        phi = IntegrandValues(np.sin(s.theta[:, 0]) + 0.5 * s.theta[:, -1] ** 2)
        for seed in (1, 2):
            want = per_fold_search_reference(s, phi, grid=grid, seed=seed)
            assert cf_cv_bandwidth(s, phi, grid=grid, seed=seed) == want


def test_sliced_search_scores_failing_bandwidths_like_per_fold_search(monkeypatch):
    # Cholesky fails on every kernel with a large diagonal, i.e. every small
    # bandwidth (diag K0 = 2 d / bw + |u|^2), so those folds raise
    # ConditioningError after the jitter escalation and score inf
    real = cf_mod.cho_factor

    def fails_on_small_bandwidths(K, *args, **kwargs):
        if np.mean(np.diag(K)) > 50.0:
            raise LinAlgError("not positive definite")
        return real(K, *args, **kwargs)

    monkeypatch.setattr(cf_mod, "cho_factor", fails_on_small_bandwidths)
    s = weighted_draws(60, 31, d=2)
    phi = IntegrandValues(np.cos(s.theta[:, 1]))
    grid = [0.01, 0.03, 0.3, 3.0]          # 0.01 and 0.03 fail
    want = per_fold_search_reference(s, phi, grid=grid, seed=4)
    assert want in (0.3, 3.0)
    assert cf_cv_bandwidth(s, phi, grid=grid, seed=4) == want
    with pytest.raises(ConditioningError):
        per_fold_search_reference(s, phi, grid=[0.01, 0.03], seed=4)
    with pytest.raises(ConditioningError):
        cf_cv_bandwidth(s, phi, grid=[0.01, 0.03], seed=4)


def test_search_builds_one_full_kernel_per_bandwidth(monkeypatch):
    kernels, blocks = [], []
    real_kernel, real_block = cf_mod.stein_kernel_matrix, cf_mod._gaussian_stein_cross

    def kernel(s, spec):
        kernels.append(spec.bandwidth)
        return real_kernel(s, spec)

    def block(*args):
        blocks.append(real_block(*args).shape)
        return real_block(*args)

    monkeypatch.setattr(cf_mod, "stein_kernel_matrix", kernel)
    monkeypatch.setattr(cf_mod, "_gaussian_stein_cross", block)
    s = gaussian_draws(30, seed=12, d=2)
    grid = [0.5, 2.0, 8.0]
    cf_cv_bandwidth(s, IntegrandValues(s.theta[:, 0]), grid=grid)
    assert kernels == grid
    assert blocks == [(30, 30)] * len(grid)


# --- oracle: the polynomial system against an SVD of the covariates ---------------


def svd_estimate_reference(s, f, degree, lam_r, jitter=1e-10):
    """w~^T K^-1 f / w~^T K^-1 1 for K = X X^T + delta I, from the SVD of X.

    With the thin SVD X = U S V^T, K^-1 = U diag(1/(s^2 + delta)) U^T
    + (I - U U^T) / delta.  The second term is written through the full N x N
    U with zero singular values past rank(X), so no near-zero difference is
    divided by delta when J >= N.
    """
    X = design_columns(enumerate_exponents(s.dim, degree).A, s.theta, s.grad_log_target)
    n = s.count
    delta = n * lam_r + jitter * np.sum(X * X) / n
    U, sv, _ = np.linalg.svd(X, full_matrices=True)
    s2 = np.zeros(n)
    s2[:min(n, sv.size)] = sv[:n] ** 2

    def k_inv(v):
        return U @ ((U.T @ v) / (s2 + delta))

    wt = n * s.weights
    return float(wt @ k_inv(f)) / float(wt @ k_inv(np.ones(n)))


def pseudo_log_like(s):
    """A log-likelihood-shaped integrand: a Gaussian in theta around a data point."""
    return -0.5 * np.sum((s.theta - 0.4) ** 2, axis=1) / 0.3 - 7.0


@pytest.mark.parametrize("n", [40, 10, 9, 7])   # J = 9: J < N, N - 1, N, > N
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("lam_r", [0.0, 0.3])
def test_polynomial_estimate_matches_svd_reference(n, weighted, lam_r):
    draw = weighted_draws if weighted else gaussian_draws
    s = draw(n, 40 + n, d=2)
    assert basis_size(2, 3) == 9
    ll = pseudo_log_like(s)
    e = float(s.weights @ ll)
    integrands = {
        "E": ll,
        "V": (ll - e) ** 2,                 # where an N x N factor of X X^T drifts
        "sin": np.sin(s.theta[:, 0]) + s.theta[:, 1] ** 3,
    }
    for name, f in integrands.items():
        got = cf_estimate(s, IntegrandValues(f), KernelSpec("polynomial", degree=3), lam_r)
        want = svd_estimate_reference(s, f, 3, lam_r)
        assert got == pytest.approx(want, rel=1e-10), name


def test_polynomial_system_stays_in_j_space(monkeypatch):
    # J < N: only the J x J matrix X^T X is factorised and no N x N kernel is built
    shapes = []
    real = cf_mod.cho_factor

    def factor(M, *args, **kwargs):
        shapes.append(M.shape)
        return real(M, *args, **kwargs)

    def no_kernel(*args):
        raise AssertionError("N x N kernel built")

    monkeypatch.setattr(cf_mod, "cho_factor", factor)
    monkeypatch.setattr(cf_mod, "stein_kernel_matrix", no_kernel)
    s = gaussian_draws(50, seed=13, d=3)
    cf_estimate(s, IntegrandValues(s.theta[:, 0] ** 2), KernelSpec("polynomial", degree=2))
    assert shapes == [(9, 9)]


@pytest.mark.parametrize("n, degree", [(6, 2), (6, 8)])    # J-space, then N-space
def test_polynomial_jitter_escalation_exhaustion(monkeypatch, n, degree):
    def always_fail(*args, **kwargs):
        raise LinAlgError("not positive definite")

    monkeypatch.setattr(cf_mod, "cho_factor", always_fail)
    s = gaussian_draws(n, seed=7)
    with pytest.raises(ConditioningError) as ei:
        cf_estimate(s, IntegrandValues(s.theta[:, 0]), KernelSpec("polynomial", degree=degree))
    assert ei.value.diagnostics["jitter"] > 0


def test_polynomial_without_jitter_or_regulariser_is_the_vanishing_shift_limit():
    # jitter 0, lam_r 0, J < N: K = X X^T is singular, and the estimate is the
    # delta -> 0 limit w~^T (I - P) f / w~^T (I - P) 1 with P the projection
    # onto the columns of X, i.e. the least-squares intercept of f on [1, X]
    s = gaussian_draws(30, seed=14, d=2)
    f = np.exp(0.3 * s.theta[:, 0]) + s.theta[:, 1] ** 2
    got = cf_estimate(s, IntegrandValues(f), KernelSpec("polynomial", degree=2, jitter=0.0))
    X = design_columns(enumerate_exponents(2, 2).A, s.theta, s.grad_log_target)
    coef, *_ = np.linalg.lstsq(np.column_stack([np.ones(30), X]), f, rcond=None)
    assert got == pytest.approx(coef[0], rel=1e-10)


# --- oracle: the weight vector v against the two-solve estimate -------------------


def two_solve_estimate(s, f, kernel, lam_r):
    """w~^T K^-1 f / w~^T K^-1 1 from two solves on the library's factor.

    The polynomial kernel with J < N solves in J-space, where the solve returns
    delta K^-1 v = v - X (delta I + X^T X)^-1 X^T v and delta cancels.
    """
    n = s.count
    wt = n * s.weights
    if kernel.kind == "polynomial" and basis_size(s.dim, kernel.degree) < n:
        X = design_columns(enumerate_exponents(s.dim, kernel.degree).A, s.theta,
                           s.grad_log_target)
        G = X.T @ X
        factor = _factor_with_jitter(G, n * lam_r, kernel.jitter, float(np.trace(G)) / n)

        def solve(v):
            return v - X @ cho_solve(factor, X.T @ v)

        return float(wt @ solve(f)) / float(wt @ solve(np.ones(n)))
    return two_solve_reference(stein_kernel_matrix(s, kernel), lam_r, kernel.jitter, wt, f)[0]


# lam_r = 0 interpolates through K0 + 1e-10 mean(diag K0) I, whose condition
# number reaches 5e11 on this grid; the two forms then differ by rounding
# amplified up to 2.1e-10 relative (weighted gaussian, N = 120, bw = 3), so
# that case gets 1e-8.  With lam_r > 0 they agree to 9e-15.
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("lam_r, rel", [(0.01, 1e-12), (0.3, 1e-12), (0.0, 1e-8)])
@pytest.mark.parametrize("kernel", [
    KernelSpec(bandwidth=0.3), KernelSpec(bandwidth=3.0), KernelSpec(bandwidth=30.0),
    KernelSpec("polynomial", degree=2), KernelSpec("polynomial", degree=3),
])
def test_weight_vector_matches_two_solve_estimate(weighted, lam_r, rel, kernel):
    draw = weighted_draws if weighted else gaussian_draws
    # at d = 2 the polynomial kernels have J = 5 and 9, so degree 3 at N = 7
    # and 9 solves the N x N system and every other polynomial case J-space
    for n, d in [(40, 1), (120, 2), (60, 2), (7, 2), (9, 2)]:
        s = draw(n, 70 + n, d=d)
        for f in (np.sin(s.theta[:, 0]) + 0.5 * s.theta[:, -1] ** 2, pseudo_log_like(s)):
            got = cf_estimate(s, IntegrandValues(f), kernel, lam_r)
            assert got == pytest.approx(two_solve_estimate(s, f, kernel, lam_r), rel=rel), (n, d)


@pytest.mark.parametrize("kernel", [KernelSpec(bandwidth=1.0), KernelSpec("polynomial", degree=2)])
def test_weight_vector_is_read_only_and_sums_to_one(kernel):
    s = weighted_draws(50, 3, d=2)
    v = cf_mod._cf_weights(s, kernel, 0.01)
    assert v.shape == (50,) and not v.flags.writeable
    assert v.sum() == pytest.approx(1.0, rel=1e-13)
    f = np.cos(s.theta[:, 1])
    assert cf_estimate(s, IntegrandValues(f), kernel, 0.01) == float(v @ f)
