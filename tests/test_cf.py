"""Kernel control functionals: closed-form Stein kernel, estimator, bandwidth CV."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.stats import norm

import steincv.cf as cf_mod
from conftest import count_gaussian_factors
from steincv.cf import (
    KernelSpec,
    _gaussian_stein_cross,
    cf_cv_bandwidth,
    cf_estimate,
    default_bandwidth_grid,
    stein_kernel_matrix,
)
from steincv.errors import ConditioningError, InvalidInput
from steincv.evidence import CfMethod, expectation_with_provenance
from steincv.regression import _fold_slices, fit_ridge
from steincv.polybasis import basis_size, enumerate_exponents, design_columns
from steincv.models import ConjugateGaussianModel
from steincv.samples import IntegrandValues, SampleSet
from steincv.smc import SmcConfig, posthoc_schedule, run_smc


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
    K0 = _gaussian_stein_cross(theta, grad, bw)
    for i in range(6):
        for l in range(6):
            want = fd_stein_kernel(theta[i], theta[l], grad[i], grad[l], bw)
            assert K0[i, l] == pytest.approx(want, rel=1e-5, abs=1e-7)


def test_gaussian_stein_kernel_zero_mean_under_target():
    # the point of the construction: E_p[k0(X, y)] = 0 for p = N(0,1), u = -x
    for y0, bw in [(0.7, 1.0), (-1.3, 2.5), (0.0, 0.3)]:
        def integrand(x):
            # entry [0, 1] of the square kernel on the two draws [x, y0]
            val = _gaussian_stein_cross(np.array([[x], [y0]]), np.array([[-x], [-y0]]), bw)[0, 1]
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
    for lam_r in (-1e-3, np.inf, np.nan):
        with pytest.raises(InvalidInput):
            cf_estimate(s, IntegrandValues(np.zeros(6)), KernelSpec(), lam_r=lam_r)


def test_jitter_escalation_exhaustion(monkeypatch):
    def always_fail(*args, **kwargs):
        raise LinAlgError("not positive definite")

    monkeypatch.setattr(cf_mod, "cho_factor", always_fail)
    s = gaussian_draws(6, seed=7)
    with pytest.raises(ConditioningError) as ei:
        cf_estimate(s, IntegrandValues(s.theta[:, 0]), KernelSpec())
    assert ei.value.diagnostics["jitter"] > 0


def test_kernel_spec_validation():
    with pytest.raises(InvalidInput):
        KernelSpec(kind="matern")
    for bad in (0.0, np.inf, np.nan):
        with pytest.raises(InvalidInput):
            KernelSpec(kind="gaussian", bandwidth=bad)
    with pytest.raises(InvalidInput):
        KernelSpec(kind="polynomial", degree=0)
    with pytest.raises(InvalidInput):
        KernelSpec(jitter=-1e-12)


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
    for bad in (np.inf, np.nan):
        with pytest.raises(InvalidInput):
            cf_cv_bandwidth(s, phi, grid=[bad, 1.0], folds=2)
    # 0 or -1 folds used to score nothing and return the largest bandwidth,
    # and 1 fold to train on no draws
    for folds in (1, 0, -1):
        with pytest.raises(InvalidInput, match="2 folds"):
            cf_cv_bandwidth(s, phi, folds=folds)


# --- oracles: the two-solve estimate, the unfused kernel build, per-fold search -----


def copy_and_factor(A, shift, jitter_scale, base_diag):
    """Cholesky factor of A + (shift + jitter) I in a Fortran-ordered copy of A^T.

    The library's jitter escalation, with A left untouched: each failed try
    restores the copy from A.  Factorises through ``cf.cho_factor``, so a test
    that patches it reaches this reference too.
    """
    if not np.all(np.isfinite(np.diag(A))):
        raise ConditioningError("kernel system has non-finite entries")
    jitter = jitter_scale * base_diag if base_diag > 0 else jitter_scale
    diag = np.diag(A) + shift
    M = np.array(A.T, order="F")
    on_diag = np.diag_indices_from(M)
    for _ in range(cf_mod._JITTER_DOUBLINGS + 1):
        M[on_diag] = diag + jitter
        try:
            return cf_mod.cho_factor(M, lower=True, overwrite_a=True)
        except LinAlgError:
            M[...] = A.T
            jitter = max(jitter * 2.0, np.finfo(float).tiny)
        except ValueError as exc:
            raise ConditioningError("kernel system has non-finite entries") from exc
    raise ConditioningError("kernel system stayed non-positive-definite", jitter=jitter)


def copy_and_factor_weights(K0, shift, jitter_scale, wt):
    """(factor, CF weights v = K^-1 w~ / 1^T K^-1 w~) with K0 left untouched."""
    factor = copy_and_factor(K0, shift, jitter_scale, float(np.mean(np.diag(K0))))
    u = cho_solve(factor, wt)
    denom = float(np.sum(u))
    if denom == 0.0 or not np.isfinite(denom):
        raise ConditioningError("degenerate kernel system")
    return factor, u / denom


def two_solve_reference(K0, lam_r, jitter_scale, wt, f):
    """(a, factor) for a = w~^T K^-1 f / w~^T K^-1 1, one solve per right-hand side.

    K = K0 + N lam_r I (+ jitter) is factorised as the library does; the
    estimate is the ratio of two solves instead of the weight vector v.
    """
    factor = copy_and_factor(K0, K0.shape[0] * lam_r, jitter_scale,
                             float(np.mean(np.diag(K0))))
    denom = float(wt @ cho_solve(factor, np.ones(wt.size)))
    if denom == 0.0 or not np.isfinite(denom):
        raise ConditioningError("degenerate kernel system")
    return float(wt @ cho_solve(factor, f)) / denom, factor


def stein_cross_factors(theta_a, grad_a, theta_b, grad_b, bandwidth):
    """(-||x - y||^2 / bw, polynomial factor) of the gaussian Stein cross block."""
    c = 2.0 / bandwidth
    d = theta_a.shape[1]
    sq = (
        np.sum(theta_a**2, axis=1)[:, None]
        - 2.0 * theta_a @ theta_b.T
        + np.sum(theta_b**2, axis=1)[None, :]
    )
    P = theta_a @ grad_b.T
    Q = grad_a @ theta_b.T
    qa = np.sum(theta_a * grad_a, axis=1)
    qb = np.sum(theta_b * grad_b, axis=1)
    core = c * (d - c * sq)
    core = core - c * (P - qb[None, :])
    core = core + c * (qa[:, None] - Q)
    core = core + grad_a @ grad_b.T
    return -sq / bandwidth, core


def stein_cross_reference(theta_a, grad_a, theta_b, grad_b, bandwidth):
    """The gaussian Stein cross block as one expression, with full-size temporaries."""
    exponent, core = stein_cross_factors(theta_a, grad_a, theta_b, grad_b, bandwidth)
    return np.exp(exponent) * core


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
        scores[gi] = np.inf if np.isnan(err) else err
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


@pytest.mark.parametrize("n, d", [(60, 1), (60, 3), (201, 5), (500, 5)])
def test_fused_square_kernel_matches_reference(n, d):
    rng = np.random.default_rng(n)
    theta = rng.normal(size=(n, d))
    grad = -theta + 0.1 * rng.normal(size=(n, d))
    for bw in (1e-3, 0.7, 30.0, 1e4):
        got = _gaussian_stein_cross(theta, grad, bw)
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


def test_a_kernel_that_overflows_raises_conditioning_error():
    # At theta ~ 1e8 the fused exponent cancels terms of ||theta||^2 / bw ~ 1e19,
    # and at bw = 1e-3 the rounding error overflows exp: K0 holds inf, which
    # cho_factor rejects with a ValueError before any jitter can help
    rng = np.random.default_rng(1)
    theta = 1e8 * rng.normal(size=(13, 1))
    s = SampleSet(theta=theta, grad_log_target=-theta / 1e16, weights=None)
    phi = IntegrandValues(theta[:, 0] / 1e8)
    with np.errstate(over="ignore"):
        assert not np.all(np.isfinite(stein_kernel_matrix(s, KernelSpec(bandwidth=1e-3))))
        with pytest.raises(ConditioningError):
            cf_estimate(s, phi, KernelSpec(bandwidth=1e-3))
        bw = cf_cv_bandwidth(s, phi, folds=2)   # 1e-3 scores inf and the search goes on
        assert bw > 1e-3 and np.isfinite(cf_estimate(s, phi, KernelSpec(bandwidth=bw)))


@pytest.mark.parametrize("weighted", [False, True])
def test_search_builds_every_fold_block_bitwise_from_the_square_kernel(monkeypatch, weighted):
    # each fold's training block (train x train) and hold-out block (hold x
    # train), built from the strips that hold their rows, are bitwise those
    # entries of stein_kernel_matrix at every default bandwidth, the floored
    # ones 1e-3 to 3.16e-2 included; n is no multiple of the folds.  At
    # n = 613 a product over a fold's columns alone rounds some entries
    # differently from those columns of the full-width strip
    draw = weighted_draws if weighted else gaussian_draws
    builds = []
    real = cf_mod._gaussian_stein_cross

    def block(theta, grad, bandwidth, rows, cols, **buffers):
        K = real(theta, grad, bandwidth, rows, cols, **buffers)
        builds.append((bandwidth, rows, cols, K.copy()))
        return K

    monkeypatch.setattr(cf_mod, "stein_kernel_matrix", None)     # not called
    monkeypatch.setattr(cf_mod, "_gaussian_stein_cross", block)
    grid = default_bandwidth_grid()
    for d, folds, n in [(1, 2, 37), (2, 3, 71), (3, 4, 130), (4, 5, 151), (5, 6, 97), (5, 7, 200),
                        (3, 5, 613)]:
        s = draw(n, 40 + folds, d=d)
        phi = IntegrandValues(np.sin(s.theta[:, 0]) + 0.5 * s.theta[:, -1] ** 2)
        builds.clear()
        cf_cv_bandwidth(s, phi, folds=folds, seed=folds)
        holds = _fold_slices(n, folds, folds)
        squares = {bw: real(s.theta, s.grad_log_target, bw) for bw in grid}
        # pass 1 builds the first fold of every bandwidth, the largest first
        assert [bw for bw, *_ in builds[:grid.size]] == list(grid[::-1])
        for bw, rows, cols, K in builds:
            m = cols.size
            train, hold = rows[:m], rows[m:]
            assert any(np.array_equal(hold, h) for h in holds)
            assert np.array_equal(train, np.delete(np.arange(n), hold))
            assert np.array_equal(cols, train)
            assert np.array_equal(K[:m], squares[bw][np.ix_(train, train)]), (d, folds, bw)
            assert np.array_equal(K[m:], squares[bw][np.ix_(hold, train)]), (d, folds, bw)
        assert np.any(builds[grid.size - 1][3] == 0.0)     # bw = 1e-3 is floored
    monkeypatch.undo()
    assert np.array_equal(squares[grid[0]], stein_kernel_matrix(s, KernelSpec(bandwidth=grid[0])))


def strip_square_reference(theta, grad, bw):
    """The square gaussian kernel from its 64-row strip products, floored
    against 0, its largest exponent, by the -inf reference."""
    c = 2.0 / bw
    x_a, x_b, e = cf_mod._exponent_rows(theta, c)
    p_a, p_b = cf_mod._polynomial_rows(theta, grad, c, e)
    strips = range(0, len(theta), cf_mod._STRIP_ROWS)
    E = np.vstack([x_a[a:a + cf_mod._STRIP_ROWS] @ x_b.T for a in strips])
    minus_inf_floored_exp(E, top=0.0)
    return E * np.vstack([p_a[a:a + cf_mod._STRIP_ROWS] @ p_b.T for a in strips])


@pytest.mark.parametrize("d", [1, 3, 5])
def test_square_kernel_equals_the_strip_reference_floored_against_0(d):
    # draws in two clusters, resampled with duplicates, leave some strips
    # floored and some not at the smaller bandwidths
    rng = np.random.default_rng(d)
    for n, shift in [(40, 0.0), (150, 3.0), (201, 30.0)]:
        theta = rng.normal(size=(n, d))
        theta[: n // 3] += shift
        theta = theta[rng.integers(0, n, n)]
        grad = -theta + 0.1 * rng.normal(size=(n, d))
        s = SampleSet(theta=theta, grad_log_target=grad, weights=None)
        for bw in default_bandwidth_grid():
            got = stein_kernel_matrix(s, KernelSpec(bandwidth=bw))
            assert np.array_equal(got, strip_square_reference(theta, grad, bw)), (n, bw)


# --- oracles: the kernel without the exponent floor, and np.ix_ fold blocks -------


def unfloored_stein_cross(theta_a, grad_a, theta_b, grad_b, bandwidth):
    """The fused gaussian Stein cross block with every exp taken, subnormal or zero."""
    c = 2.0 / bandwidth

    def terms(theta, grad):
        z = np.sqrt(c) * theta
        e = 0.5 * np.einsum("ij,ij->i", z, z)
        v = np.sqrt(0.5) * grad
        r = c * (np.einsum("ij,ij->i", theta, grad) + 0.5 * theta.shape[1]) - 2.0 * c * e
        return z, -e, np.column_stack([np.sqrt(2.0) * c * theta - v, v]), r, np.ones_like(e)

    z_a, ne_a, W_a, r_a, one_a = terms(theta_a, grad_a)
    z_b, ne_b, W_b, r_b, one_b = terms(theta_b, grad_b)
    K = np.column_stack([ne_a, one_a, z_a]) @ np.column_stack([one_b, ne_b, z_b]).T
    np.exp(K, out=K)
    K *= np.column_stack([r_a, one_a, W_a]) @ np.column_stack([one_b, r_b, W_b]).T
    return K


def unfloored_kernel(s, bw):
    return unfloored_stein_cross(s.theta, s.grad_log_target, s.theta, s.grad_log_target, bw)


def unfloored_fold_errors(s, phi, grid, folds=5, seed=0):
    """Per grid bandwidth, the held-out error of every fold on the unfloored
    kernel, each fold block gathered by np.ix_ and every solve checked for
    finiteness; a fold that fails to factorise scores inf and ends its list."""
    n = s.count
    perm = np.random.default_rng(seed).permutation(n)
    f = phi.values
    out = []
    for bw in grid:
        K0 = unfloored_kernel(s, bw)
        errors = []
        for hold in [perm[k::folds] for k in range(folds)]:
            train = np.delete(np.arange(n), hold)
            try:
                factor, v = copy_and_factor_weights(K0[np.ix_(train, train)], 0.0, 1e-10,
                                                    np.ones(train.size))
            except ConditioningError:
                errors.append(np.inf)
                break
            a = float(v @ f[train])
            alpha = cho_solve(factor, f[train] - a)
            errors.append(float(np.mean((f[hold] - (a + K0[np.ix_(hold, train)] @ alpha)) ** 2)))
        out.append(errors)
    return out


def summed_score(errors):
    """A bandwidth's score: its fold errors summed in fold order, NaN as inf."""
    err = 0.0
    for e in errors:
        err += e
    return np.inf if np.isnan(err) else err


def pruned_fold_count(fold_errors, grid):
    """Fold factorisations of the two-pass search, predicted from every fold's
    error.  Pass 1 scores the first fold of every bandwidth.  Pass 2 takes the
    bandwidths in ascending order of that first error, stable over the grid
    from the largest bandwidth down, and ends at the first whose first error is
    not finite or exceeds the cut best * (1 + 1e-12) + 1e-300, best being the
    least score completed before it; each bandwidth before that scores its
    remaining folds until its running error exceeds the cut."""
    by_size = np.argsort(-np.asarray(grid, dtype=float), kind="stable")
    first = np.array([summed_score(fold_errors[gi][:1]) for gi in range(len(grid))])
    count, best = len(grid), np.inf
    for gi in by_size[np.argsort(first[by_size], kind="stable")]:
        err = first[gi]
        if not (err <= best * (1 + 1e-12) + 1e-300 and err < np.inf):
            break
        for e in fold_errors[gi][1:]:
            count += 1
            err += e
            if not err <= best * (1 + 1e-12) + 1e-300:
                break
        else:
            best = min(best, err)
    return count


def unfloored_search_reference(s, phi, grid=None, folds=5, seed=0):
    """Bandwidth CV scoring every fold of every bandwidth (see
    ``unfloored_fold_errors``); ties go to the larger bandwidth."""
    grid = default_bandwidth_grid() if grid is None else np.asarray(grid, dtype=float)
    scores = np.array([summed_score(e) for e in unfloored_fold_errors(s, phi, grid, folds, seed)])
    best = float(np.min(scores))
    if not np.isfinite(best):
        raise ConditioningError("every candidate bandwidth failed to factorise")
    return float(np.max(grid[scores <= best * (1 + 1e-12) + 1e-300]))


def minus_inf_floored_exp(K, top=None):
    """The floor as first written: entries below the largest (or ``top``) - 70
    set to -inf, then exp."""
    floor = (K.max() if top is None else top) + cf_mod._EXP_FLOOR
    if K.min() < floor:
        K[K < floor] = -np.inf
    np.exp(K, out=K)


def assert_floored_exp_matches_reference(K):
    want = K.copy()
    minus_inf_floored_exp(want)
    cf_mod._floored_exp(K)
    assert np.array_equal(K, want, equal_nan=True)


@pytest.mark.parametrize("bw", default_bandwidth_grid())
def test_floored_exp_equals_the_minus_inf_reference(bw):
    s = weighted_draws(300, 3, d=5)
    for theta in (s.theta, s.theta[::-1]):
        x_a, x_b, _ = cf_mod._exponent_rows(theta, 2.0 / bw)
        assert_floored_exp_matches_reference(x_a @ x_b.T)


def test_floored_exp_equals_the_minus_inf_reference_on_special_blocks():
    rng = np.random.default_rng(4)
    mixed = rng.uniform(-150.0, 0.0, size=(40, 30))
    blocks = [mixed, mixed - 700.0, np.full((3, 3), -5.0), np.array([[0.0, -70.0, -71.0]])]
    for value in (np.inf, -np.inf, np.nan):
        block = mixed.copy()
        block[3, 4] = value
        blocks.append(block)
    for K in blocks:
        assert_floored_exp_matches_reference(K)


@pytest.mark.parametrize("bw", [1e-3, 10**-2.5, 1e-2, 0.1])
def test_floor_drops_only_factors_below_exp_minus_70(bw):
    # an entry whose exponent -||x - y||^2 / bw lies more than 70 below the
    # kernel's largest (0, on its diagonal) is set to 0: it was at most
    # exp(-70) ~ 4e-31 times its polynomial factor, relative to the largest
    # factor.  Both exponents are rounded at the scale of reference_tolerance,
    # so an entry within that of the floor may fall on either side.
    rng = np.random.default_rng(17)
    for n, d in [(80, 1), (120, 3), (60, 5)]:
        theta = rng.normal(size=(n, d))
        grad = -theta + 0.1 * rng.normal(size=(n, d))
        got = _gaussian_stein_cross(theta, grad, bw)
        exponent, core = stein_cross_factors(theta, grad, theta, grad, bw)
        want = np.exp(exponent) * core
        tol = reference_tolerance(bw, theta)
        floor = np.max(exponent) - 70.0
        assert np.any(exponent < floor - 2 * tol)
        assert np.all(got[exponent < floor - 2 * tol] == 0.0)
        dropped = (got == 0.0) & (want != 0.0)
        bound = np.exp(floor + 2 * tol) * np.abs(core[dropped])
        assert np.all(np.abs(want[dropped]) <= bound)
        kept = np.abs(got - want)[~dropped]
        assert np.max(kept) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("weighted", [False, True])
def test_floored_search_and_estimates_equal_unfloored(weighted):
    # the default grid starts at bw = 1e-3, where nearly every off-diagonal
    # exponent of these draws lies below -70
    draw = weighted_draws if weighted else gaussian_draws
    for trial, (n, d) in enumerate([(45, 1), (70, 2), (96, 3), (150, 5)]):
        s = draw(n, 60 + trial, d=d)
        f = np.sin(s.theta[:, 0]) + 0.5 * s.theta[:, -1] ** 2
        phi = IntegrandValues(f)
        grid = default_bandwidth_grid()
        floored = [stein_kernel_matrix(s, KernelSpec(bandwidth=bw)) for bw in grid]
        assert np.any(floored[0] != unfloored_kernel(s, grid[0]))
        for seed in (1, 2):
            bw = unfloored_search_reference(s, phi, seed=seed)
            assert cf_cv_bandwidth(s, phi, seed=seed) == bw
            want = copy_and_factor_weights(unfloored_kernel(s, bw), 0.0, 1e-10,
                                           n * s.weights)[1] @ f
            assert cf_estimate(s, phi, KernelSpec(bandwidth=bw)) == want
        # the floor leaves the weights of every grid kernel bitwise the same
        for bw, K0 in zip(grid, floored):
            want = copy_and_factor_weights(unfloored_kernel(s, bw), 0.0, 1e-10, n * s.weights)[1]
            assert np.array_equal(copy_and_factor_weights(K0, 0.0, 1e-10, n * s.weights)[1],
                                  want), bw
            assert np.array_equal(cf_mod._cf_weights(s, KernelSpec(bandwidth=bw), 0.0),
                                  want), bw


# --- the cut: pruned search against the unpruned reference -------------------------


def count_fold_factors(monkeypatch):
    """Patch cf._factor_in_place to count its calls: one per fold factorised,
    a failed one included."""
    real = cf_mod._factor_in_place
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cf_mod, "_factor_in_place", counting)
    return calls


def assert_pruned_search_matches(monkeypatch, s, phi, grid, folds, seed):
    """The pruned search picks the reference's bandwidth with exactly the
    fold factors that the reference's fold errors predict."""
    grid = default_bandwidth_grid() if grid is None else np.asarray(grid, dtype=float)
    want = unfloored_search_reference(s, phi, grid=grid, folds=folds, seed=seed)
    expected = pruned_fold_count(unfloored_fold_errors(s, phi, grid, folds, seed), grid)
    calls = count_fold_factors(monkeypatch)
    assert cf_cv_bandwidth(s, phi, grid=grid, folds=folds, seed=seed) == want
    assert len(calls) == expected
    monkeypatch.undo()
    return want, expected


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("grid_kind", ["default", "unsorted", "duplicates"])
def test_pruned_search_matches_unpruned_reference(monkeypatch, weighted, grid_kind):
    draw = weighted_draws if weighted else gaussian_draws
    stopped = 0
    for folds in range(2, 8):
        rng = np.random.default_rng(100 * folds + weighted)
        n, d = int(rng.integers(30, 80)), int(rng.integers(1, 4))
        s = draw(n, 70 + folds, d=d)
        phi = IntegrandValues(np.sin(s.theta[:, 0]) + 0.5 * s.theta[:, -1] ** 2)
        grid = None
        if grid_kind == "unsorted":
            grid = rng.permutation(np.power(10.0, rng.uniform(-2.0, 2.0, 7)))
        elif grid_kind == "duplicates":
            grid = rng.permutation(np.repeat([0.05, 0.5, 5.0, 50.0], [1, 2, 3, 2]))
        size = 15 if grid is None else len(grid)
        _, factors = assert_pruned_search_matches(monkeypatch, s, phi, grid, folds, seed=folds)
        stopped += size * folds - factors
    assert stopped > 0


@pytest.mark.parametrize("weighted", [False, True])
def test_pruned_search_on_an_exact_tie_scores_every_fold(monkeypatch, weighted):
    # f = 0 is interpolated exactly at every bandwidth: a = 0, alpha = 0 and
    # every fold error is 0.0, so no bandwidth is stopped and the largest wins
    draw = weighted_draws if weighted else gaussian_draws
    s = draw(36, 5, d=2)
    phi = IntegrandValues(np.zeros(36))
    grid = [0.3, 30.0, 3.0, 30.0, 0.03]
    want, factors = assert_pruned_search_matches(monkeypatch, s, phi, grid, folds=4, seed=1)
    assert want == 30.0 and factors == 4 * len(grid)


def test_pruned_search_when_the_largest_bandwidth_fails(monkeypatch):
    # Cholesky fails on every kernel with a small diagonal, i.e. the largest
    # bandwidth (diag K0 = 2 d / bw + |u|^2): its first fold scores inf, which
    # leaves the cut open for the next bandwidth
    real = cf_mod.cho_factor

    def fails_on_large_bandwidths(K, *args, **kwargs):
        if np.mean(np.diag(K)) < 1.5:
            raise LinAlgError("not positive definite")
        return real(K, *args, **kwargs)

    s = weighted_draws(50, 33, d=2)
    phi = IntegrandValues(np.cos(s.theta[:, 1]))
    grid = [0.3, 300.0, 3.0, 0.03]
    monkeypatch.setattr(cf_mod, "cho_factor", fails_on_large_bandwidths)
    errors = unfloored_fold_errors(s, phi, grid, folds=5, seed=2)
    assert errors[1] == [np.inf] and all(len(e) == 5 for i, e in enumerate(errors) if i != 1)
    calls = count_fold_factors(monkeypatch)
    assert cf_cv_bandwidth(s, phi, grid=grid, seed=2) == unfloored_search_reference(
        s, phi, grid=grid, seed=2)
    assert len(calls) == pruned_fold_count(errors, grid)


def test_pruned_search_when_the_best_first_fold_does_not_win(monkeypatch):
    # 1.6 has the least first-fold error (0.11) but scores 1.73 in full, and
    # 0.8 (0.15, then 0.39 in full) wins: pass 2 finishes 1.6 first, 0.8 then
    # tightens the cut, and the choice is still the reference's
    s = gaussian_draws(30, seed=12, d=2)
    phi = IntegrandValues(np.sin(4 * s.theta[:, 0]))
    grid = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2]
    errors = unfloored_fold_errors(s, phi, grid)
    assert int(np.argmin([e[0] for e in errors])) == grid.index(1.6)
    want, factors = assert_pruned_search_matches(monkeypatch, s, phi, grid, folds=5, seed=0)
    assert want == 0.8 and factors < 5 * len(grid)


def test_a_nan_fold_error_scores_its_bandwidth_inf(monkeypatch):
    # the hold-out solves of one bandwidth return NaN, so its fold errors are
    # NaN; it scores inf, and the search picks among the others instead of
    # raising as if every bandwidth had failed
    s = weighted_draws(40, 12, d=2)
    phi = IntegrandValues(np.sin(s.theta[:, 0]))
    grid = [0.3, 3.0, 30.0]
    for bad in grid:
        want = cf_cv_bandwidth(s, phi, grid=[bw for bw in grid if bw != bad], seed=3)
        current = []
        real_kernel, real_solve = cf_mod._gaussian_stein_cross, cf_mod.cho_solve

        def kernel(theta, grad, bandwidth, *block, **buffers):
            current.append(bandwidth)
            return real_kernel(theta, grad, bandwidth, *block, **buffers)

        def solve(factor, b, **kwargs):
            x = real_solve(factor, b, **kwargs)
            hold_out = not np.all(b == 1.0)     # not the weight solve against w~ = 1
            return np.full_like(x, np.nan) if current[-1] == bad and hold_out else x

        monkeypatch.setattr(cf_mod, "_gaussian_stein_cross", kernel)
        monkeypatch.setattr(cf_mod, "cho_solve", solve)
        assert cf_cv_bandwidth(s, phi, grid=grid, seed=3) == want
        monkeypatch.undo()


# --- CF's dependence on the jitter --------------------------------------------------


def test_cf_estimate_moves_with_the_jitter_within_a_stated_bound():
    # with lam_r = 0 the jitter, 1e-10 mean(diag K0), is the only regulariser of
    # the interpolating system.  Jitter 1e-12 moves these estimates by 6.5e-10
    # sd(f) (bw = 1) up to 1.34e-4 sd(f) (bw = 31.6, the log-likelihood): far
    # beyond rounding at the larger bandwidths, far below the Monte Carlo
    # error sd(f) / sqrt(200) = 0.07 sd(f).
    s = gaussian_draws(200, 5, d=3)
    integrands = (np.sin(s.theta[:, 0]) + 0.5 * s.theta[:, -1] ** 2, s.theta[:, 0],
                  pseudo_log_like(s))
    moves = []
    for f in integrands:
        for bw in (1.0, 3.0, 10**1.5):
            a = cf_estimate(s, IntegrandValues(f), KernelSpec(bandwidth=bw))
            b = cf_estimate(s, IntegrandValues(f), KernelSpec(bandwidth=bw, jitter=1e-12))
            moves.append(abs(a - b) / np.std(f))
    assert 1e-6 < max(moves) <= 5e-4


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
        factor = copy_and_factor(G, n * lam_r, kernel.jitter, float(np.trace(G)) / n)

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


# --- oracle: one gaussian factor per run of draws, against per-set weights ---------


def per_set_reference(s, kernel, lam_r):
    """Weights of one sample set from stein_kernel_matrix and the copy-and-factor."""
    n = s.count
    return copy_and_factor_weights(stein_kernel_matrix(s, kernel), n * lam_r,
                                   kernel.jitter, n * s.weights)[1]


def draw_runs(sets):
    """The number of runs of consecutive sets on the same theta array."""
    return 1 + sum(a.theta is not b.theta for a, b in zip(sets, sets[1:]))


def assert_same_weights(sets, kernel, lam_r, monkeypatch):
    """The generator's weights, bitwise the per-set ones, from one gaussian
    factor per run of sets on the same draws."""
    built = count_gaussian_factors(monkeypatch)
    got = list(cf_mod._gaussian_cf_weights(sets, kernel, lam_r))
    assert len(built) == draw_runs(sets) and len(got) == len(sets)
    monkeypatch.undo()
    for v, s in zip(got, sets):
        assert np.array_equal(v, per_set_reference(s, kernel, lam_r))
        assert np.array_equal(v, cf_mod._cf_weights(s, kernel, lam_r))


@pytest.fixture(scope="module")
def conjugate_sets():
    """A reduced evidence-conjugate population: the sets serving a post-hoc
    schedule, in order, several temperatures per snapshot."""
    data = np.random.default_rng(2024).normal(0.5, 1.0, size=(100, 3))
    model = ConjugateGaussianModel(np.zeros(3), 4.0 * np.eye(3), np.eye(3), data)
    ps = run_smc(model, SmcConfig(n_particles=150, seed=11))
    sched = posthoc_schedule(ps, 0.95)
    sets = [ps.snapshots[k].sample_set(t)
            for t, k in zip(sched.temperatures, sched.population_index)]
    assert draw_runs(sets) == len(set(sched.population_index)) < len(sets)
    return sets


@pytest.mark.parametrize("bw, lam_r", [(3.0, 0.0), (3.0, 0.01), (0.5, 0.0)])
def test_shared_draw_weights_equal_per_set_weights(conjugate_sets, monkeypatch, bw, lam_r):
    assert_same_weights(conjugate_sets, KernelSpec(bandwidth=bw), lam_r, monkeypatch)


def tempered_sets(sizes, spread, seed, d=2):
    """Sample sets at four temperatures per set of draws, which they share."""
    rng = np.random.default_rng(seed)
    sets = []
    for n in sizes:
        theta = spread * rng.normal(size=(n, d))
        theta.setflags(write=False)         # so every SampleSet keeps this array
        gll, glp = -(theta - 1.0), -theta / 4.0
        sets += [SampleSet(theta=theta, grad_log_target=t * gll + glp,
                           weights=rng.uniform(0.2, 2.0, n))
                 for t in (0.0, 0.3, 0.7, 1.0)]
    return sets


@pytest.mark.parametrize("bw", [1e-2, 0.05])
def test_shared_draw_weights_equal_per_set_weights_where_the_floor_drops(monkeypatch, bw):
    # two sizes of draws, so the buffers are reallocated between runs
    sets = tempered_sets([60, 45], spread=1.5, seed=21)
    assert draw_runs(sets) == 2
    for s in sets[1::4]:
        K0 = stein_kernel_matrix(s, KernelSpec(bandwidth=bw))
        assert np.any(K0 == 0.0) and not np.array_equal(K0, unfloored_kernel(s, bw))
    assert_same_weights(sets, KernelSpec(bandwidth=bw), 0.0, monkeypatch)


def fail_every_first_try(monkeypatch):
    """Patch cf.cho_factor to fail every other call after scribbling over its
    input, as a partial factorisation does; returns the list of calls."""
    real = cf_mod.cho_factor
    calls = []

    def scribbling(M, *args, **kwargs):
        calls.append(M.shape)
        if len(calls) % 2:
            real(M, *args, **kwargs)
            raise LinAlgError("forced failure")
        return real(M, *args, **kwargs)

    monkeypatch.setattr(cf_mod, "cho_factor", scribbling)
    return calls


def test_a_failed_first_try_retries_the_gaussian_buffer(conjugate_sets, monkeypatch):
    kernel = KernelSpec(bandwidth=3.0)
    sets = conjugate_sets[:6]
    calls = fail_every_first_try(monkeypatch)
    got = list(cf_mod._gaussian_cf_weights(sets, kernel, 0.0))
    assert len(calls) == 2 * len(sets)
    for v, s in zip(got, sets):
        calls.clear()
        assert np.array_equal(v, per_set_reference(s, kernel, 0.0))
        calls.clear()
        assert np.array_equal(cf_mod._cf_weights(s, kernel, 0.0), v)


def traced_peak(run):
    """(run(), the most memory it held at once beyond what was held before, in bytes)."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        got = run()
        return got, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_gaussian_weights_keep_one_n_by_n_array():
    # E and each set's kernel share one N x N array, dropped before an array
    # of another size is made.  Beside it live one strip's polynomial factor
    # (at most 64 x N) and numpy's copy of the E strip it multiplies, which
    # shares A with the output: measured 1.22 x 8 N^2, the same before and
    # after the factor stopped making cho_factor's N x N boolean check.  E and
    # the kernel in two arrays peaked at 2.17 x, and an old array kept through
    # the reallocation would add 8 * 500^2 bytes, 0.69 x.
    sets = tempered_sets([600, 500], spread=1.0, seed=5)
    got, peak = traced_peak(lambda: list(cf_mod._gaussian_cf_weights(
        sets, KernelSpec(bandwidth=1.0), 0.0)))
    assert len(got) == len(sets) == 8
    assert peak < 1.25 * 8 * 600 ** 2


def test_bandwidth_search_holds_no_n_by_n_array():
    # a fold's block, its training rows and then its hold-out rows by the
    # training columns, is (1 - 1/folds) x 8 N^2 = 0.8 x, and beside it live
    # one strip's exponents and polynomial factor (64 x N each) and the block's
    # share of them: 1.08 x measured here.  The search that built each N x N
    # kernel into one buffer, gathered through a second, peaked at 2.82 x.
    n = 600
    s = weighted_draws(n, 8, d=3)
    phi = IntegrandValues(np.sin(s.theta[:, 0]) + 0.5 * s.theta[:, -1] ** 2)
    bw, peak = traced_peak(lambda: cf_cv_bandwidth(s, phi, seed=1))
    assert bw in default_bandwidth_grid()
    assert peak < 1.25 * 8 * n ** 2


def test_a_cold_cv_estimate_builds_one_n_by_n_kernel(monkeypatch):
    # CfMethod() on a fresh set: the search builds fold blocks only, and the
    # chosen bandwidth's weights the one N x N gaussian factor, which sets the
    # peak: 1.23 x 8 N^2 measured here, 2.82 x while the search built N x N
    # kernels
    n = 600
    s = weighted_draws(n, 8, d=3)
    phi = np.sin(s.theta[:, 0]) + 0.5 * s.theta[:, -1] ** 2
    built = count_gaussian_factors(monkeypatch)
    record, peak = traced_peak(lambda: expectation_with_provenance(s, phi, CfMethod(), seed=1))
    assert np.isfinite(record.estimate)
    assert built.count((n, n)) == 1 and all(rows <= 64 for rows, _ in built[:-1])
    assert built[-1] == (n, n)
    assert peak < 1.5 * 8 * n ** 2


def factorised_triangles(monkeypatch) -> list:
    """Patch cf.cho_factor to record a copy of the triangle each call factorises."""
    real = cf_mod.cho_factor
    seen = []

    def recording(M, *args, **kwargs):
        seen.append(np.tril(M))
        return real(M, *args, **kwargs)

    monkeypatch.setattr(cf_mod, "cho_factor", recording)
    return seen


# At d = 5 OpenBLAS's product over a strip of rows, or over the reversed
# draws, is not always bitwise those rows of the full product (here the four
# kernels at N = 300 differ in some entry), so the triangle each set
# factorises and its weights are compared with the per-set reference at
# stated tolerances, relative to the largest entry.  Measured at this seed
# (1 and 2 BLAS threads) and seeds 1, 2 and 4 (2 threads): kernel entries
# within 2.0e-15; weights within 1.3e-15 (bw 0.5, lam_r 0), 9.2e-14 (bw 3,
# lam_r 0, where the conditioning amplifies the kernel's rounding), 1.8e-15
# (bw 3, lam_r 0.01) and 3.7e-15 (bw 30, lam_r 0.01).
@pytest.mark.parametrize("bw, lam_r, rel", [(0.5, 0.0, 1e-13), (3.0, 0.0, 1e-11),
                                            (3.0, 0.01, 1e-13), (30.0, 0.01, 1e-13)])
def test_strip_filled_weights_match_per_set_weights_at_d5(monkeypatch, bw, lam_r, rel):
    # N = 1, N below a strip's 64 rows, N not a multiple of them
    sets = tempered_sets([1, 40, 150, 300], spread=1.0, seed=3, d=5)
    kernel = KernelSpec(bandwidth=bw)
    seen = factorised_triangles(monkeypatch)
    got = list(cf_mod._gaussian_cf_weights(sets, kernel, lam_r))
    monkeypatch.undo()
    assert len(seen) == len(got) == len(sets)
    for v, s, M in zip(got, sets, seen):
        K0 = stein_kernel_matrix(s, kernel)
        want = np.tril(K0.T)
        d = np.diag(K0)
        want[np.diag_indices_from(want)] = (d + s.count * lam_r) + kernel.jitter * np.mean(d)
        assert_allclose(M, want, rtol=0, atol=1e-14 * np.abs(K0).max())
        ref = per_set_reference(s, kernel, lam_r)
        assert_allclose(v, ref, rtol=0, atol=rel * np.abs(ref).max())


@pytest.mark.parametrize("n, degree", [(12, 2), (7, 8)])    # J-space, then N-space
def test_a_failed_first_try_retries_the_polynomial_system(monkeypatch, n, degree):
    kernel = KernelSpec("polynomial", degree=degree)
    s = weighted_draws(n, 5, d=1)
    f = np.sin(s.theta[:, 0])
    calls = fail_every_first_try(monkeypatch)
    # the reference, patched alike, fails its first try too
    want = two_solve_estimate(s, f, kernel, 0.01)
    calls.clear()
    got = cf_estimate(s, IntegrandValues(f), kernel, 0.01)
    assert len(calls) == 2
    assert got == pytest.approx(want, rel=1e-12)


def test_a_failed_first_try_retries_the_fold_block(monkeypatch):
    s = weighted_draws(40, 9, d=2)
    phi = IntegrandValues(np.cos(s.theta[:, 1]))
    grid = [0.3, 3.0]
    calls = fail_every_first_try(monkeypatch)
    want = unfloored_search_reference(s, phi, grid=grid, seed=2)
    folds = pruned_fold_count(unfloored_fold_errors(s, phi, grid, seed=2), grid)
    assert folds == 6                       # 0.3 stops after its first fold
    calls.clear()
    assert cf_cv_bandwidth(s, phi, grid=grid, seed=2) == want
    assert len(calls) == 2 * folds


def test_a_failed_try_retries_from_the_intact_lower_triangle(monkeypatch):
    s = weighted_draws(40, 9, d=2)
    A = stein_kernel_matrix(s, KernelSpec(bandwidth=0.5))
    upper = np.triu_indices_from(A, 1)
    A[upper] = np.nextafter(A[upper], np.inf)       # triangles one ulp apart
    d, shift = np.diag(A).copy(), 0.3
    jitter = 1e-10 * float(np.sum(d)) / d.size

    def factor_of(B):                               # B's diagonal at the retry
        B = B.copy()
        B[np.diag_indices_from(B)] = (d + shift) + 2.0 * jitter
        return np.tril(cho_factor(B, lower=True)[0])

    from_lower = factor_of(np.tril(A) + np.tril(A, -1).T)
    from_upper = factor_of(np.triu(A) + np.triu(A, 1).T)
    assert not np.array_equal(from_lower, from_upper)
    calls = fail_every_first_try(monkeypatch)
    got, lower = cf_mod._factor_in_place(A, shift, 1e-10)
    assert lower and len(calls) == 2
    assert np.array_equal(np.tril(got), from_lower)


@pytest.mark.parametrize("n, d, degree", [(12, 1, 2), (7, 1, 8), (500, 5, 2)])
def test_polynomial_grams_are_exactly_symmetric(n, d, degree):
    # so a retry from the lower triangle factorises the first try's system
    s = weighted_draws(n, 5, d=d)
    X = design_columns(enumerate_exponents(d, degree).A, s.theta, s.grad_log_target)
    for G in (X @ X.T, X.T @ X):
        assert np.array_equal(G, G.T)


def test_every_factorisation_runs_in_place(conjugate_sets, monkeypatch):
    real = cf_mod.cho_factor
    seen = []

    def check(M, *args, **kwargs):
        # in place, and without cho_factor's N x N finiteness check
        seen.append(M.flags.f_contiguous and kwargs.get("overwrite_a", False)
                    and kwargs.get("check_finite") is False)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(cf_mod, "cho_factor", check)
    s = weighted_draws(30, 4, d=2)
    phi = IntegrandValues(s.theta[:, 0])
    grid = [0.5, 2.0]
    folds = pruned_fold_count(unfloored_fold_errors(s, phi, grid), grid)
    assert folds == 8                       # 0.5 stops after its third fold
    seen.clear()
    cf_cv_bandwidth(s, phi, grid=grid)
    for kernel in (KernelSpec(bandwidth=1.0), KernelSpec("polynomial", degree=2),
                   KernelSpec("polynomial", degree=8)):
        cf_estimate(s, phi, kernel)
    list(cf_mod._gaussian_cf_weights(conjugate_sets[:5], KernelSpec(bandwidth=3.0), 0.0))
    assert len(seen) == folds + 3 + 5
    assert all(seen)


def test_the_finiteness_check_makes_no_n_by_n_array():
    # cho_factor's own check made an N x N boolean array, 0.125 x 8 N^2; the
    # strips' check peaks at 0.046 x here
    n = 600
    A = np.full((n, n), 0.1) + np.eye(n)
    _, peak = traced_peak(lambda: cf_mod._factor_in_place(A, 0.0, 1e-10))
    assert peak < 0.0625 * 8 * n ** 2


@pytest.mark.parametrize("n", [5, 64, 65, 130])
def test_a_non_finite_upper_entry_raises_wherever_it_lies(n):
    # the upper triangle is checked strip by strip in place of cho_factor's
    # own check; the strict lower triangle is never read
    spd = np.full((n, n), 0.1) + np.eye(n)
    cells = {(0, 1), (0, n - 1), (n - 2, n - 1), (n // 2, n // 2 + 1), (1, n - 2)}
    if n > 64:
        cells |= {(63, 64), (64, n - 1), (0, 63)}
    for i, j in sorted(c for c in cells if c[0] < c[1]):
        for value in (np.nan, np.inf, -np.inf):
            A = spd.copy()
            A[i, j] = value
            with pytest.raises(ConditioningError, match="non-finite"):
                cf_mod._factor_in_place(A, 0.0, 1e-10)
            A = spd.copy()
            A[j, i] = value
            got, lower = cf_mod._factor_in_place(A, 0.0, 0.0)
            assert lower
            assert np.array_equal(np.tril(got), np.tril(cho_factor(spd, lower=True)[0]))


def test_a_retry_from_a_non_finite_lower_triangle_raises(monkeypatch):
    # the default refill copies the lower triangle up, and the retry checks it
    A = np.full((70, 70), 0.1) + np.eye(70)
    A[66, 2] = np.nan
    calls = fail_every_first_try(monkeypatch)
    with pytest.raises(ConditioningError, match="non-finite"):
        cf_mod._factor_in_place(A, 0.0, 1e-10)
    assert len(calls) == 1


def test_non_finite_systems_give_no_weights_and_no_warning():
    # a non-finite diagonal is rejected before its mean is taken, so no
    # "invalid value" warning (errors in this module) precedes the typed error
    A = np.eye(4)
    A[1, 1], A[2, 2] = np.inf, -np.inf
    with pytest.raises(ConditioningError):
        cf_mod._factor_in_place(A, 0.0, 1e-10)
    # theta ~ 1e8 at bw = 1e-3 overflows the gaussian factor (see
    # test_a_kernel_that_overflows_raises_conditioning_error), and NaN gradient
    # columns are rejected as stein_kernel_matrix rejects them: the generator
    # yields the weights of the sets before the first failing one, then raises
    rng = np.random.default_rng(1)
    theta = 1e8 * rng.normal(size=(13, 1))
    big = SampleSet(theta=theta, grad_log_target=-theta / 1e16, weights=None)
    masked = SampleSet(theta=np.ones((5, 1)), grad_log_target=np.full((5, 1), np.nan),
                       weights=None)
    good = gaussian_draws(13, seed=2)
    kernel = KernelSpec(bandwidth=1e-3)
    for bad, error in ((big, ConditioningError), (masked, InvalidInput)):
        weights = cf_mod._gaussian_cf_weights([good, bad, good], kernel, 0.0)
        assert np.array_equal(next(weights), per_set_reference(good, kernel, 0.0))
        with np.errstate(over="ignore"), pytest.raises(error):
            next(weights)
        with np.errstate(over="ignore"), pytest.raises(error):
            cf_mod._cf_weights(bad, kernel, 0.0)
    with pytest.raises(InvalidInput, match="needs all gradient columns"):
        stein_kernel_matrix(masked, kernel)
