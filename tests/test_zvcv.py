"""Polynomial control variate estimators against exact Gaussian cases.

The zero-variance mechanism: under N(mu, sigma^2) any polynomial integrand of
degree <= Q lies in the span of {1} and the degree-Q Stein covariates, so an
OLS fit reproduces the exact expectation from any handful of draws.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import kkt_violation
from steincv.errors import InsufficientSamples, InvalidInput
from steincv.polybasis import SubsetSpec, build_design_matrix, enumerate_exponents
from steincv.samples import IntegrandValues, SampleSet
from steincv.zvcv import CvSelectionResult, ZvSpec, apriori_estimate, crossval_select, zvcv_estimate


def gaussian_draws(n, mu, sd, seed, weights=None):
    rng = np.random.default_rng(seed)
    theta = rng.normal(mu, sd, size=(n, 1))
    grad = -(theta - mu) / sd**2
    return SampleSet(theta=theta, grad_log_target=grad, weights=weights)


def mvn_draws(n, mu, cov, seed):
    rng = np.random.default_rng(seed)
    theta = rng.multivariate_normal(mu, cov, size=n)
    grad = -np.linalg.solve(cov, (theta - mu).T).T
    return SampleSet(theta=theta, grad_log_target=grad, weights=None)


def test_linear_integrand_exact_q1():
    s = gaussian_draws(10, mu=3.0, sd=2.0, seed=0)
    est, fit = zvcv_estimate(s, IntegrandValues(s.theta[:, 0]), ZvSpec(degree=1))
    assert est == pytest.approx(3.0, abs=1e-12)
    assert fit.method == "ols"
    # for OLS the estimate *is* the regression intercept
    assert est == pytest.approx(fit.intercept, abs=1e-12)


def test_quadratic_integrand_exact_q2():
    # E[theta^2] = mu^2 + sd^2 = 13 under N(3, 2^2)
    s = gaussian_draws(12, mu=3.0, sd=2.0, seed=1)
    est, _ = zvcv_estimate(s, IntegrandValues(s.theta[:, 0] ** 2), ZvSpec(degree=2))
    assert est == pytest.approx(13.0, abs=1e-9)
    # Q=1 cannot represent a quadratic: not exact, still finite
    est1, _ = zvcv_estimate(s, IntegrandValues(s.theta[:, 0] ** 2), ZvSpec(degree=1))
    assert abs(est1 - 13.0) > 1e-6


def test_correlated_gaussian_exact():
    mu = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    s = mvn_draws(25, mu, cov, seed=2)
    phi = IntegrandValues(s.theta[:, 0] * s.theta[:, 1])
    est, _ = zvcv_estimate(s, phi, ZvSpec(degree=2))
    # E[t1 t2] = cov + mu1 mu2
    assert est == pytest.approx(0.6 + 1.0 * (-2.0), abs=1e-8)


def test_weighted_draws_exact():
    w = np.random.default_rng(3).uniform(0.1, 1.0, size=15)
    s = gaussian_draws(15, mu=-1.0, sd=0.5, seed=3, weights=w)
    est, _ = zvcv_estimate(s, IntegrandValues(s.theta[:, 0]), ZvSpec(degree=1))
    assert est == pytest.approx(-1.0, abs=1e-10)


def test_penalised_estimates_near_exact():
    s = gaussian_draws(60, mu=3.0, sd=2.0, seed=4)
    phi = IntegrandValues(s.theta[:, 0])
    ridge, rfit = zvcv_estimate(s, phi, ZvSpec(degree=1, penalty="ridge", lam=1e-8))
    lasso, lfit = zvcv_estimate(s, phi, ZvSpec(degree=1, penalty="lasso", lam=1e-8))
    assert rfit.lam == 1e-8 and lfit.lam == 1e-8
    assert ridge == pytest.approx(3.0, abs=1e-4)
    assert lasso == pytest.approx(3.0, abs=1e-4)


def test_penalty_cv_dispatch():
    s = gaussian_draws(40, mu=0.0, sd=1.0, seed=5)
    phi = IntegrandValues(s.theta[:, 0] + 0.1 * np.random.default_rng(5).normal(size=40))
    est, fit = zvcv_estimate(s, phi, ZvSpec(degree=1, penalty="lasso"))
    assert fit.cv_mse is not None        # lam=None went through cross-validation
    assert np.isfinite(est)


@pytest.mark.parametrize("subset, J", [(None, 495), (SubsetSpec(tuple(range(25))), 350)])
def test_lasso_cv_more_covariates_than_draws(subset, J):
    # the paper's regime: a degree-2 basis in d = 30 has more columns than N = 300
    n, d = 300, 30
    theta = np.random.default_rng(31).normal(size=(n, d))
    s = SampleSet(theta=theta, grad_log_target=-theta, weights=None)
    f = theta[:, 0] + 0.5 * theta[:, 0] * theta[:, 1] + np.sin(theta[:, 2])
    est, fit = zvcv_estimate(s, IntegrandValues(f), ZvSpec(degree=2, penalty="lasso", subset=subset))
    X = build_design_matrix(s, enumerate_exponents(d, 2, subset))
    assert X.shape == (n, J)
    assert fit.cv_mse is not None and 0.0 < fit.lam
    assert kkt_violation(X, f, s.weights, fit) <= 1e-8
    # E[f] = 0; the plain mean of these draws is 0.074
    assert abs(est) < 0.05


# --- the paper's central claim -------------------------------------------------


def student_t_squared_errors(n, replicates=40, nu=5.0, dim=10):
    """Squared errors of each estimator of E[theta1 + 0.5 tanh theta2] = 0.

    iid Student-t(nu) draws in ``dim`` coordinates, score
    -(nu + 1) theta / (nu + theta^2); replicate r draws from seed 1000 n + r
    and cross-validates with seed r.  Q = 2 gives J = 65 covariates.  The a
    priori fit sees only the gradients of coordinates 1 and 2; the others are
    NaN.
    """
    errs = {key: [] for key in ("vanilla", "ols", "ridge", "lasso", "apriori")}
    for rep in range(replicates):
        theta = np.random.default_rng(1000 * n + rep).standard_t(nu, size=(n, dim))
        grad = -(nu + 1.0) * theta / (nu + theta**2)
        s = SampleSet(theta=theta, grad_log_target=grad, weights=None)
        phi = IntegrandValues(theta[:, 0] + 0.5 * np.tanh(theta[:, 1]))
        errs["vanilla"].append(np.mean(phi.values))
        for penalty in ("ols", "ridge", "lasso"):
            errs[penalty].append(zvcv_estimate(s, phi, ZvSpec(degree=2, penalty=penalty),
                                               seed=rep)[0])
        masked = SampleSet(theta=theta, weights=None,
                           grad_log_target=np.where(np.arange(dim) < 2, grad, np.nan))
        errs["apriori"].append(apriori_estimate(masked, phi, SubsetSpec((0, 1)),
                                                ZvSpec(degree=2, penalty="lasso"), seed=rep))
    return {key: float(np.mean(np.square(v))) for key, v in errs.items()}


def test_penalised_zv_beats_least_squares_when_covariates_near_draws():
    # the paper's claim: once J nears (N = 100) or passes (N = 50) the draw
    # count, ridge and lasso ZV-CV beat least squares.  Measured MSEs:
    #   N = 100: vanilla 1.91e-2, OLS 1.99e-2, ridge 5.6e-3, lasso 3.6e-3, a priori 4.0e-3
    #   N =  50: vanilla 2.72e-2, OLS 3.47e-2, ridge 1.10e-2, lasso 4.3e-3, a priori 4.2e-3
    # The margins sit about twice inside the measured ratios: penalised / OLS
    # 0.12-0.32 (bound 0.6), penalised / vanilla 0.16-0.40 at N = 50 (bound
    # 0.7), a priori / vanilla 0.15-0.21 (bound 0.5).
    for n in (100, 50):
        mse = student_t_squared_errors(n)
        for penalty in ("ridge", "lasso"):
            assert mse[penalty] < 0.6 * mse["ols"], (n, mse)
            if n == 50:
                assert mse[penalty] < 0.7 * mse["vanilla"], (n, mse)
        assert mse["apriori"] < 0.5 * mse["vanilla"], (n, mse)


# --- split estimator -----------------------------------------------------------


def test_split_estimator_exact_case():
    s = gaussian_draws(20, mu=3.0, sd=2.0, seed=6)
    phi = IntegrandValues(s.theta[:, 0])
    est, _ = zvcv_estimate(s, phi, ZvSpec(degree=1, estimator="split"))
    assert est == pytest.approx(3.0, abs=1e-10)


def test_split_estimator_seed_determinism():
    s = gaussian_draws(30, mu=0.0, sd=1.0, seed=7)
    phi = IntegrandValues(np.sin(s.theta[:, 0]))
    spec = ZvSpec(degree=2, estimator="split")
    a = zvcv_estimate(s, phi, spec, seed=11)[0]
    b = zvcv_estimate(s, phi, spec, seed=11)[0]
    c = zvcv_estimate(s, phi, spec, seed=12)[0]
    assert a == b
    assert a != c   # different permutation, different halves


def test_split_differs_from_combined():
    s = gaussian_draws(30, mu=0.0, sd=1.0, seed=8)
    phi = IntegrandValues(np.tanh(s.theta[:, 0]))
    comb = zvcv_estimate(s, phi, ZvSpec(degree=2))[0]
    split = zvcv_estimate(s, phi, ZvSpec(degree=2, estimator="split"))[0]
    assert comb != split


def test_split_needs_four_draws():
    s = gaussian_draws(3, mu=0.0, sd=1.0, seed=9)
    with pytest.raises(InsufficientSamples):
        zvcv_estimate(s, IntegrandValues(np.zeros(3)), ZvSpec(estimator="split"))


def test_split_rejects_a_zero_weight_half():
    # one nonzero weight in six draws leaves one half with no weight at all;
    # normalising it used to divide 0 by 0 and fail on NaN weights
    w = np.zeros(6)
    w[0] = 1.0
    s = gaussian_draws(6, mu=0.0, sd=1.0, seed=8, weights=w)
    phi = IntegrandValues(s.theta[:, 0])
    for seed in range(4):
        with pytest.raises(InsufficientSamples, match="zero total weight"):
            zvcv_estimate(s, phi, ZvSpec(degree=1, estimator="split"), seed=seed)
    # crossval excludes every candidate on the same halves
    with pytest.raises(InvalidInput, match="no viable candidate"):
        crossval_select(s, phi, seed=0)


# --- coordinate subsets ----------------------------------------------------------


def test_subset_equals_full_when_integrand_is_linear():
    """Product-form target, phi = theta_1: both bases contain the exact fit."""
    rng = np.random.default_rng(10)
    theta = rng.normal(size=(30, 4))
    s = SampleSet(theta=theta, grad_log_target=-theta, weights=None)
    phi = IntegrandValues(theta[:, 0])
    full, _ = zvcv_estimate(s, phi, ZvSpec(degree=1))
    sub, _ = zvcv_estimate(s, phi, ZvSpec(degree=1, subset=SubsetSpec((0,))))
    assert full == pytest.approx(0.0, abs=1e-12)
    assert sub == pytest.approx(full, abs=1e-10)


def test_apriori_estimate_matches_subset_spec():
    rng = np.random.default_rng(11)
    theta = rng.normal(size=(20, 3))
    s = SampleSet(theta=theta, grad_log_target=-theta, weights=None)
    phi = IntegrandValues(theta[:, 1] ** 2)
    direct, _ = zvcv_estimate(s, phi, ZvSpec(degree=2, subset=SubsetSpec((1,))))
    via = apriori_estimate(s, phi, SubsetSpec((1,)), ZvSpec(degree=2))
    assert via == direct


def test_apriori_tolerates_masked_gradients():
    # only the subset coordinate's gradient is ever read
    rng = np.random.default_rng(12)
    theta = rng.normal(size=(20, 3))
    grad = -theta.copy()
    grad[:, 1] = np.nan
    grad[:, 2] = np.nan
    s = SampleSet(theta=theta, grad_log_target=grad, weights=None)
    phi = IntegrandValues(theta[:, 0])
    est = apriori_estimate(s, phi, SubsetSpec((0,)), ZvSpec(degree=1))
    assert est == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(InvalidInput):
        zvcv_estimate(s, phi, ZvSpec(degree=1))   # full basis touches the mask


# --- spec validation & labels -----------------------------------------------------


def test_zvspec_validation():
    with pytest.raises(InvalidInput):
        ZvSpec(degree=0)
    with pytest.raises(InvalidInput):
        ZvSpec(penalty="elastic")
    with pytest.raises(InvalidInput):
        ZvSpec(estimator="jackknife")


def test_labels():
    assert ZvSpec(degree=2).label() == "zv:Q=2:ols"
    assert ZvSpec(degree=3, penalty="lasso", estimator="split").label() == "zv:Q=3:lasso:split"
    assert ZvSpec(degree=1, subset=SubsetSpec((0, 2))).label() == "zv:Q=1:ols:sub=1+3"


# --- order/penalty selection -------------------------------------------------------


def linear_fixture(n, seed):
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(n, 2))
    s = SampleSet(theta=theta, grad_log_target=-theta, weights=None)
    phi = IntegrandValues(2.0 * theta[:, 0] - theta[:, 1] + 3.0)
    return s, phi


def test_crossval_picks_linear_ols():
    s, phi = linear_fixture(40, seed=13)
    result, est = crossval_select(s, phi, seed=0)
    assert isinstance(result, CvSelectionResult)
    assert result.chosen.degree == 1
    assert result.chosen.penalty == "ols"
    assert est == pytest.approx(3.0, abs=1e-9)


def test_crossval_trace_reproducible():
    s, phi = linear_fixture(40, seed=14)
    r1, e1 = crossval_select(s, phi, seed=5)
    r2, e2 = crossval_select(s, phi, seed=5)
    assert e1 == e2
    assert len(r1.trace) == len(r2.trace)
    for (spec_a, err_a), (spec_b, err_b) in zip(r1.trace, r2.trace):
        assert spec_a == spec_b
        assert err_a == err_b


def test_crossval_ascends_until_error_worsens():
    rng = np.random.default_rng(15)
    theta = rng.normal(size=(60, 1))
    s = SampleSet(theta=theta, grad_log_target=-theta, weights=None)
    phi = IntegrandValues(theta[:, 0] ** 2 + 0.05 * rng.normal(size=60))
    result, est = crossval_select(s, phi, candidates=[("ols", None)], seed=0)
    assert result.chosen.degree == 2
    assert est == pytest.approx(1.0, abs=0.1)
    # trace went at least one order past the winner
    assert max(spec.degree for spec, _ in result.trace) >= 3


def test_crossval_max_degree_cap():
    s, phi = linear_fixture(30, seed=16)
    result, _ = crossval_select(s, phi, max_degree=1, seed=0)
    assert all(spec.degree <= 1 for spec, _ in result.trace)
    # a cap below the first order scored would be overruled by it
    for max_degree, min_degree in ((0, 1), (-3, 1), (1, 2)):
        with pytest.raises(InvalidInput, match="max_degree"):
            crossval_select(s, phi, max_degree=max_degree, min_degree=min_degree)


def test_crossval_needs_four_draws():
    s = gaussian_draws(3, mu=0.0, sd=1.0, seed=17)
    with pytest.raises(InsufficientSamples):
        crossval_select(s, IntegrandValues(np.zeros(3)))
    with pytest.raises(InvalidInput):
        crossval_select(gaussian_draws(8, 0.0, 1.0, 18), IntegrandValues(np.zeros(8)),
                        min_degree=0)


def test_crossval_subset_candidates():
    rng = np.random.default_rng(19)
    theta = rng.normal(size=(50, 3))
    s = SampleSet(theta=theta, grad_log_target=-theta, weights=None)
    phi = IntegrandValues(theta[:, 0])
    cands = [("ols", SubsetSpec((0,))), ("ols", None)]
    result, est = crossval_select(s, phi, candidates=cands, seed=0)
    # both are exact; the tie-break prefers the smaller subset
    assert result.chosen.subset == SubsetSpec((0,))
    assert est == pytest.approx(0.0, abs=1e-10)
