"""Target models: analytic gradients, closed forms, the recapture likelihood."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.stats import norm

from conftest import fd_gradient, rel_err
from steincv.errors import InvalidInput
from steincv.models import (
    ConjugateGaussianModel,
    GaussianModel,
    LogisticModel,
    RecaptureModel,
    TransformedModel,
    default_logistic_prior_sds,
    load_model,
    model_from_manifest,
    standardise_predictors,
    synthetic_logistic_model,
)


def conjugate_2d():
    return ConjugateGaussianModel(
        prior_mean=[0.5, -0.5],
        prior_cov=[[1.5, 0.3], [0.3, 1.0]],
        obs_cov=[[0.8, -0.1], [-0.1, 0.6]],
        data=[[1.0, 0.2], [0.4, -0.3], [0.9, 0.1]],
    )


def prior_points(model, n=6, seed=0):
    theta = model.sample_prior(n, np.random.default_rng(seed))
    if isinstance(model, RecaptureModel):
        theta = np.clip(theta, 0.1, 0.9)    # keep finite-difference room
    return theta


@pytest.mark.parametrize("factory", [
    lambda: GaussianModel([1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]]),
    conjugate_2d,
    lambda: synthetic_logistic_model(n=40, dim=3, seed=1),
    RecaptureModel,
    lambda: TransformedModel(RecaptureModel()),
], ids=["gaussian", "conjugate", "logistic", "recapture", "recapture-logit"])
def test_gradients_match_finite_differences(factory):
    model = factory()
    theta = prior_points(model)
    for fn, grad_fn in [(model.log_prior, model.grad_log_prior),
                        (model.log_like, model.grad_log_like)]:
        got = grad_fn(theta)
        for row, g in zip(theta, got):
            want = fd_gradient(lambda x: float(fn(x[None, :])[0]), row)
            assert rel_err(g, want, floor=1e-8) < 1e-5


def test_log_tempered_linearity():
    model = conjugate_2d()
    theta = prior_points(model, n=5, seed=1)
    for t in (0.0, 0.3, 1.0):
        assert_allclose(model.log_tempered(theta, t),
                        t * model.log_like(theta) + model.log_prior(theta),
                        rtol=1e-14)
        assert_allclose(model.grad_log_tempered(theta, t),
                        t * model.grad_log_like(theta) + model.grad_log_prior(theta),
                        rtol=1e-14)


# --- gaussian --------------------------------------------------------------------


def test_gaussian_closed_forms():
    model = GaussianModel([1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]])
    at_mu = np.array([[1.0, -2.0]])
    logdet = float(np.log(np.linalg.det([[2.0, 0.5], [0.5, 1.0]])))
    assert model.log_prior(at_mu)[0] == pytest.approx(
        -0.5 * (2 * np.log(2 * np.pi) + logdet), rel=1e-12)
    assert_allclose(model.grad_log_prior(at_mu), [[0.0, 0.0]], atol=1e-15)
    theta = prior_points(model, n=2000, seed=2)
    assert_allclose(model.log_like(theta), 0.0, atol=0)
    assert_allclose(model.grad_log_like(theta), 0.0, atol=0)
    assert_allclose(theta.mean(axis=0), [1.0, -2.0], atol=0.15)
    assert_allclose(np.cov(theta.T), [[2.0, 0.5], [0.5, 1.0]], atol=0.2)


def test_gaussian_validation():
    with pytest.raises(InvalidInput):
        GaussianModel([0.0, 1.0], [[1.0]])
    with pytest.raises(InvalidInput):
        GaussianModel([0.0], [[-1.0]])


@pytest.mark.parametrize("build", [
    lambda: GaussianModel([np.nan], [[1.0]]),
    lambda: ConjugateGaussianModel([np.inf], [[1.0]], [[1.0]], [[0.5]]),
    lambda: ConjugateGaussianModel([0.0], [[1.0]], [[1.0]], [[0.5], [np.nan]]),
    lambda: LogisticModel([[1.0, -np.inf], [1.0, 0.3]], [0, 1], 1.0),
], ids=["gaussian-mean", "conjugate-mean", "conjugate-data", "logistic-design"])
def test_non_finite_model_inputs_are_invalid(build):
    # they used to pass, and the sampler then failed on NaN particles
    with pytest.raises(InvalidInput, match="must be finite"):
        build()


# --- conjugate gaussian -----------------------------------------------------------


def test_conjugate_log_like_matches_norm_logpdf():
    model = ConjugateGaussianModel([0.0], [[1.0]], [[0.5]], [[1.1], [0.4]])
    theta = np.array([[0.3], [-0.7]])
    want = [sum(norm.logpdf(y, loc=t, scale=np.sqrt(0.5)) for y in (1.1, 0.4))
            for t in (0.3, -0.7)]
    assert_allclose(model.log_like(theta), want, rtol=1e-12)


def test_conjugate_log_evidence_against_quadrature():
    model = ConjugateGaussianModel([0.2], [[1.3]], [[0.6]], [[1.0], [0.5], [0.1]])

    def joint(t):
        arr = np.array([[t]])
        return float(np.exp(model.log_prior(arr) + model.log_like(arr))[0])

    z, _ = quad(joint, -12, 12, limit=200)
    assert np.log(z) == pytest.approx(model.log_evidence(), rel=1e-9)


def test_conjugate_tempered_moments():
    model = conjugate_2d()
    m0, c0 = model.tempered_moments(0.0)
    assert_allclose(m0, model.mu0, rtol=1e-12)
    assert_allclose(c0, model.sigma0, rtol=1e-12)
    # full posterior by hand
    prec0 = np.linalg.inv(model.sigma0)
    prec_l = np.linalg.inv(model.sigma_l)
    n = model.n_obs
    ybar = model.data.mean(axis=0)
    prec = prec0 + n * prec_l
    cov = np.linalg.inv(prec)
    mean = cov @ (prec0 @ model.mu0 + n * prec_l @ ybar)
    m1, c1 = model.tempered_moments(1.0)
    assert_allclose(m1, mean, rtol=1e-10)
    assert_allclose(c1, cov, rtol=1e-10)


def test_conjugate_expected_log_like_by_quadrature():
    model = ConjugateGaussianModel([0.2], [[1.3]], [[0.6]], [[1.0], [0.5], [0.1]])
    for t in (0.0, 0.4, 1.0):
        def weighted(x, power=0):
            arr = np.array([[x]])
            lp = float(model.log_prior(arr)[0])
            ll = float(model.log_like(arr)[0])
            return np.exp(lp + t * ll) * ll**power

        z, _ = quad(weighted, -12, 12, limit=200)
        m, _ = quad(lambda x: weighted(x, power=1), -12, 12, limit=200)
        assert m / z == pytest.approx(model.expected_log_like(t), rel=1e-8)


def test_conjugate_var_is_temperature_derivative():
    model = conjugate_2d()
    eps = 1e-5
    for t in (0.1, 0.5, 0.9):
        fd = (model.expected_log_like(t + eps) - model.expected_log_like(t - eps)) / (2 * eps)
        assert model.var_log_like(t) == pytest.approx(fd, rel=1e-6)


# --- logistic ----------------------------------------------------------------------


def test_logistic_at_zero():
    model = synthetic_logistic_model(n=30, dim=3, seed=3)
    zero = np.zeros((1, 3))
    assert model.log_like(zero)[0] == pytest.approx(-30 * np.log(2.0), rel=1e-12)
    assert_allclose(model.grad_log_like(zero),
                    ((model.response - 0.5) @ model.design)[None, :], rtol=1e-12)


def test_logistic_response_encodings_agree():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(20, 2))
    y01 = (rng.uniform(size=20) < 0.5).astype(float)
    a = LogisticModel(X, y01, [5.0])
    b = LogisticModel(X, 2.0 * y01 - 1.0, [5.0])
    theta = rng.normal(size=(4, 2))
    assert_allclose(a.log_like(theta), b.log_like(theta), rtol=1e-14)
    assert_allclose(a.grad_log_like(theta), b.grad_log_like(theta), rtol=1e-14)
    with pytest.raises(InvalidInput):
        LogisticModel(X, y01 + 0.5, [5.0])


def test_logistic_extreme_linear_predictor_is_finite():
    X = np.full((5, 1), 1.0)
    model = LogisticModel(X, np.ones(5), [20.0])
    big = np.array([[800.0], [-800.0]])
    ll = model.log_like(big)
    g = model.grad_log_like(big)
    assert np.all(np.isfinite(ll)) and np.all(np.isfinite(g))
    assert ll[0] == pytest.approx(0.0, abs=1e-10)        # saturated correct class
    assert ll[1] == pytest.approx(-5 * 800.0, rel=1e-12)


def logistic_log_like_oracle(X, y01, theta):
    """The log-likelihood as first written: logaddexp over the linear predictor."""
    a = theta @ X.T
    return a @ y01 - np.sum(np.logaddexp(0.0, a), axis=1)


def logistic_grad_oracle(X, y01, theta):
    """The gradient as first written: a sigmoid masked by the sign of a."""
    a = theta @ X.T
    p = np.empty_like(a)
    pos = a >= 0
    p[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ex = np.exp(a[~pos])
    p[~pos] = ex / (1.0 + ex)
    return (y01 - p) @ X


# linear predictors at the centre, just off it, and around exp's overflow point
EDGE_PREDICTORS = [0.0, 1e-8, -1e-8, 708.0, -708.0, 709.8, -709.8, 800.0, -800.0]


@settings(deadline=None)
@given(n=st.integers(1, 30), dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
       pm_one=st.booleans(), scale=st.floats(1e-3, 100.0))
def test_logistic_matches_logaddexp_oracle(n, dim, seed, pm_one, scale):
    rng = np.random.default_rng(seed)
    X = np.hstack([np.ones((n, 1)), rng.normal(size=(n, dim - 1))])
    y01 = (rng.uniform(size=n) < 0.5).astype(float)
    model = LogisticModel(X, 2.0 * y01 - 1.0 if pm_one else y01, [5.0])
    # an intercept-only row puts every a_i exactly at c; a small slope spreads
    # the a_i just around c
    edge = np.zeros((len(EDGE_PREDICTORS), dim))
    edge[:, 0] = EDGE_PREDICTORS
    near = edge.copy()
    near[:, 1:] = 1e-3 * rng.normal(size=(len(EDGE_PREDICTORS), dim - 1))
    theta = np.vstack([edge, near, scale * rng.normal(size=(6, dim))])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ll = model.log_like(theta)
        g = model.grad_log_like(theta)
    assert_allclose(ll, logistic_log_like_oracle(X, y01, theta), rtol=1e-12, atol=1e-10)
    assert_allclose(g, logistic_grad_oracle(X, y01, theta), rtol=1e-12, atol=1e-10)


def test_logistic_prior_closed_form():
    model = synthetic_logistic_model(n=10, dim=3, seed=5)
    theta = np.array([[0.5, -1.0, 2.0]])
    want = sum(norm.logpdf(v, scale=s) for v, s in zip(theta[0], model.prior_sds))
    assert model.log_prior(theta)[0] == pytest.approx(want, rel=1e-12)


def test_default_prior_sds_and_standardisation():
    assert_allclose(default_logistic_prior_sds(4), [20.0, 5.0, 5.0, 5.0])
    assert_allclose(default_logistic_prior_sds(3, intercept=False), [5.0, 5.0, 5.0])
    rng = np.random.default_rng(6)
    X = np.hstack([np.ones((50, 1)), 3.0 * rng.normal(size=(50, 2))])
    S = standardise_predictors(X)
    assert_allclose(S[:, 0], 1.0)
    assert_allclose(np.std(S[:, 1:], axis=0, ddof=1), 0.5, rtol=1e-12)
    assert_allclose(standardise_predictors(np.ones((5, 1)), skip=()), np.ones((5, 1)))


def test_synthetic_logistic_fixture():
    model = synthetic_logistic_model()
    assert model.design.shape == (100, 5)
    assert_allclose(model.design[:, 0], 1.0)
    assert float(np.mean(model.response)) == pytest.approx(0.55, abs=1e-12)
    again = synthetic_logistic_model()
    assert_allclose(model.design, again.design, rtol=0)
    assert_allclose(model.response, again.response, rtol=0)


# --- capture-recapture ---------------------------------------------------------------


def cjs_oracle(releases, recaptures, theta):
    """Independent cell-probability construction of the CJS likelihood."""
    periods = len(releases)
    last = periods + 1
    n_phi = periods - 1
    phi = {i: theta[i - 1] for i in range(1, periods)}          # phi_1..phi_5
    p = {k: theta[n_phi + k - 2] for k in range(2, periods + 1)}  # p_2..p_6
    beta = theta[-1]                                            # phi_6 p_7

    total = 0.0
    for i in range(1, periods + 1):
        row_sum = 0.0
        chi = 1.0
        for k in range(i + 1, last + 1):
            if k < last:
                prob = phi[i] * p[k]
                for m in range(i + 1, k):
                    prob *= phi[m] * (1.0 - p[m])
            else:
                prob = beta
                if i < periods:
                    prob *= phi[i]
                    for m in range(i + 1, periods):
                        prob *= phi[m]
                    for m in range(i + 1, periods + 1):
                        prob *= 1.0 - p[m]
            m_ik = recaptures[i - 1][k - i - 1]
            total += m_ik * np.log(prob)
            row_sum += m_ik
            chi -= prob
        total += (releases[i - 1] - row_sum) * np.log(chi)
    return total


@pytest.fixture(scope="module")
def dipper():
    import importlib.resources as resources

    payload = json.loads(
        resources.files("steincv.data").joinpath("dipper_recapture.json").read_text()
    )
    return payload["releases"], payload["recaptures"]


def test_dipper_fixture_shape(dipper):
    releases, recaptures = dipper
    assert releases == [22, 60, 78, 80, 88, 98]
    assert [len(r) for r in recaptures] == [6, 5, 4, 3, 2, 1]
    model = RecaptureModel()
    assert model.dim == 11
    assert_allclose(model.never_seen,
                    [r - sum(row) for r, row in zip(releases, recaptures)])


def test_recapture_likelihood_matches_oracle(dipper):
    releases, recaptures = dipper
    model = RecaptureModel()
    rng = np.random.default_rng(7)
    points = [np.full(11, 0.5), rng.uniform(0.2, 0.8, 11), rng.uniform(0.05, 0.95, 11)]
    for theta in points:
        want = cjs_oracle(releases, recaptures, theta)
        got = float(model.log_like(theta[None, :])[0])
        assert got == pytest.approx(want, rel=1e-12)


def test_recapture_gradient_matches_oracle_fd(dipper):
    releases, recaptures = dipper
    model = RecaptureModel()
    theta = np.random.default_rng(8).uniform(0.25, 0.75, 11)
    got = model.grad_log_like(theta[None, :])[0]
    want = fd_gradient(lambda x: cjs_oracle(releases, recaptures, x), theta)
    assert rel_err(got, want) < 1e-5


def test_recapture_boundary_and_prior():
    model = RecaptureModel()
    inside = np.full((1, 11), 0.5)
    outside = inside.copy()
    outside[0, 3] = 1.0
    assert model.log_prior(inside)[0] == 0.0
    assert model.log_prior(outside)[0] == -np.inf
    assert model.log_like(outside)[0] == -np.inf
    assert np.all(model.grad_log_like(outside) == 0.0)
    _, _, chi = model._cells(inside)
    assert np.all((chi > 0) & (chi < 1))


def test_recapture_validation():
    with pytest.raises(InvalidInput):
        RecaptureModel([10], [[1]])
    with pytest.raises(InvalidInput):
        RecaptureModel([10, 10], [[1, 1], [1, 1]])          # not triangular
    with pytest.raises(InvalidInput):
        RecaptureModel([10, 10], [[1, -1], [1]])
    with pytest.raises(InvalidInput):
        RecaptureModel([2, 10], [[9, 1], [1]])              # recaptures exceed releases


# --- logit reparameterisation --------------------------------------------------------


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_transformed_recapture_prior():
    model = TransformedModel(RecaptureModel())
    psi = np.random.default_rng(9).normal(size=(4, 11))
    want = np.sum(psi - 2.0 * np.logaddexp(0.0, psi), axis=1)
    assert_allclose(model.log_prior(psi), want, rtol=1e-12)
    assert_allclose(model.grad_log_prior(psi), 1.0 - 2.0 * sigmoid(psi), rtol=1e-12)
    assert_allclose(model.grad_log_prior(np.zeros((1, 11))), 0.0, atol=1e-15)


def test_transformed_recapture_likelihood_pullback():
    base = RecaptureModel()
    model = TransformedModel(base)
    psi = np.random.default_rng(10).normal(size=(3, 11))
    theta = sigmoid(psi)
    assert_allclose(model.log_like(psi), base.log_like(theta), rtol=1e-12)
    jac = theta * (1.0 - theta)
    assert_allclose(model.grad_log_like(psi), jac * base.grad_log_like(theta),
                    rtol=1e-12)
    assert_allclose(model.to_base(psi), theta, rtol=1e-14)


def test_transformed_sampling_lives_on_real_line():
    model = TransformedModel(RecaptureModel())
    psi = model.sample_prior(50, np.random.default_rng(11))
    assert psi.shape == (50, 11)
    assert np.all(np.isfinite(psi))
    back = model.to_base(psi)
    assert np.all((back > 0) & (back < 1))


def test_transform_requires_non_identity():
    with pytest.raises(InvalidInput):
        TransformedModel(GaussianModel([0.0], [[1.0]]))


# --- manifests --------------------------------------------------------------------


def test_manifest_kinds(tmp_path):
    g = model_from_manifest({"kind": "gaussian", "mu": [0.0], "sigma": [[1.0]]})
    assert isinstance(g, GaussianModel)
    c = model_from_manifest({
        "kind": "conjugate_gaussian", "prior_mean": [0.0], "prior_cov": [[1.0]],
        "obs_cov": [[1.0]], "data": [[0.5]],
    })
    assert isinstance(c, ConjugateGaussianModel)
    s = model_from_manifest({"kind": "synthetic_logistic", "n": 20, "d": 3, "seed": 2})
    assert isinstance(s, LogisticModel) and s.design.shape == (20, 3)
    r = model_from_manifest({"kind": "recapture"})
    assert isinstance(r, TransformedModel)
    r_raw = model_from_manifest({"kind": "recapture", "use_transform": False})
    assert isinstance(r_raw, RecaptureModel)
    with pytest.raises(InvalidInput):
        model_from_manifest({"kind": "mystery"})


@pytest.mark.parametrize("manifest", [
    {"kind": "gaussian", "mu": [0.0]},
    {"kind": "gaussian", "mu": [0.0], "sigma": "abc"},
    {"kind": "logistic", "design": [[1.0, 0.2]]},
    {"kind": "synthetic_logistic", "n": "many"},
])
def test_manifest_missing_or_bad_field_is_invalid_input(manifest):
    with pytest.raises(InvalidInput, match="malformed model manifest"):
        model_from_manifest(manifest)
    with pytest.raises(InvalidInput):
        model_from_manifest({})


def test_manifest_logistic_from_csv(tmp_path):
    rng = np.random.default_rng(12)
    X = rng.normal(size=(15, 2))
    y = (rng.uniform(size=15) < 0.5).astype(float)
    np.savetxt(tmp_path / "X.csv", X, delimiter=",")
    np.savetxt(tmp_path / "y.csv", y, delimiter=",")
    model = model_from_manifest(
        {"kind": "logistic", "design_csv": "X.csv", "response_csv": "y.csv",
         "prior_sds": [5.0, 5.0]},
        base_dir=tmp_path,
    )
    assert isinstance(model, LogisticModel)
    assert_allclose(model.design, X, rtol=1e-12)
    assert_allclose(model.response, y)


def test_load_model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"kind": "gaussian", "mu": [1.0], "sigma": [[2.0]]}))
    model, manifest = load_model(path)
    assert isinstance(model, GaussianModel)
    assert manifest["kind"] == "gaussian"
    with pytest.raises(InvalidInput):
        load_model(tmp_path / "absent.json")
    (tmp_path / "broken.json").write_text("{nope")
    with pytest.raises(InvalidInput):
        load_model(tmp_path / "broken.json")
    (tmp_path / "latin1.json").write_bytes(b'{"kind": "\xff"}')
    with pytest.raises(InvalidInput):
        load_model(tmp_path / "latin1.json")
