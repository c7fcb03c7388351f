import csv
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from steincv.errors import InsufficientSamples, InvalidInput
from steincv.samples import (
    IntegrandValues,
    ParameterTransform,
    SampleSet,
    check_aligned,
    read_sample_csv,
    sample_csv_header,
    standardise,
    transform_samples,
    weighted_mean,
    weighted_sd,
    write_sample_csv,
)


def make_set(n=8, d=2, seed=0, weights=None, logs=False):
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(n, d))
    grad = rng.normal(size=(n, d))
    kw = {}
    if logs:
        kw = {"log_like": rng.normal(size=n), "log_prior": rng.normal(size=n)}
    return SampleSet(theta=theta, grad_log_target=grad, weights=weights, **kw)


# --- weighted moments -------------------------------------------------------


def test_weighted_mean_uniform_matches_numpy():
    a = np.array([1.0, 2.0, 3.0, 4.0])
    w = np.full(4, 0.25)
    assert weighted_mean(a, w) == pytest.approx(2.5)


def test_weighted_sd_uniform_is_ddof1():
    # denominator 1 - sum(w^2) = (n-1)/n for uniform weights
    a = np.array([1.0, 2.0, 3.0, 4.0])
    w = np.full(4, 0.25)
    assert weighted_sd(a, w) == pytest.approx(np.std(a, ddof=1))


def test_weighted_mean_matrix_axis():
    a = np.arange(6.0).reshape(3, 2)
    w = np.array([0.5, 0.25, 0.25])
    assert_allclose(weighted_mean(a, w), w @ a)


def test_weighted_sd_concentrated_weights_raise():
    with pytest.raises(InsufficientSamples):
        weighted_sd(np.array([1.0, 2.0]), np.array([1.0, 0.0]))


# --- SampleSet construction ---------------------------------------------------


def test_weights_normalised_on_construction():
    s = make_set(weights=np.array([2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0]))
    assert s.weights.sum() == pytest.approx(1.0)
    assert s.weights[0] == pytest.approx(0.25)
    assert s.weights[-1] == 0.0


def test_none_weights_default_uniform():
    s = make_set(n=5, weights=None)
    assert_allclose(s.weights, np.full(5, 0.2))


def test_arrays_are_readonly():
    s = make_set()
    with pytest.raises(ValueError):
        s.theta[0, 0] = 99.0


def test_caller_arrays_stay_writeable():
    rng = np.random.default_rng(5)
    theta, grad = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
    w, ll, lp = rng.uniform(0.5, 1.5, 6), rng.normal(size=6), rng.normal(size=6)
    s = SampleSet(theta=theta, grad_log_target=grad, weights=w, log_like=ll, log_prior=lp)
    kept = {name: getattr(s, name).copy() for name in
            ("theta", "grad_log_target", "weights", "log_like", "log_prior")}
    for a in (theta, grad, w, ll, lp):
        assert a.flags.writeable
        a[0] = 99.0
    for name, want in kept.items():
        assert_array_equal(getattr(s, name), want)
    # frozen C-ordered arrays are shared rather than copied again
    s2 = SampleSet(theta=s.theta, grad_log_target=s.grad_log_target, weights=None)
    assert s2.theta is s.theta and s2.grad_log_target is s.grad_log_target


def test_new_sample_sets_start_with_an_empty_memo():
    s = make_set(logs=True)
    s._memo["key"] = "value"
    for other in (s.with_weights(np.ones(s.count)), s.take([0, 2, 3]), replace(s)):
        assert other._memo == {}
    assert s._memo == {"key": "value"}


def test_shape_mismatch_rejected():
    with pytest.raises(InvalidInput):
        SampleSet(theta=np.zeros((4, 2)), grad_log_target=np.zeros((4, 3)), weights=None)


def test_nonfinite_theta_rejected():
    th = np.zeros((3, 1))
    th[1] = np.inf
    with pytest.raises(InvalidInput):
        SampleSet(theta=th, grad_log_target=np.zeros((3, 1)), weights=None)


def test_infinite_gradient_rejected_nan_allowed():
    grad = np.zeros((3, 2))
    grad[0, 1] = np.nan  # masked column is legal
    s = SampleSet(theta=np.ones((3, 2)), grad_log_target=grad, weights=None)
    assert np.isnan(s.grad_log_target[0, 1])
    grad2 = grad.copy()
    grad2[1, 0] = np.inf
    with pytest.raises(InvalidInput):
        SampleSet(theta=np.ones((3, 2)), grad_log_target=grad2, weights=None)


@pytest.mark.parametrize(
    "weights",
    [np.array([-0.1, 0.6, 0.5]), np.array([0.0, 0.0, 0.0]), np.array([np.nan, 1, 1])],
)
def test_bad_weights_rejected(weights):
    with pytest.raises(InvalidInput):
        SampleSet(theta=np.ones((3, 1)), grad_log_target=np.ones((3, 1)), weights=weights)


def test_empty_rejected():
    with pytest.raises(InsufficientSamples):
        SampleSet(theta=np.zeros((0, 2)), grad_log_target=np.zeros((0, 2)), weights=None)


def test_take_renormalises():
    s = make_set(n=6, weights=np.arange(1.0, 7.0), logs=True)
    sub = s.take([0, 3, 5])
    assert sub.count == 3
    assert sub.weights.sum() == pytest.approx(1.0)
    # relative weights preserved: 1 : 4 : 6
    assert_allclose(sub.weights, np.array([1.0, 4.0, 6.0]) / 11.0)
    assert sub.log_like is not None and sub.log_like.shape == (3,)


def test_with_weights():
    s = make_set(n=4)
    s2 = s.with_weights([1.0, 1.0, 2.0, 0.0])
    assert_array_equal(s2.theta, s.theta)
    assert_allclose(s2.weights, [0.25, 0.25, 0.5, 0.0])


def test_check_aligned():
    s = make_set(n=5)
    check_aligned(s, IntegrandValues(np.zeros(5)))
    with pytest.raises(InvalidInput):
        check_aligned(s, IntegrandValues(np.zeros(4)))


def test_integrand_values_must_be_finite():
    with pytest.raises(InvalidInput):
        IntegrandValues(np.array([1.0, np.inf]))


# --- standardisation ----------------------------------------------------------


def test_standardise_moments():
    rng = np.random.default_rng(3)
    X = rng.normal(loc=5.0, scale=3.0, size=(40, 3))
    f = rng.normal(size=40)
    w = np.full(40, 1.0 / 40)
    X_s, f_s, st = standardise(X, f, w)
    assert_allclose(weighted_mean(X_s, w), np.zeros(3), atol=1e-12)
    assert_allclose(weighted_sd(X_s, w), np.ones(3), atol=1e-12)
    assert weighted_mean(f_s, w) == pytest.approx(0.0, abs=1e-12)
    assert weighted_sd(f_s, w) == pytest.approx(1.0)
    assert st.dropped == ()


def test_standardise_drops_constant_columns():
    X = np.ones((10, 2))
    X[:, 1] = np.arange(10.0)
    f = np.arange(10.0)
    X_s, _, st = standardise(X, f, np.full(10, 0.1))
    assert st.dropped == (0,)
    assert_array_equal(st.retained, [1])
    assert X_s.shape[1] == 1


# --- parameter transforms -------------------------------------------------------


def test_transform_unknown_kind():
    with pytest.raises(InvalidInput):
        ParameterTransform(kinds=("banana",))


def test_log_transform_round_trip():
    t = ParameterTransform.of("log", 2)
    theta = np.array([[0.5, 2.0], [3.0, 0.1]])
    psi = t.forward(theta)
    assert_allclose(psi, np.log(theta))
    back, jac, dlog = t.pullback(psi)
    assert_allclose(back, theta, rtol=1e-14)
    assert_allclose(jac, theta, rtol=1e-14)  # dtheta/dpsi = e^psi
    assert_allclose(dlog, np.ones_like(theta))


def test_logit_transform_round_trip():
    t = ParameterTransform.of("logit", 1)
    theta = np.array([[0.2], [0.5], [0.9]])
    psi = t.forward(theta)
    back, jac, _ = t.pullback(psi)
    assert_allclose(back, theta, rtol=1e-12)
    assert_allclose(jac, theta * (1 - theta), rtol=1e-12)


def test_inverse_composes_to_identity():
    t = ParameterTransform.of("logit", 3)
    inv = t.inverse()
    x = np.array([[0.3, 0.6, 0.05]])
    assert_allclose(inv.forward(t.forward(x)), x, rtol=1e-12)


def test_transform_samples_log_scale():
    """Gradient pullback: column j becomes jac*g + dlog(jac)/dpsi."""
    rng = np.random.default_rng(1)
    theta = rng.uniform(0.5, 2.0, size=(6, 2))
    grad = rng.normal(size=(6, 2))
    lp = rng.normal(size=6)
    s = SampleSet(theta=theta, grad_log_target=grad, weights=None,
                  log_like=np.zeros(6), log_prior=lp)
    out = transform_samples(s, ParameterTransform.of("log", 2))
    assert_allclose(out.theta, np.log(theta))
    assert_allclose(out.grad_log_target, theta * grad + 1.0, rtol=1e-12)
    # Jacobian absorbed into the prior: log|J| = sum log theta
    assert_allclose(out.log_prior, lp + np.sum(np.log(theta), axis=1), rtol=1e-12)
    assert_array_equal(out.log_like, s.log_like)
    assert_allclose(out.weights, s.weights, rtol=1e-15)


def test_transform_samples_dim_mismatch():
    s = make_set(d=2)
    with pytest.raises(InvalidInput):
        transform_samples(s, ParameterTransform.of("log", 3))


# --- CSV round trip -------------------------------------------------------------


def test_csv_round_trip_exact(tmp_path):
    s = make_set(n=7, d=3, seed=11, weights=np.arange(1.0, 8.0), logs=True)
    path = tmp_path / "draws.csv"
    write_sample_csv(s, path)
    back = read_sample_csv(path)
    # repr formatting makes the round trip exact, not approximate
    assert_array_equal(back.theta, s.theta)
    assert_array_equal(back.grad_log_target, s.grad_log_target)
    assert_array_equal(back.weights, s.weights)
    assert_array_equal(back.log_like, s.log_like)
    assert_array_equal(back.log_prior, s.log_prior)


def test_csv_round_trip_without_logs(tmp_path):
    s = make_set(n=4, d=1)
    path = tmp_path / "draws.csv"
    write_sample_csv(s, path)
    back = read_sample_csv(path)
    assert back.log_like is None and back.log_prior is None
    assert_array_equal(back.theta, s.theta)


def csv_writer_oracle(s, path):
    """The archive writer as first written: one csv.writer row per draw."""
    with_logs = s.log_like is not None and s.log_prior is not None
    cols = np.hstack([s.theta, s.grad_log_target, s.weights[:, None]])
    if with_logs:
        cols = np.hstack([cols, s.log_like[:, None], s.log_prior[:, None]])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(sample_csv_header(s.dim, with_logs))
        for row in cols:
            writer.writerow([repr(float(v)) for v in row])


@pytest.mark.parametrize("logs", [True, False])
def test_csv_bytes_match_csv_writer_oracle(tmp_path, logs):
    big = 1.7976931348623157e308
    special = [-0.0, 5e-324, big, -big, 0.1, 1.0, 1e16]
    rng = np.random.default_rng(3)
    theta = np.column_stack([special, rng.normal(size=7), np.arange(7.0)])
    grad = np.column_stack([special[::-1], np.full(7, np.nan), rng.normal(size=7)])
    grad[2, 2] = np.nan
    kw = {"log_like": special[::-1], "log_prior": special} if logs else {}
    s = SampleSet(theta=theta, grad_log_target=grad,
                  weights=np.array([0.0, 5e-324, 1.0, 0.1, 2.0, 1e16, 3.0]), **kw)
    write_sample_csv(s, tmp_path / "new.csv")
    csv_writer_oracle(s, tmp_path / "old.csv")
    got = (tmp_path / "new.csv").read_bytes()
    assert got == (tmp_path / "old.csv").read_bytes()
    assert got.count(b"\r\n") == 8 and b"nan" in got and b"-0.0" in got


def test_csv_header_layout():
    assert sample_csv_header(2, False) == ["theta_1", "theta_2", "grad_1", "grad_2", "weight"]
    assert sample_csv_header(1, True)[-2:] == ["log_like", "log_prior"]


def test_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(InvalidInput):
        read_sample_csv(path)


def test_csv_ragged_row_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("theta_1,grad_1,weight\n1.0,0.5\n")
    with pytest.raises(InvalidInput):
        read_sample_csv(path)


def test_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(InvalidInput):
        read_sample_csv(path)
