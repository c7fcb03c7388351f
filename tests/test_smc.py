"""Annealing sampler: weights, temperature search, kernels, archives, replay."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

import steincv.smc as smc_mod
from conftest import MALFORMED_MANIFEST, MALFORMED_NPY, rewrite_as_csv_archive
from steincv.errors import (
    ConvergenceError,
    DegenerateWeights,
    InvalidInput,
    InvalidSchedule,
)
from steincv.evidence import VANILLA, CfMethod, method_label, smc_evidence_estimate
from steincv.models import (
    ConjugateGaussianModel, GaussianModel, TargetModel, synthetic_logistic_model,
)
from steincv.samples import SampleSet
from steincv.smc import (
    ParticleSystem,
    ReplayRecord,
    SmcConfig,
    Snapshot,
    TemperatureSchedule,
    _Cloud,
    _evaluate,
    _mala_sweep,
    _read_snapshot,
    _write_snapshot,
    cess,
    choose_num_repeats,
    ess,
    load_particle_system,
    load_replay_record,
    mean_interparticle_distance,
    next_temperature,
    posthoc_schedule,
    resample_multinomial,
    reweight,
    run_smc,
    save_particle_system,
    step_size_grid,
    tune_step_size,
    weighted_covariance,
)
from steincv.zvcv import ZvSpec


def conjugate_1d(data=(1.1, 0.4, 0.9)):
    return ConjugateGaussianModel(
        prior_mean=[0.0], prior_cov=[[1.0]], obs_cov=[[1.0]],
        data=[[v] for v in data],
    )


# --- reweighting ---------------------------------------------------------------


def test_reweight_hand_case():
    # W = (1/2, 1/2), likelihoods (1, 2), full step: increment 0.5*1 + 0.5*2
    w, log_inc = reweight([0.5, 0.5], [0.0, np.log(2.0)], 0.0, 1.0)
    assert log_inc == pytest.approx(np.log(1.5), abs=1e-14)
    assert_allclose(w, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-14)


def test_reweight_zero_step_is_identity():
    w0 = np.array([0.1, 0.2, 0.7])
    w, log_inc = reweight(w0, [5.0, -3.0, 0.2], 0.4, 0.4)
    assert log_inc == pytest.approx(0.0, abs=1e-15)
    assert_allclose(w, w0, rtol=1e-15)


def test_reweight_constant_likelihood():
    w, log_inc = reweight([0.25, 0.75], [2.0, 2.0], 0.0, 0.5)
    assert log_inc == pytest.approx(1.0, abs=1e-12)     # 0.5 * 2.0
    assert_allclose(w, [0.25, 0.75], rtol=1e-15)


def test_reweight_backwards_inverts():
    rng = np.random.default_rng(0)
    w0 = rng.uniform(0.1, 1.0, 8)
    w0 /= w0.sum()
    ll = rng.normal(size=8)
    w1, inc1 = reweight(w0, ll, 0.2, 0.7)
    w2, inc2 = reweight(w1, ll, 0.7, 0.2)
    assert_allclose(w2, w0, rtol=1e-12)
    assert inc1 + inc2 == pytest.approx(0.0, abs=1e-12)


def test_reweight_survives_extreme_logs():
    w, log_inc = reweight([0.5, 0.5], [-500.0, 500.0], 0.0, 1.0)
    assert_allclose(w, [0.0, 1.0], atol=1e-300)
    assert log_inc == pytest.approx(500.0 + np.log(0.5), abs=1e-10)


def test_reweight_degenerate():
    with pytest.raises(DegenerateWeights):
        reweight([0.5, 0.5], [-np.inf, -np.inf], 0.0, 1.0)
    with pytest.raises(DegenerateWeights):
        reweight([0.0, 0.0], [1.0, 1.0], 0.0, 1.0)


# --- ESS / CESS ------------------------------------------------------------------


def test_ess_hand_cases():
    assert ess([0.25, 0.25, 0.25, 0.25]) == pytest.approx(4.0)
    assert ess([1.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert ess([3.0, 3.0]) == pytest.approx(2.0)        # unnormalised input ok
    with pytest.raises(DegenerateWeights):
        ess([0.0, 0.0])


def test_cess_hand_case():
    # N (sum W r)^2 / sum W r^2 = 2 * 4 / 5 = 1.6
    assert cess([0.5, 0.5], [1.0, 3.0]) == pytest.approx(1.6, abs=1e-15)
    assert cess([0.3, 0.7], [2.0, 2.0]) == pytest.approx(2.0)   # constant ratios -> N
    with pytest.raises(InvalidInput):
        cess([0.5, 0.5], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateWeights):
        cess([0.5, 0.5], [0.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=40))
def test_ess_bounds(ws):
    value = ess(ws)
    assert 1.0 - 1e-9 <= value <= len(ws) + 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=2, max_size=30),
    st.lists(st.floats(min_value=1e-6, max_value=1e3), min_size=2, max_size=30),
)
def test_cess_bounds(ws, rs):
    n = min(len(ws), len(rs))
    value = cess(np.asarray(ws[:n]) / np.sum(ws[:n]), rs[:n])
    assert 0.0 < value <= n + 1e-9


# --- temperature search ------------------------------------------------------------


def test_next_temperature_constant_likelihood_jumps_to_one():
    t = next_temperature(np.zeros(10), np.full(10, 0.1), 0.0, target=5.0)
    assert t == 1.0


def test_next_temperature_two_particle_inversion():
    # ESS((1+9^t)^2 / (1+81^t)) = 1.6 at exactly t = 0.5
    ll = np.array([0.0, np.log(9.0)])
    w = np.array([0.5, 0.5])
    t = next_temperature(ll, w, 0.0, target=1.6, criterion="ess", tol=1e-3)
    assert t == pytest.approx(0.5, abs=0.01)
    assert ess(w * np.exp(t * ll)) == pytest.approx(1.6, abs=1e-3 * 2)
    t_cess = next_temperature(ll, w, 0.0, target=1.6, criterion="cess", tol=1e-3)
    assert t_cess == pytest.approx(t, abs=0.01)   # uniform weights: same criterion


def test_next_temperature_progresses_from_interior():
    ll = np.array([0.0, np.log(9.0)])
    w = np.array([0.5, 0.5])
    t = next_temperature(ll, w, 0.5, target=1.6)
    assert 0.5 < t <= 1.0


def test_next_temperature_unreachable_target():
    with pytest.raises(ConvergenceError):
        next_temperature(np.array([0.0, 1.0]), np.array([0.5, 0.5]), 0.0, target=4.0)


def test_next_temperature_validation():
    with pytest.raises(InvalidInput):
        next_temperature([0.0], [1.0], 1.0, target=0.5)
    with pytest.raises(InvalidInput):
        next_temperature([0.0], [1.0], 0.0, target=0.5, criterion="entropy")


# --- resampling -----------------------------------------------------------------


def test_resample_matches_weights():
    n = 20_000
    w = np.where(np.arange(n) < n // 2, 1.0, 3.0)
    idx = resample_multinomial(w, np.random.default_rng(0))
    assert idx.shape == (n,)
    frac_heavy = float(np.mean(idx >= n // 2))
    sd = np.sqrt(0.75 * 0.25 / n)
    assert abs(frac_heavy - 0.75) < 4 * sd


def test_resample_one_hot():
    idx = resample_multinomial([0.0, 0.0, 1.0, 0.0], np.random.default_rng(1))
    assert_array_equal(idx, [2, 2, 2, 2])


def test_resample_degenerate():
    with pytest.raises(DegenerateWeights):
        resample_multinomial([0.0, 0.0], np.random.default_rng(2))


# --- covariance ------------------------------------------------------------------


def test_weighted_covariance_matches_direct_formula():
    rng = np.random.default_rng(3)
    theta = rng.normal(size=(40, 3))
    w = rng.uniform(0.1, 1.0, 40)
    cov, chol = weighted_covariance(theta, w)
    wn = w / w.sum()
    mean = wn @ theta
    c = theta - mean
    want = (c * wn[:, None]).T @ c / (1.0 - wn @ wn)
    assert_allclose(cov, want, rtol=1e-10, atol=1e-12)
    assert_allclose(chol @ chol.T, cov, rtol=1e-9, atol=1e-12)


def test_weighted_covariance_uniform_equals_ddof1():
    rng = np.random.default_rng(4)
    theta = rng.normal(size=(25, 2))
    cov, _ = weighted_covariance(theta, np.ones(25))
    assert_allclose(cov, np.cov(theta.T, ddof=1), rtol=1e-12)


def test_weighted_covariance_degenerate_cloud_gets_bumped():
    theta = np.ones((10, 2))                 # zero covariance
    cov, chol = weighted_covariance(theta, np.ones(10))
    assert np.all(np.diag(cov) > 0)          # diagonal bump made it factorable
    assert_allclose(chol @ chol.T, cov, atol=1e-18)


def test_weighted_covariance_single_particle_weight():
    with pytest.raises(DegenerateWeights):
        weighted_covariance(np.random.default_rng(5).normal(size=(4, 2)),
                            np.array([1.0, 0.0, 0.0, 0.0]))


# --- MALA ------------------------------------------------------------------------


def mala_log_ratio(theta_a, theta_b, logp_a, logp_b, grad_a, grad_b, h, cov, chol):
    """Reference log Metropolis-Hastings ratio of a preconditioned MALA move a -> b,
    with both proposal densities' residuals recomputed from the end points."""
    half = 0.5 * h * h
    mu_fwd = theta_a + half * (grad_a @ cov)
    mu_rev = theta_b + half * (grad_b @ cov)
    za = solve_triangular(chol, (theta_b - mu_fwd).T, lower=True).T / h
    zb = solve_triangular(chol, (theta_a - mu_rev).T, lower=True).T / h
    return (
        logp_b - logp_a
        - 0.5 * np.sum(zb * zb, axis=-1)
        + 0.5 * np.sum(za * za, axis=-1)
    )


def test_mala_log_ratio_antisymmetric():
    rng = np.random.default_rng(6)
    d = 3
    A = rng.normal(size=(d, d))
    cov = A @ A.T + d * np.eye(d)
    chol = np.linalg.cholesky(cov)
    ta, tb = rng.normal(size=(2, 5, d))
    la, lb = rng.normal(size=(2, 5))
    ga, gb = rng.normal(size=(2, 5, d))
    fwd = mala_log_ratio(ta, tb, la, lb, ga, gb, 0.3, cov, chol)
    rev = mala_log_ratio(tb, ta, lb, la, gb, ga, 0.3, cov, chol)
    assert_allclose(fwd, -rev, atol=1e-10)


def gaussian_cloud(model, n, seed):
    rng = np.random.default_rng(seed)
    theta = model.sample_prior(n, rng)
    return _evaluate(model, theta)


@pytest.mark.parametrize("h", [0.02, 0.05, 0.1, 0.2])
def test_mala_sweep_acceptance_matches_the_reference_ratio(h):
    # The sweep reuses its draw z as the forward residual; the reference
    # recomputes it from the proposal, which loses digits as h shrinks.  Over
    # 20 prior clouds of this model and these step sizes the two acceptance
    # probabilities differed by at most 2.6e-14, so 1e-12 leaves 40x margin.
    model = synthetic_logistic_model(n=30, dim=3)
    before = _evaluate(model, model.sample_prior(200, np.random.default_rng(11)))
    cov, chol = weighted_covariance(before.theta, np.full(200, 1 / 200))
    t = 0.6
    accept, _, _ = _mala_sweep(before.take(slice(None)), model, t, h, cov, chol,
                               np.random.default_rng(12))
    z = np.random.default_rng(12).standard_normal(before.theta.shape)
    logp, grad = before.tempered(t)
    proposal = before.theta + 0.5 * h * h * (grad @ cov) + h * (z @ chol.T)
    logp_new, grad_new = _evaluate(model, proposal).tempered(t)
    ref = mala_log_ratio(before.theta, proposal, logp, logp_new, grad, grad_new, h, cov, chol)
    assert_allclose(accept, np.exp(np.minimum(ref, 0.0)), rtol=0, atol=1e-12)
    assert 0.0 < float(np.mean(accept)) < 1.0


def test_mala_tiny_step_accepts_everything():
    model = GaussianModel(mu=[0.0, 0.0], sigma=np.eye(2))
    cloud = gaussian_cloud(model, 50, seed=7)
    cov, chol = np.eye(2), np.eye(2)
    accept, sq, dist = _mala_sweep(cloud, model, 1.0, 1e-6, cov, chol,
                                   np.random.default_rng(0))
    assert float(np.mean(accept)) > 0.999
    assert np.all(dist >= 0)


def test_mala_preserves_stationary_distribution():
    model = GaussianModel(mu=[1.0], sigma=[[4.0]])
    cloud = gaussian_cloud(model, 4000, seed=8)    # exact draws from the target
    cov, chol = np.array([[4.0]]), np.array([[2.0]])
    rng = np.random.default_rng(9)
    for _ in range(5):
        _mala_sweep(cloud, model, 1.0, 0.8, cov, chol, rng)
    se_mean = 2.0 / np.sqrt(4000)
    assert abs(float(np.mean(cloud.theta)) - 1.0) < 4 * se_mean
    assert abs(float(np.var(cloud.theta)) - 4.0) < 4 * (4.0 * np.sqrt(2 / 4000))


class BoxModel(TargetModel):
    """Uniform on [-1, 1]: zero density outside forces auto-rejection."""

    dim = 1
    transform = None
    boundary_note = "compact support"

    def log_prior(self, theta):
        inside = np.abs(theta[:, 0]) <= 1.0
        return np.where(inside, 0.0, -np.inf)

    def grad_log_prior(self, theta):
        return np.zeros_like(theta)

    def log_like(self, theta):
        return np.zeros(theta.shape[0])

    def grad_log_like(self, theta):
        return np.zeros_like(theta)

    def sample_prior(self, n, rng):
        return rng.uniform(-1.0, 1.0, size=(n, 1))


def test_mala_rejects_zero_density_proposals():
    model = BoxModel()
    cloud = gaussian_cloud(model, 200, seed=10)
    accept, _, _ = _mala_sweep(cloud, model, 1.0, 5.0, np.eye(1), np.eye(1),
                               np.random.default_rng(11))
    assert np.all(np.abs(cloud.theta) <= 1.0)       # escapees were all rejected
    assert np.all(np.isfinite(accept))
    assert float(np.mean(accept)) < 1.0


# --- step-size tuning ---------------------------------------------------------------


def trial_medians(cloud, model, t, cov, chol, grid, rng_for):
    """The median expected squared jump of every grid step size."""
    medians = np.empty(len(grid))
    for hi, h in enumerate(grid):
        accept_prob, sq_jump, _ = _mala_sweep(cloud.take(slice(None)), model, t, h,
                                              cov, chol, rng_for(hi))
        medians[hi] = float(np.median(accept_prob * sq_jump))
    return medians


def tune_step_size_reference(cloud, model, t, cov, chol, grid, rng_for, start=None):
    """The full grid scan: the largest maximiser of the median, or the
    smallest h, with a warning, when every median is zero.  ``start`` is
    accepted so the scan can stand in for the climb inside run_smc."""
    grid = np.asarray(grid, dtype=float)
    medians = trial_medians(cloud, model, t, cov, chol, grid, rng_for)
    best = float(np.max(medians))
    if best <= 0.0:
        warnings.warn("every trial proposal was rejected; keeping the smallest step size",
                      RuntimeWarning)
        return float(grid[0])
    return float(grid[np.flatnonzero(medians == best)[-1]])


def counted_sweeps(monkeypatch):
    """Record the step size of every _mala_sweep call."""
    hs = []

    def sweep(cloud, model, t, h, *args):
        hs.append(float(h))
        return _mala_sweep(cloud, model, t, h, *args)

    monkeypatch.setattr(smc_mod, "_mala_sweep", sweep)
    return hs


def test_step_size_grid():
    g = step_size_grid(0.01, 1.0, 3)
    assert_allclose(g, [0.01, 0.1, 1.0], rtol=1e-12)
    assert_array_equal(step_size_grid(0.5, 1.0, 1), [0.5])


def test_tune_step_size_deterministic_choice():
    model = GaussianModel(mu=[0.0], sigma=[[1.0]])
    cloud = gaussian_cloud(model, 200, seed=12)
    grid = step_size_grid(0.05, 2.0, 8)
    rng_for = lambda hi: np.random.default_rng(100 + hi)
    h1 = tune_step_size(cloud.take(slice(None)), model, 1.0, np.eye(1), np.eye(1),
                        grid, rng_for)
    h2 = tune_step_size(cloud.take(slice(None)), model, 1.0, np.eye(1), np.eye(1),
                        grid, rng_for)
    assert h1 == h2
    assert h1 in grid


class WallModel(BoxModel):
    """Zero density everywhere: every proposal is rejected."""

    def log_prior(self, theta):
        return np.full(theta.shape[0], -np.inf)


def test_tune_step_size_all_rejected_warns(monkeypatch):
    base = GaussianModel(mu=[0.0], sigma=[[1.0]])
    cloud = gaussian_cloud(base, 20, seed=13)       # finite stored state
    grid = step_size_grid(0.1, 1.0, 6)
    hs = counted_sweeps(monkeypatch)
    with pytest.warns(RuntimeWarning, match="every trial proposal was rejected"):
        h = tune_step_size(cloud, WallModel(), 1.0, np.eye(1), np.eye(1), grid,
                           lambda hi: np.random.default_rng(hi), start=3)
    assert h == grid[0]
    assert sorted(hs) == sorted(grid)       # the fallback scores each point once


CLIMB_CASES = {   # (dim, h_min, h_max): the shape of the median curve
    "rising": (1, 0.01, 0.5),
    "peak-next-to-top": (1, 0.05, 2.0),
    "interior-peak": (1, 0.05, 5.0),
    "peak-next-to-top-5d": (5, 0.05, 2.0),
    "zeros-at-top": (1, 0.2, 8.0),
}


@pytest.mark.parametrize("case", CLIMB_CASES)
def test_climb_returns_the_scans_step_size_from_every_start(case):
    dim, h_min, h_max = CLIMB_CASES[case]
    model = GaussianModel(mu=np.zeros(dim), sigma=np.eye(dim))
    cloud = gaussian_cloud(model, 200, seed=12)
    grid = step_size_grid(h_min, h_max, 8)
    rng_for = lambda hi: np.random.default_rng(100 + hi)
    args = (cloud, model, 1.0, np.eye(dim), np.eye(dim), grid, rng_for)
    medians = trial_medians(*args)
    peak = int(np.argmax(medians))
    assert np.all(np.diff(medians[:peak + 1]) > 0)            # single-peaked
    assert np.all(np.diff(medians[peak:]) <= 0)
    if case == "rising":
        assert peak == grid.size - 1
    elif case == "zeros-at-top":
        assert medians[-1] == 0.0                             # the climb falls back
    else:
        assert 0 < peak < grid.size - 1
    h = tune_step_size_reference(*args)
    assert h == grid[peak]
    for start in [None, *range(grid.size)]:
        assert tune_step_size(*args, start=start) == h


def stub_trial_medians(monkeypatch, grid, medians):
    """Patch _mala_sweep so that the trial sweep at grid[i] scores medians[i]."""
    score = dict(zip(grid, medians))

    def sweep(cloud, model, t, h, *args):
        n = cloud.theta.shape[0]
        return np.ones(n), np.full(n, score[h]), np.zeros(n)

    monkeypatch.setattr(smc_mod, "_mala_sweep", sweep)


@pytest.mark.parametrize("medians, expected", [
    ([1.0, 2.0, 3.0, 3.0, 2.0, 1.0], 3),     # a plateau at the peak: the larger h
    ([3.0, 3.0, 3.0, 3.0, 3.0, 3.0], 5),
    ([0.0, 0.0, 0.0, 0.0, 0.0, 0.0], 0),     # the fallback's smallest h
])
def test_climb_ties_go_to_the_larger_step(monkeypatch, medians, expected):
    grid = step_size_grid(0.1, 1.0, 6)
    stub_trial_medians(monkeypatch, grid, medians)
    cloud = gaussian_cloud(GaussianModel(mu=[0.0], sigma=[[1.0]]), 10, seed=1)
    for start in [None, *range(grid.size)]:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            h = tune_step_size(cloud, None, 1.0, np.eye(1), np.eye(1), grid,
                               np.random.default_rng, start=start)
        assert h == grid[expected]


def test_fallback_scan_ranks_a_nan_median_below_every_number(monkeypatch):
    grid = step_size_grid(0.1, 1.0, 5)
    stub_trial_medians(monkeypatch, grid, [0.0, 0.5, 0.0, 0.0, np.nan])
    cloud = gaussian_cloud(GaussianModel(mu=[0.0], sigma=[[1.0]]), 10, seed=1)
    for start in [None, *range(grid.size)]:
        h = tune_step_size(cloud, None, 1.0, np.eye(1), np.eye(1), grid,
                           np.random.default_rng, start=start)
        assert h == grid[1]


@pytest.mark.parametrize("start", [None, 0, 3, 5, 7])
def test_climb_scores_each_grid_point_at_most_once(monkeypatch, start):
    model = GaussianModel(mu=[0.0], sigma=[[1.0]])
    cloud = gaussian_cloud(model, 200, seed=12)
    grid = step_size_grid(0.05, 5.0, 8)               # the peak is at index 5
    hs = counted_sweeps(monkeypatch)
    h = tune_step_size(cloud, model, 1.0, np.eye(1), np.eye(1), grid,
                       lambda hi: np.random.default_rng(100 + hi), start=start)
    assert h == grid[5]
    assert len(hs) == len(set(hs))
    if start == 5:
        assert len(hs) <= 3                           # a warm start at the peak


def test_start_outside_the_grid_is_invalid():
    model = GaussianModel(mu=[0.0], sigma=[[1.0]])
    cloud = gaussian_cloud(model, 20, seed=12)
    for start in (-1, 4):
        with pytest.raises(InvalidInput):
            tune_step_size(cloud, model, 1.0, np.eye(1), np.eye(1),
                           step_size_grid(0.1, 1.0, 4), np.random.default_rng, start=start)


# --- distances and sweep counts ------------------------------------------------------


def test_mean_interparticle_distance_hand_case():
    theta = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert mean_interparticle_distance(theta, np.eye(2)) == pytest.approx(5.0)
    assert mean_interparticle_distance(theta[:1], np.eye(2)) == 0.0


def test_mean_interparticle_distance_median_and_whitening():
    theta = np.array([[0.0], [1.0], [10.0]])
    # pairwise distances 1, 9, 10 -> mean 20/3, median 9;  chol = 2 halves them
    assert mean_interparticle_distance(theta, np.eye(1)) == pytest.approx(20.0 / 3.0)
    assert mean_interparticle_distance(theta, np.eye(1), stat="median") == pytest.approx(9.0)
    assert mean_interparticle_distance(theta, 2.0 * np.eye(1)) == pytest.approx(10.0 / 3.0)


def test_mean_interparticle_distance_subsampling_seeded():
    rng = np.random.default_rng(14)
    theta = rng.normal(size=(2000, 2))
    a = mean_interparticle_distance(theta, np.eye(2), rng=1)
    b = mean_interparticle_distance(theta, np.eye(2), rng=1)
    c = mean_interparticle_distance(theta, np.eye(2), rng=2)
    assert a == b
    assert a != c


def test_choose_num_repeats_accumulates():
    calls = []

    def sweep(k):
        calls.append(k)
        return np.ones(10)

    assert choose_num_repeats(sweep, threshold_distance=2.5, threshold_fraction=0.5) == 3
    assert calls == [0, 1, 2]


def test_choose_num_repeats_minimum_one_sweep():
    assert choose_num_repeats(lambda k: np.full(5, 10.0), 1.0, 0.5) == 1


def test_choose_num_repeats_fraction():
    # half the particles travel; they clear 1.5 after two sweeps
    def sweep(k):
        return np.array([1.0, 1.0, 0.0, 0.0])

    assert choose_num_repeats(sweep, 1.5, 0.5) == 2
    with pytest.warns(RuntimeWarning):
        assert choose_num_repeats(sweep, 1.5, 0.75, cap=6) == 6


# --- snapshots and schedules ----------------------------------------------------------


def make_snapshot(t, seed=15, n=12):
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(n, 2))
    w = rng.uniform(0.5, 1.5, n)
    w /= w.sum()
    return Snapshot(
        t=t, theta=theta, weights=w,
        log_like=rng.normal(size=n), log_prior=rng.normal(size=n),
        grad_log_like=rng.normal(size=(n, 2)), grad_log_prior=rng.normal(size=(n, 2)),
    )


def test_snapshot_sample_set_retempering():
    snap = make_snapshot(0.5)
    s_own = snap.sample_set()
    assert_allclose(s_own.weights, snap.weights, rtol=1e-15)
    assert_allclose(s_own.grad_log_target,
                    0.5 * snap.grad_log_like + snap.grad_log_prior, rtol=1e-15)
    s_up = snap.sample_set(0.75)
    want_w, _ = reweight(snap.weights, snap.log_like, 0.5, 0.75)
    assert_allclose(s_up.weights, want_w, rtol=1e-14)
    assert_allclose(s_up.grad_log_target,
                    0.75 * snap.grad_log_like + snap.grad_log_prior, rtol=1e-15)
    assert_array_equal(s_up.log_like, snap.log_like)


def test_snapshot_arrays_are_read_only():
    snap = make_snapshot(0.5)
    for name in ("theta", "weights", "log_like", "log_prior", "grad_log_like", "grad_log_prior"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(snap, name)[0] = 0.0


def test_snapshot_leaves_the_callers_arrays_writeable():
    rng = np.random.default_rng(16)
    theta, grad = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
    snap = Snapshot(t=0.5, theta=theta, weights=np.full(5, 0.2), log_like=rng.normal(size=5),
                    log_prior=rng.normal(size=5), grad_log_like=grad, grad_log_prior=grad)
    want = snap.theta.copy()
    theta[0, 0] = 99.0
    assert_array_equal(snap.theta, want)
    grad[...] = 0.0
    assert np.all(snap.grad_log_like != 0.0)


def test_a_snapshot_builds_one_sample_set_per_temperature():
    snap = make_snapshot(0.5)
    a = snap.sample_set(0.75)
    assert snap.sample_set(0.75) is a
    a._memo["key"] = "value"
    assert snap.sample_set(0.75)._memo == {"key": "value"}
    assert snap.sample_set() is snap.sample_set(0.5)
    other = snap.sample_set(0.8)
    assert other is not a and other._memo == {}
    assert set(snap._sample_sets) == {0.5, 0.75, 0.8}
    fresh = replace(snap)
    assert fresh._sample_sets == {}
    assert fresh.sample_set(0.75) is not a and fresh.sample_set(0.75)._memo == {}
    assert_array_equal(fresh.sample_set(0.75).weights, a.weights)


# NaN compares False both ways, so a check written as "reject if b <= a"
# lets it through
NON_FINITE_LADDERS = [(np.nan, 1.0), (0.0, np.nan), (0.0, np.nan, 1.0), (0.0, np.inf),
                      (-np.inf, 1.0), (0.0, np.inf, 1.0), (0.0, -np.inf, 1.0)]


def test_temperature_schedule_validation():
    TemperatureSchedule((0.0, 0.5, 1.0), (0, 0, 1))
    with pytest.raises(InvalidSchedule):
        TemperatureSchedule((0.0,), (0,))
    with pytest.raises(InvalidSchedule):
        TemperatureSchedule((0.0, 1.0), (0,))
    with pytest.raises(InvalidSchedule):
        TemperatureSchedule((0.1, 1.0), (0, 0))
    with pytest.raises(InvalidSchedule):
        TemperatureSchedule((0.0, 0.9), (0, 0))
    with pytest.raises(InvalidSchedule):
        TemperatureSchedule((0.0, 0.5, 0.5, 1.0), (0, 0, 0, 0))
    with pytest.raises(InvalidSchedule):
        TemperatureSchedule((0.0, 1.0), (0, -1))
    for ts in NON_FINITE_LADDERS:
        with pytest.raises(InvalidSchedule):
            TemperatureSchedule(ts, tuple(range(len(ts))))


def test_replay_record_validation():
    ReplayRecord((0.0, 0.4, 1.0), (0.1, 0.2), (2, 3))
    with pytest.raises(InvalidSchedule):
        ReplayRecord((0.0, 0.4), (0.1,), (2,))
    with pytest.raises(InvalidSchedule):
        ReplayRecord((0.0, 0.4, 1.0), (0.1,), (2, 3))
    with pytest.raises(InvalidSchedule):
        ReplayRecord((0.0, 1.0, 0.4), (0.1, 0.2), (2, 3))
    for ts in NON_FINITE_LADDERS:
        with pytest.raises(InvalidSchedule):
            ReplayRecord(ts, (0.1,) * (len(ts) - 1), (2,) * (len(ts) - 1))


def test_smc_config_validation():
    for kwargs in [
        dict(n_particles=1),
        dict(rho=0.0), dict(rho=1.0), dict(rho_tilde=1.0),
        dict(h_min=0.0), dict(h_min=1.0, h_max=1.0), dict(h_min=2.0, h_max=1.0),
        dict(h_grid_size=0), dict(jump_fraction=1.5),
        dict(jump_threshold_stat="max"), dict(max_repeats=0),
        dict(resampling="stratified"),
        dict(seed=-1), dict(seed="x"), dict(seed=1.5), dict(seed=True), dict(seed=None),
        dict(bisection_tol=-1.0), dict(bisection_tol=0.0), dict(bisection_tol="x"),
        dict(bisection_tol=np.nan), dict(bisection_tol=np.inf), dict(bisection_tol=None),
        dict(bisection_tol=True),
    ]:
        with pytest.raises(InvalidInput):
            SmcConfig(**kwargs)
    for kwargs in [dict(seed=0), dict(seed=np.int64(7)), dict(seed=2**70),
                   dict(bisection_tol=1), dict(bisection_tol=np.float32(1e-4))]:
        SmcConfig(**kwargs)


# --- full runs -----------------------------------------------------------------------


def test_run_smc_flat_likelihood_single_step():
    model = GaussianModel(mu=[0.0, 1.0], sigma=np.eye(2))
    ps = run_smc(model, SmcConfig(n_particles=64, seed=3))
    assert ps.temperatures == (0.0, 1.0)
    assert ps.log_evidence == 0.0
    assert_allclose(ps.snapshots[1].weights, np.full(64, 1.0 / 64))


def test_run_smc_schedule_and_replay_identity():
    model = conjugate_1d()
    cfg = SmcConfig(n_particles=128, rho=0.8, seed=11, h_min=0.05, h_max=2.0,
                    h_grid_size=5, max_repeats=10)
    ps = run_smc(model, cfg)
    ts = ps.temperatures
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert len(ts) >= 3      # real data forces at least one interior temperature

    replayed = run_smc(model, cfg, replay=ps.replay_record())
    assert replayed.temperatures == ts
    assert replayed.log_evidence == ps.log_evidence
    for a, b in zip(ps.snapshots, replayed.snapshots):
        assert_array_equal(a.theta, b.theta)
        assert_array_equal(a.weights, b.weights)


def test_run_smc_replay_too_short():
    model = conjugate_1d()
    record = ReplayRecord((0.0, 0.5, 1.0), (0.2, 0.2), (1, 1))
    short = ReplayRecord((0.0, 1.0), (0.2,), (1,))
    cfg = SmcConfig(n_particles=32, seed=0)
    ps = run_smc(model, cfg, replay=record)
    assert ps.temperatures == (0.0, 0.5, 1.0)
    ps2 = run_smc(model, cfg, replay=short)
    assert ps2.temperatures == (0.0, 1.0)


def test_replay_makes_no_adaptive_call(monkeypatch):
    model = conjugate_1d()
    cfg = SmcConfig(n_particles=64, rho=0.8, seed=7, h_min=0.05, h_max=2.0,
                    h_grid_size=4, max_repeats=5)
    record = run_smc(model, cfg).replay_record()
    adaptive = ("next_temperature", "tune_step_size", "mean_interparticle_distance",
                "choose_num_repeats")
    calls = {}
    for name in adaptive:
        def counted(*args, _name=name, _orig=getattr(smc_mod, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(smc_mod, name, counted)
    replayed = run_smc(model, replace(cfg, seed=8), replay=record)
    assert replayed.temperatures == record.temperatures
    assert calls == {}
    run_smc(model, cfg)   # the pilot makes each adaptive call once per step
    assert calls == dict.fromkeys(adaptive, len(record.temperatures) - 1)


RUN_CONFIGS = {
    "conjugate-1d": (conjugate_1d, dict(n_particles=128, rho=0.8, seed=11, h_min=0.05,
                                        h_max=2.0, h_grid_size=5, max_repeats=10)),
    "logistic-interior-peak": (lambda: synthetic_logistic_model(n=30, dim=2),
                               dict(n_particles=100, rho=0.5, seed=808, h_min=0.05,
                                    h_max=2.0, h_grid_size=8, max_repeats=20)),
    "conjugate-2d-default-grid": (
        lambda: ConjugateGaussianModel(prior_mean=[0.0, 0.0], prior_cov=np.eye(2),
                                       obs_cov=np.eye(2), data=[[0.3, 1.2], [0.9, 0.4]]),
        dict(n_particles=100, rho=0.6, seed=5, max_repeats=10)),
}


@pytest.mark.parametrize("name", RUN_CONFIGS)
def test_run_smc_climb_matches_the_full_scan(monkeypatch, name):
    make_model, kwargs = RUN_CONFIGS[name]
    cfg = SmcConfig(**kwargs)
    climbed = run_smc(make_model(), cfg)
    monkeypatch.setattr(smc_mod, "tune_step_size", tune_step_size_reference)
    scanned = run_smc(make_model(), cfg)
    assert repr(climbed) == repr(scanned)
    for a, b in zip(climbed.snapshots, scanned.snapshots, strict=True):
        for array in ("theta", "weights", "log_like", "grad_log_like"):
            assert_array_equal(bits(getattr(a, array)), bits(getattr(b, array)))
    if name == "logistic-interior-peak":
        assert all(s.h < cfg.h_max for s in climbed.snapshots[1:])


def test_run_smc_evidence_against_analytic():
    model = conjugate_1d()
    cfg = SmcConfig(n_particles=3000, rho=0.7, seed=5, h_min=0.1, h_max=2.0,
                    h_grid_size=5, max_repeats=20)
    ps = run_smc(model, cfg)
    assert ps.log_evidence == pytest.approx(model.log_evidence(), abs=0.1)


def test_posthoc_schedule_self_consistency():
    """Resampling every step pins realised CESS == realised ESS ~= rho N."""
    model = conjugate_1d()
    cfg = SmcConfig(n_particles=2000, rho=0.9, rho_tilde=0.9, seed=21,
                    h_min=0.1, h_max=2.0, h_grid_size=5, max_repeats=10)
    ps = run_smc(model, cfg)
    sched = posthoc_schedule(ps)
    assert len(sched) == len(ps.temperatures)
    for a, b in zip(sched.temperatures, ps.temperatures):
        assert abs(a - b) <= 0.02


def test_posthoc_schedule_densifies():
    model = conjugate_1d()
    cfg = SmcConfig(n_particles=500, rho=0.5, seed=22, h_min=0.1, h_max=2.0,
                    h_grid_size=4, max_repeats=5)
    ps = run_smc(model, cfg)
    coarse = posthoc_schedule(ps, rho_tilde=0.5)
    fine = posthoc_schedule(ps, rho_tilde=0.99)
    assert len(fine) > len(coarse)
    assert fine.temperatures[0] == 0.0 and fine.temperatures[-1] == 1.0
    # populations serve from below
    for t, p in zip(fine.temperatures, fine.population_index):
        assert ps.temperatures[p] <= t + 1e-12


# --- oracle: scipy's logsumexp --------------------------------------------------


def logsumexp_cases(count, seed=0):
    """Random vectors over many scales, some with ties at the maximum and some
    with -inf entries, then the edge inputs."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 60))
        a = rng.normal(scale=10 ** rng.uniform(-2, 3), size=n)
        if rng.uniform() < 0.3:
            a[rng.integers(0, n, size=rng.integers(1, n + 1))] = a.max()
        if rng.uniform() < 0.3:
            a[rng.integers(0, n, size=rng.integers(1, n + 1))] = -np.inf
        yield a
    inf, nan = np.inf, np.nan
    for edge in ([-inf] * 3, [-inf], [inf, 1.0], [inf, -inf], [inf, inf], [nan, 1.0],
                 [inf, nan], [], [1e308, 1e308], [-1e308, 5.0], [700.0, 710.0, 710.0]):
        yield np.array(edge, dtype=float)


def weighted_logsumexp_cases(count, seed=1):
    """Each vector of logsumexp_cases, some with a +inf or NaN entry put in,
    under Dirichlet weights, then with weights zeroed at random, at the
    maximum, at the non-finite entries, and everywhere."""
    rng = np.random.default_rng(seed)
    for a in logsumexp_cases(count, seed):
        n = a.size
        if n and rng.uniform() < 0.2:
            a[rng.integers(0, n)] = rng.choice([np.inf, np.nan])
        b = rng.dirichlet(np.ones(n)) if n else np.zeros(0)
        yield a, b
        for zero in (rng.uniform(size=n) < 0.4, a == np.max(a, initial=-np.inf),
                     ~np.isfinite(a), np.ones(n, dtype=bool)):
            yield a, np.where(zero, 0.0, b)


def test_private_logsumexp_equals_scipy():
    for a in logsumexp_cases(5000):
        got, want = smc_mod._logsumexp(a), logsumexp(a)
        assert got == want or (np.isnan(got) and np.isnan(want)), a
    for a, b in weighted_logsumexp_cases(1500):
        got, want = smc_mod._logsumexp(a, b), logsumexp(a, b=b)
        assert got == want or (np.isnan(got) and np.isnan(want)), (a, b)


def scipy_logsumexp(a, b=None):
    return float(logsumexp(a, b=b))


@pytest.mark.parametrize("name", ["conjugate-1d", "logistic-interior-peak"])
def test_runs_and_posthoc_schedules_match_scipy_logsumexp(monkeypatch, name):
    make_model, kwargs = RUN_CONFIGS[name]
    cfg = SmcConfig(**kwargs)

    def run():
        pilot = run_smc(make_model(), cfg)
        replica = run_smc(make_model(), replace(cfg, seed=cfg.seed + 1),
                          replay=pilot.replay_record())
        return pilot, replica, posthoc_schedule(pilot, 0.95)

    ours = run()
    monkeypatch.setattr(smc_mod, "_logsumexp", scipy_logsumexp)
    theirs = run()
    assert repr(ours) == repr(theirs)
    for a, b in zip(ours[:2], theirs[:2]):
        for sa, sb in zip(a.snapshots, b.snapshots, strict=True):
            for array in ("theta", "weights", "log_like", "grad_log_like"):
                assert_array_equal(bits(getattr(sa, array)), bits(getattr(sb, array)))


@pytest.mark.parametrize("cv", [VANILLA, ZvSpec(degree=2), CfMethod(kind="polynomial"),
                                CfMethod(bandwidth=1.0)], ids=method_label)
def test_smc_evidence_reports_match_scipy_logsumexp(monkeypatch, cv):
    make_model, kwargs = RUN_CONFIGS["conjugate-1d"]
    pilot = run_smc(make_model(), SmcConfig(**kwargs))
    sched = posthoc_schedule(pilot, 0.95)

    def report():
        fresh = [replace(snap) for snap in pilot.snapshots]      # no memo carried over
        return smc_evidence_estimate(sched, fresh, cv=cv, seed=3)

    ours = report()
    for rec, t_next, k in zip(ours.per_expectation, sched.temperatures[1:],
                              sched.population_index):
        ss = pilot.snapshots[k].sample_set(rec.temperature)
        assert rec.raw == logsumexp((t_next - rec.temperature) * ss.log_like, b=ss.weights)
    monkeypatch.setattr(smc_mod, "_logsumexp", scipy_logsumexp)
    assert repr(ours) == repr(report())


def posthoc_schedule_reference(ps, rho_tilde):
    """The post-hoc loop with its own reweighting of the serving population."""
    snap_ts = np.asarray(ps.temperatures)
    target = rho_tilde * ps.snapshots[0].count

    def serving(t):
        return max(int(np.searchsorted(snap_ts, t + 1e-12) - 1), 0)

    temps, pops, t = [0.0], [0], 0.0
    while t < 1.0:
        snap = ps.snapshots[serving(t)]
        if t == snap.t:
            w = snap.weights
        else:
            w, _ = reweight(snap.weights, snap.log_like, snap.t, t)
        t = next_temperature(snap.log_like, w, t, target, criterion="cess",
                             tol=ps.config.bisection_tol)
        temps.append(t)
        pops.append(serving(t))
    return tuple(temps), tuple(pops)


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_posthoc_schedule_matches_reweighting_reference(seed):
    cfg = SmcConfig(n_particles=300, rho=0.5, seed=seed, h_min=0.1, h_max=2.0,
                    h_grid_size=4, max_repeats=5)
    ps = run_smc(conjugate_1d(), cfg)
    for rho_tilde in (0.5, 0.9, 0.99):
        sched = posthoc_schedule(ps, rho_tilde)
        assert (sched.temperatures, sched.population_index) == \
            posthoc_schedule_reference(ps, rho_tilde)


def test_posthoc_schedule_flat_run():
    model = GaussianModel(mu=[0.0], sigma=[[1.0]])
    ps = run_smc(model, SmcConfig(n_particles=32, seed=1))
    sched = posthoc_schedule(ps, rho_tilde=0.9)
    assert sched.temperatures == (0.0, 1.0)
    assert sched.population_index == (0, 1)
    with pytest.raises(InvalidInput):
        posthoc_schedule(ps, rho_tilde=1.0)


# --- archives --------------------------------------------------------------------


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_archive_round_trip(tmp_path):
    model = conjugate_1d()
    cfg = SmcConfig(n_particles=48, rho=0.7, seed=9, h_min=0.1, h_max=1.0,
                    h_grid_size=3, max_repeats=5)
    ps = run_smc(model, cfg)
    save_particle_system(ps, tmp_path / "arch", model_manifest={"kind": "x"})
    back = load_particle_system(tmp_path / "arch", model)
    assert back.temperatures == ps.temperatures
    assert back.config == cfg
    assert back.log_evidence == ps.log_evidence
    for a, b in zip(ps.snapshots, back.snapshots):
        assert_array_equal(a.theta, b.theta)         # binary round trip is exact
        assert_array_equal(a.weights, b.weights)
        assert_array_equal(a.log_like, b.log_like)
        assert_array_equal(a.log_prior, b.log_prior)
        assert_allclose(a.grad_log_like, b.grad_log_like, rtol=1e-12)
        assert a.h == b.h and a.repeats == b.repeats
    rec = load_replay_record(tmp_path / "arch")
    assert rec == ps.replay_record()


def test_snapshot_round_trip_is_bit_exact(tmp_path):
    tiny = np.finfo(float).smallest_subnormal
    theta = np.array([[-0.0, 1e308], [tiny, -1e308], [0.0, -tiny], [3.0, 1e-310]])
    grad = np.array([[np.nan, -0.0], [1e308, np.nan], [-tiny, 2.5], [np.nan, np.nan]])
    s = SampleSet(theta=theta, grad_log_target=grad, weights=np.full(4, 0.25),
                  log_like=[-0.0, -1e308, tiny, 1e308], log_prior=[1e-310, -0.0, -5.0, 0.0])
    _write_snapshot(s, tmp_path / "t_000.npy")
    back = _read_snapshot(tmp_path, 0, "npy", 4)
    for name in ("theta", "grad_log_target", "weights", "log_like", "log_prior"):
        assert np.array_equal(getattr(back, name), getattr(s, name), equal_nan=True)
        assert_array_equal(bits(getattr(back, name)), bits(getattr(s, name)))


def test_snapshot_files_are_c_ordered_float64(tmp_path):
    model = conjugate_1d()
    ps = run_smc(model, SmcConfig(n_particles=40, rho=0.7, seed=9, h_min=0.1, h_max=1.0,
                                  h_grid_size=3, max_repeats=5))
    save_particle_system(ps, tmp_path / "arch")
    manifest = json.loads((tmp_path / "arch" / "manifest.json").read_text())
    assert manifest["format"] == "npy"
    for i, snap in enumerate(ps.snapshots):
        with open(tmp_path / "arch" / f"t_{i:03d}.npy", "rb") as fh:
            assert np.lib.format.read_magic(fh) == (1, 0)
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        assert (shape, fortran, dtype) == ((40, 5), False, np.dtype(np.float64))
        data = np.load(tmp_path / "arch" / f"t_{i:03d}.npy", allow_pickle=False)
        s = snap.sample_set()
        assert_array_equal(data, np.column_stack(
            [s.theta, s.grad_log_target, s.weights, s.log_like, s.log_prior]))


def test_csv_archive_still_loads(tmp_path):
    model = conjugate_1d()
    cfg = SmcConfig(n_particles=48, rho=0.7, seed=9, h_min=0.1, h_max=1.0,
                    h_grid_size=3, max_repeats=5)
    ps = run_smc(model, cfg)
    save_particle_system(ps, tmp_path / "npy")
    save_particle_system(ps, tmp_path / "csv")
    rewrite_as_csv_archive(ps, tmp_path / "csv")
    assert "format" not in json.loads((tmp_path / "csv" / "manifest.json").read_text())
    new = load_particle_system(tmp_path / "npy", model)
    old = load_particle_system(tmp_path / "csv", model)
    assert old.temperatures == new.temperatures and old.config == new.config
    assert old.log_evidence == new.log_evidence
    for a, b in zip(new.snapshots, old.snapshots):
        for name in ("theta", "weights", "log_like", "log_prior",
                     "grad_log_like", "grad_log_prior"):
            assert_array_equal(getattr(a, name), getattr(b, name))


def test_archive_truncated_csv_rejected(tmp_path):
    model = conjugate_1d()
    cfg = SmcConfig(n_particles=60, rho=0.7, seed=9, h_min=0.1, h_max=1.0,
                    h_grid_size=3, max_repeats=5)
    ps = run_smc(model, cfg)
    save_particle_system(ps, tmp_path / "arch")
    rewrite_as_csv_archive(ps, tmp_path / "arch")
    csv = tmp_path / "arch" / "t_001.csv"
    lines = csv.read_text().splitlines(keepends=True)
    csv.write_text("".join(lines[:31]))          # header plus 30 of 60 rows
    with pytest.raises(InvalidInput, match="30 rows"):
        load_particle_system(tmp_path / "arch", model)


def test_archive_truncated_npy_rejected(tmp_path):
    model = conjugate_1d()
    cfg = SmcConfig(n_particles=60, rho=0.7, seed=9, h_min=0.1, h_max=1.0,
                    h_grid_size=3, max_repeats=5)
    save_particle_system(run_smc(model, cfg), tmp_path / "arch")
    npy = tmp_path / "arch" / "t_001.npy"
    raw = npy.read_bytes()
    npy.write_bytes(raw[: len(raw) - 30 * 5 * 8])   # header plus 30 of 60 rows
    with pytest.raises(InvalidInput, match="t_001.npy"):
        load_particle_system(tmp_path / "arch", model)


@pytest.mark.parametrize("case", sorted(MALFORMED_NPY))
def test_malformed_npy_snapshot_is_invalid_input(tmp_path, case):
    cfg = SmcConfig(n_particles=40, rho=0.7, seed=9, h_min=0.1, h_max=1.0,
                    h_grid_size=3, max_repeats=5)
    arch = tmp_path / "arch"
    save_particle_system(run_smc(conjugate_1d(), cfg), arch)
    MALFORMED_NPY[case](arch)
    with pytest.raises(InvalidInput):
        load_particle_system(arch, conjugate_1d())


def test_interrupted_overwrite_does_not_load(tmp_path, monkeypatch):
    model = conjugate_1d()
    cfg = SmcConfig(n_particles=40, rho=0.7, seed=9, h_min=0.1, h_max=1.0,
                    h_grid_size=3, max_repeats=5)
    arch = tmp_path / "arch"
    save_particle_system(run_smc(model, cfg), arch)
    other = run_smc(model, replace(cfg, seed=10))
    real_write = smc_mod._write_snapshot
    calls = []

    def write_then_fail(s, path):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        real_write(s, path)

    monkeypatch.setattr(smc_mod, "_write_snapshot", write_then_fail)
    with pytest.raises(OSError):
        save_particle_system(other, arch)
    with pytest.raises(InvalidInput):
        load_particle_system(arch, model)
    monkeypatch.undo()
    save_particle_system(other, arch)
    assert not (arch / "manifest.json.tmp").exists()
    assert load_particle_system(arch, model).log_evidence == other.log_evidence


def test_shorter_archive_replaces_every_snapshot_file(tmp_path):
    cfg = SmcConfig(n_particles=40, rho=0.9, seed=9, h_min=0.1, h_max=1.0,
                    h_grid_size=3, max_repeats=5)
    long = run_smc(conjugate_1d(data=[1.5] * 50), cfg)
    assert len(long.snapshots) >= 10
    short = run_smc(conjugate_1d(), replace(cfg, rho=0.7))
    assert len(short.snapshots) == 3
    arch = tmp_path / "arch"
    save_particle_system(long, arch)
    save_particle_system(short, arch)
    assert sorted(p.name for p in arch.iterdir()) == [
        "manifest.json", "t_000.npy", "t_001.npy", "t_002.npy"]
    back = load_particle_system(arch, conjugate_1d())
    assert back.temperatures == short.temperatures
    assert back.log_evidence == short.log_evidence


def test_overwriting_csv_archive_leaves_only_npy_snapshots(tmp_path):
    cfg = SmcConfig(n_particles=40, rho=0.9, seed=9, h_min=0.1, h_max=1.0,
                    h_grid_size=3, max_repeats=5)
    long = run_smc(conjugate_1d(data=[1.5] * 50), cfg)
    short = run_smc(conjugate_1d(), replace(cfg, rho=0.7))
    arch = tmp_path / "arch"
    save_particle_system(long, arch)
    rewrite_as_csv_archive(long, arch)
    (arch / "t_notes.csv").write_text("kept\n")    # not a snapshot name
    save_particle_system(short, arch)
    assert sorted(p.name for p in arch.iterdir()) == [
        "manifest.json", "t_000.npy", "t_001.npy", "t_002.npy", "t_notes.csv"]
    assert load_particle_system(arch, conjugate_1d()).log_evidence == short.log_evidence


def load_conjugate_archive(arch):
    return load_particle_system(arch, conjugate_1d())


@pytest.mark.parametrize("load, edit", [
    (load_conjugate_archive, lambda m: m.pop("log_increments")),
    (load_conjugate_archive, lambda m: m.pop("n_particles")),
    (load_conjugate_archive, lambda m: m["config"].update(colour="blue")),
    (load_conjugate_archive, lambda m: m.update(acceptance="high")),
    (load_conjugate_archive, lambda m: m["repeats"].pop()),
    (load_replay_record, lambda m: m.pop("step_sizes")),
    (load_replay_record, lambda m: m.update(temperatures=["zero", "one"])),
    (load_replay_record, lambda m: m.update(config=[])),
    (load_conjugate_archive, lambda m: m.update(step_sizes=["x"] * len(m["step_sizes"]))),
    (load_replay_record, lambda m: m.update(step_sizes=["x"] * len(m["step_sizes"]))),
    *(pytest.param(load, edit, id=f"{load.__name__}-{name}")
      for name, edit in MALFORMED_MANIFEST.items()
      for load in (load_conjugate_archive, load_replay_record)),
])
def test_malformed_manifest_is_invalid_input(tmp_path, load, edit):
    cfg = SmcConfig(n_particles=40, rho=0.7, seed=9, h_min=0.1, h_max=1.0,
                    h_grid_size=3, max_repeats=5)
    arch = tmp_path / "arch"
    save_particle_system(run_smc(conjugate_1d(), cfg), arch)
    manifest = json.loads((arch / "manifest.json").read_text())
    edit(manifest)
    (arch / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(InvalidInput):
        load(arch)


@pytest.mark.parametrize("field, value", [
    ("step_sizes", float("nan")), ("step_sizes", -1.0), ("step_sizes", 0.0),
    ("step_sizes", float("inf")), ("step_sizes", True), ("step_sizes", "0.5"),
    ("repeats", -3), ("repeats", 2.5), ("repeats", 2.0), ("repeats", True), ("repeats", "3"),
])
def test_replay_record_rejects_bad_step_sizes_and_sweep_counts(tmp_path, field, value):
    # a NaN step used to die in scipy's finiteness check during the replay,
    # and a step of -1.0 or -3 sweeps to replay without complaint
    cfg = SmcConfig(n_particles=40, rho=0.7, seed=9, h_min=0.1, h_max=1.0,
                    h_grid_size=3, max_repeats=5)
    ps = run_smc(conjugate_1d(), cfg)
    record = ps.replay_record()
    bad = list(getattr(record, field))
    bad[0] = value
    with pytest.raises(InvalidSchedule):     # so run_smc never receives such a record
        replace(record, **{field: tuple(bad)})
    arch = tmp_path / "arch"
    save_particle_system(ps, arch)
    manifest = json.loads((arch / "manifest.json").read_text())
    manifest[field][0] = value
    (arch / "manifest.json").write_text(json.dumps(manifest))
    for load in (load_conjugate_archive, load_replay_record):
        with pytest.raises(InvalidInput, match="InvalidSchedule"):
            load(arch)


def test_replay_of_zero_sweeps_keeps_the_population():
    record = ReplayRecord((0.0, 0.5, 1.0), (0.2, 0.2), (np.int64(0), 1))
    assert record.repeats == (0, 1) and type(record.repeats[0]) is int
    ps = run_smc(conjugate_1d(), SmcConfig(n_particles=32, seed=0), replay=record)
    assert [s.repeats for s in ps.snapshots[1:]] == [0, 1]
    assert ps.snapshots[1].acceptance == 0.0      # no sweep, nothing accepted


def test_archive_missing_manifest(tmp_path):
    with pytest.raises(InvalidInput):
        load_replay_record(tmp_path / "nope")
