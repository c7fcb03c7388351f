"""Annealing sampler: weights, temperature search, kernels, archives, replay."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import steincv.smc as smc_mod
from conftest import MALFORMED_NPY, rewrite_as_csv_archive
from steincv.errors import (
    ConvergenceError,
    DegenerateWeights,
    InvalidInput,
    InvalidSchedule,
)
from steincv.models import ConjugateGaussianModel, GaussianModel, TargetModel
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
    mala_log_ratio,
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


def test_tune_step_size_all_rejected_warns():
    base = GaussianModel(mu=[0.0], sigma=[[1.0]])
    cloud = gaussian_cloud(base, 20, seed=13)       # finite stored state
    with pytest.warns(RuntimeWarning):
        h = tune_step_size(cloud, WallModel(), 1.0, np.eye(1), np.eye(1),
                           np.array([0.1, 0.5]), lambda hi: np.random.default_rng(hi))
    assert h == 0.1


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


def test_replay_record_validation():
    ReplayRecord((0.0, 0.4, 1.0), (0.1, 0.2), (2, 3))
    with pytest.raises(InvalidSchedule):
        ReplayRecord((0.0, 0.4), (0.1,), (2,))
    with pytest.raises(InvalidSchedule):
        ReplayRecord((0.0, 0.4, 1.0), (0.1,), (2, 3))
    with pytest.raises(InvalidSchedule):
        ReplayRecord((0.0, 1.0, 0.4), (0.1, 0.2), (2, 3))


def test_smc_config_validation():
    for kwargs in [
        dict(n_particles=1),
        dict(rho=0.0), dict(rho=1.0), dict(rho_tilde=1.0),
        dict(h_min=0.0), dict(h_min=1.0, h_max=1.0), dict(h_min=2.0, h_max=1.0),
        dict(h_grid_size=0), dict(jump_fraction=1.5),
        dict(jump_threshold_stat="max"), dict(max_repeats=0),
        dict(resampling="stratified"),
    ]:
        with pytest.raises(InvalidInput):
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
    back = _read_snapshot(tmp_path, 0, {"format": "npy", "n_particles": 4})
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


def test_archive_missing_manifest(tmp_path):
    with pytest.raises(InvalidInput):
        load_replay_record(tmp_path / "nope")
