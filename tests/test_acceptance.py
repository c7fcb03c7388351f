"""End-to-end acceptance checks, one test per shipped guarantee.

Each test registers a PASS/FAIL line with the ``criterion`` fixture (the
summary table prints after the run) and then asserts, so a red criterion is
also a red test.  Statistical checks run on frozen seeds; the margins quoted
in comments were measured when the seeds were pinned.
"""

import json
import shutil
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from steincv.cf import KernelSpec, cf_estimate
from steincv.cli import EXIT_OK, main
from steincv.evidence import VANILLA, cti_estimate, smc_evidence_estimate
from steincv.models import (
    ConjugateGaussianModel,
    GaussianModel,
    LogisticModel,
    RecaptureModel,
    TransformedModel,
    default_logistic_prior_sds,
    synthetic_logistic_model,
)
from steincv.polybasis import (
    SubsetSpec,
    basis_size,
    enumerate_exponents,
    build_design_matrix,
    stein_covariates,
)
from steincv.regression import fit_lasso, fit_ridge, lasso_lambda_max
from steincv.samples import IntegrandValues, SampleSet
from steincv.smc import SmcConfig, cess, ess, next_temperature, run_smc
from steincv.zvcv import ZvSpec, crossval_select, zvcv_estimate

from conftest import fd_gradient, rel_err


def gaussian_set(rng, mu, sd, n):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sd = np.atleast_1d(np.asarray(sd, dtype=float))
    theta = mu + sd * rng.normal(size=(n, mu.size))
    return SampleSet(
        theta=theta,
        weights=np.full(n, 1.0 / n),
        grad_log_target=-(theta - mu) / sd**2,
    )


def test_criterion_01_zero_variance_exactness(criterion):
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        s = gaussian_set(np.random.default_rng(seed), 3.0, 2.0, 10)
        est, _ = zvcv_estimate(s, IntegrandValues(s.theta[:, 0]), ZvSpec(degree=1))
        worst = max(worst, abs(est - 3.0))
    elapsed = time.perf_counter() - t0
    ok = criterion(
        1, "first-order ZV is exact for a linear integrand", worst <= 1e-10 and elapsed < 1.0
    )
    assert ok, f"worst |est - 3| = {worst:.3e}, elapsed {elapsed:.2f}s"


def test_criterion_02_basis_counts(criterion):
    t0 = time.perf_counter()
    # published counts include the constant term, basis_size excludes it
    counts = [
        basis_size(11, 3) + 1,
        basis_size(11, 4) + 1,
        basis_size(61, 2) + 1,
    ]
    elapsed = time.perf_counter() - t0
    ok = criterion(
        2, "monomial basis counts 364/1365/1953", counts == [364, 1365, 1953] and elapsed < 1.0
    )
    assert ok, f"counts {counts}, elapsed {elapsed:.2f}s"


def test_criterion_03_ridge_equals_polynomial_cf(criterion):
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        n = int(rng.integers(20, 51))
        s = gaussian_set(rng, rng.normal(size=d), np.ones(d), n)
        phi = np.cos(s.theta[:, 0]) + s.theta @ rng.normal(size=d)
        lam = float(rng.uniform(1e-3, 1.0))
        X = build_design_matrix(s, enumerate_exponents(d, q))
        ridge = fit_ridge(X, phi, s.weights, lam=lam, standardised=False).intercept
        cf = cf_estimate(s, IntegrandValues(phi), KernelSpec("polynomial", degree=q), lam_r=lam)
        worst = max(worst, abs(ridge - cf))
    ok = criterion(3, "unstandardised ridge matches polynomial-kernel CF", worst <= 1e-6)
    assert ok, f"worst |ridge - cf| = {worst:.3e}"


def soft(x, lam):
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def standardised_problem(X, f, w):
    """Centred/scaled copies under the documented reliability-weighted sd."""
    w = w / w.sum()
    denom = 1.0 - float(w @ w)
    Xc = X - w @ X
    x_sd = np.sqrt(w @ (Xc * Xc) / denom)
    fc = f - float(w @ f)
    f_sd = float(np.sqrt(w @ (fc * fc) / denom))
    return Xc / x_sd, fc / f_sd, w


def kkt_violation(X, f, w, fit):
    X_s, f_s, w = standardised_problem(X, f, w)
    gamma = -fit.beta_s
    corr = X_s.T @ (w * (f_s - X_s @ gamma))
    active = gamma != 0.0
    viol = np.abs(corr) - fit.lam
    viol[active] = np.abs(corr[active] - fit.lam * np.sign(gamma[active]))
    return float(np.max(viol, initial=0.0))


def test_criterion_04_lasso_correctness(criterion):
    t0 = time.perf_counter()
    # analytic solution on a weighted-orthogonal design
    rng = np.random.default_rng(44)
    n, J = 80, 6
    raw = rng.normal(size=(n, J))
    Q, _ = np.linalg.qr(raw - raw.mean(axis=0))
    X = Q * rng.uniform(1.0, 4.0, size=J)
    f = X @ rng.normal(size=J) + 0.5 * rng.normal(size=n)
    w = np.full(n, 1.0 / n)
    X_s, f_s, w1 = standardised_problem(X, f, w)
    z = w1 @ (X_s * X_s)
    rho = X_s.T @ (w1 * f_s)
    worst_soft = 0.0
    for lam in (1e-4, 3e-3, 1e-2):
        fit = fit_lasso(X, f, lam=lam)
        worst_soft = max(worst_soft, float(np.max(np.abs(-fit.beta_s - soft(rho, lam) / z))))

    rng = np.random.default_rng(404)
    worst_kkt = 0.0
    for _ in range(50):
        n = int(rng.integers(30, 201))
        J = int(rng.integers(5, 501))
        X = rng.normal(size=(n, J)) * rng.uniform(0.5, 2.0, size=J)
        f = X @ (rng.normal(size=J) * (rng.random(J) < 0.2)) + rng.normal(size=n)
        w = rng.uniform(0.2, 1.0, size=n)
        lam = float(rng.uniform(0.05, 0.5)) * lasso_lambda_max(X, f, w)
        fit = fit_lasso(X, f, w, lam=lam)
        worst_kkt = max(worst_kkt, kkt_violation(X, f, w, fit))
    elapsed = time.perf_counter() - t0
    ok = criterion(
        4,
        "lasso matches soft-threshold oracle and satisfies KKT",
        worst_soft <= 1e-6 and worst_kkt <= 1e-6 and elapsed < 30.0,
    )
    assert ok, f"soft {worst_soft:.3e}, kkt {worst_kkt:.3e}, elapsed {elapsed:.1f}s"


def test_criterion_05_split_estimator_unbiased(criterion):
    mu, sd, n, true = 3.0, 2.0, 50, 13.0
    zs = []
    for spec in (
        ZvSpec(degree=1, estimator="split"),
        ZvSpec(degree=1, penalty="lasso", lam=0.1, estimator="split"),
    ):
        rng = np.random.default_rng(2026)
        ests = np.empty(500)
        for rep in range(500):
            s = gaussian_set(rng, mu, sd, n)
            ests[rep], _ = zvcv_estimate(
                s, IntegrandValues(s.theta[:, 0] ** 2), spec, seed=rep
            )
        se = ests.std(ddof=1) / np.sqrt(ests.size)
        zs.append(abs(ests.mean() - true) / se)
    ok = criterion(
        5, "split estimator unbiased for OLS and lasso", max(zs) <= 4.0
    )
    assert ok, f"z-scores {[round(z, 2) for z in zs]} (measured 0.80/0.80 at pinning)"


def test_criterion_06_ess_cess_and_bisection(criterion):
    uniform_ok = ess(np.full(8, 1.0 / 8)) == 8.0
    cess_ok = cess(np.array([0.5, 0.5]), np.array([1.0, 3.0])) == 1.6

    # two particles at even weight, likelihood ratio 9: CESS(dt) has the
    # closed form (1 + 9^dt)^2 / (2 (1 + 81^dt)) * 2, target 1.6 => dt = 0.5
    ll = np.array([0.0, np.log(9.0)])
    w = np.array([0.5, 0.5])
    t_star = next_temperature(ll, w, 0.0, target=1.6, criterion="cess", tol=1e-3)
    ratios = np.exp((t_star - 0.0) * ll)
    hit = abs(cess(w, ratios) - 1.6) <= 1e-3 * 2
    ok = criterion(
        6, "ESS/CESS hand values and CESS bisection accuracy", uniform_ok and cess_ok and hit
    )
    assert ok, f"uniform {uniform_ok}, hand {cess_ok}, t* {t_star}, cess {cess(w, ratios)}"


@pytest.fixture(scope="module")
def conjugate_pilot():
    data = (1.0 + np.random.default_rng(42).normal(size=100)).reshape(-1, 1)
    model = ConjugateGaussianModel([0.0], [[1.0]], [[1.0]], data)
    cfg = SmcConfig(
        n_particles=500, rho=0.96, seed=100,
        h_min=0.05, h_max=2.0, h_grid_size=8, max_repeats=10,
    )
    pilot = run_smc(model, cfg)
    return model, cfg, pilot


def test_criterion_07_conjugate_evidence(criterion, conjugate_pilot):
    model, cfg, pilot = conjugate_pilot
    logz = model.log_evidence()
    record = pilot.replay_record()
    n_temps = len(pilot.temperatures)

    zv2 = ZvSpec(degree=2)
    results = {k: [] for k in ("smc_v", "smc_z", "cti1_z", "cti2_v", "cti2_z")}
    for rep in range(100):
        ps = run_smc(model, replace(cfg, seed=cfg.seed + 1 + rep), replay=record)
        sched, snaps = ps.schedule(), ps.snapshots
        results["smc_v"].append(ps.log_evidence)
        results["smc_z"].append(smc_evidence_estimate(sched, snaps, cv=zv2).log_evidence)
        results["cti1_z"].append(cti_estimate(sched, snaps, order=1, cv=zv2).log_evidence)
        results["cti2_v"].append(cti_estimate(sched, snaps, order=2, cv=VANILLA).log_evidence)
        results["cti2_z"].append(cti_estimate(sched, snaps, order=2, cv=zv2).log_evidence)
    arr = {k: np.asarray(v) for k, v in results.items()}

    se = arr["smc_v"].std(ddof=1) / 10.0
    a_ok = abs(arr["smc_v"].mean() - logz) <= 3.0 * se

    def mse(key):
        return float(np.mean((arr[key] - logz) ** 2))

    b_ok = mse("smc_z") <= mse("smc_v") and mse("cti2_z") <= mse("cti2_v")
    err1 = float(np.mean(np.abs(arr["cti1_z"] - logz)))
    err2 = float(np.mean(np.abs(arr["cti2_z"] - logz)))
    c_ok = err2 <= err1
    ok = criterion(
        7,
        "conjugate evidence: calibration, ZV gains, quadrature order",
        a_ok and b_ok and c_ok and 12 <= n_temps <= 30,
    )
    assert ok, (
        f"temps {n_temps}; mean {arr['smc_v'].mean():.4f} vs {logz:.4f} (se {se:.4f}); "
        f"mse smc {mse('smc_z'):.2e}/{mse('smc_v'):.2e}, "
        f"cti2 {mse('cti2_z'):.2e}/{mse('cti2_v'):.2e}; err {err2:.2e} vs {err1:.2e}"
    )


def test_criterion_08_logistic_efficiency(criterion):
    model = synthetic_logistic_model()
    cfg = SmcConfig(
        n_particles=500, rho=0.5, seed=808,
        h_min=0.05, h_max=2.0, h_grid_size=8, max_repeats=20,
    )
    record = run_smc(model, cfg).replay_record()

    reps = 50
    d = 5
    vanilla = np.empty((reps, d))
    zv = np.empty((reps, d))
    for rep in range(reps):
        ps = run_smc(model, replace(cfg, seed=cfg.seed + 1 + rep), replay=record)
        s = ps.snapshots[-1].sample_set()
        for j in range(d):
            vanilla[rep, j] = float(s.weights @ s.theta[:, j])
            zv[rep, j], _ = zvcv_estimate(
                s, IntegrandValues(s.theta[:, j]), ZvSpec(degree=2), seed=rep
            )
    gold = zv.mean(axis=0)                     # ZV replicate mean as reference
    mse_v = np.mean((vanilla - gold) ** 2, axis=0)
    mse_z = np.mean((zv - gold) ** 2, axis=0)
    avg_gain = float(np.mean(mse_v / mse_z))
    ok = criterion(
        8, "second-order ZV at least halves posterior-mean MSE", avg_gain >= 2.0
    )
    assert ok, f"average efficiency {avg_gain:.1f} (measured ~1465 at pinning)"


def test_criterion_09_subset_matches_full(criterion):
    mu = np.array([2.0, -1.0, 0.0, 0.5, 1.0, -2.0])
    sd = np.array([1.5, 1.0, 0.5, 2.0, 1.0, 1.0])
    s = gaussian_set(np.random.default_rng(99), mu, sd, 40)
    phi = IntegrandValues(s.theta[:, 0], label="theta1")
    full, _ = zvcv_estimate(s, phi, ZvSpec(degree=1))
    sub, _ = zvcv_estimate(s, phi, ZvSpec(degree=1, subset=SubsetSpec((0,))))
    ok = criterion(9, "coordinate-subset ZV equals full-basis ZV", abs(full - sub) <= 1e-8)
    assert ok, f"full {full!r}, subset {sub!r}"


def linear_selection_fixture(seed):
    rng = np.random.default_rng(10_000 + seed)
    th = rng.normal(size=(24, 2))
    s = SampleSet(theta=th, weights=np.full(24, 1.0 / 24), grad_log_target=-th)
    return s, IntegrandValues(2.0 * th[:, 0] - th[:, 1] + 3.0)


def test_criterion_10_crossval_selection(criterion):
    wins = 0
    for seed in range(100):
        s, phi = linear_selection_fixture(seed)
        res, _ = crossval_select(s, phi, seed=seed, max_degree=2)
        wins += res.chosen.degree == 1 and res.chosen.penalty == "ols"

    reproducible = True
    for seed in (0, 3):
        s, phi = linear_selection_fixture(seed)
        r1, e1 = crossval_select(s, phi, seed=seed, max_degree=2)
        r2, e2 = crossval_select(s, phi, seed=seed, max_degree=2)
        reproducible &= r1.trace == r2.trace and r1.chosen == r2.chosen and e1 == e2
    ok = criterion(
        10, "selector prefers exact first-order OLS, trace reproducible",
        wins >= 95 and reproducible,
    )
    assert ok, f"wins {wins}/100 (measured 98 at pinning), reproducible {reproducible}"


def _model_zoo():
    rng = np.random.default_rng(3)
    X = np.column_stack([np.ones(30), rng.normal(size=(30, 2))])
    y = (rng.random(30) < 0.5).astype(float)
    data = rng.normal(size=(6, 2))
    return [
        (GaussianModel(np.array([0.5, -1.0]), np.diag([2.0, 0.5])), None),
        (ConjugateGaussianModel([0.2, 0.0], np.eye(2), np.eye(2) * 1.5, data), None),
        (LogisticModel(X, y, default_logistic_prior_sds(3)), None),
        # FD needs room inside the unit cube, so squeeze draws to [0.05, 0.95]
        (RecaptureModel(), lambda th: 0.05 + 0.9 * th),
        (TransformedModel(RecaptureModel()), lambda th: np.clip(th, -6.0, 6.0)),
    ]


def _fd_operator(a, theta, grad_fn, eps=1e-4):
    def mono(x):
        return float(np.prod(x**a))

    lap, g = 0.0, np.zeros(theta.size)
    for k in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[k] += eps
        dn[k] -= eps
        lap += (mono(up) - 2.0 * mono(theta) + mono(dn)) / eps**2
        g[k] = (mono(up) - mono(dn)) / (2.0 * eps)
    return lap + float(g @ grad_fn(theta))


def test_criterion_11_gradient_oracles(criterion):
    worst_model = 0.0
    for model, squeeze in _model_zoo():
        draws = model.sample_prior(20, np.random.default_rng(7))
        if squeeze is not None:
            draws = squeeze(draws)
        for fn, grad in (
            (model.log_prior, model.grad_log_prior),
            (model.log_like, model.grad_log_like),
        ):
            for th in draws:
                fd = fd_gradient(lambda x: float(fn(x[None, :])[0]), th)
                worst_model = max(worst_model, rel_err(grad(th[None, :])[0], fd))

    rng = np.random.default_rng(11)
    worst_stein = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        q = int(rng.integers(1, 5))
        B = rng.normal(size=(d, d))

        def score(x):
            return -x + 0.5 * np.sin(B @ x)

        A = enumerate_exponents(d, q)
        theta = rng.normal(size=d)
        got = stein_covariates(A, theta, score(theta))
        want = np.array([_fd_operator(a, theta, score) for a in A.A])
        scale = max(float(np.max(np.abs(want))), 1.0)
        worst_stein = max(worst_stein, float(np.max(np.abs(got - want))) / scale)
    ok = criterion(
        11, "model gradients and Stein covariates match finite differences",
        worst_model <= 1e-5 and worst_stein <= 1e-4,
    )
    assert ok, f"model rel err {worst_model:.2e}, stein rel err {worst_stein:.2e}"


def _payload_bytes(root):
    out = {}
    for p in sorted(Path(root).rglob("*")):
        if p.is_file() and p.name not in ("run.log", "timings.json"):
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


def test_criterion_12_pipeline_determinism(criterion, tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({
        "kind": "conjugate_gaussian",
        "prior_mean": [0.0], "prior_cov": [[1.0]], "obs_cov": [[1.0]],
        "data": [[1.1], [0.4], [0.9]],
    }))

    root = tmp_path / "work"   # reused path so recorded archive locations agree

    def pipeline():
        run = root / "run"
        assert main([
            "smc", "--model", str(model_path), "--n", "64",
            "--rho", "0.7", "--hmin", "0.1", "--hmax", "2.0",
            "--max-repeats", "5", "--replicates", "3",
            "--seed", "5", "--out", str(run),
        ]) == EXIT_OK
        assert main([
            "postprocess", "--archive", str(run / "pilot"),
            "--methods", "vanilla,zv:Q=2", "--integrands", "mean,square",
            "--seed", "1", "--out", str(root / "pp"),
        ]) == EXIT_OK
        assert main([
            "evidence", "--archive", str(run / "pilot"), "--estimator", "cti2",
            "--methods", "vanilla,zv:Q=2", "--out", str(root / "ev"),
        ]) == EXIT_OK
        payload = _payload_bytes(root)
        shutil.rmtree(root)
        return payload

    a = pipeline()
    b = pipeline()
    n_temps = len(json.loads(a["run/pilot/manifest.json"])["temperatures"])
    snapshots = sorted(k for k in a if k.startswith("run/pilot/t_"))
    same = (a == b and any(k.endswith(".json") for k in a)
            and snapshots == [f"run/pilot/t_{i:03d}.npy" for i in range(n_temps)]
            and all(a[k] == b[k] for k in snapshots))
    ok = criterion(12, "repeated pipeline is byte-identical", same)
    assert ok, f"{len(a)} vs {len(b)} files, equal={a == b}"
