"""Evidence estimators: quadrature identities, telescoping factors, fallbacks."""

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.linalg import LinAlgError

import steincv.cf as cf_mod
import steincv.evidence as evidence_mod
import steincv.zvcv as zvcv_mod
from conftest import count_gaussian_factors, unit_snapshot
from steincv.cf import KernelSpec, cf_estimate
from steincv.errors import (
    ConditioningError, DegenerateWeights, InvalidInput, InvalidSchedule, SteinCvError,
)
from steincv.evidence import (
    VANILLA,
    CfMethod,
    CrossvalMethod,
    EvidenceReport,
    cti_estimate,
    cti_quadrature,
    expectation_with_provenance,
    method_label,
    smc_evidence_estimate,
    stabilised_cv_expectation,
)
from steincv.models import ConjugateGaussianModel, GaussianModel
from steincv.samples import IntegrandValues, SampleSet
from steincv.smc import (
    ParticleSystem, SmcConfig, Snapshot, TemperatureSchedule, posthoc_schedule, reweight,
    run_smc,
)
from steincv.polybasis import SubsetSpec, build_design_matrix, enumerate_exponents
from steincv.zvcv import ZvSpec, zvcv_estimate


@pytest.fixture(scope="module")
def conjugate_run():
    model = ConjugateGaussianModel(
        prior_mean=[0.0], prior_cov=[[1.0]], obs_cov=[[1.0]],
        data=[[1.1], [0.4], [0.9]],
    )
    cfg = SmcConfig(n_particles=400, rho=0.7, seed=17, h_min=0.1, h_max=2.0,
                    h_grid_size=5, max_repeats=10)
    return model, run_smc(model, cfg)


def fresh_copy(ps):
    """The same particle system with snapshots that hold no CF weights yet."""
    return ParticleSystem([replace(s) for s in ps.snapshots], ps.config, ps.model_manifest)


# --- quadrature ------------------------------------------------------------------


def test_cti_quadrature_constant_and_linear():
    t = np.array([0.0, 0.3, 1.0])
    assert cti_quadrature(t, [2.0, 2.0, 2.0]) == pytest.approx(2.0, abs=1e-15)
    # exact for linear integrands: int (a + b t) = a + b/2
    assert cti_quadrature(t, 1.0 - 3.0 * t) == pytest.approx(1.0 - 1.5, abs=1e-14)


def test_cti_quadrature_variance_correction():
    t = np.array([0.0, 0.5, 1.0])
    e = np.zeros(3)
    assert cti_quadrature(t, e, [4.0, 4.0, 4.0]) == 0.0      # constant V: no-op
    got = cti_quadrature(t, e, [0.0, 3.0, 6.0])
    assert got == pytest.approx(-(0.25 * 3.0 + 0.25 * 3.0) / 12.0, abs=1e-15)


def test_cti_quadrature_validation():
    with pytest.raises(InvalidInput):
        cti_quadrature([0.0], [1.0])
    with pytest.raises(InvalidInput):
        cti_quadrature([0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(InvalidInput):
        cti_quadrature([0.0, 1.0], [1.0, 2.0], [0.0])


def test_quadrature_of_analytic_curves_converges():
    """Closed-form E_t / V_t curves drive both orders toward the true log Z."""
    model = ConjugateGaussianModel(
        prior_mean=[0.5], prior_cov=[[2.0]], obs_cov=[[0.7]],
        data=[[1.3], [0.2], [0.8], [1.0]],
    )
    true_log_z = model.log_evidence()
    dense, _ = quad(model.expected_log_like, 0.0, 1.0, limit=300)
    assert dense == pytest.approx(true_log_z, abs=1e-8)     # path identity

    t = np.linspace(0.0, 1.0, 20)
    e = np.array([model.expected_log_like(ti) for ti in t])
    v = np.array([model.var_log_like(ti) for ti in t])
    err1 = abs(cti_quadrature(t, e) - true_log_z)
    err2 = abs(cti_quadrature(t, e, v) - true_log_z)
    assert err2 <= err1
    assert err2 < 1e-3


# --- stabilised expectations --------------------------------------------------------


def unit_gaussian_set(n, seed):
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(n, 1))
    return SampleSet(theta=theta, grad_log_target=-theta, weights=None)


def test_stabilised_matches_plain_estimator_up_to_scale():
    s = unit_gaussian_set(30, seed=0)
    phi = 50.0 * np.tanh(s.theta[:, 0]) + 10.0
    spec = ZvSpec(degree=2)
    scale = float(np.max(np.abs(phi)))
    direct, _ = zvcv_estimate(s, IntegrandValues(phi / scale), spec)
    assert stabilised_cv_expectation(s, phi, spec) == pytest.approx(scale * direct,
                                                                    rel=1e-14)


def test_stabilised_scaling_equivariance():
    s = unit_gaussian_set(25, seed=1)
    phi = np.exp(0.3 * s.theta[:, 0])
    spec = ZvSpec(degree=2)
    base = stabilised_cv_expectation(s, phi, spec)
    for c in (2.0, 250.0, 1e-6):
        assert stabilised_cv_expectation(s, c * phi, spec) == pytest.approx(
            c * base, rel=1e-10)


def test_stabilised_vanilla_and_zero():
    s = unit_gaussian_set(10, seed=2)
    phi = s.theta[:, 0] ** 2
    assert stabilised_cv_expectation(s, phi, VANILLA) == pytest.approx(
        float(s.weights @ phi), rel=1e-15)
    assert stabilised_cv_expectation(s, np.zeros(10), ZvSpec()) == 0.0
    with pytest.raises(InvalidInput):
        stabilised_cv_expectation(s, np.zeros(7), ZvSpec())


def test_ratio_fallback_takes_the_weighted_mean():
    # regression overshoots on a spiky positive integrand: intercept < 0
    theta = np.array([[0.0], [1.0], [2.0], [3.0]])
    s = SampleSet(theta=theta, grad_log_target=-theta, weights=None)
    phi = np.array([1e-3, 1e-3, 1e-3, 1.0])      # max |phi| = 1: no rescaling
    c0 = float(s.weights @ phi)
    # a non-positive ZV estimate is replaced by the weighted mean
    for spec in (ZvSpec(degree=1), ZvSpec(degree=1, penalty="ridge", lam=0.1)):
        rec = expectation_with_provenance(s, phi, spec, ratio=True, kind="ratio")
        assert rec.fallback == "vanilla"
        assert rec.estimate == c0
    # a CF estimate has no refit and falls back to the weighted mean itself
    for method in (CfMethod(bandwidth=3.0), CfMethod(kind="polynomial", degree=1)):
        rec = expectation_with_provenance(s, phi, method, ratio=True, kind="ratio")
        assert rec.fallback == "vanilla"
        assert rec.estimate == c0 == 0.25075
    # without the ratio guard the raw regression value is indeed non-positive
    plain = stabilised_cv_expectation(s, phi, ZvSpec(degree=1))
    assert plain <= 0.0


@pytest.mark.parametrize("n, d, draw, penalty", [(30, 3, 1, "lasso"), (40, 2, 3, "ridge")])
def test_crossval_ratio_rescue_takes_the_weighted_mean(monkeypatch, n, d, draw, penalty):
    # a penalised winner whose estimate is not positive, or not finite, is
    # replaced by the weighted mean, not refitted
    theta = np.random.default_rng(draw).normal(size=(n, d))
    s = SampleSet(theta=theta, grad_log_target=-theta, weights=None)
    phi = np.exp(0.5 * theta[:, 0] + 0.3 * theta[:, 1])
    scale = float(np.max(phi))
    result, _ = zvcv_mod.crossval_select(s, IntegrandValues(phi / scale), seed=0)
    assert result.chosen.penalty == penalty and result.lam > 0.0
    real = evidence_mod.crossval_select
    c0 = float(s.weights @ phi)
    for forced in (-1.0, 0.0, np.nan):
        monkeypatch.setattr(evidence_mod, "crossval_select",
                            lambda *args, **kwargs: (real(*args, **kwargs)[0], forced))
        rec = expectation_with_provenance(s, phi, CrossvalMethod(), ratio=True, seed=0)
        assert rec.fallback == "vanilla"
        assert rec.method == result.chosen.label()
        assert rec.estimate == c0


def test_forced_ratio_factors_take_the_weighted_mean_in_a_wide_report(monkeypatch):
    # the paper's regime: Q = 3 in d = 3 gives J = 19 covariates on 16 draws.
    # Factors 1, 3 and 4 are forced to a zero, negative and NaN estimate; each
    # takes the weighted mean of its scaled integrand, and factor 2 keeps its fit
    n, spec = 16, ZvSpec(degree=3)
    theta = np.random.default_rng(5).normal(size=(n, 3))
    snap = Snapshot(t=0.0, theta=theta, weights=np.full(n, 1 / n),
                    log_like=-0.5 * np.sum((theta - 1.0) ** 2, axis=1),
                    log_prior=-0.5 * np.sum(theta ** 2, axis=1),
                    grad_log_like=1.0 - theta, grad_log_prior=-theta)
    assert build_design_matrix(snap.sample_set(0.0),
                               enumerate_exponents(3, spec.degree)).shape[1] == 19
    forced = {1: 0.0, 3: -1.0, 4: np.nan}
    real = evidence_mod._apply_method

    def apply_method(s, phi, method, seed):
        out = real(s, phi, method, seed)
        return replace(out, estimate=forced.get(seed[1], out.estimate))

    monkeypatch.setattr(evidence_mod, "_apply_method", apply_method)
    sched = TemperatureSchedule((0.0, 0.2, 0.4, 0.7, 1.0), (0, 0, 0, 0, 0))
    report = smc_evidence_estimate(sched, [snap], cv=spec, seed=3)
    assert report.fallbacks_triggered == len(forced)
    for j, rec in enumerate(report.per_expectation, start=1):
        if j not in forced:
            assert rec.fallback is None and rec.method == spec.label()
            continue
        ss = snap.sample_set(rec.temperature)
        dll = (rec.detail["t_next"] - rec.temperature) * ss.log_like
        shift = float(np.max(dll))
        assert rec.fallback == "vanilla"
        assert rec.estimate == shift + float(np.log(ss.weights @ np.exp(dll - shift)))
        assert rec.estimate == pytest.approx(rec.raw, rel=1e-12, abs=1e-12)
    assert report.log_evidence == sum(r.estimate for r in report.per_expectation)


def test_ratio_degenerate_mean_raises():
    s = unit_gaussian_set(8, seed=3)
    with pytest.raises(DegenerateWeights):
        stabilised_cv_expectation(s, np.full(8, -1.0), ZvSpec(degree=1), ratio=True)


def test_expectation_record_fields():
    s = unit_gaussian_set(12, seed=4)
    phi = s.theta[:, 0]
    rec = expectation_with_provenance(s, phi, ZvSpec(degree=1), temperature=0.25)
    assert rec.temperature == 0.25
    assert rec.kind == "E"
    assert rec.raw == pytest.approx(float(np.mean(phi)), rel=1e-12)
    assert rec.estimate == pytest.approx(0.0, abs=1e-10)
    assert rec.method == "zv:Q=1:ols"
    assert rec.detail["Q"] == 1


EVERY_METHOD = (
    VANILLA,
    ZvSpec(penalty="ols"),
    ZvSpec(penalty="ridge", lam=0.1), ZvSpec(penalty="ridge"),
    ZvSpec(penalty="lasso", lam=0.01), ZvSpec(penalty="lasso"),
    ZvSpec(estimator="split"),
    CfMethod(bandwidth=1.0), CfMethod(kind="polynomial"), CfMethod(folds=2),
    CrossvalMethod(),
)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(n=st.integers(1, 13), d=st.integers(1, 3),
       log_scale=st.sampled_from([-8, -4, -1, 0, 1, 4, 8]),
       seed=st.integers(0, 2**32 - 1), zero_weights=st.booleans(), repeat=st.booleans(),
       integrand=st.sampled_from(["smooth", "constant", "tiny"]))
def test_every_method_is_finite_or_a_typed_error(n, d, log_scale, seed, zero_weights,
                                                 repeat, integrand):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    theta = scale * rng.normal(size=(n, d))
    if repeat and n > 1:
        theta[1] = theta[0]
    w = rng.uniform(0.1, 1.0, size=n)
    if zero_weights:
        w[rng.uniform(size=n) < 0.3] = 0.0
        w[0] = 1.0
    s = SampleSet(theta=theta, grad_log_target=-theta / scale**2, weights=w)
    f = {"smooth": theta[:, 0] / scale + (theta[:, -1] / scale) ** 2,
         "constant": np.full(n, 1.5),
         "tiny": 1e-300 * np.exp(-theta[:, 0] / scale)}[integrand]
    for method in EVERY_METHOD:
        for ratio in (False, True):
            try:
                with np.errstate(over="ignore"):
                    rec = expectation_with_provenance(s, f, method, ratio=ratio, seed=seed)
            except SteinCvError:
                continue
            assert np.isfinite(rec.estimate), (method, ratio)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_every_method_rejects_a_non_finite_integrand(bad):
    s = unit_gaussian_set(50, seed=5)
    f = s.theta[:, 0] ** 2
    f[7] = bad
    for method in EVERY_METHOD:
        for ratio in (False, True):
            with pytest.raises(InvalidInput, match="finite"):
                expectation_with_provenance(s, f, method, ratio=ratio)
            with pytest.raises(InvalidInput, match="finite"):
                stabilised_cv_expectation(s, f, method, ratio=ratio)


# --- estimators over schedules -------------------------------------------------------


def test_cti_vanilla_matches_hand_quadrature(conjugate_run):
    model, ps = conjugate_run
    sched = ps.schedule()
    report = cti_estimate(sched, ps, order=1, cv=VANILLA)
    e_hand = [float(s.weights @ s.log_like) for s in ps.snapshots]
    assert report.log_evidence == pytest.approx(
        cti_quadrature(sched.temperatures, e_hand), rel=1e-12)
    assert report.estimator == "cti1"
    assert report.method == VANILLA
    assert len(report.per_expectation) == len(sched)
    assert all(r.kind == "E_logl" for r in report.per_expectation)


def test_cti_order_two_record_layout(conjugate_run):
    _, ps = conjugate_run
    report = cti_estimate(ps.schedule(), ps, order=2, cv=VANILLA)
    recs = report.per_expectation
    assert len(recs) == 2 * len(ps.temperatures)
    assert [r.kind for r in recs[:2]] == ["E_logl", "V_logl"]
    assert report.estimator == "cti2"


def test_cti_near_truth_with_cv(conjugate_run):
    model, ps = conjugate_run
    report = cti_estimate(ps.schedule(), ps, order=2, cv=ZvSpec(degree=2))
    assert report.log_evidence == pytest.approx(model.log_evidence(), abs=0.05)
    assert report.method == "zv:Q=2:ols"


def test_cti_deterministic(conjugate_run):
    _, ps = conjugate_run
    a = cti_estimate(ps.schedule(), ps, order=2, cv=ZvSpec(degree=2), seed=3)
    b = cti_estimate(ps.schedule(), ps, order=2, cv=ZvSpec(degree=2), seed=3)
    assert a == b


def test_cti_v_mean_mode(conjugate_run):
    _, ps = conjugate_run
    cv = ZvSpec(degree=1)
    r_cv = cti_estimate(ps.schedule(), ps, order=2, cv=cv, v_mean_mode="cv")
    r_raw = cti_estimate(ps.schedule(), ps, order=2, cv=cv, v_mean_mode="raw")
    assert r_cv.log_evidence != r_raw.log_evidence
    with pytest.raises(InvalidInput):
        cti_estimate(ps.schedule(), ps, order=2, v_mean_mode="median")
    with pytest.raises(InvalidInput):
        cti_estimate(ps.schedule(), ps, order=3)
    with pytest.raises(InvalidInput):
        cti_estimate(ps.schedule(), ps, cv="bogus")


def test_smc_factors_are_reweighting_increments(conjugate_run):
    _, ps = conjugate_run
    sched = ps.schedule()
    report = smc_evidence_estimate(sched, ps, cv=VANILLA)
    temps = sched.temperatures
    total = 0.0
    for j, rec in enumerate(report.per_expectation, start=1):
        snap = ps.snapshots[j - 1]
        _, want = reweight(snap.weights, snap.log_like, temps[j - 1], temps[j])
        assert rec.raw == pytest.approx(want, rel=1e-12)
        assert rec.estimate == rec.raw
        assert rec.log_scale and rec.kind == "ratio"
        assert rec.detail["t_next"] == temps[j]
        total += rec.estimate
    assert report.log_evidence == pytest.approx(total, rel=1e-15)
    assert len(report.per_expectation) == len(temps) - 1


def test_smc_near_truth_with_cv(conjugate_run):
    model, ps = conjugate_run
    report = smc_evidence_estimate(ps.schedule(), ps, cv=ZvSpec(degree=2))
    assert report.log_evidence == pytest.approx(model.log_evidence(), abs=0.05)
    assert report.estimator == "smc"


def test_flat_likelihood_both_estimators_exact():
    model = GaussianModel(mu=[0.0], sigma=[[1.0]])
    ps = run_smc(model, SmcConfig(n_particles=40, seed=2))
    assert cti_estimate(ps.schedule(), ps, order=2).log_evidence == 0.0
    assert smc_evidence_estimate(ps.schedule(), ps).log_evidence == 0.0


def test_schedule_checks(conjugate_run):
    _, ps = conjugate_run
    bad_pop = TemperatureSchedule((0.0, 1.0), (0, len(ps.snapshots) + 3))
    with pytest.raises(InvalidSchedule):
        cti_estimate(bad_pop, ps)
    # a snapshot cannot serve a temperature below its own
    future = TemperatureSchedule((0.0, 1.0), (1, 1))
    if ps.temperatures[1] > 0.0:
        with pytest.raises(InvalidSchedule):
            smc_evidence_estimate(future, ps)
    with pytest.raises(InvalidInput):
        cti_estimate(ps.schedule(), [])


def test_cf_and_crossval_methods_run(conjugate_run):
    model, ps = conjugate_run
    r_cf = smc_evidence_estimate(ps.schedule(), ps, cv=CfMethod(bandwidth=2.0))
    assert np.isfinite(r_cf.log_evidence)
    assert r_cf.method == "cf:bw=2"
    r_xv = cti_estimate(ps.schedule(), ps, order=1, cv=CrossvalMethod(max_degree=2))
    assert np.isfinite(r_xv.log_evidence)
    assert r_xv.method == "crossval:maxQ=2"
    assert all("selected" in rec.detail for rec in r_xv.per_expectation)


# --- method selectors and reports ----------------------------------------------------


def test_method_labels():
    assert method_label(None) == "vanilla"
    assert method_label(VANILLA) == "vanilla"
    assert method_label(CfMethod()) == "cf"
    assert method_label(CfMethod(bandwidth=0.5)) == "cf:bw=0.5"
    assert method_label(CfMethod(kind="polynomial", degree=3)) == "cf:poly:Q=3"
    assert method_label(CrossvalMethod()) == "crossval"
    assert method_label(ZvSpec(degree=2, penalty="ridge")) == "zv:Q=2:ridge"


def test_cf_method_validation():
    for kwargs in ({"bandwidth": -1.0}, {"bandwidth": np.inf}, {"bandwidth": np.nan},
                   {"lam_r": -0.1}, {"lam_r": np.inf}, {"lam_r": np.nan},
                   {"kind": "polynomial", "lam_r": np.inf}, {"kind": "laplace"},
                   {"folds": 1}, {"folds": 0}):
        with pytest.raises(InvalidInput):
            CfMethod(**kwargs)


def test_crossval_method_validation():
    for kwargs in ({"max_degree": 0}, {"max_degree": -3}, {"min_degree": 0},
                   {"min_degree": 3, "max_degree": 2}):
        with pytest.raises(InvalidInput):
            CrossvalMethod(**kwargs)
    for kwargs in ({"max_degree": 1}, {"min_degree": 2, "max_degree": 2}, {"min_degree": 4}):
        CrossvalMethod(**kwargs)


def report_dict_reference(report):
    """An evidence report's dict written out field by field."""
    return {
        "estimator": report.estimator,
        "log_evidence": report.log_evidence,
        "temperatures": list(report.temperatures),
        "method": report.method,
        "fallbacks_triggered": report.fallbacks_triggered,
        "per_expectation": [
            {"temperature": r.temperature, "kind": r.kind, "raw": r.raw,
             "estimate": r.estimate, "method": r.method, "detail": r.detail,
             "fallback": r.fallback, "log_scale": r.log_scale}
            for r in report.per_expectation
        ],
    }


@pytest.mark.parametrize("estimate", [cti_estimate, smc_evidence_estimate])
@pytest.mark.parametrize("cv", [VANILLA, ZvSpec(degree=2), CfMethod(bandwidth=3.0),
                                CrossvalMethod(max_degree=2)])
def test_report_dict_matches_the_field_by_field_reference(tmp_path, conjugate_run, estimate, cv):
    _, ps = conjugate_run
    report = estimate(ps.schedule(), ps, cv=cv)
    want = report_dict_reference(report)
    assert report.to_dict() == want
    assert [type(v) for v in report.to_dict().values()] == [type(want[k]) for k in report.to_dict()]
    report.save(tmp_path / "r.json")
    expected = json.dumps(want, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "r.json").read_text() == expected


def test_report_round_trip(tmp_path, conjugate_run):
    _, ps = conjugate_run
    report = cti_estimate(ps.schedule(), ps, order=2, cv=ZvSpec(degree=1))
    path = tmp_path / "report.json"
    report.save(path)
    loaded = EvidenceReport.load(path)
    assert loaded == report
    with pytest.raises(InvalidInput):
        EvidenceReport.load(tmp_path / "missing.json")
    (tmp_path / "bad.json").write_text("{}")
    with pytest.raises(InvalidInput):
        EvidenceReport.load(tmp_path / "bad.json")
    (tmp_path / "latin1.json").write_bytes(b'{"estimator": "\xff"}')
    with pytest.raises(InvalidInput):
        EvidenceReport.load(tmp_path / "latin1.json")
    # a JSON value of the wrong type anywhere is malformed input too
    good = json.loads(path.read_text())
    for i, payload in enumerate([[1], "str", {**good, "per_expectation": 3},
                                 {**good, "per_expectation": ["E_logl", "V_logl"]}]):
        (tmp_path / f"typed{i}.json").write_text(json.dumps(payload))
        with pytest.raises(InvalidInput):
            EvidenceReport.load(tmp_path / f"typed{i}.json")


def test_a_report_naming_the_retired_refit_still_loads(conjugate_run):
    # reports written while ratio factors could be refitted with a pinned
    # intercept name that rescue; they load and write back unchanged
    _, ps = conjugate_run
    d = json.loads(json.dumps(smc_evidence_estimate(ps.schedule(), ps,
                                                    cv=ZvSpec(degree=1)).to_dict()))
    d["per_expectation"][0]["fallback"] = "fixed_intercept"
    d["fallbacks_triggered"] = 1
    loaded = EvidenceReport.from_dict(d)
    assert loaded.per_expectation[0].fallback == "fixed_intercept"
    assert loaded.fallbacks_triggered == 1
    assert loaded.to_dict() == d


# --- oracle: one CF weight vector per temperature, shared across reports -------------


def scaled_cf(ss, values, kernel, lam_r):
    scale = float(np.max(np.abs(values)))
    return cf_estimate(ss, IntegrandValues(values / scale), kernel, lam_r) * scale


def cti2_cf_loop_reference(sched, snaps, kernel_of, lam_r):
    """cti2 E/V estimates from one cf_estimate call (own factor) per integrand."""
    out = []
    for j, (t, k) in enumerate(zip(sched.temperatures, sched.population_index)):
        ss = snaps[k].sample_set(t)
        ll = ss.log_like
        est_e = scaled_cf(ss, ll, kernel_of(2 * j), lam_r)
        dev = ll - est_e
        out += [est_e, scaled_cf(ss, dev * dev, kernel_of(2 * j + 1), lam_r)]
    return out


@pytest.mark.parametrize("method, kernel", [
    (CfMethod(bandwidth=2.0), KernelSpec(bandwidth=2.0)),
    (CfMethod(bandwidth=0.5, lam_r=0.01), KernelSpec(bandwidth=0.5)),
    (CfMethod(kind="polynomial", degree=2), KernelSpec(kind="polynomial", degree=2)),
    (CfMethod(kind="polynomial", degree=3, lam_r=0.2),
     KernelSpec(kind="polynomial", degree=3)),
])
def test_cti2_cf_shares_one_factor_per_temperature(conjugate_run, monkeypatch, method, kernel):
    ps = fresh_copy(conjugate_run[1])      # earlier tests left CF weights on the shared run
    sched = ps.schedule()
    want = cti2_cf_loop_reference(sched, ps.snapshots, lambda i: kernel, method.lam_r)
    calls = count_cf_calls(monkeypatch)
    report = cti_estimate(sched, ps, order=2, cv=method, seed=5)
    assert [r.estimate for r in report.per_expectation] == want
    n = len(sched)
    assert calls["cho_factor"] == n
    if kernel.kind == "gaussian":
        # a fixed gaussian kernel is assembled per snapshot, not by stein_kernel_matrix
        assert calls["stein_kernel_matrix"] == 0 and calls["design_columns"] == 0
    else:   # d = 1, so J = Q < N: J-space, no N x N kernel
        assert calls["stein_kernel_matrix"] == 0 and calls["design_columns"] == n


def count_cf_calls(monkeypatch) -> Counter:
    """Count the N x N kernels, factorisations and designs built from now on."""
    calls = Counter()
    for name in ("stein_kernel_matrix", "cho_factor", "design_columns"):
        real = getattr(cf_mod, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cf_mod, name, counted)
    return calls


FIXED_CF_METHODS = [
    CfMethod(bandwidth=2.0),
    CfMethod(bandwidth=0.5, lam_r=0.01),
    CfMethod(kind="polynomial", degree=2),
    CfMethod(kind="polynomial", degree=3, lam_r=0.2),
]


@pytest.mark.parametrize("posthoc", [False, True])
@pytest.mark.parametrize("method", FIXED_CF_METHODS)
def test_smc_report_after_cti_builds_no_kernel(conjugate_run, monkeypatch, method, posthoc):
    # the smc factor at t_{j-1} uses exactly cti2's sample set at t_{j-1}
    ps = fresh_copy(conjugate_run[1])
    sched = posthoc_schedule(ps, 0.9) if posthoc else ps.schedule()
    cti_estimate(sched, ps, order=2, cv=method, seed=5)
    calls = count_cf_calls(monkeypatch)
    report = smc_evidence_estimate(sched, ps, cv=method, seed=6)
    assert sum(calls.values()) == 0
    monkeypatch.undo()
    assert report == smc_evidence_estimate(sched, fresh_copy(ps), cv=method, seed=6)


@pytest.mark.parametrize("method", FIXED_CF_METHODS)
def test_cti_report_after_smc_builds_only_the_last_temperature(conjugate_run, monkeypatch,
                                                               method):
    ps = fresh_copy(conjugate_run[1])
    sched = ps.schedule()
    smc_evidence_estimate(sched, ps, cv=method, seed=6)
    calls = count_cf_calls(monkeypatch)
    report = cti_estimate(sched, ps, order=2, cv=method, seed=5)
    assert calls["cho_factor"] == 1           # t = 1 serves no smc factor
    monkeypatch.undo()
    assert report == cti_estimate(sched, fresh_copy(ps), order=2, cv=method, seed=5)


def test_cf_weight_memo_holds_one_vector_per_sample_set(conjugate_run):
    ps = fresh_copy(conjugate_run[1])
    sched = posthoc_schedule(ps, 0.9)
    for method in FIXED_CF_METHODS[:2]:
        cti_estimate(sched, ps, order=2, cv=method)
        smc_evidence_estimate(sched, ps, cv=method)
    n = ps.snapshots[0].count
    served = Counter(sched.population_index)
    for k, snap in enumerate(ps.snapshots):
        assert len(snap._sample_sets) == served[k]
        for t, ss in snap._sample_sets.items():
            assert snap.sample_set(t) is ss
            assert set(ss._memo) == {("cf", KernelSpec(bandwidth=2.0), 0.0),
                                     ("cf", KernelSpec(bandwidth=0.5), 0.01)}
            for v in ss._memo.values():
                assert v.shape == (n,) and not v.flags.writeable
                assert v.sum() == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("method", FIXED_CF_METHODS)
def test_expectations_at_one_temperature_factorise_once(conjugate_run, monkeypatch, method):
    ps = fresh_copy(conjugate_run[1])
    snap = ps.snapshots[1]
    t = 0.5 * (snap.t + ps.snapshots[2].t)
    ss = snap.sample_set(t)
    if method.kind == "gaussian":
        kernel = KernelSpec(bandwidth=method.bandwidth)
    else:
        kernel = KernelSpec(kind="polynomial", degree=method.degree)
    ll, th = ss.log_like, ss.theta[:, 0]
    want = [scaled_cf(ss, ll, kernel, method.lam_r), scaled_cf(ss, th, kernel, method.lam_r)]
    assert ss._memo == {}                         # cf_estimate memoises nothing
    calls = count_cf_calls(monkeypatch)
    got = [expectation_with_provenance(ss, ll, method, seed=1).estimate,
           expectation_with_provenance(ss, th, method, seed=2).estimate]
    assert calls["cho_factor"] == 1
    # the snapshot gives out the same sample set, and with it the memo, again
    again = expectation_with_provenance(snap.sample_set(t), ll, method, seed=3)
    assert calls["cho_factor"] == 1
    assert got == want and again.estimate == want[0]


GAUSSIAN_CF_METHODS = [CfMethod(bandwidth=2.0), CfMethod(bandwidth=0.5, lam_r=0.01)]


@pytest.mark.parametrize("method", GAUSSIAN_CF_METHODS)
def test_cti2_builds_one_gaussian_factor_per_snapshot(conjugate_run, monkeypatch, method):
    # a post-hoc schedule serves several temperatures from one snapshot; the
    # per-(snapshot, t) path, one cf_estimate per integrand, is the reference
    ps = fresh_copy(conjugate_run[1])
    sched = posthoc_schedule(ps, 0.9)
    served = set(sched.population_index)
    assert len(served) < len(sched)
    kernel = KernelSpec(bandwidth=method.bandwidth)
    want = cti2_cf_loop_reference(sched, ps.snapshots, lambda i: kernel, method.lam_r)
    built = count_gaussian_factors(monkeypatch)
    calls = count_cf_calls(monkeypatch)
    report = cti_estimate(sched, ps, order=2, cv=method, seed=5)
    assert [r.estimate for r in report.per_expectation] == want
    assert len(built) == len(served) and calls["cho_factor"] == len(sched)
    assert calls["stein_kernel_matrix"] == 0


@pytest.mark.parametrize("posthoc", [False, True])
@pytest.mark.parametrize("method", GAUSSIAN_CF_METHODS)
def test_smc_then_cti_equals_cti_then_smc(conjugate_run, monkeypatch, method, posthoc):
    ps = conjugate_run[1]
    sched = posthoc_schedule(ps, 0.9) if posthoc else ps.schedule()
    first = fresh_copy(ps)
    built = count_gaussian_factors(monkeypatch)
    smc_a = smc_evidence_estimate(sched, first, cv=method, seed=6)
    # smc reads t_0 .. t_{n-1}: the snapshots serving them, then t_n's alone
    assert len(built) == len(set(sched.population_index[:-1]))
    cti_a = cti_estimate(sched, first, order=2, cv=method, seed=5)
    assert len(built) == len(set(sched.population_index[:-1])) + 1
    second = fresh_copy(ps)
    cti_b = cti_estimate(sched, second, order=2, cv=method, seed=5)
    smc_b = smc_evidence_estimate(sched, second, cv=method, seed=6)
    assert cti_a.to_dict() == cti_b.to_dict()
    assert smc_a.to_dict() == smc_b.to_dict()


def smc_cf_loop_reference(sched, snaps, kernel, lam_r):
    """smc log factors from one cf_estimate call (own factor) per factor."""
    out = []
    temps = sched.temperatures
    for t_prev, t_next, k in zip(temps, temps[1:], sched.population_index):
        ss = snaps[k].sample_set(t_prev)
        dll = (t_next - t_prev) * ss.log_like
        shift = float(np.max(dll))
        out.append(shift + float(np.log(scaled_cf(ss, np.exp(dll - shift), kernel, lam_r))))
    return out


@pytest.mark.parametrize("method", GAUSSIAN_CF_METHODS)
def test_a_schedule_that_returns_to_a_snapshot_gives_the_per_set_reports(
        conjugate_run, monkeypatch, method):
    # population indices that go back to snapshot 0: each run of temperatures
    # on one snapshot builds its own gaussian factor, and the reports are those
    # of one cf_estimate per expectation
    ps = fresh_copy(conjugate_run[1])
    assert ps.temperatures[1] < 0.5 and len(ps.snapshots) == 3
    index = (0, 0, 1, 0, 1, 2)
    sched = TemperatureSchedule((0.0, 0.2, 0.5, 0.6, 0.8, 1.0), index)
    kernel = KernelSpec(bandwidth=method.bandwidth)
    cti_want = cti2_cf_loop_reference(sched, fresh_copy(ps).snapshots, lambda i: kernel,
                                      method.lam_r)
    smc_want = smc_cf_loop_reference(sched, fresh_copy(ps).snapshots, kernel, method.lam_r)
    built = count_gaussian_factors(monkeypatch)
    smc_report = smc_evidence_estimate(sched, ps, cv=method, seed=6)
    runs = 1 + sum(a != b for a, b in zip(index[:-1], index[1:-1]))
    assert len(built) == runs
    cti_report = cti_estimate(sched, ps, order=2, cv=method, seed=5)
    assert len(built) == runs + 1
    assert [r.estimate for r in cti_report.per_expectation] == cti_want
    assert [r.estimate for r in smc_report.per_expectation] == smc_want
    assert smc_report.fallbacks_triggered == 0


def test_a_failing_gaussian_system_raises_where_it_is_used():
    # theta ~ 1e8 at bw = 1e-3 overflows the gaussian factor: the report raises
    # the typed error as it reads the first temperature, never a NaN estimate
    rng = np.random.default_rng(1)
    theta = 1e8 * rng.normal(size=(13, 1))
    ll = -0.5 * (theta[:, 0] / 1e8) ** 2
    snap = Snapshot(t=0.0, theta=theta, weights=np.full(13, 1 / 13), log_like=ll,
                    log_prior=ll, grad_log_like=-theta / 1e16, grad_log_prior=-theta / 1e16)
    sched = TemperatureSchedule((0.0, 0.5, 1.0), (0, 0, 0))
    with np.errstate(over="ignore"):
        for report in (cti_estimate, smc_evidence_estimate):
            with pytest.raises(ConditioningError):
                report(sched, [replace(snap)], cv=CfMethod(bandwidth=1e-3))


def fail_factorisations(monkeypatch, n):
    """Make every cho_factor of an n x n system fail, as a singular one does."""
    real = cf_mod.cho_factor

    def cho_factor(M, *args, **kwargs):
        if M.shape[0] == n:
            raise LinAlgError("forced failure")
        return real(M, *args, **kwargs)

    monkeypatch.setattr(cf_mod, "cho_factor", cho_factor)


@pytest.mark.parametrize("report", [cti_estimate, smc_evidence_estimate])
def test_a_failing_gaussian_system_is_built_and_tried_once(monkeypatch, report):
    # one gaussian factor and one jitter escalation (9 tries) before the error
    sched = TemperatureSchedule((0.0, 0.5, 1.0), (0, 0, 0))
    fail_factorisations(monkeypatch, 50)
    built = count_gaussian_factors(monkeypatch)
    calls = count_cf_calls(monkeypatch)
    with pytest.raises(ConditioningError, match="after jitter escalation"):
        report(sched, [unit_snapshot(50, 0.0, seed=1)], cv=CfMethod(bandwidth=1.0))
    assert len(built) == 1
    assert calls["cho_factor"] == cf_mod._JITTER_DOUBLINGS + 1 == 9


@pytest.mark.parametrize("report", [cti_estimate, smc_evidence_estimate])
def test_a_report_stops_at_the_first_set_whose_system_fails(monkeypatch, report):
    # the second snapshot (50 draws, the first has 40) alone fails: the sets
    # read before it hold their weights, it and the set after it hold none
    snaps = [unit_snapshot(40, 0.0, seed=1), unit_snapshot(50, 0.6, seed=2)]
    sched = TemperatureSchedule((0.0, 0.3, 0.6, 1.0), (0, 0, 1, 1))
    fail_factorisations(monkeypatch, 50)
    built = count_gaussian_factors(monkeypatch)
    calls = count_cf_calls(monkeypatch)
    with pytest.raises(ConditioningError, match="after jitter escalation"):
        report(sched, snaps, cv=CfMethod(bandwidth=1.0))
    assert len(built) == 2 and calls["cho_factor"] == 2 + 9
    key = ("cf", KernelSpec(bandwidth=1.0), 0.0)
    sets = [snaps[k].sample_set(t) for t, k in zip(sched.temperatures, sched.population_index)]
    assert [key in s._memo for s in sets] == [True, True, False, False]


def test_cti2_cv_bandwidth_searches_every_expectation(monkeypatch):
    model = ConjugateGaussianModel(
        prior_mean=[0.0], prior_cov=[[1.0]], obs_cov=[[1.0]], data=[[0.3], [0.8]],
    )
    ps = run_smc(model, SmcConfig(n_particles=40, rho=0.5, seed=3, h_min=0.1,
                                  h_max=2.0, h_grid_size=3, max_repeats=5))
    sched = ps.schedule()
    real = evidence_mod.cf_cv_bandwidth
    chosen = []

    def search(*args, **kwargs):
        chosen.append(real(*args, **kwargs))
        return chosen[-1]

    monkeypatch.setattr(evidence_mod, "cf_cv_bandwidth", search)
    report = cti_estimate(sched, ps, order=2, cv=CfMethod(folds=3), seed=2)
    recs = report.per_expectation
    assert len(chosen) == len(recs) == 2 * len(sched)
    assert [r.detail["bandwidth"] for r in recs] == chosen
    want = cti2_cf_loop_reference(sched, ps.snapshots,
                                  lambda i: KernelSpec(bandwidth=chosen[i]), 0.0)
    assert [r.estimate for r in recs] == want


# --- oracle: one ZV weight vector per sample set, shared across integrands and reports


LINEAR_ZV = [ZvSpec(degree=2), ZvSpec(degree=2, penalty="ridge", lam=0.1)]


def zv_case(case):
    """(SampleSet, subset) for one regime of the ZV weight oracle."""
    rng = np.random.default_rng(31)
    n = 8 if case == "wide" else 60      # wide: J = 9 or 19 at Q = 2 or 3
    theta = rng.normal(size=(n, 3))
    grad = -theta.copy()
    w = rng.uniform(0.05, 1.0, size=n) if case != "uniform" else None
    subset = None
    if case == "constant_column":
        # a coordinate pinned at 0 with zero gradient: its covariates are constant
        theta[:, 1] = 0.0
        grad[:, 1] = 0.0
    if case == "masked_subset":
        grad[:, 2] = np.nan
        subset = SubsetSpec((0, 1))
    return SampleSet(theta=theta, grad_log_target=grad, weights=w), subset


@pytest.mark.parametrize("case", ["uniform", "weighted", "wide", "constant_column",
                                  "masked_subset"])
@pytest.mark.parametrize("base", LINEAR_ZV + [ZvSpec(degree=3)])
def test_linear_zv_weights_match_the_per_integrand_fit(case, base):
    s, subset = zv_case(case)
    spec = replace(base, subset=subset)
    th = s.theta
    integrands = [np.exp(0.5 * th[:, 0]) + 1.0, th[:, 0] ** 2 + th[:, 2] + 2.0,
                  np.sin(th[:, 0]) + np.cos(th[:, 1]) + 3.0]
    for i, f in enumerate(integrands):
        phi = IntegrandValues(f)
        got = evidence_mod._apply_method(s, phi, spec, seed=i)
        want, fit = zvcv_estimate(s, phi, spec, seed=i)
        assert got.estimate == pytest.approx(want, rel=1e-12)
        assert got.detail == {"Q": spec.degree, "penalty": spec.penalty, "lam": fit.lam}
    J = build_design_matrix(s, enumerate_exponents(s.dim, spec.degree, subset)).shape[1]
    if case == "wide":
        assert J >= s.count
    if case == "constant_column":
        assert fit.dropped
    (key, v), = s._memo.items()
    assert key == ("zv", spec.degree, subset, spec.penalty, fit.lam)
    assert v.shape == (s.count,) and not v.flags.writeable
    assert abs(v.sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("spec", [ZvSpec(penalty="lasso", lam=0.01), ZvSpec(penalty="ridge"),
                                  ZvSpec(estimator="split"),
                                  ZvSpec(penalty="ridge", lam=0.1, estimator="split")])
def test_non_linear_zv_specs_keep_the_per_integrand_fit(spec):
    s, _ = zv_case("weighted")
    phi = IntegrandValues(np.exp(0.5 * s.theta[:, 0]))
    got = evidence_mod._apply_method(s, phi, spec, seed=4)
    assert got.estimate == zvcv_estimate(s, phi, spec, seed=4)[0]
    assert s._memo == {}


@pytest.mark.parametrize("spec", LINEAR_ZV)
@pytest.mark.parametrize("case", ["one_draw", "one_weight", "masked", "negative_lam"])
def test_linear_zv_weights_raise_what_the_fit_raises(spec, case):
    rng = np.random.default_rng(8)
    n = 1 if case == "one_draw" else 20
    theta = rng.normal(size=(n, 2))
    grad = -theta.copy()
    w = np.ones(n)
    if case == "one_weight":
        w[1:] = 0.0
    if case == "masked":
        grad[:, 1] = np.nan
    if case == "negative_lam":
        spec = replace(spec, penalty="ridge", lam=-1.0)
    s = SampleSet(theta=theta, grad_log_target=grad, weights=w)
    phi = IntegrandValues(theta[:, 0] + 2.0)
    with pytest.raises(SteinCvError) as want:
        zvcv_estimate(s, phi, spec)
    with pytest.raises(type(want.value)):
        evidence_mod._apply_method(s, phi, spec, seed=0)
    assert s._memo == {}


def count_zv_designs(monkeypatch) -> list:
    """Record the sample set of every design ``zvcv`` builds from now on."""
    built = []
    real = zvcv_mod.build_design_matrix

    def counted(s, A):
        built.append(s)
        return real(s, A)

    monkeypatch.setattr(zvcv_mod, "build_design_matrix", counted)
    return built


@pytest.mark.parametrize("posthoc", [False, True])
@pytest.mark.parametrize("method", LINEAR_ZV)
def test_cti2_and_smc_build_one_zv_design_per_serving_set(conjugate_run, monkeypatch, method,
                                                          posthoc):
    ps = conjugate_run[1]
    sched = posthoc_schedule(ps, 0.9) if posthoc else ps.schedule()
    first = fresh_copy(ps)
    built = count_zv_designs(monkeypatch)
    smc_a = smc_evidence_estimate(sched, first, cv=method, seed=6)
    cti_a = cti_estimate(sched, first, order=2, cv=method, seed=5)
    assert len(built) == len(sched) == len({id(s) for s in built})
    second = fresh_copy(ps)
    cti_b = cti_estimate(sched, second, order=2, cv=method, seed=5)
    smc_b = smc_evidence_estimate(sched, second, cv=method, seed=6)
    assert len(built) == 2 * len(sched)
    assert cti_a.to_dict() == cti_b.to_dict()
    assert smc_a.to_dict() == smc_b.to_dict()
    assert cti_a.fallbacks_triggered == smc_a.fallbacks_triggered == 0


@pytest.mark.parametrize("method", LINEAR_ZV)
def test_zv_reports_match_the_per_integrand_fit(conjugate_run, method):
    # the reports before linear ZV shared weights: one zvcv_estimate per integrand
    ps = fresh_copy(conjugate_run[1])
    sched = ps.schedule()
    cti = cti_estimate(sched, ps, order=2, cv=method, seed=5)
    smc = smc_evidence_estimate(sched, ps, cv=method, seed=6)
    want_cti, want_smc = [], []
    for j, (t, k) in enumerate(zip(sched.temperatures, sched.population_index)):
        ss = replace(ps.snapshots[k].sample_set(t))       # an empty memo
        ll = ss.log_like
        est_e = scaled_zv(ss, ll, method)
        dev = ll - est_e
        want_cti += [est_e, scaled_zv(ss, dev * dev, method)]
        if j + 1 < len(sched):
            dll = (sched.temperatures[j + 1] - t) * ll
            shift = float(np.max(dll))
            want_smc.append(shift + np.log(scaled_zv(ss, np.exp(dll - shift), method)))
    assert_allclose([r.estimate for r in cti.per_expectation], want_cti, rtol=1e-12)
    assert_allclose([r.estimate for r in smc.per_expectation], want_smc, rtol=1e-12)


def scaled_zv(ss, values, spec):
    scale = float(np.max(np.abs(values)))
    return zvcv_estimate(ss, IntegrandValues(values / scale), spec)[0] * scale


# --- seeds: checked on entry, derived per expectation only by a method that draws


@pytest.mark.parametrize("seed", [-1, -2**70, "x", 1.5, None, True])
def test_a_seed_must_be_a_nonnegative_integer(conjugate_run, seed):
    ps = conjugate_run[1]
    sched = ps.schedule()
    s = ps.snapshots[-1].sample_set()
    for call in (lambda: cti_estimate(sched, ps, seed=seed),
                 lambda: smc_evidence_estimate(sched, ps, seed=seed),
                 lambda: expectation_with_provenance(s, s.log_like, seed=seed),
                 lambda: stabilised_cv_expectation(s, s.log_like, seed=seed),
                 lambda: evidence_mod._derive_seed(seed, 0)):
        with pytest.raises(InvalidInput, match="seed"):
            call()


def count_derived_seeds(monkeypatch) -> list:
    """Record the key (seed, j, k) of every per-expectation seed derived."""
    real = evidence_mod._derive_seed
    keys = []

    def derive(seed, *key):
        keys.append((seed, *key))
        return real(seed, *key)

    monkeypatch.setattr(evidence_mod, "_derive_seed", derive)
    return keys


NON_DRAWING = (VANILLA, ZvSpec(degree=2), ZvSpec(degree=2, penalty="ridge", lam=0.1),
               CfMethod(bandwidth=1.0), CfMethod(kind="polynomial"))


@pytest.mark.parametrize("method", NON_DRAWING, ids=method_label)
def test_vanilla_and_linear_reports_derive_no_seed(conjugate_run, monkeypatch, method):
    ps = conjugate_run[1]
    sched = ps.schedule()
    keys = count_derived_seeds(monkeypatch)
    cti_estimate(sched, ps, order=2, cv=method, seed=4)
    smc_evidence_estimate(sched, ps, cv=method, seed=4)
    assert keys == []


def test_a_lasso_report_derives_one_seed_per_expectation(conjugate_run, monkeypatch):
    ps = conjugate_run[1]
    sched = ps.schedule()
    lasso = ZvSpec(degree=2, penalty="lasso")
    keys = count_derived_seeds(monkeypatch)
    cti_estimate(sched, ps, order=2, cv=lasso, seed=4)
    assert keys == [(4, j, k) for j in range(len(sched)) for k in (0, 1)]
    keys.clear()
    smc_evidence_estimate(sched, ps, cv=lasso, seed=4)
    assert keys == [(4, j, 2) for j in range(1, len(sched))]


@pytest.fixture(scope="module")
def small_run():
    model = ConjugateGaussianModel(
        prior_mean=[0.0], prior_cov=[[1.0]], obs_cov=[[1.0]], data=[[0.3], [0.8]],
    )
    return run_smc(model, SmcConfig(n_particles=60, rho=0.5, seed=3, h_min=0.1,
                                    h_max=2.0, h_grid_size=3, max_repeats=5))


DRAWING = (ZvSpec(degree=2, penalty="lasso"), ZvSpec(degree=2, estimator="split"), CfMethod())


@pytest.mark.parametrize("method", DRAWING, ids=method_label)
def test_drawing_methods_read_the_seed_derived_for_each_expectation(small_run, method):
    # the reference derives every seed up front, as the reports once did
    seed, sched = 9, small_run.schedule()
    temps = sched.temperatures
    cti = cti_estimate(sched, fresh_copy(small_run), order=2, cv=method, seed=seed)
    smc = smc_evidence_estimate(sched, fresh_copy(small_run), cv=method, seed=seed)
    snaps = fresh_copy(small_run).snapshots
    sets = [snaps[k].sample_set(t) for t, k in zip(temps, sched.population_index)]
    derive = evidence_mod._derive_seed
    want_cti, want_smc = [], []
    for j, ss in enumerate(sets):
        ll = ss.log_like
        est_e = expectation_with_provenance(ss, ll, method, seed=derive(seed, j, 0)).estimate
        dev = ll - est_e
        want_cti += [est_e, expectation_with_provenance(ss, dev * dev, method,
                                                        seed=derive(seed, j, 1)).estimate]
    for j in range(1, len(temps)):
        dll = (temps[j] - temps[j - 1]) * sets[j - 1].log_like
        shift = float(np.max(dll))
        est = expectation_with_provenance(sets[j - 1], np.exp(dll - shift), method,
                                          ratio=True, seed=derive(seed, j, 2)).estimate
        want_smc.append(shift + float(np.log(est)))
    assert [r.estimate for r in cti.per_expectation] == want_cti
    assert [r.estimate for r in smc.per_expectation] == want_smc
