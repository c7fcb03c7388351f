"""Shared test helpers: finite-difference and lasso oracles, a one-dimensional
snapshot, a counter of gaussian CF factors, archive fixtures, the acceptance
tally, and the fixed hypothesis profile."""

import json

import numpy as np
import pytest
from hypothesis import settings

import steincv.cf as cf_mod
from steincv.samples import write_sample_csv
from steincv.smc import Snapshot

# Fixed hypothesis examples, so every run of the suite draws the same ones;
# each test keeps its own max_examples.
settings.register_profile("fixed", derandomize=True, deadline=None, database=None)
settings.load_profile("fixed")


def fd_gradient(fn, x, eps=1e-5):
    """Central-difference gradient of a scalar function at a single point."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[j] += eps
        dn[j] -= eps
        g[j] = (fn(up) - fn(dn)) / (2.0 * eps)
    return g


def rel_err(approx, exact, floor=1e-10):
    """Vector relative error ||a - b|| / max(||b||, floor)."""
    a = np.asarray(approx, dtype=float).ravel()
    b = np.asarray(exact, dtype=float).ravel()
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), floor))


def standardise_oracle(X, f, w):
    """Independent reimplementation of the documented standardisation.

    Centred by the weighted mean, scaled by the reliability-weighted sd
    (denominator 1 - sum w^2).
    """
    denom = 1.0 - float(w @ w)
    xm = w @ X
    Xc = X - xm
    x_sd = np.sqrt(w @ (Xc * Xc) / denom)
    fm = float(w @ f)
    fc = f - fm
    f_sd = float(np.sqrt(w @ (fc * fc) / denom))
    return Xc / x_sd, fc / f_sd, x_sd, f_sd


def kkt_violation(X, f, w, fit):
    """Max KKT residual of the standardised lasso problem at the fit."""
    w = w / w.sum()
    X_s, f_s, _, _ = standardise_oracle(X, f, w)
    gamma = -fit.beta_s
    corr = X_s.T @ (w * (f_s - X_s @ gamma))
    active = gamma != 0.0
    viol = np.abs(corr) - fit.lam
    viol[active] = np.abs(corr[active] - fit.lam * np.sign(gamma[active]))
    return float(np.max(viol, initial=0.0))


# --- snapshot archives ----------------------------------------------------


def unit_snapshot(n, t, seed):
    """n draws from N(0, 1) at temperature t, under the likelihood N(1; theta, 1)."""
    theta = np.random.default_rng(seed).normal(size=(n, 1))
    return Snapshot(t=t, theta=theta, weights=np.full(n, 1 / n),
                    log_like=-0.5 * (theta[:, 0] - 1.0) ** 2, log_prior=-0.5 * theta[:, 0] ** 2,
                    grad_log_like=1.0 - theta, grad_log_prior=-theta)


def count_gaussian_factors(monkeypatch) -> list:
    """Record every floored-exp pass, i.e. every gaussian factor E built."""
    built = []
    real = cf_mod._floored_exp

    def counted(K):
        built.append(K.shape)
        return real(K)

    monkeypatch.setattr(cf_mod, "_floored_exp", counted)
    return built


def rewrite_as_csv_archive(ps, arch):
    """Turn the archive of ``ps`` in ``arch`` into the layout written before
    binary snapshots: one ``write_sample_csv`` file per temperature and a
    manifest without ``"format"``."""
    for i, snap in enumerate(ps.snapshots):
        write_sample_csv(snap.sample_set(), arch / f"t_{i:03d}.csv")
        (arch / f"t_{i:03d}.npy").unlink()
    manifest = json.loads((arch / "manifest.json").read_text())
    del manifest["format"]
    (arch / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _resave(arch, edit):
    path = arch / "t_001.npy"
    np.save(path, edit(np.load(path)), allow_pickle=True)


def _cut(arch, keep):
    path = arch / "t_001.npy"
    path.write_bytes(path.read_bytes()[:keep(path.stat().st_size)])


def _set_format(arch, fmt):
    manifest = json.loads((arch / "manifest.json").read_text())
    manifest["format"] = fmt
    (arch / "manifest.json").write_text(json.dumps(manifest))


# One corruption of snapshot t_001 (or of the manifest's format) per entry.
MALFORMED_NPY = {
    "truncated": lambda arch: _cut(arch, lambda size: size // 2),
    "empty": lambda arch: _cut(arch, lambda size: 0),
    "pickled": lambda arch: _resave(arch, lambda a: np.array([{"theta": a}], dtype=object)),
    "float32": lambda arch: _resave(arch, lambda a: a.astype(np.float32)),
    "wrong_width": lambda arch: _resave(arch, lambda a: a[:, :-1]),
    "wrong_rows": lambda arch: _resave(arch, lambda a: a[: len(a) // 2]),
    "unknown_format": lambda arch: _set_format(arch, "parquet"),
}


def _set_temperature(i, t):
    def edit(manifest):
        manifest["temperatures"][i] = t
    return edit


# One edit of an archive manifest per entry; every loader and command rejects each.
MALFORMED_MANIFEST = {
    "unknown_config_key": lambda m: m["config"].update(colour="blue"),
    "short_log_increments": lambda m: m["log_increments"].pop(),
    "text_acceptance": lambda m: m.update(acceptance="high"),
    "no_step_sizes": lambda m: m.pop("step_sizes"),
    "no_n_particles": lambda m: m.pop("n_particles"),
    "unknown_format": lambda m: m.update(format="parquet"),
    "reversed_temperatures": lambda m: m["temperatures"].reverse(),
    "last_temperature_0.9": _set_temperature(-1, 0.9),
    "nan_interior_temperature": _set_temperature(1, float("nan")),
    "stratified_resampling": lambda m: m["config"].update(resampling="stratified"),
}


# --- acceptance tally -----------------------------------------------------
#
# test_acceptance.py registers one verdict per criterion; the summary hook
# prints one PASS/FAIL line each, visible regardless of capture settings.

_CRITERIA: dict[int, tuple[str, bool]] = {}


@pytest.fixture
def criterion():
    def record(num: int, description: str, ok: bool) -> bool:
        _CRITERIA[num] = (description, bool(ok))
        return bool(ok)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        desc, ok = _CRITERIA[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num:2d} [{verdict}] {desc}")
