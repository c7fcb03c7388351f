"""Shared test helpers: finite-difference and lasso oracles, the acceptance tally."""

import numpy as np
import pytest


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
