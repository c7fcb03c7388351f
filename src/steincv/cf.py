"""Kernel control functionals with Stein-modified base kernels.

The estimator interpolates phi with a constant offset plus an RKHS element
whose kernel K0 has zero expectation in each argument under the target.  With
K = K0 + N * lambda_r * I (plus a small diagonal jitter for conditioning), the
estimate is

    a_hat = (w~^T K^{-1} phi) / (w~^T K^{-1} 1),    w~ = N * weights,

which for uniform weights is the usual constant-offset form.

Two base kernels are supported:

* ``gaussian``: k(x, y) = exp(-||x - y||^2 / bandwidth), turned into a Stein
  kernel with the first-order (Langevin) operator applied in both arguments:
  K0 = div_x div_y k + grad_x k . u(y) + grad_y k . u(x) + k u(x).u(y) with
  u = grad log target.  The core is bilinear in [x, u]; with c = 2 / bandwidth,
  e = ||x||^2 / bandwidth, W = [x, u] L = [sqrt(2) c x - u/sqrt(2), u/sqrt(2)]
  (L L^T = [[2c^2, -c], [-c, 1]]) and r = c x.u - c^2 ||x||^2 + c d / 2,
      K0(x, y) = exp(c x.y - e_x - e_y) (W_x . W_y + r_x + r_y),
  built in one fused pass of two matrix products.  The square kernel is
  symmetric to rounding, not bitwise, and is not symmetrised afterwards.
* ``polynomial``: the Gram matrix of the degree-Q second-order Stein
  covariates, K0 = X X^T.  With regulariser lambda_r this reproduces the
  unstandardised ridge ZV-CV estimate exactly.

For a fixed kernel the estimator is a fixed weighting of the draws,
a_hat = v^T phi with v = K^{-1} w~ / 1^T K^{-1} w~, so ``_cf_weights`` factorises
K once, solves once against w~ and keeps only the N weights: every integrand
on the same draws, kernel and lambda_r is then one inner product, and the
evidence reports on one particle system share v across calls.  The gaussian
system is an N x N Cholesky factor.  The polynomial kernel has rank J, so
while J < N its system is solved in the J x J space of X^T X and no N x N
matrix is formed; J >= N (the paper's regime) keeps the N x N factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .errors import ConditioningError, InvalidInput
from .polybasis import basis_size, design_columns, enumerate_exponents
from .regression import _fold_slices
from .samples import IntegrandValues, SampleSet, check_aligned

_JITTER_DOUBLINGS = 8


@dataclass(frozen=True)
class KernelSpec:
    """Stein kernel configuration.

    ``bandwidth`` is the squared-distance scale of the gaussian kernel (no
    factor 2); ``degree`` is the polynomial order of the covariate Gram
    kernel.  ``jitter`` scales mean(diag K0) and is doubled on factorisation
    failure up to 8 times.  For the polynomial kernel mean(diag K0) is
    ||X||_F^2 / N, and in J-space the jittered diagonal shift
    N lambda_r + jitter * ||X||_F^2 / N is added to X^T X instead of X X^T;
    at jitter 0 and lambda_r 0 that is the limit of a vanishing shift.
    """

    kind: str = "gaussian"
    bandwidth: float = 1.0
    degree: int = 2
    jitter: float = 1e-10

    def __post_init__(self):
        if self.kind not in ("gaussian", "polynomial"):
            raise InvalidInput(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian" and not self.bandwidth > 0:
            raise InvalidInput("gaussian bandwidth must be positive")
        if self.kind == "polynomial" and self.degree < 1:
            raise InvalidInput("polynomial order must be >= 1")
        if self.jitter < 0:
            raise InvalidInput("jitter must be >= 0")

    def label(self) -> str:
        if self.kind == "gaussian":
            return f"cf:gaussian:bw={self.bandwidth:g}"
        return f"cf:poly:Q={self.degree}"


def _gaussian_stein_cross(theta_a, grad_a, theta_b, grad_b, bandwidth):
    """First-order Stein kernel for k = exp(-||x-y||^2 / bw), cross block.

    The fused form of the module docstring as two products of augmented rows,
    [t_a, 1, m_a] . [1, t_b, m_b] = t_a + t_b + m_a . m_b; exp taken in place.
    """
    c = 2.0 / bandwidth

    def terms(theta, grad):
        z = np.sqrt(c) * theta                      # z_i . z_l = c x_i . y_l
        e = 0.5 * np.einsum("ij,ij->i", z, z)       # ||x||^2 / bw
        v = np.sqrt(0.5) * grad
        r = c * (np.einsum("ij,ij->i", theta, grad) + 0.5 * theta.shape[1]) - 2.0 * c * e
        return z, -e, np.column_stack([np.sqrt(2.0) * c * theta - v, v]), r, np.ones_like(e)

    z_a, ne_a, W_a, r_a, one_a = terms(theta_a, grad_a)
    z_b, ne_b, W_b, r_b, one_b = terms(theta_b, grad_b)
    K = np.column_stack([ne_a, one_a, z_a]) @ np.column_stack([one_b, ne_b, z_b]).T
    np.exp(K, out=K)
    K *= np.column_stack([r_a, one_a, W_a]) @ np.column_stack([one_b, r_b, W_b]).T
    return K


def _design(s: SampleSet, degree: int) -> np.ndarray:
    A = enumerate_exponents(s.dim, degree)
    return design_columns(A.A, s.theta, s.grad_log_target)


def stein_kernel_matrix(s: SampleSet, kernel: KernelSpec) -> np.ndarray:
    """PSD K0 indexed by the draws; the gaussian K0 = exp(c x.y - e_x - e_y)
    (W_x . W_y + r_x + r_y) is symmetric to rounding (e, r added in either order)."""
    if kernel.kind == "gaussian":
        g = s.grad_log_target
        if np.any(np.isnan(g)):
            raise InvalidInput("gaussian Stein kernel needs all gradient columns")
        return _gaussian_stein_cross(s.theta, g, s.theta, g, kernel.bandwidth)
    X = _design(s, kernel.degree)
    return X @ X.T


def _factor_with_jitter(A: np.ndarray, shift: float, jitter_scale: float,
                        base_diag: float):
    """Cholesky factor of symmetric A + (shift + jitter) I, doubling jitter on failure.

    One Fortran-ordered working copy of A^T (for a C-ordered A, already in
    Fortran order) is factorised in place; each try sets its diagonal to
    (diag A + shift) + jitter.  Only one triangle is read, so a matrix
    symmetric to rounding is factorised as that triangle.
    """
    jitter = jitter_scale * base_diag if base_diag > 0 else jitter_scale
    diag = np.diag(A) + shift
    M = np.array(A.T, order="F")
    on_diag = np.diag_indices_from(M)
    last = None
    for _ in range(_JITTER_DOUBLINGS + 1):
        M[on_diag] = diag + jitter
        try:
            return cho_factor(M, lower=True, overwrite_a=True)
        except LinAlgError as exc:
            last = exc
            M[...] = A.T                    # undo a partial factorisation
            jitter = max(jitter * 2.0, np.finfo(float).tiny)
    raise ConditioningError(
        "kernel system stayed non-positive-definite after jitter escalation",
        jitter=jitter,
    ) from last


def _normalised_weights(u: np.ndarray) -> np.ndarray:
    """u / 1^T u, read-only; u is proportional to K^{-1} w~."""
    denom = float(np.sum(u))
    if denom == 0.0 or not np.isfinite(denom):
        raise ConditioningError("degenerate kernel system: w~^T K^{-1} 1 is zero")
    v = u / denom
    v.setflags(write=False)
    return v


def _kernel_weights(K0: np.ndarray, shift: float, jitter_scale: float, wt: np.ndarray):
    """(Cholesky factor of K = K0 + shift I (+ jitter), CF weights of K and w~)."""
    factor = _factor_with_jitter(K0, shift, jitter_scale, float(np.mean(np.diag(K0))))
    # the factor passed cho_factor's finiteness check, and w~ is finite
    return factor, _normalised_weights(cho_solve(factor, wt, check_finite=False))


def _cf_weights(s: SampleSet, kernel: KernelSpec, lam_r: float) -> np.ndarray:
    """CF weights v = K^{-1} w~ / 1^T K^{-1} w~ of K = K0 + N lam_r I (+ jitter).

    The estimate of E[f] is v @ f for every integrand f.  One jittered
    factorisation and one solve; the factor is dropped on return.  For the
    polynomial kernel with J < N columns, K0 = X X^T and
    delta = N lam_r + jitter,

        delta K^{-1} w~ = w~ - X (delta I + X^T X)^{-1} X^T w~,

    which factorises only the J x J matrix; delta cancels in v.
    """
    n = s.count
    wt = n * s.weights
    if kernel.kind == "polynomial" and basis_size(s.dim, kernel.degree) < n:
        X = _design(s, kernel.degree)
        G = X.T @ X
        # jitter scales mean(diag X X^T) = trace(X^T X) / N, as in N-space
        factor = _factor_with_jitter(G, n * lam_r, kernel.jitter, float(np.trace(G)) / n)
        return _normalised_weights(wt - X @ cho_solve(factor, X.T @ wt, check_finite=False))
    return _kernel_weights(stein_kernel_matrix(s, kernel), n * lam_r, kernel.jitter, wt)[1]


def cf_estimate(s: SampleSet, phi: IntegrandValues, kernel: KernelSpec,
                lam_r: float = 0.0) -> float:
    """Control-functional estimate of E[phi].

    Importance weights enter only the outer inner products; the kernel system
    itself is unweighted.  lam_r = 0 is the interpolating estimator (weights
    drop out up to jitter).
    """
    check_aligned(s, phi)
    if lam_r < 0:
        raise InvalidInput("kernel regulariser must be >= 0")
    return float(_cf_weights(s, kernel, lam_r) @ phi.values)


def default_bandwidth_grid() -> np.ndarray:
    """10^(-3 + 0.5 i) for i = 0..14: fifteen values from 1e-3 to 1e4."""
    return np.power(10.0, -3.0 + 0.5 * np.arange(15))


def cf_cv_bandwidth(s: SampleSet, phi: IntegrandValues, grid=None,
                    folds: int = 5, seed: int = 0) -> float:
    """Pick the gaussian bandwidth by K-fold surrogate prediction error.

    Each fold fits the interpolating surrogate on the remaining draws and
    scores mean squared prediction error on the held-out draws; ties resolve
    to the larger bandwidth.
    """
    check_aligned(s, phi)
    grid = default_bandwidth_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(grid <= 0):
        raise InvalidInput("bandwidth grid must be positive and nonempty")
    n = s.count
    if n < folds:
        raise InvalidInput(f"{n} draws cannot fill {folds} folds")
    splits = [(hold, np.delete(np.arange(n), hold)) for hold in _fold_slices(n, folds, seed)]
    f = phi.values
    scores = np.zeros(grid.size)
    for gi, bw in enumerate(grid):
        # every fold's training and hold-out blocks come from this one kernel
        K0 = stein_kernel_matrix(s, KernelSpec(bandwidth=float(bw)))
        err = 0.0
        for hold, train in splits:
            try:
                factor, v = _kernel_weights(K0[np.ix_(train, train)], 0.0, 1e-10,
                                            np.ones(train.size))
            except ConditioningError:
                err = np.inf
                break
            a = float(v @ f[train])
            alpha = cho_solve(factor, f[train] - a)
            pred = a + K0[np.ix_(hold, train)] @ alpha
            err += float(np.mean((f[hold] - pred) ** 2))
        scores[gi] = err
    best = float(np.min(scores))
    if not np.isfinite(best):
        raise ConditioningError("every candidate bandwidth failed to factorise")
    # the largest bandwidth among the (near-)minimisers wins
    return float(np.max(grid[scores <= best * (1 + 1e-12) + 1e-300]))
