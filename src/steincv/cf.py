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
  Exponents more than 70 below the block's largest (a square kernel's
  diagonal, 0) are set to -inf before the exp, so neither the exp nor the
  Cholesky factor meets subnormal numbers, whose arithmetic costs several
  times more.  A factor dropped so is below exp(-70) ~ 4e-31 times its
  polynomial factor, some 20 orders of magnitude under the 1e-10 jitter
  that already perturbs every system, so it cannot move an estimate or a
  chosen bandwidth beyond the jitter's own effect; on the populations
  tested the CF weights stayed bitwise the same.
* ``polynomial``: the Gram matrix of the degree-Q second-order Stein
  covariates, K0 = X X^T.  With regulariser lambda_r this reproduces the
  unstandardised ridge ZV-CV estimate exactly.

For a fixed kernel the estimator is a fixed weighting of the draws,
a_hat = v^T phi with v = K^{-1} w~ / 1^T K^{-1} w~, so ``_cf_weights`` factorises
K once, solves once against w~ and keeps only the N weights: every integrand
on the same draws, kernel and lambda_r is then one inner product.  Every
factorisation runs in place in a C-ordered block (a fresh kernel, a fold's
gathered training block, a J x J Gram, the one array of the gaussian
weights), through its Fortran-ordered transpose, and reads and writes only
the block's upper triangle.  A failed try has the triangle it overwrote
rewritten: the gaussian weights refill it from their two factors, and any
other block copies it back from its intact lower triangle, so a retry
factorises that one: the same system for the exactly symmetric Grams X X^T
and X^T X, else one off by the gaussian kernel's rounding asymmetry
(measured up to 2e-15 of its largest entry).
The evidence layer keeps v in the memo of the SampleSet it weights, the one a
snapshot builds and keeps per temperature, so every report on one particle
system reuses it; ``cf_estimate`` keeps nothing.  The gaussian system is an
N x N Cholesky factor.  A snapshot's sets at several temperatures share the
draws, and with them the gaussian factor exp(c x.y - e_x - e_y) and its
floor; only the polynomial factor moves with t.  ``_gaussian_cf_weights``
is the one routine that builds gaussian weights, for one set or for a list:
it builds that factor once per run of sets on the same draws, with both
axes reversed, into one N x N array, whose strict lower triangle then holds
the factor's upper one, each row of it along a row of the array.  Each
set's kernel is written, a strip of rows at a time, into the upper triangle
of the same array and factorised there, so one N x N array serves all of a
report's temperatures.  The polynomial kernel has rank J, so while J < N
its system is solved in the J x J space of X^T X and no N x N matrix is
formed; J >= N (the paper's regime) keeps the N x N factor.

``cf_cv_bandwidth`` scores a grid of gaussian bandwidths by K-fold error in
two passes: the first fold of every bandwidth, then the rest of each in
ascending order of that first error, a bandwidth stopped once its running
error leaves the final choice's tie window.  Fold errors are nonnegative, so
under any order a stopped bandwidth could not have won, and the choice is
bitwise that of scoring every fold.  One kernel buffer, one scratch buffer
and one training-block buffer serve a whole search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .errors import ConditioningError, InvalidInput
from .polybasis import basis_size, design_columns, enumerate_exponents
from .regression import _fold_slices
from .samples import IntegrandValues, SampleSet, _as_int, _check_seed, check_aligned

_JITTER_DOUBLINGS = 8
# gaussian factors below exp(-70) ~ 4e-31 times a block's largest are set to 0
_EXP_FLOOR = -70.0
# rows of a gaussian kernel written per strip by _gaussian_cf_weights
_STRIP_ROWS = 64


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
        object.__setattr__(self, "degree", _as_int(self.degree, "polynomial order"))
        if self.kind not in ("gaussian", "polynomial"):
            raise InvalidInput(f"unknown kernel kind {self.kind!r}")
        if self.kind == "gaussian" and not 0 < self.bandwidth < np.inf:
            raise InvalidInput("gaussian bandwidth must be finite and positive")
        if self.kind == "polynomial" and self.degree < 1:
            raise InvalidInput("polynomial order must be >= 1")
        if self.jitter < 0:
            raise InvalidInput("jitter must be >= 0")


def _exponent_rows(theta, c):
    """Augmented rows [-e, 1, z] and [1, -e, z] with z = sqrt(c) x, and e.

    e = ||x||^2 / bw; a row of the first times a row of the second is
    c x.y - e_x - e_y.
    """
    z = np.sqrt(c) * theta                          # z_i . z_l = c x_i . y_l
    e = 0.5 * np.einsum("ij,ij->i", z, z)           # ||x||^2 / bw
    one = np.ones_like(e)
    return np.column_stack([-e, one, z]), np.column_stack([one, -e, z]), e


def _polynomial_rows(theta, grad, c, e):
    """Augmented rows [r, 1, W] and [1, r, W]; their product is W_x . W_y + r_x + r_y."""
    v = np.sqrt(0.5) * grad
    r = c * (np.einsum("ij,ij->i", theta, grad) + 0.5 * theta.shape[1]) - 2.0 * c * e
    W = np.column_stack([np.sqrt(2.0) * c * theta - v, v])
    one = np.ones_like(e)
    return np.column_stack([r, one, W]), np.column_stack([one, r, W])


def _floored_exp(K):
    """exp of an exponent block in place, entries below its largest - 70 set to 0.

    Those entries are raised to the floor before the exp and zeroed after it:
    exp of a subnormal result or of -inf takes numpy's slow path.
    """
    floor = K.max() + _EXP_FLOOR
    if not K.min() < floor:
        np.exp(K, out=K)
        return
    low = K < floor
    np.maximum(K, floor, out=K)
    np.exp(K, out=K)
    np.copyto(K, 0.0, where=low)


def _gaussian_stein_cross(theta, grad, bandwidth, *, out=None, scratch=None):
    """First-order Stein kernel for k = exp(-||x-y||^2 / bw) on one set of draws.

    The fused form of the module docstring as two products of augmented rows,
    [t_x, 1, m_x] . [1, t_y, m_y] = t_x + t_y + m_x . m_y; exp taken in place.
    ``out`` receives the kernel and ``scratch`` the polynomial factor, two
    N x N buffers the caller may reuse (fresh ones when None); the products
    are the same either way, so the kernel is bitwise the same.
    """
    c = 2.0 / bandwidth
    x_a, x_b, e = _exponent_rows(theta, c)
    K = np.matmul(x_a, x_b.T, out=out)
    _floored_exp(K)
    p_a, p_b = _polynomial_rows(theta, grad, c, e)
    K *= np.matmul(p_a, p_b.T, out=scratch)
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
        return _gaussian_stein_cross(s.theta, g, kernel.bandwidth)
    X = _design(s, kernel.degree)
    return X @ X.T


def _mirror_lower(A: np.ndarray):
    """Copy A's strict lower triangle over its upper one, row by row."""
    for i in range(A.shape[0] - 1):
        A[i, i + 1:] = A[i + 1:, i]


def _upper_is_finite(A: np.ndarray) -> bool:
    """Whether A's upper triangle is finite, checked ``_STRIP_ROWS`` rows at a time."""
    n = A.shape[0]
    upper = np.triu(np.ones((_STRIP_ROWS, _STRIP_ROWS), dtype=bool))
    for a in range(0, n, _STRIP_ROWS):
        b = min(a + _STRIP_ROWS, n)
        on_block = A[a:b, a:b][upper[:b - a, :b - a]]
        if not (np.isfinite(on_block).all() and np.isfinite(A[a:b, b:]).all()):
            return False
    return True


def _factor_in_place(A: np.ndarray, shift: float, jitter_scale: float,
                     size: int | None = None, refill=_mirror_lower):
    """Cholesky factor of symmetric A + (shift + jitter) I, in A's own memory.

    A is a C-ordered block the caller gives up: A^T, a Fortran-ordered view of
    the same bytes, is factorised in place, and each try sets its diagonal to
    (diag A + shift) + jitter.  jitter is jitter_scale times trace(A) / size
    (size defaults to the order of A, giving mean(diag A)) and doubles on each
    failure.  Only A's upper triangle is read and overwritten, so a matrix
    symmetric to rounding is factorised as that triangle, and the strict
    lower triangle may hold anything.  A failed try leaves the upper
    triangle scribbled over; ``refill(A)`` rewrites it before the retry.  By
    default it is copied back from A's intact strict lower triangle, and the
    retry factorises that one.  A non-finite system raises ConditioningError,
    as no jitter can rescue it: the diagonal is checked before the trace is
    taken, and the upper triangle on every try by ``_upper_is_finite``, in
    place of cho_factor's own check and its N x N boolean array.
    """
    d = np.diag(A)
    if not np.all(np.isfinite(d)):
        raise ConditioningError("kernel system has non-finite entries")
    base_diag = float(np.sum(d)) / (A.shape[0] if size is None else size)
    jitter = jitter_scale * base_diag if base_diag > 0 else jitter_scale
    diag = d + shift
    M = A.T
    on_diag = np.diag_indices_from(M)
    last = None
    for _ in range(_JITTER_DOUBLINGS + 1):
        M[on_diag] = diag + jitter
        if not _upper_is_finite(A):
            raise ConditioningError("kernel system has non-finite entries")
        try:
            return cho_factor(M, lower=True, overwrite_a=True, check_finite=False)
        except LinAlgError as exc:
            last = exc
            refill(A)                       # the triangle a failed try wrote
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


def _kernel_weights(K0: np.ndarray, shift: float, jitter_scale: float, wt: np.ndarray,
                    refill=_mirror_lower):
    """(Cholesky factor of K = K0 + shift I (+ jitter), CF weights of K and w~).

    K0 is factorised in place (see ``_factor_in_place``, which takes ``refill``).
    """
    factor = _factor_in_place(K0, shift, jitter_scale, refill=refill)
    # the factor is of a finite triangle, and w~ is finite
    return factor, _normalised_weights(cho_solve(factor, wt, check_finite=False))


def _cf_weights(s: SampleSet, kernel: KernelSpec, lam_r: float) -> np.ndarray:
    """CF weights v = K^{-1} w~ / 1^T K^{-1} w~ of K = K0 + N lam_r I (+ jitter).

    The estimate of E[f] is v @ f for every integrand f.  One jittered
    factorisation, in the kernel's own memory, and one solve; the factor is
    dropped on return.  The gaussian kernel is ``_gaussian_cf_weights`` on
    this one set.  For the polynomial kernel with J < N columns,
    K0 = X X^T and delta = N lam_r + jitter,

        delta K^{-1} w~ = w~ - X (delta I + X^T X)^{-1} X^T w~,

    which factorises only the J x J matrix; delta cancels in v.
    """
    if kernel.kind == "gaussian":
        return next(_gaussian_cf_weights([s], kernel, lam_r))
    n = s.count
    wt = n * s.weights
    if basis_size(s.dim, kernel.degree) < n:
        X = _design(s, kernel.degree)
        # jitter scales mean(diag X X^T) = trace(X^T X) / N, as in N-space
        factor = _factor_in_place(X.T @ X, n * lam_r, kernel.jitter, size=n)
        return _normalised_weights(wt - X @ cho_solve(factor, X.T @ wt, check_finite=False))
    return _kernel_weights(stein_kernel_matrix(s, kernel), n * lam_r, kernel.jitter, wt)[1]


def _gaussian_cf_weights(sets, kernel: KernelSpec, lam_r: float):
    """Yield the CF weights of a gaussian ``kernel`` for each of ``sets``, in order.

    The gaussian factor E = exp(c x.y - e_x - e_y) of K0 = E * P
    (elementwise) depends on theta only: it is built and floored once for
    each run of consecutive sets on the same theta array (a snapshot's sets
    at several temperatures share it).  E and each set's K0 share one N x N
    array A.  E is built from the reversed draws, E[i, j] = A[N-1-i, N-1-j],
    so its strict upper triangle lies along the rows of A's strict lower one,
    and diag(E) is kept apart.  ``fill`` writes K0's upper triangle into A's,
    ``_STRIP_ROWS`` rows at a time, each strip's P one matrix product, and
    never writes A's strict lower triangle.  The factor reads and writes only
    A's upper triangle, so E serves every set of its run, and a failed try
    is refilled the same way.  Raises InvalidInput at the first set whose
    gradients hold NaN, and ConditioningError at the first whose system
    stays singular.
    """
    c = 2.0 / kernel.bandwidth
    A = theta = None
    for s in sets:
        g = s.grad_log_target
        if np.any(np.isnan(g)):
            raise InvalidInput("gaussian Stein kernel needs all gradient columns")
        n = s.count
        if s.theta is not theta:
            theta = s.theta
            if A is None or A.shape[0] != n:
                A = None                    # at most one N x N array live
                A = np.empty((n, n))
                h = min(n, _STRIP_ROWS)
                # the entries of a strip's diagonal block above its diagonal
                upper = np.triu(np.ones((h, h), dtype=bool), 1)
            x_a, x_b, e = _exponent_rows(theta[::-1], c)
            np.matmul(x_a, x_b.T, out=A)
            _floored_exp(A)
            e_diag = np.diag(A)[::-1].copy()
            e = e[::-1]
        p_a, p_b = _polynomial_rows(theta, g, c, e)

        def fill(A):
            """E * P into A's upper triangle, strip by strip, E read from A."""
            E, diag = A[::-1, ::-1], A.reshape(-1)[::n + 1]
            for a in range(0, n, h):
                b = min(a + h, n)
                m = b - a
                P = p_a[a:b] @ p_b[a:].T
                np.multiply(P[:, m:], E[a:b, b:], out=A[a:b, b:])
                np.multiply(P[:, :m], E[a:b, a:b], out=A[a:b, a:b], where=upper[:m, :m])
                np.multiply(P.diagonal(), e_diag[a:b], out=diag[a:b])
                del P                       # one strip's product live at a time

        fill(A)
        yield _kernel_weights(A, n * lam_r, kernel.jitter, n * s.weights, refill=fill)[1]


def cf_estimate(s: SampleSet, phi: IntegrandValues, kernel: KernelSpec,
                lam_r: float = 0.0) -> float:
    """Control-functional estimate of E[phi].

    Importance weights enter only the outer inner products; the kernel system
    itself is unweighted.  lam_r = 0 is the interpolating estimator (weights
    drop out up to jitter).
    """
    check_aligned(s, phi)
    if not 0 <= lam_r < np.inf:
        raise InvalidInput("kernel regulariser must be finite and >= 0")
    return float(_cf_weights(s, kernel, lam_r) @ phi.values)


def default_bandwidth_grid() -> np.ndarray:
    """10^(-3 + 0.5 i) for i = 0..14: fifteen values from 1e-3 to 1e4."""
    return np.power(10.0, -3.0 + 0.5 * np.arange(15))


def cf_cv_bandwidth(s: SampleSet, phi: IntegrandValues, grid=None,
                    folds: int = 5, seed: int = 0) -> float:
    """Pick the gaussian bandwidth by K-fold surrogate prediction error.

    Each fold fits the interpolating surrogate on the remaining draws and
    scores mean squared prediction error on the held-out draws; ties resolve
    to the larger bandwidth.  A bandwidth's score is its fold errors summed
    in fold order.  Needs an integer number of folds, at least 2, a seed as
    ``_check_seed`` takes it, and a finite, positive grid.

    The search runs in two passes and stops scoring a bandwidth once its
    running error exceeds the cut best * (1 + 1e-12) + 1e-300, best being
    the least complete score so far: the tie window of the final choice.
    Pass 1 scores the first fold of every bandwidth, from the largest down;
    any order scores it, since a running error of 0 is never over a cut.
    Pass 2 takes the bandwidths in ascending order of that first error (a
    stable order, so ties go to the larger bandwidth) and finishes each
    whose running error stays within the cut; the first whose first error is
    infinite or over the cut ends the search, since every later one is too.
    Fold errors are nonnegative and a float sum of them never decreases, so
    a stopped bandwidth's full score would lie outside the final window,
    whatever the order; every bandwidth inside the window is scored in full,
    to the same float, and the choice is that of scoring every fold.  Taking
    the most promising bandwidths first tightens the cut early.  A stopped
    bandwidth, one whose fold fails to factorise and one with a non-finite
    fold error all score inf.

    One N x N kernel buffer, one N x N scratch buffer and one training-block
    buffer serve the whole search.  A bandwidth's kernel (its sub-exp(-70)
    factors dropped, see the module docstring) is built into the kernel
    buffer, with its polynomial factor in the scratch buffer; pass 2 rebuilds
    it there, bitwise the same.  Each fold gathers its training block, rows
    then columns through the scratch buffer, into the training buffer, which
    is factorised in place, and its hold-out rows the same way; the hold-out
    block is kept F-ordered, as a row-then-column index gather leaves it, so
    its product with the surrogate is the same float.
    """
    check_aligned(s, phi)
    grid = default_bandwidth_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all((grid > 0) & (grid < np.inf)):
        raise InvalidInput("bandwidth grid must be finite, positive and nonempty")
    folds = _as_int(folds, "folds")
    if folds < 2:
        raise InvalidInput("cross-validation needs at least 2 folds")
    _check_seed(seed)
    n = s.count
    if n < folds:
        raise InvalidInput(f"{n} draws cannot fill {folds} folds")
    theta, g = s.theta, s.grad_log_target
    if np.any(np.isnan(g)):
        raise InvalidInput("gaussian Stein kernel needs all gradient columns")
    splits = [(hold, np.delete(np.arange(n), hold)) for hold in _fold_slices(n, folds, seed)]
    f = phi.values
    jitter = KernelSpec().jitter
    K0, scratch = np.empty((n, n)), np.empty((n, n))
    block = np.empty(max(train.size for _, train in splits) ** 2)

    def fold_error(hold, train):
        # the fold indices are in range; with mode="raise" np.take would
        # write through a temporary, not straight into out
        h, m = hold.size, train.size
        A = block[:m * m].reshape(m, m)
        np.take(np.take(K0, train, axis=0, out=scratch[:m], mode="clip"), train, axis=1,
                out=A, mode="clip")
        factor, v = _kernel_weights(A, 0.0, jitter, np.ones(m))
        a = float(v @ f[train])
        # the factor is of a finite triangle, and f is finite
        alpha = cho_solve(factor, f[train] - a, check_finite=False)
        rows = np.take(K0, hold, axis=0, out=scratch[:h], mode="clip")
        # F-ordered, as K0[hold][:, train] is, so the product below is the same float
        cross = scratch[h:].reshape(-1)[:h * m].reshape(m, h).T
        np.take(rows, train, axis=1, out=cross, mode="clip")
        return float(np.mean((f[hold] - (a + cross @ alpha)) ** 2))

    def score(some_splits, err, cut):
        """err plus the errors of ``some_splits`` in order; inf once over the cut."""
        for hold, train in some_splits:
            try:
                err += fold_error(hold, train)
            except ConditioningError:
                return np.inf
            if not err <= cut:              # NaN too: this bandwidth cannot win
                return np.inf
        return err

    def build(gi):
        _gaussian_stein_cross(theta, g, float(grid[gi]), out=K0, scratch=scratch)

    by_size = np.argsort(-grid, kind="stable")
    partial = np.empty(grid.size)           # first-fold errors, NaN as inf
    for gi in by_size:
        build(gi)
        partial[gi] = score(splits[:1], 0.0, np.inf)
    scores = np.full(grid.size, np.inf)
    cut = np.inf
    for k, gi in enumerate(by_size[np.argsort(partial[by_size], kind="stable")]):
        if partial[gi] > cut or partial[gi] == np.inf:
            break                           # and every bandwidth after it
        if k or gi != by_size[-1]:          # the last kernel pass 1 built is still in K0
            build(gi)
        scores[gi] = score(splits[1:], partial[gi], cut)
        cut = min(cut, scores[gi] * (1 + 1e-12) + 1e-300)
    best = float(np.min(scores))
    if not np.isfinite(best):
        raise ConditioningError("every candidate bandwidth failed to factorise")
    # the largest bandwidth among the (near-)minimisers wins
    return float(np.max(grid[scores <= best * (1 + 1e-12) + 1e-300]))
