"""Graded monomial bases and their second-order Stein covariates.

A monomial P(theta) = prod_k theta_k^{a_k} is mapped to the covariate

    x(theta) = laplacian P(theta) + grad P(theta) . grad log p(theta),

which has expectation zero under p whenever p has enough regularity.  For a
total-degree-Q basis in d coordinates there are J = C(d + Q, d) - 1 such
covariates (the constant monomial drops out).  Degree 1 reproduces the
gradient itself: x_k(theta) = d log p / d theta_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import BasisTooLarge, InvalidInput
from .samples import SampleSet

MAX_BASIS_ROWS = 1_000_000


@dataclass(frozen=True)
class SubsetSpec:
    """Sorted 0-based coordinate indices a basis is restricted to."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(idx) == 0:
            raise InvalidInput("subset must be nonempty")
        if sorted(set(idx)) != list(idx):
            raise InvalidInput("subset indices must be strictly increasing")
        if idx[0] < 0:
            raise InvalidInput("subset indices must be nonnegative")
        object.__setattr__(self, "indices", idx)

    def validate_dim(self, dim: int) -> None:
        if self.indices[-1] >= dim:
            raise InvalidInput(
                f"subset index {self.indices[-1]} out of range for dim {dim}"
            )

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ExponentMatrix:
    """Integer exponent rows A (J, d), graded order, degrees 1..Q.

    Rows are sorted by ascending total degree and, within a degree, by
    descending lexicographic order on the exponent tuple, e.g. for d = 2,
    Q = 2: (1,0), (0,1), (2,0), (1,1), (0,2).
    """

    A: np.ndarray
    degree: int
    dim: int

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.int64)
        if A.ndim != 2 or A.shape[1] != self.dim:
            raise InvalidInput("exponent matrix must be (J, dim)")
        sums = A.sum(axis=1)
        if A.shape[0] and (np.any(A < 0) or np.any(sums < 1) or np.any(sums > self.degree)):
            raise InvalidInput("exponent rows must have total degree in 1..Q")
        A = np.ascontiguousarray(A)
        A.setflags(write=False)
        object.__setattr__(self, "A", A)

    @property
    def count(self) -> int:
        return self.A.shape[0]


def basis_size(dim: int, degree: int) -> int:
    """Number of non-constant monomials of total degree <= degree."""
    return comb(dim + degree, dim) - 1


def _compositions(total: int, parts: int):
    # all nonnegative integer tuples summing to `total`, descending lex
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_exponents(
    dim: int, degree: int, subset: SubsetSpec | None = None, max_rows: int = MAX_BASIS_ROWS
) -> ExponentMatrix:
    """All exponent rows for a total-degree basis, graded order.

    With a subset S, exponents are zero off S and the count is
    C(|S| + Q, |S|) - 1.  The size check runs before any allocation and
    raises BasisTooLarge past ``max_rows``.
    """
    if dim < 1:
        raise InvalidInput("dim must be >= 1")
    if degree < 1:
        raise InvalidInput("degree must be >= 1")
    if subset is not None:
        subset.validate_dim(dim)
        active = list(subset.indices)
    else:
        active = list(range(dim))
    m = len(active)
    count = basis_size(m, degree)
    if count > max_rows:
        raise BasisTooLarge(
            f"basis has {count} rows for dim {m}, degree {degree} (cap {max_rows})",
            rows=count,
            cap=max_rows,
        )
    A = np.zeros((count, dim), dtype=np.int64)
    r = 0
    for q in range(1, degree + 1):
        for compo in _compositions(q, m):
            A[r, active] = compo
            r += 1
    return ExponentMatrix(A=A, degree=degree, dim=dim)


def _check_active_gradients(A: np.ndarray, grad: np.ndarray) -> None:
    # NaN gradients are legal only on coordinates no monomial touches
    active = np.flatnonzero(A.sum(axis=0) > 0)
    if active.size and np.any(np.isnan(grad[:, active])):
        raise InvalidInput("basis touches a NaN-masked gradient column")


def design_columns(A: np.ndarray, theta: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Stein covariate matrix (N, J) for exponent rows A at raw arrays.

    Column j evaluates
        sum_k a_k [theta_k^{a_k-1} g_k + (a_k-1) theta_k^{a_k-2}]
              * prod_{z != k} theta_z^{a_z}
    with the 0^0 = 1 convention and no negative powers ever formed.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.asarray(grad, dtype=float)
    n = theta.shape[0]
    J = A.shape[0]
    _check_active_gradients(A, grad)
    X = np.empty((n, J))
    for j in range(J):
        a = A[j]
        active = np.flatnonzero(a)
        # powers of each active coordinate at its own exponent
        pw = {int(k): theta[:, k] ** a[k] for k in active}
        col = np.zeros(n)
        for k in active:
            ak = int(a[k])
            rest = np.ones(n)
            for z in active:
                if z != k:
                    rest = rest * pw[int(z)]
            term = (theta[:, k] ** (ak - 1)) * grad[:, k]
            if ak >= 2:
                term = term + (ak - 1) * theta[:, k] ** (ak - 2)
            col += ak * term * rest
        X[:, j] = col
    return X


def stein_covariates(A: ExponentMatrix, theta, grad) -> np.ndarray:
    """Covariate vector (J,) for a single draw."""
    theta = np.asarray(theta, dtype=float).reshape(1, -1)
    grad = np.asarray(grad, dtype=float).reshape(1, -1)
    if theta.shape[1] != A.dim or grad.shape[1] != A.dim:
        raise InvalidInput("theta/grad dimension mismatch with exponent matrix")
    return design_columns(A.A, theta, grad)[0]


def build_design_matrix(s: SampleSet, A: ExponentMatrix) -> np.ndarray:
    """Covariate design matrix (N, J) for a SampleSet."""
    if A.dim != s.dim:
        raise InvalidInput("exponent matrix dimension mismatch with samples")
    return design_columns(A.A, s.theta, s.grad_log_target)
