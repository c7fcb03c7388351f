import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from steincv.errors import BasisTooLarge, InvalidInput
from steincv.polybasis import (
    MAX_BASIS_ROWS,
    ExponentMatrix,
    SubsetSpec,
    basis_size,
    build_design_matrix,
    design_columns,
    enumerate_exponents,
    stein_covariates,
)
from steincv.samples import SampleSet


def test_basis_size_formula():
    for d in (1, 2, 5, 11):
        for q in (1, 2, 3, 4):
            assert basis_size(d, q) == math.comb(d + q, d) - 1


def test_graded_order_d2_q2():
    # ascending degree, descending lexicographic inside a degree
    A = enumerate_exponents(2, 2)
    assert_array_equal(A.A, [[1, 0], [0, 1], [2, 0], [1, 1], [0, 2]])


def test_graded_order_d1():
    A = enumerate_exponents(1, 4)
    assert_array_equal(A.A, [[1], [2], [3], [4]])


@given(d=st.integers(1, 5), q=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_enumeration_count_and_validity(d, q):
    A = enumerate_exponents(d, q)
    assert A.count == basis_size(d, q)
    sums = A.A.sum(axis=1)
    assert sums.min() >= 1 and sums.max() <= q
    # rows are unique
    assert len({tuple(r) for r in A.A}) == A.count


def test_degree_one_design_is_the_gradient():
    rng = np.random.default_rng(0)
    theta = rng.normal(size=(9, 3))
    grad = rng.normal(size=(9, 3))
    s = SampleSet(theta=theta, grad_log_target=grad, weights=None)
    X = build_design_matrix(s, enumerate_exponents(3, 1))
    assert_allclose(X, grad, rtol=0, atol=0)


def test_basis_cap():
    # C(45, 5) - 1 = 1221758 rows exceeds the 1e6 cap
    assert basis_size(40, 5) > MAX_BASIS_ROWS
    with pytest.raises(BasisTooLarge):
        enumerate_exponents(40, 5)
    # cap check happens before allocation, so a custom cap binds too
    with pytest.raises(BasisTooLarge):
        enumerate_exponents(4, 2, max_rows=5)


def test_bad_arguments():
    with pytest.raises(InvalidInput):
        enumerate_exponents(0, 2)
    with pytest.raises(InvalidInput):
        enumerate_exponents(2, 0)


# --- subsets -------------------------------------------------------------------


def test_subset_validation():
    with pytest.raises(InvalidInput):
        SubsetSpec(())
    with pytest.raises(InvalidInput):
        SubsetSpec((2, 1))          # not increasing
    with pytest.raises(InvalidInput):
        SubsetSpec((0, 0, 1))       # duplicate
    with pytest.raises(InvalidInput):
        SubsetSpec((-1,))
    SubsetSpec((0, 2)).validate_dim(3)
    with pytest.raises(InvalidInput):
        SubsetSpec((0, 3)).validate_dim(3)


def test_subset_rows_match_lower_dimensional_basis():
    sub = SubsetSpec((0, 2))
    A = enumerate_exponents(4, 3, subset=sub)
    assert A.count == basis_size(2, 3)
    # off-subset columns identically zero; on-subset block equals the 2-d basis
    assert np.all(A.A[:, [1, 3]] == 0)
    A2 = enumerate_exponents(2, 3)
    assert_array_equal(A.A[:, [0, 2]], A2.A)


def test_subset_design_reads_only_masked_columns():
    """NaN gradients off the subset must not poison subset covariates."""
    rng = np.random.default_rng(4)
    theta = rng.normal(size=(6, 3))
    grad = rng.normal(size=(6, 3))
    grad[:, 1] = np.nan
    s = SampleSet(theta=theta, grad_log_target=grad, weights=None)
    X = build_design_matrix(s, enumerate_exponents(3, 2, subset=SubsetSpec((0, 2))))
    assert np.all(np.isfinite(X))
    with pytest.raises(InvalidInput):
        build_design_matrix(s, enumerate_exponents(3, 2))


# --- Stein operator oracle ------------------------------------------------------


def _fd_operator(a, theta, grad_fn, eps=1e-4):
    """Finite-difference Delta m + grad m . s for monomial exponents a at theta."""

    def mono(x):
        return float(np.prod(x**a))

    d = theta.size
    lap = 0.0
    g = np.zeros(d)
    for k in range(d):
        up = theta.copy()
        dn = theta.copy()
        up[k] += eps
        dn[k] -= eps
        lap += (mono(up) - 2.0 * mono(theta) + mono(dn)) / eps**2
        g[k] = (mono(up) - mono(dn)) / (2.0 * eps)
    return lap + float(g @ grad_fn(theta))


def test_stein_covariates_match_fd_operator():
    rng = np.random.default_rng(7)
    # smooth non-Gaussian score so second-order terms matter
    B = rng.normal(size=(3, 3))

    def score(x):
        pad = np.zeros(3)
        pad[: x.size] = x
        s = -pad + 0.5 * np.sin(B @ pad)
        return s[: x.size]

    for _ in range(25):
        d = int(rng.integers(1, 4))
        q = int(rng.integers(1, 5))
        theta = rng.normal(size=d)
        A = enumerate_exponents(d, q)
        x = stein_covariates(A, theta, score(theta))
        expected = np.array([_fd_operator(a, theta, score) for a in A.A])
        scale = max(float(np.max(np.abs(expected))), 1.0)
        assert np.max(np.abs(x - expected)) / scale < 1e-4


def test_operator_hand_case_one_dim():
    # m = t^3: operator value 6t + 3t^2 s
    A = ExponentMatrix(A=np.array([[3]]), degree=3, dim=1)
    val = stein_covariates(A, np.array([2.0]), np.array([-0.5]))
    assert val[0] == pytest.approx(6 * 2.0 + 3 * 4.0 * (-0.5))


def test_operator_hand_case_cross_term():
    # m = t1 * t2: Delta m = 0, grad m = (t2, t1)
    A = ExponentMatrix(A=np.array([[1, 1]]), degree=2, dim=2)
    theta = np.array([3.0, -2.0])
    s = np.array([0.7, 1.3])
    val = stein_covariates(A, theta, s)
    assert val[0] == pytest.approx(-2.0 * 0.7 + 3.0 * 1.3)


def test_zero_power_convention_at_origin():
    # 0^0 = 1 and no negative powers: x for m = t^2 at t = 0 is 2 (the Laplacian)
    A = ExponentMatrix(A=np.array([[2]]), degree=2, dim=1)
    val = stein_covariates(A, np.array([0.0]), np.array([5.0]))
    assert val[0] == pytest.approx(2.0)


def test_design_columns_vectorised_equals_per_draw():
    rng = np.random.default_rng(12)
    theta = rng.normal(size=(5, 2))
    grad = rng.normal(size=(5, 2))
    A = enumerate_exponents(2, 3)
    X = design_columns(A.A, theta, grad)
    rows = np.stack([stein_covariates(A, theta[i], grad[i]) for i in range(5)])
    assert_allclose(X, rows, rtol=1e-14)


def test_design_of_many_draws_stacks_the_designs_of_its_halves():
    rng = np.random.default_rng(13)
    theta = rng.normal(size=(9000, 2))
    grad = rng.normal(size=(9000, 2))
    A = enumerate_exponents(2, 3).A
    halves = [design_columns(A, theta[sl], grad[sl]) for sl in (slice(4500), slice(4500, None))]
    assert np.array_equal(design_columns(A, theta, grad), np.vstack(halves))


def test_exponent_matrix_validation():
    with pytest.raises(InvalidInput):
        ExponentMatrix(A=np.array([[0, 0]]), degree=2, dim=2)   # constant row
    with pytest.raises(InvalidInput):
        ExponentMatrix(A=np.array([[3, 0]]), degree=2, dim=2)   # above degree
    with pytest.raises(InvalidInput):
        ExponentMatrix(A=np.array([[1, -1]]), degree=2, dim=2)  # negative
