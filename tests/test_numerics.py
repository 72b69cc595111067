"""Quadrature rules, small eigensolvers and root refinement.

Oracles: Beta-function moments for the Jacobi rules, the classical
closed-form spectrum of the discrete Laplacian, and characteristic
polynomial roots (Faddeev-LeVerrier coefficients + mpmath solve) for the
dense eigensolver.
"""
import math

import mpmath
import numpy as np
import pytest

from hprofile import spectrum
from hprofile.geometry import ProfileParams
from hprofile.numerics import (bisect_root, gauss_jacobi_rule,
                               hessenberg_qr_eigenvalues,
                               integrate_profile_radial, profile_rule,
                               sym_tridiag_eigen)
from hprofile.spectrum import even_condition_value, radial_eigenfunction

mpmath.mp.dps = 40


def _beta(p, q):
    return math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))


# --- Gauss-Jacobi rules -------------------------------------------------------

def test_one_point_rule_is_weight_mean():
    for alpha, beta in ((-0.5, 0.5), (0.0, 0.0), (-0.5, 2.5)):
        rule = gauss_jacobi_rule(1, alpha, beta)
        mean = _beta(beta + 2.0, alpha + 1.0) / _beta(beta + 1.0, alpha + 1.0)
        assert rule.nodes[0] == pytest.approx(mean, rel=1e-13)
        assert rule.weights[0] == pytest.approx(_beta(beta + 1.0, alpha + 1.0),
                                                rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_total_mass_is_beta_function(n):
    rule = gauss_jacobi_rule(8, -0.5, n - 0.5)
    assert float(np.sum(rule.weights)) == pytest.approx(
        _beta(n + 0.5, 0.5), rel=1e-12)


def test_profile_rule_total_mass_n1():
    # B(3/2, 1/2) = pi / 2
    rule = profile_rule(ProfileParams(1), 8)
    assert float(np.sum(rule.weights)) == pytest.approx(math.pi / 2.0, rel=1e-13)


@pytest.mark.parametrize("N", [4, 8, 16])
@pytest.mark.parametrize("alpha,beta", [(-0.5, 0.5), (-0.5, 1.5), (0.0, 0.0)])
def test_moment_exactness_to_degree_2N_minus_1(N, alpha, beta):
    rule = gauss_jacobi_rule(N, alpha, beta)
    for m in range(2 * N):
        exact = _beta(beta + 1.0 + m, alpha + 1.0)
        got = float(np.dot(rule.weights, rule.nodes ** m))
        assert got == pytest.approx(exact, rel=1e-12)


# The rules the package builds, and more: their nodes ascend as eigh returns
# them, unsorted, on every BLAS kernel.  A weight is mu0 v_0^2, accurate to
# about eps times the weights' sum; below that it is rounding, which the
# Prescott kernel takes to 0 once each in profile_rule(n, 64) at n = 50 and
# 161 (1.9e-40 and 1.4e-42 on the default kernel).
_BUILT_RULES = {
    "jacobi_1_to_40": lambda: [gauss_jacobi_rule(N, -0.5, 0.5)
                               for N in range(1, 41)],
    "profile_64": lambda: [profile_rule(ProfileParams(n), 64)
                           for n in range(1, 172)],
    "profile_400": lambda: [profile_rule(ProfileParams(n), 400)
                            for n in (1, 2, 3)],
    "seg_smooth": lambda: [spectrum._SEG_SMOOTH],
    "green_polar": lambda: [gauss_jacobi_rule(64, -0.5, 0.0)],
}


@pytest.mark.parametrize("rules", _BUILT_RULES.values(), ids=_BUILT_RULES)
def test_nodes_interior_weights_positive(rules):
    for rule in rules():
        assert np.all(rule.nodes > 0.0) and np.all(rule.nodes < 1.0)
        rounding = rule.weights < np.finfo(float).eps * rule.weights.sum()
        assert np.all(rule.weights[~rounding] > 0.0)
        assert np.all(rule.weights[rounding] >= 0.0)
        assert np.all(np.diff(rule.nodes) > 0.0)


def test_rule_is_built_once_and_read_only():
    rule = gauss_jacobi_rule(64, -0.5, 0.5)
    assert gauss_jacobi_rule(64, -0.5, 0.5) is rule
    fresh = gauss_jacobi_rule.__wrapped__(64, -0.5, 0.5)
    assert np.array_equal(fresh.nodes, rule.nodes)
    assert np.array_equal(fresh.weights, rule.weights)
    for values in (rule.nodes, rule.weights):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 0.5


def test_rule_rejects_bad_exponents():
    with pytest.raises(ValueError):
        gauss_jacobi_rule(4, -1.0, 0.0)
    with pytest.raises(ValueError):
        gauss_jacobi_rule(0, -0.5, 0.5)


# --- profile integrals --------------------------------------------------------

def test_constant_integral_n1():
    params = ProfileParams(1)
    rule = profile_rule(params, 8)
    assert integrate_profile_radial(lambda r: np.ones_like(r), rule) \
        == pytest.approx(math.pi / 4.0, rel=1e-13)


def test_elementary_even_moment():
    # int_0^1 rho^2 drho = 1/3 once the weight's root factors cancel: under
    # s = rho^2 this is (1/2) int s^{1/2} ds, exact for the (0, 1/2) rule
    params = ProfileParams(1)
    rule = gauss_jacobi_rule(8, 0.0, 0.5)
    assert 0.5 * float(np.sum(rule.weights)) == pytest.approx(1.0 / 3.0, rel=1e-12)
    # the same number comes out of the Gamma-quotient eigencondition at lam=3
    assert even_condition_value(3.0, params) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_second_mode_zero_mean():
    params = ProfileParams(1)
    rule = profile_rule(params, 64)
    mode = radial_eigenfunction(2, params)
    val = integrate_profile_radial(mode.value, rule)
    assert abs(val) <= 1e-12


# --- symmetric tridiagonal eigensolver -----------------------------------------

def test_two_by_two():
    vals = sym_tridiag_eigen([2.0, 2.0], [1.0], 2)
    assert np.allclose(vals, [1.0, 3.0], atol=1e-13)


def test_diagonal_matrix():
    vals = sym_tridiag_eigen([3.0, -1.0, 2.0], [0.0, 0.0], 3)
    assert np.allclose(vals, [-1.0, 2.0, 3.0], atol=1e-13)


def test_discrete_laplacian_closed_form():
    M = 40
    vals = sym_tridiag_eigen(2.0 * np.ones(M), -np.ones(M - 1), M)
    j = np.arange(1, M + 1)
    exact = 2.0 - 2.0 * np.cos(j * math.pi / (M + 1))
    assert np.allclose(vals, exact, atol=1e-12)


def test_eigenpair_residual():
    rng = np.random.default_rng(3)
    d = rng.normal(size=60)
    e = rng.normal(size=59)
    vals = sym_tridiag_eigen(d, e, 5)
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    scale = np.linalg.norm(T)
    dense = np.linalg.eigvalsh(T)[:5]
    assert np.max(np.abs(vals - dense)) <= 1e-10 * scale


def test_reversal_invariance():
    rng = np.random.default_rng(5)
    d = rng.normal(size=30)
    e = rng.normal(size=29)
    vals = sym_tridiag_eigen(d, e, 30)
    rvals = sym_tridiag_eigen(d[::-1].copy(), e[::-1].copy(), 30)
    assert np.allclose(vals, rvals, atol=1e-11)


def test_tridiag_input_validation():
    with pytest.raises(ValueError):
        sym_tridiag_eigen([1.0, 2.0], [0.5, 0.5], 2)
    with pytest.raises(ValueError):
        sym_tridiag_eigen([1.0, 2.0], [0.5], 3)


# --- dense eigensolver ----------------------------------------------------------

def test_identity_eigenvalues():
    vals = hessenberg_qr_eigenvalues(np.eye(4))
    assert np.allclose(vals, np.ones(4), atol=1e-14)


def test_rotation_eigenvalues():
    vals = hessenberg_qr_eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(sorted(vals.imag), [-1.0, 1.0], atol=1e-14)
    assert np.allclose(vals.real, 0.0, atol=1e-14)


def _char_poly_coeffs(A):
    """Monic characteristic polynomial by Faddeev-LeVerrier."""
    m = A.shape[0]
    coeffs = [1.0]
    Mk = np.zeros_like(A)
    for k in range(1, m + 1):
        Mk = A @ Mk + coeffs[-1] * np.eye(m)
        coeffs.append(-np.trace(A @ Mk) / k)
    return coeffs


def test_random_4x4_against_char_poly_roots():
    rng = np.random.default_rng(12)
    for _ in range(5):
        A = rng.normal(size=(4, 4))
        roots = mpmath.polyroots([mpmath.mpf(c) for c in _char_poly_coeffs(A)],
                                 maxsteps=200, extraprec=80)
        oracle = np.sort_complex(np.array([complex(r) for r in roots]))
        got = np.sort_complex(np.asarray(hessenberg_qr_eigenvalues(A)))
        assert np.max(np.abs(got - oracle)) <= 1e-8


def test_symmetric_dense_matches_tridiagonal():
    rng = np.random.default_rng(9)
    d = rng.normal(size=50)
    e = rng.normal(size=49)
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    dense = np.sort(hessenberg_qr_eigenvalues(T).real)
    tri = sym_tridiag_eigen(d, e, 50)
    assert np.max(np.abs(dense - tri)) <= 1e-10 * np.linalg.norm(T)


def test_dense_dimension_cap():
    with pytest.raises(ValueError):
        hessenberg_qr_eigenvalues(np.eye(1001))


def test_dense_eigensolver_refuses_a_non_square_matrix():
    with pytest.raises(ValueError, match="matrix must be square"):
        hessenberg_qr_eigenvalues(np.zeros((2, 3)))


# --- bisection -------------------------------------------------------------------

def test_bisect_linear():
    assert bisect_root(lambda x: x - 2.0, 0.0, 5.0, 1e-12) == pytest.approx(
        2.0, abs=1e-11)


def test_bisect_even_condition_bracket():
    params = ProfileParams(1)
    root = bisect_root(lambda lam: even_condition_value(lam, params),
                       7.0, 9.0, 1e-10)
    assert root == pytest.approx(8.0, abs=1e-9)


@pytest.mark.parametrize("lo, hi", [(2.0, 5.0), (0.0, 2.0)])
def test_bisect_returns_an_exact_zero_at_an_end(lo, hi):
    calls = []

    def f(x):
        calls.append(x)
        return x - 2.0

    assert bisect_root(f, lo, hi, 1e-12) == 2.0
    assert calls == [lo, hi]


def test_bisect_requires_sign_change():
    with pytest.raises(ValueError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-10)


def test_bisect_honors_tolerance():
    f = lambda x: math.cos(x)
    tol = 1e-6
    root = bisect_root(f, 1.0, 2.0, tol)
    assert f(root - tol) * f(root + tol) < 0.0


def test_bisect_compares_signs_not_products():
    # |f| < 1e-154 at both ends: their product underflows to 0, which once
    # read as "no sign change" and sent every step to the upper half
    f = lambda x: 1e-200 * (x - 0.3)
    assert abs(bisect_root(f, 0.0, 1.0, 1e-12) - 0.3) <= 1e-12
    roots = bisect_root(f, np.array([0.0, 0.25]), np.array([1.0, 0.5]), 1e-12)
    assert np.all(np.abs(roots - 0.3) <= 1e-12)


def test_bisect_ends_below_the_float_spacing():
    # tol = 1e-10 is below the spacing 1.9e-9 of the floats near 1e7: the
    # bracket closes once no float lies strictly inside it
    f = lambda x: x - 1e7 - 0.3
    root = bisect_root(f, 1e7, 1e7 + 1.0, 1e-10)
    assert abs(root - (1e7 + 0.3)) <= math.ulp(1e7)
    assert f(math.nextafter(root, -math.inf)) < 0.0 < f(math.nextafter(root, math.inf))
    roots = bisect_root(f, np.array([1e7, 0.0]), np.array([1e7 + 1.0, 2e7]), 1e-10)
    assert roots.tolist() == [root, bisect_root(f, 0.0, 2e7, 1e-10)]


def test_bisect_on_arrays_takes_the_float_steps_in_one_call_each():
    # each bracket's root is the float path's, bit for bit; the ends' values,
    # when given, are not evaluated again, and every step is one call of f
    lo = np.array([1.0, 4.0, 7.0, 0.0, 2.0])
    hi = np.array([2.0, 5.0, 8.0, 0.5, 3.0])
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return np.cos(x)
    want = [bisect_root(f, float(a), float(b), 1e-12) for a, b in zip(lo, hi)
            if (np.cos(a) < 0.0) != (np.cos(b) < 0.0)]
    keep = (np.cos(lo) < 0.0) != (np.cos(hi) < 0.0)
    calls.clear()
    got = bisect_root(f, lo[keep], hi[keep], 1e-12, np.cos(lo[keep]),
                      np.cos(hi[keep]))
    assert got.tolist() == want
    assert all(len(shape) == 1 for shape in calls)
    assert len(calls) <= 40          # 2^-40 < 1e-12: about 40 steps, not 120
    with pytest.raises(ValueError, match="no sign change on \\[0.0, 0.5\\]"):
        bisect_root(f, lo, hi, 1e-12)


def test_bisect_on_arrays_keeps_exact_zeros_at_the_ends():
    f = lambda x: x * (x - 3.0)
    roots = bisect_root(f, np.array([0.0, 1.0, -1.0]), np.array([1.0, 3.0, 0.5]))
    assert roots.tolist()[:2] == [0.0, 3.0]
    assert abs(roots[2]) <= 1e-10
