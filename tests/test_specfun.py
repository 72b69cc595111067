"""Gamma family and Gauss hypergeometric evaluators.

hyp2f1_auto takes the triples whose series terminates, directly or after
Euler's transformation, and sums each as a Jacobi polynomial by the
recurrence in the degree; every other triple is refused.
Extended-precision oracles come from mpmath; finite differences cross-check
the parameter-shift derivatives of RadialEigenmode.
"""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hprofile import specfun
from hprofile.geometry import ProfileParams
from hprofile.specfun import (_LANCZOS, _LANCZOS_G, _LN_SQRT_2PI,
                              Hyp2F1Params, gamma_fn, gauss_value_at_one,
                              hyp2f1_auto, recip_gamma)
from hprofile.spectrum import radial_eigenfunction

mpmath.mp.dps = 50


# --- gamma_fn ---------------------------------------------------------------

def test_gamma_fn_at_one_and_two_is_one():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-15)
    assert gamma_fn(2.0) == pytest.approx(1.0, rel=1e-15)


def test_gamma_fn_half_is_sqrt_pi():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_fn_six_is_120():
    assert gamma_fn(6.0) == pytest.approx(120.0, rel=1e-14)


@pytest.mark.parametrize("x", [0, -1, -3, -50])
def test_gamma_fn_refuses_a_pole(x):
    with pytest.raises(ValueError, match="pole"):
        gamma_fn(float(x))


@pytest.mark.parametrize("x", [-49.5, -20.25, -7.9, -0.5, 0.25, 0.5, 0.73, 1.0,
                               2.31, 5.5, 10.0, 41.7, 100.0])
def test_gamma_fn_against_extended_precision(x):
    exact = float(mpmath.gamma(x))
    assert gamma_fn(x) == pytest.approx(exact, rel=1e-12)


@given(st.floats(min_value=-20.0, max_value=20.0)
       .filter(lambda x: abs(x - round(x)) > 1e-3))
@settings(max_examples=60, deadline=None)
def test_gamma_fn_recurrence(x):
    # Gamma(x + 1) = x Gamma(x) on both sides of the reflection at 1/2
    assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)


# --- recip_gamma ------------------------------------------------------------

@pytest.mark.parametrize("x", [0, -1, -2, -3, -17, -50])
def test_recip_gamma_exact_zero_at_nonpositive_integers(x):
    assert recip_gamma(float(x)) == 0.0


def test_recip_gamma_at_2_5():
    # Gamma(2.5) = 1.5 * 0.5 * sqrt(pi) by the recurrence from Gamma(1/2)
    assert recip_gamma(2.5) == pytest.approx(1.0 / (1.5 * 0.5 * math.sqrt(math.pi)),
                                             rel=1e-13)


@pytest.mark.parametrize("x", [-49.5, -20.25, -7.9, -0.5, 0.25, 1.0, 3.7, 50.0])
def test_recip_gamma_against_extended_precision(x):
    exact = float(mpmath.rgamma(x))
    assert recip_gamma(x) == pytest.approx(exact, rel=1e-12)


def test_recip_gamma_smooth_through_zeros():
    # near a pole of Gamma the reciprocal passes through zero linearly
    eps = 1e-7
    left = recip_gamma(-3.0 - eps)
    right = recip_gamma(-3.0 + eps)
    assert left * right < 0.0
    assert abs(left + right) < 1e-3 * abs(left - right)


# --- parameter validation ---------------------------------------------------

def test_params_reject_pole_before_termination():
    # c = -2 is a pole of the series, which terminates neither directly
    # nor after Euler's transformation; c - a - b = -4 leaves no F(1).
    # The triple itself is built: each evaluator refuses it.
    p = Hyp2F1Params(0.5, 1.5, -2.0)
    with pytest.raises(ValueError, match="terminates neither"):
        hyp2f1_auto(p, 0.3)
    with pytest.raises(ValueError, match="c-a-b > 0"):
        gauss_value_at_one(p)


def test_params_allow_terminating_before_pole():
    p = Hyp2F1Params(-1.0, 1.5, -2.0)
    assert p.terminating_index() == 1


def test_terminating_index_picks_smaller_magnitude():
    assert Hyp2F1Params(-5.0, -2.0, 1.5).terminating_index() == 2
    assert Hyp2F1Params(-0.5, 3.0, 1.5).terminating_index() is None


# --- terminating series ------------------------------------------------------

def test_series_at_origin_is_one():
    for p in (Hyp2F1Params(-1, 2, 1.5), Hyp2F1Params(-0.5, 2.5, 1.5)):
        assert hyp2f1_auto(p, 0.0) == 1.0


def test_second_mode_polynomial():
    # F(-1, 2; 3/2; x) = 1 - (4/3) x, proportional to (3 - 4x)
    p = Hyp2F1Params(-1.0, 2.0, 1.5)
    for x in (0.0, 0.2, 0.64, 0.9):
        assert hyp2f1_auto(p, x) == pytest.approx(1.0 - 4.0 * x / 3.0, rel=1e-14)


def test_binomial_identity_sqrt():
    # F(-1/2, 3/2; 3/2; x) = (1 - x)^{1/2}
    p = Hyp2F1Params(-0.5, 1.5, 1.5)
    for x in (0.0, 0.1, 0.3, 0.49):
        assert hyp2f1_auto(p, x) == pytest.approx(math.sqrt(1.0 - x), rel=1e-12)


def test_terminating_sum_matches_extended_precision_brute_force():
    # tolerance scales with the summation condition number sum|t_k| / |sum t_k|
    for m in range(1, 11):
        p = Hyp2F1Params(-float(m), float(m) + 1.0, 1.5)
        for x in (0.1, 0.5, 0.97):
            acc = mpmath.mpf(0)
            mag = mpmath.mpf(0)
            for k in range(m + 1):
                term = (mpmath.rf(p.a, k) * mpmath.rf(p.b, k)
                        / (mpmath.factorial(k) * mpmath.rf(p.c, k))
                        * mpmath.mpf(x) ** k)
                acc += term
                mag += abs(term)
            bound = 1e-14 * float(max(mag, abs(acc)))
            assert abs(hyp2f1_auto(p, x) - float(acc)) <= bound


@given(st.integers(min_value=0, max_value=8),
       st.floats(min_value=-3.2, max_value=3.2),
       st.floats(min_value=0.6, max_value=4.0),
       st.sampled_from([0.1, 0.3, 0.45, 0.8, 1.0]))
@settings(max_examples=50, deadline=None)
def test_series_symmetric_in_a_b(m, b, c, x):
    # both orders are summed alike, or both refused where kappa = b - m
    # is not positive
    try:
        lhs = hyp2f1_auto(Hyp2F1Params(-m, b, c), x)
    except ValueError:
        with pytest.raises(ValueError, match="kappa > 0 and c > 0"):
            hyp2f1_auto(Hyp2F1Params(b, -m, c), x)
        return
    rhs = hyp2f1_auto(Hyp2F1Params(b, -m, c), x)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_series_domain_error_outside_unit_interval():
    p = Hyp2F1Params(-2.0, 3.0, 2.5)
    for bad in (-0.2, 1.2, math.nan):
        with pytest.raises(ValueError, match="need 0 <= x <= 1"):
            hyp2f1_auto(p, bad)
    # c - a - b = 1/2 > 0: at x = 1 the sum is the Gamma-quotient value
    assert hyp2f1_auto(p, 1.0) == pytest.approx(gauss_value_at_one(p), rel=1e-13)


@pytest.mark.parametrize("p", [Hyp2F1Params(0.3, 0.7, 1.1),
                               Hyp2F1Params(-0.7, 1.9, 1.7),
                               Hyp2F1Params(0.5, 1.0, 1.5)])
def test_non_terminating_triples_are_refused(p):
    with pytest.raises(ValueError, match="terminates neither"):
        hyp2f1_auto(p, 0.3)
    with pytest.raises(ValueError, match="terminates neither"):
        hyp2f1_auto(p, np.array([0.1, 0.3]))


def test_singular_degree_recurrence_is_refused():
    # F(-3, 1; 3/2; x): m + kappa = 1 makes a leading coefficient vanish
    with pytest.raises(ValueError, match="kappa > 0 and c > 0"):
        hyp2f1_auto(Hyp2F1Params(-3.0, 1.0, 1.5), 0.3)


def test_near_singular_degree_recurrence_is_refused():
    # F(-3, 1e-8; 3/2; x): 2j + kappa - 1 = 1e-8 at degree 2, where the
    # recurrence read 2.3e-7 of max|F| off; kappa < 0 refuses it first
    with pytest.raises(ValueError, match="kappa = -2.99999999"):
        hyp2f1_auto(Hyp2F1Params(-3.0, 1e-8, 1.5), 0.3)


@pytest.mark.parametrize("m, b", [(10, 4.5), (20, 9.5), (40, 19.5)])
def test_negative_kappa_is_refused(m, b):
    # kappa = b - m < 0 with every leading coefficient at least 1/2 from 0:
    # the recurrence read 3.4e-10, 2.7e-4 and 2.7e8 of max|F| off here
    with pytest.raises(ValueError, match="kappa > 0 and c > 0"):
        hyp2f1_auto(Hyp2F1Params(-float(m), b, 1.5), np.linspace(0.0, 1.0, 41))


@pytest.mark.parametrize("kappa", [1e-3, 0.3, 1.0, 5.5, 41.0])
def test_accepted_domain_within_1e_12_of_max_f(kappa):
    # F(-m, m + kappa; c; x) over the corners of kappa > 0, c > 0, against
    # a sum at 80 digits (at 40 the sum itself is 5.9e-12 off at m = 40);
    # the worst case read 3.4e-14
    x = np.linspace(0.0, 1.0, 101)
    for c in (0.05, 0.5, 7.5, 60.5):
        for m in (1, 10, 40):
            p = Hyp2F1Params(-float(m), m + kappa, c)
            exact = _exact(p, x, dps=80)
            err = np.max(np.abs(hyp2f1_auto(p, x) - exact))
            assert err <= 1e-12 * np.max(np.abs(exact)), (c, m)


# --- Euler's transformation -------------------------------------------------
#
# F(a, b; c; x) = (1 - x)^(c-a-b) F(c - a, c - b; c; x), whose series
# terminates.  The odd radial triples F(-(m + 1/2), n + m + 1/2; n + 1/2)
# and their two shifts have c - b = -m.

def _odd_triples(ns, ks):
    return [radial_eigenfunction(k, ProfileParams(n)).hyp.shifted(shift)
            for n in ns for k in ks if k % 2 for shift in (0, 1, 2)]


@pytest.mark.parametrize("p", _odd_triples((1, 2, 12), (1, 5, 15))
                         + [Hyp2F1Params(-0.7, 3.7, 1.7),    # c - b = -2
                            Hyp2F1Params(3.7, -0.7, 1.7)])   # c - a = -2
def test_euler_branch_matches_extended_precision(p):
    # the bound of the terminating-sum test above, 1e-14 sum|t_k|, times
    # the prefactor; the last two triples have c - a - b = -1.3, not a
    # half-integer
    s = p.c - p.a - p.b
    q = Hyp2F1Params(p.c - p.a, p.c - p.b, p.c)
    for x in (0.0, 0.1, 0.3, 0.45, 0.4999, 0.7, 0.95):
        mag = sum(abs(mpmath.rf(q.a, k) * mpmath.rf(q.b, k)
                      / (mpmath.factorial(k) * mpmath.rf(q.c, k))
                      * mpmath.mpf(x) ** k)
                  for k in range(q.terminating_index() + 1))
        exact = mpmath.hyp2f1(p.a, p.b, p.c, x)
        bound = 1e-14 * float(mag * (1 - mpmath.mpf(x)) ** s)
        assert abs(hyp2f1_auto(p, x) - float(exact)) <= bound, x


def test_euler_branch_within_1e_13_of_max_f():
    # every odd mode's triple for n in {1, 2, 3, 12}, k <= 16, shifts 0-2;
    # F vanishes at some dyadic x, where mpmath needs zeroprec to stop
    x = np.linspace(0.0, 0.5, 26)[:-1]
    for p in _odd_triples((1, 2, 3, 12), range(1, 17)):
        exact = np.array([float(mpmath.hyp2f1(p.a, p.b, p.c, v, zeroprec=400))
                          for v in x])
        err = np.max(np.abs(hyp2f1_auto(p, x) - exact))
        assert err <= 1e-13 * np.max(np.abs(exact)), p


@pytest.mark.parametrize("n", [1, 2, 3, 12])
def test_every_radial_evaluation_sums_a_terminating_series(n, monkeypatch):
    # of degree k // 2: m - shift for the even modes, m for the odd ones
    # (Euler's transformation, whose c - b = -m no shift moves)
    degrees = []
    jacobi = specfun._jacobi

    def recording(m, kappa, c, x):
        degrees.append(m)
        return jacobi(m, kappa, c, x)

    monkeypatch.setattr(specfun, "_jacobi", recording)
    rho = np.sqrt(np.linspace(0.0, 0.99, 35))
    for k in range(1, 17):
        mode = radial_eigenfunction(k, ProfileParams(n))
        for f in (mode.value, mode.deriv, mode.second_deriv):
            degrees.clear()
            f(rho)
            f(0.6)
            assert degrees and max(degrees) <= k // 2, (k, degrees)


# --- near x = 1 -------------------------------------------------------------------

def test_near_one_terminating_bypass():
    # a terminating triple near 1 is its polynomial
    p = Hyp2F1Params(-1.0, 2.0, 1.5)
    assert hyp2f1_auto(p, 0.9) == pytest.approx(1.0 - 1.2, rel=1e-14)


def test_near_one_sqrt_closed_form():
    p = Hyp2F1Params(-0.5, 1.5, 1.5)
    assert hyp2f1_auto(p, 0.99) == pytest.approx(math.sqrt(0.01), rel=1e-12)


def test_branch_continuity_at_switch():
    # (1-x)^{1/2} through x = 1/2
    p = Hyp2F1Params(-0.5, 2.5, 2.5)
    for eps in (1e-4, 1e-6, 1e-8):
        lo = hyp2f1_auto(p, 0.5 - eps)
        hi = hyp2f1_auto(p, 0.5 + eps)
        assert abs(lo - hi) <= 1e-10 + 4.0 * eps


@pytest.mark.parametrize("n", [1, 2])
def test_near_one_limit_matches_gauss_value(n):
    # the even triple of lambda_4 = 4 (4 + 2n), F(-2, n + 2; n + 1/2; x):
    # its value at 1 is the Gamma quotient, and its values approach it
    lam = 4.0 * (4.0 + 2 * n)
    s = math.sqrt(n * n + lam)
    p = Hyp2F1Params((n - s) / 2.0, (n + s) / 2.0, n + 0.5)
    limit = gauss_value_at_one(p)
    assert hyp2f1_auto(p, 1.0) == pytest.approx(limit, rel=1e-13)
    y = 1e-9
    assert hyp2f1_auto(p, 1.0 - y) == pytest.approx(limit, abs=1e-7)


# --- derivative -------------------------------------------------------------
#
# RadialEigenmode.deriv and second_deriv apply d/dx F(a, b; c; x) =
# (a b / c) F(a+1, b+1; c+1; x) at x = rho^2, so the normalized dF/dx is
# deriv(rho) / (2 rho), and second_deriv(0) / 2 at the pole.

def test_dz_at_origin_is_ab_over_c():
    for n in (1, 2, 3):
        for k in range(1, 7):
            mode = radial_eigenfunction(k, ProfileParams(n))
            h = mode.hyp
            assert mode.second_deriv(0.0) / 2.0 == pytest.approx(
                mode.normalization * h.a * h.b / h.c, rel=1e-14)


def test_dz_of_linear_polynomial_is_constant():
    mode = radial_eigenfunction(2, ProfileParams(1))   # F(-1, 2; 3/2; x)
    slope = -4.0 / 3.0 * mode.normalization
    for rho in (0.1, 0.4, 0.8):
        assert mode.deriv(rho) / (2.0 * rho) == pytest.approx(slope, rel=1e-14)
        assert mode.second_deriv(rho) / 2.0 == pytest.approx(slope, rel=1e-14)


def test_dz_of_sqrt():
    mode = radial_eigenfunction(1, ProfileParams(1))   # F(-1/2, 3/2; 3/2; x)
    for x in (0.1, 0.6):
        rho = math.sqrt(x)
        assert mode.deriv(rho) / (2.0 * rho) == pytest.approx(
            -0.5 * mode.normalization / math.sqrt(1.0 - x), rel=1e-11)


def test_dz_matches_central_differences():
    # both parities, n = 1, 2, 3, rho^2 below and above 1/2
    h = 1e-6
    for n in (1, 2, 3):
        for k in (1, 2, 3, 4):
            mode = radial_eigenfunction(k, ProfileParams(n))
            for rho in (0.4, 0.85):          # rho^2 = 0.16, 0.7225
                fd1 = (mode.value(rho + h) - mode.value(rho - h)) / (2.0 * h)
                fd2 = (mode.deriv(rho + h) - mode.deriv(rho - h)) / (2.0 * h)
                assert mode.deriv(rho) == pytest.approx(fd1, abs=1e-6)
                assert mode.second_deriv(rho) == pytest.approx(fd2, abs=1e-6)


# --- value at one -----------------------------------------------------------

def test_gauss_value_zero_when_c_equals_b():
    for n in (1, 2, 3):
        p = Hyp2F1Params(-0.5, n + 0.5, n + 0.5)
        assert gauss_value_at_one(p) == 0.0


def test_gauss_value_terminating_example():
    # 1 - 4/3 at x = 1
    assert gauss_value_at_one(Hyp2F1Params(-1.0, 2.0, 1.5)) == pytest.approx(
        -1.0 / 3.0, rel=1e-13)


def test_gauss_value_zero_at_odd_eigenparameters():
    # gamma - b = -m at the odd eigenvalues
    n = 1
    lam = 15.0  # m = 1
    s = math.sqrt(n * n + lam)
    p = Hyp2F1Params((n - s) / 2.0, (n + s) / 2.0, n + 0.5)
    assert gauss_value_at_one(p) == 0.0


def test_gauss_value_past_gamma_overflow():
    # Gamma(c) alone leaves float range from c = 172.5; the four log-Gammas
    # meet in one exp, and an argument below 1/2 is reflected, numerator
    # (c = -1.5; c = 0.4 and c - a - b = 0.1) and denominator (0.3, 0.2)
    # alike
    for a, b, c in [(-0.25, 0.5, 172.5), (1.0, 2.0, 400.5),
                    (-3.0, -5.0, -1.5), (0.1, 0.2, 0.4)]:
        assert gauss_value_at_one(Hyp2F1Params(a, b, c)) == pytest.approx(
            float(mpmath.hyp2f1(a, b, c, 1)), rel=1e-12)


@pytest.mark.parametrize("n", [1, 3, 172])
def test_gauss_value_on_an_array_is_each_element_on_its_own(n):
    # the array arguments of the Gamma ratio are stacked into one array;
    # every element still gets the operations it gets alone, bit for bit,
    # with unreflected (c - a >= 1/2) and reflected (c - b < 1/2) rows
    s = np.sqrt(n * n + np.linspace(0.25, 400.0, 37))
    p = Hyp2F1Params((n - s) / 2.0, (n + s) / 2.0, n + 0.5)
    whole = gauss_value_at_one(p)
    alone = [gauss_value_at_one(Hyp2F1Params(p.a[i:i + 1], p.b[i:i + 1], p.c))
             for i in range(len(s))]
    assert np.array_equal(whole, np.concatenate(alone))
    assert (p.c - p.a >= 0.5).all() and (p.c - p.b < 0.5).all()


def test_gauss_value_domain_error():
    with pytest.raises(ValueError):
        gauss_value_at_one(Hyp2F1Params(1.0, 1.0, 1.5))
    # c - a - b = 4 > 0, but Gamma(c) has a pole at c = -2
    with pytest.raises(ValueError, match="Gamma pole at -2"):
        gauss_value_at_one(Hyp2F1Params(-1.0, -5.0, -2.0))


# --- every radial triple on [0, 1] -------------------------------------------

def _exact(p, x, dps=40):
    """F(a, b; c; x) at dps digits: the terminating sum by Horner, times
    Euler's prefactor where c - a or c - b makes it terminate."""
    with mpmath.workdps(dps):
        s = mpmath.mpf(0)
        q = p
        if p.terminating_index() is None:
            s = mpmath.mpf(p.c) - p.a - p.b
            q = Hyp2F1Params(p.c - p.a, p.c - p.b, p.c)
        a, b, c = map(mpmath.mpf, (q.a, q.b, q.c))
        coef = [mpmath.mpf(1)]
        for j in range(q.terminating_index()):
            coef.append(coef[-1] * (a + j) * (b + j) / ((j + 1) * (c + j)))
        out = []
        for v in map(mpmath.mpf, x):
            acc = mpmath.mpf(0)
            for t in reversed(coef):
                acc = acc * v + t
            out.append(float(acc * (1 - v) ** s))
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2, 3, 12])
def test_every_radial_triple_within_1e_12_of_max_f(n):
    # k <= 40, shifts 0-2 (k = 2's shift 2 has coefficient 0 and is never
    # evaluated), on 201 points of [0, 1]; x = 1 only where F is bounded
    x = np.linspace(0.0, 1.0, 201)
    for k in range(1, 41):
        for shift in (0, 1, 2):
            if (k, shift) == (2, 2):
                continue
            p = radial_eigenfunction(k, ProfileParams(n)).hyp.shifted(shift)
            xs = x[:-1] if p.c - p.a - p.b < 0.0 else x
            exact = _exact(p, xs)
            err = np.max(np.abs(hyp2f1_auto(p, xs) - exact))
            assert err <= 1e-12 * np.max(np.abs(exact)), (k, shift)


# The case ids name the range of x each case takes: hyp2f1 below 1/2,
# hyp2f1_near_one above, hyp2f1_auto 1/2 itself.
_BRANCHES = ["hyp2f1", "hyp2f1_near_one", "hyp2f1_auto"]


@pytest.mark.parametrize("p", [Hyp2F1Params(-2.0, 3.0, 1.5),
                               Hyp2F1Params(-0.5, 2.5, 1.5)])
@pytest.mark.parametrize("x", [0.3, 0.7, 0.5], ids=_BRANCHES)
def test_array_shape_contract(x, p):
    scalar = hyp2f1_auto(p, x)
    assert type(scalar) is float
    zero_d = hyp2f1_auto(p, np.array(x))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
    assert float(zero_d) == scalar
    grid = np.full((2, 3), x)
    assert hyp2f1_auto(p, grid).shape == (2, 3)
    assert np.all(hyp2f1_auto(p, grid) == scalar)
    empty = hyp2f1_auto(p, np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


# one bad point among good ones below 1/2, above it, or on both sides
@pytest.mark.parametrize("bad", [-0.2, math.nan, 1.2])
@pytest.mark.parametrize("good", [(0.1, 0.2, 0.4), (0.6, 0.7, 0.9),
                                  (0.1, 0.7, 0.4)], ids=_BRANCHES)
def test_array_with_one_bad_point_is_refused(good, bad):
    p = Hyp2F1Params(-0.5, 2.5, 1.5)
    with pytest.raises(ValueError):
        hyp2f1_auto(p, np.array([good[0], good[1], bad, good[2]]))


def test_array_refuses_the_divergent_value_at_one():
    p = Hyp2F1Params(0.5, 1.5, 1.5)   # c - a - b = -1/2
    with pytest.raises(ValueError):
        hyp2f1_auto(p, np.array([0.2, 0.7, 1.0]))


# --- the Gamma family on arrays ------------------------------------------------
#
# The reference is the float-only Gamma family the array forms replaced, kept
# here verbatim: on a float the new forms must return its values bit for bit.

def _ref_ln_gamma(x):
    if x <= 0.0:
        raise ValueError(x)
    if x < 0.5:
        return math.log(math.pi / math.sin(math.pi * x)) - _ref_ln_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def _ref_sin_pi(x):
    k = round(x)
    r = x - k
    s = math.sin(math.pi * r)
    return -s if (k % 2) else s


def _ref_gamma_fn(x):
    if x >= 0.5:
        return math.exp(_ref_ln_gamma(x))
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(x)
    return math.pi / (_ref_sin_pi(x) * math.exp(_ref_ln_gamma(1.0 - x)))


def _ref_recip_gamma(x):
    if x > 0.5:
        return math.exp(-_ref_ln_gamma(x))
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return _ref_sin_pi(x) * math.exp(_ref_ln_gamma(1.0 - x)) / math.pi


# off the poles, with the branch points 1/2 and near-integers
_GAMMA_X = np.concatenate([
    np.random.default_rng(2011).uniform(-50.0, 60.0, 4000),
    [0.5, 0.5 + 1e-16, 0.5 - 1e-16, 1.0, 2.0, -3.0 + 1e-7, -3.0 - 1e-7, 1e-300]])
_GAMMA_FAMILY = [(gamma_fn, _ref_gamma_fn, _GAMMA_X),
                 (recip_gamma, _ref_recip_gamma, _GAMMA_X)]
_GAMMA_IDS = ["gamma_fn", "recip_gamma"]


@pytest.mark.parametrize("f,ref,xs", _GAMMA_FAMILY, ids=_GAMMA_IDS)
def test_gamma_family_float_is_the_scalar_value(f, ref, xs):
    for x in xs:
        got = f(float(x))
        assert type(got) is float
        assert got == ref(float(x)), x


@pytest.mark.parametrize("f,ref,xs", _GAMMA_FAMILY, ids=_GAMMA_IDS)
def test_gamma_family_array_matches_the_float_path(f, ref, xs):
    got = f(xs)
    want = np.array([f(float(x)) for x in xs])
    # numpy's exp and log differ from math's by an ulp on some inputs, which
    # exp turns into an ulp of ln|Gamma| (up to 2.8e-14 relative measured
    # over x in [-50, 60])
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("f", [gamma_fn, recip_gamma], ids=_GAMMA_IDS)
@pytest.mark.parametrize("x", [0.3, 0.5, 2.5, 41.7])
def test_gamma_family_shape_contract(f, x):
    scalar = f(x)
    zero_d = f(np.array(x))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
    assert float(zero_d) == pytest.approx(scalar, rel=1e-13)
    grid = f(np.full((2, 3), x))
    assert grid.shape == (2, 3) and np.all(grid == grid[0, 0])
    empty = f(np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def test_recip_gamma_array_is_exactly_zero_at_the_poles():
    poles = -np.arange(51.0)
    x = np.concatenate([poles, poles - 0.5])
    got = recip_gamma(x)
    assert np.all(got[:51] == 0.0)
    assert np.all(got[51:] != 0.0)


@pytest.mark.parametrize("f,bad", [(gamma_fn, 0.0), (gamma_fn, -7.0)])
def test_gamma_family_array_with_one_bad_point_is_refused(f, bad):
    with pytest.raises(ValueError, match=str(bad)):
        f(np.array([1.5, 0.25, bad, 3.0]))
