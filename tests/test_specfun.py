"""Gamma family and Gauss hypergeometric evaluators.

Every value goes through hyp2f1_auto, with x on the branch a test means: the
direct series or Euler's transformation below X_SWITCH, the connection
formula from there on.
Extended-precision oracles come from mpmath; finite differences cross-check
the parameter-shift derivatives of RadialEigenmode; the per-point scalar sum
is the reference for the array evaluation.
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
                              SERIES_RTOL, SERIES_TERM_BUDGET, X_SWITCH,
                              Hyp2F1ConvergenceError, Hyp2F1Params, gamma_fn,
                              gauss_value_at_one, hyp2f1_auto, ln_gamma,
                              recip_gamma)
from hprofile.spectrum import radial_eigenfunction

mpmath.mp.dps = 50


# --- ln_gamma ---------------------------------------------------------------

def test_ln_gamma_at_one_is_zero():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)


def test_ln_gamma_half_is_log_sqrt_pi():
    assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)


def test_ln_gamma_six_is_log_120():
    assert ln_gamma(6.0) == pytest.approx(math.log(120.0), rel=1e-14)


def test_ln_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        ln_gamma(0.0)
    with pytest.raises(ValueError):
        ln_gamma(-2.5)


@pytest.mark.parametrize("x", [0.5, 0.73, 1.0, 2.31, 5.5, 10.0, 41.7, 100.0])
def test_ln_gamma_against_extended_precision(x):
    exact = float(mpmath.loggamma(x))
    assert ln_gamma(x) == pytest.approx(exact, rel=1e-13, abs=1e-14)


@given(st.floats(min_value=0.5, max_value=20.0))
@settings(max_examples=60, deadline=None)
def test_ln_gamma_recurrence(x):
    lhs = math.exp(ln_gamma(x + 1.0))
    rhs = x * math.exp(ln_gamma(x))
    assert lhs == pytest.approx(rhs, rel=1e-13)


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
    with pytest.raises(ValueError):
        Hyp2F1Params(0.5, 1.5, -2.0)


def test_params_allow_terminating_before_pole():
    p = Hyp2F1Params(-1.0, 1.5, -2.0)
    assert p.terminating_index() == 1


def test_terminating_index_picks_smaller_magnitude():
    assert Hyp2F1Params(-5.0, -2.0, 1.5).terminating_index() == 2
    assert Hyp2F1Params(-0.5, 3.0, 1.5).terminating_index() is None


# --- series branch (x < X_SWITCH, or a terminating triple) ----------------

def test_series_at_origin_is_one():
    for p in (Hyp2F1Params(-1, 2, 1.5), Hyp2F1Params(0.3, 0.7, 1.1)):
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


@given(st.floats(min_value=-3.2, max_value=3.2),
       st.floats(min_value=-3.2, max_value=3.2),
       st.floats(min_value=0.6, max_value=4.0),
       st.sampled_from([0.1, 0.3, 0.45]))
@settings(max_examples=50, deadline=None)
def test_series_symmetric_in_a_b(a, b, c, x):
    lhs = hyp2f1_auto(Hyp2F1Params(a, b, c), x)
    rhs = hyp2f1_auto(Hyp2F1Params(b, a, c), x)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


def test_series_domain_error_outside_unit_interval():
    p = Hyp2F1Params(0.3, 0.7, 1.1)
    with pytest.raises(ValueError):
        hyp2f1_auto(p, -0.2)
    with pytest.raises(ValueError):
        hyp2f1_auto(p, 1.2)
    # c - a - b = 0.1 > 0: at x = 1 the connection formula gives the
    # Gamma-quotient value
    assert hyp2f1_auto(p, 1.0) == gauss_value_at_one(p)


def test_series_budget_exhaustion_raises():
    # integer c - a - b = 0 keeps the series up to 1, and x extremely close
    # to 1 cannot meet tolerance within the budget
    p = Hyp2F1Params(0.5, 1.0, 1.5)
    with pytest.raises(Hyp2F1ConvergenceError):
        hyp2f1_auto(p, 1.0 - 1e-12)


# --- Euler branch (x < X_SWITCH, c - a or c - b in {0, -1, ...}) -----------
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
    for x in (0.0, 0.1, 0.3, 0.45, 0.4999):
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
    x = np.linspace(0.0, X_SWITCH, 26)[:-1]
    for p in _odd_triples((1, 2, 3, 12), range(1, 17)):
        exact = np.array([float(mpmath.hyp2f1(p.a, p.b, p.c, v, zeroprec=400))
                          for v in x])
        err = np.max(np.abs(hyp2f1_auto(p, x) - exact))
        assert err <= 1e-13 * np.max(np.abs(exact)), p


@pytest.mark.parametrize("n", [1, 2, 3, 12])
def test_every_radial_evaluation_sums_a_terminating_series(n, monkeypatch):
    summed = []
    series = specfun._series

    def recording(p, x):
        summed.append(p)
        return series(p, x)

    monkeypatch.setattr(specfun, "_series", recording)
    rho = np.sqrt(np.r_[np.linspace(0.0, 0.99, 34), X_SWITCH])
    for k in range(1, 17):
        mode = radial_eigenfunction(k, ProfileParams(n))
        for f in (mode.value, mode.deriv, mode.second_deriv):
            f(rho)
            f(0.6)
    assert summed
    endless = [p for p in summed if p.terminating_index() is None]
    assert not endless, endless[:3]


# --- connection branch (x >= X_SWITCH) ---------------------------------------

def test_near_one_terminating_bypass():
    # a terminating triple is the exact polynomial sum above X_SWITCH too
    p = Hyp2F1Params(-1.0, 2.0, 1.5)
    assert hyp2f1_auto(p, 0.9) == _ref_series(p, 0.9)


def test_near_one_sqrt_closed_form():
    p = Hyp2F1Params(-0.5, 1.5, 1.5)
    assert hyp2f1_auto(p, 0.99) == pytest.approx(math.sqrt(0.01), rel=1e-12)


def test_branch_continuity_at_switch():
    p = Hyp2F1Params(-0.5, 2.5, 2.5)  # = (1-x)^{1/2}, non-terminating path
    for eps in (1e-4, 1e-6, 1e-8):
        lo = hyp2f1_auto(p, X_SWITCH - eps)
        hi = hyp2f1_auto(p, X_SWITCH + eps)
        assert abs(lo - hi) <= 1e-10 + 4.0 * eps


@pytest.mark.parametrize("n", [1, 2])
def test_near_one_limit_matches_gauss_value(n):
    # c - a - b = 1/2 family: the x -> 1 limit equals the Gamma-quotient value.
    # The approach is O(sqrt(1-x)), so the sqrt term is eliminated by the
    # two-point extrapolation 2 F(1-y/4) - F(1-y) before comparing.
    lam = 7.3  # generic non-eigenvalue
    s = math.sqrt(n * n + lam)
    p = Hyp2F1Params((n - s) / 2.0, (n + s) / 2.0, n + 0.5)
    limit = gauss_value_at_one(p)
    assert hyp2f1_auto(p, 1.0) == pytest.approx(limit, rel=1e-13)
    y = 1e-9
    extrap = 2.0 * hyp2f1_auto(p, 1.0 - y / 4.0) - hyp2f1_auto(p, 1.0 - y)
    assert extrap == pytest.approx(limit, abs=1e-9)


@pytest.mark.parametrize("x", [0.55, 0.75, 0.95])
def test_connection_formula_against_mpmath(x):
    p = Hyp2F1Params(-0.7, 1.9, 1.7)
    exact = float(mpmath.hyp2f1(p.a, p.b, p.c, x))
    assert hyp2f1_auto(p, x) == pytest.approx(exact, rel=1e-12)


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
    # both parities, n = 1, 2, 3, rho^2 below and above X_SWITCH
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


def test_gauss_value_domain_error():
    with pytest.raises(ValueError):
        gauss_value_at_one(Hyp2F1Params(1.0, 1.0, 1.5))


# --- arrays against the per-point scalar sum --------------------------------
#
# The reference is the scalar evaluator the array path replaced, kept here
# on Python floats and called once per point, with Euler's transformation
# below X_SWITCH where its series terminates.

def _ref_series(p, x):
    m = p.terminating_index()
    term = acc = 1.0
    if m is not None:
        for k in range(m):
            term *= (p.a + k) * (p.b + k) / ((k + 1.0) * (p.c + k)) * x
            acc += term
        return acc
    if not 0.0 <= x < 1.0:
        raise ValueError(x)
    small = 0
    for k in range(SERIES_TERM_BUDGET):
        term *= (p.a + k) * (p.b + k) / ((k + 1.0) * (p.c + k)) * x
        acc += term
        if abs(term) <= SERIES_RTOL * abs(acc):
            small += 1
            if small >= 2:
                return acc
        else:
            small = 0
    raise Hyp2F1ConvergenceError(x)


def _ref_euler_prefactor(y, s):
    # (1 - x)^s with 2s odd, as every radial triple has: sqrt, then products
    out = math.sqrt(y)
    for _ in range(int(abs(s))):
        out *= y
    return out if s > 0.0 else 1.0 / out


def _ref_auto(p, x):
    s = p.c - p.a - p.b
    if p.terminating_index() is not None or s == math.floor(s):
        return _ref_series(p, x)
    if x < X_SWITCH:
        if not any(v <= 0.0 and v == math.floor(v) for v in (p.c - p.a, p.c - p.b)):
            return _ref_series(p, x)
        if x < 0.0:
            raise ValueError(x)
        # Euler's transformation, whose series terminates
        return _ref_euler_prefactor(1.0 - x, s) * _ref_series(
            Hyp2F1Params(p.c - p.a, p.c - p.b, p.c), x)
    y = 1.0 - x
    c1 = (gamma_fn(p.c) * gamma_fn(s)
          * recip_gamma(p.c - p.a) * recip_gamma(p.c - p.b))
    c2 = gamma_fn(p.c) * gamma_fn(-s) * recip_gamma(p.a) * recip_gamma(p.b)
    out = 0.0
    if c1 != 0.0:
        out += c1 * _ref_series(Hyp2F1Params(p.a, p.b, p.a + p.b - p.c + 1.0), y)
    if c2 != 0.0:
        if y == 0.0:
            if s < 0.0:
                raise ValueError(x)
        else:
            out += c2 * y ** s * _ref_series(
                Hyp2F1Params(p.c - p.a, p.c - p.b, s + 1.0), y)
    return out


_X = np.concatenate([np.random.default_rng(2011).uniform(0.0, 1.0, 2000),
                     [0.0, 0.5, 1.0]])


@pytest.mark.parametrize("n", [1, 2, 3, 12])
def test_array_matches_the_per_point_scalar_sum(n):
    eps = np.finfo(float).eps
    for k in range(1, 17):
        for shift in (0, 1, 2):
            p = radial_eigenfunction(k, ProfileParams(n)).hyp.shifted(shift)
            x = _X
            if p.terminating_index() is None and p.c - p.a - p.b < 0.0:
                x = _X[_X < 1.0]   # F diverges at 1; refused below
            ref = np.array([_ref_auto(p, float(v)) for v in x])
            got = hyp2f1_auto(p, x)
            exact = (slice(None) if p.terminating_index() is not None
                     else x < X_SWITCH)
            assert np.array_equal(got[exact], ref[exact]), (n, k, shift)
            assert (np.max(np.abs(got - ref))
                    <= 4.0 * eps * np.max(np.abs(ref))), (n, k, shift)


# The case ids name the branch each case exercises, after the evaluators that
# used to be public for them: hyp2f1 the series (x < X_SWITCH), hyp2f1_near_one
# the connection formula (x >= X_SWITCH), hyp2f1_auto an array over both.
_BRANCHES = ["hyp2f1", "hyp2f1_near_one", "hyp2f1_auto"]


@pytest.mark.parametrize("p", [Hyp2F1Params(-2.0, 3.0, 1.5),
                               Hyp2F1Params(-0.5, 2.5, 1.5)])
@pytest.mark.parametrize("x", [0.3, 0.7, X_SWITCH], ids=_BRANCHES)
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


# -0.2 falls to the series branch, NaN and 1.2 to the connection one, whichever
# branch the good points take
@pytest.mark.parametrize("bad", [-0.2, math.nan, 1.2])
@pytest.mark.parametrize("good", [(0.1, 0.2, 0.4), (0.6, 0.7, 0.9),
                                  (0.1, 0.7, 0.4)], ids=_BRANCHES)
def test_array_with_one_bad_point_is_refused(good, bad):
    p = Hyp2F1Params(-0.5, 2.5, 1.5)
    with pytest.raises(ValueError):
        hyp2f1_auto(p, np.array([good[0], good[1], bad, good[2]]))


def test_array_budget_exhaustion_raises():
    p = Hyp2F1Params(0.5, 1.0, 1.5)   # c - a - b = 0: the series up to 1
    with pytest.raises(Hyp2F1ConvergenceError):
        hyp2f1_auto(p, np.array([0.1, 1.0 - 1e-12, 0.3]))


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
_GAMMA_FAMILY = [(ln_gamma, _ref_ln_gamma, _GAMMA_X[_GAMMA_X > 0.0]),
                 (gamma_fn, _ref_gamma_fn, _GAMMA_X),
                 (recip_gamma, _ref_recip_gamma, _GAMMA_X)]
_GAMMA_IDS = ["ln_gamma", "gamma_fn", "recip_gamma"]


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
    # over x in [-50, 60]); log Gamma itself differs by an ulp of its size.
    if f is ln_gamma:
        bound = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(want))
    else:
        bound = 1e-13 * np.abs(want)
    assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("f", [ln_gamma, gamma_fn, recip_gamma], ids=_GAMMA_IDS)
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


@pytest.mark.parametrize("f,bad", [(ln_gamma, 0.0), (ln_gamma, -2.5),
                                   (gamma_fn, 0.0), (gamma_fn, -7.0)])
def test_gamma_family_array_with_one_bad_point_is_refused(f, bad):
    with pytest.raises(ValueError, match=str(bad)):
        f(np.array([1.5, 0.25, bad, 3.0]))
