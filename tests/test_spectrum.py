"""Spectral routes and their cross-checks.

The radial spectrum is triangulated three independent ways (closed form,
Gamma-condition roots, discrete pencil); a fourth oracle for the odd family
substitutes phi = sqrt(1-rho^2) psi, which turns the Dirichlet problem into
a natural problem with polynomial eigenfunctions and eigenvalues shifted by
2n + 1.
"""
import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest

from hprofile import spectrum
from hprofile.geometry import ProfileParams
from hprofile.numerics import (bisect_root, gauss_jacobi_rule,
                               integrate_profile_radial, profile_rule,
                               sym_tridiag_eigen)
from hprofile.spectrum import (ROOT_SCAN_STEP, ROOT_TOL, RadialTrial,
                               _ASSEMBLY_FLOATS, _pole_mass,
                               build_mode_operator,
                               build_radial_discretization,
                               default_green_polar_trials,
                               default_green_radial_trials,
                               discrete_radial_spectrum,
                               eigencondition_even_roots,
                               eigencondition_odd_roots, even_condition_value,
                               gram_matrix, green_check,
                               green_symmetry_residual, mode_spectrum,
                               odd_condition_value, poincare_constant_estimate,
                               radial_eigenfunction, radial_eigenvalue,
                               rayleigh_quotient, richardson,
                               subdomain_bound_check)


# --- closed forms -----------------------------------------------------------

def test_eigenvalue_formula():
    p1, p2 = ProfileParams(1), ProfileParams(2)
    assert radial_eigenvalue(1, p1) == 3.0      # Q - 1
    assert radial_eigenvalue(2, p1) == 8.0      # 2 Q
    assert radial_eigenvalue(3, p2) == 21.0


def test_zero_index_rejected():
    with pytest.raises(ValueError):
        radial_eigenvalue(0, ProfileParams(1))
    with pytest.raises(ValueError):
        radial_eigenfunction(0, ProfileParams(1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_first_eigenfunction_is_sqrt(n):
    params = ProfileParams(n)
    mode = radial_eigenfunction(1, params)
    r = np.linspace(0.0, 1.0, 100)
    scaled = mode.value(r) / mode.value(0.0)
    assert np.max(np.abs(scaled - np.sqrt(1.0 - r * r))) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_second_eigenfunction_polynomial(n):
    params = ProfileParams(n)
    Q = params.Q
    mode = radial_eigenfunction(2, params)
    r = np.linspace(0.0, 1.0, 100)
    scaled = mode.value(r) / mode.value(0.0)
    target = ((Q - 1.0) - Q * r * r) / (Q - 1.0)
    assert np.max(np.abs(scaled - target)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_second_mode_curvature_is_constant_up_to_equator(n):
    # k = 2 is a quadratic, so f'' = -2Q/(Q-1) f(0) everywhere, rho = 1 included
    Q = ProfileParams(n).Q
    mode = radial_eigenfunction(2, ProfileParams(n))
    expected = -2.0 * Q / (Q - 1.0) * mode.value(0.0)
    got = mode.second_deriv(np.array([0.0, 0.5, 1.0]))
    assert np.max(np.abs(got - expected)) <= 1e-12 * abs(expected)
    assert mode.second_deriv(1.0) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_odd_mode_derivatives_refuse_the_equator(k):
    # odd modes behave like sqrt(1 - rho^2): unbounded slope at rho = 1
    mode = radial_eigenfunction(k, ProfileParams(1))
    with pytest.raises(ValueError):
        mode.deriv(1.0)
    with pytest.raises(ValueError):
        mode.second_deriv(1.0)
    with pytest.raises(ValueError):
        mode.deriv(np.array([0.5, 1.0]))


def _normalization_reference(n, k):
    """N_k at 40 digits from the Gegenbauer norm in Gammas (DLMF 18.3):
    h_k = 2^{1-2n} pi Gamma(k + 2n) / ((k + n) k! Gamma(n)^2) over [-1, 1],
    half of it on one hemisphere, C_k^(n)(1) = Gamma(k + 2n) / (k! Gamma(2n))
    and A = 2 pi^n / Gamma(n)."""
    with mpmath.workdps(40):
        n, k = mpmath.mpf(n), mpmath.mpf(k)
        g = mpmath.gamma
        h = (2 ** (1 - 2 * n) * mpmath.pi * g(k + 2 * n)
             / ((k + n) * g(k + 1) * g(n) ** 2))
        at_one = g(k + 2 * n) / (g(k + 1) * g(2 * n))
        area = 2 * mpmath.pi ** n / g(n)
        return mpmath.sqrt(2 * at_one ** 2 / (area * h))


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 5), (3, 8), (1, 40),
                                 (3, 127), (12, 40), (12, 100), (171, 8)])
def test_normalization_matches_the_gegenbauer_norm(n, k):
    exact = _normalization_reference(n, k)
    got = radial_eigenfunction(k, ProfileParams(n)).normalization
    assert float(abs(got - exact) / exact) <= 4e-15


@pytest.mark.parametrize("n,k", [(1, 128), (1, 200), (3, 128), (3, 200)])
def test_modes_stay_normalized_at_large_k(n, k):
    # the 400-node rule integrates |F|^2, of degree k in rho^2, exactly
    params = ProfileParams(n)
    mode = radial_eigenfunction(k, params)
    norm2 = params.sphere_area * integrate_profile_radial(
        lambda r: mode.value(r) ** 2, profile_rule(params, 400))
    assert abs(norm2 - 1.0) <= 1e-12


def test_normalization_out_of_float_range_is_refused():
    with pytest.raises(ValueError, match="leaves float range"):
        radial_eigenfunction(5000, ProfileParams(171))


def test_mode_parameter_relations():
    # a + b = n and -4ab = lambda for every family member
    for n in (1, 2, 3):
        params = ProfileParams(n)
        for k in range(1, 9):
            mode = radial_eigenfunction(k, params)
            assert mode.hyp.a + mode.hyp.b == pytest.approx(float(n), abs=1e-12)
            assert -4.0 * mode.hyp.a * mode.hyp.b == pytest.approx(mode.lam,
                                                                   rel=1e-13)
            assert mode.hyp.c == n + 0.5


def test_odd_mode_sign_convention():
    # the lower hemisphere carries hemisphere_sign times the upper values
    assert radial_eigenfunction(3, ProfileParams(1)).hemisphere_sign == -1
    assert radial_eigenfunction(2, ProfileParams(1)).hemisphere_sign == 1


def test_odd_modes_vanish_at_equator():
    for n in (1, 2):
        params = ProfileParams(n)
        for m in range(5):
            mode = radial_eigenfunction(2 * m + 1, params)
            assert abs(mode.value(1.0)) <= 1e-8


def test_even_modes_have_zero_weighted_mean():
    for n in (1, 2):
        params = ProfileParams(n)
        rule = profile_rule(params, 64)
        for m in range(1, 5):
            mode = radial_eigenfunction(2 * m, params)
            val = integrate_profile_radial(mode.value, rule)
            assert abs(val) <= 1e-10


# --- Gamma conditions ---------------------------------------------------------

def test_even_condition_value_at_lambda_3():
    assert even_condition_value(3.0, ProfileParams(1)) == pytest.approx(
        1.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("n,lmax,expected", [
    (1, 100.0, [8.0, 24.0, 48.0, 80.0]),
    (2, 50.0, [12.0, 32.0]),   # 2m(2m+2n) with n = 2
])
def test_even_roots(n, lmax, expected):
    roots = eigencondition_even_roots(lmax, ProfileParams(n))
    assert len(roots) == len(expected)
    for r, e in zip(roots, expected):
        assert abs(r - e) <= 1e-8


@pytest.mark.parametrize("n,lmax,expected", [
    (1, 100.0, [3.0, 15.0, 35.0, 63.0, 99.0]),
    (2, 40.0, [5.0, 21.0]),
])
def test_odd_roots(n, lmax, expected):
    roots = eigencondition_odd_roots(lmax, ProfileParams(n))
    assert len(roots) == len(expected)
    for r, e in zip(roots, expected):
        assert abs(r - e) <= 1e-8


def test_even_eigenvalue_is_not_odd_root():
    # disjoint parity families: the odd condition is nonzero at lambda = 8
    assert abs(odd_condition_value(8.0, ProfileParams(1))) > 1e-3


def test_root_families_match_closed_form_for_m_up_to_4():
    for n in (1, 2):
        params = ProfileParams(n)
        lmax = float((2 * 4 + 1) * (2 * 4 + 1 + 2 * n) + 1)
        even = eigencondition_even_roots(lmax, params)
        odd = eigencondition_odd_roots(lmax, params)
        for m in range(1, 5):
            assert abs(even[m - 1] - 2 * m * (2 * m + 2 * n)) <= 1e-8
        for m in range(5):
            assert abs(odd[m] - (2 * m + 1) * (2 * m + 1 + 2 * n)) <= 1e-8


@pytest.mark.parametrize("roots,n,lmax", [
    (eigencondition_even_roots, 2, 12.0),    # lambda_2 = 12
    (eigencondition_odd_roots, 1, 3.0),      # lambda_1 = 3
    (eigencondition_odd_roots, 2, 5.0),      # lambda_1 = 5
])
def test_a_root_at_lambda_max_is_kept(roots, n, lmax):
    assert roots(lmax, ProfileParams(n)) == [lmax]


@pytest.mark.parametrize("lmax", [0.0, -1.0, math.inf, math.nan])
def test_root_scan_refuses_a_bad_lambda_max(lmax):
    with pytest.raises(ValueError, match="positive and finite"):
        eigencondition_even_roots(lmax, ProfileParams(1))


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_root_scan_chunks_share_their_end_points(monkeypatch, chunk):
    # a zero or a sign change on a chunk boundary is found exactly once
    params = ProfileParams(2)
    want = [scan(300.0, params) for scan in (eigencondition_even_roots,
                                             eigencondition_odd_roots)]
    monkeypatch.setattr(spectrum, "_SCAN_CHUNK", chunk)
    for scan, roots in zip((eigencondition_even_roots,
                            eigencondition_odd_roots), want):
        assert scan(300.0, params) == roots
        assert scan(12.0, params) == [r for r in roots if r <= 12.0]


def test_root_scan_past_float_range_raises():
    # a scan that meets a value out of float range refuses rather than
    # dropping the steps it cannot evaluate
    def condition(lam):
        return np.where(lam > 100.0, np.inf, np.sin(lam))
    with pytest.raises(OverflowError, match="leaves float range at lambda = 100.25"):
        spectrum._scan_roots(condition, 200.0)


@pytest.mark.parametrize("scan,first", [(eigencondition_even_roots, 2),
                                        (eigencondition_odd_roots, 1)])
def test_root_scans_reach_large_lambda(scan, first):
    # each reciprocal Gamma alone leaves float range near lambda = 1.2e5
    # (n = 1); their log-Gamma ratio does not
    roots = scan(1.5e5, ProfileParams(1))
    closed = [k * (k + 2.0) for k in range(first, 400, 2)
              if k * (k + 2) <= 1.5e5]
    assert len(roots) == len(closed) == 193
    assert max(abs(r - c) for r, c in zip(roots, closed)) <= ROOT_TOL


@pytest.mark.parametrize("n", [172, 1000])
def test_root_scans_past_gamma_overflow(n):
    # Gamma(n + 1/2) alone leaves float range from n = 172 on; the
    # conditions keep it inside their one log-Gamma ratio
    params = ProfileParams(n)
    lmax = 4.0 * (4 + 2 * n) + 1.0
    assert eigencondition_odd_roots(lmax, params) == [
        radial_eigenvalue(k, params) for k in (1, 3)]
    assert eigencondition_even_roots(lmax, params) == [
        radial_eigenvalue(k, params) for k in (2, 4)]


@pytest.mark.parametrize("n,count", [(300, 468), (1000, 224)])
def test_root_scans_are_complete_at_large_n(n, count):
    # the condition values fall below 1e-154 here, where the product of two
    # of them underflows to 0: a scan that tested products lost 12 roots at
    # n = 300 (the first 472500) and 3 at n = 1000 (the first 488400)
    params = ProfileParams(n)
    lmax = 5e5
    roots = sorted(eigencondition_even_roots(lmax, params)
                   + eigencondition_odd_roots(lmax, params))
    closed = [radial_eigenvalue(k, params) for k in range(1, 1000)
              if radial_eigenvalue(k, params) <= lmax]
    assert len(roots) == len(closed) == count
    assert max(abs(r - c) for r, c in zip(roots, closed)) <= ROOT_TOL


def test_root_scan_bisects_each_chunk_in_one_call_per_step(monkeypatch):
    # the values at the grid points are reused at the bracket ends, and every
    # step evaluates f once on all open brackets of the chunk
    seen = []

    def bisect(f, lo, hi, tol, flo, fhi):
        def counted(x):
            seen.append(np.shape(x))
            return f(x)
        return bisect_root(counted, lo, hi, tol, flo, fhi)
    params = ProfileParams(2)
    want = eigencondition_odd_roots(2000.0, params)
    monkeypatch.setattr(spectrum, "bisect_root", bisect)
    assert eigencondition_odd_roots(2000.0, params) == want
    # each k (k + 4) is the midpoint of its step of the grid 0.25 + j / 2,
    # where the condition is exactly 0: one step closes all 21 brackets
    assert seen == [(21,)]
    seen.clear()
    roots = spectrum._scan_roots(np.sin, 100.0)
    assert len(roots) == 31
    assert max(abs(r - j * math.pi) for j, r in enumerate(roots, 1)) <= ROOT_TOL
    assert len(seen) == 33 and seen[0] == (31,)   # 0.5 / 2^33 < ROOT_TOL


# The per-point scan the array scan replaced, verbatim, as the reference for
# the roots below lambda_max.  It never looks for an exact zero at its last
# grid point, so a root at lambda_max itself is missing from its list.
def _ref_scan_roots(f, lam_max):
    roots = []
    lo = 0.25
    flo = f(lo)
    lam = lo
    while lam < lam_max:
        hi = min(lam + ROOT_SCAN_STEP, lam_max)
        fhi = f(hi)
        if flo == 0.0:
            roots.append(lam)
        elif flo * fhi < 0.0:
            roots.append(bisect_root(f, lam, hi, ROOT_TOL))
        lam, flo = hi, fhi
    return roots


_SCANS = {"even": (even_condition_value, eigencondition_even_roots),
          "odd": (odd_condition_value, eigencondition_odd_roots)}


# every root with k <= 40, and a lambda_max that cuts the last step short
# of the grid spacing, inside the bracket of lambda_2 = 12 (n = 2)
@pytest.mark.parametrize("n,lmax", [(n, 40 * (40 + 2 * n) + 1.0)
                                    for n in (*range(1, 13), 40)] + [(2, 12.1)])
@pytest.mark.parametrize("family", ["even", "odd"])
def test_array_scan_matches_the_per_point_scan(family, n, lmax):
    value, scan = _SCANS[family]
    params = ProfileParams(n)
    ref = _ref_scan_roots(lambda lam: value(lam, params), lmax)
    assert scan(lmax, params) == ref
    # the array values pick the same brackets: each grid point has the sign
    # of its float value (they differ by up to 5.7e-14 relative, measured)
    grid = [0.25]
    while grid[-1] < lmax:
        grid.append(min(grid[-1] + ROOT_SCAN_STEP, lmax))
    floats = np.array([value(lam, params) for lam in grid])
    array = value(np.array(grid), params)
    assert np.array_equal(np.sign(array), np.sign(floats))
    assert np.all(np.abs(array - floats) <= 2e-13 * np.abs(floats))


# --- discrete pencil ----------------------------------------------------------

@pytest.mark.parametrize("kwargs, message", [
    (dict(interval=(0.9, 0.2)), "0 <= a < b <= 1"),
    (dict(interval=(0.3, 0.3)), "0 <= a < b <= 1"),
    (dict(interval=(0.0, 1.2)), "0 <= a < b <= 1"),
    (dict(bc_left="dirichlet"), "pole end"),
    (dict(n_points=1), "n_points must be >= 2"),
    (dict(bc_right="dirichet"), "bc must be 'natural' or 'dirichlet'"),
    (dict(interval=(0.2, 0.9), bc_left="Dirichlet"),
     "bc must be 'natural' or 'dirichlet'"),
])
def test_pencil_assembly_validation(kwargs, message):
    args = dict(params=ProfileParams(1), n_points=40) | kwargs
    with pytest.raises(ValueError, match=message):
        build_radial_discretization(**args)


def test_pencil_validation():
    params = ProfileParams(1)
    with pytest.raises(ValueError):
        discrete_radial_spectrum(params, "natural", 30, 2)
    with pytest.raises(ValueError):
        discrete_radial_spectrum(params, "natural", 100, 80)
    with pytest.raises(ValueError):
        discrete_radial_spectrum(params, "mixed", 100, 2)
    for bc in ("Natural", "dirichet"):
        with pytest.raises(ValueError, match="bc must be"):
            discrete_radial_spectrum(params, bc, 100, 2)


@pytest.mark.parametrize("n", [1, 2])
def test_discrete_even_spectrum_within_one_percent(n):
    params = ProfileParams(n)
    vals = discrete_radial_spectrum(params, "natural", 2000, 3)
    for m, v in enumerate(vals, start=1):
        exact = 2 * m * (2 * m + 2 * n)
        assert abs(v - exact) / exact <= 0.01


@pytest.mark.parametrize("n", [1, 2])
def test_discrete_odd_spectrum_within_one_percent(n):
    params = ProfileParams(n)
    vals = discrete_radial_spectrum(params, "dirichlet", 2000, 3)
    for m, v in enumerate(vals):
        exact = (2 * m + 1) * (2 * m + 1 + 2 * n)
        assert abs(v - exact) / exact <= 0.01


def test_pencil_nonnegative_for_all_grids():
    # the zero mode of the natural pencil is computed to eigensolver backward
    # error, which scales with the pencil norm; assert relative nonnegativity
    params = ProfileParams(1)
    for n_points in (100, 400, 1000):
        for bc in ("natural", "dirichlet"):
            disc = build_radial_discretization(params, n_points, bc_right=bc)
            d, e = disc.symmetrized()
            gersh = float(np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)))
            vals = disc.lowest(5)
            assert np.all(vals >= -1e-10 * max(1.0, gersh))
    assert np.all(np.asarray(discrete_radial_spectrum(params, "natural",
                                                      400, 4)) >= -1e-10)


def _per_element_pencil(n, m, bc_right, interval, bc_left):
    """(conductances, K's diagonal, K's off-diagonal, mass) of the lumped P1
    pencil assembled element by element: Gauss-Legendre on each element of
    the uniform mesh in sigma = asin(rho), W = sin^{2n} sigma against the
    two hats.  The conductances are those of every element, dropped ends
    included."""
    leg = gauss_jacobi_rule(12, 0.0, 0.0)
    lo, hi = math.asin(interval[0]), math.asin(interval[1])
    h = (hi - lo) / m
    edges = [lo + j * h for j in range(m)] + [hi]
    conds, diag, mass = np.zeros(m), np.zeros(m + 1), np.zeros(m + 1)
    for j in range(m):
        width = edges[j + 1] - edges[j]
        wx = np.sin(edges[j] + width * leg.nodes) ** (2 * n)
        left = width * float(np.dot(wx * (1.0 - leg.nodes), leg.weights))
        right = width * float(np.dot(wx * leg.nodes, leg.weights))
        cond = (left + right) / (h * h)
        mass[j] += left
        mass[j + 1] += right
        diag[j] += cond
        diag[j + 1] += cond
        conds[j] = cond
    first, last = bc_left == "dirichlet", m - (bc_right == "dirichlet")
    return (conds, diag[first:last + 1], -conds[first:last],
            mass[first:last + 1])


@pytest.mark.parametrize("n", [1, 3, 12, 40])
@pytest.mark.parametrize("bc_right", ["natural", "dirichlet"])
@pytest.mark.parametrize("interval,bc_left", [((0.0, 1.0), "natural"),
                                              ((0.3, 1.0), "dirichlet"),
                                              ((0.2, 0.9), "dirichlet")])
def test_pencil_matches_per_cell_assembly(n, bc_right, interval, bc_left):
    # the assembly takes its node sines from the vertices by angle addition
    # and powers them by squaring; the reference calls sin and pow at each
    # node of each element.  At n = 40 the pole elements' W spans hundreds
    # of decades, where a cancelling node sine would show first.
    m = 1000
    disc = build_radial_discretization(ProfileParams(n), m, bc_right,
                                       interval, bc_left)
    want = _per_element_pencil(n, m, bc_right, interval, bc_left)
    # K's diagonals as the conductances give them
    first, last = bc_left == "dirichlet", m - (bc_right == "dirichlet")
    diag = np.r_[disc.cond, 0.0] + np.r_[0.0, disc.cond]
    got = (disc.cond, diag[first:last + 1], -disc.cond[first:last], disc.mass)
    for g, r in zip(got, want):
        assert g.shape == r.shape
        assert np.max(np.abs(g - r) / np.abs(r)) <= 8 * m * np.finfo(float).eps
    kept = m + 1 - (bc_left == "dirichlet") - (bc_right == "dirichlet")
    assert len(disc.mass) == kept
    assert disc.h == (math.asin(interval[1]) - math.asin(interval[0])) / m


def _weight_integral(n):
    # int_0^{pi/2} sin^{2n} = int_0^1 rho^{2n} / sqrt(1 - rho^2)
    return math.sqrt(math.pi) * math.gamma(n + 0.5) / (2.0 * math.gamma(n + 1))


@pytest.mark.parametrize("n_points", [49, 50, 1000, 8000])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_pencil_mass_is_the_weight_integral(n, n_points):
    # the elements tile [0, pi/2]; at 49 elements 49 * (h) rounds below
    # pi/2, so the last vertex must be set to pi/2 itself
    disc = build_radial_discretization(ProfileParams(n), n_points)
    assert disc.mass.sum() == pytest.approx(_weight_integral(n), rel=1e-14,
                                            abs=0.0)


@pytest.mark.parametrize("n_points", [50, 1000, 8000])
def test_pencil_conductances_carry_the_weight_integral(n_points):
    # each element's conductance times h^2 is its integral of W, so the
    # stiffness and the lumped mass account for the same total
    for n in (1, 2, 3):
        disc = build_radial_discretization(ProfileParams(n), n_points)
        total = float(disc.cond.sum()) * disc.h ** 2
        assert total == pytest.approx(_weight_integral(n), rel=1e-13, abs=0.0)
        assert total == pytest.approx(float(disc.mass.sum()), rel=1e-13,
                                      abs=0.0)


def _linspace_pencil_digest(params, n_points, bc_right, interval, bc_left):
    """SHA-256 of the pencil's arrays as build_radial_discretization
    assembled them from np.linspace edges."""
    a, b = interval
    edges = np.linspace(math.asin(a), math.asin(b), n_points + 1)
    h = (edges[-1] - edges[0]) / n_points
    half = spectrum._half_masses(params.n, edges[:-1], h)
    cond = half.sum(axis=0) / (h * h)
    mass = spectrum._vertex_sums(half[0], half[1])
    first = bc_left == "dirichlet"
    last = n_points - (bc_right == "dirichlet")
    arrays = (np.float64(h), mass[first:last + 1], half, cond)
    return hashlib.sha256(b"".join(x.tobytes() for x in arrays)).hexdigest()


@pytest.mark.parametrize("n", [1, 3, 12])
@pytest.mark.parametrize("n_points", [2, 3, 50, 999, 1000, 4097, 100_000])
@pytest.mark.parametrize("interval,bcs", [
    ((0.0, 1.0), ("natural", "natural")),
    ((0.0, 1.0), ("dirichlet", "natural")),
    ((0.05, 0.95), ("dirichlet", "dirichlet")),
    ((0.3, 0.99), ("dirichlet", "dirichlet")),
    ((0.5, 1.0), ("dirichlet", "dirichlet"))])
def test_pencil_is_the_one_assembled_on_linspace_edges(n, n_points, interval,
                                                       bcs):
    # the elements' left ends j h + asin a round as np.linspace rounds them
    bc_right, bc_left = bcs
    disc = build_radial_discretization(ProfileParams(n), n_points, bc_right,
                                       interval, bc_left)
    arrays = (np.float64(disc.h), disc.mass, disc.half, disc.cond)
    got = hashlib.sha256(b"".join(x.tobytes() for x in arrays)).hexdigest()
    assert got == _linspace_pencil_digest(ProfileParams(n), n_points,
                                          bc_right, interval, bc_left)


@pytest.mark.parametrize("n", [1, 2, 12, 40, 60, 171, 1000])
@pytest.mark.parametrize("n_points", [50, 1000, 2000])
def test_pole_mass_is_the_assembled_one(n, n_points):
    # n = 60 underflows from grid 1000 on, n = 171 and 1000 on every grid:
    # then both are 0
    disc = build_radial_discretization(ProfileParams(n), n_points)
    got = _pole_mass(ProfileParams(n), n_points)
    assert got == pytest.approx(float(disc.mass[0]), rel=1e-14, abs=0.0)
    assert (got == 0.0) == (n >= 171 or n == 60 and n_points >= 1000)


@pytest.mark.parametrize("grid", [500, 1000, 2049, 2050, 4000, 4099, 8000])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_half_masses_in_blocks_are_the_whole_mesh_product(n, grid):
    # a BLAS kernel rounds the tail of a product, and a one-element block,
    # its own way; the blocks must leave exactly the whole mesh's tail
    start = np.linspace(0.0, math.pi / 2, grid + 1)[:-1]
    h = (math.pi / 2) / grid
    ht = h * spectrum._SEG_SMOOTH.nodes
    w = (np.stack([np.sin(start), np.cos(start)], axis=1)
         @ np.stack([np.cos(ht), np.sin(ht)]))
    whole = (h * spectrum._HAT_WEIGHTS) @ spectrum._power(w, 2 * n).T
    assert np.array_equal(spectrum._half_masses(n, start, h), whole)


@pytest.mark.parametrize("n", [1, 3, 12])
def test_assembly_memory_is_within_the_workspace_model(n):
    # the admission estimate counts _ASSEMBLY_FLOATS an element and one
    # block of W; where 2n is not a power of two (n = 3, 12) the block holds
    # two (elements, 12) arrays of W at once, which dominate below grid 2048
    build_radial_discretization(ProfileParams(n), 50)
    for grid in (400, 2047, 100_000):
        tracemalloc.start()
        try:
            build_radial_discretization(ProfileParams(n), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (_ASSEMBLY_FLOATS * grid + spectrum._W_BLOCK_FLOATS)


@pytest.mark.parametrize("n,bc,grid,count", [
    (1, "natural", 100_000, 1), (12, "dirichlet", 100_000, 1),
    (3, "natural", 100_000, 4), (1, "natural", 400, 100),
    (12, "dirichlet", 1000, 250)])
def test_radial_solve_memory_is_within_the_workspace_model(monkeypatch, n,
                                                           bc, grid, count):
    # check_radial_solve's estimate counts the assembly, the pencil, the
    # Lanczos basis with the locked constants, its fixed vectors and the
    # eigenpair check's arrays; tracemalloc sees all of them
    discrete_radial_spectrum(ProfileParams(n), bc, 400, 4)
    tracemalloc.start()
    try:
        discrete_radial_spectrum(ProfileParams(n), bc, grid, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the estimate is at least the peak: a limit just below the peak refuses
    monkeypatch.setattr(spectrum, "_WORKSPACE_LIMIT", peak - 1)
    with pytest.raises(ValueError, match="eigensolver workspace"):
        spectrum.check_radial_solve(ProfileParams(n), grid, count)


def test_subdomain_solve_holds_the_fixed_vectors_counted():
    # both ends Dirichlet hold the most besides the basis: the two
    # resistance sums of the Green's operator
    grid = 100_000
    disc = build_radial_discretization(ProfileParams(2), grid, "dirichlet",
                                       (0.2, 0.9), "dirichlet")
    disc.lowest(1)
    tracemalloc.start()
    try:
        disc.lowest(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    basis = spectrum._ncv(1, grid + 1)
    assert peak <= 8 * (grid + 1) * (basis + spectrum._LANCZOS_FIXED)


@pytest.mark.parametrize("k", [0, 1, 4])
@pytest.mark.parametrize("matching", ["continuity", "antisymmetry"])
def test_mode_build_memory_is_within_the_workspace_model(k, matching):
    # the radial assembly's own peak is 4 floats an element past one block
    # of W; the complex diagonals are written once each, after the pencil's
    # arrays that they do not read are freed.  At grid 2000 the block of W
    # dominates.
    build_mode_operator(k, 400, matching)
    for grid in (2000, 100_000):
        tracemalloc.start()
        try:
            build_mode_operator(k, grid, matching)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (spectrum._MODE_BUILD_FLOATS * grid
                            + spectrum._W_BLOCK_FLOATS)


@pytest.mark.parametrize("k,matching,count", [(0, "continuity", 1),
                                               (1, "antisymmetry", 4)])
def test_mode_solve_memory_is_within_the_workspace_model(monkeypatch, k,
                                                         matching, count):
    # check_mode_solve's estimate counts the operator's assembly, the gttrf
    # factor, the Krylov-Schur basis, its fixed vectors and H's dense
    # eigensolve; tracemalloc sees all of them
    grid = 100_000
    mode_spectrum(k, 400, count, matching)
    tracemalloc.start()
    try:
        mode_spectrum(k, grid, count, matching)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the estimate is at least the peak: a limit just below the peak refuses
    monkeypatch.setattr(spectrum, "_WORKSPACE_LIMIT", peak - 1)
    with pytest.raises(ValueError, match="eigensolver workspace"):
        spectrum.check_mode_solve(k, grid, count)


@pytest.mark.parametrize("n", [1, 2, 3, 12, 16, 40])
@pytest.mark.parametrize("bc", ["natural", "dirichlet"])
def test_lumped_values_lie_below_the_closed_form(n, bc):
    # measured, not proven: lumping moves every value below lambda_k on
    # these grids; the spurious 68.556 of the old pencil at n = 12 broke it
    params = ProfileParams(n)
    first = 2 if bc == "natural" else 1
    exact = np.array([radial_eigenvalue(k, params)
                      for k in range(first, first + 24, 2)])
    for grid in (50, 1000, 2000):
        vals = discrete_radial_spectrum(params, bc, grid, 12)
        assert np.all(vals <= exact)


def test_richardson_improves_grid_pair():
    params = ProfileParams(1)
    l1 = discrete_radial_spectrum(params, "dirichlet", 500, 3)
    l2 = discrete_radial_spectrum(params, "dirichlet", 1000, 3)
    ex = richardson(l1, l2)
    exact = np.array([3.0, 15.0, 35.0])
    assert np.all(np.abs(ex - exact) < np.abs(l2 - exact))


def test_odd_family_against_substitution_oracle():
    """phi = sqrt(1-rho^2) psi maps the Dirichlet problem onto the natural
    problem for p~ = rho^{2n}(1-rho^2)^{3/2}, w~ = rho^{2n} sqrt(1-rho^2),
    with eigenvalues shifted down by 2n + 1: an independent discretization
    route to the same numbers."""
    from hprofile.numerics import gauss_jacobi_rule
    leg = gauss_jacobi_rule(12, 0.0, 0.0)
    jac = gauss_jacobi_rule(16, -1.5 + 2.0, 0.0)  # smooth helper (unused weight)

    def seg(f, a, b):
        x = a + (b - a) * leg.nodes
        return (b - a) * float(np.dot(leg.weights, f(x)))

    for n in (1, 2):
        two_n = 2 * n
        M = 600
        h = 1.0 / M
        nodes = (np.arange(M) + 0.5) * h
        edges = np.arange(M + 1) * h
        inv_pt = lambda r: r ** (-two_n) * (1.0 - r * r) ** -1.5
        wt = lambda r: r ** two_n * np.sqrt(1.0 - r * r)
        cond = np.array([1.0 / seg(inv_pt, nodes[j], nodes[j + 1])
                         for j in range(M - 1)])
        diag = np.zeros(M)
        diag[:-1] += cond
        diag[1:] += cond
        mass = np.array([seg(wt, edges[j], edges[j + 1]) for j in range(M)])
        s = 1.0 / np.sqrt(mass)
        vals = sym_tridiag_eigen(diag * s * s, -cond * s[:-1] * s[1:], 4)
        assert abs(vals[0]) < 1e-6          # constant psi <-> phi_1
        shifted = vals[1:] + (two_n + 1)
        direct = discrete_radial_spectrum(ProfileParams(n), "dirichlet", 600, 4)
        for m, v in enumerate(shifted, start=1):
            exact = (2 * m + 1) * (2 * m + 1 + two_n)
            assert abs(v - exact) / exact <= 0.02
            assert abs(v - direct[m]) / exact <= 0.02


# --- three-route consistency ---------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_three_routes_agree(n):
    params = ProfileParams(n)
    lmax = 9 * (9 + 2 * n) + 1.0
    roots = sorted(eigencondition_even_roots(lmax, params)
                   + eigencondition_odd_roots(lmax, params))
    closed = sorted(radial_eigenvalue(k, params) for k in range(1, 9))
    for c, r in zip(closed, roots):
        assert abs(c - r) <= 1e-8
    ev1 = discrete_radial_spectrum(params, "natural", 1000, 4)
    ev2 = discrete_radial_spectrum(params, "natural", 2000, 4)
    od1 = discrete_radial_spectrum(params, "dirichlet", 1000, 4)
    od2 = discrete_radial_spectrum(params, "dirichlet", 2000, 4)
    disc = np.sort(np.concatenate([richardson(ev1, ev2),
                                   richardson(od1, od2)]))
    for c, d in zip(closed, disc):
        assert abs(c - d) / c <= 0.01


def _inf_norm(d, e):
    off = np.abs(e)
    return float(np.max(np.abs(d) + np.r_[off, 0.0] + np.r_[0.0, off]))


def _constant_mode_tol(norm):
    return spectrum.CONSTANT_MODE_EPS * np.finfo(float).eps * norm


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("n_points", [1000, 2000])
def test_constant_mode_tolerance_is_tight_on_the_study_grids(n, n_points):
    disc = build_radial_discretization(ProfileParams(n), n_points)
    assert _constant_mode_tol(_inf_norm(*disc.symmetrized())) <= 1e-6


@pytest.mark.parametrize("n_points,count", [(80_000, 2), (160_000, 1)])
def test_constant_mode_check_scales_with_the_grid(n_points, count):
    # the natural family is solved off the constants, so no computed zero
    # (4.4e-6 at grid 160000 under bisection) limits a fine grid: the values
    # sit below the closed form by the lumping error alone, 3.9e-10 and
    # 9.9e-10 relative at grid 80000
    vals = discrete_radial_spectrum(ProfileParams(1), "natural", n_points,
                                    count)
    exact = np.array([8.0, 24.0][:count])
    assert np.all(vals < exact)
    assert np.all((exact - vals) / exact <= 2e-9)


# --- the Green's-function solve ----------------------------------------------

@pytest.mark.parametrize("bc", [("natural", "natural"),
                                ("natural", "dirichlet"),
                                ("dirichlet", "dirichlet")])
def test_path_green_inverts_the_grounded_stiffness(bc):
    interval = (0.0, 1.0) if bc[0] == "natural" else (0.2, 0.9)
    disc = build_radial_discretization(ProfileParams(3), 60, bc[1], interval,
                                       bc[0])
    # the path Laplacian of every element, less the rows of dropped ends
    c = disc.cond
    K = np.diag(np.r_[c, 0.0] + np.r_[0.0, c]) - np.diag(c, 1) - np.diag(c, -1)
    first = bc[0] == "dirichlet"
    K = K[first:first + len(disc.mass), first:first + len(disc.mass)]
    resist = 1.0 / c
    if bc == ("natural", "natural"):
        K = K[:-1, :-1]          # grounded at the equator vertex
    green, energy = spectrum._path_green(resist, bc[0] == "dirichlet")
    G = np.column_stack([green(e) for e in np.eye(len(K))])
    assert np.all(G > 0.0)
    assert np.max(np.abs(G @ K - np.eye(len(K)))) <= 1e-12
    # x^T K^{-1} x in the energy form, for rows of either sign
    rows = np.random.default_rng(5).standard_normal((4, len(K)))
    want = np.einsum("ij,ij->i", rows @ G, rows)
    assert np.max(np.abs(energy(rows) - want) / want) <= 1e-12


@pytest.mark.parametrize("n_points", [2, 3, 7])
@pytest.mark.parametrize("bc", ["natural", "dirichlet"])
def test_lowest_on_the_whole_dimension_matches_a_dense_solve(bc, n_points):
    # the Krylov basis then spans the whole space off the constants, so
    # the first pass ends with a zero residual; one value more is refused
    disc = build_radial_discretization(ProfileParams(2), n_points, bc)
    d, e = disc.symmetrized()
    dense = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    dense = dense[1:] if bc == "natural" else dense
    got = disc.lowest(len(dense))
    assert np.max(np.abs(got - dense) / dense) <= 1e-14
    with pytest.raises(ValueError, match="count must be 1 to"):
        disc.lowest(len(dense) + 1)


def test_green_solve_refuses_a_floating_right_end():
    disc = build_radial_discretization(ProfileParams(1), 100, "natural",
                                       (0.3, 1.0), "dirichlet")
    with pytest.raises(ValueError, match="needs a Dirichlet right end"):
        disc.lowest(1)


def _mp_pencil(n, m):
    """Conductances and lumped masses of the P1 pencil, as Decimals of 30
    digits, integrated in 30 digits by 12-point Gauss-Legendre on each
    element of the float mesh (its edges taken exactly): no entry is the
    rounded float one, which carries its own eps ||K|| error."""
    from mpmath import mp, mpf, nstr
    from mpmath.calculus.quadrature import GaussLegendre
    edges = np.linspace(0.0, math.asin(1.0), m + 1)
    with mp.workdps(30):
        rule = GaussLegendre(mp).calc_nodes(3, mp.prec)    # 12 nodes on [-1, 1]
        e = [mpf(float(x)) for x in edges]
        h = (e[-1] - e[0]) / m
        cond, mass = [], [mpf(0)] * (m + 1)
        for j, (a, b) in enumerate(zip(e[:-1], e[1:])):
            left = right = mpf(0)
            for x, wt in rule:
                t = (x + 1) / 2
                f = mp.sin(a + (b - a) * t) ** (2 * n) * wt * (b - a) / 2
                left += f * (1 - t)
                right += f * t
            cond.append((left + right) / (h * h))
            mass[j] += left
            mass[j + 1] += right
        dec = lambda v: Decimal(nstr(v, 32, min_fixed=1, max_fixed=0))
        return [dec(c) for c in cond], [dec(v) for v in mass]


def _count_below(lam, cond, mass):
    """Eigenvalues of the pencil below lam: the negative pivots of
    K - lam M (Sturm), K assembled from the conductances, the vertices past
    len(mass) grounded."""
    below, d = 0, None
    for i, m_i in enumerate(mass):
        di = ((cond[i - 1] if i else 0) + (cond[i] if i < len(cond) else 0)
              - lam * m_i)
        if i:
            di -= cond[i - 1] ** 2 / d
        below += di < 0
        d = di
    return below


def _sturm_eigenvalue(index, guess, cond, mass):
    """The index-th eigenvalue (from 0) by bisection of Sturm counts, from a
    bracket of +-1e-12 relative around guess, to 1e-18 relative."""
    lo = Decimal(guess) * (1 - Decimal("1e-12"))
    hi = Decimal(guess) * (1 + Decimal("1e-12"))
    assert _count_below(lo, cond, mass) <= index < _count_below(hi, cond, mass)
    while hi - lo > lo * Decimal("1e-18"):
        mid = (lo + hi) / 2
        if _count_below(mid, cond, mass) > index:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


@pytest.mark.parametrize("n", [1, 3, 12])
def test_radial_solve_against_a_30_digit_reference(n):
    # counts 1 and 4: measured at most 1.3e-15; bisection's eps ||A|| missed
    # the 1e-12 bracket at grid 400.  Count 1 runs Lanczos on its shortest
    # basis, ncv = 3.  Count grid / 4 = 100 (n = 1, 12) is held to the
    # README's eps lambda_k / lambda_1, times 8; measured at most 6.8e-16 at
    # indices 0, 50 and 99, where that bound is 1.8e-15 to 2.3e-11.
    m = 400
    eps = np.finfo(float).eps
    with localcontext() as ctx:
        ctx.prec = 30
        cond, mass = _mp_pencil(n, m)
        for bc, first in (("natural", 1), ("dirichlet", 0)):
            kept = mass if bc == "natural" else mass[:-1]
            for count in (1, 4):
                vals = discrete_radial_spectrum(ProfileParams(n), bc, m, count)
                for i, v in enumerate(vals):
                    ref = _sturm_eigenvalue(first + i, v, cond, kept)
                    assert abs(Decimal(v) - ref) / ref <= Decimal("1e-14")
            if n == 3:
                continue
            vals = discrete_radial_spectrum(ProfileParams(n), bc, m, m // 4)
            for i in (0, 50, 99):
                ref = _sturm_eigenvalue(first + i, vals[i], cond, kept)
                tol = 8 * eps * vals[i] / vals[0]
                assert abs(Decimal(vals[i]) - ref) / ref <= Decimal(tol)


# The values each solve sizes its basis for, as check_radial_solve and
# check_mode_solve count them; k = 0 under continuity solves for the most.
@pytest.mark.parametrize("count", [1, 4, 100])     # 100: grid / 4
def test_solves_run_on_the_basis_the_workspace_model_counts(monkeypatch,
                                                            count):
    grid, passed = 400, []
    krylov_schur = spectrum._krylov_schur

    def record_krylov_schur(apply, basis, locked, count, tol):
        # the rows past the locked ones are the Krylov basis
        passed.append(len(basis) - locked)
        return krylov_schur(apply, basis, locked, count, tol)

    monkeypatch.setattr(spectrum, "_krylov_schur", record_krylov_schur)
    for bc in ("natural", "dirichlet"):
        discrete_radial_spectrum(ProfileParams(2), bc, grid, count)
    mode_spectrum(0, grid, count, "continuity")
    assert passed == [spectrum._ncv(count, grid)] * 2 + [
        spectrum._mode_ncv(count + 1 + spectrum._MODE_EXTRA, grid + 1)]


def _counting_solver(monkeypatch):
    """A radial solve (n, bc, grid, count) -> (dense eigensolves of H,
    operator applications) that it took."""
    eighs, applications = [], []
    eigh, krylov_schur = np.linalg.eigh, spectrum._krylov_schur

    def counted_eigh(*args, **kwargs):
        eighs.append(1)
        return eigh(*args, **kwargs)

    def counted_krylov_schur(apply, basis, locked, count, tol):
        def counted_apply(x):
            applications.append(1)
            return apply(x)
        return krylov_schur(counted_apply, basis, locked, count, tol)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(spectrum, "_krylov_schur", counted_krylov_schur)

    def solve(n, bc, grid, count):
        eighs.clear()
        applications.clear()
        discrete_radial_spectrum(ProfileParams(n), bc, grid, count)
        return len(eighs), len(applications)
    return solve


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("bc", ["natural", "dirichlet"])
def test_count_4_radial_solves_converge_in_one_sweep(monkeypatch, n, bc):
    # the benchmark ladder's grids up to the spare rows' limit: on 2 counts
    # + 10 rows one sweep of 18 applications converges, where 2 counts + 1
    # rows took 4 or 5 eigensolves of H and 18 to 21 applications
    solve = _counting_solver(monkeypatch)
    for grid in (500, 1000, 2000, 4000, 4096):
        assert solve(n, bc, grid, 4) == (1, 18)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("bc", ["natural", "dirichlet"])
def test_count_1_radial_solve_at_grid_1000_converges_in_one_sweep(
        monkeypatch, n, bc):
    # poincare's default grid: 6 to 11 eigensolves on 3 rows
    assert _counting_solver(monkeypatch)(n, bc, 1000, 1)[0] == 1


def test_radial_basis_gets_its_spare_rows_only_on_small_operators():
    for values in (1, 4, 13, 500):
        for dim in (2 * values + 1, 4 * values + 20, 4096):
            assert spectrum._ncv(values, dim) == min(2 * values + 10, dim)
        # grids past the limit keep 2 values + 1 rows, and with them the
        # admission of large solves (poincare --grid 4000000 among them)
        for dim in (4097, 8000, 2 ** 17 + 1, 4_000_000):
            assert spectrum._ncv(values, dim) == 2 * values + 1


@pytest.mark.parametrize("grid", [4096, 4097])    # _SPARE_DIM and past it
@pytest.mark.parametrize("bc", ["natural", "dirichlet"])
def test_radial_solve_counts_its_basis_at_the_spare_rows_limit(monkeypatch,
                                                               grid, bc):
    # lowest sizes the basis for the pencil's dimension, which is the grid
    # for both families, and check_radial_solve counts that basis
    passed, krylov_schur = [], spectrum._krylov_schur

    def record_krylov_schur(apply, basis, locked, count, tol):
        passed.append(len(basis) - locked)
        return krylov_schur(apply, basis, locked, count, tol)

    monkeypatch.setattr(spectrum, "_krylov_schur", record_krylov_schur)
    discrete_radial_spectrum(ProfileParams(1), bc, grid, 1)
    assert passed == [spectrum._ncv(1, grid)]
    assert passed == [12 if grid == 4096 else 3]


@pytest.mark.parametrize("interval", [(0.05, 0.95), (0.3, 0.99), (0.5, 1.0)])
def test_subdomain_bound_matches_a_dense_solve(interval):
    params = ProfileParams(2)
    disc = build_radial_discretization(params, 400, "dirichlet", interval,
                                       "dirichlet")
    d, e = disc.symmetrized()
    dense = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    got = subdomain_bound_check(interval, 0.0, params, 400)
    # the dense solve's own error is eps ||A||, 1e-11 to 1.6e-11 of the
    # value here; the two differ by at most 4.1e-11
    assert got == pytest.approx(dense[0], rel=1e-9, abs=0.0)


def test_radial_solves_repeat_bit_for_bit():
    params = ProfileParams(3)
    for bc in ("natural", "dirichlet"):
        first = discrete_radial_spectrum(params, bc, 1000, 6)
        assert np.array_equal(first,
                              discrete_radial_spectrum(params, bc, 1000, 6))
    first = subdomain_bound_check((0.2, 0.9), 0.0, params)
    assert first == subdomain_bound_check((0.2, 0.9), 0.0, params)


@pytest.mark.parametrize("bc", ["natural", "dirichlet"])
def test_eigenpair_check_reads_roundoff_at_many_values(monkeypatch, bc):
    # 500 values at grid 2000 (n = 1, lambda_k / lambda_1 up to 3.3e5): the
    # Ritz values the check compares, taken in the energy form, read 2.5e-15
    # against the quotients; from the dense eigensolve of H they read
    # 3.2e-14 and 7.7e-14, and 1.1e-12 at count 1000, grid 4000
    devs = []
    check = spectrum.SLDiscretization._check_eigenpairs

    def record(self, lam, v, along_constants):
        quotient = check(self, lam, v, along_constants)
        devs.append(np.max(np.abs(quotient - lam) / lam))
        return quotient

    monkeypatch.setattr(spectrum.SLDiscretization, "_check_eigenpairs",
                        record)
    discrete_radial_spectrum(ProfileParams(1), bc, 2000, 500)
    assert devs[0] <= 1e-14


def test_lanczos_restarts_with_a_large_kept_basis(monkeypatch):
    # 100 values of a 600 x 600 operator with eigenvalues 1/k^2 on 120 basis
    # rows: each restart keeps 110 Ritz vectors and adds 10 (7 restarts)
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(600, 600)))
    a = (q / np.arange(1, 601) ** 2) @ q.T
    a = (a + a.T) / 2
    lam, vec = np.linalg.eigh(a)
    lam, vec = lam[::-1][:100], vec[:, ::-1][:, :100]
    calls, eigh = [], np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    basis = np.empty((120, 600))
    basis[0] = 1.0
    _, y = spectrum._krylov_schur(lambda x: a @ x, basis, 0, 100,
                                  spectrum.LANCZOS_TOL)
    spectrum._rotate(basis, y)
    v = basis[:100]
    assert len(calls) >= 5
    assert v.shape == (100, 600)
    assert np.max(np.abs(v @ v.T - np.eye(100))) <= 1e-13
    # Ritz values within 8 eps of the top eigenvalue, 1, and each vector
    # along its eigenvector; the quotient divides by v . v, so that the
    # vectors' own norm error does not enter
    ritz = np.einsum("ij,ij->i", v @ a, v) / np.einsum("ij,ij->i", v, v)
    assert np.max(np.abs(ritz - lam)) <= 8 * np.finfo(float).eps
    assert np.max(np.abs(1.0 - np.abs(np.sum(v.T * vec, axis=0)))) <= 1e-8


def test_krylov_schur_restarts_on_a_non_normal_operator(monkeypatch):
    # 10 values of a 300 x 300 non-normal operator with eigenvalues near
    # 1/k on 20 basis rows: each restart keeps 15 Ritz vectors (12
    # restarts); Ritz values within 1.3e-15 of the exact ones measured,
    # residuals within 23 eps of their values
    rng = np.random.default_rng(0)
    n = 300
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    lam = (1.0 + 0.5j * np.cos(np.arange(n))) / np.arange(1, n + 1)
    a = q @ (np.diag(lam) + 0.01 * np.triu(rng.normal(size=(n, n)), 1)) \
        @ q.conj().T
    calls, eig = [], np.linalg.eig

    def counted(*args, **kwargs):
        calls.append(1)
        return eig(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eig", counted)
    basis = np.empty((20, n), dtype=complex)
    basis[0] = 1.0
    theta, y = spectrum._krylov_schur(lambda x: a @ x, basis, 0, 10,
                                      np.finfo(float).eps)
    assert len(calls) >= 10
    want = lam[np.argsort(-np.abs(lam), kind="stable")][:10]
    eps = np.finfo(float).eps
    assert np.max(np.abs(theta - want)) <= 16 * eps
    spectrum._rotate(basis, y)
    x = basis[:10]
    assert np.max(np.abs(np.linalg.norm(x, axis=1) - 1.0)) <= 4 * eps
    res = np.linalg.norm(x @ a.T - theta[:, None] * x, axis=1)
    assert np.max(res / np.abs(theta)) <= 64 * eps


def test_complex_restart_keeps_only_the_wanted_ritz_columns(monkeypatch):
    # 200 values of a 2000 x 2000 non-normal operator on 400 complex basis
    # rows, capped at three eigensolves: past the basis the solve peaks at
    # 3.92 ncv^2 complex entries (tracemalloc), at the QR of the 300 kept
    # columns beside H and their copy; when a restart first copied all of
    # H's sorted eigenvectors it peaked at 4.17
    n, ncv = 2000, 400
    lam = (1.0 + 0.5j * np.cos(np.arange(n))) / np.arange(1, n + 1)

    def apply(x):
        y = lam * x
        y[:-1] += 0.01 * x[1:]
        return y

    monkeypatch.setattr(spectrum, "_KRYLOV_RESTARTS", 3)
    basis = np.empty((ncv, n), dtype=complex)
    basis[0] = 1.0
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="not converged"):
            spectrum._krylov_schur(apply, basis, 0, 200, np.finfo(float).eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * 16 * ncv * ncv


def _symmetric_operator(dim: int) -> np.ndarray:
    """A random symmetric dim x dim matrix with eigenvalues 1/sqrt(k)."""
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(dim, dim)))
    a = (q / np.sqrt(np.arange(1, dim + 1))) @ q.T
    return (a + a.T) / 2


def test_krylov_schur_gives_one_answer_on_real_and_complex_bases():
    # the real basis takes H's eigenpairs from eigh and restarts on them,
    # the complex one from eig and the QR of the wanted vectors; both
    # restart here (8 values on 20 rows)
    a = _symmetric_operator(300)
    lam = np.linalg.eigvalsh(a)[::-1][:8]
    solved = []
    for dtype in (float, complex):
        basis = np.empty((20, 300), dtype=dtype)
        basis[0] = 1.0
        theta, y = spectrum._krylov_schur(
            lambda x: a @ x.real + 1j * (a @ x.imag) if dtype is complex
            else a @ x, basis, 0, 8, spectrum.LANCZOS_TOL)
        spectrum._rotate(basis, y)
        solved.append((theta, basis[:8].copy()))
    (real, x), (cplx, z) = solved
    # ||A|| = 1: the two read at most 6.3 eps and 13 eps off eigvalsh's
    # values and 14.5 eps off each other, and the cosines of their subspaces
    # at least 1 - 2.8e-15 (default and Prescott BLAS kernels)
    eps = np.finfo(float).eps
    assert real.dtype == float and cplx.dtype == complex
    assert np.max(np.abs(real - lam)) <= 32 * eps
    assert np.max(np.abs(cplx - lam)) <= 32 * eps
    assert np.max(np.abs(real - cplx)) <= 32 * eps
    # the same subspace: every singular value of X Z^* is a cosine near 1
    cos = np.linalg.svd(x @ z.conj().T, compute_uv=False)
    assert np.max(np.abs(1.0 - cos)) <= 1e-12


@pytest.mark.parametrize("dtype", [float, complex])
def test_krylov_schur_raises_at_the_restart_cap(monkeypatch, dtype):
    a = _symmetric_operator(300)
    monkeypatch.setattr(spectrum, "_KRYLOV_RESTARTS", 2)
    basis = np.empty((20, 300), dtype=dtype)
    basis[0] = 1.0
    with pytest.raises(RuntimeError, match="not converged after 2 restarts"):
        spectrum._krylov_schur(lambda x: a @ x, basis, 0, 8,
                               spectrum.LANCZOS_TOL)


@pytest.mark.parametrize("bc", ["natural", "dirichlet"])
@pytest.mark.parametrize("grid,count", [(20000, 40), (4000, 100)])
def test_eigenpair_check_holds_one_count_wide_array(bc, grid, count):
    # past the basis the solve holds 1.35 to 1.4 count x grid arrays
    # (tracemalloc); with the Ritz values and quotients taken over all rows
    # at once it held 3.1 to 3.2
    tracemalloc.start()
    try:
        discrete_radial_spectrum(ProfileParams(1), bc, grid, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    natural = bc == "natural"
    m = grid + natural
    basis = 8 * m * (natural + spectrum._ncv(count, m - natural))
    assert peak - basis <= 2 * 8 * m * count


def test_map_rows_keeps_every_benchmark_solve_whole():
    blocks = []

    def first_column(x):
        blocks.append(len(x))
        return x[:, 0]

    # counts up to 6 at grids up to 8000 (vertices up to 8001) are checked
    # in one block, as one array; past _BLOCK_FLOATS a row a block
    rows = np.broadcast_to(np.arange(6.0)[:, None], (6, 8001))
    assert spectrum._map_rows(first_column, rows).tolist() == list(range(6))
    rows = np.broadcast_to(np.arange(20.0)[:, None], (20, 250001))
    assert spectrum._map_rows(first_column, rows).tolist() == list(range(20))
    assert blocks == [6] + [1] * 20


_SCIPY_AFTER_SOLVES = """
import runpy
import sys

def scipy_modules():
    return len([m for m, module in sys.modules.items()
                if m.startswith("scipy") and module is not None])

script, out, blocked = sys.argv[1:]
if blocked == "blocked":
    sys.modules["scipy"] = None    # any import of scipy now raises
import hprofile.cli
print(scipy_modules())
from hprofile.geometry import ProfileParams
from hprofile.spectrum import (discrete_radial_spectrum, mode_spectrum,
                               poincare_constant_estimate,
                               subdomain_bound_check)
params = ProfileParams(2)
for bc in ("natural", "dirichlet"):
    discrete_radial_spectrum(params, bc, 200, 4)
subdomain_bound_check((0.2, 0.9), 0.0, params, 200)
poincare_constant_estimate(params, 200)
print(scipy_modules())
mode_spectrum(1, 200, 1)
mode_spectrum(0, 200, 2, return_vectors=True)
poincare_constant_estimate(ProfileParams(1), 200, include_modes=True,
                           mode_grid=200)
print(scipy_modules())
sys.argv = [script, "--out", out]
try:
    runpy.run_path(script, run_name="__main__")
except SystemExit as stop:
    print(stop.code)
print(scipy_modules())
if blocked != "blocked":
    import scipy.linalg
print(scipy_modules())
"""


def test_no_scipy_module_is_ever_imported(tmp_path):
    # the package runs on numpy alone: no module named scipy* loads on
    # importing the CLI, on radial, subdomain, Poincare and mode solves or
    # on the full study, and with scipy made unimportable all of them still
    # run; the last count, after an explicit import, shows this check would
    # see one
    repo = os.path.dirname(os.path.dirname(os.path.dirname(spectrum.__file__)))
    src = os.path.dirname(os.path.dirname(spectrum.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    script = os.path.join(repo, "scripts", "run_full_study.py")
    for blocked in ("importable", "blocked"):
        out = subprocess.run([sys.executable, "-c", _SCIPY_AFTER_SOLVES,
                              script, str(tmp_path / blocked), blocked],
                             env=dict(os.environ, PYTHONPATH=path),
                             capture_output=True, text=True, check=True)
        *counts, control = map(int, out.stdout.split()[:3]
                               + out.stdout.split()[-3:])
        assert counts == [0, 0, 0, 0, 0]
        assert (control > 0) == (blocked == "importable")


@pytest.mark.parametrize("n", [1, 3, 12])
@pytest.mark.parametrize("bc", ["natural", "dirichlet"])
def test_eigenpair_check_catches_one_resistance_off_by_one_percent(
        monkeypatch, n, bc):
    # the Green's operator is then the inverse of another pencil; its worst
    # eigenvalue misses its own Rayleigh quotient by 1e-5 to 2e-5 here
    green = spectrum._path_green

    def perturbed(resist, left_grounded):
        resist = resist.copy()
        resist[len(resist) // 2] *= 1.01
        return green(resist, left_grounded)

    monkeypatch.setattr(spectrum, "_path_green", perturbed)
    with pytest.raises(RuntimeError, match="Rayleigh quotients"):
        discrete_radial_spectrum(ProfileParams(n), bc, 2000, 4)


@pytest.mark.parametrize("n", [1, 3, 12])
def test_eigenpair_check_catches_a_dropped_projection(monkeypatch, n):
    # without the locked constants the grounded operator returns the odd
    # family, whose vectors are not M-orthogonal to the constants (at n = 3
    # and 12 they also miss the Rayleigh check, which runs after this one)
    krylov_schur = spectrum._krylov_schur

    def unlocked(apply, basis, locked, count, tol):
        return krylov_schur(apply, basis[locked:], 0, count, tol)

    monkeypatch.setattr(spectrum, "_krylov_schur", unlocked)
    with pytest.raises(RuntimeError, match="M-orthogonal to the constants"):
        discrete_radial_spectrum(ProfileParams(n), "natural", 500, 4)


@pytest.mark.parametrize("factor,raises", [(0.5, False), (10.0, True)])
def test_mode_constant_mode_check_catches_a_shifted_mode(monkeypatch, factor,
                                                         raises):
    build = spectrum.build_mode_operator

    def shifted(k, n_points, matching):
        op = build(k, n_points, matching)
        shift = factor * _constant_mode_tol(_inf_norm(op.diag, op.upper))
        return dataclasses.replace(op, diag=op.diag + shift)

    monkeypatch.setattr(spectrum, "build_mode_operator", shifted)
    if raises:
        with pytest.raises(RuntimeError, match="lost its constant mode"):
            mode_spectrum(0, 4000, 2)
    else:
        mode_spectrum(0, 4000, 2)


def test_mode_solve_refuses_a_singular_shifted_operator(monkeypatch):
    # -I shifted by MODE_SHIFT = -1 is the zero matrix: its first pivot is
    # zero, and no solve may run on that factor
    build = spectrum.build_mode_operator

    def singular(k, n_points, matching):
        op = build(k, n_points, matching)
        return dataclasses.replace(op, lower=np.zeros_like(op.lower),
                                   diag=-np.ones_like(op.diag),
                                   upper=np.zeros_like(op.upper))

    monkeypatch.setattr(spectrum, "build_mode_operator", singular)
    with pytest.raises(RuntimeError, match="zero or non-finite pivot .* at row 0"):
        mode_spectrum(1, 200, 2)


# Grids 50 to 250000, each with k = 0, 1 and half and all of the largest
# Fourier index it admits (3 k^2 <= grid).
_SHIFTED_SWEEP = [(grid, k) for grid in (50, 400, 4000, 40_000, 250_000)
                  for k in sorted({0, 1, math.isqrt(grid // 3) // 2,
                                   math.isqrt(grid // 3)})]


def _shifted_mode_operator(k, grid, matching):
    """The diagonals of A - MODE_SHIFT I that mode_spectrum factors."""
    op = build_mode_operator(k, grid, matching)
    return op.lower, op.diag - spectrum.MODE_SHIFT, op.upper


@pytest.mark.parametrize("grid,k", _SHIFTED_SWEEP)
@pytest.mark.parametrize("matching", ["continuity", "antisymmetry"])
def test_mode_solve_residual_is_lapacks(grid, k, matching):
    # relative residual |T x - b| / (|T| |x|) (max norms) of the scans
    # against LAPACK's pivoting zgttrf / zgttrs on the same diagonals:
    # measured at most 2.0 times LAPACK's (0.3 to 1.1 eps) over this sweep
    from scipy.linalg.lapack import zgttrf, zgttrs
    lower, diag, upper = _shifted_mode_operator(k, grid, matching)
    solve = spectrum._tridiag_solver(lower, diag, upper)
    *lu, info = zgttrf(lower, diag, upper)
    assert info == 0
    norm = np.max(np.abs(diag) + np.r_[np.abs(upper), 0.0]
                  + np.r_[0.0, np.abs(lower)])

    def residual(x, b):
        tx = diag * x
        tx[:-1] += upper * x[1:]
        tx[1:] += lower * x[:-1]
        return np.max(np.abs(tx - b)) / (norm * np.max(np.abs(x)))

    rng = np.random.default_rng(grid + k)
    for b in (np.ones(len(diag), dtype=complex),
              rng.normal(size=len(diag)) + 1j * rng.normal(size=len(diag))):
        assert residual(solve(b), b) <= 4 * residual(zgttrs(*lu, b)[0], b)


@pytest.mark.parametrize("grid,k", _SHIFTED_SWEEP)
@pytest.mark.parametrize("matching,floor", [("continuity", 1.0),
                                            ("antisymmetry", 4.0)])
def test_shifted_mode_operator_has_a_positive_definite_hermitian_part(
        grid, k, matching, floor):
    # Re x^* T x >= lambda_min((T + T^*) / 2) |x|^2 > 0 on every leading
    # block, so LU without pivoting meets no zero pivot.  The Hermitian
    # tridiagonal part has the eigenvalues of the real one with |off|:
    # measured 0.99999999999991 to 1.068 (continuity) and 3.9986 to 4.080
    # (antisymmetry) over this sweep
    from scipy.linalg import eigh_tridiagonal
    lower, diag, upper = _shifted_mode_operator(k, grid, matching)
    lam = eigh_tridiagonal(diag.real, np.abs(upper + np.conj(lower)) / 2,
                           eigvals_only=True, select="i",
                           select_range=(0, 0))[0]
    assert floor - 0.01 <= lam <= floor + 0.1


@pytest.mark.parametrize("lower,diag,upper,row", [
    ([1.0], [1.0, 1.0], [1.0], 1),             # 1 - 1 * 1 / 1 = 0
    ([1.0, 1.0], [2.0, np.nan, 2.0], [1.0, 1.0], 1),
    ([0.0], [0.0, 1.0], [0.0], 0)])
def test_tridiagonal_lu_refuses_a_zero_or_non_finite_pivot(lower, diag,
                                                          upper, row):
    with pytest.raises(RuntimeError, match=f"non-finite pivot .* row {row}"):
        spectrum._tridiag_solver(*(np.array(v, dtype=complex)
                                   for v in (lower, diag, upper)))


@pytest.mark.parametrize("k", [0, 1, 4])
@pytest.mark.parametrize("block", [1, 3, 64])
def test_blocked_pivot_pass_gives_the_one_pass_solves(monkeypatch, k, block):
    # a block of 4096 rows holds all 201 here, so that pass is the one
    # Python pass over lists of the whole diagonals; the solves of a factor
    # depend on its pivots alone
    lower, diag, upper = _shifted_mode_operator(k, 200, "continuity")
    b = np.cos(np.arange(len(diag))) + 1j * np.sin(np.arange(len(diag)))
    whole = spectrum._tridiag_solver(lower, diag, upper)(b)
    monkeypatch.setattr(spectrum, "_PIVOT_BLOCK", block)
    assert np.array_equal(spectrum._tridiag_solver(lower, diag, upper)(b),
                          whole)


@pytest.mark.parametrize("row", [1, 2, 3, 4, 5, 7])
def test_blocked_pivot_pass_refuses_a_zero_pivot_at_any_row(monkeypatch,
                                                            row):
    # blocks of 3 rows: the zero pivot at the end of a block, at its start
    # and inside it; the pivot after a zero one divides by it
    m = 9
    diag = np.full(m, 2.0 + 0j)
    diag[row] = 0.5            # 0.5 - 1 / 2 * 1 = 0 after a pivot of 2
    lower, upper = np.ones(m - 1, dtype=complex), np.ones(m - 1, dtype=complex)
    lower[:row - 1] = upper[:row - 1] = 0.0
    monkeypatch.setattr(spectrum, "_PIVOT_BLOCK", 3)
    with pytest.raises(RuntimeError, match=f"non-finite pivot .* row {row}$"):
        spectrum._tridiag_solver(lower, diag, upper)


def test_pivot_pass_holds_one_block_of_python_lists():
    # the LU with its shifted diagonal peaks at 6.0 complex vectors at grid
    # 1e5 (k = 1), where the lists of the whole diagonals took it to 11.0
    op = build_mode_operator(1, 100_000)
    m = len(op.diag)
    tracemalloc.start()
    try:
        spectrum._tridiag_solver(op.lower, op.diag - spectrum.MODE_SHIFT,
                                 op.upper)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * m * 6.5


@pytest.mark.parametrize("lower,upper", [(1e3, 1e-6), (1e-6, 1e3)])
def test_tridiagonal_lu_refuses_prefix_products_out_of_range(lower, upper):
    # the pivots stay near 1, and the multipliers are 1e3 on one side of
    # the diagonal and 1e-6 on the other: one of P and Q overflows past row
    # 103 and the other underflows past row 52
    m = 200
    with pytest.raises(RuntimeError, match="leaves float range"):
        spectrum._tridiag_solver(np.full(m - 1, lower, dtype=complex),
                                 np.ones(m, dtype=complex),
                                 np.full(m - 1, upper, dtype=complex))


def test_krylov_schur_reports_a_failed_eigensolve(monkeypatch):
    def failing(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eig", failing)
    basis = np.empty((20, 300), dtype=complex)
    basis[0] = 1.0
    with pytest.raises(RuntimeError, match="eig of H failed"):
        spectrum._krylov_schur(lambda x: x, basis, 0, 8, spectrum.LANCZOS_TOL)


# --- Fourier modes ---------------------------------------------------------

def _as_dense(op):
    """A mode operator's three diagonals as one dense complex matrix."""
    return (np.diag(op.diag) + np.diag(op.upper, 1)
            + np.diag(op.lower, -1)).astype(complex)


def test_mode_zero_continuity_equals_natural_radial():
    vals = mode_spectrum(0, 200, 4, "continuity")
    radial = discrete_radial_spectrum(ProfileParams(1), "natural", 200, 4)
    assert np.max(np.abs(vals.real - radial)) <= 1e-10
    assert np.max(np.abs(vals.imag)) <= 1e-10


def test_mode_zero_antisymmetry_equals_dirichlet_radial():
    vals = mode_spectrum(0, 200, 4, "antisymmetry")
    radial = discrete_radial_spectrum(ProfileParams(1), "dirichlet", 200, 4)
    assert np.max(np.abs(vals.real - radial)) <= 1e-10


def test_mode_zero_tracks_radial_families():
    cont = mode_spectrum(0, 400, 2, "continuity")
    assert abs(cont[0].real - 8.0) < 0.1 and abs(cont[1].real - 24.0) < 0.2
    anti = mode_spectrum(0, 400, 2, "antisymmetry")
    assert abs(anti[0].real - 3.0) < 0.1 and abs(anti[1].real - 15.0) < 0.2


def test_mode_operator_k0_is_radial_matrix():
    op = build_mode_operator(0, 120, "continuity")
    disc = build_radial_discretization(ProfileParams(1), 120, bc_right="natural")
    d, e = disc.symmetrized()
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert op.lower is op.upper
    assert np.max(np.abs(_as_dense(op) - T)) == 0.0
    assert np.max(np.abs(_as_dense(op).imag)) == 0.0


@pytest.mark.parametrize("grid", [60, 100, 200, 300, 400])
@pytest.mark.parametrize("matching", ["continuity", "antisymmetry"])
def test_mode_spectrum_matches_dense_eigvals(grid, matching):
    # every grid, class, k and count the study, the CLI defaults,
    # poincare --full and the tests solve; 1.7e-11 measured
    for k in range(5):
        op = build_mode_operator(k, grid, matching)
        dense = np.linalg.eigvals(_as_dense(op))
        dense = dense[np.lexsort((dense.imag, dense.real))]
        if k == 0 and matching == "continuity":
            dense = dense[1:]             # the constant mode
        # count 50 at grid 400 restarts the Krylov-Schur solve once, on
        # 53 wanted values of 107 basis vectors; 1.0e-10 measured
        for count in (1, 2, 6) + ((50,) if grid == 400 else ()):
            vals = mode_spectrum(k, grid, count, matching)
            want = dense[:count]
            assert np.max(np.abs(vals - want) / np.abs(want)) <= 1e-9


def _dense_mode_matrix(k, m, matching):
    """The P1 mode matrix built element by element as a dense array:
    K + 2ik C + 3ik D + k^2 M on the radial mesh of m elements, with D
    integrated directly, symmetrized by M^{-1/2}."""
    leg = gauss_jacobi_rule(12, 0.0, 0.0)
    h = (math.pi / 2) / m
    K, C, M = (np.zeros((m + 1, m + 1)) for _ in range(3))
    D = np.zeros(m + 1)
    for j in range(m):
        t = leg.nodes
        x = j * h + h * t
        w = h * leg.weights * np.sin(x) ** 2
        hats = {j: 1.0 - t, j + 1: t}
        slopes = {j: -1.0 / h, j + 1: 1.0 / h}
        for a, ha in hats.items():
            M[a, a] += float(np.dot(w, ha))
            D[a] += float(np.dot(w / np.tan(x), ha))
            for b, hb in hats.items():
                K[a, b] += float(np.sum(w)) * slopes[a] * slopes[b]
                C[a, b] += float(np.dot(w, ha)) * slopes[b]
    A = K + 2j * k * C + 3j * k * np.diag(D) + k * k * M
    keep = m + 1 if matching == "continuity" else m
    s = 1.0 / np.sqrt(np.diag(M)[:keep])
    return A[:keep, :keep] * s[:, None] * s[None, :]


@pytest.mark.parametrize("matching", ["continuity", "antisymmetry"])
def test_mode_operator_matches_dense_assembly(matching):
    m = 80
    size = m + 1 if matching == "continuity" else m
    for k in (0, 1, 2, 4):
        op = build_mode_operator(k, m, matching)
        assert len(op.diag) == size
        assert len(op.lower) == len(op.upper) == size - 1
        want = _dense_mode_matrix(k, m, matching)
        got = _as_dense(op)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("matching", ["continuity", "antisymmetry"])
def test_mode_spectrum_converges(matching):
    # the P1 mode eigenvalues at grid 400 sit within 1e-3 of grid 3200
    for k in range(1, 5):
        coarse = mode_spectrum(k, 400, 4, matching)
        fine = mode_spectrum(k, 3200, 4, matching)
        assert np.max(np.abs(coarse - fine) / np.abs(fine)) <= 1e-3


def test_mode_spectrum_is_bit_reproducible():
    for args in [(0, 400, 6, "continuity"), (3, 400, 6, "antisymmetry")]:
        assert np.array_equal(mode_spectrum(*args), mode_spectrum(*args))
    a = mode_spectrum(2, 200, 2, return_vectors=True)
    b = mode_spectrum(2, 200, 2, return_vectors=True)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_mode_spectrum_validation():
    with pytest.raises(ValueError):
        mode_spectrum(-1, 200, 2)
    with pytest.raises(ValueError):
        mode_spectrum(1, 30, 2)
    with pytest.raises(ValueError):
        mode_spectrum(1, 200, 2, "periodic")
    with pytest.raises(ValueError):
        mode_spectrum(1, 200, 51)


# Library calls get the refusals of the CLI, with the same messages: before,
# the first two died in ARPACK and the third returned values near 9.95e9.
@pytest.mark.parametrize("solve,message", [
    pytest.param(lambda: discrete_radial_spectrum(ProfileParams(60),
                                                  "natural", 1000, 4),
                 "n = 60 is too large for grid 1000", id="radial"),
    pytest.param(lambda: poincare_constant_estimate(ProfileParams(60), 1000),
                 "n = 60 is too large for grid 1000", id="poincare"),
    pytest.param(lambda: mode_spectrum(100000, 400, 6),
                 "Fourier index 100000 is too large for grid 400", id="modes"),
])
def test_library_solves_refuse_what_the_cli_refuses(solve, message):
    with pytest.raises(ValueError, match=message):
        solve()


def test_radial_workspace_is_refused_before_assembling(monkeypatch):
    # a solve that got this far would take about 13 GB
    def assemble(*args, **kwargs):
        raise AssertionError("assembled a pencil past the workspace limit")

    monkeypatch.setattr(spectrum, "build_radial_discretization", assemble)
    with pytest.raises(ValueError, match="MiB of eigensolver workspace"):
        discrete_radial_spectrum(ProfileParams(1), "dirichlet", 20000, 5000)


# --- Rayleigh quotient and Poincare -------------------------------------------

def test_rayleigh_equality_on_eigenmodes():
    params = ProfileParams(1)
    rule = profile_rule(params, 64)
    m1 = radial_eigenfunction(1, params)
    m2 = radial_eigenfunction(2, params)
    assert rayleigh_quotient(m1.value, m1.deriv, rule) == pytest.approx(
        3.0, abs=1e-8)
    assert rayleigh_quotient(m2.value, m2.deriv, rule) == pytest.approx(
        8.0, abs=1e-8)


def test_rayleigh_inequality_for_perturbed_mode():
    params = ProfileParams(1)
    rule = profile_rule(params, 64)
    m1 = radial_eigenfunction(1, params)
    m3 = radial_eigenfunction(3, params)
    f = lambda r: m1.value(r) + 0.1 * m3.value(r)
    df = lambda r: m1.deriv(r) + 0.1 * m3.deriv(r)
    q = rayleigh_quotient(f, df, rule)
    lam3 = radial_eigenvalue(3, params)
    assert 3.0 < q < lam3
    # exact mixture value (3 + 0.01 * 15) / 1.01 by orthogonality
    assert q == pytest.approx((3.0 + 0.01 * 15.0) / 1.01, rel=1e-10)


def test_rayleigh_rejects_zero_trial():
    params = ProfileParams(1)
    rule = profile_rule(params, 16)
    with pytest.raises(ValueError):
        rayleigh_quotient(lambda r: 0.0 * r, lambda r: 0.0 * r, rule)


def test_min_max_lower_bound():
    # the discrete Dirichlet minimum is attained by the first eigenmode and
    # bounded above by any admissible trial's quotient
    params = ProfileParams(1)
    rule = profile_rule(params, 64)
    lowest = discrete_radial_spectrum(params, "dirichlet", 1000, 1)[0]
    m1 = radial_eigenfunction(1, params)
    q_eig = rayleigh_quotient(m1.value, m1.deriv, rule)
    trial = RadialTrial(lambda r: 1.0 - r * r, lambda r: -2.0 * r,
                        lambda r: -2.0 * np.ones_like(r))
    q_trial = rayleigh_quotient(trial.f, trial.df, rule)
    assert q_eig <= q_trial
    assert abs(lowest - q_eig) <= 0.01 * q_eig


def test_poincare_radial_n1():
    mu, cp = poincare_constant_estimate(ProfileParams(1), 1000)
    assert abs(mu - 3.0) / 3.0 <= 0.01
    assert abs(cp - 1.0 / 3.0) / (1.0 / 3.0) <= 0.01


def test_poincare_radial_n2():
    mu, cp = poincare_constant_estimate(ProfileParams(2), 1000)
    assert abs(mu - 5.0) / 5.0 <= 0.01
    assert abs(cp - 0.2) / 0.2 <= 0.01


def test_poincare_full_is_exploratory_only():
    mu, cp = poincare_constant_estimate(ProfileParams(1), 400,
                                        include_modes=True, mode_grid=200)
    assert mu > 0.0 and cp == pytest.approx(1.0 / mu)
    with pytest.raises(ValueError):
        poincare_constant_estimate(ProfileParams(2), 400, include_modes=True)


# --- subdomain bounds ----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_subdomain_bound_whole_hemisphere_class(n):
    params = ProfileParams(n)
    margin = subdomain_bound_check((0.05, 0.95), float(params.Q - 1), params)
    assert margin >= 0.0


@pytest.mark.parametrize("n", [1, 2])
def test_subdomain_bound_outer_band(n):
    params = ProfileParams(n)
    Q = params.Q
    a = math.sqrt((Q - 1.0) / Q) + 0.01
    margin = subdomain_bound_check((a, 0.99), 2.0 * Q, params)
    assert margin >= 0.0


def test_subdomain_monotone_under_shrinking():
    params = ProfileParams(1)
    m_wide = subdomain_bound_check((0.2, 0.8), 0.0, params)
    m_narrow = subdomain_bound_check((0.3, 0.7), 0.0, params)
    assert m_narrow > m_wide


def test_subdomain_validation():
    with pytest.raises(ValueError):
        subdomain_bound_check((0.0, 0.5), 1.0, ProfileParams(1))


# --- orthogonality ---------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_gram_matrix_is_identity(n):
    params = ProfileParams(n)
    rule = profile_rule(params, 64)
    modes = [radial_eigenfunction(k, params) for k in range(1, 9)]
    G = gram_matrix(modes, rule)
    assert np.max(np.abs(G - np.eye(8))) <= 1e-8


def test_gram_single_mode():
    params = ProfileParams(1)
    rule = profile_rule(params, 64)
    G = gram_matrix([radial_eigenfunction(1, params)], rule)
    assert G.shape == (1, 1)
    assert G[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_gram_matrix_matches_the_per_pair_integrals():
    # the reference: each pair integrated on its own over one hemisphere,
    # (1 + s_i s_j) / 2 = 1 where the hemisphere signs agree, 0 where not
    params = ProfileParams(2)
    rule = profile_rule(params, 64)
    modes = [radial_eigenfunction(k, params) for k in range(1, 9)]
    ref = np.zeros((8, 8))
    for i, mi in enumerate(modes):
        for j, mj in enumerate(modes):
            pair = 1.0 + mi.hemisphere_sign * mj.hemisphere_sign
            ref[i, j] = 0.5 * params.sphere_area * pair * integrate_profile_radial(
                lambda r: mi.value(r) * mj.value(r), rule)
    G = gram_matrix(modes, rule)
    assert np.array_equal(G == 0.0, ref == 0.0)
    assert np.max(np.abs(G - ref)) <= 8 * np.finfo(float).eps


def test_odd_even_pairs_cancel_exactly():
    params = ProfileParams(1)
    rule = profile_rule(params, 64)
    modes = [radial_eigenfunction(k, params) for k in (1, 2)]
    G = gram_matrix(modes, rule)
    assert G[0, 1] == 0.0   # opposite hemisphere signs annihilate the pair


# --- Green checks -----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_green_radial_trials(n):
    params = ProfileParams(n)
    for trial in default_green_radial_trials():
        assert green_check(trial, params) <= 1e-6


def test_green_polar_trials():
    params = ProfileParams(1)
    for trial in default_green_polar_trials():
        assert green_check(trial, params) <= 1e-6


def test_green_rho4_flux_cancellation():
    params = ProfileParams(1)
    trial = RadialTrial(lambda r: r ** 4, lambda r: 4 * r ** 3,
                        lambda r: 12 * r ** 2)
    assert green_check(trial, params) <= 1e-12


def test_green_symmetry_radial_pair():
    params = ProfileParams(2)
    trials = default_green_radial_trials()
    assert green_symmetry_residual(trials[1], trials[3], params) <= 1e-6


def test_green_rejects_polar_for_higher_n():
    with pytest.raises(ValueError):
        green_check(default_green_polar_trials()[0], ProfileParams(2))


def test_green_rejects_an_unknown_trial():
    with pytest.raises(TypeError, match="RadialTrial or PolarTrial"):
        green_check(lambda r: r, ProfileParams(1))
