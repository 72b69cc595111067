"""Profile geometry and the CC-geodesic integrator.

The geodesic oracle is the closed-form circle: for p_last = 2 in H^1 the
projected trajectory is a circle of radius 1/2 and the vertical coordinate
sweeps the (corrected) meridian height.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hprofile.geometry as G
from hprofile.geometry import (GeodesicPath, GeodesicState, ProfileParams,
                               _block_momenta, _fd_dir, _fd_grad,
                               _fd_hess_quadform, _fd_laplacian,
                               _random_interior_points, geodesic_trace,
                               horizontal_normal, kappa,
                               mean_curvature_check, omega_bar,
                               omega_bar_normal_deriv_check, perp,
                               profile_geodesic_residual, profile_height)
from hprofile.operators import sl_coefficients


# --- parameters -------------------------------------------------------------

def test_homogeneous_dimension():
    assert ProfileParams(1).Q == 4
    assert ProfileParams(2).Q == 6
    assert ProfileParams(3).Q == 8


def test_sphere_area():
    assert ProfileParams(1).sphere_area == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert ProfileParams(2).sphere_area == pytest.approx(2.0 * math.pi ** 2, rel=1e-15)
    # 2 pi^n / Gamma(n) is about 3e-222 at n = 171; Gamma(172) overflows
    assert 0.0 < ProfileParams(171).sphere_area < 1e-200
    with pytest.raises(ValueError, match="needs n <= 171, got n = 172"):
        ProfileParams(172).sphere_area


def test_params_reject_bad_index():
    with pytest.raises(ValueError):
        ProfileParams(0)


# --- meridian height --------------------------------------------------------

def test_height_at_pole():
    assert profile_height(0.0) == pytest.approx(math.pi / 8.0, rel=1e-15)


def test_height_at_equator():
    assert profile_height(1.0) == pytest.approx(0.0, abs=1e-16)


def test_height_midpoint_closed_form():
    expected = math.pi / 8.0 + math.sqrt(3.0) / 16.0 - math.pi / 24.0
    assert profile_height(0.5) == pytest.approx(expected, rel=1e-15)


def test_height_monotone_decreasing():
    r = np.linspace(0.0, 1.0, 200)
    u = profile_height(r)
    assert np.all(np.diff(u) < 0.0)


def test_height_domain_error():
    with pytest.raises(ValueError):
        profile_height(1.2)
    with pytest.raises(ValueError):
        profile_height(-0.1)


@pytest.mark.parametrize("rho", [0.01, 0.3, 0.7, 0.9, 0.99])
def test_height_deriv_matches_finite_differences(rho):
    # the meridian slope u0'(rho) = -rho^2 / (2 sqrt(1 - rho^2))
    h = 1e-6
    fd = (profile_height(rho + h) - profile_height(rho - h)) / (2.0 * h)
    slope = -rho * rho / (2.0 * math.sqrt(1.0 - rho * rho))
    assert slope == pytest.approx(fd, abs=1e-7)


# --- normals ----------------------------------------------------------------

def test_normal_on_equator_is_radial():
    z = np.array([0.6, 0.8])
    nu = horizontal_normal(z, +1)
    assert np.allclose(nu, z, atol=1e-15)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=100, deadline=None)
def test_normal_is_unit_and_supports(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=2 * n)
    z *= rng.uniform(0.05, 1.0) / np.linalg.norm(z)
    for hemi in (+1, -1):
        nu = horizontal_normal(z, hemi)
        assert abs(float(nu @ nu) - 1.0) <= 1e-14
        # support function <z, nu> = rho^2
        assert abs(float(z @ nu) - float(z @ z)) <= 1e-14


def test_normal_rejects_pole_and_outside():
    with pytest.raises(ValueError):
        horizontal_normal(np.zeros(2), +1)
    with pytest.raises(ValueError):
        horizontal_normal(np.array([1.0, 0.5]), +1)


def test_perp_is_rotation():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(perp(v), np.array([-2.0, 1.0, -4.0, 3.0]))
    assert np.array_equal(perp(perp(v)), -v)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normal_and_perp_act_row_by_row(n):
    z = _random_interior_points(n, 40, 5, (0.05, 1.0))
    for hemi in (+1, -1):
        nu = horizontal_normal(z, hemi)
        assert nu.shape == z.shape
        assert all(np.array_equal(nu[i], horizontal_normal(z[i], hemi))
                   for i in range(len(z)))
    assert all(np.array_equal(perp(z)[i], perp(z[i])) for i in range(len(z)))


def test_normal_rejects_any_bad_row():
    z = _random_interior_points(2, 10, 5)
    for bad in (np.zeros(4), np.array([1.0, 0.5, 0.0, 0.0])):
        with pytest.raises(ValueError):
            horizontal_normal(np.vstack([z, bad]), +1)


# --- omega_bar --------------------------------------------------------------

def test_omega_bar_values():
    assert omega_bar(1.0, +1) == 0.0
    assert omega_bar(0.5, +1) == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-14)
    assert omega_bar(0.5, -1) == pytest.approx(-2.0 * math.sqrt(3.0), rel=1e-14)


def test_omega_bar_rejects_pole():
    with pytest.raises(ValueError):
        omega_bar(0.0, +1)


@pytest.mark.parametrize("n", [1, 2])
def test_omega_bar_normal_derivative_identity(n):
    # d(omega)/d(nu^perp) = 2 / rho^2 by finite differences of the field
    assert omega_bar_normal_deriv_check(ProfileParams(n), 50) <= 1e-6


# --- area density -----------------------------------------------------------
#
# The radial weight of the H-perimeter measure is sl_coefficients(params).w,
# rho^{2n} / sqrt(1 - rho^2).

def test_area_density_values():
    wgt = sl_coefficients(ProfileParams(1)).w(1.0 / math.sqrt(2.0))
    assert wgt == pytest.approx(0.5 / math.sqrt(0.5), rel=1e-14)


@given(st.integers(min_value=1, max_value=3), st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=100, deadline=None)
def test_weight_density_relation(n, rho):
    # twice the 2n-density rho / (2 sqrt(1 - rho^2)) times rho^{2n-1}
    dens = rho / (2.0 * math.sqrt(1.0 - rho * rho))
    wgt = sl_coefficients(ProfileParams(n)).w(rho)
    assert wgt == pytest.approx(2.0 * dens * rho ** (2 * n - 1), rel=1e-14)


def test_weight_polynomial_moment():
    # int_0^1 w(rho) sqrt(1-rho^2) drho = int rho^{2n} = 1/(2n+1); the root
    # factors cancel pointwise, so a plain Legendre rule sees a polynomial
    from hprofile.numerics import gauss_jacobi_rule
    leg = gauss_jacobi_rule(64, 0.0, 0.0)
    for n in (1, 2, 3):
        w = sl_coefficients(ProfileParams(n)).w
        vals = w(leg.nodes) * np.sqrt(1.0 - leg.nodes * leg.nodes)
        assert float(np.dot(leg.weights, vals)) == pytest.approx(
            1.0 / (2 * n + 1), rel=1e-12)


# --- mean curvature ---------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_mean_curvature_is_2n(n):
    assert mean_curvature_check(ProfileParams(n), 60) <= 1e-6


def _rotated_normal(z, hemisphere, angle=1e-3):
    """The horizontal normal turned by angle towards its own perp."""
    nu = horizontal_normal(z, hemisphere)
    return math.cos(angle) * nu + math.sin(angle) * perp(nu)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_geometry_checks_catch_a_rotated_normal(monkeypatch, n):
    monkeypatch.setattr(G, "horizontal_normal", _rotated_normal)
    assert mean_curvature_check(ProfileParams(n), 60) > 1e-6
    assert omega_bar_normal_deriv_check(ProfileParams(n), 50) > 1e-6


# --- finite differences on point arrays --------------------------------------

def _normal(y):
    return horizontal_normal(y, +1)


def _omega_z(y):
    return omega_bar(np.linalg.norm(y, axis=-1), +1)


def _cubic(y):
    return y[..., 0] * np.sum(y * y, axis=-1) + y[..., -1] ** 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fd_stencils_on_arrays_equal_row_by_row(n):
    z = _random_interior_points(n, 30, 3)
    nu = horizontal_normal(z, +1)
    e = np.eye(2 * n)[-1]
    cases = [
        lambda y, i: _fd_dir(_normal, y, nu[i]),          # direction per row
        lambda y, i: _fd_dir(_omega_z, y, e, 1e-5),      # shared direction
        lambda y, i: _fd_grad(_omega_z, y),
        lambda y, i: _fd_grad(_cubic, y),
        lambda y, i: _fd_laplacian(_cubic, y),
        lambda y, i: _fd_hess_quadform(_cubic, y, nu[i], perp(nu[i])),
    ]
    for stencil in cases:
        whole = stencil(z, slice(None))
        assert len(whole) == len(z)
        for i in range(len(z)):
            assert np.array_equal(whole[i], stencil(z[i], i))


# --- geodesics ----------------------------------------------------------

def _circle_oracle(s):
    """Closed-form p_last = 2 trajectory from the south pole in H^1."""
    z = np.array([0.5 * math.sin(2 * s), 0.5 * (1 - math.cos(2 * s))])
    t = -math.pi / 8.0 + 0.25 * (s - math.sin(s) * math.cos(s))
    return z, t


def _south_start():
    return GeodesicState(z=np.zeros(2), t=-math.pi / 8.0,
                         p_h=np.array([1.0, 0.0]), p_last=2.0)


def test_zero_curvature_gives_straight_line():
    start = GeodesicState(z=np.zeros(2), t=0.0, p_h=np.array([1.0, 0.0]),
                          p_last=0.0)
    states = geodesic_trace(0.0, 1.0, 100, start)
    end = states[-1]
    assert np.allclose(end.z, [1.0, 0.0], atol=1e-12)
    assert abs(end.t) <= 1e-14          # ray through the origin stays level
    assert np.allclose(end.p_h, [1.0, 0.0], atol=1e-12)


def test_geodesic_matches_circle_oracle():
    steps = 2000
    states = geodesic_trace(2.0, math.pi, steps, _south_start())
    h = math.pi / steps
    worst_z = worst_t = 0.0
    for i in range(0, steps + 1, 50):
        z_ref, t_ref = _circle_oracle(i * h)
        worst_z = max(worst_z, float(np.max(np.abs(states[i].z - z_ref))))
        worst_t = max(worst_t, abs(states[i].t - t_ref))
    assert worst_z <= 1e-8
    assert worst_t <= 1e-8


def test_geodesic_radius_is_abs_sin():
    steps = 1000
    states = geodesic_trace(2.0, math.pi, steps, _south_start())
    h = math.pi / steps
    for i in range(0, steps + 1, 37):
        assert abs(np.linalg.norm(states[i].z) - abs(math.sin(i * h))) <= 1e-8


def test_geodesic_pole_to_pole_displacement():
    states = geodesic_trace(2.0, math.pi, 10_000, _south_start())
    end = states[-1]
    assert np.max(np.abs(end.z)) <= 1e-8
    assert end.t == pytest.approx(math.pi / 8.0, abs=1e-8)


def test_momentum_conservation():
    states = geodesic_trace(2.0, math.pi, 10_000, _south_start())
    drift = max(abs(float(np.linalg.norm(st.p_h)) - 1.0) for st in states)
    assert drift <= 1e-10
    assert all(st.p_last == 2.0 for st in states)


def test_meridian_residual_small():
    assert profile_geodesic_residual(ProfileParams(1), 10_000) <= 1e-6


def test_hemisphere_assignment_by_sign():
    # lower hemisphere before the equator crossing, upper after
    steps = 400
    states = geodesic_trace(2.0, math.pi, steps, _south_start())
    quarter = steps // 4
    assert states[quarter].t < 0.0
    assert states[3 * quarter].t > 0.0
    mid = states[steps // 2]
    assert abs(mid.t) <= 1e-8
    assert np.linalg.norm(mid.z) == pytest.approx(1.0, abs=1e-8)


# The per-state loop that geodesic_trace replaced, kept as the reference its
# flat-array integration must reproduce bit for bit.
def _reference_rhs(z, p, p_last):
    return p, 0.5 * float(np.dot(perp(z), p)), p_last * perp(p)


def _reference_trace(p_last, s_max, steps, initial):
    h = s_max / steps
    z, t, p = initial.z.copy(), float(initial.t), initial.p_h.copy()
    out = [GeodesicState(z.copy(), t, p.copy(), p_last)]
    for _ in range(steps):
        k1z, k1t, k1p = _reference_rhs(z, p, p_last)
        k2z, k2t, k2p = _reference_rhs(z + 0.5 * h * k1z, p + 0.5 * h * k1p,
                                       p_last)
        k3z, k3t, k3p = _reference_rhs(z + 0.5 * h * k2z, p + 0.5 * h * k2p,
                                       p_last)
        k4z, k4t, k4p = _reference_rhs(z + h * k3z, p + h * k3p, p_last)
        z = z + h / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z)
        t = t + h / 6.0 * (k1t + 2 * k2t + 2 * k3t + k4t)
        p = p + h / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        out.append(GeodesicState(z.copy(), t, p.copy(), p_last))
    return out


# (n, kind): seeded random unit momenta (at n = 8 ddot sums 16 terms, in its
# unrolled kernel), one momentum whose 2-blocks all repeat, and one whose
# (-0.0, 0.0) block sits beside a (0.0, 0.0) one.  geodesic_trace shares one
# recurrence among blocks of bit-identical momentum, so the second must not
# share the first's; only the bytes of p_h tell their zeros apart.
_TRACE_STARTS = ([(n, seed) for n in (1, 2, 3, 5, 8) for seed in range(4)]
                 + [(4, "repeated"), (3, "signed_zero")])


@pytest.mark.parametrize("n,kind", _TRACE_STARTS)
def test_flat_trace_matches_per_state_loop(n, kind):
    seed = {"repeated": 4, "signed_zero": 5}.get(kind, kind)
    rng = np.random.default_rng(100 * n + seed)
    if kind == "repeated":
        p0 = np.tile(rng.normal(size=2), n)
    elif kind == "signed_zero":
        p0 = np.array([0.6, 0.8, -0.0, 0.0, 0.0, 0.0])
    else:
        p0 = rng.normal(size=2 * n)
    start = GeodesicState(z=rng.normal(size=2 * n), t=float(rng.normal()),
                          p_h=p0 / np.linalg.norm(p0), p_last=0.0)
    p_last = float(rng.uniform(-4.0, 4.0))
    s_max = float(rng.uniform(0.1, 7.0))
    steps = int(rng.integers(1, 300))
    path = geodesic_trace(p_last, s_max, steps, start)
    ref = _reference_trace(p_last, s_max, steps, start)
    assert np.array_equal(path.z, [st.z for st in ref])
    assert np.array_equal(path.t, [st.t for st in ref])
    assert np.array_equal(path.p_h, [st.p_h for st in ref])
    assert path.p_h.tobytes() == np.array([st.p_h for st in ref]).tobytes()


@pytest.mark.parametrize("steps", [1, 2, 3, 1024])
@pytest.mark.parametrize("p_last", [2.0, -2.0, 0.0, 1e308, math.inf,
                                    math.nan])
@pytest.mark.parametrize("px,py", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0),
                                   (-0.0, -0.0)])
def test_zero_block_repeats_its_second_step(px, py, p_last, steps):
    # a zero block runs two steps and tiles the second; the reference runs
    # every step, one call a step from the previous call's momentum
    h = math.pi / 1000
    rows, p = [[px, py]], (px, py)
    for _ in range(steps):
        step = _block_momenta(*p, p_last, h, 1)
        rows += step[1:].tolist()
        p = tuple(step[-1].tolist())
    got = _block_momenta(px, py, p_last, h, steps)
    assert got.shape == (4 * steps + 1, 2)
    assert np.array_equal(got.view(np.int64), np.array(rows).view(np.int64))


def test_geodesic_path_contract():
    steps = 40
    path = geodesic_trace(2.0, math.pi, steps, _south_start())
    assert isinstance(path, GeodesicPath)
    assert len(path) == steps + 1
    assert path.z.shape == path.p_h.shape == (steps + 1, 2)
    assert path.s.shape == path.t.shape == (steps + 1,)
    h = math.pi / steps
    assert all(path.s[i] == i * h for i in range(steps + 1))
    last = path[-1]
    assert isinstance(last, GeodesicState)
    assert np.array_equal(last.z, path.z[steps])
    assert last.t == path.t[steps] and last.p_last == 2.0
    states = list(path)
    assert len(states) == steps + 1
    assert np.array_equal([st.p_h for st in states], path.p_h)
    with pytest.raises(IndexError):
        path[steps + 1]


def test_meridian_residual_matches_per_state_loop():
    steps = 2000
    worst = 0.0
    for st in _reference_trace(2.0, math.pi, steps, _south_start()):
        rho = min(float(np.linalg.norm(st.z)), 1.0)
        worst = max(worst, abs(abs(st.t) - profile_height(rho)))
    assert profile_geodesic_residual(ProfileParams(1), steps) == worst


def test_meridian_oracle_requires_h1():
    with pytest.raises(ValueError):
        profile_geodesic_residual(ProfileParams(2), 100)


def test_trace_rejects_non_unit_momentum():
    bad = GeodesicState(z=np.zeros(2), t=0.0, p_h=np.array([2.0, 0.0]),
                        p_last=1.0)
    with pytest.raises(ValueError):
        geodesic_trace(1.0, 1.0, 10, bad)


def test_kappa_value():
    assert kappa(0.5) == pytest.approx(math.sqrt(0.75) / 0.5, rel=1e-15)
