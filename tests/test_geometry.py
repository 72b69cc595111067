"""Profile geometry and the closed-form CC-geodesics.

The geodesic oracles: for p_last = 2 in H^1 the projected trajectory is a
circle of radius 1/2 and the vertical coordinate sweeps the (corrected)
meridian height; at small curvature, mpmath's Taylor integration of the
geodesic ODE; and, at any n, a per-state RK4 loop, which the closed form
must match to RK4's own error.
"""
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hprofile.geometry as G
from hprofile.geometry import (GeodesicPath, GeodesicState, ProfileParams,
                               _fd_dir, _fd_grad, _fd_hess_quadform,
                               _fd_laplacian, _random_interior_points,
                               geodesic_trace,
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


@pytest.mark.parametrize("n", [1, 2, 3, 12, 100, 171])
def test_sphere_area_does_not_grow_the_rounding_of_pi(n):
    # math.pi ** n alone is 5.9e-16 off at n = 12, 4.1e-15 at n = 100 and
    # 6.4e-15 at n = 171
    with mpmath.workdps(50):
        exact = 2 * mpmath.pi ** n / mpmath.gamma(n)
        rel = abs((ProfileParams(n).sphere_area - exact) / exact)
    assert rel <= 4e-16


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


# The stencils as they were before they stacked their copies: one call of f
# per shifted point, formed and summed in this order.
def _per_copy_dir(f, z, u, h=1e-6):
    return (f(z + h * u) - f(z - h * u)) / (2.0 * h)


def _per_copy_grad(f, z, h=1e-6):
    return np.stack([_per_copy_dir(f, z, e, h) for e in np.eye(z.shape[-1])],
                    axis=-1)


def _per_copy_laplacian(f, z, h=1e-4):
    fz = f(z)
    return sum((f(z + h * e) - 2.0 * fz + f(z - h * e)) / (h * h)
               for e in np.eye(z.shape[-1]))


def _per_copy_hess_quadform(f, z, u, v, h=1e-4):
    return (f(z + h * u + h * v) - f(z + h * u - h * v)
            - f(z - h * u + h * v) + f(z - h * u - h * v)) / (4.0 * h * h)


# n = 12 stacks the whole array's copies in blocks, and n = 50 at 200 points
# takes blocks of a single copy; a single point always stacks all its copies.
@pytest.mark.parametrize("n", [1, 2, 3, 12, 50])
def test_fd_stencils_on_arrays_equal_row_by_row(n):
    z = _random_interior_points(n, {12: 100, 50: 200}.get(n, 30), 3)
    nu = horizontal_normal(z, +1)
    e = np.eye(2 * n)[-1]
    cases = [
        (lambda y, i: _fd_dir(_normal, y, nu[i]),         # direction per row
         lambda: _per_copy_dir(_normal, z, nu)),
        (lambda y, i: _fd_dir(_omega_z, y, e, 1e-5),     # shared direction
         lambda: _per_copy_dir(_omega_z, z, e, 1e-5)),
        (lambda y, i: _fd_grad(_omega_z, y),
         lambda: _per_copy_grad(_omega_z, z)),
        (lambda y, i: _fd_grad(_cubic, y),
         lambda: _per_copy_grad(_cubic, z)),
        (lambda y, i: _fd_laplacian(_cubic, y),
         lambda: _per_copy_laplacian(_cubic, z)),
        (lambda y, i: _fd_hess_quadform(_cubic, y, nu[i], perp(nu[i])),
         lambda: _per_copy_hess_quadform(_cubic, z, nu, perp(nu))),
    ]
    for stencil, per_copy in cases:
        whole = stencil(z, slice(None))
        assert np.array_equal(whole, per_copy())
        assert len(whole) == len(z)
        for i in range(len(z)):
            assert np.array_equal(whole[i], stencil(z[i], i))


@pytest.mark.parametrize("n", [1, 12, 50])
def test_mean_curvature_equals_the_per_copy_divergence(n):
    pts = _random_interior_points(n, 100, 1)
    div = sum(_per_copy_dir(_normal, pts, e, 1e-5)[:, i]
              for i, e in enumerate(np.eye(2 * n)))
    assert (mean_curvature_check(ProfileParams(n), 100, seed=1)
            == float(np.max(np.abs(div - 2.0 * n))))


def test_fd_axes_are_built_per_block():
    # at n = 1000 a whole 2n x 2n identity would be 32 MB; each stencil
    # peaks at 0.7 to 1.4 MB (tracemalloc) with the axes of one block
    z = _random_interior_points(1000, 2, 5)
    for stencil in (lambda: _fd_grad(_cubic, z),
                    lambda: _fd_laplacian(_cubic, z),
                    lambda: mean_curvature_check(ProfileParams(1000), 2)):
        tracemalloc.start()
        try:
            stencil()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2 ** 20


class _CountingCalls:
    """f that counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, y):
        self.calls += 1
        return self.f(y)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_each_fd_stencil_calls_f_once(monkeypatch, n):
    z = _random_interior_points(n, 100, 4)
    nu = horizontal_normal(z, +1)
    cases = [
        lambda f: _fd_dir(f, z, nu),
        lambda f: _fd_grad(f, z),
        lambda f: _fd_laplacian(f, z),
        lambda f: _fd_hess_quadform(f, z, nu, perp(nu)),
    ]
    for stencil in cases:
        counted = _CountingCalls(_cubic)
        stencil(counted)
        assert counted.calls == 1
    counted = _CountingCalls(lambda y: horizontal_normal(y, +1))
    monkeypatch.setattr(G, "horizontal_normal", lambda y, hemisphere: counted(y))
    assert mean_curvature_check(ProfileParams(n), 100) <= 1e-6
    assert counted.calls == 1


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


def _mpmath_flow(p_last, initial, s_values):
    """The geodesic ODE integrated by mpmath's Taylor method at 30 digits."""
    m = initial.z.size
    with mpmath.workdps(30):
        kap = mpmath.mpf(p_last)

        def rates(_, y):
            z, p = y[:m], y[m + 1:]
            dt = sum(z[b] * p[b + 1] - z[b + 1] * p[b]
                     for b in range(0, m, 2)) / 2
            dp = [(-kap * p[b + 1], kap * p[b]) for b in range(0, m, 2)]
            return list(p) + [dt] + [c for pair in dp for c in pair]

        y0 = [mpmath.mpf(float(v)) for v in
              (*initial.z, initial.t, *initial.p_h)]
        flow = mpmath.odefun(rates, 0, y0)
        return np.array([[float(v) for v in flow(mpmath.mpf(float(s)))]
                         for s in s_values])


@pytest.mark.parametrize("p_last", [0.0, 5e-324, -5e-324, 1e-9, 1e-5, 0.1])
def test_small_curvature_matches_mpmath(p_last):
    # From the origin with t0 = 0, t is the area term alone,
    # (1/2) |P0|^2 (kappa s - sin kappa s) / kappa^2 = kappa s^3 / 12 + ...,
    # whose direct form cancels: it is off by up to 3.7e-14 relative for
    # kappa s just above 0.1, which the samples at kappa = 0.1 reach.  At
    # kappa = 0 and +-5e-324 the path is a straight line and t stays level
    # (the reference t is 0 or subnormal, so the 1e-300 term rules there).
    rng = np.random.default_rng(11)
    p0 = rng.normal(size=4)
    start = GeodesicState(np.zeros(4), 0.0, p0 / np.linalg.norm(p0), p_last)
    path = geodesic_trace(p_last, 3.0, 8, start)
    ref = _mpmath_flow(p_last, start, path.s[1:])
    got = _samples(path)[1:]
    z_err = np.abs(got[:, :4] - ref[:, :4])
    assert np.all(z_err <= 1e-14 * np.max(np.abs(ref[:, :4]), axis=1,
                                          keepdims=True))
    assert np.all(np.abs(got[:, 4] - ref[:, 4])
                  <= 1e-14 * np.abs(ref[:, 4]) + 1e-300)
    assert np.max(np.abs(got[:, 5:] - ref[:, 5:])) <= 1e-15


def test_geodesic_matches_circle_oracle():
    steps = 2000
    states = geodesic_trace(2.0, math.pi, steps, _south_start())
    h = math.pi / steps
    worst_z = worst_t = 0.0
    for i in range(0, steps + 1, 50):
        z_ref, t_ref = _circle_oracle(i * h)
        worst_z = max(worst_z, float(np.max(np.abs(states[i].z - z_ref))))
        worst_t = max(worst_t, abs(states[i].t - t_ref))
    assert worst_z <= 1e-12
    assert worst_t <= 1e-12


def test_geodesic_radius_is_abs_sin():
    steps = 1000
    states = geodesic_trace(2.0, math.pi, steps, _south_start())
    h = math.pi / steps
    for i in range(0, steps + 1, 37):
        assert abs(np.linalg.norm(states[i].z) - abs(math.sin(i * h))) <= 1e-12


def test_geodesic_pole_to_pole_displacement():
    states = geodesic_trace(2.0, math.pi, 10_000, _south_start())
    end = states[-1]
    assert np.max(np.abs(end.z)) <= 1e-12
    assert end.t == pytest.approx(math.pi / 8.0, abs=1e-12)


def test_momentum_conservation():
    states = geodesic_trace(2.0, math.pi, 10_000, _south_start())
    drift = max(abs(float(np.linalg.norm(st.p_h)) - 1.0) for st in states)
    assert drift <= 1e-14
    assert all(st.p_last == 2.0 for st in states)


def test_meridian_residual_small():
    assert profile_geodesic_residual(ProfileParams(1), 10_000) <= 1e-11


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


# The per-state RK4 loop that geodesic_trace once was: the oracle that the
# closed form must match to RK4's own error.
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


def _samples(path):
    """(samples, 4n + 1) array of z, t and p_h of a path or a state list."""
    if isinstance(path, GeodesicPath):
        return np.column_stack([path.z, path.t, path.p_h])
    return np.array([[*st.z, st.t, *st.p_h] for st in path])


# (n, kind): seeded random unit momenta, one momentum whose 2-blocks all
# repeat, and one whose (-0.0, 0.0) block sits beside a (0.0, 0.0) one.
_TRACE_STARTS = ([(n, seed) for n in (1, 2, 3, 5, 8, 40) for seed in range(4)]
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
    # |p_last| h <= 0.1 keeps RK4 in its asymptotic range, where its error
    # at N steps is 16/15 of the change from N to 2N steps
    steps = int(rng.integers(1, 300)) + math.ceil(10 * abs(p_last) * s_max)
    closed = _samples(geodesic_trace(p_last, s_max, steps, start))
    ref = _samples(_reference_trace(p_last, s_max, steps, start))
    fine = _samples(_reference_trace(p_last, s_max, 2 * steps, start))[::2]
    err = np.max(np.abs(closed - ref))
    rk4 = np.max(np.abs(ref - fine))
    roundoff = 4 * steps * np.finfo(float).eps * np.max(np.abs(ref))
    assert err <= 1.2 * rk4 + roundoff


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 40])
def test_per_state_loop_converges_to_the_closed_form_at_order_4(n):
    rng = np.random.default_rng(1000 + n)
    p0 = rng.normal(size=2 * n)
    start = GeodesicState(z=rng.normal(size=2 * n), t=float(rng.normal()),
                          p_h=p0 / np.linalg.norm(p0), p_last=0.0)
    p_last = float(rng.uniform(1.0, 4.0) * rng.choice([-1.0, 1.0]))
    s_max = float(rng.uniform(2.0, 7.0))
    errs = [np.max(np.abs(_samples(geodesic_trace(p_last, s_max, steps, start))
                          - _samples(_reference_trace(p_last, s_max, steps,
                                                      start))))
            for steps in (250, 500, 1000)]
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(np.abs(orders - 4.0) <= 0.2), orders


@pytest.mark.parametrize("steps", [1, 2, 3, 1024])
@pytest.mark.parametrize("p_last", [2.0, -2.0, 0.0, 1e308, math.inf,
                                    math.nan])
@pytest.mark.parametrize("px,py", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0),
                                   (-0.0, -0.0)])
def test_zero_block_repeats_its_second_step(px, py, p_last, steps):
    # Every 2-block runs on its own.  A zero block of P_H, of either sign,
    # leaves the other block and t bit for bit as they are without it, and
    # repeats its start in every sample whose phase p_last s is finite
    # (1e308 overflows it from s = 1.8 on); inf and nan are refused.
    h = math.pi / 1000
    z0 = np.array([0.3, -0.2, 0.5, 0.1])
    if not math.isfinite(p_last):
        with pytest.raises(ValueError, match="finite"):
            geodesic_trace(p_last, steps * h, steps, GeodesicState(
                z0, 0.25, np.array([0.6, 0.8, px, py]), p_last))
        return
    with np.errstate(over="ignore", invalid="ignore"):
        one = geodesic_trace(p_last, steps * h, steps, GeodesicState(
            z0[:2], 0.25, np.array([0.6, 0.8]), p_last))
        two = geodesic_trace(p_last, steps * h, steps, GeodesicState(
            z0, 0.25, np.array([0.6, 0.8, px, py]), p_last))
        finite = np.isfinite(p_last * two.s)
    for got, alone in ((two.z[:, :2], one.z), (two.t, one.t),
                       (two.p_h[:, :2], one.p_h)):
        assert np.array_equal(got, alone, equal_nan=True)
    assert np.all(two.z[finite, 2:] == z0[2:])
    assert np.all(two.p_h[finite, 2:] == 0.0)
    assert np.all(np.isnan(two.p_h[~finite, 2:]))


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
    # |u0(a) - u0(b)| <= sqrt|a - b| on [0, 1] (u0' >= -1 / (2 sqrt(1 - rho))),
    # so the two residuals differ by at most the largest |dt| + sqrt|d rho|
    # between the traces, which RK4's own error bounds
    steps = 2000
    ref = _reference_trace(2.0, math.pi, steps, _south_start())
    path = geodesic_trace(2.0, math.pi, steps, _south_start())
    rho_ref = np.minimum(np.linalg.norm([st.z for st in ref], axis=1), 1.0)
    worst = float(np.max(np.abs(np.abs([st.t for st in ref])
                                - profile_height(rho_ref))))
    rho = np.minimum(np.linalg.norm(path.z, axis=1), 1.0)
    bound = np.max(np.abs(path.t - [st.t for st in ref])
                   + np.sqrt(np.abs(rho - rho_ref)))
    resid = profile_geodesic_residual(ProfileParams(1), steps)
    assert resid <= 1e-11
    assert abs(resid - worst) <= bound


def test_meridian_oracle_requires_h1():
    with pytest.raises(ValueError):
        profile_geodesic_residual(ProfileParams(2), 100)


def test_trace_rejects_non_unit_momentum():
    bad = GeodesicState(z=np.zeros(2), t=0.0, p_h=np.array([2.0, 0.0]),
                        p_last=1.0)
    with pytest.raises(ValueError):
        geodesic_trace(1.0, 1.0, 10, bad)


@pytest.mark.parametrize("p_last,s_max", [(math.nan, 1.0), (math.inf, 1.0),
                                          (-math.inf, 1.0), (2.0, math.nan),
                                          (2.0, math.inf), (0.0, -math.inf)])
def test_trace_rejects_non_finite_p_last_or_s_max(p_last, s_max):
    with pytest.raises(ValueError, match="finite"):
        geodesic_trace(p_last, s_max, 10, _south_start())


def test_kappa_value():
    assert kappa(0.5) == pytest.approx(math.sqrt(0.75) / 0.5, rel=1e-15)
