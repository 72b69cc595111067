"""Pointwise operator forms, their reductions into one another, and the
surface-calculus identity suites."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hprofile.operators as O
from hprofile.cli import RunConfig, run
from hprofile.geometry import (ProfileParams, _random_interior_points,
                               horizontal_normal, omega_bar, perp)
from hprofile.operators import (FullJet, PolarJet, RadialJet, apply_full,
                                apply_polar_h1, apply_radial,
                                radial_surface_laplacian, sl_coefficients,
                                verify_identities)
from hprofile.operators import default_ambient_trials
from hprofile.spectrum import (RadialTrial, default_green_radial_trials,
                               radial_eigenfunction)


def _radial_jet(mode, rho):
    return RadialJet(mode.value(rho), mode.deriv(rho), mode.second_deriv(rho), rho)


# --- radial form -----------------------------------------------------------

def test_first_mode_eigenrelation_at_half():
    params = ProfileParams(1)
    mode = radial_eigenfunction(1, params)
    jet = _radial_jet(mode, 0.5)
    assert apply_radial(jet, params) == pytest.approx(-3.0 * jet.f, rel=1e-12)


def test_second_mode_eigenrelation():
    params = ProfileParams(1)
    mode = radial_eigenfunction(2, params)
    jet = _radial_jet(mode, 0.3)
    assert apply_radial(jet, params) == pytest.approx(-8.0 * jet.f, rel=1e-12)


def test_constant_maps_to_zero():
    params = ProfileParams(2)
    assert apply_radial(RadialJet(4.2, 0.0, 0.0, 0.37), params) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eigenrelation_along_radius(n):
    params = ProfileParams(n)
    rho = np.linspace(0.01, 0.99, 60)
    for k in range(1, 9):
        mode = radial_eigenfunction(k, params)
        jet = RadialJet(mode.value(rho), mode.deriv(rho), mode.second_deriv(rho), rho)
        res = apply_radial(jet, params) + mode.lam * jet.f
        assert np.max(np.abs(res) / (1.0 + np.abs(jet.f))) <= 1e-8


def test_radial_jet_rejects_endpoints():
    with pytest.raises(ValueError):
        RadialJet(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        RadialJet(1.0, 0.0, 0.0, 1.0)


def test_self_adjoint_flux_form():
    # w * L f = d/drho (p f') for smooth f, checked by finite differences
    params = ProfileParams(2)
    sl = sl_coefficients(params)
    trials = [
        (lambda r: np.sin(1.3 * r) + r ** 2,
         lambda r: 1.3 * np.cos(1.3 * r) + 2 * r,
         lambda r: -1.69 * np.sin(1.3 * r) + 2.0),
        (lambda r: r ** 3, lambda r: 3 * r ** 2, lambda r: 6 * r),
        (lambda r: np.exp(-r), lambda r: -np.exp(-r), lambda r: np.exp(-r)),
        (lambda r: np.cos(2 * r), lambda r: -2 * np.sin(2 * r),
         lambda r: -4 * np.cos(2 * r)),
        (lambda r: 1.0 / (1 + r * r), lambda r: -2 * r / (1 + r * r) ** 2,
         lambda r: (6 * r * r - 2) / (1 + r * r) ** 3),
    ]
    h = 1e-6
    for f, df, d2f in trials:
        for rho in np.linspace(0.05, 0.95, 100):
            lhs = apply_radial(RadialJet(f(rho), df(rho), d2f(rho), rho),
                               params) * sl.w(rho)
            rhs = (sl.p(rho + h) * df(rho + h)
                   - sl.p(rho - h) * df(rho - h)) / (2 * h)
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs))


def test_sl_coefficients_ratio_and_endpoints():
    for n in (1, 2, 3):
        sl = sl_coefficients(ProfileParams(n))
        assert sl.p(0.0) == 0.0 and sl.p(1.0) == 0.0
        r = np.random.default_rng(0).uniform(0.01, 0.99, 50)
        assert np.max(np.abs(sl.p(r) / sl.w(r) - (1 - r * r))) <= 1e-14


# --- polar form (H^1) -------------------------------------------------------

def test_polar_reduces_to_radial_for_angular_independent():
    params = ProfileParams(1)
    mode = radial_eigenfunction(3, params)
    for rho in (0.2, 0.5, 0.8):
        pj = PolarJet(rho=rho, f_rho=mode.deriv(rho), f_theta=0.0,
                      f_rhorho=mode.second_deriv(rho), f_thetarho=0.0,
                      f_thetatheta=0.0)
        rj = _radial_jet(mode, rho)
        assert apply_polar_h1(pj) == pytest.approx(apply_radial(rj, params),
                                                   rel=1e-13)


def test_polar_matches_fourier_mode_symbol():
    # substituting f(rho) e^{i k theta} must reproduce the mode operator
    rng = np.random.default_rng(21)
    for _ in range(50):
        rho = rng.uniform(0.05, 0.95)
        k = rng.integers(0, 6)
        f, df, d2f = rng.normal(size=3)
        root = math.sqrt(1.0 - rho * rho)
        pj = PolarJet(rho=rho, f_rho=df + 0j, f_theta=1j * k * f,
                      f_rhorho=d2f + 0j, f_thetarho=1j * k * df,
                      f_thetatheta=-k * k * f + 0j)
        via_polar = apply_polar_h1(pj)
        symbol = ((1 - rho ** 2) * d2f
                  + ((2 - 3 * rho ** 2) / rho - 2j * k * root) * df
                  - (k * k + 3j * k * root / rho) * f)
        assert via_polar == pytest.approx(symbol, rel=1e-13, abs=1e-13)


def test_polar_matches_general_form_specialization():
    params = ProfileParams(1)
    rng = np.random.default_rng(4)
    for _ in range(50):
        rho = rng.uniform(0.05, 0.95)
        f_r, f_t, f_rr, f_tr, f_tt = rng.normal(size=5)
        pj = PolarJet(rho=rho, f_rho=f_r, f_theta=f_t, f_rhorho=f_rr,
                      f_thetarho=f_tr, f_thetatheta=f_tt)
        fj = FullJet(rho=rho, f_rho=f_r, f_rhorho=f_rr,
                     f_zeta=f_t / rho, f_zetazeta=f_tt / rho ** 2,
                     f_zetarho=f_tr / rho, sphere_laplacian=f_tt)
        assert apply_polar_h1(pj) == pytest.approx(apply_full(fj, params),
                                                   rel=1e-12, abs=1e-12)


def test_lower_hemisphere_flips_odd_terms():
    pj = PolarJet(rho=0.6, f_rho=0.3, f_theta=0.7, f_rhorho=-0.2,
                  f_thetarho=0.9, f_thetatheta=0.1)
    north = apply_polar_h1(pj, +1)
    south = apply_polar_h1(pj, -1)
    even_part = apply_polar_h1(
        PolarJet(rho=0.6, f_rho=0.3, f_theta=0.0, f_rhorho=-0.2,
                 f_thetarho=0.0, f_thetatheta=0.1), +1)
    assert north + south == pytest.approx(2.0 * even_part, rel=1e-13)


@pytest.mark.parametrize("hemisphere", [0, 2, -2])
def test_polar_form_needs_a_hemisphere(hemisphere):
    pj = PolarJet(rho=0.6, f_rho=0.3, f_theta=0.7, f_rhorho=-0.2,
                  f_thetarho=0.9, f_thetatheta=0.1)
    with pytest.raises(ValueError, match="hemisphere must be"):
        apply_polar_h1(pj, hemisphere)


def test_second_order_symbol_is_degenerate():
    # determinant of the 2nd-order coefficient matrix vanishes identically
    for rho in np.linspace(0.05, 0.95, 50):
        a = 1.0 - rho * rho          # f_rhorho
        b = -2.0 * math.sqrt(1.0 - rho * rho)  # f_thetarho (full coefficient)
        c = 1.0                      # f_thetatheta
        assert a * c - (b / 2.0) ** 2 == pytest.approx(0.0, abs=1e-15)


# --- general form -----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_reduces_to_radial(n):
    params = ProfileParams(n)
    rng = np.random.default_rng(6)
    for _ in range(20):
        rho = rng.uniform(0.05, 0.95)
        df, d2f = rng.normal(size=2)
        fj = FullJet(rho=rho, f_rho=df, f_rhorho=d2f, f_zeta=0.0,
                     f_zetazeta=0.0, f_zetarho=0.0, sphere_laplacian=0.0)
        rj = RadialJet(0.0, df, d2f, rho)
        assert apply_full(fj, params) == pytest.approx(
            apply_radial(rj, params), rel=1e-13)


def apply_full_grouped(jet: FullJet, params: ProfileParams):
    """Alternative grouping through the ambient Laplacian.

    (1-r^2)(Lap_{R^{2n}} - f_zetazeta) - 2 r sqrt(1-r^2) f_zetarho
    + sphere_laplacian + ((1 - 2r^2)/r) f_rho - (Q-1) sqrt(1-r^2) f_zeta.
    Evaluates identically to apply_full.
    """
    n = params.n
    Q = params.Q
    rho = jet.rho
    root = np.sqrt(1.0 - rho * rho)
    ambient_lap = (jet.f_rhorho + (2 * n - 1) / rho * jet.f_rho
                   + jet.sphere_laplacian / rho ** 2)
    return ((1.0 - rho * rho) * (ambient_lap - jet.f_zetazeta)
            - 2.0 * rho * root * jet.f_zetarho
            + jet.sphere_laplacian
            + (1.0 - 2.0 * rho * rho) / rho * jet.f_rho
            - (Q - 1) * root * jet.f_zeta)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_groupings_evaluate_identically(n):
    params = ProfileParams(n)
    rng = np.random.default_rng(8)
    for _ in range(100):
        rho = rng.uniform(0.05, 0.95)
        jets = rng.normal(size=6)
        fj = FullJet(rho=rho, f_rho=jets[0], f_rhorho=jets[1], f_zeta=jets[2],
                     f_zetazeta=jets[3], f_zetarho=jets[4],
                     sphere_laplacian=jets[5])
        a = apply_full(fj, params)
        b = apply_full_grouped(fj, params)
        assert a == pytest.approx(b, rel=1e-13, abs=1e-13)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=60, deadline=None)
def test_operators_linear_in_jets(seed):
    params = ProfileParams(2)
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.05, 0.95)
    j1 = rng.normal(size=6)
    j2 = rng.normal(size=6)
    a, b = rng.normal(size=2)

    def make(v):
        return FullJet(rho=rho, f_rho=v[0], f_rhorho=v[1], f_zeta=v[2],
                       f_zetazeta=v[3], f_zetarho=v[4], sphere_laplacian=v[5])

    lhs = apply_full(make(a * j1 + b * j2), params)
    rhs = a * apply_full(make(j1), params) + b * apply_full(make(j2), params)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-13 * scale


# --- identity suites ---------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_identity_suites_pass(n):
    report = verify_identities(ProfileParams(n), sample_count=60)
    assert len(report) == 4
    for item in report:
        assert item["max_deviation"] <= 1e-5, item


# The finite-difference stencils as they were before they stacked their
# copies: one call of f per shifted point, formed and summed in this order.
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


# The per-point loop that verify_identities replaced, on the per-copy
# stencils, kept as the reference.  Each point goes in as a one-row array;
# f maps its rows independently, so stacking points and shifted copies must
# leave every value unchanged and the reports must agree exactly.
def _reference_identities(params, trials, pts):
    def normal(y):
        return horizontal_normal(y, +1)

    def omega_z(y):
        return omega_bar(np.linalg.norm(y, axis=-1), +1)

    def grad_hs(grad, nu):
        return grad - float(np.sum(grad * nu)) * nu

    H = -2.0 * params.n
    dev = [0.0] * 4
    for z in pts[:, None, :]:
        rho = float(np.linalg.norm(z, axis=-1)[0])
        nu = normal(z)[0]
        omega = float(omega_z(z)[0])
        grad_omega = _per_copy_grad(omega_z, z)[0]
        lhs = np.array([
            _per_copy_dir(lambda y, i=i: normal(y)[:, i], z, nu)[0]
            for i in range(z.shape[1])])
        rhs = -grad_hs(grad_omega, nu) / omega + omega * perp(nu)
        dev[1] = max(dev[1], float(np.max(np.abs(lhs - rhs))))
        for tr in trials:
            hess = float(_per_copy_hess_quadform(tr.value, z, nu, nu)[0])
            grad_phi = _per_copy_grad(tr.value, z)[0]
            nu_nu = float(_per_copy_dir(
                lambda y: np.sum(_per_copy_grad(tr.value, y) * normal(y),
                                 axis=-1),
                z, nu, h=1e-4)[0])
            rhs = (nu_nu + float(np.sum(grad_hs(grad_omega, nu)
                                        * grad_hs(grad_phi, nu))) / omega
                   - omega * float(np.sum(grad_phi * perp(nu))))
            dev[2] = max(dev[2], abs(hess - rhs))
            if tr.radial is None:
                continue
            jet = tr.radial.jet(rho)
            split = (float(_per_copy_laplacian(tr.value, z)[0])
                     + H * float(np.sum(grad_phi * nu)) - hess)
            dev[0] = max(dev[0], abs(radial_surface_laplacian(jet, params)
                                     - split))
            dev[3] = max(dev[3], abs(rho * rho * jet.d2f
                                     + (1.0 - rho * rho) / rho * jet.df - hess))
    return dev


# At n = 12 the suite stacks its copies in blocks, and at n = 50 the nested
# normal-normal stencil takes blocks of a single copy of its inner gradient.
@pytest.mark.parametrize("n", [1, 2, 3, 12, 50])
def test_identity_suites_match_the_per_point_loop(n):
    params = ProfileParams(n)
    count = 40 if n <= 3 else 100
    report = verify_identities(params, sample_count=count, seed=3)
    pts = _random_interior_points(n, count, 3)
    assert ([item["max_deviation"] for item in report]
            == _reference_identities(params, default_ambient_trials(), pts))
    assert all(item["samples"] == count for item in report)


def _custom_trials(kind):
    trials = default_ambient_trials()
    if kind == "none":
        return []
    if kind == "non-radial":
        return trials[3:]
    # r^2 (1 - r^2), a radial trial the default list does not hold
    green = default_green_radial_trials()[3]
    return [O.AmbientTrial(
        lambda z: green.f(np.linalg.norm(z, axis=-1)), green)]


@pytest.mark.parametrize("kind", ["none", "non-radial", "radial"])
@pytest.mark.parametrize("n", [1, 3, 12])
def test_identity_suites_on_custom_trials_match_the_per_point_loop(kind, n):
    params, trials = ProfileParams(n), _custom_trials(kind)
    report = verify_identities(params, trials, sample_count=40, seed=3)
    dev = [item["max_deviation"] for item in report]
    assert dev == _reference_identities(
        params, trials, _random_interior_points(n, 40, 3))
    nonzero = {"none": [False, True, False, False],
               "non-radial": [False, True, True, False],
               "radial": [True, True, True, True]}[kind]
    assert [d > 0.0 for d in dev] == nonzero


def test_identity_suites_report_a_nan_deviation(monkeypatch, tmp_path):
    # NaN where z_1 <= 0, without a numpy warning: a report that kept the
    # older value on a NaN read 0.0 for hessian_contraction_split, and the
    # CLI gate passed it
    trial = O.AmbientTrial(
        lambda z: np.where(z[..., 0] > 0, z[..., 0] ** 2, np.nan))
    report = verify_identities(ProfileParams(1), [trial], sample_count=20)
    dev = {item["lemma"]: item["max_deviation"] for item in report}
    assert math.isnan(dev["hessian_contraction_split"])
    monkeypatch.setattr(O, "default_ambient_trials", lambda: [trial])
    cfg = RunConfig(command="verify", n=1, suite="identities",
                    out_dir=str(tmp_path))
    assert run(cfg) == 1


def test_identity_suites_need_a_sample():
    with pytest.raises(ValueError, match=">= 1"):
        verify_identities(ProfileParams(1), sample_count=0)


def test_identity_suites_stay_small_at_large_n():
    # One call of f per shifted copy, as the stencils made before they
    # stacked copies, peaks at 1640776 B (tracemalloc); stacking every copy
    # of the nested normal-normal stencil at once peaks near 390 MB.
    tracemalloc.start()
    try:
        verify_identities(ProfileParams(100), sample_count=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 1640776


@pytest.mark.parametrize("n", [1, 2, 3])
def test_identity_suites_catch_a_rotated_normal(monkeypatch, n):
    def rotated(z, hemisphere, angle=1e-3):
        nu = horizontal_normal(z, hemisphere)
        return math.cos(angle) * nu + math.sin(angle) * perp(nu)
    monkeypatch.setattr(O, "horizontal_normal", rotated)
    report = verify_identities(ProfileParams(n), sample_count=60)
    assert [item["lemma"] for item in report] == [
        "tangential_laplacian_split", "normal_derivative_of_normal",
        "hessian_contraction_split", "normal_hessian_radial_form"]
    for item in report:
        assert item["max_deviation"] > 1e-5, item


def test_identity_suites_catch_a_wrong_omega(monkeypatch):
    exact = O.omega_bar
    monkeypatch.setattr(O, "omega_bar", lambda rho, hemi: exact(rho, -hemi))
    dev = {item["lemma"]: item["max_deviation"]
           for item in verify_identities(ProfileParams(2), sample_count=60)}
    assert dev["normal_derivative_of_normal"] > 1e-5
    assert dev["hessian_contraction_split"] > 1e-5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ambient_trials_act_row_by_row(n):
    z = _random_interior_points(n, 25, 2)
    for trial in default_ambient_trials():
        whole = trial.value(z)
        assert whole.shape == (25,)
        # numpy's scalar and array r ** 4 may differ in the last bit
        np.testing.assert_allclose(whole, [trial.value(p) for p in z],
                                   rtol=1e-15, atol=0.0)


def test_ambient_radial_trials_are_the_green_family():
    assert RadialTrial is O.RadialTrial
    trials = default_ambient_trials()
    z = np.array([0.3, 0.4])          # |z| = 0.5
    for amb, green in zip(trials[:3], default_green_radial_trials()):
        assert amb.value(z) == green.f(0.5)
        assert amb.radial.jet(0.5) == green.jet(0.5)
    assert [t.radial for t in trials[3:]] == [None] * 3


# --- purely angular probe ----------------------------------------------------

def purely_angular_probe(value, d1, d2, lambda_grid, rho_range=(0.1, 0.9),
                         n_rho=81, n_theta=64) -> float:
    """Min over a lambda grid of sup |L phi + lambda phi| for angular-only phi,
    through apply_polar_h1.

    Non-constant angular profiles keep the residual bounded away from zero:
    there is no non-trivial purely angular eigenfunction.
    """
    rho = np.linspace(rho_range[0], rho_range[1], n_rho)[:, None]
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)[None, :]
    phi = np.broadcast_to(value(theta), (n_rho, n_theta))
    jet = PolarJet(rho=rho, f_rho=0.0, f_theta=d1(theta),
                   f_rhorho=0.0, f_thetarho=0.0, f_thetatheta=d2(theta))
    l_phi = apply_polar_h1(jet)
    return min(float(np.max(np.abs(l_phi + lam * phi))) for lam in lambda_grid)


def test_cos_theta_has_no_eigenvalue():
    lam_grid = np.linspace(0.0, 100.0, 401)
    res = purely_angular_probe(np.cos, lambda t: -np.sin(t),
                               lambda t: -np.cos(t), lam_grid)
    assert res > 1e-2


def test_sin_two_theta_has_no_eigenvalue():
    lam_grid = np.linspace(0.0, 100.0, 401)
    res = purely_angular_probe(lambda t: np.sin(2 * t),
                               lambda t: 2 * np.cos(2 * t),
                               lambda t: -4 * np.sin(2 * t), lam_grid)
    assert res > 1e-2


def test_constant_profile_is_trivial_kernel():
    lam_grid = [0.0, 1.0, 5.0]
    res = purely_angular_probe(lambda t: np.ones_like(t),
                               lambda t: np.zeros_like(t),
                               lambda t: np.zeros_like(t), lam_grid)
    assert res == pytest.approx(0.0, abs=1e-15)
