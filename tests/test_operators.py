"""Pointwise operator forms, their reductions into one another, and the
surface-calculus identity suites."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hprofile.geometry import ProfileParams
from hprofile.operators import (FullJet, PolarJet, RadialJet, apply_full,
                                apply_full_grouped, apply_polar_h1,
                                apply_radial, purely_angular_probe,
                                sl_coefficients, verify_identities)
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


def test_ambient_radial_trials_are_the_green_family():
    import hprofile.operators as O
    assert RadialTrial is O.RadialTrial
    trials = default_ambient_trials()
    z = np.array([0.3, 0.4])          # |z| = 0.5
    for amb, green in zip(trials[:3], default_green_radial_trials()):
        assert amb.value(z) == green.f(0.5)
        assert amb.radial.jet(0.5) == green.jet(0.5)
    assert [t.radial for t in trials[3:]] == [None] * 3


# --- purely angular probe ----------------------------------------------------

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
