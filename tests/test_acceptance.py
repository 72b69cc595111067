"""Acceptance gate: the package's quantitative exit criteria.

Each test pins one criterion at a fixed tolerance and prints a PASS/FAIL
line (run pytest -s to see them inline).  Criteria 1 and 2 also enforce
wall-clock budgets.
"""
import json
import math
import time

import numpy as np

from hprofile.cli import RunConfig, run
from hprofile.geometry import (GeodesicState, ProfileParams, geodesic_trace,
                               horizontal_normal, mean_curvature_check,
                               omega_bar_normal_deriv_check,
                               profile_geodesic_residual)
from hprofile.numerics import integrate_profile_radial, profile_rule
from hprofile.spectrum import (default_green_polar_trials,
                               default_green_radial_trials,
                               discrete_radial_spectrum,
                               eigencondition_even_roots,
                               eigencondition_odd_roots, gram_matrix,
                               green_check, green_symmetry_residual,
                               build_mode_operator, mode_spectrum,
                               radial_eigenfunction, radial_eigenvalue,
                               richardson)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_closed_form_spectrum_reproduction():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3, 12, 40):
        params = ProfileParams(n)
        ev = [discrete_radial_spectrum(params, "natural", g, 4)
              for g in (1000, 2000)]
        od = [discrete_radial_spectrum(params, "dirichlet", g, 4)
              for g in (1000, 2000)]
        even_ex = richardson(ev[0], ev[1])
        odd_ex = richardson(od[0], od[1])
        for k in range(1, 9):
            lam = radial_eigenvalue(k, params)
            got = even_ex[k // 2 - 1] if k % 2 == 0 else odd_ex[k // 2]
            worst = max(worst, abs(got - lam) / lam)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.01 and elapsed < 30.0
    _report(1, ok, f"max rel err {worst:.2e} (tol 1e-2), {elapsed:.1f}s (< 30s)")


def test_criterion_02_gamma_condition_roots():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2):
        params = ProfileParams(n)
        lmax_even = 8.0 * (8 + 2 * n) + 1.0
        lmax_odd = 9.0 * (9 + 2 * n) + 1.0
        even = eigencondition_even_roots(lmax_even, params)
        odd = eigencondition_odd_roots(lmax_odd, params)
        for m in range(1, 5):
            worst = max(worst, abs(even[m - 1] - 2 * m * (2 * m + 2 * n)))
        for m in range(5):
            worst = max(worst, abs(odd[m] - (2 * m + 1) * (2 * m + 1 + 2 * n)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 2.0
    _report(2, ok, f"max abs err {worst:.2e} (tol 1e-8), {elapsed:.2f}s (< 2s)")


def test_criterion_03_first_eigenfunction():
    worst = 0.0
    r = np.linspace(0.0, 1.0, 100)
    for n in (1, 2, 3):
        mode = radial_eigenfunction(1, ProfileParams(n))
        scaled = mode.value(r) / mode.value(0.0)
        worst = max(worst, float(np.max(np.abs(scaled - np.sqrt(1 - r * r)))))
    ok = worst <= 1e-12
    _report(3, ok, f"max dev from sqrt(1-rho^2): {worst:.2e} (tol 1e-12)")


def test_criterion_04_second_eigenfunction():
    worst = 0.0
    r = np.linspace(0.0, 1.0, 100)
    for n in (1, 2, 3):
        params = ProfileParams(n)
        Q = params.Q
        mode = radial_eigenfunction(2, params)
        scaled = mode.value(r) / mode.value(0.0)
        target = ((Q - 1) - Q * r * r) / (Q - 1)
        worst = max(worst, float(np.max(np.abs(scaled - target))))
    ok = worst <= 1e-12
    _report(4, ok, f"max dev from (Q-1)-Q rho^2: {worst:.2e} (tol 1e-12)")


def test_criterion_05_ode_residuals():
    from hprofile.operators import RadialJet, apply_radial
    worst = 0.0
    r = np.linspace(0.01, 0.99, 99)
    for n in (1, 2, 3):
        params = ProfileParams(n)
        for k in range(1, 9):
            mode = radial_eigenfunction(k, params)
            jet = RadialJet(mode.value(r), mode.deriv(r),
                            mode.second_deriv(r), r)
            res = apply_radial(jet, params) + mode.lam * jet.f
            worst = max(worst, float(np.max(np.abs(res) / (1 + np.abs(jet.f)))))
    ok = worst <= 1e-8
    _report(5, ok, f"max scaled ODE residual {worst:.2e} (tol 1e-8)")


def test_criterion_06_mean_and_boundary_conditions():
    worst_mean = 0.0
    worst_bdry = 0.0
    for n in (1, 2):
        params = ProfileParams(n)
        rule = profile_rule(params, 64)
        for m in range(1, 5):
            mode = radial_eigenfunction(2 * m, params)
            worst_mean = max(worst_mean, abs(
                integrate_profile_radial(mode.value, rule)))
        for m in range(5):
            mode = radial_eigenfunction(2 * m + 1, params)
            worst_bdry = max(worst_bdry, abs(mode.value(1.0)))
    ok = worst_mean <= 1e-10 and worst_bdry <= 1e-8
    _report(6, ok, f"even mean {worst_mean:.2e} (tol 1e-10), "
                   f"odd boundary {worst_bdry:.2e} (tol 1e-8)")


def test_criterion_07_orthogonality():
    worst = 0.0
    for n in (1, 2):
        params = ProfileParams(n)
        rule = profile_rule(params, 64)
        modes = [radial_eigenfunction(k, params) for k in range(1, 9)]
        G = gram_matrix(modes, rule)
        off = G - np.diag(np.diag(G))
        worst = max(worst, float(np.max(np.abs(off))))
    ok = worst <= 1e-8
    _report(7, ok, f"max off-diagonal Gram entry {worst:.2e} (tol 1e-8)")


def test_criterion_08_green_formulas():
    worst = 0.0
    for n in (1, 2, 3):
        params = ProfileParams(n)
        for trial in default_green_radial_trials():
            worst = max(worst, green_check(trial, params))
    params = ProfileParams(1)
    for trial in default_green_polar_trials():
        worst = max(worst, green_check(trial, params))
    trs = default_green_radial_trials()
    worst = max(worst, green_symmetry_residual(trs[0], trs[2], params))
    ok = worst <= 1e-6
    _report(8, ok, f"max Green residual {worst:.2e} (tol 1e-6)")


def test_criterion_09_geometry_identities():
    worst_fd = 0.0
    worst_alg = 0.0
    rng = np.random.default_rng(17)
    for n in (1, 2, 3):
        params = ProfileParams(n)
        worst_fd = max(worst_fd, mean_curvature_check(params, 100))
        worst_fd = max(worst_fd, omega_bar_normal_deriv_check(params, 100))
        for _ in range(100):
            z = rng.normal(size=2 * n)
            z *= rng.uniform(0.05, 1.0) / np.linalg.norm(z)
            nu = horizontal_normal(z, +1)
            worst_alg = max(worst_alg, abs(float(nu @ nu) - 1.0),
                            abs(float(z @ nu) - float(z @ z)))
    ok = worst_fd <= 1e-6 and worst_alg <= 1e-14
    _report(9, ok, f"FD identities {worst_fd:.2e} (tol 1e-6), "
                   f"algebraic identities {worst_alg:.2e} (tol 1e-14)")


def test_criterion_10_geodesic_oracle():
    params = ProfileParams(1)
    start = GeodesicState(z=np.zeros(2), t=-math.pi / 8.0,
                          p_h=np.array([1.0, 0.0]), p_last=2.0)
    end = geodesic_trace(2.0, math.pi, 10_000, start)[-1]
    disp = max(float(np.max(np.abs(end.z))),
               abs((end.t - start.t) - math.pi / 4.0))
    meridian = profile_geodesic_residual(params, 10_000)
    ok = disp <= 1e-8 and meridian <= 1e-6
    _report(10, ok, f"pole-to-pole displacement err {disp:.2e} (tol 1e-8), "
                    f"meridian residual {meridian:.2e} (tol 1e-6)")


def test_criterion_11_subdomain_bounds():
    from hprofile.spectrum import subdomain_bound_check
    ok = True
    details = []
    for n in (1, 2):
        params = ProfileParams(n)
        Q = params.Q
        m1 = subdomain_bound_check((0.05, 0.95), float(Q - 1), params)
        a = math.sqrt((Q - 1.0) / Q) + 0.01
        m2 = subdomain_bound_check((a, 0.99), 2.0 * Q, params)
        ok = ok and m1 >= 0.0 and m2 >= 0.0
        details.append(f"n={n}: margins {m1:.3f}, {m2:.3f}")
    _report(11, ok, "; ".join(details) + " (all >= 0)")


def _mode_backward_error(k: int, shift: float = 0.0) -> float:
    """Worst ||(A - lam) v|| / (||A||_2 ||v||) over the two lowest mode-k
    eigenpairs on the 200-point grid, with each lam moved by `shift`."""
    op = build_mode_operator(k, 200)
    a = np.diag(op.diag) + np.diag(op.upper, 1) + np.diag(op.lower, -1)
    vals, vecs = mode_spectrum(k, 200, 2, "continuity", return_vectors=True)
    norm_a = float(np.linalg.norm(a, 2))
    worst = 0.0
    for i in range(2):
        v = vecs[:, i] * np.sqrt(op.mass)   # undo the 1/sqrt(mass) scaling
        r = a @ v - (vals[i] + shift) * v
        worst = max(worst, float(np.linalg.norm(r))
                    / (norm_a * float(np.linalg.norm(v))))
    return worst


def test_criterion_12_mode_consistency():
    radial = discrete_radial_spectrum(ProfileParams(1), "natural", 200, 4)
    modes = mode_spectrum(0, 200, 4, "continuity")
    dev = float(np.max(np.abs(modes.real - radial)))
    dev = max(dev, float(np.max(np.abs(modes.imag))))
    worst_res = max(_mode_backward_error(k) for k in (1, 2, 3))
    ok = dev <= 1e-10 and worst_res <= 1e-13
    _report(12, ok, f"k=0 agreement {dev:.2e} (tol 1e-10), "
                    f"mode eigen-residuals {worst_res:.2e} (tol 1e-13)")


def test_criterion_12_residual_detects_a_shifted_eigenvalue():
    # the check above must fail when an eigenvalue is off by 1e-6
    assert max(_mode_backward_error(k, 1e-6) for k in (1, 2, 3)) > 1e-13


def test_criterion_13_cli_determinism(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        out.mkdir()
        cfg = RunConfig(command="spectrum", n=1, k_max=5, grid=400,
                        fmt="json", out_dir=str(out))
        assert run(cfg) == 0
        cfg = RunConfig(command="geodesic", n=1, steps=1000, out_dir=str(out))
        assert run(cfg) == 0
        with open(out / "spectrum_1.json", "rb") as fh:
            doc = fh.read()
        with open(out / "geodesic_1.csv", "rb") as fh:
            doc += fh.read()
        outs.append(doc)
    ok = outs[0] == outs[1]
    _report(13, ok, "repeated CLI runs byte-identical")
