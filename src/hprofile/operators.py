"""Pointwise application of the horizontal tangential operator L_HS.

Three coordinate forms are exposed: the radial reduction valid for every n,
the polar form on H^1, and the general (rho, angular) form that takes
caller-supplied angular jets.  The angular jet convention is arc-length
based: for n = 1,

    f_zeta      = f_theta / rho
    f_zetazeta  = f_thetatheta / rho^2
    f_zetarho   = f_thetarho / rho      (angular derivative of f_rho)

and sphere_laplacian is the unit-sphere Laplacian of the restriction
(= f_thetatheta for n = 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import (ProfileParams, _omega_field, _random_interior_points,
                       horizontal_normal, perp)

__all__ = [
    "RadialJet",
    "PolarJet",
    "FullJet",
    "SLCoefficients",
    "sl_coefficients",
    "apply_radial",
    "apply_polar_h1",
    "apply_full",
    "apply_full_grouped",
    "radial_surface_laplacian",
    "AmbientTrial",
    "make_radial_trial",
    "default_radial_trials",
    "default_ambient_trials",
    "verify_identities",
    "purely_angular_probe",
]


@dataclass(frozen=True)
class RadialJet:
    """Value and first two radial derivatives of a radial function at rho."""

    f: float
    df: float
    d2f: float
    rho: float

    def __post_init__(self) -> None:
        r = np.asarray(self.rho)
        if np.any(r <= 0.0) or np.any(r >= 1.0):
            raise ValueError("rho must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class PolarJet:
    """Second-order jet of phi(rho, theta) on H^1 (plain polar derivatives)."""

    rho: float
    f_rho: float
    f_theta: float
    f_rhorho: float
    f_thetarho: float
    f_thetatheta: float


@dataclass(frozen=True)
class FullJet:
    """Second-order jet in (rho, zeta) plus the angular Laplacian, general n."""

    rho: float
    f_rho: float
    f_rhorho: float
    f_zeta: float
    f_zetazeta: float
    f_zetarho: float
    sphere_laplacian: float


@dataclass(frozen=True)
class SLCoefficients:
    """Sturm-Liouville data (p phi')' + lambda w phi = 0 of the radial problem."""

    p: Callable[[np.ndarray], np.ndarray]
    w: Callable[[np.ndarray], np.ndarray]


def sl_coefficients(params: ProfileParams) -> SLCoefficients:
    """p = rho^{2n} sqrt(1-rho^2), w = rho^{2n} / sqrt(1-rho^2); p/w = 1-rho^2."""
    two_n = 2 * params.n

    def p(rho):
        return rho ** two_n * np.sqrt(1.0 - rho * rho)

    def w(rho):
        return rho ** two_n / np.sqrt(1.0 - rho * rho)

    return SLCoefficients(p=p, w=w)


def apply_radial(jet: RadialJet, params: ProfileParams):
    """(1-rho^2) f'' + ((2n - (2n+1) rho^2)/rho) f' at the jet's point."""
    n = params.n
    rho = jet.rho
    return ((1.0 - rho * rho) * jet.d2f
            + (2 * n - (2 * n + 1) * rho * rho) / rho * jet.df)


def apply_polar_h1(jet: PolarJet, hemisphere: int = 1):
    """Polar form of the operator on H^1 (upper hemisphere by default).

    (1-r^2) f_rr -+ 2 sqrt(1-r^2) f_tr + f_tt + ((2-3r^2)/r) f_r
    -+ 3 (sqrt(1-r^2)/r) f_t; the lower hemisphere flips the two signs.
    """
    if hemisphere not in (1, -1):
        raise ValueError("hemisphere must be +1 or -1")
    rho = jet.rho
    root = np.sqrt(1.0 - rho * rho)
    return ((1.0 - rho * rho) * jet.f_rhorho
            - hemisphere * 2.0 * root * jet.f_thetarho
            + jet.f_thetatheta
            + (2.0 - 3.0 * rho * rho) / rho * jet.f_rho
            - hemisphere * 3.0 * root / rho * jet.f_theta)


def apply_full(jet: FullJet, params: ProfileParams):
    """General form: radial part, mixed term, and angular operator."""
    n = params.n
    Q = params.Q
    rho = jet.rho
    root = np.sqrt(1.0 - rho * rho)
    radial = ((1.0 - rho * rho) * jet.f_rhorho
              + (2 * n - (2 * n + 1) * rho * rho) / rho * jet.f_rho)
    mixed = -2.0 * rho * root * jet.f_zetarho
    angular = (jet.sphere_laplacian / rho ** 2
               - (1.0 - rho * rho) * jet.f_zetazeta
               - (Q - 1) * root * jet.f_zeta)
    return radial + mixed + angular


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


def radial_surface_laplacian(jet: RadialJet, params: ProfileParams):
    """Tangential Laplacian of a radial function on the profile.

    Built from the support function g = rho^2 and mean curvature -2n:
    (f'/rho)(-2n g + 2n - 1) + ((f'' rho - f')/rho^3)(rho^2 - g^2).
    """
    n = params.n
    rho = jet.rho
    g = rho * rho
    return (jet.df / rho * (-2 * n * g + 2 * n - 1)
            + (jet.d2f * rho - jet.df) / rho ** 3 * (rho * rho - g * g))


# --- finite-difference oracles -------------------------------------------

_H_GRAD = 1e-6
_H_HESS = 1e-4


def _fd_grad(f: Callable[[np.ndarray], float], z: np.ndarray,
             h: float = _H_GRAD) -> np.ndarray:
    g = np.empty_like(z)
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = h
        g[i] = (f(z + e) - f(z - e)) / (2.0 * h)
    return g


def _fd_hess_quadform(f: Callable[[np.ndarray], float], z: np.ndarray,
                      u: np.ndarray, v: np.ndarray,
                      h: float = _H_HESS) -> float:
    """<Hess f(z) u, v> by a centered four-point stencil."""
    return (f(z + h * u + h * v) - f(z + h * u - h * v)
            - f(z - h * u + h * v) + f(z - h * u - h * v)) / (4.0 * h * h)


def _fd_laplacian(f: Callable[[np.ndarray], float], z: np.ndarray,
                  h: float = _H_HESS) -> float:
    acc = 0.0
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = h
        acc += (f(z + e) - 2.0 * f(z) + f(z - e)) / (h * h)
    return acc


def _fd_dir(f: Callable[[np.ndarray], float], z: np.ndarray, u: np.ndarray,
            h: float = _H_GRAD) -> float:
    return (f(z + h * u) - f(z - h * u)) / (2.0 * h)


# --- identity verification ------------------------------------------------

@dataclass(frozen=True)
class AmbientTrial:
    """A t-independent polynomial trial function on R^{2n}."""

    label: str
    value: Callable[[np.ndarray], float]
    radial_jets: Callable[[float], tuple] | None = None  # rho -> (f, df, d2f)


def make_radial_trial(label: str, f, df, d2f) -> AmbientTrial:
    return AmbientTrial(
        label=label,
        value=lambda z, _f=f: _f(float(np.linalg.norm(z))),
        radial_jets=lambda rho: (f(rho), df(rho), d2f(rho)),
    )


def default_radial_trials() -> list[AmbientTrial]:
    return [
        make_radial_trial("rho2", lambda r: r * r, lambda r: 2 * r, lambda r: 2.0),
        make_radial_trial("rho4", lambda r: r ** 4, lambda r: 4 * r ** 3,
                          lambda r: 12 * r * r),
        make_radial_trial("one_minus_rho2", lambda r: 1 - r * r, lambda r: -2 * r,
                          lambda r: -2.0),
    ]


def default_ambient_trials(n: int) -> list[AmbientTrial]:
    trials = list(default_radial_trials())
    trials.append(AmbientTrial("x1_sq", lambda z: z[0] * z[0]))
    trials.append(AmbientTrial("x1_y1", lambda z: z[0] * z[1]))
    trials.append(AmbientTrial("x1_rho2", lambda z: z[0] * float(z @ z)))
    return trials


def _grad_hs(grad: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Tangential-horizontal part of a horizontal gradient."""
    return grad - float(grad @ nu) * nu


def verify_identities(params: ProfileParams,
                      trials: Sequence[AmbientTrial] | None = None,
                      sample_count: int = 100,
                      seed: int = 7) -> list[dict]:
    """Check the surface-calculus identities behind the operator, by FD.

    Each entry reports the max |LHS - RHS| over random interior points on the
    upper hemisphere; all trial functions are t-independent so horizontal
    derivatives coincide with Euclidean ones.
    """
    if trials is None:
        trials = default_ambient_trials(params.n)
    pts = _random_interior_points(params.n, sample_count, seed)
    H = -2.0 * params.n
    report = []

    # tangential Laplacian split: Lap_HS = Lap_H + H d/dnu - <Hess nu, nu>
    dev = 0.0
    for tr in trials:
        if tr.radial_jets is None:
            continue
        for z in pts:
            rho = float(np.linalg.norm(z))
            f, df, d2f = tr.radial_jets(rho)
            jet = RadialJet(f, df, d2f, rho)
            lhs = radial_surface_laplacian(jet, params)
            nu = horizontal_normal(z, +1)
            rhs = (_fd_laplacian(tr.value, z)
                   + H * float(_fd_grad(tr.value, z) @ nu)
                   - _fd_hess_quadform(tr.value, z, nu, nu))
            dev = max(dev, abs(lhs - rhs))
    report.append({"lemma": "tangential_laplacian_split",
                   "max_deviation": dev, "samples": len(pts)})

    # normal self-derivative: (nu . grad) nu = -grad_HS(omega)/omega + omega nu^perp
    dev = 0.0
    for z in pts:
        nu = horizontal_normal(z, +1)
        lhs = np.array([_fd_dir(lambda y, i=i: horizontal_normal(y, +1)[i], z, nu)
                        for i in range(z.size)])
        omega = _omega_field(z)
        grad_omega = _fd_grad(_omega_field, z)
        nu_perp = perp(nu)
        rhs = -_grad_hs(grad_omega, nu) / omega + omega * nu_perp
        dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    report.append({"lemma": "normal_derivative_of_normal",
                   "max_deviation": dev, "samples": len(pts)})

    # Hessian contraction: <Hess phi nu, nu> = nu(nu(phi))
    #                      + <grad_HS omega / omega, grad_HS phi> - omega dphi/dnu^perp
    dev = 0.0
    for tr in trials:
        for z in pts:
            nu = horizontal_normal(z, +1)
            lhs = _fd_hess_quadform(tr.value, z, nu, nu)
            g = lambda y: float(_fd_grad(tr.value, y) @ horizontal_normal(y, +1))
            nu_nu = _fd_dir(g, z, nu, h=1e-4)
            omega = _omega_field(z)
            grad_omega = _fd_grad(_omega_field, z)
            grad_phi = _fd_grad(tr.value, z)
            rhs = (nu_nu
                   + float(_grad_hs(grad_omega, nu) @ _grad_hs(grad_phi, nu)) / omega
                   - omega * float(grad_phi @ perp(nu)))
            dev = max(dev, abs(lhs - rhs))
    report.append({"lemma": "hessian_contraction_split",
                   "max_deviation": dev, "samples": len(pts)})

    # radial reduction of the normal-normal Hessian: rho^2 f'' + ((1-rho^2)/rho) f'
    dev = 0.0
    for tr in trials:
        if tr.radial_jets is None:
            continue
        for z in pts:
            rho = float(np.linalg.norm(z))
            _, df, d2f = tr.radial_jets(rho)
            lhs = rho * rho * d2f + (1.0 - rho * rho) / rho * df
            nu = horizontal_normal(z, +1)
            rhs = _fd_hess_quadform(tr.value, z, nu, nu)
            dev = max(dev, abs(lhs - rhs))
    report.append({"lemma": "normal_hessian_radial_form",
                   "max_deviation": dev, "samples": len(pts)})

    return report


def purely_angular_probe(value: Callable[[np.ndarray], np.ndarray],
                         d1: Callable[[np.ndarray], np.ndarray],
                         d2: Callable[[np.ndarray], np.ndarray],
                         lambda_grid: Sequence[float],
                         rho_range: tuple[float, float] = (0.1, 0.9),
                         n_rho: int = 81,
                         n_theta: int = 64) -> float:
    """Min over a lambda grid of sup |L phi + lambda phi| for angular-only phi.

    Non-constant angular profiles keep the residual bounded away from zero:
    there is no non-trivial purely angular eigenfunction.
    """
    rho = np.linspace(rho_range[0], rho_range[1], n_rho)[:, None]
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)[None, :]
    phi = np.broadcast_to(value(theta), (n_rho, n_theta))
    jet = PolarJet(rho=rho, f_rho=0.0, f_theta=d1(theta),
                   f_rhorho=0.0, f_thetarho=0.0, f_thetatheta=d2(theta))
    l_phi = apply_polar_h1(jet)
    best = math.inf
    for lam in lambda_grid:
        best = min(best, float(np.max(np.abs(l_phi + lam * phi))))
    return best
