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

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import (_STACK_FLOATS, ProfileParams, _check_hemisphere,
                       _fd_dir, _fd_grad, _fd_hess_quadform, _fd_laplacian,
                       _random_interior_points, horizontal_normal, omega_bar,
                       perp)

__all__ = [
    "RadialJet",
    "PolarJet",
    "FullJet",
    "SLCoefficients",
    "sl_coefficients",
    "apply_radial",
    "apply_polar_h1",
    "apply_full",
    "radial_surface_laplacian",
    "RadialTrial",
    "default_green_radial_trials",
    "AmbientTrial",
    "default_ambient_trials",
    "verify_identities",
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
        return rho ** two_n * np.sqrt((1.0 - rho) * (1.0 + rho))

    def w(rho):
        return rho ** two_n / np.sqrt((1.0 - rho) * (1.0 + rho))

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
    _check_hemisphere(hemisphere)
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


# --- radial trial functions ----------------------------------------------

@dataclass(frozen=True)
class RadialTrial:
    """Radial trial function with analytic derivatives."""

    f: Callable
    df: Callable
    d2f: Callable

    def jet(self, r) -> RadialJet:
        return RadialJet(self.f(r), self.df(r), self.d2f(r), r)

    def applied(self, r, params: ProfileParams):
        """The radial operator applied to the trial at r."""
        return apply_radial(self.jet(r), params)


def default_green_radial_trials() -> list[RadialTrial]:
    """Smooth radial trials of the Green checks; the first three also drive
    the identity suite."""
    return [
        RadialTrial(lambda r: r * r, lambda r: 2 * r, lambda r: 2.0 * np.ones_like(r)),
        RadialTrial(lambda r: r ** 4, lambda r: 4 * r ** 3, lambda r: 12 * r ** 2),
        RadialTrial(lambda r: 1 - r * r, lambda r: -2 * r, lambda r: -2.0 * np.ones_like(r)),
        RadialTrial(lambda r: r ** 2 * (1 - r ** 2), lambda r: 2 * r - 4 * r ** 3,
                    lambda r: 2 - 12 * r ** 2),
        RadialTrial(lambda r: r ** 6, lambda r: 6 * r ** 5, lambda r: 30 * r ** 4),
    ]


# --- identity verification ------------------------------------------------

@dataclass(frozen=True)
class AmbientTrial:
    """A t-independent polynomial trial function on R^{2n}, with its radial
    profile when it is radial.  value maps one point, or each row of an
    (m, 2n) array, to a number; for a radial trial it is radial.f(|z|),
    which verify_identities evaluates in its place."""

    value: Callable[[np.ndarray], np.ndarray]
    radial: RadialTrial | None = None


def default_ambient_trials() -> list[AmbientTrial]:
    """The first three radial trials as functions of |z|, then three
    non-radial polynomials."""
    trials = [AmbientTrial(lambda z, f=tr.f: f(np.linalg.norm(z, axis=-1)), tr)
              for tr in default_green_radial_trials()[:3]]
    trials.append(AmbientTrial(lambda z: z[..., 0] * z[..., 0]))
    trials.append(AmbientTrial(lambda z: z[..., 0] * z[..., 1]))
    trials.append(AmbientTrial(lambda z: z[..., 0] * _dot(z, z)))
    return trials


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inner product over the last axis."""
    return np.sum(a * b, axis=-1)


def _grad_hs(grad: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Tangential-horizontal part of a horizontal gradient."""
    return grad - _dot(grad, nu)[..., None] * nu


def _trial_values(trials: Sequence[AmbientTrial]) -> Callable:
    """y -> (rows, len(trials)), each trial's values in its own column.  A
    radial trial is evaluated as its profile at |y|, taken once per call."""
    radial = any(tr.radial is not None for tr in trials)

    def values(y: np.ndarray) -> np.ndarray:
        out = np.empty(y.shape[:-1] + (len(trials),))
        rho = np.linalg.norm(y, axis=-1) if radial else None
        for j, tr in enumerate(trials):
            out[..., j] = tr.value(y) if tr.radial is None else tr.radial.f(rho)
        return out
    return values


def verify_identities(params: ProfileParams,
                      trials: Sequence[AmbientTrial] | None = None,
                      sample_count: int = 100,
                      seed: int = 7) -> list[dict]:
    """Check the surface-calculus identities behind the operator, by FD.

    Each entry reports the max |LHS - RHS| over random interior points on the
    upper hemisphere; all trial functions are t-independent so horizontal
    derivatives coincide with Euclidean ones.  The normal's stencils run on
    all sample points at once; the trials' stencils run on all trials at
    once, as the columns of one vector-valued function, over blocks of
    sample points whose (points, trials, 2n) gradients hold at most
    _STACK_FLOATS floats (one block of 100 points up to n = 12 with the
    six default trials).
    """
    if trials is None:
        trials = default_ambient_trials()
    pts = _random_interior_points(params.n, sample_count, seed)
    rho = np.linalg.norm(pts, axis=-1)
    nu = horizontal_normal(pts, +1)
    H = -2.0 * params.n

    def normal(y):
        return horizontal_normal(y, +1)

    def omega_of(y):
        return omega_bar(np.linalg.norm(y, axis=-1), +1)

    omega = omega_of(pts)
    grad_omega_hs = _grad_hs(_fd_grad(omega_of, pts), nu)
    dev = dict.fromkeys(("tangential_laplacian_split",
                         "normal_derivative_of_normal",
                         "hessian_contraction_split",
                         "normal_hessian_radial_form"), 0.0)

    def record(lemma: str, lhs, rhs) -> None:
        # np.maximum keeps a NaN, where Python's max would drop a new one
        dev[lemma] = float(np.maximum(dev[lemma],
                                      np.max(np.abs(lhs - rhs), initial=0.0)))

    # normal self-derivative: (nu . grad) nu = -grad_HS(omega)/omega + omega nu^perp
    record("normal_derivative_of_normal", _fd_dir(normal, pts, nu),
           -grad_omega_hs / omega[:, None] + omega[:, None] * perp(nu))

    values = _trial_values(trials)
    radial = [j for j, tr in enumerate(trials) if tr.radial is not None]
    radial_values = _trial_values([trials[j] for j in radial])
    if radial:
        jets = [trials[j].radial.jet(rho) for j in radial]
        # tangential Laplacian of each radial trial, and the radial reduction
        # of its normal-normal Hessian, rho^2 f'' + ((1-rho^2)/rho) f'
        lap_hs = np.stack([radial_surface_laplacian(jet, params)
                           for jet in jets], axis=-1)
        hess_form = np.stack([rho * rho * jet.d2f
                              + (1.0 - rho * rho) / rho * jet.df
                              for jet in jets], axis=-1)
    step = max(1, _STACK_FLOATS // (max(len(trials), 1) * pts.shape[-1]))
    for lo in range(0, len(pts), step):
        b = slice(lo, lo + step)
        z, om = pts[b], omega[b][:, None]
        # nu of each point, and nu against each trial's gradient
        nu_z, nu_t = nu[b], nu[b][:, None]
        hess_nn = _fd_hess_quadform(values, z, nu_z, nu_z)
        grad_phi = _fd_grad(values, z)
        # Hessian contraction: <Hess phi nu, nu> = nu(nu(phi))
        #     + <grad_HS omega / omega, grad_HS phi> - omega dphi/dnu^perp
        nu_nu = _fd_dir(lambda y: _dot(_fd_grad(values, y), normal(y)[:, None]),
                        z, nu_z, h=1e-4)
        record("hessian_contraction_split", hess_nn,
               nu_nu + _dot(grad_omega_hs[b][:, None], _grad_hs(grad_phi, nu_t))
               / om - om * _dot(grad_phi, perp(nu_t)))
        if not radial:
            continue
        hess_nn = hess_nn[:, radial]
        # tangential Laplacian split: Lap_HS = Lap_H + H d/dnu - <Hess nu, nu>
        record("tangential_laplacian_split", lap_hs[b],
               _fd_laplacian(radial_values, z)
               + H * _dot(grad_phi[:, radial], nu_t) - hess_nn)
        record("normal_hessian_radial_form", hess_form[b], hess_nn)

    return [{"lemma": lemma, "max_deviation": worst, "samples": len(pts)}
            for lemma, worst in dev.items()]
