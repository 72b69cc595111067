"""Closed-form geometry of the unit isoperimetric profile and a CC-geodesic
integrator used as an independent oracle for its meridian.

Points of the Heisenberg group H^n carry exponential coordinates
(z, t) in R^{2n} x R with z = (x_1, y_1, ..., x_n, y_n).  The profile is the
surface of revolution t = +/- u0(|z|) over the closed unit ball; its two
poles (z = 0) are the characteristic points and every pointwise operation
here rejects them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ProfileParams",
    "GeodesicState",
    "perp",
    "kappa",
    "profile_height",
    "profile_height_deriv",
    "horizontal_normal",
    "omega_bar",
    "area_density",
    "mean_curvature_check",
    "omega_bar_normal_deriv_check",
    "geodesic_trace",
    "profile_geodesic_residual",
]


@dataclass(frozen=True)
class ProfileParams:
    """Ambient dimension data for H^n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("Heisenberg index n must be a positive integer")

    @property
    def Q(self) -> int:
        """Homogeneous dimension 2n + 2."""
        return 2 * self.n + 2

    @property
    def sphere_area(self) -> float:
        """Surface measure of the unit sphere S^{2n-1}: 2 pi^n / Gamma(n)."""
        return 2.0 * math.pi ** self.n / math.gamma(self.n)


@dataclass(frozen=True)
class GeodesicState:
    """Position (z, t) and momenta (P_H, P_last) of a CC-geodesic."""

    z: np.ndarray
    t: float
    p_h: np.ndarray
    p_last: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float))
        object.__setattr__(self, "p_h", np.asarray(self.p_h, dtype=float))
        if self.z.shape != self.p_h.shape or self.z.ndim != 1 or self.z.size % 2:
            raise ValueError("z and p_h must be flat arrays of even equal length")


def perp(v: np.ndarray) -> np.ndarray:
    """(x_1, y_1, ...) -> (-y_1, x_1, ...), the 90-degree rotation per block."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[0::2] = -v[1::2]
    out[1::2] = v[0::2]
    return out


def kappa(rho):
    """sqrt(1 - rho^2) / rho, the normal's rotational component."""
    return np.sqrt(1.0 - rho * rho) / rho


def profile_height(rho):
    """Meridian height u0(rho) = pi/8 + (rho/4) sqrt(1-rho^2) - (1/4) arcsin rho.

    Monotone decreasing from pi/8 at the pole to 0 at the equator.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0) or np.any(rho > 1.0):
        raise ValueError("rho must lie in [0, 1]")
    val = (math.pi / 8.0 + rho / 4.0 * np.sqrt(1.0 - rho * rho)
           - np.arcsin(rho) / 4.0)
    return float(val) if val.ndim == 0 else val


def profile_height_deriv(rho):
    """u0'(rho) = -rho^2 / (2 sqrt(1 - rho^2)); blows up at the equator."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0.0) or np.any(rho >= 1.0):
        raise ValueError("rho must lie in [0, 1)")
    val = -rho * rho / (2.0 * np.sqrt(1.0 - rho * rho))
    return float(val) if val.ndim == 0 else val


def horizontal_normal(z: Sequence[float], hemisphere: int) -> np.ndarray:
    """Unit horizontal normal z + sign * kappa(|z|) z^perp on the +/- hemisphere."""
    z = np.asarray(z, dtype=float)
    rho = float(np.linalg.norm(z))
    if rho == 0.0 or rho > 1.0:
        raise ValueError("need 0 < |z| <= 1 (characteristic pole or outside ball)")
    if hemisphere not in (1, -1):
        raise ValueError("hemisphere must be +1 or -1")
    return z + hemisphere * kappa(rho) * perp(z)


def omega_bar(rho, hemisphere: int):
    """The imaginary-curvature ratio: +/- 2 sqrt(1-rho^2) / rho."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0) or np.any(rho > 1.0):
        raise ValueError("rho must lie in (0, 1]")
    if hemisphere not in (1, -1):
        raise ValueError("hemisphere must be +1 or -1")
    val = hemisphere * 2.0 * np.sqrt(1.0 - rho * rho) / rho
    return float(val) if val.ndim == 0 else val


def area_density(rho, params: ProfileParams) -> tuple:
    """Pointwise 2n-density and radial weight of the H-perimeter measure.

    Returns (rho / (2 sqrt(1-rho^2)), rho^{2n} / sqrt(1-rho^2)); the second is
    the weight against which radial integrals over a hemisphere are taken.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0) or np.any(rho >= 1.0):
        raise ValueError("rho must lie strictly inside (0, 1)")
    root = np.sqrt(1.0 - rho * rho)
    dens = rho / (2.0 * root)
    wgt = rho ** (2 * params.n) / root
    if dens.ndim == 0:
        return float(dens), float(wgt)
    return dens, wgt


def _random_interior_points(n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, 2 * n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * rng.uniform(0.15, 0.85, size=(count, 1))


def _omega_field(z: np.ndarray) -> float:
    """Upper-hemisphere omega_bar in z, 2 sqrt(1-|z|^2) / |z|, unchecked
    (unlike omega_bar) for the finite-difference loops that call it often."""
    r = float(np.linalg.norm(z))
    return 2.0 * math.sqrt(1.0 - r * r) / r


def mean_curvature_check(params: ProfileParams, sample_count: int,
                         seed: int = 0, h: float = 1e-5) -> float:
    """Max |div(z + kappa z^perp) - 2n| over random interior points.

    The divergence of the extended normal field is exactly 2n, i.e. the
    horizontal mean curvature of the profile is -2n; central differences
    should reproduce it to discretization accuracy.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    target = 2.0 * params.n

    def field(z: np.ndarray) -> np.ndarray:
        return z + kappa(np.linalg.norm(z)) * perp(z)

    worst = 0.0
    for z in _random_interior_points(params.n, sample_count, seed):
        div = 0.0
        for i in range(z.size):
            step = np.zeros_like(z)
            step[i] = h
            div += (field(z + step)[i] - field(z - step)[i]) / (2.0 * h)
        worst = max(worst, abs(div - target))
    return worst


def omega_bar_normal_deriv_check(params: ProfileParams, sample_count: int,
                                 seed: int = 1, h: float = 1e-6) -> float:
    """Max |d(omega_bar)/d(nu_H^perp) - 2/rho^2| over random interior points."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")

    worst = 0.0
    for z in _random_interior_points(params.n, sample_count, seed):
        rho = float(np.linalg.norm(z))
        nu = horizontal_normal(z, +1)
        u = perp(nu)
        deriv = (_omega_field(z + h * u)
                 - _omega_field(z - h * u)) / (2.0 * h)
        worst = max(worst, abs(deriv - 2.0 / rho ** 2))
    return worst


def _geodesic_rhs(z: np.ndarray, p: np.ndarray, p_last: float):
    dz = p
    dt = 0.5 * float(np.dot(perp(z), p))
    dp = p_last * perp(p)
    return dz, dt, dp


def geodesic_trace(p_last: float, s_max: float, steps: int,
                   initial: GeodesicState) -> list[GeodesicState]:
    """Integrate the CC-geodesic system with the classical 4th-order scheme.

    State: dz/ds = P_H, dP_H/ds = p_last * P_H^perp, and the vertical
    component follows from horizontality, dt/ds = (1/2) <z^perp, P_H>.
    Returns steps + 1 states including the initial one.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if abs(float(np.linalg.norm(initial.p_h)) - 1.0) > 1e-12:
        raise ValueError("initial horizontal momentum must be unit")
    h = s_max / steps
    z = initial.z.copy()
    t = float(initial.t)
    p = initial.p_h.copy()
    out = [GeodesicState(z.copy(), t, p.copy(), p_last)]
    for _ in range(steps):
        k1z, k1t, k1p = _geodesic_rhs(z, p, p_last)
        k2z, k2t, k2p = _geodesic_rhs(z + 0.5 * h * k1z, p + 0.5 * h * k1p, p_last)
        k3z, k3t, k3p = _geodesic_rhs(z + 0.5 * h * k2z, p + 0.5 * h * k2p, p_last)
        k4z, k4t, k4p = _geodesic_rhs(z + h * k3z, p + h * k3p, p_last)
        z = z + h / 6.0 * (k1z + 2 * k2z + 2 * k3z + k4z)
        t = t + h / 6.0 * (k1t + 2 * k2t + 2 * k3t + k4t)
        p = p + h / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        out.append(GeodesicState(z.copy(), t, p.copy(), p_last))
    return out


def profile_geodesic_residual(params: ProfileParams, steps: int = 10_000) -> float:
    """Max deviation between the pole-to-pole geodesic and the meridian u0.

    Runs in H^1: the geodesic with p_last = 2 from the south pole
    (0, 0, -pi/8) sweeps out the profile's meridian; the residual compares
    |t(s)| with u0(|z(s)|) along the whole arc (lower hemisphere carries
    t < 0, upper t > 0).
    """
    if params.n != 1:
        raise ValueError("the meridian oracle runs in H^1")
    start = GeodesicState(z=np.zeros(2), t=-math.pi / 8.0,
                          p_h=np.array([1.0, 0.0]), p_last=2.0)
    states = geodesic_trace(2.0, math.pi, steps, start)
    worst = 0.0
    for st in states:
        rho = min(float(np.linalg.norm(st.z)), 1.0)
        worst = max(worst, abs(abs(st.t) - profile_height(rho)))
    return worst
