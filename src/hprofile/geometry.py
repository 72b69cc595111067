"""Closed-form geometry of the unit isoperimetric profile and a CC-geodesic
integrator used as an independent oracle for its meridian.

Points of the Heisenberg group H^n carry exponential coordinates
(z, t) in R^{2n} x R with z = (x_1, y_1, ..., x_n, y_n).  The profile is the
surface of revolution t = +/- u0(|z|) over the closed unit ball; its two
poles (z = 0) are the characteristic points and every pointwise operation
here rejects them.  The pointwise functions act on the last axis, so they
take one point or an (m, 2n) array of points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "ProfileParams",
    "GeodesicState",
    "GeodesicPath",
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
    """(x_1, y_1, ...) -> (-y_1, x_1, ...), the 90-degree rotation per block
    of the last axis."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
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
    """Unit horizontal normal z + sign * kappa(|z|) z^perp on the +/-
    hemisphere, of one point or of each row of an (m, 2n) array."""
    z = np.asarray(z, dtype=float)
    rho = np.linalg.norm(z, axis=-1, keepdims=True)
    if np.any(rho == 0.0) or np.any(rho > 1.0):
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


def _random_interior_points(n: int, count: int, seed: int,
                            radii: tuple[float, float] = (0.15, 0.85)
                            ) -> np.ndarray:
    """count points of R^{2n} with radii uniform in the interval radii and
    uniform directions.  The radii are drawn first, so a seed gives the same
    radii at every n."""
    rng = np.random.default_rng(seed)
    rho = rng.uniform(*radii, size=(count, 1))
    pts = rng.normal(size=(count, 2 * n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True) * rho


# --- finite differences on point arrays ------------------------------------
# f maps an (m, 2n) array of points to one value per row, or to one vector per
# row; a direction u is one vector for every row or an (m, 2n) array.

_H_GRAD = 1e-6
_H_HESS = 1e-4


def _fd_dir(f, z: np.ndarray, u: np.ndarray, h: float = _H_GRAD):
    """Central difference of f along u."""
    return (f(z + h * u) - f(z - h * u)) / (2.0 * h)


def _fd_grad(f, z: np.ndarray, h: float = _H_GRAD) -> np.ndarray:
    """Gradient of a scalar f, one column per coordinate direction."""
    return np.stack([_fd_dir(f, z, e, h) for e in np.eye(z.shape[-1])],
                    axis=-1)


def _fd_laplacian(f, z: np.ndarray, h: float = _H_HESS):
    """Sum of the second central differences of f along the coordinates."""
    fz = f(z)
    return sum((f(z + h * e) - 2.0 * fz + f(z - h * e)) / (h * h)
               for e in np.eye(z.shape[-1]))


def _fd_hess_quadform(f, z: np.ndarray, u: np.ndarray, v: np.ndarray,
                      h: float = _H_HESS):
    """<Hess f(z) u, v> by a centered four-point stencil."""
    return (f(z + h * u + h * v) - f(z + h * u - h * v)
            - f(z - h * u + h * v) + f(z - h * u - h * v)) / (4.0 * h * h)


def mean_curvature_check(params: ProfileParams, sample_count: int,
                         seed: int = 0, h: float = 1e-5) -> float:
    """Max |div(z + kappa z^perp) - 2n| over random interior points.

    The divergence of the extended normal field is exactly 2n, i.e. the
    horizontal mean curvature of the profile is -2n; central differences
    should reproduce it to discretization accuracy.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    pts = _random_interior_points(params.n, sample_count, seed)
    div = sum(_fd_dir(lambda y: horizontal_normal(y, +1), pts, e, h)[:, i]
              for i, e in enumerate(np.eye(2 * params.n)))
    return float(np.max(np.abs(div - 2.0 * params.n)))


def omega_bar_normal_deriv_check(params: ProfileParams, sample_count: int,
                                 seed: int = 1, h: float = 1e-6) -> float:
    """Max |d(omega_bar)/d(nu_H^perp) - 2/rho^2| over random interior points."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    pts = _random_interior_points(params.n, sample_count, seed)
    rho = np.linalg.norm(pts, axis=-1)
    u = perp(horizontal_normal(pts, +1))
    deriv = _fd_dir(lambda y: omega_bar(np.linalg.norm(y, axis=-1), +1),
                    pts, u, h)
    return float(np.max(np.abs(deriv - 2.0 / rho ** 2)))


@dataclass(frozen=True)
class GeodesicPath:
    """Samples s_i = i h of one traced CC-geodesic, as arrays: z and p_h
    are (steps + 1, 2n), s and t are (steps + 1,).  path[i] is the i-th
    sample as a GeodesicState (negative i counts from the end)."""

    s: np.ndarray
    z: np.ndarray
    t: np.ndarray
    p_h: np.ndarray
    p_last: float

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> GeodesicState:
        return GeodesicState(self.z[i], float(self.t[i]), self.p_h[i],
                             self.p_last)


def geodesic_trace(p_last: float, s_max: float, steps: int,
                   initial: GeodesicState) -> GeodesicPath:
    """Integrate the CC-geodesic system with the classical 4th-order scheme.

    State: dz/ds = P_H, dP_H/ds = p_last * P_H^perp, and the vertical
    component follows from horizontality, dt/ds = (1/2) <z^perp, P_H>.
    Returns steps + 1 samples including the initial one.

    z and P_H advance as one flat array y = (z, P_H).  One gather and one
    scale of y give its rate (P_H, p_last * P_H^perp) followed by z^perp;
    every stage combines whole arrays elementwise, so each sample is the
    one that advancing z, t and P_H separately gives.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if abs(float(np.linalg.norm(initial.p_h)) - 1.0) > 1e-12:
        raise ValueError("initial horizontal momentum must be unit")
    m = initial.z.size
    # v^perp = sign * v[swap], block by block
    swap = np.arange(m) ^ 1
    sign = np.tile([-1.0, 1.0], m // 2)
    gather = np.r_[m:2 * m, m + swap, swap]
    scale = np.r_[np.ones(m), sign * p_last, sign]

    def rates(y: np.ndarray):
        r = y.take(gather) * scale
        return r[:2 * m], 0.5 * float(np.dot(r[2 * m:], y[m:]))

    h = s_max / steps
    half, sixth = 0.5 * h, h / 6.0
    ys = np.empty((steps + 1, 2 * m))
    ts = np.empty(steps + 1)
    y = ys[0] = np.r_[initial.z, initial.p_h]
    t = ts[0] = float(initial.t)
    for i in range(1, steps + 1):
        k1, k1t = rates(y)
        k2, k2t = rates(y + half * k1)
        k3, k3t = rates(y + half * k2)
        k4, k4t = rates(y + h * k3)
        y = ys[i] = y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        t = ts[i] = t + sixth * (k1t + 2 * k2t + 2 * k3t + k4t)
    return GeodesicPath(s=np.arange(steps + 1) * h, z=ys[:, :m], t=ts,
                        p_h=ys[:, m:], p_last=p_last)


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
    path = geodesic_trace(2.0, math.pi, steps, start)
    rho = np.minimum(np.linalg.norm(path.z, axis=1), 1.0)
    return float(np.max(np.abs(np.abs(path.t) - profile_height(rho))))
