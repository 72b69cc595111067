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
    "horizontal_normal",
    "omega_bar",
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
        """Surface measure of the unit sphere S^{2n-1}: 2 pi^n / Gamma(n),
        for n <= 171 (Gamma(172) leaves float range)."""
        if self.n > 171:
            raise ValueError(f"the sphere area 2 pi^n / Gamma(n) needs "
                             f"n <= 171, got n = {self.n}")
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
                         seed: int = 0) -> float:
    """Max |div(z + kappa z^perp) - 2n| over random interior points.

    The divergence of the extended normal field is exactly 2n, i.e. the
    horizontal mean curvature of the profile is -2n; central differences
    should reproduce it to discretization accuracy.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    pts = _random_interior_points(params.n, sample_count, seed)
    div = sum(_fd_dir(lambda y: horizontal_normal(y, +1), pts, e, 1e-5)[:, i]
              for i, e in enumerate(np.eye(2 * params.n)))
    return float(np.max(np.abs(div - 2.0 * params.n)))


def omega_bar_normal_deriv_check(params: ProfileParams, sample_count: int,
                                 seed: int = 1) -> float:
    """Max |d(omega_bar)/d(nu_H^perp) - 2/rho^2| over random interior points."""
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    pts = _random_interior_points(params.n, sample_count, seed)
    rho = np.linalg.norm(pts, axis=-1)
    u = perp(horizontal_normal(pts, +1))
    deriv = _fd_dir(lambda y: omega_bar(np.linalg.norm(y, axis=-1), +1),
                    pts, u, 1e-6)
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


# steps per slice of a trace: bounds the stage temporaries of geodesic_trace
_TRACE_ROWS = 1024


def _block_momenta(px: float, py: float, p_last: float, h: float,
                   steps: int) -> np.ndarray:
    """RK4 for one 2-block of P_H, dP/ds = p_last P^perp, as Python floats.

    Returns a (4 steps + 1, 2) array: row 4i is P after i steps and rows
    4i + 1 .. 4i + 3 are that step's stage momenta U1, U2, U3.  Each stage
    does the arithmetic that RK4 on the whole flat state does elementwise,
    in the same order.  A block that starts at zero (of either sign) stays
    at zero, or at nan, and from the second step on repeats that step's
    rows bit for bit: it runs two steps and tiles the second.
    """
    if px == 0.0 and py == 0.0 and steps > 2:
        head = _block_momenta(px, py, p_last, h, 2)
        return np.concatenate([head, np.tile(head[5:], (steps - 2, 1))])
    half, sixth = 0.5 * h, h / 6.0
    lo, hi = -1.0 * p_last, 1.0 * p_last       # p_last P^perp = (lo y, hi x)
    out = [px, py]
    put = out.extend
    for _ in range(steps):
        k1x, k1y = py * lo, px * hi
        ux, uy = px + half * k1x, py + half * k1y
        k2x, k2y = uy * lo, ux * hi
        vx, vy = px + half * k2x, py + half * k2y
        k3x, k3y = vy * lo, vx * hi
        wx, wy = px + h * k3x, py + h * k3y
        k4x, k4y = wy * lo, wx * hi
        px = px + sixth * (((k1x + 2.0 * k2x) + 2.0 * k3x) + k4x)
        py = py + sixth * (((k1y + 2.0 * k2y) + 2.0 * k3y) + k4y)
        put((ux, uy, vx, vy, wx, wy, px, py))
    return np.array(out).reshape(-1, 2)


def _spread(out: np.ndarray, runs, stage) -> None:
    """Write stage(momenta) of each (block indices, momenta) run into those
    2-blocks of every row of out."""
    blocks = out.reshape(len(out), -1, 2)
    for idx, mom in runs:
        blocks[:, idx] = stage(mom)[:, None]


def geodesic_trace(p_last: float, s_max: float, steps: int,
                   initial: GeodesicState) -> GeodesicPath:
    """Integrate the CC-geodesic system with the classical 4th-order scheme.

    State: dz/ds = P_H, dP_H/ds = p_last * P_H^perp, and the vertical
    component follows from horizontality, dt/ds = (1/2) <z^perp, P_H>.
    Returns steps + 1 samples including the initial one.

    The step is split by what couples to what.  P_H moves 2-block by
    2-block on its own: each distinct initial block runs one float
    recurrence (_block_momenta), and blocks of bit-identical momentum share
    it.  z and t are quadratures of its stage momenta, taken on
    _TRACE_ROWS steps at a time and summed left to right, so each sample is
    the one that RK4 on the whole state (z, t, P_H) gives, bit for bit.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if abs(float(np.linalg.norm(initial.p_h)) - 1.0) > 1e-12:
        raise ValueError("initial horizontal momentum must be unit")
    m = initial.z.size
    h = s_max / steps
    half, sixth = 0.5 * h, h / 6.0
    # block indices of each distinct initial momentum; tobytes keeps -0.0
    groups: dict[bytes, list[int]] = {}
    for b, block in enumerate(initial.p_h.reshape(-1, 2)):
        groups.setdefault(block.tobytes(), []).append(b)
    swap = np.arange(m) ^ 1
    sign = np.tile([-1.0, 1.0], m // 2)
    z, p_h = np.empty((steps + 1, m)), np.empty((steps + 1, m))
    t = np.empty(steps + 1)
    z[0], t[0], p_h[0] = initial.z, initial.t, initial.p_h
    buffers = np.empty((3, min(steps, _TRACE_ROWS), m))
    for a in range(0, steps, _TRACE_ROWS):
        rows = min(_TRACE_ROWS, steps - a)
        end = a + rows
        runs = [(idx, _block_momenta(*p_h[a, 2 * idx[0]:2 * idx[0] + 2].tolist(),
                                     float(p_last), float(h), rows))
                for idx in groups.values()]
        _spread(p_h[a + 1:end + 1], runs, lambda mom: mom[4::4])
        _spread(z[a + 1:end + 1], runs,
                lambda mom: sixth * (((mom[0:-1:4] + 2 * mom[1::4])
                                      + 2 * mom[2::4]) + mom[3::4]))
        np.cumsum(z[a:end + 1], axis=0, out=z[a:end + 1])
        # stage k of t: 0.5 <z_k^perp, U_k> with z_k = z + c_k U_{k-1}.
        # Both operands are C-contiguous: a strided ddot rounds differently.
        zk, zperp, u = buffers[:, :rows]
        rates = []
        for k, c in enumerate((0.0, half, half, h)):
            if k:
                np.multiply(u, c, out=zk)
                zk += z[a:end]
            np.take(zk if k else z[a:end], swap, axis=1, out=zperp)
            zperp *= sign
            _spread(u, runs, lambda mom: mom[k:-1:4])
            rates.append(0.5 * np.vecdot(zperp, u))
        k1, k2, k3, k4 = rates
        t[a + 1:end + 1] = sixth * (((k1 + 2 * k2) + 2 * k3) + k4)
        np.cumsum(t[a:end + 1], out=t[a:end + 1])
    return GeodesicPath(s=np.arange(steps + 1) * h, z=z, t=t, p_h=p_h,
                        p_last=p_last)


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
