"""Closed-form geometry of the unit isoperimetric profile, and the
CC-geodesics of H^n in closed form (each 2-block of the horizontal momentum
rotates at the rate p_last), used as an independent oracle for its meridian.

Points of the Heisenberg group H^n carry exponential coordinates
(z, t) in R^{2n} x R with z = (x_1, y_1, ..., x_n, y_n).  The profile is the
surface of revolution t = +/- u0(|z|) over the closed unit ball; its two
poles (z = 0) are the characteristic points and every pointwise operation
here rejects them.  The pointwise functions act on the last axis, so they
take one point or an (m, 2n) array of points.
"""
from __future__ import annotations

import itertools
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


# pi - math.pi: math.pi + PI_LO is pi to about 1e-32
PI_LO = 1.2246467991473532e-16


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
        for n <= 171 (Gamma(172) leaves float range).  pi^n is taken with
        the first-order term of pi's rounding, (pi_hi + pi_lo)^n ~ pi_hi^n +
        n pi_hi^(n-1) pi_lo, so that it does not grow n-fold."""
        if self.n > 171:
            raise ValueError(f"the sphere area 2 pi^n / Gamma(n) needs "
                             f"n <= 171, got n = {self.n}")
        n = self.n
        pi_n = math.pi ** n + n * math.pi ** (n - 1) * PI_LO
        return 2.0 * pi_n / math.gamma(n)


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


def _check_hemisphere(hemisphere: int) -> None:
    if hemisphere not in (1, -1):
        raise ValueError("hemisphere must be +1 or -1")


def horizontal_normal(z: Sequence[float], hemisphere: int) -> np.ndarray:
    """Unit horizontal normal z + sign * kappa(|z|) z^perp on the +/-
    hemisphere, of one point or of each row of an (m, 2n) array."""
    z = np.asarray(z, dtype=float)
    rho = np.linalg.norm(z, axis=-1, keepdims=True)
    if np.any(rho == 0.0) or np.any(rho > 1.0):
        raise ValueError("need 0 < |z| <= 1 (characteristic pole or outside ball)")
    _check_hemisphere(hemisphere)
    return z + hemisphere * kappa(rho) * perp(z)


def omega_bar(rho, hemisphere: int):
    """The imaginary-curvature ratio: +/- 2 sqrt(1-rho^2) / rho."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0) or np.any(rho > 1.0):
        raise ValueError("rho must lie in (0, 1]")
    _check_hemisphere(hemisphere)
    val = hemisphere * 2.0 * np.sqrt(1.0 - rho * rho) / rho
    return float(val) if val.ndim == 0 else val


def _random_interior_points(n: int, count: int, seed: int,
                            radii: tuple[float, float] = (0.15, 0.85)
                            ) -> np.ndarray:
    """count points of R^{2n} with radii uniform in the interval radii and
    uniform directions.  The radii are drawn first, so a seed gives the same
    radii at every n."""
    if count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = np.random.default_rng(seed)
    rho = rng.uniform(*radii, size=(count, 1))
    pts = rng.normal(size=(count, 2 * n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True) * rho


# --- finite differences on point arrays ------------------------------------
# f maps an (m, 2n) array of points to one value per row, or to one vector per
# row; a direction u is one vector for every row or an (m, 2n) array.  Each
# stencil evaluates f once on all its shifted copies of z stacked into one
# array of rows, or once per block of copies past _STACK_FLOATS floats, and a
# block is formed by one broadcast, z plus the steps of its copies, built
# from the block's own directions (the coordinate axes too, by _Axes, so no
# d x d identity is held).  A step is s u with s = +-h; (-h) * u
# rounds to exactly -(h * u), so the copies equal z +- h u bit for bit, and
# since f maps each row on its own, the stencils give the same bits as one
# call of f per copy.

_H_GRAD = 1e-6
_H_HESS = 1e-4
# Floats of stacked points per call of f.  Against one call per copy, the CPU
# time of verify_identities(sample_count=100) at 2^15 is 0.83 times at n = 3
# and 12 and 0.93-0.99 times at n = 25..100; at 2^16 it was 1.2 times at
# n = 25 and 50, and with no cap n = 100 took 1.9 s instead of 0.35 s, with
# a tracemalloc peak of 387 MB instead of 1.6 MB.
_STACK_FLOATS = 2 ** 15


def _steps(directions, scales, z: np.ndarray) -> np.ndarray:
    """s u for each direction u and, within it, each scale s: one step per
    row of the result, each shaped to broadcast against z."""
    u = np.asarray(directions, dtype=float)
    shape = u.shape[:1] + (1,) * (z.ndim + 1 - u.ndim) + u.shape[1:]
    s = np.array(scales, dtype=float).reshape((1, -1) + (1,) * z.ndim)
    return (s * u.reshape(shape[:1] + (1,) + shape[1:])).reshape(
        (-1,) + shape[1:])


def _value_blocks(f, z: np.ndarray, *stencils):
    """f at the copies z + steps_0[c] + steps_1[c] + ..., added left to
    right, for c = 0, 1, ..., where steps_j = _steps(*stencils[j], z) for
    (directions, scales) pairs of the same number of copies: one call of f
    and one array of values per block of copies holding at most
    _STACK_FLOATS floats; once two copies are larger, a block is a single
    copy.  A block's steps are built from its own directions alone."""
    per_call = max(1, _STACK_FLOATS // z.size)
    copies = len(stencils[0][0]) * len(stencils[0][1])
    # Blocks of several copies are formed in one buffer.  A fresh block of
    # up to 2^15 floats passes glibc's 128 KiB mmap threshold and may have
    # its pages faulted in anew: mean_curvature_check(ProfileParams(1000),
    # 2) took up to 39,000 minor faults a call, and at most 250 with the
    # buffer.  A block of one copy is made afresh: one buffer of 1.6 MB
    # reused (n = 1000, 100 points) faulted 3 to 12 times as often.
    buf = np.empty((min(per_call, copies),) + z.shape) if per_call > 1 else None
    for i in range(0, copies, per_call):
        block = z
        out = None if buf is None else buf[:min(per_call, copies - i)]
        for directions, scales in stencils:
            # the directions of copies i .. i + per_call - 1
            first, stop = i // len(scales), -(-(i + per_call) // len(scales))
            steps = _steps(directions[first:stop], scales, z)
            block = np.add(block, steps[i - first * len(scales):][:per_call],
                           out=out)
        vals = np.asarray(f(block.reshape(-1, z.shape[-1])))
        yield vals.reshape(block.shape[:-1] + vals.shape[1:])


class _Axes:
    """The rows of np.eye(lead + d, d, -lead), `lead` zero rows and then the
    coordinate axes of R^d, made only for the rows a slice asks for, so
    that no d x d identity is held."""

    def __init__(self, d: int, lead: int = 0):
        self.d, self.lead = d, lead

    def __len__(self) -> int:
        return self.lead + self.d

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, _ = rows.indices(len(self))
        return np.eye(max(stop - start, 0), self.d, start - self.lead)


def _values_at(f, z: np.ndarray, *stencils) -> np.ndarray:
    """_value_blocks as one array, copies first, each block copied in as it
    comes."""
    blocks = _value_blocks(f, z, *stencils)
    vals = next(blocks)
    copies = len(stencils[0][0]) * len(stencils[0][1])
    if len(vals) == copies:
        return vals
    out = np.empty((copies,) + vals.shape[1:], dtype=vals.dtype)
    i = 0
    for vals in itertools.chain([vals], blocks):
        out[i:i + len(vals)] = vals
        i += len(vals)
    return out


def _sum_in_order(terms: np.ndarray):
    """terms[0] + terms[1] + ..., added in that order, as a loop adds them."""
    return np.add.accumulate(terms)[-1]


def _central_diffs(f, z: np.ndarray, directions, h: float) -> np.ndarray:
    """Central differences of f along the directions, one per row."""
    vals = _values_at(f, z, (directions, (h, -h)))
    return (vals[0::2] - vals[1::2]) / (2.0 * h)


def _fd_dir(f, z: np.ndarray, u: np.ndarray, h: float = _H_GRAD):
    """Central difference of f along u."""
    return _central_diffs(f, z, [u], h)[0]


def _fd_grad(f, z: np.ndarray, h: float = _H_GRAD) -> np.ndarray:
    """Gradient of f, one column per coordinate direction, last: an f with
    one vector per row gives an (m, values, 2n) array."""
    diffs = _central_diffs(f, z, _Axes(z.shape[-1]), h)
    return np.ascontiguousarray(np.moveaxis(diffs, 0, -1))


def _fd_laplacian(f, z: np.ndarray, h: float = _H_HESS):
    """Sum of the second central differences of f along the coordinates."""
    # a zero direction, then the axes: its second copy, z + (-h) 0 = z +
    # (-0.0), is the centre, z bit for bit, a zero of either sign
    vals = _values_at(f, z, (_Axes(z.shape[-1], lead=1), (h, -h)))
    return _sum_in_order((vals[2::2] - 2.0 * vals[1] + vals[3::2]) / (h * h))


def _fd_hess_quadform(f, z: np.ndarray, u: np.ndarray, v: np.ndarray,
                      h: float = _H_HESS):
    """<Hess f(z) u, v> by a centered four-point stencil."""
    pp, pm, mp, mm = _values_at(f, z, ([u], (h, h, -h, -h)),
                                ([v], (h, -h, h, -h)))
    return (pp - pm - mp + mm) / (4.0 * h * h)


def mean_curvature_check(params: ProfileParams, sample_count: int,
                         seed: int = 0) -> float:
    """Max |div(z + kappa z^perp) - 2n| over random interior points.

    The divergence of the extended normal field is exactly 2n, i.e. the
    horizontal mean curvature of the profile is -2n; central differences
    should reproduce it to discretization accuracy.  The divergence is the
    trace of the normal field's Jacobian: copy c of the stencil is shifted
    along coordinate c // 2, and each block of values keeps only that
    component as it comes, so the (2n)^2 entries per point are never all held.
    """
    pts = _random_interior_points(params.n, sample_count, seed)
    h = 1e-5
    own, c = [], 0
    for vals in _value_blocks(lambda y: horizontal_normal(y, +1), pts,
                              (_Axes(2 * params.n), (h, -h))):
        i = np.arange(c, c + len(vals))
        own.append(vals[i - c, :, i // 2])
        c += len(vals)
    own = np.concatenate(own)
    div = _sum_in_order((own[0::2] - own[1::2]) / (2.0 * h))
    return float(np.max(np.abs(div - 2.0 * params.n)))


def omega_bar_normal_deriv_check(params: ProfileParams, sample_count: int,
                                 seed: int = 1) -> float:
    """Max |d(omega_bar)/d(nu_H^perp) - 2/rho^2| over random interior points."""
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


def _cubic(a: np.ndarray) -> np.ndarray:
    """(a - sin a) / a^2, summed as nine Taylor terms below |a| = 1, where the
    direct form loses up to 3.7e-14; within 3.3e-16 relative for |a| < 10."""
    big = ~(np.abs(a) < 1.0)                # nan takes the direct form too
    small = np.where(big, 0.0, a)
    out = np.zeros_like(a)
    for j in range(8, -1, -1):
        out = out * (-small * small) + 1.0 / math.factorial(2 * j + 3)
    out *= small
    out[big] = (a[big] - np.sin(a[big])) / a[big] / a[big]
    return out


def geodesic_trace(p_last: float, s_max: float, steps: int,
                   initial: GeodesicState) -> GeodesicPath:
    """The CC-geodesic from initial, sampled at s_i = i s_max / steps.

    dz/ds = P_H, dP_H/ds = kappa P_H^perp (kappa = p_last) and dt/ds =
    (1/2) <z^perp, P_H> have a closed form.  With w = x + iy and P one
    complex number per 2-block of z and P_H, and a = kappa s:
        P = P0 e^{ia},  w = w0 + P0 E,  E = s sinc(a/2) e^{ia/2},
        t = t0 + (1/2) sum_blocks [Im(conj(w0) P0 E)
                                   + |P0|^2 s^2 (a - sin a) / a^2],
    a circle per block, or a line at kappa = 0.  steps sets only the
    sampling; the first of the steps + 1 samples is initial."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not (math.isfinite(p_last) and math.isfinite(s_max)):
        raise ValueError("p_last and s_max must be finite")
    if abs(float(np.linalg.norm(initial.p_h)) - 1.0) > 1e-12:
        raise ValueError("initial horizontal momentum must be unit")
    w0 = np.ascontiguousarray(initial.z).view(complex)
    p0 = np.ascontiguousarray(initial.p_h).view(complex)
    s = np.arange(steps + 1) * (s_max / steps)
    a = float(p_last) * s
    e = s * np.sinc(a / (2.0 * math.pi)) * np.exp(0.5j * a)
    t = initial.t + 0.5 * ((np.sum(w0.conj() * p0) * e).imag
                           + np.sum(initial.p_h ** 2) * s * (s * _cubic(a)))
    # p_h and z are written through complex views of the real outputs
    p_h = np.empty((steps + 1, initial.z.size))
    np.multiply(np.exp(1j * a)[:, None], p0, out=p_h.view(complex))
    z = np.empty_like(p_h)
    np.multiply(e[:, None], p0, out=z.view(complex))
    z.view(complex)[...] += w0
    return GeodesicPath(s=s, z=z, t=t, p_h=p_h, p_last=p_last)


def profile_geodesic_residual(params: ProfileParams, steps: int = 10_000) -> float:
    """Max distance between the pole-to-pole geodesic and the meridian u0.

    Runs in H^1: the geodesic with p_last = 2 from the south pole
    (0, 0, -pi/8) sweeps out the profile's meridian (lower hemisphere
    carries t < 0, upper t > 0).  Each sample's distance to the curve |t| =
    u0(rho) in the (rho, t) plane is taken to first order, |F| / |grad F|
    with F = |t| - u0(rho) and |grad F| = sqrt(4 (1 - rho^2) + rho^4) /
    (2 sqrt(1 - rho^2)), at rho = min(|z|, 1), plus max(|z| - 1, 0).  The
    vertical gap |F| alone grows with the sample count near the equator,
    where u0 has a vertical tangent and the rounding of |z| is magnified.
    """
    if params.n != 1:
        raise ValueError("the meridian oracle runs in H^1")
    start = GeodesicState(z=np.zeros(2), t=-math.pi / 8.0,
                          p_h=np.array([1.0, 0.0]), p_last=2.0)
    path = geodesic_trace(2.0, math.pi, steps, start)
    radius = np.linalg.norm(path.z, axis=1)
    rho = np.minimum(radius, 1.0)
    w = 1.0 - rho * rho
    gap = np.abs(np.abs(path.t) - profile_height(rho))
    dist = (gap * (2.0 * np.sqrt(w) / np.sqrt(4.0 * w + rho ** 4))
            + np.maximum(radius - 1.0, 0.0))
    return float(np.max(dist))
