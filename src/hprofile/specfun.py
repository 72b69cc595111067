"""Real Gamma-family functions and the Gauss hypergeometric function on [0, 1].

Every evaluator takes a float or an ndarray and returns the same shape (a
Python float for a float).  The Gamma functions run math's functions on a
float and numpy's on an array, one formula each.  All of it is pure and
reentrant.
The hypergeometric functions that matter downstream are the radial
eigenfunctions and their derivatives, each a terminating series: F(-m,
m + kappa; c; x), or Euler's (1 - x)^s times one.  hyp2f1_auto evaluates
exactly those triples, as a Jacobi polynomial summed by its three-term
recurrence in the degree, and refuses every other triple.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

__all__ = [
    "Hyp2F1Params",
    "gamma_fn",
    "recip_gamma",
    "hyp2f1_auto",
    "gauss_value_at_one",
]

# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LN_SQRT_2PI = 0.91893853320467274178


def _is_nonpositive_integer(x):
    """x in {0, -1, -2, ...}, the poles of Gamma; elementwise on an array."""
    return (x <= 0.0) & (x % 1.0 == 0.0)


# Each formula below is written once and evaluated with math's functions on a
# float, which keeps the scalar digits, or with numpy's on an array; numpy's
# exp and log can differ from math's by an ulp.
_MATH = SimpleNamespace(log=math.log, exp=math.exp, sin=math.sin, rint=round,
                        where=lambda cond, a, b: a if cond else b)


def _float_or_array(x):
    """(x, ops): a scalar with math's functions, else a float ndarray with
    numpy's."""
    if np.isscalar(x):
        return x, _MATH
    return np.asarray(x, dtype=float), np


def _lanczos(x, ops):
    """log Gamma(x) for x >= 1/2 by the Lanczos sum."""
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc = acc + _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * ops.log(t) - t + ops.log(acc)


def _sin_pi(x, ops):
    """sin(pi x) with exact argument reduction (accurate near integers)."""
    k = ops.rint(x)
    return ops.sin(math.pi * (x - k)) * (1 - 2 * (k % 2))


def _pi_over_gamma(x, ops):
    """pi / Gamma(x) = sin(pi x) Gamma(1 - x) for x < 1/2 (reflection)."""
    return _sin_pi(x, ops) * ops.exp(_lanczos(1.0 - x, ops))


def _first_bad(x, bad):
    """The first element of x where bad holds, or None where it holds nowhere."""
    if isinstance(bad, np.ndarray):
        return float(x[bad][0]) if bad.any() else None
    return x if bad else None


def gamma_fn(x):
    """Gamma(x) for real non-pole x (reflection for x < 0.5), on a float or
    elementwise on an array; an array with any pole is refused."""
    x, ops = _float_or_array(x)
    pole = _first_bad(x, _is_nonpositive_integer(x))
    if pole is not None:
        raise ValueError(f"Gamma pole at {pole}")
    up = x >= 0.5
    if ops is _MATH:
        return math.exp(_lanczos(x, ops)) if up else math.pi / _pi_over_gamma(x, ops)
    out = np.empty_like(x)
    out[up] = np.exp(_lanczos(x[up], np))
    out[~up] = math.pi / _pi_over_gamma(x[~up], np)
    return out


def recip_gamma(x):
    """1/Gamma(x) on a float or elementwise on an array; entire, exactly zero
    at non-positive integers."""
    x, ops = _float_or_array(x)
    up = x > 0.5
    pole = _is_nonpositive_integer(x)
    if ops is _MATH:
        if up:
            return math.exp(-_lanczos(x, ops))
        return 0.0 if pole else _pi_over_gamma(x, ops) / math.pi
    out = np.zeros_like(x)
    out[up] = np.exp(-_lanczos(x[up], np))
    low = ~up & ~pole
    out[low] = _pi_over_gamma(x[low], np) / math.pi
    return out


@dataclass(frozen=True)
class Hyp2F1Params:
    """Parameter triple (a, b, c) of the Gauss hypergeometric series."""

    a: float
    b: float
    c: float

    def terminating_index(self) -> int | None:
        """Degree of the terminating polynomial, or None if infinite."""
        cands = [int(-v) for v in (self.a, self.b) if _is_nonpositive_integer(v)]
        return min(cands) if cands else None

    def shifted(self, by: int = 1) -> "Hyp2F1Params":
        return Hyp2F1Params(self.a + by, self.b + by, self.c + by)


def _like(x, out: np.ndarray):
    """out in the shape of x: a Python float for a scalar x."""
    out = out.reshape(np.shape(x))
    return float(out) if np.isscalar(x) else out


def _reflection(u, ops):
    """(low, ln, sine) of u: where low (u < 1/2), Gamma(u) = 1 / (sine
    exp(ln)) with ln = log Gamma(1 - u) and sine = sin(pi u) / pi;
    elsewhere Gamma(u) = exp(ln) and sine = 1."""
    low = u < 0.5
    ln = _lanczos(ops.where(low, 1.0 - u, u), ops)
    sine = ops.where(low, _sin_pi(u, ops) / math.pi, 1.0)
    return low, ln, sine


def _gamma_ratio(u1, u2, v1, v2):
    """Gamma(u1) Gamma(u2) / (Gamma(v1) Gamma(v2)) as one ratio, for floats
    or elementwise for arrays of one shape; u1 and u2 must not be poles.

    An argument u < 1/2 is reflected, Gamma(u) = pi / (sin(pi u)
    Gamma(1 - u)), and the four log-Gammas meet in one exp, so the value
    stays in float range wherever it lies there, though a factor alone may
    not.  The sines keep the exact zeros at the poles of the denominator.
    """
    args = [_float_or_array(u) for u in (u1, u2, v1, v2)]
    # the array arguments go through _reflection stacked, in one pass of
    # numpy calls; each element gets the operations it would get alone
    arrays = [u for u, ops in args if ops is np]
    rows = zip(*_reflection(np.stack(arrays), np)) if arrays else None
    scale, log = 1.0, 0.0
    for (u, ops), up in zip(args, (True, True, False, False)):
        low, ln, sine = next(rows) if ops is np else _reflection(u, ops)
        scale = scale / sine if up else scale * sine
        log = log + ops.where(low == up, -ln, ln)
    log, ops = _float_or_array(log)
    return scale * ops.exp(log)


def gauss_value_at_one(p: Hyp2F1Params):
    """F(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)).

    a and b may be arrays of one shape, for a value per element.
    """
    s = p.c - p.a - p.b
    bad = _first_bad(s, s <= 0.0)
    if bad is not None:
        raise ValueError(f"F(a,b;c;1) needs c-a-b > 0, got {bad}")
    if _is_nonpositive_integer(p.c):
        raise ValueError(f"Gamma pole at {p.c}")
    return _gamma_ratio(p.c, s, p.c - p.a, p.c - p.b)


def _jacobi(m: int, kappa: float, c: float, x: np.ndarray) -> np.ndarray:
    """F(-m, m + kappa; c; x) on a 1-D array by the recurrence in the degree.

    F(-j, j + kappa; c; x) = j! / (c)_j P_j^(c-1, kappa-c)(1 - 2x) (DLMF
    18.5.7), so DLMF 18.9.1 becomes, with g = 2j + kappa,
      2 (j + kappa)(j + c)(g - 1) F_{j+1}
        = g [(g + 1)(g - 1)(1 - 2x) + (2c - 1 - kappa)(kappa - 1)] F_j
          - 2j (j + kappa - c)(g + 1) F_{j-1},
    from F_0 = 1 and F_1 = 1 - (kappa + 1) x / c.  The caller ensures
    kappa > 0 and c > 0, so every leading coefficient is positive.
    """
    if m == 0:
        return np.ones_like(x)
    prev, cur = 1.0, 1.0 - (kappa + 1.0) / c * x
    for j in range(1, m):
        g = 2.0 * j + kappa
        lead = 2.0 * (j + kappa) * (j + c) * (g - 1.0)
        slope = -2.0 * g * (g + 1.0) * (g - 1.0) / lead
        const = g * ((g + 1.0) * (g - 1.0)
                     + (2.0 * c - 1.0 - kappa) * (kappa - 1.0)) / lead
        back = 2.0 * j * (j + kappa - c) * (g + 1.0) / lead
        prev, cur = cur, (slope * x + const) * cur - back * prev
    return cur


def hyp2f1_auto(p: Hyp2F1Params, x):
    """F(a, b; c; x) for x in [0, 1], on a float or elementwise on an array,
    for a triple whose series terminates: directly, where a or b is -m with
    m in {0, 1, ...}, or after Euler's transformation F(a, b; c; x) =
    (1 - x)^(c-a-b) F(c - a, c - b; c; x), where c - a or c - b is.

    Either way F = (1 - x)^s F(-m, m + kappa; c; x), with s = 0 or c - a - b,
    and the polynomial is summed by _jacobi on the whole array at once.  For
    m >= 1 that needs kappa > 0 and c > 0, where every leading coefficient
    of the recurrence is positive; every radial triple has kappa >= 1 and
    c > 1.  Any other triple, NaN, x outside [0, 1] and x = 1 with s < 0
    (where F is unbounded) raise ValueError.
    """
    s = 0.0
    q = p
    m = p.terminating_index()
    if m is None:
        s = p.c - p.a - p.b
        q = Hyp2F1Params(p.c - p.a, p.c - p.b, p.c)
        m = q.terminating_index()
    if m is None:
        raise ValueError(f"F{p} terminates neither directly nor after "
                         "Euler's transformation")
    kappa = q.a + q.b
    if m > 0 and not (kappa > 0.0 and q.c > 0.0):
        raise ValueError(f"F{p} is F(-{m}, {m} + kappa; c; x) with kappa = "
                         f"{kappa}, c = {q.c}: the degree recurrence needs "
                         "kappa > 0 and c > 0")
    flat = np.asarray(x, dtype=float).ravel()
    # min and max carry a NaN, so these two comparisons refuse it too; an
    # empty array passes with the initial 0
    top = flat.max(initial=0.0)
    if not (flat.min(initial=0.0) >= 0.0 and top <= 1.0):
        outside = ~((0.0 <= flat) & (flat <= 1.0))
        raise ValueError(f"need 0 <= x <= 1, got {flat[outside][0]}")
    if s < 0.0 and top == 1.0:
        raise ValueError(f"F{p} is unbounded at x = 1 (c-a-b = {s} < 0)")
    out = _jacobi(m, kappa, q.c, flat)
    if s != 0.0:
        out *= (1.0 - flat) ** s
    return _like(x, out)
