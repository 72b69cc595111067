"""Real Gamma-family functions and the Gauss hypergeometric function on [0, 1].

Every evaluator takes a float or an ndarray and returns the same shape (a
Python float for a float).  The Gamma functions run math's functions on a
float and numpy's on an array, one formula each.  hyp2f1_auto sums an array
in blocks of terms along a term axis, with each element converging on its
own, so every element gets exactly the arithmetic of the scalar sum.  All
of it is pure and reentrant.
The parameter families that matter downstream satisfy a + b = n and
c = n + 1/2 (so c - a - b = 1/2), but the evaluator is written for generic
real parameters.  At the radial eigenvalues one of a, c - b is a
non-positive integer, and hyp2f1_auto then sums a terminating series on
both sides of X_SWITCH: the direct one, or Euler's transformation below
X_SWITCH and the connection formula's second term above it.  Euler's
prefactor (1 - x)^s is built from sqrt and products when 2s is odd, so it
too rounds the same on a float as in any array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

__all__ = [
    "Hyp2F1ConvergenceError",
    "Hyp2F1Params",
    "ln_gamma",
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

SERIES_TERM_BUDGET = 500
SERIES_RTOL = 1e-14
X_SWITCH = 0.5
_SERIES_BLOCK = 16   # series terms per block of _series
_HALF_POWER_PRODUCTS = 32   # largest half-integer |s| taken by products


class Hyp2F1ConvergenceError(RuntimeError):
    """Raised when the hypergeometric series fails to meet tolerance in budget."""


def _is_nonpositive_integer(x):
    """x in {0, -1, -2, ...}, the poles of Gamma; elementwise on an array."""
    return (x <= 0.0) & (x % 1.0 == 0.0)


# Each formula below is written once and evaluated with math's functions on a
# float, which keeps the scalar digits, or with numpy's on an array; numpy's
# exp and log can differ from math's by an ulp.
_MATH = SimpleNamespace(log=math.log, exp=math.exp, sin=math.sin, rint=round)


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


def _ln_gamma_reflected(x, ops):
    """log Gamma(x) for x in (0, 1/2): Gamma(x) Gamma(1-x) = pi / sin(pi x),
    with sin positive there."""
    return ops.log(math.pi / ops.sin(math.pi * x)) - _lanczos(1.0 - x, ops)


def ln_gamma(x):
    """log Gamma(x) for x > 0 (Lanczos, reflection below 1/2), on a float or
    elementwise on an array; an array with any x <= 0 is refused."""
    x, ops = _float_or_array(x)
    bad = _first_bad(x, x <= 0.0)
    if bad is not None:
        raise ValueError(f"ln_gamma requires x > 0, got {bad}")
    low = x < 0.5
    if ops is _MATH:
        return _ln_gamma_reflected(x, ops) if low else _lanczos(x, ops)
    out = np.empty_like(x)
    out[low] = _ln_gamma_reflected(x[low], np)
    out[~low] = _lanczos(x[~low], np)
    return out


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

    def __post_init__(self) -> None:
        if _is_nonpositive_integer(self.c):
            m = self.terminating_index()
            if m is None or m > -self.c:
                raise ValueError(
                    f"c={self.c} is a non-positive integer and the series does "
                    f"not terminate before the pole"
                )

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


def _series(p: Hyp2F1Params, x: np.ndarray) -> np.ndarray:
    """The Gauss series on a 1-D array, summed _SERIES_BLOCK terms at a time.

    Terms and partial sums run along a term axis by sequential products and
    sums, so every element gets exactly the arithmetic of its scalar sum,
    and stops where that sum would: at its second consecutive term below
    SERIES_RTOL of the sum.
    """
    term = np.ones_like(x)
    acc = np.ones_like(x)
    m = p.terminating_index()
    if m is not None:
        for k in range(m):
            term *= (p.a + k) * (p.b + k) / ((k + 1.0) * (p.c + k)) * x
            acc += term
        return acc
    inside = (0.0 <= x) & (x < 1.0)   # False at NaN
    if not inside.all():
        raise ValueError("non-terminating series needs 0 <= x < 1, "
                         f"got {x[~inside][0]}")
    out = np.empty_like(x)
    # the elements still summing, with their last term and partial sum and
    # whether that term was small
    live = np.arange(x.size)
    small = np.zeros(x.size, dtype=bool)
    k0 = 0
    while live.size:
        if k0 >= SERIES_TERM_BUDGET:
            raise Hyp2F1ConvergenceError(
                f"series for {p} at x={x[live[0]]} ({live.size} of "
                f"{x.size} points) did not converge")
        k = np.arange(k0, min(k0 + _SERIES_BLOCK, SERIES_TERM_BUDGET), dtype=float)
        terms = ((p.a + k) * (p.b + k) / ((k + 1.0) * (p.c + k)))[:, None] * x[live]
        terms[0] *= term
        np.multiply.accumulate(terms, axis=0, out=terms)
        sums = terms.copy()
        sums[0] += acc
        np.add.accumulate(sums, axis=0, out=sums)
        smalls = np.abs(terms) <= SERIES_RTOL * np.abs(sums)
        stop = smalls & np.vstack([small, smalls[:-1]])
        done = stop.any(axis=0)
        out[live[done]] = sums[stop[:, done].argmax(axis=0), done]
        live, term, acc, small = (live[~done], terms[-1, ~done],
                                  sums[-1, ~done], smalls[-1, ~done])
        k0 += _SERIES_BLOCK
    return out


def gauss_value_at_one(p: Hyp2F1Params):
    """F(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)).

    a and b may be arrays of one shape, for a value per element.
    """
    s = p.c - p.a - p.b
    bad = _first_bad(s, s <= 0.0)
    if bad is not None:
        raise ValueError(f"F(a,b;c;1) needs c-a-b > 0, got {bad}")
    return (gamma_fn(p.c) * gamma_fn(s)
            * recip_gamma(p.c - p.a) * recip_gamma(p.c - p.b))


def _euler_terminates(p: Hyp2F1Params) -> bool:
    """c - a or c - b in {0, -1, ...}: F(c - a, c - b; c; x) in Euler's
    transformation is a polynomial, and Gamma(c - a) Gamma(c - b) a pole."""
    return (_is_nonpositive_integer(p.c - p.a)
            or _is_nonpositive_integer(p.c - p.b))


def _euler_prefactor(y: np.ndarray, s: float) -> np.ndarray:
    """y^s.  For s = +-(j + 1/2) with |s| <= _HALF_POWER_PRODUCTS it is
    sqrt(y) times j factors of y, inverted for s < 0: each step is
    correctly rounded, so every element rounds as math's functions round
    its float (numpy's ** can differ from Python's by an ulp).  Any other s
    is y ** s."""
    if s % 1.0 != 0.5 or abs(s) > _HALF_POWER_PRODUCTS:
        return y ** s
    out = np.sqrt(y)
    for _ in range(int(abs(s))):
        out = out * y
    return out if s > 0.0 else 1.0 / out


def _euler(p: Hyp2F1Params, x: np.ndarray) -> np.ndarray:
    """Euler's transformation F(a, b; c; x) = (1 - x)^(c-a-b)
    F(c - a, c - b; c; x) on a 1-D array of x < 1; the right-hand series
    must terminate (_euler_terminates)."""
    bad = ~(x >= 0.0)
    if bad.any():
        raise ValueError(f"need 0 <= x <= 1, got {x[bad][0]}")
    return (_euler_prefactor(1.0 - x, p.c - p.a - p.b)
            * _series(Hyp2F1Params(p.c - p.a, p.c - p.b, p.c), x))


def _connection(p: Hyp2F1Params, x: np.ndarray) -> np.ndarray:
    """The connection formula in 1 - x on a 1-D array; c - a - b non-integer."""
    s = p.c - p.a - p.b
    inside = (0.0 <= x) & (x <= 1.0)
    if not inside.all():
        raise ValueError(f"need 0 <= x <= 1, got {x[~inside][0]}")
    y = 1.0 - x
    # recip_gamma would make c1 exactly 0 at such a triple
    c1 = 0.0 if _euler_terminates(p) else (
        gamma_fn(p.c) * gamma_fn(s)
        * recip_gamma(p.c - p.a) * recip_gamma(p.c - p.b))
    c2 = (gamma_fn(p.c) * gamma_fn(-s)
          * recip_gamma(p.a) * recip_gamma(p.b))
    out = np.zeros_like(x)
    if c1 != 0.0:
        out += c1 * _series(Hyp2F1Params(p.a, p.b, p.a + p.b - p.c + 1.0), y)
    if c2 != 0.0:
        if s < 0.0 and np.any(y == 0.0):
            raise ValueError(f"F{p} diverges at x=1 (c-a-b={s} < 0)")
        # at y = 0 (s > 0) the term is exactly zero
        out += c2 * y ** s * _series(Hyp2F1Params(p.c - p.a, p.c - p.b, s + 1.0), y)
    return out


def hyp2f1_auto(p: Hyp2F1Params, x):
    """Evaluate F(a, b; c; x) on [0, 1], on a float or elementwise on an
    array: a series below X_SWITCH, the connection formula from there on.

    Below X_SWITCH the series is the direct one, or Euler's transformation
    where c - a or c - b is a non-positive integer, whose series terminates
    (every odd radial mode and its derivatives).  Then the connection
    formula's 1 - x series terminates too.  Integer c - a - b (never the
    case for the in-scope families) falls back to the direct series, which
    still converges for x < 1.
    """
    flat = np.asarray(x, dtype=float).ravel()
    s = p.c - p.a - p.b
    if p.terminating_index() is not None or s == math.floor(s):
        return _like(x, _series(p, flat))
    # NaN fails x < X_SWITCH and is refused by the connection formula
    low = flat < X_SWITCH
    out = np.empty_like(flat)
    out[low] = (_euler if _euler_terminates(p) else _series)(p, flat[low])
    out[~low] = _connection(p, flat[~low])
    return _like(x, out)
