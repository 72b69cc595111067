"""Real Gamma-family functions and the Gauss hypergeometric function on [0, 1].

The Gamma functions and the value at one are scalar.  The hypergeometric
evaluator hyp2f1_auto takes a float or an ndarray x and returns the same
shape (a Python float for a float); an array is summed as one loop over the
series index, with each element converging on its own, so every element gets
exactly the arithmetic of the scalar sum.  All of it is pure and reentrant.
The parameter families that matter downstream satisfy a + b = n and
c = n + 1/2 (so c - a - b = 1/2), but the evaluator is written for generic
real parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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


class Hyp2F1ConvergenceError(RuntimeError):
    """Raised when the hypergeometric series fails to meet tolerance in budget."""


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0 (Lanczos, reflection below 1/2)."""
    if x <= 0.0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    if x < 0.5:
        # Gamma(x) Gamma(1-x) = pi / sin(pi x); x in (0, 1/2) keeps sin positive
        return math.log(math.pi / math.sin(math.pi * x)) - ln_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def _sin_pi(x: float) -> float:
    """sin(pi x) with exact argument reduction (accurate near integers)."""
    k = round(x)
    r = x - k
    s = math.sin(math.pi * r)
    return -s if (k % 2) else s


def gamma_fn(x: float) -> float:
    """Gamma(x) for real non-pole x (reflection for x < 0.5)."""
    if x >= 0.5:
        return math.exp(ln_gamma(x))
    if _is_nonpositive_integer(x):
        raise ValueError(f"Gamma pole at {x}")
    return math.pi / (_sin_pi(x) * math.exp(ln_gamma(1.0 - x)))


def recip_gamma(x: float) -> float:
    """1/Gamma(x); entire, exactly zero at non-positive integers."""
    if x > 0.5:
        return math.exp(-ln_gamma(x))
    if _is_nonpositive_integer(x):
        return 0.0
    return _sin_pi(x) * math.exp(ln_gamma(1.0 - x)) / math.pi


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
    """The Gauss series on a 1-D array, one loop over k for every element."""
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
    # Each element counts its own run of small terms and freezes its acc
    # after two, so it stops where a sum over that element alone would.
    small = np.zeros(x.shape, dtype=int)
    live = np.ones(x.shape, dtype=bool)
    for k in range(SERIES_TERM_BUDGET):
        term *= (p.a + k) * (p.b + k) / ((k + 1.0) * (p.c + k)) * x
        np.add(acc, term, out=acc, where=live)
        small = np.where(np.abs(term) <= SERIES_RTOL * np.abs(acc), small + 1, 0)
        live &= small < 2
        if not live.any():
            return acc
    raise Hyp2F1ConvergenceError(
        f"series for {p} at x={x[live][0]} ({np.count_nonzero(live)} of "
        f"{x.size} points) did not converge")


def gauss_value_at_one(p: Hyp2F1Params) -> float:
    """F(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))."""
    s = p.c - p.a - p.b
    if s <= 0.0:
        raise ValueError(f"F(a,b;c;1) needs c-a-b > 0, got {s}")
    return (gamma_fn(p.c) * gamma_fn(s)
            * recip_gamma(p.c - p.a) * recip_gamma(p.c - p.b))


def _connection(p: Hyp2F1Params, x: np.ndarray) -> np.ndarray:
    """The connection formula in 1 - x on a 1-D array; c - a - b non-integer."""
    s = p.c - p.a - p.b
    inside = (0.0 <= x) & (x <= 1.0)
    if not inside.all():
        raise ValueError(f"need 0 <= x <= 1, got {x[~inside][0]}")
    y = 1.0 - x
    c1 = (gamma_fn(p.c) * gamma_fn(s)
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
    array: the series below X_SWITCH, the connection formula from there on.

    Integer c - a - b (never the case for the in-scope families) falls back
    to the direct series, which still converges for x < 1.
    """
    flat = np.asarray(x, dtype=float).ravel()
    s = p.c - p.a - p.b
    if p.terminating_index() is not None or s == math.floor(s):
        return _like(x, _series(p, flat))
    # NaN fails x < X_SWITCH and is refused by the connection formula
    low = flat < X_SWITCH
    out = np.empty_like(flat)
    out[low] = _series(p, flat[low])
    out[~low] = _connection(p, flat[~low])
    return _like(x, out)
