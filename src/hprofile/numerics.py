"""Quadrature for the singular profile weight, small eigensolvers, bisection.

The H-perimeter weight rho^{2n} (1-rho^2)^{-1/2} drho becomes, under
s = rho^2, the Jacobi weight (1/2) s^{n-1/2} (1-s)^{-1/2} ds on [0, 1]; a
Gauss-Jacobi rule then integrates it with spectral accuracy despite the
endpoint singularity and the high-order zero at the origin.

Each rule is computed once per process: gauss_jacobi_rule keeps the last
128 distinct (N, alpha, beta) it built and returns the same QuadratureRule
for them again, with read-only nodes and weights.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import ProfileParams

__all__ = [
    "QuadratureRule",
    "gauss_jacobi_rule",
    "profile_rule",
    "integrate_profile_radial",
    "sym_tridiag_eigen",
    "hessenberg_qr_eigenvalues",
    "bisect_root",
]

_MAX_DENSE_DIM = 1000


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Jacobi rule for int_0^1 (1-x)^alpha x^beta f(x) dx."""

    nodes: np.ndarray     # strictly inside (0, 1), increasing
    weights: np.ndarray   # >= 0; below eps times their sum, rounding


def ln_beta(p: float, q: float) -> float:
    return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)


def _jacobi_recurrence(N: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Three-term recurrence (diag, offdiag) for weight (1-x)^a (1+x)^b on [-1, 1]."""
    k = np.arange(N, dtype=float)
    apb = a + b
    d = np.empty(N)
    d[0] = (b - a) / (apb + 2.0)
    if N > 1:
        kk = k[1:]
        d[1:] = (b * b - a * a) / ((2 * kk + apb) * (2 * kk + apb + 2.0))
    e = np.empty(max(N - 1, 0))
    if N > 1:
        e[0] = math.sqrt(4.0 * (a + 1) * (b + 1) / ((apb + 2.0) ** 2 * (apb + 3.0)))
        kk = k[2:]
        e[1:] = np.sqrt(4.0 * kk * (kk + a) * (kk + b) * (kk + apb)
                        / (((2 * kk + apb) ** 2 - 1.0) * (2 * kk + apb) ** 2))
    mu0 = 2.0 ** (apb + 1.0) * math.exp(ln_beta(a + 1.0, b + 1.0))
    return d, e, mu0


def _tridiag_dense(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal matrix with diagonal d and off-diagonal e,
    dense."""
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


@functools.lru_cache(maxsize=128)
def gauss_jacobi_rule(N: int, alpha: float, beta: float) -> QuadratureRule:
    """N-point rule for int_0^1 (1-x)^alpha x^beta f(x) dx (Golub-Welsch:
    numpy's eigh of the dense N x N Jacobi matrix, whose eigenvalues, and so
    the nodes, ascend), built once per (N, alpha, beta); its arrays are
    read-only, since every caller shares them."""
    if N < 1:
        raise ValueError("need at least one node")
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError("Jacobi exponents must exceed -1")
    # on [-1,1] the roles swap: (1-t)^alpha at t=1 maps to x=1, (1+t)^beta to x=0
    d, e, mu0 = _jacobi_recurrence(N, alpha, beta)
    t, V = np.linalg.eigh(_tridiag_dense(d, e))
    nodes = 0.5 * (t + 1.0)
    weights = mu0 * V[0, :] ** 2 * 0.5 ** (alpha + beta + 1.0)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


def profile_rule(params: ProfileParams, N: int = 64) -> QuadratureRule:
    """Rule matched to the radial profile weight under s = rho^2."""
    return gauss_jacobi_rule(N, -0.5, params.n - 0.5)


def integrate_profile_radial(f: Callable[[np.ndarray], np.ndarray],
                             rule: QuadratureRule) -> float:
    """int_0^1 f(rho) rho^{2n} (1-rho^2)^{-1/2} drho."""
    rho = np.sqrt(rule.nodes)
    return 0.5 * float(np.dot(rule.weights, f(rho)))


def sym_tridiag_eigen(diagonal: Sequence[float], offdiag: Sequence[float],
                      count: int) -> np.ndarray:
    """Lowest `count` eigenvalues of a symmetric tridiagonal matrix,
    ascending (numpy's eigvalsh of the dense matrix)."""
    d = np.asarray(diagonal, dtype=float)
    e = np.asarray(offdiag, dtype=float)
    if e.shape[0] != d.shape[0] - 1:
        raise ValueError("offdiag must have length len(diagonal) - 1")
    if not 1 <= count <= d.shape[0]:
        raise ValueError("count out of range")
    return np.linalg.eigvalsh(_tridiag_dense(d, e))[:count]


def hessenberg_qr_eigenvalues(A: np.ndarray) -> np.ndarray:
    """Eigenvalues of a dense real or complex matrix (Hessenberg + shifted QR)."""
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if A.shape[0] > _MAX_DENSE_DIM:
        raise ValueError(f"dense eigensolver capped at dim {_MAX_DENSE_DIM}")
    vals = np.linalg.eigvals(A)
    return vals[np.lexsort((vals.imag, vals.real))]


def _no_float_inside(lo, hi, mid):
    """mid = 0.5 (lo + hi) is lo or hi exactly when no float lies strictly
    between lo and hi; elementwise on arrays."""
    return (mid == lo) | (mid == hi)


def bisect_root(f: Callable, lo, hi, tol: float = 1e-10, flo=None, fhi=None):
    """Root of f in [lo, hi] by bisection; requires a sign change.

    On floats, f is called on floats.  On arrays lo and hi of one shape,
    elementwise: f is called once per step on the midpoints of every bracket still open,
    and an array of roots comes back.  flo and fhi, when given, are f at lo
    and hi, which are then not evaluated again.  Signs are compared, not
    products, which underflow to 0 once |f| is below about 1e-154.  A
    bracket closes once it is within tol or no float lies strictly inside
    it, so a tol below the float spacing at the root still ends.
    """
    if np.ndim(lo):
        return _bisect_brackets(f, lo, hi, tol, flo, fhi)
    flo = f(lo) if flo is None else flo
    fhi = f(hi) if fhi is None else fhi
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _no_float_inside(lo, hi, mid):
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) != (flo < 0.0):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _bisect_brackets(f: Callable, lo, hi, tol: float, flo, fhi) -> np.ndarray:
    """bisect_root on arrays of brackets: the same steps as on floats, for
    every bracket at once."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    shape = lo.shape
    flo = f(lo) if flo is None else flo
    fhi = f(hi) if fhi is None else fhi
    lo, hi, flo, fhi = (np.ravel(np.asarray(v, dtype=float))
                        for v in (lo, hi, flo, fhi))
    root = np.where(flo == 0.0, lo, hi)
    # the open brackets, compacted after every step; idx maps them into root
    idx = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    lo, hi, flo, fhi = lo[idx], hi[idx], flo[idx], fhi[idx]
    same = (flo < 0.0) == (fhi < 0.0)
    if same.any():
        i = np.flatnonzero(same)[0]
        raise ValueError(f"no sign change on [{lo[i]}, {hi[i]}]")
    while idx.size:
        mid = 0.5 * (lo + hi)
        done = ~(hi - lo > tol) | _no_float_inside(lo, hi, mid)
        root[idx[done]] = mid[done]
        keep = ~done
        lo, hi, flo, mid, idx = lo[keep], hi[keep], flo[keep], mid[keep], idx[keep]
        if not idx.size:
            break
        fm = np.asarray(f(mid), dtype=float)
        left = (fm < 0.0) != (flo < 0.0)     # the root is in [lo, mid]
        hi = np.where(left, mid, hi)
        lo, flo = np.where(left, lo, mid), np.where(left, flo, fm)
        zero = fm == 0.0
        root[idx[zero]] = mid[zero]
        keep = ~zero
        lo, hi, flo, idx = lo[keep], hi[keep], flo[keep], idx[keep]
    return root.reshape(shape)
