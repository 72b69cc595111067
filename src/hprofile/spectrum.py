"""Closed-form radial eigenpairs, Gamma-condition root finders, discretized
eigensolvers, Rayleigh/Poincare estimators, and the Fourier-mode study.

Three independent routes to the radial spectrum are kept deliberately
separate so they can cross-check each other:

  1. the closed form k (k + 2n),
  2. zeros of the Gamma-function eigenvalue conditions,
  3. generalized eigenvalues of a finite-volume Sturm-Liouville pencil.
"""
from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .geometry import ProfileParams
# hessenberg_qr_eigenvalues is unused here but stays importable:
# perfbench/tracing.py wraps it under this module's name.
from .numerics import (QuadratureRule, bisect_root, gauss_jacobi_rule,
                       hessenberg_qr_eigenvalues, integrate_profile_radial,
                       profile_rule, sym_tridiag_eigen)
from .operators import PolarJet, RadialJet, apply_polar_h1, apply_radial
from .specfun import (Hyp2F1Params, gauss_value_at_one, gamma_fn, hyp2f1_auto,
                      recip_gamma)

__all__ = [
    "RadialEigenmode",
    "SLDiscretization",
    "ModeOperator",
    "ModeEntry",
    "ModeReport",
    "SpectrumEntry",
    "SpectrumReport",
    "radial_eigenvalue",
    "radial_eigenfunction",
    "even_condition_value",
    "odd_condition_value",
    "eigencondition_even_roots",
    "eigencondition_odd_roots",
    "build_radial_discretization",
    "discrete_radial_spectrum",
    "richardson",
    "build_mode_operator",
    "mode_spectrum",
    "rayleigh_quotient",
    "poincare_constant_estimate",
    "subdomain_bound_check",
    "gram_matrix",
    "RadialTrial",
    "PolarTrial",
    "green_check",
    "green_symmetry_residual",
    "parity_spectrum_entries",
    "build_spectrum_report",
]

ROOT_SCAN_STEP = 0.5
ROOT_TOL = 1e-10
RICHARDSON_ORDER = 1.5  # measured convergence order of the degenerate pencil


# --- closed-form eigenpairs -------------------------------------------------

def radial_eigenvalue(k: int, params: ProfileParams) -> float:
    """k-th radial eigenvalue k (k + 2n); k = 0 is not an eigenvalue."""
    if k < 1:
        raise ValueError("mode index k must be >= 1 (0 has only the trivial mode)")
    return float(k * (k + 2 * params.n))


def _mode_params(k: int, n: int) -> Hyp2F1Params:
    m = k // 2
    if k % 2 == 0:
        return Hyp2F1Params(-float(m), float(n + m), n + 0.5)
    return Hyp2F1Params(-(m + 0.5), n + m + 0.5, n + 0.5)


@dataclass(frozen=True)
class RadialEigenmode:
    """Closed-form radial eigenmode of index k.

    The evaluators give the restriction to the upper hemisphere; odd modes
    change sign across the equator (value_on with hemisphere=-1).  The
    normalization makes the L^2 norm against the H-perimeter measure of the
    full closed surface equal to 1, with a positive value at rho = 0.
    """

    k: int
    parity: str
    lam: float
    hyp: Hyp2F1Params
    normalization: float

    @property
    def hemisphere_sign(self) -> int:
        return 1 if self.parity == "even" else -1

    def _combine(self, rho, terms):
        """normalization * sum of scale(r) * coef * F(p; r^2) over the
        (coef, p, scale) terms.  A term with coef == 0 is skipped unevaluated:
        F(p; 1) may diverge where the term vanishes identically."""
        rho = np.asarray(rho, dtype=float)
        flat = np.atleast_1d(rho)
        out = np.full(flat.shape, -0.0)   # the exact identity, sign of 0 kept
        for coef, p, scale in terms:
            if coef != 0.0:
                out += np.array([scale(r) * coef * hyp2f1_auto(p, r * r)
                                 for r in flat])
        out *= self.normalization
        return float(out[0]) if rho.ndim == 0 else out

    def value(self, rho):
        return self._combine(rho, [(1.0, self.hyp, lambda r: 1.0)])

    def deriv(self, rho):
        """d/drho; raises ValueError at rho = 1 for odd modes (unbounded)."""
        h = self.hyp
        f1 = h.a * h.b / h.c
        return self._combine(rho, [(f1, h.shifted(1), lambda r: 2.0 * r)])

    def second_deriv(self, rho):
        """d2/drho2; raises ValueError at rho = 1 for odd modes (unbounded)."""
        h = self.hyp
        f1 = h.a * h.b / h.c
        f2 = f1 * (h.a + 1) * (h.b + 1) / (h.c + 1)
        return self._combine(rho, [(f1, h.shifted(1), lambda r: 2.0),
                                   (f2, h.shifted(2), lambda r: 4.0 * r * r)])

    def value_on(self, rho, hemisphere: int):
        if hemisphere not in (1, -1):
            raise ValueError("hemisphere must be +1 or -1")
        sign = 1.0 if hemisphere == 1 else float(self.hemisphere_sign)
        return sign * self.value(rho)


def radial_eigenfunction(k: int, params: ProfileParams,
                         rule: QuadratureRule | None = None) -> RadialEigenmode:
    """Normalized closed-form eigenmode for index k >= 1."""
    if k < 1:
        raise ValueError("mode index k must be >= 1")
    if rule is None:
        rule = profile_rule(params, 64)
    hyp = _mode_params(k, params.n)
    parity = "even" if k % 2 == 0 else "odd"
    raw = RadialEigenmode(k=k, parity=parity,
                          lam=radial_eigenvalue(k, params),
                          hyp=hyp, normalization=1.0)
    sq = integrate_profile_radial(lambda r: raw.value(r) ** 2, rule, params)
    norm = 1.0 / math.sqrt(params.sphere_area * sq)
    return RadialEigenmode(k=k, parity=parity, lam=raw.lam, hyp=hyp,
                           normalization=norm)


# --- Gamma-condition root finders -------------------------------------------

def even_condition_value(lam: float, params: ProfileParams) -> float:
    """Weighted mean of the regular solution: zero exactly at even eigenvalues.

    sqrt(pi) Gamma(n+1/2) / (2 Gamma((2+n-s)/2) Gamma((2+n+s)/2)),
    s = sqrt(n^2 + lam).
    """
    n = params.n
    s = math.sqrt(n * n + lam)
    return (math.sqrt(math.pi) * gamma_fn(n + 0.5) / 2.0
            * recip_gamma((2.0 + n - s) / 2.0)
            * recip_gamma((2.0 + n + s) / 2.0))


def odd_condition_value(lam: float, params: ProfileParams) -> float:
    """Equator value of the regular solution: zero exactly at odd eigenvalues."""
    n = params.n
    s = math.sqrt(n * n + lam)
    p = Hyp2F1Params((n - s) / 2.0, (n + s) / 2.0, n + 0.5)
    return gauss_value_at_one(p)


def _scan_roots(f: Callable[[float], float], lam_max: float) -> list[float]:
    roots = []
    lo = 0.25
    flo = f(lo)
    lam = lo
    while lam < lam_max:
        hi = min(lam + ROOT_SCAN_STEP, lam_max)
        fhi = f(hi)
        if flo == 0.0:
            roots.append(lam)
        elif flo * fhi < 0.0:
            roots.append(bisect_root(f, lam, hi, ROOT_TOL))
        lam, flo = hi, fhi
    return roots


def eigencondition_even_roots(lambda_max: float, params: ProfileParams) -> list[float]:
    """Zeros of the even eigenvalue condition in (0, lambda_max]."""
    if lambda_max <= 0.0:
        raise ValueError("lambda_max must be positive")
    return _scan_roots(lambda lam: even_condition_value(lam, params), lambda_max)


def eigencondition_odd_roots(lambda_max: float, params: ProfileParams) -> list[float]:
    """Zeros of the odd (equator) eigenvalue condition in (0, lambda_max]."""
    if lambda_max <= 0.0:
        raise ValueError("lambda_max must be positive")
    return _scan_roots(lambda lam: odd_condition_value(lam, params), lambda_max)


# --- finite-volume discretization ---------------------------------------

_SEG_SMOOTH = gauss_jacobi_rule(12, 0.0, 0.0)
_SEG_SQRT = gauss_jacobi_rule(16, -0.5, 0.0)


def _seg_smooth(f, a: float, b: float) -> float:
    x = a + (b - a) * _SEG_SMOOTH.nodes
    return (b - a) * float(np.dot(_SEG_SMOOTH.weights, f(x)))


def _seg_sqrt_right(g, a: float, b: float) -> float:
    """int_a^b g(r) (b - r)^{-1/2} dr for smooth g."""
    x = a + (b - a) * _SEG_SQRT.nodes
    return math.sqrt(b - a) * float(np.dot(_SEG_SQRT.weights, g(x)))


@dataclass(frozen=True)
class SLDiscretization:
    """Finite-volume pencil K v = lambda M v for the radial problem.

    Cell-centered nodes; inter-node couplings are exact resistance integrals
    of 1/p, cell masses exact integrals of w, so the degenerate endpoints
    (p -> 0) encode the natural conditions with no ad-hoc rows.  A Dirichlet
    end adds the finite wall resistance of the last half cell.
    """

    n_points: int
    h: float
    nodes: np.ndarray
    stiff_diag: np.ndarray
    stiff_off: np.ndarray
    mass: np.ndarray
    bc: str

    def symmetrized(self) -> tuple[np.ndarray, np.ndarray]:
        s = 1.0 / np.sqrt(self.mass)
        return self.stiff_diag * s * s, self.stiff_off * s[:-1] * s[1:]

    def lowest(self, count: int) -> np.ndarray:
        d, e = self.symmetrized()
        vals, _ = sym_tridiag_eigen(d, e, count)
        return vals


def build_radial_discretization(params: ProfileParams, n_points: int,
                                bc_right: str = "natural",
                                interval: tuple[float, float] = (0.0, 1.0),
                                bc_left: str = "natural") -> SLDiscretization:
    """Assemble the FV pencil on `interval` (default the whole radius range)."""
    a, b = interval
    if not 0.0 <= a < b <= 1.0:
        raise ValueError("interval must satisfy 0 <= a < b <= 1")
    if bc_left == "dirichlet" and a == 0.0:
        raise ValueError("the pole end rho = 0 only supports the natural condition")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    two_n = 2 * params.n

    def inv_p(r):
        return r ** (-two_n) / np.sqrt(1.0 - r * r)

    def inv_p_reg(r):   # 1/p with the (1-r)^{-1/2} factor taken out
        return r ** (-two_n) / np.sqrt(1.0 + r)

    def w(r):
        return r ** two_n / np.sqrt(1.0 - r * r)

    def w_reg(r):
        return r ** two_n / np.sqrt(1.0 + r)

    h = (b - a) / n_points
    nodes = a + (np.arange(n_points) + 0.5) * h
    edges = a + np.arange(n_points + 1) * h

    cond = np.array([1.0 / _seg_smooth(inv_p, nodes[j], nodes[j + 1])
                     for j in range(n_points - 1)])
    diag = np.zeros(n_points)
    diag[:-1] += cond
    diag[1:] += cond
    if bc_left == "dirichlet":
        diag[0] += 1.0 / _seg_smooth(inv_p, a, nodes[0])
    if bc_right == "dirichlet":
        if b == 1.0:
            diag[-1] += 1.0 / _seg_sqrt_right(inv_p_reg, nodes[-1], 1.0)
        else:
            diag[-1] += 1.0 / _seg_smooth(inv_p, nodes[-1], b)

    mass = np.empty(n_points)
    for j in range(n_points):
        hi = edges[j + 1]
        if hi == 1.0:
            mass[j] = _seg_sqrt_right(w_reg, edges[j], 1.0)
        else:
            mass[j] = _seg_smooth(w, edges[j], hi)

    return SLDiscretization(n_points=n_points, h=h, nodes=nodes,
                            stiff_diag=diag, stiff_off=-cond, mass=mass,
                            bc=bc_right)


def discrete_radial_spectrum(params: ProfileParams, bc: str, n_points: int,
                             count: int) -> np.ndarray:
    """Lowest `count` eigenvalues of the radial problem.

    bc='natural' realizes the zero-weighted-mean (even) family; the trivial
    constant mode is checked to sit at zero and dropped.  bc='dirichlet'
    pins the equator value and realizes the odd family.
    """
    if n_points < 50:
        raise ValueError("n_points must be >= 50")
    if count > n_points // 4:
        raise ValueError("count must be <= n_points / 4")
    if bc not in ("natural", "dirichlet"):
        raise ValueError("bc must be 'natural' or 'dirichlet'")
    disc = build_radial_discretization(params, n_points, bc_right=bc)
    if bc == "natural":
        vals = disc.lowest(count + 1)
        if abs(vals[0]) > 1e-6:
            raise RuntimeError(f"natural pencil lost its constant mode: {vals[0]}")
        return vals[1:]
    return disc.lowest(count)


def richardson(coarse, fine, order: float = RICHARDSON_ORDER):
    """Eliminate the h^order error term from a grid pair (N, 2N)."""
    f = 2.0 ** order
    return (f * np.asarray(fine) - np.asarray(coarse)) / (f - 1.0)


# --- Fourier-mode operators (H^1) ----------------------------------------

MODE_SHIFT = -1.0   # shift-invert target; not 0, where the k = 0 continuity
                    # operator has its constant mode
_MODE_EXTRA = 2     # Ritz values solved for beyond those reported: the
                    # nearest to the shift need not be the lowest by real part


@dataclass(frozen=True)
class ModeOperator:
    """Sparse discretization of the angular-mode reduction on H^1.

    Substituting phi = f(rho) e^{i k theta} into the polar operator yields

      L_k f = (1-r^2) f'' + [(2-3r^2)/r - 2ik sqrt(1-r^2)] f'
              - [k^2 + 3ik sqrt(1-r^2)/r] f.

    The matrix (complex CSC) is stored in mass-symmetrized similarity form so
    that k = 0 reproduces the symmetric tridiagonal radial pencil entrywise.
    For k != 0 it is tridiagonal plus the two corner entries of the
    one-sided end rows of the first-derivative stencil (nnz = 3 N).
    """

    k: int
    matching: str
    nodes: np.ndarray
    matrix: "scipy.sparse.csc_matrix"
    mass: np.ndarray


def _first_derivative_stencil(m: int, h: float):
    """(rows, cols, values) of the second-order d/drho on m uniform nodes:
    central rows inside, one-sided three-point rows at both ends."""
    i = np.arange(m)
    upper = np.full(m - 1, 0.5 / h)
    lower = np.full(m - 1, -0.5 / h)
    upper[0], lower[-1] = 2.0 / h, -2.0 / h
    rows = np.r_[0, m - 1, i[:-1], i[1:], 0, m - 1]
    cols = np.r_[0, m - 1, i[1:], i[:-1], 2, m - 3]
    vals = np.r_[-1.5 / h, 1.5 / h, upper, lower, -0.5 / h, 0.5 / h]
    return rows, cols, vals


def build_mode_operator(k: int, n_points: int,
                        matching: str = "continuity") -> ModeOperator:
    """Assemble the H^1 mode-k operator for -L_k f = lambda f."""
    if matching not in ("continuity", "antisymmetry"):
        raise ValueError("matching must be 'continuity' or 'antisymmetry'")
    # loaded here: the radial paths never build a mode operator
    import scipy.sparse
    params = ProfileParams(1)
    bc = "natural" if matching == "continuity" else "dirichlet"
    disc = build_radial_discretization(params, n_points, bc_right=bc)
    d, e = disc.symmetrized()
    i = np.arange(disc.n_points)
    rows, cols, vals = [i, i[:-1], i[1:]], [i, i[1:], i[:-1]], [d, e, e]
    if k != 0:
        rho = disc.nodes
        root = np.sqrt(1.0 - rho * rho)
        s = np.sqrt(disc.mass)
        r, c, dv = _first_derivative_stencil(disc.n_points, disc.h)
        rows += [r, i]
        cols += [c, i]
        vals += [2.0j * k * (root[r] * ((s[r] * dv) / s[c])),
                 k * k + 3.0j * k * root / rho]
    # repeated (row, col) pairs are summed in list order
    T = scipy.sparse.csc_matrix(
        (np.concatenate(vals).astype(complex),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(disc.n_points, disc.n_points))
    return ModeOperator(k=k, matching=matching, nodes=disc.nodes,
                        matrix=T, mass=disc.mass)


def mode_spectrum(k: int, n_points: int = 400, count: int = 6,
                  matching: str = "continuity",
                  return_vectors: bool = False):
    """Lowest `count` eigenvalues of the mode-k problem (complex, by real part).

    Shift-invert Arnoldi (ARPACK) about MODE_SHIFT from a fixed start
    vector, so repeated solves of one matrix agree bit for bit.  For k = 0
    the spectrum coincides with the radial pencil; the constant mode of the
    continuity class is dropped there, as in the radial case.
    """
    if k < 0:
        raise ValueError("Fourier index must be >= 0")
    if n_points < 50:
        raise ValueError("n_points must be >= 50")
    if not 1 <= count <= n_points // 4:
        raise ValueError("count must be in 1..n_points/4")
    op = build_mode_operator(k, n_points, matching)
    # loaded here: only the mode study needs ARPACK (+2 MB, ~35 ms to import)
    from scipy.sparse.linalg import eigs
    drop = 1 if k == 0 and matching == "continuity" else 0
    out = eigs(op.matrix, k=count + drop + _MODE_EXTRA, sigma=MODE_SHIFT,
               v0=np.ones(n_points), return_eigenvectors=return_vectors)
    vals, vecs = out if return_vectors else (out, None)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    if drop and abs(vals[0]) > 1e-6:
        raise RuntimeError(f"mode pencil lost its constant mode: {vals[0]}")
    vals = vals[drop:drop + count]
    if return_vectors:
        vecs = vecs[:, order[drop:drop + count]] / np.sqrt(op.mass)[:, None]
        return vals, vecs, op.nodes
    return vals


# --- quadratic-form estimates ---------------------------------------------

def rayleigh_quotient(f: Callable, df: Callable, rule: QuadratureRule,
                      params: ProfileParams) -> float:
    """Energy quotient of a radial trial function.

    For radial f the tangential-gradient square is (1 - rho^2) f'(rho)^2, so
    the quotient is int (1-rho^2) f'^2 w / int f^2 w; it is >= the first
    eigenvalue on each symmetry class and equals it exactly on eigenmodes.
    """
    num = integrate_profile_radial(lambda r: (1.0 - r * r) * df(r) ** 2,
                                   rule, params)
    den = integrate_profile_radial(lambda r: f(r) ** 2, rule, params)
    if den <= 0.0 or not math.isfinite(den):
        raise ValueError("trial function has zero (or invalid) norm")
    return num / den


def poincare_constant_estimate(params: ProfileParams, n_points: int = 1000,
                               include_modes: bool = False,
                               mode_k_max: int = 4,
                               mode_grid: int = 300) -> tuple[float, float]:
    """Estimate (mu, C_P = 1/mu) from the discretized spectra.

    The radial-only estimate takes the smaller of the lowest non-constant
    natural eigenvalue and the lowest Dirichlet eigenvalue.  With
    include_modes (H^1 only) the k >= 1 Fourier minima join the candidate
    set; that extension is exploratory.
    """
    cands = [float(discrete_radial_spectrum(params, "natural", n_points, 1)[0]),
             float(discrete_radial_spectrum(params, "dirichlet", n_points, 1)[0])]
    if include_modes:
        if params.n != 1:
            raise ValueError("mode study only available on H^1")
        for k in range(1, mode_k_max + 1):
            for matching in ("continuity", "antisymmetry"):
                vals = mode_spectrum(k, mode_grid, 1, matching)
                cands.append(float(vals[0].real))
    mu = min(cands)
    return mu, 1.0 / mu


def subdomain_bound_check(interval: tuple[float, float], bound: float,
                          params: ProfileParams, n_points: int = 800) -> float:
    """Lowest Dirichlet eigenvalue on the radial subinterval, minus `bound`."""
    a, b = interval
    if not 0.0 < a < b <= 1.0:
        raise ValueError("need 0 < a < b <= 1")
    disc = build_radial_discretization(params, n_points, bc_right="dirichlet",
                                       interval=(a, b), bc_left="dirichlet")
    return float(disc.lowest(1)[0]) - bound


def gram_matrix(modes: Sequence[RadialEigenmode],
                rule: QuadratureRule) -> np.ndarray:
    """L^2 Gram matrix over the full closed surface (hemisphere signs included)."""
    params = ProfileParams(_infer_n(modes[0]))
    area = params.sphere_area
    m = len(modes)
    G = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            si = modes[i].hemisphere_sign
            sj = modes[j].hemisphere_sign
            pair = 1.0 + si * sj
            if pair != 0.0:
                val = integrate_profile_radial(
                    lambda r: modes[i].value(r) * modes[j].value(r), rule,
                    params)
                G[i, j] = G[j, i] = 0.5 * area * pair * val
    return G


def _infer_n(mode: RadialEigenmode) -> int:
    # c = n + 1/2 for every family member
    return int(round(mode.hyp.c - 0.5))


# --- Green-formula checks -------------------------------------------------

@dataclass(frozen=True)
class RadialTrial:
    """Radial trial function with analytic derivatives."""

    f: Callable
    df: Callable
    d2f: Callable

    def applied(self, r, params: ProfileParams):
        """The radial operator applied to the trial at r."""
        return apply_radial(RadialJet(self.f(r), self.df(r), self.d2f(r), r),
                            params)


@dataclass(frozen=True)
class PolarTrial:
    """2-D trial on H^1: jets(rho, theta) -> (f, f_r, f_t, f_rr, f_tr, f_tt)."""

    jets: Callable


_GREEN_RHO_RULE = gauss_jacobi_rule(64, -0.5, 0.0)


def green_check(trial, params: ProfileParams,
                rule: QuadratureRule | None = None,
                n_theta: int = 64) -> float:
    """|integral of L phi over the closed surface|; zero for smooth trials.

    Radial trials integrate over both hemispheres with the weighted rule;
    2-D trials (H^1) use a tensor rule, with the operator's odd terms
    flipped on the lower hemisphere.
    """
    if isinstance(trial, RadialTrial):
        if rule is None:
            rule = profile_rule(params, 64)
        return abs(params.sphere_area * integrate_profile_radial(
            lambda r: trial.applied(r, params), rule, params))
    if isinstance(trial, PolarTrial):
        if params.n != 1:
            raise ValueError("2-D trials are only supported on H^1")
        rho = _GREEN_RHO_RULE.nodes[:, None]
        wts = _GREEN_RHO_RULE.weights
        theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
        f, fr, ft, frr, ftr, ftt = trial.jets(rho, theta[None, :])
        total = 0.0
        for hemi in (+1, -1):
            jet = PolarJet(rho=rho, f_rho=fr, f_theta=ft,
                           f_rhorho=frr, f_thetarho=ftr, f_thetatheta=ftt)
            lphi = np.broadcast_to(apply_polar_h1(jet, hemi),
                                   (rho.size, n_theta))
            # density rho^2 / (2 sqrt(1-rho^2)) = (1-rho)^{-1/2} * reg(rho)
            reg = rho[:, 0] ** 2 / (2.0 * np.sqrt(1.0 + rho[:, 0]))
            radial = lphi.mean(axis=1) * 2.0 * math.pi
            total += float(np.dot(wts, reg * radial))
        return abs(total)
    raise TypeError("trial must be RadialTrial or PolarTrial")


def make_polar_trial(g, dg, d2g, t, dt, d2t) -> PolarTrial:
    """Separated trial g(rho) T(theta) with analytic jets."""

    def jets(rho, theta):
        return (g(rho) * t(theta), dg(rho) * t(theta), g(rho) * dt(theta),
                d2g(rho) * t(theta), dg(rho) * dt(theta), g(rho) * d2t(theta))

    return PolarTrial(jets=jets)


def default_green_radial_trials() -> list[RadialTrial]:
    return [
        RadialTrial(lambda r: r ** 2, lambda r: 2 * r, lambda r: 2.0 * np.ones_like(r)),
        RadialTrial(lambda r: r ** 4, lambda r: 4 * r ** 3, lambda r: 12 * r ** 2),
        RadialTrial(lambda r: 1 - r ** 2, lambda r: -2 * r, lambda r: -2.0 * np.ones_like(r)),
        RadialTrial(lambda r: r ** 2 * (1 - r ** 2), lambda r: 2 * r - 4 * r ** 3,
                    lambda r: 2 - 12 * r ** 2),
        RadialTrial(lambda r: r ** 6, lambda r: 6 * r ** 5, lambda r: 30 * r ** 4),
    ]


def default_green_polar_trials() -> list[PolarTrial]:
    one = lambda x: np.ones_like(x)
    return [
        make_polar_trial(lambda r: 3 - 4 * r ** 2, lambda r: -8 * r,
                         lambda r: -8 * one(r),
                         np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t)),
        make_polar_trial(lambda r: r ** 2 * (1 - r ** 2),
                         lambda r: 2 * r - 4 * r ** 3,
                         lambda r: 2 - 12 * r ** 2,
                         lambda t: np.sin(2 * t), lambda t: 2 * np.cos(2 * t),
                         lambda t: -4 * np.sin(2 * t)),
        make_polar_trial(lambda r: r ** 2 * (1 - r ** 2),
                         lambda r: 2 * r - 4 * r ** 3,
                         lambda r: 2 - 12 * r ** 2,
                         lambda t: 1 + np.cos(t), lambda t: -np.sin(t),
                         lambda t: -np.cos(t)),
    ]


def green_symmetry_residual(t1: RadialTrial, t2: RadialTrial,
                            params: ProfileParams,
                            rule: QuadratureRule | None = None) -> float:
    """|integral of (psi L phi - phi L psi)| over the surface, radial pair."""
    if rule is None:
        rule = profile_rule(params, 64)

    def integrand(r):
        return t1.f(r) * t2.applied(r, params) - t2.f(r) * t1.applied(r, params)

    return abs(params.sphere_area
               * integrate_profile_radial(integrand, rule, params))


# --- report ----------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumEntry:
    n: int
    k: int
    parity_or_mode: str
    lambda_closed: float
    lambda_grid1: float
    lambda_grid2: float
    lambda_extrap: float
    rel_err: float


class _EntryTable:
    """CSV rows and JSON objects of dataclass entries, one column per field."""

    entries: list

    def ordered(self) -> list:
        """The entries in output order."""
        return self.entries

    def csv_rows(self) -> list[str]:
        return [",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                         for v in astuple(e)) for e in self.ordered()]

    def json_obj(self) -> list[dict]:
        return [asdict(e) for e in self.ordered()]


@dataclass
class SpectrumReport(_EntryTable):
    entries: list[SpectrumEntry] = field(default_factory=list)

    CSV_HEADER = ",".join(f.name for f in fields(SpectrumEntry))

    def ordered(self) -> list[SpectrumEntry]:
        return sorted(self.entries, key=lambda e: e.lambda_closed)


@dataclass(frozen=True)
class ModeEntry:
    n: int
    k: int
    matching: str
    index: int
    lambda_re: float
    lambda_im: float


@dataclass
class ModeReport(_EntryTable):
    """Mode eigenvalues in the order they were added."""

    entries: list[ModeEntry] = field(default_factory=list)

    CSV_HEADER = ",".join(f.name for f in fields(ModeEntry))


def parity_spectrum_entries(params: ProfileParams, parity: str, count: int,
                            grid1: int, grid2: int) -> list[SpectrumEntry]:
    """Closed-form vs two-grid rows for the lowest `count` modes of a parity:
    even k = 2, 4, ... from the natural pencil, odd k = 1, 3, ... from the
    Dirichlet one."""
    if count < 1:
        return []
    bc = "natural" if parity == "even" else "dirichlet"
    l1 = discrete_radial_spectrum(params, bc, grid1, count)
    l2 = discrete_radial_spectrum(params, bc, grid2, count)
    entries = []
    for i in range(count):
        k = 2 * i + 2 if parity == "even" else 2 * i + 1
        lam = radial_eigenvalue(k, params)
        ex = float(richardson(l1[i], l2[i]))
        entries.append(SpectrumEntry(
            n=params.n, k=k, parity_or_mode=parity, lambda_closed=lam,
            lambda_grid1=float(l1[i]), lambda_grid2=float(l2[i]),
            lambda_extrap=ex, rel_err=abs(ex - lam) / lam))
    return entries


def build_spectrum_report(params: ProfileParams, k_max: int,
                          grid1: int = 1000,
                          grid2: int = 2000) -> SpectrumReport:
    """Closed-form vs two-grid discrete spectrum for k = 1..k_max."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    odd = parity_spectrum_entries(params, "odd", (k_max + 1) // 2, grid1, grid2)
    even = parity_spectrum_entries(params, "even", k_max // 2, grid1, grid2)
    return SpectrumReport(sorted(odd + even, key=lambda e: e.k))
