"""Closed-form radial eigenpairs, Gamma-condition root finders, discretized
eigensolvers, Rayleigh/Poincare estimators, and the Fourier-mode study.

Three independent routes to the radial spectrum are kept deliberately
separate so they can cross-check each other:

  1. the closed form k (k + 2n),
  2. zeros of the Gamma-function eigenvalue conditions,
  3. eigenvalues of a lumped P1 finite-element pencil in arc length.
"""
from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .geometry import ProfileParams
# hessenberg_qr_eigenvalues and sym_tridiag_eigen are unused here but stay
# importable: perfbench/tracing.py wraps them under this module's name.
from .numerics import (QuadratureRule, bisect_root, gauss_jacobi_rule,
                       hessenberg_qr_eigenvalues, integrate_profile_radial,
                       profile_rule, sym_tridiag_eigen)
# RadialTrial and default_green_radial_trials stay importable from here.
from .operators import (PolarJet, RadialTrial, apply_polar_h1,
                        default_green_radial_trials, sl_coefficients)
from .specfun import (Hyp2F1Params, gauss_value_at_one, gamma_fn, hyp2f1_auto,
                      recip_gamma)

__all__ = [
    "RadialEigenmode",
    "SLDiscretization",
    "ModeOperator",
    "ModeEntry",
    "ModeReport",
    "PoincareEntry",
    "PoincareReport",
    "SpectrumEntry",
    "SpectrumReport",
    "radial_eigenvalue",
    "radial_eigenfunction",
    "even_condition_value",
    "odd_condition_value",
    "eigencondition_even_roots",
    "eigencondition_odd_roots",
    "build_radial_discretization",
    "pole_mass",
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
RICHARDSON_ORDER = 2.0  # convergence order of the lumped P1 pencil


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
        (coef, p, scale) terms, one array evaluation per term (scale
        broadcasts).  A term with coef == 0 is skipped unevaluated: F(p; 1)
        may diverge where the term vanishes identically."""
        rho = np.asarray(rho, dtype=float)
        out = np.full(rho.shape, -0.0)   # the exact identity, sign of 0 kept
        for coef, p, scale in terms:
            if coef != 0.0:
                out += scale(rho) * coef * hyp2f1_auto(p, rho * rho)
        out *= self.normalization
        return float(out) if rho.ndim == 0 else out

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
    sq = integrate_profile_radial(lambda r: raw.value(r) ** 2, rule)
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


# --- P1 finite elements in arc length ------------------------------------

_SEG_SMOOTH = gauss_jacobi_rule(12, 0.0, 0.0)


def _half_masses(n: int, edges: np.ndarray) -> np.ndarray:
    """(2, elements): int W (1 - t) and int W t over each element, W =
    sin^{2n} sigma and t the element's local coordinate."""
    t = _SEG_SMOOTH.nodes
    hats = np.stack([1.0 - t, t])[:, None]
    # W overwrites the nodes array, which the rule builds for this call only
    return _SEG_SMOOTH.integrate(
        lambda s: np.power(np.sin(s, out=s), 2 * n, out=s) * hats,
        edges[:-1], edges[1:])


def pole_mass(params: ProfileParams, n_points: int) -> float:
    """Lumped mass of the pole vertex on the whole-hemisphere mesh of
    `n_points` elements, about h^{2n+1} / ((2n+1)(2n+2)); it underflows to 0
    once n is too large for the grid.  Integrated on the first element as
    build_radial_discretization does."""
    edges = np.array([0.0, (math.pi / 2) / n_points])
    return float(_half_masses(params.n, edges)[0, 0])


# The Green's operator is applied with the resistances 1/cond scaled by
# this power of two: at n = 50, grid 2000 the pole conductance is subnormal
# and 1/cond itself overflows.  sqrt(mass) carries the 2^32 back on each
# side, so M^{1/2} K^{-1} M^{1/2} comes out unscaled and the scaling rounds
# nothing.
_RESIST_SCALE = 2.0 ** -64
_MASS_SCALE = 1.0 / math.sqrt(_RESIST_SCALE)
# Largest relative deviation of a computed eigenvalue from the edge-form
# Rayleigh quotient of its own vector, and largest cosine, in the mass inner
# product, between a natural-family vector and the constants.  Measured at
# most 3.1e-14 and 6.5e-15 (n <= 50, grids up to 320000, counts up to
# grid / 4, subintervals included); one resistance 1% off in mid-mesh reads
# 1e-5 at grid 2000 and 2.5e-7 at grid 80000.
EIGENPAIR_TOL = 1e-12


def _suffix_sums(v: np.ndarray) -> np.ndarray:
    """v[i:].sum() for every i, in place, as a reversed cumsum: total -
    prefix would cancel wherever the suffix is small next to the total."""
    np.add.accumulate(v[::-1], out=v[::-1])
    return v


def _path_green(resist: np.ndarray, left_grounded: bool) -> Callable:
    """x -> K^{-1} x for the Laplacian of a path with element resistances
    `resist`, grounded past its last element and, if left_grounded, before
    its first; the vertices are those between the grounds.

    K^{-1}_ij is the resistance b_max(i,j) from the later vertex to the
    right ground, or with a left ground a_min(i,j) b_max(i,j) / total, a
    being the resistance to the left ground.  Every term is positive, so
    K^{-1} applies in O(N) without cancellation.
    """
    if not left_grounded:
        # sum over elements m >= i of resist_m times the sum of x_j, j <= m
        def apply(x):
            return _suffix_sums(np.add.accumulate(x) * resist)
        return apply
    a = np.add.accumulate(resist)
    b = _suffix_sums(resist.copy())[1:]
    total, a = a[-1], a[:-1]

    def apply(x):
        y = b * np.add.accumulate(a * x)
        y[:-1] += a[:-1] * _suffix_sums(b[1:] * x[1:])
        return y / total
    return apply


def _off_constants(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """x minus its component along the unit vector q: q = M^{1/2} 1, scaled,
    for the constants of the symmetrized pencil."""
    return x - q * (q @ x)


@dataclass(frozen=True)
class SLDiscretization:
    """Lumped P1 pencil K v = lambda M v for the radial problem.

    In the arc length sigma (rho = sin sigma) the problem is
    (W phi')' + lambda W phi = 0 with W = sin^{2n} sigma, the zonal
    Laplacian on S^{2n+1}: the equator is a regular point, and only the
    pole degenerates (W -> 0), where the natural condition needs no row.
    Piecewise-linear elements on uniform vertices; each element gives its
    two half masses `half` to its two vertices and couples them with the
    conductance `cond` = (half sum) / h^2.  A Dirichlet end drops its vertex.
    """

    h: float
    nodes: np.ndarray          # rho = sin(sigma) at the kept vertices
    stiff_diag: np.ndarray
    stiff_off: np.ndarray
    mass: np.ndarray
    half: np.ndarray           # (2, elements), from _half_masses
    cond: np.ndarray           # one per element, dropped ends included
    bc: tuple[str, str]        # (left, right) end conditions

    def symmetrized(self) -> tuple[np.ndarray, np.ndarray]:
        s = 1.0 / np.sqrt(self.mass)
        return self.stiff_diag * s * s, self.stiff_off * s[:-1] * s[1:]

    def lowest(self, count: int) -> np.ndarray:
        """Lowest `count` eigenvalues, ascending; a natural pencil's
        constant mode is not one of them.

        Lanczos (ARPACK, fixed start vector) for the top of the Green's
        operator M^{1/2} K^{-1} M^{1/2}, whose entries are all positive, so
        lambda_k comes out to eps lambda_k / lambda_1 relative, however fine
        the grid.  A pencil with both ends natural is solved grounded at its
        last vertex and projected off the constants, which removes the
        constant mode exactly.  Each eigenpair is checked against the
        edge-form Rayleigh quotient; RuntimeError if one fails.  A Dirichlet
        left end needs a Dirichlet right end (ValueError).
        """
        # loaded here: closed_form and oracles never solve a pencil
        # (+2 MB, ~35 ms to import)
        from scipy.sparse.linalg import LinearOperator, eigsh
        natural = self.bc[1] == "natural"
        if natural and self.bc[0] == "dirichlet":
            raise ValueError("a Dirichlet left end needs a Dirichlet right end")
        resist = _RESIST_SCALE / self.cond
        if natural:
            # the last vertex is grounded: its own ground, through 0
            resist = np.r_[resist, 0.0]
        green = _path_green(resist, self.bc[0] == "dirichlet")
        s = np.sqrt(self.mass) * _MASS_SCALE
        q = s / np.linalg.norm(s)

        def matvec(x):
            if natural:
                x = _off_constants(x, q)
            y = s * green(s * x)
            return _off_constants(y, q) if natural else y

        m = len(s)
        mu, vecs = eigsh(LinearOperator((m, m), matvec=matvec, dtype=float),
                         k=count, which="LA", v0=np.ones(m))
        lam, vecs = 1.0 / mu[::-1], vecs[:, ::-1]
        self._check_eigenpairs(lam, vecs / s[:, None],
                               q @ vecs if natural else None)
        return lam

    def _check_eigenpairs(self, lam, v, along_constants) -> None:
        """Raise unless each lam matches the edge-form Rayleigh quotient
        sum cond (dv)^2 / sum mass v^2 of its vector v (zero at a Dirichlet
        end), and a natural vector is M-orthogonal to the constants."""
        left = self.bc[0] == "dirichlet"
        edges = np.zeros((len(self.cond) + 1, v.shape[1]))
        edges[left:left + len(v)] = v
        quotient = (self.cond @ np.diff(edges, axis=0) ** 2
                    / (self.mass @ (v * v)))
        dev = np.abs(quotient - lam) / lam
        if not np.all(dev <= EIGENPAIR_TOL):
            raise RuntimeError(
                "radial pencil eigenvalues off their Rayleigh quotients by "
                f"{np.max(dev):.3g} (tolerance {EIGENPAIR_TOL:.3g})")
        if along_constants is not None:
            cos = np.max(np.abs(along_constants))
            if not cos <= EIGENPAIR_TOL:
                raise RuntimeError(
                    "natural pencil eigenvectors not M-orthogonal to the "
                    f"constants: cosine {cos:.3g} (tolerance "
                    f"{EIGENPAIR_TOL:.3g})")


def build_radial_discretization(params: ProfileParams, n_points: int,
                                bc_right: str = "natural",
                                interval: tuple[float, float] = (0.0, 1.0),
                                bc_left: str = "natural") -> SLDiscretization:
    """Assemble the P1 pencil on `n_points` elements of `interval` (in rho,
    default the whole radius range), uniform in sigma = asin(rho)."""
    a, b = interval
    if not 0.0 <= a < b <= 1.0:
        raise ValueError("interval must satisfy 0 <= a < b <= 1")
    if bc_left == "dirichlet" and a == 0.0:
        raise ValueError("the pole end rho = 0 only supports the natural condition")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    edges = np.linspace(math.asin(a), math.asin(b), n_points + 1)
    h = (edges[-1] - edges[0]) / n_points
    half = _half_masses(params.n, edges)
    cond = half.sum(axis=0) / (h * h)
    mass = np.r_[half[0], 0.0] + np.r_[0.0, half[1]]
    diag = np.r_[cond, 0.0] + np.r_[0.0, cond]
    first, last = bc_left == "dirichlet", n_points - (bc_right == "dirichlet")
    return SLDiscretization(h=h, nodes=np.sin(edges[first:last + 1]),
                            stiff_diag=diag[first:last + 1],
                            stiff_off=-cond[first:last],
                            mass=mass[first:last + 1], half=half, cond=cond,
                            bc=(bc_left, bc_right))


# The computed constant mode of the k = 0 mode operator is zero only up to
# roundoff, which grows like eps ||A||: measured at most 0.5 eps ||A||_inf
# (grids up to 160000).
CONSTANT_MODE_EPS = 16.0   # tolerance of the check, in units of eps ||A||_inf


def _check_constant_mode(value, norm: float) -> None:
    """Raise unless `value`, the eigenvalue nearest 0 of a matrix with
    inf-norm `norm`, is zero to within CONSTANT_MODE_EPS eps norm."""
    tol = CONSTANT_MODE_EPS * np.finfo(float).eps * norm
    if abs(value) > tol:
        raise RuntimeError(f"mode operator lost its constant mode: {value} "
                           f"(tolerance {tol:.3g})")


def discrete_radial_spectrum(params: ProfileParams, bc: str, n_points: int,
                             count: int) -> np.ndarray:
    """Lowest `count` eigenvalues of the radial problem.

    bc='natural' realizes the zero-weighted-mean (even) family, without the
    trivial constant mode.  bc='dirichlet' pins the equator value and
    realizes the odd family.
    """
    if n_points < 50:
        raise ValueError("n_points must be >= 50")
    if count > n_points // 4:
        raise ValueError("count must be <= n_points / 4")
    if bc not in ("natural", "dirichlet"):
        raise ValueError("bc must be 'natural' or 'dirichlet'")
    return build_radial_discretization(params, n_points,
                                       bc_right=bc).lowest(count)


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

    Substituting phi = f e^{i k theta} into the polar operator yields, in
    the arc length sigma (rho = sin sigma, W = sin^2 sigma),

      -L_k f = -(W f')' / W + 2ik f' + 3ik cot(sigma) f + k^2 f.

    On the radial P1 mesh this is K + 2ik C + 3ik D + k^2 M with
    C_ij = int W phi_i phi_j' and the lumped D_i = int W cot(sigma) phi_i,
    stored (complex CSC, tridiagonal) in the similarity form M^{-1/2} ...
    M^{-1/2}, so that k = 0 is the symmetrized radial pencil entrywise.
    """

    k: int
    matching: str
    nodes: np.ndarray
    matrix: "scipy.sparse.csc_matrix"
    mass: np.ndarray


def build_mode_operator(k: int, n_points: int,
                        matching: str = "continuity") -> ModeOperator:
    """Assemble the H^1 mode-k operator for -L_k f = lambda f."""
    if matching not in ("continuity", "antisymmetry"):
        raise ValueError("matching must be 'continuity' or 'antisymmetry'")
    # loaded here: the radial paths never build a mode operator
    import scipy.sparse
    bc = "natural" if matching == "continuity" else "dirichlet"
    disc = build_radial_discretization(ProfileParams(1), n_points, bc_right=bc)
    d, e = disc.symmetrized()
    lower = upper = e
    if k != 0:
        m, h = len(d), disc.h
        left, right = disc.half
        s = 1.0 / np.sqrt(disc.mass)
        # C_ij is +-(half mass) / h.  D_i = int W' phi_i / 2 (W' = 2 W cot
        # for n = 1) is by parts h/2 times the right minus the left
        # stiffness, plus W phi_i / 2 = 1/2 at a kept equator vertex.
        c_diag = (np.r_[0.0, right] - np.r_[left, 0.0])[:m] / h
        whole = left + right
        dd = (np.r_[whole, 0.0] - np.r_[0.0, whole])[:m] / (2.0 * h)
        dd[-1] += 0.5 * (bc == "natural")
        d = d + k * k + 1j * k * (2.0 * c_diag + 3.0 * dd) * s * s
        ss = s[:-1] * s[1:]
        upper = e + 2j * k * (left[:m - 1] / h) * ss
        lower = e - 2j * k * (right[:m - 1] / h) * ss
    T = scipy.sparse.diags([lower, d, upper], [-1, 0, 1], format="csc",
                           dtype=complex)
    return ModeOperator(k=k, matching=matching, nodes=disc.nodes,
                        matrix=T, mass=disc.mass)


def mode_spectrum(k: int, n_points: int = 400, count: int = 6,
                  matching: str = "continuity",
                  return_vectors: bool = False):
    """Lowest `count` eigenvalues of the mode-k problem (complex, by real part).

    Shift-invert Arnoldi (ARPACK) about MODE_SHIFT from a fixed start
    vector, so repeated solves of one matrix agree bit for bit.  For k = 0
    the spectrum coincides with the radial pencil; the constant mode of the
    continuity class is checked to sit at zero and dropped there.
    """
    if k < 0:
        raise ValueError("Fourier index must be >= 0")
    if n_points < 50:
        raise ValueError("n_points must be >= 50")
    if not 1 <= count <= n_points // 4:
        raise ValueError("count must be in 1..n_points/4")
    op = build_mode_operator(k, n_points, matching)
    # loaded here: only the mode study needs ARPACK (+2 MB, ~35 ms to import)
    from scipy.sparse.linalg import eigs, norm
    drop = 1 if k == 0 and matching == "continuity" else 0
    out = eigs(op.matrix, k=count + drop + _MODE_EXTRA, sigma=MODE_SHIFT,
               v0=np.ones(op.matrix.shape[0]),
               return_eigenvectors=return_vectors)
    vals, vecs = out if return_vectors else (out, None)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    if drop:
        _check_constant_mode(vals[0], norm(op.matrix, np.inf))
    vals = vals[drop:drop + count]
    if return_vectors:
        vecs = vecs[:, order[drop:drop + count]] / np.sqrt(op.mass)[:, None]
        return vals, vecs, op.nodes
    return vals


# --- quadratic-form estimates ---------------------------------------------

def rayleigh_quotient(f: Callable, df: Callable, rule: QuadratureRule) -> float:
    """Energy quotient of a radial trial function.

    For radial f the tangential-gradient square is (1 - rho^2) f'(rho)^2, so
    the quotient is int (1-rho^2) f'^2 w / int f^2 w; it is >= the first
    eigenvalue on each symmetry class and equals it exactly on eigenmodes.
    """
    num = integrate_profile_radial(lambda r: (1.0 - r * r) * df(r) ** 2, rule)
    den = integrate_profile_radial(lambda r: f(r) ** 2, rule)
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
    # each mode once, at the rule's nodes in rho
    vals = [mode.value(np.sqrt(rule.nodes)) for mode in modes]
    G = np.zeros((m, m))
    for i in range(m):
        for j in range(i, m):
            si = modes[i].hemisphere_sign
            sj = modes[j].hemisphere_sign
            pair = 1.0 + si * sj
            if pair != 0.0:
                val = integrate_profile_radial(lambda _: vals[i] * vals[j],
                                               rule)
                G[i, j] = G[j, i] = 0.5 * area * pair * val
    return G


def _infer_n(mode: RadialEigenmode) -> int:
    # c = n + 1/2 for every family member
    return int(round(mode.hyp.c - 0.5))


# --- Green-formula checks -------------------------------------------------

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
            lambda r: trial.applied(r, params), rule))
    if isinstance(trial, PolarTrial):
        if params.n != 1:
            raise ValueError("2-D trials are only supported on H^1")
        rho = _GREEN_RHO_RULE.nodes[:, None]
        wts = _GREEN_RHO_RULE.weights
        theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
        f, fr, ft, frr, ftr, ftt = trial.jets(rho, theta[None, :])
        # density w / 2 = (1-rho)^{-1/2} * reg(rho), reg on the rule's weight
        r = rho[:, 0]
        reg = sl_coefficients(params).w(r) * np.sqrt(1.0 - r) / 2.0
        total = 0.0
        for hemi in (+1, -1):
            jet = PolarJet(rho=rho, f_rho=fr, f_theta=ft,
                           f_rhorho=frr, f_thetarho=ftr, f_thetatheta=ftt)
            lphi = np.broadcast_to(apply_polar_h1(jet, hemi),
                                   (rho.size, n_theta))
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
               * integrate_profile_radial(integrand, rule))


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


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    return f"{v:.17g}" if isinstance(v, float) else str(v)


class _EntryTable:
    """CSV rows and JSON objects of dataclass entries, one column per field."""

    entries: list

    def ordered(self) -> list:
        """The entries in output order."""
        return self.entries

    def csv_rows(self) -> list[str]:
        return [",".join(_csv_cell(v) for v in astuple(e))
                for e in self.ordered()]

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


@dataclass(frozen=True)
class PoincareEntry:
    n: int
    mu: float
    poincare_constant: float
    radial_only: bool


@dataclass
class PoincareReport(_EntryTable):
    entries: list[PoincareEntry] = field(default_factory=list)

    CSV_HEADER = ",".join(f.name for f in fields(PoincareEntry))


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
