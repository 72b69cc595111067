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
from dataclasses import dataclass
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
# gamma_fn and recip_gamma are unused here but stay importable:
# perfbench/tracing.py wraps them under this module's name.
from .specfun import (Hyp2F1Params, gauss_value_at_one, gamma_fn, hyp2f1_auto,
                      recip_gamma)

__all__ = [
    "RadialEigenmode",
    "SLDiscretization",
    "ModeOperator",
    "radial_eigenvalue",
    "radial_eigenfunction",
    "even_condition_value",
    "odd_condition_value",
    "eigencondition_even_roots",
    "eigencondition_odd_roots",
    "build_radial_discretization",
    "check_radial_solve",
    "discrete_radial_spectrum",
    "richardson",
    "matching_bc",
    "build_mode_operator",
    "check_mode_solve",
    "mode_spectrum",
    "rayleigh_quotient",
    "poincare_constant_estimate",
    "subdomain_bound_check",
    "gram_matrix",
    "RadialTrial",
    "PolarTrial",
    "green_check",
    "green_symmetry_residual",
]

ROOT_SCAN_STEP = 0.5
_SCAN_CHUNK = 4096   # grid points per array evaluation of a root scan
ROOT_TOL = 1e-10
RICHARDSON_ORDER = 2.0  # convergence order of the lumped P1 pencil


# --- closed-form eigenpairs -------------------------------------------------

def radial_eigenvalue(k: int, params: ProfileParams) -> float:
    """k-th radial eigenvalue k (k + 2n); k = 0 is not an eigenvalue."""
    if k < 1:
        raise ValueError("mode index k must be >= 1 (0 has only the trivial mode)")
    return float(k * (k + 2 * params.n))


@dataclass(frozen=True)
class RadialEigenmode:
    """Closed-form radial eigenmode of index k.

    The evaluators give the restriction to the upper hemisphere; the lower
    one carries hemisphere_sign times it (odd modes change sign).  The
    normalization makes one hemisphere's A int_0^1 f^2 rho^{2n} (1 -
    rho^2)^{-1/2} drho equal 1 (A = sphere_area), with f(0) > 0.
    """

    k: int
    n: int
    lam: float
    hyp: Hyp2F1Params
    normalization: float

    @property
    def hemisphere_sign(self) -> int:
        return -1 if self.k % 2 else 1

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


def radial_eigenfunction(k: int, params: ProfileParams,
                         rule: QuadratureRule | None = None) -> RadialEigenmode:
    """Normalized closed-form eigenmode for index k >= 1 (`rule` is unread:
    perfbench/workloads.py passes it by position).

    Its profile is F(-k/2, n + k/2; n + 1/2; rho^2) for every k: a + b = n
    and ab = -lambda_k / 4.  With rho = sin sigma, F(rho^2) = C_k^(n)(cos
    sigma) / binom(k + 2n - 1, k), whose norm (DLMF 18.3) gives N_k^2 =
    (k + n) binom(k + 2n - 1, k) / (n A I_n), A = sphere_area, I_n =
    int_0^{pi/2} sin^{2n} = (pi/2) binom(2n, n) / 4^n, each ratio of exact
    integers rounded once.  Where the first leaves float range ValueError is
    raised; elsewhere N_k is finite, since A I_n >= 1e-223 for n <= 171.
    """
    if k < 1:
        raise ValueError("mode index k must be >= 1")
    n = params.n
    try:
        ratio = (k + n) * math.comb(k + 2 * n - 1, k) / n
    except OverflowError:
        raise ValueError(f"mode k = {k} at n = {n}: (k + n) binom(k + 2n - 1, "
                         "k) / n leaves float range") from None
    half_moment = math.pi / 2.0 * (math.comb(2 * n, n) / 4 ** n)
    norm = math.sqrt(ratio) / math.sqrt(params.sphere_area * half_moment)
    return RadialEigenmode(k=k, n=n, lam=radial_eigenvalue(k, params),
                           hyp=Hyp2F1Params(-k / 2, n + k / 2, n + 0.5),
                           normalization=norm)


# --- Gamma-condition root finders -------------------------------------------

def _condition_value(lam, n: int, delta: int):
    """F((n - delta - s)/2, (n - delta + s)/2; n + 1/2; 1), s = sqrt(n^2 +
    lam), for a float or elementwise for an array: the regular solution's
    equator value (delta = 0) or weighted mean (delta = 1)."""
    if np.isscalar(lam):
        s = math.sqrt(n * n + lam)
    else:
        s = np.sqrt(n * n + np.asarray(lam, dtype=float))
    return gauss_value_at_one(Hyp2F1Params((n - delta - s) / 2.0,
                                           (n - delta + s) / 2.0, n + 0.5))


def even_condition_value(lam, params: ProfileParams):
    """Weighted mean of the regular solution, sqrt(pi) Gamma(n+1/2) /
    (2 Gamma((2+n-s)/2) Gamma((2+n+s)/2)) with s = sqrt(n^2 + lam): zero
    exactly at even eigenvalues; for a float or elementwise for an array."""
    return _condition_value(lam, params.n, 1)


def odd_condition_value(lam, params: ProfileParams):
    """Equator value of the regular solution: zero exactly at odd eigenvalues;
    for a float or elementwise for an array."""
    return _condition_value(lam, params.n, 0)


def _scan_roots(f: Callable, lam_max: float) -> list[float]:
    """Zeros of f in (0, lam_max], ascending.

    f is evaluated as an array on the grid 0.25 + j ROOT_SCAN_STEP clipped
    at lam_max, _SCAN_CHUNK points at a time so that memory stays bounded.
    Every grid point where f is exactly zero is a root, the last one
    included, and the steps where f changes sign (by the signs of the values,
    not their product, which underflows) are bisected together, from the
    values already at hand at their ends: one array call of f per step.
    """
    if not 0.0 < lam_max < math.inf:
        raise ValueError("lambda_max must be positive and finite")
    steps = max(0, math.ceil((lam_max - 0.25) / ROOT_SCAN_STEP))
    roots = []
    for j0 in range(0, steps + 1, _SCAN_CHUNK):
        # this chunk's grid points, led by the previous chunk's last point
        # so that the step between the two is scanned too
        j = np.arange(max(j0 - 1, 0), min(j0 + _SCAN_CHUNK, steps + 1))
        grid = np.minimum(0.25 + ROOT_SCAN_STEP * j, lam_max)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = f(grid)
        if not np.isfinite(vals).all():
            # a silently skipped step would drop its root from the list
            raise OverflowError("the eigenvalue condition leaves float range "
                                f"at lambda = {grid[~np.isfinite(vals)][0]}")
        roots += grid[(vals == 0.0) & (j >= j0)].tolist()
        sign = np.sign(vals)
        i = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
        if i.size:
            roots += bisect_root(f, grid[i], grid[i + 1], ROOT_TOL,
                                 vals[i], vals[i + 1]).tolist()
    return sorted(roots)


def eigencondition_even_roots(lambda_max: float, params: ProfileParams) -> list[float]:
    """Zeros of the even eigenvalue condition in (0, lambda_max]."""
    return _scan_roots(lambda lam: even_condition_value(lam, params), lambda_max)


def eigencondition_odd_roots(lambda_max: float, params: ProfileParams) -> list[float]:
    """Zeros of the odd (equator) eigenvalue condition in (0, lambda_max]."""
    return _scan_roots(lambda lam: odd_condition_value(lam, params), lambda_max)


# --- P1 finite elements in arc length ------------------------------------

_SEG_SMOOTH = gauss_jacobi_rule(12, 0.0, 0.0)
# (2, 12): the rule's weights times the element's two hats, 1 - t and t
_HAT_WEIGHTS = _SEG_SMOOTH.weights * np.stack([1.0 - _SEG_SMOOTH.nodes,
                                               _SEG_SMOOTH.nodes])
# Elements per block of _half_masses.  Arrays of W this small are reused
# from the heap, not page-faulted in afresh on every assembly: at n = 3,
# grid 8000, 0 minor faults a call, against about 340 for whole-mesh arrays
# and 155 for blocks of 2048 (the last up to 4095 long).
_HALF_BLOCK = 1024


def _power(x: np.ndarray, p: int) -> np.ndarray:
    """x ** p for an integer p >= 1 by repeated squaring.  The squares
    overwrite x, which is returned itself when p is a power of two."""
    while p % 2 == 0:
        x *= x
        p //= 2
    out = x if p == 1 else x.copy()
    while p > 1:
        p //= 2
        x *= x
        if p % 2:
            out *= x
    return out


def _half_masses(n: int, start: np.ndarray, h: float) -> np.ndarray:
    """(2, elements): int W (1 - t) and int W t over each element
    [start, start + h], W = sin^{2n} sigma and t the element's local
    coordinate, for start in [0, pi/2 - h].

    sin(start + h t_j) = sin(start) cos(h t_j) + cos(start) sin(h t_j) at
    the rule's nodes t_j, one (elements, 2) x (2, 12) product from the
    vertex values: both terms are >= 0, so nothing cancels at the pole.
    W is formed, powered and contracted in blocks of elements, with the
    same bits as one product over the whole mesh.
    """
    ht = h * _SEG_SMOOTH.nodes
    turn = np.stack([np.cos(ht), np.sin(ht)])
    weights = h * _HAT_WEIGHTS
    half = np.empty((2, start.size))
    # Blocks start at multiples of _HALF_BLOCK and the last one takes the
    # rest, _HALF_BLOCK to 2 _HALF_BLOCK - 1 elements.  A BLAS kernel may
    # round the tail of a product, or a one-element product, its own way
    # (Prescott's dgemm rounds the elements past a multiple of 8 so), and
    # this way only the whole mesh's tail is a block's tail.
    ends = [*range(_HALF_BLOCK, start.size - _HALF_BLOCK + 1, _HALF_BLOCK),
            start.size]
    for lo, hi in zip([0, *ends[:-1]], ends):
        s = start[lo:hi]
        w = np.stack([np.sin(s), np.cos(s)], axis=1) @ turn
        half[:, lo:hi] = weights @ _power(w, 2 * n).T
    return half


def _pole_mass(params: ProfileParams, n_points: int) -> float:
    """Lumped mass of the pole vertex on the whole-hemisphere mesh of
    `n_points` elements, about h^{2n+1} / ((2n+1)(2n+2)); it underflows to 0
    once n is too large for the grid.  Integrated on the first element as
    build_radial_discretization does, whose node sines are sin(h t_j)."""
    h = (math.pi / 2) / n_points
    w = _power(np.sin(h * _SEG_SMOOTH.nodes), 2 * params.n)
    return float((h * _HAT_WEIGHTS[0]) @ w)


# The Green's operator is applied with the resistances 1/cond scaled by
# this power of two: at n = 50, grid 2000 the pole conductance is subnormal
# and 1/cond itself overflows.  sqrt(mass) carries the 2^32 back on each
# side, so M^{1/2} K^{-1} M^{1/2} comes out unscaled and the scaling rounds
# nothing.
_RESIST_SCALE = 2.0 ** -64
_MASS_SCALE = 1.0 / math.sqrt(_RESIST_SCALE)
# Largest relative deviation of a Ritz value from the edge-form Rayleigh
# quotient of its own vector, and largest cosine, in the mass inner product,
# between a natural-family vector and the constants.  Measured at most
# 4.3e-14 and 5.7e-16 under the LANCZOS_TOL stop, on _ncv's basis with and
# without its spare rows (n <= 50, grids up to 320000, counts 1, 4, 10 and
# grid / 4 up to grid 2000, subintervals included); one resistance 1% off
# in mid-mesh reads 1e-5 at grid 2000 and 2.5e-7 at grid 80000.
EIGENPAIR_TOL = 1e-12
# The radial solve stops once each wanted Ritz residual is below this
# times its Ritz value theta.  The Green's operator is symmetric, so
# theta is then off by about LANCZOS_TOL^2 theta^2 / gap, but the Ritz
# vector by about LANCZOS_TOL theta / gap, which its edge-form quotient
# weighs by the pencil's top eigenvalues.  Of 16 solves (counts 1 and 4,
# both families; n = 1, 3, 12, 50 at grids 320000, 80000, 20000, 2000), 5
# missed EIGENPAIR_TOL at a stop of 1e-8 (by up to 8.0e-11) and 2 at 1e-9;
# none at 1e-10, where a count-4 solve took 21.6 operator applications
# against 19.6 at 1e-8.  At grid 4000 (n = 1, 3, 12; n = 50 at 2000), on
# _ncv's spare rows, none of the 16 missed at any of the three stops (2 at
# 1e-8 without the spare rows).
LANCZOS_TOL = 1e-10
# Floats a block of _rotate, or of _map_rows, may hold whatever the grid,
# so that the few Ritz vectors of a small solve rotate in one product rather
# than several, and are checked in one block.
_BLOCK_FLOATS = 2 ** 16
# Restarts after which _krylov_schur gives up (RuntimeError); radial solves
# restarted at most 12 times (n = 1, 2, 3, 12, 50, grids 500 to 320000,
# counts 1, 4 and 10).
_KRYLOV_RESTARTS = 1000
_EPS = np.finfo(float).eps


# Rows a radial solve's Krylov basis holds past 2 values + 1 on an
# operator of at most _SPARE_DIM rows, so that the solve converges in its
# first sweep.  Unrestarted, a sweep converges (n = 1, 2, 3, 12, grids 400
# to 16000) on 6 to 11 rows for one value and 2 values + 7 to 2 values + 12
# for 2 to 12; restarted on 2 values + 1 rows it needs about as many
# operator applications, and one dense eigensolve of H and one rotation of
# the basis for every 1 to 3 of them.
_SPARE_ROWS = 9
# Above this many rows an application and its Gram-Schmidt against the
# spare rows cost more than the restarts they save: count 1 to 8 solves on
# 2 values + 10 rows took 0.94 of the restarted basis's time summed at grid
# 4000, 0.96 at 6000 and 1.02 at 8000 (n = 1, 3, both families).
_SPARE_DIM = 4096


def _ncv(values: int, dim: int) -> int:
    """Krylov basis size of a radial solve for `values` eigenvalues of a
    dim x dim operator: 2 values + 1 (a restart keeps about half the basis,
    so it holds the wanted values and as many more), plus _SPARE_ROWS where
    dim <= _SPARE_DIM, capped at dim.  With the spare rows a count-4 solve
    at n = 1, 2, 3 on grids up to 4096 converges in its first sweep, on 18
    applications and one dense eigensolve of H (without them it took 18 to
    21 and 4 or 5), and so does a count-1 solve at grid 1000 (12 and one,
    against 8 to 13 and 6 to 11).  The spare rows take at most 9 x 4096
    floats, so the memory of a large solve, and with it what
    check_radial_solve admits, is as it was without them; _mode_ncv's rule
    would take `poincare --grid 4000000` from 641 to 1007 MiB."""
    spare = _SPARE_ROWS if dim <= _SPARE_DIM else 0
    return min(2 * values + 1 + spare, dim)


def _mode_ncv(values: int, dim: int) -> int:
    """Krylov basis size of a mode solve for `values` Ritz values of a
    dim x dim operator: max(2 values + 1, values + 14), capped at dim.  The
    14 spare vectors cut the restarts of the study's solves (3 to 7 on
    2 values + 1 vectors, 0 to 2 on these) by more than the larger dense
    eigensolves of H cost."""
    return min(max(2 * values + 1, values + 14), dim)


def _map_rows(fn: Callable, rows: np.ndarray) -> np.ndarray:
    """fn, which maps a block of rows to one value a row, over blocks of
    consecutive rows of at most one row or _BLOCK_FLOATS floats, whichever
    is more, so that its temporaries hold a block, not all rows."""
    step = max(1, _BLOCK_FLOATS // rows.shape[1])
    out = np.empty(len(rows))
    for lo in range(0, len(rows), step):
        out[lo:lo + step] = fn(rows[lo:lo + step])
    return out


def _suffix_sums(v: np.ndarray) -> np.ndarray:
    """v[i:].sum() for every i, in place, as a reversed cumsum: total -
    prefix would cancel wherever the suffix is small next to the total."""
    np.add.accumulate(v[::-1], out=v[::-1])
    return v


def _path_green(resist: np.ndarray,
                left_grounded: bool) -> tuple[Callable, Callable]:
    """(x -> K^{-1} x, rows -> x^T K^{-1} x for each row x) for the
    Laplacian of a path with element resistances `resist`, grounded past its
    last element and, if left_grounded, before its first; the vertices are
    those between the grounds.

    K^{-1}_ij is the resistance b_max(i,j) from the later vertex to the
    right ground, or with a left ground a_min(i,j) b_max(i,j) / total, a
    being the resistance to the left ground.  Every term is positive, so
    K^{-1} applies in O(N) without cancellation.  x^T K^{-1} x is the energy
    sum resist_e f_e^2 of the current f that x drives into the grounds: f_e
    sums x_j left of element e's far end, less, with a left ground, the
    constant that makes sum resist_e f_e vanish.  Its terms are positive
    too, so it is relatively accurate where x . K^{-1} x cancels.  The
    energies are taken by _map_rows.
    """
    if not left_grounded:
        # sum over elements m >= i of resist_m times the sum of x_j, j <= m
        def apply(x):
            return _suffix_sums(np.add.accumulate(x) * resist)

        def energy(rows):
            return _map_rows(
                lambda x: np.add.accumulate(x, axis=1) ** 2 @ resist, rows)
        return apply, energy
    a = np.add.accumulate(resist)
    b = _suffix_sums(resist.copy())[1:]
    total, a = a[-1], a[:-1]

    def apply(x):
        y = b * np.add.accumulate(a * x)
        y[:-1] += a[:-1] * _suffix_sums(b[1:] * x[1:])
        return y / total

    def block_energy(x):
        f = np.zeros((len(x), len(resist)))
        np.add.accumulate(x, axis=1, out=f[:, 1:])
        f -= (f @ resist / total)[:, None]
        return f ** 2 @ resist

    def energy(rows):
        return _map_rows(block_energy, rows)
    return apply, energy


def _rotate(v: np.ndarray, y: np.ndarray) -> None:
    """v[:p] = y^T v in place, p = y.shape[1], by blocks of columns whose
    products hold at most two rows of v or _BLOCK_FLOATS, whichever is
    more (and never more than p rows)."""
    p, m = y.shape[1], v.shape[1]
    step = max(1, max(2 * m, _BLOCK_FLOATS) // p)
    for lo in range(0, m, step):
        v[:p, lo:lo + step] = y.T @ v[:, lo:lo + step]


def _krylov_schur(apply: Callable, basis: np.ndarray, locked: int,
                  count: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The `count` eigenvalues of largest modulus of the operator `apply` on
    the orthogonal complement of basis[:locked] (orthonormal rows), by
    Krylov-Schur (Stewart, SIAM J. Matrix Anal. Appl. 23 (2001) 601) on the
    ncv = len(basis) - locked rows past them, started from basis[locked]:
    (values by descending modulus, the coefficients of their Ritz vectors in
    those ncv rows, one column each).

    Each new vector A v_j is orthogonalized twice against every row, the
    locked ones included, in the complex inner product ((prior @ w.conj())
    .conj() copies nothing on real arrays), and H = V^* A V is read off the
    coefficients of both passes.  A restart keeps an orthonormal basis Q of
    the count + (ncv - count) / 2 Ritz vectors of largest modulus, which
    spans an invariant subspace of H: the rows are rotated to V Q in place,
    H becomes its Schur form Q^* H Q with the residual's coupling beta Q[-1]
    below it, and the residual is appended.  The dtype of basis picks how
    H's eigenpairs and Schur form are taken.  A real operator must be
    symmetric positive semidefinite (this is then thick-restart Lanczos, Wu
    & Simon, SIAM J. Matrix Anal. Appl. 22 (2000) 602): eigh on H's upper
    triangle, its values reversed, whose eigenvectors are Q and whose Schur
    form is the diagonal of their values.  A complex one: np.linalg.eig
    (LAPACK's zgeev; RuntimeError if it fails), its values sorted by
    modulus, Q the QR factor of the wanted eigenvectors; only the top
    max(count, keep) columns, all that is read, are copied out of eig's.
    Returns once each of the top `count` Ritz residuals is at most tol times
    the modulus of its value (RuntimeError after _KRYLOV_RESTARTS restarts).
    """
    ncv = len(basis) - locked
    v = basis[locked:]
    keep = min(count + (ncv - count) // 2, ncv - 1)
    top = max(keep, count)
    h = np.zeros((ncv, ncv), dtype=basis.dtype)
    w = v[0]
    for _ in range(2 if locked else 0):
        w -= (basis[:locked] @ w.conj()).conj() @ basis[:locked]
    w /= math.sqrt(np.vdot(w, w).real)
    kept = 0
    for _ in range(_KRYLOV_RESTARTS):
        for j in range(kept, ncv):
            w = apply(v[j])
            prior = basis[:locked + j + 1]
            c = (prior @ w.conj()).conj()
            w -= c @ prior
            again = (prior @ w.conj()).conj()
            w -= again @ prior
            h[:j + 1, j] = (c + again)[locked:]
            beta = math.sqrt(np.vdot(w, w).real)
            if j + 1 < ncv:
                h[j + 1, j] = beta
                np.divide(w, beta, out=v[j + 1])
        if np.iscomplexobj(h):
            try:
                theta, y = np.linalg.eig(h)
            except np.linalg.LinAlgError as err:
                raise RuntimeError(f"Krylov-Schur: eig of H failed ({err})") \
                    from None
            order = np.argsort(-np.abs(theta), kind="stable")[:top]
        else:    # H is symmetric positive semidefinite: eigh's values ascend
            theta, y = np.linalg.eigh(h, UPLO="U")
            order = np.s_[:-top - 1:-1]
        theta, y = theta[order], y[:, order]
        if np.all(beta * np.abs(y[-1, :count]) <= tol * np.abs(theta[:count])):
            return theta[:count], y[:, :count]
        q = y[:, :keep]
        del y    # so that eig's kept columns go once their QR is taken
        if np.iscomplexobj(q):
            q = np.linalg.qr(q)[0]
            h[:keep, :keep] = q.conj().T @ h @ q
        else:    # eigh's vectors are orthonormal: Q^T H Q = diag(theta)
            h[:keep, :keep] = np.diag(theta[:keep])
        # H's other entries past the kept block and the coupling row below
        # it are zero or rewritten before they are read again
        h[keep, :keep] = beta * q[-1]
        _rotate(v, q)
        del q    # and with it H's eigenvectors, before the next eigensolve
        np.divide(w, beta, out=v[keep])
        kept = keep
    raise RuntimeError(f"Krylov-Schur solve not converged after "
                       f"{_KRYLOV_RESTARTS} restarts")


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
    mass: np.ndarray
    half: np.ndarray           # (2, elements), from _half_masses
    cond: np.ndarray           # one per element, dropped ends included
    bc: tuple[str, str]        # (left, right) end conditions

    def symmetrized(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonals of M^{-1/2} K M^{-1/2}, K's formed from `cond`."""
        first, m = self.bc[0] == "dirichlet", len(self.mass)
        s = 1.0 / np.sqrt(self.mass)
        diag = _vertex_sums(self.cond, self.cond)[first:first + m]
        return diag * s * s, -self.cond[first:first + m - 1] * s[:-1] * s[1:]

    def lowest(self, count: int) -> np.ndarray:
        """Lowest `count` eigenvalues, ascending; a natural pencil's
        constant mode is not one of them.

        Krylov-Schur on a real basis, that is thick-restart Lanczos
        (_krylov_schur on _ncv(count) vectors, a start vector of ones,
        stopped at residuals of LANCZOS_TOL), for the top of the Green's
        operator M^{1/2} K^{-1} M^{1/2}, whose entries are all positive; the
        Ritz vectors are formed in place in the basis by _rotate.  On
        pencils of up to _SPARE_DIM rows the basis has the spare rows of
        _ncv, and a solve for up to 5 values at n <= 3 converges in its
        first sweep, without a restart; on larger pencils, where an
        application costs more than a restart, it restarts every 1 to 3
        applications (4 or 5 times for count 4, up to 12 for count 1).  A
        pencil with both ends natural is solved grounded at its last vertex, on the
        complement of the constants: their vector M^{1/2} 1 is locked as the
        first row of the basis, which removes the constant mode exactly.  The
        values returned are the edge-form Rayleigh quotients of the Ritz
        vectors, and each must match its Ritz value x^T A x / x^T x in the
        energy form of _path_green (RuntimeError if one does not): both sum
        positive terms, so both are relatively accurate.  A Dirichlet left
        end needs a Dirichlet right end, and count must not exceed the
        pencil's dimension, less the constants (ValueError).
        """
        natural = int(self.bc[1] == "natural")
        if natural and self.bc[0] == "dirichlet":
            raise ValueError("a Dirichlet left end needs a Dirichlet right end")
        # a natural pencil's last vertex is grounded: its own ground, through 0
        resist = np.zeros(len(self.cond) + natural)
        np.divide(_RESIST_SCALE, self.cond, out=resist[:len(self.cond)])
        green, energy = _path_green(resist, self.bc[0] == "dirichlet")
        s = np.sqrt(self.mass) * _MASS_SCALE
        m = len(s)
        if not 1 <= count <= m - natural:
            raise ValueError(f"count must be 1 to {m - natural} here")
        basis = np.empty((natural + _ncv(count, m - natural), m))
        if natural:
            basis[0] = s / np.linalg.norm(s)
        basis[natural] = 1.0
        _rotate(basis[natural:], _krylov_schur(
            lambda x: s * green(s * x), basis, natural, count, LANCZOS_TOL)[1])
        vecs = basis[natural:natural + count]
        # the Ritz values as x^T A x / x^T x: the dense eigensolve of H
        # leaves them eps theta_1 off, up to 1.1e-12 relative at count
        # 1000, grid 4000, where the energy form reads at most 3.3e-15
        mu = energy(s * vecs) / np.einsum("ij,ij->i", vecs, vecs)
        return self._check_eigenpairs(1.0 / mu, vecs / s,
                                      vecs @ basis[0] if natural else None)

    def _check_eigenpairs(self, lam, v, along_constants) -> np.ndarray:
        """The edge-form Rayleigh quotients sum cond (dv)^2 / sum mass v^2
        of the rows of v (zero at a Dirichlet end); raise unless a natural
        vector is M-orthogonal to the constants and each quotient matches
        its lam.  The quotients are taken by _map_rows."""
        if along_constants is not None:
            cos = np.max(np.abs(along_constants))
            if not cos <= EIGENPAIR_TOL:
                raise RuntimeError(
                    "natural pencil eigenvectors not M-orthogonal to the "
                    f"constants: cosine {cos:.3g} (tolerance "
                    f"{EIGENPAIR_TOL:.3g})")
        left = self.bc[0] == "dirichlet"

        def quotients(x):
            edges = np.zeros((len(x), len(self.cond) + 1))
            edges[:, left:left + x.shape[1]] = x
            return (np.diff(edges) ** 2 @ self.cond) / ((x * x) @ self.mass)

        quotient = _map_rows(quotients, v)
        dev = np.abs(quotient - lam) / lam
        if not np.all(dev <= EIGENPAIR_TOL):
            raise RuntimeError(
                "radial pencil eigenvalues off their Rayleigh quotients by "
                f"{np.max(dev):.3g} (tolerance {EIGENPAIR_TOL:.3g})")
        return quotient


def _vertex_sums(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left[i] + right[i - 1] at each of the len(left) + 1 vertices, a term
    past either end being absent."""
    out = np.zeros(len(left) + 1)
    out[:-1] = left
    out[1:] += right
    return out


def build_radial_discretization(params: ProfileParams, n_points: int,
                                bc_right: str = "natural",
                                interval: tuple[float, float] = (0.0, 1.0),
                                bc_left: str = "natural") -> SLDiscretization:
    """Assemble the P1 pencil on `n_points` elements of `interval` (in rho,
    default the whole radius range), uniform in sigma = asin(rho).  Each
    end condition is 'natural' or 'dirichlet'."""
    a, b = interval
    if not 0.0 <= a < b <= 1.0:
        raise ValueError("interval must satisfy 0 <= a < b <= 1")
    if any(bc not in ("natural", "dirichlet") for bc in (bc_left, bc_right)):
        raise ValueError("bc must be 'natural' or 'dirichlet'")
    if bc_left == "dirichlet" and a == 0.0:
        raise ValueError("the pole end rho = 0 only supports the natural condition")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    # the elements' left ends as np.linspace(asin a, asin b, n_points + 1)
    # rounds them, without its overhead: j h + asin a
    lo = math.asin(a)
    h = (math.asin(b) - lo) / n_points
    half = _half_masses(params.n, np.arange(n_points) * h + lo, h)
    cond = half.sum(axis=0) / (h * h)
    mass = _vertex_sums(half[0], half[1])
    first, last = bc_left == "dirichlet", n_points - (bc_right == "dirichlet")
    return SLDiscretization(h=h, mass=mass[first:last + 1], half=half,
                            cond=cond, bc=(bc_left, bc_right))


# --- solve admission --------------------------------------------------------

_WORKSPACE_LIMIT = 2 ** 30   # bytes of memory one solve may take
# Floats an element that build_radial_discretization holds at its peak past
# one block of W, an upper bound: tracemalloc measures 4 (the pencil's mass,
# half masses and conductances; n = 1, 3, 12, grid 1e5), set with 1 to
# spare.  The solve keeps the pencil, so the same term covers it.  Lowering
# it admits larger solves, so it moves with the admission tests.
_ASSEMBLY_FLOATS = 5
# Floats that _half_masses holds for its longest block, 2 _HALF_BLOCK - 1
# elements: W at 12 nodes, twice where 2n is not a power of two, and its
# product with the hat weights.  Measured at most 51,477 past the 4 floats
# an element (n = 1, 2, 3, 12, 40, grids 50 to 1e5), under the 53,248.
_W_BLOCK_FLOATS = 26 * 2 * _HALF_BLOCK
# Vectors of the grid's length that the radial solve holds besides
# the pencil, its basis and the constants it locks: the resistances, sqrt(M),
# the two resistance sums of a pencil with both ends Dirichlet, and the
# operator's input, output and temporaries in one step.  tracemalloc
# measures at most 8 (both ends Dirichlet, count 1, grid 1e5; 5 with a
# natural end), set with 2 to spare.  The Ritz values and the eigenpair
# check that follow hold one count-wide array and blocks of rows past it
# (tracemalloc: 1.35 to 1.4 count-wide arrays past the basis at count 40,
# grid 20000 and count 100, grid 4000), which the two counted cover.
_LANCZOS_FIXED = 10
# Complex vectors of the grid's length that a mode solve's Krylov-Schur
# holds besides its basis, the operator and the factor: the output of one
# tridiagonal solve, its conjugate and the product each Gram-Schmidt pass
# subtracts.  tracemalloc measures 2.0 to 3.2 (grid 1e5, k = 0, 1, 4,
# counts 1, 4, 20 and 50), set with 1 to spare.
_KRYLOV_FIXED = 4
# Floats an element of a mode solve's assembly, past one block of W, and of
# the operator it keeps: build_mode_operator peaks at 13 (tracemalloc, grids
# 1e5 and 250000, k = 1, 4; 8 at k = 0), set with 1 to spare.
_MODE_BUILD_FLOATS = 14


def _check_size(grid: int, count: int, need: int) -> None:
    """Refuse `count` values on `grid` elements unless grid >= 50 and
    1 <= count <= grid / 4, and `need`, an upper estimate of the solve's
    memory in bytes, is within _WORKSPACE_LIMIT."""
    if grid < 50 or not 1 <= count <= grid // 4:
        raise ValueError("need grids >= 50 and 1 <= count <= grid/4")
    if need > _WORKSPACE_LIMIT:
        raise ValueError(f"{count} eigenvalues on grid {grid} need about "
                         f"{need >> 20} MiB of eigensolver workspace "
                         f"(limit {_WORKSPACE_LIMIT >> 20} MiB)")


def check_radial_solve(params: ProfileParams, grid: int, count: int) -> None:
    """ValueError unless discrete_radial_spectrum can solve this: the sizes
    of _check_size, with the memory of the assembly (_ASSEMBLY_FLOATS an
    element and _W_BLOCK_FLOATS) and of the Krylov-Schur solve (its ncv =
    _ncv(count) basis vectors, the locked constants, _LANCZOS_FIXED vectors
    and the eigenpair check's two count-wide arrays, and 5 ncv^2 entries for
    H's dense eigensolve: H, eigh's copy of it, its workspace of about 2
    ncv^2 and the eigenvectors), and a pole vertex mass that does not
    underflow.  The basis is the one lowest builds for the grid's pencil of
    dimension grid: its spare rows, where it has them, hold at most
    _SPARE_ROWS x _SPARE_DIM floats, so that above _SPARE_DIM rows, where
    the workspace limit can bite, the estimate is that of 2 count + 1 rows.
    tracemalloc, which does not see LAPACK's copy and workspace, measures
    2.0 ncv^2 past the vectors (H and its eigenvectors), and 2.6 at a
    restart (and the diagonal Schur form), which frees the eigenvectors
    before the next eigensolve."""
    ncv = _ncv(count, grid)
    _check_size(grid, count, 8 * (
        (grid + 1) * (ncv + 1 + _LANCZOS_FIXED + 2 * count) + 5 * ncv * ncv
        + _ASSEMBLY_FLOATS * grid + _W_BLOCK_FLOATS))
    if _pole_mass(params, grid) == 0.0:
        raise ValueError(f"n = {params.n} is too large for grid {grid}:"
                         " the pole vertex's mass underflows")


def discrete_radial_spectrum(params: ProfileParams, bc: str, n_points: int,
                             count: int) -> np.ndarray:
    """Lowest `count` eigenvalues of the radial problem.

    bc='natural' realizes the zero-weighted-mean (even) family, without the
    trivial constant mode.  bc='dirichlet' pins the equator value and
    realizes the odd family.  Sizes are refused as check_radial_solve does.
    """
    check_radial_solve(params, n_points, count)
    return build_radial_discretization(params, n_points,
                                       bc_right=bc).lowest(count)


def richardson(coarse, fine):
    """Eliminate the h^RICHARDSON_ORDER error term from a grid pair (N, 2N)."""
    f = 2.0 ** RICHARDSON_ORDER
    return (f * np.asarray(fine) - np.asarray(coarse)) / (f - 1.0)


# --- Fourier-mode operators (H^1) ----------------------------------------

MODE_SHIFT = -1.0   # shift-invert target; not 0, where the k = 0 continuity
                    # operator has its constant mode
_MODE_EXTRA = 2     # Ritz values solved for beyond those reported: the
                    # nearest to the shift need not be the lowest by real part
# Complex vectors of the grid's length that the shifted operator's LU
# takes: it peaks at 6 (tracemalloc, grids 1e5 and 250000, k = 1, 4; 3 at
# k = 0, whose operator is real), the shifted diagonal, the pivots, two of
# the prefix products and two temporaries; the pivot pass's Python lists
# hold one block of _PIVOT_BLOCK rows (6.46 at grid 20000, where a block
# is a fifth of the rows; below 4 _PIVOT_BLOCK rows the basis, allocated
# after the pass, covers them).  The factor keeps 3 (1/P, the middle scale
# and Q).  Set with 1 to spare.
_MODE_FACTOR = 7
# Rows of the diagonals that _tridiag_solver's pivot pass turns into Python
# lists at a time.
_PIVOT_BLOCK = 4096
# The computed constant mode of the k = 0 mode operator is zero only up to
# roundoff, which grows like eps ||A||: measured at most 0.5 eps ||A||_inf
# (grids up to 160000).
CONSTANT_MODE_EPS = 16.0   # tolerance of the check, in units of eps ||A||_inf


@dataclass(frozen=True)
class ModeOperator:
    """The angular-mode reduction on H^1 as its three diagonals.

    Substituting phi = f e^{i k theta} into the polar operator yields, in
    the arc length sigma (rho = sin sigma, W = sin^2 sigma),

      -L_k f = -(W f')' / W + 2ik f' + 3ik cot(sigma) f + k^2 f.

    On the radial P1 mesh this is K + 2ik C + 3ik D + k^2 M with
    C_ij = int W phi_i phi_j' and the lumped D_i = int W cot(sigma) phi_i,
    held in the similarity form M^{-1/2} ... M^{-1/2} by its sub-, main and
    super-diagonal (complex; for k = 0 real, the symmetrized radial pencil
    entrywise, with `lower` and `upper` one array) and the vertex `mass`.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    mass: np.ndarray


def _complex(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """real + 1j imag, each part written once into one complex array."""
    return np.column_stack((real, imag)).view(complex)[:, 0]


def matching_bc(matching: str) -> str:
    """The radial pencil's equator condition for a mode matching class."""
    if matching not in ("continuity", "antisymmetry"):
        raise ValueError("matching must be 'continuity' or 'antisymmetry'")
    return "natural" if matching == "continuity" else "dirichlet"


def build_mode_operator(k: int, n_points: int,
                        matching: str = "continuity") -> ModeOperator:
    """Assemble the H^1 mode-k operator for -L_k f = lambda f."""
    bc = matching_bc(matching)
    disc = build_radial_discretization(ProfileParams(1), n_points, bc_right=bc)
    d, e = disc.symmetrized()
    if k == 0:
        return ModeOperator(lower=e, diag=d, upper=e, mass=disc.mass)
    m, h, mass = len(d), disc.h, disc.mass
    left, right = disc.half
    del disc    # frees the pencil arrays that the diagonals do not read
    s = 1.0 / np.sqrt(mass)
    # C_ij is +-(half mass) / h.  D_i = int W' phi_i / 2 (W' = 2 W cot
    # for n = 1) is by parts h/2 times the right minus the left
    # stiffness, plus W phi_i / 2 = 1/2 at a kept equator vertex.
    c_diag = (np.r_[0.0, right] - np.r_[left, 0.0])[:m] / h
    whole = left + right
    dd = (np.r_[whole, 0.0] - np.r_[0.0, whole])[:m] / (2.0 * h)
    dd[-1] += 0.5 * (bc == "natural")
    diag = _complex(d + k * k, k * (2.0 * c_diag + 3.0 * dd) * s * s)
    del d, c_diag, whole, dd
    ss = s[:-1] * s[1:]
    upper = _complex(e, 2 * k * (left[:m - 1] / h) * ss)
    lower = _complex(e, -(2 * k * (right[:m - 1] / h) * ss))
    return ModeOperator(lower=lower, diag=diag, upper=upper, mass=mass)


def _tridiag_solver(lower: np.ndarray, diag: np.ndarray,
                    upper: np.ndarray) -> Callable:
    """x -> T^{-1} x for the tridiagonal T with these diagonals, by LU
    without pivoting: T = L U, L unit lower bidiagonal with the multipliers
    lower / pivot, U upper bidiagonal with the pivots and `upper`.

    The pivots p_i = d_i - (l_{i-1} / p_{i-1}) u_{i-1} are taken in one
    Python pass, rounded as LAPACK's gttrf rounds them where it does not
    pivot, over Python lists of _PIVOT_BLOCK rows of the diagonals at a
    time, so that the lists hold a block, not the grid.  Each solve then
    runs both bidiagonal solves as first-order recurrences by numpy scans:
    L z = b is z = P cumsum(b / P), with P the prefix products of the
    negated multipliers, and U x = z is x = Q reverse-cumsum(z / (p Q)),
    with Q those of -upper / pivot from the last row back, so that a solve
    is x = Q revcumsum(P / (p Q) cumsum(b / P)).
    RuntimeError, before any solve, at a zero or non-finite pivot, or where
    1 / P, Q or the middle scale P / (p Q) leaves float range or reaches 0.
    """
    m = len(diag)
    pivots = np.empty(m, dtype=np.result_type(diag, lower, upper))
    pivots[0] = pivot = diag[0].item()
    try:
        for lo in range(1, m, _PIVOT_BLOCK):
            block = []
            rows = slice(lo - 1, lo - 1 + _PIVOT_BLOCK)
            for d, l, u in zip(diag[lo:lo + _PIVOT_BLOCK].tolist(),
                               lower[rows].tolist(), upper[rows].tolist()):
                pivot = d - l / pivot * u
                block.append(pivot)
            pivots[lo:lo + len(block)] = block
    except ZeroDivisionError:    # the last pivot is 0; refused below
        pivots = pivots[:lo + len(block)]
        pivots[lo:] = block
    bad = np.flatnonzero(~np.isfinite(pivots) | (pivots == 0))
    if bad.size:
        raise RuntimeError("tridiagonal LU without pivoting: zero or "
                           f"non-finite pivot {pivots[bad[0]]} at row "
                           f"{bad[0]}")
    prefix = np.ones(m, dtype=pivots.dtype)
    back = np.ones(m, dtype=pivots.dtype)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.multiply.accumulate(-lower / pivots[:-1], out=prefix[1:])
        np.multiply.accumulate((-upper / pivots[:-1])[::-1],
                               out=back[-2::-1])
        middle = prefix / (pivots * back)
        inv_prefix = np.divide(1.0, prefix, out=prefix)
    for scale in (inv_prefix, middle, back):
        if not (np.isfinite(scale).all() and scale.all()):
            raise RuntimeError("tridiagonal LU without pivoting: a prefix "
                               "product of the multipliers leaves float "
                               "range")

    def solve(b: np.ndarray) -> np.ndarray:
        x = b * inv_prefix
        np.add.accumulate(x, out=x)
        x *= middle
        _suffix_sums(x)
        x *= back
        return x
    return solve


def check_mode_solve(k: int, grid: int, count: int) -> None:
    """ValueError unless mode_spectrum can solve this: the sizes of
    _check_size, with the memory of Krylov-Schur on ncv = _mode_ncv(count +
    1 + _MODE_EXTRA) complex basis vectors, _KRYLOV_FIXED and the LU's
    _MODE_FACTOR complex vectors more and 7 ncv^2 complex entries for H's
    dense step, and the assembly's _MODE_BUILD_FLOATS an element and
    _W_BLOCK_FLOATS; k >= 0 and 3 k^2 <= grid (past it the error of a solve
    grows from 8.2e-3 to 5.8e-2 relative, README).  The dense step is H,
    np.linalg.eig's copy of it, LAPACK's eigenvector buffer, the
    eigenvectors returned and zgeev's workspace, and at a restart the kept
    columns of those and their QR with its copies: the peak RSS of a
    restarting complex solve, above its basis in a fresh process, rose by up
    to 6.2 ncv^2 (ncv 400, four restarts; 5.3 at ncv 800), of which
    tracemalloc, blind to eig's copy and buffer, sees 3.9.  The term keeps
    7, the smallest whole count with the 0.5 ncv^2 margin it had over 6.5
    when restarts copied all of H's eigenvectors."""
    ncv = _mode_ncv(count + 1 + _MODE_EXTRA, grid + 1)
    _check_size(grid, count, 16 * (
        (grid + 1) * (ncv + _KRYLOV_FIXED + _MODE_FACTOR) + 7 * ncv * ncv)
        + 8 * (_MODE_BUILD_FLOATS * grid + _W_BLOCK_FLOATS))
    if k < 0:
        raise ValueError("need one or more Fourier indices k >= 0")
    if 3 * k * k > grid:
        raise ValueError(f"Fourier index {k} is too large for grid {grid}: "
                         "need 3 k^2 <= grid")


def mode_spectrum(k: int, n_points: int = 400, count: int = 6,
                  matching: str = "continuity",
                  return_vectors: bool = False):
    """Lowest `count` eigenvalues of the mode-k problem (complex, by real
    part); with return_vectors, (values, vertex values of their vectors),
    the vectors formed in place in the solve's basis, whose memory the
    returned columns keep.

    Shift-invert Krylov-Schur (_krylov_schur on _mode_ncv(nev) complex
    vectors for nev Ritz values, stopped at residuals of eps, ARPACK's
    default) about MODE_SHIFT from a start vector of ones, so
    repeated solves of one matrix agree bit for bit.  The shifted diagonals
    are factored once by _tridiag_solver, LU without pivoting (RuntimeError
    if a pivot or a prefix product fails), and the solver sees the operator
    only through its solves.  No pivoting is needed: the Hermitian part of
    A - MODE_SHIFT I is positive definite (its least eigenvalue measured 1
    to 1.068 under continuity and 3.9986 to 4.080 under antisymmetry, grids
    50 to 250000, 3 k^2 <= grid), so every leading block is nonsingular.
    For k = 0 the spectrum coincides with the radial pencil; the constant
    mode of the continuity class is checked to sit at zero and dropped
    there.
    """
    check_mode_solve(k, n_points, count)
    op = build_mode_operator(k, n_points, matching)
    m = len(op.diag)
    solve = _tridiag_solver(op.lower, op.diag - MODE_SHIFT, op.upper)
    drop = 1 if k == 0 and matching == "continuity" else 0
    nev = count + drop + _MODE_EXTRA
    basis = np.empty((_mode_ncv(nev, m), m), dtype=complex)
    basis[0] = 1.0
    theta, y = _krylov_schur(solve, basis, 0, nev, _EPS)
    vals = MODE_SHIFT + 1.0 / theta
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    if drop:    # ||A||_inf is the largest row sum of absolute values
        norm = np.max(np.abs(op.diag) + np.r_[np.abs(op.upper), 0.0]
                      + np.r_[0.0, np.abs(op.lower)])
        tol = CONSTANT_MODE_EPS * _EPS * norm
        if abs(vals[0]) > tol:
            raise RuntimeError("mode operator lost its constant mode: "
                               f"{vals[0]} (tolerance {tol:.3g})")
    vals = vals[drop:drop + count]
    if return_vectors:
        _rotate(basis, y[:, order[drop:drop + count]])
        basis[:count] /= np.sqrt(op.mass)
        return vals, basis[:count].T
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
                               mode_grid: int = 300) -> tuple[float, float]:
    """Estimate (mu, C_P = 1/mu) from the discretized spectra.

    The radial-only estimate takes the smaller of the lowest non-constant
    natural eigenvalue and the lowest Dirichlet eigenvalue.  With
    include_modes (H^1 only) the k = 1..4 Fourier minima join the candidate
    set; that extension is exploratory.
    """
    cands = [float(discrete_radial_spectrum(params, "natural", n_points, 1)[0]),
             float(discrete_radial_spectrum(params, "dirichlet", n_points, 1)[0])]
    if include_modes:
        if params.n != 1:
            raise ValueError("mode study only available on H^1")
        for k in range(1, 5):
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
    """G_ij = A int_0^1 f_i f_j rho^{2n} (1 - rho^2)^{-1/2} drho (A =
    sphere_area) where the hemisphere signs agree and exactly 0 where they
    differ, as one weighted (modes x nodes) product."""
    area = ProfileParams(modes[0].n).sphere_area
    sign = np.array([mode.hemisphere_sign for mode in modes])
    # each mode at the rule's nodes in rho, times the root of the weight
    # integrate_profile_radial applies, 0.5 w
    vals = (np.array([mode.value(np.sqrt(rule.nodes)) for mode in modes])
            * np.sqrt(0.5 * rule.weights))
    return area * ((1 + np.outer(sign, sign)) // 2) * (vals @ vals.T)


# --- Green-formula checks -------------------------------------------------

@dataclass(frozen=True)
class PolarTrial:
    """2-D trial on H^1: jets(rho, theta) -> (f, f_r, f_t, f_rr, f_tr, f_tt)."""

    jets: Callable


def green_check(trial, params: ProfileParams) -> float:
    """|integral of L phi over the closed surface|; zero for smooth trials.

    Radial trials integrate over both hemispheres with the weighted rule;
    2-D trials (H^1) use a tensor rule, with the operator's odd terms
    flipped on the lower hemisphere.
    """
    if isinstance(trial, RadialTrial):
        return abs(params.sphere_area * integrate_profile_radial(
            lambda r: trial.applied(r, params), profile_rule(params, 64)))
    if isinstance(trial, PolarTrial):
        if params.n != 1:
            raise ValueError("2-D trials are only supported on H^1")
        rule = gauss_jacobi_rule(64, -0.5, 0.0)
        rho = rule.nodes[:, None]
        wts = rule.weights
        theta = 2.0 * math.pi * np.arange(64) / 64
        f, fr, ft, frr, ftr, ftt = trial.jets(rho, theta[None, :])
        # density w / 2 = (1-rho)^{-1/2} * reg(rho), reg on the rule's weight
        r = rho[:, 0]
        reg = sl_coefficients(params).w(r) * np.sqrt(1.0 - r) / 2.0
        total = 0.0
        for hemi in (+1, -1):
            jet = PolarJet(rho=rho, f_rho=fr, f_theta=ft,
                           f_rhorho=frr, f_thetarho=ftr, f_thetatheta=ftt)
            lphi = np.broadcast_to(apply_polar_h1(jet, hemi),
                                   (rho.size, 64))
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
                            params: ProfileParams) -> float:
    """|integral of (psi L phi - phi L psi)| over the surface, radial pair."""

    def integrand(r):
        return t1.f(r) * t2.applied(r, params) - t2.f(r) * t1.applied(r, params)

    return abs(params.sphere_area
               * integrate_profile_radial(integrand, profile_rule(params, 64)))
