"""The four benchmark workloads.

A workload is built once from its seed (the input generation that set-up
time includes) and then runs passes.  A pass executes all of the workload's
operations; each operation is checked against a closed-form or gated
reference, and one that fails its check or raises is recorded as failed
while the pass goes on.

Every call into hprofile goes through a module attribute at call time
(``S.mode_spectrum``, ``cli.run``), so the traced run's wrappers see it.

Why these four (see BENCHMARK.json for the one-line versions):

* study: the scripts/run_full_study.py sequence, the user's end to end.
  Dense mode eigensolves are about half of it, geodesic RK4 about a quarter,
  and CLI output appears only here.
* radial_ladder: two-grid Richardson on a ladder of grids; FV assembly and
  tridiagonal solves do nearly all the work, with no hyp2f1 and no dense
  eigensolve.  It carries the time-to-accuracy metric.
* closed_form: the scalar specfun path (eigenfunctions at many points for
  few parameter sets, and root scans that make a new parameter set per
  call), with no FV and no eigensolve.
* oracles: the per-point Python loops of geometry and operators (geodesic
  RK4, FD identity suites) and the Green checks, with no eigensolver.
"""
from __future__ import annotations

import math
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import hprofile.cli as cli
import hprofile.geometry as G
import hprofile.numerics as N
import hprofile.operators as O
import hprofile.spectrum as S

__all__ = ["WORKLOADS", "PassResult", "REL_ERR_FLOOR"]

# Relative errors below this are roundoff; they move with summation order,
# so max_rel_err reports them as the floor (the Gamma-condition roots of
# closed_form come out exact, for instance).
REL_ERR_FLOOR = 1e-12


@dataclass
class PassResult:
    """Outcome of one pass."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    rel_errs: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    # Time to the stated accuracy; None until a workload with a target
    # reaches it.  Workloads without a target reach it when the pass ends.
    tta_s: float | None = None
    curve: list[dict] = field(default_factory=list)
    bytes_written: int = 0
    # The clock a workload times its own spans with; a speed.Sampler's
    # clock leaves out the time its probes take.
    clock: Callable[[], float] = time.perf_counter

    def op(self, name: str, fn) -> None:
        """Run one operation; a False return or an exception is a failure."""
        self.attempted += 1
        try:
            ok = fn()
        except Exception as exc:  # noqa: BLE001 - counted, never raised
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return
        if not ok:
            self.failures.append(name)

    @property
    def max_rel_err(self) -> float:
        return max([REL_ERR_FLOOR] + self.rel_errs)


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


# --- study ---------------------------------------------------------------

class Study:
    """scripts/run_full_study.py at its defaults, in-process via cli.run.

    14 operations: 10 CLI commands, 2 root tables, 2 Poincare estimates.
    The inputs are fixed by the script; the seed does not change them.
    """

    name = "study"

    def __init__(self, seed: int, small: bool, work_dir: str):
        self.grid = 100 if small else 1000
        self.mode_grid = 60 if small else 400
        self.steps = 2000 if small else 10_000
        self.out = os.path.join(work_dir, "study")
        self.reference: dict[str, bytes] = {}

    def _cli(self, res: PassResult, name: str, cfg, files, rename=None,
             check=None):
        """One CLI command: exit code 0, byte-stable artifacts, and the
        command's own output check if it has one."""
        def op():
            if cli.run(cfg) != 0:
                return False
            if rename:
                os.replace(os.path.join(self.out, rename[0]),
                           os.path.join(self.out, rename[1]))
            same = self._same_bytes(files)
            return (check() if check else True) and same
        res.op(name, op)

    def _same_bytes(self, files) -> bool:
        """Each artifact must equal the first pass's byte for byte."""
        ok = True
        for fname in files:
            with open(os.path.join(self.out, fname), "rb") as fh:
                data = fh.read()
            ok = ok and self.reference.setdefault(fname, data) == data
        return ok

    def _spectrum_ok(self, res: PassResult, n: int) -> bool:
        with open(os.path.join(self.out, f"spectrum_{n}.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        errs = [float(r.split(",")[7]) for r in rows]
        res.rel_errs.extend(errs)
        return len(errs) == 8 and max(errs) <= 1e-2

    def run_pass(self, res: PassResult) -> None:
        if os.path.isdir(self.out):
            shutil.rmtree(self.out)
        os.makedirs(self.out)
        for n in (1, 2, 3):
            cfg = cli.RunConfig(command="spectrum", n=n, k_max=8,
                                grid=self.grid, out_dir=self.out, fmt="csv",
                                plot=True)
            self._cli(res, f"spectrum_n{n}", cfg,
                      [f"spectrum_{n}.csv", f"spectrum_{n}.gp"],
                      check=lambda n=n: self._spectrum_ok(res, n))

        for n in (1, 2):
            res.op(f"roots_n{n}", lambda n=n: self._roots(res, n))

        for matching in ("continuity", "antisymmetry"):
            cfg = cli.RunConfig(command="modes", n=1, k_range=tuple(range(5)),
                                grid=self.mode_grid, count=6,
                                matching=matching, out_dir=self.out, fmt="json")
            target = f"modes_1_{matching}.json"
            self._cli(res, f"modes_{matching}", cfg, [target],
                      rename=("modes_1.json", target))

        res.op("poincare_radial", lambda: self._poincare(res, False))
        res.op("poincare_full", lambda: self._poincare(res, True))

        for suite in ("identities", "green", "orthogonality", "geometry"):
            cfg = cli.RunConfig(command="verify", n=1, suite=suite,
                                out_dir=self.out)
            target = f"verify_1_{suite}.json"
            self._cli(res, f"verify_{suite}", cfg, [target],
                      rename=("verify_1.json", target))

        cfg = cli.RunConfig(command="geodesic", n=1, plast=2.0,
                            steps=self.steps, out_dir=self.out)
        self._cli(res, "geodesic", cfg, ["geodesic_1.csv"],
                  check=self._geodesic_endpoint)

        res.bytes_written = sum(
            os.path.getsize(os.path.join(self.out, f))
            for f in os.listdir(self.out))

    def _roots(self, res: PassResult, n: int) -> bool:
        params = G.ProfileParams(n)
        lmax = 9 * (9 + 2 * n) + 1.0
        roots = sorted(S.eigencondition_even_roots(lmax, params)
                       + S.eigencondition_odd_roots(lmax, params))
        closed = [S.radial_eigenvalue(k, params) for k in range(1, 9)]
        res.rel_errs.extend(_rel(r, c) for r, c in zip(roots, closed))
        return (len(roots) >= 8
                and max(abs(r - c) for r, c in zip(roots, closed)) <= 1e-8)

    def _poincare(self, res: PassResult, full: bool) -> bool:
        params = G.ProfileParams(1)
        if not full:
            mu, cp = S.poincare_constant_estimate(params, self.grid)
            # The radial estimate is the first eigenvalue, 1 * (1 + 2n) = 3.
            err = _rel(mu, S.radial_eigenvalue(1, params))
            res.rel_errs.append(err)
            self.mu_radial = mu
            return err <= 1e-2 and math.isclose(cp, 1.0 / mu)
        mu, cp = S.poincare_constant_estimate(params, self.grid,
                                              include_modes=True,
                                              mode_grid=self.mode_grid)
        # Exploratory: the minimum over a superset of the radial candidates.
        return math.isfinite(mu) and 0.0 < mu <= self.mu_radial

    def _geodesic_endpoint(self) -> bool:
        with open(os.path.join(self.out, "geodesic_1.csv")) as fh:
            first, last = fh.read().splitlines()[1::self.steps]
        v0 = [float(x) for x in first.split(",")]
        v1 = [float(x) for x in last.split(",")]
        # columns s, z1, z2, t, p1, p2, plast: back at the pole, risen pi/4
        disp = max(abs(v1[1]), abs(v1[2]), abs((v1[3] - v0[3]) - math.pi / 4))
        return disp <= 1e-8


# --- radial ladder ---------------------------------------------------------

class RadialLadder:
    """Two-grid Richardson on the rungs N (fine grid 2N) for n = 1..3, both
    parities, k <= 8; plus the n = 12 known-defect probe at one rung.

    The inputs are fixed; the seed does not change them.
    """

    name = "radial_ladder"
    TARGET = 1e-6   # time-to-accuracy threshold on the max relative error
    GATE = 1e-2     # per-operation gate, the `eig` command's tolerance

    def __init__(self, seed: int, small: bool, work_dir: str):
        self.rungs = (100, 200, 400) if small else (500, 1000, 2000, 4000)
        self.target = 1e-3 if small else self.TARGET
        self.probe_rung = 200 if small else 1000

    @staticmethod
    def _solve(n: int, bc: str, N_: int):
        """Coarse-grid eigenvalues and Richardson relative errors, k <= 8."""
        params = G.ProfileParams(n)
        coarse = S.discrete_radial_spectrum(params, bc, N_, 4)
        fine = S.discrete_radial_spectrum(params, bc, 2 * N_, 4)
        first = 2 if bc == "natural" else 1
        closed = np.array([S.radial_eigenvalue(k, params)
                           for k in range(first, first + 8, 2)])
        return coarse, np.abs(S.richardson(coarse, fine) - closed) / closed

    def _rung_op(self, res: PassResult, N_: int, n: int, bc: str,
                 found: dict) -> bool:
        coarse, errs = self._solve(n, bc, N_)
        found[(n, bc)] = (coarse, float(np.max(errs)))
        res.rel_errs.extend(errs.tolist())
        return found[(n, bc)][1] <= self.GATE

    def run_pass(self, res: PassResult) -> None:
        elapsed = 0.0
        by_rung = []
        for N_ in self.rungs:
            t0 = res.clock()
            found: dict = {}
            for n in (1, 2, 3):
                for bc in ("natural", "dirichlet"):
                    res.op(f"rung{N_}_n{n}_{bc}",
                           lambda: self._rung_op(res, N_, n, bc, found))
            rung_s = res.clock() - t0
            elapsed += rung_s
            by_rung.append(found)
            # None when an operation of the rung failed to produce values
            worst = max(e for _, e in found.values()) if len(found) == 6 else None
            if res.tta_s is None and worst is not None and worst <= self.target:
                res.tta_s = elapsed
            res.curve.append({"N": N_, "time_s": rung_s, "max_rel_err": worst,
                              "p_observed": self._order(by_rung)})

        def probe():
            return max(float(np.max(self._solve(12, bc, self.probe_rung)[1]))
                       for bc in ("natural", "dirichlet")) <= self.GATE
        res.op("probe_n12", probe)

    @staticmethod
    def _order(rungs: list[dict]) -> dict | None:
        """Observed order from the coarse grids of the last three rungs
        (N/4, N/2, N when the rungs double), per eigenvalue; summarised as
        min / median / max next to the order Richardson assumes."""
        if len(rungs) < 3:
            return None
        a, b, c = rungs[-3:]
        ps = []
        for key in c:
            if key in a and key in b:
                d1 = a[key][0] - b[key][0]
                d2 = b[key][0] - c[key][0]
                ps.extend(np.log2(np.abs(d1 / d2)).tolist())
        if not ps:
            return None
        return {"min": min(ps), "median": float(np.median(ps)), "max": max(ps),
                "assumed": S.RICHARDSON_ORDER}


# --- closed form -----------------------------------------------------------

class ClosedForm:
    """Closed-form eigenfunctions at seeded points with their ODE residual,
    Gram matrices, and Gamma-condition roots up to k = 16, for n = 1..3."""

    name = "closed_form"
    K_MAX = 8
    ROOT_K_MAX = 16

    def __init__(self, seed: int, small: bool, work_dir: str):
        rng = np.random.default_rng(seed)
        count = 100 if small else 1000
        self.points = np.sort(rng.uniform(0.01, 0.99, count))

    def run_pass(self, res: PassResult) -> None:
        for n in (1, 2, 3):
            params = G.ProfileParams(n)
            rule = N.profile_rule(params, 64)
            modes: dict[int, object] = {}
            for k in range(1, self.K_MAX + 1):
                res.op(f"eigfn_n{n}_k{k}",
                       lambda k=k: self._eigfn(params, rule, k, modes))
            res.op(f"gram_n{n}", lambda: self._gram(params, rule, modes))
            res.op(f"roots_even_n{n}", lambda: self._roots(res, params, True))
            res.op(f"roots_odd_n{n}", lambda: self._roots(res, params, False))

    def _eigfn(self, params, rule, k, modes) -> bool:
        mode = S.radial_eigenfunction(k, params, rule)
        modes[k] = mode
        r = self.points
        jet = O.RadialJet(mode.value(r), mode.deriv(r), mode.second_deriv(r), r)
        resid = O.apply_radial(jet, params) + mode.lam * jet.f
        return float(np.max(np.abs(resid) / (1.0 + np.abs(jet.f)))) <= 1e-8

    def _gram(self, params, rule, modes) -> bool:
        if len(modes) != self.K_MAX:
            return False
        gram = S.gram_matrix([modes[k] for k in sorted(modes)], rule)
        return float(np.max(np.abs(gram - np.eye(self.K_MAX)))) <= 1e-8

    def _roots(self, res: PassResult, params, even: bool) -> bool:
        n = params.n
        ks = range(2 if even else 1, self.ROOT_K_MAX + 1, 2)
        k_top = ks[-1]
        lmax = k_top * (k_top + 2 * n) + 1.0
        find = S.eigencondition_even_roots if even else S.eigencondition_odd_roots
        roots = find(lmax, params)
        closed = [S.radial_eigenvalue(k, params) for k in ks]
        if len(roots) != len(closed):
            return False
        res.rel_errs.extend(_rel(r, c) for r, c in zip(roots, closed))
        return max(abs(r - c) for r, c in zip(roots, closed)) <= 1e-8


# --- oracles ---------------------------------------------------------------

class Oracles:
    """Geodesic traces, the meridian residual, the identity suites, the FD
    geometry checks and the Green checks, each at its CLI or acceptance
    tolerance.  The seed picks the sample points of the identity and FD
    suites."""

    name = "oracles"

    def __init__(self, seed: int, small: bool, work_dir: str):
        rng = np.random.default_rng(seed)
        self.steps = 2000 if small else 10_000
        self.samples = 20 if small else 100
        self.seeds = {n: [int(s) for s in rng.integers(0, 2**31, size=3)]
                      for n in (1, 2, 3)}

    def run_pass(self, res: PassResult) -> None:
        for n in (1, 2):
            res.op(f"geodesic_n{n}", lambda n=n: self._geodesic(res, n))
        res.op("meridian", lambda: self._meridian(res))
        for n in (1, 2, 3):
            params = G.ProfileParams(n)
            s_id, s_mc, s_om = self.seeds[n]
            res.op(f"identities_n{n}", lambda: max(
                item["max_deviation"] for item in O.verify_identities(
                    params, sample_count=self.samples, seed=s_id)) <= 1e-5)
            res.op(f"mean_curvature_n{n}", lambda: G.mean_curvature_check(
                params, self.samples, seed=s_mc) <= 1e-6)
            res.op(f"omega_normal_deriv_n{n}",
                   lambda: G.omega_bar_normal_deriv_check(
                       params, self.samples, seed=s_om) <= 1e-6)
            for i, trial in enumerate(S.default_green_radial_trials()):
                res.op(f"green_radial_n{n}_{i}",
                       lambda: S.green_check(trial, params) <= 1e-6)
        h1 = G.ProfileParams(1)
        for i, trial in enumerate(S.default_green_polar_trials()):
            res.op(f"green_polar_{i}", lambda: S.green_check(trial, h1) <= 1e-6)
        trials = S.default_green_radial_trials()
        res.op("green_symmetry", lambda: S.green_symmetry_residual(
            trials[0], trials[2], h1) <= 1e-6)

    def _geodesic(self, res: PassResult, n: int) -> bool:
        p0 = np.zeros(2 * n)
        p0[0] = 1.0
        start = G.GeodesicState(z=np.zeros(2 * n), t=-math.pi / 8.0, p_h=p0,
                                p_last=2.0)
        end = G.geodesic_trace(2.0, math.pi, self.steps, start)[-1]
        rise = end.t - start.t
        res.rel_errs.append(_rel(rise, math.pi / 4.0))
        disp = max(float(np.max(np.abs(end.z))), abs(rise - math.pi / 4.0))
        return disp <= 1e-8

    def _meridian(self, res: PassResult) -> bool:
        resid = G.profile_geodesic_residual(G.ProfileParams(1), self.steps)
        # relative to the meridian's height at the pole, u0(0) = pi/8
        res.rel_errs.append(resid / (math.pi / 8.0))
        return resid <= 1e-6


# name -> class; each is built as cls(seed, small, work_dir)
WORKLOADS = {w.name: w for w in (Study, RadialLadder, ClosedForm, Oracles)}
