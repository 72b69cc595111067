"""Per-layer tracing by wrapping hprofile's public functions from outside.

Each wrap point names a span (``<layer>.<thing>``), the module or class
attribute that callers resolve at call time, and an optional counter that
turns the call's arguments or result into work counts.  Spans nest: a
span's self time is its duration minus the time its child spans cover, so
the self times of all spans in a pass add up to at most the pass's wall
time.  Hot leaf calls (one hyp2f1 evaluation is ~10 us) are aggregated per
span name instead of being kept as individual span records.

``Tracer.install`` replaces the attributes and ``Tracer.uninstall`` puts the
originals back and checks, attribute by attribute, that the original is in
place again, so no untraced pass can run through a wrapper.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

__all__ = ["Tracer", "WRAP_POINTS", "COUNT_POINTS", "PER_LAYER_UNITS",
           "layer_metrics", "originals", "check_originals"]


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_rows(c, args, kwargs, result):
    c["rows"] += len(_arg(args, kwargs, 0, "diagonal"))


def _count_dense(c, args, kwargs, result):
    dim = len(_arg(args, kwargs, 0, "A"))
    c["dim_max"] = max(c["dim_max"], dim)
    # Eigenvalues only of a general dense matrix by Hessenberg reduction and
    # shifted QR: about 10 dim^3 flops (Golub & Van Loan, 4th ed., sec. 7.5.6).
    # Computed from the size, not measured.
    c["flops_computed"] += 10 * dim ** 3


def _count_cells(c, args, kwargs, result):
    c["cells"] += int(_arg(args, kwargs, 1, "n_points"))


def _count_points(c, args, kwargs, result):
    import numpy as np
    c["points"] += int(np.size(_arg(args, kwargs, 1, "rho")))


def _count_steps(c, args, kwargs, result):
    c["steps"] += int(_arg(args, kwargs, 2, "steps"))


def _count_samples(c, args, kwargs, result):
    c["samples"] += sum(int(item["samples"]) for item in result)


# (span, "module" or "module:Class", attribute, counter).  The attribute is
# the one the callers resolve: `from .numerics import sym_tridiag_eigen` in
# spectrum makes hprofile.spectrum.sym_tridiag_eigen the site to wrap.
WRAP_POINTS = [
    ("specfun.hyp2f1", "hprofile.spectrum", "hyp2f1_auto", None),
    ("specfun.gamma", "hprofile.spectrum", "gamma_fn", None),
    ("specfun.gamma", "hprofile.spectrum", "recip_gamma", None),
    ("specfun.gamma", "hprofile.spectrum", "gauss_value_at_one", None),
    ("numerics.gauss_jacobi", "hprofile.numerics", "gauss_jacobi_rule", None),
    ("numerics.gauss_jacobi", "hprofile.spectrum", "gauss_jacobi_rule", None),
    ("numerics.tridiag", "hprofile.spectrum", "sym_tridiag_eigen", _count_rows),
    ("numerics.dense_eig", "hprofile.spectrum", "hessenberg_qr_eigenvalues",
     _count_dense),
    ("numerics.bisect", "hprofile.spectrum", "bisect_root", None),
    ("spectrum.fv_assembly", "hprofile.spectrum", "build_radial_discretization",
     _count_cells),
    ("spectrum.mode_build", "hprofile.spectrum", "build_mode_operator", None),
    ("spectrum.mode_solve", "hprofile.spectrum", "mode_spectrum", None),
    ("spectrum.mode_solve", "hprofile.cli", "mode_spectrum", None),
    ("spectrum.root_scan", "hprofile.spectrum", "eigencondition_even_roots", None),
    ("spectrum.root_scan", "hprofile.spectrum", "eigencondition_odd_roots", None),
    ("spectrum.eigfn", "hprofile.spectrum", "radial_eigenfunction", None),
    ("spectrum.eigfn", "hprofile.cli", "radial_eigenfunction", None),
    ("spectrum.eigfn", "hprofile.spectrum:RadialEigenmode", "value", _count_points),
    ("spectrum.eigfn", "hprofile.spectrum:RadialEigenmode", "deriv", _count_points),
    ("spectrum.eigfn", "hprofile.spectrum:RadialEigenmode", "second_deriv",
     _count_points),
    ("spectrum.gram", "hprofile.spectrum", "gram_matrix", None),
    ("spectrum.gram", "hprofile.cli", "gram_matrix", None),
    ("spectrum.green", "hprofile.spectrum", "green_check", None),
    ("spectrum.green", "hprofile.spectrum", "green_symmetry_residual", None),
    ("spectrum.green", "hprofile.cli", "green_check", None),
    ("spectrum.green", "hprofile.cli", "green_symmetry_residual", None),
    ("geometry.geodesic", "hprofile.geometry", "geodesic_trace", _count_steps),
    ("geometry.geodesic", "hprofile.cli", "geodesic_trace", _count_steps),
    ("geometry.meridian", "hprofile.geometry", "profile_geodesic_residual", None),
    ("geometry.meridian", "hprofile.cli", "profile_geodesic_residual", None),
    ("geometry.fd_checks", "hprofile.geometry", "mean_curvature_check", None),
    ("geometry.fd_checks", "hprofile.geometry", "omega_bar_normal_deriv_check",
     None),
    ("geometry.fd_checks", "hprofile.cli", "mean_curvature_check", None),
    ("geometry.fd_checks", "hprofile.cli", "omega_bar_normal_deriv_check", None),
    ("operators.identities", "hprofile.operators", "verify_identities",
     _count_samples),
    ("operators.identities", "hprofile.cli", "verify_identities", _count_samples),
    ("cli.run", "hprofile.cli", "run", None),
]

# Evaluation counters without a span of their own: the Gamma-condition
# values the root scan evaluates (scan points and bisection steps alike).
COUNT_POINTS = [
    ("spectrum.root_scan", "f_evals", "hprofile.spectrum", "even_condition_value"),
    ("spectrum.root_scan", "f_evals", "hprofile.spectrum", "odd_condition_value"),
]


def _resolve(target: str):
    mod_name, _, cls_name = target.partition(":")
    owner = importlib.import_module(mod_name)
    return getattr(owner, cls_name) if cls_name else owner


def _current(owner, attr):
    # A class attribute is read from the class dict, so a method compares
    # as the plain function that was stored there.
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


class Tracer:
    """Aggregated spans and counters for one traced pass at a time."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, dict] = defaultdict(lambda: defaultdict(int))
        # Child-time accumulators, one per open span; the bottom entry
        # collects the time of top-level spans.
        self._stack = [0.0]

    def _span(self, name, fn, counter):
        stack = self._stack
        calls, self_s, counts = self.calls, self.self_s, self.counts
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                stack[-1] += dt
                calls[name] += 1
                self_s[name] += dt - child
            if counter is not None:
                counter(counts[name], args, kwargs, result)
            return result

        return wrapper

    def _counting_bisect(self, fn):
        counts = self.counts["numerics.bisect"]

        def bisect(f, *args, **kwargs):
            def counted(x):
                counts["f_evals"] += 1
                return f(x)
            return fn(counted, *args, **kwargs)

        return bisect

    def _counting(self, span, key, fn):
        counts = self.counts[span]

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        # The reset must precede wrapping: wrappers bind the current dicts.
        self.reset()
        for name, target, attr, counter in WRAP_POINTS:
            owner = _resolve(target)
            original = _current(owner, attr)
            fn = original
            if name == "numerics.bisect":
                fn = self._counting_bisect(original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._span(name, fn, counter))
        for span, key, target, attr in COUNT_POINTS:
            owner = _resolve(target)
            original = _current(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._counting(span, key, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute and check that each is original."""
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        check_originals(saved)


def originals() -> list[tuple[object, str, object]]:
    """The (owner, attribute, current value) triples of every wrap point."""
    out = []
    for _, target, attr, _ in WRAP_POINTS:
        owner = _resolve(target)
        out.append((owner, attr, _current(owner, attr)))
    for _, _, target, attr in COUNT_POINTS:
        owner = _resolve(target)
        out.append((owner, attr, _current(owner, attr)))
    return out


def check_originals(expected) -> None:
    """Raise unless every attribute holds exactly the expected object."""
    bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in expected
           if _current(o, a) is not orig]
    if bad:
        raise RuntimeError(f"wrappers left in place: {', '.join(bad)}")


# name -> unit of every per-layer metric, in report order.
PER_LAYER_UNITS = {
    "specfun.hyp2f1.calls": "count",
    "specfun.hyp2f1.time_s": "s",
    "specfun.hyp2f1.us_per_call": "us",
    "specfun.gamma.calls": "count",
    "specfun.gamma.time_s": "s",
    "numerics.gauss_jacobi.calls": "count",
    "numerics.gauss_jacobi.time_s": "s",
    "numerics.tridiag.calls": "count",
    "numerics.tridiag.time_s": "s",
    "numerics.tridiag.rows": "count",
    "numerics.dense_eig.calls": "count",
    "numerics.dense_eig.time_s": "s",
    "numerics.dense_eig.dim_max": "count",
    "numerics.dense_eig.flops_computed": "flop",
    "numerics.bisect.calls": "count",
    "numerics.bisect.f_evals": "count",
    "numerics.bisect.time_s": "s",
    "spectrum.fv_assembly.calls": "count",
    "spectrum.fv_assembly.time_s": "s",
    "spectrum.fv_assembly.cells": "count",
    "spectrum.fv_assembly.us_per_cell": "us",
    "spectrum.mode_build.time_s": "s",
    "spectrum.mode_solve.time_s": "s",
    "spectrum.root_scan.time_s": "s",
    "spectrum.root_scan.f_evals": "count",
    "spectrum.eigfn.points": "count",
    "spectrum.eigfn.time_s": "s",
    "spectrum.gram.time_s": "s",
    "spectrum.green.time_s": "s",
    "geometry.geodesic.steps": "count",
    "geometry.geodesic.time_s": "s",
    "geometry.geodesic.us_per_step": "us",
    "geometry.meridian.time_s": "s",
    "geometry.fd_checks.time_s": "s",
    "operators.identities.time_s": "s",
    "operators.identities.samples": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _per(total_s: float, count: int) -> float:
    return 1e6 * total_s / count if count else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """One traced pass's span data as per-layer metrics (all times are self
    times).  cli.bytes_written, trace.wall_s and trace.overhead_s are filled
    in by the caller, which knows the pass's artifacts and wall times."""
    c, s, k = tracer.calls, tracer.self_s, tracer.counts
    return {
        "specfun.hyp2f1.calls": c["specfun.hyp2f1"],
        "specfun.hyp2f1.time_s": s["specfun.hyp2f1"],
        "specfun.hyp2f1.us_per_call": _per(s["specfun.hyp2f1"], c["specfun.hyp2f1"]),
        "specfun.gamma.calls": c["specfun.gamma"],
        "specfun.gamma.time_s": s["specfun.gamma"],
        "numerics.gauss_jacobi.calls": c["numerics.gauss_jacobi"],
        "numerics.gauss_jacobi.time_s": s["numerics.gauss_jacobi"],
        "numerics.tridiag.calls": c["numerics.tridiag"],
        "numerics.tridiag.time_s": s["numerics.tridiag"],
        "numerics.tridiag.rows": k["numerics.tridiag"]["rows"],
        "numerics.dense_eig.calls": c["numerics.dense_eig"],
        "numerics.dense_eig.time_s": s["numerics.dense_eig"],
        "numerics.dense_eig.dim_max": k["numerics.dense_eig"]["dim_max"],
        "numerics.dense_eig.flops_computed":
            k["numerics.dense_eig"]["flops_computed"],
        "numerics.bisect.calls": c["numerics.bisect"],
        "numerics.bisect.f_evals": k["numerics.bisect"]["f_evals"],
        "numerics.bisect.time_s": s["numerics.bisect"],
        "spectrum.fv_assembly.calls": c["spectrum.fv_assembly"],
        "spectrum.fv_assembly.time_s": s["spectrum.fv_assembly"],
        "spectrum.fv_assembly.cells": k["spectrum.fv_assembly"]["cells"],
        "spectrum.fv_assembly.us_per_cell": _per(
            s["spectrum.fv_assembly"], k["spectrum.fv_assembly"]["cells"]),
        "spectrum.mode_build.time_s": s["spectrum.mode_build"],
        "spectrum.mode_solve.time_s": s["spectrum.mode_solve"],
        "spectrum.root_scan.time_s": s["spectrum.root_scan"],
        "spectrum.root_scan.f_evals": k["spectrum.root_scan"]["f_evals"],
        "spectrum.eigfn.points": k["spectrum.eigfn"]["points"],
        "spectrum.eigfn.time_s": s["spectrum.eigfn"],
        "spectrum.gram.time_s": s["spectrum.gram"],
        "spectrum.green.time_s": s["spectrum.green"],
        "geometry.geodesic.steps": k["geometry.geodesic"]["steps"],
        "geometry.geodesic.time_s": s["geometry.geodesic"],
        "geometry.geodesic.us_per_step": _per(
            s["geometry.geodesic"], k["geometry.geodesic"]["steps"]),
        "geometry.meridian.time_s": s["geometry.meridian"],
        "geometry.fd_checks.time_s": s["geometry.fd_checks"],
        "operators.identities.time_s": s["operators.identities"],
        "operators.identities.samples": k["operators.identities"]["samples"],
        "cli.self_s": s["cli.run"],
    }
