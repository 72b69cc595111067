"""Command-line surface: spectra, verification suites, mode studies,
Poincare estimates and geodesic traces, with CSV/JSON/gnuplot output.

Each subcommand is one entry of COMMANDS: its runner, the RunConfig fields
it reads with their defaults, and the formats it writes.  The argparse
subcommands, RunConfig's defaults and RunConfig.validate are all built from
that table, so a subcommand takes exactly the flags it reads.

Exit codes: 0 success, 1 failed verification gate (each failed gate is
named on stderr), 2 configuration error, 3 I/O error.  All output is
byte-stable across repeated runs.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .geometry import (GeodesicState, ProfileParams, _random_interior_points,
                       geodesic_trace, horizontal_normal, mean_curvature_check,
                       omega_bar_normal_deriv_check,
                       profile_geodesic_residual)
from .numerics import profile_rule
from .operators import verify_identities
from .spectrum import (ModeEntry, ModeReport, PoincareEntry, PoincareReport,
                       SpectrumReport, build_spectrum_report,
                       default_green_polar_trials,
                       default_green_radial_trials, discrete_radial_spectrum,
                       gram_matrix, green_check, green_symmetry_residual,
                       mode_spectrum, parity_spectrum_entries,
                       poincare_constant_estimate, pole_mass,
                       radial_eigenfunction)

__all__ = ["RunConfig", "run", "main"]

# Default gate tolerance of each verify suite.
_SUITE_TOL = {"identities": 1e-5, "green": 1e-6, "orthogonality": 1e-8,
              "geometry": 1e-6}


def _parse_k_range(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(tok) for tok in text.split(","))


def _flag(flag: str, default=None, low=None, above=None, **argparse_kwargs):
    """A RunConfig field, its command-line spelling and its lower bound:
    value >= low, or value > above."""
    return field(default=default, metadata={
        "flag": flag, "low": low, "above": above, "argparse": argparse_kwargs})


@dataclass
class RunConfig:
    """One run of a subcommand.

    A field the command reads takes the command's default from COMMANDS
    when left at None.  A field it does not read must keep the default
    given here, or validate refuses the config.
    """

    command: str
    n: int | None = _flag("--n", low=1, type=int)
    k_max: int | None = _flag("--k-max", low=1, type=int)
    count: int | None = _flag("--count", low=1, type=int)
    grid: int | None = _flag("--grid", low=50, type=int)
    grid2: int | None = _flag("--grid2", type=int)   # 0 -> 2 * grid
    parity: str | None = _flag("--parity", choices=("even", "odd"))
    k_range: tuple[int, ...] | None = _flag("--k", type=_parse_k_range)
    matching: str | None = _flag("--matching",
                                 choices=("continuity", "antisymmetry"))
    suite: str | None = _flag("--suite", choices=tuple(_SUITE_TOL))
    full: bool | None = _flag(
        "--full", action="store_true",
        help="include exploratory k >= 1 Fourier minima (H^1)")
    plast: float | None = _flag("--plast", type=float)
    steps: int | None = _flag("--steps", low=1, type=int)
    smax: float | None = _flag("--smax", type=float)
    tol: float | None = _flag("--tol", above=0.0, type=float)
    # A command with one format does not read fmt.
    fmt: str = _flag("--format", default="csv")
    out_dir: str | None = _flag("--out")
    plot: bool | None = _flag("--plot", action="store_true")

    def __post_init__(self) -> None:
        spec = COMMANDS.get(self.command)
        for name, default in (spec.defaults if spec else {}).items():
            if getattr(self, name) is None:
                setattr(self, name, default)

    def validate(self) -> None:
        spec = COMMANDS.get(self.command)
        if spec is None:
            raise ValueError(f"unknown command {self.command!r}")
        for f in fields(self)[1:]:
            value, flag = getattr(self, f.name), f.metadata["flag"]
            if f.name not in spec.defaults:
                if value != f.default:
                    raise ValueError(f"{self.command} does not take {flag}")
                continue
            choices = (spec.formats if f.name == "fmt"
                       else f.metadata["argparse"].get("choices"))
            if choices is not None and value not in choices:
                raise ValueError(f"{flag} must be one of {', '.join(choices)}")
            if f.metadata["low"] is not None and value < f.metadata["low"]:
                raise ValueError(f"{flag} must be >= {f.metadata['low']}")
            above = f.metadata["above"]
            if above is not None and value is not None and value <= above:
                raise ValueError(f"{flag} must be > {above}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{flag} must be finite")
            # argparse's ints are unbounded; a grid past float range overflows
            if isinstance(value, int) and value > sys.maxsize:
                raise ValueError(f"{flag} must be <= {sys.maxsize}")
        if self.command == "poincare" and self.full and self.tol is not None:
            raise ValueError("poincare --full is not gated and takes no --tol")
        if self.command == "modes" and self.n != 1:
            raise ValueError("mode studies are only defined on H^1 (n = 1)")
        # grid2 defaults to 2 * grid; modes and poincare read none
        grids = ((self.grid, self.grid2 or 2 * self.grid)
                 if self.command in ("spectrum", "eig") else (self.grid,))
        if self.command in ("spectrum", "eig", "modes"):
            # count: eigenvalues per solve, for spectrum the larger odd family
            count = self.count or (self.k_max + 1) // 2
            if any(g < 50 or not 1 <= count <= g // 4 for g in grids):
                raise ValueError("need grids >= 50 and 1 <= count <= grid/4")
        if self.command in ("spectrum", "eig", "poincare"):
            for g in grids:
                if pole_mass(ProfileParams(self.n), g) == 0.0:
                    raise ValueError(f"n = {self.n} is too large for grid {g}:"
                                     " the pole vertex's mass underflows")
        if not os.path.isdir(self.out_dir):
            raise ValueError(f"--out {self.out_dir} is not a directory")
        if self.k_range is not None and (not self.k_range
                                         or min(self.k_range) < 0):
            raise ValueError("need one or more Fourier indices k >= 0")


def _gate(name: str, value: float, threshold: float) -> dict:
    return {"name": name, "value": value, "threshold": threshold,
            "pass": bool(value <= threshold)}


_GNUPLOT = """\
set datafile separator ','
set key left top
set xlabel 'k'
set ylabel 'lambda'
set title '{command} n={n}'
plot '{csv}' every ::1 using 2:4 with points pt 7 title 'closed form', \\
     '{csv}' every ::1 using 2:7 with points pt 5 title 'extrapolated'
pause -1
"""


def _emit_report(cfg: RunConfig, fmt: str, report, gates: list[dict]) -> None:
    """Write the table as fmt, and as CSV with a gnuplot script under plot."""
    stem = f"{cfg.command}_{cfg.n}"
    files = {}
    if fmt == "csv" or cfg.plot:
        lines = [report.CSV_HEADER] + report.csv_rows()
        files["csv"] = "\r\n".join(lines) + "\r\n"
    if fmt == "json":
        config = {"command": cfg.command, "n": cfg.n, "format": fmt}
        obj = {"config": config, "results": report.json_obj(), "gates": gates}
        files["json"] = json.dumps(obj, indent=2, sort_keys=False) + "\n"
    if cfg.plot:
        files["gp"] = _GNUPLOT.format(command=cfg.command, n=cfg.n,
                                      csv=f"{stem}.csv")
    for ext, text in files.items():
        path = os.path.join(cfg.out_dir, f"{stem}.{ext}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


@dataclass
class _Rows:
    """Rows already in a one-format command's format: CSV or JSON results."""

    rows: list
    CSV_HEADER: str = ""

    def csv_rows(self) -> list:
        return self.rows

    json_obj = csv_rows


def _rel_err_gates(cfg: RunConfig, report: SpectrumReport):
    """A spectrum table, gated row by row on rel_err (default 1%)."""
    tol = cfg.tol if cfg.tol is not None else 0.01
    return report, [_gate(f"{cfg.command}_k{e.k}", e.rel_err, tol)
                    for e in report.entries]


def _run_spectrum(cfg: RunConfig):
    return _rel_err_gates(cfg, build_spectrum_report(
        ProfileParams(cfg.n), cfg.k_max, cfg.grid, cfg.grid2 or 2 * cfg.grid))


def _run_eig(cfg: RunConfig):
    return _rel_err_gates(cfg, SpectrumReport(parity_spectrum_entries(
        ProfileParams(cfg.n), cfg.parity, cfg.count, cfg.grid,
        cfg.grid2 or 2 * cfg.grid)))


def _run_modes(cfg: RunConfig):
    params = ProfileParams(1)
    # The roundoff of the k = 0 comparison, the sparse mode solve against
    # the radial Lanczos one, grows like ||A||_2, about 1.9 grid^2: measured
    # at most 1.9e-12 max(1, (grid / 400)^2) over grids 100..8000, both
    # matching classes, counts 1 and 6.
    tol = (cfg.tol if cfg.tol is not None
           else 1e-11 * max(1, (cfg.grid / 400) ** 2))
    report, gates = ModeReport(), []
    for k in cfg.k_range:
        vals = mode_spectrum(k, cfg.grid, cfg.count, cfg.matching)
        if k == 0:
            bc = "natural" if cfg.matching == "continuity" else "dirichlet"
            radial = discrete_radial_spectrum(params, bc, cfg.grid, cfg.count)
            dev = float(np.max(np.abs(vals.real - radial)))
            gates.append(_gate("mode0_matches_radial", dev, tol))
        report.entries += [ModeEntry(cfg.n, k, cfg.matching, i,
                                     float(lam.real), float(lam.imag))
                           for i, lam in enumerate(vals)]
    return report, gates


def _geometry_gates(params: ProfileParams, tol_fd: float) -> list[dict]:
    # the algebraic identities hold up to the equator, so sample up to it
    z = _random_interior_points(params.n, 100, 11, (0.05, 0.999))
    nu = horizontal_normal(z, +1)
    gates = [
        _gate("unit_normal",
              float(np.max(np.abs(np.sum(nu * nu, axis=1) - 1.0))), 1e-14),
        _gate("support_function",
              float(np.max(np.abs(np.sum(z * nu, axis=1)
                                  - np.sum(z * z, axis=1)))), 1e-14),
        _gate("mean_curvature", mean_curvature_check(params, 100), tol_fd),
        _gate("omega_normal_derivative",
              omega_bar_normal_deriv_check(params, 100), tol_fd),
    ]
    if params.n == 1:
        gates.append(_gate("geodesic_meridian",
                           profile_geodesic_residual(params, 10_000), tol_fd))
    return gates


def _run_verify(cfg: RunConfig):
    params = ProfileParams(cfg.n)
    tol = cfg.tol if cfg.tol is not None else _SUITE_TOL[cfg.suite]
    results = []
    if cfg.suite == "identities":
        results = verify_identities(params, sample_count=100)
        gates = [_gate(item["lemma"], item["max_deviation"], tol)
                 for item in results]
    elif cfg.suite == "green":
        trs = default_green_radial_trials()
        polar = default_green_polar_trials() if params.n == 1 else []
        gates = ([_gate(f"green_radial_{i}", green_check(tr, params), tol)
                  for i, tr in enumerate(trs)]
                 + [_gate(f"green_polar_{i}", green_check(tr, params), tol)
                    for i, tr in enumerate(polar)]
                 + [_gate("green_symmetry",
                          green_symmetry_residual(trs[0], trs[2], params), tol)])
    elif cfg.suite == "orthogonality":
        rule = profile_rule(params, 64)
        modes = [radial_eigenfunction(k, params, rule) for k in range(1, 9)]
        G = gram_matrix(modes, rule)
        gates = [_gate("gram_identity",
                       float(np.max(np.abs(G - np.eye(len(modes))))), tol)]
    else:
        gates = _geometry_gates(params, tol)
    return _Rows(results), gates


def _run_poincare(cfg: RunConfig):
    params = ProfileParams(cfg.n)
    mu, cp = poincare_constant_estimate(params, cfg.grid,
                                        include_modes=cfg.full)
    report = PoincareReport([PoincareEntry(cfg.n, mu, cp, not cfg.full)])
    if cfg.full:
        return report, []    # exploratory: no closed form to gate against
    # the radial mu is the first odd eigenvalue, Q - 1 = 2n + 1
    tol = cfg.tol if cfg.tol is not None else 0.01
    first = params.Q - 1.0
    return report, [_gate("poincare_radial", abs(mu - first) / first, tol)]


def _run_geodesic(cfg: RunConfig):
    dim = 2 * cfg.n
    start = GeodesicState(z=np.zeros(dim), t=-math.pi / 8.0,
                          p_h=np.eye(dim)[0], p_last=cfg.plast)
    # |P_H| is conserved along the flow; RK4 keeps it to its truncation
    # error.  A trace that overflows fails this gate on NaN, and its numpy
    # warnings are not printed on top of the gate line.
    with np.errstate(over="ignore", invalid="ignore"):
        path = geodesic_trace(cfg.plast, cfg.smax, cfg.steps, start)
        drift = float(np.max(np.abs(np.linalg.norm(path.p_h, axis=1) - 1.0)))
    header = ",".join(["s", *(f"z{i}" for i in range(1, dim + 1)), "t",
                       *(f"p{i}" for i in range(1, dim + 1)), "plast"])
    table = np.column_stack([path.s, path.z, path.t, path.p_h,
                             np.full(len(path), path.p_last)])
    row = ",".join(["%.17g"] * table.shape[1])
    rows = [row % tuple(values) for values in table.tolist()]
    return _Rows(rows, header), [_gate("momentum_drift", drift, 1e-8)]


@dataclass(frozen=True)
class _Command:
    """One subcommand: runner(cfg) -> (table, gates); the RunConfig fields
    it reads besides n, fmt and out_dir, with their defaults; the formats it
    writes, the first by default (only a command with several reads fmt)."""

    runner: Callable
    help: str
    reads: dict
    formats: tuple[str, ...] = ("csv", "json")

    @property
    def defaults(self) -> dict:
        fmt = {"fmt": self.formats[0]} if len(self.formats) > 1 else {}
        return {"n": 1, **self.reads, **fmt, "out_dir": "."}


COMMANDS = {
    "spectrum": _Command(
        _run_spectrum, "closed-form vs discrete spectrum table",
        {"k_max": 5, "grid": 1000, "grid2": 0, "tol": None, "plot": False}),
    "eig": _Command(
        _run_eig, "discrete eigenvalues for one parity class",
        {"parity": "even", "count": 4, "grid": 1000, "grid2": 0, "tol": None,
         "plot": False}),
    "modes": _Command(
        _run_modes, "Fourier-mode eigenvalue tables (H^1)",
        {"k_range": (0, 1, 2), "matching": "continuity", "count": 6,
         "grid": 400, "tol": None}),
    "verify": _Command(
        _run_verify, "numerical verification suites",
        {"suite": "identities", "tol": None}, formats=("json",)),
    "poincare": _Command(
        _run_poincare, "Poincare constant estimate",
        {"grid": 1000, "full": False, "tol": None}),
    "geodesic": _Command(
        _run_geodesic, "CC-geodesic trace as CSV",
        {"plast": 2.0, "steps": 10_000, "smax": math.pi}, formats=("csv",)),
}


def run(config: RunConfig) -> int:
    """Validate and execute; never starts computation on a bad config."""
    try:
        config.validate()
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    spec = COMMANDS[config.command]
    fmt = config.fmt if len(spec.formats) > 1 else spec.formats[0]
    try:
        table, gates = spec.runner(config)
        _emit_report(config, fmt, table, gates)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    failed = [g for g in gates if not g["pass"]]
    for g in failed:
        print(f"gate failed: {g['name']} = {g['value']:.6g} > "
              f"{g['threshold']:.6g}", file=sys.stderr)
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hprofile",
        description="Spectra and verification suites for the horizontal "
                    "tangential operator on Heisenberg isoperimetric profiles")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        # No argparse defaults: RunConfig fills in the command's own.
        p = sub.add_parser(name, help=spec.help,
                           argument_default=argparse.SUPPRESS)
        for f in fields(RunConfig):
            if f.name in spec.defaults:
                fmt = {"choices": spec.formats} if f.name == "fmt" else {}
                p.add_argument(f.metadata["flag"], dest=f.name,
                               **f.metadata["argparse"], **fmt)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    args.setdefault("out_dir", os.environ.get("HPROFILE_OUT_DIR"))
    cfg = RunConfig(**args)
    code = run(cfg)
    if code == 0:
        print(f"{cfg.command}: ok")
    return code


if __name__ == "__main__":
    sys.exit(main())
