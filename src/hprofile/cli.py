"""Command-line surface: spectra, verification suites, mode studies,
Poincare estimates and geodesic traces, with CSV/JSON/gnuplot output.

Exit codes: 0 success, 1 failed verification gate, 2 configuration error,
3 I/O error.  All output is byte-stable across repeated runs.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import (GeodesicState, ProfileParams, geodesic_trace,
                       horizontal_normal, mean_curvature_check,
                       omega_bar_normal_deriv_check,
                       profile_geodesic_residual)
from .numerics import profile_rule
from .operators import verify_identities
from .spectrum import (ModeEntry, ModeReport, SpectrumReport,
                       build_spectrum_report,
                       default_green_polar_trials,
                       default_green_radial_trials, discrete_radial_spectrum,
                       gram_matrix, green_check, green_symmetry_residual,
                       mode_spectrum, parity_spectrum_entries,
                       poincare_constant_estimate, radial_eigenfunction)

__all__ = ["RunConfig", "run", "main"]

_FMT = "{:.17g}"


@dataclass
class RunConfig:
    command: str
    n: int = 1
    k_max: int = 5
    count: int = 4
    grid: int = 1000
    grid2: int = 0           # 0 -> 2 * grid
    parity: str = "even"
    k_range: tuple[int, ...] = (0, 1, 2)
    matching: str = "continuity"
    suite: str = "identities"
    full: bool = False
    plast: float = 2.0
    steps: int = 10_000
    smax: float = math.pi
    tol: float | None = None
    fmt: str = "csv"
    out_dir: str = "."
    plot: bool = False

    def validate(self) -> None:
        if self.command not in ("spectrum", "eig", "modes", "verify",
                                "poincare", "geodesic"):
            raise ValueError(f"unknown command {self.command!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        if self.command == "modes" and self.n != 1:
            raise ValueError("mode studies are only defined on H^1 (n = 1)")
        if self.command == "eig" and self.parity not in ("even", "odd"):
            raise ValueError("parity must be even or odd")
        if self.suite not in ("identities", "green", "orthogonality", "geometry"):
            raise ValueError("unknown verify suite")
        if self.steps < 1 or self.grid < 50 or self.k_max < 1:
            raise ValueError("size parameters out of range")
        if self.plot and self.command not in ("spectrum", "eig"):
            raise ValueError("--plot is only available for spectrum and eig")
        if self.command in ("spectrum", "eig"):
            # count: eigenvalues per parity; the odd family is the larger
            count = self.count if self.command == "eig" else (self.k_max + 1) // 2
            for grid in (self.grid, self.grid2 or 2 * self.grid):
                if grid < 50 or not 1 <= count <= grid // 4:
                    raise ValueError("need grids >= 50 and 1 <= count <= grid/4")
        if self.command == "modes" and (
                min(self.k_range) < 0
                or not 1 <= self.count <= self.grid // 4):
            raise ValueError("need k >= 0 and 1 <= count <= grid/4")


def _gate(name: str, value: float, threshold: float) -> dict:
    return {"name": name, "value": value, "threshold": threshold,
            "pass": bool(value <= threshold)}


def _fmt(x: float) -> str:
    return _FMT.format(float(x))


def _out_path(cfg: RunConfig, ext: str) -> str:
    return os.path.join(cfg.out_dir, f"{cfg.command}_{cfg.n}.{ext}")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_csv(path: str, header: str, rows: list[str]) -> None:
    _write_text(path, "\r\n".join([header] + rows) + "\r\n")


def _write_json(path: str, config: dict, results, gates: list[dict]) -> None:
    obj = {"config": config, "results": results, "gates": gates}
    _write_text(path, json.dumps(obj, indent=2, sort_keys=False) + "\n")


def _config_dict(cfg: RunConfig) -> dict:
    return {"command": cfg.command, "n": cfg.n, "format": cfg.fmt}


def _gnuplot_script(cfg: RunConfig, csv_name: str) -> str:
    return "\n".join([
        "set datafile separator ','",
        "set key left top",
        "set xlabel 'k'",
        "set ylabel 'lambda'",
        f"set title '{cfg.command} n={cfg.n}'",
        f"plot '{csv_name}' every ::1 using 2:4 with points pt 7 title 'closed form', \\",
        f"     '{csv_name}' every ::1 using 2:7 with points pt 5 title 'extrapolated'",
        "pause -1",
    ]) + "\n"


def _emit_report(cfg: RunConfig, report, gates: list[dict]) -> None:
    if cfg.fmt == "csv" or cfg.plot:
        _write_csv(_out_path(cfg, "csv"), report.CSV_HEADER, report.csv_rows())
    if cfg.fmt == "json":
        _write_json(_out_path(cfg, "json"), _config_dict(cfg),
                    report.json_obj(), gates)
    if cfg.plot:
        _write_text(_out_path(cfg, "gp"),
                    _gnuplot_script(cfg, os.path.basename(_out_path(cfg, "csv"))))


def _run_table(cfg: RunConfig, report: SpectrumReport) -> int:
    """Emit a spectrum table, gated row by row on rel_err (default 1%)."""
    tol = cfg.tol if cfg.tol is not None else 0.01
    gates = [_gate(f"{cfg.command}_k{e.k}", e.rel_err, tol)
             for e in report.entries]
    _emit_report(cfg, report, gates)
    return 0 if all(g["pass"] for g in gates) else 1


def _run_spectrum(cfg: RunConfig) -> int:
    params = ProfileParams(cfg.n)
    return _run_table(cfg, build_spectrum_report(
        params, cfg.k_max, cfg.grid, cfg.grid2 or 2 * cfg.grid))


def _run_eig(cfg: RunConfig) -> int:
    params = ProfileParams(cfg.n)
    return _run_table(cfg, SpectrumReport(parity_spectrum_entries(
        params, cfg.parity, cfg.count, cfg.grid, cfg.grid2 or 2 * cfg.grid)))


def _run_modes(cfg: RunConfig) -> int:
    params = ProfileParams(1)
    report = ModeReport()
    gates = []
    for k in cfg.k_range:
        vals = mode_spectrum(k, cfg.grid, cfg.count, cfg.matching)
        if k == 0:
            bc = "natural" if cfg.matching == "continuity" else "dirichlet"
            radial = discrete_radial_spectrum(params, bc, cfg.grid, cfg.count)
            dev = float(np.max(np.abs(vals.real - radial)))
            gates.append(_gate("mode0_matches_radial", dev, 1e-10))
        report.entries += [ModeEntry(cfg.n, k, cfg.matching, i,
                                     float(lam.real), float(lam.imag))
                           for i, lam in enumerate(vals)]
    _emit_report(cfg, report, gates)
    return 0 if all(g["pass"] for g in gates) else 1


def _geometry_gates(params: ProfileParams, tol_fd: float) -> list[dict]:
    rng = np.random.default_rng(11)
    worst_norm = 0.0
    worst_supp = 0.0
    for _ in range(100):
        z = rng.normal(size=2 * params.n)
        z *= rng.uniform(0.05, 0.999) / np.linalg.norm(z)
        nu = horizontal_normal(z, +1)
        worst_norm = max(worst_norm, abs(float(nu @ nu) - 1.0))
        worst_supp = max(worst_supp, abs(float(z @ nu) - float(z @ z)))
    gates = [
        _gate("unit_normal", worst_norm, 1e-14),
        _gate("support_function", worst_supp, 1e-14),
        _gate("mean_curvature", mean_curvature_check(params, 100), tol_fd),
        _gate("omega_normal_derivative",
              omega_bar_normal_deriv_check(params, 100), tol_fd),
    ]
    if params.n == 1:
        gates.append(_gate("geodesic_meridian",
                           profile_geodesic_residual(params, 10_000), tol_fd))
    return gates


def _run_verify(cfg: RunConfig) -> int:
    params = ProfileParams(cfg.n)
    gates: list[dict] = []
    results = []
    if cfg.suite == "identities":
        tol = cfg.tol if cfg.tol is not None else 1e-5
        results = verify_identities(params, sample_count=100)
        gates = [_gate(item["lemma"], item["max_deviation"], tol)
                 for item in results]
    elif cfg.suite == "green":
        tol = cfg.tol if cfg.tol is not None else 1e-6
        for i, tr in enumerate(default_green_radial_trials()):
            gates.append(_gate(f"green_radial_{i}", green_check(tr, params), tol))
        if params.n == 1:
            for i, tr in enumerate(default_green_polar_trials()):
                gates.append(_gate(f"green_polar_{i}", green_check(tr, params),
                                   tol))
        trs = default_green_radial_trials()
        gates.append(_gate("green_symmetry",
                           green_symmetry_residual(trs[0], trs[2], params), tol))
    elif cfg.suite == "orthogonality":
        tol = cfg.tol if cfg.tol is not None else 1e-8
        rule = profile_rule(params, 64)
        modes = [radial_eigenfunction(k, params, rule) for k in range(1, 9)]
        G = gram_matrix(modes, rule)
        off = float(np.max(np.abs(G - np.eye(len(modes)))))
        gates.append(_gate("gram_identity", off, tol))
    elif cfg.suite == "geometry":
        tol = cfg.tol if cfg.tol is not None else 1e-6
        gates = _geometry_gates(params, tol)
    _write_json(_out_path(cfg, "json"), _config_dict(cfg), results, gates)
    return 0 if all(g["pass"] for g in gates) else 1


def _run_poincare(cfg: RunConfig) -> int:
    params = ProfileParams(cfg.n)
    mu, cp = poincare_constant_estimate(params, cfg.grid,
                                        include_modes=cfg.full)
    results = [{"mu": mu, "poincare_constant": cp,
                "radial_only": not cfg.full,
                "exploratory": bool(cfg.full)}]
    if cfg.fmt == "csv":
        header = "n,mu,poincare_constant,radial_only"
        rows = [",".join([str(cfg.n), _fmt(mu), _fmt(cp),
                          str(not cfg.full).lower()])]
        _write_csv(_out_path(cfg, "csv"), header, rows)
    else:
        _write_json(_out_path(cfg, "json"), _config_dict(cfg), results, [])
    return 0


def _run_geodesic(cfg: RunConfig) -> int:
    n = cfg.n
    z0 = np.zeros(2 * n)
    p0 = np.zeros(2 * n)
    p0[0] = 1.0
    start = GeodesicState(z=z0, t=-math.pi / 8.0, p_h=p0, p_last=cfg.plast)
    states = geodesic_trace(cfg.plast, cfg.smax, cfg.steps, start)
    zs = [f"z{i + 1}" for i in range(2 * n)]
    ps = [f"p{i + 1}" for i in range(2 * n)]
    header = ",".join(["s"] + zs + ["t"] + ps + ["plast"])
    h = cfg.smax / cfg.steps
    rows = []
    for i, st in enumerate(states):
        vals = ([i * h] + list(st.z) + [st.t] + list(st.p_h) + [st.p_last])
        rows.append(",".join(_fmt(v) for v in vals))
    _write_csv(_out_path(cfg, "csv"), header, rows)
    return 0


_RUNNERS = {
    "spectrum": _run_spectrum,
    "eig": _run_eig,
    "modes": _run_modes,
    "verify": _run_verify,
    "poincare": _run_poincare,
    "geodesic": _run_geodesic,
}


def run(config: RunConfig) -> int:
    """Validate and execute; never starts computation on a bad config."""
    try:
        config.validate()
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return _RUNNERS[config.command](config)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def _parse_k_range(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(tok) for tok in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hprofile",
        description="Spectra and verification suites for the horizontal "
                    "tangential operator on Heisenberg isoperimetric profiles")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, grid_default=1000):
        p.add_argument("--n", type=int, default=1)
        p.add_argument("--grid", type=int, default=grid_default)
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="csv")
        p.add_argument("--out", dest="out_dir",
                       default=os.environ.get("HPROFILE_OUT_DIR", "."))
        p.add_argument("--plot", action="store_true")
        p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("spectrum", help="closed-form vs discrete spectrum table")
    common(p)
    p.add_argument("--k-max", dest="k_max", type=int, default=5)
    p.add_argument("--grid2", type=int, default=0)

    p = sub.add_parser("eig", help="discrete eigenvalues for one parity class")
    common(p)
    p.add_argument("--parity", choices=("even", "odd"), default="even")
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--grid2", type=int, default=0)

    p = sub.add_parser("modes", help="Fourier-mode eigenvalue tables (H^1)")
    common(p, grid_default=400)
    p.add_argument("--k", dest="k_range", type=_parse_k_range, default=(0, 1, 2))
    p.add_argument("--matching", choices=("continuity", "antisymmetry"),
                   default="continuity")
    p.add_argument("--count", type=int, default=6)

    p = sub.add_parser("verify", help="numerical verification suites")
    common(p)
    p.add_argument("--suite", choices=("identities", "green", "orthogonality",
                                       "geometry"), default="identities")

    p = sub.add_parser("poincare", help="Poincare constant estimate")
    common(p)
    p.add_argument("--full", action="store_true",
                   help="include exploratory k >= 1 Fourier minima (H^1)")

    p = sub.add_parser("geodesic", help="CC-geodesic trace as CSV")
    common(p)
    p.add_argument("--plast", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--smax", type=float, default=math.pi)

    return ap


def main(argv: list[str] | None = None) -> int:
    ns = _build_parser().parse_args(argv)
    kwargs = {k: v for k, v in vars(ns).items() if v is not None}
    cfg = RunConfig(**kwargs)
    cfg.tol = ns.tol
    code = run(cfg)
    if code == 0:
        print(f"{cfg.command}: ok")
    return code


if __name__ == "__main__":
    sys.exit(main())
