"""Command-line surface: spectra, verification suites, mode studies,
Poincare estimates and geodesic traces, with CSV/JSON/gnuplot output.

Each subcommand is one entry of COMMANDS: its runner, the RunConfig fields
it reads with their defaults, and the formats it writes.  The argparse
subcommands, RunConfig's defaults and RunConfig.validate are all built from
that table, so a subcommand takes exactly the flags it reads.  Every runner
returns one _Table, its artifact, and run alone writes it.

Exit codes: 0 success, 1 failed verification gate (each failed gate is
named on stderr), 2 configuration error, 3 I/O error.  All output is
byte-stable across repeated runs.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, astuple, dataclass, field, fields
from typing import Callable, Sequence

import numpy as np

from .geometry import (GeodesicState, ProfileParams, _random_interior_points,
                       geodesic_trace, horizontal_normal, mean_curvature_check,
                       omega_bar_normal_deriv_check,
                       profile_geodesic_residual)
from .numerics import profile_rule
from .operators import verify_identities
from .spectrum import (_WORKSPACE_LIMIT, check_mode_solve, check_radial_solve,
                       default_green_polar_trials,
                       default_green_radial_trials, discrete_radial_spectrum,
                       gram_matrix, green_check, green_symmetry_residual,
                       matching_bc, mode_spectrum, poincare_constant_estimate,
                       radial_eigenfunction, radial_eigenvalue, richardson)

__all__ = ["RunConfig", "run", "main"]

# Default gate tolerance of each verify suite.
_SUITE_TOL = {"identities": 1e-5, "green": 1e-6, "orthogonality": 1e-12,
              "geometry": 1e-6}


def _trace_floats(n: int, steps: int) -> int:
    """Floats a geodesic run holds, an upper bound: 2 (4n + 3) + 25 a
    sample (the trace's 4n + 2 columns, the table's 4n + 3 and the
    temporaries), and 2^18 past them (the formatter's tables and one block
    of cells).  tracemalloc reads 38.1 floats a sample at n = 1, 44.2 at
    n = 2, 105.5 at n = 12 and 326 at n = 40 (20,000 to 500,000 steps), and
    at most 175,711 floats past the samples counted."""
    return (steps + 1) * (2 * (4 * n + 3) + 25) + 2 ** 18


# "lo..hi" as a range, never built: validate reads its bounds in O(1) memory
def _parse_k_range(text: str) -> Sequence[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
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
    parity: str | None = _flag("--parity", choices=("even", "odd"))
    k_range: Sequence[int] | None = _flag("--k", type=_parse_k_range)
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
        # poincare --full adds the Fourier-mode minima to the radial ones
        if self.n != 1 and (self.command == "modes" or self.full):
            raise ValueError("mode studies are only defined on H^1 (n = 1)")
        params, ks = ProfileParams(self.n), self.k_range
        # each solve the command runs; spectrum's larger family is the odd one
        if self.command in ("spectrum", "eig"):
            count = self.count or (self.k_max + 1) // 2
            for g in (self.grid, 2 * self.grid):
                check_radial_solve(params, g, count)
        if self.suite in ("green", "orthogonality"):
            params.sphere_area   # weighs their integrals; refuses n > 171
        if self.command == "poincare" or self.command == "modes" and 0 in ks:
            check_radial_solve(params, self.grid, self.count or 1)
        if self.command == "modes":
            if not ks:
                raise ValueError("need one or more Fourier indices k >= 0")
            # a range's bounds: min and max would iterate it
            for k in ((ks[0], ks[-1]) if isinstance(ks, range)
                      else (min(ks), max(ks))):
                check_mode_solve(k, self.grid, self.count)
        if self.command == "geodesic":
            need = 8 * _trace_floats(self.n, self.steps)
            if need > _WORKSPACE_LIMIT:
                raise ValueError(
                    f"{self.steps} geodesic steps at n = {self.n} need about "
                    f"{need >> 20} MiB of trace memory (limit "
                    f"{_WORKSPACE_LIMIT >> 20} MiB)")
        if not os.path.isdir(self.out_dir):
            raise ValueError(f"--out {self.out_dir} is not a directory")


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


@dataclass(frozen=True)
class _Table:
    """A command's artifact: CSV header line, and its CSV rows and JSON
    results as calls that build them, so only the written ones are built."""

    header: str
    csv: Callable[[], list[str]]
    json: Callable[[], list]


def _cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _entry_table(kind: type, entries: list) -> _Table:
    """One column per field of the dataclass kind, one row per entry."""
    return _Table(",".join(f.name for f in fields(kind)),
                  lambda: [",".join(map(_cell, astuple(e))) for e in entries],
                  lambda: [asdict(e) for e in entries])


# --- %.17g of a float table in array passes -----------------------------------
# A finite x with 1e-5 <= |x| < 1e17 gets its exponent k and its 17 significant
# digits D = round-half-even(|x| 10^(16 - k)) in [10^16, 10^17) exactly, and %g
# writes it in fixed notation when -4 <= k <= 16.  A zero is "0" or "-0".
# Every other cell (exponent notation, subnormal, inf, nan) is Python's
# "%.17g" % x, so each cell is the text of %.17g under any numpy build.
#
# A cell is laid out in six uint64 words, 48 bytes that hold every character
# its text can use, each word taken from _text_words():
#   0       "-"
#   1..5    "0.000"                       the lead of 0 < |x| < 1
#   6..39   d0 "." d1 "." ... d16 "."     each digit followed by a point
#   40..47  "," or "\r\n" after the cell, nothing after a block's last
# A fallback's text, at most 24 bytes, overwrites bytes 0..23.  The cell's
# layout zeroes the bytes its text does not keep, and the zero bytes are
# then dropped.  The lookup tables are built on first use, so a process that
# formats no float table does not take their 1 MB of peak RSS.

_FALLBACK_WORDS = 3         # len("-2.2250738585072014e-308") = 24 bytes
# Cells per block of rows.  A block takes about 220 bytes of workspace a
# cell (tracemalloc), 1.8 MB at 2^13; the n = 1 and n = 40 geodesic tables
# were formatted slower in blocks of 2^12 and 2^14 cells.
_FORMAT_CELLS = 2 ** 13
_P10 = np.array([float(10 ** p) for p in range(23)])    # exact doubles
_SPLIT = 2.0 ** 27 + 1.0


def _words(data: bytes) -> np.ndarray:
    """Bytes as native uint64 words, 8 bytes a word."""
    return np.frombuffer(data, np.uint8).view(np.uint64)


@functools.cache
def _text_words() -> np.ndarray:
    """The four digits of 0..9999, each followed by a point; then word 0
    for d0 = 0..9; then ",", "\\r\\n" and nothing."""
    q = np.arange(10_000)
    quads = np.full((10_000, 8), ord("."), np.uint8)
    quads[:, 0::2] = np.stack([q // 1000, q // 100 % 10, q // 10 % 10,
                               q % 10], 1) + ord("0")
    return np.concatenate([
        quads.view(np.uint64).ravel(),
        _words(b"".join(b"-0.000%d." % d for d in range(10))),
        _words(b",".ljust(8, b"\0") + b"\r\n".ljust(8, b"\0") + bytes(8))])


_LEAD, _COMMA, _CRLF, _END = 10_000, 10_010, 10_011, 10_012


@functools.cache
def _quad_zeros() -> np.ndarray:
    """The trailing zeros of the four digits of 0..9999 (4 for 0000)."""
    return sum((np.arange(10_000) % 10 ** j == 0).astype(np.intp)
               for j in range(1, 5))


def _veltkamp(a):
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


_P10_HI, _P10_LO = _veltkamp(_P10)


def _round_scaled(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """round-half-even(a 10^p) as int64, for 0 <= p <= 22: exact when the
    product is at least 2^53, within 1 below it."""
    y = a * _P10.take(p)
    ah, al = _veltkamp(a)
    bh, bl = _P10_HI.take(p), _P10_LO.take(p)
    # Dekker's TwoProduct: y + err is a 10^p exactly
    err = al * bl - (((y - ah * bh) - al * bh) - ah * bl)
    # y >= 2^53 is an even integer, so rint's ties to even are D's
    return y.astype(np.int64) + np.rint(err).astype(np.int64)


def _exponent_digits(a: np.ndarray):
    """k and D = round-half-even(a 10^(16 - k)) for 1e-5 <= a < 1e17: the
    exponent and digits of "%.16e" % a, or k = -7 where they were not found.

    The exponent is floor(log10 a), unless D rounds up to 10^17, or D is
    10^16 at k + 1 as well.  Both need a within 5e-17 of a power of ten 10^j
    below it, and no double is: 10^j is a double for 0 <= j <= 17, and the
    nearest doubles to 10^j for -4 <= j <= -1 lie above it, with the next
    double down 8e-17 of it or more below."""
    k = np.floor(np.log10(a)).astype(np.int64)
    np.minimum(k, 16, out=k)     # and k >= -6 from a >= 1e-5
    D = _round_scaled(a, 16 - k)
    # np.log10 may miss floor(log10 a) by one beside a power of ten
    i = np.flatnonzero((D < 10 ** 16) | (D >= 10 ** 17))
    if i.size:
        ki = np.clip(k[i] + np.where(D[i] < 10 ** 16, -1, 1), -6, 16)
        Di = _round_scaled(a[i], 16 - ki)
        lost = (Di < 10 ** 16) | (Di >= 10 ** 17)
        ki[lost], Di[lost] = -7, 10 ** 16
        k[i], D[i] = ki, Di
    return k, D


def _fixed_notation(a: np.ndarray, words: np.ndarray, rows) -> np.ndarray:
    """The layout of each a > 0 in fixed notation, or -1 where %g writes it
    otherwise; its words 0..4 go to the rows of words."""
    k, D = _exponent_digits(a)
    d0 = D // 10 ** 16
    rest = D - d0 * 10 ** 16
    hi = rest // 10 ** 8
    lo = rest - hi * 10 ** 8
    q1, q3 = hi // 10 ** 4, lo // 10 ** 4
    q4 = lo - q3 * 10 ** 4
    quads = (q1, hi - q1 * 10 ** 4, q3, q4)
    words[rows, 0] = _LEAD + d0
    for j, q in enumerate(quads, 1):
        words[rows, j] = q
    zeros = _quad_zeros().take(q4)
    i = np.flatnonzero(zeros == 4)
    for q in quads[2::-1]:
        more = _quad_zeros().take(q[i])
        zeros[i] += more
        i = i[more == 4]
    return np.where(k >= -4, (k + 4) * 17 + 16 - zeros, -1)


_ZERO = 21 * 17


@functools.cache
def _layouts() -> np.ndarray:
    """The bytes each layout keeps, as 0xff bytes in six words: row
    2 layout + (x < 0).  Layouts: (k + 4) 17 + last for fixed notation with
    the last nonzero digit d_last, _ZERO for zero and _ZERO + L for a
    fallback text of L bytes."""
    col = np.arange(48)
    k = np.arange(-4, 17)[:, None, None]
    last = np.arange(17)[:, None]
    digit = (col >= 6) & (col < 40) & (col % 2 == 0)
    fixed = digit & ((col - 6) // 2 <= np.maximum(k, last))
    fixed = fixed | (col == 7 + 2 * k) & (k >= 0) & (k < last)
    fixed = fixed | (k < 0) & (col >= 1) & (col < 2 - k)
    unsigned = np.concatenate([
        fixed.reshape(-1, 48), (col == 1)[None],
        col < np.arange(1, 8 * _FALLBACK_WORDS + 1)[:, None]])
    unsigned[:, 40:] = True
    signed = unsigned.copy()
    signed[:_ZERO + 1, 0] = True
    keep = np.stack([unsigned, signed], axis=1).reshape(-1, 48)
    return (keep * np.uint8(0xff)).view(np.uint64)


def _g17_block(x: np.ndarray, cols: int) -> str:
    """The whole rows of x (row-major, cols a row) as "%.17g" cells joined by
    "," within a row and by "\\r\\n" between rows."""
    m = x.size
    a = np.abs(x)
    words = np.full((m, 6), _LEAD)
    ends = words.reshape(-1, cols, 6)[:, :, 5]
    ends[:, :-1] = _COMMA
    ends[:, -1] = _CRLF
    ends[-1, -1] = _END
    layout = np.where(x == 0, _ZERO, -1)
    rows = np.flatnonzero((a >= 1e-5) & (a < 1e17))   # finite, normal
    if rows.size == m:
        rows = slice(None)
    layout[rows] = _fixed_notation(a[rows], words, rows)
    text = _text_words().take(words)
    other = np.flatnonzero(layout < 0)
    if other.size:
        values, inverse = np.unique(x[other], return_inverse=True)
        cells = ["%.17g" % v for v in values.tolist()]
        text[other, :_FALLBACK_WORDS] = _words(
            "".join(c.ljust(8 * _FALLBACK_WORDS) for c in cells).encode()
        ).reshape(-1, _FALLBACK_WORDS)[inverse]
        layout[other] = _ZERO + np.array([len(c) for c in cells])[inverse]
    text &= _layouts().take(2 * layout + np.signbit(x), axis=0)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _g17_rows(table: np.ndarray) -> list[str]:
    """The rows of a float table as "%.17g" cells joined by ",", in blocks of
    rows holding at most _FORMAT_CELLS cells: each block is one string of
    rows joined by "\\r\\n", as the CSV joins the blocks."""
    rows, cols = table.shape
    per_block = max(1, _FORMAT_CELLS // cols)
    return [_g17_block(table[i:i + per_block].ravel(), cols)
            for i in range(0, rows, per_block)]


def _emit_report(cfg: RunConfig, fmt: str, table: _Table, gates: list) -> None:
    """Write the table as fmt, and as CSV with a gnuplot script under plot."""
    stem = f"{cfg.command}_{cfg.n}"
    files = {}
    if fmt == "csv" or cfg.plot:
        files["csv"] = "\r\n".join([table.header, *table.csv()]) + "\r\n"
    if fmt == "json":
        config = {"command": cfg.command, "n": cfg.n, "format": fmt}
        obj = {"config": config, "results": table.json(), "gates": gates}
        files["json"] = json.dumps(obj, indent=2, sort_keys=False) + "\n"
    if cfg.plot:
        files["gp"] = _GNUPLOT.format(command=cfg.command, n=cfg.n,
                                      csv=f"{stem}.csv")
    for ext, text in files.items():
        path = os.path.join(cfg.out_dir, f"{stem}.{ext}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


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


@dataclass(frozen=True)
class ModeEntry:
    n: int
    k: int
    matching: str
    index: int
    lambda_re: float
    lambda_im: float


@dataclass(frozen=True)
class PoincareEntry:
    n: int
    mu: float
    poincare_constant: float
    radial_only: bool


def parity_spectrum_entries(params: ProfileParams, parity: str, count: int,
                            grid: int) -> list[SpectrumEntry]:
    """Closed-form vs two-grid rows (grids `grid` and 2 `grid`, as richardson
    assumes) for the lowest `count` modes of a parity: even k = 2, 4, ...
    from the natural pencil, odd k = 1, 3, ... from the Dirichlet one."""
    if count < 1:
        return []
    bc = "natural" if parity == "even" else "dirichlet"
    l1 = discrete_radial_spectrum(params, bc, grid, count)
    l2 = discrete_radial_spectrum(params, bc, 2 * grid, count)
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


def _rel_err_gates(cfg: RunConfig, entries: list[SpectrumEntry]):
    """A spectrum table, gated row by row on rel_err (default 1%)."""
    tol = cfg.tol if cfg.tol is not None else 0.01
    return _entry_table(SpectrumEntry, entries), [
        _gate(f"{cfg.command}_k{e.k}", e.rel_err, tol) for e in entries]


def _run_spectrum(cfg: RunConfig):
    """Closed-form vs two-grid rows for k = 1..k_max."""
    params = ProfileParams(cfg.n)
    odd = parity_spectrum_entries(params, "odd", (cfg.k_max + 1) // 2, cfg.grid)
    even = parity_spectrum_entries(params, "even", cfg.k_max // 2, cfg.grid)
    return _rel_err_gates(cfg, sorted(odd + even, key=lambda e: e.k))


def _run_eig(cfg: RunConfig):
    return _rel_err_gates(cfg, parity_spectrum_entries(
        ProfileParams(cfg.n), cfg.parity, cfg.count, cfg.grid))


# The roundoff of the k = 0 comparison, the tridiagonal mode solve against
# the radial one, is the larger of a part that grows like ||A||_2, about 1.9
# grid^2 (measured at most 1.9e-12 max(1, (grid / 400)^2) over grids
# 100..8000, both matching classes, counts 1 and 6), and a part of each
# value's own size, measured at most 82.5 eps lambda over grids 100..3200
# and counts up to grid / 4.  Each row is gated at the larger of
# _MODE0_TOL max(1, (grid / 400)^2) and _MODE0_EPS eps lambda, 3.1 times
# the second part; below lambda of about 176 max(1, (grid / 400)^2), every
# row of a count-6 solve included, the first one rules alone.
_MODE0_TOL = 1e-11
_MODE0_EPS = 256.0


def _run_modes(cfg: RunConfig):
    params = ProfileParams(1)
    base = _MODE0_TOL * max(1, (cfg.grid / 400) ** 2)
    entries, gates = [], []
    for k in cfg.k_range:
        vals = mode_spectrum(k, cfg.grid, cfg.count, cfg.matching)
        if k == 0:
            radial = discrete_radial_spectrum(params, matching_bc(cfg.matching),
                                              cfg.grid, cfg.count)
            dev = np.abs(vals.real - radial)
            tol = (np.full(len(dev), cfg.tol) if cfg.tol is not None else
                   np.maximum(base, _MODE0_EPS * np.finfo(float).eps * radial))
            # the row nearest its threshold, which passes only if all do
            row = int(np.argmax(dev / tol))
            gates.append(_gate("mode0_matches_radial", float(dev[row]),
                               float(tol[row])))
        entries += [ModeEntry(cfg.n, k, cfg.matching, i,
                              float(lam.real), float(lam.imag))
                    for i, lam in enumerate(vals)]
    return _entry_table(ModeEntry, entries), gates


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
        # the normal distance reads 3.9e-16 to 4.4e-16 from 1e3 to 1e6
        # samples, and a trace error of 1e-13 shows in full
        gates.append(_gate("geodesic_meridian",
                           profile_geodesic_residual(params, 10_000), 1e-14))
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
        modes = [radial_eigenfunction(k, params) for k in range(1, 9)]
        G = gram_matrix(modes, profile_rule(params, 64))
        gates = [_gate("gram_identity",
                       float(np.max(np.abs(G - np.eye(len(modes))))), tol)]
    else:
        gates = _geometry_gates(params, tol)
    return _Table("", list, lambda: results), gates


def _run_poincare(cfg: RunConfig):
    params = ProfileParams(cfg.n)
    mu, cp = poincare_constant_estimate(params, cfg.grid,
                                        include_modes=cfg.full)
    table = _entry_table(PoincareEntry,
                         [PoincareEntry(cfg.n, mu, cp, not cfg.full)])
    if cfg.full:
        return table, []    # exploratory: no closed form to gate against
    # the radial mu is lambda_1 = 2n + 1, of the first (odd) mode
    tol = cfg.tol if cfg.tol is not None else 0.01
    first = radial_eigenvalue(1, params)
    return table, [_gate("poincare_radial", abs(mu - first) / first, tol)]


def _run_geodesic(cfg: RunConfig):
    dim = 2 * cfg.n
    start = GeodesicState(z=np.zeros(dim), t=-math.pi / 8.0,
                          p_h=np.eye(1, dim)[0], p_last=cfg.plast)
    # The trace is exact, so it fails only by leaving float range: the gate
    # counts the non-finite values of z, t and p_h, and numpy's overflow
    # warnings are not printed on top of the gate line.
    with np.errstate(over="ignore", invalid="ignore"):
        path = geodesic_trace(cfg.plast, cfg.smax, cfg.steps, start)
    bad = sum(int(np.count_nonzero(~np.isfinite(v)))
              for v in (path.z, path.t, path.p_h))
    header = ",".join(["s", *(f"z{i}" for i in range(1, dim + 1)), "t",
                       *(f"p{i}" for i in range(1, dim + 1)), "plast"])
    table = np.column_stack([path.s, path.z, path.t, path.p_h,
                             np.full(len(path), path.p_last)])
    return (_Table(header, lambda: _g17_rows(table), list),
            [_gate("finite_trace", bad, 0)])


@dataclass(frozen=True)
class _Command:
    """One subcommand: runner(cfg) -> (_Table, gates); the RunConfig fields
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
        {"k_max": 5, "grid": 1000, "tol": None, "plot": False}),
    "eig": _Command(
        _run_eig, "discrete eigenvalues for one parity class",
        {"parity": "even", "count": 4, "grid": 1000, "tol": None,
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
