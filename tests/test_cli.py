"""CLI surface: file schemas, gate semantics, exit codes, determinism."""
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hprofile.cli import (COMMANDS, RunConfig, _build_parser, _g17_rows,
                          _trace_floats, main, run)
from hprofile.geometry import GeodesicPath, GeodesicState, ProfileParams
from hprofile.spectrum import discrete_radial_spectrum


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# --- spectrum ---------------------------------------------------------------

def test_spectrum_csv_closed_forms(tmp_path):
    cfg = RunConfig(command="spectrum", n=1, k_max=5, grid=300,
                    out_dir=str(tmp_path))
    assert run(cfg) == 0
    lines = _read(tmp_path / "spectrum_1.csv").decode().splitlines()
    assert lines[0] == ("n,k,parity_or_mode,lambda_closed,lambda_grid1,"
                        "lambda_grid2,lambda_extrap,rel_err")
    closed = [float(line.split(",")[3]) for line in lines[1:]]
    assert closed == [3.0, 8.0, 15.0, 24.0, 35.0]


def test_spectrum_entries_sorted_by_lambda(tmp_path):
    cfg = RunConfig(command="spectrum", n=2, k_max=6, grid=300,
                    out_dir=str(tmp_path))
    assert run(cfg) == 0
    lines = _read(tmp_path / "spectrum_2.csv").decode().splitlines()[1:]
    closed = [float(line.split(",")[3]) for line in lines]
    assert closed == sorted(closed)


def test_spectrum_plot_emits_gnuplot(tmp_path):
    cfg = RunConfig(command="spectrum", n=1, k_max=3, grid=200,
                    out_dir=str(tmp_path), plot=True)
    assert run(cfg) == 0
    script = _read(tmp_path / "spectrum_1.gp").decode()
    assert "plot 'spectrum_1.csv'" in script


def test_spectrum_k_max_1_writes_the_one_odd_row(tmp_path):
    # the even family has no row below k = 2
    assert main(["spectrum", "--k-max", "1", "--grid", "200",
                 "--out", str(tmp_path)]) == 0
    [row] = _read(tmp_path / "spectrum_1.csv").decode().splitlines()[1:]
    assert row.split(",")[:3] == ["1", "1", "odd"]


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for out in (a, b):
        cfg = RunConfig(command="spectrum", n=1, k_max=4, grid=250,
                        out_dir=str(out), fmt="json")
        assert run(cfg) == 0
    assert _read(a / "spectrum_1.json") == _read(b / "spectrum_1.json")


# --- eig ---------------------------------------------------------------------

def test_eig_json_gates_pass(tmp_path):
    cfg = RunConfig(command="eig", n=1, parity="odd", grid=500, count=3,
                    fmt="json", out_dir=str(tmp_path))
    assert run(cfg) == 0
    doc = json.loads(_read(tmp_path / "eig_1.json"))
    assert doc["config"]["command"] == "eig"
    assert [g["name"] for g in doc["gates"]] == ["eig_k1", "eig_k3", "eig_k5"]
    assert all(g["pass"] for g in doc["gates"])


def test_spectrum_gate_failure_gives_exit_1(tmp_path):
    assert main(["spectrum", "--tol", "1e-15", "--grid", "200", "--k-max", "3",
                 "--format", "json", "--out", str(tmp_path)]) == 1
    doc = json.loads(_read(tmp_path / "spectrum_1.json"))
    assert [g["name"] for g in doc["gates"]] == [
        "spectrum_k1", "spectrum_k2", "spectrum_k3"]
    assert not any(g["pass"] for g in doc["gates"])


@pytest.mark.parametrize("n", [12, 40, 50])
def test_spectrum_large_n_is_right(tmp_path, n):
    # the cell-centred pencil was 21-24% off at n = 12, with a spurious value;
    # at n = 50 the pole conductance of grid 2000 is subnormal
    assert main(["spectrum", "--n", str(n), "--grid", "1000", "--k-max", "8",
                 "--format", "json", "--out", str(tmp_path)]) == 0
    rows = json.loads(_read(tmp_path / f"spectrum_{n}.json"))["results"]
    assert len(rows) == 8 and max(r["rel_err"] for r in rows) <= 1e-8


def test_spectrum_fine_grid_is_relatively_accurate(tmp_path):
    # bisection's absolute eps ||A|| ~ eps h^-2 read 9.6e-7 here
    assert main(["spectrum", "--n", "1", "--grid", "80000", "--k-max", "3",
                 "--format", "json", "--out", str(tmp_path)]) == 0
    rows = json.loads(_read(tmp_path / "spectrum_1.json"))["results"]
    assert len(rows) == 3 and max(r["rel_err"] for r in rows) <= 1e-12


def test_eig_json_shares_the_spectrum_rows(tmp_path):
    assert main(["eig", "--parity", "odd", "--count", "3", "--grid", "400",
                 "--format", "json", "--out", str(tmp_path)]) == 0
    eig = json.loads(_read(tmp_path / "eig_1.json"))["results"]
    assert all(isinstance(row[key], (int, float)) for row in eig
               for key in row if key != "parity_or_mode")
    assert main(["spectrum", "--k-max", "6", "--grid", "400",
                 "--format", "json", "--out", str(tmp_path)]) == 0
    spec = json.loads(_read(tmp_path / "spectrum_1.json"))["results"]
    assert eig == [row for row in spec if row["parity_or_mode"] == "odd"]


def test_eig_gate_failure_gives_exit_1(tmp_path):
    cfg = RunConfig(command="eig", n=1, parity="even", grid=200, count=2,
                    out_dir=str(tmp_path), tol=1e-12)
    assert run(cfg) == 1      # absurd tolerance cannot be met on this grid


# --- modes ---------------------------------------------------------------------

def test_modes_k0_matches_radial_gate(tmp_path):
    cfg = RunConfig(command="modes", n=1, k_range=(0, 1), grid=200, count=3,
                    fmt="json", out_dir=str(tmp_path))
    assert run(cfg) == 0
    doc = json.loads(_read(tmp_path / "modes_1.json"))
    gate = doc["gates"][0]
    assert gate["name"] == "mode0_matches_radial"
    assert gate["pass"] and gate["value"] <= 1e-10


def test_modes_json_results_are_numbers(tmp_path):
    for fmt in ("csv", "json"):
        assert main(["modes", "--k", "0,1", "--grid", "100", "--count", "2",
                     "--format", fmt, "--out", str(tmp_path)]) == 0
    lines = _read(tmp_path / "modes_1.csv").decode().splitlines()
    rows = json.loads(_read(tmp_path / "modes_1.json"))["results"]
    assert lines[0] == "n,k,matching,index,lambda_re,lambda_im"
    assert [list(r) for r in rows] == [lines[0].split(",")] * 4
    assert [(r["k"], r["index"]) for r in rows] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for line, row in zip(lines[1:], rows):
        re_, im = (float(x) for x in line.split(",")[4:])
        assert row["lambda_re"] == re_ and row["lambda_im"] == im


def test_modes_beyond_the_old_dense_cap(tmp_path):
    assert main(["modes", "--k", "1,2", "--grid", "2000", "--count", "4",
                 "--out", str(tmp_path)]) == 0
    assert len(_read(tmp_path / "modes_1.csv").decode().splitlines()) == 9


def test_modes_k0_gate_scales_with_the_grid(tmp_path):
    # roundoff of the k = 0 comparison exceeds 1e-11 at grid 3200 (1.5e-11)
    assert main(["modes", "--k", "0", "--grid", "3200", "--format", "json",
                 "--out", str(tmp_path)]) == 0
    gate = json.loads(_read(tmp_path / "modes_1.json"))["gates"][0]
    assert gate["threshold"] == pytest.approx(6.4e-10, rel=1e-15)
    assert 1e-11 < gate["value"] <= gate["threshold"] / 5


def test_modes_k0_gate_admits_the_roundoff_of_high_rows(tmp_path):
    # the top rows (lambda up to 2499) carry about eps lambda of roundoff:
    # 1.27e-11 against the 1e-11 that holds for the low rows alone
    assert main(["modes", "--k", "0", "--count", "25", "--grid", "400",
                 "--matching", "antisymmetry", "--format", "json",
                 "--out", str(tmp_path)]) == 0
    gate = json.loads(_read(tmp_path / "modes_1.json"))["gates"][0]
    assert gate["pass"] and gate["value"] <= gate["threshold"] / 3


@pytest.mark.parametrize("row", [-1, 12])
def test_modes_k0_gate_catches_a_high_row_off_by_1e12(monkeypatch, tmp_path,
                                                      row):
    def shifted(*args):
        vals = discrete_radial_spectrum(*args)
        vals[row] *= 1.0 + 1e-12
        return vals

    monkeypatch.setattr("hprofile.cli.discrete_radial_spectrum", shifted)
    assert main(["modes", "--k", "0", "--count", "25", "--grid", "400",
                 "--matching", "antisymmetry", "--format", "json",
                 "--out", str(tmp_path)]) == 1
    gate = json.loads(_read(tmp_path / "modes_1.json"))["gates"][0]
    assert not gate["pass"] and gate["threshold"] > 1e-11


def test_modes_tol_overrides_the_k0_gate(tmp_path):
    assert main(["modes", "--k", "0", "--grid", "200", "--count", "2",
                 "--tol", "1e-14", "--out", str(tmp_path)]) == 1


def test_modes_rejects_higher_n():
    cfg = RunConfig(command="modes", n=2)
    assert run(cfg) == 2


# --- verify ---------------------------------------------------------------------

@pytest.mark.parametrize("suite", ["identities", "green", "orthogonality",
                                   "geometry"])
def test_verify_suites_pass(tmp_path, suite):
    cfg = RunConfig(command="verify", n=1, suite=suite, out_dir=str(tmp_path))
    assert run(cfg) == 0
    doc = json.loads(_read(tmp_path / "verify_1.json"))
    assert doc["gates"] and all(g["pass"] for g in doc["gates"])


def test_orthogonality_at_large_n_is_exact_to_roundoff(tmp_path):
    # the Jacobi recurrence keeps every mode to roundoff at c = 100.5
    cfg = RunConfig(command="verify", n=100, suite="orthogonality",
                    out_dir=str(tmp_path))
    assert run(cfg) == 0
    [gate] = json.loads(_read(tmp_path / "verify_100.json"))["gates"]
    assert gate["name"] == "gram_identity" and gate["value"] <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
def test_algebraic_geometry_gates_reach_the_equator(monkeypatch, n):
    import hprofile.cli as cli
    sampler, drawn = cli._random_interior_points, []

    def recording(*args):
        drawn.append(sampler(*args))
        return drawn[-1]
    monkeypatch.setattr(cli, "_random_interior_points", recording)
    gates = {g["name"]: g for g in cli._geometry_gates(ProfileParams(n), 1e-6)}
    assert gates["unit_normal"]["pass"] and gates["support_function"]["pass"]
    [z] = drawn
    radii = np.linalg.norm(z, axis=1)
    assert len(radii) == 100 and radii.max() > 0.99
    assert 0.05 <= radii.min() and radii.max() <= 0.999


@pytest.mark.parametrize("p_scale, z_scale, dt0", [
    (1.0 + 1e-12, 1.0, 0.0), (1.0, 1.0 + 1e-12, 0.0),
    (1.0, 1.0 - 1e-12, 0.0), (1.0, 1.0, 1e-13)])
def test_meridian_gate_fails_a_trace_error_of_1e_12(monkeypatch, p_scale,
                                                     z_scale, dt0):
    # each passed the old gate, the vertical gap under tol_fd (the p_last
    # error read 7.1e-7, the start height's 5.2e-13); the normal distance
    # reads 1e-13 to 2e-12
    import hprofile.cli as cli
    import hprofile.geometry as geometry
    trace = geometry.geodesic_trace

    def perturbed(p_last, s_max, steps, start):
        start = GeodesicState(start.z, start.t + dt0, start.p_h, start.p_last)
        path = trace(p_last * p_scale, s_max, steps, start)
        return GeodesicPath(path.s, path.z * z_scale, path.t, path.p_h,
                            path.p_last)
    monkeypatch.setattr(geometry, "geodesic_trace", perturbed)
    gates = {g["name"]: g for g in cli._geometry_gates(ProfileParams(1), 1e-6)}
    assert gates["geodesic_meridian"]["value"] >= 5e-14
    assert gates["geodesic_meridian"]["threshold"] == 1e-14
    assert not gates["geodesic_meridian"]["pass"]


def test_verify_json_records_the_format_it_writes(tmp_path):
    cfg = RunConfig(command="verify", n=1, suite="geometry",
                    out_dir=str(tmp_path))
    assert run(cfg) == 0
    doc = json.loads(_read(tmp_path / "verify_1.json"))
    assert doc["config"]["format"] == "json"


def test_verify_gate_failure_exit_code(tmp_path):
    cfg = RunConfig(command="verify", n=1, suite="identities",
                    out_dir=str(tmp_path), tol=1e-18)
    assert run(cfg) == 1


# --- poincare -------------------------------------------------------------------

def test_poincare_radial_csv(tmp_path):
    cfg = RunConfig(command="poincare", n=1, grid=500, out_dir=str(tmp_path))
    assert run(cfg) == 0
    lines = _read(tmp_path / "poincare_1.csv").decode().splitlines()
    assert lines[0] == "n,mu,poincare_constant,radial_only"
    _, mu, cp, flag = lines[1].split(",")
    assert abs(float(mu) - 3.0) <= 0.05
    assert abs(float(cp) - 1.0 / 3.0) <= 0.01
    assert flag == "true"


def test_poincare_full_is_ungated_and_below_the_radial_mu(tmp_path):
    # the Fourier minima join the candidates; with no closed form to gate
    # against, the run has no gates and exits 0
    argv = ["poincare", "--format", "json", "--out", str(tmp_path)]
    assert main(argv) == 0
    radial = json.loads(_read(tmp_path / "poincare_1.json"))
    assert main(argv + ["--full"]) == 0
    doc = json.loads(_read(tmp_path / "poincare_1.json"))
    assert doc["gates"] == []
    (result,) = doc["results"]
    assert result["radial_only"] is False
    assert 0.0 < result["mu"] < radial["results"][0]["mu"]
    assert result["poincare_constant"] == 1.0 / result["mu"]


# Every table command writes the same rows as CSV and as JSON results: the
# CSV header is the JSON keys in order, and each cell is its JSON value.
@pytest.mark.parametrize("argv", [
    ["spectrum", "--k-max", "3", "--grid", "200"],
    ["eig", "--parity", "odd", "--count", "2", "--grid", "200"],
    ["modes", "--k", "0..1", "--count", "2", "--grid", "100"],
    ["poincare", "--grid", "400"],
], ids=lambda argv: argv[0])
def test_json_results_are_the_table_fields(tmp_path, argv):
    for fmt in ("csv", "json"):
        assert main(argv + ["--format", fmt, "--out", str(tmp_path)]) == 0
    stem = f"{argv[0]}_1"
    header, *rows = _read(tmp_path / f"{stem}.csv").decode().splitlines()
    doc = json.loads(_read(tmp_path / f"{stem}.json"))
    assert doc["gates"] and all(gate["pass"] for gate in doc["gates"])
    assert len(doc["results"]) == len(rows) >= 1
    for row, result in zip(rows, doc["results"]):
        assert list(result) == header.split(",")
        for cell, value in zip(row.split(","), result.values(), strict=True):
            if isinstance(value, bool):
                assert cell == str(value).lower()
            else:
                assert type(value)(cell) == value


@pytest.mark.parametrize("fmt,unused", [("json", "_cell"), ("csv", "asdict")])
def test_a_table_is_formatted_only_as_written(tmp_path, monkeypatch, fmt,
                                              unused):
    # CSV cells come from _cell and JSON rows from asdict; a run that writes
    # one format never builds the other
    import hprofile.cli as cli

    def refuse(*args):
        raise AssertionError(f"{unused} called for --format {fmt}")
    monkeypatch.setattr(cli, unused, refuse)
    assert main(["spectrum", "--k-max", "3", "--grid", "200", "--format",
                 fmt, "--out", str(tmp_path)]) == 0
    assert os.listdir(tmp_path) == [f"spectrum_1.{fmt}"]


def test_poincare_radial_mu_is_gated(tmp_path, capsys):
    # mu = 40.7254 against Q - 1 = 41: 0.67% off on this coarse grid
    argv = ["poincare", "--n", "20", "--grid", "50", "--out", str(tmp_path)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--tol", "1e-3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("gate failed: poincare_radial = 0.0066")
    assert err.endswith(" > 0.001\n")


# --- geodesic -------------------------------------------------------------------

def test_geodesic_csv_schema_and_endpoint(tmp_path):
    cfg = RunConfig(command="geodesic", n=1, plast=2.0, steps=2000,
                    smax=math.pi, out_dir=str(tmp_path))
    assert run(cfg) == 0
    lines = _read(tmp_path / "geodesic_1.csv").decode().splitlines()
    assert lines[0] == "s,z1,z2,t,p1,p2,plast"
    assert len(lines) == 2002
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[0] - math.pi) <= 1e-12
    assert abs(last[1]) <= 1e-8 and abs(last[2]) <= 1e-8
    assert abs(last[3] - math.pi / 8.0) <= 1e-8


def test_geodesic_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for out in (a, b):
        cfg = RunConfig(command="geodesic", n=1, steps=500, out_dir=str(out))
        assert run(cfg) == 0
    assert _read(a / "geodesic_1.csv") == _read(b / "geodesic_1.csv")


def _non_finite_trace_values(path, n):
    """Non-finite z, t and p_h cells of a geodesic CSV."""
    lines = _read(path).decode().splitlines()[1:]
    cells = [[float(v) for v in line.split(",")[1:-1]] for line in lines]
    assert all(len(row) == 4 * n + 1 for row in cells)
    return int(np.count_nonzero(~np.isfinite(np.array(cells))))


# The trace is exact at any step count; it fails only by leaving float range:
# at p_last = 5e-324 the area term |P0|^2 (kappa s - sin kappa s) / kappa^2 is
# about kappa s^3 / 6, which overflows for s >= 2.5e307 (t = inf in rows 1..4),
# and at p_last = 1e308 kappa s itself overflows.
@pytest.mark.parametrize("kwargs,code,bad", [
    ({"steps": 1000}, 0, 0),
    ({"n": 2, "steps": 2000}, 0, 0),
    ({"steps": 1}, 0, 0),
    ({"plast": 5e-324, "smax": 1e308, "steps": 4}, 1, 4),
    ({"plast": 1e308}, 1, None),
])
def test_geodesic_finite_trace_gate(tmp_path, capsys, kwargs, code, bad):
    cfg = RunConfig(command="geodesic", out_dir=str(tmp_path), **kwargs)
    assert run(cfg) == code
    err = capsys.readouterr().err
    assert os.listdir(tmp_path) == [f"geodesic_{cfg.n}.csv"]
    count = _non_finite_trace_values(tmp_path / f"geodesic_{cfg.n}.csv",
                                     cfg.n)
    assert (count > 0) == (code == 1)
    if bad is not None:
        assert count == bad
    _, [gate] = COMMANDS["geodesic"].runner(cfg)
    assert gate == {"name": "finite_trace", "value": count, "threshold": 0,
                    "pass": code == 0}
    # the overflow shows only as the failed gate, not as numpy warnings
    assert err == ("" if code == 0 else
                   f"gate failed: finite_trace = {count:.6g} > 0\n")


# Finite --plast / --smax values: zeros of both signs, subnormals, the ends
# of float range and anything between.
_GEODESIC_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]
) | st.floats(allow_nan=False, allow_infinity=False)


@given(n=st.integers(1, 4), steps=st.integers(1, 400),
       plast=_GEODESIC_FLOATS, smax=_GEODESIC_FLOATS)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_accepted_geodesic_configs_pass_or_fail_the_finite_trace_gate(
        tmp_path, capsys, n, steps, plast, smax):
    # "--flag=value", since argparse takes "-1e+308" for an option
    code = main(["geodesic", f"--n={n}", f"--steps={steps}",
                 f"--plast={plast!r}", f"--smax={smax!r}", f"--out={tmp_path}"])
    err = capsys.readouterr().err
    assert code in (0, 1)
    path = tmp_path / f"geodesic_{n}.csv"
    assert len(_read(path).decode().splitlines()) == 1 + steps + 1
    bad = _non_finite_trace_values(path, n)
    if code == 0:
        assert err == "" and bad == 0
    else:
        assert err == f"gate failed: finite_trace = {bad:.6g} > 0\n" and bad > 0


def test_failed_gate_is_named_on_stderr(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["geodesic", "--plast=5e-324", "--smax=1e308", "--steps", "4",
                 "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "gate failed: finite_trace = 4 > 0\n"
    assert main(["geodesic", "--steps", "100", "--out", out]) == 0
    assert capsys.readouterr().err == ""


# --- the %.17g table writer ----------------------------------------------------

def _g17_reference(table):
    """The per-row formatter the array writer replaced: Python's %.17g."""
    row = ",".join(["%.17g"] * table.shape[1])
    return [row % tuple(values) for values in table.tolist()]


def _assert_g17(values, cols=1):
    table = np.asarray(values, dtype=float).reshape(-1, cols)
    assert "\r\n".join(_g17_rows(table)) == "\r\n".join(_g17_reference(table))


@given(arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 8)),
              elements=st.floats(width=64)))
@settings(max_examples=300, deadline=None)
def test_g17_is_python_g17_for_any_double(table):
    # st.floats covers zeros of both signs, subnormals, inf and nan
    _assert_g17(table, table.shape[1])


def _neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


def test_g17_at_powers_of_ten_and_ties():
    cells = []
    for p in range(-30, 31):
        cells += _neighbours(float(f"1e{p}"))
    cells += _neighbours(9.999999999999999e16) + _neighbours(2.0 ** 53)
    cells += _neighbours(2.0 ** 60) + _neighbours(0.0)
    # exactly halfway between two 17-digit decimals: rounded to even
    cells += [1e15 + 0.25, 1e15 + 0.75, 1e14 + 0.125, 1e14 + 0.375,
              1e14 + 0.625, 1e14 + 0.875, 123456789012345.625]
    cells += [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
              math.inf, math.nan]
    cells += [-c for c in cells]
    _assert_g17(cells)
    _assert_g17(cells[:len(cells) // 7 * 7], 7)


def test_g17_on_random_bits_and_magnitudes():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64)
    _assert_g17(bits.view(np.float64), 5)
    signs = rng.choice([-1.0, 1.0], 7 * 15_000)
    _assert_g17(signs * 10.0 ** rng.uniform(-8, 18, 7 * 15_000), 7)


@pytest.mark.parametrize("kwargs", [
    {}, {"n": 2}, {"n": 40, "steps": 2000},
    {"plast": 5e-324, "smax": 1e308, "steps": 4}, {"plast": 1e308},
])
def test_geodesic_csv_is_the_per_row_g17(tmp_path, monkeypatch, kwargs):
    import hprofile.cli as cli
    cfg = RunConfig(command="geodesic", out_dir=str(tmp_path), **kwargs)
    csv = tmp_path / f"geodesic_{cfg.n}.csv"
    code = run(cfg)
    written = _read(csv)
    monkeypatch.setattr(cli, "_g17_rows", _g17_reference)
    assert run(cfg) == code
    assert _read(csv) == written


# --- config handling --------------------------------------------------------------

def test_invalid_config_never_computes():
    assert run(RunConfig(command="nonsense")) == 2
    assert run(RunConfig(command="eig", parity="sideways")) == 2
    assert run(RunConfig(command="spectrum", n=0)) == 2
    assert run(RunConfig(command="spectrum", fmt="xml")) == 2


# (argv, stderr): refused by RunConfig.validate, or by argparse, because a
# subcommand takes no flag that it does not read
_REFUSED = [
    (["eig", "--count", "400", "--grid", "1000"], "configuration error"),
    # the second grid is always 2 x grid, the pair richardson assumes
    (["eig", "--grid2", "4000"], "unrecognized arguments: --grid2 4000"),
    (["eig", "--count", "0"], "configuration error"),
    # the Fourier-mode minima exist on H^1 only
    (["poincare", "--full", "--n", "2"], "only defined on H^1 (n = 1)"),
    (["spectrum", "--k-max", "500", "--grid", "200"], "configuration error"),
    (["modes", "--k", "1", "--count", "60", "--grid", "200"],
     "configuration error"),
    (["modes", "--count", "0"], "configuration error"),
    (["modes", "--k=-1,0"], "configuration error"),
    (["modes", "--k", "0", "--count", "60", "--grid", "200"],
     "configuration error"),
    (["modes", "--plot", "--k", "0,1", "--grid", "100", "--count", "2"],
     "unrecognized arguments: --plot"),
    (["verify", "--plot"], "unrecognized arguments: --plot"),
    (["poincare", "--plot"], "unrecognized arguments: --plot"),
    (["geodesic", "--plot"], "unrecognized arguments: --plot"),
    (["verify", "--grid", "49"], "unrecognized arguments: --grid 49"),
    (["verify", "--format", "csv"], "unrecognized arguments: --format csv"),
    (["poincare", "--full", "--tol", "1e-3"], "takes no --tol"),
    (["geodesic", "--grid", "5"], "unrecognized arguments: --grid 5"),
    (["geodesic", "--format", "json"], "unrecognized arguments: --format json"),
    (["geodesic", "--tol", "1e-3"], "unrecognized arguments: --tol 1e-3"),
    # the pole vertex's lumped mass underflows on the grid
    (["spectrum", "--n", "60", "--grid", "1000"], "too large for grid 1000"),
    (["eig", "--n", "60", "--grid", "1000"], "too large for grid 1000"),
    (["poincare", "--n", "60", "--grid", "1000"], "too large for grid 1000"),
    (["spectrum", "--n", "51", "--grid", "1000"], "too large for grid 2000"),
    # a non-finite float would trace, or gate, nothing but NaN
    (["geodesic", "--smax", "nan"], "--smax must be finite"),
    (["geodesic", "--smax", "inf"], "--smax must be finite"),
    (["geodesic", "--plast", "nan"], "--plast must be finite"),
    (["spectrum", "--tol", "nan"], "--tol must be finite"),
    (["modes", "--tol", "inf"], "--tol must be finite"),
    # a tolerance no value can meet is a configuration error, not a gate
    (["spectrum", "--tol", "0"], "--tol must be > 0"),
    (["spectrum", "--tol", "-1"], "--tol must be > 0"),
    (["eig", "--tol=-1e-3"], "--tol must be > 0"),
    (["modes", "--tol", "0"], "--tol must be > 0"),
    (["verify", "--tol", "-0.0"], "--tol must be > 0"),
    (["poincare", "--tol=-inf"], "--tol must be > 0"),
    # a Fourier index the grid cannot resolve: 3 k^2 > grid
    (["modes", "--k", "100000", "--grid", "400"],
     "Fourier index 100000 is too large for grid 400"),
    (["modes", "--k", "0..12", "--grid", "400"],
     "Fourier index 12 is too large for grid 400"),
    (["modes", "--k", "5", "--grid", "60"],
     "Fourier index 5 is too large for grid 60"),
    # these suites weigh every integral by the sphere area 2 pi^n / Gamma(n),
    # and Gamma(172) leaves float range
    (["verify", "--suite", "orthogonality", "--n", "172"],
     "needs n <= 171, got n = 172"),
    (["verify", "--suite", "green", "--n", "172"],
     "needs n <= 171, got n = 172"),
    # an empty range of Fourier indices
    (["modes", "--k", "3..1"], "need one or more Fourier indices"),
    # the trace's sample points alone would take 745 GiB
    (["geodesic", "--steps", "100000000000"],
     "MiB of trace memory (limit 1024 MiB)"),
    (["geodesic", "--n", "10000000000"], "MiB of trace memory"),
]


# The largest Fourier index each grid resolves (3 k^2 <= grid), among them
# the study's k <= 4 at grid 400 and the benchmark's reduced grid 60.
@pytest.mark.parametrize("argv", [["modes", "--k", "0..11", "--grid", "400"],
                                  ["modes", "--k", "0..4", "--grid", "60"],
                                  ["modes", "--k", "5", "--grid", "75"]])
def test_modes_k_at_the_grid_limit_is_accepted(tmp_path, argv):
    _parsed(argv + ["--out", str(tmp_path)]).validate()


# Eigensolves on both sides of the 1 GiB workspace limit (validated only;
# the accepted ones take seconds to minutes to run).  modes adds the radial
# solve only when k = 0 is asked for, whose estimate is below the mode
# solve's at the same count and grid near the limit; poincare solves on its
# one grid.  eig at count 1500, grid 6000 (894 MiB on its second grid) was
# refused while the eigenpair check was counted at five count-wide arrays
# (1307 MiB).  modes at count 1500, grid 12000 (968 MiB) was accepted while
# H's dense step was counted at 3 ncv^2; at the 7 ncv^2 that numpy's eig and
# a restart's QR measure it is 1520 MiB, and count 1100 is 928 MiB.
_WORKSPACE_ACCEPTED = [
    ["eig", "--parity", "odd", "--count", "500", "--grid", "2000"],
    ["eig", "--parity", "odd", "--count", "1500", "--grid", "6000"],
    ["modes", "--k", "0,1", "--count", "1100", "--grid", "12000"],
    ["poincare", "--grid", "4000000"],
]
_WORKSPACE_REFUSED = [
    ["eig", "--parity", "odd", "--count", "5000", "--grid", "20000"],
    ["spectrum", "--k-max", "9999", "--grid", "20000"],
    ["modes", "--k", "1", "--count", "1600", "--grid", "12000"],
    ["poincare", "--grid", "100000000"],
]


def _parsed(argv: list[str]) -> RunConfig:
    return RunConfig(**vars(_build_parser().parse_args(argv)))


@pytest.mark.parametrize("argv", _WORKSPACE_ACCEPTED)
def test_workspace_below_the_limit_is_accepted(tmp_path, argv):
    _parsed(argv + ["--out", str(tmp_path)]).validate()


@pytest.mark.parametrize("argv", _WORKSPACE_REFUSED)
def test_workspace_above_the_limit_exits_2(tmp_path, capsys, argv):
    argv = argv + ["--out", str(tmp_path)]
    # validate alone first: a config let through would run out of memory
    with pytest.raises(ValueError, match="eigensolver workspace"):
        _parsed(argv).validate()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "MiB of eigensolver workspace (limit 1024 MiB)" in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv,message", [
    pytest.param(argv, message, id=f"argv{i}")
    for i, (argv, message) in enumerate(_REFUSED)])
def test_out_of_range_sizes_exit_2(tmp_path, capsys, argv, message):
    argv = argv + ["--out", str(tmp_path)]
    if "unrecognized" not in message:
        assert main(argv) == 2
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("kwargs", [
    {"command": "modes", "plot": True},
    {"command": "verify", "grid": 500},
    {"command": "verify", "fmt": "json"},
    {"command": "poincare", "count": 4},
    {"command": "geodesic", "grid": 1000},
    {"command": "geodesic", "fmt": "json"},
    {"command": "spectrum", "count": 4},
])
def test_api_refuses_fields_the_command_does_not_read(tmp_path, capsys,
                                                      kwargs):
    assert run(RunConfig(**kwargs, out_dir=str(tmp_path))) == 2
    assert "does not take" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_subcommands_take_only_the_flags_they_read():
    parser = _build_parser()
    sub = next(a for a in parser._actions if a.dest == "command").choices
    flags = {name: {opt for a in p._actions for opt in a.option_strings
                    if opt not in ("-h", "--help")}
             for name, p in sub.items()}
    shared = {"--n", "--out"}
    assert flags == {
        "spectrum": shared | {"--grid", "--k-max", "--format", "--plot",
                              "--tol"},
        "eig": shared | {"--grid", "--parity", "--count", "--format",
                         "--plot", "--tol"},
        "modes": shared | {"--grid", "--k", "--matching", "--count",
                           "--format", "--tol"},
        "verify": shared | {"--suite", "--tol"},
        "poincare": shared | {"--grid", "--full", "--format", "--tol"},
        "geodesic": shared | {"--plast", "--steps", "--smax"},
    }
    assert sum(len(f) for f in flags.values()) == 38


def test_api_defaults_are_the_cli_defaults():
    cfg = RunConfig(command="modes")
    assert (cfg.grid, cfg.count) == (400, 6)
    parser = _build_parser()
    for name in COMMANDS:
        assert RunConfig(**vars(parser.parse_args([name]))) == RunConfig(name)


def test_main_parses_and_runs(tmp_path, capsys):
    code = main(["spectrum", "--n", "1", "--k-max", "3", "--grid", "200",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "spectrum_1.csv").exists()
    assert "spectrum: ok" in capsys.readouterr().out


def test_main_bad_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["spectrum", "--unknown-flag", "1"])
    assert err.value.code == 2


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("HPROFILE_OUT_DIR", str(tmp_path))
    code = main(["poincare", "--n", "1", "--grid", "400"])
    assert code == 0
    assert (tmp_path / "poincare_1.csv").exists()


def test_io_error_exit_3(tmp_path):
    # a directory where the table should go: the write itself fails
    (tmp_path / "spectrum_1.csv").mkdir()
    cfg = RunConfig(command="spectrum", n=1, k_max=2, grid=200,
                    out_dir=str(tmp_path))
    assert run(cfg) == 3


def test_missing_out_dir_is_refused_before_computing(tmp_path, capsys):
    missing = tmp_path / "missing" / "nested"
    assert main(["spectrum", "--n", "2", "--grid", "1000", "--k-max", "4",
                 "--out", str(missing)]) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


# Values of each field's type as argparse produces them, in and out of range.
_INTS = st.one_of(st.integers(max_value=0), st.integers(1, 5000),
                  st.integers(min_value=10 ** 6),
                  st.sampled_from([2 ** 31, sys.maxsize, sys.maxsize + 1,
                                   10 ** 400]))


def _field_values(f, command):
    spec = COMMANDS[command]
    kwargs = f.metadata["argparse"]
    if f.name == "out_dir":
        return st.sampled_from(["existing", "missing"])
    if f.name == "fmt" or "choices" in kwargs:
        choices = spec.formats if f.name == "fmt" else kwargs["choices"]
        return st.sampled_from(choices) | st.text(max_size=6)
    if f.name == "k_range":
        return st.lists(_INTS, max_size=4).map(tuple)
    if kwargs.get("action") == "store_true":
        return st.booleans()
    if kwargs["type"] is float:
        return st.floats(allow_nan=True, allow_infinity=True)
    assert kwargs["type"] is int, f.name
    return _INTS


@st.composite
def _configs(draw, out):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    values = {f.name: draw(_field_values(f, command))
              for f in fields(RunConfig)[1:]
              if f.name in COMMANDS[command].defaults}
    values["out_dir"] = str(out if values["out_dir"] == "existing"
                            else out / "missing")
    return RunConfig(command=command, **values)


@given(data=st.data())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_validate_refuses_with_value_error_only(tmp_path, capsys, data):
    cfg = data.draw(_configs(tmp_path))
    try:
        cfg.validate()
    except ValueError:
        assert run(cfg) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not os.listdir(tmp_path)
    # an accepted config is not run here: validation is what is fuzzed


def test_mode_k_range_parsing():
    from hprofile.cli import _parse_k_range
    assert tuple(_parse_k_range("0..4")) == (0, 1, 2, 3, 4)
    assert _parse_k_range("0,2,5") == (0, 2, 5)


@pytest.mark.parametrize("n,steps", [(1, 100_000), (40, 2000), (1000, 10)])
def test_geodesic_memory_is_within_its_estimate(tmp_path, n, steps):
    # validate refuses a trace past _WORKSPACE_LIMIT by this estimate; at
    # n = 1000 a start momentum taken from a 2n x 2n identity is 4e6 floats
    import tracemalloc
    run(RunConfig("geodesic", n=1, steps=10, out_dir=str(tmp_path)))
    tracemalloc.start()
    try:
        assert run(RunConfig("geodesic", n=n, steps=steps,
                             out_dir=str(tmp_path))) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * _trace_floats(n, steps)


def test_wide_k_range_is_refused_from_its_bounds(tmp_path):
    # the indices of a lo..hi range are never built: about 110 MB here
    # when they were
    import tracemalloc
    parser = _build_parser()
    tracemalloc.start()
    try:
        cfg = RunConfig(**vars(parser.parse_args(
            ["modes", "--k", "0..3000000", "--grid", "400",
             "--out", str(tmp_path)])))
        with pytest.raises(ValueError, match="Fourier index 3000000 is too"):
            cfg.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
