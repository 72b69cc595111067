#!/usr/bin/env python3
"""hprofile benchmark: end-to-end and per-layer metrics of four workloads.

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

Run from the repository root (any directory works; paths are resolved from
this file).  The benchmark imports hprofile from ``src/`` of the same tree,
so nothing needs installing; without ``src/hprofile`` it exits with code 2
and prints no result.

Load: one workload process at a time, closed loop, no worker threads or
processes; BLAS is pinned to BLAS_THREADS threads.  Each fresh process is
started by this script and waited for before the next one starts.

With ``--trace 0`` a run starts fresh processes one after another until
its budget is spent; each sets up, runs a cold and a warm pass, and the last
one spends what is left on further warm passes.  Cold and warm samples are
so about equal in number and spread over the whole run, whose time holds
several seconds-long swings in CPU speed on a shared host.  The swings
themselves are taken out by scaling: every timing below is in seconds at a
fixed reference CPU speed, measured by short probes that sample the speed
every 40 ms during each pass (speed.py); the times as measured are kept in
the record and printed beside them.  It measures:

* setup_s: interpreter start to ``import hprofile`` done plus input
  generation, scaled by a burst of probes taken right after it; median over
  the work processes, topped up with set-up-only processes to MIN_SETUPS
  samples.
* cold_s: the first pass in a fresh process, first-call LAPACK cost
  included; median over the run's work processes.
* wall_s: median of the warm passes.
* tta_s: time to the stated accuracy.  radial_ladder: the cumulative time of
  its rungs up to the first whose Richardson max relative error is <= 1e-6.
  The other workloads gate every output, so the accuracy is reached only
  when the pass ends, and tta_s is the pass time.  Median of warm passes.
* max_rel_err: the worst relative error against the closed forms over the
  eigenvalues the workload produces (radial_ladder: every rung, without the
  failing n = 12 probe; oracles, which has no eigenvalues: the geodesic rise
  against pi/4 and the meridian residual against u0(0) = pi/8), floored at
  1e-12 because smaller errors are roundoff.
* peak_rss_mb: ru_maxrss of the work process, median over processes.
* ops_ok_frac: operations that passed their checks over those attempted.
  ops_failed_frac = 1 - ops_ok_frac is printed beside the attempted count;
  the benchmark's contract forbids end-to-end metrics that can read 0.

With ``--trace 1`` one process alternates untraced and traced passes and
reports the per-layer metrics of tracing.py (medians over traced passes),
plus trace.overhead_s = traced wall minus untraced wall.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  A fuller record (environment, sample counts, the
ladder's error-against-time curve, failure names) is written to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import PER_LAYER_UNITS  # noqa: E402  (stdlib-only at import)

BLAS_THREADS = 1        # below nproc; one thread keeps timings steady
MIN_SETUPS = 6          # set-up samples per run; set-up-only processes top up
RUN_LIMIT_S = 170.0     # a run must end within this, whatever the budget

WORKLOAD_NAMES = ("study", "radial_ladder", "closed_form", "oracles")
# Operations that fail at the parent commit for a documented reason, as
# "<workload>:<operation>".  They count in `failed` but do not make the run
# incorrect.  ROADMAP item 4: the cell-centred pencil decouples its pole
# cell for large n, so n = 12 is about 24% off.
KNOWN_DEFECTS = frozenset({"radial_ladder:probe_n12"})
END_TO_END_UNITS = {
    "setup_s": "s", "cold_s": "s", "wall_s": "s", "tta_s": "s",
    "max_rel_err": "1", "peak_rss_mb": "MB", "ops_ok_frac": "1",
}


class ChildError(RuntimeError):
    pass


def _child(mode: str, workload: str, seed: int, work_dir: str, small: bool,
           budget: float = 0.0, timeout: float = 60.0) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed),
           "--budget", repr(budget),
           "--work-dir", work_dir]
    if small:
        cmd.append("--small")
    spawned = time.monotonic()
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"{mode} process for {workload} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"{mode} process for {workload} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _passes(reports, kind):
    return [p for r in reports for p in r["passes"] if p["kind"] == kind]


def _tally(workload: str, reports) -> tuple[int, list[str], bool]:
    """(attempted, failures, correct) over every pass of every process.

    A run is correct when no operation failed except the known defects and
    every pass reached its stated accuracy."""
    passes = [p for r in reports for p in r["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    unexpected = [f for f in failures if f"{workload}:{f}" not in KNOWN_DEFECTS]
    correct = not unexpected and all(p["tta_s"] is not None for p in passes)
    return attempted, failures, correct


def _end_to_end(setups, reports, attempted, failures):
    cold = _passes(reports, "cold")
    warm = _passes(reports, "warm")
    metrics = {
        "setup_s": _median(setups),
        "cold_s": _median([p["wall_s"] for p in cold]),
        "wall_s": _median([p["wall_s"] for p in warm]),
        # A missed target makes the run incorrect; tta_s then falls back to
        # the whole pass.
        "tta_s": _median([p["wall_s"] if p["tta_s"] is None else p["tta_s"]
                          for p in warm]),
        "max_rel_err": max(p["max_rel_err"] for p in cold + warm),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reports]),
        "ops_ok_frac": 1.0 - len(failures) / attempted,
    }
    samples = {"setup_s": len(setups), "cold_s": len(cold),
               "wall_s": len(warm), "tta_s": len(warm),
               "max_rel_err": len(cold) + len(warm),
               "peak_rss_mb": len(reports), "ops_ok_frac": attempted}
    return metrics, samples


def _as_measured(setups_raw, reports):
    """The unscaled medians behind the scaled timings, for the record."""
    passes = [p for r in reports for p in r["passes"]]
    return {"setup_s": _median(setups_raw),
            "cold_s": _median([p["raw_wall_s"] for p in passes
                               if p["kind"] == "cold"]),
            "wall_s": _median([p["raw_wall_s"] for p in passes
                               if p["kind"] == "warm"]),
            "speed_scale": _median([p["speed_scale"] for p in passes])}


def _per_layer(reports):
    traced = _passes(reports, "traced")
    warm = _passes(reports, "warm")
    metrics = {name: _median([p["layers"][name] for p in traced])
               for name in traced[0]["layers"]}
    metrics["cli.bytes_written"] = _median([p["bytes_written"] for p in traced])
    metrics["trace.wall_s"] = _median([p["wall_s"] for p in traced])
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - _median([p["wall_s"] for p in warm]))
    samples = {name: len(traced) for name in metrics}
    samples["trace.overhead_s"] = f"{len(traced)} traced / {len(warm)} untraced"
    return metrics, samples


def measure(workload: str, seed: int, seconds: float, trace: bool,
            small: bool, work_dir: str) -> dict:
    """One run: the metrics of one workload, with their sample counts."""
    started = time.monotonic()
    deadline = started + seconds

    def limit():
        return RUN_LIMIT_S - (time.monotonic() - started)

    if trace:
        reports = [_child("trace", workload, seed, work_dir, small,
                          budget=seconds, timeout=limit())]
    else:
        reports = []
        while not reports or not reports[-1]["last"]:
            reports.append(_child("work", workload, seed, work_dir, small,
                                  budget=max(deadline - time.monotonic(), 0.0),
                                  timeout=limit()))
        setup_reports = list(reports)
        while len(setup_reports) < MIN_SETUPS:
            setup_reports.append(_child("setup", workload, seed, work_dir,
                                        small, timeout=limit()))
        setups = [r["setup_s"] for r in setup_reports]
    attempted, failures, correct = _tally(workload, reports)
    if trace:
        metrics, samples = _per_layer(reports)
    else:
        metrics, samples = _end_to_end(setups, reports, attempted, failures)
        as_measured = _as_measured([r["raw_setup_s"] for r in setup_reports],
                                   reports)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "small": small, "blas_threads": BLAS_THREADS,
        "env": reports[0]["env"], "correct": correct,
        "attempted": attempted, "failed": len(failures),
        "failures": sorted(set(failures)),
        "metrics": metrics, "samples": samples,
        "as_measured": None if trace else as_measured,
        "passes": [{k: v for k, v in p.items() if k != "curve"}
                   for r in reports for p in r["passes"]],
    }
    if workload == "radial_ladder":
        record["curve"] = _ladder_curve(reports)
    return record


def _ladder_curve(reports) -> list[dict]:
    """Per rung: median rung time over warm passes, its max relative error
    and the observed order p; recorded, not gated."""
    passes = _passes(reports, "warm") or [p for r in reports for p in r["passes"]]
    curve = []
    for i, rung in enumerate(passes[0]["curve"]):
        times = [p["curve"][i]["time_s"] for p in passes]
        curve.append({**rung, "time_s": _median(times),
                      "cum_time_s": _median(
                          [sum(c["time_s"] for c in p["curve"][:i + 1])
                           for p in passes])})
    return curve


def _units(trace: bool) -> dict:
    return PER_LAYER_UNITS if trace else END_TO_END_UNITS


def _print_record(rec: dict) -> None:
    env = rec["env"]
    print(f"== hprofile benchmark: workload={rec['workload']} seed={rec['seed']} "
          f"seconds={rec['seconds']} trace={rec['trace']}")
    print(f"   python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas_numpy']} / {env['blas_scipy']}, "
          f"blas threads {rec['blas_threads']}, nproc {env['nproc']}, "
          f"hprofile {env['hprofile']}, commit {env['git_commit']}, "
          f"source {env['source_sha256']}")
    units = _units(bool(rec["trace"]))
    for name, unit in units.items():
        print(f"   {name:36s} {rec['metrics'][name]:<16.6g} {unit:6s} "
              f"n={rec['samples'][name]}")
    raw = rec["as_measured"]
    if raw:
        print(f"   as measured: setup_s {raw['setup_s']:.6g}, cold_s "
              f"{raw['cold_s']:.6g}, wall_s {raw['wall_s']:.6g}; "
              f"median speed scale {raw['speed_scale']:.4g}")
    frac = rec["failed"] / rec["attempted"]
    print(f"   {'ops_failed_frac':36s} {frac:<16.6g} {'1':6s} "
          f"({rec['failed']} of {rec['attempted']} attempted)")
    for rung in rec.get("curve", []):
        p = rung["p_observed"]
        order = (f"p = {p['median']:.3f} [{p['min']:.3f}, {p['max']:.3f}] "
                 f"(assumed {p['assumed']})") if p else "p = n/a"
        err = rung["max_rel_err"]
        print(f"   rung N={rung['N']:<6d} time {rung['time_s']:.4f} s  "
              f"cumulative {rung['cum_time_s']:.4f} s  max rel err "
              f"{'n/a' if err is None else format(err, '.3e')}  {order}")
    for failure in rec["failures"]:
        known = f"{rec['workload']}:{failure}" in KNOWN_DEFECTS
        print(f"   failed: {failure}{' (known defect)' if known else ''}")
    print(f"   correct: {rec['correct']}")


def _save(rec: dict) -> None:
    out = os.path.join(HERE, "results")
    os.makedirs(out, exist_ok=True)
    name = f"{rec['workload']}-seed{rec['seed']}-trace{rec['trace']}.json"
    with open(os.path.join(out, name), "w") as fh:
        json.dump(rec, fh, indent=1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    work_dir = os.path.join(HERE, ".work", str(os.getpid()))
    records = []
    try:
        for name in names:
            records.append(measure(name, args.seed, args.seconds,
                                   bool(args.trace), args.small, work_dir))
    except ChildError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = _units(bool(args.trace))
    for rec in records:
        _print_record(rec)
        _save(rec)
    if len(records) == 1:
        metrics = {k: {"value": records[0]["metrics"][k], "unit": u}
                   for k, u in units.items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": r["metrics"][k], "unit": u}
                   for r in records for k, u in units.items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
