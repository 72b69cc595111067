"""One fresh benchmark process: set up, run passes, report JSON on stdout.

Started by run.py, one at a time, never concurrently.  Modes:

* ``setup``: import hprofile and generate the workload's inputs, then time
  a burst of speed probes (speed.py) to scale the set-up time, and exit.
* ``work``: set up as above, run the cold pass and one warm pass.  If the
  budget left cannot pay for another fresh process, spend it on further
  warm passes and report ``"last": true``.
* ``trace``: set up, run the cold pass, then alternate untraced and traced
  passes until the budget ends (at least one of each).

The budget counts from ``--spawned``.

``--spawned`` is the parent's CLOCK_MONOTONIC reading just before it started
this process, so the reported set-up time includes interpreter start-up.
The last stdout line is the JSON report.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _import_hprofile():
    """Import the checkout's own hprofile from src/, never an installed one."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "hprofile")):
        raise SystemExit(f"no hprofile sources under {src}")
    sys.path.insert(0, src)
    import hprofile
    if os.path.dirname(os.path.abspath(hprofile.__file__)) != os.path.join(src, "hprofile"):
        raise SystemExit(f"imported hprofile from {hprofile.__file__}, not {src}")
    return hprofile


def _blas_runtime() -> list[dict]:
    """Name, version and thread count of each OpenBLAS loaded in-process.

    numpy and scipy each load their own copy; the copies are found in the
    process's memory map and queried through their exported symbols.
    """
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and "/" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                info["threads"] = threads()
                info["config"] = config().decode()
                break
            if "threads" in info:
                break
        found.append(info)
    return found


def _source_digest() -> str:
    import hashlib
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "hprofile")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _git_commit() -> str:
    """HEAD's commit read from .git, or "none" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "none"


def environment(hprofile, seed: int) -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    sblas = scipy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": f"{blas.get('name')} {blas.get('version')}",
        "blas_scipy": f"{sblas.get('name')} {sblas.get('version')}",
        "blas_runtime": _blas_runtime(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "hprofile": hprofile.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "work", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--budget", type=float, default=0.0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)

    hprofile = _import_hprofile()
    sys.path.insert(0, HERE)
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, args.small,
                                            args.work_dir)
    setup_s = time.monotonic() - args.spawned
    import speed
    report = {"raw_setup_s": setup_s, "passes": []}
    if args.mode != "trace":
        report["setup_s"] = setup_s * speed.scale(speed.burst())
    ready_s = time.monotonic() - args.spawned   # set-up and burst
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    import resource

    import tracing
    deadline = args.spawned + args.budget
    untouched = tracing.originals()

    def one_pass(kind, tracer=None):
        """Run one pass; return the wall time it took, probes included.

        Work processes probe the speed during the pass and report its times
        scaled to the reference speed (speed.py); the trace process does
        not probe, and its times, like the per-layer ones, are as measured.
        """
        tracing.check_originals(untouched)
        res = workloads.PassResult()
        sampler = speed.Sampler()
        probing = args.mode == "work"
        if probing:
            res.clock = sampler.clock
        if tracer is not None:
            tracer.install()
        try:
            with sampler if probing else contextlib.nullcontext():
                t0 = res.clock()
                wl.run_pass(res)
                res.wall_s = res.clock() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        if getattr(wl, "target", None) is None:
            res.tta_s = res.wall_s
        f = sampler.scale() if probing else 1.0
        out = {"kind": kind, "wall_s": res.wall_s * f,
               "tta_s": None if res.tta_s is None else res.tta_s * f,
               "raw_wall_s": res.wall_s, "speed_scale": f,
               "probes": len(sampler.probes),
               "attempted": res.attempted, "failures": res.failures,
               "max_rel_err": res.max_rel_err,
               "curve": [{**c, "time_s": c["time_s"] * f} for c in res.curve],
               "bytes_written": res.bytes_written}
        if tracer is not None:
            out["layers"] = tracing.layer_metrics(tracer)
        report["passes"].append(out)
        return res.wall_s + sampler.spent

    os.makedirs(args.work_dir, exist_ok=True)
    cold = one_pass("cold")
    if args.mode == "work":
        # One warm pass per fresh process gives as many cold samples as warm
        # ones.  The process after which no further one fits (set-up, cold
        # and warm pass, as measured here) spends the rest on warm passes.
        last = one_pass("warm")
        report["last"] = deadline - time.monotonic() < ready_s + cold + last
        while report["last"] and time.monotonic() + last <= deadline:
            last = one_pass("warm")
    else:
        tracer = tracing.Tracer()
        last = one_pass("warm") + one_pass("traced", tracer)
        while time.monotonic() + last <= deadline:
            last = one_pass("warm") + one_pass("traced", tracer)
    tracing.check_originals(untouched)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["env"] = environment(hprofile, args.seed)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
