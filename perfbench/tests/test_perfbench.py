"""The benchmark's own tests, at reduced size.

    python -m pytest perfbench/tests -q
"""
import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import hprofile.spectrum as S  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.PER_LAYER_UNITS)
    for m in SPEC["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    for m in SPEC["per_layer"]:
        assert m["unit"] == tracing.PER_LAYER_UNITS[m["name"]]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_workload_emits_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", trace, "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if trace == "0":
            assert got["value"] > 0, m["name"]


def _small(name):
    return workloads.WORKLOADS[name](5, True, "unused")


def test_failures_are_counted_not_raised(monkeypatch):
    baseline = workloads.PassResult()
    _small("radial_ladder").run_pass(baseline)
    # At the parent commit the n = 12 probe is the only failed operation.
    assert baseline.failures == ["probe_n12"]

    original = S.discrete_radial_spectrum

    def broken(params, bc, n_points, count):
        if params.n == 2:
            raise RuntimeError("injected")
        return original(params, bc, n_points, count)

    monkeypatch.setattr(S, "discrete_radial_spectrum", broken)
    res = workloads.PassResult()
    _small("radial_ladder").run_pass(res)
    assert res.attempted == baseline.attempted
    injected = [f for f in res.failures if "injected" in f]
    assert len(injected) == 2 * len(res.curve)          # n = 2, both parities
    assert all("_n2_" in f for f in injected)
    assert "probe_n12" in res.failures                    # later ops still ran


def test_self_times_stay_within_the_traced_wall(tmp_path):
    tracer = tracing.Tracer()
    for name in ("study", "closed_form"):
        wl = workloads.WORKLOADS[name](5, True, str(tmp_path))
        res = workloads.PassResult()
        tracer.install()
        try:
            t0 = time.perf_counter()
            wl.run_pass(res)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        assert not res.failures
        layers = tracing.layer_metrics(tracer)
        times = {k: v for k, v in layers.items()
                 if k.endswith(".time_s") or k == "cli.self_s"}
        assert all(v >= 0.0 for v in times.values()), times
        assert sum(times.values()) <= wall
        assert sum(tracer.self_s.values()) <= wall


def test_probes_stay_out_of_pass_times():
    with speed.Sampler() as sampler:
        t0, c0 = time.perf_counter(), sampler.clock()
        while time.perf_counter() - t0 < 10 * speed.PERIOD_S:
            pass
        t1, c1 = time.perf_counter(), sampler.clock()
    assert len(sampler.probes) >= 5
    assert (t1 - t0) - (c1 - c0) == pytest.approx(sampler.spent, abs=1e-4)
    assert sampler.spent >= sum(sampler.probes[:-1])
    assert speed.scale([speed.REFERENCE_S] * 3) == pytest.approx(1.0)
    assert speed.scale([2 * speed.REFERENCE_S]) == pytest.approx(0.5)


def test_tracer_restores_every_wrapped_function():
    before = tracing.originals()
    tracer = tracing.Tracer()
    tracer.install()
    assert S.hyp2f1_auto is not before[0][2]
    with pytest.raises(RuntimeError):
        tracing.check_originals(before)
    try:
        raise ValueError("a pass that raises")
    except ValueError:
        pass
    finally:
        tracer.uninstall()
    tracing.check_originals(before)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work",
                                                  "results"))
    proc = _bench("--workload", "closed_form", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
