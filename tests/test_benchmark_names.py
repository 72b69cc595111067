"""The benchmark reaches hprofile by name: perfbench/tracing.py wraps module
and class attributes, and perfbench/workloads.py calls them through module
aliases.  A rename or deletion in src would otherwise surface only as failed
benchmark runs, so these tests resolve every such name."""
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the module aliases of perfbench/workloads.py
ALIASES = {"S": "hprofile.spectrum", "G": "hprofile.geometry",
           "N": "hprofile.numerics", "O": "hprofile.operators",
           "cli": "hprofile.cli"}


def _workload_names() -> list[tuple[str, str]]:
    text = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    for alias, module in ALIASES.items():
        assert f"import {module} as {alias}\n" in text
    pattern = r"\b(" + "|".join(ALIASES) + r")\.([A-Za-z_]\w*)"
    return sorted(set(re.findall(pattern, text)))


def test_every_wrap_point_of_the_tracer_resolves():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    found = tracing.originals()
    assert len(found) == len(tracing.WRAP_POINTS) + len(tracing.COUNT_POINTS)
    assert all(callable(value) for _, _, value in found)


@pytest.mark.parametrize("alias,attr", _workload_names())
def test_workload_name_resolves(alias, attr):
    assert hasattr(importlib.import_module(ALIASES[alias]), attr)
