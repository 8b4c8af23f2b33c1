"""The benchmark's tracer still fits the package.

``perfbench/spans.py`` replaces functions of the package by module
attribute and binds their arguments by parameter name, so renaming one of
them, or calling it another way, silently drops its span or breaks a
traced run.  These tests load perfbench's own tracer and workloads,
unedited, and make call 0 of every workload once plain and once traced.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")

# spans each workload's call must record, by perfbench's span names
EXPECTED_SPANS = {
    "fixed-k1e4": {"hermite.exact", "dominator.draw", "dominator.eval", "vanveen.squeeze"},
    "mixture-n1e4": {"samplers.gue_eigenvalues"},
    "cli-k1e2": {"cli.main"},
    "joint-n6": {"joint.sample_many"},
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_call_gives_the_plain_bytes_and_its_spans(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.prepare(1, 0, tmp_path / "plain.csv")
    _, plain = wl.check(inputs, wl.call(inputs))
    tracer = spans.Tracer()
    inputs = wl.prepare(1, 0, tmp_path / "traced.csv")
    _, traced = wl.check(inputs, tracer.traced_call(0, wl.call, inputs))
    assert traced == plain
    recorded = {span[0] for span in tracer.spans}
    assert EXPECTED_SPANS[name] <= recorded, EXPECTED_SPANS[name] - recorded
    assert all(math.isfinite(v) for v in tracer.metrics(1, {0: 1.0}).values())
