"""The benchmark's tracer still finds every package function it wraps.

perfbench/spans.py looks its span targets up by name, so a renamed or
moved function would crash a traced benchmark run; here it fails the
suite instead. The perfbench files are imported as they are, unedited.
"""

import importlib
import math
import pathlib
import sys
from dataclasses import replace

import pytest

import qkalman

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("run", "spans", "checks", "workloads")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's run module; the BLAS thread variables it sets on
    import are restored afterwards, and its modules are unloaded."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # records the old value for teardown
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module("run")
    for name in MODULES:
        sys.modules.pop(name, None)


def test_every_span_target_resolves(perfbench):
    for layer, fname in importlib.import_module("spans").TARGETS:
        module = importlib.import_module(f"qkalman.{layer}")
        assert callable(getattr(module, fname, None)), f"{layer}.{fname}"


def test_tiny_traced_round_gives_finite_layer_metrics(perfbench):
    # the selftest's tiny demo-s1-sampled round: 2 steps of 16384 x 4 shots
    workload = replace(perfbench.WORKLOADS["demo-s1-sampled"],
                       steps=2, iterations=4)
    tracer = perfbench.Tracer()
    tracer.install()
    try:
        res = perfbench.run_rounds(qkalman, workload, seed=0, seconds=0.0)
    finally:
        tracer.uninstall()
    assert res["rounds"] == 1
    assert res["attempted"] == 2 and res["failed"] == 0
    metrics = tracer.layer_metrics(res["rounds"])
    assert metrics and all(math.isfinite(v) for v, _ in metrics.values())
    # each step reads its four blocks through decode
    decodes = [s for s in tracer.spans if s.name == "block_encoding.decode"]
    assert len(decodes) == 4 * workload.steps
    # q_step calls each stage where the tracer patched it: one span per step
    for stage in ("q_predict_state", "q_predict_cov", "q_gain",
                  "q_update_state", "q_update_cov"):
        spans = [s for s in tracer.spans if s.name == f"kalman.{stage}"]
        assert len(spans) == workload.steps, stage
