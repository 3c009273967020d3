"""The benchmark under ``perfbench/`` calls finiteflow by name and by
argument position, and patches names that ``bench`` imports. These tests
run those calls in the main suite, so a change to a signature or a name the
benchmark binds to fails here and not only when the benchmark runs."""

import importlib
import json
import math
import sys
from pathlib import Path

import pytest

from finiteflow import analysis, bench

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield (importlib.import_module("probes"), importlib.import_module("spans"))
    finally:
        sys.path.remove(str(PERFBENCH))


def test_traced_instrumentation_patches_and_restores(perfbench):
    _, spans = perfbench
    before = {name: getattr(bench, name) for name in spans._ANALYSIS_FUNCS}
    with spans.instrument(spans.Recorder(), traced=True):
        for name in spans._ANALYSIS_FUNCS:
            assert getattr(bench, name) is not before[name]
    assert {name: getattr(bench, name) for name in spans._ANALYSIS_FUNCS} == before
    for name in spans._ANALYSIS_FUNCS:
        assert before[name] is getattr(analysis, name)


def test_layer_probes_run_and_report_declared_metrics(perfbench):
    probes, _ = perfbench
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in benchmark["per_layer"]}
    out = {}
    for probe in (probes.objectives, probes.flows, probes.analysis,
                  lambda: probes.integrators(n_steps=50)):
        out.update(probe())
    assert out and set(out) <= declared
    assert all(math.isfinite(v) and v > 0 for v in out.values())
