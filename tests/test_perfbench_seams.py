"""The benchmark under ``perfbench/`` calls finiteflow by name and by
argument position, and patches names that ``bench`` imports. These tests
run those calls in the main suite, so a change to a signature or a name the
benchmark binds to fails here and not only when the benchmark runs."""

import importlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import finiteflow
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


def test_replacing_eta_keeps_every_scheme_probe(perfbench):
    probes, _ = perfbench
    for cfg in probes.SCHEME_CONFIGS.values():
        assert replace(replace(cfg, eta=cfg.eta / 2), eta=cfg.eta) == cfg


def test_every_workload_config_loads(perfbench, tmp_path):
    # a config rule that refuses a value the benchmark sets fails here
    workloads = importlib.import_module("workloads")
    loaded = 0
    for scale in workloads.SCALES.values():
        for name in workloads.WORKLOADS:
            for seed in range(workloads.INPUT_SETS):
                for cfg_name, text in workloads.build(name, seed, scale).yaml_texts():
                    path = tmp_path / f"{cfg_name}.yaml"
                    path.write_text(text)
                    assert finiteflow.load_config(path).name == cfg_name
                    loaded += 1
    assert loaded == 200
