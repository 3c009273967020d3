"""The benchmark under ``perfbench/`` calls finiteflow by name and by
argument position, and patches names that ``bench`` imports. These tests
run those calls in the main suite, so a change to a signature or a name the
benchmark binds to fails here and not only when the benchmark runs."""

import importlib
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import finiteflow
from finiteflow import analysis, bench, config

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


def test_cells_are_counted_alike_when_a_writer_writes_the_csvs(perfbench, tmp_path,
                                                              monkeypatch):
    # perfbench ends a cell's span at its emit_csv call and counts the rows
    # handed to it; with the CSVs written by a forked writer, each cell must
    # still be one run and one emit_csv, and the analysis pass no cell
    _, spans = perfbench
    cfg = config.parse_config({
        "objective": {"name": "quadratic", "params": {"mu": 1.0, "dimension": 2}},
        "optimizers": [{"name": "gd", "scheme": "gd", "eta": 0.3},
                       {"name": "euler", "scheme": "euler", "eta": 0.05,
                        "flow": {"kind": "rgf", "q": 3.0}}],
        "init": {"mode": "uniform_box", "box_lo": -1.0, "box_hi": 1.0, "n_seeds": 2},
        "stop": {"max_iters": 200, "grad_tol": 0.0, "f_tol": 1e-9},
        "analysis": {"dominance": {"p": 2.0, "mu": 1.0, "n_samples": 20}},
    })
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    rec = spans.Recorder()
    with spans.instrument(rec, traced=False):
        summary = bench.run_experiment(cfg, tmp_path / "out")
    assert forks == [1]
    rows = [len(bench.read_csv(c.csv_path)["k"]) for c in summary.cells]
    assert rec.n_cells == 4 and len(set(rows)) > 1
    assert rec.cell_steps == [n - 1 for n in rows]
    assert rec.rows_written == sum(rows)
    cols = rec.arrays()
    reports = cols["name"] == rec.names.index("bench.analysis_reports")
    assert cols["cell"][reports].tolist() == [-1]


def test_one_cell_with_an_analysis_pass_is_counted_as_one_cell(perfbench, tmp_path,
                                                                monkeypatch):
    # the writer stays open through the analysis pass; its runs and the
    # reference count as no cell
    _, spans = perfbench
    cfg = config.parse_config({
        "objective": {"name": "quadratic", "params": {"mu": 1.0, "dimension": 1}},
        "optimizers": [{"name": "rgf_euler_q3", "scheme": "euler", "eta": 1e-2,
                        "flow": {"kind": "rgf", "q": 3.0}}],
        "init": {"mode": "fixed", "x0": [1.0]},
        "stop": {"max_iters": 100000, "grad_tol": 1e-6},
        "analysis": {"run_bounds": True, "h_ref": 1e-3,
                     "dominance": {"p": 2.0, "mu": 1.0, "n_samples": 20}},
    })
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    rec = spans.Recorder()
    with spans.instrument(rec, traced=False):
        summary = bench.run_experiment(cfg, tmp_path / "out")
    assert forks == [1]
    rows = len(bench.read_csv(summary.cells[0].csv_path)["k"])
    assert rec.n_cells == 1 and rec.cell_steps == [rows - 1]
    cols = rec.arrays()
    cells = {name: sorted(cols["cell"][cols["name"] == rec.names.index(name)].tolist())
             for name in ("integrators.run", "integrators.integrate_reference",
                          "bench.emit_csv", "bench.analysis_reports")}
    assert cells == {"integrators.run": [-1, 0], "integrators.integrate_reference": [-1],
                     "bench.emit_csv": [0], "bench.analysis_reports": [-1]}
