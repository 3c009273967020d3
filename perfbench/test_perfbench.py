"""Tests of the benchmark's own code, on the tiny smoke scale.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import record_reference
import spans
import verify
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_reference(tmp_path_factory) -> Path:
    recorded = record_reference.record("smoke", workloads.WORKLOADS,
                                       range(workloads.INPUT_SETS))
    path = tmp_path_factory.mktemp("ref") / "reference.json"
    path.write_text(json.dumps({"workloads": {"smoke": recorded}}))
    return path


def bench_run(workload: str, trace: int, reference: Path, cwd: Path = ROOT,
              script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--scale", "smoke",
         "--reference", str(reference)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_with_unit(workload, trace, section, smoke_reference):
    result = last_json(bench_run(workload, trace, smoke_reference))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_perturbed_reference_fails_the_check(smoke_reference, tmp_path):
    ref = json.loads(smoke_reference.read_text())
    cells = ref["workloads"]["smoke"]["banana_sweep"]["0"]["banana_sweep"]["cells"]
    cells[0][4] *= 1.0 + 1e-4  # final f, beyond the relative tolerance
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(ref))
    result = last_json(bench_run("banana_sweep", 0, bad))
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_compare_exact_fields_and_tolerance():
    out = {"cells": [["gd", 3, "f_tol", 120, 0.5], ["rk", 3, "max_iters", 1000, 2e-5]],
           "analysis": {"dominance": {"holds": True},
                        "bounds": {"rk": {"k_star": 2000.0, "weak_bound_pass": True}},
                        "closeness": {"rk": [[0.01, 0.0119]]}}}
    assert verify.compare(out, copy.deepcopy(out)) == (5, [])

    within = copy.deepcopy(out)
    within["cells"][0][4] *= 1.0 + verify.REL_TOL / 10
    assert verify.compare(out, within)[1] == []

    for path, value in [(("cells", 0, 3), 121),             # step count
                        (("cells", 1, 2), "stalled"),       # terminal reason
                        (("cells", 1, 4), 2e-5 * (1 + 1e-5)),  # final f
                        (("analysis", "bounds", "rk", "weak_bound_pass"), False),
                        (("analysis", "bounds", "rk", "k_star"), 2001.0),
                        (("analysis", "closeness", "rk", 0, 1), 0.012)]:
        bad = copy.deepcopy(out)
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        attempted, failures = verify.compare(out, bad)
        assert attempted == 5 and len(failures) == 1, path


def test_normalize_divides_out_host_speed():
    ref = calibrate.REFERENCE_S
    assert calibrate.normalize(2.0, ref, ref) == pytest.approx(2.0)
    # the same work on a host half as fast, and on one that slows down
    assert calibrate.normalize(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    assert calibrate.normalize(3.0, ref, 2 * ref) == pytest.approx(2.0)


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    inner = rec.wrap(lambda: sum(range(20000)), "objectives.gradient")
    outer = rec.wrap(lambda: [inner() for _ in range(3)], "integrators.run")
    outer()
    summary = spans.summarize(rec)
    assert summary["calls"] == {"objectives.gradient": 3, "integrators.run": 1}
    total = summary["total_s"]
    assert summary["layer_self_s"]["objectives"] == pytest.approx(
        total["objectives.gradient"])
    assert summary["layer_self_s"]["integrators"] == pytest.approx(
        total["integrators.run"] - total["objectives.gradient"])
    assert summary["in_run_s"] == pytest.approx(total["integrators.run"])


def test_seed_derivation_is_deterministic():
    a = workloads.build("mlp_minibatch", 3)
    assert a == workloads.build("mlp_minibatch", 3)
    assert a.configs == workloads.build("mlp_minibatch", 3 + workloads.INPUT_SETS).configs
    b = workloads.build("mlp_minibatch", 4)
    assert (a.base_seed, a.data_seed) != (b.base_seed, b.data_seed)
    assert a.configs[0][1]["objective"]["params"]["seed"] == a.data_seed
    assert a.configs[0][1]["init"]["base_seed"] == a.base_seed


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench_run("banana_sweep", 0, tmp_path / "perfbench" / "reference.json",
                     cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
