"""The probes, the alternation, the summary and the output of tools/bench_inproc.py."""

import dataclasses
import importlib.util
import json
import types
from pathlib import Path

import numpy as np
import pytest

import finiteflow

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench_inproc", _ROOT / "tools" / "bench_inproc.py")
bench_inproc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_inproc)

PROBE_NAMES = [
    "objectives.row_calls_us.quadratic", "objectives.row_calls_us.rosenbrock",
    "objectives.row_calls_us.pth_power", "objectives.row_calls_us.mlp",
    "flows.flow_eval_us.gf", "flows.flow_eval_us.rgf", "flows.flow_eval_us.rgf_c",
    "flows.flow_eval_us.sgf",
    "integrators.step_us.euler", "integrators.step_us.rk", "integrators.step_us.nesterov",
    "integrators.step_us.gd", "integrators.step_us.nagd", "integrators.step_us.adam",
    "integrators.run_row_us.euler", "integrators.run_row_us.rk",
    "integrators.run_row_us.nesterov", "integrators.run_row_us.gd",
    "integrators.run_row_us.nagd", "integrators.run_row_us.adam",
    "integrators.reference_step_us.d1", "integrators.reference_step_us.d2",
    "analysis.closeness_epsilon_us", "analysis.closeness_epsilon_us.d1",
    "analysis.dominance_us_per_point",
    "bench.emit_csv_us_per_row.same_eta", "bench.run_experiment_s.bounds_analysis",
    "bench.run_experiment_s.banana_sweep",
]


def test_probe_names_and_units():
    assert list(bench_inproc.PROBES) == PROBE_NAMES
    units = {name: unit for name, (unit, _) in bench_inproc.PROBES.items()}
    assert units["objectives.row_calls_us.mlp"] == "us"
    assert units["integrators.run_row_us.gd"] == "us/row"
    assert all(units[f"integrators.step_us.{s}"] == "us"
               for s in ("euler", "rk", "nesterov", "gd", "nagd", "adam"))
    assert units["bench.run_experiment_s.banana_sweep"] == "s"
    assert units["analysis.closeness_epsilon_us"] == units["analysis.closeness_epsilon_us.d1"] == "us"


def test_every_probe_builds_and_measures_on_this_checkout(tmp_path):
    measures, absent = bench_inproc.build_probes(finiteflow, tmp_path)
    assert absent == {} and list(measures) == PROBE_NAMES
    # the sweep repetition takes about a second; the rest are quick, and the
    # run probes check that their runs do not cycle
    for name in PROBE_NAMES[:-1]:
        assert measures[name]() > 0, name


def test_step_probe_takes_bare_steps_restarted_every_run_of_steps(tmp_path, monkeypatch):
    # runs of 10 steps instead of 1,000, so that a timing takes several
    monkeypatch.setattr(bench_inproc, "_RUN_ROWS", 10)
    ks, starts = [], []

    def make_step(cfg):
        step = finiteflow.integrators.make_step(cfg)

        def counted(*args):
            assert len(args) == 3  # no gradient given
            state = step(*args)
            ks.append(state.k)
            return state
        return counted

    def init_state(x0):
        starts.append(x0.tolist())
        return finiteflow.init_state(x0)

    package = types.SimpleNamespace(**{n: getattr(finiteflow, n) for n in finiteflow.__all__})
    package.integrators = types.SimpleNamespace(make_step=make_step)
    package.init_state = init_state
    assert bench_inproc.PROBES["integrators.step_us.nesterov"][1](package, tmp_path)() > 0
    assert len(ks) > 10 and ks == [i % 10 + 1 for i in range(len(ks))]
    assert starts == [[-1.0, 2.0]] * (len(ks) // 10 + 1)


@pytest.mark.parametrize("dim", ["d1", "d2"])
@pytest.mark.parametrize("defect", ["frozen", "short"])
def test_reference_probe_refuses_a_stretch_it_does_not_step(tmp_path, dim, defect):
    def integrate_reference(*args):
        traj = finiteflow.integrate_reference(*args)
        return (dataclasses.replace(traj, cycle_start=5, cycle_period=1) if defect == "frozen"
                else traj.head(10))

    broken = types.SimpleNamespace(**{n: getattr(finiteflow, n) for n in finiteflow.__all__})
    broken.integrate_reference = integrate_reference
    name = f"integrators.reference_step_us.{dim}"
    assert bench_inproc.PROBES[name][0] == "us/step"
    with pytest.raises(AssertionError, match=f"the {dim} reference probe"):
        bench_inproc.PROBES[name][1](broken, tmp_path)()


@pytest.mark.parametrize("name,fn,unit", [
    ("analysis.closeness_epsilon_us", "closeness_epsilon", "us"),
    ("analysis.dominance_us_per_point", "check_gradient_dominance", "us/point")])
def test_analysis_probes_time_their_call(tmp_path, name, fn, unit):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return getattr(finiteflow, fn)(*args, **kwargs)

    package = types.SimpleNamespace(**{n: getattr(finiteflow, n) for n in finiteflow.__all__})
    setattr(package, fn, counted)
    assert bench_inproc.PROBES[name][0] == unit
    assert bench_inproc.PROBES[name][1](package, tmp_path)() > 0
    assert calls
    if fn == "closeness_epsilon":
        # the reference covers the horizon at a tenth of eta or finer
        ref, disc, horizon, eta = calls[0]
        assert ref.t[-1] >= horizon and np.diff(ref.t).max() <= eta / 10
        assert len(disc) - 1 == int(horizon / eta)
        assert ref.x.shape[1] == 2
    else:
        # 200 points of the 2-D unit quadratic per call
        assert all(args[0].dimension == 2 and args[4] == 200 for args in calls)


def test_1d_closeness_probe_times_the_bound_report_call(tmp_path, monkeypatch):
    # the quadratic_bounds bound report: its eps is the probe's, to the bit
    calls = []

    def counted(*args, **kwargs):
        calls.append(args + tuple(kwargs.values()))  # bound_report passes T and eta by name
        return finiteflow.analysis.closeness_epsilon(*args, **kwargs)

    package = types.SimpleNamespace(**{n: getattr(finiteflow, n) for n in finiteflow.__all__})
    package.closeness_epsilon = counted
    unit, build = bench_inproc.PROBES["analysis.closeness_epsilon_us.d1"]
    assert unit == "us" and build(package, tmp_path)() > 0
    ref, disc, horizon, eta = calls[0]
    assert ref.x.shape[1] == 1 and (eta, ref.t[1]) == (1e-3, 1e-4)
    monkeypatch.setattr(finiteflow.bench, "closeness_epsilon", counted)
    report = finiteflow.bound_report(
        finiteflow.make_quadratic(1.0, 1),
        finiteflow.DiscretizerConfig(scheme="euler", eta=1e-3, flow=finiteflow.FlowSpec("rgf", q=3.0)),
        np.array([1.0]), 2.0, 1.0, h_ref=1e-4)
    ref_b, disc_b, horizon_b, eta_b = calls[-1]
    assert (horizon_b, eta_b) == (horizon, eta)
    assert len(ref_b) == len(ref) and ref_b.x.tobytes() == ref.x.tobytes()
    assert disc_b.x.tobytes() == disc.x.tobytes()
    assert report["eps_measured"] == finiteflow.closeness_epsilon(ref, disc, horizon, eta)


def only_probes(monkeypatch, names):
    """Cut the tool's probe table down to ``names``; a name it lacks gets a
    probe in us that is never built."""
    probes = {name: bench_inproc.PROBES.get(name, ("us", None)) for name in names}
    monkeypatch.setattr(bench_inproc, "PROBES", probes)


def test_a_probe_the_package_lacks_is_absent(tmp_path, monkeypatch):
    lacking = types.SimpleNamespace(**{name: getattr(finiteflow, name)
                                       for name in finiteflow.__all__ if name != "make_mlp"})
    only_probes(monkeypatch, ["objectives.row_calls_us.mlp", "integrators.run_row_us.gd"])
    measures, absent = bench_inproc.build_probes(lacking, tmp_path)
    assert list(measures) == ["integrators.run_row_us.gd"]
    assert set(absent) == {"objectives.row_calls_us.mlp"}
    assert "make_mlp" in absent["objectives.row_calls_us.mlp"]


def test_sides_alternate_by_round_and_probe_by_probe(monkeypatch):
    calls = []

    def measure(side, name):
        def call():
            calls.append((side, name))
            return 1.0 if side == "parent" else 0.5
        return call

    names = ["a", "b"]
    only_probes(monkeypatch, names)
    measures = {side: {name: measure(side, name) for name in names}
                for side in ("parent", "change")}
    del measures["parent"]["b"]  # absent from the parent
    results = bench_inproc.alternate(measures, rounds=3)
    assert [r["first"] for r in results] == ["parent", "change", "parent"]
    assert calls == [("parent", "a"), ("change", "a"), ("change", "b"),
                     ("change", "a"), ("parent", "a"), ("change", "b"),
                     ("parent", "a"), ("change", "a"), ("change", "b")]
    assert results[1] == {"first": "change", "parent": {"a": 1.0},
                          "change": {"a": 0.5, "b": 0.5}}


def test_summary_medians_wins_and_absent_probes(monkeypatch):
    monkeypatch.setattr(bench_inproc, "PROBES", {"a": ("us", None), "b": ("s", None)})
    results = [{"first": "parent", "parent": {"a": 2.0}, "change": {"a": 1.0, "b": 3.0}},
               {"first": "change", "parent": {"a": 4.0}, "change": {"a": 4.0, "b": 5.0}},
               {"first": "parent", "parent": {"a": 3.0}, "change": {"a": 3.5, "b": 4.0}}]
    summary = bench_inproc.summarize(results,
                                     {"parent": {"b": "AttributeError: b"}, "change": {}})
    assert summary["pairs"] == 3
    assert [r["first"] for r in summary["runs"]] == ["parent", "change", "parent"]
    a, b = summary["metrics"]["a"], summary["metrics"]["b"]
    assert (a["unit"], a["parent_median"], a["change_median"]) == ("us", 3.0, 3.5)
    assert a["parent_quartiles"] == pytest.approx([2.5, 3.5])
    # change lower in round 0, a tie in round 1, parent lower in round 2
    assert (a["better"], a["change_better_pairs"], a["parent_better_pairs"]) == ("lower", 1, 1)
    assert "absent" not in a
    assert b["parent_median"] is None and b["change_median"] == 4.0
    assert b["absent"] == {"parent": "AttributeError: b"} and "change_better_pairs" not in b


def test_merges_into_the_trend_file(tmp_path, monkeypatch):
    out = tmp_path / "BENCH.json"
    out.write_text('{"machine": {"cpu": "kept"}, "gated_runs": {"w": {"pairs": 10}}}')
    only_probes(monkeypatch, ["objectives.row_calls_us.quadratic"])
    bench_inproc.main([str(_ROOT), str(_ROOT), "--rounds", "2", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["machine"] == {"cpu": "kept"} and doc["gated_runs"] == {"w": {"pairs": 10}}
    section = doc["in_process"]
    assert section["command"] == "python3 tools/bench_inproc.py PARENT CHANGE --rounds 2"
    assert section["pairs"] == 2 and [r["first"] for r in section["runs"]] == ["parent", "change"]
    entry = section["metrics"]["objectives.row_calls_us.quadratic"]
    assert entry["parent_median"] > 0 and entry["change_median"] > 0
    assert entry["change_better_pairs"] + entry["parent_better_pairs"] <= 2

