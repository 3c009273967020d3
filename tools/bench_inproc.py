"""Alternating parent/change rounds of in-process probes.

Imports the ``src/finiteflow`` of a parent checkout and of a change checkout
into one process, each under its own package name, and times the same
probes on both, ``--rounds`` times, with the side that runs first
alternating (the parent in even rounds, counting from 0; within a round the
sides alternate probe by probe in that order). The probes:

- ``objectives.row_calls_us.<maker>``: one ``value_and_grad(x)`` call, the
  objective call of a recorded row whose cost a stop rule reads;
- ``flows.flow_eval_us.<kind>``: one ``flow_eval`` call, with no norm given,
  on the banana's gradient at (-1, 2), for ``gf``, ``rgf`` with q = 3,
  ``rgf_c`` (q = 3, c = 1.5) and ``sgf`` with q = 3;
- ``integrators.step_us.<scheme>``: one bare step of ``make_step`` with no
  gradient given, on the banana valley (a = 1, b = 0.2) from (-1, 2),
  restarted from ``init_state`` every 1,000 steps, so a change that moves
  work between a step and the run loop shows on both sides of it;
- ``integrators.run_row_us.<scheme>``: one recorded row of ``run`` on the
  banana valley (a = 1, b = 0.2) from (-1, 2), where no scheme cycles
  within the probe (checked on every run);
- ``integrators.reference_step_us.d1`` and ``.d2``: one live step of
  ``integrate_reference`` on the ``bounds_analysis`` setups, ``rgf`` with
  q = 3 on the unit quadratic, in 1-D from 1.0 with h = 1e-4 and in 2-D
  from (1, 1) with h = 2.5e-4; every run is checked to step each row,
  neither freezing nor cycling;
- ``analysis.closeness_epsilon_us``: one ``closeness_epsilon`` call on the
  first entry of the ``closeness_sweep`` table: ``rgf`` with q = 3 on the
  unit quadratic in 2-D from (1, 1), its reference at h = 2.5e-4 against
  the Euler run at eta = 1e-2, over 1.2 times the settling-time bound;
- ``analysis.closeness_epsilon_us.d1``: the ``closeness_epsilon`` call of
  the ``quadratic_bounds`` bound report: ``rgf`` with q = 3 on the unit
  quadratic in 1-D from 1.0, its reference at h = 1e-4 cut to the horizon
  of ``ceil(1.1 k_star)`` steps, against the Euler run at eta = 1e-3;
- ``analysis.dominance_us_per_point``: ``check_gradient_dominance`` on the
  unit quadratic in 2-D, p = 2, mu = 1, radius 1, 200 points from seed 0,
  per point;
- ``bench.emit_csv_us_per_row.same_eta``: writing ten ``gd`` trajectories of
  one step size, the way ``run_experiment`` writes the seeds of one
  optimizer;
- ``bench.run_experiment_s.bounds_analysis`` and ``.banana_sweep``: one
  repetition of that benchmark workload (input set 0).

The timers and the workload configs come from this checkout's
``perfbench/probes.py`` and ``perfbench/workloads.py``, so both sides are
timed alike.

A probe that a checkout cannot build, because a name it uses is missing
there, is reported as absent for that side. Per probe the summary gives
each side's median and quartiles and the rounds each side won (a tie
counts for neither), and it is merged into ``--out`` under ``in_process``,
in the layout of ``tools/bench_pairs.py``'s ``gated_runs``; the file gains
the machine and both git revisions if it lacks them (by
``bench_pairs._git_sha``, a digest of the measured files for a checkout
that is not a git work tree)::

    python3 tools/bench_inproc.py PARENT CHANGE --rounds 20 --out BENCH_17.json
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import shutil
import sys
import tempfile
import time
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "tools"), str(_ROOT / "src"), str(_ROOT / "perfbench")]
import bench_pairs  # noqa: E402  (a sibling script: the statistics and the file's header)
import workloads  # noqa: E402
from probes import _median_s, per_call_us  # noqa: E402

SIDES = ("parent", "change")
_RUN_ROWS = 1000  # rows of a recorded-run probe
_BANANA_X0 = (-1.0, 2.0)
# (x0, h) of the bounds_analysis references; none arrives within _RUN_ROWS steps
_REFERENCES = {"d1": ((1.0,), 1e-4), "d2": ((1.0, 1.0), 2.5e-4)}
# the FlowSpec of each flow_eval probe, as (kind, q and c)
_FLOWS = {"gf": ("gf", {}), "rgf": ("rgf", {"q": 3.0}),
          "rgf_c": ("rgf", {"q": 3.0, "c": 1.5}), "sgf": ("sgf", {"q": 3.0})}
_SCHEMES = ("euler", "rk", "nesterov", "gd", "nagd", "adam")


def load_package(checkout: Path, name: str) -> ModuleType:
    """The ``src/finiteflow`` package of ``checkout``, imported as ``name``;
    its relative imports resolve inside the same checkout. A package loaded
    before under ``name`` is dropped with its submodules, which would
    otherwise be reused."""
    for key in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[key]
    src = Path(checkout) / "src" / "finiteflow"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _makers(ff: ModuleType) -> dict[str, Callable[[], object]]:
    return {"quadratic": lambda: ff.make_quadratic(1.0, 2),
            "rosenbrock": lambda: ff.make_rosenbrock(1.0, 0.2),
            "pth_power": lambda: ff.make_pth_power(4.0, 64),
            "mlp": lambda: ff.make_mlp([1, 16, 1], 256, noise_std=0.3, seed=7)}


def _scheme_configs(ff: ModuleType) -> dict[str, object]:
    cfg, flow = ff.DiscretizerConfig, ff.FlowSpec
    return {"euler": cfg(scheme="euler", eta=1e-3, flow=flow("rgf", q=3.0)),
            "rk": cfg(scheme="rk", eta=1e-3, alphas=(0.5, 0.5), betas=(0.09,),
                      flow=flow("rgf", q=3.0)),
            "nesterov": cfg(scheme="nesterov", eta=1e-3, beta=0.9, flow=flow("sgf", q=3.0)),
            "gd": cfg(scheme="gd", eta=1e-3),
            "nagd": cfg(scheme="nagd", eta=1e-3, beta=0.9),
            "adam": cfg(scheme="adam", eta=1e-3)}


def _row_calls(maker: str) -> Callable:
    def build(ff, _work):
        obj = _makers(ff)[maker]()
        x = np.random.default_rng(0).uniform(-0.3, 0.3, obj.dimension)
        fused = obj.value_and_grad
        return lambda: per_call_us(lambda: fused(x))
    return build


def _flow_eval(name: str) -> Callable:
    def build(ff, _work):
        kind, params = _FLOWS[name]
        spec = ff.FlowSpec(kind, **params)
        grad = ff.make_rosenbrock(1.0, 0.2).gradient(np.array(_BANANA_X0))
        return lambda: per_call_us(lambda: ff.flow_eval(spec, grad))
    return build


def _step(scheme: str) -> Callable:
    def build(ff, _work):
        cfg, obj = _scheme_configs(ff)[scheme], ff.make_rosenbrock(1.0, 0.2)
        step, x0 = ff.integrators.make_step(cfg), np.array(_BANANA_X0)
        state = ff.init_state(x0)

        def one_step():
            nonlocal state
            state = step(cfg, obj, state)
            if state.k >= _RUN_ROWS:
                state = ff.init_state(x0)
        return lambda: per_call_us(one_step)
    return build


def _run_row(scheme: str) -> Callable:
    def build(ff, _work):
        cfg, obj = _scheme_configs(ff)[scheme], ff.make_rosenbrock(1.0, 0.2)
        x0, stop = np.array(_BANANA_X0), ff.StopCriteria(max_iters=_RUN_ROWS - 1)

        def one_run():
            traj = ff.run(cfg, obj, x0, stop)
            if traj.cycle_period is not None or len(traj) != _RUN_ROWS:
                raise AssertionError(f"the {scheme} probe's run cycled or stopped early")
        return lambda: _median_s(one_run)[0] / _RUN_ROWS * 1e6
    return build


def _reference_step(dim: str) -> Callable:
    def build(ff, _work):
        x0, h = _REFERENCES[dim]
        flow, obj = ff.FlowSpec("rgf", q=3.0), ff.make_quadratic(1.0, len(x0))
        x0, stop = np.array(x0), ff.StopCriteria(max_iters=_RUN_ROWS)

        def one_run():
            traj = ff.integrate_reference(flow, obj, x0, h, stop)
            if traj.cycle_period is not None or len(traj) != _RUN_ROWS + 1:
                raise AssertionError(f"the {dim} reference probe froze, cycled or stopped early")
        return lambda: _median_s(one_run)[0] / _RUN_ROWS * 1e6
    return build


def _closeness_epsilon(ff, _work):
    obj, flow, eta = ff.make_quadratic(1.0, 2), ff.FlowSpec("rgf", q=3.0), 1e-2
    x0, h = np.array([1.0, 1.0]), eta / 40.0
    params = ff.dominance_params(2.0, 1.0, flow.q, flow.c)
    horizon = 1.2 * ff.settling_time_bound(params, float(np.linalg.norm(obj.gradient(x0))))
    ref = ff.integrate_reference(flow, obj, x0, h, ff.StopCriteria(
        max_iters=int(math.ceil(horizon / h)) + 1))
    disc = ff.run(ff.DiscretizerConfig(scheme="euler", eta=eta, flow=flow), obj, x0,
                  ff.StopCriteria(max_iters=int(math.floor(horizon / eta + 1e-9))))
    return lambda: per_call_us(lambda: ff.closeness_epsilon(ref, disc, horizon, eta))


def _bound_report_closeness(ff, _work):
    obj, flow, eta, h = ff.make_quadratic(1.0, 1), ff.FlowSpec("rgf", q=3.0), 1e-3, 1e-4
    x0 = np.array([1.0])
    params = ff.dominance_params(2.0, 1.0, flow.q, flow.c)
    k_max = int(math.ceil(1.1 * ff.k_star(params, eta, obj.value(x0))))
    horizon, n_horizon = k_max * eta, int(math.ceil(k_max * eta / h))
    ref = ff.integrate_reference(flow, obj, x0, h, ff.StopCriteria(max_iters=n_horizon))
    disc = ff.run(ff.DiscretizerConfig(scheme="euler", eta=eta, flow=flow), obj, x0,
                  ff.StopCriteria(max_iters=k_max))
    return lambda: per_call_us(lambda: ff.closeness_epsilon(ref, disc, horizon, eta))


def _dominance(ff, _work):
    obj = ff.make_quadratic(1.0, 2)
    return lambda: _median_s(lambda: ff.check_gradient_dominance(
        obj, 2.0, 1.0, 1.0, 200, seed=0))[0] / 200 * 1e6


def _same_eta_csv(ff, work: Path):
    obj, cfg = ff.make_rosenbrock(1.0, 0.2), ff.DiscretizerConfig(scheme="gd", eta=1e-3)
    starts = np.random.default_rng(1).uniform(0.0, 2.0, (10, 2))
    trajs = [ff.run(cfg, obj, x0, ff.StopCriteria(max_iters=_RUN_ROWS - 1)) for x0 in starts]
    rows = sum(len(t) for t in trajs)

    def write_all():
        for i, traj in enumerate(trajs):
            ff.emit_csv(traj, work / f"{i}.csv", 0.0)
    return lambda: _median_s(write_all)[0] / rows * 1e6


def _sweep(workload: str) -> Callable:
    def build(ff, work: Path):
        configs = []
        for name, text in workloads.build(workload, 0).yaml_texts():
            config_path = work / f"{name}.yaml"
            config_path.write_text(text)
            configs.append((name, ff.load_config(config_path)))

        def repetition():
            out = work / "out"
            t0 = time.perf_counter()
            for name, cfg in configs:
                ff.run_experiment(cfg, out / name)
            elapsed = time.perf_counter() - t0
            shutil.rmtree(out)
            return elapsed
        return repetition
    return build


# name -> (unit, build), where build(package, work_dir) returns the measure
PROBES: dict[str, tuple[str, Callable]] = {
    **{f"objectives.row_calls_us.{m}": ("us", _row_calls(m))
       for m in ("quadratic", "rosenbrock", "pth_power", "mlp")},
    **{f"flows.flow_eval_us.{k}": ("us", _flow_eval(k)) for k in _FLOWS},
    **{f"integrators.step_us.{s}": ("us", _step(s)) for s in _SCHEMES},
    **{f"integrators.run_row_us.{s}": ("us/row", _run_row(s)) for s in _SCHEMES},
    **{f"integrators.reference_step_us.{d}": ("us/step", _reference_step(d))
       for d in _REFERENCES},
    "analysis.closeness_epsilon_us": ("us", _closeness_epsilon),
    "analysis.closeness_epsilon_us.d1": ("us", _bound_report_closeness),
    "analysis.dominance_us_per_point": ("us/point", _dominance),
    "bench.emit_csv_us_per_row.same_eta": ("us/row", _same_eta_csv),
    **{f"bench.run_experiment_s.{w}": ("s", _sweep(w))
       for w in ("bounds_analysis", "banana_sweep")},
}


def build_probes(ff: ModuleType, work: Path) -> tuple[dict, dict]:
    """The measure of each probe on package ``ff``, and the reason of each
    probe the package lacks a name for."""
    measures, absent = {}, {}
    for name in PROBES:
        probe_dir = work / name
        probe_dir.mkdir(parents=True, exist_ok=True)
        try:
            measures[name] = PROBES[name][1](ff, probe_dir)
        except (AttributeError, ImportError) as exc:
            absent[name] = f"{type(exc).__name__}: {exc}"
    return measures, absent


def alternate(measures: dict[str, dict[str, Callable]], rounds: int) -> list[dict]:
    """``rounds`` rounds of every probe on both sides: round i runs the
    parent first when i is even. ``measures[side][name]`` is the probe's
    measure; a probe missing from a side is skipped there."""
    out = []
    for i in range(rounds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        result = {"first": order[0], "parent": {}, "change": {}}
        for name in PROBES:
            for side in order:
                if name in measures[side]:
                    result[side][name] = measures[side][name]()
        out.append(result)
    return out


def summarize(results: list[dict], absent: dict[str, dict]) -> dict:
    """Per-probe medians, quartiles and round wins, lower being better, by
    ``bench_pairs.metric_summary``; ``absent[side]`` maps a probe the side
    lacks to the reason."""
    metrics = {}
    for name, (unit, _) in PROBES.items():
        parent, change = ([r[side][name] for r in results if name in r[side]]
                          for side in SIDES)
        entry = bench_pairs.metric_summary(unit, parent, change, "lower")
        missing = {side: absent[side][name] for side in SIDES if name in absent[side]}
        if missing:
            entry["absent"] = missing
        metrics[name] = entry
    return {"pairs": len(results), "metrics": metrics,
            "runs": [{"first": r["first"]} for r in results]}


def merge(out: Path, summary: dict, parent: Path, change: Path) -> None:
    """Merge ``summary`` into the trend file ``out`` as ``in_process``."""
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("machine", bench_pairs._machine())
    doc.setdefault("git_sha", {"parent": bench_pairs._git_sha(parent),
                               "change": bench_pairs._git_sha(change)})
    doc["in_process"] = summary
    doc["in_process_note"] = (
        "both checkouts imported into one process, parent and change alternating "
        "probe by probe, the side that ran first alternating by round; "
        "change_better_pairs and parent_better_pairs count the rounds each side "
        "read lower, ties counting for neither")
    out.write_text(json.dumps(doc, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    parent, change = args.parent.resolve(), args.change.resolve()
    packages = {"parent": load_package(parent, "finiteflow_parent"),
                "change": load_package(change, "finiteflow_change")}
    with tempfile.TemporaryDirectory() as tmp:
        built = {side: build_probes(packages[side], Path(tmp) / side) for side in SIDES}
        results = alternate({side: built[side][0] for side in SIDES}, args.rounds)
    summary = summarize(results, {side: built[side][1] for side in SIDES})
    summary["command"] = f"python3 tools/bench_inproc.py PARENT CHANGE --rounds {args.rounds}"
    merge(args.out, summary, parent, change)
    for name, entry in summary["metrics"].items():
        print(f"{name}: parent {entry['parent_median']} change {entry['change_median']} "
              f"{entry.get('change_better_pairs', '-')}/{summary['pairs']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
