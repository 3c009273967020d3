"""Layered benchmark of finiteflow: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload banana_sweep --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout; finiteflow is imported from its
``src/``. One process, one client: repetitions of the workload run back
to back in a closed loop until ``--seconds`` is used up (at least
``MIN_REPS``). With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics (see README.md). Every repetition's
outputs are checked against ``reference.json``. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

THREAD_PINS = {"FINITEFLOW_WORKERS": "1", "OMP_NUM_THREADS": "1",
               "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)  # before numpy is imported

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

MIN_REPS = 3
MIN_SETUP_SAMPLES = 5

_SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import finiteflow
finiteflow.load_config(sys.argv[2]).build_objective()
"""


def _import_finiteflow():
    sys.path.insert(0, str(SRC))
    try:
        import finiteflow
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import finiteflow from {SRC}: {exc}")
    if Path(finiteflow.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: finiteflow was imported from {finiteflow.__file__}, "
                 f"not from {SRC}")
    return finiteflow


finiteflow = _import_finiteflow()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import probes  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

E2E_UNITS = {"setup_s": "s", "sweep_s": "s", "steps_per_s": "1/s",
             "cell_s.p50": "s", "cell_s.p90": "s", "peak_rss_mb": "MB",
             "artifact_mb": "MB"}


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine(seed: int, runner: Runner, trace: int) -> dict:
    by_set = {w.input_set: w for w in runner.cycle}
    used = sorted(set(runner.used), key=runner.used.index)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "thread_pins": THREAD_PINS,
        "seed": seed,
        "input_sets": used,
        "base_seeds": [by_set[i].base_seed for i in used],
        "mlp_data_seeds": [by_set[i].data_seed for i in used],
        "trace": trace,
    }


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def setup_seconds(config_path: Path) -> float:
    """Wall time of a fresh interpreter that imports finiteflow, loads the
    config and builds its objective."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), str(config_path)],
                   check=True, timeout=120)
    return perf_counter() - t0


class Runner:
    """Runs repetitions of one workload and checks their outputs.

    Repetition k runs input set ``cycle[k % len(cycle)]`` and is checked
    against ``references[input_set]``."""

    def __init__(self, cycle: list, work: Path, references: dict | None,
                 record: bool = False):
        self.cycle = cycle
        self.work = work
        self.paths: dict[int, list[Path]] = {}
        self.configs: dict[int, list] = {}
        for workload in cycle:
            paths = []
            for name, text in workload.yaml_texts():
                path = work / f"{name}-set{workload.input_set}.yaml"
                path.write_text(text)
                paths.append(path)
            self.paths[workload.input_set] = paths
            self.configs[workload.input_set] = [finiteflow.load_config(p) for p in paths]
        self.setup_path = self.paths[cycle[0].input_set][0]
        self.references = references or {}
        self.record = record
        self.observed: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.reps = 0
        self.used: list[int] = []

    def rep(self, traced: bool) -> dict:
        """One repetition: run_experiment on every config of the next input set."""
        input_set = self.cycle[self.reps % len(self.cycle)].input_set
        self.used.append(input_set)
        rec = spans.Recorder()
        root = rec.wrap(finiteflow.bench.run_experiment, "bench.run_experiment")
        out_root = self.work / f"rep{self.reps}"
        self.reps += 1
        observed, summaries = {}, []
        wall = 0.0
        with spans.instrument(rec, traced):
            for cfg in self.configs[input_set]:
                out = out_root / cfg.name
                first_cell = len(rec.cell_steps)
                t0 = perf_counter()
                summary = root(cfg, out)
                wall += perf_counter() - t0
                summaries.append(summary)
                observed[cfg.name] = verify.outputs(
                    summary, rec.cell_steps[first_cell:], out)
        result = {
            "wall_s": wall,
            "recorder": rec,
            "artifact_bytes": dir_bytes(out_root),
            "cells_own_s": sum(c.wall_s for s in summaries for c in s.cells),
        }
        shutil.rmtree(out_root)
        if self.record:
            self.observed = observed
        else:
            self.check(observed, self.references.get(input_set) or {})
        return result

    def check(self, observed: dict, expected: dict) -> None:
        for name in sorted(expected.keys() | observed.keys()):
            if name not in expected or name not in observed:
                self.attempted += 1
                self.failures.append(f"{name}: no reference or no output")
                continue
            attempted, failures = verify.compare(expected[name], observed[name])
            self.attempted += attempted
            self.failures += [f"{name}: {f}" for f in failures]

    def fail_rep(self, exc: BaseException) -> None:
        expected = self.references.get(self.used[-1]) or {}
        n = sum(len(verify.items(out)) for out in expected.values()) or 1
        self.attempted += n
        self.failures.append(f"repetition raised {exc!r}")
        traceback.print_exc(file=sys.stderr)

    def loop(self, seconds: float, pattern: tuple[bool, ...], min_reps: int = MIN_REPS,
             between=None) -> list[tuple[bool, dict]]:
        """Closed loop: repetitions back to back, cycling through ``pattern``
        (traced or not), while the next one is expected to end in time.
        ``between``, if given, is called after each repetition; its time
        counts toward ``seconds``. A repetition that raised is listed with
        result ``None``."""
        reps: list[tuple[bool, dict]] = []
        walls: list[float] = []
        t_end = perf_counter() + seconds
        while (len(walls) < max(min_reps, len(pattern))
               or perf_counter() + statistics.median(walls) <= t_end):
            traced = pattern[len(walls) % len(pattern)]
            t0 = perf_counter()
            try:
                reps.append((traced, self.rep(traced)))
            except Exception as exc:  # keep measuring; the failure is counted
                self.fail_rep(exc)
                reps.append((traced, None))
            if between is not None:
                between()
            walls.append(perf_counter() - t0)
        return reps


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    # The calibration loop runs right before and right after every
    # repetition and every setup sample (cal, rep, cal, setup, cal, rep,
    # cal, rep, cal, setup, ...), and each interval is normalized to the
    # reference host speed by the loop times on either side of it. A setup
    # sample follows every other repetition, so that the samples spread
    # over the whole run like the repetitions do.
    cal = [calibrate.seconds()]
    brackets: list[tuple[int, int]] = []  # calibrations around repetition i
    setup: list[float] = []
    setup_wall: list[float] = []

    def between():
        cal.append(calibrate.seconds())
        brackets.append((len(cal) - 2, len(cal) - 1))
        if len(brackets) % 2:
            setup_wall.append(setup_seconds(runner.setup_path))
            cal.append(calibrate.seconds())
            setup.append(calibrate.normalize(setup_wall[-1], cal[-2], cal[-1]))

    reps = [(i, r) for i, (_, r) in enumerate(runner.loop(
        seconds, (False,), min_reps=2 * MIN_SETUP_SAMPLES - 1, between=between))
        if r is not None]
    if not reps:
        return {}, {}
    # factor that turns a wall time of repetition i into reference-speed time
    speed = {i: calibrate.normalize(1.0, cal[brackets[i][0]], cal[brackets[i][1]])
             for i, _ in reps}
    sweep = statistics.median(r["wall_s"] * speed[i] for i, r in reps)
    sums = {i: spans.summarize(r["recorder"]) for i, r in reps}
    # each cell's median over the repetitions, so that the percentiles over
    # cells stay steady when a workload has only a few cells
    cells = np.median([np.asarray(sums[i]["cell_s"]) * speed[i] for i, _ in reps], axis=0)
    analysis = [s["total_s"].get("bench.analysis_reports", 0.0) * speed[i]
                for i, s in sums.items()]
    metrics = {
        "setup_s": statistics.median(setup),
        "sweep_s": sweep,
        "steps_per_s": statistics.median(r["recorder"].steps / (r["wall_s"] * speed[i])
                                         for i, r in reps),
        "cell_s.p50": float(np.percentile(cells, 50)),
        "cell_s.p90": float(np.percentile(cells, 90)),
        "peak_rss_mb": peak_rss_mb(),
        "artifact_mb": statistics.median(r["artifact_bytes"] for _, r in reps) / 1e6,
    }
    extra = {
        "repetitions": len(reps),
        "setup_samples": len(setup_wall),
        "cells": len(cells),
        "steps_per_rep": [r["recorder"].steps for _, r in reps],
        "analysis_s": statistics.median(analysis),
        "failed_ratio": len(runner.failures) / max(runner.attempted, 1),
        "host_speed": statistics.median(calibrate.REFERENCE_S / c for c in cal),
        "sweep_wall_s": statistics.median(r["wall_s"] for _, r in reps),
        "setup_wall_s": statistics.median(setup_wall),
    }
    return metrics, extra


def per_layer(runner: Runner, seconds: float) -> tuple[dict, dict, list]:
    t_probe = perf_counter()
    layer = probes.all_layers(runner.work)
    layer["analysis.import_s"] = probes.import_s(SRC)
    build_s = []
    for _ in range(5):
        t0 = perf_counter()
        for cfg in runner.configs[runner.cycle[0].input_set]:
            cfg.build_objective()
        build_s.append(perf_counter() - t0)
    layer["config.build_objective_s"] = statistics.median(build_s)
    probe_s = perf_counter() - t_probe

    reps = runner.loop(max(seconds - probe_s, 0.0), (False, True))
    plain = [r for traced, r in reps if not traced and r is not None]
    traced = [r for traced, r in reps if traced and r is not None]
    if not plain or not traced:
        return {}, {}, []
    sums = [spans.summarize(r["recorder"]) for r in traced]
    rec0 = traced[0]["recorder"]
    steps = rec0.steps
    in_run = statistics.median(s["in_run_s"] for s in sums)
    plain_wall = statistics.median(r["wall_s"] for r in plain)

    def med(fn):
        return statistics.median(fn(s) for s in sums)

    def calls_per_step(name):  # counts repeat exactly, so any repetition will do
        return sums[0]["calls"].get(name, 0) / max(steps, 1)

    layer.update({
        "objectives.value_calls_per_step": calls_per_step("objectives.value"),
        "objectives.gradient_calls_per_step": calls_per_step("objectives.gradient"),
        "objectives.batch_gradient_calls_per_step": calls_per_step("objectives.batch_gradient"),
        "integrators.steps": steps,
        "integrators.record_bytes_per_step": rec0.record_bytes / max(rec0.record_rows, 1),
        "bench.rows_written": rec0.rows_written,
        "bench.outside_run_share": statistics.median(
            (r["wall_s"] - r["cells_own_s"]) / r["wall_s"] for r in plain),
        "analysis.bound_report_s": med(lambda s: s["total_s"].get("bench.bound_report", 0.0)),
        "analysis.closeness_table_s": med(lambda s: s["total_s"].get("bench.closeness_table", 0.0)),
        "analysis.closeness_epsilon_s": med(
            lambda s: s["total_s"].get("analysis.closeness_epsilon", 0.0)),
        "trace.in_run_s": in_run,
        "trace.spans": sums[0]["spans"],
        "trace.overhead_share": (statistics.median(r["wall_s"] for r in traced)
                                 - plain_wall) / plain_wall,
    })
    for name in spans.LAYERS:
        self_s = med(lambda s: s["layer_self_s"][name])
        layer[f"{name}.self_s"] = self_s
        layer[f"{name}.self_share"] = self_s / in_run
    bases = {
        "*.self_share": f"trace.in_run_s = {in_run:.6g} s (traced repetition wall time)",
        "*_calls_per_step": f"integrators.steps = {steps} steps in the first traced repetition",
        "bench.outside_run_share": f"untraced repetition wall time = {plain_wall:.6g} s",
        "trace.overhead_share": f"untraced repetition wall time = {plain_wall:.6g} s",
        "integrators.record_bytes_per_step": (
            f"{rec0.record_bytes} bytes over {rec0.record_rows} recorded iterates "
            "(computed from Trajectory array sizes)"),
    }
    extra = {"repetitions_traced": len(traced), "repetitions_untraced": len(plain),
             "probe_s": probe_s, "ratio_bases": bases}
    return layer, extra, [r["recorder"] for r in traced]


def write_spans(path: Path, recorders: list) -> None:
    """All spans of the traced repetitions, one row per call into a layer."""
    names = sorted({n for rec in recorders for n in rec.names})
    columns = {k: [] for k in ("rep", "id", "name", "parent", "cell", "start", "end")}
    for i, rec in enumerate(recorders):
        cols = rec.arrays()
        remap = np.array([names.index(n) for n in rec.names], dtype=np.int64)
        cols["name"] = remap[cols["name"]] if len(cols["name"]) else cols["name"]
        cols["rep"] = np.full(len(cols["id"]), i)
        for k in columns:
            columns[k].append(cols[k])
    np.savez_compressed(path, names=np.array(names),
                        **{k: np.concatenate(v) for k, v in columns.items()})


# checked in order; the first family a metric name contains gives its unit
_LAYER_UNITS = (("_calls_per_step", "calls/step"), ("_us_per_step", "us/step"),
                ("_us_per_row", "us/row"), ("_us_per_point", "us/point"),
                ("_us_per_record", "us/record"), ("_us", "us"), ("_share", "ratio"),
                ("_bytes_per_step", "B/step"), ("rows_written", "count"),
                ("integrators.steps", "count"), ("trace.spans", "count"))


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    for family, unit in _LAYER_UNITS:
        if family in name:
            return unit
    if name.endswith("_s"):
        return "s"
    raise KeyError(f"no unit for metric {name!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="'smoke' shrinks every workload for the benchmark's tests")
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="recorded outputs to check against")
    args = parser.parse_args(argv)

    name = args.workload
    cycle = workloads.cycle(name, args.seed, workloads.SCALES[args.scale])
    recorded = (json.loads(args.reference.read_text())["workloads"]
                .get(args.scale, {}).get(name, {}))
    references = {int(k): v for k, v in recorded.items()}
    work = WORK / f"{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(cycle, work, references)
        if args.trace:
            metrics, extra, recorders = per_layer(runner, args.seconds)
        else:
            (metrics, extra), recorders = end_to_end(runner, args.seconds), []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not metrics:
        for line in runner.failures:
            print(line, file=sys.stderr)
        return 2

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    if args.scale != "full":
        stem += f"-{args.scale}"
    if recorders:
        write_spans(results / f"{stem}-spans.npz", recorders)
    failed = len(runner.failures)
    report = {
        "workload": name, "machine": machine(args.seed, runner, args.trace),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "extra": extra, "attempted": runner.attempted, "failed": failed,
        "failures": runner.failures[:50],
    }
    (results / f"{stem}.json").write_text(json.dumps(report, indent=2))

    for line in runner.failures[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    print(f"# {name} seed={args.seed} trace={args.trace} "
          f"(input sets {sorted(set(runner.used), key=runner.used.index)}; "
          f"derived seeds in the results file)")
    for name, value in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit_of(name)}")
    for name, value in extra.items():
        if name == "ratio_bases":
            for ratio, base in value.items():
                print(f"  base of {ratio}: {base}")
        elif name == "failed_ratio":
            print(f"{name:48s} {value:>16.6g} ratio ({failed} of {runner.attempted} checked items)")
        elif name == "analysis_s":
            if value > 0:
                print(f"{name:48s} {value:>16.6g} s")
        else:
            print(f"  {name}: {value}")
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
