"""Per-call costs of single layers, timed on fixed inputs.

These do not depend on the workload: each traced run measures the same
calls, so a change to one layer shows here even on a workload that does
not lean on it. Objectives are the 2-D banana valley of ``banana_sweep``,
the MLP of ``mlp_minibatch`` and the p-th power cost of ``wide_power``.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from finiteflow import (BatchContext, DiscretizerConfig, FlowSpec, StopCriteria,
                        check_gradient_dominance, emit_csv,
                        dominance_params, energy_decay_envelope, flow_eval,
                        integrate_reference, make_mlp, make_pth_power,
                        make_quadratic, make_rosenbrock, run, verify_envelope)
from finiteflow.integrators import init_state, make_step

from workloads import WIDE_DIM

_BATCH_S = 0.01   # time per timed batch of calls
_REPEATS = 5      # batches; the median batch is reported

SCHEME_CONFIGS = {
    "euler": DiscretizerConfig(scheme="euler", eta=1e-3, flow=FlowSpec("rgf", q=3.0)),
    "rk": DiscretizerConfig(scheme="rk", eta=1e-3, stages=2, alphas=(0.5, 0.5),
                            betas=(0.09,), flow=FlowSpec("rgf", q=3.0)),
    "nesterov": DiscretizerConfig(scheme="nesterov", eta=1e-3, beta=0.9,
                                  flow=FlowSpec("sgf", q=3.0)),
    "gd": DiscretizerConfig(scheme="gd", eta=1e-3),
    "nagd": DiscretizerConfig(scheme="nagd", eta=1e-3, beta=0.9),
    "adam": DiscretizerConfig(scheme="adam", eta=1e-3),
}


def per_call_us(fn) -> float:
    """Median over batches of the wall time per call, in microseconds."""
    n = 1
    while True:
        t0 = perf_counter()
        for _ in range(n):
            fn()
        elapsed = perf_counter() - t0
        if elapsed >= _BATCH_S / 4:
            break
        n *= 4
    n = max(1, math.ceil(n * _BATCH_S / max(elapsed, 1e-9)))
    times = []
    for _ in range(_REPEATS):
        t0 = perf_counter()
        for _ in range(n):
            fn()
        times.append((perf_counter() - t0) / n)
    return statistics.median(times) * 1e6


def _median_s(fn, repeats: int = 3) -> tuple[float, object]:
    times, out = [], None
    for _ in range(repeats):
        t0 = perf_counter()
        out = fn()
        times.append(perf_counter() - t0)
    return statistics.median(times), out


def objectives() -> dict[str, float]:
    rng = np.random.default_rng(0)
    ros = make_rosenbrock(1.0, 0.2)
    mlp = make_mlp([1, 16, 1], 256, noise_std=0.3, seed=7)
    wide = make_pth_power(4.0, WIDE_DIM)
    points = {"rosenbrock": (ros, np.array([0.5, 1.5])),
              "mlp": (mlp, rng.uniform(-0.3, 0.3, mlp.dimension)),
              "pth_power": (wide, rng.uniform(-1.0, 1.0, WIDE_DIM))}
    out = {}
    for name, (obj, x) in points.items():
        out[f"objectives.value_us.{name}"] = per_call_us(lambda: obj.value(x))
        out[f"objectives.gradient_us.{name}"] = per_call_us(lambda: obj.gradient(x))
    theta = points["mlp"][1]
    batch = BatchContext(rng_seed=11, batch_size=32, dataset_size=256)
    idx = batch.indices(0)
    out["objectives.batch_gradient_us.mlp"] = per_call_us(
        lambda: mlp.batch_gradient(theta, idx))
    out["objectives.batch_indices_us.mlp"] = per_call_us(lambda: batch.indices(5))
    return out


def flows() -> dict[str, float]:
    grads = {"d2": make_rosenbrock(1.0, 0.2).gradient(np.array([0.5, 1.5])),
             f"d{WIDE_DIM}": np.random.default_rng(1).uniform(-1.0, 1.0, WIDE_DIM)}
    out = {}
    for kind in ("gf", "rgf", "sgf"):
        spec = FlowSpec(kind) if kind == "gf" else FlowSpec(kind, q=3.0)
        for dim, g in grads.items():
            out[f"flows.flow_eval_us.{kind}.{dim}"] = per_call_us(lambda: flow_eval(spec, g))
    return out


def integrators(n_steps: int = 2000) -> dict[str, float]:
    ros = make_rosenbrock(1.0, 0.2)
    x0 = np.array([0.5, 1.5])
    out = {}
    for scheme, cfg in SCHEME_CONFIGS.items():
        step = make_step(cfg)
        state = [init_state(x0)]

        def one_step():
            state[0] = step(cfg, ros, state[0])
            if state[0].k >= n_steps:
                state[0] = init_state(x0)

        out[f"integrators.step_us.{scheme}"] = per_call_us(one_step)
        stop = StopCriteria(max_iters=n_steps)
        seconds, _ = _median_s(lambda: run(cfg, ros, x0, stop))
        out[f"integrators.run_us_per_step.{scheme}"] = seconds / n_steps * 1e6
    quad = make_quadratic(1.0, 1)
    stop = StopCriteria(max_iters=n_steps)
    seconds, _ = _median_s(lambda: integrate_reference(
        FlowSpec("rgf", q=3.0), quad, np.array([1.0]), 1e-4, stop))
    out["integrators.reference_us_per_step"] = seconds / n_steps * 1e6
    return out


def bench_csv(work: Path, n_rows: int = 5000) -> dict[str, float]:
    traj = run(SCHEME_CONFIGS["euler"], make_rosenbrock(1.0, 0.2),
               np.array([0.5, 1.5]), StopCriteria(max_iters=n_rows - 1))
    path = work / "probe.csv"
    seconds, _ = _median_s(lambda: emit_csv(traj, path, 0.0))
    path.unlink()
    return {"bench.emit_csv_us_per_row": seconds / len(traj) * 1e6}


def analysis() -> dict[str, float]:
    quad = make_quadratic(1.0, 2)
    seconds, rep = _median_s(lambda: check_gradient_dominance(
        quad, 2.0, 1.0, 1.0, 200, seed=0))
    out = {"analysis.dominance_us_per_point": seconds / rep.n_evaluated * 1e6}
    quad1 = make_quadratic(1.0, 1)
    flow = FlowSpec("rgf", q=3.0)
    ref = integrate_reference(flow, quad1, np.array([1.0]), 1e-3,
                              StopCriteria(max_iters=5000, grad_tol=1e-6))
    params = dominance_params(2.0, 1.0, 3.0, 1.0)
    seconds, _ = _median_s(lambda: verify_envelope(
        ref, lambda t: energy_decay_envelope(params, 1.0, 0.5, t), 0.0,
        slack=1e-6, key="t"))
    out["analysis.verify_envelope_us_per_record"] = seconds / len(ref) * 1e6
    return out


def import_s(src: Path) -> float:
    """Cumulative import time of finiteflow.analysis less finiteflow.integrators,
    from ``-X importtime``, with numpy and yaml already imported."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import numpy, yaml; "
         "import finiteflow", str(src)],
        capture_output=True, text=True, timeout=120, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1])
    return (cumulative["finiteflow.analysis"]
            - cumulative.get("finiteflow.integrators", 0)) / 1e6


def all_layers(work: Path) -> dict[str, float]:
    out = {}
    for probe in (objectives, flows, integrators, analysis):
        out.update(probe())
    out.update(bench_csv(work))
    return out
