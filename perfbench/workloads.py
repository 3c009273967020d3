"""Workload definitions: the configs each workload hands to finiteflow.

Every workload is a list of experiment configs, written out as YAML and
loaded through ``finiteflow.load_config``; finiteflow sees nothing else.
The optimizer grids are copied here rather than read from the shipped
presets, so that a change to a preset does not silently change the
benchmark.

The workload seed picks one of ``INPUT_SETS`` recorded input sets
(``seed mod INPUT_SETS``), and a run's repetitions go through the block of
``CYCLE`` sets it falls in from there on (``cycle``), so that the figures
of one run do not hang on the cells of a single input set. Each input set has reference outputs in
``reference.json``; the set index and workload name derive
``init.base_seed`` and, for the MLP, the dataset seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import yaml

INPUT_SETS = 20
# A run cycles through a block of CYCLE sets, about as many as a 50 s run
# makes repetitions, so that every run of a block sees the same inputs.
CYCLE = 10
WIDE_DIM = 4096

_WORKLOAD_TAGS = {"banana_sweep": 1, "mlp_minibatch": 2,
                  "bounds_analysis": 3, "wide_power": 4}
WORKLOADS = tuple(_WORKLOAD_TAGS)

# The rosenbrock_fig1 optimizer grid, including the sgf_nesterov_q10 cells
# that stall at f ~ 3e-5 and so always run to max_iters.
_BANANA_OPTIMIZERS = [
    {"name": "gd", "scheme": "gd", "eta": 1.0e-3},
    {"name": "rgf_euler_q2.2", "scheme": "euler", "eta": 1.0e-3, "flow": {"kind": "rgf", "q": 2.2, "c": 1.0}},
    {"name": "rgf_euler_q3", "scheme": "euler", "eta": 1.0e-2, "flow": {"kind": "rgf", "q": 3.0, "c": 1.0}},
    {"name": "rgf_euler_q6", "scheme": "euler", "eta": 1.0e-2, "flow": {"kind": "rgf", "q": 6.0, "c": 1.0}},
    {"name": "rgf_euler_q10", "scheme": "euler", "eta": 1.0e-2, "flow": {"kind": "rgf", "q": 10.0, "c": 1.0}},
    {"name": "sgf_nesterov_q2.2", "scheme": "nesterov", "eta": 1.0e-4, "beta": 0.9, "flow": {"kind": "sgf", "q": 2.2, "c": 1.0}},
    {"name": "sgf_nesterov_q3", "scheme": "nesterov", "eta": 1.0e-3, "beta": 0.9, "flow": {"kind": "sgf", "q": 3.0, "c": 1.0}},
    {"name": "sgf_nesterov_q6", "scheme": "nesterov", "eta": 1.0e-3, "beta": 0.9, "flow": {"kind": "sgf", "q": 6.0, "c": 1.0}},
    {"name": "sgf_nesterov_q10", "scheme": "nesterov", "eta": 1.0e-2, "beta": 0.09, "flow": {"kind": "sgf", "q": 10.0, "c": 1.0}},
] + [
    {"name": f"rgf_rk_q{q}", "scheme": "rk", "eta": 1.0e-2, "stages": 2,
     "alphas": [0.5, 0.5], "betas": [0.09], "flow": {"kind": "rgf", "q": float(q), "c": 1.0}}
    for q in ("2.2", "3", "6", "10")
]


@dataclass(frozen=True)
class Scale:
    """Sizes of one workload run; ``FULL`` is the benchmark, ``SMOKE`` is
    small enough for the benchmark's own tests."""

    banana_seeds: int
    banana_iters: int
    mlp_seeds: int
    mlp_iters: int
    wide_dim: int
    wide_iters: int
    bounds_eta: float
    bounds_h_ref: float
    bounds_iters: int
    closeness_iters: int


# banana_iters is 1000 where the rosenbrock_fig1 preset allows 100000, so
# slow cells are cut along with stalled ones; README.md ("The step cap")
# gives the measured effect and why a higher cap does not fit a run.
FULL = Scale(banana_seeds=10, banana_iters=1000, mlp_seeds=3, mlp_iters=800,
             wide_dim=WIDE_DIM, wide_iters=1000, bounds_eta=1.0e-3,
             bounds_h_ref=1.0e-4, bounds_iters=100000, closeness_iters=1000)
SMOKE = Scale(banana_seeds=1, banana_iters=40, mlp_seeds=1, mlp_iters=20,
              wide_dim=64, wide_iters=20, bounds_eta=2.0e-2,
              bounds_h_ref=2.0e-3, bounds_iters=20, closeness_iters=20)
SCALES = {"full": FULL, "smoke": SMOKE}


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    input_set: int
    base_seed: int
    data_seed: int | None
    configs: tuple[tuple[str, dict], ...]

    def yaml_texts(self) -> list[tuple[str, str]]:
        return [(name, yaml.safe_dump(data, sort_keys=False))
                for name, data in self.configs]


def derived_seeds(name: str, input_set: int) -> tuple[int, int]:
    """(init.base_seed, MLP data seed) for one workload and input set."""
    state = np.random.SeedSequence([_WORKLOAD_TAGS[name], input_set]).generate_state(2)
    return int(state[0]), int(state[1])


def _banana(s: Scale, base_seed: int, _data_seed: int) -> list[tuple[str, dict]]:
    return [("banana_sweep", {
        "name": "banana_sweep",
        "objective": {"name": "rosenbrock", "params": {"a": 1.0, "b": 0.2}},
        "optimizers": _BANANA_OPTIMIZERS,
        "init": {"mode": "uniform_box", "box_lo": 0.0, "box_hi": 2.0,
                 "n_seeds": s.banana_seeds, "base_seed": base_seed},
        "stop": {"max_iters": s.banana_iters, "f_tol": 1.0e-6, "grad_tol": 0.0},
        "output": {"formats": ["csv"]},
    })]


def _mlp(s: Scale, base_seed: int, data_seed: int) -> list[tuple[str, dict]]:
    return [("mlp_minibatch", {
        "name": "mlp_minibatch",
        "objective": {"name": "mlp", "params": {
            "layer_widths": [1, 16, 1], "dataset_size": 256,
            "noise_std": 0.3, "seed": data_seed}},
        "batch": {"size": 32},
        "optimizers": [
            {"name": "sgf_nesterov_q3", "scheme": "nesterov", "eta": 0.04,
             "beta": 0.9, "flow": {"kind": "sgf", "q": 3.0, "c": 1.0e-3}},
            {"name": "nagd", "scheme": "nagd", "eta": 0.04, "beta": 0.9},
        ],
        "init": {"mode": "uniform_box", "box_lo": -0.3, "box_hi": 0.3,
                 "n_seeds": s.mlp_seeds, "base_seed": base_seed},
        "stop": {"max_iters": s.mlp_iters, "grad_tol": 0.0, "f_tol": 0.0},
    })]


def _bounds(s: Scale, base_seed: int, _data_seed: int) -> list[tuple[str, dict]]:
    # The quadratic_bounds and closeness_sweep presets. Both start from a
    # fixed point, so the seed only moves the gradient-dominance samples.
    dominance = {"p": 2.0, "mu": 1.0, "radius": 1.0}
    return [
        ("quadratic_bounds", {
            "name": "quadratic_bounds",
            "objective": {"name": "quadratic", "params": {"mu": 1.0, "dimension": 1}},
            "optimizers": [{"name": "rgf_euler_q3", "scheme": "euler", "eta": s.bounds_eta,
                            "flow": {"kind": "rgf", "q": 3.0, "c": 1.0}}],
            "init": {"mode": "fixed", "x0": [1.0], "base_seed": base_seed},
            "stop": {"max_iters": s.bounds_iters, "grad_tol": 1.0e-6},
            "analysis": {"run_bounds": True, "h_ref": s.bounds_h_ref,
                         "dominance": {**dominance, "n_samples": 200}},
        }),
        ("closeness_sweep", {
            "name": "closeness_sweep",
            "objective": {"name": "quadratic", "params": {"mu": 1.0, "dimension": 2}},
            "optimizers": [{"name": "rgf_euler_q3", "scheme": "euler", "eta": 10 * s.bounds_eta,
                            "flow": {"kind": "rgf", "q": 3.0, "c": 1.0}}],
            "init": {"mode": "fixed", "x0": [1.0, 1.0], "base_seed": base_seed},
            "stop": {"max_iters": s.closeness_iters, "grad_tol": 0.0},
            "analysis": {"run_closeness": True,
                         "dominance": {**dominance, "n_samples": 100}},
        }),
    ]


def _wide(s: Scale, base_seed: int, _data_seed: int) -> list[tuple[str, dict]]:
    return [("wide_power", {
        "name": "wide_power",
        "objective": {"name": "pth_power", "params": {"p": 4.0, "dimension": s.wide_dim}},
        "optimizers": [
            {"name": "sgf_euler_q6", "scheme": "euler", "eta": 1.0e-3,
             "flow": {"kind": "sgf", "q": 6.0, "c": 1.0}},
            {"name": "rgf_euler_q6", "scheme": "euler", "eta": 1.0e-2,
             "flow": {"kind": "rgf", "q": 6.0, "c": 1.0}},
        ],
        "init": {"mode": "uniform_box", "box_lo": -1.0, "box_hi": 1.0,
                 "n_seeds": 2, "base_seed": base_seed},
        "stop": {"max_iters": s.wide_iters, "grad_tol": 0.0},
    })]


_BUILDERS = {"banana_sweep": _banana, "mlp_minibatch": _mlp,
             "bounds_analysis": _bounds, "wide_power": _wide}


def build(name: str, seed: int, scale: Scale = FULL) -> Workload:
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    input_set = seed % INPUT_SETS
    base_seed, data_seed = derived_seeds(name, input_set)
    configs = _BUILDERS[name](scale, base_seed, data_seed)
    return Workload(name=name, seed=seed, input_set=input_set, base_seed=base_seed,
                    data_seed=data_seed if name == "mlp_minibatch" else None,
                    configs=tuple(configs))


def cycle(name: str, seed: int, scale: Scale = FULL) -> list[Workload]:
    """The ``CYCLE`` input sets of the block that ``seed`` falls in, starting
    at the set it selects; a run's repetitions go through them in this
    order."""
    first = seed % INPUT_SETS
    block = first - first % CYCLE
    return [build(name, block + (first + k) % CYCLE, scale) for k in range(CYCLE)]
