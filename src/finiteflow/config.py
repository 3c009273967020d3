"""Experiment configuration: schema, validation, and shipped presets.

The config dataclasses are the schema: ``_section`` reads each YAML section
into its dataclass, which validates itself, and ``ExperimentConfig`` builds
its objective once to check the sections against it. ``parse_config`` adds
only the rules in which a config file differs from the API.
"""

from __future__ import annotations

import math
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .integrators import SCHEMES, DiscretizerConfig, StopCriteria
from .objectives import (Objective, make_mlp, make_pth_power, make_quadratic,
                         make_rosenbrock)

DEFAULT_MAX_ITERS = 100_000
DEFAULT_GRAD_TOL = 1e-8

_OBJECTIVES = {
    "quadratic": make_quadratic,
    "rosenbrock": make_rosenbrock,
    "pth_power": make_pth_power,
    "mlp": make_mlp,
}


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


def _require_mapping(node, where: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(node).__name__}")
    return node


def _reject_unknown(node: dict, allowed: set[str], where: str) -> None:
    unknown = set(node) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; allowed {sorted(allowed)}")


def _section(cls, node, where: str, **defaults):
    """Read a mapping (None reads as empty) into the dataclass ``cls``, with
    ``defaults`` for missing keys ahead of the class's own defaults."""
    node = _require_mapping({} if node is None else node, where)
    init_fields = [f for f in fields(cls) if f.init]
    _reject_unknown(node, {f.name for f in init_fields}, where)
    hints = typing.get_type_hints(cls)
    kwargs = dict(defaults)
    kwargs.update((key, _value(hints[key], val, f"{where}.{key}")) for key, val in node.items())
    for f in init_fields:
        if f.name not in kwargs and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where}: missing required key {f.name!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _value(tp, val, where: str):
    """Read one value as its field's type ``tp``: an int takes only integral
    numbers, a bool only booleans, a float any number or the string inf."""
    if typing.get_origin(tp) is types.UnionType:  # X | None
        if val is None:
            return None
        tp = next(arg for arg in typing.get_args(tp) if arg is not type(None))
    if is_dataclass(tp):
        return _section(tp, val, where)
    if typing.get_origin(tp) is tuple:
        if not isinstance(val, list):
            raise ConfigError(f"{where}: expected a list, got {val!r}")
        item = typing.get_args(tp)[0]
        return tuple(_value(item, v, f"{where}[{i}]") for i, v in enumerate(val))
    if tp is float and isinstance(val, str) and val.lower() in ("inf", "infinity"):
        return math.inf
    number = isinstance(val, (int, float)) and not isinstance(val, bool)
    ok = {bool: isinstance(val, bool), float: number,
          int: number and (isinstance(val, int) or val.is_integer())}.get(tp, isinstance(val, tp))
    if not ok:
        raise ConfigError(f"{where}: expected {tp.__name__}, got {val!r}")
    return tp(val)


@dataclass(frozen=True)
class InitConfig:
    """Initial points: ``x0`` for every seed (mode fixed), or one uniform
    draw from [box_lo, box_hi]^d per seed (mode uniform_box). The fields a
    mode does not use are cleared: x0 to None, the box to [0, 0]."""

    mode: str = "fixed"
    x0: tuple[float, ...] | None = None
    box_lo: float | None = None
    box_hi: float | None = None
    n_seeds: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.mode == "fixed":
            if not self.x0:
                raise ValueError("fixed init requires a coordinate list x0")
            object.__setattr__(self, "box_lo", 0.0)
            object.__setattr__(self, "box_hi", 0.0)
        elif self.mode == "uniform_box":
            if self.box_lo is None or self.box_hi is None:
                raise ValueError("uniform_box init requires box_lo and box_hi")
            if not self.box_hi > self.box_lo:
                raise ValueError("box_hi must exceed box_lo")
            object.__setattr__(self, "x0", None)
        else:
            raise ValueError(f"mode must be fixed or uniform_box, got {self.mode!r}")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be at least 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")

    def draw(self, dimension: int, seed: int) -> np.ndarray:
        if self.mode == "fixed":
            return np.array(self.x0, dtype=float)
        rng = np.random.default_rng(seed)
        return rng.uniform(self.box_lo, self.box_hi, size=dimension)


@dataclass(frozen=True)
class DominanceCheckConfig:
    p: float
    mu: float
    radius: float = 1.0
    n_samples: int = 200

    def __post_init__(self) -> None:
        if not 1 < self.p < math.inf:
            raise ValueError(f"p must exceed 1 and be finite, got {self.p}")
        if not 0 < self.mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if not 0 < self.radius < math.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be at least 1, got {self.n_samples}")


@dataclass(frozen=True)
class AnalysisConfig:
    run_bounds: bool = False
    run_closeness: bool = False
    h_ref: float | None = None
    dominance: DominanceCheckConfig | None = None

    def __post_init__(self) -> None:
        if self.h_ref is not None and not self.h_ref > 0:
            raise ValueError(f"h_ref must be positive, got {self.h_ref}")
        if (self.run_bounds or self.run_closeness) and self.dominance is None:
            raise ValueError("bounds/closeness analysis requires a dominance section "
                             "providing p and mu")


@dataclass(frozen=True)
class OutputConfig:
    """The CSVs are always written; ``json`` in ``formats`` adds ``summary.json``."""

    dir: str
    formats: tuple[str, ...] = ("csv",)

    def __post_init__(self) -> None:
        if not self.formats or not set(self.formats) <= {"csv", "json"}:
            raise ValueError(f"formats must be a non-empty list of csv and json, "
                             f"got {list(self.formats)}")


@dataclass(frozen=True)
class NamedOptimizer:
    name: str
    config: DiscretizerConfig


def finite_time_flow(opt: DiscretizerConfig) -> bool:
    """Whether ``opt`` is a finite-time optimizer: one on a flow with a finite
    settling time (rgf or sgf), the only flows the paper's bounds speak about."""
    return opt.flow is not None and opt.flow.kind in ("rgf", "sgf")


@dataclass(frozen=True)
class BatchConfig:
    size: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"size must be a positive integer, got {self.size}")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    objective_name: str
    objective_params: dict
    optimizers: tuple[NamedOptimizer, ...]
    init: InitConfig
    stop: StopCriteria
    analysis: AnalysisConfig
    output: OutputConfig
    batch: BatchConfig | None = None

    def __post_init__(self) -> None:
        if self.objective_name not in _OBJECTIVES:
            raise ValueError(f"objective.name: unknown objective {self.objective_name!r}; "
                             f"available {sorted(_OBJECTIVES)}")
        try:
            obj = self.build_objective()
        except (TypeError, ValueError) as exc:
            raise ValueError(f"objective.params: {exc}") from exc
        names = [o.name for o in self.optimizers]
        if not names or len(set(names)) != len(names):
            raise ValueError(f"optimizers: expected a non-empty list of unique names, got {names}")
        if self.init.x0 is not None and len(self.init.x0) != obj.dimension:
            raise ValueError(f"init.x0: has length {len(self.init.x0)}, "
                             f"objective needs {obj.dimension}")
        if self.batch is not None and obj.batch_gradient is None:
            raise ValueError(f"batch: objective {self.objective_name!r} has no mini-batch gradient")
        if self.batch is not None and self.batch.size > obj.aux["dataset_size"]:
            raise ValueError(f"batch: size {self.batch.size} exceeds the objective's "
                             f"dataset_size {obj.aux['dataset_size']}")
        analysis = self.analysis
        if analysis.run_bounds or analysis.run_closeness:
            # the finite-time bounds hold only for q > p on a cost with a known optimum
            p = analysis.dominance.p
            flows = {o.name: o.config.flow.q for o in self.optimizers
                     if finite_time_flow(o.config)}
            if not flows:
                raise ValueError("analysis: run_bounds and run_closeness need "
                                 "a flow-driven optimizer")
            for name, q in flows.items():
                if not q > p:
                    raise ValueError(f"analysis: optimizer {name!r} has q = {q:g}; "
                                     f"the finite-time bounds need q > dominance.p = {p:g}")
            if analysis.run_bounds and obj.metadata is None:
                raise ValueError(f"analysis: run_bounds needs an objective with a known "
                                 f"optimum; {self.objective_name!r} has none")

    def build_objective(self) -> Objective:
        return _OBJECTIVES[self.objective_name](**self.objective_params)


def _nonempty_str(val, where: str) -> str:
    if not isinstance(val, str) or not val:
        raise ConfigError(f"{where}: expected a non-empty string, got {val!r}")
    return val


def _parse_optimizer(node, where: str) -> NamedOptimizer:
    node = dict(_require_mapping(node, where))
    name = _nonempty_str(node.pop("name", None), f"{where}.name")
    scheme = str(node.get("scheme", "")).lower()
    if scheme not in SCHEMES:
        raise ConfigError(f"{where}.scheme: unknown scheme {node.get('scheme')!r}")
    node["scheme"] = scheme
    if scheme == "rk" and not node.get("alphas"):
        raise ConfigError(f"{where}.alphas: expected a non-empty list")
    config = _section(DiscretizerConfig, node, where)
    if not config.eta > 0:
        raise ConfigError(f"{where}.eta: must be positive, got {config.eta}")
    return NamedOptimizer(name=name, config=config)


def parse_config(data: dict, fallback_name: str = "experiment") -> ExperimentConfig:
    data = _require_mapping(data, "config")
    _reject_unknown(data, {"name", "objective", "optimizers", "init", "stop",
                           "analysis", "output", "batch"}, "config")
    name = _nonempty_str(data.get("name", fallback_name), "name")
    obj_node = _require_mapping(data.get("objective"), "objective")
    _reject_unknown(obj_node, {"name", "params"}, "objective")
    obj_params = _require_mapping(obj_node.get("params") or {}, "objective.params")
    raw_opts = data.get("optimizers")
    if not isinstance(raw_opts, list):
        raise ConfigError(f"optimizers: expected a list, got {raw_opts!r}")
    init, batch = data.get("init"), data.get("batch")
    sections = dict(
        name=name, objective_name=_nonempty_str(obj_node.get("name"), "objective.name"),
        objective_params=dict(obj_params),
        optimizers=tuple(_parse_optimizer(node, f"optimizers[{i}]")
                         for i, node in enumerate(raw_opts)),
        # without an init section every seed draws from [-1, 1]^d
        init=(InitConfig(mode="uniform_box", box_lo=-1.0, box_hi=1.0) if init is None
              else _section(InitConfig, init, "init")),
        stop=_section(StopCriteria, data.get("stop"), "stop",
                      max_iters=DEFAULT_MAX_ITERS, grad_tol=DEFAULT_GRAD_TOL),
        analysis=_section(AnalysisConfig, data.get("analysis"), "analysis"),
        output=_section(OutputConfig, data.get("output"), "output", dir=f"out/{name}"),
        batch=None if batch is None else _section(BatchConfig, batch, "batch"),
    )
    try:
        return ExperimentConfig(**sections)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def preset_names() -> list[str]:
    root = resources.files("finiteflow") / "configs"
    return sorted(p.name[:-len(".yaml")] for p in root.iterdir()
                  if p.name.endswith(".yaml"))


def load_config(path_or_preset: str | Path) -> ExperimentConfig:
    """Load and fully validate a config from a YAML file or a preset name."""
    path = Path(path_or_preset)
    if path.is_file():
        text, fallback = path.read_text(), path.stem
    else:
        preset = resources.files("finiteflow") / "configs" / f"{path_or_preset}.yaml"
        if not preset.is_file():
            raise ConfigError(
                f"config {path_or_preset!r} is neither a file nor a preset; "
                f"presets: {preset_names()}")
        text, fallback = preset.read_text(), str(path_or_preset)
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path_or_preset}: {exc}") from exc
    return parse_config(data, fallback_name=fallback)
