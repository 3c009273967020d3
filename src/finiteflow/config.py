"""Experiment configuration: schema, validation, and shipped presets."""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .flows import FlowSpec
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


def _number(node: dict, key: str, where: str, default=None, allow_inf: bool = False):
    if key not in node:
        if default is None:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    val = node[key]
    if isinstance(val, str) and allow_inf and val.lower() in ("inf", "infinity"):
        return math.inf
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {val!r}")
    return float(val)


@dataclass(frozen=True)
class InitConfig:
    mode: str
    x0: tuple[float, ...] | None
    box_lo: float
    box_hi: float
    n_seeds: int
    base_seed: int

    def draw(self, dimension: int, seed: int) -> np.ndarray:
        if self.mode == "fixed":
            x0 = np.asarray(self.x0, dtype=float)
            if x0.shape != (dimension,):
                raise ConfigError(
                    f"init.x0 has length {len(x0)}, objective needs {dimension}")
            return x0.copy()
        rng = np.random.default_rng(seed)
        return rng.uniform(self.box_lo, self.box_hi, size=dimension)


@dataclass(frozen=True)
class DominanceCheckConfig:
    p: float
    mu: float
    radius: float
    n_samples: int


@dataclass(frozen=True)
class AnalysisConfig:
    run_bounds: bool = False
    run_closeness: bool = False
    h_ref: float | None = None
    dominance: DominanceCheckConfig | None = None


@dataclass(frozen=True)
class OutputConfig:
    dir: str
    formats: tuple[str, ...] = ("csv",)


@dataclass(frozen=True)
class NamedOptimizer:
    name: str
    config: DiscretizerConfig


@dataclass(frozen=True)
class BatchConfig:
    size: int


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

    def build_objective(self) -> Objective:
        return _OBJECTIVES[self.objective_name](**self.objective_params)


def _parse_flow(node, where: str) -> FlowSpec:
    node = _require_mapping(node, where)
    _reject_unknown(node, {"kind", "q", "c", "grad_threshold"}, where)
    try:
        return FlowSpec(
            kind=node.get("kind"),
            q=_number(node, "q", where, default=math.inf, allow_inf=True),
            c=_number(node, "c", where, default=1.0),
            grad_threshold=_number(node, "grad_threshold", where, default=1e-12),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_optimizer(node, index: int) -> NamedOptimizer:
    where = f"optimizers[{index}]"
    node = _require_mapping(node, where)
    _reject_unknown(node, {"name", "scheme", "eta", "beta", "flow", "stages",
                           "alphas", "betas", "beta1", "beta2", "epsilon"}, where)
    name = node.get("name")
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{where}.name: expected a non-empty string")
    scheme = str(node.get("scheme", "")).lower()
    if scheme not in SCHEMES:
        raise ConfigError(f"{where}.scheme: unknown scheme {node.get('scheme')!r}")

    eta = _number(node, "eta", where)
    if not eta > 0:
        raise ConfigError(f"{where}.eta: must be positive, got {eta}")

    kwargs: dict = {"scheme": scheme, "eta": eta,
                    "beta": _number(node, "beta", where, default=0.0)}
    if "flow" in node:
        kwargs["flow"] = _parse_flow(node["flow"], f"{where}.flow")
    if scheme == "rk":
        alphas = node.get("alphas")
        if not isinstance(alphas, list) or not alphas:
            raise ConfigError(f"{where}.alphas: expected a non-empty list")
        betas = node.get("betas", [])
        if not isinstance(betas, list):
            raise ConfigError(f"{where}.betas: expected a list")
        kwargs["stages"] = int(node.get("stages", len(alphas)))
        kwargs["alphas"] = tuple(float(a) for a in alphas)
        kwargs["betas"] = tuple(float(b) for b in betas)
    if scheme == "adam":
        kwargs["beta1"] = _number(node, "beta1", where, default=0.9)
        kwargs["beta2"] = _number(node, "beta2", where, default=0.999)
        kwargs["epsilon"] = _number(node, "epsilon", where, default=1e-8)

    try:
        return NamedOptimizer(name=name, config=DiscretizerConfig(**kwargs))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_init(node) -> InitConfig:
    where = "init"
    if node is None:
        return InitConfig(mode="uniform_box", x0=None, box_lo=-1.0, box_hi=1.0,
                          n_seeds=1, base_seed=0)
    node = _require_mapping(node, where)
    _reject_unknown(node, {"mode", "x0", "box_lo", "box_hi", "n_seeds", "base_seed"}, where)
    mode = node.get("mode", "fixed")
    if mode not in ("fixed", "uniform_box"):
        raise ConfigError(f"{where}.mode: expected fixed or uniform_box, got {mode!r}")
    n_seeds = int(node.get("n_seeds", 1))
    if n_seeds < 1:
        raise ConfigError(f"{where}.n_seeds: must be at least 1")
    base_seed = int(node.get("base_seed", 0))
    if base_seed < 0:
        raise ConfigError(f"{where}.base_seed: must be non-negative")
    x0 = None
    box_lo = box_hi = 0.0
    if mode == "fixed":
        raw = node.get("x0")
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{where}.x0: fixed init requires a coordinate list")
        x0 = tuple(float(v) for v in raw)
    else:
        box_lo = _number(node, "box_lo", where)
        box_hi = _number(node, "box_hi", where)
        if not box_hi > box_lo:
            raise ConfigError(f"{where}: box_hi must exceed box_lo")
    return InitConfig(mode=mode, x0=x0, box_lo=box_lo, box_hi=box_hi,
                      n_seeds=n_seeds, base_seed=base_seed)


def _parse_stop(node) -> StopCriteria:
    where = "stop"
    node = _require_mapping(node, where) if node is not None else {}
    _reject_unknown(node, {"max_iters", "grad_tol", "f_tol", "wall_limit"}, where)
    wall = node.get("wall_limit")
    try:
        return StopCriteria(
            max_iters=int(node.get("max_iters", DEFAULT_MAX_ITERS)),
            grad_tol=_number(node, "grad_tol", where, default=DEFAULT_GRAD_TOL),
            f_tol=_number(node, "f_tol", where, default=0.0),
            wall_limit=float(wall) if wall is not None else None,
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_analysis(node) -> AnalysisConfig:
    where = "analysis"
    if node is None:
        return AnalysisConfig()
    node = _require_mapping(node, where)
    _reject_unknown(node, {"run_bounds", "run_closeness", "h_ref", "dominance"}, where)
    dominance = None
    if node.get("dominance") is not None:
        dom = _require_mapping(node["dominance"], f"{where}.dominance")
        _reject_unknown(dom, {"p", "mu", "radius", "n_samples"}, f"{where}.dominance")
        dominance = DominanceCheckConfig(
            p=_number(dom, "p", f"{where}.dominance"),
            mu=_number(dom, "mu", f"{where}.dominance"),
            radius=_number(dom, "radius", f"{where}.dominance", default=1.0),
            n_samples=int(dom.get("n_samples", 200)),
        )
    h_ref = node.get("h_ref")
    return AnalysisConfig(
        run_bounds=bool(node.get("run_bounds", False)),
        run_closeness=bool(node.get("run_closeness", False)),
        h_ref=float(h_ref) if h_ref is not None else None,
        dominance=dominance,
    )


def _parse_output(node, name: str) -> OutputConfig:
    where = "output"
    if node is None:
        return OutputConfig(dir=f"out/{name}")
    node = _require_mapping(node, where)
    _reject_unknown(node, {"dir", "formats"}, where)
    formats = node.get("formats", ["csv"])
    if not isinstance(formats, list) or not formats:
        raise ConfigError(f"{where}.formats: expected a non-empty list")
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"{where}.formats: unknown format {fmt!r}")
    return OutputConfig(dir=str(node.get("dir", f"out/{name}")),
                        formats=tuple(formats))


def parse_config(data: dict, fallback_name: str = "experiment") -> ExperimentConfig:
    data = _require_mapping(data, "config")
    _reject_unknown(data, {"name", "objective", "optimizers", "init", "stop",
                           "analysis", "output", "batch"}, "config")
    name = str(data.get("name", fallback_name))

    obj_node = _require_mapping(data.get("objective"), "objective")
    _reject_unknown(obj_node, {"name", "params"}, "objective")
    obj_name = obj_node.get("name")
    if obj_name not in _OBJECTIVES:
        raise ConfigError(
            f"objective.name: unknown objective {obj_name!r}; "
            f"available {sorted(_OBJECTIVES)}")
    obj_params = obj_node.get("params", {})
    obj_params = _require_mapping(obj_params, "objective.params") if obj_params else {}
    try:
        _OBJECTIVES[obj_name](**obj_params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"objective.params: {exc}") from exc

    raw_opts = data.get("optimizers")
    if not isinstance(raw_opts, list) or not raw_opts:
        raise ConfigError("optimizers: expected a non-empty list")
    optimizers = tuple(_parse_optimizer(node, i) for i, node in enumerate(raw_opts))
    names = [o.name for o in optimizers]
    if len(set(names)) != len(names):
        raise ConfigError(f"optimizers: names must be unique, got {names}")

    batch = None
    if data.get("batch") is not None:
        bnode = _require_mapping(data["batch"], "batch")
        _reject_unknown(bnode, {"size"}, "batch")
        size = int(bnode.get("size", 0))
        if size < 1:
            raise ConfigError("batch.size: must be a positive integer")
        batch = BatchConfig(size=size)

    return ExperimentConfig(
        name=name,
        objective_name=obj_name,
        objective_params=dict(obj_params),
        optimizers=optimizers,
        init=_parse_init(data.get("init")),
        stop=_parse_stop(data.get("stop")),
        analysis=_parse_analysis(data.get("analysis")),
        output=_parse_output(data.get("output"), name),
        batch=batch,
    )


def preset_names() -> list[str]:
    root = resources.files("finiteflow") / "configs"
    return sorted(p.name[:-len(".yaml")] for p in root.iterdir()
                  if p.name.endswith(".yaml"))


def _preset_text(name: str) -> str | None:
    candidate = resources.files("finiteflow") / "configs" / f"{name}.yaml"
    if candidate.is_file():
        return candidate.read_text()
    return None


def load_config(path_or_preset: str | Path) -> ExperimentConfig:
    """Load and fully validate a config from a YAML file or a preset name."""
    path = Path(path_or_preset)
    if path.is_file():
        text = path.read_text()
        fallback = path.stem
    else:
        text = _preset_text(str(path_or_preset))
        fallback = str(path_or_preset)
        if text is None:
            raise ConfigError(
                f"config {path_or_preset!r} is neither a file nor a preset; "
                f"presets: {preset_names()}")
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"could not parse {path_or_preset}: {exc}") from exc
    return parse_config(data, fallback_name=fallback)
