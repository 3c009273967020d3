import atexit
import contextlib
import itertools
import json
import math
import os
import re
import signal
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
import yaml

from finiteflow import (ConfigError, DiscretizerConfig, FlowSpec, StopCriteria,
                        Trajectory, closeness_epsilon, dominance_params,
                        emit_csv, energy_decay_envelope, integrate_reference,
                        k_star, load_config, make_quadratic, preset_names, run,
                        run_experiment, settling_time_bound, verify_envelope,
                        weak_bound)
from finiteflow import bench, config
from finiteflow.bench import read_csv
from finiteflow.cli import cli_main
from finiteflow.config import (AnalysisConfig, BatchConfig, DominanceCheckConfig,
                               InitConfig, NamedOptimizer)

MINIMAL = {
    "name": "mini",
    "objective": {"name": "quadratic", "params": {"mu": 1.0, "dimension": 2}},
    "optimizers": [{"name": "gd", "scheme": "gd", "eta": 0.1}],
    "init": {"mode": "fixed", "x0": [1.0, 0.0]},
}


def write_config(tmp_path, data, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def empty_trajectory(dim=1):
    return Trajectory(k=np.zeros(0, dtype=int), t=np.zeros(0),
                      x=np.zeros((0, dim)), f=np.zeros(0),
                      grad_norm2=np.zeros(0), grad_norm1=np.zeros(0),
                      wall_s=np.zeros(0), terminal_reason="max_iters")


class TestLoadConfig:
    def test_minimal_config_gets_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.stop.max_iters == 100_000
        assert cfg.stop.grad_tol == 1e-8
        assert cfg.stop.f_tol == 0.0
        assert cfg.analysis.h_ref is None
        assert cfg.output.formats == ("csv",)

    def test_objective_plus_optimizer_alone_suffices(self, tmp_path):
        data = {"objective": MINIMAL["objective"],
                "optimizers": MINIMAL["optimizers"]}
        cfg = load_config(write_config(tmp_path, data))
        assert cfg.init.mode == "uniform_box"
        assert cfg.init.n_seeds == 1
        assert cfg.stop.max_iters == 100_000
        assert cfg.stop.grad_tol == 1e-8

    def test_inconsistent_stage_weights_rejected(self, tmp_path):
        data = dict(MINIMAL)
        data["optimizers"] = [{
            "name": "rk", "scheme": "rk", "eta": 0.01,
            "alphas": [0.6, 0.6], "betas": [0.09],
            "flow": {"kind": "rgf", "q": 3.0},
        }]
        with pytest.raises(ConfigError, match="consistency"):
            load_config(write_config(tmp_path, data))

    @pytest.mark.parametrize("optimizer,message", [
        ({"scheme": "runge_kutta", "alphas": [1.0]}, r"optimizers\[0\]\.scheme: unknown scheme"),
        ({"scheme": "euler"}, r"optimizers\[0\]: scheme 'euler' requires a flow"),
        ({"scheme": "gd", "flow": {"kind": "gf"}}, r"optimizers\[0\]: scheme 'gd' does not take"),
        ({"scheme": "euler", "flow": {"kind": "xgf"}},
         r"optimizers\[0\]\.flow: unknown flow kind 'xgf'"),
    ])
    def test_optimizer_errors_carry_location(self, tmp_path, optimizer, message):
        data = dict(MINIMAL)
        data["optimizers"] = [dict(optimizer, name="opt", eta=0.01)]
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, data))

    def test_duplicate_optimizer_names_rejected(self, tmp_path):
        data = dict(MINIMAL)
        data["optimizers"] = [{"name": "gd", "scheme": "gd", "eta": 0.1}] * 2
        with pytest.raises(ConfigError, match="unique"):
            load_config(write_config(tmp_path, data))

    def test_infinite_q_spelled_as_string(self, tmp_path):
        data = dict(MINIMAL)
        data["optimizers"] = [{"name": "inf", "scheme": "euler", "eta": 0.01,
                               "flow": {"kind": "rgf", "q": "inf"}}]
        cfg = load_config(write_config(tmp_path, data))
        assert math.isinf(cfg.optimizers[0].config.flow.q)

    @pytest.mark.parametrize("overrides,message", [
        ({"surprise": 1}, r"^config: unknown keys"),
        ({"objective": {"name": "quadratic", "params": {"mu": 1.0, "dimension": 2},
                        "extra": 1}}, r"^objective: unknown keys"),
        ({"optimizers": [{"name": "gd", "scheme": "gd", "eta": 0.1, "momentum": 0.9}]},
         r"^optimizers\[0\]: unknown keys"),
        ({"optimizers": [{"name": "e", "scheme": "euler", "eta": 0.1,
                          "flow": {"kind": "rgf", "p": 3.0}}]},
         r"^optimizers\[0\]\.flow: unknown keys"),
        ({"init": {"mode": "fixed", "x0": [1.0, 0.0], "seed": 1}}, r"^init: unknown keys"),
        ({"stop": {"max_iter": 10}}, r"^stop: unknown keys"),
        ({"analysis": {"bounds": True}}, r"^analysis: unknown keys"),
        ({"analysis": {"dominance": {"p": 2.0, "mu": 1.0, "samples": 10}}},
         r"^analysis\.dominance: unknown keys"),
        ({"output": {"directory": "out"}}, r"^output: unknown keys"),
        ({"batch": {"size": 1, "shuffle": True}}, r"^batch: unknown keys"),
        ({"init": {"mode": "gaussian"}}, r"^init\b.*mode.*'gaussian'"),
        ({"init": {"mode": "fixed", "x0": [1.0, 0.0], "n_seeds": 0}}, r"^init\b.*n_seeds"),
        ({"init": {"mode": "uniform_box", "box_hi": 1.0}}, r"^init\b.*box_lo"),
        ({"init": {"mode": "uniform_box", "box_lo": 1.0, "box_hi": 1.0}},
         r"^init\b.*box_hi must exceed box_lo"),
        ({"init": {"mode": "fixed"}}, r"^init\b.*x0"),
        ({"batch": {"size": 0}}, r"^batch\b.*size"),
        ({"output": {"formats": ["xml"]}}, r"^output\b.*'xml'"),
        ({"optimizers": [{"name": "gd", "scheme": "gd", "eta": 0}]},
         r"^optimizers\[0\]\.eta: must be positive"),
        ({"optimizers": [{"name": "rk", "scheme": "rk", "eta": 0.1,
                          "flow": {"kind": "rgf", "q": 3.0}}]},
         r"^optimizers\[0\]\.alphas"),
        ({"analysis": {"run_bounds": True}}, r"^analysis: .*requires a dominance section"),
        ({"init": {"mode": "fixed", "x0": [1.0, 2.0, 3.0]}},
         r"^init\.x0: has length 3, objective needs 2"),
        ({"batch": {"size": 1}}, r"^batch: objective 'quadratic' has no mini-batch gradient"),
        ({"objective": {"name": "mlp", "params": {"layer_widths": [1, 2, 1],
                                                  "dataset_size": 8}},
          "init": {"mode": "uniform_box", "box_lo": -1.0, "box_hi": 1.0},
          "batch": {"size": 9}}, r"^batch: size 9 exceeds the objective's dataset_size 8"),
        ({"analysis": {"run_bounds": True, "dominance": {"p": 2.0, "mu": 1.0}}},
         r"^analysis: run_bounds and run_closeness need a flow-driven optimizer"),
        ({"optimizers": [{"name": "gf", "scheme": "euler", "eta": 0.1,
                          "flow": {"kind": "gf"}}],
          "analysis": {"run_bounds": True, "dominance": {"p": 2.0, "mu": 1.0}}},
         r"^analysis: run_bounds and run_closeness need a flow-driven optimizer"),
        ({"optimizers": [{"name": "rgf", "scheme": "euler", "eta": 0.1,
                          "flow": {"kind": "rgf", "q": 1.5}}],
          "analysis": {"run_closeness": True, "dominance": {"p": 2.0, "mu": 1.0}}},
         r"^analysis: optimizer 'rgf' has q = 1\.5; .*need q > dominance\.p = 2"),
        ({"objective": {"name": "mlp", "params": {"layer_widths": [1, 2, 1],
                                                  "dataset_size": 8}},
          "optimizers": [{"name": "rgf", "scheme": "euler", "eta": 0.1,
                          "flow": {"kind": "rgf", "q": 3.0}}],
          "init": {"mode": "uniform_box", "box_lo": -1.0, "box_hi": 1.0},
          "analysis": {"run_bounds": True, "dominance": {"p": 2.0, "mu": 1.0}}},
         r"^analysis: run_bounds needs an objective with a known optimum; 'mlp' has none"),
        ({"analysis": {"dominance": {"p": 1.0, "mu": 1.0}}},
         r"^analysis\.dominance: p must exceed 1"),
        ({"analysis": {"dominance": {"p": 2.0, "mu": -1.0}}},
         r"^analysis\.dominance: mu must be positive"),
        ({"name": None}, r"^name: expected a non-empty string, got None"),
        ({"objective": {"name": ["quadratic"], "params": {"mu": 1.0, "dimension": 2}}},
         r"^objective\.name: expected a non-empty string, got \['quadratic'\]"),
        ({"optimizers": [{"name": "e", "scheme": "euler", "eta": 0.1,
                          "flow": {"kind": "rgf", "q": 3.0}, "alphas": [0.2, 0.8],
                          "betas": [5.0], "stages": 2}]},
         r"^optimizers\[0\]: scheme 'euler' does not take stages, alphas, betas$"),
        ({"optimizers": [{"name": "gf", "scheme": "euler", "eta": 0.1,
                          "flow": {"kind": "gf", "q": 3}}]},
         r"^optimizers\[0\]\.flow: plain gradient flow does not take q$"),
        ({"optimizers": [{"name": "gd", "scheme": "gd", "eta": math.nan}]},
         r"^optimizers\[0\]: step size eta must be non-negative, got nan$"),
        ({"optimizers": [{"name": "e", "scheme": "euler", "eta": 0.1,
                          "flow": {"kind": "rgf", "q": 3.0, "grad_threshold": math.nan}}]},
         r"^optimizers\[0\]\.flow: grad_threshold must be non-negative$"),
        ({"stop": {"grad_tol": math.nan}}, r"^stop: tolerances must be non-negative$"),
        ({"stop": {"f_tol": math.nan}}, r"^stop: tolerances must be non-negative$"),
        ({"optimizers": [{"name": "rk", "scheme": "rk", "eta": 0.1, "alphas": [math.nan],
                          "flow": {"kind": "rgf", "q": 3.0}}]},
         r"^optimizers\[0\]: stage weights alphas must be finite, got \(nan,\)$"),
        ({"optimizers": [{"name": "rk", "scheme": "rk", "eta": 0.1, "alphas": [0.5, 0.5],
                          "betas": [math.nan], "flow": {"kind": "rgf", "q": 3.0}}]},
         r"^optimizers\[0\]: stage offsets betas must be finite, got \(nan,\)$"),
        ({"optimizers": [{"name": "rk", "scheme": "rk", "eta": 0.1, "alphas": [0.5, 0.5],
                          "betas": [math.inf], "flow": {"kind": "rgf", "q": 3.0}}]},
         r"^optimizers\[0\]: stage offsets betas must be finite, got \(inf,\)$"),
        ({"optimizers": [{"name": "gd", "scheme": "gd", "eta": math.inf}]},
         r"^optimizers\[0\]: step size eta must be finite, got inf$"),
        ({"optimizers": [{"name": "adam", "scheme": "adam", "eta": 0.1, "epsilon": math.inf}]},
         r"^optimizers\[0\]: adam epsilon must be positive and finite, got inf$"),
        ({"optimizers": [{"name": "e", "scheme": "euler", "eta": 0.1,
                          "flow": {"kind": "rgf", "q": 3.0, "c": math.inf}}]},
         r"^optimizers\[0\]\.flow: c must be positive and finite, got inf$"),
        ({"optimizers": [{"name": "e", "scheme": "euler", "eta": 0.1,
                          "flow": {"kind": "rgf", "q": 3.0, "grad_threshold": math.inf}}]},
         r"^optimizers\[0\]\.flow: grad_threshold must be finite, got inf$"),
        ({"analysis": {"dominance": {"p": math.inf, "mu": 1.0}}},
         r"^analysis\.dominance: p must exceed 1 and be finite, got inf$"),
        ({"analysis": {"dominance": {"p": 2.0, "mu": math.inf}}},
         r"^analysis\.dominance: mu must be positive and finite, got inf$"),
        ({"analysis": {"dominance": {"p": 2.0, "mu": 1.0, "radius": math.inf}}},
         r"^analysis\.dominance: radius must be positive and finite, got inf$"),
        ({"init": {"mode": "fixed", "x0": [math.nan, 1.0]}},
         r"^init: x0 must be finite, got \[nan, 1\.0\]$"),
        ({"init": {"mode": "fixed", "x0": [1.0, -math.inf]}},
         r"^init: x0 must be finite, got \[1\.0, -inf\]$"),
        ({"init": {"mode": "uniform_box", "box_lo": -1.0, "box_hi": math.inf}},
         r"^init: box_lo and box_hi must be finite, got \[-1\.0, inf\]$"),
        ({"init": {"mode": "uniform_box", "box_lo": -math.inf, "box_hi": 1.0}},
         r"^init: box_lo and box_hi must be finite, got \[-inf, 1\.0\]$"),
        ({"objective": {"name": "rosenbrock", "params": {"a": math.inf}}},
         r"^objective\.params: x_star must be finite, got \[inf inf\]$"),
        ({"objective": {"name": "rosenbrock", "params": {"a": 1e200}}},
         r"^objective\.params: x_star = \(a, a \*\* 2\) overflows, got a = 1e\+200$"),
        *(({"optimizers": [{"name": "gd", "scheme": "gd", "eta": 0.1},
                           {"name": name, "scheme": "gd", "eta": 0.1}]},
           rf"^optimizers\[1\]\.name: {re.escape(repr(name))} cannot head a file name "
           r"or fill a CSV field: it holds '/', '\\', ',' or a control character, "
           r"or is '\.' or '\.\.'$")
          for name in ("a,b", "../escaped", "sub/gd", "back\\slash", "tab\tname", "nul\x00",
                       "del\x7f", "next\x85line", ".", "..")),
    ], ids=["config-key", "objective-key", "optimizer-key", "flow-key", "init-key",
            "stop-key", "analysis-key", "dominance-key", "output-key", "batch-key",
            "init-mode", "n_seeds-0", "box_lo-missing", "empty-box", "fixed-no-x0",
            "batch-size-0", "format-xml", "eta-0", "rk-no-alphas",
            "bounds-no-dominance", "x0-length", "batch-no-support",
            "batch-over-dataset", "analysis-no-flow", "analysis-gf-only",
            "q-not-above-p", "bounds-no-optimum", "dominance-p-1",
            "dominance-mu-negative", "name-null", "objective-name-list",
            "euler-rk-fields", "gf-q", "eta-nan", "grad_threshold-nan", "grad_tol-nan",
            "f_tol-nan", "alphas-nan", "betas-nan", "betas-inf", "eta-inf", "epsilon-inf",
            "c-inf", "grad_threshold-inf", "dominance-p-inf", "dominance-mu-inf",
            "dominance-radius-inf", "x0-nan", "x0-inf", "box_hi-inf", "box_lo-inf",
            "x_star-inf", "x_star-overflow", "name-comma", "name-parent", "name-slash",
            "name-backslash", "name-tab", "name-nul", "name-del", "name-nel", "name-dot",
            "name-dotdot"])
    def test_malformed_config_rejected_with_location(self, tmp_path, overrides, message):
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, {**MINIMAL, **overrides}))

    @pytest.mark.parametrize("init,message", [
        ({"mode": "uniform_box", "x0": [3.0, 0.0], "box_lo": 0.0, "box_hi": 1.0},
         r"^init: uniform_box init does not take x0$"),
        ({"mode": "fixed", "x0": [1.0, 0.0], "box_lo": 5.0, "box_hi": -3.0},
         r"^init: fixed init does not take box_lo, box_hi$"),
        ({"mode": "fixed", "x0": [1.0, 0.0], "box_hi": 1.0},
         r"^init: fixed init does not take box_hi$"),
    ], ids=["uniform-x0", "fixed-box", "fixed-box_hi"])
    def test_init_refuses_fields_its_mode_does_not_read(self, tmp_path, init, message):
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, {**MINIMAL, "init": init}))
        with pytest.raises(ValueError, match=message[len("^init: "):]):
            InitConfig(**{key: tuple(v) if key == "x0" else v for key, v in init.items()})

    def test_fields_a_mode_does_not_read_stay_none(self):
        fixed = InitConfig(mode="fixed", x0=(1.0,))
        assert (fixed.box_lo, fixed.box_hi) == (None, None)
        assert InitConfig(mode="uniform_box", box_lo=0.0, box_hi=1.0).x0 is None

    @pytest.mark.parametrize("overrides,message", [
        ({"stop": {"max_iters": 10.7}}, r"^stop\.max_iters: "),
        ({"stop": {"max_iters": "50"}}, r"^stop\.max_iters: "),
        ({"init": {"mode": "fixed", "x0": [1.0, 0.0], "n_seeds": 2.9}}, r"^init\.n_seeds: "),
        ({"analysis": {"run_bounds": "false"}}, r"^analysis\.run_bounds: "),
        ({"analysis": {"h_ref": -1}}, r"^analysis\b.*h_ref"),
        ({"analysis": {"dominance": {"p": 2.0, "mu": 1.0, "n_samples": 0}}},
         r"^analysis\.dominance\b.*n_samples"),
    ], ids=["max_iters-fraction", "max_iters-string", "n_seeds-fraction",
            "run_bounds-string", "h_ref-negative", "n_samples-0"])
    def test_values_of_the_wrong_type_or_range_are_not_coerced(self, tmp_path, overrides,
                                                               message):
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, {**MINIMAL, **overrides}))

    @pytest.mark.parametrize("preset,build,message", [
        ("rosenbrock_fig1", lambda c: replace(c, optimizers=c.optimizers + c.optimizers[:1]),
         r"^optimizers: expected a non-empty list of unique names, got \['gd'"),
        ("rosenbrock_fig1", lambda c: replace(c, optimizers=()),
         r"^optimizers: expected a non-empty list of unique names, got \[\]"),
        ("quadratic_bounds", lambda c: replace(c, objective_name="cubic"),
         r"^objective\.name: unknown objective 'cubic'"),
        ("quadratic_bounds", lambda c: replace(c, objective_params={"sigma": 1.0}),
         r"^objective\.params: "),
        ("quadratic_bounds", lambda c: replace(c, init=replace(c.init, x0=(1.0, 2.0))),
         r"^init\.x0: has length 2, objective needs 1"),
        ("quadratic_bounds", lambda c: replace(c, batch=BatchConfig(1)),
         r"^batch: objective 'quadratic' has no mini-batch gradient"),
        ("mlp_desk", lambda c: replace(c, batch=BatchConfig(10**6)),
         r"^batch: size 1000000 exceeds the objective's dataset_size"),
        ("quadratic_bounds", lambda c: replace(c, optimizers=(
            NamedOptimizer("gd", DiscretizerConfig(scheme="gd", eta=0.1)),)),
         r"^analysis: run_bounds and run_closeness need a flow-driven optimizer"),
        ("quadratic_bounds", lambda c: replace(c, optimizers=(
            NamedOptimizer("gf", DiscretizerConfig(scheme="euler", eta=0.1,
                                                   flow=FlowSpec("gf"))),)),
         r"^analysis: run_bounds and run_closeness need a flow-driven optimizer"),
        ("closeness_sweep", lambda c: replace(c, optimizers=tuple(
            replace(o, config=replace(o.config, flow=replace(o.config.flow, q=1.5)))
            for o in c.optimizers)),
         r"^analysis: optimizer 'rgf_euler_q3' has q = 1\.5"),
        ("mlp_desk", lambda c: replace(c, analysis=AnalysisConfig(
            run_bounds=True, dominance=DominanceCheckConfig(p=2.0, mu=1.0))),
         r"^analysis: run_bounds needs an objective with a known optimum"),
        ("quadratic_bounds", lambda c: replace(c.analysis.dominance, p=1.0),
         r"^p must exceed 1"),
        ("quadratic_bounds", lambda c: replace(c.analysis.dominance, p=0.5),
         r"^p must exceed 1"),
        ("quadratic_bounds", lambda c: replace(c.analysis.dominance, mu=-1.0),
         r"^mu must be positive"),
    ], ids=["duplicate-names", "no-optimizers", "unknown-objective", "bad-params",
            "x0-length", "batch-no-support", "batch-over-dataset", "analysis-no-flow",
            "analysis-gf-only", "q-not-above-p", "bounds-no-optimum", "dominance-p-1", "dominance-p-half",
            "dominance-mu-negative"])
    def test_faulty_config_built_in_python_rejected(self, preset, build, message):
        cfg = load_config(preset)
        with pytest.raises(ValueError, match=message):
            build(cfg)

    def test_load_config_builds_the_objective_once(self, monkeypatch):
        calls = []
        factory = config._OBJECTIVES["quadratic"]

        def counted(**params):
            calls.append(params)
            return factory(**params)

        monkeypatch.setitem(config._OBJECTIVES, "quadratic", counted)
        load_config("quadratic_bounds")
        assert calls == [{"mu": 1.0, "dimension": 1}]

    def test_whole_number_float_reads_as_integer(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {**MINIMAL, "stop": {"max_iters": 1.0e3}}))
        assert cfg.stop.max_iters == 1000 and isinstance(cfg.stop.max_iters, int)

    def test_missing_file_and_unknown_preset(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/nope.yaml")

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("objective: {name: quadratic\n")
        with pytest.raises(ConfigError):
            load_config(path)


# the fields, besides eta, that each scheme's step reads
SCHEME_FIELDS = {"euler": ("flow",), "rk": ("flow", "stages", "alphas", "betas"),
                 "nesterov": ("flow", "beta"), "gd": (), "nagd": ("beta",),
                 "adam": ("beta1", "beta2", "epsilon")}
# a value off its default for each optimizer field; a scheme's own values
# together make a valid config of that scheme
OFF_DEFAULT = {"beta": 0.5, "flow": {"kind": "rgf", "q": 3.0}, "stages": 2,
               "alphas": [0.5, 0.5], "betas": [0.09], "beta1": 0.5, "beta2": 0.5,
               "epsilon": 1e-6}


def python_fields(node: dict) -> dict:
    return {key: FlowSpec(**val) if key == "flow" else tuple(val) if isinstance(val, list)
            else val for key, val in node.items()}


def load_second_optimizer(tmp_path, node: dict):
    """Load MINIMAL with ``node`` as its optimizer ``optimizers[1]``."""
    data = {**MINIMAL, "optimizers": MINIMAL["optimizers"] + [dict(node, name="opt", eta=0.1)]}
    return load_config(write_config(tmp_path, data)).optimizers[1].config


class TestSchemeFields:
    def test_table_lists_every_scheme_and_seventeen_fields(self):
        assert sorted(SCHEME_FIELDS) == sorted(config.SCHEMES)
        # eta plus the listed fields
        assert sum(1 + len(taken) for taken in SCHEME_FIELDS.values()) == 17

    @pytest.mark.parametrize("scheme", sorted(SCHEME_FIELDS))
    def test_scheme_accepts_its_own_fields(self, tmp_path, scheme):
        own = {key: OFF_DEFAULT[key] for key in SCHEME_FIELDS[scheme]}
        cfg = DiscretizerConfig(scheme, eta=0.1, **python_fields(own))
        assert all(getattr(cfg, key) == val for key, val in python_fields(own).items())
        assert load_second_optimizer(tmp_path, dict(own, scheme=scheme)) == cfg

    @pytest.mark.parametrize("scheme,field", [
        (scheme, key) for scheme, taken in sorted(SCHEME_FIELDS.items())
        for key in OFF_DEFAULT if key not in taken])
    def test_scheme_refuses_every_other_field(self, tmp_path, scheme, field):
        own = {key: OFF_DEFAULT[key] for key in SCHEME_FIELDS[scheme]}
        node = dict(own, **{field: OFF_DEFAULT[field]})
        with pytest.raises(ValueError, match=rf"^scheme '{scheme}' does not take {field}$"):
            DiscretizerConfig(scheme, eta=0.1, **python_fields(node))
        with pytest.raises(ConfigError,
                           match=rf"^optimizers\[1\]: scheme '{scheme}' does not take {field}$"):
            load_second_optimizer(tmp_path, dict(node, scheme=scheme))

    def test_refusal_names_every_field_off_its_default(self):
        with pytest.raises(ValueError, match=r"^scheme 'euler' does not take beta, alphas, beta1$"):
            DiscretizerConfig("euler", eta=0.1, beta=0.5, flow=FlowSpec("rgf", q=3.0),
                              alphas=(0.2, 0.8), beta1=0.2)
        with pytest.raises(ValueError, match=r"^scheme 'gd' does not take stages$"):
            DiscretizerConfig("gd", eta=0.1, stages=0)

    def test_stages_defaults_to_the_number_of_weights(self):
        rk = DiscretizerConfig("rk", eta=0.1, flow=FlowSpec("rgf", q=3.0),
                               alphas=(0.25, 0.5, 0.25), betas=(0.5, 0.5))
        assert rk.stages == 3
        assert DiscretizerConfig("gd", eta=0.1).stages == 1

    @pytest.mark.parametrize("preset", preset_names())
    def test_replacing_eta_keeps_every_preset_optimizer(self, preset):
        for opt in load_config(preset).optimizers:
            cfg = replace(opt.config, eta=opt.config.eta / 2)
            assert replace(cfg, eta=opt.config.eta) == opt.config


class TestPresets:
    def test_all_four_presets_ship(self):
        assert {"rosenbrock_fig1", "quadratic_bounds", "mlp_desk",
                "closeness_sweep"} <= set(preset_names())

    def test_rosenbrock_preset_lists_reference_optimizer_grid(self):
        cfg = load_config("rosenbrock_fig1")
        by_name = {o.name: o.config for o in cfg.optimizers}

        assert by_name["gd"].scheme == "gd" and by_name["gd"].eta == 1e-3

        euler_grid = {2.2: 1e-3, 3.0: 1e-2, 6.0: 1e-2, 10.0: 1e-2}
        for q, eta in euler_grid.items():
            opt = by_name[f"rgf_euler_q{q:g}"]
            assert opt.scheme == "euler" and opt.eta == eta
            assert opt.flow.kind == "rgf" and opt.flow.q == q

        nesterov_grid = {2.2: (1e-4, 0.9), 3.0: (1e-3, 0.9),
                         6.0: (1e-3, 0.9), 10.0: (1e-2, 0.09)}
        for q, (eta, beta) in nesterov_grid.items():
            opt = by_name[f"sgf_nesterov_q{q:g}"]
            assert opt.scheme == "nesterov"
            assert (opt.eta, opt.beta) == (eta, beta)
            assert opt.flow.kind == "sgf" and opt.flow.q == q

        for q in (2.2, 3.0, 6.0, 10.0):
            opt = by_name[f"rgf_rk_q{q:g}"]
            assert opt.scheme == "rk" and opt.stages == 2
            assert opt.alphas == (0.5, 0.5) and opt.betas == (0.09,)
            assert opt.eta == 1e-2 and opt.flow.q == q

        assert cfg.init.mode == "uniform_box"
        assert (cfg.init.box_lo, cfg.init.box_hi) == (0.0, 2.0)
        assert cfg.init.n_seeds == 10

    def test_presets_parse_and_validate(self):
        for name in preset_names():
            cfg = load_config(name)
            assert cfg.optimizers


SPECIAL = np.array([math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e300, 0.1])


def row_by_row_csv(traj, f_star) -> bytes:
    """The CSV bytes of a trajectory with every number formatted in its row."""
    lines = ["k,t,f,f_gap,grad_norm2,grad_norm1,wall_s"]
    for i in range(len(traj)):
        f = float(traj.f[i])
        gap = f - f_star if f_star is not None else math.nan
        values = (float(traj.t[i]), f, gap, float(traj.grad_norm2[i]),
                  float(traj.grad_norm1[i]), float(traj.wall_s[i]))
        lines.append(",".join([str(int(traj.k[i]))] + [f"{v:.17g}" for v in values]))
    return ("\n".join(lines) + "\n").encode()


class TestEmitCsv:
    def test_empty_trajectory_writes_header_only(self, tmp_path):
        path = emit_csv(empty_trajectory(), tmp_path / "empty.csv")
        assert path.read_text() == "k,t,f,f_gap,grad_norm2,grad_norm1,wall_s\n"

    def test_single_record_is_two_lines(self, tmp_path):
        traj = Trajectory(k=np.array([0]), t=np.array([0.0]),
                          x=np.array([[1.0]]), f=np.array([0.5]),
                          grad_norm2=np.array([1.0]), grad_norm1=np.array([1.0]),
                          wall_s=np.array([0.0]), terminal_reason="max_iters")
        path = emit_csv(traj, tmp_path / "one.csv", f_star=0.0)
        lines = path.read_text().splitlines()
        assert len(lines) == 2

    def test_round_trip_recovers_floats_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 50
        traj = Trajectory(k=np.arange(n), t=0.1 * np.arange(n),
                          x=rng.standard_normal((n, 2)),
                          f=rng.standard_normal(n) * 1e-7 + 1.0,
                          grad_norm2=np.abs(rng.standard_normal(n)),
                          grad_norm1=np.abs(rng.standard_normal(n)),
                          wall_s=np.linspace(0, 1, n),
                          terminal_reason="max_iters")
        path = emit_csv(traj, tmp_path / "rt.csv", f_star=0.0)
        cols = read_csv(path)
        assert np.array_equal(cols["f"], traj.f)
        assert np.array_equal(cols["grad_norm2"], traj.grad_norm2)
        assert np.array_equal(cols["t"], traj.t)

    def test_newlines_are_lf(self, tmp_path):
        path = emit_csv(empty_trajectory(), tmp_path / "lf.csv")
        assert b"\r" not in path.read_bytes()

    @pytest.mark.parametrize("f_star", [None, 0.0])
    @pytest.mark.parametrize("n", [0, 7])
    def test_bytes_match_row_by_row_rendering(self, tmp_path, f_star, n):
        f, t, gn2, gn1, wall = (np.roll(SPECIAL, shift)[:n] for shift in range(5))
        traj = Trajectory(k=np.arange(n), t=t, x=np.zeros((n, 2)), f=f, grad_norm2=gn2,
                          grad_norm1=gn1, wall_s=wall, terminal_reason="numerical_failure")
        path = emit_csv(traj, tmp_path / "rows.csv", f_star)
        assert path.read_bytes() == row_by_row_csv(traj, f_star)

    @pytest.mark.parametrize("f_star", [None, 0.0, 0.5])
    @pytest.mark.parametrize("held_wall", [True, False])
    @pytest.mark.parametrize("start, period, n", [(0, 1, 9), (3, 2, 40), (1, 6, 45),
                                                  (2, 5, 6), (4, 3, 7)])
    def test_filled_cycle_bytes_match_row_by_row_rendering(self, tmp_path, f_star, held_wall,
                                                          start, period, n):
        # rows from start on repeat with the period in every column but k, t
        # and wall_s, which is held from row 20 on or takes special values
        row = [j if j < start + period else start + (j - start) % period for j in range(n)]
        f, gn2, gn1, wall = (np.roll(SPECIAL, shift)[row] for shift in range(4))
        if held_wall:
            wall = np.minimum(0.25 * np.arange(n), 5.0)
        traj = Trajectory(k=np.arange(n), t=0.1 * np.arange(n), x=np.zeros((n, 2)), f=f,
                          grad_norm2=gn2, grad_norm1=gn1, wall_s=wall,
                          terminal_reason="max_iters", cycle_start=start, cycle_period=period)
        path = emit_csv(traj, tmp_path / "cycle.csv", f_star)
        assert path.read_bytes() == row_by_row_csv(traj, f_star)

    @pytest.mark.parametrize("f_star", [None, 0.0])
    def test_filled_run_bytes_match_row_by_row_rendering(self, tmp_path, f_star):
        # Euler on the normalized flow cycles between 0.01 and -0.02 from x0 = 1
        traj = run(DiscretizerConfig(scheme="euler", eta=0.03, flow=FlowSpec("rgf")),
                   make_quadratic(1.0, 1), np.array([1.0]), StopCriteria(max_iters=500))
        assert traj.cycle_period == 2 and len(traj) == 501
        path = emit_csv(traj, tmp_path / "run.csv", f_star)
        assert path.read_bytes() == row_by_row_csv(traj, f_star)


class TestRunExperiment:
    def test_single_cell_matches_geometric_decay(self, tmp_path):
        data = dict(MINIMAL)
        data["stop"] = {"max_iters": 100000, "grad_tol": 1e-6, "f_tol": 0.0}
        cfg = load_config(write_config(tmp_path, data))
        summary = run_experiment(cfg, out_dir=tmp_path / "out")
        cell = summary.cells[0]
        assert cell.terminal_reason == "grad_tol"
        cols = read_csv(cell.csv_path)
        assert len(cols["k"]) == 133
        assert cols["k"][-1] == 132

    def test_reruns_are_byte_identical_apart_from_wall_time(self, tmp_path):
        data = dict(MINIMAL)
        data["init"] = {"mode": "uniform_box", "box_lo": 0.0, "box_hi": 2.0,
                        "n_seeds": 3, "base_seed": 7}
        data["stop"] = {"max_iters": 200, "grad_tol": 0.0, "f_tol": 0.0}
        cfg = load_config(write_config(tmp_path, data))
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        for seed in (7, 8, 9):
            a = (tmp_path / "a" / f"gd__seed{seed}.csv").read_text().splitlines()
            b = (tmp_path / "b" / f"gd__seed{seed}.csv").read_text().splitlines()
            assert len(a) == len(b)
            for la, lb in zip(a, b):
                assert la.rsplit(",", 1)[0] == lb.rsplit(",", 1)[0]

    def test_sweep_writes_exactly_cells_plus_summary(self, tmp_path):
        data = dict(MINIMAL)
        data["optimizers"] = [
            {"name": "gd", "scheme": "gd", "eta": 0.1},
            {"name": "euler", "scheme": "euler", "eta": 0.1,
             "flow": {"kind": "rgf", "q": 3.0}},
        ]
        data["init"] = {"mode": "uniform_box", "box_lo": -1.0, "box_hi": 1.0,
                        "n_seeds": 4, "base_seed": 0}
        data["stop"] = {"max_iters": 50, "grad_tol": 0.0, "f_tol": 0.0}
        cfg = load_config(write_config(tmp_path, data))
        out = tmp_path / "sweep"
        run_experiment(cfg, out_dir=out)
        cell_files = sorted(p.name for p in out.glob("*__seed*.csv"))
        assert len(cell_files) == 8
        assert (out / "summary.csv").exists()

    def test_mean_curve_bytes_match_row_by_row_rendering(self, tmp_path):
        data = dict(MINIMAL)
        data["optimizers"] = [{"name": "euler", "scheme": "euler", "eta": 0.3,
                               "flow": {"kind": "rgf", "q": 3.0}}]
        data["init"] = {"mode": "uniform_box", "box_lo": 0.5, "box_hi": 1.5,
                        "n_seeds": 3, "base_seed": 3}
        data["stop"] = {"max_iters": 60, "grad_tol": 0.0, "f_tol": 1e-3}
        out = tmp_path / "mean"
        summary = run_experiment(load_config(write_config(tmp_path, data)), out_dir=out)
        curves = [read_csv(c.csv_path)["f"] for c in summary.cells]
        longest = max(len(f) for f in curves)
        assert min(len(f) for f in curves) < longest  # padding is exercised
        stacked = np.array([np.concatenate([f, np.full(longest - len(f), f[-1])])
                            for f in curves])
        mean_f = stacked.mean(axis=0)
        lines = ["k,mean_f,mean_f_gap"] + [
            f"{k},{float(mean_f[k]):.17g},{float(mean_f[k]) - 0.0:.17g}"
            for k in range(longest)]
        assert (out / "euler__mean_curve.csv").read_bytes() == (
            "\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("objective", [
        MINIMAL["objective"],
        {"name": "mlp", "params": {"layer_widths": [1, 2, 1], "dataset_size": 8}},
    ], ids=["never-reaches-f_tol", "no-f_star"])
    def test_summary_json_is_valid_json(self, tmp_path, objective):
        def reject(constant):
            raise AssertionError(f"summary.json holds {constant}")

        data = {**MINIMAL, "objective": objective,
                "init": {"mode": "uniform_box", "box_lo": -1.0, "box_hi": 1.0,
                         "n_seeds": 3},
                "stop": {"max_iters": 5, "f_tol": 1e-12},
                "output": {"dir": str(tmp_path / "out"), "formats": ["csv", "json"]}}
        summary = run_experiment(load_config(write_config(tmp_path, data)))
        payload = json.loads((tmp_path / "out" / "summary.json").read_text(),
                             parse_constant=reject)
        assert payload == {"gd": {k: v if math.isfinite(v) else None
                                  for k, v in summary.aggregate("gd").items()}}
        assert payload["gd"]["median_iters_to_tol"] is None

    def test_summary_medians_match_recomputation_from_csvs(self, tmp_path):
        data = dict(MINIMAL)
        data["init"] = {"mode": "uniform_box", "box_lo": 0.5, "box_hi": 1.5,
                        "n_seeds": 5, "base_seed": 3}
        data["stop"] = {"max_iters": 80, "grad_tol": 0.0, "f_tol": 0.0}
        cfg = load_config(write_config(tmp_path, data))
        out = tmp_path / "med"
        summary = run_experiment(cfg, out_dir=out)
        finals = [read_csv(out / f"gd__seed{3 + i}.csv")["f"][-1] for i in range(5)]
        assert summary.aggregate("gd")["median_final_f"] == np.median(finals)

    def test_aggregate_median_lies_between_min_and_max(self, tmp_path):
        data = dict(MINIMAL)
        data["init"] = {"mode": "uniform_box", "box_lo": 0.5, "box_hi": 1.5,
                        "n_seeds": 5, "base_seed": 3}
        data["stop"] = {"max_iters": 40, "grad_tol": 0.0, "f_tol": 0.0}
        cfg = load_config(write_config(tmp_path, data))
        stats = run_experiment(cfg, out_dir=tmp_path / "agg").aggregate("gd")
        assert (stats["min_final_f"] <= stats["median_final_f"]
                <= stats["max_final_f"])

    def test_cell_csv_does_not_depend_on_other_cells(self, tmp_path):
        data = dict(MINIMAL)
        data["stop"] = {"max_iters": 60, "grad_tol": 0.0, "f_tol": 0.0}
        data["init"] = {"mode": "uniform_box", "box_lo": 0.0, "box_hi": 1.0,
                        "n_seeds": 1, "base_seed": 4}
        run_experiment(load_config(write_config(tmp_path, data, "alone.yaml")),
                       out_dir=tmp_path / "alone")
        data["init"] = dict(data["init"], n_seeds=4, base_seed=1)
        run_experiment(load_config(write_config(tmp_path, data, "sweep.yaml")),
                       out_dir=tmp_path / "sweep")
        a = (tmp_path / "alone" / "gd__seed4.csv").read_text().splitlines()
        b = (tmp_path / "sweep" / "gd__seed4.csv").read_text().splitlines()
        assert len(a) == len(b) == 62
        for la, lb in zip(a, b):
            assert la.rsplit(",", 1)[0] == lb.rsplit(",", 1)[0]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_failed_cells_recorded_without_aborting(self, tmp_path):
        data = dict(MINIMAL)
        data["objective"] = {"name": "rosenbrock", "params": {"a": 1.0, "b": 100.0}}
        data["optimizers"] = [
            {"name": "explode", "scheme": "gd", "eta": 10.0},
            {"name": "ok", "scheme": "gd", "eta": 1e-4},
        ]
        data["init"] = {"mode": "fixed", "x0": [1.5, 0.0], "n_seeds": 1}
        data["stop"] = {"max_iters": 50, "grad_tol": 0.0, "f_tol": 0.0}
        cfg = load_config(write_config(tmp_path, data))
        summary = run_experiment(cfg, out_dir=tmp_path / "fail")
        reasons = {c.optimizer: c.terminal_reason for c in summary.cells}
        assert reasons["explode"] == "numerical_failure"
        assert reasons["ok"] == "max_iters"
        assert len(list((tmp_path / "fail").glob("*__seed*.csv"))) == 2
        # the objective overflows while observing iterate 4; iterates 0-3 stay
        cols = read_csv(tmp_path / "fail" / "explode__seed0.csv")
        assert cols["k"].tolist() == [0, 1, 2, 3]
        assert np.all(np.isfinite(cols["f"]))

    def test_sweep_holds_one_trajectory_at_a_time(self, tmp_path, monkeypatch):
        data = dict(MINIMAL)
        data["optimizers"] = [{"name": "gd", "scheme": "gd", "eta": 0.1},
                              {"name": "nagd", "scheme": "nagd", "eta": 0.1, "beta": 0.5}]
        data["init"] = {"mode": "uniform_box", "box_lo": -1.0, "box_hi": 1.0,
                        "n_seeds": 3}
        data["stop"] = {"max_iters": 40, "grad_tol": 0.0, "f_tol": 0.0}
        refs, alive_at_return = [], []

        def watched_run(*args, **kwargs):
            traj = run(*args, **kwargs)
            alive_at_return.append(sum(r() is not None for r in refs))
            refs.append(weakref.ref(traj))
            return traj

        monkeypatch.setattr(bench, "run", watched_run)
        summary = run_experiment(load_config(write_config(tmp_path, data)),
                                 out_dir=tmp_path / "out")
        assert alive_at_return == [0] * 6
        assert [(c.optimizer, c.seed) for c in summary.cells] == [
            (name, seed) for name in ("gd", "nagd") for seed in range(3)]
        for name in ("gd", "nagd"):
            assert (tmp_path / "out" / f"{name}__mean_curve.csv").exists()

    def test_optimizer_whose_cells_record_nothing_gets_no_mean_curve(self, tmp_path,
                                                                     monkeypatch):
        def raising_value(x):
            raise ArithmeticError("no value here")

        def rigged_run(cfg, obj, *args, **kwargs):
            # the optimizer named "empty" (eta 0.2) sees an objective that
            # fails at x0
            if cfg.eta == 0.2:
                obj = replace(obj, value=raising_value)
            return run(cfg, obj, *args, **kwargs)

        data = dict(MINIMAL)
        data["optimizers"] = [{"name": "gd", "scheme": "gd", "eta": 0.1},
                              {"name": "empty", "scheme": "gd", "eta": 0.2}]
        data["init"] = {"mode": "fixed", "x0": [1.0, 0.0], "n_seeds": 2}
        data["stop"] = {"max_iters": 10, "grad_tol": 0.0, "f_tol": 0.0}
        monkeypatch.setattr(bench, "run", rigged_run)
        out = tmp_path / "out"
        summary = run_experiment(load_config(write_config(tmp_path, data)), out_dir=out)
        empty = [c for c in summary.cells if c.optimizer == "empty"]
        assert [c.terminal_reason for c in empty] == ["numerical_failure"] * 2
        assert all(math.isnan(c.final_f) for c in empty)
        assert read_csv(empty[0].csv_path)["k"].size == 0
        assert sorted(p.name for p in out.glob("*__mean_curve.csv")) == [
            "gd__mean_curve.csv"]

    def test_errors_other_than_numerical_failure_propagate(self, tmp_path, monkeypatch):
        def broken_run(*args, **kwargs):
            raise RuntimeError("bug in a stepper")

        monkeypatch.setattr(bench, "run", broken_run)
        # two cells, so the sweep has forked its CSV writer when the cell fails
        data = {**MINIMAL, "init": {**MINIMAL["init"], "n_seeds": 2}}
        cfg = load_config(write_config(tmp_path, data))
        with pytest.raises(RuntimeError, match="bug in a stepper"):
            run_experiment(cfg, out_dir=tmp_path / "bug")
        with pytest.raises(ChildProcessError):  # the writer has been reaped
            os.waitpid(-1, os.WNOHANG)


# two optimizers, one of them cycling, over three seeds, with cells of
# different lengths
WRITER_SWEEP = {
    **MINIMAL,
    "optimizers": [{"name": "gd", "scheme": "gd", "eta": 0.3},
                   {"name": "euler", "scheme": "euler", "eta": 0.05,
                    "flow": {"kind": "rgf", "q": 3.0}}],
    "init": {"mode": "uniform_box", "box_lo": -1.0, "box_hi": 1.0, "n_seeds": 3},
    "stop": {"max_iters": 300, "grad_tol": 0.0, "f_tol": 1e-9},
}


@pytest.fixture
def fork_calls(monkeypatch):
    """The forks made during the test, counted in this process."""
    calls, fork = [], os.fork

    def counted():
        calls.append(1)
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    return calls


@contextlib.contextmanager
def another_thread_running():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        yield
    finally:
        release.set()
        thread.join()


class TestCsvWriter:
    def test_writer_and_inline_paths_write_the_same_bytes(self, tmp_path, fork_calls):
        cfg = load_config(write_config(tmp_path, WRITER_SWEEP))

        def files(out):
            # a clock that ticks alike in both runs makes wall_s equal too
            with pytest.MonkeyPatch.context() as clock:
                clock.setattr(time, "perf_counter", itertools.count(0.0, 0.125).__next__)
                summary = run_experiment(cfg, out_dir=out)
            return {p.name: p.read_bytes() for p in out.iterdir()}, summary

        affinity = os.sched_getaffinity(0)
        forked, summary = files(tmp_path / "writer")
        assert len(fork_calls) == 1
        assert os.sched_getaffinity(0) == affinity  # the parent's CPUs are given back
        with another_thread_running():
            inline, _ = files(tmp_path / "inline")
        assert len(fork_calls) == 1
        assert forked == inline
        assert len(forked) == 6 + 2 + 1  # cells, mean curves, summary
        assert len({c.terminal_reason for c in summary.cells}) == 2
        assert len({len(read_csv(c.csv_path)["k"]) for c in summary.cells}) > 2

    @pytest.mark.parametrize("inline", [False, True], ids=["writer", "inline"])
    def test_a_failed_write_raises_its_os_error(self, tmp_path, monkeypatch, fork_calls,
                                               inline):
        out = tmp_path / "out"

        def run_then_block_the_directory(*args, **kwargs):
            if out.is_dir():  # the first cell: its CSV's directory becomes a file
                out.rmdir()
                out.write_text("")
            return run(*args, **kwargs)

        monkeypatch.setattr(bench, "run", run_then_block_the_directory)
        cfg = load_config(write_config(tmp_path, WRITER_SWEEP))
        with another_thread_running() if inline else contextlib.nullcontext():
            with pytest.raises(FileExistsError) as raised:
                run_experiment(cfg, out_dir=out)
        assert raised.value.filename == str(out)
        assert len(fork_calls) == (0 if inline else 1)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_ignores_sigint_and_leaves_through_os_exit(self, tmp_path):
        exit_handler_ran = tmp_path / "exit_handler_ran"

        def exit_handler():
            exit_handler_ran.write_text("")

        traj = run(DiscretizerConfig(scheme="gd", eta=0.1), make_quadratic(1.0, 2),
                   np.array([1.0, -0.5]), StopCriteria(max_iters=30))
        atexit.register(exit_handler)
        try:
            writer = bench.CsvWriter()
            os.kill(writer.pid, signal.SIGINT)
            emit_csv(traj, tmp_path / "writer.csv", 0.0, writer=writer)
            writer.close()
        except KeyboardInterrupt:  # the child's, raised by close
            pytest.fail("the CSV writer took SIGINT")
        finally:
            atexit.unregister(exit_handler)
        assert not exit_handler_ran.exists()
        assert (tmp_path / "writer.csv").read_bytes() == emit_csv(
            traj, tmp_path / "inline.csv", 0.0).read_bytes()


def two_integration_report(obj, opt, x0, p, mu, h_ref, arrival_grad_tol=1e-6,
                           envelope_slack=1e-6, horizon_factor=1.3):
    """bound_report as two reference integrations: one at h_ref stopped at
    arrival for the envelope, one at eta/10 over the horizon for closeness."""
    flow, f_star = opt.flow, obj.metadata.f_star
    params = dominance_params(p, mu, flow.q, flow.c)
    grad0 = float(np.linalg.norm(obj.gradient(x0)))
    f_gap0 = float(obj.value(x0)) - f_star
    t_bound = settling_time_bound(params, grad0)
    ref = integrate_reference(
        flow, obj, x0, h_ref,
        StopCriteria(max_iters=int(math.ceil(horizon_factor * t_bound / h_ref)),
                     grad_tol=arrival_grad_tol))
    arrival = float(ref.t[-1]) if ref.terminal_reason == "grad_tol" else math.nan
    env = verify_envelope(
        ref, lambda t: energy_decay_envelope(params, params.c, f_gap0, t),
        f_star, slack=envelope_slack, key="t")
    ks = k_star(params, opt.eta, f_gap0)
    k_max = int(math.ceil(1.1 * ks))
    disc = run(opt, obj, x0, StopCriteria(max_iters=k_max, grad_tol=0.0, f_tol=0.0))
    horizon = k_max * opt.eta
    dense = integrate_reference(
        flow, obj, x0, opt.eta / 10.0,
        StopCriteria(max_iters=int(math.ceil(horizon / (opt.eta / 10.0))),
                     grad_tol=0.0))
    eps = closeness_epsilon(dense, disc, T=horizon, eta=opt.eta)
    lipschitz = float(np.max(disc.grad_norm2))
    weak = verify_envelope(
        disc,
        lambda k: weak_bound(params, opt.eta, f_gap0, lipschitz, eps, k),
        f_star, slack=envelope_slack, key="k")
    return {
        "t_star_bound": t_bound, "arrival_time": arrival,
        "arrival_grad_tol": arrival_grad_tol, "envelope_pass": env.verdict,
        "envelope_violations": len(env.violations), "k_star": ks,
        "eps_measured": eps, "lipschitz_estimate": lipschitz,
        "weak_bound_pass": weak.verdict,
        "weak_bound_violations": len(weak.violations),
    }


def quadratic_bounds_case(h_ref):
    cfg = load_config("quadratic_bounds")
    obj = cfg.build_objective()
    dom = cfg.analysis.dominance
    return (obj, cfg.optimizers[0].config, cfg.init.draw(obj.dimension, 0),
            dom.p, dom.mu, h_ref)


def rgf_2d_case(q):
    opt = DiscretizerConfig(scheme="euler", eta=1e-2,
                            flow=FlowSpec("rgf", q=q, c=1.5))
    return make_quadratic(1.0, 2), opt, np.array([0.6, -0.8]), 2.0, 1.0, 1e-3


# (objective, optimizer, x0, p, mu, h_ref) with h_ref == eta/10; at q = 4
# the fixed-step reference chatters above the arrival tolerance, so that
# report has no arrival time
SHARED_GRID_CASES = {
    "quadratic_bounds": quadratic_bounds_case(1e-4),
    "rgf_q3_2d": rgf_2d_case(3.0),
    "rgf_q4_2d_no_arrival": rgf_2d_case(4.0),
}


class TestBoundReport:
    def test_integrates_the_reference_once(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[3])
            return integrate_reference(*args, **kwargs)

        monkeypatch.setattr(bench, "integrate_reference", counted)
        bench.bound_report(*SHARED_GRID_CASES["rgf_q3_2d"])
        assert calls == [1e-3]

    @pytest.mark.parametrize("case", sorted(SHARED_GRID_CASES))
    def test_shared_trajectory_matches_two_integrations_exactly(self, case):
        obj, opt, x0, p, mu, h_ref = SHARED_GRID_CASES[case]
        assert h_ref == opt.eta / 10.0
        expected = two_integration_report(obj, opt, x0, p, mu, h_ref)
        # exact comparison in which a missing arrival (nan) equals itself
        np.testing.assert_equal(bench.bound_report(obj, opt, x0, p, mu, h_ref=h_ref),
                                expected)

    def test_plain_gradient_flow_is_refused(self):
        # gf has no finite settling time, so the bounds say nothing about it
        obj, opt, x0, p, mu, h_ref = SHARED_GRID_CASES["rgf_q3_2d"]
        gf = replace(opt, flow=FlowSpec("gf"))
        with pytest.raises(ValueError, match="rgf or sgf"):
            bench.bound_report(obj, gf, x0, p, mu, h_ref=h_ref)
        with pytest.raises(ValueError, match="rgf or sgf"):
            bench.closeness_table(obj, gf, x0, 1.0)

    def test_gf_optimizer_is_skipped_like_gd(self, tmp_path):
        data = dict(MINIMAL, optimizers=[
            {"name": "gf", "scheme": "euler", "eta": 0.1, "flow": {"kind": "gf"}},
            {"name": "gd", "scheme": "gd", "eta": 0.1},
            {"name": "rgf", "scheme": "euler", "eta": 0.1,
             "flow": {"kind": "rgf", "q": 3.0}},
        ], analysis={"run_bounds": True, "dominance": {"p": 2.0, "mu": 1.0}})
        cfg = load_config(write_config(tmp_path, data))
        assert [o.name for o in bench.flow_optimizers(cfg)] == ["rgf"]

    @pytest.mark.parametrize("h_ref", [None, 1e-3], ids=["eta/100", "eta"])
    def test_other_reference_steps_complete_on_quadratic_bounds(self, h_ref):
        rep = bench.bound_report(*quadratic_bounds_case(h_ref))
        assert math.isfinite(rep["eps_measured"])
        assert math.isfinite(rep["arrival_time"])
        assert rep["envelope_pass"]


class TestCli:
    def test_presets_lists_shipped_inventory(self, capsys):
        assert cli_main(["presets"]) == 0
        out = capsys.readouterr().out.split()
        assert {"rosenbrock_fig1", "quadratic_bounds", "mlp_desk",
                "closeness_sweep"} <= set(out)

    def test_run_with_missing_config_exits_1(self, capsys):
        assert cli_main(["run", "/nonexistent/file.yaml"]) == 1

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        data = dict(MINIMAL)
        data["optimizers"] = [{"name": "rk", "scheme": "rk", "eta": 0.01,
                               "alphas": [0.6, 0.6], "betas": [0.09],
                               "flow": {"kind": "rgf", "q": 3.0}}]
        path = write_config(tmp_path, data)
        assert cli_main(["run", str(path)]) == 1

    def test_overflowing_rosenbrock_a_exits_1(self, tmp_path, capsys):
        data = dict(MINIMAL, objective={"name": "rosenbrock", "params": {"a": 1e200}})
        assert cli_main(["run", str(write_config(tmp_path, data))]) == 1
        assert "config error: objective.params: x_star" in capsys.readouterr().err

    def test_list_valued_objective_name_exits_1(self, tmp_path, capsys):
        data = dict(MINIMAL, objective={"name": ["quadratic"],
                                        "params": {"mu": 1.0, "dimension": 2}})
        assert cli_main(["run", str(write_config(tmp_path, data))]) == 1
        assert "config error: objective.name:" in capsys.readouterr().err

    def test_usage_error_prints_synopsis(self, capsys):
        assert cli_main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_check_gradients_passes(self, capsys):
        assert cli_main(["check-gradients", "quadratic", "--points", "20"]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_check_gradients_needs_at_least_one_point(self, capsys, points):
        assert cli_main(["check-gradients", "quadratic", "--points", points]) == 1
        captured = capsys.readouterr()
        assert "--points" in captured.err and "PASS" not in captured.out

    def test_run_minimal_config(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINIMAL))
        assert cli_main(["run", str(path), "--output-dir",
                         str(tmp_path / "out")]) == 0
        assert "median final f" in capsys.readouterr().out

    def test_bounds_reports_settling_bound_and_pass(self, capsys):
        assert cli_main(["bounds", "quadratic_bounds"]) == 0
        out = capsys.readouterr().out
        assert "settling bound 2.0000" in out
        assert "PASS" in out

    def test_closeness_prints_halving_table(self, capsys):
        assert cli_main(["closeness", "closeness_sweep"]) == 0
        out = capsys.readouterr().out
        assert "eta,eps" in out
        rows = [line for line in out.splitlines() if line.startswith("0.0")]
        assert len(rows) == 3
        eps = [float(line.split(",")[1]) for line in rows]
        assert eps[0] > eps[1] > eps[2]

    def test_closeness_without_analysis_section_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINIMAL))
        assert cli_main(["closeness", str(path)]) == 1

    @pytest.mark.parametrize("command,preset,other_pass", [
        ("closeness", "quadratic_bounds", "bound_report"),
        ("bounds", "closeness_sweep", "closeness_table"),
    ])
    def test_flag_is_checked_before_any_analysis(self, monkeypatch, capsys,
                                                 command, preset, other_pass):
        def unexpected(*args, **kwargs):
            raise AssertionError("analysis ran before the flag was checked")

        monkeypatch.setattr(bench, other_pass, unexpected)
        monkeypatch.setattr(bench, "check_gradient_dominance", unexpected)
        assert cli_main([command, preset]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"no {command} analysis enabled" in captured.err

    @pytest.mark.parametrize("command,other_pass", [
        ("closeness", "bound_report"),
        ("bounds", "closeness_table"),
    ])
    def test_command_runs_only_its_own_pass(self, monkeypatch, tmp_path, capsys,
                                            command, other_pass):
        def unexpected(*args, **kwargs):
            raise AssertionError(f"{command} ran {other_pass}")

        data = dict(MINIMAL)
        data["optimizers"] = [{"name": "rgf", "scheme": "euler", "eta": 0.05,
                               "flow": {"kind": "rgf", "q": 3.0}}]
        data["analysis"] = {"run_bounds": True, "run_closeness": True,
                            "dominance": {"p": 2.0, "mu": 1.0, "radius": 1.0,
                                          "n_samples": 20}}
        monkeypatch.setattr(bench, other_pass, unexpected)
        assert cli_main([command, str(write_config(tmp_path, data))]) == 0
        assert "rgf" in capsys.readouterr().out
