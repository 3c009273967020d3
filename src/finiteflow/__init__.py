"""Finite-time gradient-flow optimizers, discretizations, and benchmarks."""

from .analysis import (BoundReport, DominanceParams, DominanceReport,
                       check_gradient_dominance, closeness_epsilon,
                       dominance_params, energy_decay_envelope, k_star,
                       settling_time_bound, verify_envelope, weak_bound)
from .bench import (RunSummary, bound_report, closeness_table, emit_csv,
                    run_experiment)
from .config import ConfigError, ExperimentConfig, load_config, preset_names
from .flows import FlowSpec, flow_eval
from .integrators import (DiscretizerConfig, NumericalFailure, StepperState,
                          StopCriteria, Trajectory, init_state,
                          integrate_reference, run)
from .objectives import (BatchContext, Objective, OptimumInfo,
                         finite_difference_check, make_mlp, make_pth_power,
                         make_quadratic, make_rosenbrock)

__version__ = "0.1.0"

__all__ = [
    "BatchContext", "BoundReport", "ConfigError", "DiscretizerConfig",
    "DominanceParams", "DominanceReport", "ExperimentConfig", "FlowSpec",
    "NumericalFailure", "Objective", "OptimumInfo", "RunSummary",
    "StepperState", "StopCriteria", "Trajectory", "bound_report",
    "check_gradient_dominance", "closeness_epsilon", "closeness_table",
    "dominance_params", "emit_csv", "energy_decay_envelope",
    "finite_difference_check", "flow_eval", "init_state",
    "integrate_reference", "k_star",
    "load_config", "make_mlp", "make_pth_power", "make_quadratic",
    "make_rosenbrock", "preset_names", "run", "run_experiment",
    "settling_time_bound", "verify_envelope", "weak_bound",
]
