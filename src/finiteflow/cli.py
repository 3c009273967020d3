"""Command-line interface for the experiment harness."""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import bench
from .config import ConfigError, load_config, preset_names
from .integrators import TERMINAL_NUMERICAL_FAILURE
from .objectives import (finite_difference_check, make_mlp, make_pth_power,
                         make_quadratic, make_rosenbrock)

_FD_DEFAULTS = {
    # objective factory, finite-difference step, pass tolerance
    "quadratic": (lambda: make_quadratic(1.0, 4), 1e-5, 1e-9),
    "rosenbrock": (lambda: make_rosenbrock(), 1e-5, 1e-6),
    "pth_power": (lambda: make_pth_power(4.0, 3), 1e-5, 1e-6),
    "mlp": (lambda: make_mlp([4, 8, 1], 64, noise_std=0.1, seed=0), 1e-5, 1e-4),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="finiteflow",
                     description="Run and analyze finite-time flow optimizers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a YAML config or a preset name")
    p_run.add_argument("--output-dir", default=None,
                       help="override the config's output directory")

    sub.add_parser("presets", help="list shipped experiment presets")

    p_check = sub.add_parser("check-gradients",
                             help="finite-difference check of an objective's gradient")
    p_check.add_argument("objective", choices=sorted(_FD_DEFAULTS))
    p_check.add_argument("--points", type=int, default=100)
    p_check.add_argument("--seed", type=int, default=0)

    p_close = sub.add_parser("closeness",
                             help="trajectory-closeness table over halved step sizes")
    p_close.add_argument("config")

    p_bounds = sub.add_parser("bounds",
                              help="evaluate convergence bounds against fresh runs")
    p_bounds.add_argument("config")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    summary = bench.run_experiment(cfg, out_dir=args.output_dir)
    failed = [c for c in summary.cells if c.terminal_reason == TERMINAL_NUMERICAL_FAILURE]
    for opt in cfg.optimizers:
        stats = summary.aggregate(opt.name)
        med = stats["median_iters_to_tol"]
        med_txt = "never" if math.isinf(med) else f"{med:g}"
        print(f"{cfg.name}: {opt.name}: median final f = {stats['median_final_f']:.6g}, "
              f"median iters-to-tol = {med_txt}")
    print(f"artifacts written to {summary.out_dir}")
    if failed:
        print(f"{len(failed)} cell(s) failed numerically", file=sys.stderr)
        return 2
    return 0


def _cmd_presets(_args) -> int:
    for name in preset_names():
        print(name)
    return 0


def _cmd_check_gradients(args) -> int:
    factory, h, tolerance = _FD_DEFAULTS[args.objective]
    obj = factory()
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.points):
        x = rng.uniform(-2.0, 2.0, size=obj.dimension)
        worst = max(worst, finite_difference_check(obj, x, h))
    ok = worst <= tolerance
    print(f"{args.objective}: max relative gradient error {worst:.3e} "
          f"over {args.points} points (tolerance {tolerance:.0e}): "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def _cmd_closeness(args) -> int:
    cfg = load_config(args.config)
    if not cfg.analysis.run_closeness:
        print("config has no closeness analysis enabled", file=sys.stderr)
        return 1
    for name, rows in bench.closeness_reports(cfg, cfg.build_objective()).items():
        print(f"{name}:")
        print("eta,eps")
        for eta, eps in rows:
            print(f"{eta:.6g},{eps:.6g}")
    return 0


def _cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    if not cfg.analysis.run_bounds:
        print("config has no bounds analysis enabled", file=sys.stderr)
        return 1
    obj = cfg.build_objective()
    dom = bench.dominance_summary(cfg, obj)
    if dom is not None:
        print(f"gradient dominance: holds={dom['holds']} "
              f"worst_margin={dom['worst_margin']:.3e} "
              f"mu_max~{dom['mu_max_estimate']:.6g}")
    all_pass = True
    for name, rep in bench.bound_reports(cfg, obj).items():
        ok = rep["envelope_pass"] and rep["weak_bound_pass"]
        all_pass = all_pass and ok
        print(f"{name}: settling bound {rep['t_star_bound']:.4f}, "
              f"arrival {rep['arrival_time']:.4f} "
              f"(grad tol {rep['arrival_grad_tol']:g}), "
              f"k_star {rep['k_star']:.1f}, eps {rep['eps_measured']:.3e}, "
              f"envelope {'PASS' if rep['envelope_pass'] else 'FAIL'}, "
              f"weak bound {'PASS' if rep['weak_bound_pass'] else 'FAIL'}")
    return 0 if all_pass else 2


_COMMANDS = {"run": _cmd_run, "presets": _cmd_presets, "check-gradients": _cmd_check_gradients,
             "closeness": _cmd_closeness, "bounds": _cmd_bounds}


def cli_main(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "check-gradients" and args.points < 1:
            parser.error(f"argument --points: must be at least 1, got {args.points}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
