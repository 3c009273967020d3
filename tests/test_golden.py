"""Golden outputs of the shipped schemes, the reference integrator and the
analysis passes.

A trajectory is pinned by its step count, its terminal reason and a SHA-256
digest of the float64 bytes of its x, f, grad_norm2 and grad_norm1 columns,
so any change to the arithmetic of a stepper or of the run loop shows here.
The dense reference integrator is pinned by step count and reason to
arrival, and past arrival by the digest of every row as well. It does not
chatter there: from step 20,004 on it stays frozen at x = 6.08e-10, since
its speed clamp's cap is the last displacement rate, which is zero once a
step rounds to no move. The digest covers these frozen rows, which the run
loop fills as the period-1 case of its one repeat rule: the next x is a
pure function of the last two rows, so once the last two rows equal an
anchor row and the row before it to the bit, P rows after the anchor, row
j >= n of the n rows recorded is row n - P + (j - n) mod P, and filled rows
keep the last measured wall_s. None of the pinned Rosenbrock cells repeats
within its 1,000 steps; tests/test_integrators.py checks the fill of longer
periods against runs that step every row.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from finiteflow import (BatchContext, DiscretizerConfig, FlowSpec, StopCriteria,
                        integrate_reference, load_config, make_quadratic, run)
from finiteflow.bench import analysis_reports

ROSENBROCK_STEPS = 1000
MLP_STEPS = 200
PAST_ARRIVAL_STEPS = 4000


def digest(traj) -> str:
    h = hashlib.sha256()
    for col in (traj.x, traj.f, traj.grad_norm2, traj.grad_norm1):
        h.update(np.ascontiguousarray(col, dtype=np.float64).tobytes())
    return h.hexdigest()


def rosenbrock_names() -> list[str]:
    return [o.name for o in load_config("rosenbrock_fig1").optimizers]


def rosenbrock_cell(name: str) -> tuple:
    cfg = load_config("rosenbrock_fig1")
    opt = next(o.config for o in cfg.optimizers if o.name == name)
    obj = cfg.build_objective()
    x0 = cfg.init.draw(obj.dimension, cfg.init.base_seed)
    traj = run(opt, obj, x0, replace(cfg.stop, max_iters=ROSENBROCK_STEPS))
    return int(traj.k[-1]), traj.terminal_reason, digest(traj)


def mlp_cell(scheme: str) -> tuple:
    cfg = load_config("mlp_desk")
    obj = cfg.build_objective()
    opt = (DiscretizerConfig(scheme="nagd", eta=0.04, beta=0.9) if scheme == "nagd"
           else DiscretizerConfig(scheme="adam", eta=0.01))
    seed = cfg.init.base_seed
    batch = BatchContext(rng_seed=seed, batch_size=cfg.batch.size,
                         dataset_size=obj.aux["dataset_size"])
    traj = run(opt, obj, cfg.init.draw(obj.dimension, seed),
               StopCriteria(max_iters=MLP_STEPS, grad_tol=0.0), batch=batch)
    return int(traj.k[-1]), traj.terminal_reason, digest(traj)


def reference_counts() -> tuple:
    flow, obj, x0 = FlowSpec("rgf", q=3.0), make_quadratic(1.0, 1), np.array([1.0])
    arrive = integrate_reference(flow, obj, x0, 1e-4,
                                 StopCriteria(max_iters=40_000, grad_tol=1e-6))
    n_arrive = int(arrive.k[-1])
    past = integrate_reference(
        flow, obj, x0, 1e-4,
        StopCriteria(max_iters=n_arrive + PAST_ARRIVAL_STEPS, grad_tol=0.0))
    return (n_arrive, arrive.terminal_reason, int(past.k[-1]), past.terminal_reason,
            digest(past))


def closeness_reference() -> tuple:
    # the dense reference closeness_table integrates for closeness_sweep:
    # h = 1e-2 / 4 / 10 over 1.2 settling-time bounds from x0 = (1, 1)
    ref = integrate_reference(FlowSpec("rgf", q=3.0), make_quadratic(1.0, 2),
                              np.array([1.0, 1.0]), 2.5e-4,
                              StopCriteria(max_iters=11_418, grad_tol=0.0))
    return int(ref.k[-1]), ref.terminal_reason, digest(ref)


def clamped_sign_reference() -> tuple:
    # the sign field chatters across the axes near arrival, where the speed
    # clamp cuts about 200 stage velocities before the reference freezes
    ref = integrate_reference(FlowSpec("sgf", q=3.0), make_quadratic(1.0, 2),
                              np.array([1.0, 0.5]), 1e-3,
                              StopCriteria(max_iters=4000, grad_tol=0.0))
    return int(ref.k[-1]), ref.terminal_reason, digest(ref)


def scaled_flow_cell(name: str) -> tuple:
    cfg = load_config("rosenbrock_fig1")
    obj = cfg.build_objective()
    x0 = cfg.init.draw(obj.dimension, cfg.init.base_seed)
    traj = run(SCALED_FLOW_OPTIMIZERS[name], obj, x0, StopCriteria(max_iters=ROSENBROCK_STEPS))
    return int(traj.k[-1]), traj.terminal_reason, digest(traj)


def analysis_outputs(preset: str) -> dict:
    reports = analysis_reports(load_config(preset))
    return {"bounds": reports["bounds"], "closeness": reports["closeness"]}


GOLDEN_ROSENBROCK = {
    "gd": (1000, "max_iters", "fba9c08d308bc4368cc9448c9c4c456e154af44d8a2413f1f4f94982d2f33c23"),
    "rgf_euler_q2.2": (1000, "max_iters", "b52d4b178a74a75a8105152db975ca560b37896e81d2b79ff2160eaf3ac1e937"),
    "rgf_euler_q3": (249, "f_tol", "1cb86c2d8c789f948a7ef5115db45754c700310d5f8377f12e1f253617838330"),
    "rgf_euler_q6": (107, "f_tol", "36335d27cd9aa6a5772ec8554149257584ec21a24eb0d5d7e3995a9a47df1461"),
    "rgf_euler_q10": (90, "f_tol", "b65e6b37b8a09e1ee5802a56d2ac21625b90f66d714f10e9bae74b8add829d23"),
    "sgf_nesterov_q2.2": (1000, "max_iters", "0420f6b759eb169a60de49b98dcdeeb2b7a7e1ff85b7c047ab3b0d1ad296024f"),
    "sgf_nesterov_q3": (318, "f_tol", "c3c5206268487ed4e25c3715813b5d8b2becde04291498096c28de34044eb76e"),
    "sgf_nesterov_q6": (151, "f_tol", "afc2143a85d96b09ece4b35c2f2e189529cbf98b4f6226758b8204d9670a5077"),
    "sgf_nesterov_q10": (1000, "max_iters", "18fd8e1c1f3165d986ad0bec6e819a342bf64fd06c186fd5a2db0aa396e5da01"),
    "rgf_rk_q2.2": (972, "f_tol", "466ea801d6e265c4f2d5fae0375a39ec9715f8a274c3fba98d7c0f7ca38078bc"),
    "rgf_rk_q3": (249, "f_tol", "a46776a8d0cd6103865b6a43becd617d9200ac46e8ce0f2039eb78d9b5100d7d"),
    "rgf_rk_q6": (107, "f_tol", "55a5458dc2c66e6f06ef2b55304dcf263c448a9aa3b6ea3ce5b25d5aa4d1c579"),
    "rgf_rk_q10": (90, "f_tol", "3076b688d5562021ff02ae358f751d391aa77db5672a646d830f310216fc54fe"),
}

GOLDEN_MLP = {
    "nagd": (200, "max_iters", "bb6be6a9895861986a591ab11a590447b0f1571ff2c3d2a87f532a8d8d0d36f5"),
    "adam": (200, "max_iters", "a377d3ad3c691ca0489e22a1fdbd76e57ffee10ea4a10d7d6fa86c3ccc4a2659"),
}

GOLDEN_REFERENCE = (19981, "grad_tol", 23981, "max_iters",
                    "59e3156339101e520396cf620e2b96500379798e6fae5d855f6d7e2d39f82baa")

GOLDEN_CLOSENESS_REFERENCE = (
    11418, "max_iters", "2f13379a4ed1acee02cee616051cd237279f4e529bc6b15a9a4dd02f28a5792d")

GOLDEN_CLAMPED_SIGN_REFERENCE = (
    4000, "max_iters", "241bda6bcd98672945babd5f5c7f839fc456cbf77d607467b92d5e42a409e431")

# flows with c != 1 on the rosenbrock_fig1 objective from its base seed's x0
SCALED_FLOW_OPTIMIZERS = {
    "rgf_euler_q3_c1.5": DiscretizerConfig(scheme="euler", eta=1e-3,
                                           flow=FlowSpec("rgf", q=3.0, c=1.5)),
    "sgf_nesterov_q3_c1e-3": DiscretizerConfig(scheme="nesterov", eta=1.0, beta=0.9,
                                               flow=FlowSpec("sgf", q=3.0, c=1e-3)),
}

GOLDEN_SCALED_FLOWS = {
    "rgf_euler_q3_c1.5": (1000, "max_iters", "08295b312fffbfc802b9b038030bf7ef1837f17804cbc1352963a5dd4dd90df8"),
    "sgf_nesterov_q3_c1e-3": (1000, "max_iters", "bd59695b6ff109a21883298bea57a0595042847752cf0a8d7b68d74054a1cd1a"),
}

GOLDEN_ANALYSIS = {
    "quadratic_bounds": {
        "bounds": {"rgf_euler_q3": {
            "t_star_bound": 1.9999999999999996, "arrival_time": 1.9981,
            "arrival_grad_tol": 1e-06, "envelope_pass": True,
            "envelope_violations": 0, "k_star": 1999.9999999999998,
            "eps_measured": 0.0010000000000000009, "lipschitz_estimate": 1.0,
            "weak_bound_pass": True, "weak_bound_violations": 0}},
        "closeness": {},
    },
    "closeness_sweep": {
        "bounds": {},
        "closeness": {"rgf_euler_q3": [(0.01, 0.011892071150027165),
                                       (0.005, 0.0059460355750135824),
                                       (0.0025, 0.0029730177875067912)]},
    },
}


# SHA-256 of repr(load_config(preset)): any change to how a preset parses
GOLDEN_PRESET_CONFIGS = {
    "closeness_sweep": "0d22eafeb74c9b0c74c9a3ffff6357930a9754c81673562fdb94f709c0f3f7ac",
    "mlp_desk": "1a1469b1549c280f27ac6908ca0919e0e7cae761235d214f9e603d0d4f231c82",
    "quadratic_bounds": "7ddac2941e4dcbf7a88ffb4d5a95fa2990882d9132a81238e6daa9d6994eb6ae",
    "rosenbrock_fig1": "a4790503674f1fad6f141383e49c87d7982f18c40830686a3fc5a1743cb5f377",
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_PRESET_CONFIGS))
def test_preset_configs_parse_unchanged(preset):
    text = repr(load_config(preset))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_PRESET_CONFIGS[preset]


@pytest.mark.parametrize("name", sorted(GOLDEN_ROSENBROCK))
def test_rosenbrock_fig1_trajectories(name):
    assert rosenbrock_cell(name) == GOLDEN_ROSENBROCK[name]


def test_golden_covers_every_rosenbrock_optimizer():
    assert sorted(rosenbrock_names()) == sorted(GOLDEN_ROSENBROCK)


@pytest.mark.parametrize("scheme", sorted(GOLDEN_MLP))
def test_mlp_minibatch_trajectories(scheme):
    assert mlp_cell(scheme) == GOLDEN_MLP[scheme]


def test_reference_step_counts_to_and_past_arrival():
    assert reference_counts() == GOLDEN_REFERENCE


def test_closeness_sweep_reference():
    assert closeness_reference() == GOLDEN_CLOSENESS_REFERENCE


def test_clamped_sign_flow_reference():
    assert clamped_sign_reference() == GOLDEN_CLAMPED_SIGN_REFERENCE


@pytest.mark.parametrize("name", sorted(SCALED_FLOW_OPTIMIZERS))
def test_scaled_flow_trajectories(name):
    assert scaled_flow_cell(name) == GOLDEN_SCALED_FLOWS[name]


@pytest.mark.parametrize("preset", sorted(GOLDEN_ANALYSIS))
def test_bound_and_closeness_outputs(preset):
    assert analysis_outputs(preset) == GOLDEN_ANALYSIS[preset]
