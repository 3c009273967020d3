"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints one PASS/FAIL line with its measured quantities; the
expensive artifacts (reference trajectories, preset sweeps) are shared
through module-scoped fixtures and their wall time is checked against the
stated budget.
"""

import math
import time

import numpy as np
import pytest

from finiteflow import (DiscretizerConfig, FlowSpec, StopCriteria,
                        check_gradient_dominance, closeness_epsilon,
                        closeness_table, dominance_params,
                        energy_decay_envelope, finite_difference_check,
                        init_state, integrate_reference, k_star, load_config,
                        make_mlp, make_pth_power, make_quadratic,
                        make_rosenbrock, run, run_experiment,
                        settling_time_bound, verify_envelope, weak_bound)
from finiteflow.integrators import make_step

QUAD1 = make_quadratic(1.0, 1)
PARAMS = dominance_params(p=2.0, mu=1.0, q=3.0, c=1.0)


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({desc}): {verdict}{' ' + detail if detail else ''}")


@pytest.fixture(scope="module")
def scalar_reference():
    # short warmup so the timed run measures the integration, not the
    # interpreter's first-touch costs
    integrate_reference(FlowSpec("rgf", q=3.0, c=1.0), QUAD1, np.array([1.0]),
                        1e-4, StopCriteria(max_iters=200, grad_tol=0.0))
    t0 = time.perf_counter()
    traj = integrate_reference(
        FlowSpec("rgf", q=3.0, c=1.0), QUAD1, np.array([1.0]), 1e-4,
        StopCriteria(max_iters=40_000, grad_tol=1e-6))
    return traj, time.perf_counter() - t0


@pytest.fixture(scope="module")
def weak_bound_artifacts():
    # unit initial gap: f(x0) = x0^2 / 2 = 1
    t0 = time.perf_counter()
    x0 = np.array([math.sqrt(2.0)])
    eta = 1e-3
    flow = FlowSpec("rgf", q=3.0, c=1.0)
    ks = k_star(PARAMS, eta, 1.0)
    k_max = int(math.ceil(1.1 * ks))
    disc = run(DiscretizerConfig(scheme="euler", eta=eta, flow=flow), QUAD1, x0,
               StopCriteria(max_iters=k_max, grad_tol=0.0, f_tol=0.0))
    horizon = k_max * eta
    dense = integrate_reference(
        flow, QUAD1, x0, eta / 10.0,
        StopCriteria(max_iters=int(math.ceil(horizon / (eta / 10.0))), grad_tol=0.0))
    eps = closeness_epsilon(dense, disc, T=horizon, eta=eta)
    lipschitz = float(np.max(disc.grad_norm2))
    return dict(ks=ks, k_max=k_max, disc=disc, eps=eps, lipschitz=lipschitz,
                eta=eta, elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def closeness_sweep_rows():
    t0 = time.perf_counter()
    obj = make_quadratic(1.0, 2)
    opt = DiscretizerConfig(scheme="euler", eta=1e-2,
                            flow=FlowSpec("rgf", q=3.0, c=1.0))
    x0 = np.array([1.0, 1.0])
    grad0 = float(np.linalg.norm(obj.gradient(x0)))
    horizon = 1.2 * settling_time_bound(PARAMS, grad0)
    rows = closeness_table(obj, opt, x0, horizon)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def rosenbrock_summary(tmp_path_factory):
    t0 = time.perf_counter()
    summary = run_experiment(load_config("rosenbrock_fig1"),
                             out_dir=tmp_path_factory.mktemp("rosenbrock"))
    return summary, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mlp_summary(tmp_path_factory):
    t0 = time.perf_counter()
    summary = run_experiment(load_config("mlp_desk"),
                             out_dir=tmp_path_factory.mktemp("mlp"))
    return summary, time.perf_counter() - t0


def test_criterion_1_settling_time_bound_is_tight(scalar_reference):
    traj, elapsed = scalar_reference
    bound = settling_time_bound(PARAMS, 1.0)
    # under |x|' = -|x|^(1/2) the gradient first reaches tol at exactly
    # t* - 2*sqrt(tol), so tightness is checked at that oracle instant
    crossing = bound - 2.0 * math.sqrt(1e-6)
    arrival = float(traj.t[-1])
    ok = (abs(bound - 2.0) <= 1e-12
          and traj.terminal_reason == "grad_tol"
          and arrival <= bound + 1e-3
          and abs(arrival - crossing) <= 1e-3
          and elapsed < 1.0)
    report(1, "settling-time bound tight on scalar quadratic", ok,
           f"bound={bound:.12f} arrival={arrival:.4f} "
           f"oracle-crossing={crossing:.4f} elapsed={elapsed:.2f}s")
    assert abs(bound - 2.0) <= 1e-12
    assert traj.terminal_reason == "grad_tol"
    assert arrival <= bound + 1e-3
    assert abs(arrival - crossing) <= 1e-3
    assert elapsed < 1.0


def test_criterion_2_energy_envelope_dominates_reference(scalar_reference):
    traj, _ = scalar_reference
    t0 = time.perf_counter()
    rep = verify_envelope(
        traj, lambda t: energy_decay_envelope(PARAMS, 1.0, 0.5, t),
        f_star=0.0, slack=1e-6, key="t")
    elapsed = time.perf_counter() - t0
    ok = rep.verdict and elapsed < 1.0
    report(2, "energy envelope holds along reference trajectory", ok,
           f"violations={len(rep.violations)} records={len(traj)} "
           f"elapsed={elapsed:.2f}s")
    assert rep.verdict
    assert elapsed < 1.0


def test_criterion_3_discrete_weak_bound(weak_bound_artifacts):
    art = weak_bound_artifacts
    target = art["lipschitz"] * art["eps"]
    hits = np.nonzero(art["disc"].f <= target)[0]
    first_k = int(art["disc"].k[hits[0]]) if len(hits) else -1
    ok = (art["ks"] == pytest.approx(2378.41, abs=0.01)
          and first_k != -1
          and first_k <= 1.1 * art["ks"]
          and art["elapsed"] < 5.0)
    report(3, "discrete weak bound reaches L*eps within 1.1*k_star", ok,
           f"k_star={art['ks']:.2f} first_k={first_k} eps={art['eps']:.3e} "
           f"L={art['lipschitz']:.3f} elapsed={art['elapsed']:.2f}s")
    assert art["ks"] == pytest.approx(2378.41, abs=0.01)
    assert first_k != -1
    assert first_k <= 1.1 * art["ks"]
    # the bound curve itself must dominate the run at every step
    rep = verify_envelope(
        art["disc"],
        lambda k: weak_bound(PARAMS, art["eta"], 1.0, art["lipschitz"],
                             art["eps"], k),
        f_star=0.0, slack=1e-9, key="k")
    assert rep.verdict
    assert art["elapsed"] < 5.0


def test_criterion_4_closeness_shrinks_with_step_size(closeness_sweep_rows):
    rows, elapsed = closeness_sweep_rows
    etas = [eta for eta, _ in rows]
    eps = [val for _, val in rows]
    ok = (etas == [1e-2, 5e-3, 2.5e-3]
          and eps[0] > eps[1] > eps[2]
          and elapsed < 30.0)
    report(4, "trajectory closeness decreases with step size", ok,
           "eps(eta)=" + ", ".join(f"{e:g}->{v:.4e}" for e, v in rows)
           + f" elapsed={elapsed:.2f}s")
    assert etas == [1e-2, 5e-3, 2.5e-3]
    assert eps[0] > eps[1] > eps[2]
    assert elapsed < 30.0


def test_criterion_5_rosenbrock_ordering(rosenbrock_summary):
    summary, elapsed = rosenbrock_summary
    med_gd = summary.aggregate("gd")["median_iters_to_tol"]
    med_q3 = summary.aggregate("rgf_euler_q3")["median_iters_to_tol"]
    med_q10 = summary.aggregate("rgf_euler_q10")["median_iters_to_tol"]
    ok = (math.isfinite(med_q3) and math.isfinite(med_gd)
          and med_q3 < med_gd
          and math.isfinite(med_q10)
          and med_q10 <= 1.1 * med_q3
          and elapsed < 120.0)
    report(5, "banana-valley ordering: rescaled Euler beats GD, larger q at least as fast",
           ok, f"median iters: gd={med_gd:.0f} q3={med_q3:.0f} q10={med_q10:.0f} "
               f"elapsed={elapsed:.1f}s")
    assert med_q3 < med_gd
    assert med_q10 <= 1.1 * med_q3
    assert elapsed < 120.0


def test_criterion_6_reduction_identities():
    t0 = time.perf_counter()
    objectives = [(make_quadratic(1.0, 2), np.array([1.0, 0.5]), 0.1),
                  (make_rosenbrock(1.0, 100.0), np.array([0.2, 0.3]), 1e-3)]

    def iterate(cfg, obj, x0, n=100):
        state = init_state(x0)
        step = make_step(cfg)
        xs = [state.x.copy()]
        for _ in range(n):
            state = step(cfg, obj, state)
            xs.append(state.x.copy())
        return np.array(xs)

    mismatched = []
    for obj, x0, eta in objectives:
        gf = FlowSpec("gf")
        rgf = FlowSpec("rgf", q=3.0)
        pairs = [
            (DiscretizerConfig(scheme="nesterov", eta=eta, beta=0.9, flow=gf),
             DiscretizerConfig(scheme="nagd", eta=eta, beta=0.9)),
            (DiscretizerConfig(scheme="rk", eta=eta, flow=rgf, stages=1,
                               alphas=(1.0,), betas=()),
             DiscretizerConfig(scheme="euler", eta=eta, flow=rgf)),
            (DiscretizerConfig(scheme="euler", eta=eta, flow=gf),
             DiscretizerConfig(scheme="gd", eta=eta)),
            (DiscretizerConfig(scheme="nesterov", eta=eta, beta=0.0, flow=rgf),
             DiscretizerConfig(scheme="euler", eta=eta, flow=rgf)),
            (DiscretizerConfig(scheme="nagd", eta=eta, beta=0.0),
             DiscretizerConfig(scheme="gd", eta=eta)),
        ]
        for cfg_a, cfg_b in pairs:
            if iterate(cfg_a, obj, x0).tobytes() != iterate(cfg_b, obj, x0).tobytes():
                mismatched.append((obj.name, cfg_a.scheme, cfg_b.scheme))
    elapsed = time.perf_counter() - t0
    ok = not mismatched and elapsed < 5.0
    report(6, "scheme reduction identities agree to the bit", ok,
           f"pairs that differ={mismatched} elapsed={elapsed:.2f}s")
    assert not mismatched
    assert elapsed < 5.0


def test_criterion_7_gradient_dominance_identity():
    t0 = time.perf_counter()
    obj = make_quadratic(1.0, 3)
    good = check_gradient_dominance(obj, p=2.0, mu=1.0, region_radius=1.0,
                                    n_samples=200, seed=0)
    bad = check_gradient_dominance(obj, p=2.0, mu=1.0 * (1 + 1e-6),
                                   region_radius=1.0, n_samples=200, seed=0)
    elapsed = time.perf_counter() - t0
    ok = (good.holds and abs(good.worst_margin) <= 1e-12 and not bad.holds
          and elapsed < 1.0)
    report(7, "dominance identity exact for the quadratic", ok,
           f"worst_margin={good.worst_margin:.2e} inflated-holds={bad.holds} "
           f"elapsed={elapsed:.2f}s")
    assert good.holds
    assert abs(good.worst_margin) <= 1e-12
    assert not bad.holds
    assert elapsed < 1.0


def test_criterion_8_mlp_desk_momentum_comparison(mlp_summary):
    summary, elapsed = mlp_summary
    med_sgf = summary.aggregate("sgf_nesterov_q3")["median_final_f"]
    med_nagd = summary.aggregate("nagd")["median_final_f"]
    ok = med_sgf <= 1.05 * med_nagd and elapsed < 120.0
    report(8, "signed-flow momentum matches Nesterov baseline on MLP task", ok,
           f"median MSE: signed-flow={med_sgf:.5f} nesterov={med_nagd:.5f} "
           f"ratio={med_sgf / med_nagd:.3f} elapsed={elapsed:.1f}s")
    assert med_sgf <= 1.05 * med_nagd
    assert elapsed < 120.0


def test_criterion_9_gradient_oracles():
    t0 = time.perf_counter()
    cases = [
        ("quadratic", make_quadratic(1.0, 4), 2.0, 1e-5, 1e-9),
        ("rosenbrock", make_rosenbrock(1.0, 100.0), 2.0, 1e-5, 1e-6),
        ("pth_power", make_pth_power(4.0, 3), 2.0, 1e-5, 1e-6),
        ("mlp", make_mlp([4, 8, 1], 64, noise_std=0.1, seed=0), 1.5, 1e-5, 1e-4),
    ]
    results = []
    all_ok = True
    for name, obj, box, h, tol in cases:
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-box, box, size=obj.dimension)
            worst = max(worst, finite_difference_check(obj, x, h))
        results.append((name, worst, tol))
        all_ok = all_ok and worst <= tol
    elapsed = time.perf_counter() - t0
    ok = all_ok and elapsed < 10.0
    report(9, "finite-difference oracles pass for all shipped objectives", ok,
           " ".join(f"{n}={w:.1e}(tol {t:g})" for n, w, t in results)
           + f" elapsed={elapsed:.1f}s")
    for name, worst, tol in results:
        assert worst <= tol, name
    assert elapsed < 10.0
