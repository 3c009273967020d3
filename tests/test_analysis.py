import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import finiteflow
from finiteflow import (DominanceParams, FlowSpec, Objective, OptimumInfo, StopCriteria,
                        Trajectory, check_gradient_dominance, closeness_epsilon,
                        dominance_params, energy_decay_envelope,
                        integrate_reference, k_star, make_mlp, make_pth_power,
                        make_quadratic, make_rosenbrock, settling_time_bound,
                        verify_envelope, weak_bound)
from finiteflow.analysis import _one_sided_closeness
from finiteflow.flows import norm2

P23 = dominance_params(2.0, 1.0, 3.0, 1.0)


def dominance_one_point_at_a_time(obj, p, mu, region_radius, n_samples, seed):
    """check_gradient_dominance as a loop of one value and one gradient
    call per sampled point: (holds, worst margin, mu estimate)."""
    x_star, f_star, dim = obj.metadata.x_star, obj.metadata.f_star, obj.dimension
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((n_samples, dim))
    directions /= np.maximum(np.linalg.norm(directions, axis=1, keepdims=True), 1e-300)
    radii = region_radius * rng.random(n_samples) ** (1.0 / dim)
    margins, mu_points, rhs_scale = [], [], 0.0
    for x in x_star + directions * radii[:, None]:
        g_norm = norm2(obj.gradient(x))
        gap = float(obj.value(x)) - f_star
        lhs = (p - 1.0) / p * g_norm ** (p / (p - 1.0))
        rhs = mu ** (1.0 / (p - 1.0)) * gap
        margins.append(lhs - rhs)
        rhs_scale = max(rhs_scale, abs(rhs))
        if gap > 1e-300:
            mu_points.append((lhs / gap) ** (p - 1.0))
    worst = min(margins)
    return (worst >= -1e-12 * (1.0 + rhs_scale), worst,
            min(mu_points) if mu_points else math.inf)


def rep_bits(rep):
    """A dominance report as its verdict and the bits of its two numbers."""
    holds, worst, mu_max = rep if isinstance(rep, tuple) else (
        rep.holds, rep.worst_margin, rep.mu_max_estimate)
    return holds, float(worst).hex(), float(mu_max).hex()


def pth_power_mu(p, dimension):
    """Largest constant for which the dominance inequality of
    make_pth_power(p, dimension) holds everywhere.

    The value/gradient ratio is scale invariant, so it suffices to compare
    the l_{2(p-1)} and l_p norms over directions; the worst direction is the
    uniform one for p >= 2 and a coordinate axis for p < 2.
    """
    if p >= 2:
        return (p - 1) ** (p - 1) * dimension ** (p / 2 - (p - 1))
    return (p - 1) ** (p - 1)


def constant_trajectory(point, t_end, spacing, eta=None):
    t = np.arange(0.0, t_end + spacing / 2, spacing)
    if eta is not None:
        t = eta * np.arange(0, int(round(t_end / eta)) + 1)
    x = np.tile(np.asarray(point, dtype=float), (len(t), 1))
    zeros = np.zeros(len(t))
    return Trajectory(k=np.arange(len(t)), t=t, x=x, f=zeros.copy(),
                      grad_norm2=zeros.copy(), grad_norm1=zeros.copy(),
                      wall_s=zeros.copy(), terminal_reason="max_iters")


class TestDominanceParams:
    def test_derived_constants(self):
        assert P23.theta == 0.5
        assert P23.theta_prime == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert P23.C == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert P23.alpha == pytest.approx(0.75, rel=1e-15)
        assert P23.c_tilde == pytest.approx(2.0 ** 0.75, rel=1e-14)

    def test_orders_nest_when_q_exceeds_p(self):
        for p, q in [(1.5, 2.0), (2.0, 3.0), (2.0, math.inf), (4.0, 10.0)]:
            d = dominance_params(p, 0.7, q, 1.0)
            assert 0.0 < d.theta < d.theta_prime <= 1.0
            assert d.alpha < 1.0

    def test_infinite_q_gives_unit_theta_prime(self):
        assert dominance_params(2.0, 1.0, math.inf, 1.0).theta_prime == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            dominance_params(1.0, 1.0, 3.0)
        with pytest.raises(ValueError):
            dominance_params(2.0, 0.0, 3.0)
        with pytest.raises(ValueError):
            dominance_params(2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            dominance_params(2.0, 1.0, 3.0, 0.0)

    @pytest.mark.parametrize("field,bad", [("mu", math.inf), ("mu", math.nan),
                                           ("c", math.inf), ("c", math.nan)])
    def test_rejects_nonfinite_constants(self, field, bad):
        # q = inf is the normalized limit and stays valid; mu and c are constants
        values = {"p": 2.0, "mu": 1.0, "q": math.inf, "c": 1.0}
        with pytest.raises(ValueError, match=f"{field} must be positive and finite, got {bad}"):
            DominanceParams(**{**values, field: bad})

    def test_rejects_q_not_exceeding_p(self):
        with pytest.raises(ValueError, match="finite-time"):
            dominance_params(3.0, 1.0, 2.5, 1.0)
        with pytest.raises(ValueError, match="finite-time"):
            dominance_params(2.0, 1.0, 2.0, 1.0)

    @pytest.mark.parametrize("bound", [
        lambda d: k_star(d, 0.01, 1.0),
        lambda d: energy_decay_envelope(d, 1.0, 0.5, 1.0),
        lambda d: weak_bound(d, 0.01, 1.0, 2.0, 0.0, 10),
    ], ids=["k_star", "energy_decay_envelope", "weak_bound"])
    def test_bounds_unreachable_outside_finite_time_regime(self, bound):
        # the bounds take their constants only from DominanceParams, which
        # refuses q <= p, so no bound returns a number outside the regime
        with pytest.raises(ValueError, match="finite-time"):
            bound(DominanceParams(p=3.0, mu=1.0, q=2.5, c=1.0))


class TestGradientDominance:
    def test_quadratic_is_exact_equality_case(self):
        obj = make_quadratic(1.0, 3)
        rep = check_gradient_dominance(obj, p=2.0, mu=1.0, region_radius=1.0,
                                       n_samples=200, seed=0)
        assert rep.holds
        assert abs(rep.worst_margin) <= 1e-12

    def test_inflated_constant_fails(self):
        obj = make_quadratic(1.0, 3)
        rep = check_gradient_dominance(obj, p=2.0, mu=1.0 + 1e-6,
                                       region_radius=1.0, n_samples=200, seed=0)
        assert not rep.holds

    def test_doubled_constant_fails(self):
        obj = make_quadratic(1.0, 3)
        rep = check_gradient_dominance(obj, p=2.0, mu=2.0,
                                       region_radius=1.0, n_samples=200, seed=0)
        assert not rep.holds

    def test_mu_estimate_matches_dense_grid_oracle(self):
        # scalar fourth-power cost; oracle scans the pointwise largest
        # admissible constant over a dense one-dimensional grid
        p = 4.0
        obj = make_pth_power(p, 1)
        xs = np.linspace(1e-6, 1.0, 10 ** 6)
        lhs = (p - 1.0) / p * (xs ** (p - 1.0)) ** (p / (p - 1.0))
        gaps = xs ** p / p
        oracle = np.min((lhs / gaps) ** (p - 1.0))
        rep = check_gradient_dominance(obj, p=p, mu=1.0, region_radius=1.0,
                                       n_samples=400, seed=1)
        assert rep.mu_max_estimate == pytest.approx(oracle, rel=0.01)
        assert oracle == pytest.approx(27.0, rel=1e-9)

    def test_declared_mu_of_pth_power_holds_in_two_dims(self):
        obj = make_pth_power(4.0, 2)
        mu = pth_power_mu(4.0, 2)
        rep = check_gradient_dominance(obj, p=4.0, mu=mu,
                                       region_radius=1.0, n_samples=500, seed=3)
        assert rep.holds
        rep_inflated = check_gradient_dominance(obj, p=4.0, mu=mu * 1.05,
                                                region_radius=1.0,
                                                n_samples=500, seed=3)
        assert not rep_inflated.holds

    def test_requires_metadata(self):
        obj = make_mlp([2, 3, 1], 8, seed=0)
        with pytest.raises(ValueError):
            check_gradient_dominance(obj, 2.0, 1.0, 1.0, 10, 0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("p", [1.3, 1.5, 1.8, 2.0, 3.0, 4.0])
    def test_closed_form_constant_of_pth_power(self, p, dim):
        # a minimum over samples cannot fall below the true constant
        obj = make_pth_power(p, dim)
        mu = pth_power_mu(p, dim)
        rep = check_gradient_dominance(obj, p=p, mu=mu, region_radius=1.0,
                                       n_samples=200, seed=0)
        assert rep.holds
        assert rep.mu_max_estimate >= mu * (1 - 1e-12)
        assert rep.n_evaluated == 200

    @pytest.mark.parametrize("name, maker, p, mu", [
        ("quadratic_d1", lambda: make_quadratic(1.0, 1), 2.0, 1.0),
        ("quadratic_d2", lambda: make_quadratic(1.0, 2), 2.0, 1.0),
        ("quadratic_d7", lambda: make_quadratic(2.5, 7), 2.0, 2.0),
        ("pth_power_p1.5", lambda: make_pth_power(1.5, 3), 1.5, 0.5),
        ("pth_power_p4", lambda: make_pth_power(4.0, 5), 4.0, 0.3),
        ("rosenbrock", lambda: make_rosenbrock(1.0, 0.2), 2.0, 0.1),
        ("replaced_quadratic", lambda: replace(make_quadratic(1.0, 3)), 2.0, 1.0),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_bits_as_one_point_at_a_time(self, name, maker, p, mu, seed):
        obj = maker()
        rep = check_gradient_dominance(obj, p, mu, 1.3, 300, seed)
        assert rep_bits(rep) == rep_bits(dominance_one_point_at_a_time(obj, p, mu, 1.3, 300, seed))

    def test_overflowing_square_takes_the_rescaled_norm(self):
        # every gradient is (1e155, 1e155): its squared norm overflows, and
        # norm2 rescales it to 1e155 * sqrt(2)
        steep = Objective(dimension=2, value=lambda x: 1e200,
                          gradient=lambda x: np.array([1e155, 1e155]),
                          metadata=OptimumInfo(x_star=np.zeros(2), f_star=0.0))
        rep = check_gradient_dominance(steep, 4.0, 1.0, 1.0, 20, 0)
        oracle = dominance_one_point_at_a_time(steep, 4.0, 1.0, 1.0, 20, 0)
        assert rep_bits(rep) == rep_bits(oracle)
        assert rep.worst_margin == 0.75 * (1e155 * math.sqrt(2.0)) ** (4.0 / 3.0) - 1e200

    def test_overflowing_power_counts_as_inf(self):
        # ||g|| is 1e155 * sqrt(2), whose square lies past the float range:
        # each point holds with margin +inf and estimates mu as +inf
        steep = Objective(dimension=2, value=lambda x: 1.0,
                          gradient=lambda x: np.array([1e155, 1e155]),
                          metadata=OptimumInfo(x_star=np.zeros(2), f_star=0.0))
        rep = check_gradient_dominance(steep, 2.0, 1.0, 1.0, 20, 0)
        assert rep.holds and rep.n_evaluated == 20
        assert rep.worst_margin == rep.mu_max_estimate == math.inf

    def test_overflowing_mu_estimate_counts_as_inf(self):
        # the margin 0.75 * 1e200 - 1e-100 is finite, but the estimate
        # (0.75e200 / 1e-100) ** 3 lies past the float range
        flat = Objective(dimension=1, value=lambda x: 1e-100,
                         gradient=lambda x: np.array([1e150]),
                         metadata=OptimumInfo(x_star=np.zeros(1), f_star=0.0))
        rep = check_gradient_dominance(flat, 4.0, 1.0, 1.0, 5, 0)
        assert rep.holds and 0 < rep.worst_margin < math.inf
        assert rep.mu_max_estimate == math.inf

    def test_runs_without_scipy(self):
        code = ("import sys, finiteflow\n"
                "finiteflow.check_gradient_dominance(finiteflow.make_quadratic(1.0, 2),"
                " 2.0, 1.0, 1.0, 10, 0)\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        # the child imports the finiteflow this process imported
        src = str(Path(finiteflow.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestSettlingTimeBound:
    def test_hand_evaluated_scalar_case(self):
        assert settling_time_bound(P23, 1.0) == pytest.approx(2.0, abs=1e-12)

    def test_reference_trajectory_confirms_tightness(self):
        obj = make_quadratic(1.0, 1)
        traj = integrate_reference(FlowSpec("rgf", q=3.0), obj, np.array([1.0]),
                                   1e-4, StopCriteria(max_iters=40000, grad_tol=1e-6))
        # the gradient-tolerance crossing trails the exact settling time 2.0
        # by 2*sqrt(tol) under |x|' = -|x|^(1/2)
        assert abs(traj.t[-1] - (2.0 - 2.0 * math.sqrt(1e-6))) <= 1e-3

    def test_doubling_c_halves_bound_exactly(self):
        one = settling_time_bound(P23, 0.37)
        two = settling_time_bound(dominance_params(2.0, 1.0, 3.0, 2.0), 0.37)
        assert two == one / 2.0


class TestArrivalStepCount:
    def test_zero_crossing_matches_scalar_ode_oracle(self):
        # alpha = 1/2 and c_tilde = 1, so the energy obeys E' = -sqrt(E);
        # integrate it from E(0) = 1 and find the zero crossing
        params = dominance_params(2.0, 0.5, math.inf, 1.0)
        assert params.alpha == 0.5
        assert params.c_tilde == pytest.approx(1.0, rel=1e-15)
        e, t, h = 1.0, 0.0, 1e-5
        while e > 1e-12:
            def rate(v):
                return -math.sqrt(max(v, 0.0))
            k1 = rate(e)
            k2 = rate(e + 0.5 * h * k1)
            k3 = rate(e + 0.5 * h * k2)
            k4 = rate(e + h * k3)
            e = e + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        # with eta = 1, k_star is the zero crossing in time
        assert abs(t - k_star(params, 1.0, 1.0)) <= 1e-4
        assert k_star(params, 1.0, 1.0) == pytest.approx(2.0, abs=1e-4)


class TestEnergyDecayEnvelope:
    def test_anchors_at_initial_energy(self):
        assert energy_decay_envelope(P23, 1.0, 0.5, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_zero_beyond_settling(self):
        assert energy_decay_envelope(P23, 1.0, 0.5, 2.0) == 0.0
        assert energy_decay_envelope(P23, 1.0, 0.5, 5.0) == 0.0

    def test_matches_exact_scalar_solution(self):
        # for the scalar quadratic the envelope is the exact energy
        # (1 - t/2)^4 / 2 of the rescaled flow from x0 = 1
        for t in np.linspace(0.0, 2.0, 21):
            assert energy_decay_envelope(P23, 1.0, 0.5, t) == pytest.approx(
                (1.0 - t / 2.0) ** 4 / 2.0, abs=1e-14)

    def test_non_increasing(self):
        grid = np.linspace(0.0, 3.0, 301)
        vals = energy_decay_envelope(P23, 1.0, 0.5, grid)
        assert np.all(np.diff(vals) <= 1e-15)

    def test_dominates_reference_energy(self):
        obj = make_quadratic(1.0, 1)
        traj = integrate_reference(FlowSpec("rgf", q=3.0), obj, np.array([1.0]),
                                   1e-3, StopCriteria(max_iters=4000, grad_tol=1e-8))
        env = energy_decay_envelope(P23, 1.0, 0.5, traj.t)
        assert np.all(traj.f <= env + 1e-9)


class TestWeakBound:
    def test_anchors_at_initial_gap(self):
        assert weak_bound(P23, 0.01, 1.0, 2.0, 0.0, 0) == pytest.approx(1.0, rel=1e-14)

    def test_clamps_beyond_arrival_steps(self):
        ks = k_star(P23, 0.01, 1.0)
        assert weak_bound(P23, 0.01, 1.0, 2.0, 0.0, math.ceil(ks) + 1) == 0.0

    def test_hand_evaluated_k_star(self):
        # c_tilde = 2^(3/4), alpha = 3/4: k* = 1 / (2^(3/4) * 0.25 * 0.01)
        ks = k_star(P23, 0.01, 1.0)
        assert ks == pytest.approx(1.0 / (2.0 ** 0.75 * 0.25 * 0.01), rel=1e-14)
        assert ks == pytest.approx(237.84, abs=0.01)

    def test_non_increasing_and_floored_at_lipschitz_term(self):
        ks = np.arange(0, 400)
        vals = weak_bound(P23, 0.01, 1.0, 2.0, 1e-3, ks)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all(vals >= 2.0 * 1e-3 - 1e-18)
        assert vals[-1] == pytest.approx(2e-3, rel=1e-12)

    def test_k_star_scalings(self):
        assert k_star(P23, 0.01, 0.0) == 0.0
        assert k_star(P23, 0.005, 1.0) == 2.0 * k_star(P23, 0.01, 1.0)


class TestClosenessEpsilon:
    def test_exactly_sampled_discrete_is_as_close_as_the_grid_allows(self):
        obj = make_quadratic(1.0, 2)
        eta, T = 0.01, 2.0
        ref = integrate_reference(FlowSpec("rgf", q=3.0), obj, np.array([1.0, 1.0]),
                                  eta / 10.0,
                                  StopCriteria(max_iters=int(T / (eta / 10.0)) + 1,
                                               grad_tol=0.0))
        K = int(T / eta)
        disc = Trajectory(k=np.arange(K + 1), t=eta * np.arange(K + 1),
                          x=ref.x[::10][:K + 1].copy(),
                          f=ref.f[::10][:K + 1].copy(),
                          grad_norm2=ref.grad_norm2[::10][:K + 1].copy(),
                          grad_norm1=ref.grad_norm1[::10][:K + 1].copy(),
                          wall_s=np.zeros(K + 1), terminal_reason="max_iters")
        eps = closeness_epsilon(ref, disc, T=T, eta=eta)
        top_speed = float(np.max(np.sqrt(ref.grad_norm2)))
        # time quantisation alone forces eta; state motion adds at most
        # one step of travel at the top flow speed
        assert eta <= eps <= eta * (1.0 + top_speed)

    def test_constant_offset_is_measured_exactly(self):
        spacing, eta, T = 0.001, 0.05, 1.0
        base = constant_trajectory([0.3, -0.2], T, spacing)
        delta = np.array([0.3, 0.0])
        shifted = constant_trajectory(np.array([0.3, -0.2]) + delta, T,
                                      spacing, eta=eta)
        eps = closeness_epsilon(base, shifted, T=T, eta=eta)
        assert eps == pytest.approx(float(np.linalg.norm(delta)), abs=1e-12)

    def test_symmetric_under_which_side_is_offset(self):
        spacing, eta, T = 0.001, 0.05, 1.0
        point = np.array([0.3, -0.2])
        delta = np.array([0.0, 0.25])
        a = closeness_epsilon(constant_trajectory(point, T, spacing),
                              constant_trajectory(point + delta, T, spacing, eta=eta),
                              T=T, eta=eta)
        b = closeness_epsilon(constant_trajectory(point + delta, T, spacing),
                              constant_trajectory(point, T, spacing, eta=eta),
                              T=T, eta=eta)
        assert a == pytest.approx(b, abs=1e-12)

    def test_pointwise_closer_discrete_never_increases_eps(self):
        spacing, eta, T = 0.001, 0.05, 1.0
        point = np.array([0.1, 0.4])
        far = closeness_epsilon(
            constant_trajectory(point, T, spacing),
            constant_trajectory(point + np.array([0.3, 0.0]), T, spacing, eta=eta),
            T=T, eta=eta)
        near = closeness_epsilon(
            constant_trajectory(point, T, spacing),
            constant_trajectory(point + np.array([0.1, 0.0]), T, spacing, eta=eta),
            T=T, eta=eta)
        assert near <= far

    def test_rejects_uncovered_horizon(self):
        spacing, eta = 0.001, 0.05
        base = constant_trajectory([0.0, 0.0], 0.5, spacing)
        disc = constant_trajectory([0.0, 0.0], 0.5, spacing, eta=eta)
        with pytest.raises(ValueError):
            closeness_epsilon(base, disc, T=1.0, eta=eta)

    def test_rejects_coarse_continuous_sampling(self):
        eta = 0.01
        base = constant_trajectory([0.0, 0.0], 1.0, 0.01)
        disc = constant_trajectory([0.0, 0.0], 1.0, 0.01, eta=eta)
        with pytest.raises(ValueError, match="coarse"):
            closeness_epsilon(base, disc, T=1.0, eta=eta)


def sampled_trajectory(t, x):
    zeros = np.zeros(len(t))
    return Trajectory(k=np.arange(len(t)), t=t, x=np.asarray(x, dtype=float), f=zeros.copy(),
                      grad_norm2=zeros.copy(), grad_norm1=zeros.copy(),
                      wall_s=zeros.copy(), terminal_reason="max_iters")


def brute_sides(continuous, discrete, T, eta):
    """closeness_epsilon's two one-sided minimaxes over every pair, in
    Python floats: the continuous samples with t <= T (T on their grid)
    against the discrete indices 1..K, each distance max(|dt|, sqrt of the
    squares summed left to right)."""
    K = math.floor(T / eta + 1e-9)
    cont = [(t, row) for t, row in zip(continuous.t.tolist(), continuous.x.tolist())
            if t <= T + 1e-12 * max(1.0, T)]
    disc = [(eta * k, discrete.x[k].tolist()) for k in range(1, K + 1)]

    def dist(a, b):
        (ta, xa), (tb, xb) = a, b
        return max(abs(ta - tb), math.sqrt(sum((u - v) * (u - v) for u, v in zip(xa, xb))))

    def one_side(points, others):
        return max(min(dist(p, o) for o in others) for p in points)

    return one_side(cont, disc), one_side(disc, cont)


@st.composite
def closeness_cases(draw):
    # states on a grid of eta / 8, eta / 2 or 2 eta, so that distances often
    # tie with each other and with time offsets, and the nearest point in
    # time is often not the nearest in the minimax; at eta = 1 or 0.5 and 16
    # samples per step the continuous times are dyadic and land exactly on
    # the discrete ones
    d = draw(st.integers(min_value=1, max_value=3))
    eta = draw(st.sampled_from([1.0, 0.5, 0.1]))
    per_step = draw(st.sampled_from([10, 16]))
    unit = eta * draw(st.sampled_from([0.125, 0.5, 2.0]))
    grid = st.integers(min_value=-4, max_value=4).map(lambda i: i * unit)
    K = draw(st.integers(min_value=1, max_value=5))
    # the horizon is continuous sample j, at or past K * eta and short of K + 1 steps
    j = draw(st.integers(min_value=K * per_step, max_value=(K + 1) * per_step - 1))
    n_c, n_d = j + 1 + draw(st.integers(0, 3)), K + 1 + draw(st.integers(0, 2))
    tc, td = eta / per_step * np.arange(n_c), eta * np.arange(n_d)
    rows = lambda n: np.array([draw(st.lists(grid, min_size=d, max_size=d)) for _ in range(n)])
    # a ramp in the first component, which the discrete side follows a lag
    # behind: at a slope between 1 and 2 the winning pair lies up to a
    # whole window away in time
    slope = draw(st.sampled_from([0.0, 1.25, 4.0]))
    lag = draw(st.integers(min_value=-per_step, max_value=per_step)) * eta / per_step
    xc, xd = rows(n_c), rows(n_d)
    xc[:, 0] += slope * tc
    xd[:, 0] += slope * (td + lag)
    return sampled_trajectory(tc, xc), sampled_trajectory(td, xd), float(tc[j]), eta


class TestClosenessOracle:
    """closeness_epsilon equals the minimax over every pair to the bit,
    and it refuses a non-finite state in the window."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=closeness_cases())
    def test_equals_the_minimax_over_every_pair(self, case):
        continuous, discrete, T, eta = case
        got = closeness_epsilon(continuous, discrete, T=T, eta=eta)
        assert got.hex() == max(brute_sides(continuous, discrete, T, eta)).hex()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=closeness_cases())
    def test_each_side_equals_its_minimax_over_every_pair(self, case):
        # the larger side of the two hides the other from the test above
        continuous, discrete, T, eta = case
        window = continuous.t <= T
        tc, xc = continuous.t[window], continuous.x[window]
        K = math.floor(T / eta + 1e-9)
        td, xd = eta * np.arange(1, K + 1), discrete.x[1:K + 1]
        got = (_one_sided_closeness(tc, xc, td, xd), _one_sided_closeness(td, xd, tc, xc))
        assert [v.hex() for v in got] == [v.hex() for v in brute_sides(continuous, discrete, T, eta)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["continuous", "discrete"])
    def test_nonfinite_state_in_the_window_is_refused(self, side, bad):
        eta, T = 1.0, 2.0
        continuous = sampled_trajectory(np.arange(41) / 16.0, np.zeros((41, 2)))
        discrete = sampled_trajectory(np.arange(4.0), np.ones((4, 2)))
        want = closeness_epsilon(continuous, discrete, T=T, eta=eta)
        traj = continuous if side == "continuous" else discrete
        # past the window (t > T, or k > K) a non-finite state is not read
        traj.x[-1, 0] = bad
        assert closeness_epsilon(continuous, discrete, T=T, eta=eta) == want
        traj.x[1, 1] = bad
        with pytest.raises(ValueError, match="finite states"):
            closeness_epsilon(continuous, discrete, T=T, eta=eta)


class TestVerifyEnvelope:
    def test_infinite_envelope_passes(self):
        traj = constant_trajectory([1.0], 1.0, 0.01)
        rep = verify_envelope(traj, lambda t: np.full_like(t, math.inf), f_star=0.0)
        assert rep.verdict and not rep.violations

    def test_negative_envelope_fails_everywhere(self):
        traj = constant_trajectory([1.0], 1.0, 0.01)
        traj.f[:] = 1.0
        rep = verify_envelope(traj, lambda t: np.full_like(t, -1.0), f_star=0.0)
        assert not rep.verdict
        assert len(rep.violations) == len(traj)

    def test_reference_run_passes_its_envelope(self):
        obj = make_quadratic(1.0, 1)
        traj = integrate_reference(FlowSpec("rgf", q=3.0), obj, np.array([1.0]),
                                   1e-3, StopCriteria(max_iters=4000, grad_tol=1e-8))
        rep = verify_envelope(
            traj, lambda t: energy_decay_envelope(P23, 1.0, 0.5, t),
            f_star=0.0, slack=1e-6)
        assert rep.verdict

    def test_key_selects_step_index(self):
        traj = constant_trajectory([1.0], 1.0, 0.01, eta=0.1)
        traj.f[:] = 0.5
        rep = verify_envelope(traj, lambda k: np.where(k < 5, 1.0, 0.0),
                              f_star=0.0, key="k")
        assert len(rep.violations) == len(traj) - 5

    @pytest.mark.parametrize("envelope,shape", [
        (lambda t: 1.0, r"\(\)"),
        (lambda t: np.ones(3), r"\(3,\)"),
    ], ids=["scalar", "short-array"])
    def test_envelope_of_another_shape_is_rejected(self, envelope, shape):
        traj = constant_trajectory([1.0], 1.0, 0.1)
        with pytest.raises(ValueError, match=rf"shape {shape} for arguments of shape \(11,\)"):
            verify_envelope(traj, envelope, f_star=0.0)

    def test_failing_envelope_is_called_once(self):
        calls = []

        def envelope(t):
            calls.append(t)
            raise ValueError("time must be non-negative")

        traj = constant_trajectory([1.0], 0.4, 0.1)
        with pytest.raises(ValueError, match="non-negative"):
            verify_envelope(traj, envelope, f_star=0.0)
        assert len(calls) == 1
