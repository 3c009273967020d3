import math
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finiteflow import (BatchContext, DiscretizerConfig, FlowSpec,
                        NumericalFailure, Objective, OptimumInfo, StopCriteria, flow_eval,
                        init_state, integrate_reference, make_mlp,
                        make_pth_power, make_quadratic, make_rosenbrock, run)
from finiteflow import flows, integrators
from finiteflow.flows import GRAD_CUTOFF, norm2
from finiteflow.integrators import _ANCHOR_EVERY, _RECORD_BLOCK, make_step

QUAD2 = make_quadratic(1.0, 2)
ROSEN = make_rosenbrock(1.0, 100.0)
BANANA = make_rosenbrock(1.0, 0.2)


def iterate(cfg, obj, x0, n):
    state = init_state(np.asarray(x0, dtype=float))
    step = make_step(cfg)
    xs = [state.x.copy()]
    for _ in range(n):
        state = step(cfg, obj, state)
        xs.append(state.x.copy())
    return np.array(xs)


def one_step(cfg, obj, state):
    return make_step(cfg)(cfg, obj, state)


def linear_objective(slope=1.0):
    return Objective(dimension=1,
                     value=lambda x: slope * float(x[0]),
                     gradient=lambda x: np.array([slope]))


class TestEuler:
    def test_zero_step_size_leaves_iterate(self):
        cfg = DiscretizerConfig(scheme="euler", eta=0.0, flow=FlowSpec("rgf", q=3.0))
        state = init_state(np.array([1.0, 2.0]))
        assert np.array_equal(one_step(cfg, QUAD2, state).x, [1.0, 2.0])

    def test_gradient_flow_matches_gd_bitwise(self):
        a = iterate(DiscretizerConfig(scheme="euler", eta=0.1, flow=FlowSpec("gf")),
                    QUAD2, [1.0, 0.5], 100)
        b = iterate(DiscretizerConfig(scheme="gd", eta=0.1), QUAD2, [1.0, 0.5], 100)
        assert np.array_equal(a, b)

    def test_rescaled_step_hand_evaluated(self):
        cfg = DiscretizerConfig(scheme="euler", eta=0.1, flow=FlowSpec("rgf", q=3.0))
        state = init_state(np.array([1.0, 0.0]))
        assert np.allclose(one_step(cfg, QUAD2, state).x, [0.9, 0.0],
                           rtol=0, atol=1e-15)


class TestRungeKutta:
    def test_single_stage_equals_euler(self):
        rk = DiscretizerConfig(scheme="rk", eta=0.01, flow=FlowSpec("rgf", q=3.0),
                               stages=1, alphas=(1.0,), betas=())
        eu = DiscretizerConfig(scheme="euler", eta=0.01, flow=FlowSpec("rgf", q=3.0))
        assert np.array_equal(iterate(rk, ROSEN, [0.2, 0.3], 100),
                              iterate(eu, ROSEN, [0.2, 0.3], 100))

    def test_two_stage_matches_hand_rolled_oracle(self):
        flow = FlowSpec("rgf", q=3.0)
        eta, b1 = 1e-2, 0.09
        cfg = DiscretizerConfig(scheme="rk", eta=eta, flow=flow, stages=2,
                                alphas=(0.5, 0.5), betas=(b1,))
        x = np.array([0.4, -0.8])

        # independent re-implementation of the two-stage scheme
        v1 = flow_eval(flow, QUAD2.gradient(x))
        y2 = x + eta * b1 * v1
        v2 = flow_eval(flow, QUAD2.gradient(y2))
        expected = x + eta * (0.5 * v1 + 0.5 * v2)

        state = init_state(x)
        assert np.allclose(one_step(cfg, QUAD2, state).x, expected, rtol=0, atol=1e-16)

    def test_zero_offsets_collapse_to_euler(self):
        rk = DiscretizerConfig(scheme="rk", eta=0.01, flow=FlowSpec("sgf", q=4.0),
                               stages=3, alphas=(0.25, 0.5, 0.25), betas=(0.0, 0.0))
        eu = DiscretizerConfig(scheme="euler", eta=0.01, flow=FlowSpec("sgf", q=4.0))
        got = iterate(rk, QUAD2, [1.0, 0.7], 50)
        want = iterate(eu, QUAD2, [1.0, 0.7], 50)
        assert np.allclose(got, want, rtol=0, atol=1e-15)

    def test_inconsistent_weights_rejected_at_construction(self):
        with pytest.raises(ValueError, match="consistency"):
            DiscretizerConfig(scheme="rk", eta=0.01, flow=FlowSpec("rgf", q=3.0),
                              stages=2, alphas=(0.6, 0.6), betas=(0.09,))

    def test_weight_count_must_match_stages(self):
        with pytest.raises(ValueError):
            DiscretizerConfig(scheme="rk", eta=0.01, flow=FlowSpec("rgf", q=3.0),
                              stages=2, alphas=(1.0,), betas=())


class TestNesterovLike:
    def test_first_step_with_zero_memory_equals_euler(self):
        flow = FlowSpec("rgf", q=3.0)
        nes = DiscretizerConfig(scheme="nesterov", eta=0.05, beta=0.9, flow=flow)
        eu = DiscretizerConfig(scheme="euler", eta=0.05, flow=flow)
        s_n = one_step(nes, QUAD2, init_state(np.array([1.0, 0.5])))
        s_e = one_step(eu, QUAD2, init_state(np.array([1.0, 0.5])))
        assert np.array_equal(s_n.x, s_e.x)

    def test_zero_momentum_always_equals_euler(self):
        flow = FlowSpec("sgf", q=3.0)
        nes = DiscretizerConfig(scheme="nesterov", eta=0.01, beta=0.0, flow=flow)
        eu = DiscretizerConfig(scheme="euler", eta=0.01, flow=flow)
        assert np.array_equal(iterate(nes, ROSEN, [0.2, 0.3], 100),
                              iterate(eu, ROSEN, [0.2, 0.3], 100))

    @pytest.mark.parametrize("obj,x0,eta", [(QUAD2, [1.0, 0.5], 0.1),
                                            (ROSEN, [0.2, 0.3], 1e-3)])
    def test_gradient_flow_reproduces_nagd(self, obj, x0, eta):
        nes = DiscretizerConfig(scheme="nesterov", eta=eta, beta=0.9,
                                flow=FlowSpec("gf"))
        nag = DiscretizerConfig(scheme="nagd", eta=eta, beta=0.9)
        a = iterate(nes, obj, x0, 100)
        b = iterate(nag, obj, x0, 100)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_momentum_memory_is_iterate_difference(self):
        cfg = DiscretizerConfig(scheme="nesterov", eta=0.05, beta=0.8,
                                flow=FlowSpec("rgf", q=3.0))
        state = init_state(np.array([1.0, -0.5]))
        for _ in range(20):
            prev_x = state.x.copy()
            state = one_step(cfg, QUAD2, state)
            assert np.array_equal(state.y, state.x - prev_x)


class TestNagd:
    def test_zero_momentum_reduces_to_gd(self):
        assert np.array_equal(
            iterate(DiscretizerConfig(scheme="nagd", eta=1e-3, beta=0.0), ROSEN,
                    [0.2, 0.3], 100),
            iterate(DiscretizerConfig(scheme="gd", eta=1e-3), ROSEN,
                    [0.2, 0.3], 100))

    def test_first_step_with_zero_memory_is_gd_step(self):
        cfg = DiscretizerConfig(scheme="nagd", eta=0.1, beta=0.9)
        got = one_step(cfg, QUAD2, init_state(np.array([1.0, 0.0])))
        want = one_step(DiscretizerConfig(scheme="gd", eta=0.1), QUAD2,
                       init_state(np.array([1.0, 0.0])))
        assert np.array_equal(got.x, want.x)

    def test_two_steps_hand_traced(self):
        cfg = DiscretizerConfig(scheme="nagd", eta=0.1, beta=0.9)
        state = init_state(np.array([1.0, 0.0]))
        state = one_step(cfg, QUAD2, state)
        assert np.allclose(state.x, [0.9, 0.0], rtol=0, atol=1e-16)
        state = one_step(cfg, QUAD2, state)
        assert np.allclose(state.x, [0.729, 0.0], rtol=0, atol=1e-15)


class TestGd:
    def test_step_hand_evaluated(self):
        got = one_step(DiscretizerConfig(scheme="gd", eta=0.1), QUAD2,
                      init_state(np.array([1.0, 0.0])))
        assert np.allclose(got.x, [0.9, 0.0], rtol=0, atol=1e-16)

    def test_zero_step_size(self):
        got = one_step(DiscretizerConfig(scheme="gd", eta=0.0), QUAD2,
                      init_state(np.array([1.0, 2.0])))
        assert np.array_equal(got.x, [1.0, 2.0])

    def test_stationary_point_is_fixed(self):
        got = one_step(DiscretizerConfig(scheme="gd", eta=0.1), QUAD2,
                      init_state(np.zeros(2)))
        assert np.array_equal(got.x, np.zeros(2))

    def test_steps_where_the_squared_norm_underflows(self):
        # ||g||^2 rounds to 0 here, but the plain gradient flow has no
        # cutoff, so gd still steps by -eta * g
        traj = run(DiscretizerConfig(scheme="gd", eta=0.1), QUAD2, np.array([1e-170, 0.0]),
                   StopCriteria(max_iters=2))
        want = [1e-170]
        for _ in range(2):
            want.append(want[-1] + -want[-1] * 0.1)
        assert traj.grad_norm2.tolist() == [0.0, 0.0, 0.0]
        assert traj.x[:, 0].tolist() == want and want[2] < want[1] < want[0]


class TestAdam:
    def test_persistent_zero_gradient_leaves_iterate(self):
        obj = make_quadratic(1.0, 2)
        cfg = DiscretizerConfig(scheme="adam", eta=0.1)
        state = init_state(np.zeros(2))
        for _ in range(5):
            state = one_step(cfg, obj, state)
        assert np.array_equal(state.x, np.zeros(2))

    def test_second_step_uses_kingma_ba_defaults(self):
        # the first step cannot tell the moment coefficients apart: its
        # bias-corrected moments are g and g * g whatever they are
        cfg = DiscretizerConfig(scheme="adam", eta=0.1)
        x, m, v = [2.0, -3.0], [0.0, 0.0], [0.0, 0.0]
        state = init_state(np.array(x))
        for k in (1, 2):
            state = one_step(cfg, QUAD2, state)
            g = QUAD2.gradient(np.array(x)).tolist()
            m = [0.9 * mi + (1.0 - 0.9) * gi for mi, gi in zip(m, g)]
            v = [0.999 * vi + (1.0 - 0.999) * gi * gi for vi, gi in zip(v, g)]
            x = [xi - 0.1 * (mi / (1.0 - 0.9 ** k)) / (math.sqrt(vi / (1.0 - 0.999 ** k)) + 1e-8)
                 for xi, mi, vi in zip(x, m, v)]
        assert state.x.tolist() == x

    def test_first_step_bias_correction(self):
        cfg = DiscretizerConfig(scheme="adam", eta=0.1)
        state = init_state(np.array([5.0]))
        got = one_step(cfg, linear_objective(1.0), state)
        # bias-corrected moments both equal the raw gradient on step one
        assert got.x[0] == pytest.approx(5.0 - 0.1 / (1.0 + 1e-8), abs=1e-12)

    def test_minibatch_run_takes_a_list_gradient(self):
        # a hand-built objective may return its gradients as lists, as gd and
        # nagd accept; Adam steps on them as on the same arrays
        def objective(as_list):
            grad = (lambda x: [2.0 * c for c in x]) if as_list else (lambda x: 2.0 * x)
            return Objective(dimension=2, value=lambda x: float(x.dot(x)), gradient=grad,
                             batch_gradient=lambda x, idx: grad(x))

        cfg, batch = DiscretizerConfig(scheme="adam", eta=0.1), BatchContext(0, 1, 4)
        got, want = (run(cfg, objective(as_list), np.array([1.0, -2.0]),
                         StopCriteria(max_iters=5), batch) for as_list in (True, False))
        assert got.terminal_reason == "max_iters" and len(got) == 6
        assert got.x.tobytes() == want.x.tobytes()


class TestFixedPoints:
    @pytest.mark.parametrize("cfg", [
        DiscretizerConfig(scheme="euler", eta=0.1, flow=FlowSpec("rgf", q=3.0)),
        DiscretizerConfig(scheme="rk", eta=0.1, flow=FlowSpec("sgf", q=3.0),
                          stages=2, alphas=(0.5, 0.5), betas=(0.09,)),
        DiscretizerConfig(scheme="nesterov", eta=0.1, beta=0.9,
                          flow=FlowSpec("rgf", q=math.inf)),
        DiscretizerConfig(scheme="gd", eta=0.1),
        DiscretizerConfig(scheme="nagd", eta=0.1, beta=0.9),
        DiscretizerConfig(scheme="adam", eta=0.1),
    ])
    def test_zero_gradient_zero_memory_state_is_fixed(self, cfg):
        state = init_state(np.zeros(2))
        new = make_step(cfg)(cfg, QUAD2, state)
        assert np.array_equal(new.x, np.zeros(2))


# components from every range a step can meet: signed zeros, subnormals,
# the edges of the exponent range and ordinary values
COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                     1e-300, -1e-300, 1e300, -1e300]),
    st.floats(min_value=-2.2e-308, max_value=2.2e-308),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
STEP_SIZE = st.one_of(st.just(1.0), st.floats(min_value=1e-6, max_value=1.0))
COEFFICIENT = st.sampled_from([0.0, 1.0, 0.5, 0.09, 1.0 / 3.0, 1.0 / 6.0, 0.7])
# stage weights that sum to 1, with zero, unit and other entries
CONSISTENT_WEIGHTS = [(1.0,), (0.5, 0.5), (0.0, 1.0), (1.0, 0.0), (0.25, 0.75),
                      (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0), (0.0, 0.0, 1.0),
                      (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0), (0.0, 1.0, 0.0, 0.0)]


def swap_gradient(z):
    """An exact gradient field, -z reversed, which carries every bit of its
    input into the next stage."""
    return -np.asarray(z, dtype=float)[::-1]


SWAP = Objective(dimension=1, value=lambda x: 0.0, gradient=swap_gradient)

# explicit tableaus (a, b): stage i sits at x + h * sum_j a[i][j] * v_j over
# the earlier stages j, and the step is x + h * sum_i b[i] * v_i
EULER = (((),), (1.0,))
RK4 = (((), (0.5,), (0.0, 0.5), (0.0, 0.0, 1.0)),
       (1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0))


def py_tableau(a, b, h, x, v1, velocity):
    """One explicit tableau step in Python floats, component by component,
    with the rule the steps follow: zero coefficients drop out, unit ones
    add their velocity unscaled, and sums run left to right."""
    def combine(coefs, vs):
        total = None
        for j, coef in enumerate(coefs):
            if coef:
                term = vs[j] if coef == 1.0 else [c * coef for c in vs[j]]
                total = term if total is None else [s + t for s, t in zip(total, term)]
        return total

    vs = [v1]
    for row in a[1:]:
        offset = combine(row, vs)
        z = x if offset is None else [xi + o * h for xi, o in zip(x, offset)]
        vs.append(velocity(np.array(z)).tolist())
    return [xi + o * h for xi, o in zip(x, combine(b, vs))]


def same_as_floats(got, want):
    return np.asarray(got).tobytes() == np.array(want, dtype=float).tobytes()


class TestUpdateBits:
    """The one-stage, Runge-Kutta, reference RK4 and look-ahead updates
    equal the Python-float formulas they stand for, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), d=st.integers(min_value=1, max_value=8), h=STEP_SIZE)
    def test_reference_step(self, data, d, h):
        # row 1 of the reference is one unclamped RK4 step
        x = data.draw(st.lists(COMPONENT, min_size=d, max_size=d))
        flow, obj = integrators._GRADIENT_FLOW, replace(SWAP, dimension=d)
        velocity = lambda z: flow_eval(flow, obj.gradient(z))
        traj = integrate_reference(flow, obj, np.array(x), h, StopCriteria(max_iters=1))
        try:
            want = py_tableau(*RK4, h, x, velocity(np.array(x)).tolist(), velocity)
        except NumericalFailure:
            want = None
        if want is None or not all(map(math.isfinite, want)):
            assert traj.terminal_reason == "numerical_failure" and len(traj) == 1
        else:
            assert len(traj) == 2 and same_as_floats(traj.x[1], want)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), d=st.integers(min_value=1, max_value=8), h=STEP_SIZE,
           alphas=st.sampled_from(CONSISTENT_WEIGHTS))
    def test_run_steps(self, data, d, h, alphas):
        # gd is Euler on the plain gradient flow, and rk takes the paper's
        # tableau a[i][j] = betas[j], b = alphas; euler and rk also run on the
        # rescaled and signed flows of the banana sweep
        stages = len(alphas)
        x, g = (data.draw(st.lists(COMPONENT, min_size=d, max_size=d)) for _ in range(2))
        betas = tuple(data.draw(st.lists(COEFFICIENT, min_size=stages - 1,
                                         max_size=stages - 1)))
        q = data.draw(st.sampled_from([2.2, 3.0, 6.0, 10.0]))
        obj, g = replace(SWAP, dimension=d), np.array(g)
        rk = (tuple(betas[:i] for i in range(stages)), alphas)
        cases = [(DiscretizerConfig(scheme="gd", eta=h), integrators._GRADIENT_FLOW, EULER)]
        for flow in (integrators._GRADIENT_FLOW, FlowSpec("rgf", q=q), FlowSpec("sgf", q=q)):
            if flow.kind != "gf":
                cases.append((DiscretizerConfig(scheme="euler", eta=h, flow=flow), flow, EULER))
            cases.append((DiscretizerConfig(scheme="rk", eta=h, flow=flow, stages=stages,
                                            alphas=alphas, betas=betas), flow, rk))
        for cfg, flow, tableau in cases:
            want = py_tableau(*tableau, h, x, flow_eval(flow, g).tolist(),
                              lambda z: flow_eval(flow, obj.gradient(z)))
            got = make_step(cfg)(cfg, obj, init_state(np.array(x)), g, norm2(g))
            assert same_as_floats(got.x, want), (cfg.scheme, flow)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), d=st.integers(min_value=1, max_value=8), eta=STEP_SIZE,
           beta=st.one_of(st.sampled_from([0.0, 0.5, 0.9]),
                          st.floats(min_value=0.0, max_value=0.99)))
    def test_look_ahead_step(self, data, d, eta, beta):
        x, y = (data.draw(st.lists(COMPONENT, min_size=d, max_size=d)) for _ in range(2))
        cfg = DiscretizerConfig(scheme="nagd", eta=eta, beta=beta)
        obj = replace(SWAP, dimension=d)
        look = [xi + beta * yi for xi, yi in zip(x, y)]
        v = flow_eval(integrators._GRADIENT_FLOW, obj.gradient(np.array(look))).tolist()
        want = [li + eta * vi for li, vi in zip(look, v)]
        state = replace(init_state(np.array(x)), y=np.array(y))
        got = make_step(cfg)(cfg, obj, state)
        assert same_as_floats(got.x, want)
        assert same_as_floats(got.y, [w - xi for w, xi in zip(want, x)])


def descent_guarantee_floor(spec: FlowSpec, eta: float, mu: float, dim: int) -> float:
    """Gradient-norm level above which one Euler step on the quadratic is a
    strict descent step; from the exact quadratic expansion
    f(x + eta*v) - f(x) = eta*<g, v> + eta^2 * mu * ||v||^2 / 2."""
    if spec.kind == "gf":
        return 0.0 if eta < 2.0 / mu else math.inf
    if spec.kind == "rgf":
        if math.isinf(spec.q):
            return eta * mu * spec.c / 2.0
        if spec.q == 2.0:
            return 0.0 if eta * spec.c < 2.0 / mu else math.inf
        return (eta * mu * spec.c / 2.0) ** ((spec.q - 1.0) / (spec.q - 2.0))
    # signed flow: measured in the l1 norm, worst case all components active
    base = eta * mu * spec.c * dim / 2.0
    if math.isinf(spec.q):
        return base
    return base ** ((spec.q - 1.0) / (spec.q - 2.0))


class TestMonotoneDescent:
    @pytest.mark.parametrize("kind", ["gf", "rgf", "sgf"])
    @pytest.mark.parametrize("q", [2.1, 3.0, 6.0, 10.0, math.inf])
    @pytest.mark.parametrize("eta", [0.1, 0.05])
    def test_euler_descends_on_quadratic_above_guarantee_floor(self, kind, q, eta):
        obj = make_quadratic(1.0, 2)
        spec = FlowSpec(kind) if kind == "gf" else FlowSpec(kind, q=q)
        cfg = DiscretizerConfig(scheme="euler", eta=eta, flow=spec)
        floor = descent_guarantee_floor(spec, eta, 1.0, 2)
        state = init_state(np.array([1.0, 0.7]))
        checked = 0
        for _ in range(40):
            g = obj.gradient(state.x)
            level = np.abs(g).sum() if kind == "sgf" else np.linalg.norm(g)
            f_before = obj.value(state.x)
            state = one_step(cfg, obj, state)
            if level > floor * (1.0 + 1e-9) and level > GRAD_CUTOFF:
                assert obj.value(state.x) < f_before
                checked += 1
        assert checked >= 5


@pytest.mark.parametrize("x0, message", [
    ([math.nan, 0.0], r"^x0 must be finite$"),
    ([1.0, -math.inf], r"^x0 must be finite$"),
    ([1.0], r"^x0 must have shape \(2,\), got \(1,\)$"),
], ids=["nan", "inf", "shape"])
@pytest.mark.parametrize("driver", [
    lambda x0: run(DiscretizerConfig(scheme="gd", eta=0.1), QUAD2, x0, StopCriteria(max_iters=3)),
    lambda x0: integrate_reference(FlowSpec("rgf", q=3.0), QUAD2, x0, 1e-3,
                                   StopCriteria(max_iters=3)),
], ids=["run", "integrate_reference"])
def test_both_drivers_check_their_start_alike(driver, x0, message):
    with pytest.raises(ValueError, match=message):
        driver(np.array(x0))


class TestRun:
    def test_zero_iteration_budget_keeps_initial_record(self):
        traj = run(DiscretizerConfig(scheme="gd", eta=0.1), QUAD2,
                   np.array([1.0, 0.0]), StopCriteria(max_iters=0))
        assert len(traj) == 1
        assert traj.terminal_reason == "max_iters"
        assert np.array_equal(traj.x[0], [1.0, 0.0])

    def test_geometric_decay_reaches_tolerance_in_132_steps(self):
        # closed form: x_k = 0.9^k, so ||g|| <= 1e-6 first at ceil(ln 1e-6 / ln 0.9)
        expected = math.ceil(math.log(1e-6) / math.log(0.9))
        assert expected == 132
        traj = run(DiscretizerConfig(scheme="gd", eta=0.1), QUAD2,
                   np.array([1.0, 0.0]),
                   StopCriteria(max_iters=10 ** 5, grad_tol=1e-6))
        assert traj.terminal_reason == "grad_tol"
        assert traj.k[-1] == expected
        assert len(traj) == expected + 1

    def test_replay_is_bit_identical(self):
        cfg = DiscretizerConfig(scheme="nesterov", eta=1e-3, beta=0.9,
                                flow=FlowSpec("sgf", q=3.0))
        stop = StopCriteria(max_iters=500)
        a = run(cfg, ROSEN, np.array([0.5, 0.5]), stop)
        b = run(cfg, ROSEN, np.array([0.5, 0.5]), stop)
        for field in ("k", "t", "x", "f", "grad_norm2", "grad_norm1"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_stochastic_run_is_pure_function_of_seed(self):
        obj = make_mlp([2, 4, 1], 32, noise_std=0.1, seed=3)
        cfg = DiscretizerConfig(scheme="nagd", eta=0.05, beta=0.9)
        stop = StopCriteria(max_iters=200)
        ctx = BatchContext(rng_seed=17, batch_size=8, dataset_size=32)
        x0 = np.random.default_rng(1).normal(size=obj.dimension)
        a = run(cfg, obj, x0, stop, batch=ctx)
        b = run(cfg, obj, x0, stop, batch=ctx)
        assert np.array_equal(a.x, b.x)
        other = run(cfg, obj, x0, stop,
                    batch=BatchContext(rng_seed=18, batch_size=8, dataset_size=32))
        assert not np.array_equal(a.x, other.x)

    def test_batch_requires_support(self):
        with pytest.raises(ValueError):
            run(DiscretizerConfig(scheme="gd", eta=0.1), QUAD2,
                np.array([1.0, 0.0]), StopCriteria(max_iters=10),
                batch=BatchContext(rng_seed=0, batch_size=1, dataset_size=2))

    def test_batch_run_builds_one_objective_view(self, monkeypatch):
        obj = make_mlp([2, 4, 1], 32, noise_std=0.1, seed=3)
        ctx = BatchContext(rng_seed=17, batch_size=8, dataset_size=32)
        seen = []

        def recording_make_step(cfg):
            step = make_step(cfg)

            def recorded(cfg, view, *args):
                seen.append(view)
                return step(cfg, view, *args)
            return recorded

        monkeypatch.setattr(integrators, "make_step", recording_make_step)
        traj = run(DiscretizerConfig(scheme="nagd", eta=0.05, beta=0.9), obj,
                   np.zeros(obj.dimension), StopCriteria(max_iters=20), batch=ctx)
        assert len(seen) == len(traj) - 1 == 20
        assert len({id(view) for view in seen}) == 1 and seen[0] is not obj
        # the one view still hands each step its own mini-batch gradient
        x = np.linspace(-1.0, 1.0, obj.dimension)
        assert np.array_equal(seen[0].gradient(x),
                              obj.batch_gradient(x, ctx.indices(19)))

    def test_record_times_strictly_increase(self):
        traj = run(DiscretizerConfig(scheme="gd", eta=0.05), QUAD2,
                   np.array([1.0, 0.0]), StopCriteria(max_iters=50))
        assert np.all(np.diff(traj.t) > 0)

    def test_huge_iteration_budget_ended_by_a_tolerance_keeps_its_rows(self):
        # the record columns grow with the run instead of being sized by
        # max_iters up front
        traj = run(DiscretizerConfig(scheme="gd", eta=1e-3), QUAD2,
                   np.array([1.0, 0.0]),
                   StopCriteria(max_iters=10 ** 12, grad_tol=1e-6))
        assert traj.terminal_reason == "grad_tol"
        assert len(traj) > _RECORD_BLOCK
        assert np.array_equal(traj.k, np.arange(len(traj)))
        assert traj.x.shape == (len(traj), 2)
        for col in (traj.t, traj.f, traj.grad_norm2, traj.grad_norm1, traj.wall_s):
            assert col.shape == (len(traj),)

    def test_run_builds_its_step_once_and_calls_it_once_per_step(self, monkeypatch):
        # the seam a tracer patches: integrators.make_step, looked up per run
        built, calls = [], []

        def counting_make_step(cfg):
            built.append(cfg)
            step = make_step(cfg)

            def counted(*args, **kwargs):
                calls.append(1)
                return step(*args, **kwargs)
            return counted

        monkeypatch.setattr(integrators, "make_step", counting_make_step)
        traj = run(DiscretizerConfig(scheme="gd", eta=0.05), QUAD2,
                   np.array([1.0, 0.0]), StopCriteria(max_iters=30))
        assert len(built) == 1 and len(calls) == len(traj) - 1 == 30

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_numerical_failure_retains_partial_trajectory(self):
        exploding = Objective(dimension=1,
                              value=lambda x: float(x[0] ** 2),
                              gradient=lambda x: np.array([-x[0] ** 3]))
        traj = run(DiscretizerConfig(scheme="gd", eta=10.0), exploding,
                   np.array([2.0]), StopCriteria(max_iters=10 ** 4))
        assert traj.terminal_reason == "numerical_failure"
        assert 1 <= len(traj) < 200

    @pytest.mark.parametrize("cfg,records", [
        (DiscretizerConfig(scheme="rk", eta=0.3, flow=FlowSpec("gf"), stages=2,
                           alphas=(0.5, 0.5), betas=(2.0,)), 1),
        (DiscretizerConfig(scheme="nagd", eta=0.3, beta=0.9), 2),
    ])
    def test_nonfinite_stage_or_look_ahead_gradient_ends_run(self, cfg, records):
        # the gradient is finite below x = 1.5 only; the second stage point
        # and the second look-ahead point cross that line before any iterate
        cliff = Objective(dimension=1, value=lambda x: -float(x[0]),
                          gradient=lambda x: np.array([-1.0 if x[0] < 1.5 else math.nan]))
        traj = run(cfg, cliff, np.array([1.0]), StopCriteria(max_iters=100))
        assert traj.terminal_reason == "numerical_failure"
        assert len(traj) == records

    @pytest.mark.parametrize("scheme", ["gd", "rk"])
    def test_each_row_makes_one_objective_call(self, scheme):
        calls = {"value_and_grad": 0, "value": 0, "gradient": 0}

        def counted(name, fn):
            def call(x):
                calls[name] += 1
                return fn(x)
            return call

        obj = Objective(dimension=2, value=counted("value", QUAD2.value),
                        gradient=counted("gradient", QUAD2.gradient),
                        fused=counted("value_and_grad", QUAD2.value_and_grad))
        cfg = (DiscretizerConfig(scheme="gd", eta=0.1) if scheme == "gd" else
               DiscretizerConfig(scheme="rk", eta=0.1, flow=FlowSpec("gf"),
                                 alphas=(0.5, 0.5), betas=(1.0,)))
        traj = run(cfg, obj, np.array([1.0, 0.5]), StopCriteria(max_iters=40))
        # the record pass makes the row's one call; a second stage takes a
        # gradient of its own
        assert calls == {"value_and_grad": len(traj), "value": 0,
                         "gradient": 0 if scheme == "gd" else len(traj) - 1}

    def test_overflowing_squared_norms_take_the_rescaled_paths(self):
        # components of 1e155 overflow a squared norm, not the vector: the
        # record pass, the loop's iterate check and the reference's stage
        # norms all take their rescaled paths, also where numpy's overflow
        # warning is raised as an error, as under this suite's filter
        steep = Objective(dimension=2, value=lambda x: float(x.sum()),
                          gradient=lambda x: np.array([1e155, 1e155]))
        x0 = np.array([1e155, 1.0])
        runs = (run(DiscretizerConfig(scheme="euler", eta=0.1, flow=FlowSpec("rgf")),
                    steep, x0, StopCriteria(max_iters=5)),
                integrate_reference(FlowSpec("rgf"), steep, x0, 0.1,
                                    StopCriteria(max_iters=5)))
        for traj in runs:
            assert traj.terminal_reason == "max_iters" and len(traj) == 6
            assert np.all(traj.grad_norm2 == 1e155 * math.sqrt(2.0))
            # the unit-speed velocity moves the second component
            assert np.all(np.diff(traj.x[:, 1]) < 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("cfg", [
        DiscretizerConfig(scheme="gd", eta=0.1),
        DiscretizerConfig(scheme="euler", eta=0.1, flow=FlowSpec("rgf", q=3.0)),
        DiscretizerConfig(scheme="nesterov", eta=0.1, beta=0.5, flow=FlowSpec("rgf", q=3.0)),
    ], ids=["gd", "euler_rgf_q3", "nesterov_rgf_q3"])
    def test_overflow_warning_raised_as_an_error_takes_the_rescaled_paths(self, cfg):
        # the cost stays finite while the squares of the gradient and of the
        # iterate overflow: the record pass, the look-ahead field's own dot
        # and the loop's iterate check each catch numpy's warning
        steep = Objective(dimension=2, value=lambda x: 1.0,
                          gradient=lambda x: np.array([1e200, 1e200]))
        traj = run(cfg, steep, np.array([1e200, 1e200]), StopCriteria(max_iters=5))
        assert traj.terminal_reason == "max_iters" and len(traj) == 6
        assert np.all(traj.grad_norm2 == 1e200 * math.sqrt(2.0))
        assert np.all(np.isfinite(traj.x))

    def test_callers_overflow_raise_still_ends_the_run(self):
        steep = Objective(dimension=2, value=lambda x: float(x.sum()),
                          gradient=lambda x: np.array([1e155, 1e155]))
        with np.errstate(over="raise"):
            traj = run(DiscretizerConfig(scheme="gd", eta=0.1), steep,
                       np.array([0.0, 1.0]), StopCriteria(max_iters=5))
        assert traj.terminal_reason == "numerical_failure" and len(traj) == 0


# the schemes as the per-layer benchmark times them, on its banana valley
PROBE_SCHEMES = [
    DiscretizerConfig(scheme="euler", eta=1e-3, flow=FlowSpec("rgf", q=3.0)),
    DiscretizerConfig(scheme="rk", eta=1e-3, stages=2, alphas=(0.5, 0.5),
                      betas=(0.09,), flow=FlowSpec("rgf", q=3.0)),
    DiscretizerConfig(scheme="nesterov", eta=1e-3, beta=0.9, flow=FlowSpec("sgf", q=3.0)),
    DiscretizerConfig(scheme="gd", eta=1e-3),
    DiscretizerConfig(scheme="nagd", eta=1e-3, beta=0.9),
    DiscretizerConfig(scheme="adam", eta=1e-3),
]


def table_objective(fs, gn2s, f_star=None):
    """A 1-D objective on which ``SIGN_STEPS`` moves from x = 0 to 1, 2, ...
    exactly; at x = k its value is fs[k] and its gradient -gn2s[k], so row k
    records fs[k] and the gradient norm |gn2s[k]|."""
    return Objective(dimension=1, value=lambda x: fs[int(x[0])],
                     gradient=lambda x: np.array([-gn2s[int(x[0])]]),
                     metadata=None if f_star is None else OptimumInfo(np.zeros(1), f_star))


# Euler with unit steps on the pure sign flow: x + 1 for every gradient
# below -1e-12, the flows' cutoff
SIGN_STEPS = DiscretizerConfig(scheme="euler", eta=1.0, flow=FlowSpec("sgf"))
ROWS = 8
JUST_ABOVE_HALF = math.nextafter(0.5, 1.0)
# (stop, fs, gn2s, f_star, rows recorded, reason): each rule fires on the
# row where its quantity first reaches its bound, after a row just above it
STOP_RULES = {
    "grad_tol": (StopCriteria(max_iters=ROWS, grad_tol=0.5), [1.0] * ROWS,
                 [2.0, 1.0, JUST_ABOVE_HALF, 0.5, 0.25, 0.1, 0.1, 0.1], None, 4, "grad_tol"),
    "f_tol": (StopCriteria(max_iters=ROWS, f_tol=0.25), [2.0, 1.0, math.nextafter(0.75, 1.0),
                                                         0.75, 0.6, 0.5, 0.5, 0.5],
              [1.0] * ROWS, 0.5, 4, "f_tol"),
    # no optimum is known, so f_tol is not active
    "f_tol-no-optimum": (StopCriteria(max_iters=5, f_tol=0.25), [0.0] * ROWS, [1.0] * ROWS,
                         None, 6, "max_iters"),
    "max_iters": (StopCriteria(max_iters=3), [1.0] * ROWS, [1.0] * ROWS, None, 4, "max_iters"),
    "max_iters-0": (StopCriteria(max_iters=0), [1.0] * ROWS, [1.0] * ROWS, None, 1, "max_iters"),
    # on one row, grad_tol comes before f_tol, and f_tol before max_iters
    "grad_tol-first": (StopCriteria(max_iters=3, grad_tol=0.5, f_tol=0.25),
                       [1.0, 1.0, 1.0, 0.75, 0.5], [1.0, 1.0, 1.0, 0.5, 0.1], 0.5, 4, "grad_tol"),
    "f_tol-before-max_iters": (StopCriteria(max_iters=3, grad_tol=0.5, f_tol=0.25),
                               [1.0, 1.0, 1.0, 0.75, 0.5], [1.0] * 5, 0.5, 4, "f_tol"),
}


class TestStopRuleBoundaries:
    """Each stop rule fires on the row where its quantity reaches its bound,
    with the reason and in the order that ``StopCriteria`` documents."""

    @pytest.mark.parametrize("case", STOP_RULES.values(), ids=list(STOP_RULES))
    def test_rule_fires_at_its_bound(self, case):
        stop, fs, gn2s, f_star, rows, reason = case
        traj = run(SIGN_STEPS, table_objective(fs, gn2s, f_star), np.zeros(1), stop)
        assert (len(traj), traj.terminal_reason) == (rows, reason)
        assert traj.x[:, 0].tolist() == list(range(rows))
        assert traj.f.tolist() == fs[:rows] and traj.grad_norm2.tolist() == gn2s[:rows]

    @pytest.mark.parametrize("column", ["f", "gn2"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("others", ["pass", "fire"])
    def test_nonfinite_row_fails_before_every_other_rule(self, column, bad, others):
        # row 2 passes every other rule, or meets grad_tol, f_tol (which
        # f - f_star = -inf meets too) and max_iters, all checked after it
        fs, gn2s = ([1.0, 1.0, 0.5, 0.5], [1.0, 1.0, 0.1, 0.1]) if others == "fire" else (
            [1.0] * ROWS, [1.0] * ROWS)
        (fs if column == "f" else gn2s)[2] = bad
        stop = (StopCriteria(max_iters=2, grad_tol=0.5, f_tol=0.25) if others == "fire"
                else StopCriteria(max_iters=ROWS))
        traj = run(SIGN_STEPS, table_objective(fs, gn2s, 0.5), np.zeros(1), stop)
        assert (len(traj), traj.terminal_reason) == (3, "numerical_failure")

    def test_wall_s_is_the_clock_since_the_start(self, monkeypatch):
        # a clock that reads 0 at the start and k when row k is recorded
        ticks = iter([0.0] + [float(k) for k in range(ROWS)])
        monkeypatch.setattr(integrators, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks)))
        traj = run(SIGN_STEPS, table_objective([1.0] * ROWS, [1.0] * ROWS), np.zeros(1),
                   StopCriteria(max_iters=3))
        assert (len(traj), traj.terminal_reason) == (4, "max_iters")
        assert traj.wall_s.tolist() == [0.0, 1.0, 2.0, 3.0]


class TestStepIsTheRunStep:
    """Stepping ``make_step(cfg)`` from ``init_state(x0)`` is what ``run``
    does, to the bit, past the first growth of the record columns."""

    @pytest.mark.parametrize("cfg", PROBE_SCHEMES, ids=lambda c: c.scheme)
    def test_stepping_reproduces_run(self, cfg):
        obj, x0, n = make_rosenbrock(1.0, 0.2), np.array([0.5, 1.5]), _RECORD_BLOCK + 100
        traj = run(cfg, obj, x0, StopCriteria(max_iters=n))
        assert traj.terminal_reason == "max_iters"
        assert np.array_equal(traj.x, iterate(cfg, obj, x0, n))

    def test_nonfinite_gradient_mid_run_keeps_partial_rows(self):
        # the gradient turns NaN past x = 1.2, which gd with eta 1e-3 from 0
        # reaches after more steps than the first block of rows
        cliff = Objective(dimension=1, value=lambda x: -float(x[0]),
                          gradient=lambda x: np.array([-1.0 if x[0] < 1.2 else math.nan]))
        cfg = DiscretizerConfig(scheme="gd", eta=1e-3)
        traj = run(cfg, cliff, np.array([0.0]), StopCriteria(max_iters=10 ** 6))
        assert traj.terminal_reason == "numerical_failure"
        assert len(traj) > _RECORD_BLOCK
        step, state, xs = make_step(cfg), init_state(np.array([0.0])), [np.array([0.0])]
        with pytest.raises(NumericalFailure):
            while True:
                state = step(cfg, cliff, state)
                xs.append(state.x)
        assert np.array_equal(traj.x, np.array(xs))
        assert np.all(traj.grad_norm1[:-1] == 1.0) and math.isnan(traj.grad_norm1[-1])


# 1-D rgf q = 3 on f = x^2/2 from x = 1 with h = 1e-4: arrival at step
# 19,981, and from step 20,004 on x stays at 6.08e-10 to the bit
Q3_1D = (FlowSpec("rgf", q=3.0), make_quadratic(1.0, 1), np.array([1.0]), 1e-4)
Q3_FROZEN_FROM = 20_004
Q3_PAST_ARRIVAL = 23_981

# (flow, objective, x0, h_ref, max_iters) of references that freeze
FROZEN_CASES = {
    "rgf_q3_1d": Q3_1D + (21_000,),
    "rgf_q4_2d_no_arrival": (FlowSpec("rgf", q=4.0, c=1.5), QUAD2,
                             np.array([0.6, -0.8]), 1e-3, 3000),
    "sgf_q3_2d": (FlowSpec("sgf", q=3.0), QUAD2, np.array([0.6, -0.8]), 1e-3, 3000),
}


@pytest.fixture(scope="module")
def q3_past_arrival():
    flow, obj, x0, h = Q3_1D
    return integrate_reference(flow, obj, x0, h, StopCriteria(max_iters=Q3_PAST_ARRIVAL))


def counting(obj):
    """obj with its value and gradient calls counted."""
    calls = {"value": 0, "gradient": 0}

    def value(x):
        calls["value"] += 1
        return obj.value(x)

    def gradient(x):
        calls["gradient"] += 1
        return obj.gradient(x)

    return replace(obj, value=value, gradient=gradient), calls


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_rows(a, b):
    """Equal to the bit in every column but wall_s, and in why the run stopped."""
    assert a.terminal_reason == b.terminal_reason
    for col in ("k", "t", "x", "f", "grad_norm2", "grad_norm1"):
        assert same_bits(getattr(a, col), getattr(b, col)), col


def stepping_every_row(go, *args):
    """``go(*args)`` with the record loop stepping every row, as it does for
    Adam and mini-batch runs, so that no repeating row is filled."""
    record = integrators._record_until_stop
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrators, "_record_until_stop",
                      lambda *params, repeats: record(*params, repeats=False))
        return go(*args)


class TestIntegrateReference:
    def test_arrival_time_matches_closed_form_crossing(self):
        # |x|' = -|x|^(1/2) gives x(t) = (1 - t/2)^2, so |x| first reaches
        # 1e-6 at t = 2 - 2*sqrt(1e-6); the settling instant itself is 2.0
        obj = make_quadratic(1.0, 1)
        traj = integrate_reference(FlowSpec("rgf", q=3.0), obj, np.array([1.0]),
                                   1e-4, StopCriteria(max_iters=40000, grad_tol=1e-6))
        assert traj.terminal_reason == "grad_tol"
        assert abs(traj.t[-1] - (2.0 - 2.0 * math.sqrt(1e-6))) <= 1e-3
        assert abs(traj.t[-1] - 2.0) <= 3e-3

    def test_equilibrium_start_stays_put(self):
        obj = make_quadratic(1.0, 2)
        traj = integrate_reference(FlowSpec("rgf", q=3.0), obj, np.zeros(2),
                                   1e-3, StopCriteria(max_iters=100, grad_tol=1e-8))
        assert np.array_equal(traj.x[-1], np.zeros(2))

    def test_step_halving_barely_moves_arrival(self):
        obj = make_quadratic(1.0, 1)
        stop = StopCriteria(max_iters=90000, grad_tol=1e-6)
        t_a = integrate_reference(FlowSpec("rgf", q=3.0), obj, np.array([1.0]),
                                  1e-4, stop).t[-1]
        t_b = integrate_reference(FlowSpec("rgf", q=3.0), obj, np.array([1.0]),
                                  5e-5, stop).t[-1]
        assert abs(t_a - t_b) < 1e-4

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            integrate_reference(FlowSpec("gf"), QUAD2, np.zeros(2), 0.0,
                                StopCriteria(max_iters=10))

    def test_frozen_rows_cost_no_objective_calls(self):
        flow, obj, x0, h = Q3_1D
        counted, calls = counting(obj)
        traj = integrate_reference(flow, counted, x0, h,
                                   StopCriteria(max_iters=Q3_PAST_ARRIVAL))
        assert traj.terminal_reason == "max_iters"
        assert len(traj) == Q3_PAST_ARRIVAL + 1
        r = Q3_FROZEN_FROM
        assert traj.x[r - 1, 0] != traj.x[r, 0]
        for col in (traj.x, traj.f, traj.grad_norm2, traj.grad_norm1):
            assert same_bits(col[r:], np.repeat(col[r:r + 1], len(col) - r, axis=0))
        # the first anchor inside the freeze is row a, the first row past r
        # that is 1 plus a multiple of _ANCHOR_EVERY; rows 0..a+1 are
        # evaluated once each, each step from rows 0..a adds three stage
        # gradients, and the rows after row a+1 cost no call
        a = r + 1 + (-r) % _ANCHOR_EVERY
        assert calls["value"] == a + 2 == 20_035
        assert calls["gradient"] == a + 2 + 3 * (a + 1)
        assert (traj.cycle_start, traj.cycle_period) == (r, 1)

    @pytest.mark.parametrize("n", [20_003, 20_004, 20_005, Q3_PAST_ARRIVAL])
    def test_shorter_run_is_head_of_longer_run(self, n, q3_past_arrival):
        flow, obj, x0, h = Q3_1D
        short = integrate_reference(flow, obj, x0, h, StopCriteria(max_iters=n))
        assert_same_rows(short, q3_past_arrival.head(n + 1))

    @pytest.mark.parametrize("case,frozen", [
        ("rgf_q3_1d", 21_000 - Q3_FROZEN_FROM),
        ("rgf_q4_2d_no_arrival", 1_542),
        ("sgf_q3_2d", 1_161),
    ])
    def test_stepping_every_row_gives_the_same_result(self, case, frozen):
        flow, obj, x0, h, n = FROZEN_CASES[case]
        plain = integrate_reference(flow, obj, x0, h, StopCriteria(max_iters=n))
        counted, calls = counting(obj)
        every_row = stepping_every_row(integrate_reference, flow, counted, x0, h,
                                       StopCriteria(max_iters=n))
        assert_same_rows(every_row, plain)
        assert calls["value"] == len(every_row) == n + 1
        assert same_bits(plain.x[n - frozen:], np.repeat(plain.x[n:], frozen + 1, axis=0))
        assert not same_bits(plain.x[n - frozen - 1], plain.x[n])
        assert (plain.cycle_start, plain.cycle_period) == (n - frozen, 1)
        assert every_row.cycle_start is every_row.cycle_period is None

    @pytest.mark.parametrize("case", [
        (FlowSpec("rgf", q=4.0, c=1.5), QUAD2, [0.6, -0.8], 1e-3),
        (FlowSpec("sgf", q=3.0), QUAD2, [0.6, -0.8], 1e-3),
        (FlowSpec("rgf"), make_quadratic(1.0, 3), [0.6, -0.8, 0.3], 1e-3),
        (FlowSpec("rgf", q=6.0), BANANA, [0.5, 1.5], 1e-2),
    ], ids=["rgf_q4", "sgf_q3", "rgf_inf_3d", "rgf_q6_banana"])
    def test_clamp_matches_norming_every_stage(self, case):
        # each case clamps stages to a positive cap in hundreds of its steps
        flow, obj, x0, h = case
        traj = integrate_reference(flow, obj, np.array(x0), h, StopCriteria(max_iters=3000))
        assert same_bits(traj.x, clamped_rk4(flow, obj, np.array(x0), h, 3000))

    def test_live_step_takes_five_norms(self, monkeypatch):
        # one for the record, one for the cap and one per later stage's
        # gradient, which the stage takes from one dot without norm2; the
        # clamp's scalar bound decides every stage here, so it takes none
        calls = [0]

        def counted(v):
            calls[0] += 1
            return norm2(v)

        monkeypatch.setattr(integrators, "norm2", counted)
        monkeypatch.setattr(flows, "norm2", counted)
        flow, obj, x0, h = Q3_1D
        traj = integrate_reference(flow, obj, x0, h, StopCriteria(max_iters=1000))
        assert traj.cycle_period is None
        # rows 0..1000 are recorded; the first step has no cap
        assert calls[0] == 1001 + 999

    def test_stage_norm_survives_an_overflowing_square(self):
        # ||g||^2 = 1e400 overflows; the stages' norms must rescale as norm2
        # does, for about the unit-speed velocity of a slope of 1
        huge, unit = (integrate_reference(FlowSpec("rgf"), linear_objective(slope),
                                          np.array([0.0]), 0.5, StopCriteria(max_iters=4))
                      for slope in (1e200, 1.0))
        assert huge.terminal_reason == "max_iters"
        assert np.allclose(huge.x, unit.x, rtol=1e-12, atol=0.0)


# (cfg, objective, x0, max_iters, cycle_start, cycle_period) of runs whose
# step state repeats to the bit; the banana cases are preset optimizers that
# stall there, and the last two were found by a search for periods above 2
CYCLES = {
    "euler_rgf_q6": (DiscretizerConfig(scheme="euler", eta=1e-2, flow=FlowSpec("rgf", q=6.0)),
                     BANANA, [0.5, 1.5], 2000, 354, 2),
    "rk_rgf_q6": (DiscretizerConfig(scheme="rk", eta=1e-2, stages=2, alphas=(0.5, 0.5),
                                    betas=(0.09,), flow=FlowSpec("rgf", q=6.0)),
                  BANANA, [0.5, 1.5], 2000, 337, 2),
    "nesterov_sgf_q10": (DiscretizerConfig(scheme="nesterov", eta=1e-2, beta=0.09,
                                           flow=FlowSpec("sgf", q=10.0)),
                         BANANA, [0.5, 1.5], 2000, 165, 2),
    # the last bits of x at the minimum flip back and forth
    "gd": (DiscretizerConfig(scheme="gd", eta=0.5), BANANA, [0.5, 1.5], 2000, 306, 2),
    "nagd": (DiscretizerConfig(scheme="nagd", eta=0.5, beta=0.09), BANANA, [0.5, 1.5],
             2000, 299, 2),
    # eta = 0: every state is the first one
    "gd_eta0": (DiscretizerConfig(scheme="gd", eta=0.0), QUAD2, [0.6, -0.8], 100, 0, 1),
    "nesterov_sgf_q3_p12": (DiscretizerConfig(scheme="nesterov", eta=0.1, beta=0.5,
                                              flow=FlowSpec("sgf", q=3.0)),
                            QUAD2, [0.5, 0.6], 2000, 75, 12),
    "nagd_p28": (DiscretizerConfig(scheme="nagd", eta=0.5, beta=0.5), BANANA, [0.5, 1.5],
                 2000, 119, 28),
}


class TestCycleFill:
    """Once a run's step state repeats, its remaining rows are periodic
    copies of rows it recorded, the same as stepping every row."""

    @pytest.mark.parametrize("case", CYCLES)
    def test_fill_equals_stepping_every_row(self, case):
        cfg, obj, x0, n, start, period = CYCLES[case]
        counted, calls = counting(obj)
        plain = run(cfg, counted, np.array(x0), StopCriteria(max_iters=n))
        every_row = stepping_every_row(run, cfg, obj, np.array(x0), StopCriteria(max_iters=n))
        assert_same_rows(plain, every_row)
        assert plain.terminal_reason == "max_iters" and len(plain) == n + 1
        assert (plain.cycle_start, plain.cycle_period) == (start, period)
        assert every_row.cycle_start is every_row.cycle_period is None
        x = plain.x
        assert same_bits(x[start + period:], x[start:n + 1 - period])
        assert start == 0 or not same_bits(x[start - 1], x[start - 1 + period])
        # the smallest period: no shorter shift maps the cycle onto itself
        assert all(not same_bits(x[start + p:], x[start:n + 1 - p]) for p in range(1, period))
        # stepping stops within one anchor interval of the cycle's second
        # lap (the look-ahead state trails x by a row); no row after costs a
        # call, and every filled row keeps the last measured wall time
        stepped = calls["value"]
        assert start + period < stepped <= start + 1 + _ANCHOR_EVERY + period
        per_step = 1 if cfg.scheme in ("nesterov", "nagd") else cfg.stages - 1
        assert calls["gradient"] == stepped + per_step * (stepped - 1)
        assert np.all(plain.wall_s[stepped:] == plain.wall_s[stepped - 1])
        assert np.all(np.diff(plain.wall_s) >= 0)

    def test_revisit_after_another_row_is_stepped(self):
        # nagd on a gradient table visits x = 0, 1, -1, 1, 2, 2.5, 2.75, ...:
        # row 3 has the x and gradient norm of the anchor, row 1, but the
        # row before it differs, and so does the momentum
        table = {0.0: -1.0, 1.5: 2.5, -2.0: -3.0}
        obj = Objective(dimension=1, value=lambda x: 0.0,
                        gradient=lambda x: np.array([table.get(float(x[0]), 0.0)]))
        cfg = DiscretizerConfig(scheme="nagd", eta=1.0, beta=0.5)
        plain = run(cfg, obj, np.zeros(1), StopCriteria(max_iters=20))
        every_row = stepping_every_row(run, cfg, obj, np.zeros(1), StopCriteria(max_iters=20))
        assert list(plain.x[:7, 0]) == [0.0, 1.0, -1.0, 1.0, 2.0, 2.5, 2.75]
        assert plain.grad_norm2[3] == plain.grad_norm2[1]
        assert_same_rows(plain, every_row)
        assert plain.cycle_start is plain.cycle_period is None

    @pytest.mark.parametrize("n", [299, 300, 301, 302, 400])
    def test_shorter_run_is_head_of_longer_run(self, n):
        cfg, obj, x0, long_n, start, period = CYCLES["nagd"]
        long = run(cfg, obj, np.array(x0), StopCriteria(max_iters=long_n))
        short = run(cfg, obj, np.array(x0), StopCriteria(max_iters=n))
        assert_same_rows(short, long.head(n + 1))
        assert (long.head(n + 1).cycle_period is not None) == (n + 1 > start + period)

    @pytest.mark.parametrize("cfg,batch", [
        (DiscretizerConfig(scheme="adam", eta=0.0), None),
        (DiscretizerConfig(scheme="nagd", eta=0.0, beta=0.5),
         BatchContext(rng_seed=17, batch_size=8, dataset_size=32)),
    ], ids=["adam", "mini_batch"])
    def test_steps_that_read_the_step_index_are_not_filled(self, cfg, batch):
        # with eta = 0 x never moves, yet Adam's bias correction and the
        # mini-batch draw depend on k, so every row is stepped
        obj, calls = counting(make_mlp([2, 4, 1], 32, noise_std=0.1, seed=3))
        traj = run(cfg, obj, np.zeros(obj.dimension), StopCriteria(max_iters=100), batch=batch)
        assert len(traj) == 101 and calls["value"] == len(traj)
        assert np.all(traj.x == 0.0)
        assert traj.cycle_start is traj.cycle_period is None


class TestRescaledEulerLimitCycle:
    """Forward Euler on rgf for f = mu/2 x^2 overshoots near 0 and settles
    into the 2-cycle x -> -x, where 2r = eta c (mu r)^(1/(q-1)), so
    r = (eta c mu^(1/(q-1)) / 2)^((q-1)/(q-2))."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(q=st.floats(min_value=2.2, max_value=12.0, exclude_min=True),
           mu=st.floats(min_value=1.0, max_value=4.0),
           c=st.floats(min_value=1.0, max_value=2.0),
           eta=st.floats(min_value=1e-3, max_value=1e-1),
           x0=st.floats(min_value=0.25, max_value=1.0),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_cycle_radius_matches_closed_form(self, q, mu, c, eta, x0, sign):
        r = (eta * c * mu ** (1.0 / (q - 1.0)) / 2.0) ** ((q - 1.0) / (q - 2.0))
        e = (q - 2.0) / (q - 1.0)
        arrival = x0 ** e / (e * c * mu ** (1.0 - e))  # of the flow
        flow = FlowSpec("rgf", q=q, c=c)
        traj = run(DiscretizerConfig(scheme="euler", eta=eta, flow=flow),
                   make_quadratic(mu, 1), np.array([sign * x0]),
                   StopCriteria(max_iters=int(arrival / eta) + 1000))
        assert traj.cycle_period is not None
        cycle = traj.x[traj.cycle_start:traj.cycle_start + traj.cycle_period, 0]
        if mu * r >= 1e-10:
            assert traj.cycle_period == 2
            assert np.abs(cycle) == pytest.approx(r, rel=1e-12)
        elif mu * r < GRAD_CUTOFF:
            # the whole cycle lies where the velocity is cut to zero
            assert traj.cycle_period == 1
            assert traj.grad_norm2[-1] <= GRAD_CUTOFF

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(mu=st.floats(min_value=0.5, max_value=4.0),
           c=st.floats(min_value=0.5, max_value=2.0),
           eta=st.floats(min_value=1e-3, max_value=1e-1),
           x0=st.floats(min_value=-2.0, max_value=2.0).filter(lambda v: abs(v) >= 0.25))
    def test_normalized_flow_cycle_points_are_one_step_apart(self, mu, c, eta, x0):
        # at q = inf each step moves eta * c toward 0, so the cycle's two
        # points straddle 0 one step apart; where they sit depends on x0
        flow = FlowSpec("rgf", q=math.inf, c=c)
        traj = run(DiscretizerConfig(scheme="euler", eta=eta, flow=flow),
                   make_quadratic(mu, 1), np.array([x0]),
                   StopCriteria(max_iters=int(abs(x0) / (eta * c)) + 200))
        if traj.cycle_period == 1:
            # landed where the velocity is cut to zero
            assert traj.grad_norm2[-1] <= GRAD_CUTOFF
        else:
            assert traj.cycle_period == 2
            a, b = traj.x[traj.cycle_start:traj.cycle_start + 2, 0]
            assert a * b < 0 and abs(a - b) == pytest.approx(eta * c, rel=1e-12)

    def test_asymmetric_start_gives_asymmetric_cycle(self):
        traj = run(DiscretizerConfig(scheme="euler", eta=0.03, flow=FlowSpec("rgf")),
                   make_quadratic(1.0, 1), np.array([1.0]), StopCriteria(max_iters=100))
        assert traj.cycle_period == 2
        cycle = traj.x[traj.cycle_start:traj.cycle_start + 2, 0]
        assert sorted(cycle) == pytest.approx([-0.02, 0.01], rel=1e-12)


def plain_rk4(flow, obj, x0, h, n):
    """n classical RK4 steps without the speed clamp, with the reference
    integrator's order of operations."""
    def velocity(z):
        return flow_eval(flow, obj.gradient(z))

    xs = [x0]
    for _ in range(n):
        x = xs[-1]
        v1 = velocity(x)
        v2 = velocity(x + v1 * 0.5 * h)
        v3 = velocity(x + v2 * 0.5 * h)
        v4 = velocity(x + v3 * h)
        xs.append(x + (v1 * (1 / 6) + v2 * (1 / 3) + v3 * (1 / 3) + v4 * (1 / 6)) * h)
    return np.array(xs)


def clamped_rk4(flow, obj, x0, h, n):
    """n steps of the reference integrator as first written: every stage
    velocity is normed and clamped to 1e3 times the last step's rate."""
    x, prev, xs = x0, None, [x0]

    def velocity(z, cap):
        v = flow_eval(flow, obj.gradient(z))
        speed = norm2(v)
        if cap is not None and speed > cap:
            v = v * (cap / speed) if cap > 0 else np.zeros_like(v)
        return v

    for _ in range(n):
        cap = None if prev is None else norm2(x - prev) / h * 1e3
        v1 = velocity(x, cap)
        v2 = velocity(x + v1 * 0.5 * h, cap)
        v3 = velocity(x + v2 * 0.5 * h, cap)
        v4 = velocity(x + v3 * h, cap)
        prev, x = x, x + (v1 * (1 / 6) + v2 * (1 / 3) + v3 * (1 / 3) + v4 * (1 / 6)) * h
        xs.append(x)
    return np.array(xs)


class TestRadialRescaledFlowClosedForm:
    """On f = mu/2 ||x||^2 the rgf flow moves x radially with
    d/dt r^e = -e c mu^(1-e), e = (q-2)/(q-1), so r^e falls linearly and
    the flow arrives at T = r0^e / (e c mu^(1-e)) for q > 2."""

    STEPS = 200  # reference steps per settling time T
    TOLERANCE_STEPS = 4  # the tolerance is the gradient norm reached at T - 4 T/STEPS

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(q=st.floats(min_value=2.2, max_value=12.0, exclude_min=True),
           c=st.floats(min_value=0.5, max_value=2.0),
           mu=st.floats(min_value=0.5, max_value=2.0),
           d=st.integers(min_value=1, max_value=4),
           r0=st.floats(min_value=0.25, max_value=2.0),
           direction_seed=st.integers(min_value=0, max_value=2**16))
    def test_arrival_time_and_clamp(self, q, c, mu, d, r0, direction_seed):
        e = (q - 2.0) / (q - 1.0)
        rate = e * c * mu ** (1.0 - e)
        T = (q - 1.0) * r0 ** e / (c * (q - 2.0) * mu ** (1.0 / (q - 1.0)))
        assert T == pytest.approx(r0 ** e / rate, rel=1e-12)
        direction = np.random.default_rng(direction_seed).standard_normal(d)
        x0 = r0 * direction / np.linalg.norm(direction)
        flow, obj = FlowSpec("rgf", q=q, c=c), make_quadratic(mu, d)
        # a fixed-step reference cannot resolve the last step before T, where
        # the speed is not Lipschitz, so arrival is taken a few steps earlier
        t_left = self.TOLERANCE_STEPS * T / self.STEPS
        t_tol = T - t_left
        grad_tol = mu * (rate * t_left) ** (1.0 / e)

        errors = []
        for h in (T / self.STEPS, T / (2 * self.STEPS)):
            traj = integrate_reference(
                flow, obj, x0, h,
                StopCriteria(max_iters=int(1.5 * T / h), grad_tol=grad_tol))
            assert traj.terminal_reason == "grad_tol"
            errors.append(abs(traj.t[-1] - t_tol))
            assert errors[-1] <= 2 * h
            if len(errors) == 1:
                # bit-identical to RK4 without the clamp up to arrival
                assert np.array_equal(traj.x, plain_rk4(flow, obj, x0, h, len(traj) - 1))
        assert errors[1] <= errors[0]


def decay_runs(eta):
    """x(1) of each tableau on x' = -x (gf on mu/2 x^2 with mu = 1) from
    x(0) = 1, with step eta: Euler, the presets' 2-stage rk, Heun and the
    reference's RK4."""
    obj, gf, x0 = make_quadratic(1.0, 1), FlowSpec("gf"), np.array([1.0])
    stop = StopCriteria(max_iters=round(1.0 / eta))

    def two_stage(offset):
        return DiscretizerConfig(scheme="rk", eta=eta, flow=gf, stages=2,
                                 alphas=(0.5, 0.5), betas=(offset,))

    trajs = {"euler": run(DiscretizerConfig(scheme="euler", eta=eta, flow=gf), obj, x0, stop),
             "rk_preset": run(two_stage(0.09), obj, x0, stop),
             "heun": run(two_stage(1.0), obj, x0, stop),
             "rk4": integrate_reference(gf, obj, x0, eta, stop)}
    assert all(traj.t[-1] == 1.0 for traj in trajs.values())
    return {name: traj.x[-1, 0] for name, traj in trajs.items()}


class TestTableauOrder:
    """On x' = -x to t = 1 each tableau's error falls as eta^order: a
    2-stage member of the paper's family is second order only when
    alphas[1] * betas[0] = 1/2, which Heun meets and the presets' rk
    (0.5 * 0.09) does not."""

    ORDERS = {"euler": 1, "rk_preset": 1, "heun": 2, "rk4": 4}
    ERRORS_AT_1E_2 = {"euler": 1.85e-3, "rk_preset": 1.68e-3, "heun": 6.18e-6}

    def test_observed_orders(self):
        errors = [{name: abs(x - math.exp(-1.0)) for name, x in decay_runs(eta).items()}
                  for eta in (1e-2, 5e-3, 2.5e-3, 1.25e-3)]
        for name, order in self.ORDERS.items():
            observed = [math.log2(coarse[name] / fine[name])
                        for coarse, fine in zip(errors, errors[1:])]
            # RK4's finest error, 7.7e-15, is within reach of rounding
            assert observed == pytest.approx([order] * 3, abs=0.05 if order < 4 else 0.1), name
        for name, error in self.ERRORS_AT_1E_2.items():
            assert float(f"{errors[0][name]:.2e}") == error, name


class TestConfigValidation:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            DiscretizerConfig(scheme="sgd", eta=0.1)

    def test_flow_required_for_flow_schemes(self):
        with pytest.raises(ValueError):
            DiscretizerConfig(scheme="euler", eta=0.1)

    def test_flow_forbidden_for_baselines(self):
        with pytest.raises(ValueError):
            DiscretizerConfig(scheme="gd", eta=0.1, flow=FlowSpec("gf"))

    def test_momentum_range(self):
        with pytest.raises(ValueError):
            DiscretizerConfig(scheme="nagd", eta=0.1, beta=1.0)

    def test_stop_criteria_validation(self):
        with pytest.raises(ValueError):
            StopCriteria(max_iters=-1)
        with pytest.raises(ValueError):
            StopCriteria(max_iters=10, grad_tol=-1.0)
        with pytest.raises(TypeError, match="wall_limit"):
            StopCriteria(max_iters=10, wall_limit=1.0)

    def test_nonfinite_stepper_result_raises(self):
        bad = Objective(dimension=1, value=lambda x: float(x[0]),
                        gradient=lambda x: np.array([math.nan]))
        with pytest.raises(NumericalFailure):
            one_step(DiscretizerConfig(scheme="gd", eta=0.1), bad,
                    init_state(np.array([1.0])))


def closed_rows_counted(obj, metadata="same"):
    """A hand-built copy of a maker's objective that passes on its closed
    forms, with every objective call counted."""
    calls = dict.fromkeys(("value", "gradient", "value_and_grad", "value_and_grad_rows"), 0)

    def counted(name, fn):
        def call(x):
            calls[name] += 1
            return fn(x)
        return call

    copy = Objective(dimension=obj.dimension, value=counted("value", obj.value),
                     gradient=counted("gradient", obj.gradient),
                     metadata=obj.metadata if metadata == "same" else metadata,
                     fused=counted("value_and_grad", obj.value_and_grad),
                     fused_rows=counted("value_and_grad_rows", obj.value_and_grad_rows))
    assert copy.closed_rows
    return copy, calls


# runs whose objective has a closed batched form and whose stop rules do not
# read the cost: (run on an objective, objective, x0, stop)
def _scheme(cfg):
    return lambda obj, x0, stop: run(cfg, obj, x0, stop)


def _reference(flow, h):
    return lambda obj, x0, stop: integrate_reference(flow, obj, x0, h, stop)


DEFERRED_RUNS = {
    "gd": (_scheme(DiscretizerConfig(scheme="gd", eta=0.1)), make_quadratic(1.0, 3),
           [0.6, -0.8, 0.3], StopCriteria(max_iters=300)),
    "euler_rgf_cycle": (_scheme(DiscretizerConfig(scheme="euler", eta=1e-2,
                                                  flow=FlowSpec("rgf", q=3.0))),
                        QUAD2, [0.6, -0.8], StopCriteria(max_iters=2000)),
    "rk_pth_power": (_scheme(DiscretizerConfig(scheme="rk", eta=1e-2, alphas=(0.5, 0.5),
                                               betas=(0.09,), flow=FlowSpec("rgf", q=6.0))),
                     make_pth_power(4.0, 5), [0.5, -0.4, 0.3, 0.2, -0.1],
                     StopCriteria(max_iters=1500)),
    "nesterov_sgf": (_scheme(DiscretizerConfig(scheme="nesterov", eta=1e-3, beta=0.9,
                                               flow=FlowSpec("sgf", q=3.0))),
                     make_pth_power(1.5, 2), [0.7, -0.2], StopCriteria(max_iters=1200)),
    "adam": (_scheme(DiscretizerConfig(scheme="adam", eta=1e-2)), QUAD2, [0.6, -0.8],
             StopCriteria(max_iters=500)),
    "grad_tol": (_scheme(DiscretizerConfig(scheme="gd", eta=0.1)), QUAD2, [0.6, -0.8],
                 StopCriteria(max_iters=1000, grad_tol=1e-3)),
    "every_row": (lambda obj, x0, stop: stepping_every_row(
                      run, DiscretizerConfig(scheme="euler", eta=1e-2, flow=FlowSpec("rgf", q=3.0)),
                      obj, x0, stop),
                  QUAD2, [0.6, -0.8], StopCriteria(max_iters=1500)),
    "reference_freeze": (_reference(FlowSpec("rgf", q=3.0), 1e-4), make_quadratic(1.0, 1),
                         [1.0], StopCriteria(max_iters=21_000)),
    "reference_sgf": (_reference(FlowSpec("sgf", q=3.0), 1e-3), QUAD2, [0.6, -0.8],
                      StopCriteria(max_iters=3000)),
}

# gd with eta = 3 on the unit quadratic doubles |x| every step, so the
# cost x.x overflows about 510 rows before the gradient x does, and with it
# the squared norm x.x of that gradient
DIVERGING = (DiscretizerConfig(scheme="gd", eta=3.0), QUAD2, np.array([1.0, 0.5]))
# a unit-speed step of 1e206 on |x|^1.5 / 1.5 lands on x = -1e206, whose
# cost overflows while its gradient's squared norm, 1e206, does not; the
# next step returns to 0 and stays there
LEAP = (DiscretizerConfig(scheme="euler", eta=1e206, flow=FlowSpec("rgf")),
        make_pth_power(1.5, 2), np.array([1.0, 0.0]))


class TestCostsAfterTheLoop:
    """Where no stop rule reads the cost and the objective has a closed
    batched form, each row calls ``gradient`` alone and the costs and l1
    norms come from ``value_and_grad_rows`` after the loop; the run is the
    one that calls ``value_and_grad`` per row, to the bit."""

    @staticmethod
    def assert_same_run(a, b):
        assert_same_rows(a, b)
        assert (a.cycle_start, a.cycle_period) == (b.cycle_start, b.cycle_period)

    @pytest.mark.parametrize("elements", [None, 6])
    @pytest.mark.parametrize("case", DEFERRED_RUNS.values(), ids=list(DEFERRED_RUNS))
    def test_same_run_as_one_value_and_grad_per_row(self, monkeypatch, case, elements):
        # a replace of the objective has no closed batched form; 6 elements
        # make blocks of one to six rows
        if elements is not None:
            monkeypatch.setattr(integrators, "_ROWS_CALL_ELEMENTS", elements)
        go, obj, x0, stop = case
        assert obj.closed_rows and not replace(obj).closed_rows
        self.assert_same_run(go(obj, np.array(x0), stop), go(replace(obj), np.array(x0), stop))

    @pytest.mark.parametrize("elements", [None, 6])
    def test_nonfinite_cost_with_finite_gradient_ends_on_its_row(self, monkeypatch, elements):
        if elements is not None:
            monkeypatch.setattr(integrators, "_ROWS_CALL_ELEMENTS", elements)
        cfg, obj, x0 = DIVERGING
        stop = StopCriteria(max_iters=2000)
        with np.errstate(over="ignore"):
            closed, per_row = run(cfg, obj, x0, stop), run(cfg, replace(obj), x0, stop)
        self.assert_same_run(closed, per_row)
        assert closed.terminal_reason == "numerical_failure"
        # the last row's cost overflowed, its gradient did not
        assert closed.f[-1] == math.inf and all(np.isfinite(closed.f[:-1]))
        assert math.isfinite(closed.grad_norm2[-1]) and 500 < len(closed) < 1000

    def test_nonfinite_cost_cuts_the_run_before_its_cycle_fill(self):
        # eta = 0 repeats x0 from row 0, whose cost overflows
        cfg, obj = DiscretizerConfig(scheme="gd", eta=0.0), QUAD2
        x0, stop = np.array([1e155, 1.0]), StopCriteria(max_iters=100)
        with np.errstate(over="ignore"):
            closed, per_row = run(cfg, obj, x0, stop), run(cfg, replace(obj), x0, stop)
        self.assert_same_run(closed, per_row)
        assert len(closed) == 1 and closed.terminal_reason == "numerical_failure"
        assert closed.cycle_period is None

    def test_cost_that_fails_on_a_later_cycling_run(self):
        cfg, obj, x0 = LEAP
        counted, calls = closed_rows_counted(obj)
        stop = StopCriteria(max_iters=100)
        with np.errstate(over="ignore"):
            closed, per_row = run(cfg, counted, x0, stop), run(cfg, replace(obj), x0, stop)
        # the loop stepped on to the cycle at 0, and one batched call found row 1
        assert calls["gradient"] > 2 and calls["value_and_grad_rows"] == 1
        self.assert_same_run(closed, per_row)
        assert len(closed) == 2 and closed.terminal_reason == "numerical_failure"
        assert closed.x[-1].tolist() == [-1e206, 0.0] and closed.f[-1] == math.inf

    @pytest.mark.parametrize("elements", [None, 2])
    def test_raising_cost_keeps_the_rows_before_it(self, monkeypatch, elements):
        # gd moves x by +1 per row up to a pole at x = 3, where the cost
        # raises; the batched form raises when any of its rows does
        if elements is not None:
            monkeypatch.setattr(integrators, "_ROWS_CALL_ELEMENTS", elements)

        def cost(x):
            if x[0] >= 3.0:
                raise ZeroDivisionError("the cost has a pole at 3")
            return float(x[0])

        pole = Objective(dimension=1, value=cost, gradient=lambda x: np.array([-1.0]),
                         fused_rows=lambda xs: (np.array([cost(x) for x in xs]),
                                                np.full(xs.shape, -1.0)))
        cfg, stop = DiscretizerConfig(scheme="gd", eta=1.0), StopCriteria(max_iters=10)
        closed, per_row = run(cfg, pole, np.zeros(1), stop), run(cfg, replace(pole),
                                                                 np.zeros(1), stop)
        self.assert_same_run(closed, per_row)
        assert closed.x[:, 0].tolist() == [0.0, 1.0, 2.0]
        assert closed.terminal_reason == "numerical_failure"

    @pytest.mark.parametrize("case", ["diverging", "x0"])
    def test_overflow_raise_keeps_the_same_rows(self, case):
        # from x0, the cost's square raises and the gradient's, with mu =
        # 1e-10, does not; the loop's iterate check then raises too
        cfg, obj, x0 = DIVERGING if case == "diverging" else (
            DiscretizerConfig(scheme="gd", eta=0.1), make_quadratic(1e-10, 2),
            np.array([1e155, 1.0]))
        stop = StopCriteria(max_iters=2000)
        with np.errstate(over="raise"):
            closed, per_row = run(cfg, obj, x0, stop), run(cfg, replace(obj), x0, stop)
        self.assert_same_run(closed, per_row)
        assert closed.terminal_reason == "numerical_failure" and all(np.isfinite(closed.f))
        assert 500 < len(closed) < 1000 if case == "diverging" else len(closed) == 0

    @pytest.mark.parametrize("f_tol,metadata,per_row", [
        (1e-300, "same", True), (0.0, "same", False), (1e-300, None, False)])
    def test_row_calls(self, f_tol, metadata, per_row):
        obj, calls = closed_rows_counted(QUAD2, metadata)
        traj = run(DiscretizerConfig(scheme="gd", eta=0.1), obj, np.array([0.6, -0.8]),
                   StopCriteria(max_iters=40, f_tol=f_tol))
        assert len(traj) == 41 and traj.terminal_reason == "max_iters"
        assert calls == ({"value": 0, "gradient": 0, "value_and_grad": 41,
                          "value_and_grad_rows": 0} if per_row else
                         {"value": 0, "gradient": 41, "value_and_grad": 0,
                          "value_and_grad_rows": 1})
        plain = run(DiscretizerConfig(scheme="gd", eta=0.1), replace(QUAD2),
                    np.array([0.6, -0.8]), StopCriteria(max_iters=40))
        self.assert_same_run(traj, plain)


# the three closed-form makers with their minimizers; a start offset of
# 1e-14 or 1e-11 from the minimizer puts the gradient norm at or below the
# rescaled flows' default cutoff 1e-12 on every maker, and 1e-6 does so on
# the fourth power
IDENTITY_MAKERS = [(make_quadratic(1.0, 2), (0.0, 0.0)),
                   (make_rosenbrock(1.0, 0.2), (1.0, 1.0)),
                   (make_pth_power(4.0, 3), (0.0, 0.0, 0.0))]
IDENTITY_FLOWS = [FlowSpec("gf"), FlowSpec("rgf", q=3.0), FlowSpec("sgf", q=3.0)]


def identity_pairs(eta, beta, flow):
    """The paper's five scheme reductions as (scheme, the scheme it reduces to)."""
    cfg, gf = DiscretizerConfig, FlowSpec("gf")
    return {"gd, euler on gf": (cfg(scheme="gd", eta=eta),
                                cfg(scheme="euler", eta=eta, flow=gf)),
            "nagd, nesterov on gf": (cfg(scheme="nagd", eta=eta, beta=beta),
                                     cfg(scheme="nesterov", eta=eta, beta=beta, flow=gf)),
            "one-stage rk, euler": (cfg(scheme="rk", eta=eta, flow=flow, alphas=(1.0,)),
                                    cfg(scheme="euler", eta=eta, flow=flow)),
            "nesterov with beta 0, euler": (cfg(scheme="nesterov", eta=eta, flow=flow),
                                            cfg(scheme="euler", eta=eta, flow=flow)),
            "nagd with beta 0, gd": (cfg(scheme="nagd", eta=eta), cfg(scheme="gd", eta=eta))}


class TestReductionIdentities:
    """Each reduction identity holds to the bit over a whole run: x, f, both
    gradient norms, the terminal reason and the cycle fields, from starts
    both inside and outside the rescaled flows' cutoff."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(maker=st.sampled_from(IDENTITY_MAKERS),
           scale=st.sampled_from([1e-14, 1e-11, 1e-6, 0.5]),
           eta=st.sampled_from([1e-3, 0.1]), beta=st.sampled_from([0.0, 0.5, 0.9]),
           flow=st.sampled_from(IDENTITY_FLOWS),
           pair=st.sampled_from(sorted(identity_pairs(0.1, 0.0, FlowSpec("gf")))),
           seed=st.integers(min_value=0, max_value=2 ** 16))
    def test_whole_runs_are_equal_to_the_bit(self, maker, scale, eta, beta, flow, pair, seed):
        obj, x_star = maker
        offset = np.random.default_rng(seed).uniform(-1.0, 1.0, obj.dimension)
        x0 = np.array(x_star) + scale * offset
        a, b = (run(cfg, obj, x0, StopCriteria(max_iters=300))
                for cfg in identity_pairs(eta, beta, flow)[pair])
        assert_same_rows(a, b)
        assert (a.cycle_start, a.cycle_period) == (b.cycle_start, b.cycle_period)


def downhill(closed):
    """Cost 0 and gradient -1 at every x in 1-D, so every flow here moves x
    by the step size times 1; ``closed`` adds a closed batched form."""
    return Objective(dimension=1, value=lambda x: 0.0, gradient=lambda x: np.array([-1.0]),
                     fused_rows=(lambda xs: (np.zeros(len(xs)), np.full(xs.shape, -1.0)))
                     if closed else None)


# one run per former home of the iterate check, each stepping by about 1e308
# from x = 0, so that its second step overflows: the Runge-Kutta step
# (euler, rk, gd), the look-ahead step (nesterov, nagd), Adam, whose first
# steps move by about eta, and the reference's RK4
OVERFLOWING_STEPS = {
    "euler": DiscretizerConfig(scheme="euler", eta=1e308, flow=FlowSpec("sgf")),
    "rk": DiscretizerConfig(scheme="rk", eta=1e308, alphas=(0.5, 0.5), betas=(1.0,),
                            flow=FlowSpec("rgf")),
    "gd": DiscretizerConfig(scheme="gd", eta=1e308),
    "nesterov": DiscretizerConfig(scheme="nesterov", eta=1e308, beta=0.5,
                                  flow=FlowSpec("rgf")),
    "nagd": DiscretizerConfig(scheme="nagd", eta=1e308, beta=0.5),
    "adam": DiscretizerConfig(scheme="adam", eta=1e308),
}
OVERFLOWING_RUNS = {**{name: _scheme(cfg) for name, cfg in OVERFLOWING_STEPS.items()},
                    "reference": _reference(FlowSpec("rgf"), 1e308)}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
class TestIterateCheck:
    """A step returns its iterate unchecked. The run loop checks each new
    iterate once and ends the run as numerical_failure at the first one that
    is not finite, keeping exactly the rows before it, on the per-row path
    and where the costs come after the loop."""

    @pytest.mark.parametrize("closed", [False, True], ids=["per_row", "closed_rows"])
    @pytest.mark.parametrize("name", list(OVERFLOWING_RUNS))
    def test_nonfinite_iterate_ends_the_run_before_its_row(self, name, closed):
        obj = downhill(closed)
        assert obj.closed_rows == closed
        traj = OVERFLOWING_RUNS[name](obj, np.zeros(1), StopCriteria(max_iters=10))
        assert traj.terminal_reason == "numerical_failure" and len(traj) == 2
        assert traj.x[0, 0] == 0.0 and 0.99e308 < traj.x[1, 0] < math.inf
        assert traj.f.tolist() == [0.0, 0.0]
        assert traj.grad_norm2.tolist() == traj.grad_norm1.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("name", list(OVERFLOWING_STEPS))
    def test_a_step_returns_the_nonfinite_iterate(self, name):
        cfg = OVERFLOWING_STEPS[name]
        step, state = make_step(cfg), init_state(np.zeros(1))
        for _ in range(2):
            state = step(cfg, downhill(False), state)
        assert state.x.tolist() == [math.inf] and state.k == 2

    @pytest.mark.parametrize("flow", [FlowSpec("gf"), FlowSpec("rgf"), FlowSpec("sgf")],
                             ids=lambda f: f.kind)
    def test_the_field_still_raises_on_a_nonfinite_gradient(self, flow):
        with pytest.raises(NumericalFailure, match=f"non-finite gradient passed to {flow.kind}"):
            flow_eval(flow, np.array([math.inf]))


def overflowing_l1(gradient=(1e308, 1e308), closed=False, fails_below=-math.inf):
    """Cost 1.0 and a constant finite gradient whose l1 sum overflows while
    its Euclidean norm does not; the cost raises FloatingPointError where
    x[0] < ``fails_below``. ``closed`` adds a closed batched form."""
    g = np.array(gradient)

    def fused(x):
        if x[0] < fails_below:
            raise FloatingPointError("the cost fails below the line")
        return 1.0, g.copy()

    def fused_rows(xs):
        return np.array([fused(x)[0] for x in xs]), np.tile(g, (len(xs), 1))

    return Objective(dimension=len(g), value=lambda x: fused(x)[0],
                     gradient=lambda x: g.copy(), fused=fused,
                     fused_rows=fused_rows if closed else None)


def with_warnings_ignored(go, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return go(*args)


# (scheme, why it ends) at eta = 1e-300, which moves gd by 1e8 per row:
# sgf's speed at q = 3 is not finite, and at q = inf it is the sign field
L1_RUNS = {
    "gd": (DiscretizerConfig(scheme="gd", eta=1e-300), "max_iters"),
    "euler_sgf_q3": (DiscretizerConfig(scheme="euler", eta=1e-300, flow=FlowSpec("sgf", q=3.0)),
                     "numerical_failure"),
    "euler_sgf": (DiscretizerConfig(scheme="euler", eta=1e-300, flow=FlowSpec("sgf")),
                  "max_iters"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowingL1:
    """A finite gradient whose l1 sum overflows is recorded with grad_norm1
    = inf. Under this suite's error::RuntimeWarning filter a run ends as it
    does with numpy's warnings ignored, row for row, on the per-row path and
    where the costs come after the loop."""

    @pytest.mark.parametrize("gradient", [(1e308, 1e308), (1e308, 0.0, 1e308)],
                             ids=["full", "zero"])
    @pytest.mark.parametrize("closed", [False, True], ids=["per_row", "closed_rows"])
    # 3 rows meet only the tail flush of the l1 norms, 71 a chunk flush first
    @pytest.mark.parametrize("max_iters", [2, 70])
    @pytest.mark.parametrize("name", list(L1_RUNS))
    def test_run_ends_as_with_warnings_ignored(self, name, max_iters, closed, gradient):
        (cfg, reason), obj = L1_RUNS[name], overflowing_l1(gradient, closed)
        x0, stop = np.ones(len(gradient)), StopCriteria(max_iters=max_iters)
        traj = run(cfg, obj, x0, stop)
        assert_same_rows(traj, with_warnings_ignored(run, cfg, obj, x0, stop))
        assert traj.terminal_reason == reason
        assert len(traj) == (1 if reason == "numerical_failure" else max_iters + 1)
        assert np.all(traj.grad_norm1 == math.inf)
        assert np.all(traj.grad_norm2 == norm2(np.array(gradient)))

    @pytest.mark.parametrize("elements", [None, 4])
    def test_one_row_retry_ends_as_with_warnings_ignored(self, monkeypatch, elements):
        # gd puts x[0] at 1 - 1e8 k; the cost fails from row 3 on, so the
        # batched call that holds row 3 raises and its rows are taken one
        # at a time; 4 elements make blocks of two rows, the first batched
        if elements is not None:
            monkeypatch.setattr(integrators, "_ROWS_CALL_ELEMENTS", elements)
        obj = overflowing_l1(closed=True, fails_below=-2.5e8)
        cfg, x0, stop = L1_RUNS["gd"][0], np.ones(2), StopCriteria(max_iters=70)
        traj = run(cfg, obj, x0, stop)
        assert_same_rows(traj, with_warnings_ignored(run, cfg, obj, x0, stop))
        assert_same_rows(traj, run(cfg, replace(obj), x0, stop))
        assert (traj.terminal_reason, len(traj)) == ("numerical_failure", 3)
        assert traj.grad_norm1.tolist() == [math.inf] * 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", [1.0, 1.5])
@pytest.mark.parametrize("integrator", ["run", "reference"])
def test_rescaled_speed_overflow_ends_after_one_row(integrator, c):
    # rgf at q = 1.5 moves at ||g||_2^2 * c, which overflows at the constant
    # gradient (1e200, 1e200) (its l1 sum stays finite): the field raises
    # NumericalFailure before any product, with numpy's warnings raised as
    # errors or ignored
    flow, obj, x0 = FlowSpec("rgf", q=1.5, c=c), overflowing_l1((1e200, 1e200)), np.ones(2)
    stop = StopCriteria(max_iters=5)
    if integrator == "run":
        go, args = run, (DiscretizerConfig(scheme="euler", eta=1e-300, flow=flow), obj, x0, stop)
    else:
        go, args = integrate_reference, (flow, obj, x0, 1e-300, stop)
    traj = go(*args)
    assert_same_rows(traj, with_warnings_ignored(go, *args))
    assert (traj.terminal_reason, len(traj)) == ("numerical_failure", 1)
