import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finiteflow import FlowSpec, flow_eval
from finiteflow.flows import _power, _velocity, norm2

finite_grads = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    min_size=1, max_size=6,
).map(np.array)

# q is kept away from 1 so the norm exponents stay within floating-point
# range; q barely above 1 sends ||g||^((q-2)/(q-1)) through hundreds of
# orders of magnitude, where velocities genuinely round to zero
flow_specs = st.one_of(
    st.just(FlowSpec("gf")),
    st.floats(min_value=1.5, max_value=50.0).map(lambda q: FlowSpec("rgf", q=q)),
    st.floats(min_value=1.5, max_value=50.0).map(lambda q: FlowSpec("sgf", q=q)),
    st.just(FlowSpec("rgf", q=math.inf)),
    st.just(FlowSpec("sgf", q=math.inf)),
)


class TestFlowEvalValues:
    def test_rescaled_hand_evaluated(self):
        # -g / ||g||^((q-2)/(q-1)) with ||g|| = 5 and exponent 1/2
        got = flow_eval(FlowSpec("rgf", q=3.0, c=1.0), np.array([3.0, 4.0]))
        assert np.allclose(got, -np.array([3.0, 4.0]) / math.sqrt(5.0), rtol=1e-12)
        assert got == pytest.approx([-1.341641, -1.788854], abs=1e-6)

    def test_signed_hand_evaluated(self):
        # -||g||_1^(1/2) * sign(g) with ||g||_1 = 7
        got = flow_eval(FlowSpec("sgf", q=3.0, c=1.0), np.array([3.0, -4.0]))
        assert np.allclose(got, math.sqrt(7.0) * np.array([-1.0, 1.0]), rtol=1e-12)
        assert got == pytest.approx([-2.645751, 2.645751], abs=1e-6)

    def test_rescaled_infinite_q_is_normalized(self):
        got = flow_eval(FlowSpec("rgf", q=math.inf, c=2.0), np.array([3.0, 4.0]))
        assert np.allclose(got, [-1.2, -1.6], rtol=0, atol=1e-15)

    def test_signed_infinite_q_is_pure_sign(self):
        got = flow_eval(FlowSpec("sgf", q=math.inf, c=0.5), np.array([3.0, -4.0, 0.0]))
        assert np.array_equal(got, [-0.5, 0.5, 0.0])

    @pytest.mark.parametrize("spec", [
        FlowSpec("gf"),
        FlowSpec("rgf", q=3.0),
        FlowSpec("sgf", q=2.5),
        FlowSpec("rgf", q=math.inf),
    ])
    def test_zero_gradient_gives_zero_velocity(self, spec):
        assert np.array_equal(flow_eval(spec, np.zeros(3)), np.zeros(3))

    def test_below_threshold_gives_zero_velocity(self):
        spec = FlowSpec("rgf", q=math.inf, grad_threshold=1e-12)
        assert np.array_equal(flow_eval(spec, np.full(2, 1e-13)), np.zeros(2))

    def test_gf_is_negative_gradient(self):
        g = np.array([0.5, -2.0])
        assert np.array_equal(flow_eval(FlowSpec("gf"), g), -g)


class TestFlowSpeed:
    def test_rescaled_speed_formula(self):
        # c * ||g||^(1/(q-1))
        speed = np.linalg.norm(flow_eval(FlowSpec("rgf", q=3.0), np.array([3.0, 4.0])))
        assert speed == pytest.approx(math.sqrt(5.0), rel=1e-12)
        assert speed == pytest.approx(2.2360680, abs=1e-6)

    def test_normalized_flow_has_unit_speed(self):
        spec = FlowSpec("rgf", q=math.inf, c=1.0)
        for g in ([1e-3, 0.0], [5.0, 1.0], [-100.0, 40.0]):
            speed = np.linalg.norm(flow_eval(spec, np.array(g)))
            assert speed == pytest.approx(1.0, rel=1e-12)

    def test_zero_gradient_zero_speed(self):
        assert np.linalg.norm(flow_eval(FlowSpec("sgf", q=3.0), np.zeros(4))) == 0.0


class TestFlowProperties:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(spec=flow_specs, grad=finite_grads)
    def test_descent_direction(self, spec, grad):
        if np.linalg.norm(grad) <= 1e-3:
            return
        v = flow_eval(spec, grad)
        assert float(v @ grad) < 0.0

    def test_rescaled_velocity_vanishes_approaching_stationarity(self):
        spec = FlowSpec("rgf", q=3.0)
        direction = np.array([0.6, 0.8])
        speeds = [np.linalg.norm(flow_eval(spec, (10.0 ** -k) * direction))
                  for k in range(1, 9)]
        assert all(a > b for a, b in zip(speeds, speeds[1:]))
        assert speeds[-1] <= 1e-4

    def test_large_q_matches_infinite_q(self):
        g = np.array([3.0, 4.0])
        big = flow_eval(FlowSpec("rgf", q=1e6), g)
        inf = flow_eval(FlowSpec("rgf", q=math.inf), g)
        assert np.all(np.abs(big - inf) <= 1e-4 * np.abs(inf))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(grad=finite_grads, q=st.floats(min_value=1.5, max_value=20.0))
    def test_scale_law_is_exact(self, grad, q):
        for kind in ("rgf", "sgf"):
            doubled = flow_eval(FlowSpec(kind, q=q, c=2.0), grad)
            single = flow_eval(FlowSpec(kind, q=q, c=1.0), grad)
            assert np.array_equal(doubled, 2.0 * single)

    def test_q2_rescaled_reduces_to_scaled_gf(self):
        g = np.array([0.3, -2.5, 1.0])
        got = flow_eval(FlowSpec("rgf", q=2.0, c=1.7), g)
        assert np.array_equal(got, 1.7 * flow_eval(FlowSpec("gf"), g))

    def test_extreme_norms_survive_log_space(self):
        tiny = flow_eval(FlowSpec("rgf", q=1.5), np.array([1e-150]))
        assert np.all(np.isfinite(tiny))
        huge = flow_eval(FlowSpec("rgf", q=3.0), np.array([1e130]))
        assert np.all(np.isfinite(huge))


# gradients of 1 to 8 components of magnitude 1e-12 to 1e12 or zero, half
# of them scaled by 1e+-95 to send the norm into _power's log-space range;
# half the specs have no cutoff, so those tiny norms reach the products
_component = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.tuples(st.sampled_from([1.0, -1.0]), st.floats(min_value=-12.0, max_value=12.0))
    .map(lambda se: se[0] * 10.0 ** se[1]),
)
wide_grads = st.tuples(st.lists(_component, min_size=1, max_size=8),
                       st.sampled_from([1.0, 1e95, 1e-95, 1.0])).map(
    lambda cs: np.array(cs[0]) * cs[1])
wide_specs = st.builds(
    FlowSpec,
    kind=st.sampled_from(["rgf", "sgf"]),
    q=st.one_of(st.floats(min_value=1.1, max_value=12.0, exclude_min=True), st.just(math.inf)),
    c=st.one_of(st.just(1.0), st.floats(min_value=-4.0, max_value=4.0).map(lambda e: 10.0 ** e)),
    grad_threshold=st.sampled_from([0.0, 1e-12, 0.0, 1e-3]),
)


def two_product_velocity(spec, g, n2):
    """The rescaled velocities as (g * s) * -c and (sign(g) * pw) * -c."""
    if n2 <= spec.grad_threshold:
        return np.zeros_like(g)
    if spec.kind == "rgf":
        return (g * _power(n2, -spec.rgf_exponent())) * -spec.c
    return (np.sign(g) * _power(float(np.abs(g).sum()), spec.sgf_exponent())) * -spec.c


class TestVelocityProducts:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(spec=wide_specs, g=wide_grads)
    def test_equals_two_product_formula_to_the_bit(self, spec, g):
        n2 = norm2(g)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                want = two_product_velocity(spec, g, n2)
            except OverflowError:
                # the scale itself overflows, before any product
                with pytest.raises(OverflowError):
                    _velocity(spec, g, n2)
                return
            got = _velocity(spec, g, n2)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["rgf", "sgf"])
    @pytest.mark.parametrize("g", [[1e-150, 0.0], [3e120, -4e120], [1e-13], [0.0, -0.0]])
    def test_log_space_and_below_threshold_paths(self, kind, g):
        g = np.array(g)
        for c in (1.0, 2.5e-3):
            spec = FlowSpec(kind, q=3.0, c=c, grad_threshold=0.0 if g[0] < 1e-100 else 1e-12)
            n2 = norm2(g)
            assert _velocity(spec, g, n2).tobytes() == two_product_velocity(spec, g, n2).tobytes()


class TestFlowErrors:
    def test_nonfinite_gradient_raises_naming_flow(self):
        with pytest.raises(ValueError, match="rgf"):
            flow_eval(FlowSpec("rgf", q=3.0), np.array([1.0, math.nan]))
        with pytest.raises(ValueError, match="sgf"):
            flow_eval(FlowSpec("sgf", q=3.0), np.array([math.inf, 0.0]))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FlowSpec("nope")
        with pytest.raises(ValueError):
            FlowSpec("rgf", q=1.0)
        with pytest.raises(ValueError):
            FlowSpec("rgf", q=3.0, c=0.0)
        with pytest.raises(ValueError):
            FlowSpec("gf", c=2.0)
        with pytest.raises(ValueError):
            FlowSpec("rgf", q=3.0, grad_threshold=-1.0)

    def test_infinite_q_exponents(self):
        spec = FlowSpec("rgf", q=math.inf)
        assert spec.rgf_exponent() == 1.0
        assert spec.sgf_exponent() == 0.0
