import copy
import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from finiteflow import FlowSpec, flow_eval
from finiteflow.flows import GRAD_CUTOFF, NumericalFailure, norm2

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
        spec = FlowSpec("rgf", q=math.inf)
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

    def test_extreme_norms_stay_finite(self):
        tiny = flow_eval(FlowSpec("rgf", q=1.5), np.array([1e-150]))
        assert np.all(np.isfinite(tiny))
        huge = flow_eval(FlowSpec("rgf", q=3.0), np.array([1e130]))
        assert np.all(np.isfinite(huge))


# gradients of 1 to 8 components of magnitude 1e-12 to 1e12 or zero, half
# of them scaled by 1e+-95 to send the norm far outside [1e-12, 1e12]
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
)


def two_product_velocity(spec, g, n2):
    """The rescaled velocities as (g * s) * -c and (sign(g) * pw) * -c, with
    s = ||g||_2 ** -e and pw = ||g||_1 ** e by plain ``**`` at every norm."""
    if n2 <= GRAD_CUTOFF:
        return np.zeros_like(g)
    if spec.kind == "rgf":
        s = n2 ** -spec.rgf_exponent()
        if not math.isfinite(n2 * s * spec.c):
            raise NumericalFailure(f"non-finite speed of rgf flow at gradient {g!r}")
        return (g * s) * -spec.c
    pw = float(np.abs(g).sum()) ** spec.sgf_exponent()
    if not math.isfinite(pw * spec.c):
        raise NumericalFailure(f"non-finite speed of sgf flow at gradient {g!r}")
    return (np.sign(g) * pw) * -spec.c


class TestVelocityProducts:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(spec=wide_specs, g=wide_grads)
    def test_equals_two_product_formula_to_the_bit(self, spec, g):
        n2 = norm2(g)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                want = two_product_velocity(spec, g, n2)
            except (NumericalFailure, OverflowError) as exc:
                # the scale itself overflows, before any product
                with pytest.raises(type(exc)):
                    spec._velocity_and_bound(g, n2)[0]
                return
            got = spec._velocity_and_bound(g, n2)[0]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["rgf", "sgf"])
    @pytest.mark.parametrize("g", [[1e-150, 0.0], [3e120, -4e120], [1e-13], [0.0, -0.0]])
    def test_extreme_and_below_threshold_paths(self, kind, g):
        g = np.array(g)
        for c in (1.0, 2.5e-3):
            spec = FlowSpec(kind, q=3.0, c=c)
            n2 = norm2(g)
            want = two_product_velocity(spec, g, n2)
            assert spec._velocity_and_bound(g, n2)[0].tobytes() == want.tobytes()


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
        with pytest.raises(TypeError, match="grad_threshold"):
            FlowSpec("rgf", q=3.0, grad_threshold=1e-12)

    def test_infinite_q_exponents(self):
        spec = FlowSpec("rgf", q=math.inf)
        assert spec.rgf_exponent() == 1.0
        assert spec.sgf_exponent() == 0.0


# the resolved field over q in (1.01, 20] and inf, c in [0.1, 10] with c = 1
# often, and 1 to 8 components; gf takes neither q nor c
resolved_specs = st.one_of(
    st.just(FlowSpec("gf")),
    st.builds(FlowSpec, kind=st.sampled_from(["rgf", "sgf"]),
              q=st.one_of(st.floats(min_value=1.01, max_value=20.0, exclude_min=True),
                          st.just(math.inf)),
              c=st.one_of(st.just(1.0), st.floats(min_value=0.1, max_value=10.0))),
)
resolved_grads = st.lists(_component, min_size=1, max_size=8)


def py_velocity(spec, g, n2, l1):
    """The velocity of the resolved field as Python floats, component by
    component, from the Euclidean norm ``n2`` and the l1 norm ``l1``."""
    if not math.isfinite(n2):
        raise NumericalFailure(f"non-finite gradient passed to {spec.kind} flow: {np.array(g)!r}")
    if spec.kind == "gf":
        return [-gi for gi in g]
    if n2 <= GRAD_CUTOFF:
        return [0.0] * len(g)
    if spec.kind == "rgf":
        s = n2 ** -(1.0 if math.isinf(spec.q) else (spec.q - 2.0) / (spec.q - 1.0))
        if not math.isfinite(n2 * s * spec.c):
            raise NumericalFailure(f"non-finite speed of rgf flow at gradient {np.array(g)!r}")
        return [gi * s * -spec.c for gi in g]
    pwc = l1 ** (0.0 if math.isinf(spec.q) else 1.0 / (spec.q - 1.0)) * spec.c
    if not math.isfinite(pwc):
        raise NumericalFailure(f"non-finite speed of sgf flow at gradient {np.array(g)!r}")
    return [(1.0 if gi > 0 else -1.0 if gi < 0 else 0.0) * -pwc for gi in g]


class TestResolvedField:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(spec=resolved_specs, g=resolved_grads)
    def test_velocity_and_bound(self, spec, g):
        arr = np.array(g)
        n2, l1 = norm2(arr), float(np.abs(arr).sum())
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                want = py_velocity(spec, g, n2, l1)
            except (NumericalFailure, OverflowError) as exc:
                # the power of the norm or the speed overflows, before any product
                with pytest.raises(type(exc)):
                    spec._velocity_and_bound(arr, n2)[0]
                return
            got = spec._velocity_and_bound(arr, n2)[0]
            # with and without the norm passed in, through flow_eval too
            for v in (got, spec._velocity_and_bound(arr)[0], flow_eval(spec, g)):
                assert v.tobytes() == np.array(want).tobytes()
            bound = spec._velocity_and_bound(arr, n2)[1]
            assert bound >= norm2(got) / (1.0 + 1e-6)
            if spec.kind == "gf":
                assert bound == n2
            elif n2 <= GRAD_CUTOFF:
                assert bound == 0.0 and got.tobytes() == np.zeros(len(g)).tobytes()

    @pytest.mark.parametrize("kind", ["gf", "rgf", "sgf"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_norm_raises_the_same_message(self, kind, bad):
        spec = FlowSpec(kind) if kind == "gf" else FlowSpec(kind, q=3.0, c=2.0)
        g = np.array([1.0, bad])
        message = f"non-finite gradient passed to {kind} flow: {g!r}"
        for call in (lambda: flow_eval(spec, g), lambda: spec._velocity_and_bound(g, norm2(g))):
            with pytest.raises(NumericalFailure) as err:
                call()
            assert str(err.value) == message

    @pytest.mark.parametrize("kind", ["gf", "rgf", "sgf"])
    def test_norm_at_or_below_cutoff_gives_exact_zeros(self, kind):
        # norms at the cutoff, below it and 0; gf has no cutoff and gives -g
        spec = FlowSpec(kind) if kind == "gf" else FlowSpec(kind, q=2.5, c=3.0)
        at = np.array([-GRAD_CUTOFF])
        assert norm2(at) == GRAD_CUTOFF
        for g in (at, np.array([-3e-13, 4e-13]), np.zeros(2)):
            v, bound = spec._velocity_and_bound(g, norm2(g))
            if kind == "gf":
                assert v.tobytes() == (-g).tobytes() and bound == norm2(g)
            else:
                assert v.tobytes() == np.zeros_like(g).tobytes() and bound == 0.0
        # one ulp above the cutoff every field moves
        above = np.array([-math.nextafter(GRAD_CUTOFF, 1.0)])
        assert spec._velocity_and_bound(above)[1] > 0.0

    def test_copies_rebuild_the_field(self):
        spec = FlowSpec("sgf", q=4.0, c=0.5)
        g = np.array([0.3, -1.2, 0.0])
        want = flow_eval(spec, g).tobytes()
        for other in (pickle.loads(pickle.dumps(spec)), copy.copy(spec), copy.deepcopy(spec)):
            assert other == spec and flow_eval(other, g).tobytes() == want
        moved = replace(spec, c=1.0)
        assert flow_eval(moved, g).tobytes() == (2.0 * flow_eval(spec, g)).tobytes()


# components from every range a step can meet, as tests/test_integrators.py
# draws them: signed zeros, subnormals, 1e300 entries whose squares
# overflow, and ordinary values
STEP_COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                     1e-300, -1e-300, 1e300, -1e300]),
    st.floats(min_value=-2.2e-308, max_value=2.2e-308),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))


class DotCounted(np.ndarray):
    """A gradient that counts the calls of its ``dot``."""

    calls = 0

    def dot(self, *args, **kwargs):
        DotCounted.calls += 1
        return super().dot(*args, **kwargs)


def outcome(spec, g, *n2):
    """What the field returns for ``g``, or the exception it raises."""
    try:
        v, bound = spec._velocity_and_bound(g, *n2)
    except (NumericalFailure, OverflowError) as exc:
        return type(exc), str(exc)
    return v.tobytes(), bound


class TestSignedFieldShortcut:
    """Without a norm, ``sgf`` settles its cutoff and finiteness tests from
    the l1 norm when it can; the velocity, the bound and every NumericalFailure
    are those of the field given the Euclidean norm."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(data=st.data(), d=st.integers(min_value=1, max_value=8),
           q=st.sampled_from([1.5, 2.2, 3.0, 6.0, 10.0, math.inf]),
           c=st.sampled_from([1.0, 2.5e-3, 7.0]))
    def test_either_path_gives_the_same_bits(self, data, d, q, c):
        spec = FlowSpec("sgf", q=q, c=c)
        g = np.array(data.draw(st.lists(STEP_COMPONENT, min_size=d, max_size=d)))
        assert outcome(spec, g) == outcome(spec, g, norm2(g))

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    @pytest.mark.parametrize("shape", ["even", "ramp", "spike"])
    @pytest.mark.parametrize("ulps", [-2, -1, 1, 2])
    def test_l1_beside_the_bound(self, d, shape, ulps):
        # l1 a few ulps beside 2 sqrt(d) times the cutoff: above it the dot
        # is skipped, below it taken, whatever the spread of the components;
        # even components give the least ||g||_2, about twice the cutoff,
        # and one spike the most, 2 sqrt(d) times it
        bound = 2.0 * math.sqrt(d) * GRAD_CUTOFF
        l1 = bound
        for _ in range(abs(ulps)):
            l1 = math.nextafter(l1, math.inf if ulps > 0 else 0.0)
        weights = {"even": np.ones(d), "ramp": np.arange(1.0, d + 1.0),
                   "spike": np.eye(1, d).ravel()}[shape]
        g = l1 * weights / weights.sum() * np.resize([1.0, -1.0], d)
        l1 = float(np.abs(g).sum())
        spec = FlowSpec("sgf", q=3.0, c=0.5)
        DotCounted.calls = 0
        got = outcome(spec, g.view(DotCounted))
        assert DotCounted.calls == (0 if l1 > bound else 1)
        assert got == outcome(spec, g, norm2(g)) and got[1] > 0.0

    @pytest.mark.parametrize("g", [[1e-310], [5e-324, -5e-324], [1e-170, -1e-170]])
    def test_squares_that_underflow_take_the_dot(self, g):
        # the l1 norm lies below 2 sqrt(d) times the cutoff, and the dot
        # rounds the squared norm to zero, which gives zero velocity
        spec = FlowSpec("sgf", q=3.0)
        g = np.array(g)
        assert outcome(spec, g) == outcome(spec, g, norm2(g)) == (np.zeros_like(g).tobytes(), 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), d=st.integers(min_value=1, max_value=8),
           bad=st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_nonfinite_component_raises_the_same_failure(self, data, d, bad):
        g = data.draw(st.lists(STEP_COMPONENT, min_size=d, max_size=d))
        g[data.draw(st.integers(min_value=0, max_value=d - 1))] = bad
        g = np.array(g)
        spec = FlowSpec("sgf", q=3.0, c=2.0)
        want = (NumericalFailure, f"non-finite gradient passed to sgf flow: {g!r}")
        assert outcome(spec, g) == outcome(spec, g, norm2(g)) == want


class TestOverflowingL1:
    """Where the l1 sum of a finite gradient overflows, sgf gives what it
    gives with numpy's warnings ignored when that is finite: the pure sign
    field at q = inf. Where its speed ||g||_1^(1/(q-1)) * c is not finite it
    raises NumericalFailure before any product, so a zero component never
    meets 0 * inf. Both hold under this suite's error::RuntimeWarning
    filter, with the norm given and without."""

    @staticmethod
    def outcomes(spec, g):
        """The field's outcome without the norm, with it, and without it
        with numpy's warnings ignored."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            ignored = outcome(spec, g)
        return outcome(spec, g), outcome(spec, g, norm2(g)), ignored

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("g", [[1e308, -1e308], [1e308, 0.0, -1e308]], ids=["full", "zero"])
    @pytest.mark.parametrize("c", [1.0, 2.5])
    def test_sign_field_at_infinite_q(self, g, c):
        spec, g = FlowSpec("sgf", c=c), np.array(g)
        want = ((np.sign(g) * -c).tobytes(), math.sqrt(len(g)) * c)
        assert self.outcomes(spec, g) == (want,) * 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("q,c,g", [
        (3.0, 1.0, [1e308, -1e308]), (3.0, 1.0, [1e308, 0.0, -1e308]),
        (10.0, 1e-3, [1e308, 0.0, -1e308]),
        # the l1 norm is finite and its speed overflows by the factor c
        (2.0, 10.0, [1e308, 0.0])])
    def test_nonfinite_speed_raises(self, q, c, g):
        spec, g = FlowSpec("sgf", q=q, c=c), np.array(g)
        want = (NumericalFailure, f"non-finite speed of sgf flow at gradient {g!r}")
        assert self.outcomes(spec, g) == (want,) * 3


class TestOverflowingRescaledSpeed:
    """Where rgf's speed ||g||_2 * s * c is not finite, the field raises
    NumericalFailure before any product, with numpy's warnings raised as
    errors or ignored, with the norm given and without, for c = 1 (one
    product) and c != 1 (two)."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1.0, 1.5])
    @pytest.mark.parametrize("g", [[1e200, 1e200], [1e200, 0.0, -1e200]], ids=["full", "zero"])
    def test_nonfinite_speed_raises(self, g, c):
        # q = 1.5 makes s = ||g||_2, so the speed is ||g||_2^2 * c = inf
        spec, g = FlowSpec("rgf", q=1.5, c=c), np.array(g)
        want = (NumericalFailure, f"non-finite speed of rgf flow at gradient {g!r}")
        assert TestOverflowingL1.outcomes(spec, g) == (want,) * 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1.0, 1.5])
    def test_speed_that_overflows_only_by_c_raises(self, c):
        # at q = 2, s = 1 and ||g||_2 * s is the largest finite float;
        # c = 1.5 takes it past
        g = np.array([np.finfo(float).max])
        spec = FlowSpec("rgf", q=2.0, c=c)
        got = TestOverflowingL1.outcomes(spec, g)
        if c == 1.0:
            assert got == (((g * -1.0).tobytes(), float(g[0])),) * 3
        else:
            want = (NumericalFailure, f"non-finite speed of rgf flow at gradient {g!r}")
            assert got == (want,) * 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [1.0, 1.5])
    def test_product_overflow_under_a_small_given_norm_raises(self, c):
        # a caller's norm far below the component: the speed is finite, the
        # product overflows, and numpy's warning raised as an error is
        # NumericalFailure
        spec, g = FlowSpec("rgf", c=c), np.array([1e300])
        with pytest.raises(NumericalFailure, match="non-finite speed of rgf flow"):
            spec._velocity_and_bound(g, 1e-10)
