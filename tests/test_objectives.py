import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from finiteflow import (BatchContext, Objective, OptimumInfo, finite_difference_check,
                        make_mlp, make_pth_power, make_quadratic, make_rosenbrock)

FD_CASES = [
    # objective factory, sampling box, fd step, tolerance
    (lambda: make_quadratic(1.0, 4), 2.0, 1e-5, 1e-9),
    (lambda: make_rosenbrock(), 2.0, 1e-5, 1e-6),
    (lambda: make_pth_power(4.0, 3), 2.0, 1e-5, 1e-6),
    (lambda: make_mlp([4, 8, 1], 64, noise_std=0.1, seed=0), 1.5, 1e-5, 1e-4),
]


class TestQuadratic:
    def test_value_at_optimum(self):
        obj = make_quadratic(1.0, 2)
        assert obj.value(np.zeros(2)) == 0.0

    def test_gradient_identity_scaling(self):
        obj = make_quadratic(1.0, 2)
        assert np.array_equal(obj.gradient(np.array([3.0, 4.0])), [3.0, 4.0])

    def test_value_hand_evaluated(self):
        obj = make_quadratic(2.0, 1)
        assert obj.value(np.array([3.0])) == pytest.approx(9.0, abs=0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            make_quadratic(0.0, 2)
        with pytest.raises(ValueError):
            make_quadratic(-1.0, 2)
        with pytest.raises(ValueError):
            make_quadratic(1.0, 0)


class TestOptimumInfo:
    @pytest.mark.parametrize("x_star, f_star, message", [
        ([0.0, math.nan], 0.0, r"^x_star must be finite"),
        ([math.inf], 0.0, r"^x_star must be finite"),
        ([0.0], math.nan, r"^f_star must be finite, got nan$"),
        ([0.0], -math.inf, r"^f_star must be finite, got -inf$"),
    ], ids=["x_star-nan", "x_star-inf", "f_star-nan", "f_star-inf"])
    def test_rejects_non_finite_optimum(self, x_star, f_star, message):
        with pytest.raises(ValueError, match=message):
            OptimumInfo(x_star=x_star, f_star=f_star)


class TestRosenbrock:
    def test_stationary_point(self):
        obj = make_rosenbrock(1.0, 100.0)
        assert np.allclose(obj.gradient(np.array([1.0, 1.0])), 0.0, atol=1e-14)

    def test_value_at_origin(self):
        obj = make_rosenbrock(1.0, 100.0)
        assert obj.value(np.array([0.0, 0.0])) == 1.0

    def test_gradient_at_origin(self):
        obj = make_rosenbrock(1.0, 100.0)
        assert np.array_equal(obj.gradient(np.array([0.0, 0.0])), [-2.0, 0.0])

    def test_optimum_location(self):
        obj = make_rosenbrock(2.0, 5.0)
        assert np.allclose(obj.metadata.x_star, [2.0, 4.0])
        assert np.allclose(obj.gradient(obj.metadata.x_star), 0.0, atol=1e-12)

    def test_rejects_negative_b(self):
        with pytest.raises(ValueError):
            make_rosenbrock(1.0, -0.5)


class TestPthPower:
    def test_value_p2_hand(self):
        obj = make_pth_power(2.0, 1)
        assert obj.value(np.array([3.0])) == 4.5

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0, 7.3])
    def test_gradient_zero_at_origin(self, p):
        obj = make_pth_power(p, 3)
        assert np.array_equal(obj.gradient(np.zeros(3)), np.zeros(3))

    def test_gradient_p4_hand(self):
        obj = make_pth_power(4.0, 1)
        assert np.array_equal(obj.gradient(np.array([-2.0])), [-8.0])

    def test_p2_identical_to_unit_quadratic(self):
        quad = make_quadratic(1.0, 5)
        powered = make_pth_power(2.0, 5)
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.standard_normal(5) * rng.uniform(0.1, 10.0)
            assert quad.value(x) == powered.value(x)
            assert np.array_equal(quad.gradient(x), powered.gradient(x))

    def test_rejects_p_at_most_one(self):
        with pytest.raises(ValueError):
            make_pth_power(1.0, 2)
        with pytest.raises(ValueError):
            make_pth_power(0.5, 2)


class TestMlp:
    def test_teacher_parameters_fit_perfectly_without_noise(self):
        obj = make_mlp([3, 5, 2], 40, noise_std=0.0, seed=4)
        assert obj.value(obj.aux["teacher_params"]) == 0.0

    def test_gradient_matches_central_differences(self):
        obj = make_mlp([3, 6, 1], 32, noise_std=0.1, seed=9)
        x = np.random.default_rng(1).normal(scale=0.5, size=obj.dimension)
        assert finite_difference_check(obj, x, 1e-5) <= 1e-4

    def test_full_batch_equals_full_gradient_exactly(self):
        obj = make_mlp([2, 4, 1], 16, noise_std=0.05, seed=2)
        ctx = BatchContext(rng_seed=5, batch_size=16, dataset_size=16)
        x = np.random.default_rng(0).normal(size=obj.dimension)
        assert np.array_equal(obj.batch_gradient(x, ctx.indices(0)), obj.gradient(x))

    def test_disjoint_batch_partition_averages_to_full_gradient(self):
        obj = make_mlp([2, 4, 1], 24, noise_std=0.1, seed=8)
        x = np.random.default_rng(7).normal(size=obj.dimension)
        full = obj.gradient(x)
        parts = [obj.batch_gradient(x, np.arange(i, i + 8)) for i in (0, 8, 16)]
        mean = np.mean(parts, axis=0)
        assert np.allclose(mean, full, rtol=1e-12, atol=1e-15)

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            make_mlp([], 10)
        with pytest.raises(ValueError):
            make_mlp([3, 1], 10)
        with pytest.raises(ValueError):
            make_mlp([3, 4, 1], 0)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 64, 4096])
def test_values_match_np_sum_bitwise(d):
    # the array's own .sum() is np.sum's reduction without its dispatch
    x = np.random.default_rng(d).standard_normal(d) * 3.0
    for mu in (1.0, 0.3):
        assert make_quadratic(mu, d).value(x) == 0.5 * mu * float(np.sum(x * x))
        # the gradient's factor mu, held as a 0-d array, rounds as the float
        assert (make_quadratic(mu, d).gradient(x).tobytes()
                == np.array([mu * xi for xi in x.tolist()]).tobytes())
    for p in (2.0, 3.0, 4.5):
        assert make_pth_power(p, d).value(x) == float(np.sum(np.abs(x) ** p)) / p


class TestFiniteDifferenceCheck:
    def test_quadratic_is_exact_up_to_rounding(self):
        obj = make_quadratic(1.0, 3)
        x = np.array([0.3, -1.2, 2.0])
        assert finite_difference_check(obj, x, 1e-5) <= 1e-9

    def test_rosenbrock_point(self):
        obj = make_rosenbrock(1.0, 100.0)
        assert finite_difference_check(obj, np.array([0.5, 0.5]), 1e-5) <= 1e-6

    def test_reports_offending_coordinate_on_nonfinite(self):
        obj = make_quadratic(1.0, 2)
        bad = obj.__class__(
            dimension=2,
            value=lambda x: math.inf if x[1] > 10 else obj.value(x),
            gradient=obj.gradient,
        )
        with pytest.raises(ValueError, match="coordinate 1"):
            finite_difference_check(bad, np.array([0.0, 10.0]), 1e-3)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            finite_difference_check(make_quadratic(1.0, 1), np.array([1.0]), 0.0)


class TestSharedInvariants:
    @pytest.mark.parametrize("factory", [
        lambda: make_quadratic(2.5, 3),
        lambda: make_rosenbrock(1.0, 100.0),
        lambda: make_pth_power(3.0, 2),
    ])
    def test_gradient_vanishes_at_declared_optimum(self, factory):
        obj = factory()
        g = obj.gradient(obj.metadata.x_star)
        assert np.linalg.norm(g) <= 1e-10

    @pytest.mark.parametrize("factory,radius", [
        (lambda: make_quadratic(2.5, 3), 1.0),
        (lambda: make_rosenbrock(1.0, 100.0), 0.5),
        (lambda: make_pth_power(3.0, 2), 1.0),
    ])
    def test_values_never_undercut_declared_minimum(self, factory, radius):
        obj = factory()
        meta = obj.metadata
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = rng.standard_normal(obj.dimension)
            d *= radius * rng.random() / np.linalg.norm(d)
            assert obj.value(meta.x_star + d) >= meta.f_star

    @pytest.mark.parametrize("factory,box,h,tol", FD_CASES)
    def test_hundred_seeded_points_stay_within_tolerance(self, factory, box, h, tol):
        obj = factory()
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-box, box, size=obj.dimension)
            worst = max(worst, finite_difference_check(obj, x, h))
        assert worst <= tol


class TestBatchContext:
    def test_rejects_oversized_batch(self):
        with pytest.raises(ValueError):
            BatchContext(rng_seed=0, batch_size=17, dataset_size=16)

    def test_indices_are_deterministic_per_step(self):
        ctx = BatchContext(rng_seed=9, batch_size=4, dataset_size=32)
        assert np.array_equal(ctx.indices(3), ctx.indices(3))
        assert not np.array_equal(ctx.indices(3), ctx.indices(4))

    def test_full_batch_indices_are_identity(self):
        ctx = BatchContext(rng_seed=9, batch_size=8, dataset_size=8)
        assert np.array_equal(ctx.indices(0), np.arange(8))


# moderate components keep every square and power finite, with no warning
COMPONENT = st.floats(-1e3, 1e3, allow_nan=False)
FUSED_MAKERS = [
    *[(f"quadratic_d{d}", lambda d=d: make_quadratic(0.7, d)) for d in range(1, 7)],
    ("rosenbrock", lambda: make_rosenbrock(1.0, 0.2)),
    ("pth_power_p1.5", lambda: make_pth_power(1.5, 3)),
    ("pth_power_p4", lambda: make_pth_power(4.0, 3)),
    ("mlp", lambda: make_mlp([2, 3, 1], 8, noise_std=0.1, seed=3)),
]


class TestValueAndGrad:
    @pytest.mark.parametrize("name, maker", FUSED_MAKERS, ids=[n for n, _ in FUSED_MAKERS])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fused_form_equals_value_and_gradient_bitwise(self, name, maker, data):
        obj = maker()
        x = data.draw(st.lists(COMPONENT, min_size=obj.dimension, max_size=obj.dimension))
        # a list is array-like, which value and gradient also accept
        for point in (np.array(x), x):
            f, g = obj.value_and_grad(point)
            assert type(f) is float
            assert np.float64(f).tobytes() == np.float64(float(obj.value(point))).tobytes()
            expected = obj.gradient(point)
            assert g.dtype == np.float64 and g.shape == expected.shape == (obj.dimension,)
            assert g.tobytes() == expected.tobytes()

    def test_hand_built_objective_composes_its_own_callables(self):
        obj = Objective(dimension=2, value=lambda x: np.float32(1.5),
                        gradient=lambda x: [1, 2])
        f, g = obj.value_and_grad(np.zeros(2))
        assert type(f) is float and f == 1.5
        assert g.dtype == np.float64 and g.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("name, maker", FUSED_MAKERS, ids=[n for n, _ in FUSED_MAKERS])
    def test_replace_runs_the_new_callables(self, name, maker):
        obj = maker()
        calls = []

        def other(x):
            calls.append("value")
            return 2.5

        def other_gradient(x):
            calls.append("gradient")
            return np.ones(obj.dimension)

        x = np.full(obj.dimension, 0.25)
        f, g = replace(obj, value=other).value_and_grad(x)
        assert f == 2.5 and g.tobytes() == obj.gradient(x).tobytes()
        assert calls == ["value"]
        f, g = replace(obj, gradient=other_gradient).value_and_grad(x)
        assert f == obj.value(x) and g.tolist() == [1.0] * obj.dimension
        # the composed form takes the gradient first, as the record pass did
        both = replace(obj, value=other, gradient=other_gradient)
        assert both.value_and_grad(x)[0] == 2.5
        assert calls == ["value", "gradient", "gradient", "value"]


# makers with a closed batched form, and a draw of rows for each
CLOSED_ROWS = [
    ("quadratic", lambda d: make_quadratic(0.7, d)),
    ("pth_power_p1.5", lambda d: make_pth_power(1.5, d)),
    ("pth_power_p4", lambda d: make_pth_power(4.0, d)),
]


def draw_rows(data, dimension):
    return data.draw(arrays(np.float64, (data.draw(st.integers(1, 6)), dimension),
                            elements=COMPONENT))


def same_row_bits(obj, xs, fs, gs):
    assert fs.dtype == gs.dtype == np.float64
    assert fs.shape == (len(xs),) and gs.shape == xs.shape
    for x, f, g in zip(xs, fs, gs):
        one_f, one_g = obj.value_and_grad(x)
        assert np.float64(one_f).tobytes() == f.tobytes()
        assert one_g.tobytes() == g.tobytes()


class TestValueAndGradRows:
    @pytest.mark.parametrize("name, maker", CLOSED_ROWS, ids=[n for n, _ in CLOSED_ROWS])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_closed_rows_equal_one_row_calls_bitwise(self, name, maker, data):
        obj = maker(data.draw(st.integers(1, 200)))
        assert obj.closed_rows
        xs = draw_rows(data, obj.dimension)
        same_row_bits(obj, xs, *obj.value_and_grad_rows(xs))

    @pytest.mark.parametrize("name, maker", FUSED_MAKERS, ids=[n for n, _ in FUSED_MAKERS])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_every_maker_has_rows_equal_to_one_row_calls(self, name, maker, data):
        obj = maker()
        assert obj.closed_rows == name.startswith(("quadratic", "pth_power"))
        xs = draw_rows(data, obj.dimension)
        same_row_bits(obj, xs, *obj.value_and_grad_rows(xs))

    def test_no_rows_give_empty_columns(self):
        for obj in (make_quadratic(1.0, 3), make_rosenbrock()):
            fs, gs = obj.value_and_grad_rows(np.empty((0, obj.dimension)))
            assert fs.shape == (0,) and gs.shape == (0, obj.dimension)

    @pytest.mark.parametrize("name, maker", FUSED_MAKERS, ids=[n for n, _ in FUSED_MAKERS])
    def test_replace_has_no_closed_rows_and_runs_the_new_callables(self, name, maker):
        obj = maker()
        doubled = replace(obj, value=lambda x: 2.0 * obj.value(x))
        assert not doubled.closed_rows
        xs = np.full((3, obj.dimension), 0.25)
        fs, gs = doubled.value_and_grad_rows(xs)
        assert fs.tolist() == [2.0 * obj.value(xs[0])] * 3
        assert gs.tobytes() == obj.value_and_grad_rows(xs)[1].tobytes()

    def test_hand_built_objective_has_no_closed_rows(self):
        obj = Objective(dimension=2, value=lambda x: float(x.sum()),
                        gradient=lambda x: [1, 2])
        assert not obj.closed_rows
        fs, gs = obj.value_and_grad_rows([[1.0, 2.0], [3.0, 4.0]])
        assert fs.tolist() == [3.0, 7.0] and gs.tolist() == [[1.0, 2.0], [1.0, 2.0]]


class TestDerivedForms:
    """The quadratic and ``pth_power`` write a gradient and one
    ``value_and_grad`` over the last axis; their one-row ``value_and_grad``
    and ``value`` are taken from it, and Rosenbrock's ``value`` from its
    one-row ``value_and_grad``."""

    @pytest.mark.parametrize("name, maker", CLOSED_ROWS, ids=[n for n, _ in CLOSED_ROWS])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_value_one_row_and_row_zero_are_the_same_bits(self, name, maker, data):
        obj = maker(data.draw(st.integers(1, 64)))
        x = data.draw(arrays(np.float64, obj.dimension, elements=COMPONENT))
        f, g = obj.value_and_grad(x)
        assert type(f) is float
        fs, gs = obj.value_and_grad_rows(x[None])
        assert np.float64(f).tobytes() == np.float64(obj.value(x)).tobytes() == fs[0].tobytes()
        assert g.tobytes() == gs[0].tobytes() == obj.gradient(x).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(x=arrays(np.float64, 2, elements=COMPONENT))
    def test_rosenbrock_value_is_its_fused_cost(self, x):
        obj = make_rosenbrock(1.0, 0.2)
        f = obj.value_and_grad(x)[0]
        assert type(f) is float
        assert np.float64(obj.value(x)).tobytes() == np.float64(f).tobytes()
