import math

import numpy as np
import pytest

from finiteflow import (BatchContext, finite_difference_check, make_mlp,
                        make_pth_power, make_quadratic, make_rosenbrock)

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
