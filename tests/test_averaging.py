"""Running and windowed multiplier averages and the error-bound diagnostics."""

import numpy as np
import pytest
from scipy.stats import linregress

from stochsqp import (
    MultiplierTrace,
    check_true_multiplier_bound,
    kappa_y,
    running_average,
    running_averages,
    windowed_average,
)


class TestRunningAverage:
    def test_mean_of_first_three(self):
        ys = np.array([[1.0], [2.0], [3.0]])
        assert running_average(ys, k=3, kbar=1) == pytest.approx(2.0)

    def test_window_of_one(self):
        ys = np.array([[1.0], [2.0], [3.0]])
        assert running_average(ys, k=2, kbar=2) == pytest.approx(2.0)

    def test_bounds_checked(self):
        ys = np.zeros((3, 2))
        with pytest.raises(ValueError):
            running_average(ys, k=2, kbar=3)

    def test_prefix_sums_match_slice_means_on_long_trace(self):
        rng = np.random.default_rng(0)
        ys = rng.standard_normal((100_000, 2))
        averages = running_averages(ys)
        assert averages.shape == ys.shape
        for k in (1, 10, 999, 50_000, 100_000):
            direct = running_average(ys, k)
            np.testing.assert_allclose(averages[k - 1], direct, rtol=1e-12, atol=0)

    def test_commutes_with_affine_maps(self):
        rng = np.random.default_rng(1)
        ys = rng.standard_normal((500, 3))
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        lhs = running_average(ys @ a.T + b, k=500)
        rhs = a @ running_average(ys, k=500) + b
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestWindowedAverage:
    def test_hand_scan(self):
        xs = np.array([[0.0], [0.5], [0.6], [0.65]])
        ys = np.array([[10.0], [20.0], [30.0], [40.0]])
        avg, kprime = windowed_average(xs, ys, k=4, eps=0.2)
        assert kprime == 2
        assert avg == pytest.approx(30.0)

    def test_all_inclusive_window_equals_running_average(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((50, 3))
        ys = rng.standard_normal((50, 2))
        diameter = max(
            np.linalg.norm(xs[i] - xs[j]) for i in range(50) for j in range(50)
        )
        avg, kprime = windowed_average(xs, ys, k=50, eps=diameter + 1.0)
        assert kprime == 1
        assert np.allclose(avg, running_average(ys, 50), atol=1e-14)

    def test_empty_past_window(self):
        xs = np.array([[0.0], [10.0], [20.0]])
        ys = np.array([[1.0], [2.0], [3.0]])
        avg, kprime = windowed_average(xs, ys, k=3, eps=0.5)
        assert kprime == 3
        assert avg == pytest.approx(3.0)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            windowed_average(np.zeros((3, 1)), np.zeros((3, 1)), 3, 0.0)
        with pytest.raises(ValueError):
            windowed_average(np.zeros((3, 1)), np.zeros((3, 1)), 3, -1.0)


class TestMultiplierTrace:
    def test_from_run_alignment(self, bundled_instance):
        from stochsqp import BetaSchedule, MeritParams, SolverConfig, run

        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(merit=MeritParams(), lip_gradf=lip_gradf, lip_jac=lip_jac,
                              batch_size=8, max_iters=40, validate=True)
        result = run(problem, bundled_instance.minibatch_oracle(), config)
        trace = MultiplierTrace.from_run(result.trace)
        assert len(trace) == 40
        assert np.array_equal(trace.ys, result.trace.y)
        assert np.array_equal(trace.ys_true, result.trace.y_true)
        assert trace.ys is result.trace.y  # a view, not a copy
        avg, kprime = trace.windowed_average(eps=1e9)
        assert kprime == 1
        assert np.array_equal(trace.running_average(), running_averages(result.trace.y)[-1])

    def test_missing_true_multipliers(self):
        trace = MultiplierTrace(np.zeros((1, 2)), np.ones((1, 1)))
        assert trace.ys_true is None
        with pytest.raises(ValueError):
            check_true_multiplier_bound(trace, np.zeros(2), np.ones(1), 1.0, 1)


class TestNoiseSuppression:
    def test_average_error_decays_like_inverse_sqrt(self):
        # Fixed primal point, i.i.d. multiplier noise: the averaging
        # error must decay at the mean-estimation rate.
        rng = np.random.default_rng(3)
        iters = 100_000
        noise = rng.standard_normal((iters, 3))
        avg = np.cumsum(noise, axis=0) / np.arange(1, iters + 1)[:, None]
        errs = np.linalg.norm(avg, axis=1)
        ks = np.unique(np.logspace(2, 5, 400).astype(int))
        slope = linregress(np.log(ks), np.log(errs[ks - 1])).slope
        assert -0.65 <= slope <= -0.35


class TestKappaY:
    def test_unit_inputs(self):
        assert kappa_y(1, 1, 1, 1, 1, 1) == 3.0

    def test_large_jacobian_floor_leaves_operator_term(self):
        value = kappa_y(1, 1, 1e9, 1, 2.0, 3.0)
        assert value == pytest.approx(6.0, rel=1e-6)

    def test_box_constant_hand_evaluation(self):
        # Quadratic objective with affine rows plus the sphere on a box:
        # the constants below are exact for that toy, and the bound
        # constant is just their stated combination.
        kappa_h, lip_c, r, lip_gradf, kappa_gradf, lip_m = 1.0, 4.0, 0.5, 2.0, 3.0, 0.25
        expected = 1.0 * 4.0 / 0.25 + 2.0 / 0.5 + 3.0 * 0.25
        assert kappa_y(kappa_h, lip_c, r, lip_gradf, kappa_gradf, lip_m) == expected

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            kappa_y(1, 1, 0, 1, 1, 1)


class TestMultiplierBound:
    def test_exact_match_gives_zero_ratio(self):
        x_star = np.array([1.0, 2.0])
        y_star = np.array([0.5])
        trace = MultiplierTrace([x_star], [y_star + 0.3], ys_true=[y_star])
        report = check_true_multiplier_bound(trace, x_star, y_star, 2.0, 1)
        assert report.ratios[0] == 0.0
        assert report.tail_bounded

    def test_exceeding_iterations_reported(self):
        x_star = np.zeros(1)
        y_star = np.zeros(1)
        trace = MultiplierTrace(
            np.array([[1.0], [1.0]]), np.zeros((2, 1)), ys_true=np.array([[0.5], [3.0]])
        )
        report = check_true_multiplier_bound(trace, x_star, y_star, 1.0, 1)
        assert list(report.exceeded) == [2]
        assert report.tail_max == pytest.approx(3.0)

    def test_deterministic_tail_ratio_is_bounded(self, bundled_instance):
        from stochsqp import BetaSchedule, MeritParams, SolverConfig, run
        from stochsqp.harness import compute_reference

        problem = bundled_instance.problem()
        from stochsqp import exact_oracle

        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        merit = MeritParams()
        reference = compute_reference(problem, merit, lip_gradf, lip_jac)
        config = SolverConfig(merit=merit, lip_gradf=lip_gradf, lip_jac=lip_jac,
                              beta=BetaSchedule(family="constant"), max_iters=400,
                              validate=True, store="light")
        result = run(problem, exact_oracle(problem), config)
        trace = MultiplierTrace.from_run(result.trace)
        report = check_true_multiplier_bound(
            trace, reference.x, reference.y, kappa_y_value=1e6, tail_start=200
        )
        assert report.tail_bounded
        assert report.exceeded.size == 0
