"""Problem abstraction, oracles, and derivative consistency checks."""

import numpy as np
import pytest

from stochsqp import (
    EvaluationError,
    Problem,
    StochasticGradientOracle,
    exact_oracle,
    sample_gradient,
)

from conftest import estimate_variance, finite_difference_check, gaussian_oracle, sphere_problem


class TestSampleGradient:
    def test_zero_variance_oracle_is_exact(self):
        p = sphere_problem()
        oracle = exact_oracle(p)
        rng = np.random.default_rng(0)
        x = np.array([0.2, -0.7])
        assert np.array_equal(sample_gradient(oracle, x, 4, rng), p.gradient(x))

    def test_full_batch_mode_is_exact(self, bundled_instance):
        oracle = exact_oracle(bundled_instance.problem())
        rng = np.random.default_rng(0)
        x = bundled_instance.x1
        g = sample_gradient(oracle, x, bundled_instance.dataset.n_samples, rng)
        assert np.linalg.norm(g - bundled_instance.gradient(x)) <= 1e-12

    @pytest.mark.parametrize("exact, name", [(True, "exact"), (False, "stochastic")])
    def test_non_finite_draw_names_the_oracle_kind(self, exact, name):
        oracle = StochasticGradientOracle(
            lambda rng, batch, count: np.empty((count, 0)),
            lambda x, row: np.full(2, np.nan),
            exact=exact,
        )
        with pytest.raises(EvaluationError, match=f"^{name} gradient returned a non-finite value"):
            sample_gradient(oracle, np.zeros(2), 1, np.random.default_rng(0))

    def test_zero_batch_rejected(self):
        oracle = exact_oracle(sphere_problem())
        with pytest.raises(ValueError):
            sample_gradient(oracle, np.zeros(2), 0, np.random.default_rng(0))

    def test_bit_reproducible_given_seed(self, bundled_instance):
        oracle = bundled_instance.minibatch_oracle()
        x = bundled_instance.x1
        g1 = sample_gradient(oracle, x, 16, np.random.default_rng(42))
        g2 = sample_gradient(oracle, x, 16, np.random.default_rng(42))
        assert np.array_equal(g1, g2)

    def test_minibatch_mean_matches_gradient(self, bundled_instance):
        # Empirical mean over repeated draws approaches the exact
        # gradient, componentwise within 4 sigma of the averaging noise.
        oracle = bundled_instance.minibatch_oracle()
        x = bundled_instance.x1
        grad = bundled_instance.gradient(x)
        batch, draws = 16, 100_000
        rng = np.random.default_rng(7)
        total = np.zeros_like(grad)
        for _ in range(draws):
            total += oracle.sample(x, batch, rng)
        err = total / draws - grad

        per_sample = bundled_instance.dataset.features * (
            -bundled_instance.dataset.labels
            * _sigmoid(-bundled_instance.dataset.labels
                       * (bundled_instance.dataset.features @ x))
        )[:, None]
        sigma_c = per_sample.std(axis=0)
        assert np.all(np.abs(err) <= 4.0 * sigma_c / np.sqrt(batch * draws))


def _sigmoid(z):
    from scipy.special import expit

    return expit(z)


class TestEstimateVariance:
    def test_zero_for_exact_oracle(self):
        p = sphere_problem()
        v = estimate_variance(exact_oracle(p), p, np.zeros(2), 4, 10, np.random.default_rng(0))
        assert v == 0.0

    def test_zero_for_full_batch(self, bundled_instance):
        p = bundled_instance.problem()
        v = estimate_variance(
            exact_oracle(p), p, bundled_instance.x1, 1, 5,
            np.random.default_rng(0),
        )
        assert v <= 1e-24

    def test_iid_averaging_scaling(self, bundled_instance):
        # Batch-16 variance should be 16x smaller than batch-1 variance.
        p = bundled_instance.problem()
        oracle = bundled_instance.minibatch_oracle()
        rng = np.random.default_rng(3)
        v1 = estimate_variance(oracle, p, bundled_instance.x1, 1, 10_000, rng)
        v16 = estimate_variance(oracle, p, bundled_instance.x1, 16, 10_000, rng)
        assert v1 / v16 == pytest.approx(16.0, rel=0.25)

    def test_trials_validated(self, bundled_instance):
        p = bundled_instance.problem()
        with pytest.raises(ValueError):
            estimate_variance(
                bundled_instance.minibatch_oracle(), p, bundled_instance.x1, 1, 1,
                np.random.default_rng(0),
            )


class TestGaussianOracle:
    def test_declared_second_moment(self):
        p = sphere_problem()
        oracle = gaussian_oracle(p, sigma=2.0)
        x = np.array([0.1, 0.4])
        v1 = estimate_variance(oracle, p, x, 1, 20_000, np.random.default_rng(5))
        assert v1 == pytest.approx(4.0, rel=0.1)
        v4 = estimate_variance(oracle, p, x, 4, 20_000, np.random.default_rng(6))
        assert v4 == pytest.approx(1.0, rel=0.1)


class TestDerivativeChecks:
    def test_sphere_toy_finite_differences(self):
        p = sphere_problem()
        grad_err, jac_err = finite_difference_check(p, np.random.default_rng(0), center=p.x0)
        # Jacobian map has Lipschitz constant exactly 2; the objective is
        # affine so the gradient check is exact to rounding.
        assert jac_err <= 10 * 1e-5 * 2.0
        assert grad_err <= 1e-9

    def test_bundled_instance_finite_differences(self, bundled_instance):
        p = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        grad_err, jac_err = finite_difference_check(
            p, np.random.default_rng(1), center=bundled_instance.x1
        )
        assert grad_err <= 10 * 1e-5 * lip_gradf
        assert jac_err <= 10 * 1e-5 * lip_jac


class TestProblem:
    def test_problem_dimension_validation(self):
        p = sphere_problem()
        with pytest.raises(ValueError):
            Problem(n=1, m=2, objective=p.objective, gradient=p.gradient,
                    constraints=p.constraints, jacobian=p.jacobian, x0=np.zeros(1))
