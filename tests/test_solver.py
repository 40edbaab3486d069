"""Iteration loop, step-size rule, schedules, and run diagnostics."""

import math

import numpy as np
import pytest

from stochsqp import (
    BetaSchedule,
    ConfigError,
    EvaluationError,
    MeritParams,
    Problem,
    SolverConfig,
    StochasticGradientOracle,
    exact_oracle,
    iterate,
    kkt_residual,
    run,
    sample_gradient,
    stationarity_residual,
    step_size,
    solve_kkt,
    phi,
)

from conftest import (
    constrained_quadratic,
    dense_kkt_solve,
    gaussian_oracle,
    least_squares_y,
    row_by_row_run,
    sphere_problem,
    true_shadow,
)
from stochsqp.solver import Trace


class TestStepSize:
    def test_worked_value(self):
        alpha = step_size(0.1, 1.0, 1.0, 1.0, 1.0)
        assert alpha == 1.0 * 0.1 * 1.0 / (0.1 * 1.0 + 1.0)
        assert alpha == pytest.approx(0.09090909090909091, abs=1e-15)

    def test_linear_in_beta(self):
        full = step_size(0.1, 1.0, 1.0, 1.0, 1.0)
        assert step_size(0.1, 1.0, 1.0, 1.0, 0.5) == 0.5 * full

    def test_protocol_first_step(self):
        tau, xi, lip, jac = 0.1, 1.0, 3.0, 2.0
        assert step_size(tau, xi, lip, jac, 1.0) == tau * xi / (tau * lip + jac)

    # The last two are valid inputs whose step size overflows (tau *
    # lip_gradf is inf) or underflows to 0.
    @pytest.mark.parametrize("bad", [dict(tau=0.0), dict(xi=-1.0), dict(beta_k=0.0), dict(beta_k=1.5),
                                     dict(tau=1e308, lip_gradf=10.0),
                                     dict(tau=1e-300, beta_k=1e-300)])
    def test_input_validation(self, bad):
        kwargs = dict(tau=0.1, xi=1.0, lip_gradf=1.0, lip_jac=1.0, beta_k=1.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            step_size(kwargs["tau"], kwargs["xi"], kwargs["lip_gradf"],
                      kwargs["lip_jac"], kwargs["beta_k"])


class TestBetaSchedule:
    def test_default_family(self):
        beta = BetaSchedule()
        assert beta(1) == 1.0
        assert beta(4) == 0.25

    def test_decay_exponent_contract(self):
        with pytest.raises(ConfigError):
            BetaSchedule(p=0.4)
        with pytest.raises(ConfigError):
            BetaSchedule(p=1.2)
        BetaSchedule(p=0.51)  # boundary-interior value accepted

    def test_beta1_range(self):
        with pytest.raises(ConfigError):
            BetaSchedule(beta1=0.0)
        with pytest.raises(ConfigError):
            BetaSchedule(beta1=1.5)

    def test_constant_family_requires_exact_oracle(self):
        problem = sphere_problem()
        config = SolverConfig(
            merit=MeritParams(), lip_gradf=1.0, lip_jac=2.0,
            beta=BetaSchedule(family="constant"), max_iters=5,
        )
        with pytest.raises(ConfigError, match="exact-gradient"):
            run(problem, gaussian_oracle(problem, sigma=1.0), config)
        run(problem, exact_oracle(problem), config)  # accepted


class TestSolverConfig:
    @pytest.mark.parametrize("name, value", [("lip_gradf", 0.0), ("lip_jac", -1.0),
                                             ("batch_size", 0), ("max_iters", 0), ("seed", -1)])
    def test_bad_values_rejected(self, name, value):
        with pytest.raises(ConfigError):
            SolverConfig(**{name: value})


def _worked_problem():
    """Constant evaluators reproducing the worked subproblem at x1."""
    return Problem(
        n=2, m=1,
        objective=lambda x: 0.0,
        gradient=lambda x: np.array([1.0, 1.0]),
        constraints=lambda x: np.array([0.5]),
        jacobian=lambda x: np.array([[1.0, 0.0]]),
        x0=np.array([2.0, 3.0]),
    )


class TestRun:
    def test_single_iteration_hand_arithmetic(self):
        problem = _worked_problem()
        config = SolverConfig(
            merit=MeritParams(tau=0.1, xi=1.0), lip_gradf=1.0, lip_jac=1.0,
            max_iters=1, validate=True,
        )
        result = run(problem, exact_oracle(problem), config)
        alpha = 0.1 / 1.1
        assert np.array_equal(
            result.x_final, problem.x0 + alpha * np.array([-0.5, -1.0])
        )
        trace = result.trace
        assert trace.alpha[0] == alpha
        assert trace.dq_stoch[0] == pytest.approx(0.5875, abs=1e-15)
        assert trace.xi_trial[0] == pytest.approx(4.7, abs=1e-14)
        assert trace.tau_trial_true[0] == math.inf

    def test_deterministic_convergence_on_toy_qp(self):
        rng = np.random.default_rng(0)
        problem, p_mat, x_star, y_star = constrained_quadratic(rng)
        lip = float(np.linalg.norm(p_mat, 2))
        config = SolverConfig(
            merit=MeritParams(), lip_gradf=lip, lip_jac=1e-6,
            beta=BetaSchedule(family="constant"), max_iters=10_000,
            validate=True,
        )
        result = run(problem, exact_oracle(problem), config)
        assert np.nanmin(result.trace.resid_true) <= 1e-6
        assert np.linalg.norm(result.x_final - x_star) <= 1e-6
        assert np.linalg.norm(result.trace.y[-1] - y_star) <= 1e-6

    def test_bit_reproducible_given_seed(self, bundled_instance):
        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(
            merit=MeritParams(), lip_gradf=lip_gradf, lip_jac=lip_jac,
            batch_size=16, max_iters=50, seed=9, validate=True,
        )
        first = run(problem, bundled_instance.minibatch_oracle(), config)
        second = run(problem, bundled_instance.minibatch_oracle(), config)
        assert np.array_equal(first.trace.x, second.trace.x)
        assert np.array_equal(first.trace.y, second.trace.y)
        assert np.array_equal(first.x_final, second.x_final)

        def gradients():
            oracle = bundled_instance.minibatch_oracle()
            return np.array([step.g for step in iterate(problem, oracle, config)])

        assert np.array_equal(gradients(), gradients())

    def test_step_size_linearity_across_iterations(self, bundled_instance):
        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(
            merit=MeritParams(), lip_gradf=lip_gradf, lip_jac=lip_jac,
            beta=BetaSchedule(p=0.7), batch_size=4, max_iters=200,
        )
        trace = run(problem, bundled_instance.minibatch_oracle(), config).trace
        alpha1, beta1 = trace.alpha[0], trace.beta[0]
        assert np.allclose(trace.alpha, trace.beta * alpha1 / beta1, rtol=1e-14)
        assert np.all(trace.alpha <= alpha1)

    def test_stored_iterates_satisfy_update_exactly(self):
        problem = _worked_problem()
        config = SolverConfig(merit=MeritParams(), lip_gradf=1.0, lip_jac=1.0, max_iters=5)
        trace = run(problem, exact_oracle(problem), config).trace
        steps = list(iterate(problem, exact_oracle(problem), config))
        for i in range(4):
            expected = trace.x[i] + trace.alpha[i] * steps[i].sol.d
            assert np.array_equal(trace.x[i + 1], expected)

    @pytest.mark.parametrize("validate", [False, True])
    def test_run_never_evaluates_the_objective(self, validate):
        calls = []
        base = sphere_problem()

        def objective(x):
            calls.append(x)
            return base.objective(x)

        problem = Problem(n=2, m=1, objective=objective, gradient=base.gradient,
                          constraints=base.constraints, jacobian=base.jacobian, x0=base.x0)
        config = SolverConfig(merit=MeritParams(), lip_gradf=1.0, lip_jac=2.0,
                              max_iters=20, validate=validate)
        run(problem, gaussian_oracle(problem, sigma=0.5), config)
        assert calls == []

    def test_protocol_regime_run_has_no_violations(self, bundled_instance):
        # Damping 1/k with unit start: iterates stay pre-asymptotic and the
        # fixed merit/ratio parameters remain admissible at every iterate.
        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(
            merit=MeritParams(tau=0.1, xi=1.0), lip_gradf=lip_gradf, lip_jac=lip_jac,
            beta=BetaSchedule(family="power", beta1=1.0, p=1.0),
            batch_size=16, max_iters=10_000, seed=5, validate=True,
        )
        result = run(problem, bundled_instance.minibatch_oracle(), config)
        assert result.trace.validation_summary().clean
        assert np.all(result.trace.xi_trial >= 1.0)
        assert np.all(result.trace.tau_trial_true >= 0.1)

    def test_deterministic_merit_descent(self, bundled_instance):
        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(
            merit=MeritParams(), lip_gradf=lip_gradf, lip_jac=lip_jac,
            beta=BetaSchedule(family="constant"), max_iters=3_000,
            validate=True,
        )
        result = run(problem, exact_oracle(problem), config)
        assert result.trace.validation_summary().clean
        merit = [phi(config.merit.tau, float(problem.objective(x)), problem.constraints(x))
                 for x in result.trace.x]
        assert np.all(np.diff(merit) <= 1e-12)

    def test_violations_are_surfaced_not_fatal(self):
        # An oversized ratio parameter cannot stay below its trial value.
        problem = _worked_problem()
        config = SolverConfig(
            merit=MeritParams(tau=0.1, xi=50.0), lip_gradf=1.0, lip_jac=1.0,
            max_iters=3, validate=True,
        )
        summary = run(problem, exact_oracle(problem), config).trace.validation_summary()
        assert summary.xi_violations == 3
        assert summary.first_xi_violation == 1
        assert not summary.clean

    def test_evaluator_failure_reports_iterate_index(self):
        calls = {"n": 0}

        def flaky_gradient(x):
            calls["n"] += 1
            if calls["n"] > 4:
                return np.array([np.nan, 0.0])
            return np.array([1.0, 0.0])

        base = sphere_problem()
        problem = Problem(n=2, m=1, objective=base.objective, gradient=flaky_gradient,
                          constraints=base.constraints, jacobian=base.jacobian,
                          x0=np.array([0.3, 1.0]))
        config = SolverConfig(merit=MeritParams(), lip_gradf=1.0, lip_jac=2.0, max_iters=50)
        with pytest.raises(EvaluationError, match="iteration"):
            run(problem, exact_oracle(problem), config)

    def test_non_finite_exact_gradient_reports_iterate_index(self):
        # The oracle stays finite; only the exact gradient of the shadow
        # solve turns NaN, from its 4th call (iteration 4) on.
        calls = {"n": 0}
        base = sphere_problem()

        def flaky_gradient(x):
            calls["n"] += 1
            return np.array([np.nan if calls["n"] >= 4 else 1.0, 0.0])

        problem = Problem(n=2, m=1, objective=base.objective, gradient=flaky_gradient,
                          constraints=base.constraints, jacobian=base.jacobian, x0=base.x0)
        config = SolverConfig(merit=MeritParams(), lip_gradf=1.0, lip_jac=2.0,
                              max_iters=10, validate=True)
        with pytest.raises(EvaluationError, match="^iteration 4: exact gradient"):
            run(problem, exact_oracle(base), config)

    def test_missing_initial_point_rejected(self):
        base = sphere_problem()
        problem = Problem(n=2, m=1, objective=base.objective, gradient=base.gradient,
                          constraints=base.constraints, jacobian=base.jacobian)
        config = SolverConfig(merit=MeritParams(), lip_gradf=1.0, lip_jac=2.0, max_iters=2)
        with pytest.raises(ConfigError):
            run(problem, exact_oracle(problem), config)


class TestLedger:
    """A trace computes its diagnostics from its ledger of inner products
    on each read; they must equal the row-by-row helpers bit for bit.

    The exception is ``resid_true``: the ledger forms it as ``||d_true||
    + ||c||``, which equals the row-by-row ``kkt_residual`` in exact
    arithmetic only (about 1e-13 relative over 1e5 protocol rows)."""

    @staticmethod
    def _assert_same_run(problem, oracle_factory, config):
        result = run(problem, oracle_factory(), config)
        columns, x_final, summary = row_by_row_run(problem, oracle_factory(), config)
        for name, want in columns.items():
            got = getattr(result.trace, name)
            if want is None:
                assert got is None, name
                continue
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), name
            if name == "resid_true":
                np.testing.assert_allclose(got[~nan], want[~nan], rtol=1e-12, atol=0, err_msg=name)
            else:
                # Same bits, signed zeros included; NaN matches NaN.
                assert got[~nan].tobytes() == want[~nan].tobytes(), name
        assert np.array_equal(result.x_final, x_final)
        assert result.trace.validation_summary() == summary
        return result

    @pytest.mark.parametrize("validate", [False, True])
    def test_trace_stores_floats_per_iteration(self, validate):
        n, m, iters = 30, 11, 7
        trace = Trace(n, m, iters, validate, MeritParams())
        stored = sum(a.nbytes for a in vars(trace).values() if isinstance(a, np.ndarray))
        assert stored == 8 * iters * Trace.floats_per_iteration(n, m, validate)

    @pytest.mark.parametrize("validate", [False, True])
    def test_bundled(self, bundled_instance, validate):
        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(
            merit=MeritParams(), lip_gradf=lip_gradf, lip_jac=lip_jac,
            batch_size=16, max_iters=300, seed=2, validate=validate,
        )
        self._assert_same_run(problem, bundled_instance.minibatch_oracle, config)

    def test_trial_value_violations(self, bundled_instance):
        # An oversized merit parameter exceeds both trial values.
        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(
            merit=MeritParams(tau=20.0), lip_gradf=lip_gradf, lip_jac=lip_jac,
            batch_size=16, max_iters=200, seed=4, validate=True,
        )
        summary = self._assert_same_run(
            problem, bundled_instance.minibatch_oracle, config
        ).trace.validation_summary()
        assert summary.xi_violations and summary.tau_violations
        assert summary.first_xi_violation and summary.first_tau_violation

    def test_violations_of_the_worked_problem(self):
        problem = _worked_problem()
        config = SolverConfig(
            merit=MeritParams(tau=0.1, xi=50.0), lip_gradf=1.0, lip_jac=1.0,
            max_iters=3, validate=True,
        )
        result = self._assert_same_run(problem, lambda: exact_oracle(problem), config)
        assert result.trace.validation_summary().xi_violations == 3

    def test_zero_step(self):
        # At the minimizer (-1, 0) of the sphere toy every step is zero.
        problem = sphere_problem(x0=(-1.0, 0.0))
        config = SolverConfig(merit=MeritParams(), lip_gradf=1.0, lip_jac=2.0,
                              max_iters=3, validate=True)
        result = self._assert_same_run(problem, lambda: exact_oracle(problem), config)
        assert np.all(result.trace.xi_trial == math.inf)
        assert np.all(result.trace.tau_trial_true == math.inf)
        assert result.trace.validation_summary().clean


class TestModelMatrixRoutes:
    """The loop's one model matrix, the identity, against the dense oracle."""

    def test_steps_match_dense_oracle(self):
        problem, p_mat, _, _ = constrained_quadratic(np.random.default_rng(21))
        config = SolverConfig(
            merit=MeritParams(), lip_gradf=float(np.linalg.norm(p_mat, 2)), lip_jac=1e-6,
            max_iters=60, seed=3, validate=True,
        )
        oracle = gaussian_oracle(problem, sigma=0.5)
        trace = run(problem, oracle, config).trace
        steps = list(iterate(problem, oracle, config))
        assert len(steps) == len(trace)
        eye = np.eye(problem.n)
        for step, x, y_true in zip(steps, trace.x, trace.y_true):
            assert np.array_equal(step.x, x)
            d_ref, y_ref = dense_kkt_solve(eye, step.jac, step.g, step.c)
            assert np.linalg.norm(step.sol.d - d_ref) <= 1e-9 * (1.0 + np.linalg.norm(d_ref))
            assert np.linalg.norm(step.sol.y - y_ref) <= 1e-9 * (1.0 + np.linalg.norm(y_ref))
            _, y_exact = dense_kkt_solve(eye, step.jac, problem.gradient(x), step.c)
            assert np.linalg.norm(y_true - y_exact) <= 1e-9 * (1.0 + np.linalg.norm(y_exact))

    def test_exact_oracle_shadow_multiplier_is_bitwise_equal(self, bundled_instance):
        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(merit=MeritParams(), lip_gradf=lip_gradf, lip_jac=lip_jac,
                              beta=BetaSchedule("constant"), max_iters=50, validate=True)
        trace = run(problem, exact_oracle(problem), config).trace
        assert np.array_equal(trace.y, trace.y_true)


class TestTrueShadow:
    def test_equals_stochastic_solution_without_noise(self):
        problem = _worked_problem()
        x = problem.x0
        d, y = true_shadow(problem, x, np.eye(2))
        config = SolverConfig(merit=MeritParams(), lip_gradf=1.0, lip_jac=1.0, max_iters=1)
        step = next(iterate(problem, exact_oracle(problem), config))
        assert np.array_equal(step.sol.d, d)
        assert np.array_equal(step.sol.y, y)

    def test_worked_example(self):
        d, y = true_shadow(_worked_problem(), np.array([2.0, 3.0]), np.eye(2))
        assert np.allclose(d, [-0.5, -1.0], atol=1e-14)
        assert np.allclose(y, [-0.5], atol=1e-14)

    def test_step_estimator_is_unbiased(self, bundled_instance):
        # The subproblem is linear in the gradient estimate, so the mean
        # of the stochastic steps matches the exact-gradient step.
        problem = bundled_instance.problem()
        oracle = bundled_instance.minibatch_oracle()
        x = bundled_instance.x1
        hess = np.eye(problem.n)
        d_true, _ = true_shadow(problem, x, hess)

        rng = np.random.default_rng(17)
        draws = 4000
        jac = problem.jacobian(x)
        c = problem.constraints(x)
        total = np.zeros(problem.n)
        total_sq = np.zeros(problem.n)
        for _ in range(draws):
            g = sample_gradient(oracle, x, 16, rng)
            d = solve_kkt(hess, jac, g, c).d
            total += d
            total_sq += d * d
        mean = total / draws
        std = np.sqrt(np.maximum(total_sq / draws - mean**2, 0.0))
        tol = 4.0 * std / np.sqrt(draws) + 1e-12
        assert np.all(np.abs(mean - d_true) <= tol)


class TestStationarityResidual:
    def test_zero_at_reference_pair(self):
        problem = sphere_problem()
        x_star = np.array([-1.0, 0.0])
        assert stationarity_residual(problem, x_star, np.array([0.5])) <= 1e-14

    def test_least_squares_y_minimizes_gradient_term(self, bundled_instance):
        problem = bundled_instance.problem()
        x = bundled_instance.x1
        jac = problem.jacobian(x)
        y_ls = least_squares_y(jac, problem.gradient(x))
        base = stationarity_residual(problem, x, y_ls)
        rng = np.random.default_rng(18)
        for _ in range(20):
            perturbed = y_ls + 0.1 * rng.standard_normal(y_ls.size)
            assert stationarity_residual(problem, x, perturbed) >= base - 1e-12

    def test_feasible_point_has_no_constraint_term(self):
        problem = sphere_problem()
        x = np.array([0.6, 0.8])
        y = np.array([3.0])
        expected = np.linalg.norm(problem.gradient(x) + problem.jacobian(x).T @ y)
        assert stationarity_residual(problem, x, y) == pytest.approx(expected, abs=1e-14)


    def test_kkt_residual_same_bits_as_the_norm_formula(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(1, 31))
            m = int(rng.integers(1, n + 1))
            grad, y, c = (rng.standard_normal(k) * 10.0 ** rng.uniform(-8, 8) for k in (n, m, m))
            jac = rng.standard_normal((m, n))
            expected = float(np.linalg.norm(grad + jac.T @ y) + np.linalg.norm(c))
            got = kkt_residual(grad, jac, c, y)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_accepts_lists(self, bundled_instance):
        # As the benchmark's output check passes a reference read from JSON.
        problem = bundled_instance.problem()
        x = bundled_instance.x1
        y = least_squares_y(problem.jacobian(x), problem.gradient(x))
        expected = stationarity_residual(problem, x, y)
        assert stationarity_residual(problem, x.tolist(), y.tolist()) == expected

