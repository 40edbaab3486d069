"""Iteration loop, step-size rule, schedules, and run diagnostics."""

import dataclasses
import math
import re

import numpy as np
import pytest

from stochsqp import (
    ConfigError,
    EvaluationError,
    Problem,
    SolverConfig,
    StochasticGradientOracle,
    exact_oracle,
    iterate,
    kkt_residual,
    run,
    step_size,
    solve_kkt,
    phi,
)

from conftest import (
    assert_iterate_draws_one_sample_per_step,
    constrained_quadratic,
    dense_kkt_solve,
    gaussian_oracle,
    least_squares_y,
    row_by_row_run,
    sphere_problem,
    true_shadow,
)
from stochsqp import solver
from stochsqp.logreg import Dataset, build_instance
from stochsqp.problem import sample_gradient
from stochsqp.solver import Trace, stationarity_residual


class TestStepSize:
    def test_worked_value(self):
        alpha = step_size(SolverConfig(), 1.0)
        assert type(alpha) is float
        assert alpha == 1.0 * 0.1 * 1.0 / (0.1 * 1.0 + 1.0)
        assert alpha == pytest.approx(0.09090909090909091, abs=1e-15)

    def test_linear_in_beta(self):
        full = step_size(SolverConfig(), 1.0)
        assert step_size(SolverConfig(), 0.5) == 0.5 * full

    def test_protocol_first_step(self):
        tau, xi, lip, jac = 0.1, 1.0, 3.0, 2.0
        config = SolverConfig(tau=tau, xi=xi, lip_gradf=lip, lip_jac=jac)
        assert step_size(config, 1.0) == tau * xi / (tau * lip + jac)

    # The first two are rejected by SolverConfig before step_size runs.
    # The fifth and sixth are valid inputs whose step size overflows (tau *
    # lip_gradf is inf) or underflows to 0; the last two are arrays with
    # one bad element.
    @pytest.mark.parametrize("bad", [dict(tau=0.0), dict(xi=-1.0), dict(beta_k=0.0), dict(beta_k=1.5),
                                     dict(tau=1e308, lip_gradf=10.0),
                                     dict(tau=1e-300, beta_k=1e-300),
                                     dict(beta_k=np.array([1.0, 1.5])),
                                     dict(tau=1e-300, beta_k=np.array([1.0, 1e-300]))])
    def test_input_validation(self, bad):
        kwargs = dict(tau=0.1, xi=1.0, lip_gradf=1.0, lip_jac=1.0, beta_k=1.0)
        kwargs.update(bad)
        beta_k = kwargs.pop("beta_k")
        with pytest.raises(ValueError):
            step_size(SolverConfig(**kwargs), beta_k)

    def test_array_names_the_first_failing_step(self):
        with pytest.raises(ValueError, match=r"^step size 0\.0 .* beta=1e-300$"):
            step_size(SolverConfig(tau=1e-300), np.array([1.0, 1e-300, 1e-310]))


class TestBetaSchedule:
    """The damping sequence ``beta_k = k**-p`` of ``SolverConfig.beta_p``."""

    def test_default_family(self):
        beta = SolverConfig(max_iters=4).damping()
        assert beta[0] == 1.0
        assert beta[3] == 0.25

    @pytest.mark.parametrize("p", [0.51, 1.0, 0.0], ids=["p=0.51", "p=1", "constant"])
    def test_sequence_has_the_scalar_bits(self, p):
        # numpy's vector power differs from the scalar one in the last bit
        # for some k, so the sequence must be built from the scalar.
        iters = 100_000
        tau, xi, lip_gradf, lip_jac = 0.1, 1.0, 3.7, 2.3
        scalar = [float(k) ** -p for k in range(1, iters + 1)]
        betas = SolverConfig(beta_p=p, max_iters=iters).damping()
        assert betas.tobytes() == np.array(scalar).tobytes()
        den = tau * lip_gradf + lip_jac
        config = SolverConfig(tau=tau, xi=xi, lip_gradf=lip_gradf, lip_jac=lip_jac)
        alphas = step_size(config, betas)
        assert alphas.tobytes() == np.array([b * tau * xi / den for b in scalar]).tobytes()

    def test_decay_exponent_contract(self):
        # Any p in [0, 1] is a schedule; whether the oracle admits it is
        # check_oracle's question.
        message = r"^damping decay exponent p must lie in \[0, 1\]$"
        for bad in (-0.1, 1.2, math.nan):
            with pytest.raises(ConfigError, match=message):
                SolverConfig(beta_p=bad)
        for p in (0.0, 0.4, 0.5, 0.51, 1.0):
            SolverConfig(beta_p=p).check_oracle(exact=True)
        with pytest.raises(ConfigError, match="exact-gradient"):
            SolverConfig(beta_p=0.4).check_oracle(exact=False)
        SolverConfig(beta_p=0.51).check_oracle(exact=False)  # boundary-interior value accepted

    def test_zero_exponent_is_constant_damping(self):
        n = 10_000
        assert SolverConfig(beta_p=0.0, max_iters=n).damping().tobytes() == np.ones(n).tobytes()

    def test_constant_family_requires_exact_oracle(self):
        # p <= 1/2, constant damping (p = 0) among them, needs exact gradients.
        problem = sphere_problem()
        for p in (0.0, 0.3, 0.5):
            config = SolverConfig(
                lip_gradf=1.0, lip_jac=2.0,
                beta_p=p, max_iters=5,
            )
            with pytest.raises(ConfigError, match="exact-gradient"):
                next(iterate(problem, gaussian_oracle(problem, sigma=1.0), config))
            run(problem, exact_oracle(problem), config)  # accepted


def _bad_config(message, **kwargs):
    return pytest.param(kwargs, message, id="-".join(f"{k}-{v}" for k, v in kwargs.items()))


_TAU, _XI, _NU = ("tau must be positive and finite", "xi must be positive and finite",
                  "nu must lie in (0, 1)")


class TestSolverConfig:
    # The merit parameters are checked first: tau=0 with batch_size=0
    # names tau.
    @pytest.mark.parametrize("kwargs, message", [
        _bad_config("Lipschitz constants must be > 0", lip_gradf=0.0),
        _bad_config("Lipschitz constants must be > 0", lip_jac=-1.0),
        _bad_config("batch_size must be >= 1", batch_size=0),
        _bad_config("max_iters must be >= 1", max_iters=0),
        _bad_config("seed must be >= 0", seed=-1),
        _bad_config(_TAU, tau=0.0),
        _bad_config(_XI, xi=-1.0),
        _bad_config(_NU, nu=1.0),
        _bad_config(_NU, nu=0.0),
        _bad_config(_TAU, tau=math.inf),
        _bad_config(_XI, xi=math.inf),
        _bad_config(_TAU, tau=0.0, batch_size=0),
    ])
    def test_bad_values_rejected(self, kwargs, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SolverConfig(**kwargs)

    def test_is_frozen(self):
        config = SolverConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_iters = 5


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
            tau=0.1, xi=1.0, lip_gradf=1.0, lip_jac=1.0,
            max_iters=1, validate=True,
        )
        trace = run(problem, exact_oracle(problem), config)
        alpha = 0.1 / 1.1
        assert np.array_equal(
            trace.x_final, problem.x0 + alpha * np.array([-0.5, -1.0])
        )
        assert trace.alpha[0] == alpha
        assert trace.dq_stoch[0] == pytest.approx(0.5875, abs=1e-15)
        assert trace.xi_trial[0] == pytest.approx(4.7, abs=1e-14)
        assert trace.tau_trial_true[0] == math.inf

    def test_deterministic_convergence_on_toy_qp(self):
        rng = np.random.default_rng(0)
        problem, p_mat, x_star, y_star = constrained_quadratic(rng)
        lip = float(np.linalg.norm(p_mat, 2))
        config = SolverConfig(
            lip_gradf=lip, lip_jac=1e-6,
            beta_p=0.0, max_iters=10_000,
            validate=True,
        )
        trace = run(problem, exact_oracle(problem), config)
        assert np.nanmin(trace.resid_true) <= 1e-6
        assert np.linalg.norm(trace.x_final - x_star) <= 1e-6
        assert np.linalg.norm(trace.y[-1] - y_star) <= 1e-6

    def test_bit_reproducible_given_seed(self, bundled_instance):
        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(
            lip_gradf=lip_gradf, lip_jac=lip_jac,
            batch_size=16, max_iters=50, seed=9, validate=True,
        )
        first = run(problem, bundled_instance.minibatch_oracle(), config)
        second = run(problem, bundled_instance.minibatch_oracle(), config)
        assert np.array_equal(first.x, second.x)
        assert np.array_equal(first.y, second.y)
        assert np.array_equal(first.x_final, second.x_final)

        def gradients():
            oracle = bundled_instance.minibatch_oracle()
            return np.array([step.g for step in iterate(problem, oracle, config)])

        assert np.array_equal(gradients(), gradients())

    def test_step_size_linearity_across_iterations(self, bundled_instance):
        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(
            lip_gradf=lip_gradf, lip_jac=lip_jac,
            beta_p=0.7, batch_size=4, max_iters=200,
        )
        trace = run(problem, bundled_instance.minibatch_oracle(), config)
        alpha_1, beta_1 = trace.alpha[0], trace.beta[0]
        assert np.allclose(trace.alpha, trace.beta * alpha_1 / beta_1, rtol=1e-14)
        assert np.all(trace.alpha <= alpha_1)

    @pytest.mark.parametrize("iters", [1, 40])
    def test_schedule_is_computed_once_per_run(self, monkeypatch, iters):
        calls = []

        def counting_step_size(*args):
            calls.append(args)
            return step_size(*args)

        monkeypatch.setattr(solver, "step_size", counting_step_size)
        problem = _worked_problem()
        config = SolverConfig(lip_gradf=1.0, lip_jac=1.0,
                              max_iters=iters, validate=True)
        trace = run(problem, exact_oracle(problem), config)
        assert len(calls) == 1 and len(trace) == iters

    def test_schedule_columns_are_cached_read_only_arrays(self):
        problem = _worked_problem()
        config = SolverConfig(lip_gradf=1.0, lip_jac=1.0, max_iters=5)
        trace = run(problem, exact_oracle(problem), config)
        for name in ("alpha", "beta"):
            column = getattr(trace, name)
            assert getattr(trace, name) is column
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.5
        assert np.array_equal(trace.beta, config.damping())

    def test_stored_iterates_satisfy_update_exactly(self):
        problem = _worked_problem()
        config = SolverConfig(lip_gradf=1.0, lip_jac=1.0, max_iters=5)
        trace = run(problem, exact_oracle(problem), config)
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
        config = SolverConfig(lip_gradf=1.0, lip_jac=2.0,
                              max_iters=20, validate=validate)
        run(problem, gaussian_oracle(problem, sigma=0.5), config)
        assert calls == []

    def test_protocol_regime_run_has_no_violations(self, bundled_instance):
        # Damping 1/k with unit start: iterates stay pre-asymptotic and the
        # fixed merit/ratio parameters remain admissible at every iterate.
        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(
            tau=0.1, xi=1.0, lip_gradf=lip_gradf, lip_jac=lip_jac,
            beta_p=1.0,
            batch_size=16, max_iters=10_000, seed=5, validate=True,
        )
        trace = run(problem, bundled_instance.minibatch_oracle(), config)
        assert trace.validation_summary().clean
        assert np.all(trace.xi_trial >= 1.0)
        assert np.all(trace.tau_trial_true >= 0.1)

    def test_deterministic_merit_descent(self, bundled_instance):
        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(
            lip_gradf=lip_gradf, lip_jac=lip_jac,
            beta_p=0.0, max_iters=3_000,
            validate=True,
        )
        trace = run(problem, exact_oracle(problem), config)
        assert trace.validation_summary().clean
        merit = [phi(config.tau, float(problem.objective(x)), problem.constraints(x))
                 for x in trace.x]
        assert np.all(np.diff(merit) <= 1e-12)

    def test_violations_are_surfaced_not_fatal(self):
        # An oversized ratio parameter cannot stay below its trial value.
        problem = _worked_problem()
        config = SolverConfig(
            tau=0.1, xi=50.0, lip_gradf=1.0, lip_jac=1.0,
            max_iters=3, validate=True,
        )
        summary = run(problem, exact_oracle(problem), config).validation_summary()
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
        config = SolverConfig(lip_gradf=1.0, lip_jac=2.0, max_iters=50)
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
        config = SolverConfig(lip_gradf=1.0, lip_jac=2.0,
                              max_iters=10, validate=True)
        with pytest.raises(EvaluationError, match="^iteration 4: exact gradient"):
            run(problem, exact_oracle(base), config)

    def test_missing_initial_point_rejected(self):
        base = sphere_problem()
        callables = dict(objective=base.objective, gradient=base.gradient,
                         constraints=base.constraints, jacobian=base.jacobian)
        with pytest.raises(TypeError, match="x0"):
            Problem(n=2, m=1, **callables)
        with pytest.raises(ValueError, match="x0 has wrong dimension"):
            Problem(n=2, m=1, x0=None, **callables)


@pytest.fixture(scope="module")
def instances_by_samples(bundled_instance):
    """Logistic instances with N = 1, 200 (the bundled data) and 32561 (a9a's N)."""
    def random_instance(n_samples, n=6):
        rng = np.random.default_rng(n_samples)
        labels = rng.choice([-1.0, 1.0], size=n_samples)
        dataset = Dataset(features=rng.standard_normal((n_samples, n)), labels=labels)
        return build_instance(dataset, m_lin=2, seed=0)

    return {1: random_instance(1), 200: bundled_instance, 32561: random_instance(32561)}


def _steps_around_a_block(batch):
    """Run lengths below, at and across the first block boundary."""
    per_block = solver.rows_per_block(batch)
    return sorted({max(1, per_block - 1), per_block, per_block + 1})


class TestBlockDraws:
    """A run draws its mini-batches a block of steps per generator call,
    with the rows and final generator state of one draw per step."""

    @pytest.mark.parametrize("block", ["one-row", 1, 16])
    @pytest.mark.parametrize("oracle", [1, 200, 32561, "gaussian"])
    @pytest.mark.parametrize("seed", range(5))
    def test_rows_are_one_draw_per_step(self, instances_by_samples, monkeypatch, seed, oracle, block):
        # A small block puts its boundaries within a few dozen steps.
        monkeypatch.setattr(solver, "DRAW_BLOCK", 64)
        batch = solver.DRAW_BLOCK + 1 if block == "one-row" else block
        inst = instances_by_samples[200 if oracle == "gaussian" else oracle]
        problem = inst.problem()
        draws = gaussian_oracle(problem, 1.0) if oracle == "gaussian" else inst.minibatch_oracle()
        lip_gradf, lip_jac = inst.lipschitz_bounds()
        for iters in _steps_around_a_block(batch):
            config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac, batch_size=batch,
                                  max_iters=iters, seed=seed)
            assert_iterate_draws_one_sample_per_step(problem, draws, config)

    @pytest.mark.parametrize("batch", [16, solver.DRAW_BLOCK + 1])
    @pytest.mark.parametrize("n_samples", [1, 200, 32561])
    def test_shipped_block_size(self, instances_by_samples, n_samples, batch):
        inst = instances_by_samples[n_samples]
        lip_gradf, lip_jac = inst.lipschitz_bounds()
        config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac, batch_size=batch,
                              max_iters=_steps_around_a_block(batch)[-1], seed=n_samples)
        assert_iterate_draws_one_sample_per_step(inst.problem(), inst.minibatch_oracle(), config)


class TestLedger:
    """A trace computes its diagnostics from its ledger of inner products
    on each read; they must equal the row-by-row helpers bit for bit.

    The exception is ``resid_true``: the ledger forms it as ``||d_true||
    + ||c||``, which equals the row-by-row ``kkt_residual`` in exact
    arithmetic only (about 1e-13 relative over 1e5 protocol rows)."""

    @staticmethod
    def _assert_same_run(problem, oracle_factory, config):
        trace = run(problem, oracle_factory(), config)
        columns, x_final, summary = row_by_row_run(problem, oracle_factory(), config)
        for name, want in columns.items():
            got = getattr(trace, name)
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
        assert np.array_equal(trace.x_final, x_final)
        assert trace.validation_summary() == summary
        return trace

    @pytest.mark.parametrize("validate", [False, True])
    def test_trace_stores_floats_per_iteration(self, validate):
        n, m, iters = 30, 11, 7
        trace = Trace(n, m, SolverConfig(max_iters=iters, validate=validate))
        stored = sum(a.nbytes for a in vars(trace).values() if isinstance(a, np.ndarray))
        assert stored == 8 * iters * Trace.floats_per_iteration(n, m, validate)

    @pytest.mark.parametrize("validate", [False, True])
    def test_bundled(self, bundled_instance, validate):
        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(
            lip_gradf=lip_gradf, lip_jac=lip_jac,
            batch_size=16, max_iters=300, seed=2, validate=validate,
        )
        self._assert_same_run(problem, bundled_instance.minibatch_oracle, config)

    def test_trial_value_violations(self, bundled_instance):
        # An oversized merit parameter exceeds both trial values.
        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(
            tau=20.0, lip_gradf=lip_gradf, lip_jac=lip_jac,
            batch_size=16, max_iters=200, seed=4, validate=True,
        )
        summary = self._assert_same_run(
            problem, bundled_instance.minibatch_oracle, config
        ).validation_summary()
        assert summary.xi_violations and summary.tau_violations
        assert summary.first_xi_violation and summary.first_tau_violation

    def test_violations_of_the_worked_problem(self):
        problem = _worked_problem()
        config = SolverConfig(
            tau=0.1, xi=50.0, lip_gradf=1.0, lip_jac=1.0,
            max_iters=3, validate=True,
        )
        trace = self._assert_same_run(problem, lambda: exact_oracle(problem), config)
        assert trace.validation_summary().xi_violations == 3

    def test_zero_step(self):
        # At the minimizer (-1, 0) of the sphere toy every step is zero.
        problem = sphere_problem(x0=(-1.0, 0.0))
        config = SolverConfig(lip_gradf=1.0, lip_jac=2.0,
                              max_iters=3, validate=True)
        trace = self._assert_same_run(problem, lambda: exact_oracle(problem), config)
        assert np.all(trace.xi_trial == math.inf)
        assert np.all(trace.tau_trial_true == math.inf)
        assert trace.validation_summary().clean


class TestModelMatrixRoutes:
    """The loop's one model matrix, the identity, against the dense oracle."""

    def test_steps_match_dense_oracle(self):
        problem, p_mat, _, _ = constrained_quadratic(np.random.default_rng(21))
        config = SolverConfig(
            lip_gradf=float(np.linalg.norm(p_mat, 2)), lip_jac=1e-6,
            max_iters=60, seed=3, validate=True,
        )
        oracle = gaussian_oracle(problem, sigma=0.5)
        trace = run(problem, oracle, config)
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
        config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac,
                              beta_p=0.0, max_iters=50, validate=True)
        trace = run(problem, exact_oracle(problem), config)
        assert np.array_equal(trace.y, trace.y_true)


class TestTrueShadow:
    def test_equals_stochastic_solution_without_noise(self):
        problem = _worked_problem()
        x = problem.x0
        d, y = true_shadow(problem, x, np.eye(2))
        config = SolverConfig(lip_gradf=1.0, lip_jac=1.0, max_iters=1)
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

