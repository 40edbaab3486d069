"""Experiment driver: reference solves, CSV traces, CLI, diagnostics."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy

from stochsqp import (
    ConfigError,
    EvaluationError,
    Problem,
    RankError,
    ReferenceSolveError,
    SolverConfig,
    exact_oracle,
    run,
)
import stochsqp
from stochsqp import averaging, harness, solver
from stochsqp.logreg import INSTANCE_SEED, ConstrainedLogRegInstance, build_instance
from stochsqp.harness import (
    ExperimentConfig,
    ReferenceSolution,
    compute_reference,
    csv_columns,
    main,
    parse_config_file,
    run_experiment,
    write_trace_csv,
)

from conftest import constrained_quadratic, oracle_problem, sphere_problem

#: The sphere toy's Lipschitz bounds and the default step rule.
SPHERE = SolverConfig(lip_gradf=0.5, lip_jac=2.0)


class TestComputeReference:
    def test_toy_qp_matches_closed_form(self):
        rng = np.random.default_rng(0)
        problem, p_mat, x_star, y_star = constrained_quadratic(rng)
        lip = float(np.linalg.norm(p_mat, 2))
        ref = compute_reference(problem, SolverConfig(lip_gradf=lip, lip_jac=1e-6), tol=1e-8)
        assert np.linalg.norm(ref.x - x_star) <= 1e-8
        assert np.linalg.norm(ref.y - y_star) <= 1e-8

    def test_sphere_toy_lagrange_conditions(self):
        ref = compute_reference(sphere_problem(), SPHERE, tol=1e-10)
        assert np.allclose(ref.x, [-1.0, 0.0], atol=1e-9)
        assert ref.y == pytest.approx(0.5, abs=1e-9)

    def test_deterministic_reruns_identical(self):
        a = compute_reference(sphere_problem(), SPHERE)
        b = compute_reference(sphere_problem(), SPHERE)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert a.iterations == b.iterations

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(harness, "REFERENCE_MAX_ITERS", 5)
        with pytest.raises(ReferenceSolveError, match="in 5 iterations .best residual"):
            compute_reference(sphere_problem(), SPHERE, tol=1e-16)

    def test_stalled_residual_stops_the_solve(self, monkeypatch, bundled_dataset):
        # m = n = 30 leaves no feasible point: the residual stalls near 5
        # while Newton steps are still accepted.  The lowered budget
        # bounds the solve if the stall goes unseen.
        instance = build_instance(bundled_dataset, m_lin=29, seed=INSTANCE_SEED)
        problem, calls = instance.problem(), []

        def jacobian(x):
            calls.append(1)
            return problem.jacobian(x)

        monkeypatch.setattr(harness, "REFERENCE_MAX_ITERS", 5000)
        lip_gradf, lip_jac = instance.lipschitz_bounds()
        config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac)
        with pytest.raises(ReferenceSolveError, match="stalled .* best residual 5"):
            compute_reference(dataclasses.replace(problem, jacobian=jacobian), config)
        assert len(calls) <= 2000

    def test_slow_steady_solve_outlasts_the_stall_window(self, bundled_instance):
        # Without a Hessian at xi = 1/2 the bundled solve takes more
        # iterates than the stall window, its residual falling throughout.
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        problem = dataclasses.replace(bundled_instance.problem(), lagrangian_hessian=None)
        ref = compute_reference(problem, SolverConfig(xi=0.5, lip_gradf=lip_gradf,
                                                      lip_jac=lip_jac))
        assert ref.residual <= harness.REFERENCE_TOL
        assert ref.iterations > harness._STALL_ITERS

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        def unexpected(*_):
            raise AssertionError("the problem was evaluated")

        problem = dataclasses.replace(sphere_problem(), objective=unexpected, gradient=unexpected,
                                      constraints=unexpected, jacobian=unexpected)
        with pytest.raises(ConfigError, match="tol must be finite and > 0"):
            compute_reference(problem, SPHERE, tol=tol)

    @pytest.mark.parametrize("solve", ["compute_reference", "run"])
    @pytest.mark.parametrize("fault, error, message", [
        ("nan-constraints", EvaluationError, "problem evaluator returned a non-finite value"),
        ("nan-jacobian", EvaluationError, "problem evaluator returned a non-finite value"),
        ("rank-deficient", RankError,
         "jacobian is rank deficient: sigma_min=0.000e+00, sigma_max=0.000e+00"),
    ])
    def test_failure_names_its_iterate_as_run_does(self, solve, fault, error, message):
        # Without a Hessian both solves evaluate c and J once per iterate,
        # so the 3rd evaluation belongs to iteration 3.
        toy, evaluations = sphere_problem(), []

        def from_third(evaluator, bad):
            def evaluate(x):
                evaluations.append(1)
                return bad if len(evaluations) >= 3 else evaluator(x)
            return evaluate

        if fault == "nan-constraints":
            problem = dataclasses.replace(
                toy, constraints=from_third(toy.constraints, np.array([np.nan])))
        elif fault == "nan-jacobian":
            problem = dataclasses.replace(
                toy, jacobian=from_third(toy.jacobian, np.array([[np.nan, 0.0]])))
        else:
            problem = dataclasses.replace(toy, jacobian=from_third(toy.jacobian, np.zeros((1, 2))))
        with pytest.raises(error) as raised:
            if solve == "compute_reference":
                compute_reference(problem, SPHERE)
            else:
                run(problem, exact_oracle(problem),
                    dataclasses.replace(SPHERE, beta_p=0.0, max_iters=10))
        assert str(raised.value) == f"iteration 3: {message}"

    @pytest.mark.parametrize("solve", ["compute_reference", "run"])
    def test_exact_gradient_failure_is_named_exact(self, solve):
        # Both solves draw one exact gradient per iterate.
        toy, calls = sphere_problem(), []

        def gradient(x):
            calls.append(1)
            return np.array([np.nan, 0.0]) if len(calls) >= 3 else toy.gradient(x)

        problem = dataclasses.replace(toy, gradient=gradient)
        with pytest.raises(EvaluationError) as raised:
            if solve == "compute_reference":
                compute_reference(problem, SPHERE)
            else:
                run(problem, exact_oracle(problem),
                    dataclasses.replace(SPHERE, beta_p=0.0, max_iters=10))
        assert str(raised.value).startswith(
            "iteration 3: exact gradient returned a non-finite value at x=")

    @pytest.mark.parametrize("solve", ["compute_reference", "run"])
    def test_overflowing_step_names_its_iterate_as_run_does(self, solve):
        # c = x_1 is linear, so only x_2 moves: by alpha * 1e308 a step,
        # a finite gradient whose square already overflows.
        toy = Problem(n=2, m=1, objective=lambda x: -1e308 * float(x[1]),
                      gradient=lambda x: np.array([0.0, -1e308]),
                      constraints=lambda x: x[:1].copy(),
                      jacobian=lambda x: np.array([[1.0, 0.0]]), x0=np.zeros(2))
        alpha, x_2, k = solver.step_size(SPHERE, 1.0), 0.0, 1
        while math.isfinite(x_2 + alpha * 1e308):
            x_2, k = x_2 + alpha * 1e308, k + 1
        # The overflowing step and the residual and ledger products of
        # the last iterate overflow too; only the guard's error counts.
        with np.errstate(over="ignore"), pytest.raises(EvaluationError) as raised:
            if solve == "compute_reference":
                compute_reference(toy, SPHERE)
            else:
                run(toy, exact_oracle(toy), dataclasses.replace(SPHERE, beta_p=0.0, max_iters=100))
        assert k > 3
        assert str(raised.value) == f"iteration {k}: iterate became non-finite"

    @pytest.mark.parametrize("hessian", [None, lambda x, y: 2.0 * y[0] * np.eye(2)],
                             ids=["differences", "analytic"])
    def test_each_iterate_is_evaluated_once(self, hessian):
        # The second-order check reuses the candidate's Jacobian and
        # gradient; only the difference route evaluates n - m more points.
        toy, calls = sphere_problem(), {"jacobian": 0, "gradient": 0}

        def counted(name):
            def evaluate(x):
                calls[name] += 1
                return getattr(toy, name)(x)
            return evaluate

        problem = dataclasses.replace(toy, jacobian=counted("jacobian"),
                                      gradient=counted("gradient"), lagrangian_hessian=hessian)
        ref = compute_reference(problem, SPHERE)
        points = ref.iterations + (0 if hessian else problem.n - problem.m)
        assert calls == {"jacobian": points, "gradient": points}

    @pytest.mark.parametrize("which", ["bundled", "sphere"])
    def test_is_the_solver_loop_cut_short(self, which, bundled_instance):
        if which == "bundled":
            # Without a Hessian the reference is the loop's own iterate.
            problem = dataclasses.replace(bundled_instance.problem(), lagrangian_hessian=None)
            lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        else:
            problem, lip_gradf, lip_jac = sphere_problem(), 0.5, 2.0
        # One config for both: the reference solve ignores the budget.
        config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac, beta_p=0.0)
        ref = compute_reference(problem, config)
        trace = run(problem, exact_oracle(problem), config)
        assert ref.iterations < len(trace)
        assert np.array_equal(trace.x[ref.iterations - 1], ref.x)
        assert np.array_equal(trace.y[ref.iterations - 1], ref.y)
        assert ref.newton_steps == 0

    @pytest.mark.parametrize("which", ["bundled", "sphere"])
    def test_reads_only_the_step_rule(self, which, bundled_instance):
        if which == "bundled":
            problem = bundled_instance.problem()
            lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
            config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac)
        else:
            problem, config = sphere_problem(), SPHERE
        run_only = dataclasses.replace(config, beta_p=0.51, batch_size=1, max_iters=3, seed=7,
                                       validate=True)
        a, b = compute_reference(problem, config), compute_reference(problem, run_only)
        assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()
        assert (a.residual, a.iterations, a.newton_steps) == (
            b.residual, b.iterations, b.newton_steps)

    def test_newton_reference_agrees_with_first_order_on_bundled(self, bundled_instance):
        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac)
        newton = compute_reference(problem, config)
        plain = compute_reference(dataclasses.replace(problem, lagrangian_hessian=None), config)
        assert 0 < newton.newton_steps < newton.iterations <= 30 < plain.iterations
        assert newton.residual <= 1e-8
        assert np.linalg.norm(newton.x - plain.x) <= 1e-6 * np.linalg.norm(plain.x)
        assert np.linalg.norm(newton.y - plain.y) <= 1e-7

    @pytest.mark.parametrize("which", ["sphere", "quadratic"])
    def test_newton_reaches_closed_form(self, which):
        if which == "sphere":
            problem = dataclasses.replace(
                sphere_problem(), lagrangian_hessian=lambda x, y: 2.0 * y[0] * np.eye(2))
            lip_gradf, lip_jac = 0.5, 2.0
            x_star, y_star = np.array([-1.0, 0.0]), np.array([0.5])
        else:
            problem, p_mat, x_star, y_star = constrained_quadratic(np.random.default_rng(0))
            problem = dataclasses.replace(problem, lagrangian_hessian=lambda x, y: p_mat)
            lip_gradf, lip_jac = float(np.linalg.norm(p_mat, 2)), 1e-6
        config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac)
        ref = compute_reference(problem, config, tol=1e-12)
        assert ref.newton_steps > 0
        assert np.linalg.norm(ref.x - x_star) <= 1e-12
        assert np.linalg.norm(ref.y - y_star) <= 1e-12

    def test_line_search_backtracks_and_falls_back_on_the_sphere(self):
        # At (0.3, 1) the identity-model multiplier is -0.117, so the
        # first Hessian 2 y I is indefinite; later, some full Newton
        # steps raise the merit function and the line search shortens
        # them.
        gradient_at, objective_at = [], []
        toy = sphere_problem()

        def objective(x):
            objective_at.append(tuple(x))
            return toy.objective(x)

        def gradient(x):
            gradient_at.append(tuple(x))
            return toy.gradient(x)

        problem = dataclasses.replace(toy, objective=objective, gradient=gradient,
                                      lagrangian_hessian=lambda x, y: 2.0 * y[0] * np.eye(2))
        ref = compute_reference(problem, SPHERE, tol=1e-12)
        # Every iterate has its gradient evaluated once; a rejected trial
        # point has only its objective.
        assert set(objective_at) - set(gradient_at)
        assert 0 < ref.newton_steps < ref.iterations - 1  # identity-model steps too
        assert np.linalg.norm(ref.x - [-1.0, 0.0]) <= 1e-12
        assert abs(ref.y[0] - 0.5) <= 1e-12

    def test_newton_takes_a_hessian_with_rounding_level_skew(self):
        # solve_kkt rejects a skew of 1e-9 here; the Newton step solves
        # with the symmetric part, as the second-order check uses it.
        skew = np.array([[0.0, 1e-9], [-1e-9, 0.0]])
        problem = dataclasses.replace(
            sphere_problem(), lagrangian_hessian=lambda x, y: 2.0 * y[0] * np.eye(2) + skew)
        tol = 1e-12
        ref = compute_reference(problem, SPHERE, tol=tol)
        assert ref.newton_steps >= 1
        assert ref.residual <= tol

    @pytest.mark.parametrize("which", [
        "indefinite",  # CurvatureError at every step
        "non-finite",
        "rejected",  # steps about 1e6 too long: the line search reaches its floor
    ])
    def test_failed_attempt_falls_back_bit_for_bit(self, bundled_instance, which):
        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac)
        plain = compute_reference(dataclasses.replace(problem, lagrangian_hessian=None), config)
        value = {"indefinite": -1.0, "non-finite": np.nan, "rejected": 1e-6}[which]
        made = []

        def hessian(x, y):
            # Each of the plain.iterations - 1 steps gets the fake; the
            # final second-order check gets the true Hessian.
            made.append(1)
            if len(made) >= plain.iterations:
                return problem.lagrangian_hessian(x, y)
            return value * np.eye(problem.n)

        fallback = compute_reference(dataclasses.replace(problem, lagrangian_hessian=hessian),
                                     config)
        assert len(made) == plain.iterations
        assert fallback.newton_steps == 0
        assert np.array_equal(fallback.x, plain.x)
        assert np.array_equal(fallback.y, plain.y)
        assert (fallback.residual, fallback.iterations) == (plain.residual, plain.iterations)

    @pytest.mark.parametrize("name", ["bundled_instance", "a9a_shaped_instance"])
    def test_record_backed_evaluators_keep_the_oracle_reference(self, request, name):
        # One Hessian per iterate, its pass summing the gradient, against
        # evaluators that each compute their own products.
        inst = dataclasses.replace(request.getfixturevalue(name))
        lip_gradf, lip_jac = inst.lipschitz_bounds()
        config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac)
        got = compute_reference(inst.problem(), config)
        want = compute_reference(oracle_problem(inst), config)
        assert got.newton_steps > 0
        assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()
        assert (got.residual, got.iterations, got.newton_steps) == (
            want.residual, want.iterations, want.newton_steps)

    def test_a9a_shaped_reference_takes_newton_steps(self, a9a_shaped_instance):
        lip_gradf, lip_jac = a9a_shaped_instance.lipschitz_bounds()
        config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac)
        ref = compute_reference(a9a_shaped_instance.problem(), config)
        assert 0 < ref.newton_steps < ref.iterations <= 30
        assert ref.residual <= 1e-8

    @pytest.mark.parametrize("hessian", [None, lambda x, y: 2.0 * y[0] * np.eye(2)],
                             ids=["differences", "analytic"])
    def test_constrained_maximum_is_rejected(self, hessian):
        # (1, 0) maximizes x_1 on the circle: the loop accepts it at k=1
        # with residual 0, and the reduced Lagrangian Hessian is [-1].
        problem = dataclasses.replace(sphere_problem(x0=(1.0, 0.0)), lagrangian_hessian=hessian)
        with pytest.raises(ReferenceSolveError, match=r"lambda_min -1\.000e\+00"):
            compute_reference(problem, SPHERE)

    def test_non_finite_hessian_at_the_candidate_is_rejected(self):
        # Every Newton attempt gives up on the NaN, the identity-model
        # steps converge, and the check at their candidate meets the NaN
        # again.
        problem = dataclasses.replace(
            sphere_problem(), lagrangian_hessian=lambda x, y: np.full((2, 2), np.nan))
        with pytest.raises(ReferenceSolveError, match="not finite"):
            compute_reference(problem, SPHERE)

    def test_difference_route_matches_the_analytic_hessian(self, bundled_instance):
        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        ref = compute_reference(problem, SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac))
        at_ref = ref.x, ref.y, problem.jacobian(ref.x), problem.gradient(ref.x)
        analytic = harness._check_second_order(
            problem, *at_ref, problem.lagrangian_hessian(ref.x, ref.y))
        differences = harness._check_second_order(problem, *at_ref, None)
        assert len(analytic) == problem.n - problem.m
        assert analytic[0] > 0
        assert differences[0] == pytest.approx(analytic[0], rel=1e-5)


def _read_csv(path):
    with open(path) as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    config = ExperimentConfig(
        dataset=None, iters=400, thin=10, seeds=[1, 2], validate=True,
        out=str(out), eps_grid=[0.1, 1.0],
    )
    result = run_experiment(config)
    return config, result


class TestRunExperiment:

    def test_row_count_matches_thinning(self, small_run):
        config, result = small_run
        header, rows = _read_csv(result.trace_paths[0])
        assert header == csv_columns(config.eps_grid)
        assert len(rows) == config.iters // config.thin
        assert [int(r[0]) for r in rows][:3] == [10, 20, 30]

    def test_output_files_written(self, small_run):
        _, result = small_run
        names = {p.name for p in result.out_dir.iterdir()}
        assert {"config.json", "reference.json", "summary.json", "columns.txt",
                "trace_seed1.csv", "trace_seed2.csv"} <= names

    def test_column_notes_list_every_csv_column(self, small_run):
        config, result = small_run
        lines = (result.out_dir / "columns.txt").read_text().splitlines()
        described = [line for line in lines if line.startswith("# column ")]
        names = [line.split(": ", 1)[1].split(" -- ", 1)[0] for line in described]
        assert names == csv_columns(config.eps_grid)
        windowed = [line for line in described if "windowed-average" in line]
        assert [line.split(" -- ")[1] for line in windowed] == [
            f"windowed-average multiplier error with window radius eps={eps:g}"
            for eps in config.eps_grid
        ]
        assert all(" dist_y_avg_eps_" in line for line in windowed)

    def test_reference_json_records_the_solve(self, small_run):
        _, result = small_run
        ref = result.reference
        saved = json.loads((result.out_dir / "reference.json").read_text())
        assert list(saved) == ["x", "y", "residual", "iterations", "newton_steps"]
        assert (saved["iterations"], saved["newton_steps"]) == (ref.iterations, ref.newton_steps)
        assert ref.newton_steps > 0

    def test_config_echo_is_resolved(self, small_run):
        config, result = small_run
        echo = json.loads((result.out_dir / "config.json").read_text())
        assert echo["iters"] == 400
        assert echo["seeds"] == [1, 2]
        assert echo["resolved_lip_jac"] == 2.0
        assert echo["instance_n"] == 30

    def test_config_records_provenance(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        run_experiment(ExperimentConfig(reference_only=True, out=str(tmp_path)))
        text = (tmp_path / "config.json").read_text()
        echo = json.loads(text, parse_constant=lambda name: pytest.fail(f"bare {name}"))
        assert echo["numpy_version"] == np.__version__
        assert echo["scipy_version"] == scipy.__version__
        assert echo["cpu_count"] == os.cpu_count()
        assert echo["thread_caps"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None}
        assert 0 < echo["reference_seconds"] < 60

    def test_seeds_differ_only_in_noise(self, small_run):
        config, result = small_run
        _, rows1 = _read_csv(result.trace_paths[0])
        _, rows2 = _read_csv(result.trace_paths[1])
        dist_y_1 = [float(r[2]) for r in rows1]
        dist_y_2 = [float(r[2]) for r in rows2]
        assert dist_y_1 != dist_y_2

    def test_float_format_has_17_significant_digits(self, small_run):
        _, result = small_run
        _, rows = _read_csv(result.trace_paths[0])
        value = rows[0][1]
        assert float(value) == float(f"{float(value):.17g}")
        mantissa = value.split("e")[0].replace("-", "").replace(".", "").lstrip("0")
        assert len(mantissa) >= 10

    def test_summary_distances_and_counts(self, small_run):
        _, result = small_run
        for summary in result.summaries:
            assert summary.final_dist_x >= 0
            assert summary.final_dist_y >= 0
            assert summary.xi_violations is not None
            assert set(summary.final_dist_y_avg_eps) == {"0.1", "1"}

    @pytest.mark.parametrize("iters, thin, first_k", [
        (None, None, 10),  # small_run: thin divides iters
        (45, 10, 5),
        (5, 10, 5),  # one row, the final iterate
    ], ids=["thin-divides-iters", "iters45-thin10", "iters5-thin10"])
    def test_summary_distances_are_the_last_csv_row(
        self, small_run, tmp_path, iters, thin, first_k
    ):
        config, result = small_run
        if iters is not None:
            config = dataclasses.replace(config, iters=iters, thin=thin, out=str(tmp_path))
            result = run_experiment(config)
        entries = json.loads((result.out_dir / "summary.json").read_text())
        for entry, path in zip(entries, result.trace_paths, strict=True):
            header, rows = _read_csv(path)
            assert [int(r[0]) for r in rows] == list(range(first_k, config.iters + 1, config.thin))
            last = dict(zip(header, map(float, rows[-1])))
            for name in ("dist_x", "dist_y", "dist_y_true", "dist_y_avg"):
                assert entry[f"final_{name}"] == last[name], name
            for label, value in entry["final_dist_y_avg_eps"].items():
                assert value == last[f"dist_y_avg_eps_{label}"], label

    def test_one_distance_pass_per_replicate(self, tmp_path, monkeypatch):
        calls = []
        distance_columns = harness.distance_columns

        def counted(*args, **kwargs):
            calls.append(args[-1])
            return distance_columns(*args, **kwargs)

        monkeypatch.setattr(harness, "distance_columns", counted)
        config = ExperimentConfig(dataset=None, iters=45, thin=10, seeds=[0, 1],
                                  out=str(tmp_path))
        run_experiment(config)
        assert calls == [slice(4, None, 10)] * 2

    @pytest.mark.parametrize("validate", [False, True])
    def test_schedule_is_built_twice_per_replicate(self, tmp_path, monkeypatch, validate):
        # Once in iterate and once for the trace's alpha and beta columns,
        # which the tallies and the CSV then share.
        builds = []
        damping = SolverConfig.damping

        def counted(config):
            builds.append(config.max_iters)
            return damping(config)

        monkeypatch.setattr(SolverConfig, "damping", counted)
        config = ExperimentConfig(dataset=None, iters=400, seeds=[1, 2], validate=validate,
                                  out=str(tmp_path))
        run_experiment(config)
        assert builds == [400] * 4

    def test_thinned_rows_are_the_full_tables_rows(self, tmp_path):
        tables = {}
        for thin in (1, 7):
            config = ExperimentConfig(dataset=None, iters=60, thin=thin, seeds=[3],
                                      validate=True, out=str(tmp_path / f"thin{thin}"))
            path, = run_experiment(config).trace_paths
            lines = path.read_bytes().split(b"\r\n")
            assert lines.pop() == b""
            tables[thin] = {int(line.split(b",", 1)[0]): line for line in lines[1:]}
        assert list(tables[1]) == list(range(1, 61))
        assert list(tables[7]) == list(range(4, 61, 7))
        for k, line in tables[7].items():
            assert line == tables[1][k], k

    def test_windowed_columns_match_recomputation(self, small_run):
        from stochsqp import SolverConfig, load_bundled_instance, run
        from stochsqp.averaging import windowed_average

        config, result = small_run
        inst = load_bundled_instance()
        problem = inst.problem()
        lip_gradf, lip_jac = inst.lipschitz_bounds()
        solver_config = dataclasses.replace(
            config.solver_config(), lip_gradf=lip_gradf, lip_jac=lip_jac, seed=1)
        rerun = run(problem, inst.minibatch_oracle(), solver_config)
        reference = result.reference
        header, rows = _read_csv(result.trace_paths[0])
        col = header.index("dist_y_avg_eps_0.1")
        for row in (rows[0], rows[-1]):
            k = int(row[0])
            avg, _ = windowed_average(rerun.x, rerun.y, k, 0.1)
            assert float(row[col]) == pytest.approx(
                float(np.linalg.norm(avg - reference.y)), rel=1e-12
            )

    def test_summary_reports_emit_time(self, small_run):
        _, result = small_run
        entries = json.loads((result.out_dir / "summary.json").read_text())
        for entry, summary in zip(entries, result.summaries):
            assert entry["emit_time"] == summary.emit_time
            assert summary.emit_time > 0

    def test_triangle_consistency_of_distance_columns(self, small_run):
        _, result = small_run
        header, rows = _read_csv(result.trace_paths[0])
        iy, iyt = header.index("dist_y"), header.index("dist_y_true")
        for row in rows:
            # both measure distances to the same reference multiplier
            assert abs(float(row[iy]) - float(row[iyt])) <= float(row[iy]) + float(row[iyt])

    def test_exact_mode_collapses_noise_columns(self, tmp_path):
        config = ExperimentConfig(dataset=None, iters=60, thin=5, seeds=[0],
                                  validate=True, exact=True, out=str(tmp_path))
        result = run_experiment(config)
        header, rows = _read_csv(result.trace_paths[0])
        iy, iyt = header.index("dist_y"), header.index("dist_y_true")
        for row in rows:
            assert row[iy] == row[iyt]

    def test_replicates_share_one_oracle(self, tmp_path, monkeypatch):
        calls = []

        def counted(name):
            method = getattr(ConstrainedLogRegInstance, name)

            def wrapper(self, *args):
                calls.append(name)
                return method(self, *args)

            monkeypatch.setattr(ConstrainedLogRegInstance, name, wrapper)

        counted("minibatch_oracle")
        counted("per_sample_variance")
        # Past one block of draws at the default batch of 16.
        config = ExperimentConfig(dataset=None, iters=1100, thin=100, seeds=[1, 2, 3],
                                  out=str(tmp_path / "shared"))
        result = run_experiment(config)
        assert len(result.summaries) == 3
        # Building the oracle makes no pass over the data.
        assert calls == ["minibatch_oracle"]
        # No draw state passes from one replicate to the next, and the
        # reference solve does not depend on the seeds.
        reference = (result.out_dir / "reference.json").read_bytes()
        for seed, path in zip(config.seeds, result.trace_paths):
            alone = run_experiment(dataclasses.replace(config, seeds=[seed], out=str(tmp_path / f"{seed}")))
            assert path.read_bytes() == alone.trace_paths[0].read_bytes()
            assert (alone.out_dir / "reference.json").read_bytes() == reference

    def test_reference_only_skips_traces(self, tmp_path):
        config = ExperimentConfig(dataset=None, reference_only=True, out=str(tmp_path))
        result = run_experiment(config)
        assert result.trace_paths == []
        assert (result.out_dir / "reference.json").exists()
        assert not (result.out_dir / "summary.json").exists()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(thin=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(seeds=[])
        with pytest.raises(ConfigError):
            ExperimentConfig(eps_grid=[0.0])
        with pytest.raises(ConfigError):
            ExperimentConfig(eps_grid=[0.1, float("nan")])
        with pytest.raises(ConfigError):
            ExperimentConfig(eps_grid=[0.1, float("inf")])
        with pytest.raises(ConfigError):
            ExperimentConfig(batch=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(mlin=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(beta_p=2.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(tau=0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExperimentConfig().iters = 5
        # Lists are taken as tuples, so the value is frozen and hashable.
        config = ExperimentConfig(seeds=[1, 2], eps_grid=[0.1])
        assert (config.seeds, config.eps_grid) == ((1, 2), (0.1,))
        assert hash(config) == hash(ExperimentConfig(seeds=(1, 2), eps_grid=(0.1,)))
        assert type(ExperimentConfig().seeds) is type(ExperimentConfig().eps_grid) is tuple

    def test_constant_damping_needs_exact_gradients(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="exact-gradient"):
            run_experiment(ExperimentConfig(beta_p=0.0, iters=20, thin=10, out=str(out)))
        assert not out.exists()
        result = run_experiment(
            ExperimentConfig(beta_p=0.0, exact=True, iters=20, thin=10, out=str(out)))
        header, rows = _read_csv(result.trace_paths[0])
        assert [row[header.index("beta")] for row in rows] == ["1", "1"]


@pytest.fixture(scope="module")
def short_trace(bundled_instance):
    problem = bundled_instance.problem()
    lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
    config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac,
                          batch_size=16, max_iters=200, seed=0)
    trace = run(problem, bundled_instance.minibatch_oracle(), config)
    return trace, ReferenceSolution(x=trace.x[-1], y=trace.y[-1], residual=0.0, iterations=0)


class TestWriteTraceCsv:
    def test_makes_no_per_row_scan(self, tmp_path, monkeypatch, short_trace):
        calls = []
        scan = averaging.windowed_average

        def counted(*args, **kwargs):
            calls.append(args)
            return scan(*args, **kwargs)

        monkeypatch.setattr(averaging, "windowed_average", counted)
        monkeypatch.setattr(harness, "windowed_average", counted)
        write_trace_csv(tmp_path / "trace.csv", *short_trace, [0.01, 0.1, 1.0], 1)
        assert calls == []
        _, rows = _read_csv(tmp_path / "trace.csv")
        assert len(rows) == 200

    def test_index_rows_read_the_slice_rows_bits(self, short_trace):
        # Criterion 12 reads log-spaced rows by index, the CSV thinned rows
        # by slice: both must see the same distances.
        trace, reference = short_trace
        eps_grid = [0.01, 0.1, 1.0]
        whole = harness.distance_columns(trace, reference, eps_grid, slice(None))
        rows = np.array([199, 0, 63, 64, 150, 63])
        picked = harness.distance_columns(trace, reference, eps_grid, rows)
        assert len(picked) == len(whole) == 4 + len(eps_grid)
        for part, full in zip(picked, whole):
            assert np.array_equal(part, full[rows], equal_nan=True)

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, short_trace):
        real_open = open

        class FailingHandle:
            """Writes the header and 50 rows, then fails."""

            def __init__(self, *args, **kwargs):
                self.inner = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.inner.close()

            def write(self, text):
                self.inner.write(text)

            def writelines(self, lines):
                for count, line in enumerate(lines):
                    if count == 50:
                        raise OSError("disk full")
                    self.inner.write(line)

        monkeypatch.setattr(harness, "open", FailingHandle, raising=False)
        with pytest.raises(OSError, match="disk full"):
            write_trace_csv(tmp_path / "trace_seed0.csv", *short_trace, [0.1], 1)
        assert list(tmp_path.iterdir()) == []

    def test_rows_keep_the_csv_layout_and_text(self, tmp_path, short_trace):
        trace, reference = short_trace
        write_trace_csv(tmp_path / "trace.csv", trace, reference, [0.1, 1.0], 7)
        text = (tmp_path / "trace.csv").read_bytes().decode()
        header, rows = _read_csv(tmp_path / "trace.csv")
        assert text.count("\r\n") == len(rows) + 1 and "\n" not in text.replace("\r\n", "")
        assert [int(r[0]) for r in rows] == list(range(4, 201, 7))  # back from k = 200
        ix, ia = header.index("dist_x"), header.index("alpha")
        dist_x = np.linalg.norm(trace.x - reference.x, axis=1)
        for row in rows:
            i = int(row[0]) - 1
            assert row[ix] == "%.17g" % dist_x[i]
            assert row[ia] == "%.17g" % trace.alpha[i]
            assert row[header.index("dist_y_true")] == "nan"


class TestAtomicJson:
    @pytest.mark.parametrize("name", ["config.json", "reference.json", "summary.json"])
    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_serialisation_leaves_no_file(self, tmp_path, name, existing):
        target = tmp_path / name
        if existing:
            target.write_text("old\n")
        # The first keys serialise, so part of the object reaches the
        # temporary file before the failure.
        with pytest.raises(TypeError):
            harness._write_json(target, {"a": list(range(50)), "b": object()})
        if existing:
            assert target.read_text() == "old\n"
            assert list(tmp_path.iterdir()) == [target]
        else:
            assert list(tmp_path.iterdir()) == []

    def test_output_matches_json_dumps(self, tmp_path):
        obj = {"b": [1.5, None], "a": {"x": 1}}
        harness._write_json(tmp_path / "out.json", obj, sort_keys=True)
        assert (tmp_path / "out.json").read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"
        # Strict JSON: a NaN or an infinity fails and leaves no file.
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError):
                harness._write_json(tmp_path / "bad.json", {"b": [1.5, value]})
        assert list(tmp_path.iterdir()) == [tmp_path / "out.json"]


class TestCli:
    def test_flags_drive_a_run(self, tmp_path):
        out = tmp_path / "cli"
        code = main([
            "--iters", "60", "--thin", "10", "--seed", "3", "--seed", "4",
            "--eps", "0.5", "--out", str(out), "--validate",
        ])
        assert code == 0
        assert (out / "trace_seed3.csv").exists()
        assert (out / "trace_seed4.csv").exists()
        header, rows = _read_csv(out / "trace_seed3.csv")
        assert header == csv_columns([0.5])
        assert len(rows) == 6

    def test_config_file_with_flag_override(self, tmp_path):
        # A "#" inside a value is kept; one after whitespace starts a comment.
        data = tmp_path / "a#b.libsvm"
        bundled = resources.files("stochsqp.data").joinpath("synthetic200.libsvm")
        data.write_text(bundled.read_text())
        out = tmp_path / "run#1"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# experiment settings\n"
            "iters = 50  # note\n"
            "tau = 0.3\n"
            "thin = 25\n"
            "seed = 5, 6\n"
            "validate = true\n"
            f"dataset = {data}\n"
            f"out = {out}\t# the run directory\n"
        )
        code = main(["--config", str(cfg), "--tau", "0.1"])
        assert code == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["iters"] == 50  # from file
        assert echo["tau"] == 0.1  # flag overrides file
        assert echo["seeds"] == [5, 6]
        assert echo["dataset"] == str(data) and echo["out"] == str(out)
        assert (out / "summary.json").exists()

    def test_flags_replace_file_lists(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("iters = 20\nthin = 10\nseed = 1, 2\neps = 0.5\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "--seed", "3", "--eps", "0.2", "--out", str(out)])
        assert code == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["seeds"] == [3]
        assert echo["eps_grid"] == [0.2]
        assert echo["iters"] == 20

    @pytest.mark.parametrize("key, value", [("seed", ""), ("eps", ""), ("seed", " , "),
                                            ("dataset", ""), ("out", "")])
    def test_empty_value_names_file_and_line(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"iters = 5\n{key} ={value}\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {cfg}:2: ")
        assert not out.exists()

    def test_parser_declares_no_defaults(self):
        parser = harness.build_arg_parser()
        assert vars(parser.parse_args([])) == {}
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        dests = {a.dest for a in parser._actions} - {"help", "config"}
        assert fields == dests
        # The help of the repeatable flags quotes the dataclass defaults.
        defaults = ExperimentConfig()
        for action in parser._actions:
            if action.dest in ("seeds", "eps_grid"):
                quoted = " ".join(map(str, getattr(defaults, action.dest)))
                assert action.help.endswith(f"default {quoted})")

    @pytest.mark.parametrize("validate", [False, True])
    def test_footer_prints_violations_with_validate(self, tmp_path, capsys, validate):
        flags = ["--validate"] if validate else []
        code = main(["--iters", "40", "--thin", "10", "--seed", "3", "--seed", "4",
                     "--out", str(tmp_path)] + flags)
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        counts = [line for line in lines if line.startswith("  violations: ")]
        summaries = json.loads((tmp_path / "summary.json").read_text())
        if not validate:
            assert counts == []
            for entry in summaries:
                assert entry["first_xi_violation"] is None
                assert entry["first_tau_violation"] is None
            return
        assert len(counts) == 2
        for line, entry in zip(counts, summaries):
            assert set(entry) == {f.name for f in dataclasses.fields(harness.RunSummary)}
            # The benchmark regime keeps both parameters admissible.
            assert entry["first_xi_violation"] is None
            assert entry["first_tau_violation"] is None
            assert line == (
                f"  violations: xi {entry['xi_violations']}, tau {entry['tau_violations']}, "
                f"lbnd {entry['lbnd_violations']}, "
                f"alpha > 1 {entry['alpha_above_one']}"
            )
        seed_lines = [line for line in lines if line.startswith("seed ")]
        assert lines.index(counts[0]) == lines.index(seed_lines[0]) + 1

    @pytest.mark.parametrize("validate", [False, True])
    def test_json_files_are_strict(self, tmp_path, validate):
        # A bare NaN or Infinity is not JSON; without validation the
        # exact-gradient distance is null.
        flags = ["--validate"] if validate else []
        assert main(["--iters", "40", "--thin", "10", "--out", str(tmp_path)] + flags) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        loaded = {
            name: json.loads((tmp_path / name).read_text(), parse_constant=reject)
            for name in ("config.json", "reference.json", "summary.json")
        }
        [entry] = loaded["summary.json"]
        if validate:
            assert entry["final_dist_y_true"] >= 0
        else:
            assert entry["final_dist_y_true"] is None

    def test_footer_and_summary_report_where_violations_start(self, tmp_path, capsys):
        # An oversized merit parameter exceeds both trial values.
        code = main(["--iters", "40", "--thin", "10", "--tau", "20",
                     "--out", str(tmp_path), "--validate"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        [entry] = json.loads((tmp_path / "summary.json").read_text())
        assert entry["xi_violations"] > 0 and entry["first_xi_violation"] >= 1
        assert entry["tau_violations"] > 0 and entry["first_tau_violation"] >= 1
        [line] = [line for line in lines if line.startswith("  violations: ")]
        assert line.startswith(
            f"  violations: xi {entry['xi_violations']} "
            f"(first at k={entry['first_xi_violation']}), "
            f"tau {entry['tau_violations']} (first at k={entry['first_tau_violation']}), "
        )

    def test_reference_line_splits_the_step_count(self, tmp_path, capsys):
        assert main(["--reference-only", "--out", str(tmp_path)]) == 0
        saved = json.loads((tmp_path / "reference.json").read_text())
        # iterations counts x0, so one fewer step led to the reference.
        first_order = saved["iterations"] - 1 - saved["newton_steps"]
        assert capsys.readouterr().out.splitlines()[0] == (
            f"reference residual {saved['residual']:.3e} after {first_order} first-order "
            f"+ {saved['newton_steps']} Newton iterations"
        )

    @staticmethod
    def _python(*args, env=None, **options):
        """Run this interpreter on ``args`` with the package importable;
        ``env`` adds variables and ``options`` go to :func:`subprocess.run`."""
        src = str(Path(stochsqp.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=path, **(env or {})), **options,
        )

    def test_module_entry_point_runs_without_warnings(self, tmp_path):
        proc = self._python("-W", "error::RuntimeWarning", "-m", "stochsqp",
                            "--reference-only", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stderr == ""
        assert (tmp_path / "reference.json").exists()

    def test_harness_module_is_not_a_command(self, tmp_path):
        out = tmp_path / "out"
        proc = self._python("-W", "error::RuntimeWarning", "-m", "stochsqp.harness",
                            "--reference-only", "--out", str(out))
        assert proc.returncode != 0
        assert "RuntimeWarning" not in proc.stderr
        lines = (proc.stdout + proc.stderr).splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "run python -m stochsqp instead" in lines[0]
        assert not out.exists()

    def test_errors_return_nonzero(self, tmp_path):
        assert main(["--dataset", str(tmp_path / "missing.libsvm")]) == 1

    @pytest.mark.parametrize(
        "case",
        ["config-value", "libsvm-parse", "libsvm-nan", "too-many-constraints", "zero-tau",
         "nan-eps", "inf-eps", "flag-value", "unknown-flag", "libsvm-utf8", "inf-tau", "overflow-tau",
         "duplicate-seed", "config-duplicate-seed", "same-eps-label", "negative-seed",
         "config-negative-seed", "libsvm-too-wide", "removed-beta1", "huge-batch",
         "noisy-constant-damping", "diverging-xi"],
    )
    def test_bad_input_prints_one_error_line(self, tmp_path, capsys, case):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("iters = abc\n")
        data = tmp_path / "bad.libsvm"
        data.write_text("+1 1:0.5 oops\n")
        nan_data = tmp_path / "nan.libsvm"
        nan_data.write_text("+1 1:0.5 2:1\n-1 1:nan 2:1\n")
        utf8_data = tmp_path / "utf8.libsvm"
        utf8_data.write_bytes("+1 1:0.5\n-1 1:\u00e9\n".encode("utf-8"))
        # The largest int64 index parses, but no matrix is that wide.
        wide_data = tmp_path / "wide.libsvm"
        wide_data.write_text(f"+1 1:1\n-1 {2**63 - 1}:1\n")
        seeds_cfg = tmp_path / "seeds.cfg"
        seeds_cfg.write_text("seed = 1, 1\n")
        negative_cfg = tmp_path / "negative.cfg"
        negative_cfg.write_text("seed = -2\n")
        args = {
            "config-value": ["--config", str(cfg)],
            "libsvm-parse": ["--dataset", str(data)],
            "libsvm-nan": ["--dataset", str(nan_data)],
            "too-many-constraints": ["--mlin", "40"],
            "zero-tau": ["--tau", "0"],
            "nan-eps": ["--eps", "nan"],
            "inf-eps": ["--eps", "inf"],
            "flag-value": ["--iters", "abc"],
            "unknown-flag": ["--bogus"],
            "libsvm-utf8": ["--dataset", str(utf8_data)],
            "libsvm-too-wide": ["--dataset", str(wide_data)],
            "inf-tau": ["--tau", "inf"],
            # tau * lip_gradf overflows, so the step size would be 0.
            "overflow-tau": ["--tau", "1e308"],
            # A repeated seed would overwrite its own trace file, and two
            # eps values printing alike would share one CSV column name.
            "duplicate-seed": ["--seed", "1", "--seed", "1"],
            "config-duplicate-seed": ["--config", str(seeds_cfg)],
            "same-eps-label": ["--eps", "0.1", "--eps", "0.10000000001"],
            "negative-seed": ["--seed", "-1"],
            "config-negative-seed": ["--config", str(negative_cfg)],
            # The damping scale is xi's: --beta1 b --xi x is --xi b*x.
            "removed-beta1": ["--beta1", "0.5"],
            # Its (batch, n) row gather and its block of drawn indices, one
            # row past DRAW_BLOCK, are reserved before the reference solve.
            "huge-batch": ["--batch", str(10**12)],
            # Constant damping is the power schedule at p = 0, which only
            # exact gradients admit.
            "noisy-constant-damping": ["--beta-p", "0"],
            # x grows until x'x overflows; the finiteness guard reports it
            # without a numpy warning (pytest turns one into an error).
            "diverging-xi": ["--xi", "1e300"],
        }[case]
        assert main(args + ["--iters", "5", "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        if case == "libsvm-too-wide":
            assert lines[0].startswith(f"error: {wide_data}: line 2: feature index {2**63 - 1} ")
        if case == "libsvm-parse":
            assert lines[0].startswith(f"error: {data}: line 1: malformed entry")
        if case == "libsvm-nan":
            assert lines[0].startswith(f"error: {nan_data}: line 2: non-finite value")
        if case == "libsvm-utf8":
            assert lines[0].startswith(f"error: {utf8_data}: line 2: ")
        if case == "overflow-tau":
            assert lines[0].startswith("error: step size 0.0 is not positive and finite")
        if case.endswith("duplicate-seed"):
            assert lines[0] == "error: seeds must not repeat, got [1, 1]"
        if case == "same-eps-label":
            assert lines[0] == "error: eps values must have distinct labels, got ['0.1', '0.1']"
        if case.endswith("-eps"):
            assert lines[0].startswith("error: eps values must be finite and > 0, got ")
        if case == "negative-seed":
            assert lines[0] == "error: seeds must be >= 0, got [-1]"
        if case == "config-negative-seed":
            assert lines[0] == "error: seeds must be >= 0, got [-2]"
        if case == "huge-batch":
            assert lines[0].startswith("error: out of memory: ")
        if case == "diverging-xi":
            assert lines[0].startswith("error: iteration ")
            assert captured.err == ""
        assert not (tmp_path / "out").exists()

    def test_replicate_fits_reserves_the_draw_block(self):
        # With no features the row gather is empty, so only the block of
        # drawn indices, one (1, batch) row past DRAW_BLOCK, is too large;
        # the exact oracle draws no block.
        config = ExperimentConfig(batch=10**12, iters=5)
        assert config.batch > solver.DRAW_BLOCK
        harness._check_replicate_fits(dataclasses.replace(config, exact=True), 0, 1)
        with pytest.raises(MemoryError, match=r"shape \(1, 1000000000000\)"):
            harness._check_replicate_fits(config, 0, 1)

    def test_failed_reference_solve_leaves_no_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "REFERENCE_MAX_ITERS", 1)
        out = tmp_path / "out"
        assert main(["--iters", "5", "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: reference solve did not reach")
        assert not out.exists()

    def test_budget_too_large_to_allocate_prints_one_error_line(
        self, tmp_path, capsys, monkeypatch
    ):
        # Stands in for the trace allocation of a huge --iters failing.
        def run(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.2 TiB for an array")

        monkeypatch.setattr(harness, "run", run)
        assert main(["--iters", "5", "--out", str(tmp_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["error: out of memory: Unable to allocate 2.2 TiB for an array"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="RLIMIT_AS is enforced on Linux")
    def test_unallocatable_budget_fails_before_any_output(self, tmp_path):
        import resource

        # The address-space cap makes a 1e10-iteration trace fail to
        # allocate; one BLAS thread keeps the interpreter well inside it.
        def cap_address_space():
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            limit = 3 * 2**30
            if hard != resource.RLIM_INFINITY:
                limit = min(limit, hard)
            resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

        out = tmp_path / "rl"
        one_thread = {name: "1" for name in
                      ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        proc = self._python("-m", "stochsqp", "--iters", "10000000000", "--out", str(out),
                            env=one_thread, preexec_fn=cap_address_space)
        assert proc.returncode == 1, proc.stdout + proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out of memory: Unable to allocate")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--batch", "0"], ["--beta-p", "2"], ["--eps", "inf"]])
    def test_bad_config_fails_before_reference_solve(self, tmp_path, flags):
        out = tmp_path / "out"
        assert main(flags + ["--iters", "5", "--out", str(out)]) != 0
        assert not (out / "reference.json").exists()

    @pytest.mark.parametrize(
        "key, value", [("iters", "abc"), ("tau", "0.1x"), ("seed", "1, two"), ("eps", "0.1,,big")]
    )
    def test_bad_number_names_file_line_and_key(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# settings\n{key} = {value}\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {cfg}:2: ") and key in lines[0]

    @pytest.mark.parametrize(
        "text", ["mystery = 3\n", "validate = maybe\n", "just a line\n", "config = x.cfg\n",
                 "help = 1\n", "it = 5\n", "beta1 = 0.5\n", "validate = yes\n",
                 "seed = 1\nseed = 2\n"]
    )
    def test_config_file_rejects_bad_input(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        last = text.count("\n")  # the bad line is the file's last
        with pytest.raises(ConfigError, match=re.escape(f"{cfg}:{last}: ")) as raised:
            parse_config_file(cfg)
        if text.startswith("beta1"):  # a removed setting is an unknown key
            assert str(raised.value) == f"{cfg}:1: unknown key 'beta1'"
        assert capsys.readouterr().out == ""  # "help" prints nothing

    @pytest.mark.parametrize("first, again", [("seed", "seed"), ("beta_p", "beta-p")])
    def test_repeated_key_names_both_lines(self, tmp_path, first, again):
        cfg = tmp_path / "rep.cfg"
        cfg.write_text(f"{first} = 1\niters = 5\n{again} = 1\n")
        message = f"{cfg}:3: key {again!r} repeated (first on line 1)"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config_file(cfg)

    @pytest.mark.parametrize(
        "flag", [a.option_strings[-1] for a in harness.build_arg_parser()._actions
                 if a.dest not in ("help", "config")]
    )
    def test_every_flag_is_a_config_key(self, tmp_path, flag):
        parser = harness.build_arg_parser()
        action = parser._option_string_actions[flag]
        if action.nargs == 0:
            value, expected = "true", vars(parser.parse_args([flag]))
        else:
            value = {int: "-7", float: "-0.5", None: "runs/a b"}[action.type]
            expected = vars(parser.parse_args([flag, value]))
        cfg = tmp_path / "exp.cfg"
        for key in (flag[2:], flag[2:].replace("-", "_")):
            cfg.write_text(f"{key} = {value}\n")
            assert parse_config_file(cfg) == expected

    def test_values_may_start_with_a_dash(self, tmp_path):
        # On the command line "--tau -1e-3" reads -1e-3 as a flag.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("tau = -1e-3\nseed = -2, 3\n")
        assert parse_config_file(cfg) == {"tau": -1e-3, "seeds": [-2, 3]}

    def test_a_new_flag_is_a_config_key(self, tmp_path, monkeypatch):
        build = harness.build_arg_parser

        def extended():
            parser = build()
            parser.add_argument("--max-seconds", type=float)
            return parser

        monkeypatch.setattr(harness, "build_arg_parser", extended)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("max-seconds = 2.5\niters = 5\n")
        assert parse_config_file(cfg) == {"max_seconds": 2.5, "iters": 5}
