"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``)
and asserts the criterion at its stated tolerance.  The heavyweight
solver runs are shared through session fixtures:

* a deterministic exact-gradient run (constant damping, 2e4 iterations),
* three stochastic replicates of the bundled protocol (batch 16, 1e5
  iterations, decay exponent 0.51, validation mode).

Criteria 7 and 12 read their distances from the trace with
:func:`stochsqp.harness.distance_columns`, as the trace CSV does.
"""

import time

import numpy as np
import pytest
from scipy.stats import linregress

from stochsqp import (
    SolverConfig,
    exact_oracle,
    factor_jacobian,
    iterate,
    kkt_residual,
    load_bundled_instance,
    multiplier_operator,
    null_space_basis,
    reduction_delta_q,
    run,
    sample_gradient,
    solve_kkt,
    solve_with_factors,
    step_size,
    windowed_average,
    xi_trial,
)
from stochsqp import averaging, kkt
from stochsqp.averaging import prefix_sums, window_means, window_starts
from stochsqp.harness import compute_reference, distance_columns

from conftest import dense_kkt_solve, estimate_variance, model_q, random_kkt_instance


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} {name}{': ' + detail if detail else ''}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def suite_instances():
    """500 well-conditioned subproblems with n <= 30, m <= 10."""
    rng = np.random.default_rng(2024)
    instances = []
    for _ in range(500):
        n = int(rng.integers(2, 31))
        m = int(rng.integers(1, min(10, n) + 1))
        instances.append(random_kkt_instance(rng, n, m))
    return instances


@pytest.fixture(scope="session")
def instance():
    return load_bundled_instance()


@pytest.fixture(scope="session")
def reference(instance):
    lip_gradf, lip_jac = instance.lipschitz_bounds()
    config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac)
    return compute_reference(instance.problem(), config, tol=1e-8)


@pytest.fixture(scope="session")
def deterministic_run(instance):
    """Exact-gradient run: constant unit damping is admissible at zero
    gradient variance and converges linearly."""
    lip_gradf, lip_jac = instance.lipschitz_bounds()
    problem = instance.problem()
    config = SolverConfig(
        tau=0.1, xi=1.0, nu=0.5,
        lip_gradf=lip_gradf, lip_jac=lip_jac,
        beta_p=0.0,
        batch_size=1, max_iters=20_000, validate=True,
    )
    return run(problem, exact_oracle(problem), config)


@pytest.fixture(scope="session")
def protocol_runs(instance):
    """Three replicates of the bundled protocol (tuned decay 0.51)."""
    lip_gradf, lip_jac = instance.lipschitz_bounds()
    problem = instance.problem()
    traces = {}
    for seed in (1, 2, 3):
        config = SolverConfig(
            tau=0.1, xi=1.0, nu=0.5,
            lip_gradf=lip_gradf, lip_jac=lip_jac,
            beta_p=0.51,
            batch_size=16, max_iters=100_000, seed=seed,
            validate=True,
        )
        traces[seed] = run(problem, instance.minibatch_oracle(), config)
    return traces


def test_criterion_01_kkt_correctness(suite_instances):
    started = time.perf_counter()
    worst_residual = 0.0
    worst_gap = 0.0
    for hess, jac, grad, c in suite_instances:
        sol = solve_kkt(hess, jac, grad, c)
        scale = 1.0 + np.linalg.norm(grad) + np.linalg.norm(c)
        residual = kkt_residual(hess @ sol.d + grad, jac, jac @ sol.d + c, sol.y)
        worst_residual = max(worst_residual, residual / scale)
        d_ref, y_ref = dense_kkt_solve(hess, jac, grad, c)
        gap = np.linalg.norm(sol.d - d_ref) + np.linalg.norm(sol.y - y_ref)
        worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - started
    ok = worst_residual <= 1e-10 and worst_gap <= 1e-9 and elapsed < 10.0
    _report(1, "kkt correctness",
            ok, f"residual {worst_residual:.2e}, oracle gap {worst_gap:.2e}, {elapsed:.1f}s")


def test_criterion_02_multiplier_formula_equivalence(suite_instances):
    worst_operator = 0.0
    worst_identity = 0.0
    for hess, jac, grad, c in suite_instances:
        sol = solve_kkt(hess, jac, grad, c)
        # The operator acts on h pinv' c - g, and pinv' c = -v.
        y = multiplier_operator(hess, jac) @ (-hess @ sol.v - grad)
        rel = np.linalg.norm(y - sol.y) / (1.0 + np.linalg.norm(sol.y))
        worst_operator = max(worst_operator, rel)

        # The closed-form offset between the least-squares and subproblem
        # multipliers is exact when the model matrix is the identity
        # (the tangential step then stays in the Jacobian null space).
        eye = np.eye(hess.shape[0])
        sol_eye = solve_kkt(eye, jac, grad, c)
        # The identity solve at c = 0 gives the minimizer of ||g + J'y||.
        ls = solve_with_factors(factor_jacobian(jac), grad, np.zeros_like(c)).y
        gram = jac @ jac.T
        expected = -np.linalg.solve(gram, jac @ (jac.T @ np.linalg.solve(gram, c)))
        gap = np.linalg.norm((ls - sol_eye.y) - expected) / (1.0 + np.linalg.norm(expected))
        worst_identity = max(worst_identity, gap)
    ok = worst_operator <= 1e-8 and worst_identity <= 1e-8
    _report(2, "multiplier formula equivalence",
            ok, f"operator {worst_operator:.2e}, least-squares identity {worst_identity:.2e}")


def test_criterion_03_decomposition_invariants(suite_instances):
    rng = np.random.default_rng(7)
    worst_orth = 0.0
    worst_null = 0.0
    worst_closed = 0.0
    worst_rebase = 0.0
    for hess, jac, grad, c in suite_instances:
        sol = solve_kkt(hess, jac, grad, c)
        scale = max(np.linalg.norm(sol.u) * np.linalg.norm(sol.v), 1e-30)
        worst_orth = max(worst_orth, abs(sol.u @ sol.v) / scale)
        worst_null = max(
            worst_null, np.linalg.norm(jac @ sol.u) / (1.0 + np.linalg.norm(jac))
        )
        v_closed = -jac.T @ np.linalg.solve(jac @ jac.T, c)
        worst_closed = max(worst_closed, np.linalg.norm(sol.v - v_closed))

        z = null_space_basis(jac)
        width = z.shape[1]
        if width:
            q = np.linalg.qr(rng.standard_normal((width, width)))[0]
            q1, r = factor_jacobian(jac)
            rebased = kkt._null_space_solve(hess, q1, z @ q, r, grad, c)
            gap = max(
                np.linalg.norm(getattr(sol, name) - getattr(rebased, name))
                for name in ("d", "y", "u", "v")
            )
            worst_rebase = max(worst_rebase, gap)
    ok = (worst_orth <= 1e-10 and worst_null <= 1e-10
          and worst_closed <= 1e-10 and worst_rebase <= 1e-9)
    _report(3, "decomposition invariants", ok,
            f"u'v {worst_orth:.2e}, ||Ju|| {worst_null:.2e}, "
            f"closed form {worst_closed:.2e}, re-basing {worst_rebase:.2e}")


def test_criterion_04_merit_machinery(suite_instances, deterministic_run, protocol_runs):
    tau = 0.1
    worst_identity = 0.0
    for hess, jac, grad, c in suite_instances:
        d = solve_kkt(hess, jac, grad, c).d
        direct = reduction_delta_q(tau, c, grad, hess, d)
        diff = model_q(tau, 0.0, c, jac, grad, hess, np.zeros(len(grad))) - model_q(
            tau, 0.0, c, jac, grad, hess, d
        )
        worst_identity = max(worst_identity, abs(direct - diff) / (1.0 + abs(direct)))

    grad = np.array([1.0, 1.0])
    c = np.array([0.5])
    d = np.array([-0.5, -1.0])
    dq = reduction_delta_q(tau, c, grad, np.eye(2), d)
    worked = (
        abs(dq - 0.5875) <= 1e-15
        and abs(xi_trial(tau, dq, d) - 4.7) <= 1e-14
        and abs(step_size(SolverConfig(), 1.0) - 0.090909090909090909) <= 1e-15
    )

    worst_slack = 0.0
    for trace in [deterministic_run, *protocol_runs.values()]:
        admissible = trace.tau_trial_true >= tau
        slack_floor = float(np.min(trace.lbnd_slack[admissible]))
        worst_slack = min(worst_slack, slack_floor)
    ok = worst_identity <= 1e-12 and worked and worst_slack >= -1e-10
    _report(4, "merit machinery", ok,
            f"identity {worst_identity:.2e}, worked values {'ok' if worked else 'BAD'}, "
            f"lower-bound slack floor {worst_slack:.2e}")


def _unbiased_at(instance, seed, batch=16, draws=100_000):
    problem = instance.problem()
    oracle = instance.minibatch_oracle()
    x = instance.x1
    grad = problem.gradient(x)
    rng = np.random.default_rng(seed)
    total = np.zeros_like(grad)
    for _ in range(draws):
        total += oracle.sample(x, batch, rng)
    err = np.abs(total / draws - grad)

    z = instance.dataset.labels * (instance.dataset.features @ x)
    from scipy.special import expit

    per_sample = instance.dataset.features * (-instance.dataset.labels * expit(-z))[:, None]
    sigma_c = per_sample.std(axis=0)
    return bool(np.all(err <= 3.0 * sigma_c / np.sqrt(batch * draws)))


def test_criterion_05_oracle_statistics(instance):
    # Componentwise 3-sigma test is expected to fail occasionally by
    # chance; one rerun with a fresh stream is allowed.
    unbiased = _unbiased_at(instance, seed=11) or _unbiased_at(instance, seed=12)

    problem = instance.problem()
    oracle = instance.minibatch_oracle()
    rng = np.random.default_rng(13)
    v1 = estimate_variance(oracle, problem, instance.x1, 1, 10_000, rng)
    v16 = estimate_variance(oracle, problem, instance.x1, 16, 10_000, rng)
    ratio = v1 / v16
    ok = unbiased and abs(ratio - 16.0) <= 0.25 * 16.0
    _report(5, "oracle statistics", ok,
            f"unbiased {unbiased}, variance ratio {ratio:.2f} (target 16 +/- 25%)")


def test_criterion_06_deterministic_convergence(deterministic_run):
    trace = deterministic_run
    reached = np.nonzero(trace.resid_true <= 1e-6)[0]
    first = int(reached[0]) + 1 if reached.size else None
    summary = trace.validation_summary()
    ok = (
        first is not None
        and first <= 20_000
        and summary.xi_violations == 0
        and summary.tau_violations == 0
        and summary.lbnd_violations == 0
        and trace.wall_time < 60.0
    )
    _report(6, "deterministic convergence", ok,
            f"residual <= 1e-6 at iteration {first}, violations "
            f"{summary.xi_violations}/{summary.tau_violations}/{summary.lbnd_violations}, "
            f"{trace.wall_time:.1f}s")


def test_criterion_07_figure_qualitative_reproduction(protocol_runs, reference):
    tail_ratios = []
    details = []
    ok = True
    for seed, trace in protocol_runs.items():
        iters = len(trace)
        tail = slice(int(0.9 * iters), None)
        dist_x, dist_y, dist_y_true, dist_avg = distance_columns(
            trace, reference, [], slice(None))

        gain_tail = float(np.median(dist_y[tail]) / np.median(dist_avg[tail]))
        gain_all = float(np.median(dist_y) / np.median(dist_avg[tail]))
        tail_ratio = float(np.max(dist_y_true[tail] / np.maximum(dist_x[tail], 1e-14)))
        contraction = float(dist_x[-1] / dist_x[0])
        tail_ratios.append(tail_ratio)
        seed_ok = (
            gain_tail >= 2.0
            and gain_all >= 2.0
            and np.isfinite(tail_ratio)
            and contraction <= 0.1
            and trace.wall_time < 600.0
        )
        ok = ok and seed_ok
        details.append(f"seed {seed}: gain {gain_tail:.1f}, tracking {tail_ratio:.2f}, "
                       f"contraction {contraction:.1e}")
    spread = max(tail_ratios) / min(tail_ratios)
    ok = ok and spread <= 5.0
    _report(7, "figure qualitative reproduction", ok,
            "; ".join(details) + f"; tracking spread {spread:.2f}x")


def test_criterion_08_averaging_decay_law():
    rng = np.random.default_rng(3)
    iters = 100_000
    noise = rng.standard_normal((iters, 3))
    averages = np.cumsum(noise, axis=0) / np.arange(1, iters + 1)[:, None]
    errors = np.linalg.norm(averages, axis=1)
    ks = np.unique(np.logspace(2, 5, 400).astype(int))
    slope = float(linregress(np.log(ks), np.log(errors[ks - 1])).slope)
    ok = -0.65 <= slope <= -0.35
    _report(8, "averaging decay law", ok, f"log-log slope {slope:.3f}")


def _windowed_oracle(xs, ys, k, eps):
    """Literal definition: smallest start whose whole suffix stays in the ball."""
    for start in range(1, k + 1):
        if all(
            np.linalg.norm(xs[j - 1] - xs[k - 1]) <= eps for j in range(start, k + 1)
        ):
            return np.mean(ys[start - 1 : k], axis=0), start
    raise AssertionError("unreachable: the window always contains k itself")


def test_criterion_09_windowed_average_correctness():
    # The defining scan on short histories, then the one-pass fast path,
    # composed as the trace CSV composes it, on histories of up to four
    # 64-row blocks, with step sizes from 0.01 to 0.3 so that windows
    # reach back into earlier blocks and blocks straddle the eps-sphere
    # (the Gram-product test).
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        length = int(rng.integers(1, 61))
        dim = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        xs = np.cumsum(rng.standard_normal((length, dim)) * 0.3, axis=0)
        ys = rng.standard_normal((length, m))
        k = int(rng.integers(1, length + 1))
        eps = float(rng.uniform(0.05, 2.0))
        got_avg, got_start = windowed_average(xs, ys, k, eps)
        want_avg, want_start = _windowed_oracle(xs, ys, k, eps)
        assert got_start == want_start
        worst = max(worst, float(np.max(np.abs(got_avg - want_avg))))

    block = averaging._BLOCK_SIZE
    fast_worst, walked_back = 0.0, 0
    for _ in range(300):
        length = int(rng.integers(1, 4 * block + 1))
        dim = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        step = 10 ** rng.uniform(-2.0, -0.5)
        xs = np.cumsum(rng.standard_normal((length, dim)) * step, axis=0)
        ys = rng.standard_normal((length, m))
        ks = rng.integers(1, length + 1, size=3)
        eps = float(rng.uniform(0.05, 2.0))
        starts = window_starts(xs, eps, ks)
        means = window_means(prefix_sums(ys), ks, starts)
        for mean, start, k in zip(means, starts, ks.tolist()):
            want_avg, want_start = _windowed_oracle(xs, ys, k, eps)
            assert start == want_start
            fast_worst = max(fast_worst, float(np.max(np.abs(mean - want_avg))))
            walked_back += (start - 1) // block < (k - 1) // block
    ok = worst <= 1e-12 and fast_worst <= 1e-12 and walked_back > 0
    _report(9, "windowed average correctness", ok,
            f"scan max deviation {worst:.2e}; fast path max deviation {fast_worst:.2e}, "
            f"{walked_back} of 900 windows reach an earlier block")


def test_criterion_10_curvature_threshold(instance):
    # The analysis needs d'Hd >= (zeta/2) u'u on the model matrix.  With
    # H = I it holds for zeta = 1 at every step, with no tangential-
    # dominance premise: d'd = u'u + v'v because u is orthogonal to v.
    lip_gradf, lip_jac = instance.lipschitz_bounds()
    problem = instance.problem()
    config = SolverConfig(
        tau=0.1, xi=1.0, nu=0.5,
        lip_gradf=lip_gradf, lip_jac=lip_jac,
        beta_p=0.51,
        batch_size=16, max_iters=5_000, seed=1,
    )
    products = []
    for step in iterate(problem, instance.minibatch_oracle(), config):
        grad = np.asarray(problem.gradient(step.x), dtype=float)
        shadow = solve_with_factors(step.factors, grad, step.c)
        for sol in (step.sol, shadow):
            products.append((sol.d @ sol.d, sol.u @ sol.u, sol.v @ sol.v))
    dd, uu, vv = np.array(products).T
    split = np.abs(dd - uu - vv)
    margin = dd - 0.5 * uu
    ok = bool(np.all(split <= 1e-12 * dd) and np.all(margin >= (0.5 - 1e-12) * uu))
    split_worst = float(np.max(split[dd > 0] / dd[dd > 0]))
    ratio_floor = float(np.min(margin[uu > 0] / uu[uu > 0]))
    _report(10, "identity-model curvature", ok,
            f"{len(dd)} steps, |d'd - u'u - v'v| / d'd <= {split_worst:.1e}, "
            f"min (d'd - u'u/2) / u'u {ratio_floor:.6f}")


def test_criterion_12_averaging_on_the_solver_trace(protocol_runs, reference):
    # The paper's averaging claim on the solver's own multipliers: the
    # running average's error decays at about criterion 8's k^(-1/2)
    # law while the raw multiplier's does not, and at the last iteration
    # the eps = 0.1 window is no worse than the running average.
    started = time.perf_counter()
    ks = np.unique(np.logspace(3, 5, 200).astype(int))
    log_ks = np.log(ks)
    details = []
    ok = True
    for seed, trace in protocol_runs.items():
        assert ks[-1] == len(trace)
        _, dist_y, _, dist_avg, dist_window = distance_columns(
            trace, reference, [0.1], ks - 1)
        slope_avg = float(linregress(log_ks, np.log(dist_avg)).slope)
        slope_raw = float(linregress(log_ks, np.log(dist_y)).slope)
        ok = ok and slope_avg <= -0.35 and slope_raw >= -0.1 and dist_window[-1] <= dist_avg[-1]
        details.append(f"seed {seed}: slopes {slope_avg:.2f} averaged, {slope_raw:+.2f} raw; "
                       f"at k={ks[-1]} window {dist_window[-1]:.2e}, running {dist_avg[-1]:.2e}")
    elapsed = time.perf_counter() - started
    _report(12, "averaging on the solver trace", ok, "; ".join(details) + f"; {elapsed:.2f}s")
