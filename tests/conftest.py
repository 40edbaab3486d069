"""Shared fixtures and independent test oracles.

The dense full-matrix KKT solve lives here (not in the library) so the
null-space implementation is always checked against a second route.
So do the other oracles only tests use: the exact-gradient subproblem
solve, the least-squares multiplier, the slice mean that defines the
running average, the local merit model, a Gaussian-noise gradient
oracle, an empirical estimate of an oracle's variance, a
central-difference check of declared derivatives, the per-token LIBSVM
parser and the row-by-row diagnostics of a solver run.
"""

import io
import math

import numpy as np
import pytest

from stochsqp import (
    ParseError,
    Problem,
    StochasticGradientOracle,
    build_instance,
    factor_jacobian,
    load_bundled_dataset,
    solve_kkt,
    solve_with_factors,
)
from stochsqp.logreg import Dataset
from stochsqp.merit import check_reduction_lbnd, reduction_delta_q, tau_trial_true, xi_trial
from stochsqp.problem import sample_gradient
from stochsqp.solver import ValidationSummary, iterate, kkt_residual, rows_per_block, step_size


def model_q(tau, f, c, jac, grad, hess, d):
    """Local merit model ``tau (f + g'd + max(d'hd, 0)/2) + ||c + jac d||_1``;
    ``hess=None`` is the identity.  ``max`` is Python's: NaN and ``-0.0``
    pass through."""
    dhd = float(d @ d if hess is None else d @ (hess @ d))
    return tau * (f + float(grad @ d) + 0.5 * max(dhd, 0.0)) + float(np.abs(c + jac @ d).sum())


def dense_kkt_solve(hess, jac, grad, c):
    """Independent oracle: factor the full (n+m) saddle-point matrix."""
    n = hess.shape[0]
    m = jac.shape[0]
    system = np.zeros((n + m, n + m))
    system[:n, :n] = hess
    system[:n, n:] = jac.T
    system[n:, :n] = jac
    rhs = np.concatenate([-grad, -c])
    solution = np.linalg.solve(system, rhs)
    return solution[:n], solution[n:]


def true_shadow(problem, x, hess):
    """Subproblem solution ``(d, y)`` with the exact gradient at ``x``."""
    x = np.asarray(x, dtype=float)
    sol = solve_kkt(hess, problem.jacobian(x), problem.gradient(x), problem.constraints(x))
    return sol.d, sol.y


def least_squares_y(jac, grad):
    """Minimizer of ``||g + jac' y||``: the identity solve's multiplier at ``c = 0``."""
    jac = np.asarray(jac, dtype=float)
    return solve_with_factors(factor_jacobian(jac), grad, np.zeros(jac.shape[0])).y


def running_average(ys, k, kbar=1):
    """Arithmetic mean of the multipliers for iterations ``kbar .. k``."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if not 1 <= kbar <= k <= ys.shape[0]:
        raise ValueError(f"need 1 <= kbar <= k <= {ys.shape[0]}")
    return ys[kbar - 1 : k].mean(axis=0)


def gaussian_oracle(problem, sigma):
    """Exact gradient plus isotropic Gaussian noise.

    A single sample has ``E||g_1 - grad f(x)||^2 = sigma**2``; a batch
    of ``b`` samples averages to noise with second moment
    ``sigma**2 / b``, drawn directly at the reduced scale: a row is that
    noise vector.  The oracle declares itself exact when ``sigma == 0``.
    """
    n = problem.n

    def draw(rng, batch, count):
        return sigma / math.sqrt(n * batch) * rng.standard_normal((count, n))

    def evaluate(x, noise):
        return np.asarray(problem.gradient(x), dtype=float) + noise

    return StochasticGradientOracle(draw, evaluate, exact=(sigma == 0))


def assert_iterate_draws_one_sample_per_step(problem, oracle, config):
    """``iterate``'s gradients have the bits of ``sample_gradient`` called
    once per step on a twin generator, the run's generator ends in the
    twin's state, and the run drew its rows in ``ceil(max_iters /
    rows_per_block)`` calls of ``oracle.draw``."""
    generators = []

    def draw(rng, batch, count):
        generators.append(rng)
        return oracle.draw(rng, batch, count)

    recording = StochasticGradientOracle(draw, oracle.evaluate, oracle.exact)
    twin = np.random.default_rng(config.seed)
    steps = 0
    for step in iterate(problem, recording, config):
        expected = sample_gradient(oracle, step.x, config.batch_size, twin)
        assert step.g.tobytes() == np.asarray(expected, dtype=float).tobytes(), step.k
        steps += 1
    assert steps == config.max_iters
    assert generators[-1].bit_generator.state == twin.bit_generator.state
    assert len(generators) == -(-config.max_iters // rows_per_block(config.batch_size))


def estimate_variance(oracle, problem, x, batch, trials, rng):
    """Empirical second moment of the batch gradient error at ``x``.

    Returns the sample mean of ``||g - grad f(x)||^2`` over ``trials``
    independent draws at batch size ``batch``.
    """
    if trials < 2:
        raise ValueError("trials must be >= 2")
    grad = np.asarray(problem.gradient(x), dtype=float)
    total = 0.0
    for _ in range(trials):
        g = sample_gradient(oracle, x, batch, rng)
        diff = g - grad
        total += float(diff @ diff)
    return total / trials


def finite_difference_check(problem, rng, center, probes=20, h=1e-5):
    """Worst central-difference deviation of the declared derivatives.

    Probes random (point, coordinate) pairs, the points drawn from a
    unit Gaussian around ``center``, and returns ``(grad_err,
    jac_err)``: the largest absolute deviation of one gradient entry
    and of one Jacobian column.
    """
    center = np.asarray(center, dtype=float)
    grad_err = 0.0
    jac_err = 0.0
    for _ in range(probes):
        x = center + rng.standard_normal(problem.n)
        i = int(rng.integers(0, problem.n))
        e = np.zeros(problem.n)
        e[i] = h
        df = (problem.objective(x + e) - problem.objective(x - e)) / (2 * h)
        grad_err = max(grad_err, abs(df - float(problem.gradient(x)[i])))
        dc = (problem.constraints(x + e) - problem.constraints(x - e)) / (2 * h)
        jac_err = max(jac_err, float(np.linalg.norm(dc - problem.jacobian(x)[:, i])))
    return grad_err, jac_err


def reference_parse_libsvm(source):
    """Independent oracle: the LIBSVM parser one token at a time.

    Converts each ``idx:val`` token with ``int()`` and ``float()`` and
    fills the dense matrix in a second loop.  ``parse_libsvm`` must give
    a bitwise-equal dataset or the same :class:`ParseError` message.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    rows = []
    labels = []
    max_index = 0
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            raw_label = float(tokens[0])
        except ValueError:
            raise ParseError(f"line {lineno}: label {tokens[0]!r} is not a number") from None
        if not math.isfinite(raw_label):
            raise ParseError(f"line {lineno}: non-finite label {tokens[0]!r}")
        entries = []
        previous = 0
        for token in tokens[1:]:
            idx_text, _, val_text = token.partition(":")
            try:
                idx = int(idx_text)
                val = float(val_text)
            except ValueError:
                raise ParseError(f"line {lineno}: malformed entry {token!r}") from None
            if not math.isfinite(val):
                raise ParseError(f"line {lineno}: non-finite value in {token!r}")
            if idx < 1:
                raise ParseError(f"line {lineno}: feature index {idx} is not >= 1")
            if idx <= previous:
                raise ParseError(f"line {lineno}: feature indices must be strictly increasing")
            previous = idx
            entries.append((idx, val))
        max_index = max(max_index, previous)
        labels.append(1.0 if raw_label > 0 else -1.0)
        rows.append(entries)

    features = np.zeros((len(rows), max_index))
    for j, entries in enumerate(rows):
        for idx, val in entries:
            features[j, idx - 1] = val
    return Dataset(features=features, labels=np.asarray(labels))


def row_by_row_run(problem, oracle, config):
    """Independent oracle: ``solver.run`` with its diagnostics per row.

    Consumes ``iterate``, takes ``beta_k`` and ``alpha_k`` from the scalar
    formulas (and checks that ``iterate`` stepped by that ``alpha_k``),
    and calls the vector merit helpers at every iteration, tallying
    violations as it goes.  ``run`` must give a trace with bitwise-equal
    columns, final iterate and summary, except that its ``resid_true``
    comes from the ledger and matches to rounding.  Returns ``(columns, x_final, summary)``, ``columns``
    mapping each trace column's name to its array (``y_true`` is
    ``None`` without validation).
    """
    tau, xi, nu = config.tau, config.xi, config.nu
    iters, validate = config.max_iters, config.validate
    names = ("alpha", "beta", "norm_c", "dq_stoch", "xi_trial", "tau_trial_true",
             "lbnd_slack", "resid_true")
    columns = {name: np.full(iters, np.nan) for name in names}
    columns["x"] = np.empty((iters, problem.n))
    columns["y"] = np.empty((iters, problem.m))
    columns["y_true"] = np.full((iters, problem.m), np.nan) if validate else None
    summary = ValidationSummary() if validate else None

    for k, x, c, jac, g, factors, sol, alpha_k, x_next in iterate(problem, oracle, config):
        i = k - 1
        beta_k = float(k) ** -config.beta_p
        row = {
            "alpha": step_size(config, beta_k),
            "beta": beta_k,
            "norm_c": math.sqrt(float(c @ c)),
            "dq_stoch": reduction_delta_q(tau, c, g, None, sol.d),
            "x": x,
            "y": sol.y,
        }
        assert alpha_k == row["alpha"], k
        row["xi_trial"] = xi_trial(tau, row["dq_stoch"], sol.d)
        if validate:
            grad = np.asarray(problem.gradient(x), dtype=float)
            shadow = solve_with_factors(factors, grad, c)
            row["y_true"] = shadow.y
            row["tau_trial_true"] = tau_tr = tau_trial_true(nu, c, grad, None, shadow.d)
            holds, row["lbnd_slack"] = check_reduction_lbnd(
                tau, nu, c, grad, None, shadow.d
            )
            row["resid_true"] = kkt_residual(grad, jac, c, shadow.y)
            slop = 1e-12
            if row["xi_trial"] < xi - slop:
                summary.xi_violations += 1
                if summary.first_xi_violation is None:
                    summary.first_xi_violation = k
            if tau_tr < tau - slop:
                summary.tau_violations += 1
                if summary.first_tau_violation is None:
                    summary.first_tau_violation = k
            if tau <= tau_tr and not holds:
                summary.lbnd_violations += 1
            if row["alpha"] > 1.0:
                summary.alpha_above_one += 1
        for name, value in row.items():
            columns[name][i] = value
    return columns, x_next, summary


def random_spd(rng, n, lo=0.5, hi=2.0):
    """Symmetric matrix with eigenvalues in [lo, hi]."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return q @ np.diag(rng.uniform(lo, hi, size=n)) @ q.T


def random_kkt_instance(rng, n, m, sval_lo=1.0, sval_hi=3.0):
    """Well-conditioned subproblem data (controlled Jacobian spectrum)."""
    hess = random_spd(rng, n)
    u = np.linalg.qr(rng.standard_normal((m, m)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :m]
    jac = u @ np.diag(rng.uniform(sval_lo, sval_hi, size=m)) @ v.T
    grad = rng.standard_normal(n)
    c = rng.standard_normal(m)
    return hess, jac, grad, c


def sphere_problem(x0=(0.3, 1.0)):
    """Toy: minimize x_1 subject to ||x||^2 = 1 (minimizer (-1, 0), y* = 1/2)."""
    return Problem(
        n=2,
        m=1,
        objective=lambda x: float(x[0]),
        gradient=lambda x: np.array([1.0, 0.0]),
        constraints=lambda x: np.array([float(x @ x) - 1.0]),
        jacobian=lambda x: np.array([2.0 * x]),
        x0=np.asarray(x0, dtype=float),
    )


def constrained_quadratic(rng, n=6, m=2):
    """Strongly convex QP with affine constraints and a closed-form solution.

    minimize 1/2 x'Px + q'x subject to Ax = b; the optimal pair solves
    the (n+m) linear system directly.
    """
    p_mat = random_spd(rng, n, 0.8, 2.5)
    q = rng.standard_normal(n)
    a_mat = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    x_star, y_star = dense_kkt_solve(p_mat, a_mat, q, -b)

    problem = Problem(
        n=n,
        m=m,
        objective=lambda x: 0.5 * float(x @ (p_mat @ x)) + float(q @ x),
        gradient=lambda x: p_mat @ x + q,
        constraints=lambda x: a_mat @ x - b,
        jacobian=lambda x: a_mat,
        x0=rng.standard_normal(n),
    )
    return problem, p_mat, x_star, y_star


@pytest.fixture(scope="session")
def bundled_dataset():
    return load_bundled_dataset()


@pytest.fixture(scope="session")
def bundled_instance(bundled_dataset):
    return build_instance(bundled_dataset, m_lin=10, seed=0)


@pytest.fixture(scope="session")
def a9a_shaped_instance():
    """In-process instance shaped like the a9a set, but smaller.

    123 Bernoulli(0.11) binary features, as in a9a, over 3000 samples
    with labels from a fixed logistic model; nothing is downloaded.
    """
    n, n_samples, density = 123, 3000, 0.11
    rng = np.random.default_rng(123)
    # Drawn feature-major, then stored one row per sample.
    features = (rng.random((n, n_samples)).T < density).astype(float, order="C")
    weights = rng.standard_normal(n) / np.sqrt(density * n)
    prob = 1.0 / (1.0 + np.exp(-(features @ weights)))
    labels = np.where(rng.random(n_samples) < prob, 1.0, -1.0)
    return build_instance(Dataset(features=features, labels=labels), m_lin=10, seed=0)
