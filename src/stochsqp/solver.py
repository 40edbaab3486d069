"""The stochastic SQP iteration loop and its per-iterate diagnostics.

Each iteration draws a mini-batch gradient estimate, solves the
constrained subproblem with the identity model matrix, and moves by
``alpha_k = beta_k * tau * xi / (tau * lip_gradf + lip_jac)`` with
``beta_k = k**-p``.  For stochastic runs the sequence must be
unsummable but square-summable, ``1/2 < p <= 1``; with an oracle
declared exact any ``0 <= p <= 1`` is accepted, and ``p = 0`` is
constant damping, whose fixed step gives plain linear convergence.
A constant factor on ``beta_k`` would only rescale ``xi``, so the
schedule is the one exponent ``SolverConfig.beta_p``.
The reference solve in :mod:`stochsqp.harness` takes the unit-damping
step wherever it takes no Newton step.

:func:`iterate` is the iteration itself, and :func:`subproblem` the
step it shares with the reference solve.  :func:`run` records a trace
from it.  The step schedule is a function of ``k`` and the config, so
:func:`iterate` computes it once and the trace once more, on first read.
Call overhead sets the cost of an iteration (README, hot-path note), so
:func:`iterate` steps with Python floats and :func:`run` takes the
ledger's products from ``ndarray.dot``, the BLAS call of ``@``.

In validation mode the loop additionally solves the subproblem with the
exact gradient (the "shadow" solve).  Inside the loop :func:`run` keeps
only a ledger of a few inner products per iteration in the
:class:`Trace`; the diagnostic columns (model reduction, trial values
and guaranteed-reduction slack) and :meth:`Trace.validation_summary`'s
violation tallies are vectorized reads of it, made on each call, with
the same bits as the per-step helpers of :mod:`stochsqp.merit`.
Violations are surfaced, never fatal: the fixed parameters are a
hypothesis, and detecting when they fail is part of the job.  The
analysis's curvature condition on the model matrix is not among them:
the identity has unit curvature, and ``d'd = u'u + v'v`` with ``u``
orthogonal to ``v`` gives ``d'd >= (zeta/2) u'u`` for every
``zeta <= 2`` at every step.

A run is strictly sequential and owns its state; concurrent replicates
must use separate configs (seeds) and generators.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from . import kkt
from .errors import ConfigError, EvaluationError
from .merit import (
    lbnd_from_products,
    reduction_from_products,
    tau_trial_from_products,
    xi_trial_from_products,
)
from .problem import Array, Problem, StochasticGradientOracle, all_finite, evaluate_gradient

# The benchmark's traced mode (perfbench/spans.py) looks these names up
# in this module's namespace to wrap them, so they stay bound here
# although nothing in this module calls them.
from .merit import (  # noqa: F401
    check_reduction_lbnd,
    phi,
    reduction_delta_q,
    tau_trial_true,
    xi_trial,
)
from .problem import sample_gradient  # noqa: F401

#: Index elements per generator call of :func:`iterate`: 128 KB of int64
#: indices, unless one row alone is larger (see :func:`rows_per_block`).
DRAW_BLOCK = 2**14


def rows_per_block(batch: int) -> int:
    """Steps whose mini-batch rows :func:`iterate` draws in one call."""
    return max(1, DRAW_BLOCK // batch)


@np.errstate(all="ignore")
def step_size(config: SolverConfig, beta):
    """Step length ``beta_k * tau * xi / (tau * lip_gradf + lip_jac)``
    with ``config``'s parameters.

    ``beta`` is one ``beta_k`` (the result is a float) or an array of
    them (an array, each element with the scalar's bits).  The formula
    does not guarantee a value in (0, 1]; the run summary counts values
    above 1.  A quotient that overflows or underflows raises
    :class:`ValueError`.
    """
    tau, xi, lip_gradf, lip_jac = config.tau, config.xi, config.lip_gradf, config.lip_jac
    betas = np.asarray(beta, dtype=float)
    if not ((0 < betas) & (betas <= 1)).all():
        raise ValueError("beta_k must lie in (0, 1]")
    alphas = betas * tau * xi / (tau * lip_gradf + lip_jac)
    if not (ok := (0 < alphas) & (alphas < math.inf)).all():
        raise ValueError(  # names the first step that fails
            f"step size {alphas[~ok].item(0)!r} is not positive and finite for tau={tau!r}, "
            f"xi={xi!r}, lip_gradf={lip_gradf!r}, lip_jac={lip_jac!r}, beta={betas[~ok].item(0)!r}"
        )
    return alphas if alphas.ndim else float(alphas)


@dataclass(frozen=True)
class SolverConfig:
    """Fixed parameters for one run.

    The quadratic-model matrix is the identity, ``H_k = I``, solved by
    :func:`stochsqp.kkt.solve_with_factors`.  For another
    symmetric model matrix, solve single subproblems with
    :func:`stochsqp.kkt.solve_kkt`.  The identity has unit curvature
    on the Jacobian null space, so no curvature setting is needed.

    ``tau`` is the merit parameter, ``xi`` the ratio parameter and
    ``nu`` the reduction fraction the trial values use; ``tau`` and
    ``xi`` must be finite, as the step size divides by them.
    The damping sequence is ``beta_k = k**-p``, ``p = beta_p`` in
    ``[0, 1]``; :meth:`check_oracle` states which ``p`` a run admits.
    ``p = 0`` is constant damping: ``float(k) ** -0.0 == 1.0``.
    """

    tau: float = 0.1
    xi: float = 1.0
    nu: float = 0.5
    lip_gradf: float = 1.0
    lip_jac: float = 1.0
    beta_p: float = 1.0
    batch_size: int = 16
    max_iters: int = 1000
    seed: int = 0
    validate: bool = False

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ConfigError("tau must be positive and finite")
        if not 0 < self.xi < math.inf:
            raise ConfigError("xi must be positive and finite")
        if not 0 < self.nu < 1:
            raise ConfigError("nu must lie in (0, 1)")
        if not self.lip_gradf > 0 or not self.lip_jac > 0:
            raise ConfigError("Lipschitz constants must be > 0")
        if not 0 <= self.beta_p <= 1:
            raise ConfigError("damping decay exponent p must lie in [0, 1]")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def check_oracle(self, exact: bool) -> None:
        """Raise :class:`ConfigError` for noisy gradients (not ``exact``) and ``p <= 1/2``."""
        if not (exact or self.beta_p > 0.5):
            raise ConfigError(f"damping decay exponent p={self.beta_p} is reserved for "
                              "exact-gradient runs; stochastic gradients need 1/2 < p <= 1")

    def damping(self) -> Array:
        """``beta_1, ..., beta_max_iters``, each the scalar ``float(k) ** -p``
        of Python's ``pow`` (numpy's vector power can differ in the last bit)."""
        p, iters = self.beta_p, self.max_iters
        return np.fromiter((float(k) ** -p for k in range(1, iters + 1)), float, iters)


class Trace:
    """Struct-of-arrays history of a run of ``config.max_iters`` iterations.

    ``len(trace)`` is the iteration count; row ``i`` of every array
    (``trace.x``, ``trace.y``, ``trace.alpha``, ...) belongs to iteration
    ``k = i + 1``, and ``trace.x[i]`` is the iterate that step was
    computed at.  ``trace.y_true`` is ``None`` without validation.  The
    other per-iterate vectors (gradient estimate, step and its parts)
    are not kept; :func:`iterate` yields them.

    Only ``x``, ``y``, ``y_true`` and ``trace.ledger`` are stored.
    ``alpha`` and ``beta`` are computed from ``trace.config`` on first
    read and kept as read-only arrays; the diagnostic columns
    (``norm_c``, ``dq_stoch``, ``xi_trial``, ``tau_trial_true``,
    ``lbnd_slack``, ``resid_true``) are computed from the ledger and
    the config's ``tau`` and ``nu`` on each read.  The ledger starts as
    NaN, so without validation the exact-gradient columns read NaN.

    :func:`run` also sets ``x_final``, the iterate after the last step,
    and ``wall_time``, the seconds its loop took; both are ``None``
    until then.
    """

    #: The inner products :func:`run` records per iteration, one ledger
    #: row each, in this order.
    _LEDGER = ("gd", "dd", "l1", "cc", "gd_true", "dd_true")

    def __init__(self, n: int, m: int, config: SolverConfig):
        self.config = config  # frozen, so the schedule columns read it as given
        iters = config.max_iters
        self.ledger = np.full((len(self._LEDGER), iters), np.nan)
        self.x = np.empty((iters, n))
        self.y = np.empty((iters, m))
        self.y_true = np.full((iters, m), np.nan) if config.validate else None
        self.x_final: Array | None = None
        self.wall_time: float | None = None

    def __len__(self) -> int:
        return len(self.x)

    @classmethod
    def floats_per_iteration(cls, n: int, m: int, validate: bool) -> int:
        """Float64 values one iteration of :func:`run` stores: the ledger
        rows, ``x``, ``y`` and, with ``validate``, ``y_true``."""
        return len(cls._LEDGER) + n + m * (1 + validate)

    @cached_property
    def beta(self) -> Array:
        beta = self.config.damping()
        beta.flags.writeable = False
        return beta

    @cached_property
    def alpha(self) -> Array:
        alpha = step_size(self.config, self.beta)
        alpha.flags.writeable = False
        return alpha

    @property
    def norm_c(self) -> Array:
        return np.sqrt(self.ledger[3])  # sqrt(c'c)

    @property
    def dq_stoch(self) -> Array:
        return reduction_from_products(self.config.tau, *self.ledger[:3])  # g'd, d'd, ||c||_1

    @property
    def xi_trial(self) -> Array:
        return xi_trial_from_products(self.config.tau, self.dq_stoch, self.ledger[1])

    @property
    def tau_trial_true(self) -> Array:
        _, _, l1, _, gd_true, dd_true = self.ledger
        return tau_trial_from_products(self.config.nu, gd_true, dd_true, l1)

    def _lbnd(self):
        _, _, l1, _, gd_true, dd_true = self.ledger
        return lbnd_from_products(self.config.tau, self.config.nu, gd_true, dd_true, l1)

    @property
    def lbnd_slack(self) -> Array:
        return self._lbnd()[1]

    @property
    def resid_true(self) -> Array:
        # With H = I the first KKT row is d + grad + J'y = 0, so the shadow
        # solve's stationarity residual ||grad + J'y_true|| is ||d_true||.
        return np.sqrt(self.ledger[5]) + self.norm_c  # ||d_true|| + ||c||

    def validation_summary(self) -> ValidationSummary | None:
        """The violation tallies over every row; ``None`` without validation."""
        if self.y_true is None:
            return None
        config = self.config
        xi_tr, tau_tr, (holds, _) = self.xi_trial, self.tau_trial_true, self._lbnd()
        slop = 1e-12
        xi_bad = xi_tr < config.xi - slop
        tau_bad = tau_tr < config.tau - slop
        return ValidationSummary(
            xi_violations=int(np.count_nonzero(xi_bad)),
            tau_violations=int(np.count_nonzero(tau_bad)),
            lbnd_violations=int(np.count_nonzero((config.tau <= tau_tr) & ~holds)),
            alpha_above_one=int(np.count_nonzero(self.alpha > 1.0)),
            first_xi_violation=int(np.argmax(xi_bad)) + 1 if xi_bad.any() else None,
            first_tau_violation=int(np.argmax(tau_bad)) + 1 if tau_bad.any() else None,
        )


@dataclass
class ValidationSummary:
    """Violation tallies from a validation-mode run (diagnostic only)."""

    xi_violations: int = 0
    tau_violations: int = 0
    lbnd_violations: int = 0
    alpha_above_one: int = 0
    first_xi_violation: int | None = None
    first_tau_violation: int | None = None

    @property
    def clean(self) -> bool:
        return self.xi_violations == 0 and self.tau_violations == 0 and self.lbnd_violations == 0


class Iteration(NamedTuple):
    """One iteration's data, yielded before the iterate moves to ``x_next``."""

    k: int
    x: Array
    c: Array
    jac: Array
    g: Array
    factors: kkt.JacobianFactors
    sol: kkt.KktSolution
    alpha: float
    x_next: Array


def subproblem(problem: Problem, oracle: StochasticGradientOracle, row: Array, x: Array, k: int):
    """Evaluate at ``x`` and solve iteration ``k``'s identity-model subproblem.

    Returns ``(c, jac, g, factors, sol)``, ``g`` being the gradient
    estimate of ``oracle`` for ``row``, one row of its ``draw``.  A
    non-finite evaluation raises
    :class:`EvaluationError` and a rank-deficient Jacobian
    :class:`~stochsqp.errors.RankError`, each prefixed ``iteration k:``.
    Each of ``c``, ``jac`` and ``g`` is checked by
    :func:`~stochsqp.problem.all_finite`: a finite sum of squares (one
    BLAS ``ddot``) passes, else every entry must be finite.
    """
    try:
        c = np.asarray(problem.constraints(x), dtype=float)
        jac = np.asarray(problem.jacobian(x), dtype=float)
        if not (all_finite(c) and all_finite(jac)):
            raise EvaluationError("problem evaluator returned a non-finite value")
        g = evaluate_gradient(oracle, x, row)
        factors = kkt.factor_jacobian(jac)
        sol = kkt.solve_with_factors(factors, g, c)
    except (kkt.RankError, EvaluationError) as exc:
        raise type(exc)(f"iteration {k}: {exc}") from exc
    return c, jac, g, factors, sol


def iterate(
    problem: Problem, oracle: StochasticGradientOracle, config: SolverConfig
) -> Iterator[Iteration]:
    """The SQP iteration: one :class:`Iteration` per step, up to ``max_iters``.

    Consumed by :func:`run`; a caller may stop pulling early.  Each step
    solves :func:`subproblem` at the iterate and moves along its ``d``.
    A mini-batch does not depend on the iterate, so the oracle draws the
    rows of :func:`rows_per_block` steps in one call, the last block
    trimmed to the steps left: the generator ends where one draw per
    step would leave it, with the same rows.  Each block's step lengths
    are read as Python floats.
    The objective is never evaluated here; consumers that record it
    evaluate it themselves.  The schedule and step lengths are checked
    before the first step.  Errors from :func:`subproblem` propagate,
    and a non-finite iterate aborts with :class:`EvaluationError`.
    """
    config.check_oracle(oracle.exact)
    alphas = step_size(config, config.damping())
    rng = np.random.default_rng(config.seed)
    batch, iters = config.batch_size, config.max_iters
    per_block = rows_per_block(batch)
    x = np.array(problem.x0, dtype=float)
    for k in range(1, iters + 1):
        if (k - 1) % per_block == 0:
            count = min(per_block, iters - k + 1)
            steps = zip(oracle.draw(rng, batch, count), alphas[k - 1 : k - 1 + count].tolist())
        row, alpha_k = next(steps)
        c, jac, g, factors, sol = subproblem(problem, oracle, row, x, k)
        x_next = alpha_k * sol.d
        x_next += x  # x + alpha_k * d, in place
        yield Iteration(k, x, c, jac, g, factors, sol, alpha_k, x_next)
        if not all_finite(x_next):
            raise EvaluationError(f"iteration {k}: iterate became non-finite")
        x = x_next


def run(problem: Problem, oracle: StochasticGradientOracle, config: SolverConfig) -> Trace:
    """Run the full iteration budget of :func:`iterate` and return the trace.

    Each iteration records the iterate, the multipliers and, in the
    trace's ledger, the inner products ``g'd``, ``d'd``, ``||c||_1``,
    ``c'c`` and, with ``validate``, the exact-gradient twins
    ``grad'd_true`` and ``d_true'd_true``.  The trace's ``x_final`` is
    the iterate after the last step, and its ``wall_time`` the loop's
    seconds; that excludes the tallies, which
    :meth:`Trace.validation_summary` computes on call.

    With ``validate``, the shadow solve for the exact gradient reuses
    the stochastic solve's normal step (:func:`stochsqp.kkt.resolve`),
    which depends on ``c`` alone: the same bits as a full
    ``solve_with_factors``, and the run's own rows are the same bits
    as without validation.

    Deterministic given the config seed.  Errors from :func:`iterate`
    propagate; its finiteness guards on ``c``, ``J``, ``g`` and each new
    iterate are :func:`~stochsqp.problem.all_finite`, where a finite sum
    of squares (one BLAS ``ddot``) passes and otherwise every entry must
    be finite.  With ``validate`` a non-finite exact gradient aborts
    with :class:`EvaluationError`; its entries are checked only when
    ``d_true'd_true`` is not finite.  The objective is never evaluated,
    so a caller that wants merit values computes ``merit.phi(tau, f(x),
    c(x))`` at the ``trace.x`` rows it needs.
    """
    trace = Trace(problem.n, problem.m, config)
    xs, ys, ys_true = trace.x, trace.y, trace.y_true
    gd, dd, l1, cc, gd_true, dd_true = trace.ledger
    validate = config.validate

    start = time.perf_counter()
    for k, x, c, _jac, g, factors, sol, _alpha, x_next in iterate(problem, oracle, config):
        i = k - 1
        d = sol.d
        xs[i] = x
        ys[i] = sol.y
        gd[i] = g.dot(d)
        dd[i] = d.dot(d)
        l1[i] = np.add.reduce(np.abs(c))  # np.abs(c).sum() without its Python wrapper
        cc[i] = c.dot(c)

        if validate:
            grad = np.asarray(problem.gradient(x), dtype=float)
            # The normal step depends on c alone, so the shadow reuses
            # the stochastic solve's.  Cannot raise: the factors passed
            # the rank gate in iterate, and the identity model has no
            # curvature to fail.
            shadow = kkt.resolve(factors, grad, sol.w, sol.v)
            d_true = shadow.d
            gd_true[i] = grad.dot(d_true)
            dd_true[i] = norm2 = d_true.dot(d_true)
            # A non-finite gradient makes d_true non-finite, so the
            # gradient itself is checked only then.
            if not math.isfinite(norm2) and not np.isfinite(grad).all():
                raise EvaluationError(f"iteration {k}: exact gradient returned a non-finite value")
            ys_true[i] = shadow.y

    trace.wall_time = time.perf_counter() - start
    trace.x_final = x_next
    return trace


def kkt_residual(grad: Array, jac: Array, c: Array, y: Array) -> float:
    """First-order violation ``||grad + jac' y||_2 + ||c||_2`` from
    already-evaluated gradient, Jacobian and constraint arrays; ``y``
    may be a list."""
    r = grad + jac.T @ np.asarray(y)
    return math.sqrt(float(r @ r)) + math.sqrt(float(c @ c))


def stationarity_residual(problem: Problem, x: Array, y: Array) -> float:
    """First-order violation ``||grad f + jac' y||_2 + ||c||_2`` at ``x``."""
    x = np.asarray(x, dtype=float)
    grad, jac, c = (np.asarray(fn(x), dtype=float)
                    for fn in (problem.gradient, problem.jacobian, problem.constraints))
    return kkt_residual(grad, jac, c, y)
