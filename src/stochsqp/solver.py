"""The stochastic SQP iteration loop and its per-iterate diagnostics.

Each iteration draws a mini-batch gradient estimate, solves the
constrained subproblem with the identity model matrix, and moves by
``alpha_k = beta_k * tau * xi / (tau * lip_gradf + lip_jac)``.  The
``beta`` sequence must be unsummable but square-summable for stochastic
runs; the built-in power family ``beta1 * k**-p`` enforces
``1/2 < p <= 1``.  A constant schedule is also provided but is accepted
only with an oracle declared exact, where the square-summability
requirement plays no role and the fixed step gives plain linear
convergence for reference solves.

:func:`iterate` is the iteration itself.  :func:`run` records a trace
from it, and the reference solve in :mod:`stochsqp.harness` runs it with
exact gradients until the first-order residual is small.

In validation mode the loop additionally solves the subproblem with the
exact gradient (the "shadow" solve).  Inside the loop :func:`run` keeps
only a ledger of a few inner products per iteration in the
:class:`Trace`; the diagnostic columns (model reduction, trial values
and guaranteed-reduction slack) and the violation tallies of a
:class:`ValidationSummary` are vectorized reads of it, with the same
bits as the per-step helpers of :mod:`stochsqp.merit`.  Violations are
surfaced, never fatal: the fixed parameters are a hypothesis, and
detecting when they fail is part of the job.  The analysis's curvature
condition on the model matrix is not among them: the identity has unit
curvature, and ``d'd = u'u + v'v`` with ``u`` orthogonal to ``v`` gives
``d'd >= (zeta/2) u'u`` for every ``zeta <= 2`` at every step.

A run is strictly sequential and owns its state; concurrent replicates
must use separate configs (seeds) and generators.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from . import kkt
from .errors import ConfigError, EvaluationError
from .merit import (
    MeritParams,
    lbnd_from_products,
    reduction_from_products,
    tau_trial_from_products,
    xi_trial_from_products,
)
from .problem import Array, Problem, StochasticGradientOracle, sample_gradient

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


def step_size(tau: float, xi: float, lip_gradf: float, lip_jac: float, beta_k: float) -> float:
    """Step length ``beta_k * tau * xi / (tau * lip_gradf + lip_jac)``.

    The formula does not guarantee a value in (0, 1]; callers that care
    should inspect the result (the run summary counts values above 1).
    Inputs so large that the quotient overflows or underflows raise
    :class:`ValueError`.
    """
    for label, value in (("tau", tau), ("xi", xi), ("lip_gradf", lip_gradf), ("lip_jac", lip_jac)):
        if not value > 0:
            raise ValueError(f"{label} must be > 0")
    if not 0 < beta_k <= 1:
        raise ValueError("beta_k must lie in (0, 1]")
    alpha = beta_k * tau * xi / (tau * lip_gradf + lip_jac)
    if not 0 < alpha < math.inf:
        raise ValueError(
            f"step size {alpha!r} is not positive and finite for tau={tau!r}, xi={xi!r}, "
            f"lip_gradf={lip_gradf!r}, lip_jac={lip_jac!r}, beta_k={beta_k!r}"
        )
    return alpha


@dataclass(frozen=True)
class BetaSchedule:
    """Step-size damping sequence ``beta_k``.

    family "power": ``beta_k = beta1 * k**-p`` with ``1/2 < p <= 1``
    (unsummable, square-summable).  family "constant": ``beta_k =
    beta1``; valid only for exact-gradient runs and rejected by
    :func:`iterate` when the oracle does not declare itself exact.
    """

    family: str = "power"
    beta1: float = 1.0
    p: float = 1.0

    def __post_init__(self):
        if self.family not in ("power", "constant"):
            raise ConfigError(f"unknown beta family {self.family!r}")
        if not 0 < self.beta1 <= 1:
            raise ConfigError("beta1 must lie in (0, 1]")
        if self.family == "power" and not 0.5 < self.p <= 1:
            raise ConfigError(
                "power schedule needs 1/2 < p <= 1 to be unsummable but square-summable"
            )

    def __call__(self, k: int) -> float:
        if k < 1:
            raise ValueError("iteration index starts at 1")
        if self.family == "constant":
            return self.beta1
        return self.beta1 * float(k) ** (-self.p)


@dataclass
class SolverConfig:
    """Fixed parameters for one run.

    The quadratic-model matrix is the identity, ``H_k = I``, solved by
    :func:`stochsqp.kkt.solve_with_factors`.  For another
    symmetric model matrix, solve single subproblems with
    :func:`stochsqp.kkt.solve_kkt`.  The identity has unit curvature
    on the Jacobian null space, so no curvature setting is needed.
    """

    merit: MeritParams = field(default_factory=MeritParams)
    lip_gradf: float = 1.0
    lip_jac: float = 1.0
    beta: BetaSchedule = field(default_factory=BetaSchedule)
    batch_size: int = 16
    max_iters: int = 1000
    seed: int = 0
    validate: bool = False

    def __post_init__(self):
        if not self.lip_gradf > 0 or not self.lip_jac > 0:
            raise ConfigError("Lipschitz constants must be > 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


class Trace:
    """Struct-of-arrays iteration history.

    ``len(trace)`` is the iteration count; row ``i`` of every array
    (``trace.x``, ``trace.y``, ``trace.alpha``, ...) belongs to iteration
    ``k = i + 1``, and ``trace.x[i]`` is the iterate that step was
    computed at.  ``trace.y_true`` is ``None`` without validation.  The
    other per-iterate vectors (gradient estimate, step and its parts)
    are not kept; :func:`iterate` yields them.

    The diagnostic columns (``norm_c``, ``dq_stoch``, ``xi_trial``,
    ``tau_trial_true``, ``lbnd_slack``, ``resid_true``) are computed from
    ``trace.ledger`` and ``trace.merit`` on each read.  The ledger starts
    as NaN, so without validation the exact-gradient columns read NaN.
    """

    #: The inner products :func:`run` records per iteration, one ledger
    #: row each, in this order.
    _LEDGER = ("gd", "dd", "l1", "cc", "gd_true", "dd_true")

    def __init__(self, n: int, m: int, iters: int, validate: bool, merit: MeritParams):
        self.merit = merit
        self.alpha = np.full(iters, np.nan)
        self.beta = np.full(iters, np.nan)
        self.ledger = np.full((len(self._LEDGER), iters), np.nan)
        self.x = np.empty((iters, n))
        self.y = np.empty((iters, m))
        self.y_true = np.full((iters, m), np.nan) if validate else None

    def __len__(self) -> int:
        return len(self.alpha)

    @classmethod
    def floats_per_iteration(cls, n: int, m: int, validate: bool) -> int:
        """Float64 values one iteration of :func:`run` stores: ``alpha``,
        ``beta``, the ledger rows, ``x``, ``y`` and, with ``validate``,
        ``y_true``."""
        return 2 + len(cls._LEDGER) + n + m * (1 + validate)

    @property
    def norm_c(self) -> Array:
        return np.sqrt(self.ledger[3])  # sqrt(c'c)

    @property
    def dq_stoch(self) -> Array:
        return reduction_from_products(self.merit.tau, *self.ledger[:3])  # g'd, d'd, ||c||_1

    @property
    def xi_trial(self) -> Array:
        return xi_trial_from_products(self.merit.tau, self.dq_stoch, self.ledger[1])

    @property
    def tau_trial_true(self) -> Array:
        _, _, l1, _, gd_true, dd_true = self.ledger
        return tau_trial_from_products(self.merit.nu, gd_true, dd_true, l1)

    def _lbnd(self):
        _, _, l1, _, gd_true, dd_true = self.ledger
        return lbnd_from_products(self.merit.tau, self.merit.nu, gd_true, dd_true, l1)

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
        merit = self.merit
        xi_tr, tau_tr, (holds, _) = self.xi_trial, self.tau_trial_true, self._lbnd()
        slop = 1e-12
        xi_bad = xi_tr < merit.xi - slop
        tau_bad = tau_tr < merit.tau - slop
        return ValidationSummary(
            iterations=len(self),
            xi_violations=int(np.count_nonzero(xi_bad)),
            tau_violations=int(np.count_nonzero(tau_bad)),
            lbnd_violations=int(np.count_nonzero((merit.tau <= tau_tr) & ~holds)),
            alpha_above_one=int(np.count_nonzero(self.alpha > 1.0)),
            first_xi_violation=int(np.argmax(xi_bad)) + 1 if xi_bad.any() else None,
            first_tau_violation=int(np.argmax(tau_bad)) + 1 if tau_bad.any() else None,
        )


@dataclass
class ValidationSummary:
    """Violation tallies from a validation-mode run (diagnostic only)."""

    iterations: int = 0
    xi_violations: int = 0
    tau_violations: int = 0
    lbnd_violations: int = 0
    alpha_above_one: int = 0
    first_xi_violation: int | None = None
    first_tau_violation: int | None = None

    @property
    def clean(self) -> bool:
        return self.xi_violations == 0 and self.tau_violations == 0 and self.lbnd_violations == 0


@dataclass
class RunResult:
    trace: Trace
    x_final: Array
    summary: ValidationSummary | None
    wall_time: float


class Iteration(NamedTuple):
    """One iteration's data, yielded before the iterate moves to ``x_next``."""

    k: int
    x: Array
    c: Array
    jac: Array
    g: Array
    factors: kkt.JacobianFactors
    sol: kkt.KktSolution
    beta: float
    alpha: float
    x_next: Array


def iterate(
    problem: Problem, oracle: StochasticGradientOracle, config: SolverConfig
) -> Iterator[Iteration]:
    """The SQP iteration: one :class:`Iteration` per step, up to ``max_iters``.

    Shared by :func:`run` and the reference solve, which stops pulling
    once its residual is small.  The objective is never evaluated here;
    consumers that record it evaluate it themselves.  A rank failure of
    the Jacobian aborts with the iterate index attached; a
    non-finite constraint, Jacobian, gradient or iterate aborts with
    :class:`EvaluationError`.
    """
    if problem.x0 is None:
        raise ConfigError("problem must supply an initial point x0")
    if config.beta.family == "constant" and not oracle.exact:
        raise ConfigError("constant beta schedule is reserved for exact-gradient runs")

    merit = config.merit
    rng = np.random.default_rng(config.seed)
    x = np.array(problem.x0, dtype=float)
    for k in range(1, config.max_iters + 1):
        try:
            c = np.asarray(problem.constraints(x), dtype=float)
            jac = np.asarray(problem.jacobian(x), dtype=float)
            if not (np.isfinite(c).all() and np.isfinite(jac).all()):
                raise EvaluationError("problem evaluator returned a non-finite value")
            g = sample_gradient(oracle, x, config.batch_size, rng)
            factors = kkt.factor_jacobian(jac)
            sol = kkt.solve_with_factors(factors, g, c)
        except (kkt.RankError, EvaluationError) as exc:
            raise type(exc)(f"iteration {k}: {exc}") from exc

        beta_k = config.beta(k)
        alpha_k = step_size(merit.tau, merit.xi, config.lip_gradf, config.lip_jac, beta_k)
        x_next = x + alpha_k * sol.d
        yield Iteration(k, x, c, jac, g, factors, sol, beta_k, alpha_k, x_next)
        if not np.isfinite(x_next).all():
            raise EvaluationError(f"iteration {k}: iterate became non-finite")
        x = x_next


def run(problem: Problem, oracle: StochasticGradientOracle, config: SolverConfig) -> RunResult:
    """Run the full iteration budget of :func:`iterate` and return the trace.

    Each iteration records the iterate, the multipliers, the step length
    and, in the trace's ledger, the inner products ``g'd``, ``d'd``,
    ``||c||_1``, ``c'c`` and, with ``validate``, the exact-gradient
    twins ``grad'd_true`` and ``d_true'd_true``.  The summary is
    :meth:`Trace.validation_summary`.

    Deterministic given the config seed.  Errors from :func:`iterate`
    propagate, and with ``validate`` a non-finite exact gradient aborts
    with :class:`EvaluationError`.  The objective is never evaluated,
    so a caller that wants merit values computes ``merit.phi(tau, f(x),
    c(x))`` at the ``trace.x`` rows it needs.
    """
    trace = Trace(problem.n, problem.m, config.max_iters, config.validate, config.merit)
    gd, dd, l1, cc, gd_true, dd_true = trace.ledger
    validate = config.validate

    start = time.perf_counter()
    for k, x, c, _jac, g, factors, sol, beta_k, alpha_k, x_next in iterate(
        problem, oracle, config
    ):
        i = k - 1
        trace.alpha[i] = alpha_k
        trace.beta[i] = beta_k
        trace.x[i] = x
        trace.y[i] = sol.y
        gd[i] = g @ sol.d
        dd[i] = sol.d @ sol.d
        l1[i] = np.abs(c).sum()
        cc[i] = c @ c

        if validate:
            grad = np.asarray(problem.gradient(x), dtype=float)
            # Cannot raise: the factors passed the rank gate in iterate,
            # and the identity model has no curvature to fail.
            shadow = kkt.solve_with_factors(factors, grad, c)
            gd_true[i] = grad @ shadow.d
            dd_true[i] = shadow.d @ shadow.d
            # A non-finite gradient makes d_true non-finite, so the
            # gradient itself is checked only then.
            if not math.isfinite(dd_true[i]) and not np.isfinite(grad).all():
                raise EvaluationError(f"iteration {k}: exact gradient returned a non-finite value")
            trace.y_true[i] = shadow.y

    summary = trace.validation_summary()
    wall = time.perf_counter() - start
    return RunResult(trace=trace, x_final=x_next, summary=summary, wall_time=wall)


def kkt_residual(grad: Array, jac: Array, c: Array, y: Array) -> float:
    """First-order violation ``||grad + jac' y||_2 + ||c||_2`` from
    already-evaluated gradient, Jacobian and constraint arrays; ``y``
    may be a list."""
    r = grad + jac.T @ np.asarray(y)
    return math.sqrt(float(r @ r)) + math.sqrt(float(c @ c))


def _evaluate(problem: Problem, x: Array):
    """``(grad, jac, c)`` at ``x`` as float arrays."""
    x = np.asarray(x, dtype=float)
    return (
        np.asarray(problem.gradient(x), dtype=float),
        np.asarray(problem.jacobian(x), dtype=float),
        np.asarray(problem.constraints(x), dtype=float),
    )


def stationarity_residual(problem: Problem, x: Array, y: Array) -> float:
    """First-order violation ``||grad f + jac' y||_2 + ||c||_2`` at ``x``."""
    return kkt_residual(*_evaluate(problem, x), y)
