"""The stochastic SQP iteration loop and its per-iterate diagnostics.

Each iteration draws a mini-batch gradient estimate, solves the
constrained subproblem with the identity model matrix, and moves by
``alpha_k = beta_k * tau * xi / (tau * lip_gradf + lip_jac)``.  The
``beta`` sequence must be unsummable but square-summable for stochastic
runs; the built-in power family ``beta1 * k**-p`` enforces
``1/2 < p <= 1``.  A constant schedule is also provided but is accepted
only with an exact (zero-variance) oracle, where the square-summability
requirement plays no role and the fixed step gives plain linear
convergence for reference solves.

:func:`iterate` is the iteration itself.  :func:`run` records a trace
from it, and the reference solve in :mod:`stochsqp.harness` runs it with
exact gradients until the first-order residual is small.

In validation mode the loop additionally solves the subproblem with the
exact gradient (the "shadow" solve), records the trial values and the
guaranteed-reduction slack, and tallies violations in a summary.
Violations are surfaced, never fatal: the fixed parameters are a
hypothesis, and detecting when they fail is part of the job.

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
from .merit import MeritParams, reduction_delta_q, tau_trial_true, xi_trial, check_reduction_lbnd
from .problem import Array, Problem, StochasticGradientOracle, sample_gradient

# The benchmark's traced mode (perfbench/spans.py) looks this name up
# in this module's namespace to wrap it, so it stays bound here
# although nothing in this module calls it.
from .merit import phi  # noqa: F401


def step_size(tau: float, xi: float, lip_gradf: float, lip_jac: float, beta_k: float) -> float:
    """Step length ``beta_k * tau * xi / (tau * lip_gradf + lip_jac)``.

    The formula does not guarantee a value in (0, 1]; callers that care
    should inspect the result (the run summary counts values above 1).
    """
    for label, value in (("tau", tau), ("xi", xi), ("lip_gradf", lip_gradf), ("lip_jac", lip_jac)):
        if not value > 0:
            raise ValueError(f"{label} must be > 0")
    if not 0 < beta_k <= 1:
        raise ValueError("beta_k must lie in (0, 1]")
    alpha = beta_k * tau * xi / (tau * lip_gradf + lip_jac)
    assert alpha > 0
    return alpha


@dataclass(frozen=True)
class BetaSchedule:
    """Step-size damping sequence ``beta_k``.

    family "power": ``beta_k = beta1 * k**-p`` with ``1/2 < p <= 1``
    (unsummable, square-summable).  family "constant": ``beta_k =
    beta1``; valid only for exact-gradient runs and rejected by
    :func:`iterate` when the oracle declares nonzero variance.
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
    the range-space route of :mod:`stochsqp.kkt`.  For another
    symmetric model matrix, solve single subproblems with
    :func:`stochsqp.kkt.solve_kkt`.

    ``curvature`` is the model matrix's ``(zeta, kappa_h)``, its
    curvature lower bound on the Jacobian null space and its norm bound
    (``0 < zeta <= kappa_h``, not checked against the matrix).  Given
    it, :func:`run` records the curvature-inequality slack of each step
    and, with ``validate``, counts violations; ``None`` skips the check.
    """

    merit: MeritParams = field(default_factory=MeritParams)
    lip_gradf: float = 1.0
    lip_jac: float = 1.0
    beta: BetaSchedule = field(default_factory=BetaSchedule)
    batch_size: int = 16
    max_iters: int = 1000
    seed: int = 0
    validate: bool = False
    curvature: tuple[float, float] | None = None

    def __post_init__(self):
        if not self.lip_gradf > 0 or not self.lip_jac > 0:
            raise ConfigError("Lipschitz constants must be > 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if self.curvature is not None:
            zeta, kappa_h = self.curvature
            if not 0 < zeta <= kappa_h:
                raise ConfigError("curvature (zeta, kappa_h) needs 0 < zeta <= kappa_h")


class Trace:
    """Struct-of-arrays iteration history.

    ``len(trace)`` is the iteration count; row ``i`` of every array
    (``trace.x``, ``trace.y``, ``trace.alpha``, ...) belongs to iteration
    ``k = i + 1``, and ``trace.x[i]`` is the iterate that step was
    computed at.  ``trace.y_true`` is ``None`` without validation.  The
    other per-iterate vectors (gradient estimate, step and its parts)
    are not kept; :func:`iterate` yields them.
    """

    _SCALARS = (
        "alpha",
        "beta",
        "norm_c",
        "dq_stoch",
        "xi_trial",
        "tau_trial_true",
        "lbnd_slack",
        "resid_true",
        "kuv_slack",
        "kuv_slack_true",
    )

    def __init__(self, n: int, m: int, iters: int, validate: bool):
        self.n, self.m, self.iters = n, m, iters
        self.validate = validate
        for name in self._SCALARS:
            setattr(self, name, np.full(iters, np.nan))
        self.x = np.empty((iters, n))
        self.y = np.empty((iters, m))
        self.y_true = np.full((iters, m), np.nan) if validate else None

    def __len__(self) -> int:
        return self.iters


@dataclass
class ValidationSummary:
    """Violation tallies from a validation-mode run (diagnostic only).

    ``curvature_violations`` is ``None`` when no curvature check ran,
    that is when the config has no ``curvature`` pair.
    """

    iterations: int = 0
    xi_violations: int = 0
    tau_violations: int = 0
    lbnd_violations: int = 0
    curvature_violations: int | None = None
    alpha_above_one: int = 0
    first_xi_violation: int | None = None
    first_tau_violation: int | None = None

    @property
    def clean(self) -> bool:
        return (
            self.xi_violations == 0
            and self.tau_violations == 0
            and self.lbnd_violations == 0
            and self.curvature_violations in (0, None)
        )


@dataclass
class RunResult:
    trace: Trace
    x_final: Array
    summary: ValidationSummary | None
    wall_time: float
    config: SolverConfig


def _kuv_slack(sol: kkt.KktSolution, kappa_uv: float, zeta: float) -> float:
    """Curvature-inequality slack when the tangential part dominates.

    Returns ``d'd - (zeta/2) ||u||^2`` (``h = I``) when ``||u||^2 >=
    kappa_uv ||v||^2`` and nan when the inequality's premise does not apply.
    """
    nu2 = float(sol.u @ sol.u)
    nv2 = float(sol.v @ sol.v)
    if nu2 < kappa_uv * nv2:
        return math.nan
    return float(sol.d @ sol.d) - 0.5 * zeta * nu2


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
    if config.beta.family == "constant" and oracle.sigma2 > 0:
        raise ConfigError(
            "constant beta schedule is reserved for exact-gradient (sigma = 0) runs"
        )

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
            factors = kkt.factor_jacobian(jac, null_space=False)
            sol = kkt.solve_with_factors(None, factors, g, c)
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

    Deterministic given the config seed.  Errors from :func:`iterate`
    propagate.  The objective is never evaluated, so only a non-finite
    constraint, Jacobian, gradient or iterate aborts a run; a caller
    that wants merit values computes ``merit.phi(tau, f(x), c(x))`` at
    the ``trace.x`` rows it needs.
    """
    merit = config.merit
    trace = Trace(problem.n, problem.m, config.max_iters, config.validate)

    kappa_uv = zeta = None
    if config.curvature is not None:
        zeta, kappa_h = config.curvature
        kappa_uv = derive_kuv(zeta, kappa_h)
    summary = None
    if config.validate:
        summary = ValidationSummary(
            iterations=config.max_iters,
            curvature_violations=None if kappa_uv is None else 0,
        )

    start = time.perf_counter()
    for k, x, c, jac, g, factors, sol, beta_k, alpha_k, x_next in iterate(
        problem, oracle, config
    ):
        i = k - 1
        dq_s = reduction_delta_q(merit.tau, c, g, None, sol.d)

        trace.alpha[i] = alpha_k
        trace.beta[i] = beta_k
        trace.norm_c[i] = math.sqrt(float(c @ c))
        trace.dq_stoch[i] = dq_s
        trace.xi_trial[i] = xi_trial(merit.tau, dq_s, sol.d)
        trace.x[i] = x
        trace.y[i] = sol.y
        if kappa_uv is not None:
            trace.kuv_slack[i] = _kuv_slack(sol, kappa_uv, zeta)

        if config.validate:
            grad = np.asarray(problem.gradient(x), dtype=float)
            # Cannot raise: the factors passed the rank gate in iterate,
            # and the identity model has no curvature to fail.
            shadow = kkt.solve_with_factors(None, factors, grad, c)
            trace.y_true[i] = shadow.y
            tau_tr = tau_trial_true(merit.nu, c, grad, None, shadow.d)
            trace.tau_trial_true[i] = tau_tr
            holds, slack = check_reduction_lbnd(merit.tau, merit.nu, c, grad, None, shadow.d)
            trace.lbnd_slack[i] = slack
            trace.resid_true[i] = kkt_residual(grad, jac, c, shadow.y)

            slop = 1e-12
            if trace.xi_trial[i] < merit.xi - slop:
                summary.xi_violations += 1
                if summary.first_xi_violation is None:
                    summary.first_xi_violation = k
            if tau_tr < merit.tau - slop:
                summary.tau_violations += 1
                if summary.first_tau_violation is None:
                    summary.first_tau_violation = k
            if merit.tau <= tau_tr and not holds:
                summary.lbnd_violations += 1
            if kappa_uv is not None:
                trace.kuv_slack_true[i] = _kuv_slack(shadow, kappa_uv, zeta)
                for value in (trace.kuv_slack[i], trace.kuv_slack_true[i]):
                    if not math.isnan(value) and value < -1e-10 * (1.0 + abs(value)):
                        summary.curvature_violations += 1
            if alpha_k > 1.0:
                summary.alpha_above_one += 1

    wall = time.perf_counter() - start
    return RunResult(trace=trace, x_final=x_next, summary=summary, wall_time=wall, config=config)


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


def derive_kuv(zeta: float, kappa_h: float) -> float:
    """Smallest ``kappa`` with ``2 kappa_h / sqrt(kappa) + kappa_h / kappa
    <= zeta / 2``, found by bisection.

    The left-hand side is strictly decreasing in ``kappa`` and depends
    only on the ratio ``kappa_h / zeta``, so the output is homogeneous
    of degree zero in ``(zeta, kappa_h)``.
    """
    if not 0 < zeta <= kappa_h:
        raise ValueError("need 0 < zeta <= kappa_h")

    def lhs(kappa: float) -> float:
        return 2.0 * kappa_h / math.sqrt(kappa) + kappa_h / kappa

    target = zeta / 2.0
    lo = 1.0  # lhs(1) = 3 kappa_h >= 3 zeta > target always
    hi = 2.0
    while lhs(hi) > target:
        hi *= 2.0
        if hi > 1e30:
            raise ArithmeticError("bisection bracket expansion failed")
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if lhs(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi
