"""Equality-constrained stochastic programs and gradient oracles.

A :class:`Problem` bundles plain-callable evaluators for an objective
``f``, its gradient, a constraint map ``c`` and the constraint Jacobian.
The solver only ever talks to these callables, so an instance can wrap
anything from a two-line toy to a data-fitting loss over a sample set.

Randomness is always threaded through an explicit
``numpy.random.Generator``: oracles receive the generator as an
argument and mutate nothing else, so replicated runs are reproducible
and parallel replicates can own independent streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError

Array = np.ndarray


@dataclass(frozen=True)
class Problem:
    """An equality-constrained program ``min f(x) s.t. c(x) = 0``.

    Attributes:
        n: primal dimension.
        m: constraint dimension, ``m <= n``.
        objective: ``x -> f(x)`` (scalar).
        gradient: ``x -> grad f(x)`` (n-vector), the exact gradient.
        constraints: ``x -> c(x)`` (m-vector).
        jacobian: ``x -> J(x)`` with shape ``(m, n)``; row ``i`` is the
            gradient of the i-th constraint component.
        x0: optional initial point used by solver runs.
        name: label used in error messages and run metadata.
        lagrangian_hessian: optional ``(x, y) -> H`` with shape
            ``(n, n)``, the Hessian of the Lagrangian ``f(x) + c(x)' y``
            in ``x`` (the multiplier sign of :mod:`stochsqp.kkt`, where
            ``grad f + J' y = 0`` at a solution).  The solver loop never
            calls it; the reference solve uses it for Newton steps on
            the KKT system.

    Evaluators must be safe for concurrent read-only evaluation at
    distinct points.
    """

    n: int
    m: int
    objective: Callable[[Array], float]
    gradient: Callable[[Array], Array]
    constraints: Callable[[Array], Array]
    jacobian: Callable[[Array], Array]
    x0: Array | None = None
    name: str = "problem"
    lagrangian_hessian: Callable[[Array, Array], Array] | None = None

    def __post_init__(self):
        if not (1 <= self.m <= self.n):
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if self.x0 is not None and np.shape(self.x0) != (self.n,):
            raise ValueError("x0 has wrong dimension")


@dataclass(frozen=True)
class StochasticGradientOracle:
    """Unbiased stochastic estimator of a problem's objective gradient.

    ``sample(x, batch, rng)`` must return the average of ``batch``
    i.i.d. per-sample gradient estimates, each unbiased for
    ``grad f(x)``.  ``sigma2`` is the declared (or estimated) bound on
    the second moment ``E||g_1 - grad f(x)||^2`` of a single sample, so
    a batch of size ``b`` has second moment at most ``sigma2 / b``.
    """

    sample: Callable[[Array, int, np.random.Generator], Array]
    sigma2: float = 0.0

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")


@dataclass(frozen=True)
class ProblemConstants:
    """Problem-level bound and smoothness constants.

    These are user-supplied (or empirically estimated) and feed the
    step-size formula and runtime diagnostics; nothing in the solver
    verifies them against the problem.

    Attributes:
        kappa_x: bound on ||x|| over the region visited by iterates.
        f_inf: lower bound on the objective (any real).
        kappa_gradf: bound on ||grad f(x)||.
        kappa_c: bound on ||c(x)||.
        kappa_jac: bound on the Jacobian spectral norm.
        r: uniform lower bound on the smallest singular value of the
            Jacobian (r <= kappa_jac).
        lip_gradf: Lipschitz constant of the objective gradient.
        lip_c: Lipschitz constant of the constraint map.
        lip_jac: Lipschitz constant of the Jacobian map.
        sigma: per-sample oracle noise bound (see the oracle contract).
        zeta: lower curvature bound of the quadratic-model matrix on the
            Jacobian null space (zeta <= kappa_h).
        kappa_h: spectral-norm bound on the quadratic-model matrix.
    """

    kappa_x: float
    f_inf: float
    kappa_gradf: float
    kappa_c: float
    kappa_jac: float
    r: float
    lip_gradf: float
    lip_c: float
    lip_jac: float
    sigma: float
    zeta: float
    kappa_h: float

    def __post_init__(self):
        positive = {
            "kappa_x": self.kappa_x,
            "kappa_gradf": self.kappa_gradf,
            "kappa_c": self.kappa_c,
            "kappa_jac": self.kappa_jac,
            "r": self.r,
            "lip_gradf": self.lip_gradf,
            "lip_c": self.lip_c,
            "lip_jac": self.lip_jac,
            "zeta": self.zeta,
            "kappa_h": self.kappa_h,
        }
        for label, value in positive.items():
            if not value > 0:
                raise ValueError(f"{label} must be strictly positive")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.r > self.kappa_jac:
            raise ValueError("r cannot exceed kappa_jac")
        if self.zeta > self.kappa_h:
            raise ValueError("zeta cannot exceed kappa_h")


def _check_finite(value, component: str, point: Array):
    if not np.isfinite(value).all():
        raise EvaluationError(
            f"{component} returned a non-finite value at x={np.asarray(point)!r}"
        )


def sample_gradient(
    oracle: StochasticGradientOracle,
    x: Array,
    batch: int,
    rng: np.random.Generator,
) -> Array:
    """Draw one mini-batch gradient estimate.

    Deterministic given ``(x, batch)`` and the generator state; the
    generator is advanced in place.
    """
    if batch < 1:
        raise ValueError("batch size must be >= 1")
    g = np.asarray(oracle.sample(np.asarray(x, dtype=float), int(batch), rng), dtype=float)
    _check_finite(g, "stochastic gradient", x)
    return g


def estimate_variance(
    oracle: StochasticGradientOracle,
    problem: Problem,
    x: Array,
    batch: int,
    trials: int,
    rng: np.random.Generator,
) -> float:
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


def exact_oracle(problem: Problem) -> StochasticGradientOracle:
    """Zero-variance oracle returning the exact gradient (sigma2 = 0)."""

    def sample(x, batch, rng):
        if batch < 1:
            raise ValueError("batch size must be >= 1")
        return np.asarray(problem.gradient(x), dtype=float)

    return StochasticGradientOracle(sample=sample, sigma2=0.0)
