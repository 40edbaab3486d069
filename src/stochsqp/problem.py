"""Equality-constrained stochastic programs and gradient oracles.

A :class:`Problem` bundles plain-callable evaluators for an objective
``f``, its gradient, a constraint map ``c`` and the constraint Jacobian.
The solver only ever talks to these callables, so an instance can wrap
anything from a two-line toy to a data-fitting loss over a sample set.

A :class:`StochasticGradientOracle` declares only whether its draws are
exact: the gradient-noise variance enters the analysis, not the method.

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
    ``grad f(x)``.  ``exact`` declares that every draw is the exact
    gradient, which a constant ``beta`` schedule requires; the step size
    uses no variance bound, so an oracle declares none.
    """

    sample: Callable[[Array, int, np.random.Generator], Array]
    exact: bool = False


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


def exact_oracle(problem: Problem) -> StochasticGradientOracle:
    """Oracle returning the exact gradient, declared ``exact``."""

    def sample(x, batch, rng):
        if batch < 1:
            raise ValueError("batch size must be >= 1")
        return np.asarray(problem.gradient(x), dtype=float)

    return StochasticGradientOracle(sample=sample, exact=True)
