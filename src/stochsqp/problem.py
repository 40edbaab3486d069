"""Equality-constrained stochastic programs and gradient oracles.

A :class:`Problem` bundles plain-callable evaluators for an objective
``f``, its gradient, a constraint map ``c`` and the constraint Jacobian.
The solver only ever talks to these callables, so an instance can wrap
anything from a two-line toy to a data-fitting loss over a sample set.

A :class:`StochasticGradientOracle` is two calls: ``draw`` makes the
random input of many gradient draws at once, and ``evaluate`` turns one
row of it into a gradient at a point.  A draw does not depend on the
point, so a run draws its rows a block at a time, one generator call
per block, ahead of the iterates they are evaluated at.  The oracle
declares only whether its draws are exact: the gradient-noise variance
enters the analysis, not the method.

Randomness is always threaded through an explicit
``numpy.random.Generator``: ``draw`` receives the generator as an
argument and mutates nothing else, and the oracle keeps no state, so
replicates can share one oracle, replicated runs are reproducible and
parallel replicates can own independent streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.blas import ddot

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
        x0: initial point of solver runs and of the reference solve.
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
    x0: Array
    lagrangian_hessian: Callable[[Array, Array], Array] | None = None

    def __post_init__(self):
        if not (1 <= self.m <= self.n):
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if np.shape(self.x0) != (self.n,):
            raise ValueError("x0 has wrong dimension")


@dataclass(frozen=True)
class StochasticGradientOracle:
    """Unbiased stochastic estimator of a problem's objective gradient.

    ``draw(rng, batch, count)`` returns ``count`` rows of random input,
    one per gradient draw of ``batch`` samples, made by one call on
    ``rng``; ``count`` rows drawn at once must equal, bit for bit and
    in generator state, ``count`` one-row draws made in turn.
    ``evaluate(x, row)`` is deterministic: the average of ``batch``
    i.i.d. per-sample gradient estimates at ``x`` named by ``row``, each
    unbiased for ``grad f(x)``.  Neither call keeps state, so one oracle
    serves every replicate.  ``exact`` declares that every draw is the
    exact gradient, which a ``beta`` schedule with ``p <= 1/2``
    requires; the step size uses no variance bound, so an oracle
    declares none.
    """

    draw: Callable[[np.random.Generator, int, int], Array]
    evaluate: Callable[[Array, Array], Array]
    exact: bool = False


def all_finite(a: Array) -> bool:
    """Whether every entry of the float array ``a`` is finite.

    One BLAS ``ddot`` decides the common case: a finite ``a'a`` proves
    every entry finite, since a NaN or infinite entry makes the sum of
    squares NaN or ``+inf`` and squares cannot cancel.  Only a
    non-finite ``a'a`` falls back to the entrywise check, so a finite
    ``a`` whose squares overflow still passes.  ``ddot`` sets no numpy
    warning on overflow, where ``a @ a`` would.
    """
    flat = a.ravel(order="K")
    return (flat.size > 0 and math.isfinite(ddot(flat, flat))) or bool(np.isfinite(flat).all())


def evaluate_gradient(oracle: StochasticGradientOracle, x: Array, row: Array) -> Array:
    """The gradient estimate at ``x`` named by one row of ``oracle.draw``.

    A non-finite value raises :class:`EvaluationError`, naming an
    ``exact`` oracle's draw the exact gradient.  The check is
    :func:`all_finite`: a finite ``g'g`` passes, else every entry must
    be finite.
    """
    g = np.asarray(oracle.evaluate(np.asarray(x, dtype=float), row), dtype=float)
    if not all_finite(g):
        component = "exact gradient" if oracle.exact else "stochastic gradient"
        raise EvaluationError(f"{component} returned a non-finite value at x={np.asarray(x)!r}")
    return g


def sample_gradient(
    oracle: StochasticGradientOracle,
    x: Array,
    batch: int,
    rng: np.random.Generator,
) -> Array:
    """Draw one mini-batch gradient estimate.

    Deterministic given ``(x, batch)`` and the generator state; the
    generator is advanced in place.  The draw is one row of
    ``oracle.draw``, checked by :func:`evaluate_gradient`.
    """
    if batch < 1:
        raise ValueError("batch size must be >= 1")
    return evaluate_gradient(oracle, x, oracle.draw(rng, int(batch), 1)[0])


def exact_oracle(problem: Problem) -> StochasticGradientOracle:
    """Oracle returning the exact gradient, declared ``exact``.  Its rows
    are empty and it never touches the generator, which may be ``None``."""

    def draw(rng, batch, count):
        return np.empty((count, 0))

    def evaluate(x, row):
        return np.asarray(problem.gradient(x), dtype=float)

    return StochasticGradientOracle(draw, evaluate, exact=True)
