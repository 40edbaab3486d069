"""Lagrange multiplier estimators built from a run's history.

The raw per-iteration multiplier inherits the gradient noise and does
not converge; averaging suppresses that noise.  Two estimators are
provided: the running average ``mean(y_1..y_k)``, and a windowed
average over the trailing iterations whose primal points stay within a
ball of the current iterate (so stale multipliers from far-away points
are dropped as the run converges).

:func:`running_averages` is the one store of running averages: a single
prefix-sum pass gives every ``k`` at once, and the trace CSV writer,
the replicate summaries and :class:`MultiplierTrace` all read from it.
:func:`running_average` is the defining slice mean it is tested
against.

Iteration numbers ``k`` are 1-based throughout, matching the solver's
records; sample positions inside arrays remain 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .problem import Array


def running_average(ys: Array, k: int, kbar: int = 1) -> Array:
    """Arithmetic mean of the multipliers for iterations ``kbar .. k``."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if not 1 <= kbar <= k <= ys.shape[0]:
        raise ValueError(f"need 1 <= kbar <= k <= {ys.shape[0]}")
    return ys[kbar - 1 : k].mean(axis=0)


def running_averages(ys: Array) -> Array:
    """Every running average at once: row ``k - 1`` is ``mean(y_1..y_k)``."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    return np.cumsum(ys, axis=0) / np.arange(1, ys.shape[0] + 1)[:, None]


def windowed_average(xs: Array, ys: Array, k: int, eps: float):
    """Mean of the multipliers over the trailing in-ball window.

    The window start ``kprime`` is the smallest index such that every
    iterate ``x_j`` with ``kprime <= j <= k`` satisfies
    ``||x_j - x_k|| <= eps``; if even the previous iterate is too far,
    the window is just ``{k}``.  Returns ``(mean, kprime)``.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape[0] != ys.shape[0]:
        raise ValueError("iterate and multiplier histories must align")
    if not 1 <= k <= xs.shape[0]:
        raise ValueError("k out of range")
    dist = np.linalg.norm(xs[:k] - xs[k - 1], axis=1)
    outside = np.nonzero(dist > eps)[0]
    kprime = int(outside[-1]) + 2 if outside.size else 1
    return ys[kprime - 1 : k].mean(axis=0), kprime


class MultiplierTrace:
    """Read-only view of a run's iterate and multiplier arrays.

    Holds the arrays it is given, without copying them.  Running
    averages are read from one :func:`running_averages` pass, made on
    the first query; windowed averages are recomputed by the defining
    scan.  Queries may be issued concurrently.
    """

    def __init__(self, xs: Array, ys: Array, ys_true: Array | None = None):
        self.xs = np.atleast_2d(np.asarray(xs, dtype=float))
        self.ys = np.atleast_2d(np.asarray(ys, dtype=float))
        self.ys_true = None if ys_true is None else np.atleast_2d(np.asarray(ys_true, dtype=float))
        if self.xs.shape[0] != self.ys.shape[0]:
            raise ValueError("iterate and multiplier histories must align")

    @classmethod
    def from_run(cls, trace) -> "MultiplierTrace":
        """View of a solver trace (with its exact multipliers when stored)."""
        return cls(trace.x, trace.y, trace.y_true)

    def __len__(self) -> int:
        return self.ys.shape[0]

    @cached_property
    def averages(self) -> Array:
        """All running averages; row ``k - 1`` is ``mean(y_1..y_k)``."""
        return running_averages(self.ys)

    def running_average(self, k: int | None = None) -> Array:
        """Running average ``mean(y_1..y_k)``, by default over the whole run."""
        k = len(self) if k is None else k
        if not 1 <= k <= len(self):
            raise ValueError("need 1 <= k <= len(trace)")
        return self.averages[k - 1]

    def windowed_average(self, eps: float, k: int | None = None):
        k = len(self) if k is None else k
        return windowed_average(self.xs, self.ys, k, eps)


def kappa_y(
    kappa_h: float,
    lip_c: float,
    r: float,
    lip_gradf: float,
    kappa_gradf: float,
    lip_m: float,
) -> float:
    """Multiplier error-bound constant
    ``kappa_h * lip_c / r**2 + lip_gradf / r + kappa_gradf * lip_m``.

    ``lip_m`` is the Lipschitz constant of the multiplier-operator map
    near the reference point; it is not computable from problem data in
    general and must be supplied as an estimate.
    """
    for label, value in (
        ("kappa_h", kappa_h),
        ("lip_c", lip_c),
        ("r", r),
        ("lip_gradf", lip_gradf),
        ("kappa_gradf", kappa_gradf),
        ("lip_m", lip_m),
    ):
        if not value > 0:
            raise ValueError(f"{label} must be > 0")
    return kappa_h * lip_c / r**2 + lip_gradf / r + kappa_gradf * lip_m


@dataclass
class MultiplierBoundReport:
    """Per-iterate ratio of multiplier error to primal error.

    ``ratios[i]`` is ``||y_true_k - y*|| / max(||x_k - x*||, 1e-14)``
    for iteration ``k = i + 1``; ``exceeded`` lists 1-based iterations
    whose ratio is above the supplied bound constant.
    """

    ratios: Array
    tail_start: int
    tail_max: float
    kappa_y: float
    exceeded: Array

    @property
    def tail_bounded(self) -> bool:
        return bool(np.isfinite(self.tail_max))


def check_true_multiplier_bound(
    trace: MultiplierTrace,
    x_star: Array,
    y_star: Array,
    kappa_y_value: float,
    tail_start: int,
) -> MultiplierBoundReport:
    """Compare exact-gradient multiplier errors against primal distances.

    A diagnostic: it reports the ratio sequence, its maximum over the
    tail ``k >= tail_start``, and which iterations exceed the supplied
    constant.  Nothing is raised.
    """
    ys_true = trace.ys_true
    if ys_true is None:
        raise ValueError("trace does not carry exact-gradient multipliers")
    if not 1 <= tail_start <= len(trace):
        raise ValueError("tail_start out of range")
    x_star = np.asarray(x_star, dtype=float)
    y_star = np.asarray(y_star, dtype=float)
    dx = np.linalg.norm(trace.xs - x_star, axis=1)
    dy = np.linalg.norm(ys_true - y_star, axis=1)
    ratios = dy / np.maximum(dx, 1e-14)
    exceeded = np.nonzero(ratios > kappa_y_value)[0] + 1
    return MultiplierBoundReport(
        ratios=ratios,
        tail_start=tail_start,
        tail_max=float(ratios[tail_start - 1 :].max()),
        kappa_y=kappa_y_value,
        exceeded=exceeded,
    )
