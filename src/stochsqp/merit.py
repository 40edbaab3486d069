"""Merit function, its local model, and the trial-value diagnostics.

The merit function is ``phi(x) = tau * f(x) + ||c(x)||_1`` with a fixed
parameter ``tau``.  The local model ``q`` linearizes the objective,
keeps only nonnegative curvature, and linearizes the constraints inside
the 1-norm; its reduction at a step solving the linearized constraint
has the closed form implemented by :func:`reduction_delta_q`.  A model
matrix ``hess=None`` is the identity, as the solver loop passes it: its
curvature ``d'd`` is the same float as with ``np.eye(n)``.

The trial values bound how large ``xi`` and ``tau`` may be while the
step-size rule still guarantees sufficient decrease.  They are computed
for monitoring only: the solver runs with fixed parameters and surfaces
violations instead of adapting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import Array


@dataclass(frozen=True)
class MeritParams:
    """Fixed merit parameter ``tau``, ratio parameter ``xi`` and the
    reduction fraction ``nu`` used by the trial values."""

    tau: float = 0.1
    xi: float = 1.0
    nu: float = 0.5

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("tau must be > 0")
        if not self.xi > 0:
            raise ValueError("xi must be > 0")
        if not 0 < self.nu < 1:
            raise ValueError("nu must lie in (0, 1)")


def phi(tau: float, f: float, c: Array) -> float:
    """Merit value ``tau * f + ||c||_1``."""
    return tau * f + float(np.abs(c).sum())


def _curvature(hess: Array | None, d: Array) -> float:
    return max(float(d @ d if hess is None else d @ (hess @ d)), 0.0)


def model_q(
    tau: float, f: float, c: Array, jac: Array, grad: Array, hess: Array | None, d: Array
) -> float:
    """Local merit model ``tau (f + g'd + max(d'hd, 0)/2) + ||c + jac d||_1``."""
    return tau * (f + float(grad @ d) + 0.5 * _curvature(hess, d)) + float(
        np.abs(c + jac @ d).sum()
    )


def reduction_delta_q(tau: float, c: Array, grad: Array, hess: Array | None, d: Array) -> float:
    """Model reduction ``-tau (g'd + max(d'hd, 0)/2) + ||c||_1``.

    Equals ``model_q`` at zero minus ``model_q`` at ``d`` whenever the
    step satisfies the linearized constraint ``c + jac d = 0``.
    """
    return -tau * (float(grad @ d) + 0.5 * _curvature(hess, d)) + float(np.abs(c).sum())


def xi_trial(tau: float, delta_q: float, d: Array) -> float:
    """Largest admissible ratio parameter at this step.

    Returns the explicit sentinel ``inf`` for a zero step, otherwise
    ``delta_q / (tau ||d||^2)``.
    """
    nd2 = float(np.asarray(d) @ np.asarray(d))
    if nd2 == 0.0:
        return float("inf")
    return delta_q / (tau * nd2)


def tau_trial_true(nu: float, c: Array, grad: Array, hess: Array | None, d_true: Array) -> float:
    """Largest admissible merit parameter, from the exact-gradient step.

    With ``rho = g'd + max(d'hd, 0)`` for the exact-gradient step, the
    bound is vacuous (``inf``) when ``rho <= 0`` and otherwise equals
    ``(1 - nu) ||c||_1 / rho``.
    """
    rho = float(grad @ d_true) + _curvature(hess, d_true)
    if rho <= 0.0:
        return float("inf")
    return (1.0 - nu) * float(np.abs(c).sum()) / rho


def check_reduction_lbnd(
    tau: float, nu: float, c: Array, grad: Array, hess: Array | None, d_true: Array
):
    """Verify the guaranteed lower bound on the exact-gradient reduction.

    Checks ``delta_q >= tau * max(d'hd, 0)/2 + nu ||c||_1`` and returns
    ``(holds, slack)`` with ``slack = lhs - rhs``.  The bound is only
    guaranteed when ``tau`` does not exceed its trial value; this is a
    diagnostic, so violations are reported rather than raised.
    """
    lhs = reduction_delta_q(tau, c, grad, hess, d_true)
    rhs = 0.5 * tau * _curvature(hess, d_true) + nu * float(np.abs(c).sum())
    slack = lhs - rhs
    return slack >= -1e-10 * (1.0 + abs(lhs)), slack
