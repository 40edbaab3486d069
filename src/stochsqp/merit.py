"""Merit function, its local model, and the trial-value diagnostics.

The merit function is ``phi(x) = tau * f(x) + ||c(x)||_1`` with a fixed
parameter ``tau``.  The local model ``q`` linearizes the objective,
keeps only nonnegative curvature, and linearizes the constraints inside
the 1-norm; its reduction at a step solving the linearized constraint
has the closed form implemented by :func:`reduction_delta_q`.

The trial values bound how large ``xi`` and ``tau`` may be while the
step-size rule still guarantees sufficient decrease.  They are computed
for monitoring only: the solver runs with fixed parameters and surfaces
violations instead of adapting.

Each of the reduction, the two trial values and the reduction lower
bound has one formula, in an inner-product form (``*_from_products``)
that takes ``g'd``, the curvature ``d'hd``, ``d'd`` and ``||c||_1`` as
floats or as arrays, with the same bits either way and no warnings.
The solver evaluates the forms once over a run's ledger of these
scalars; the vector helpers form them for one step, with a model matrix
``hess`` or ``hess=None`` for the identity, and delegate to the forms.
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


def _dhd(hess: Array | None, d: Array) -> float:
    """Curvature ``d'hd`` before clamping; ``d'd`` for ``hess=None``."""
    return float(d @ d if hess is None else d @ (hess @ d))


def _clamp(dhd):
    """``max(dhd, 0)`` elementwise as Python's ``max`` takes it: NaN
    and ``-0.0`` pass through."""
    return np.where(dhd < 0.0, 0.0, dhd)


@np.errstate(all="ignore")
def reduction_from_products(tau: float, gd, dhd, l1):
    """Model reduction ``-tau (g'd + max(d'hd, 0)/2) + ||c||_1``."""
    return -tau * (gd + 0.5 * _clamp(dhd)) + l1


@np.errstate(all="ignore")
def xi_trial_from_products(tau: float, delta_q, dd):
    """``delta_q / (tau d'd)``, with the sentinel ``inf`` for a zero step."""
    dd = np.asarray(dd)
    return np.where(dd == 0.0, np.inf, delta_q / (tau * dd))


@np.errstate(all="ignore")
def tau_trial_from_products(nu: float, gd, dhd, l1):
    """``(1 - nu) ||c||_1 / rho`` with ``rho = g'd + max(d'hd, 0)``,
    and the sentinel ``inf`` (a vacuous bound) when ``rho <= 0``."""
    rho = gd + _clamp(dhd)
    return np.where(rho <= 0.0, np.inf, (1.0 - nu) * l1 / rho)


@np.errstate(all="ignore")
def lbnd_from_products(tau: float, nu: float, gd, dhd, l1):
    """``(holds, slack)`` of ``delta_q >= tau max(d'hd, 0)/2 + nu ||c||_1``.

    ``slack`` is left minus right side; ``holds`` allows a rounding
    slop of ``1e-10 (1 + |delta_q|)`` and is false for a NaN slack.
    """
    lhs = reduction_from_products(tau, gd, dhd, l1)
    slack = lhs - (0.5 * tau * _clamp(dhd) + nu * l1)
    return slack >= -1e-10 * (1.0 + np.abs(lhs)), slack


def model_q(
    tau: float, f: float, c: Array, jac: Array, grad: Array, hess: Array | None, d: Array
) -> float:
    """Local merit model ``tau (f + g'd + max(d'hd, 0)/2) + ||c + jac d||_1``."""
    return tau * (f + float(grad @ d) + 0.5 * float(_clamp(_dhd(hess, d)))) + float(
        np.abs(c + jac @ d).sum()
    )


def reduction_delta_q(tau: float, c: Array, grad: Array, hess: Array | None, d: Array) -> float:
    """Model reduction ``-tau (g'd + max(d'hd, 0)/2) + ||c||_1``.

    Equals ``model_q`` at zero minus ``model_q`` at ``d`` whenever the
    step satisfies the linearized constraint ``c + jac d = 0``.
    """
    return float(
        reduction_from_products(tau, float(grad @ d), _dhd(hess, d), float(np.abs(c).sum()))
    )


def xi_trial(tau: float, delta_q: float, d: Array) -> float:
    """Largest admissible ratio parameter at this step.

    Returns the explicit sentinel ``inf`` for a zero step, otherwise
    ``delta_q / (tau ||d||^2)``.
    """
    return float(xi_trial_from_products(tau, delta_q, _dhd(None, np.asarray(d))))


def tau_trial_true(nu: float, c: Array, grad: Array, hess: Array | None, d_true: Array) -> float:
    """Largest admissible merit parameter, from the exact-gradient step.

    With ``rho = g'd + max(d'hd, 0)`` for the exact-gradient step, the
    bound is vacuous (``inf``) when ``rho <= 0`` and otherwise equals
    ``(1 - nu) ||c||_1 / rho``.
    """
    return float(tau_trial_from_products(
        nu, float(grad @ d_true), _dhd(hess, d_true), float(np.abs(c).sum())
    ))


def check_reduction_lbnd(
    tau: float, nu: float, c: Array, grad: Array, hess: Array | None, d_true: Array
):
    """Verify the guaranteed lower bound on the exact-gradient reduction.

    Checks ``delta_q >= tau * max(d'hd, 0)/2 + nu ||c||_1`` and returns
    ``(holds, slack)`` with ``slack = lhs - rhs``.  The bound is only
    guaranteed when ``tau`` does not exceed its trial value; this is a
    diagnostic, so violations are reported rather than raised.
    """
    holds, slack = lbnd_from_products(
        tau, nu, float(grad @ d_true), _dhd(hess, d_true), float(np.abs(c).sum())
    )
    return bool(holds), float(slack)
