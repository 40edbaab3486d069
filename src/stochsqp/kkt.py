"""Solution of the equality-constrained quadratic subproblem.

Each solve takes a symmetric model matrix ``h``, a full-row-rank
Jacobian ``jac`` (shape ``(m, n)``), a gradient vector ``g`` and a
constraint value ``c``, and returns the step/multiplier pair solving

    [ h     jac' ] [ d ]     [ g ]
    [ jac   0    ] [ y ]  = -[ c ].

Both routes start from the economic QR factorization ``jac' = q1 r``
(``q1`` is ``n x m``, ``r`` is ``m x m`` upper triangular).  The rank
gate tries ``||r||_F ||r^{-1}||_F`` before the singular values of ``r``.

* The null-space route (any symmetric ``h``) also forms ``z``, an
  orthonormal basis of the Jacobian null space, from the full ``n x n``
  Q.  The normal step ``v = q1 w`` with ``w = r^{-T}(-c)`` removes the
  linearized constraint violation, the tangential step ``u = z p``
  solves the reduced system ``(z' h z) p = -z' (g + h v)``, and the
  multiplier solves ``r y = q1' (-g - h d)``.  ``z' h z`` must be
  positive definite; a failed Cholesky factorization is reported as
  :class:`CurvatureError` rather than silently regularized.
* The range-space route (``hess=None``, the identity model matrix)
  needs no ``z``: with ``qg = q1' g`` it returns ``v = q1 w``,
  ``u = q1 qg - g``, ``y = r^{-1}(-qg - w)`` and no residual.  This is
  the solver loop's hot path, so it calls LAPACK directly.  Factor with
  ``factor_jacobian(jac, null_space=False)`` to skip the full Q.

The multiplier formulas and :func:`decompose_step` reuse the same
``q1`` and ``r``, since ``(jac jac')^{-1} = r^{-1} r^{-T}``.

Every exported quantity (``d``, ``y``, ``u``, ``v``) is invariant under
the choice of null-space basis; only the returned ``basis`` depends on
the factorization.  All functions here are pure and safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ddot
from scipy.linalg.lapack import dgeqrf, dgesdd, dorgqr, dtrtri, dtrtrs

from .errors import CurvatureError, InconsistentStepError, RankError
from .problem import Array

#: Relative singular-value threshold below which the Jacobian is
#: declared rank deficient: sigma_min >= RANK_RTOL * max(1, sigma_max).
RANK_RTOL = 1e-10


class JacobianFactors(NamedTuple):
    """Orthogonal factorization of a Jacobian transpose, ``jac' = q1 r``.

    ``null_basis`` is ``None`` when the factorization was made for the
    range-space route only.
    """

    jac: Array  # (m, n)
    q_range: Array  # (n, m), orthonormal basis of the row space
    null_basis: Array | None  # (n, n - m), orthonormal basis of the null space
    r_upper: Array  # (m, m), upper triangular


@dataclass(frozen=True)
class KktInputs:
    """One subproblem: symmetric ``hess``, Jacobian ``jac``, ``grad``, ``c``."""

    hess: Array  # (n, n)
    jac: Array  # (m, n)
    grad: Array  # (n,)
    c: Array  # (m,)

    def __post_init__(self):
        m, n = self.jac.shape
        if not (1 <= m <= n):
            raise ValueError("jacobian must have 1 <= m <= n rows")
        if self.hess.shape != (n, n):
            raise ValueError("hess has wrong shape")
        if self.grad.shape != (n,) or self.c.shape != (m,):
            raise ValueError("grad or c has wrong shape")
        scale = 1.0 + float(np.max(np.abs(self.hess)))
        if float(np.max(np.abs(self.hess - self.hess.T))) > 1e-12 * scale:
            raise ValueError("hess is not symmetric to 1e-12 relative")


@dataclass(frozen=True)
class KktSolution:
    """Step ``d = u + v``, multiplier ``y``, and the basis used.

    ``u`` lies in the Jacobian null space, ``v`` in its row space, and
    ``residual`` is ``||h d + jac' y + g|| + ||jac d + c||``.  The
    range-space route, which uses no basis and whose residual nothing
    reads, leaves ``basis`` and ``residual`` as ``None``.
    """

    d: Array
    y: Array
    u: Array
    v: Array
    basis: Array | None
    residual: float | None


def _check_info(routine: str, info: int):
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK {routine} returned info={info}")


@lru_cache(maxsize=8)
def _upper_mask(m: int) -> Array:
    # np.triu rebuilds its mask on every call, which at m ~ 10 costs
    # more than the QR itself; the loop factors one shape per run.
    mask = np.triu(np.ones((m, m)))
    mask.flags.writeable = False
    return mask


def _rank_certified(r: Array) -> bool:
    """Rank gate certificate from ``sigma_min >= 1/||r^{-1}||_F`` and
    ``sigma_max <= ||r||_F``.  The factor 2 covers the ``~m kappa eps``
    error of the computed inverse (``kappa <= 5e9`` where this accepts).
    A singular or non-finite ``r`` fails: ``NaN <= 1`` is false."""
    inv, info = dtrtri(r)
    fro2 = ddot(r.ravel(order="K"), r.ravel(order="K"))
    scale2 = 1.0 if fro2 <= 1.0 else fro2
    inv2 = ddot(inv.ravel(order="K"), inv.ravel(order="K"))
    return info == 0 and (2.0 * RANK_RTOL) ** 2 * scale2 * inv2 <= 1.0


def factor_jacobian(jac: Array, null_space: bool = True) -> JacobianFactors:
    """Rank-check ``jac`` and factor its transpose orthogonally.

    ``null_space=False`` keeps only the economic factors ``q1`` and
    ``r``, which is all the range-space route needs; the null-space
    basis then is ``None``.
    """
    jac = np.asarray(jac, dtype=float)
    m, n = jac.shape
    if m > n:
        raise RankError(f"jacobian is rank deficient: {m} rows but only {n} columns")
    qr, tau, _, info = dgeqrf(jac.T)
    _check_info("dgeqrf", info)
    r = np.multiply(qr[:m, :m], _upper_mask(m), order="F")
    if not _rank_certified(r):
        if not np.isfinite(r).all():
            raise RankError("jacobian has a non-finite entry")
        _, svals, _, info = dgesdd(r, compute_uv=0)
        _check_info("dgesdd", info)
        if not svals[-1] >= RANK_RTOL * max(1.0, svals[0]):
            raise RankError(
                f"jacobian is rank deficient: sigma_min={svals[-1]:.3e}, sigma_max={svals[0]:.3e}"
            )
    if null_space:
        full = np.zeros((n, n), order="F")
        full[:, :m] = qr
        q, _, info = dorgqr(full, tau, overwrite_a=1)
        q1, z = q[:, :m], q[:, m:]
    else:
        q1, _, info = dorgqr(qr, tau, overwrite_a=1)
        z = None
    _check_info("dorgqr", info)
    return JacobianFactors(jac=jac, q_range=q1, null_basis=z, r_upper=r)


def null_space_basis(jac: Array) -> Array:
    """Orthonormal basis of the Jacobian null space, shape ``(n, n - m)``."""
    return factor_jacobian(jac).null_basis


def solve_with_factors(
    hess: Array | None, factors: JacobianFactors, grad: Array, c: Array
) -> KktSolution:
    """Solve one subproblem reusing a Jacobian factorization.

    ``hess=None`` selects the identity model matrix and the range-space
    route; any matrix, the identity included, takes the null-space
    route with the factorization's null-space basis.
    """
    if hess is None:
        return _range_space_solve(factors, grad, c)
    jac, q1, z, r = factors
    if z is None:
        raise ValueError("factors have no null-space basis; factor with null_space=True")

    # Normal step: jac = r' q1', so jac v = r' w with v = q1 w.
    w = scipy.linalg.solve_triangular(r.T, -c, lower=True)
    v = q1 @ w

    # Tangential step from the reduced system.
    if z.shape[1] > 0:
        reduced = z.T @ hess @ z
        try:
            chol = scipy.linalg.cho_factor(reduced)
        except np.linalg.LinAlgError as exc:
            raise CurvatureError(
                "reduced matrix z'hz is not positive definite; the quadratic model "
                "lacks the required curvature on the jacobian null space"
            ) from exc
        u = z @ scipy.linalg.cho_solve(chol, -(z.T @ (grad + hess @ v)))
    else:
        u = np.zeros_like(grad)
    d = u + v

    y = scipy.linalg.solve_triangular(r, q1.T @ (-grad - hess @ d))
    residual = float(
        np.linalg.norm(hess @ d + jac.T @ y + grad) + np.linalg.norm(jac @ d + c)
    )
    return KktSolution(d=d, y=y, u=u, v=v, basis=z, residual=residual)


def _range_space_solve(factors: JacobianFactors, grad: Array, c: Array) -> KktSolution:
    """Identity-model solve from the economic factors alone.

    Inputs are trusted to be finite (the solver loop checks them), so
    LAPACK is called without scipy's argument checks.
    """
    _, q1, _, r = factors
    w, info = dtrtrs(r, -c, trans=1)
    _check_info("dtrtrs", info)
    qg = q1.T @ grad
    v = q1 @ w
    # With m == n the null space is empty; keep u exactly zero.
    u = q1 @ qg - grad if q1.shape[1] < q1.shape[0] else np.zeros_like(grad)
    d = u + v
    y, info = dtrtrs(r, -qg - w)
    _check_info("dtrtrs", info)
    return KktSolution(d=d, y=y, u=u, v=v, basis=None, residual=None)


def solve_kkt(inputs: KktInputs) -> KktSolution:
    """Solve one subproblem from scratch (factorization included)."""
    factors = factor_jacobian(inputs.jac)
    return solve_with_factors(inputs.hess, factors, inputs.grad, inputs.c)


def decompose_step(d: Array, jac: Array, c: Array, rtol: float = 1e-8):
    """Split ``d`` into its null-space and row-space parts ``(u, v)``.

    Requires ``jac d = -c`` within tolerance (the step must solve the
    linearized constraint); ``v`` is the closed form
    ``-jac' (jac jac')^{-1} c = q1 r^{-T}(-c)`` and ``u = d - v``.
    """
    jac = np.asarray(jac, dtype=float)
    d = np.asarray(d, dtype=float)
    c = np.asarray(c, dtype=float)
    _, q1, _, r = factor_jacobian(jac, null_space=False)
    gap = np.linalg.norm(jac @ d + c)
    scale = 1.0 + np.linalg.norm(c) + np.linalg.norm(jac) * np.linalg.norm(d)
    if gap > rtol * scale:
        raise InconsistentStepError(
            f"step does not satisfy the linearized constraint: ||jac d + c|| = {gap:.3e}"
        )
    v = q1 @ scipy.linalg.solve_triangular(r, -c, trans="T")
    return d - v, v


def multiplier_operator(hess: Array, jac: Array, basis: Array) -> Array:
    """The ``(m, n)`` map sending gradient-side data to the multiplier.

    Equals ``pinv (I - h z (z' h z)^{-1} z')`` where
    ``pinv = (jac jac')^{-1} jac = r^{-1} q1'`` is the pseudoinverse of
    the transposed Jacobian and ``z`` spans the null space.
    """
    _, q1, _, r = factor_jacobian(jac, null_space=False)
    pinv = scipy.linalg.solve_triangular(r, q1.T)
    if basis.shape[1] == 0:
        return pinv
    reduced = basis.T @ hess @ basis
    try:
        chol = scipy.linalg.cho_factor(reduced)
    except np.linalg.LinAlgError as exc:
        raise CurvatureError(
            "reduced matrix z'hz is not positive definite"
        ) from exc
    projector = np.eye(jac.shape[1]) - hess @ basis @ scipy.linalg.cho_solve(chol, basis.T)
    return pinv @ projector


def multiplier_via_operator(
    operator: Array, hess: Array, jac: Array, c: Array, grad: Array
) -> Array:
    """Closed-form multiplier ``M (h pinv' c - g)``, ``pinv' c = q1 r^{-T} c``.

    Must agree with the multiplier returned by :func:`solve_kkt` on the
    same inputs; the agreement is the cross-check of the operator
    derivation.
    """
    _, q1, _, r = factor_jacobian(jac, null_space=False)
    pinv_t_c = q1 @ scipy.linalg.solve_triangular(r, c, trans="T")
    return operator @ (hess @ pinv_t_c - grad)


def least_squares_multiplier(jac: Array, grad: Array) -> Array:
    """Minimizer of ``||g + jac' y||``, i.e. ``-(jac jac')^{-1} jac g = -r^{-1} q1' g``."""
    _, q1, _, r = factor_jacobian(jac, null_space=False)
    return -scipy.linalg.solve_triangular(r, q1.T @ np.asarray(grad, dtype=float))
