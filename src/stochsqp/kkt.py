"""Solution of the equality-constrained quadratic subproblem.

Each solve takes a symmetric model matrix ``h``, a full-row-rank
Jacobian ``jac`` (shape ``(m, n)``), a gradient vector ``g`` and a
constraint value ``c``, and returns the step/multiplier pair solving

    [ h     jac' ] [ d ]     [ g ]
    [ jac   0    ] [ y ]  = -[ c ].

Every solve starts from the QR factorization ``jac' = q1 r`` (``q1`` is
``n x m``, ``r`` is ``m x m`` upper triangular).  The rank gate tries
``||r||_F ||r^{-1}||_F`` before the singular values of ``r``.  The
normal step is ``v = q1 w`` with ``w = r^{-T}(-c)`` and the tangential
step ``u`` lies in the Jacobian null space.

* :func:`solve_with_factors` is the identity model matrix (the solver
  loop's ``H_k = I``) on the economic factors of
  :func:`factor_jacobian`.  It solves the normal step and hands it to
  :func:`resolve`, which returns ``u = q1 qg - g`` and
  ``y = r^{-1}(-qg - w)`` with ``qg = q1' g``.  The normal step does
  not depend on ``g``, so the solver's shadow solve calls
  :func:`resolve` alone.  This is the loop's hot path, so it calls
  LAPACK directly and takes its products from ``ndarray.dot`` (README).
* :func:`solve_kkt` takes any symmetric ``h``.  It also forms ``z``, an
  orthonormal basis of the Jacobian null space, from the full ``n x n``
  Q; ``u = z p`` solves the reduced system ``(z' h z) p = -z' (g + h v)``
  and the multiplier solves ``r y = q1' (-g - h d)``.  ``z' h z`` must
  be positive definite; a failed Cholesky factorization is reported as
  :class:`CurvatureError` rather than silently regularized.

Both solves return ``d``, ``y``, ``u``, ``v`` and ``w``, none of which
depends on the choice of null-space basis.  All functions here are pure
and safe to call concurrently.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ddot
from scipy.linalg.lapack import dgeqrf, dgesdd, dorgqr, dtrtri, dtrtrs

from .errors import CurvatureError, RankError
from .problem import Array

#: Relative singular-value threshold below which the Jacobian is
#: declared rank deficient: sigma_min >= RANK_RTOL * max(1, sigma_max).
RANK_RTOL = 1e-10


class JacobianFactors(NamedTuple):
    """Economic orthogonal factorization of a Jacobian transpose, ``jac' = q1 r``."""

    q_range: Array  # (n, m), orthonormal basis of the row space
    r_upper: Array  # (m, m), upper triangular


class KktSolution(NamedTuple):
    """Step ``d = u + v`` and multiplier ``y``.

    ``u`` lies in the Jacobian null space and ``v = q1 w`` in its row
    space; ``w`` is the normal step in the range basis ``q1``.
    """

    d: Array
    y: Array
    u: Array
    v: Array
    w: Array


def _lapack_error(routine: str, info: int) -> np.linalg.LinAlgError:
    return np.linalg.LinAlgError(f"LAPACK {routine} returned info={info}")


@lru_cache(maxsize=8)
def _upper_mask(m: int) -> Array:
    # np.triu rebuilds its mask on every call, which at m ~ 10 costs
    # more than the QR itself; the loop factors one shape per run.  In
    # F order, like the factor it masks.
    mask = np.asfortranarray(np.triu(np.ones((m, m))))
    mask.flags.writeable = False
    return mask


def _rank_certified(r: Array) -> bool:
    """Rank gate certificate from ``sigma_min >= 1/||r^{-1}||_F`` and
    ``sigma_max <= ||r||_F``.  The factor 2 covers the ``~m kappa eps``
    error of the computed inverse (``kappa <= 5e9`` where this accepts).
    A singular or non-finite ``r`` fails: ``NaN <= 1`` is false."""
    inv, info = dtrtri(r)
    flat = r.ravel(order="K")  # both are F-contiguous, so these are views
    fro2 = ddot(flat, flat)
    scale2 = 1.0 if fro2 <= 1.0 else fro2
    flat = inv.ravel(order="K")
    return info == 0 and (2.0 * RANK_RTOL) ** 2 * scale2 * ddot(flat, flat) <= 1.0


def _factor(jac: Array, full: bool) -> tuple[Array, Array]:
    """Rank-check ``jac`` and return ``(q, r)`` with ``jac' = q[:, :m] r``.

    ``q`` is the economic ``n x m`` factor, or with ``full`` the whole
    ``n x n`` orthogonal factor, whose last ``n - m`` columns span the
    Jacobian null space.
    """
    jac = np.asarray(jac, dtype=float)
    m, n = jac.shape
    if m > n:
        raise RankError(f"jacobian is rank deficient: {m} rows but only {n} columns")
    qr, tau, _, info = dgeqrf(jac.T)
    if info:
        raise _lapack_error("dgeqrf", info)
    r = np.multiply(qr[:m, :m], _upper_mask(m), order="F")
    if not _rank_certified(r):
        if not np.isfinite(r).all():
            raise RankError("jacobian has a non-finite entry")
        _, svals, _, info = dgesdd(r, compute_uv=0)
        if info:
            raise _lapack_error("dgesdd", info)
        if not svals[-1] >= RANK_RTOL * max(1.0, svals[0]):
            raise RankError(
                f"jacobian is rank deficient: sigma_min={svals[-1]:.3e}, sigma_max={svals[0]:.3e}"
            )
    if full:
        q = np.zeros((n, n), order="F")
        q[:, :m] = qr
        q, _, info = dorgqr(q, tau, overwrite_a=1)
    else:
        q, _, info = dorgqr(qr, tau, overwrite_a=1)
    if info:
        raise _lapack_error("dorgqr", info)
    return q, r


def factor_jacobian(jac: Array) -> JacobianFactors:
    """Rank-check ``jac`` and factor its transpose, ``jac' = q1 r``."""
    return JacobianFactors(*_factor(jac, full=False))


def null_space_basis(jac: Array) -> Array:
    """Orthonormal basis of the Jacobian null space, shape ``(n, n - m)``."""
    q, r = _factor(jac, full=True)
    return q[:, r.shape[0]:]


def solve_with_factors(factors: JacobianFactors, grad: Array, c: Array) -> KktSolution:
    """Identity-model solve from the economic factors alone.

    Inputs are trusted to be finite (the solver loop checks them), so
    LAPACK is called without scipy's argument checks.
    """
    q1, r = factors
    w, info = dtrtrs(r, -c, trans=1, overwrite_b=1)
    if info:
        raise _lapack_error("dtrtrs", info)
    return resolve(factors, grad, w, q1.dot(w))


def resolve(factors: JacobianFactors, grad: Array, w: Array, v: Array) -> KktSolution:
    """Identity-model solve for ``grad`` from the normal step ``(w, v)``
    of an earlier solve on the same ``factors`` and ``c``.

    Equals ``solve_with_factors(factors, grad, c)`` bit for bit, without
    redoing its normal step.  The result shares ``w`` and ``v``.
    """
    q1, r = factors
    qg = q1.T.dot(grad)
    if q1.shape[1] < q1.shape[0]:
        u = q1.dot(qg)
        u -= grad
    else:  # with m == n the null space is empty; keep u exactly zero
        u = np.zeros_like(grad)
    d = u + v
    np.negative(qg, out=qg)  # then -qg - w: -(qg + w) would flip an exact zero's sign
    qg -= w
    y, info = dtrtrs(r, qg, overwrite_b=1)
    if info:
        raise _lapack_error("dtrtrs", info)
    return KktSolution(d, y, u, v, w)


def solve_kkt(hess: Array, jac: Array, grad: Array, c: Array) -> KktSolution:
    """Solve one subproblem with a symmetric model matrix ``hess``.

    Raises ``ValueError`` for mismatched shapes or a ``hess`` that is
    not symmetric to 1e-12 relative, :class:`RankError` for a rank
    deficient ``jac`` and :class:`CurvatureError` when ``z' hess z`` is
    not positive definite.
    """
    hess, jac, grad, c = (np.asarray(a, dtype=float) for a in (hess, jac, grad, c))
    m, n = jac.shape
    if not (1 <= m <= n):
        raise ValueError("jacobian must have 1 <= m <= n rows")
    if hess.shape != (n, n):
        raise ValueError("hess has wrong shape")
    if grad.shape != (n,) or c.shape != (m,):
        raise ValueError("grad or c has wrong shape")
    scale = 1.0 + float(np.max(np.abs(hess)))
    if float(np.max(np.abs(hess - hess.T))) > 1e-12 * scale:
        raise ValueError("hess is not symmetric to 1e-12 relative")
    q, r = _factor(jac, full=True)
    return _null_space_solve(hess, q[:, :m], q[:, m:], r, grad, c)


def _null_space_solve(
    hess: Array, q1: Array, z: Array, r: Array, grad: Array, c: Array
) -> KktSolution:
    """:func:`solve_kkt` on given factors ``jac' = q1 r`` and null-space basis ``z``."""
    # Normal step: jac = r' q1', so jac v = r' w with v = q1 w.
    w = scipy.linalg.solve_triangular(r.T, -c, lower=True)
    v = q1 @ w

    # Tangential step from the reduced system.
    if z.shape[1] > 0:
        chol = _reduced_cholesky(hess, z)
        u = z @ scipy.linalg.cho_solve(chol, -(z.T @ (grad + hess @ v)))
    else:
        u = np.zeros_like(grad)
    d = u + v

    y = scipy.linalg.solve_triangular(r, q1.T @ (-grad - hess @ d))
    return KktSolution(d, y, u, v, w)


def _reduced_cholesky(hess: Array, z: Array):
    try:
        return scipy.linalg.cho_factor(z.T @ hess @ z)
    except np.linalg.LinAlgError as exc:
        raise CurvatureError(
            "reduced matrix z'hz is not positive definite; the quadratic model "
            "lacks the required curvature on the jacobian null space"
        ) from exc


def multiplier_operator(hess: Array, jac: Array) -> Array:
    """The ``(m, n)`` map sending gradient-side data to the multiplier.

    Equals ``pinv (I - h z (z' h z)^{-1} z')`` where
    ``pinv = (jac jac')^{-1} jac = r^{-1} q1'`` is the pseudoinverse of
    the transposed Jacobian and ``z`` spans the null space.  The
    multiplier of :func:`solve_kkt` is this map applied to
    ``h pinv' c - g``, and ``pinv' c = -v``.
    """
    q, r = _factor(jac, full=True)
    m = r.shape[0]
    pinv = scipy.linalg.solve_triangular(r, q[:, :m].T)
    z = q[:, m:]
    if z.shape[1] == 0:
        return pinv
    chol = _reduced_cholesky(hess, z)
    return pinv @ (np.eye(len(q)) - hess @ z @ scipy.linalg.cho_solve(chol, z.T))
