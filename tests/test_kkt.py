"""Subproblem solves (``solve_kkt`` and the identity-model
``solve_with_factors``) against hand values, each other and the dense
oracle."""

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.blas import ddot
from scipy.linalg.lapack import dtrtri, dtrtrs

from stochsqp import kkt

from stochsqp import (
    CurvatureError,
    RankError,
    SolverConfig,
    factor_jacobian,
    iterate,
    kkt_residual,
    multiplier_operator,
    null_space_basis,
    run,
    solve_kkt,
    solve_with_factors,
)
from stochsqp.kkt import RANK_RTOL, resolve

from conftest import dense_kkt_solve, least_squares_y, random_kkt_instance

WORKED = dict(
    hess=np.eye(2),
    jac=np.array([[1.0, 0.0]]),
    grad=np.array([1.0, 1.0]),
    c=np.array([0.5]),
)


def operator_multiplier(hess, jac, grad, c):
    """``multiplier_operator`` applied to ``h pinv' c - g``, with the
    normal step ``-pinv' c = -jac' (jac jac')^{-1} c`` formed densely."""
    pinv_t_c = jac.T @ np.linalg.solve(jac @ jac.T, c)
    return multiplier_operator(hess, jac) @ (hess @ pinv_t_c - grad)


class TestSolve:
    def test_worked_example(self):
        sol = solve_kkt(**WORKED)
        assert np.allclose(sol.d, [-0.5, -1.0], atol=1e-14)
        assert np.allclose(sol.y, [-0.5], atol=1e-14)
        assert np.allclose(sol.v, [-0.5, 0.0], atol=1e-14)
        assert np.allclose(sol.u, [0.0, -1.0], atol=1e-14)

    def test_solutions_are_immutable_and_read_by_name(self):
        for sol in (
            solve_kkt(**WORKED),
            solve_with_factors(factor_jacobian(WORKED["jac"]), WORKED["grad"], WORKED["c"]),
        ):
            assert isinstance(sol, kkt.KktSolution)
            assert sol._fields == ("d", "y", "u", "v", "w")
            assert (sol.d, sol.y, sol.u, sol.v, sol.w) == tuple(sol)
            with pytest.raises(AttributeError):
                sol.d = np.zeros(2)
            assert np.allclose(sol.d, [-0.5, -1.0], atol=1e-14)

    def test_stationary_point_identity(self):
        rng = np.random.default_rng(0)
        hess, jac, _, _ = random_kkt_instance(rng, 7, 3)
        y_hat = rng.standard_normal(3)
        sol = solve_kkt(hess, jac, -jac.T @ y_hat, np.zeros(3))
        assert np.linalg.norm(sol.d) <= 1e-12
        assert np.allclose(sol.y, y_hat, atol=1e-11)

    def test_agreement_with_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            hess, jac, grad, c = random_kkt_instance(rng, 20, 5)
            sol = solve_kkt(hess, jac, grad, c)
            d_ref, y_ref = dense_kkt_solve(hess, jac, grad, c)
            assert np.linalg.norm(sol.d - d_ref) <= 1e-9
            assert np.linalg.norm(sol.y - y_ref) <= 1e-9
            scale = 1.0 + np.linalg.norm(grad) + np.linalg.norm(c)
            residual = kkt_residual(hess @ sol.d + grad, jac, jac @ sol.d + c, sol.y)
            assert residual <= 1e-10 * scale

    def test_rank_deficient_jacobian_rejected(self):
        jac = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])
        with pytest.raises(RankError):
            solve_kkt(np.eye(3), jac, np.zeros(3), np.zeros(2))

    def test_indefinite_reduced_matrix_rejected(self):
        with pytest.raises(CurvatureError):
            solve_kkt(-np.eye(3), np.array([[1.0, 0.0, 0.0]]), np.ones(3), np.zeros(1))

    def test_square_jacobian_has_empty_tangent_space(self):
        rng = np.random.default_rng(2)
        hess, jac, grad, c = random_kkt_instance(rng, 4, 4)
        sol = solve_kkt(hess, jac, grad, c)
        assert null_space_basis(jac).shape == (4, 0)
        assert np.array_equal(sol.u, np.zeros(4))
        d_ref, y_ref = dense_kkt_solve(hess, jac, grad, c)
        assert np.allclose(sol.d, d_ref, atol=1e-10)
        assert np.allclose(sol.y, y_ref, atol=1e-10)

    def test_asymmetric_hessian_rejected(self):
        hess = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            solve_kkt(hess, WORKED["jac"], WORKED["grad"], WORKED["c"])

    @pytest.mark.parametrize(
        "name, value, match",
        [
            ("jac", np.ones((3, 2)), "1 <= m <= n"),
            ("jac", np.ones((0, 2)), "1 <= m <= n"),
            ("hess", np.eye(3), "hess has wrong shape"),
            ("grad", np.ones(3), "grad or c has wrong shape"),
            ("c", np.ones(2), "grad or c has wrong shape"),
        ],
    )
    def test_wrong_shapes_rejected(self, name, value, match):
        with pytest.raises(ValueError, match=match):
            solve_kkt(**{**WORKED, name: value})


class TestNullSpaceBasis:
    def test_axis_aligned(self):
        z = null_space_basis(np.array([[1.0, 0.0]]))
        assert z.shape == (2, 1)
        assert abs(abs(z[1, 0]) - 1.0) <= 1e-14
        assert abs(z[0, 0]) <= 1e-14

    def test_identity_padded(self):
        jac = np.hstack([np.eye(3), np.zeros((3, 2))])
        z = null_space_basis(jac)
        assert np.allclose(z[:3], 0.0, atol=1e-14)
        assert np.allclose(z[3:].T @ z[3:], np.eye(2), atol=1e-14)

    def test_orthonormal_and_annihilating(self):
        rng = np.random.default_rng(3)
        _, jac, _, _ = random_kkt_instance(rng, 8, 3)
        z = null_space_basis(jac)
        assert np.max(np.abs(z.T @ z - np.eye(5))) <= 1e-12
        assert np.linalg.norm(jac @ z) <= 1e-12 * np.linalg.norm(jac)

    def test_reduced_matrix_spectrum_is_basis_independent(self):
        # Compare the QR-derived basis against an SVD-derived one.
        rng = np.random.default_rng(4)
        hess, jac, _, _ = random_kkt_instance(rng, 8, 3)
        z1 = null_space_basis(jac)
        z2 = scipy.linalg.null_space(jac)
        e1 = np.sort(np.linalg.eigvalsh(z1.T @ hess @ z1))
        e2 = np.sort(np.linalg.eigvalsh(z2.T @ hess @ z2))
        assert np.max(np.abs(e1 - e2)) <= 1e-10


class TestDecomposeStep:
    """The split ``d = u + v`` that the solves return."""

    def test_zero_constraint_gives_pure_tangential(self):
        # With c = 0 the solution step lies in the null space.
        rng = np.random.default_rng(5)
        hess, jac, grad, _ = random_kkt_instance(rng, 6, 2)
        for sol in (
            solve_kkt(hess, jac, grad, np.zeros(2)),
            solve_with_factors(factor_jacobian(jac), grad, np.zeros(2)),
        ):
            assert np.linalg.norm(sol.v) <= 1e-12
            assert np.allclose(sol.u, sol.d, atol=1e-12)
            assert np.linalg.norm(jac @ sol.d) <= 1e-12 * np.linalg.norm(jac)

    def test_row_space_step_gives_zero_tangential(self):
        # With hess = I, the gradient -d - jac' y makes a row-space d the
        # solution step.
        rng = np.random.default_rng(6)
        _, jac, _, _ = random_kkt_instance(rng, 6, 2)
        d = jac.T @ rng.standard_normal(2)
        grad = -d - jac.T @ rng.standard_normal(2)
        for sol in (
            solve_kkt(np.eye(6), jac, grad, -jac @ d),
            solve_with_factors(factor_jacobian(jac), grad, -jac @ d),
        ):
            assert np.linalg.norm(sol.u) <= 1e-12
            assert np.allclose(sol.v, d, atol=1e-12)

    def test_orthogonality(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            hess, jac, grad, c = random_kkt_instance(rng, 9, 4)
            sol = solve_kkt(hess, jac, grad, c)
            bound = 1e-10 * max(np.linalg.norm(sol.u) * np.linalg.norm(sol.v), 1e-30)
            assert abs(sol.u @ sol.v) <= bound


class TestMultiplierFormulas:
    def test_operator_worked_example(self):
        op = multiplier_operator(np.eye(2), WORKED["jac"])
        assert np.allclose(op, [[1.0, 0.0]], atol=1e-14)

    def test_operator_times_jacobian_transpose_is_identity(self):
        # With the identity model matrix the projector fixes the row
        # space, so the operator inverts jac' on it.
        rng = np.random.default_rng(8)
        _, jac, _, _ = random_kkt_instance(rng, 8, 3)
        op = multiplier_operator(np.eye(8), jac)
        assert np.max(np.abs(op @ jac.T - np.eye(3))) <= 1e-10

    def test_square_case_reduces_to_pseudoinverse(self):
        rng = np.random.default_rng(9)
        hess, jac, _, _ = random_kkt_instance(rng, 4, 4)
        op = multiplier_operator(hess, jac)
        assert np.allclose(op, np.linalg.inv(jac.T), atol=1e-10)

    def test_closed_form_matches_worked_example(self):
        y = operator_multiplier(**WORKED)
        assert np.allclose(y, [-0.5], atol=1e-14)

    def test_zero_inputs_give_zero_multiplier(self):
        rng = np.random.default_rng(10)
        hess, jac, _, _ = random_kkt_instance(rng, 5, 2)
        y = operator_multiplier(hess, jac, np.zeros(5), np.zeros(2))
        assert np.linalg.norm(y) <= 1e-14

    def test_closed_form_equals_solver_multiplier(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(3, 31))
            m = int(rng.integers(1, min(10, n - 1) + 1))
            hess, jac, grad, c = random_kkt_instance(rng, n, m)
            sol = solve_kkt(hess, jac, grad, c)
            y = operator_multiplier(hess, jac, grad, c)
            worst = max(worst, np.linalg.norm(y - sol.y) / (1.0 + np.linalg.norm(sol.y)))
        assert worst <= 1e-8

    def test_least_squares_null_gradient(self):
        rng = np.random.default_rng(12)
        _, jac, _, _ = random_kkt_instance(rng, 6, 2)
        g = null_space_basis(jac) @ rng.standard_normal(4)
        assert np.linalg.norm(least_squares_y(jac, g)) <= 1e-12

    def test_least_squares_recovers_exact_multiplier(self):
        rng = np.random.default_rng(13)
        _, jac, _, _ = random_kkt_instance(rng, 6, 2)
        y_hat = rng.standard_normal(2)
        assert np.allclose(least_squares_y(jac, -jac.T @ y_hat), y_hat, atol=1e-12)

    def test_identity_model_offset_from_kkt_multiplier(self):
        # With the identity model matrix, the least-squares multiplier
        # differs from the subproblem multiplier by exactly the
        # pseudoinverse image of the normal-step curvature term.
        rng = np.random.default_rng(14)
        for _ in range(20):
            _, jac, grad, c = random_kkt_instance(rng, 7, 3)
            hess = np.eye(7)
            sol = solve_kkt(hess, jac, grad, c)
            ls = least_squares_y(jac, grad)
            gram = jac @ jac.T
            expected = -np.linalg.solve(gram, jac @ (jac.T @ np.linalg.solve(gram, c)))
            assert np.linalg.norm((ls - sol.y) - expected) <= 1e-10


class TestBasisInvariance:
    def test_solution_unchanged_by_rotated_basis(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            hess, jac, grad, c = random_kkt_instance(rng, 9, 3)
            q1, r = factor_jacobian(jac)
            z = null_space_basis(jac)
            first = kkt._null_space_solve(hess, q1, z, r, grad, c)
            q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
            second = kkt._null_space_solve(hess, q1, z @ q, r, grad, c)
            for name in ("d", "y", "u", "v"):
                assert np.linalg.norm(getattr(first, name) - getattr(second, name)) <= 1e-9


def _jacobian_with_spectrum(rng, n, svals):
    """``(m, n)`` Jacobian with the given singular values, random singular vectors."""
    m = len(svals)
    left = np.linalg.qr(rng.standard_normal((m, m)))[0]
    right = np.linalg.qr(rng.standard_normal((n, n)))[0][:, :m]
    return left @ np.diag(svals) @ right.T


# The economic and the full QR share one rank gate.
BOTH_QR_VARIANTS = (factor_jacobian, null_space_basis)


def _gate_today(jac):
    """The rank gate's definition on the singular values of ``jac`` itself."""
    svals = np.linalg.svd(jac, compute_uv=False)
    return svals[-1] < RANK_RTOL * max(1.0, svals[0])


class TestRangeSpaceRoute:
    """The identity-model solve against the dense oracle and
    ``solve_kkt`` with the identity on the same data."""

    @staticmethod
    def _check(jac, grad, c):
        n = jac.shape[1]
        eye = np.eye(n)
        fast = solve_with_factors(factor_jacobian(jac), grad, c)
        slow = solve_kkt(eye, jac, grad, c)
        d_ref, y_ref = dense_kkt_solve(eye, jac, grad, c)
        rtol = 1e-12
        # Step errors scale with the data (||g||) and the normal step;
        # multiplier errors with the multiplier.
        step_scale = np.linalg.norm(grad) + np.linalg.norm(slow.v)
        y_scale = np.linalg.norm(slow.y)
        for name in ("d", "u", "v"):
            gap = np.linalg.norm(getattr(fast, name) - getattr(slow, name))
            assert gap <= rtol * step_scale, name
        assert np.linalg.norm(fast.y - slow.y) <= rtol * y_scale
        assert np.linalg.norm(fast.d - d_ref) <= rtol * step_scale
        assert np.linalg.norm(fast.y - y_ref) <= rtol * y_scale
        assert abs(fast.u @ fast.v) <= rtol * np.linalg.norm(fast.v) * step_scale
        assert np.linalg.norm(jac @ fast.u) <= rtol * np.linalg.norm(jac) * step_scale
        return fast

    def test_random_sizes(self):
        rng = np.random.default_rng(30)
        for _ in range(300):
            n = int(rng.integers(1, 31))
            m = int(rng.integers(1, n + 1))
            _, jac, grad, c = random_kkt_instance(rng, n, m)
            self._check(jac, grad * 10.0 ** rng.uniform(-3, 3), c)

    def test_square_jacobian_has_empty_null_space(self):
        rng = np.random.default_rng(31)
        for n in range(1, 31):
            _, jac, grad, c = random_kkt_instance(rng, n, n)
            sol = self._check(jac, grad, c)
            assert np.array_equal(sol.u, np.zeros(n))

    def test_row_scales_from_1e_minus_6_to_1e6(self):
        rng = np.random.default_rng(32)
        for exponent in range(-6, 7):
            for _ in range(20):
                n = int(rng.integers(2, 31))
                m = int(rng.integers(1, n + 1))
                _, jac, grad, c = random_kkt_instance(rng, n, m)
                # A common scale 10**exponent, and rows spread over three
                # more decades (kept inside the rank gate).
                rows = 10.0**exponent * 10.0 ** rng.uniform(0, 3, size=m)
                self._check(jac * rows[:, None], grad, c)

    @pytest.mark.parametrize("sigma_max", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("margin", [1e-3, 0.5, 0.9, 1.1, 2.0, "2m", 10.0, 1e3])
    def test_rank_gate_side_unchanged(self, sigma_max, margin):
        # Margins up to about 2m leave the certificate undecided, so the
        # singular values decide; far above it the certificate accepts.
        rng = np.random.default_rng(33)
        for m in range(2, 31):
            n = int(rng.integers(m, 31))
            ratio = 2.0 * m if margin == "2m" else margin
            sigma_min = ratio * RANK_RTOL * max(1.0, sigma_max)
            svals = np.concatenate(
                [[sigma_max], rng.uniform(sigma_min, sigma_max, m - 2), [sigma_min]]
            )
            jac = _jacobian_with_spectrum(rng, n, svals)
            deficient = _gate_today(jac)
            assert deficient == (ratio < 1)
            for factor in BOTH_QR_VARIANTS:
                if deficient:
                    with pytest.raises(RankError):
                        factor(jac)
                else:
                    factor(jac)
            if not deficient:
                grad, c = rng.standard_normal(n), rng.standard_normal(m)
                fast = solve_with_factors(factor_jacobian(jac), grad, c)
                slow = solve_kkt(np.eye(n), jac, grad, c)
                assert np.allclose(fast.d, slow.d, rtol=0.0, atol=1e-9 * np.linalg.norm(slow.d))

    @pytest.mark.parametrize(
        "jac",
        [
            np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]),  # r[1, 1] == 0
            np.array([[0.0, 0.0], [1.0, 1.0]]),  # r[0, 0] == 0
            np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0]]),
            np.array([[np.nan, 0.0], [0.0, 1.0]]),
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, np.inf]]),
        ],
    )
    def test_singular_or_non_finite_r_rejected(self, jac):
        for factor in BOTH_QR_VARIANTS:
            with pytest.raises(RankError):
                factor(jac)

    def test_certificate_margin_is_needed(self):
        # Diagonal Jacobians with ||r||_F < 1 and sigma_min a few ulps
        # below RANK_RTOL: the exact gate rejects, and the certificate
        # ||r^{-1}||_F <= 1/RANK_RTOL, computed in floating point
        # without its factor 2, would accept some of them.
        rng = np.random.default_rng(34)
        hits = 0
        for _ in range(400):
            m = int(rng.integers(1, 6))
            n = m + int(rng.integers(0, 4))
            sigma_min = RANK_RTOL
            for _ in range(int(rng.integers(1, 5))):
                sigma_min = np.nextafter(sigma_min, 0.0)
            diag = np.concatenate([[sigma_min], rng.uniform(0.01, 0.4, m - 1)])
            rng.shuffle(diag)
            jac = np.zeros((m, n))
            jac[np.arange(m), np.arange(m)] = diag * rng.choice([-1.0, 1.0], m)
            assert _gate_today(jac)
            r = np.asfortranarray(np.diag(np.abs(diag)))
            inv, info = dtrtri(r)
            assert info == 0 and ddot(r.ravel(), r.ravel()) <= 1.0
            if RANK_RTOL**2 * ddot(inv.ravel(), inv.ravel()) <= 1.0:
                hits += 1
            for factor in BOTH_QR_VARIANTS:
                with pytest.raises(RankError):
                    factor(jac)
        assert hits >= 10

    @pytest.mark.parametrize("coupling", [2e5, 1e6, 1e8, 4e9])
    def test_certificate_bounds_sigma_max_by_the_whole_of_r(self, coupling):
        # r = [[1, b], [0, 1]] has sigma_max ~ b and sigma_min ~ 1/b, so
        # the gate rejects for b > 1e5; bounding sigma_max by the
        # diagonal alone (max |r_ii| = 1) would accept up to b ~ 5e9.
        for n in (2, 5):
            jac = np.zeros((2, n))
            jac[:, :2] = [[1.0, 0.0], [coupling, 1.0]]
            assert _gate_today(jac)
            for factor in BOTH_QR_VARIANTS:
                with pytest.raises(RankError):
                    factor(jac)

    def test_bundled_validated_run_takes_no_singular_values(self, bundled_instance, monkeypatch):
        calls = []

        def counting_dgesdd(*args, **kwargs):
            calls.append(1)
            return raw_dgesdd(*args, **kwargs)

        raw_dgesdd = kkt.dgesdd
        monkeypatch.setattr(kkt, "dgesdd", counting_dgesdd)
        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac,
                              beta_p=0.51, max_iters=1500, seed=0,
                              validate=True)
        trace = run(problem, bundled_instance.minibatch_oracle(), config)
        assert len(trace) == 1500
        assert calls == []
        # The spy is wired: an undecided certificate does reach it.
        factor_jacobian(np.array([[1.0, 0.0], [9e4, 1.0]]))
        assert calls == [1]

    def test_more_rows_than_columns_rejected(self):
        for factor in BOTH_QR_VARIANTS:
            with pytest.raises(RankError):
                factor(np.ones((3, 2)))

    def test_bundled_solver_trajectory(self, bundled_instance):
        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac,
                              beta_p=0.51, max_iters=300, seed=4)
        for step in iterate(problem, bundled_instance.minibatch_oracle(), config):
            sol = self._check(step.jac, step.g, step.c)
            assert np.array_equal(step.sol.d, sol.d)
            assert np.array_equal(step.sol.y, sol.y)

    def test_worked_example(self):
        factors = factor_jacobian(WORKED["jac"])
        sol = solve_with_factors(factors, WORKED["grad"], WORKED["c"])
        assert np.allclose(sol.d, [-0.5, -1.0], atol=1e-14)
        assert np.allclose(sol.y, [-0.5], atol=1e-14)
        assert np.allclose(sol.v, [-0.5, 0.0], atol=1e-14)
        assert np.allclose(sol.u, [0.0, -1.0], atol=1e-14)


def _random_sizes(rng, count):
    """``count`` random ``(n, m)`` with ``1 <= m <= n <= 30``, then every
    square size ``m == n`` up to 30."""
    sizes = []
    for _ in range(count):
        n = int(rng.integers(1, 31))
        sizes.append((n, int(rng.integers(1, n + 1))))
    return sizes + [(n, n) for n in range(1, 31)]


def _identity_solve_with_matmul(factors, grad, c, w=None):
    """The identity-model formulas of ``solve_with_factors`` (or, given
    ``w``, of ``resolve``), every product written with ``@``."""
    q1, r = factors
    if w is None:
        w = dtrtrs(r, -c, trans=1)[0]
    v = q1 @ w
    qg = q1.T @ grad
    u = q1 @ qg - grad if q1.shape[1] < q1.shape[0] else np.zeros_like(grad)
    y = dtrtrs(r, -qg - w)[0]
    return kkt.KktSolution(u + v, y, u, v, w)


class TestProductsPinnedToMatmul:
    """The solves take their products from ``ndarray.dot``; they must give
    the bits of ``@``, which tests and the ledger's oracle use, so that no
    comparison comes to rest on two BLAS libraries agreeing.

    The one exception is ``n = 1``: ``ndarray.dot`` multiplies two
    one-element operands directly, where ``@`` adds the product to +0,
    so an exact zero may carry the other sign there.
    """

    def test_solve_with_factors_and_resolve(self):
        # Zero data makes exact zeros, whose signs are pinned too.
        rng = np.random.default_rng(42)
        for n, m in _random_sizes(rng, 100):
            if n == 1:
                continue
            _, jac, grad, c = random_kkt_instance(rng, n, m)
            factors = factor_jacobian(jac)
            for grad, c in ((grad, c), (np.zeros(n), np.zeros(m))):
                first = solve_with_factors(factors, grad, c)
                want = _identity_solve_with_matmul(factors, grad, c)
                other = rng.standard_normal(n)
                again = resolve(factors, other, first.w, first.v)
                want_again = _identity_solve_with_matmul(factors, other, c, w=want.w)
                for got, ref in ((first, want), (again, want_again)):
                    for name in kkt.KktSolution._fields:
                        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes(), (
                            n, m, name)

    def test_one_variable_differs_at_most_in_the_sign_of_zero(self):
        factors = factor_jacobian(np.array([[2.0]]))
        for grad, c in ((np.array([0.0]), np.array([0.0])), (np.array([-0.0]), np.array([-0.0]))):
            got = solve_with_factors(factors, grad, c)
            want = _identity_solve_with_matmul(factors, grad, c)
            for name in kkt.KktSolution._fields:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestResolve:
    """``resolve`` re-solves for another gradient from a solve's normal step."""

    def test_equals_the_full_solve_bit_for_bit(self):
        rng = np.random.default_rng(40)
        for n, m in _random_sizes(rng, 200):
            _, jac, grad, c = random_kkt_instance(rng, n, m)
            factors = factor_jacobian(jac)
            first = solve_with_factors(factors, rng.standard_normal(n), c)
            grad = grad * 10.0 ** rng.uniform(-3, 3)
            full = solve_with_factors(factors, grad, c)
            reused = resolve(factors, grad, first.w, first.v)
            for name in kkt.KktSolution._fields:
                want, got = getattr(full, name), getattr(reused, name)
                assert got.tobytes() == want.tobytes(), (n, m, name)

    def test_normal_step_is_q1_w(self):
        # The identity-model solve forms v = q1 w itself, so bit for bit;
        # solve_kkt takes q1 from the full Q, equal to rounding.
        rng = np.random.default_rng(41)
        for n, m in _random_sizes(rng, 50):
            hess, jac, grad, c = random_kkt_instance(rng, n, m)
            factors = factor_jacobian(jac)
            fast = solve_with_factors(factors, grad, c)
            assert (factors.q_range @ fast.w).tobytes() == fast.v.tobytes(), (n, m)
            slow = solve_kkt(hess, jac, grad, c)
            gap = np.linalg.norm(factors.q_range @ slow.w - slow.v)
            assert gap <= 1e-13 * np.linalg.norm(slow.v), (n, m)
            assert np.linalg.norm(slow.w - fast.w) <= 1e-13 * np.linalg.norm(fast.w), (n, m)
