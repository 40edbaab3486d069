"""Merit function, model reduction, and trial-value arithmetic."""

import itertools
import math

import numpy as np
import pytest

from stochsqp import (
    check_reduction_lbnd,
    factor_jacobian,
    phi,
    SolverConfig,
    reduction_delta_q,
    solve_kkt,
    solve_with_factors,
    tau_trial_true,
    xi_trial,
)

from stochsqp.merit import (
    lbnd_from_products,
    reduction_from_products,
    tau_trial_from_products,
    xi_trial_from_products,
)

from conftest import model_q, random_kkt_instance

# Shared worked case: identity model matrix, jac=[1 0], grad=(1,1), c=0.5
# gives the step d=(-0.5,-1) with multiplier -0.5.
TAU = 0.1
JAC = np.array([[1.0, 0.0]])
GRAD = np.array([1.0, 1.0])
C = np.array([0.5])
D = np.array([-0.5, -1.0])
H = np.eye(2)


class TestPhi:
    def test_formula(self):
        assert phi(0.1, 2.0, np.array([-1.0, 2.0])) == pytest.approx(3.2, abs=1e-15)

    def test_feasible_point(self):
        assert phi(0.25, 3.0, np.zeros(4)) == 0.75

    def test_protocol_defaults(self):
        config = SolverConfig()
        assert config.tau == 0.1
        assert config.xi == 1.0


class TestModelQ:
    def test_zero_step_recovers_merit_value(self):
        f = 1.7
        assert model_q(TAU, f, C, JAC, GRAD, H, np.zeros(2)) == phi(TAU, f, C)

    def test_worked_example(self):
        q = model_q(TAU, 0.0, C, JAC, GRAD, H, D)
        assert q == pytest.approx(-0.0875, abs=1e-15)

    def test_negative_curvature_is_clamped(self):
        d = np.array([1.0, 0.0])
        q = model_q(TAU, 0.0, C, JAC, GRAD, -H, d)
        # Curvature term drops; remaining parts are linear.
        assert q == pytest.approx(TAU * (GRAD @ d) + abs(C[0] + d[0]), abs=1e-15)


class TestReduction:
    def test_worked_example(self):
        dq = reduction_delta_q(TAU, C, GRAD, H, D)
        assert dq == pytest.approx(0.5875, abs=1e-15)

    def test_zero_step(self):
        assert reduction_delta_q(TAU, C, GRAD, H, np.zeros(2)) == 0.5

    def test_matches_model_difference_on_solver_steps(self):
        # For steps satisfying the linearized constraint the closed form
        # equals q(0) - q(d).
        rng = np.random.default_rng(0)
        for _ in range(100):
            hess, jac, grad, c = random_kkt_instance(rng, 8, 3)
            d = solve_kkt(hess, jac, grad, c).d
            f = float(rng.standard_normal())
            direct = reduction_delta_q(TAU, c, grad, hess, d)
            diff = model_q(TAU, f, c, jac, grad, hess, np.zeros(8)) - model_q(
                TAU, f, c, jac, grad, hess, d
            )
            assert direct == pytest.approx(diff, abs=1e-12)


class TestXiTrial:
    def test_worked_example(self):
        dq = reduction_delta_q(TAU, C, GRAD, H, D)
        assert xi_trial(TAU, dq, D) == pytest.approx(4.7, abs=1e-14)

    def test_zero_step_sentinel(self):
        assert xi_trial(TAU, 1.0, np.zeros(3)) == math.inf


class TestTauTrialTrue:
    def test_descent_case_sentinel(self):
        # rho = grad'd + d'd = -1.5 + 1.25 < 0 for the worked step.
        assert tau_trial_true(0.5, C, GRAD, H, D) == math.inf

    def test_formula(self):
        d = np.array([1.0, 0.0])
        grad = np.array([1.0, 0.0])
        # rho = 1 + 1 = 2, ||c||_1 = 1.
        assert tau_trial_true(0.5, np.array([1.0]), grad, H, d) == 0.25


class TestReductionLowerBound:
    def test_stationary_point(self):
        holds, slack = check_reduction_lbnd(TAU, 0.5, np.zeros(1), GRAD, H, np.zeros(2))
        assert holds
        assert slack == 0.0

    def test_holds_whenever_tau_is_admissible(self):
        rng = np.random.default_rng(1)
        nu = 0.5
        for _ in range(50):
            hess, jac, grad, c = random_kkt_instance(rng, 8, 3)
            d = solve_kkt(hess, jac, grad, c).d
            tau_max = tau_trial_true(nu, c, grad, hess, d)
            tau = min(0.5 * tau_max, 10.0) if math.isfinite(tau_max) else 10.0
            holds, slack = check_reduction_lbnd(tau, nu, c, grad, hess, d)
            assert holds, slack

    def test_oversized_tau_reports_negative_slack(self):
        # rho = 2 > 0 with trial value 0.25; tau = 2.5 breaks the bound.
        d = np.array([1.0, 0.0])
        grad = np.array([1.0, 0.0])
        c = np.array([1.0])
        holds, slack = check_reduction_lbnd(2.5, 0.5, c, grad, H, d)
        assert not holds
        assert slack == pytest.approx(-4.5, abs=1e-14)


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


class TestIdentityModel:
    """``hess=None`` is the identity model matrix, to the bit."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 31))
            m = int(rng.integers(1, n + 1))
            _, jac, grad, c = random_kkt_instance(rng, n, m)
            grad = grad * 10.0 ** rng.uniform(-3, 3)
            yield jac, grad, c, solve_with_factors(factor_jacobian(jac), grad, c).d
            yield jac, grad, c, rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        yield JAC, GRAD, C, np.zeros(2)  # zero step
        yield JAC, GRAD, C, D  # rho <= 0, so tau_trial_true is inf

    def test_same_bits_as_the_identity_matrix(self):
        vacuous = finite = 0
        for jac, grad, c, d in self._cases():
            eye = np.eye(d.size)
            f = float(np.sum(grad))
            pairs = [
                (reduction_delta_q(TAU, c, grad, None, d), reduction_delta_q(TAU, c, grad, eye, d)),
                (tau_trial_true(0.5, c, grad, None, d), tau_trial_true(0.5, c, grad, eye, d)),
                (model_q(TAU, f, c, jac, grad, None, d), model_q(TAU, f, c, jac, grad, eye, d)),
            ]
            (holds, slack), (holds_eye, slack_eye) = (
                check_reduction_lbnd(TAU, 0.5, c, grad, hess, d) for hess in (None, eye)
            )
            assert holds == holds_eye
            pairs.append((slack, slack_eye))
            for fast, slow in pairs:
                assert _bits(fast) == _bits(slow)
            if math.isinf(pairs[1][0]):
                vacuous += 1
            else:
                finite += 1
        assert vacuous >= 10 and finite >= 10

    def test_zero_step_sentinels(self):
        zero = np.zeros(2)
        assert reduction_delta_q(TAU, C, GRAD, None, zero) == 0.5
        assert tau_trial_true(0.5, C, GRAD, None, zero) == math.inf
        assert check_reduction_lbnd(TAU, 0.5, np.zeros(1), GRAD, None, zero) == (True, 0.0)


class TestProductForms:
    """Each inner-product form gives the same bits on Python floats as
    elementwise on arrays, sentinels and non-finite inputs included.

    A NaN matches any NaN: when both operands of an operation are NaN,
    IEEE 754 leaves open whose sign and payload the result carries.
    """

    FORMS = {
        "reduction": lambda gd, dhd, l1: reduction_from_products(TAU, gd, dhd, l1),
        # delta_q and d'd >= 0 in the places of g'd and ||c||_1.
        "xi_trial": lambda gd, dhd, l1: xi_trial_from_products(TAU, gd, l1),
        "tau_trial": lambda gd, dhd, l1: tau_trial_from_products(0.5, gd, dhd, l1),
        "lbnd": lambda gd, dhd, l1: lbnd_from_products(TAU, 0.5, gd, dhd, l1),
    }

    @staticmethod
    def _columns():
        rng = np.random.default_rng(3)
        scaled = rng.standard_normal((3, 300)) * 10.0 ** rng.uniform(-3, 3, (3, 300))
        special = (0.0, -0.0, 1.0, -1.0, 1e-300, 1e300, math.inf, -math.inf, math.nan)
        grid = np.array(list(itertools.product(special, repeat=3))).T
        gd, dhd, l1 = np.concatenate([scaled, grid], axis=1)
        return gd, dhd, np.abs(l1)

    @pytest.mark.parametrize("name", sorted(FORMS))
    def test_same_bits_on_floats_as_on_arrays(self, name):
        form = self.FORMS[name]
        columns = self._columns()
        whole = form(*columns)
        whole = whole if isinstance(whole, tuple) else (whole,)
        for i in range(columns[0].size):
            one = form(*(float(column[i]) for column in columns))
            one = one if isinstance(one, tuple) else (one,)
            for part, parts in zip(one, whole):
                both_nan = math.isnan(part) and math.isnan(parts[i])
                assert both_nan or _bits(float(part)) == _bits(parts[i]), (name, i)

    def test_helpers_keep_their_written_out_expressions(self):
        # The vector helpers give, to the bit, the Python-float expressions
        # that define them, in their order of operations.
        rng = np.random.default_rng(4)
        nu = 0.3
        for _ in range(200):
            hess, jac, grad, c = random_kkt_instance(rng, 8, 3)
            d = solve_kkt(hess, jac, grad, c).d
            gd, l1 = float(grad @ d), float(np.abs(c).sum())
            curv = max(float(d @ (hess @ d)), 0.0)
            dq = -TAU * (gd + 0.5 * curv) + l1
            rho = gd + curv
            assert _bits(reduction_delta_q(TAU, c, grad, hess, d)) == _bits(dq)
            assert _bits(xi_trial(TAU, dq, d)) == _bits(dq / (TAU * float(d @ d)))
            tau_max = math.inf if rho <= 0.0 else (1.0 - nu) * l1 / rho
            assert _bits(tau_trial_true(nu, c, grad, hess, d)) == _bits(tau_max)
            slack = dq - (0.5 * TAU * curv + nu * l1)
            holds = slack >= -1e-10 * (1.0 + abs(dq))
            assert check_reduction_lbnd(TAU, nu, c, grad, hess, d) == (holds, slack)

    def test_sentinels(self):
        dq = np.array([1.0, 0.0, -1.0, 2.0])
        assert list(xi_trial_from_products(TAU, dq, np.array([0.0, 0.0, 0.0, 4.0]))) == [
            math.inf, math.inf, math.inf, 5.0
        ]
        # rho = g'd + max(d'hd, 0): -1 + 0, 0 + 0, nan, 1 + 1.
        rho_gd = np.array([-1.0, 0.0, math.nan, 1.0])
        rho_dhd = np.array([-3.0, 0.0, 1.0, 1.0])
        tau = tau_trial_from_products(0.5, rho_gd, rho_dhd, np.ones(4))
        assert tau[:2].tolist() == [math.inf, math.inf]
        assert math.isnan(tau[2]) and tau[3] == 0.25
        holds, slack = lbnd_from_products(TAU, 0.5, np.array([math.nan]), np.ones(1), np.ones(1))
        assert not holds[0] and math.isnan(slack[0])
