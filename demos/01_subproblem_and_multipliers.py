"""One constrained quadratic subproblem, solved and dissected.

Walks through a single small solve: the step, its tangential/normal
split, and the three multiplier formulas (subproblem solve, closed-form
operator, least squares), cross-checked against a dense factorization
of the full saddle-point system.
"""

import numpy as np

from stochsqp import (
    factor_jacobian,
    kkt_residual,
    multiplier_operator,
    solve_kkt,
    solve_with_factors,
)

rng = np.random.default_rng(0)
n, m = 6, 2

q = np.linalg.qr(rng.standard_normal((n, n)))[0]
hess = q @ np.diag(rng.uniform(0.5, 2.0, n)) @ q.T
jac = rng.standard_normal((m, n))
grad = rng.standard_normal(n)
c = rng.standard_normal(m)

sol = solve_kkt(hess, jac, grad, c)
print("step d                :", np.round(sol.d, 6))
print("multiplier y          :", np.round(sol.y, 6))
residual = kkt_residual(hess @ sol.d + grad, jac, jac @ sol.d + c, sol.y)
print("verified residual     :", f"{residual:.2e}")

# The solve returns the step split into a normal part v (restores
# linearized feasibility) and a tangential part u (moves in the
# Jacobian's null space).
u, v = sol.u, sol.v
print("\n||jac @ u||           :", f"{np.linalg.norm(jac @ u):.2e}  (tangential)")
print("||jac @ v + c||       :", f"{np.linalg.norm(jac @ v + c):.2e}  (normal step solves the linearization)")
print("u  .  v               :", f"{u @ v:+.2e}  (orthogonal parts)")

# The multiplier can be written explicitly as a pseudoinverse times a
# projection applied to gradient-side data, h pinv' c - g with
# pinv' c = -v; it must reproduce the multiplier from the solve.
operator = multiplier_operator(hess, jac)
y_closed = operator @ (-hess @ v - grad)
print("\nclosed-form multiplier:", np.round(y_closed, 6))
print("gap to solver y       :", f"{np.linalg.norm(y_closed - sol.y):.2e}")

# The least-squares multiplier, the minimizer of ||g + jac' y||, drops
# the dependence on the model matrix: it is the identity-model solve's
# multiplier at c = 0.
y_ls = solve_with_factors(factor_jacobian(jac), grad, np.zeros(m)).y
print("least-squares y       :", np.round(y_ls, 6))

# Independent route: factor the whole (n+m) x (n+m) system densely.
system = np.block([[hess, jac.T], [jac, np.zeros((m, m))]])
dense = np.linalg.solve(system, np.concatenate([-grad, -c]))
print("\ndense-solve agreement :",
      f"{np.linalg.norm(dense[:n] - sol.d) + np.linalg.norm(dense[n:] - sol.y):.2e}")
