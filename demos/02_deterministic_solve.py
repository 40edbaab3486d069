"""Exact-gradient solves: a hand-checkable toy, then the bundled instance.

With exact gradients a constant damping factor, the schedule
``k**-p`` at ``p = 0``, is admissible and the iteration
contracts linearly.  Along the way the merit function
decreases monotonically and the fixed merit/ratio parameters stay below
their per-iteration trial values.  High-accuracy reference solutions
come from Newton steps on the KKT system where the problem has a
Lagrangian Hessian; the sphere toy has none, so its reference solve
takes these constant-damping steps, ``beta_k = 1``, throughout.
"""

import numpy as np

from stochsqp import (
    Problem,
    SolverConfig,
    exact_oracle,
    load_bundled_instance,
    phi,
    run,
)
from stochsqp.harness import compute_reference

# --- sphere toy: minimize x_1 on the unit sphere --------------------------
# Lagrange conditions give the solution (-1, 0) with multiplier 1/2.
toy = Problem(
    n=2, m=1,
    objective=lambda x: float(x[0]),
    gradient=lambda x: np.array([1.0, 0.0]),
    constraints=lambda x: np.array([float(x @ x) - 1.0]),
    jacobian=lambda x: np.array([2.0 * x]),
    x0=np.array([0.3, 1.0]),
)
ref = compute_reference(toy, SolverConfig(lip_gradf=0.5, lip_jac=2.0), tol=1e-10)
print("sphere toy: x* =", np.round(ref.x, 8), " y* =", np.round(ref.y, 8),
      f" ({ref.iterations} iterations, residual {ref.residual:.1e})")

# --- bundled logistic-regression instance ---------------------------------
instance = load_bundled_instance()
problem = instance.problem()
lip_gradf, lip_jac = instance.lipschitz_bounds()
print(f"\nbundled instance: n={instance.n}, m={instance.m}, "
      f"N={instance.dataset.n_samples}, lip bounds ({lip_gradf:.2f}, {lip_jac:.1f})")

config = SolverConfig(
    tau=0.1, xi=1.0,
    lip_gradf=lip_gradf, lip_jac=lip_jac,
    beta_p=0.0,
    max_iters=3000, validate=True,
)
trace = run(problem, exact_oracle(problem), config)
# The run records no merit values; evaluate them at the recorded iterates.
merit = np.array([phi(config.tau, problem.objective(x), problem.constraints(x))
                  for x in trace.x])

print(f"step size alpha = {trace.alpha[0]:.4f} (constant)")
for k in (1, 10, 100, 500, 1000, 3000):
    print(f"  k={k:>5d}  residual {trace.resid_true[k - 1]:9.2e}   "
          f"||c|| {trace.norm_c[k - 1]:9.2e}   merit {merit[k - 1]:.6f}")

drops = np.diff(merit)
print(f"\nmerit monotone decrease: max increase {drops.max():.2e} (<= 0 expected)")
print(f"trial values: min xi_trial {np.nanmin(trace.xi_trial):.2f} (>= 1.0), "
      f"min tau_trial {np.nanmin(trace.tau_trial_true):.2f} (>= 0.1)")
summary = trace.validation_summary()
print(f"violations surfaced: {summary.xi_violations} ratio, "
      f"{summary.tau_violations} merit")
