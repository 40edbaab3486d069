"""Mini-batch run: noisy multipliers, clean averages.

Reproduces the core phenomenon at reduced budget: with mini-batch
gradients the primal iterates converge while the per-iteration
multiplier keeps oscillating at the gradient-noise level.  The
exact-gradient "shadow" multiplier (unobservable in practice) tracks
the primal error, and averaging the observable multipliers recovers
almost the same accuracy.
"""

import numpy as np

from stochsqp import SolverConfig, load_bundled_instance, run
from stochsqp.averaging import window_starts
from stochsqp.harness import compute_reference, distance_columns

instance = load_bundled_instance()
problem = instance.problem()
lip_gradf, lip_jac = instance.lipschitz_bounds()
# One config for both solves: the reference solve reads its step rule
# and ignores the damping, batch, budget and seed.
config = SolverConfig(
    tau=0.1, xi=1.0, lip_gradf=lip_gradf, lip_jac=lip_jac,
    beta_p=0.51,
    batch_size=16, max_iters=20_000, seed=1, validate=True,
)

reference = compute_reference(problem, config)
print(f"reference solved to residual {reference.residual:.1e} "
      f"in {reference.iterations} iterations ({reference.newton_steps} Newton)")

trace = run(problem, instance.minibatch_oracle(), config)
iters = len(trace)

# Every row's distances, as the trace CSV computes them.
eps_grid = (0.01, 0.1, 1.0)
dist_x, dist_y, dist_y_true, dist_avg, *dist_eps = distance_columns(
    trace, reference, eps_grid, slice(None))

print(f"\n{'k':>6s} {'||x_k - x*||':>13s} {'||y_k - y*||':>13s} "
      f"{'||y_k_exact - y*||':>18s} {'||y_avg_k - y*||':>16s}")
for k in (1, 100, 1000, 5000, 10_000, 20_000):
    i = k - 1
    print(f"{k:>6d} {dist_x[i]:>13.4e} {dist_y[i]:>13.4e} "
          f"{dist_y_true[i]:>18.4e} {dist_avg[i]:>16.4e}")

tail = slice(int(0.9 * iters), None)
print(f"\ntail medians: raw multiplier {np.median(dist_y[tail]):.3f}  "
      f"running average {np.median(dist_avg[tail]):.3f}  "
      f"(noise suppressed {np.median(dist_y[tail]) / np.median(dist_avg[tail]):.1f}x)")

# Windowed averages drop multipliers gathered far from the current
# iterate; with a shrinking window radius they trade noise suppression
# against staleness.
print("\nwindowed averages at the final iterate:")
for eps, dist in zip(eps_grid, dist_eps):
    (start,) = window_starts(trace.x, eps, [iters])
    print(f"  eps={eps:<5g} window [{start:>6d}, {iters}]  error {dist[-1]:.4f}")
print(f"  running average over everything       error {dist_avg[-1]:.4f}")
