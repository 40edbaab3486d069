"""The experiment driver end to end, at demo scale.

Runs the full protocol (reference solve, seeded replicates, CSV traces,
summaries) into ./demo-runs.  The same thing is available from the
command line:

    stochsqp-experiment --iters 2000 --thin 20 --seed 1 --seed 2 \
        --validate --out demo-runs

and scales to the full protocol with --iters 100000.
"""

import json
import pathlib

from stochsqp.harness import ExperimentConfig, run_experiment

out = pathlib.Path("demo-runs")
config = ExperimentConfig(
    dataset=None,          # bundled synthetic slice
    iters=2000,
    thin=20,
    seeds=[1, 2],
    batch=16,
    beta_p=0.51,
    validate=True,
    eps_grid=[0.01, 0.1, 1.0],
    out=str(out),
)
result = run_experiment(config)

print(f"reference: residual {result.reference.residual:.1e} after "
      f"{result.reference.iterations} iterations, the last "
      f"{result.reference.newton_steps} of them Newton steps")
print(f"\nfiles in {out}/:")
for path in sorted(result.out_dir.iterdir()):
    print(f"  {path.name}")

for summary in result.summaries:
    print(f"\nseed {summary.seed}: final dist_x {summary.final_dist_x:.3e}, "
          f"dist_y {summary.final_dist_y:.3f}, dist_y_avg {summary.final_dist_y_avg:.3f}")
    print(f"  windowed-average errors: {summary.final_dist_y_avg_eps}")
    print(f"  surfaced violations: ratio {summary.xi_violations}, merit {summary.tau_violations}")

print("\nfirst trace rows:")
trace = result.trace_paths[0].read_text().splitlines()
for line in trace[:4]:
    print("  " + (line[:100] + "..." if len(line) > 100 else line))

echo = json.loads((result.out_dir / "config.json").read_text())
print(f"\nconfig echo carries the resolved settings ({len(echo)} keys) for provenance")
print("plot with any tool, e.g. gnuplot> set logscale y; "
      "plot 'demo-runs/trace_seed1.csv' u 1:2 w l  (see columns.txt)")
