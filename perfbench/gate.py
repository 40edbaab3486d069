"""Output-correctness gate for one experiment directory.

Every check is one counted operation. The checks do not depend on the
seed, except the comparison with recorded distances, which applies only
to the first experiment at the default seed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from stochsqp.harness import ExperimentConfig, csv_columns
from stochsqp.problem import Problem
from stochsqp.solver import stationarity_residual

# Relative tolerance for the recorded summary distances. It admits
# last-digit differences from another BLAS kernel or summation order,
# not a changed algorithm.
DISTANCE_RTOL = 1e-6

_DISTANCE_KEYS = ("final_dist_x", "final_dist_y", "final_dist_y_avg")


def summary_distances(entry: dict) -> dict[str, float]:
    """The distances of one summary.json entry, flattened by name."""
    out = {key: entry[key] for key in _DISTANCE_KEYS}
    for eps, value in entry["final_dist_y_avg_eps"].items():
        out[f"final_dist_y_avg_eps_{eps}"] = value
    return out


def check_experiment(
    out_dir: Path, config: ExperimentConfig, problem: Problem, expected: list | None = None
) -> list[tuple[bool, str]]:
    """Run every check on ``out_dir``; return ``(passed, description)`` per check.

    ``expected`` holds, per seed, the recorded :func:`summary_distances`.
    """
    results: list[tuple[bool, str]] = []

    def record(ok: bool, what: str):
        results.append((bool(ok), what))

    reference = json.loads((out_dir / "reference.json").read_text())
    residual = stationarity_residual(problem, reference["x"], reference["y"])
    record(residual <= config.ref_tol, f"reference residual {residual:.3e} <= {config.ref_tol:g}")

    columns = csv_columns(config.eps_grid)
    want_rows = config.iters // config.thin
    for seed in config.seeds:
        with open(out_dir / f"trace_seed{seed}.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        header, body = rows[0], rows[1:]
        record(header == columns, f"seed {seed}: csv header")
        record(len(body) == want_rows, f"seed {seed}: {len(body)} csv rows, want {want_rows}")
        # dist_y_true is nan by design unless the run validates.
        finite = header == columns and all(
            math.isfinite(float(row[i])) == (name != "dist_y_true" or config.validate)
            for row in body
            for i, name in enumerate(columns)
            if name.startswith("dist_")
        )
        record(finite, f"seed {seed}: distance columns finite")

    summary = json.loads((out_dir / "summary.json").read_text())
    seeds = [entry["seed"] for entry in summary]
    record(seeds == list(config.seeds), f"summary seeds {seeds}")

    if expected is not None:
        for entry, want in zip(summary, expected):
            got = summary_distances(entry)
            close = got.keys() == want.keys() and all(
                math.isclose(got[k], want[k], rel_tol=DISTANCE_RTOL) for k in want
            )
            record(close, f"seed {entry['seed']}: distances match recorded values")

    return results
