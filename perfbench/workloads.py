"""Workload definitions and seeded input generation for the benchmark.

Each workload is one ``ExperimentConfig`` shape. The workload seed
drives the replicate seeds and, for the a9a-shaped workload, the
generated data; the program only ever sees the resulting config and
LIBSVM file.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Shape of the UCI "adult" a9a set: 123 binary features, 32561 rows,
# about 11% of the entries set.
A9A_FEATURES = 123
A9A_SAMPLES = 32561
A9A_DENSITY = 0.11


@dataclass(frozen=True)
class Workload:
    name: str
    iters: int
    thin: int
    validate: bool
    replicates: int  # replicate seeds per experiment
    a9a: bool
    # Weight of the streaming kernel in the host-speed calibration
    # (calibrate.py): the a9a-shaped solves spend most of their time in
    # full passes over the features, the bundled ones in small calls.
    stream_share: float = 0.0


# All three use the CLI defaults (mlin=10, batch=16, three eps values).
# A bundled experiment lasts 1-4 s, so a run takes the median of 8-25
# of them. At 2400 rows bundled-emit's quadratic windowed averaging only
# just outweighed the KKT solves (40% against 37% of self time), hence
# 3200. One a9a-shaped experiment lasts about 34 s, mostly the
# reference solve; its three replicates give solve_us_per_iter three
# samples of about 2 s each.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bundled-validate",
            iters=1500,
            thin=100,
            validate=True,
            replicates=1,
            a9a=False,
        ),
        Workload(
            name="bundled-emit",
            iters=3200,
            thin=1,
            validate=False,
            replicates=1,
            a9a=False,
        ),
        Workload(
            name="a9a-shaped",
            iters=500,
            thin=100,
            validate=False,
            replicates=3,
            a9a=True,
            stream_share=0.6,
        ),
    )
}

# Smoke lengths keep every code path but finish in seconds.
SMOKE_ITERS = 200
SMOKE_A9A_SAMPLES = 2000


def replicate_seed(workload_seed: int, experiment: int) -> int:
    """Replicate seed of the ``experiment``-th experiment of a run."""
    return workload_seed * 1000 + experiment


def prepare_inputs(workload: Workload, seed: int, smoke: bool, directory: Path) -> str | None:
    """Generate the workload's input files; return the dataset path, or
    None for the bundled slice."""
    if not workload.a9a:
        return None
    path = directory / "a9a-shaped.libsvm"
    write_a9a_shaped(path, seed, SMOKE_A9A_SAMPLES if smoke else A9A_SAMPLES)
    return str(path)


def write_a9a_shaped(path: Path, seed: int, n_samples: int = A9A_SAMPLES) -> None:
    """Write seeded a9a-shaped data as LIBSVM text.

    Features are independent Bernoulli(A9A_DENSITY) bits and labels are
    drawn from a logistic model. The model's weights are part of the
    workload, not of the seed: with seeded weights the reference solve
    took 5043-5565 iterations across seeds, with fixed weights
    5448-5541, and reference_s is compared across seeds.
    """
    rng = np.random.default_rng([seed, A9A_FEATURES])
    features = rng.random((n_samples, A9A_FEATURES)) < A9A_DENSITY
    weights = np.random.default_rng(A9A_FEATURES).standard_normal(A9A_FEATURES)
    weights /= np.sqrt(A9A_DENSITY * A9A_FEATURES)
    prob = 1.0 / (1.0 + np.exp(-(features @ weights)))
    positive = rng.random(n_samples) < prob
    tokens = np.char.add(np.arange(1, A9A_FEATURES + 1).astype(str), ":1")
    lines = [
        ("+1 " if pos else "-1 ") + " ".join(tokens[row])
        for row, pos in zip(features, positive)
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
