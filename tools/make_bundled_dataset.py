"""Regenerate the bundled synthetic LIBSVM slice.

The packaged dataset (``src/stochsqp/data/synthetic200.libsvm``) is a
200-sample, 30-feature binary classification set generated here from a
fixed seed, so the test suite and demos run without fetching anything.

Design notes.  The standard bundled instance stacks 10 seeded affine
constraint rows on top of the sphere row, and the solver's tangential
step lives in the null space of that stack, which is orthogonal to the
span of the affine rows regardless of the iterate.  The dataset
therefore mixes:

* 170 ordinary samples (heterogeneous feature scales, 15% flipped
  labels) that carry the classification signal, and
* 30 heavy "corrupted" samples whose feature vectors lie in the span of
  the affine constraint rows, with random labels.

The corrupted block makes mini-batch gradient noise large in exactly
the subspace that feeds the Lagrange multipliers while leaving the
tangential dynamics (and hence the primal path) almost deterministic:
multiplier estimates stay noisy while the iterates converge, which is
the regime the multiplier-averaging demonstrations need.  Because the
block is spread over 10 near-orthogonal directions it inflates the
per-sample gradient variance by an order of magnitude while roughly
doubling the gradient Lipschitz bound.

The constraint rows are reproduced here from their fixed seed (they
depend only on the seed and the dimensions); the generator asserts that
the instance built from the emitted file draws the same rows.

Run from the repository root:  python3 tools/make_bundled_dataset.py
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from stochsqp.logreg import (
    INSTANCE_SEED, M_LIN, Dataset, build_instance, parse_libsvm, serialize_libsvm,
)
from stochsqp.problem import exact_oracle
from stochsqp.solver import SolverConfig, run

GEN_SEED = 201
N_FEATURES = 30
N_SAMPLES = 200
SPARSITY = 0.30
FLIP_RATE = 0.15
N_CORRUPTED = 30
CORRUPTED_SCALE = 30.0

OUT = (
    pathlib.Path(__file__).resolve().parents[1]
    / "src" / "stochsqp" / "data" / "synthetic200.libsvm"
)


def generate() -> Dataset:
    # First draw of the instance constructor: depends only on seed/shape.
    A = np.random.default_rng(INSTANCE_SEED).standard_normal((M_LIN, N_FEATURES))
    row_basis = np.linalg.qr(A.T)[0]

    rng = np.random.default_rng(GEN_SEED)
    scales = np.exp(rng.uniform(np.log(0.5), np.log(4.0), size=N_FEATURES))
    features = rng.standard_normal((N_FEATURES, N_SAMPLES)) * scales[:, None]
    features[rng.uniform(size=features.shape) < SPARSITY] = 0.0

    w = rng.standard_normal(N_FEATURES) / np.sqrt(N_FEATURES)
    margins = features.T @ w + rng.logistic(0.0, 1.0, size=N_SAMPLES)
    labels = np.where(margins >= 0, 1.0, -1.0)
    labels[rng.uniform(size=N_SAMPLES) < FLIP_RATE] *= -1.0

    corrupted = rng.choice(N_SAMPLES, size=N_CORRUPTED, replace=False)
    for i in corrupted:
        mix = rng.standard_normal(M_LIN)
        features[:, i] = CORRUPTED_SCALE * (row_basis @ (mix / np.linalg.norm(mix)))
        labels[i] = rng.choice([-1.0, 1.0])

    # Drawn feature-major, one column per sample; stored one row per sample.
    return Dataset(features=np.round(features, 6).T, labels=labels)


def sanity_check(dataset: Dataset):
    instance = build_instance(dataset, m_lin=M_LIN, seed=INSTANCE_SEED)
    lip_gradf, lip_jac = instance.lipschitz_bounds()
    config = SolverConfig(
        tau=0.1,
        xi=1.0,
        nu=0.5,
        lip_gradf=lip_gradf,
        lip_jac=lip_jac,
        beta_p=0.0,
        batch_size=1,
        max_iters=20_000,
        validate=True,
    )
    trace = run(instance.problem(), exact_oracle(instance.problem()), config)
    summary = trace.validation_summary()
    assert summary.clean, f"deterministic run surfaced violations: {summary}"
    best = np.nanmin(trace.resid_true)
    assert best <= 1e-6, f"best residual {best:.3e}"
    first = int(np.argmax(trace.resid_true <= 1e-6)) + 1
    print(f"deterministic residual <= 1e-6 first reached at iteration {first}")
    print(f"per-sample gradient variance at x1: {instance.per_sample_variance(instance.x1):.1f}")
    print(f"lipschitz bounds: grad {lip_gradf:.3f}, jacobian {lip_jac:.3f}")


def main():
    dataset = generate()
    text = serialize_libsvm(dataset)
    reparsed = parse_libsvm(text)
    assert np.array_equal(reparsed.features, dataset.features)
    assert np.array_equal(reparsed.labels, dataset.labels)

    # The corrupted block must stay aligned with the rows the instance
    # constructor actually draws (i.e. no rank-check retry happened).
    instance = build_instance(reparsed, m_lin=M_LIN, seed=INSTANCE_SEED)
    expected_A = np.random.default_rng(INSTANCE_SEED).standard_normal((M_LIN, N_FEATURES))
    assert np.array_equal(instance.A, expected_A)

    sanity_check(reparsed)
    OUT.write_text(text)
    print(f"wrote {OUT} ({len(text.splitlines())} samples, {dataset.n_features} features)")


if __name__ == "__main__":
    main()
