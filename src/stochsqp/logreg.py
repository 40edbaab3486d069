"""Constrained logistic-regression benchmark instances.

Builds test problems of the form

    minimize   (1/N) sum_i log(1 + exp(-gamma_i * <d_i, x>))
    subject to A x = b,   ||x||^2 - 1 = 0

from data in LIBSVM text format.  The affine data ``(A, b)`` and the
initial point are standard-normal draws from a seed and are fixed for
the lifetime of the instance, so every replicate of an experiment sees
the same geometry and only the gradient noise varies.

Instances are immutable after construction and safe for shared
concurrent evaluation.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from importlib import resources
from typing import TextIO

import numpy as np
from scipy.special import expit

from .errors import ConstructionError, ParseError
from .problem import Array, Problem, StochasticGradientOracle

#: Relative singular-value threshold declaring a matrix full row rank.
RANK_RTOL = 1e-8
#: Draws of ``(A, b, x1)`` :func:`build_instance` makes before giving up.
MAX_TRIES = 10

_BUNDLED_NAME = "synthetic200.libsvm"

#: Samples per block in the full passes that build an ``(n, samples)``
#: temporary, which bounds its size (about 4 MB at n = 123), and lines
#: per block in :func:`parse_libsvm`.
CHUNK_SAMPLES = 4096

_COLON, _SPACE = ord(":"), ord(" ")
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (one column per sample) and +/-1 labels."""

    features: Array  # (n_features, n_samples)
    labels: Array  # (n_samples,), entries in {-1, +1}

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if self.labels.shape != (self.features.shape[1],):
            raise ValueError("labels must have one entry per sample")
        if self.labels.size and not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")

    @property
    def n_features(self) -> int:
        return self.features.shape[0]

    @property
    def n_samples(self) -> int:
        return self.features.shape[1]


def parse_libsvm(source: str | TextIO, n_features: int | None = None) -> Dataset:
    """Parse LIBSVM text ("label idx:val idx:val ...", 1-based indices).

    One line is one sample; blank lines are skipped.  Labels in
    ``{0, 1}`` and ``{-1, +1}`` are both accepted: a positive label maps
    to +1 and any other to -1.  Indices must be strictly increasing
    within each line.  The feature dimension is the largest index seen
    unless ``n_features`` overrides it (the override must cover every
    index).  An empty stream yields an empty dataset, which instance
    construction later rejects.

    The text is read ``CHUNK_SAMPLES`` lines at a time.  Each block's
    ``idx:val`` tokens are split in one pass, converted by numpy with
    the accept set of ``int()`` and ``float()``, and checked as whole
    arrays; one scatter puts them into the feature matrix.  Only the
    current block's tokens are held as strings, so the parse needs
    about the final matrix plus 16 bytes per nonzero entry.

    A block that fails a check is scanned again line by line, only to
    raise the :class:`ParseError` of its first bad line (``line N:
    ...``).  An index past the int64 range is a parse error of its line.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    labels: list[Array] = []
    entries: list[tuple[Array, Array, Array]] = []  # per block: idx, val, entries per line
    max_index = 0
    first = 1
    while lines := list(itertools.islice(stream, CHUNK_SAMPLES)):
        try:
            block_labels, idx, val, counts = _parse_block(lines)
        except (ValueError, OverflowError):
            _raise_first_bad_line(lines, first)
            raise
        first += len(lines)
        labels.append(block_labels)
        entries.append((idx, val, counts))
        if idx.size:
            max_index = max(max_index, int(idx.max()))

    n = max_index if n_features is None else int(n_features)
    if n < max_index:
        raise ParseError(f"n_features={n} is smaller than the largest index {max_index}")
    features = np.zeros((n, sum(block.size for block in labels)))
    column = 0
    for idx, val, counts in entries:
        features[idx - 1, np.repeat(np.arange(column, column + counts.size), counts)] = val
        column += counts.size
    return Dataset(features=features, labels=np.concatenate([np.zeros(0), *labels]))


def _parse_block(lines: list[str]) -> tuple[Array, Array, Array, Array]:
    """Labels, indices, values and entries per sample of a block of lines.

    Raises ``ValueError`` or ``OverflowError`` when any line is bad.
    """
    label_texts = []
    rests = []
    for line in lines:
        parts = line.split(None, 1)
        if parts:
            label_texts.append(parts[0])
            rests.append(parts[1] if len(parts) == 2 else "")
    raw_labels = np.array(label_texts, dtype=float)
    joined = " ".join(" ".join(rests).split())
    pieces = []
    if joined:
        # One space between tokens and none inside one, so every token
        # holds exactly one colon iff the colons and spaces read ": : ... :".
        codes = np.frombuffer(joined.encode(), dtype=np.uint8)
        separators = codes[(codes == _COLON) | (codes == _SPACE)]
        if (
            separators.size % 2 == 0
            or np.any(separators[::2] != _COLON)
            or np.any(separators[1::2] != _SPACE)
        ):
            raise ValueError("an entry does not hold exactly one ':'")
        pieces = joined.replace(":", " ").split(" ")
    idx = np.array(pieces[0::2], dtype=np.int64)
    val = np.array(pieces[1::2], dtype=float)
    counts = np.array([rest.count(":") for rest in rests], dtype=np.intp)
    # The first entry of each sample need not exceed the entry before it.
    increasing = np.diff(idx) > 0
    starts = np.cumsum(counts) - counts
    increasing[starts[(starts > 0) & (starts < idx.size)] - 1] = True
    if not (
        np.isfinite(raw_labels).all()
        and np.isfinite(val).all()
        and (idx >= 1).all()
        and increasing.all()
    ):
        raise ValueError("a label or an entry failed a check")
    return np.where(raw_labels > 0, 1.0, -1.0), idx, val, counts


def _raise_first_bad_line(lines: list[str], first: int) -> None:
    """Raise the :class:`ParseError` of the first bad line, numbered from ``first``."""
    for lineno, line in enumerate(lines, start=first):
        tokens = line.split()
        if not tokens:
            continue
        try:
            raw_label = float(tokens[0])
        except ValueError:
            raise ParseError(f"line {lineno}: label {tokens[0]!r} is not a number") from None
        if not math.isfinite(raw_label):
            raise ParseError(f"line {lineno}: non-finite label {tokens[0]!r}")
        previous = 0
        for token in tokens[1:]:
            idx_text, _, val_text = token.partition(":")
            try:
                idx = int(idx_text)
                val = float(val_text)
            except ValueError:
                raise ParseError(f"line {lineno}: malformed entry {token!r}") from None
            if not math.isfinite(val):
                raise ParseError(f"line {lineno}: non-finite value in {token!r}")
            if idx < 1:
                raise ParseError(f"line {lineno}: feature index {idx} is not >= 1")
            if idx > _INT64_MAX:
                raise ParseError(f"line {lineno}: feature index {idx} is too large")
            if idx <= previous:
                raise ParseError(f"line {lineno}: feature indices must be strictly increasing")
            previous = idx


def serialize_libsvm(dataset: Dataset) -> str:
    """Write a dataset back to LIBSVM text (nonzero entries only)."""
    lines = []
    for j in range(dataset.n_samples):
        label = "+1" if dataset.labels[j] > 0 else "-1"
        col = dataset.features[:, j]
        entries = " ".join(f"{i + 1}:{col[i]:.17g}" for i in np.nonzero(col)[0])
        lines.append(f"{label} {entries}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


def load_libsvm_file(path, n_features: int | None = None) -> Dataset:
    """Parse a LIBSVM file; a :class:`ParseError` names the file and line.

    The file must be ASCII.  Other bytes are decoded as lone surrogates
    (``errors="surrogateescape"``), which no label or entry accepts, so
    they fail the per-line checks like any other malformed text.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
        try:
            return parse_libsvm(handle, n_features=n_features)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None


def load_bundled_dataset() -> Dataset:
    """Load the small synthetic dataset shipped with the package."""
    text = resources.files("stochsqp.data").joinpath(_BUNDLED_NAME).read_text()
    return parse_libsvm(text)


def _full_row_rank(matrix: Array) -> bool:
    if matrix.shape[0] == 0:
        return True
    svals = np.linalg.svd(matrix, compute_uv=False)
    return svals[-1] >= RANK_RTOL * svals[0]


@dataclass(frozen=True)
class ConstrainedLogRegInstance:
    """Logistic loss with seeded affine constraints plus the unit sphere.

    The constraint map is ``c(x) = (A x - b, ||x||^2 - 1)`` with
    Jacobian rows ``(A; 2 x')``, so the total constraint dimension is
    ``m_lin + 1``.
    """

    dataset: Dataset
    A: Array  # (m_lin, n)
    b: Array  # (m_lin,)
    x1: Array  # (n,) initial point

    @property
    def n(self) -> int:
        return self.dataset.n_features

    @property
    def m_lin(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.m_lin + 1

    # -- evaluators ----------------------------------------------------
    def _margins(self, x: Array) -> Array:
        return self.dataset.labels * (self.dataset.features.T @ x)

    def objective(self, x: Array) -> float:
        # log(1 + exp(-z)) = logaddexp(0, -z), stable for large |z|.
        return float(np.mean(np.logaddexp(0.0, -self._margins(x))))

    def gradient(self, x: Array) -> Array:
        z = self._margins(x)
        w = -self.dataset.labels * expit(-z)
        return self.dataset.features @ w / self.dataset.n_samples

    def constraints(self, x: Array) -> Array:
        return np.concatenate([self.A @ x - self.b, [float(x @ x) - 1.0]])

    def jacobian(self, x: Array) -> Array:
        return np.vstack([self.A, 2.0 * x])

    def lagrangian_hessian(self, x: Array, y: Array) -> Array:
        """Hessian of ``f + c'y``: ``(1/N) D diag(s(1-s)) D' + 2 y_sphere I``.

        ``s`` is the sigmoid of the margins; ``s(1-s)`` does not depend
        on the label sign.  Each block of samples adds ``G G'`` with
        ``G = D_block sqrt(s(1-s))``, so the result is exactly symmetric
        and no second copy of the features is made.
        """
        features = self.dataset.features
        hess = np.zeros((self.n, self.n))
        for start in range(0, self.dataset.n_samples, CHUNK_SAMPLES):
            block = features[:, start : start + CHUNK_SAMPLES]
            s = expit(block.T @ x)
            scaled = block * np.sqrt(s * (1.0 - s))
            hess += scaled @ scaled.T
        hess /= self.dataset.n_samples
        hess[np.diag_indices(self.n)] += 2.0 * y[-1]
        return hess

    def problem(self) -> Problem:
        return Problem(
            n=self.n,
            m=self.m,
            objective=self.objective,
            gradient=self.gradient,
            constraints=self.constraints,
            jacobian=self.jacobian,
            x0=self.x1,
            lagrangian_hessian=self.lagrangian_hessian,
        )

    # -- oracles ---------------------------------------------------------
    def per_sample_variance(self, x: Array) -> float:
        """Exact population second moment of a single-sample gradient error.

        Three passes: the margins, the mean gradient, then the squared
        deviations of the per-sample gradients (the columns of
        ``D diag(w)``), formed a block of samples at a time.
        """
        features = self.dataset.features
        n_samples = self.dataset.n_samples
        w = -self.dataset.labels * expit(-self._margins(x))
        mean = (features @ w / n_samples)[:, None]
        total = 0.0
        for start in range(0, n_samples, CHUNK_SAMPLES):
            block = slice(start, start + CHUNK_SAMPLES)
            total += float(np.sum((features[:, block] * w[block] - mean) ** 2))
        return total / n_samples

    def minibatch_oracle(self) -> StochasticGradientOracle:
        """Mini-batch oracle sampling with replacement (i.i.d. averaging)."""
        n_samples = self.dataset.n_samples

        def sample(x, batch, rng):
            if batch < 1:
                raise ValueError("batch size must be >= 1")
            idx = rng.integers(0, n_samples, size=batch)
            return logistic_minibatch_gradient(self, x, idx)

        return StochasticGradientOracle(sample)

    def lipschitz_bounds(self):
        """Certified ``(lip_gradf, lip_jac)`` for this instance family.

        The logistic Hessian is ``(1/N) D W D'`` with ``W`` diagonal and
        bounded by 1/4, so ``||D||_2^2 / (4N)`` bounds the gradient
        Lipschitz constant; the Jacobian map is affine in ``x`` with
        constant exactly 2 from the sphere row.

        ``||D||_2^2`` is the largest eigenvalue of the ``n x n`` Gram
        matrix ``D D'``, a well-conditioned eigenvalue of a symmetric
        matrix, which costs one product over the samples instead of an
        SVD of ``D``.  It agrees with ``np.linalg.norm(D, 2)**2`` to
        rounding (about 1e-15 relative on the bundled and a9a-shaped
        data).
        """
        features = self.dataset.features
        spectral_sq = np.linalg.eigvalsh(features @ features.T)[-1]
        return float(spectral_sq / (4.0 * self.dataset.n_samples)), 2.0


def logistic_minibatch_gradient(instance: ConstrainedLogRegInstance, x: Array, indices) -> Array:
    """Average of per-sample logistic gradients over 0-based ``indices``.

    The per-sample gradient is ``-gamma_i * sigmoid(-gamma_i <d_i, x>) d_i``;
    the sigmoid saturates to 0 without overflow for large margins.
    """
    idx = np.asarray(indices)
    if idx.size == 0:
        raise ValueError("indices must be nonempty")
    if idx.min() < 0 or idx.max() >= instance.dataset.n_samples:
        raise ValueError("sample index out of range")
    d = instance.dataset.features[:, idx]
    g = instance.dataset.labels[idx]
    z = g * (d.T @ np.asarray(x, dtype=float))
    w = -g * expit(-z)
    return d @ w / idx.size


def build_instance(
    dataset: Dataset,
    m_lin: int,
    seed: int,
) -> ConstrainedLogRegInstance:
    """Draw ``(A, b, x1)`` from a seed and verify the rank conditions.

    Both ``A`` and the full Jacobian at the initial point must pass the
    singular-value threshold; a failed draw is retried with fresh
    standard normals, and :class:`ConstructionError` is raised after
    ``MAX_TRIES`` attempts.  Identical seeds produce bitwise-identical
    instances.
    """
    if dataset.n_samples < 1:
        raise ConstructionError("dataset is empty")
    n = dataset.n_features
    if m_lin + 1 > n:
        raise ConstructionError(f"m_lin + 1 = {m_lin + 1} exceeds the feature dimension {n}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_TRIES):
        A = rng.standard_normal((m_lin, n))
        b = rng.standard_normal(m_lin)
        x1 = rng.standard_normal(n)
        jac_at_start = np.vstack([A, 2.0 * x1])
        if _full_row_rank(A) and _full_row_rank(jac_at_start):
            return ConstrainedLogRegInstance(dataset=dataset, A=A, b=b, x1=x1)
    raise ConstructionError(f"rank checks failed in {MAX_TRIES} attempts")


def load_bundled_instance(m_lin: int = 10, seed: int = 0) -> ConstrainedLogRegInstance:
    """Standard instance over the bundled dataset (fixed constraint seed)."""
    return build_instance(load_bundled_dataset(), m_lin=m_lin, seed=seed)
