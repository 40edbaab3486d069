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
from functools import cached_property, partial
from importlib import resources
from typing import TextIO

import numpy as np
from scipy.special import expit

from .errors import ConstructionError, ParseError, RankError
from .kkt import factor_jacobian
from .problem import Array, Problem, StochasticGradientOracle

#: Draws of ``(A, b, x1)`` :func:`build_instance` makes before giving up.
MAX_TRIES = 10
#: Constraint seed and affine row count of the standard instance.  Replicate
#: seeds only drive gradient noise, so every replicate sees the same geometry.
INSTANCE_SEED = 0
M_LIN = 10

_BUNDLED_NAME = "synthetic200.libsvm"

#: Samples per block in the full passes over the features.  1024 rows
#: are about 1 MB at n = 123, so each block's margins and its weighted
#: sum are computed while the block is still in a 4 MB L2 cache.  Also
#: the lines per block in :func:`parse_libsvm`.
CHUNK_SAMPLES = 1024

_COLON, _SPACE, _ZERO = ord(":"), ord(" "), ord("0")
#: Digits :func:`_read_digits` reads: 10**15 < 2**53, so every such
#: token is exact as an int64 and as a float.
_MAX_DIGITS = 15
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (one row per sample) and +/-1 labels.

    The features are stored once, as a C-contiguous float array, so a
    sample is one contiguous row; another layout is copied into it.
    """

    features: Array  # (n_samples, n_features)
    labels: Array  # (n_samples,), entries in {-1, +1}

    def __post_init__(self):
        object.__setattr__(self, "features", np.ascontiguousarray(self.features, dtype=float))
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must have one entry per sample")
        if self.labels.size and not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]


def parse_libsvm(source: str | TextIO) -> Dataset:
    """Parse LIBSVM text ("label idx:val idx:val ...", 1-based indices).

    One line is one sample; blank lines are skipped.  Labels in
    ``{0, 1}`` and ``{-1, +1}`` are both accepted: a positive label maps
    to +1 and any other to -1.  Indices must be strictly increasing
    within each line.  The feature dimension is the largest index seen.
    An empty stream yields an empty dataset, which instance construction
    later rejects.

    The text is read ``CHUNK_SAMPLES`` lines at a time.  Each block's
    ``idx:val`` tokens are located in one pass over its bytes and
    checked as whole arrays; one scatter puts them into the feature
    matrix.  If every index of the block, or every value, is a run of
    1 to 15 ASCII digits (all of a binary set like a9a), that kind is
    read by place value straight from the bytes: below 10**15 < 2**53
    the result is exactly ``int(token)`` and ``float(token)``.  A kind
    with any other token is converted by numpy with the accept set of
    ``int()`` and ``float()``; only such a block's tokens are held as
    strings, and then only while it is parsed.  Either way the parse
    needs about the final matrix plus 16 bytes per nonzero entry.

    A block that fails a check is scanned again line by line, only to
    raise the :class:`ParseError` of its first bad line (``line N:
    ...``).  An index past the int64 range is a parse error of its line,
    as is the largest index if its matrix cannot be allocated.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    labels: list[Array] = []
    entries: list[tuple[Array, Array, Array]] = []  # per block: idx, val, entries per line
    max_index = max_line = 0
    first = 1
    while lines := list(itertools.islice(stream, CHUNK_SAMPLES)):
        try:
            block_labels, idx, val, counts = _parse_block(lines)
        except (ValueError, OverflowError):
            _raise_first_bad_line(lines, first)
            raise
        labels.append(block_labels)
        entries.append((idx, val, counts))
        if idx.size and (block_max := int(idx.max())) > max_index:
            # The line of its first entry; counts has no entry for a blank line.
            sample = np.searchsorted(np.cumsum(counts), idx.argmax(), side="right")
            max_line = [n for n, line in enumerate(lines, first) if line.split(None, 1)][sample]
            max_index = block_max
        first += len(lines)

    try:
        features = np.zeros((sum(block.size for block in labels), max_index))
    except (ValueError, MemoryError):  # "array is too big", or out of memory
        raise ParseError(f"line {max_line}: feature index {max_index} is too large") from None
    row = 0
    for idx, val, counts in entries:
        features[np.repeat(np.arange(row, row + counts.size), counts), idx - 1] = val
        row += counts.size
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
    idx, val = np.zeros(0, dtype=np.int64), np.zeros(0)
    if joined:
        # One space between tokens and none inside one, so every token
        # holds exactly one colon iff the colons and spaces read ": : ... :".
        codes = np.frombuffer(joined.encode(), dtype=np.uint8)
        positions = np.flatnonzero((codes == _COLON) | (codes == _SPACE))
        separators = codes[positions]
        if (
            separators.size % 2 == 0
            or np.any(separators[::2] != _COLON)
            or np.any(separators[1::2] != _SPACE)
        ):
            raise ValueError("an entry does not hold exactly one ':'")
        # Token j runs from bounds[j] + 1 to bounds[j + 1]: indices at
        # even j, values at odd j.
        bounds = np.concatenate(([-1], positions, [codes.size]))
        digits = codes - _ZERO
        idx = _read_digits(digits, bounds[:-1:2] + 1, bounds[1::2])
        val = _read_digits(digits, bounds[1::2] + 1, bounds[2::2])
        if idx is None or val is None:
            pieces = joined.replace(":", " ").split(" ")
            idx = np.array(pieces[0::2], dtype=np.int64) if idx is None else idx
            val = np.array(pieces[1::2], dtype=float) if val is None else val
        val = val.astype(float, copy=False)
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


def _read_digits(digits: Array, starts: Array, ends: Array) -> Array | None:
    """int64 values of the tokens ``digits[starts[j]:ends[j]]``, or
    ``None`` unless each is 1 to ``_MAX_DIGITS`` ASCII digits.

    ``digits`` holds the bytes minus ``ord("0")`` as uint8, so a byte is
    a digit iff its entry is below 10.  The tokens are read right-aligned
    by place value, one Horner step per digit column, so each value is
    exactly ``int(token)``, and as a float ``float(token)``.  Any other
    token (a sign, ``.``, an exponent, ``_``, a non-ASCII digit) is left
    to ``int()`` and ``float()``.
    """
    lengths = ends - starts
    width = int(lengths.max())
    if lengths.min() < 1 or width > _MAX_DIGITS:
        return None
    values = np.zeros(starts.size, dtype=np.int64)
    for shift in range(width, 0, -1):
        column = digits.take(ends - shift, mode="clip")
        column[lengths < shift] = 0  # the shorter tokens have no digit here
        if np.any(column > 9):
            return None
        values *= 10
        values += column
    return values


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
        row = dataset.features[j]
        entries = " ".join(f"{i + 1}:{row[i]:.17g}" for i in np.nonzero(row)[0])
        lines.append(f"{label} {entries}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


def load_libsvm_file(path) -> Dataset:
    """Parse a LIBSVM file; a :class:`ParseError` names the file and line.

    The file must be ASCII.  Other bytes are decoded as lone surrogates
    (``errors="surrogateescape"``), which no label or entry accepts, so
    they fail the per-line checks like any other malformed text.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
        try:
            return parse_libsvm(handle)
        except ParseError as exc:
            raise ParseError(f"{path}: {exc}") from None


def load_bundled_dataset() -> Dataset:
    """Load the small synthetic dataset shipped with the package."""
    text = resources.files("stochsqp.data").joinpath(_BUNDLED_NAME).read_text()
    return parse_libsvm(text)


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

    def __post_init__(self):
        _check_samples(self.dataset)

    @property
    def n(self) -> int:
        return self.dataset.n_features

    @property
    def m_lin(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.m_lin + 1

    @cached_property
    def _neg_labels(self) -> Array:
        """``-labels``, negated once per instance for the loss weights."""
        return -self.dataset.labels

    @cached_property
    def _blocks(self) -> list[tuple[Array, Array]]:
        """``(features, -labels)`` of ``CHUNK_SAMPLES`` samples each, as
        views built on first use, so that a full pass slices nothing."""
        features, neg_labels = self.dataset.features, self._neg_labels
        return [
            (features[start : start + CHUNK_SAMPLES], neg_labels[start : start + CHUNK_SAMPLES])
            for start in range(0, self.dataset.n_samples, CHUNK_SAMPLES)
        ]

    # -- evaluators ----------------------------------------------------
    def objective(self, x: Array) -> float:
        # log(1 + exp(-z)) = logaddexp(0, -z) of the margins z, stable for large |z|.
        margins = self.dataset.labels * (self.dataset.features @ x)
        return float(np.mean(np.logaddexp(0.0, -margins)))

    def gradient(self, x: Array) -> Array:
        """``(1/N) D' w`` with ``D`` the feature rows and ``w`` the
        per-sample loss weights, summed a block of samples at a time."""
        blocks = iter(self._blocks)
        block, neg_labels = next(blocks)
        grad = _loss_weights(block, neg_labels, x).dot(block)
        for block, neg_labels in blocks:
            grad += _loss_weights(block, neg_labels, x).dot(block)
        grad /= self.dataset.n_samples
        return grad

    def constraints(self, x: Array) -> Array:
        c = np.empty(self.A.shape[0] + 1)
        lin = self.A.dot(x, out=c[:-1])
        lin -= self.b
        c[-1] = x.dot(x) - 1.0
        return c

    def jacobian(self, x: Array) -> Array:
        m_lin, n = self.A.shape
        jac = np.empty((m_lin + 1, n))
        jac[:m_lin] = self.A
        np.multiply(2.0, x, out=jac[m_lin])
        return jac

    def lagrangian_hessian(self, x: Array, y: Array) -> Array:
        """Hessian of ``f + c'y``: ``(1/N) D' diag(s(1-s)) D + 2 y_sphere I``.

        ``s`` is the sigmoid of the margins; ``s(1-s)`` does not depend
        on the label sign.  Each block of samples adds ``G' G`` with
        ``G = diag(sqrt(s(1-s))) D_block``, so the result is exactly
        symmetric and no second copy of the features is made.
        """
        hess = np.zeros((self.n, self.n))
        for block, _ in self._blocks:
            s = expit(block @ x)
            scaled = block * np.sqrt(s * (1.0 - s))[:, None]
            hess += scaled.T @ scaled
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

        Two passes a block of samples at a time: the loss weights and
        the mean gradient, then the squared deviations of the per-sample
        gradients (the rows of ``diag(w) D``).
        """
        n_samples = self.dataset.n_samples
        weights = [_loss_weights(block, neg_labels, x) for block, neg_labels in self._blocks]
        mean = sum(w @ block for w, (block, _) in zip(weights, self._blocks)) / n_samples
        total = 0.0
        for w, (block, _) in zip(weights, self._blocks):
            total += float(np.sum((block * w[:, None] - mean) ** 2))
        return total / n_samples

    def minibatch_oracle(self) -> StochasticGradientOracle:
        """Mini-batch oracle sampling with replacement (i.i.d. averaging).

        A row is ``batch`` sample indices; ``count`` rows are one
        ``rng.integers`` call.  The indices it draws are in range, so its
        kernel takes them unchecked.
        """
        n_samples = self.dataset.n_samples

        def draw(rng, batch, count):
            return rng.integers(0, n_samples, size=(count, batch))

        return StochasticGradientOracle(
            draw, partial(_minibatch_gradient, self.dataset.features, self._neg_labels)
        )

    def lipschitz_bounds(self):
        """Certified ``(lip_gradf, lip_jac)`` for this instance.

        The logistic Hessian is ``(1/N) D' W D`` with ``W`` diagonal and
        bounded by 1/4, so ``||D||_2^2 / (4N)`` bounds the gradient
        Lipschitz constant; the Jacobian map is affine in ``x`` with
        constant exactly 2 from the sphere row.

        ``||D||_2^2`` is the largest eigenvalue of the ``n x n`` Gram
        matrix ``D' D``, a well-conditioned eigenvalue of a symmetric
        matrix, which costs one product over the samples instead of an
        SVD of ``D``.  It agrees with ``np.linalg.norm(D, 2)**2`` to
        rounding (about 1e-15 relative on the bundled and a9a-shaped
        data).
        """
        features = self.dataset.features
        spectral_sq = np.linalg.eigvalsh(features.T @ features)[-1]
        return float(spectral_sq / (4.0 * self.dataset.n_samples)), 2.0


def logistic_minibatch_gradient(instance: ConstrainedLogRegInstance, x: Array, indices) -> Array:
    """Average of per-sample logistic gradients over 0-based ``indices``.

    The per-sample gradient is ``-gamma_i * sigmoid(-gamma_i <d_i, x>) d_i``;
    the sigmoid saturates to 0 without overflow for large margins.
    ``indices`` must be a nonempty 1-d integer array in ``[0, N)``; anything
    else (a boolean mask, floats, a nested list) raises ``ValueError``.
    """
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size == 0 or not np.issubdtype(idx.dtype, np.integer):
        raise ValueError("indices must be a nonempty 1-d integer array")
    if idx.min() < 0 or idx.max() >= instance.dataset.n_samples:
        raise ValueError("sample index out of range")
    features, neg_labels = instance.dataset.features, instance._neg_labels
    return _minibatch_gradient(features, neg_labels, np.asarray(x, dtype=float), idx)


def _minibatch_gradient(features: Array, neg_labels: Array, x: Array, idx: Array) -> Array:
    """:func:`logistic_minibatch_gradient` on ``idx`` trusted to be a
    nonempty 1-d integer array in range, with the labels negated."""
    rows = features.take(idx, axis=0)  # the copy features[idx] makes, in fewer steps
    grad = _loss_weights(rows, neg_labels[idx], x).dot(rows)
    grad /= idx.size
    return grad


def _loss_weights(rows: Array, neg_labels: Array, x: Array) -> Array:
    """Per-sample weights ``-gamma_i * sigmoid(-gamma_i <d_i, x>)`` of the
    logistic gradient, from the feature ``rows`` and their labels
    ``gamma_i`` negated."""
    weights = rows.dot(x)  # a fresh array, so each step below works in place
    weights *= neg_labels
    expit(weights, out=weights)
    weights *= neg_labels
    return weights


def _check_samples(dataset: Dataset) -> None:
    """Raise :class:`ConstructionError` for a dataset with no samples,
    whose loss and gradient are undefined."""
    if dataset.n_samples < 1:
        raise ConstructionError("dataset is empty")


def build_instance(
    dataset: Dataset,
    m_lin: int,
    seed: int,
) -> ConstrainedLogRegInstance:
    """Draw ``(A, b, x1)`` from a seed and verify the rank condition.

    The start Jacobian ``J = [A; 2 x1']`` must pass the solver's rank
    gate, :func:`stochsqp.kkt.factor_jacobian`.  That covers ``A`` too: by
    interlacing, ``sigma_min(A) >= sigma_min(J)`` and ``sigma_max(A) <=
    sigma_max(J)``.  A failed draw is retried with fresh standard
    normals, and :class:`ConstructionError` is raised after ``MAX_TRIES``
    attempts.  Identical seeds produce bitwise-identical instances.
    """
    _check_samples(dataset)
    n = dataset.n_features
    if m_lin + 1 > n:
        raise ConstructionError(f"m_lin + 1 = {m_lin + 1} exceeds the feature dimension {n}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_TRIES):
        A = rng.standard_normal((m_lin, n))
        b = rng.standard_normal(m_lin)
        x1 = rng.standard_normal(n)
        try:
            factor_jacobian(np.vstack([A, 2.0 * x1]))
        except RankError:
            continue
        return ConstrainedLogRegInstance(dataset=dataset, A=A, b=b, x1=x1)
    raise ConstructionError(f"rank check failed in {MAX_TRIES} attempts")


def load_bundled_instance() -> ConstrainedLogRegInstance:
    """Standard instance over the bundled dataset (``M_LIN``, ``INSTANCE_SEED``)."""
    return build_instance(load_bundled_dataset(), m_lin=M_LIN, seed=INSTANCE_SEED)
