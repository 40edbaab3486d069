"""Lagrange multiplier estimators built from a run's history.

The raw per-iteration multiplier inherits the gradient noise and does
not converge; averaging suppresses that noise.  Two estimators are
provided: the running average ``mean(y_1..y_k)``, and a windowed
average over the trailing iterations whose primal points stay within a
ball of the current iterate (so stale multipliers from far-away points
are dropped as the run converges).

:func:`prefix_sums` is the one store behind every average: a single
cumulative-sum pass, from which :func:`running_averages` reads every
``k`` at once and :func:`windowed_averages` reads every window mean;
the library reads only these two.  :func:`windowed_average` is the
defining scan that the fast path is tested against.

:func:`windowed_averages` finds each window start without rescanning
the prefix: the history is cut into blocks of :data:`_BLOCK_SIZE`
iterates, each with a bounding ball, and a block is tested point by
point only when its ball straddles the eps-sphere around ``x_k``.  The
starts equal the scan's exactly; the means differ from the scan's slice
means by prefix-sum rounding only (in the trace's distance columns,
at most 2e-15 relative on a 3200-iteration bundled trace and 1.4e-14 on
a 1e5-iteration one).  Emission of a whole trace is therefore roughly
linear in its length instead of quadratic.

Iteration numbers ``k`` are 1-based throughout, matching the solver's
records; sample positions inside arrays remain 0-based.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .problem import Array


def prefix_sums(ys: Array) -> Array:
    """Zero-padded prefix sums: row ``k`` is ``y_1 + ... + y_k``, row 0 is 0."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    sums = np.zeros((ys.shape[0] + 1, ys.shape[1]))
    np.cumsum(ys, axis=0, out=sums[1:])
    return sums


def running_averages(ys: Array) -> Array:
    """Every running average at once: row ``k - 1`` is ``mean(y_1..y_k)``."""
    sums = prefix_sums(ys)
    return sums[1:] / np.arange(1, sums.shape[0])[:, None]


def windowed_average(xs: Array, ys: Array, k: int, eps: float):
    """Mean of the multipliers over the trailing in-ball window.

    The window start ``kprime`` is the smallest index such that every
    iterate ``x_j`` with ``kprime <= j <= k`` satisfies
    ``||x_j - x_k|| <= eps``; if even the previous iterate is too far,
    the window is just ``{k}``.  Returns ``(mean, kprime)``.

    Only the tests, :class:`MultiplierTrace` and the benchmark's traced
    mode call this defining scan.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape[0] != ys.shape[0]:
        raise ValueError("iterate and multiplier histories must align")
    if not 1 <= k <= xs.shape[0]:
        raise ValueError("k out of range")
    dist = np.linalg.norm(xs[:k] - xs[k - 1], axis=1)
    outside = np.nonzero(dist > eps)[0]
    kprime = int(outside[-1]) + 2 if outside.size else 1
    return ys[kprime - 1 : k].mean(axis=0), kprime


#: Iterates per bounding ball in :func:`windowed_averages`.
_BLOCK_SIZE = 64

#: Relative slack on every ball test.  A computed norm of ``n``
#: coordinates is off by at most about ``(n + 4) * 2**-53`` relative,
#: so this slack keeps rounding from ever certifying a wrong side for
#: any ``n`` below 1e6; a ball it leaves undecided is merely tested
#: point by point.
_BALL_MARGIN = 1e-9


def windowed_averages(xs: Array, ys: Array, eps: float, ks) -> tuple[Array, Array]:
    """:func:`windowed_average` for every 1-based iteration in ``ks`` at once.

    Returns ``(means, kprimes)``: row ``i`` belongs to ``ks[i]``.  Each
    ``kprimes[i]`` equals the scan's window start exactly, because every
    point whose side of the eps-sphere a bounding ball cannot certify
    gets the scan's own ``norm(x_j - x_k) > eps`` test.  The means are
    read from :func:`prefix_sums`, so they match the scan's slice means
    to rounding, not bit for bit.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape[0] != ys.shape[0]:
        raise ValueError("iterate and multiplier histories must align")
    ks = np.asarray(ks, dtype=int).reshape(-1)
    if ks.size and not (1 <= ks.min() and ks.max() <= xs.shape[0]):
        raise ValueError("k out of range")

    nblocks = xs.shape[0] // _BLOCK_SIZE
    blocks = xs[: nblocks * _BLOCK_SIZE].reshape(nblocks, _BLOCK_SIZE, xs.shape[1])
    centres = blocks.mean(axis=1)
    radii = _norms(blocks - centres[:, None]).max(axis=1)

    kprimes = np.empty(ks.size, dtype=int)
    order = np.argsort(ks, kind="stable")
    rows = ks[order] - 1
    owners, firsts = np.unique(rows // _BLOCK_SIZE, return_index=True)
    for block, lo, hi in zip(owners, firsts, list(firsts[1:]) + [rows.size]):
        kprimes[order[lo:hi]] = _window_starts(xs, centres, radii, eps, block, rows[lo:hi])

    sums = prefix_sums(ys)
    means = (sums[ks] - sums[kprimes - 1]) / (ks - kprimes + 1)[:, None]
    return means, kprimes


def _norms(diffs: Array) -> Array:
    """``np.linalg.norm(diffs, axis=-1)`` bit for bit, minus its copies."""
    return np.sqrt(np.add.reduce(diffs * diffs, axis=-1))


def _sides(dist, radius, eps):
    """``(inside, outside)``: balls at ``dist`` with ``radius`` certainly in or out of eps.

    A ball within :data:`_BALL_MARGIN` of the boundary is in neither.
    """
    reach = dist + radius
    inside = reach * (1 + _BALL_MARGIN) <= eps * (1 - _BALL_MARGIN)
    outside = dist - radius - _BALL_MARGIN * reach > eps * (1 + _BALL_MARGIN)
    return inside, outside


def _window_starts(xs, centres, radii, eps, block, rows):
    """Window starts for sorted 0-based ``rows`` that all lie in ``block``.

    The block's own points up to each row come first, then a walk back
    over the earlier full blocks: a block whose ball is certainly
    inside the eps-ball of every row is skipped, and the first one that
    is not decides, or is passed on to :func:`_settle`.
    """
    start = block * _BLOCK_SIZE
    own = xs[start : rows[-1] + 1]
    here = xs[rows]
    centre = own.mean(axis=0)
    spread = _norms(own - centre).max()
    kprimes = np.ones(rows.size, dtype=int)
    pending = np.ones(rows.size, dtype=bool)
    _settle(own, start, centre, spread, here, eps, kprimes, pending, upto=rows - start)
    if block == 0 or not pending.any():
        return kprimes

    inside, outside = _sides(_norms(centres[:block] - centre), spread + radii[:block], eps)
    for h in np.flatnonzero(~inside)[::-1]:
        first = h * _BLOCK_SIZE
        if outside[h]:
            kprimes[pending] = first + _BLOCK_SIZE + 1
            break
        points = xs[first : first + _BLOCK_SIZE]
        _settle(points, first, centres[h], radii[h], here, eps, kprimes, pending)
        if not pending.any():
            break
    return kprimes


def _settle(points, first, centre, radius, here, eps, kprimes, pending, upto=None):
    """Settle the pending rows that have a point of ``points`` outside eps.

    ``points`` are iterates ``first .. first + len - 1`` (0-based) inside
    the ball ``(centre, radius)``; ``upto`` limits each row to its
    first ``upto + 1`` of them.  A row whose distance to the centre
    puts the whole ball outside starts right after the last point; one
    that the ball cannot decide gets the exact ``norm > eps`` test.
    """
    open_rows = np.flatnonzero(pending)
    # A row's own block always contains its own point, so ``far`` only
    # ever holds for earlier blocks, where every point is the row's past.
    inside, far = _sides(_norms(here[open_rows] - centre), radius, eps)
    unsure = ~inside & ~far
    kprimes[open_rows[far]] = first + points.shape[0] + 1
    pending[open_rows[far]] = False
    if not unsure.any():
        return
    tested = open_rows[unsure]
    beyond = _norms(points - here[tested][:, None]) > eps
    if upto is not None:
        beyond &= np.arange(points.shape[0]) <= upto[tested][:, None]
    hit = beyond.any(axis=1)
    last = beyond.shape[1] - 1 - np.argmax(beyond[hit][:, ::-1], axis=1)
    kprimes[tested[hit]] = first + last + 2
    pending[tested[hit]] = False


class MultiplierTrace:
    """Read-only view of a run's iterate and multiplier arrays.

    Holds the arrays it is given, without copying them.  Running
    averages are read from one :func:`running_averages` pass, made on
    the first query; windowed averages are recomputed by the defining
    scan.  Queries may be issued concurrently.

    Only the tests and the benchmark's traced mode, which wraps its
    methods, use it; it can go once those wrapped sites are retargeted.
    """

    def __init__(self, xs: Array, ys: Array):
        self.xs = np.atleast_2d(np.asarray(xs, dtype=float))
        self.ys = np.atleast_2d(np.asarray(ys, dtype=float))
        if self.xs.shape[0] != self.ys.shape[0]:
            raise ValueError("iterate and multiplier histories must align")

    @classmethod
    def from_run(cls, trace) -> "MultiplierTrace":
        """View of a solver trace's iterates and multipliers."""
        return cls(trace.x, trace.y)

    def __len__(self) -> int:
        return self.ys.shape[0]

    @cached_property
    def averages(self) -> Array:
        """All running averages; row ``k - 1`` is ``mean(y_1..y_k)``."""
        return running_averages(self.ys)

    def running_average(self, k: int | None = None) -> Array:
        """Running average ``mean(y_1..y_k)``, by default over the whole run."""
        k = len(self) if k is None else k
        if not 1 <= k <= len(self):
            raise ValueError("need 1 <= k <= len(trace)")
        return self.averages[k - 1]

    def windowed_average(self, eps: float, k: int | None = None):
        k = len(self) if k is None else k
        return windowed_average(self.xs, self.ys, k, eps)
