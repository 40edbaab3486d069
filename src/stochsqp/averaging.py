"""Lagrange multiplier estimators built from a run's history.

The raw per-iteration multiplier inherits the gradient noise and does
not converge; averaging suppresses that noise.  Two estimators are
provided: the running average ``mean(y_1..y_k)``, and a windowed
average over the trailing iterations whose primal points stay within a
ball of the current iterate (so stale multipliers from far-away points
are dropped as the run converges).

The one read path: :func:`prefix_sums` makes the store, a single
cumulative-sum pass, and :func:`window_means` reads from it the mean of
any window ``k' .. k``; the window starts come from
:func:`window_starts`, and the running average is the window that
starts at 1.  ``stochsqp.harness.distance_columns`` composes the three
for the trace CSV and for every other reader of a trace, making the
prefix sums once per trace.  :func:`windowed_average` is the defining
scan that the fast path is tested against.

:func:`window_starts` finds each window start without rescanning the
prefix.  The history is cut into blocks of :data:`_BLOCK_SIZE` iterates,
each with a bounding ball; the requested rows that share a block form a
row block.  All row blocks go through three stages together:

1. the own stage tests each row against its own block's points up to
   itself, unless its distance to the block's centre puts the whole
   ball inside eps;
2. the plan classes, for every row block still open, each earlier
   block whose ball is certainly inside or certainly outside eps of the
   row block's ball.  The nearest outside block, the stopping block, is
   the walk's last visit;
3. the walk goes in rounds.  Round ``r`` takes each open row block's
   ``r``-th block, nearest first, that is not certainly inside.  A row
   that the block's ball puts certainly outside starts right after the
   block, one that it cannot decide is tested against each of the
   block's points, and one that no visit settles starts at 1.

Each stage runs its ball tests over all its row blocks at once, and its
point tests in stacked passes of at most :data:`_PAIR_CAP` pairs (the
stacks of :func:`_stacks`), so the number of numpy calls grows with the
depth of the walk and the number of pairs, not with the number of row
blocks, and no temporary outgrows a pass.

The point tests read distances from Gram products: with
``h = x_k - c`` and ``p = x_j - c`` centred on the ball's centre ``c``,
the squared distance is ``d2 = |h|^2 + |p|^2 - 2 h.p``.  Its rounding,
with the centring's, is below about ``(2n + 6) * 2**-53 * (|h|^2 +
|p|^2)`` for ``n`` coordinates, and the scan's computed
``norm(x_j - x_k)`` is off by at most about ``(n + 4) * 2**-53``
relative.  A pair is therefore decided by ``d2`` only when
``|d2 - eps^2|`` exceeds :data:`_BALL_MARGIN` (1e-9) times
``|h|^2 + |p|^2 + eps^2``: both errors are far below that slack for any
``n`` under 1e6, so such a pair lies on the same side of eps as the
scan's computed norm.  Every other pair, a non-finite ``d2`` included,
gets the scan's own ``norm(x_j - x_k) > eps``.  The plan reads the
distances between centres from Gram products under the same slack, and
every ball test keeps :data:`_BALL_MARGIN` from the sphere.  The starts
thus equal the scan's exactly; the means differ from the scan's slice
means by prefix-sum rounding only (in the trace's distance columns, at
most 2e-15 relative on a 3200-iteration bundled trace and 1.4e-14 on a
1e5-iteration one).  Emission of a whole trace is therefore roughly
linear in its length instead of quadratic.

Iteration numbers ``k`` are 1-based throughout, matching the solver's
records; sample positions inside arrays remain 0-based.
"""

from __future__ import annotations

import numpy as np

from .problem import Array


def prefix_sums(ys: Array) -> Array:
    """Zero-padded prefix sums: row ``k`` is ``y_1 + ... + y_k``, row 0 is 0."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    sums = np.zeros((ys.shape[0] + 1, ys.shape[1]))
    np.cumsum(ys, axis=0, out=sums[1:])
    return sums


def window_means(sums: Array, ks: Array, kprimes: Array) -> Array:
    """Row ``i`` is ``mean(y_kprimes[i] .. y_ks[i])``, read from ``sums = prefix_sums(ys)``."""
    return (sums[ks] - sums[kprimes - 1]) / (ks - kprimes + 1)[:, None]


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


#: Iterates per bounding ball in :func:`window_starts`.
_BLOCK_SIZE = 64

#: Relative slack on every ball test and every Gram-product distance
#: test.  Rounding moves a computed norm of ``n`` coordinates by at most
#: about ``(n + 4) * 2**-53`` relative, and a Gram-product squared
#: distance by about ``(2n + 6) * 2**-53`` of the squared norms it is
#: formed from, so this slack keeps rounding from ever certifying a
#: wrong side for any ``n`` below 1e6; a ball or pair it leaves
#: undecided is merely tested point by point.
_BALL_MARGIN = 1e-9

#: Smallest normal float.  Added to eps^2 in the Gram slack, it keeps
#: the slack above the absolute rounding of subnormal squares.
_TINY = np.finfo(float).tiny

#: Most pairs that one stacked pass of :func:`window_starts` tests at
#: once, row against point or row block against block; a pass takes at
#: least one row block.  It bounds each pass's temporaries (128 KiB per
#: float array) whatever the history's length, which also keeps them
#: in cache.
_PAIR_CAP = 1 << 14


def window_starts(xs: Array, eps: float, ks) -> Array:
    """The scan's window start, exactly, for every 1-based ``k`` in ``ks``."""
    if not eps > 0:
        raise ValueError("eps must be > 0")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ks = np.asarray(ks, dtype=int).reshape(-1)
    if ks.size and not (1 <= ks.min() and ks.max() <= xs.shape[0]):
        raise ValueError("k out of range")

    # One ball per block, the last (partial) block included: the own
    # stage tests rows there against it, the walk only full blocks.
    whole = xs.shape[0] // _BLOCK_SIZE
    blocks = xs[: whole * _BLOCK_SIZE].reshape(whole, _BLOCK_SIZE, xs.shape[1])
    centres = blocks.mean(axis=1)
    radii = _lengths(blocks - centres[:, None]).max(axis=1)
    if xs.shape[0] > whole * _BLOCK_SIZE:
        tail = xs[whole * _BLOCK_SIZE :]
        centres = np.vstack([centres, tail.mean(axis=0)])
        radii = np.append(radii, _lengths(tail - centres[-1]).max())

    order = np.argsort(ks, kind="stable")
    rows = ks[order] - 1
    owners = rows // _BLOCK_SIZE
    kprimes = _settle(xs, centres, radii, eps, rows, owners, own=True)
    live = np.flatnonzero(kprimes == 0)
    walkers = np.unique(owners[live])
    for visitors, visited in _plan(centres, radii, eps, walkers[walkers > 0]):
        # A row block that visits no block this round visits none later.
        block = np.full(centres.shape[0], -1)
        block[visitors] = visited
        live = live[block[owners[live]] >= 0]
        kprimes[live] = _settle(xs, centres, radii, eps, rows[live], block[owners[live]])
        live = live[kprimes[live] == 0]
    kprimes[kprimes == 0] = 1  # nothing before the row is beyond eps
    starts = np.empty(ks.size, dtype=int)
    starts[order] = kprimes
    return starts


def _lengths(diffs: Array) -> Array:
    """Euclidean lengths along the last axis, for the ball tests, whose
    margin covers their rounding; the pair tests keep the scan's own norm."""
    return np.sqrt(np.einsum("...n,...n->...", diffs, diffs))


def _sides(dist, radius, eps):
    """``(inside, outside)``: balls at ``dist`` with ``radius`` certainly in or out of eps.

    A ball within :data:`_BALL_MARGIN` of the boundary is in neither.
    """
    reach = dist + radius
    inside = reach * (1 + _BALL_MARGIN) <= eps * (1 - _BALL_MARGIN)
    outside = dist - radius - _BALL_MARGIN * reach > eps * (1 + _BALL_MARGIN)
    return inside, outside


def _plan(centres, radii, eps, owners):
    """The walk of every row block in ``owners`` (sorted block numbers).

    Returns the rounds.  Round ``r``, a pair ``(visitors, visited)`` of
    arrays, pairs each row block with its ``r``-th block, nearest first,
    that is not certainly inside eps of the row block's ball; the others
    are skipped.  A row block's last visit is its stopping block, the
    nearest earlier block whose ball is certainly outside, which settles
    every row that reaches it; with none, the walk goes down to block 0.

    The ball classes are :func:`_sides` on distance bounds read from
    one Gram product of the centres per pass, as in :func:`_gram_beyond`:
    ``d2 = |a|^2 + |b|^2 - 2 a.b`` with both centres taken about the
    pass's last row block, whose rounding is far below the slack
    ``_BALL_MARGIN * (|a|^2 + |b|^2 + tiny)``, so the centres' distance
    lies between ``sqrt(d2 - slack)`` and ``sqrt(d2 + slack)``.  A NaN
    bound leaves a block in neither class, so it is walked.
    """
    visitors, visited, ranks = [], [], []
    per = max(1, _PAIR_CAP // max(int(owners.max(initial=1)), 1))
    for lo in range(0, owners.size, per):
        chunk = owners[lo : lo + per]
        earlier = np.arange(chunk[-1])
        with np.errstate(over="ignore", invalid="ignore"):
            a = centres[chunk] - centres[chunk[-1]]
            b = centres[: chunk[-1]] - centres[chunk[-1]]
            d2 = -2.0 * (a @ b.T)
            scale = np.einsum("ij,ij->i", a, a)[:, None] + np.einsum("ij,ij->i", b, b)
            d2 += scale
            slack = _BALL_MARGIN * (scale + _TINY)
            reach = radii[chunk][:, None] + radii[: chunk[-1]]
            inside = _sides(np.sqrt(d2 + slack), reach, eps)[0]
            near = np.sqrt(np.maximum(d2 - slack, 0.0))
            outside = _sides(near, reach, eps)[1] & (earlier < chunk[:, None])
        hit = outside.any(axis=1)
        last = np.where(hit, chunk[-1] - 1 - np.argmax(outside[:, ::-1], axis=1), -1)
        row, col = np.nonzero(~inside & (earlier >= last[:, None]) & (earlier < chunk[:, None]))
        # ``nonzero`` lists each row block's blocks in ascending order.
        counts = np.bincount(row, minlength=chunk.size)
        visitors.append(chunk[row])
        visited.append(col)
        ranks.append((np.cumsum(counts) - 1)[row] - np.arange(row.size))
    if not ranks:
        return []
    ranks = np.concatenate(ranks)
    order = np.argsort(ranks, kind="stable")
    cuts = np.searchsorted(ranks[order], np.arange(1, ranks.max(initial=-1) + 1))
    return zip(
        np.split(np.concatenate(visitors)[order], cuts),
        np.split(np.concatenate(visited)[order], cuts),
    )


def _settle(xs, centres, radii, eps, rows, blocks, own=False):
    """Window starts that block ``blocks[i]`` settles for row ``rows[i]``, 0 where it settles none.

    ``rows`` are sorted 0-based rows, and the rows of one row block
    share one block.  A row whose distance to the block's centre puts
    the whole ball outside starts right after the block; one that the
    ball cannot decide tests each point by :func:`_gram_beyond`, in the
    stacked passes of :func:`_stacks`.  ``own`` marks each row's own
    block, whose points count only up to the row itself; the row's own
    point keeps that ball from being certainly outside.
    """
    offset = centres[blocks]
    offset -= xs[rows]
    inside, far = _sides(_lengths(offset), radii[blocks], eps)
    if own:
        far[:] = False
    starts = np.where(far, blocks * _BLOCK_SIZE + _BLOCK_SIZE + 1, 0)
    # Each block's points newest first, so that the first point beyond
    # eps along a stacked row is the last one in the block.
    back = _BLOCK_SIZE - 1 - np.arange(_BLOCK_SIZE)
    for at, group, slot in _stacks(np.flatnonzero(~inside & ~far), rows // _BLOCK_SIZE):
        head = np.empty(group[-1] + 1, dtype=int)
        head[group] = blocks[at]
        centre = centres[head]
        stacked = np.repeat(centre[:, None], slot.max() + 1, axis=1)  # pads sit on the centre
        stacked[group, slot] = xs[rows[at]]
        points = xs[np.minimum(head[:, None] * _BLOCK_SIZE + back, xs.shape[0] - 1)]
        beyond = _gram_beyond(points, centre, stacked, eps)
        first = blocks[at] * _BLOCK_SIZE
        if own:
            newest = np.zeros(stacked.shape[:2], dtype=int)
            newest[group, slot] = back[rows[at] - first]
            beyond &= newest[:, :, None] <= np.arange(_BLOCK_SIZE)
        step = np.argmax(beyond, axis=2)[group, slot]
        hit = beyond[group, slot, step]
        starts[at[hit]] = first[hit] + back[step[hit]] + 2
    return starts


def _stacks(tested, labels):
    """Cut the positions ``tested`` into the stacks of one Gram pass each.

    The positions of one value of ``labels`` (sorted) form a group.
    Yields ``(at, group, slot)``: the positions of one stack and each
    one's group and slot in it.  Every group is padded to the largest,
    and a stack holds at most :data:`_PAIR_CAP` pairs with the blocks'
    points, at least one group.
    """
    if not tested.size:
        return
    label = labels[tested]
    run = np.cumsum(np.r_[True, label[1:] != label[:-1]]) - 1
    counts = np.bincount(run)
    firsts = np.cumsum(counts) - counts
    slot = np.arange(tested.size) - firsts[run]
    per = max(1, _PAIR_CAP // (_BLOCK_SIZE * int(counts.max())))
    ends = np.r_[firsts, tested.size]
    for first in range(0, counts.size, per):
        span = slice(ends[first], ends[min(first + per, counts.size)])
        yield tested[span], run[span] - first, slot[span]


def _gram_beyond(points, centres, here, eps):
    """``beyond[g, i, j]``: the scan's ``norm(points[g, j] - here[g, i]) > eps``.

    Stack ``g`` holds one block's ``points`` and the rows ``here`` that
    test them.  Both sides are centred on the block's ball, ``h = here -
    centres[g]`` and ``p = points - centres[g]``, and every squared
    distance is read from one stacked Gram product, ``d2 = |h|^2 +
    |p|^2 - 2 h p'``.  A pair is decided by ``d2`` only when
    ``|d2 - eps^2|`` exceeds ``_BALL_MARGIN * (|h|^2 + |p|^2 + eps^2)``;
    every other pair, a non-finite ``d2`` included, gets
    :func:`_exact_beyond`.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite d2 stays undecided
        eps2 = eps * eps
        h = here - centres[:, None]
        # ``p'``, made contiguous: matmul on a transposed view skips BLAS.
        pt = np.subtract(points.transpose(0, 2, 1), centres[:, :, None], order="C")
        hh = np.einsum("gin,gin->gi", h, h)[:, :, None]
        pp = np.einsum("gnj,gnj->gj", pt, pt)[:, None]
        gap = (-2.0 * h) @ pt
        gap += hh
        gap += pp - eps2
        slack = _BALL_MARGIN * hh + _BALL_MARGIN * (pp + (eps2 + _TINY))
        beyond = gap > slack
        decided = np.abs(gap, out=gap) > slack
    if not decided.all():
        group, row, col = np.nonzero(~decided)
        beyond[group, row, col] = _exact_beyond(points[group, col], here[group, row], eps)
    return beyond


def _exact_beyond(points, here, eps):
    """The scan's own test, ``np.linalg.norm(points - here, axis=-1) > eps``."""
    return np.linalg.norm(points - here, axis=-1) > eps


class MultiplierTrace:
    """Read-only view of a run's iterate and multiplier arrays.

    Holds the arrays it is given, without copying them.  The running
    average is read by :func:`window_means` from :func:`prefix_sums`;
    the windowed average is recomputed by the defining scan.  Queries
    may be issued concurrently.

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

    def running_average(self) -> Array:
        """Running average of the whole run, ``mean(y_1..y_K)``."""
        last = np.array([len(self)])
        return window_means(prefix_sums(self.ys), last, np.ones_like(last))[0]

    def windowed_average(self, eps: float):
        """Windowed average at the last iteration, by the defining scan."""
        return windowed_average(self.xs, self.ys, len(self), eps)
