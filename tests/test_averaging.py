"""Running and windowed multiplier averages, and the exact multipliers' tail bound."""

import numpy as np
import pytest

from stochsqp import averaging
from stochsqp.averaging import (
    MultiplierTrace,
    prefix_sums,
    window_means,
    window_starts,
    windowed_average,
)

from conftest import running_average

BLOCK = averaging._BLOCK_SIZE


class TestRunningAverage:
    def test_mean_of_first_three(self):
        ys = np.array([[1.0], [2.0], [3.0]])
        assert running_average(ys, k=3, kbar=1) == pytest.approx(2.0)

    def test_window_of_one(self):
        ys = np.array([[1.0], [2.0], [3.0]])
        assert running_average(ys, k=2, kbar=2) == pytest.approx(2.0)

    def test_bounds_checked(self):
        ys = np.zeros((3, 2))
        with pytest.raises(ValueError):
            running_average(ys, k=2, kbar=3)

    def test_prefix_sums_match_slice_means_on_long_trace(self):
        rng = np.random.default_rng(0)
        ys = rng.standard_normal((100_000, 2))
        ks = np.arange(1, len(ys) + 1)
        averages = window_means(prefix_sums(ys), ks, np.ones_like(ks))
        assert averages.shape == ys.shape
        for k in (1, 10, 999, 50_000, 100_000):
            direct = running_average(ys, k)
            np.testing.assert_allclose(averages[k - 1], direct, rtol=1e-12, atol=0)

    def test_commutes_with_affine_maps(self):
        rng = np.random.default_rng(1)
        ys = rng.standard_normal((500, 3))
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        lhs = running_average(ys @ a.T + b, k=500)
        rhs = a @ running_average(ys, k=500) + b
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


class TestWindowedAverage:
    def test_hand_scan(self):
        xs = np.array([[0.0], [0.5], [0.6], [0.65]])
        ys = np.array([[10.0], [20.0], [30.0], [40.0]])
        avg, kprime = windowed_average(xs, ys, k=4, eps=0.2)
        assert kprime == 2
        assert avg == pytest.approx(30.0)

    def test_all_inclusive_window_equals_running_average(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((50, 3))
        ys = rng.standard_normal((50, 2))
        diameter = max(
            np.linalg.norm(xs[i] - xs[j]) for i in range(50) for j in range(50)
        )
        avg, kprime = windowed_average(xs, ys, k=50, eps=diameter + 1.0)
        assert kprime == 1
        assert np.allclose(avg, running_average(ys, 50), atol=1e-14)

    def test_empty_past_window(self):
        xs = np.array([[0.0], [10.0], [20.0]])
        ys = np.array([[1.0], [2.0], [3.0]])
        avg, kprime = windowed_average(xs, ys, k=3, eps=0.5)
        assert kprime == 3
        assert avg == pytest.approx(3.0)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            windowed_average(np.zeros((3, 1)), np.zeros((3, 1)), 3, 0.0)
        with pytest.raises(ValueError):
            windowed_average(np.zeros((3, 1)), np.zeros((3, 1)), 3, -1.0)
        with pytest.raises(ValueError):
            windowed_average(np.zeros((3, 1)), np.zeros((3, 1)), 3, float("nan"))


def _assert_matches_scan(xs, ys, eps, ks=None):
    """Every row of the one-pass path, composed as the trace CSV composes
    it, against the defining scan."""
    ks = np.arange(1, len(xs) + 1) if ks is None else np.asarray(list(ks), dtype=int)
    starts = window_starts(xs, eps, ks)
    means = window_means(prefix_sums(ys), ks, starts)
    assert means.shape == (len(ks), ys.shape[1])
    assert starts.shape == (len(ks),)
    for mean, start, k in zip(means, starts, ks):
        want, want_start = windowed_average(xs, ys, k, eps)
        assert start == want_start, f"k={k}"
        assert np.linalg.norm(mean - want) <= 1e-12 * np.linalg.norm(want), f"k={k}"
    return starts


def _spy_pair_tests(monkeypatch):
    """Count the calls and the pairs that the Gram-product test and the
    exact test see; a stacked Gram pass counts its padding rows too."""
    counts = {"gram": 0, "exact": 0, "gram_calls": 0}
    gram, exact = averaging._gram_beyond, averaging._exact_beyond

    def gram_spy(points, centres, here, eps):
        counts["gram"] += points.shape[0] * points.shape[1] * here.shape[1]
        counts["gram_calls"] += 1
        return gram(points, centres, here, eps)

    def exact_spy(points, here, eps):
        counts["exact"] += len(points)
        return exact(points, here, eps)

    monkeypatch.setattr(averaging, "_gram_beyond", gram_spy)
    monkeypatch.setattr(averaging, "_exact_beyond", exact_spy)
    return counts


class TestWindowedAverages:
    @pytest.mark.parametrize("eps", [0.05, 0.3, 1.0, 4.0])
    def test_random_walk(self, eps):
        rng = np.random.default_rng(10)
        xs = np.cumsum(rng.standard_normal((5 * BLOCK + 17, 3)) * 0.2, axis=0)
        ys = rng.standard_normal((len(xs), 2))
        _assert_matches_scan(xs, ys, eps)

    @pytest.mark.parametrize("eps", [0.9, 0.99, 1.0, 1.01, 1.2])
    def test_zig_zag_path(self, eps):
        # Path length about one per step, displacement about 0.3 in all:
        # length bounds say nothing, every block straddles the sphere.
        rng = np.random.default_rng(11)
        count = 6 * BLOCK + 5
        sign = (-1.0) ** np.arange(count)
        xs = np.column_stack([
            0.5 * sign + 0.3 * np.arange(count) / count,
            0.05 * rng.standard_normal(count),
        ])
        ys = rng.standard_normal((count, 3))
        _assert_matches_scan(xs, ys, eps)

    @pytest.mark.parametrize("eps", [1.0, 2.0, 5.0])
    def test_points_exactly_eps_apart_are_inside(self, eps):
        # Integer lattice walk: many distances equal eps exactly, where
        # only the strict test ``norm > eps`` decides.
        rng = np.random.default_rng(12)
        steps = rng.integers(-1, 2, size=(4 * BLOCK + 9, 2)).astype(float)
        steps[::7] = [3.0, -4.0]
        xs = np.cumsum(steps, axis=0)
        ys = rng.standard_normal((len(xs), 1))
        ties = sum(
            int(np.sum(np.linalg.norm(xs[:k] - xs[k - 1], axis=1) == eps))
            for k in range(1, len(xs) + 1)
        )
        assert ties > 0
        _assert_matches_scan(xs, ys, eps)

    @pytest.mark.parametrize("eps", [1e-12, 0.5, 3.0])
    def test_repeated_points(self, eps):
        rng = np.random.default_rng(13)
        walk = np.cumsum(rng.standard_normal((9, 4)), axis=0)
        xs = np.repeat(walk, 37, axis=0)
        ys = rng.standard_normal((len(xs), 2))
        _assert_matches_scan(xs, ys, eps)
        _assert_matches_scan(np.zeros_like(xs), ys, eps)

    def test_block_clusters_exactly_eps_apart(self):
        # Whole blocks of one repeated point, 5 apart: the ball tests
        # decide on their own, except within the margin of the sphere.
        rng = np.random.default_rng(16)
        xs = np.repeat([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0], [6.0, 8.0]], BLOCK, axis=0)
        ys = rng.standard_normal((len(xs), 2))
        for eps in (4.9, 5.0 * (1 - 1e-12), 5.0, 5.0 * (1 + 1e-12), 5.1, 10.0):
            _assert_matches_scan(xs, ys, eps)
            _assert_matches_scan(xs, ys, eps, range(BLOCK, len(xs) + 1, BLOCK))

    @pytest.mark.parametrize("side", ["inside", "outside"])
    def test_ball_bound_rounding_is_not_trusted(self, side):
        # One block of two points, then x_k alone in the next block.  The
        # ball bounds ||x_k - centre|| -+ radius, as computed in floating
        # point, put the whole block on one side of the sphere, but the
        # exact test puts a point on the other: only the margin sends
        # the block to the exact test.
        rng = np.random.default_rng(17)
        hits = 0
        for _ in range(2000):
            low, high, x = np.sort(rng.uniform(-2.0, 2.0, 3))
            xs = np.repeat([[low], [high], [x]], [BLOCK // 2, BLOCK // 2, 1], axis=0)
            block = xs[:BLOCK]
            centre = block.reshape(1, BLOCK, 1).mean(axis=1)[0]  # as the blocks are summarised
            radius = np.linalg.norm(block - centre, axis=1).max()
            dist = float(np.linalg.norm(xs[-1] - centre))
            exact = np.linalg.norm(block - xs[-1], axis=1)
            if side == "inside":
                eps = dist + radius
                fooled = exact.max() > eps
            else:
                eps = np.nextafter(dist - radius, 0.0)
                fooled = exact.min() <= eps
            if fooled:
                hits += 1
                _assert_matches_scan(xs, np.ones((len(xs), 1)), eps, [BLOCK + 1])
        assert hits >= 10

    @pytest.mark.parametrize("count", [1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_lengths_around_the_block_size(self, count):
        rng = np.random.default_rng(count)
        xs = np.cumsum(rng.standard_normal((count, 2)) * 0.3, axis=0)
        ys = rng.standard_normal((count, 3))
        for eps in (0.1, 0.5, 2.0):
            _assert_matches_scan(xs, ys, eps)

    def test_thinned_and_unordered_rows(self):
        rng = np.random.default_rng(14)
        xs = np.cumsum(rng.standard_normal((7 * BLOCK, 3)) * 0.2, axis=0)
        ys = rng.standard_normal((len(xs), 2))
        for eps in (0.2, 1.0):
            _assert_matches_scan(xs, ys, eps, range(7, len(xs) + 1, 7))
            _assert_matches_scan(xs, ys, eps, range(100, len(xs) + 1, 100))
            _assert_matches_scan(xs, ys, eps, [len(xs), 1, 3 * BLOCK, 3 * BLOCK, 5])
        starts = window_starts(xs, 1.0, [])
        assert starts.shape == (0,)
        assert window_means(prefix_sums(ys), np.arange(1, 1), starts).shape == (0, 2)

    def test_tiny_and_huge_eps(self):
        rng = np.random.default_rng(15)
        xs = np.cumsum(rng.standard_normal((3 * BLOCK + 1, 2)), axis=0)
        ys = rng.standard_normal((len(xs), 2))
        ks = np.arange(1, len(xs) + 1)
        starts = _assert_matches_scan(xs, ys, 1e-9)
        assert np.array_equal(starts, ks)
        for eps in (1e9, np.inf):
            starts = _assert_matches_scan(xs, ys, eps)
            assert np.all(starts == 1)

    def test_solver_trajectory(self, bundled_instance):
        from stochsqp import SolverConfig, run

        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac,
                              batch_size=16, max_iters=600, seed=4)
        trace = run(problem, bundled_instance.minibatch_oracle(), config)
        for eps in (0.01, 0.1, 1.0):
            _assert_matches_scan(trace.x, trace.y, eps)

    def test_far_from_the_origin(self, monkeypatch):
        # Coordinates near 1e6 with steps and eps near 1e-3: the squared
        # norms about the origin are 1e12 and would cancel to nothing in
        # a Gram product, so the test centres on each ball first.
        counts = _spy_pair_tests(monkeypatch)
        rng = np.random.default_rng(18)
        xs = 1e6 + np.cumsum(rng.standard_normal((4 * BLOCK + 11, 3)) * 3e-4, axis=0)
        ys = rng.standard_normal((len(xs), 2))
        for eps in (5e-4, 1e-3, 2e-3):
            _assert_matches_scan(xs, ys, eps)
        assert counts["gram"] > 0

    def test_pairs_the_gram_product_cannot_decide(self, monkeypatch):
        # Jitter of 1e-3 about two points 2e4 apart: within a ball of
        # radius 1e4 the Gram product cannot resolve eps near 1e-3, so
        # the pairs go to the scan's own test.
        counts = _spy_pair_tests(monkeypatch)
        rng = np.random.default_rng(19)
        count = 3 * BLOCK + 7
        xs = 1e4 * (-1.0) ** np.arange(count)[:, None] + 1e-3 * rng.standard_normal((count, 2))
        ys = rng.standard_normal((count, 1))
        for eps in (1e-3, 3e-3):
            _assert_matches_scan(xs, ys, eps)
        assert counts["exact"] > 0

    def test_history_with_a_nan_row(self):
        # A NaN iterate is never farther than eps from anything (``nan >
        # eps`` is false), and a NaN x_k keeps every point: the scan's
        # reading, which the fast path must give even when a NaN block
        # centre leaves every Gram product undecided.
        rng = np.random.default_rng(20)
        xs = np.cumsum(rng.standard_normal((4 * BLOCK + 3, 2)) * 0.05, axis=0)
        ys = rng.standard_normal((len(xs), 2))
        for row in (0, BLOCK + 5, 2 * BLOCK, len(xs) - 1):
            holed = xs.copy()
            holed[row, row % 2] = np.nan
            for eps in (0.1, 0.4):
                _assert_matches_scan(holed, ys, eps)

    def test_gram_product_decides_almost_every_pair(self, bundled_instance, monkeypatch):
        # A certificate that always fell back to the exact test would
        # still give the right starts, only slowly; this guard fails it.
        from stochsqp import SolverConfig, run

        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac,
                              batch_size=16, max_iters=3200, seed=0)
        trace = run(problem, bundled_instance.minibatch_oracle(), config)
        counts = _spy_pair_tests(monkeypatch)
        for eps in (0.01, 0.1, 1.0):
            _assert_matches_scan(trace.x, trace.y, eps)
        assert counts["gram"] > 10**5
        assert counts["exact"] * 10**4 <= counts["gram"]

    def test_passes_under_a_small_pair_cap(self, monkeypatch):
        # A cap of four rows' pairs cuts every stacked pass, and the
        # plan's ball classes, into many; the starts cannot change.
        counts = _spy_pair_tests(monkeypatch)
        monkeypatch.setattr(averaging, "_PAIR_CAP", 4 * BLOCK)
        rng = np.random.default_rng(22)
        xs = np.cumsum(rng.standard_normal((9 * BLOCK + 21, 3)) * 0.1, axis=0)
        ys = rng.standard_normal((len(xs), 2))
        for eps in (0.2, 0.6, 2.0):
            _assert_matches_scan(xs, ys, eps)
        assert counts["gram_calls"] > 9 * 3

    def test_walk_through_undecided_blocks(self, monkeypatch):
        # The last block's rows sit at the origin.  Before them, four
        # blocks of points 0.985 from it, alternating about a centre 0.9
        # away: every point is inside eps = 1, but every ball straddles
        # the sphere, so the walk visits all four, nearest first, and
        # last the first block, certainly outside, which settles them.
        rng = np.random.default_rng(23)
        arcs = []
        for angle in (0.3, 0.9, 1.5, 2.1):
            turn = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
            arcs.append(np.tile([[0.9, 0.4], [0.9, -0.4]], (BLOCK // 2, 1)) @ turn.T)
        xs = np.vstack([np.full((BLOCK, 2), 5.0), *arcs, np.zeros((BLOCK, 2))])
        xs += 1e-4 * rng.standard_normal(xs.shape)
        ys = rng.standard_normal((len(xs), 2))
        visits = []
        settle = averaging._settle

        def spy(xs, centres, radii, eps, rows, blocks, own=False):
            if not own:
                visits.append(blocks[rows >= 5 * BLOCK].tolist())
            return settle(xs, centres, radii, eps, rows, blocks, own)

        monkeypatch.setattr(averaging, "_settle", spy)
        starts = _assert_matches_scan(xs, ys, 1.0)
        assert [set(blocks) for blocks in visits if blocks] == [{4}, {3}, {2}, {1}, {0}]
        assert np.all(starts[5 * BLOCK :] == BLOCK + 1)

    def test_stopping_block_is_the_last_visit(self, monkeypatch):
        # One block at (5, 5), then four blocks within 1e-3 of the
        # origin: the three between the last block and the first are
        # certainly inside eps = 1 and skipped, so the last block's rows
        # visit only the first, certainly outside, which settles them.
        rng = np.random.default_rng(26)
        xs = np.vstack([np.full((BLOCK, 2), 5.0), np.zeros((4 * BLOCK, 2))])
        xs[BLOCK:] += 1e-4 * rng.uniform(-1.0, 1.0, (4 * BLOCK, 2))
        ys = rng.standard_normal((len(xs), 2))
        visits = []
        settle = averaging._settle

        def spy(xs, centres, radii, eps, rows, blocks, own=False):
            if not own:
                visits.append(blocks[rows >= 4 * BLOCK].tolist())
            return settle(xs, centres, radii, eps, rows, blocks, own)

        monkeypatch.setattr(averaging, "_settle", spy)
        starts = _assert_matches_scan(xs, ys, 1.0)
        assert [set(blocks) for blocks in visits if blocks] == [{0}]
        assert np.all(starts[4 * BLOCK :] == BLOCK + 1)

    def test_sparse_unsorted_and_repeated_rows(self):
        rng = np.random.default_rng(24)
        xs = np.cumsum(rng.standard_normal((12 * BLOCK + 5, 2)) * 0.1, axis=0)
        ys = rng.standard_normal((len(xs), 3))
        ks = rng.integers(1, len(xs) + 1, size=90)
        ks = np.concatenate([ks, ks[:20], [len(xs), 1, 7 * BLOCK, 7 * BLOCK + 1]])
        rng.shuffle(ks)
        assert len(np.unique((ks - 1) // BLOCK)) >= 10
        for eps in (0.05, 0.3, 1.0, 5.0):
            _assert_matches_scan(xs, ys, eps, ks)

    def test_pair_test_calls_do_not_grow_with_row_blocks(self, monkeypatch):
        # A line walked at a steady pace: every row block's walk has the
        # same depth, so 40 row blocks take the stacked passes of 4.  The
        # cap is lifted so that it does not cut the passes.
        counts = _spy_pair_tests(monkeypatch)
        monkeypatch.setattr(averaging, "_PAIR_CAP", 1 << 20, raising=False)
        calls = []
        for blocks in (4, 40):
            k = np.arange(blocks * BLOCK)
            xs = np.column_stack([1e-2 * k, 1e-3 * np.sin(k), 1e-3 * np.cos(3.0 * k)])
            ys = np.ones((len(xs), 1))
            counts["gram_calls"] = 0
            _assert_matches_scan(xs, ys, 1.5 * BLOCK * 1e-2, range(4, len(xs) + 1, 4))
            calls.append(counts["gram_calls"])
        assert 0 < calls[1] <= calls[0]

    def test_long_history_with_shrinking_steps(self):
        # 1e5 iterates whose steps shrink like 1/k, as a run damped with
        # p = 1 moves: late windows span hundreds of blocks, nearly all
        # certainly inside, before the sphere.  Sampled rows against the scan.
        rng = np.random.default_rng(25)
        count = 100_000
        k = np.arange(1, count + 1)[:, None]
        xs = np.cumsum(([0.03, 0.0, 0.0] + 0.02 * rng.standard_normal((count, 3))) / k, axis=0)
        ys = rng.standard_normal((count, 2))
        ks = np.unique(np.r_[np.geomspace(1, count, 100), np.linspace(1, count, 100)].astype(int))
        for eps in (0.01, 0.1, 1.0):
            starts = _assert_matches_scan(xs, ys, eps, ks)
            assert np.any((ks - starts) > 10 * BLOCK)

    def test_validation(self):
        xs = np.zeros((4, 2))
        for eps in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                window_starts(xs, eps, [1])
        for ks in ([0], [5], [1, 5]):
            with pytest.raises(ValueError):
                window_starts(xs, 1.0, ks)


class TestMultiplierTrace:
    def test_from_run_alignment(self, bundled_instance):
        from stochsqp import SolverConfig, run

        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac,
                              batch_size=8, max_iters=40, validate=True)
        solver_trace = run(problem, bundled_instance.minibatch_oracle(), config)
        trace = MultiplierTrace.from_run(solver_trace)
        assert len(trace) == 40
        assert np.array_equal(trace.ys, solver_trace.y)
        assert trace.ys is solver_trace.y  # a view, not a copy
        avg, kprime = trace.windowed_average(eps=1e9)
        assert kprime == 1
        assert np.array_equal(trace.running_average(), prefix_sums(solver_trace.y)[-1] / 40)


class TestMultiplierBound:
    def test_deterministic_tail_ratio_is_bounded(self, bundled_instance):
        # With exact gradients the multiplier error follows the primal
        # error: from k = 200 on, dist_y_true / dist_x stays finite and
        # at most 1e6.
        from stochsqp import SolverConfig, exact_oracle, run
        from stochsqp.harness import compute_reference

        problem = bundled_instance.problem()
        lip_gradf, lip_jac = bundled_instance.lipschitz_bounds()
        config = SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac,
                              beta_p=0.0, max_iters=400,
                              validate=True)
        reference = compute_reference(problem, config)
        trace = run(problem, exact_oracle(problem), config)
        dist_x = np.linalg.norm(trace.x[199:] - reference.x, axis=1)
        dist_y_true = np.linalg.norm(trace.y_true[199:] - reference.y, axis=1)
        ratio = dist_y_true / dist_x
        assert np.all(np.isfinite(ratio))
        assert ratio.max() <= 1e6
