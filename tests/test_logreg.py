"""LIBSVM parsing and the constrained logistic-regression instances."""

import collections
import dataclasses
import os
import sys
import threading

import numpy as np
import pytest

from stochsqp import (
    ConstructionError,
    ParseError,
    build_instance,
    exact_oracle,
    load_libsvm_file,
    parse_libsvm,
    serialize_libsvm,
)
from stochsqp import RankError, SolverConfig, factor_jacobian, logreg
from stochsqp.harness import compute_reference
from stochsqp.logreg import Dataset, logistic_minibatch_gradient
from stochsqp.problem import sample_gradient

from conftest import (
    gaussian_oracle, oracle_gradient, oracle_hessian, oracle_objective, reference_parse_libsvm,
)


class TestParse:
    def test_two_line_example(self):
        ds = parse_libsvm("+1 1:0.5 3:-2\n-1 2:1")
        assert (ds.n_features, ds.n_samples) == (3, 2)
        assert ds.features.flags.c_contiguous
        assert np.array_equal(ds.features[0], [0.5, 0.0, -2.0])
        assert np.array_equal(ds.features[1], [0.0, 1.0, 0.0])
        assert np.array_equal(ds.labels, [1.0, -1.0])

    def test_empty_stream_gives_empty_dataset(self):
        ds = parse_libsvm("")
        assert ds.n_samples == 0
        with pytest.raises(ConstructionError, match="dataset is empty"):
            build_instance(ds, m_lin=0, seed=0)

    def test_an_instance_over_no_samples_is_refused(self):
        # Built directly, not through build_instance: the instance itself
        # refuses a dataset whose loss and gradient are undefined.
        ds = Dataset(features=np.zeros((0, 3)), labels=np.zeros(0))
        with pytest.raises(ConstructionError, match="dataset is empty"):
            logreg.ConstrainedLogRegInstance(
                dataset=ds, A=np.ones((1, 3)), b=np.zeros(1), x1=np.ones(3)
            )

    def test_zero_one_labels_remapped(self):
        ds = parse_libsvm("0 1:1\n1 1:2")
        assert np.array_equal(ds.labels, [-1.0, 1.0])

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("abc 1:1", "line 1"),
            ("+1 1:1 0:2", "line 1"),
            ("+1 2:1 1:3", "line 1"),
            ("+1\n-1 1:x", "line 2"),
            ("nan 1:1", "line 1: non-finite label"),
            ("+1 1:1\n-inf 1:2", "line 2: non-finite label"),
            ("+1 1:inf", "line 1: non-finite value"),
            ("+1 1:1\n\n-1 1:0.5 3:NaN", "line 3: non-finite value"),
            ("-1 2:-Infinity", "line 1: non-finite value"),
        ],
    )
    def test_malformed_lines_name_the_line(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_libsvm(text)

    def test_round_trip_preserves_sparse_triples(self):
        rng = np.random.default_rng(0)
        features = np.round(rng.standard_normal((9, 6)), 6)
        features[rng.uniform(size=features.shape) < 0.5] = 0.0
        labels = rng.choice([-1.0, 1.0], size=9)
        ds = Dataset(features=features, labels=labels)
        again = parse_libsvm(serialize_libsvm(ds))
        assert np.array_equal(again.features, ds.features)
        assert np.array_equal(again.labels, ds.labels)

    def test_a9a_shape_if_available(self):
        path = os.environ.get("A9A_PATH", "tests/data/a9a")
        if not os.path.exists(path):
            pytest.skip("a9a not bundled; set A9A_PATH to check its shape")
        ds = load_libsvm_file(path)
        assert (ds.n_features, ds.n_samples) == (123, 32561)


def assert_parses_like_reference(text):
    """``parse_libsvm`` gives the oracle's dataset bitwise, or its ParseError."""
    try:
        expected = reference_parse_libsvm(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            parse_libsvm(text)
        assert str(info.value) == str(exc)
        return
    got = parse_libsvm(text)
    for name in ("features", "labels"):
        want, have = getattr(expected, name), getattr(got, name)
        assert (have.dtype, have.shape) == (want.dtype, want.shape)
        assert have.tobytes() == want.tobytes()


def random_libsvm_text(rng, n_lines, digits_only=False):
    """Valid LIBSVM text with the layout variations the format allows.

    The values mix decimal, exponent and digit-run tokens, the last
    short, zero-padded, or of 15 or 16 digits; ``digits_only`` keeps the
    runs of at most 15 digits, which the parser reads from the bytes.
    """
    labels = ("+1", "-1", "1", "0", "-1.0", "1e0") if rng.random() < 0.5 else ("0", "1")
    values = (lambda: "1", lambda: "0", lambda: str(rng.integers(0, 1000)),
              lambda: f"{rng.integers(0, 1000):05d}", lambda: str(rng.integers(10**14, 10**15)))
    if not digits_only:
        values += (lambda: str(rng.integers(10**15, 10**16)),
                   lambda: f"{rng.standard_normal():.17g}",
                   lambda: f"{rng.uniform(-1e3, 1e3):.3e}", lambda: "-0")
    lines = []
    for _ in range(n_lines):
        if rng.random() < 0.1:
            lines.append(str(rng.choice(["", " ", "\t", "  \t "])))
            continue
        width = int(rng.integers(0, 12))  # 0 gives a label-only line
        indices = np.sort(rng.choice(np.arange(1, 40), size=width, replace=False))
        seps = [str(rng.choice([" ", "\t", "  "])) for _ in range(width)]
        entries = "".join(
            f"{sep}{idx}:{values[rng.integers(len(values))]()}" for sep, idx in zip(seps, indices)
        )
        lead = str(rng.choice(["", " ", "\t"]))
        trail = str(rng.choice(["", " ", "  ", "\t"]))
        lines.append(f"{lead}{rng.choice(labels)}{entries}{trail}")
    newline = "\r\n" if rng.random() < 0.3 else "\n"
    return newline.join(lines) + (newline if rng.random() < 0.7 else "")


#: Lines the oracle rejects, accepts with an unusual token, or splits.
HAND_CASES = [
    "+1 1:2:3", "+1 1:2:3:4", "-1 1:2 3:4:5:6", "-1 5", "-1 5 6 7 8",
    "+1 1:", "+1 :1", "+1 0:1", "+1 2:1 1:1", "+1 1:1 1:2",
    "+1 1_0:1", "+1 +3:1", "-1 01:1",
    "+1 1:nan", "+1 1:-Infinity", "nan 1:1",
    "+1 1:1\x0c2:3", "+1 1:1\r2:3", "-1 1:1 \r 3:1", "+1\x0c1:1",
    # Digit runs around the 15 digits the byte path reads.
    "+1 1:123456789012345", "+1 1:1234567890123456", "+1 1:9007199254740993",
    "-1 007:0010", "+1 1:0", "-1 2:00",
]


class TestParseMatchesReference:
    """Differential checks of the vectorized parser against the per-token oracle."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_texts(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(logreg, "CHUNK_SAMPLES", int(rng.choice([1, 3, 8, 4096])))
        read = []  # results of _read_digits: index then value, per block
        real_read_digits = logreg._read_digits

        def recording_read_digits(*args):
            read.append(real_read_digits(*args))
            return read[-1]

        monkeypatch.setattr(logreg, "_read_digits", recording_read_digits)
        assert_parses_like_reference(random_libsvm_text(rng, int(rng.integers(5, 30)), True))
        text = random_libsvm_text(rng, int(rng.integers(5, 30)))
        assert_parses_like_reference(text)
        # Every seed reads values both from the bytes and through float().
        assert {value is None for value in read[1::2]} == {False, True}
        lines = text.split("\n")
        lines[rng.integers(len(lines))] = str(rng.choice(HAND_CASES))
        assert_parses_like_reference("\n".join(lines))

    @pytest.mark.parametrize("case", HAND_CASES)
    @pytest.mark.parametrize("position", [4, 5, 7])  # start, middle and end of the second block
    @pytest.mark.parametrize("entries", [True, False], ids=["entries", "label-only"])
    def test_hand_cases_anywhere_in_a_block(self, monkeypatch, case, position, entries):
        monkeypatch.setattr(logreg, "CHUNK_SAMPLES", 4)
        lines = [f"{'+1' if i % 2 else '-1'}" + (f" {i % 3 + 1}:0.5 9:{i}" if entries else "")
                 for i in range(12)]
        lines[position] = case
        assert_parses_like_reference("\n".join(lines) + "\n")

    @pytest.mark.parametrize("case", HAND_CASES)
    def test_hand_cases_from_a_file(self, tmp_path, monkeypatch, case):
        # Files are read with universal newlines, so a lone \r ends a line.
        monkeypatch.setattr(logreg, "CHUNK_SAMPLES", 2)
        path = tmp_path / "case.libsvm"
        path.write_text(f"+1 1:1\n-1 2:2\n{case}\n+1 3:3\n", encoding="ascii", newline="")
        try:
            with open(path, encoding="ascii") as handle:
                expected = reference_parse_libsvm(handle)
        except ParseError as exc:
            with pytest.raises(ParseError) as info:
                load_libsvm_file(path)
            assert str(info.value) == f"{path}: {exc}"
            return
        got = load_libsvm_file(path)
        assert got.features.tobytes() == expected.features.tobytes()
        assert got.labels.tobytes() == expected.labels.tobytes()

    @pytest.mark.parametrize("position", [4, 5, 7])
    def test_index_past_int64_names_its_line(self, monkeypatch, position):
        # The oracle accepts the index and then cannot allocate the matrix;
        # the vectorized parser rejects the line.
        monkeypatch.setattr(logreg, "CHUNK_SAMPLES", 4)
        huge = 2**63
        lines = ["+1 1:1"] * 12
        lines[position] = f"-1 2:1 {huge}:1"
        text = "\n".join(lines)
        message = rf"^line {position + 1}: feature index {huge} is too large$"
        with pytest.raises(ParseError, match=message):
            parse_libsvm(text)
        with pytest.raises((ValueError, OverflowError, MemoryError)):
            reference_parse_libsvm(text)
        # The largest int64 index still parses, but no matrix is that
        # wide: the parser names the line of the largest index.
        widest = text.replace(str(huge), str(huge - 1))
        message = rf"^line {position + 1}: feature index {huge - 1} is too large$"
        with pytest.raises(ParseError, match=message):
            parse_libsvm(widest)
        with pytest.raises((ValueError, MemoryError)) as info:
            reference_parse_libsvm(widest)
        assert not isinstance(info.value, ParseError)

    def test_too_wide_matrix_counts_blank_lines(self, monkeypatch):
        monkeypatch.setattr(logreg, "CHUNK_SAMPLES", 3)
        widest = 2**63 - 1
        text = f"+1 1:1\n\n  \n+1 2:1\n\n-1 1:1 3:1 {widest}:1\n+1 {widest}:1\n"
        with pytest.raises(ParseError, match=rf"^line 6: feature index {widest} "):
            parse_libsvm(text)

    @pytest.mark.parametrize("text", ["+1 1:\u0661", "+1 \u0661:1", "-1 2:\u0663\u0664 7:1"])
    def test_non_ascii_digits_from_a_string(self, text):
        # int() and float() accept any Unicode decimal digit; the byte path
        # reads ASCII digits only, so these keep the str path.
        assert_parses_like_reference(text)
        assert_parses_like_reference(f"-1 1:1\n{text}\n+1 3:5\n")

    def test_binary_data_round_trips(self, a9a_shaped_instance):
        # Three blocks of integer tokens, all read from the bytes.
        ds = a9a_shaped_instance.dataset
        assert ds.n_samples > 2 * logreg.CHUNK_SAMPLES
        again = parse_libsvm(serialize_libsvm(ds))
        assert again.features.tobytes() == ds.features.tobytes()
        assert again.labels.tobytes() == ds.labels.tobytes()

    def test_bundled_file_matches_reference(self):
        from importlib import resources

        text = resources.files("stochsqp.data").joinpath("synthetic200.libsvm").read_text()
        assert_parses_like_reference(text)


def read_digit_tokens(tokens):
    """``logreg._read_digits`` on byte strings joined by spaces."""
    joined = b" ".join(tokens)
    ends = np.cumsum([len(token) + 1 for token in tokens]) - 1
    starts = ends - [len(token) for token in tokens]
    return logreg._read_digits(np.frombuffer(joined, dtype=np.uint8) - ord("0"), starts, ends)


class TestReadDigits:
    def test_exact_on_one_to_fifteen_digits(self):
        rng = np.random.default_rng(5)
        tokens = [b"0", b"9", b"00", b"000000000000000", b"999999999999999"]
        for width in range(1, 16):
            tokens += [bytes(rng.integers(ord("0"), ord("9") + 1, size=width).astype(np.uint8))
                       for _ in range(20)]
        values = read_digit_tokens(tokens)
        assert values.dtype == np.int64
        assert values.tolist() == [int(token) for token in tokens]
        as_float = values.astype(float)
        assert as_float.tobytes() == np.array([float(token) for token in tokens]).tobytes()

    @pytest.mark.parametrize("bad", [b"", b"1234567890123456", b"9007199254740993"])
    def test_empty_and_sixteen_digits_take_the_str_path(self, bad):
        assert read_digit_tokens([b"12", bad, b"3"]) is None

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_any_non_digit_byte_takes_the_str_path(self, position):
        for byte in set(range(256)) - set(b"0123456789"):
            token = bytearray(b"123")
            token[position] = byte
            assert read_digit_tokens([b"4", bytes(token), b"56"]) is None, byte


class TestSpectralBound:
    @pytest.mark.parametrize("name", ["bundled_instance", "a9a_shaped_instance"])
    def test_matches_the_svd_norm(self, request, name):
        inst = request.getfixturevalue(name)
        features = inst.dataset.features
        svd_bound = np.linalg.norm(features, 2) ** 2 / (4.0 * inst.dataset.n_samples)
        lip_gradf, lip_jac = inst.lipschitz_bounds()
        assert lip_gradf == pytest.approx(svd_bound, rel=1e-13, abs=0.0)
        assert lip_jac == 2.0

    @pytest.mark.parametrize("name", ["bundled_instance", "a9a_shaped_instance"])
    def test_bounds_the_logistic_hessian(self, request, name):
        inst = request.getfixturevalue(name)
        lip_gradf = inst.lipschitz_bounds()[0]
        rng = np.random.default_rng(8)
        for scale in (0.0, 0.1, 1.0, 10.0):
            x = scale * rng.standard_normal(inst.n)
            # A zero sphere multiplier leaves only (1/N) D diag(s(1-s)) D'.
            logistic = inst.lagrangian_hessian(x, np.zeros(inst.m))
            assert np.linalg.norm(logistic, 2) <= lip_gradf * (1.0 + 1e-12)


class TestBuildInstance:
    def test_constraint_dimension(self, bundled_dataset):
        inst = build_instance(bundled_dataset, m_lin=10, seed=0)
        assert inst.m == 11
        assert inst.jacobian(inst.x1).shape == (11, 30)

    def test_same_seed_is_bitwise_identical(self, bundled_dataset):
        a = build_instance(bundled_dataset, m_lin=10, seed=123)
        b = build_instance(bundled_dataset, m_lin=10, seed=123)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.x1, b.x1)

    def test_single_sample_hand_gradient(self):
        # One sample d = e_1 with positive label: the loss is
        # log(1 + exp(-x_1)) and its gradient at zero is -e_1 / 2.
        ds = Dataset(features=np.array([[1.0, 0.0]]), labels=np.array([1.0]))
        inst = build_instance(ds, m_lin=1, seed=0)
        assert np.allclose(inst.gradient(np.zeros(2)), [-0.5, 0.0], atol=1e-15)

    def test_dimension_guard(self, bundled_dataset):
        with pytest.raises(ConstructionError):
            build_instance(bundled_dataset, m_lin=30, seed=0)

    def test_start_jacobian_passes_the_solvers_rank_gate(self, bundled_dataset, monkeypatch):
        gated = []

        def gate(jac):
            gated.append(jac)
            if len(gated) == 1:
                raise RankError("first draw rejected")
            return factor_jacobian(jac)

        monkeypatch.setattr(logreg, "factor_jacobian", gate)
        inst = build_instance(bundled_dataset, m_lin=10, seed=0)
        assert len(gated) == 2  # the second draw is taken
        assert np.array_equal(gated[1], inst.jacobian(inst.x1))
        assert not np.array_equal(gated[0], gated[1])

        def reject(jac):
            raise RankError("rejected")

        monkeypatch.setattr(logreg, "factor_jacobian", reject)
        with pytest.raises(ConstructionError, match=f"{logreg.MAX_TRIES} attempts"):
            build_instance(bundled_dataset, m_lin=10, seed=0)

    def test_jacobian_rows_on_the_sphere(self, bundled_instance):
        x = np.zeros(bundled_instance.n)
        x[0] = 1.0
        jac = bundled_instance.jacobian(x)
        assert np.array_equal(jac[:-1], bundled_instance.A)
        assert np.array_equal(jac[-1], 2.0 * x)
        svals = np.linalg.svd(jac, compute_uv=False)
        assert svals[-1] >= 1e-8 * svals[0]

    def test_objective_is_convex_on_segments(self, bundled_instance):
        rng = np.random.default_rng(4)
        for _ in range(25):
            a = rng.standard_normal(bundled_instance.n)
            b = rng.standard_normal(bundled_instance.n)
            lam = rng.uniform()
            mid = bundled_instance.objective(lam * a + (1 - lam) * b)
            chord = lam * bundled_instance.objective(a) + (1 - lam) * bundled_instance.objective(b)
            assert mid <= chord + 1e-10

    def test_constraints_and_jacobian_match_the_stacked_forms(self, bundled_instance):
        inst = bundled_instance
        x, x2 = np.random.default_rng(5).standard_normal((2, inst.n))
        c, jac = inst.constraints(x), inst.jacobian(x)
        assert np.array_equal(c, np.concatenate([inst.A @ x - inst.b, [float(x @ x) - 1.0]]))
        assert np.array_equal(jac, np.vstack([inst.A, 2.0 * x]))
        assert c.shape == (inst.m,) and jac.shape == (inst.m, inst.n)
        # Every call returns a new array: a second call leaves the first as it was.
        c_first, jac_first = c.copy(), jac.copy()
        c2, jac2 = inst.constraints(x2), inst.jacobian(x2)
        assert not np.shares_memory(c, c2) and not np.shares_memory(jac, jac2)
        assert np.array_equal(c, c_first) and np.array_equal(jac, jac_first)
        assert not np.array_equal(c, c2) and not np.array_equal(jac, jac2)
        # ... and owns its memory, so writing to it leaves the instance alone.
        a_before = inst.A.copy()
        jac[:] = 0.0
        assert np.array_equal(inst.A, a_before)
        assert not np.shares_memory(jac2, inst.A)

    def test_logreg_instance_at_zero(self, bundled_instance):
        # At x = 0 every logistic term is log 2 and the constraints
        # reduce to (-b, -1).
        p = bundled_instance.problem()
        x = np.zeros(p.n)
        assert p.objective(x) == pytest.approx(np.log(2.0), abs=1e-14)
        c = p.constraints(x)
        assert np.allclose(c[:-1], -bundled_instance.b)
        assert c[-1] == -1.0


class TestMinibatchGradient:
    def test_all_indices_equals_full_gradient(self, bundled_instance):
        x = bundled_instance.x1
        g = logistic_minibatch_gradient(
            bundled_instance, x, np.arange(bundled_instance.dataset.n_samples)
        )
        assert np.linalg.norm(g - bundled_instance.gradient(x)) <= 1e-12

    def test_saturated_margin_gives_zero_gradient(self):
        ds = Dataset(features=np.array([[1.0, 0.0]]), labels=np.array([1.0]))
        inst = build_instance(ds, m_lin=1, seed=0)
        g = logistic_minibatch_gradient(inst, np.array([1e4, 0.0]), [0])
        assert np.all(np.isfinite(g))
        assert np.array_equal(g, [0.0, 0.0])

    def test_two_sample_hand_formula(self):
        from scipy.special import expit

        features = np.array([[1.0, 0.5], [-2.0, 1.0]])
        labels = np.array([1.0, -1.0])
        ds = Dataset(features=features, labels=labels)
        inst = build_instance(ds, m_lin=1, seed=0)
        x = np.array([0.3, -0.2])
        z = labels[0] * (features[0] @ x)
        expected = -labels[0] * expit(-z) * features[0]
        assert np.allclose(logistic_minibatch_gradient(inst, x, [0]), expected, atol=1e-15)

    def test_repeated_indices_match_the_per_sample_loop(self, bundled_instance):
        from scipy.special import expit

        inst = bundled_instance
        features, labels = inst.dataset.features, inst.dataset.labels
        x = np.random.default_rng(9).standard_normal(inst.n)
        idx = np.array([3, 3, 0, 199, 3, 57, 0, 199])
        expected = np.zeros(inst.n)
        for j in idx:
            expected += -labels[j] * expit(-labels[j] * (features[j] @ x)) * features[j]
        expected /= idx.size
        got = logistic_minibatch_gradient(inst, x, idx)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_index_validation(self, bundled_instance):
        with pytest.raises(ValueError):
            logistic_minibatch_gradient(bundled_instance, bundled_instance.x1, [])
        with pytest.raises(ValueError):
            logistic_minibatch_gradient(bundled_instance, bundled_instance.x1, [10_000])

    @pytest.mark.parametrize(
        "indices",
        [
            [[3, 5]],  # 2-d: the gather would give a (1, 1, n) result
            np.array(3),  # 0-d
            [1.0, 2.0],  # floats: numpy would raise IndexError
            [True] + [False] * 199,  # a boolean list would be taken as a mask
            np.ones(200, dtype=bool),
            np.array([], dtype=np.int64),
            [-1],
            [0, 200],
        ],
        ids=["2d", "0d", "float", "bool-list", "bool-array", "empty-int", "negative", "past-end"],
    )
    def test_index_must_be_a_nonempty_1d_integer_array_in_range(self, bundled_instance, indices):
        with pytest.raises(ValueError):
            logistic_minibatch_gradient(bundled_instance, bundled_instance.x1, indices)

    def test_any_integer_dtype_is_accepted(self, bundled_instance):
        x = bundled_instance.x1
        expected = logistic_minibatch_gradient(bundled_instance, x, [3, 5, 127])
        for dtype in (np.int8, np.uint8, np.int32, np.uint64):
            got = logistic_minibatch_gradient(bundled_instance, x, np.array([3, 5, 127], dtype=dtype))
            assert np.array_equal(got, expected)
            assert got.shape == (bundled_instance.n,)


class TestProductsPinnedToMatmul:
    """The evaluators take their products from ``ndarray.dot``; on at
    least two features they must give the bits of the same formulas with
    ``@``, which tests and the ledger's oracle use."""

    @staticmethod
    def _weights(rows, labels, x):
        from scipy.special import expit

        return -labels * expit(-labels * (rows @ x))

    @pytest.mark.parametrize("seed", range(8))
    def test_gradient_minibatch_gradient_and_constraints(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        chunk = int(rng.choice([1, 3, 7, 4096]))  # one block, or several
        monkeypatch.setattr(logreg, "CHUNK_SAMPLES", chunk)
        n_samples, n = int(rng.integers(1, 30)), int(rng.integers(2, 12))
        labels = rng.choice([-1.0, 1.0], size=n_samples)
        features = rng.standard_normal((n_samples, n)) * (rng.random((n_samples, n)) < 0.7)
        inst = build_instance(Dataset(features=features, labels=labels),
                              m_lin=int(rng.integers(0, n)), seed=seed)
        for x in (3.0 * rng.standard_normal(n), np.zeros(n)):
            want = np.zeros(n)
            for start in range(0, n_samples, chunk):
                rows = features[start:start + chunk]
                block_grad = self._weights(rows, labels[start:start + chunk], x) @ rows
                want = block_grad if start == 0 else want + block_grad
            want /= n_samples
            assert inst.gradient(x).tobytes() == want.tobytes()

            for batch in (1, 2, 16):  # a one-row batch included
                idx = rng.integers(0, n_samples, size=batch)
                rows = features[idx]
                want = self._weights(rows, labels[idx], x) @ rows
                want /= batch
                got = logreg._minibatch_gradient(features, inst._neg_labels, x, idx)
                assert got.tobytes() == want.tobytes(), batch

            want = np.append(inst.A @ x - inst.b, x @ x - 1.0)
            assert inst.constraints(x).tobytes() == want.tobytes()


def assert_oracle_draw_is_the_checked_gradient(inst, x, batch, seed):
    """The oracle's unchecked kernel gives the bits of the public function
    on the indices a twin generator draws, one row per call, both for a
    one-off ``sample_gradient`` and for rows drawn in one call, and
    advances its generator alike."""
    oracle = inst.minibatch_oracle()
    for count in (1, 5):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = ([sample_gradient(oracle, x, batch, rng)] if count == 1
                 else [oracle.evaluate(x, row) for row in oracle.draw(rng, batch, count)])
        for got in drawn:
            idx = twin.integers(0, inst.dataset.n_samples, size=batch)
            assert np.array_equal(got, logistic_minibatch_gradient(inst, x, idx))
        assert rng.bit_generator.state == twin.bit_generator.state


class TestMinibatchKernel:
    @pytest.mark.parametrize("batch", [1, 16, 199, 200, 457])
    def test_bundled_instance(self, bundled_instance, batch):
        x = np.random.default_rng(batch).standard_normal(bundled_instance.n)
        for seed in range(3):
            assert_oracle_draw_is_the_checked_gradient(bundled_instance, x, batch, seed)

    @pytest.mark.parametrize("seed", range(6))
    def test_small_random_datasets(self, seed):
        # Batches past N draw repeated indices for certain.
        rng = np.random.default_rng(seed)
        n_samples, n = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        labels = rng.choice([-1.0, 1.0], size=n_samples)
        inst = build_instance(
            Dataset(features=rng.standard_normal((n_samples, n)), labels=labels), m_lin=1, seed=seed
        )
        x = 3.0 * rng.standard_normal(n)
        for batch in (1, 2, n_samples, n_samples + 1, 4 * n_samples + 3):
            assert_oracle_draw_is_the_checked_gradient(inst, x, batch, seed + 100)


class TestBundledData:
    def test_shape_and_labels(self, bundled_dataset):
        assert (bundled_dataset.n_features, bundled_dataset.n_samples) == (30, 200)
        assert set(np.unique(bundled_dataset.labels)) == {-1.0, 1.0}

    def test_only_the_exact_oracles_declare_exact(self, bundled_instance):
        problem = bundled_instance.problem()
        assert not bundled_instance.minibatch_oracle().exact
        assert exact_oracle(problem).exact
        assert gaussian_oracle(problem, 0.0).exact
        assert not gaussian_oracle(problem, 1.0).exact


class TestSecondOrder:
    def test_lagrangian_hessian_matches_central_differences(self, bundled_instance):
        inst = bundled_instance
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(3):
            x = rng.standard_normal(inst.n)
            y = rng.standard_normal(inst.m)

            def grad_lagrangian(point):
                return inst.gradient(point) + inst.jacobian(point).T @ y

            columns = [
                (grad_lagrangian(x + h * e) - grad_lagrangian(x - h * e)) / (2 * h)
                for e in np.eye(inst.n)
            ]
            fd = np.column_stack(columns)
            hess = inst.problem().lagrangian_hessian(x, y)
            assert np.max(np.abs(hess - fd)) <= 1e-7 * (1.0 + np.max(np.abs(hess)))

    @pytest.mark.parametrize("chunk", [37, logreg.CHUNK_SAMPLES, 4096])
    def test_chunked_hessian_equals_one_shot_product(self, a9a_shaped_instance, monkeypatch, chunk):
        # 3000 samples: blocks of 37 leave a short last block, the default
        # makes three blocks and 4096 one.  The full gradient is checked
        # against its one-shot product too.
        monkeypatch.setattr(logreg, "CHUNK_SAMPLES", chunk)
        inst = dataclasses.replace(a9a_shaped_instance)  # blocks are cut on first use
        rng = np.random.default_rng(6)
        x = 0.3 * rng.standard_normal(inst.n)
        y = rng.standard_normal(inst.m)
        d, labels = inst.dataset.features, inst.dataset.labels
        n_samples = inst.dataset.n_samples
        s = 1.0 / (1.0 + np.exp(-(d @ x)))
        dense = d.T @ (d * (s * (1 - s))[:, None]) / n_samples + 2.0 * y[-1] * np.eye(inst.n)
        hess = inst.lagrangian_hessian(x, y)
        assert np.array_equal(hess, hess.T)
        assert np.max(np.abs(hess - dense)) <= 1e-13 * np.max(np.abs(dense))
        one_shot = d.T @ (-labels / (1.0 + np.exp(labels * (d @ x)))) / n_samples
        grad = inst.gradient(x)
        assert np.linalg.norm(grad - one_shot) <= 1e-14 * np.linalg.norm(one_shot)

    @pytest.mark.parametrize("chunk", [37, logreg.CHUNK_SAMPLES, 4096])
    def test_variance_matches_dense_formula(self, a9a_shaped_instance, monkeypatch, chunk):
        from scipy.special import expit

        monkeypatch.setattr(logreg, "CHUNK_SAMPLES", chunk)
        inst = dataclasses.replace(a9a_shaped_instance)
        x = 0.3 * np.random.default_rng(7).standard_normal(inst.n)
        d, labels = inst.dataset.features, inst.dataset.labels
        per_sample = d * (-labels * expit(-labels * (d @ x)))[:, None]
        mean = per_sample.mean(axis=0)
        dense = np.mean(np.sum((per_sample - mean) ** 2, axis=1))
        assert inst.per_sample_variance(x) == pytest.approx(dense, rel=1e-14)


class _ProductSpy(np.ndarray):
    """Features that log each product with a vector: the vector's bytes
    and the rows it was multiplied by."""

    log: list = []

    def dot(self, other, out=None):
        self._note(other)
        return super().dot(other, out=out)

    def __matmul__(self, other):
        self._note(other)
        return super().__matmul__(other)

    def _note(self, other):
        if np.ndim(other) == 1:
            _ProductSpy.log.append((np.asarray(other).tobytes(), self.shape[0]))


def spied(inst):
    """A copy of ``inst`` whose features log their products with vectors."""
    dataset = Dataset(features=inst.dataset.features, labels=inst.dataset.labels)
    object.__setattr__(dataset, "features", dataset.features.view(_ProductSpy))
    return dataclasses.replace(inst, dataset=dataset)


class TestEvaluationRecord:
    """The objective, gradient and Hessian share a record of the last
    point evaluated; every value keeps the bits of the oracle evaluators,
    which compute their own products at each call."""

    @staticmethod
    def assert_oracle_bits(inst, x, y, order):
        for name in order:
            if name == "objective":
                assert inst.objective(x) == oracle_objective(inst, x)
            elif name == "gradient":
                assert inst.gradient(x).tobytes() == oracle_gradient(inst, x).tobytes()
            else:
                hess = inst.lagrangian_hessian(x, y)
                assert hess.tobytes() == oracle_hessian(inst, x, y).tobytes()

    @pytest.mark.parametrize("name", ["bundled_instance", "a9a_shaped_instance"])
    @pytest.mark.parametrize("first", ["objective", "gradient", "hessian"])
    def test_cold_record(self, request, name, first):
        # 200 samples are one short block; 3000 end in a block of 952.
        inst = dataclasses.replace(request.getfixturevalue(name))
        rng = np.random.default_rng(8)
        x, y = 0.3 * rng.standard_normal(inst.n), rng.standard_normal(inst.m)
        assert inst._last is None
        self.assert_oracle_bits(inst, x, y, [first])

    @pytest.mark.parametrize("name", ["bundled_instance", "a9a_shaped_instance"])
    def test_warm_record(self, request, name):
        inst = dataclasses.replace(request.getfixturevalue(name))
        rng = np.random.default_rng(9)
        for _ in range(3):
            x, y = 0.3 * rng.standard_normal(inst.n), rng.standard_normal(inst.m)
            # A Newton iterate's order, then each evaluator again at the same point.
            self.assert_oracle_bits(inst, x, y, ["objective", "hessian", "gradient"] * 2)
            assert inst._last.gradient is not None
            self.assert_oracle_bits(inst, x, -y, ["hessian", "objective", "gradient"])

    def test_key_is_the_bytes_of_x(self, a9a_shaped_instance):
        inst = dataclasses.replace(a9a_shaped_instance)
        rng = np.random.default_rng(10)
        x, y = 0.3 * rng.standard_normal(inst.n), rng.standard_normal(inst.m)
        inst.objective(x)
        inst.lagrangian_hessian(x, y)
        x[0] += 0.5  # the same object, other values
        self.assert_oracle_bits(inst, x, y, ["gradient", "objective", "hessian"])
        x[3] -= 0.25
        self.assert_oracle_bits(inst, x, y, ["objective", "gradient"])

    def test_a_returned_gradient_is_a_copy(self, a9a_shaped_instance):
        inst = dataclasses.replace(a9a_shaped_instance)
        x = 0.3 * np.random.default_rng(11).standard_normal(inst.n)
        inst.lagrangian_hessian(x, np.zeros(inst.m))
        want = oracle_gradient(inst, x)
        got = inst.gradient(x)
        got[:] = 7.0
        assert inst.gradient(x).tobytes() == want.tobytes()

    def test_each_newton_iterate_computes_its_margins_once(self, a9a_shaped_instance):
        # Every point the solve evaluates has its margins computed once:
        # an objective at a trial point leaves them for the Hessian and
        # the gradient there.  Only x0 and the iterates an identity-model
        # step reaches take them twice, from the gradient that yields
        # their multiplier and from the Hessian.
        inst = spied(a9a_shaped_instance)
        lip_gradf, lip_jac = a9a_shaped_instance.lipschitz_bounds()
        _ProductSpy.log = []
        ref = compute_reference(inst.problem(), SolverConfig(lip_gradf=lip_gradf, lip_jac=lip_jac))
        rows = collections.Counter()
        for key, block_rows in _ProductSpy.log:
            rows[key] += block_rows
        n_samples = inst.dataset.n_samples
        passes = collections.Counter(total / n_samples for total in rows.values())
        assert ref.newton_steps > 0
        assert passes[2] == ref.iterations - ref.newton_steps
        assert passes[1] >= ref.newton_steps
        assert passes.keys() <= {1, 2}

    def test_threads_sharing_one_instance_get_their_own_points(self, a9a_shaped_instance):
        # Each thread evaluates its own points in a Newton iterate's
        # order; a record used for another thread's point would show as a
        # wrong value.  Four threads on short switch intervals interleave
        # between every read and write of the record.
        inst = dataclasses.replace(a9a_shaped_instance)
        rng = np.random.default_rng(12)
        points = [(0.3 * rng.standard_normal(inst.n), rng.standard_normal(inst.m))
                  for _ in range(4)]
        want = [(oracle_objective(inst, x), oracle_hessian(inst, x, y).tobytes(),
                 oracle_gradient(inst, x).tobytes()) for x, y in points]
        wrong = []

        def work(i):
            x, y = points[i]
            for _ in range(10):
                got = (inst.objective(x), inst.lagrangian_hessian(x, y).tobytes(),
                       inst.gradient(x).tobytes())
                if got != want[i]:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(points))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
