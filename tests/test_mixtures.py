import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmmci import (
    BinaryMatrix,
    FlipProfile,
    InvalidInputError,
    MixtureDistribution,
    canonicalize,
    delta_reduce,
    format_matrix_text,
    mixture_distribution,
    parse_matrix_text,
)
import bmmci.mixtures
from bmmci.mixtures import channel_kernel, mixture_probs_table


def reference_mixture(rows, n_cols, flips):
    """Plain-loop channel law, independent of the library implementation."""
    probs = []
    for outcome in range(1 << n_cols):
        total = 0.0
        for row in rows:
            term = 1.0
            for col in range(n_cols):
                differs = ((row >> col) & 1) != ((outcome >> col) & 1)
                term *= flips[col] if differs else 1.0 - flips[col]
            total += term
        probs.append(total / len(rows))
    return probs


class TestCanonicalize:
    def test_sorts_rows(self):
        assert canonicalize([2, 1], 2).rows == (1, 2)

    def test_identity_on_sorted(self):
        assert canonicalize([3, 3], 2).rows == (3, 3)

    def test_single_column(self):
        assert canonicalize([1, 0, 1], 1).rows == (0, 1, 1)

    def test_rejects_word_exceeding_width(self):
        with pytest.raises(InvalidInputError):
            canonicalize([4], 2)
        with pytest.raises(InvalidInputError):
            canonicalize([-1], 2)

    def test_rejects_non_integer_rows(self):
        with pytest.raises(InvalidInputError, match="rows must be integers"):
            BinaryMatrix((1.5,), 2)
        with pytest.raises(InvalidInputError, match="rows must be integers"):
            canonicalize([1, "1"], 2)

    @pytest.mark.parametrize("rows,named", [((9, 4, 5), 4), ((-3, 9), -3)])
    def test_names_smallest_row_out_of_range(self, rows, named):
        with pytest.raises(InvalidInputError,
                           match=f"^row {named} does not fit in 2 bits$"):
            BinaryMatrix(rows, 2)

    def test_names_huge_row_by_a_bound(self):
        # str() of a 5,000-digit int raises ValueError; the message gives a
        # lower bound instead
        limit = sys.get_int_max_str_digits()
        with pytest.raises(InvalidInputError,
                           match=rf"^row at least 10\*\*{limit} does not fit"):
            BinaryMatrix((0, 10**4999), 3)

    def test_rejects_bad_width(self):
        with pytest.raises(InvalidInputError):
            canonicalize([0], 0)
        with pytest.raises(InvalidInputError):
            canonicalize([0], 31)

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=8),
           st.randoms(use_true_random=False))
    def test_permutation_invariant(self, rows, rnd):
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        assert canonicalize(rows, 3) == canonicalize(shuffled, 3)


class TestMixtureDistribution:
    def test_single_row_channel_law(self):
        d = mixture_distribution(canonicalize([0], 1), FlipProfile((0.1,)))
        assert d.probs == pytest.approx([0.9, 0.1], abs=1e-15)

    @pytest.mark.parametrize("f", [0.0, 0.2, 0.5, 0.77])
    def test_complementary_rows_average_out(self, f):
        d = mixture_distribution(canonicalize([0, 1], 1), FlipProfile((f,)))
        assert d.probs == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_three_row_majority(self):
        d = mixture_distribution(canonicalize([0, 0, 1], 1), FlipProfile((0.1,)))
        assert d.probs[0] == pytest.approx(1.9 / 3, abs=1e-15)
        assert d.probs[1] == pytest.approx(1.1 / 3, abs=1e-15)
        # same value through the symmetric-offset form (1 +- eta)/2
        eta = (1 - 2 * 0.1) / 3
        assert d.probs[0] == pytest.approx((1 + eta) / 2, abs=1e-15)

    def test_matches_reference_on_profile(self):
        rows, flips = [1, 4, 6, 6], (0.15, 0.4, 0.05)
        d = mixture_distribution(canonicalize(rows, 3), FlipProfile(flips))
        assert d.probs == pytest.approx(reference_mixture(rows, 3, flips),
                                        abs=1e-14)

    def test_profile_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            mixture_distribution(canonicalize([0], 2), FlipProfile((0.1,)))

    def test_uniform_at_half(self):
        d = mixture_distribution(canonicalize([5, 2, 2], 3),
                                 FlipProfile.constant(0.5, 3))
        assert d.probs == pytest.approx([1 / 8] * 8, abs=1e-15)

    def test_row_permutation_invariant(self):
        fp = FlipProfile((0.2, 0.3))
        d1 = mixture_distribution(canonicalize([3, 0, 2], 2), fp)
        d2 = mixture_distribution(canonicalize([2, 3, 0], 2), fp)
        assert np.array_equal(d1.probs, d2.probs)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 15), min_size=1, max_size=10),
           st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    def test_normalization_fuzz(self, rows, flips):
        d = mixture_distribution(canonicalize(rows, 4), FlipProfile(flips))
        assert abs(float(d.probs.sum()) - 1.0) <= 1e-12
        assert d.probs.min() >= 0.0

    def test_kernel_matches_kron_chain(self):
        # each outcome's probability is the same product, in the same
        # order, as a chain of Kronecker products gives
        rng = np.random.default_rng(11)
        for n_cols in range(1, 12):
            for _ in range(20):
                flips = rng.random(n_cols)
                flips[rng.random(n_cols) < 0.3] = 0.0
                expected = np.ones(1)
                for f in flips:
                    expected = np.kron(np.array([1.0 - f, f]), expected)
                assert np.array_equal(
                    channel_kernel(FlipProfile(tuple(flips))), expected)

    def test_table_matches_gathered_sum(self):
        # the table adds one row at a time; gathering every (source, row,
        # outcome) term and summing over rows must give the same bits, in
        # row chunks or not; 10,000 sources at L = 6 span several chunks,
        # the last one short
        rng = np.random.default_rng(5)
        shapes = [(40, n_rows, n_cols) for n_rows in range(1, 13)
                  for n_cols in range(1, 7)] + [(10_000, 3, 6)]
        assert 10_000 * 8 * 2**6 > 2 * bmmci.mixtures._CHUNK_BYTES
        for n_sources, n_rows, n_cols in shapes:
            rows = rng.integers(0, 1 << n_cols, size=(n_sources, n_rows))
            kernel = channel_kernel(FlipProfile(tuple(rng.random(n_cols))))
            outcomes = np.arange(1 << n_cols)
            gathered = kernel[rows[:, :, None] ^ outcomes[None, None, :]]
            expected = gathered.sum(axis=1) / n_rows
            assert np.array_equal(mixture_probs_table(rows, kernel),
                                  expected)

    def test_few_sources_shift_the_kernel_to_their_words(self):
        # 3 sources of 3 rows at L = 10: the kernel is shifted to at most 9
        # words, not to all 1,024 (16.8 MB with its index)
        rows = np.random.default_rng(1).integers(0, 1 << 10, size=(3, 3))
        kernel = channel_kernel(FlipProfile.constant(0.05, 10))
        tracemalloc.start()
        try:
            table = mixture_probs_table(rows, kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        outcomes = np.arange(1 << 10)
        assert np.array_equal(table, kernel[rows[:, :, None] ^ outcomes]
                              .sum(axis=1) / 3)

    @pytest.mark.parametrize("rows", [(0,), (0, 5, 5, 9)])
    def test_peak_within_charged_bytes(self, monkeypatch, rows):
        # the index and the gather over the distinct rows live beside the
        # kernel, the outcome words and the mixture, and all count
        charged = []
        check = bmmci.mixtures.check_budget
        monkeypatch.setattr(bmmci.mixtures, "check_budget",
                            lambda n, what: charged.append(n) or check(n, what))
        source = canonicalize(rows, 18)
        profile = FlipProfile.constant(0.1, 18)
        tracemalloc.start()
        try:
            mixture_distribution(source, profile)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(charged) == 1
        assert peak <= charged[0]

    def test_rejects_unnormalized_vector(self):
        with pytest.raises(InvalidInputError):
            MixtureDistribution(np.array([0.5, 0.6]), 1)
        with pytest.raises(InvalidInputError):
            MixtureDistribution(np.array([1.1, -0.1]), 1)

    @pytest.mark.parametrize("probs", [
        [math.nan, 1.0], [0.5, math.nan], [math.inf, 0.0], [1.0, -math.inf],
    ])
    def test_rejects_non_finite_vector(self, probs):
        # NaN fails neither the negative test nor the sum test
        with pytest.raises(InvalidInputError, match="non-finite"):
            MixtureDistribution(np.array(probs), 1)


def multiset_intersection_size(xs, ys):
    """Two-pointer count over sorted lists, independent of Counter logic."""
    xs, ys = sorted(xs), sorted(ys)
    i = j = hits = 0
    while i < len(xs) and j < len(ys):
        if xs[i] == ys[j]:
            hits += 1
            i += 1
            j += 1
        elif xs[i] < ys[j]:
            i += 1
        else:
            j += 1
    return hits


class TestDeltaReduce:
    def test_one_shared_row(self):
        res = delta_reduce(canonicalize([0, 2], 2), canonicalize([0, 1], 2))
        assert res.delta_a.rows == (2,)
        assert res.delta_b.rows == (1,)
        assert res.removed_count == 1

    def test_identical_matrices_empty_remainder(self):
        m = canonicalize([1, 2, 2], 2)
        res = delta_reduce(m, m)
        assert res.delta_a.n_rows == 0 and res.delta_b.n_rows == 0
        assert res.removed_count == 3

    def test_multiset_overlap(self):
        res = delta_reduce(canonicalize([0, 0, 1], 1), canonicalize([0, 1, 1], 1))
        assert res.delta_a.rows == (0,)
        assert res.delta_b.rows == (1,)
        assert res.removed_count == 2

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            delta_reduce(canonicalize([0], 1), canonicalize([0, 1], 1))
        with pytest.raises(InvalidInputError):
            delta_reduce(canonicalize([0], 1), canonicalize([0], 2))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 7), min_size=1, max_size=8), st.data())
    def test_remainders_disjoint_and_count_matches(self, rows_a, data):
        rows_b = data.draw(st.lists(st.integers(0, 7),
                                    min_size=len(rows_a), max_size=len(rows_a)))
        a, b = canonicalize(rows_a, 3), canonicalize(rows_b, 3)
        res = delta_reduce(a, b)
        assert not set(res.delta_a.rows) & set(res.delta_b.rows)
        assert res.removed_count == multiset_intersection_size(rows_a, rows_b)
        assert res.removed_count + res.delta_a.n_rows == a.n_rows


class TestMatrixText:
    def test_round_trip(self):
        m = canonicalize([0, 5, 3], 3)
        assert parse_matrix_text(format_matrix_text(m)) == m

    def test_column_order(self):
        # first character of a line is column 0
        m = parse_matrix_text("10\n")
        assert m.rows == (1,)
        m = parse_matrix_text("01\n")
        assert m.rows == (2,)

    def test_blank_line_terminates(self):
        m = parse_matrix_text("11\n\n00\n")
        assert m.rows == (3,)

    def test_rejects_ragged_rows(self):
        with pytest.raises(InvalidInputError):
            parse_matrix_text("10\n011\n")

    def test_rejects_bad_characters(self):
        with pytest.raises(InvalidInputError):
            parse_matrix_text("1x\n")

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            parse_matrix_text("\n")

    def test_rejects_too_many_columns(self):
        parse_matrix_text("1" * 30 + "\n")
        with pytest.raises(InvalidInputError, match="31 columns"):
            parse_matrix_text("1" * 31 + "\n")

    @given(st.data())
    def test_matches_per_bit_reference(self, data):
        n_cols = data.draw(st.integers(1, 30))
        word = st.integers(0, (1 << n_cols) - 1)
        rows = data.draw(st.lists(
            st.one_of(word, st.booleans(), word.map(np.int64),
                      word.map(np.uint32)), min_size=1, max_size=8))
        m = BinaryMatrix(tuple(rows), n_cols)
        reference = "".join(
            "".join("1" if (r >> l) & 1 else "0" for l in range(n_cols)) + "\n"
            for r in sorted(rows))
        assert format_matrix_text(m) == reference
        assert parse_matrix_text(reference) == m

    @settings(max_examples=300)
    @given(st.one_of(st.text(), st.text(alphabet="01\n\r\t \x0bx", max_size=80)))
    def test_every_text_parses_or_is_refused(self, text):
        try:
            m = parse_matrix_text(text)
        except InvalidInputError:
            return
        assert parse_matrix_text(format_matrix_text(m)) == m
