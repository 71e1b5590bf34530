import math

import pytest

from bmmci import (
    ContractViolationError,
    FlipProfile,
    InvalidInputError,
    MatrixPair,
    canonicalize,
    eliminate_column,
    full_reduction,
    g_map,
    is_critical_column,
    is_critical_pair,
    is_match_quadruple,
    matches_parity_split_form,
    merge_columns,
    merged_flip,
    pair_ci,
    quadruple_partition,
    reduction_lower_bound,
    regularity_degree,
)
from bmmci.oracle import random_pair_stream
from conftest import random_unequal_pair


def make_pair(rows_a, rows_b, n_cols, flip=0.1, flips=None):
    profile = FlipProfile(flips) if flips else FlipProfile.constant(flip, n_cols)
    return MatrixPair(a=canonicalize(rows_a, n_cols),
                      b=canonicalize(rows_b, n_cols), profile=profile)


# a = {00, 11}, b = {01, 10} with bit l = column l
PARITY_PAIR = make_pair([0, 3], [1, 2], 2, flip=0.3)
# two words at Hamming distance one (column 0), multiplicities swapped
HAMMING_PAIR_L2 = make_pair([0, 1, 1], [0, 0, 1], 2, flip=0.1)


class TestMatrixPair:
    @pytest.mark.parametrize("rows_b,n_cols_b,message", [
        ([0, 1], 3, "column mismatch: 2 vs 3"),
        ([0, 1, 2], 2, "row-count mismatch: 2 vs 3"),
    ])
    def test_refuses_differing_shapes(self, rows_b, n_cols_b, message):
        with pytest.raises(InvalidInputError, match=message):
            MatrixPair(a=canonicalize([0, 3], 2),
                       b=canonicalize(rows_b, n_cols_b),
                       profile=FlipProfile.constant(0.1, 2))


class TestGMap:
    def test_values(self):
        assert g_map(0.5) == 0.0
        assert g_map(0.0) == 1.0
        assert g_map(0.1) == pytest.approx(0.8, abs=1e-15)

    def test_range(self):
        with pytest.raises(InvalidInputError):
            g_map(1.2)


class TestMergedFlip:
    @pytest.mark.parametrize("other", [0.0, 0.1, 0.25, 0.3, 1.0])
    def test_half_is_absorbing(self, other):
        assert merged_flip(0.5, other) == 0.5

    @pytest.mark.parametrize("f", [0.0, 0.2, 0.7, 1.0])
    def test_zero_is_identity(self, f):
        assert merged_flip(0.0, f) == f

    def test_direct_value(self):
        assert merged_flip(0.1, 0.2) == pytest.approx(0.26, abs=1e-15)

    def test_informativeness_multiplies(self, rng):
        for _ in range(200):
            fi, fj = rng.random(2)
            lhs = g_map(merged_flip(fi, fj))
            rhs = g_map(fi) * g_map(fj)
            assert lhs == pytest.approx(rhs, abs=1e-15)

    def test_range_validation(self):
        with pytest.raises(InvalidInputError):
            merged_flip(-0.1, 0.5)


class TestCriticalColumn:
    def test_hamming_pair_columns(self):
        # the differing column equalizes the pair when removed
        assert is_critical_column(HAMMING_PAIR_L2, 0)
        # the constant column does not
        assert not is_critical_column(HAMMING_PAIR_L2, 1)

    def test_independent_differences(self):
        # a = {00, 01}, b = {00, 10} as text rows: neither column is critical
        pair = make_pair([0, 2], [0, 1], 2)
        assert not is_critical_column(pair, 0)
        assert not is_critical_column(pair, 1)

    def test_equal_matrices_trivially_critical(self):
        pair = make_pair([1, 2], [1, 2], 2)
        assert is_critical_column(pair, 0)
        assert is_critical_column(pair, 1)

    def test_index_out_of_range(self):
        with pytest.raises(InvalidInputError):
            is_critical_column(HAMMING_PAIR_L2, 2)


class TestCriticalPair:
    def test_parity_pair_is_critical(self):
        assert is_critical_pair(PARITY_PAIR)
        assert matches_parity_split_form(PARITY_PAIR)

    def test_hamming_pair_is_not_critical(self):
        assert not is_critical_pair(HAMMING_PAIR_L2)
        assert not matches_parity_split_form(HAMMING_PAIR_L2)

    def test_single_column_unequal_pair(self):
        pair = make_pair([0, 0], [0, 1], 1)
        assert is_critical_pair(pair)
        assert matches_parity_split_form(pair)

    def test_equal_input_rejected(self):
        pair = make_pair([0, 1], [0, 1], 1)
        with pytest.raises(InvalidInputError):
            is_critical_pair(pair)

    def test_characterizations_agree_on_random_pairs(self, rng):
        for _ in range(300):
            n_rows = int(rng.integers(1, 5))
            n_cols = int(rng.integers(1, 4))
            pair = random_unequal_pair(rng, n_rows, n_cols, 0.2)
            assert is_critical_pair(pair) == matches_parity_split_form(pair)


class TestEliminateColumn:
    def test_shape_preserved(self):
        pair3 = make_pair([0, 1, 1], [0, 0, 1], 3)
        out = eliminate_column(pair3, 1)
        assert out.n_cols == 2
        assert out.a != out.b
        assert len(out.profile) == 2

    def test_critical_column_rejected(self):
        with pytest.raises(ContractViolationError):
            eliminate_column(HAMMING_PAIR_L2, 0)

    def test_constant_shared_column_is_lossless(self):
        before = pair_ci(HAMMING_PAIR_L2)
        after = pair_ci(eliminate_column(HAMMING_PAIR_L2, 1))
        assert after == pytest.approx(before, abs=1e-10)

    def test_never_increases_ci(self, rng):
        checked = 0
        while checked < 60:
            pair = random_unequal_pair(rng, int(rng.integers(2, 4)),
                                       int(rng.integers(2, 4)),
                                       float(rng.uniform(0.05, 0.45)))
            target = next((c for c in range(pair.n_cols)
                           if not is_critical_column(pair, c)), None)
            if target is None:
                continue
            assert pair_ci(eliminate_column(pair, target)) <= pair_ci(pair) + 1e-9
            checked += 1


class TestMergeColumns:
    def test_parity_pair_merge(self):
        out = merge_columns(PARITY_PAIR, 0, 1)
        assert out.a.rows == (0, 0)
        assert out.b.rows == (1, 1)
        assert out.profile.flips == (pytest.approx(0.42, abs=1e-15),)

    def test_half_column_absorbs(self):
        pair = make_pair([0, 3], [1, 2], 2, flips=(0.5, 0.2))
        out = merge_columns(pair, 0, 1)
        assert out.profile.flips[0] == 0.5

    def test_bad_indices(self):
        with pytest.raises(InvalidInputError):
            merge_columns(PARITY_PAIR, 1, 1)
        with pytest.raises(InvalidInputError):
            merge_columns(PARITY_PAIR, 0, 2)
        with pytest.raises(InvalidInputError):
            merge_columns(PARITY_PAIR, 1, 0)

    def test_bad_indices_message(self):
        # merge_columns and quadruple_partition refuse with the same words
        for call in (merge_columns, quadruple_partition):
            with pytest.raises(InvalidInputError,
                               match=r"need 0 <= i < j < 2, got i=1, j=0"):
                call(PARITY_PAIR, 1, 0)

    def test_merge_preserves_criticality_and_regularity(self, rng):
        profile = FlipProfile.constant(0.35, 3)
        for pair in random_pair_stream(5, 3, 60, seed=7, profile=profile,
                                       critical_only=True):
            degree = regularity_degree(pair)
            merged = merge_columns(pair, 0, 1)
            assert is_critical_pair(merged)
            assert regularity_degree(merged) >= degree + 1
            assert pair_ci(merged) <= pair_ci(pair) + 1e-9

    def test_merge_keeps_criticality_exhaustively_at_small_sizes(self):
        from itertools import combinations

        from bmmci.oracle import enumerate_matrices

        for n_rows in range(1, 5):
            for n_cols in range(2, 4):
                profile = FlipProfile.constant(0.3, n_cols)
                mats = list(enumerate_matrices(n_rows, n_cols))
                for ma, mb in combinations(mats, 2):
                    pair = MatrixPair(a=ma, b=mb, profile=profile)
                    # cheap structural pre-filter, then the defining check
                    if not matches_parity_split_form(pair):
                        continue
                    assert is_critical_pair(pair)
                    for i in range(n_cols - 1):
                        for j in range(i + 1, n_cols):
                            merged = merge_columns(pair, i, j)
                            assert is_critical_pair(merged)
                            assert (regularity_degree(merged)
                                    >= regularity_degree(pair) + 1)

    def test_lossless_chain_on_balanced_parity_pair(self):
        # one side holds 2 copies of each even word and 1 of each odd word,
        # the other the reverse: merging loses nothing at any step
        evens = [w for w in range(8) if bin(w).count("1") % 2 == 0]
        odds = [w for w in range(8) if bin(w).count("1") % 2 == 1]
        pair = make_pair(evens * 2 + odds, odds * 2 + evens, 3, flip=0.3)
        trace = full_reduction(pair, record_ci=True)
        assert trace.alpha == 0
        first = trace.step_cis[0]
        for value in trace.step_cis[1:]:
            assert value == pytest.approx(first, abs=1e-9)


class TestRegularityDegree:
    def test_multiplicity_one(self):
        assert regularity_degree(PARITY_PAIR) == 0

    def test_multiplicity_four(self):
        pair = make_pair([0] * 4, [1] * 4, 1)
        assert regularity_degree(pair) == 2

    def test_merge_bumps_degree(self):
        assert regularity_degree(merge_columns(PARITY_PAIR, 0, 1)) >= 1

    def test_empty_remainder_is_zero(self):
        pair = make_pair([0, 1], [0, 1], 1)
        assert regularity_degree(pair) == 0


class TestQuadruplePartition:
    def test_single_quadruple(self):
        part = quadruple_partition(PARITY_PAIR, 0, 1)
        assert len(part.quads) == 1
        s1, r1, s2, r2 = part.quads[0]
        assert sorted((s1, r1)) == [0, 1]
        assert sorted((s2, r2)) == [0, 1]

    def test_two_quadruples_with_doubled_rows(self):
        pair = make_pair([0, 0, 3, 3], [1, 1, 2, 2], 2, flip=0.3)
        part = quadruple_partition(pair, 0, 1)
        assert len(part.quads) == 2

    def test_every_quadruple_satisfies_conditions(self, rng):
        profile = FlipProfile.constant(0.3, 3)
        for pair in random_pair_stream(8, 3, 40, seed=11, profile=profile,
                                       critical_only=True):
            i = int(rng.integers(0, 2))
            j = int(rng.integers(i + 1, 3))
            part = quadruple_partition(pair, i, j)
            seen_a, seen_b = [], []
            for quad in part.quads:
                assert is_match_quadruple(part.delta_a, part.delta_b, quad, i, j)
                seen_a += [quad[0], quad[1]]
                seen_b += [quad[2], quad[3]]
            assert sorted(seen_a) == list(range(part.delta_a.n_rows))
            assert sorted(seen_b) == list(range(part.delta_b.n_rows))

    def test_non_critical_pair_rejected(self):
        with pytest.raises(ContractViolationError):
            quadruple_partition(HAMMING_PAIR_L2, 0, 1)

    def test_equal_pair_rejected(self):
        pair = make_pair([0, 1], [0, 1], 2)
        with pytest.raises(ContractViolationError):
            quadruple_partition(pair, 0, 1)


class TestFullReduction:
    def test_hamming_pair_three_columns(self):
        pair = make_pair([0, 1, 1], [0, 0, 1], 3, flip=0.1)
        trace = full_reduction(pair)
        assert trace.alpha == 2
        assert trace.f_br == 0.1
        assert abs(trace.p_br_a - trace.p_br_b) == pytest.approx(0.8 / 3,
                                                                 abs=1e-12)
        assert all(lossless for _, lossless in trace.eliminated_columns)

    def test_parity_pair(self):
        trace = full_reduction(PARITY_PAIR)
        assert trace.alpha == 0
        assert trace.f_br == pytest.approx(0.42, abs=1e-15)
        assert abs(trace.p_br_a - trace.p_br_b) == pytest.approx(0.16, abs=1e-12)

    def test_single_column_nothing_to_do(self):
        pair = make_pair([0, 0], [0, 1], 1, flip=0.2)
        trace = full_reduction(pair)
        assert trace.alpha == 0
        assert trace.merged_sequence == ()
        assert trace.f_br == 0.2

    def test_equal_input_rejected(self):
        with pytest.raises(InvalidInputError):
            full_reduction(make_pair([0, 1], [0, 1], 2))

    def test_merge_order_invariance_on_critical_pairs(self):
        profile = FlipProfile.constant(0.3, 3)
        for pair in random_pair_stream(4, 3, 50, seed=3, profile=profile,
                                       critical_only=True):
            left = full_reduction(pair, merge_order="left_to_right")
            right = full_reduction(pair, merge_order="right_to_left")
            assert left.f_br == pytest.approx(right.f_br, abs=1e-12)
            assert left.p_br_a == pytest.approx(right.p_br_a, abs=1e-12)
            assert left.p_br_b == pytest.approx(right.p_br_b, abs=1e-12)

    def test_gap_lower_bound_on_random_pairs(self, rng):
        for _ in range(150):
            n_rows = int(rng.integers(2, 5))
            n_cols = int(rng.integers(1, 4))
            flip = float(rng.uniform(0.0, 0.5))
            pair = random_unequal_pair(rng, n_rows, n_cols, flip)
            trace = full_reduction(pair)
            floor = ((2 * (1 - 2 * flip)) ** (n_cols - trace.alpha)
                     / (2 * n_rows))
            assert abs(trace.p_br_a - trace.p_br_b) >= floor - 1e-12


class TestReductionLowerBound:
    def test_hamming_pair_value(self):
        pair = make_pair([0, 1, 1], [0, 0, 1], 3, flip=0.1)
        expected = -0.5 * math.log1p(-(0.8 / 3) ** 2)
        assert reduction_lower_bound(pair) == pytest.approx(expected, abs=1e-12)

    def test_parity_pair_value(self):
        expected = -0.5 * math.log1p(-0.16 ** 2)
        assert reduction_lower_bound(PARITY_PAIR) == pytest.approx(expected,
                                                                   abs=1e-12)

    def test_uninformative_channel(self):
        pair = make_pair([0, 3], [1, 2], 2, flip=0.5)
        assert reduction_lower_bound(pair) == 0.0

    def test_constant_profile_required(self):
        pair = make_pair([0, 3], [1, 2], 2, flips=(0.3, 0.1))
        with pytest.raises(InvalidInputError):
            reduction_lower_bound(pair)

    def test_never_exceeds_true_value(self, rng):
        for _ in range(100):
            pair = random_unequal_pair(rng, int(rng.integers(2, 5)),
                                       int(rng.integers(1, 4)),
                                       float(rng.uniform(0.02, 0.48)))
            bound = reduction_lower_bound(pair)
            value = pair_ci(pair)
            if math.isinf(bound):
                assert math.isinf(value)
            else:
                assert bound <= value + 1e-9
