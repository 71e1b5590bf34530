import decimal
import math
import tracemalloc
from decimal import Decimal

import pytest

from bmmci import (
    FlipProfile,
    InvalidInputError,
    UnsupportedRegimeError,
    build_even_n_pair,
    build_hamming_one_pair,
    build_parity_split_pair,
    decompose,
    pair_ci,
    phase_sweep,
    worst_case_ci_bounds,
    worst_case_ci_bounds_profile,
)
from bmmci.bounds import active_width


def sym(x):
    return math.inf if abs(x) >= 1 else -0.5 * math.log1p(-x * x)


def tight_by_closed_conditions(n_rows, n_cols):
    """Independent restatement of the exactness conditions above threshold."""
    if n_rows & (n_rows - 1) == 0 and n_rows <= 2 ** (n_cols - 1):
        return True
    block = 2 ** (n_cols - 1)
    return n_rows % block == 0 and (n_rows // block) % 2 == 1 and n_rows // block >= 3


class TestDecompose:
    @pytest.mark.parametrize("n,cal,expected", [
        (2, 2, (1, 0)),
        (12, 3, (3, 0)),
        (10, 3, (1, 6)),
        (3, 1, (3, 0)),
        (10, 2, (5, 0)),
        (4, 2, (1, 2)),
    ])
    def test_values(self, n, cal, expected):
        assert decompose(n, cal) == expected

    def test_invariants_over_grid(self):
        for n in range(1, 65):
            for cal in range(1, n.bit_length() + 1):
                k, r = decompose(n, cal)
                assert k % 2 == 1 and k >= 1
                assert 0 <= r < 2 ** cal
                assert 2 ** (cal - 1) * k + r == n

    def test_precondition(self):
        with pytest.raises(InvalidInputError):
            decompose(3, 3)


class TestConstantBounds:
    def test_low_noise_odd_exact(self):
        report = worst_case_ci_bounds(3, 2, 0.1)
        assert report.lower == report.upper == pytest.approx(sym(0.8 / 3),
                                                             abs=1e-15)
        assert report.regime == "low_noise_odd"
        assert report.tight

    def test_low_noise_even_sandwich(self):
        report = worst_case_ci_bounds(4, 2, 0.1)
        assert report.lower == pytest.approx(sym(0.2), abs=1e-15)
        eta3 = 0.8 / 3
        expected_upper = -math.log(0.25 + 0.75 * math.sqrt(1 - eta3 ** 2))
        assert report.upper == pytest.approx(expected_upper, abs=1e-15)
        assert report.regime == "low_noise_even"
        assert not report.tight

    def test_high_noise_tight(self):
        report = worst_case_ci_bounds(2, 2, 0.3)
        assert report.lower == report.upper == pytest.approx(sym(0.16),
                                                             abs=1e-15)
        assert report.regime == "high_noise"
        assert report.tight
        assert report.decomposition.r == 0

    def test_folding_above_half(self):
        low = worst_case_ci_bounds(3, 2, 0.1)
        high = worst_case_ci_bounds(3, 2, 0.9)
        assert high.f_folded and not low.f_folded
        assert high.lower == low.lower

    def test_range_validation(self):
        with pytest.raises(InvalidInputError):
            worst_case_ci_bounds(0, 2, 0.1)
        with pytest.raises(InvalidInputError):
            worst_case_ci_bounds(2, 0, 0.1)
        with pytest.raises(InvalidInputError):
            worst_case_ci_bounds(2, 2, 1.5)

    def test_noiseless_single_row(self):
        report = worst_case_ci_bounds(1, 2, 0.0)
        assert math.isinf(report.lower) and math.isinf(report.upper)

    def test_tight_flag_matches_closed_conditions(self):
        for n in range(1, 65):
            for l in range(1, 7):
                report = worst_case_ci_bounds(n, l, 0.3)
                assert report.tight == tight_by_closed_conditions(n, l), (n, l)

    def test_sandwich_always_ordered(self):
        for n in range(1, 20):
            for l in range(1, 5):
                for f in (0.0, 0.1, 0.25, 0.3, 0.49, 0.5):
                    report = worst_case_ci_bounds(n, l, f)
                    assert report.lower <= report.upper + 1e-12


class TestProfileBounds:
    def test_constant_profile_specializes(self):
        for n, l, f in [(2, 2, 0.3), (5, 3, 0.4), (12, 3, 0.3)]:
            const = worst_case_ci_bounds(n, l, f)
            general = worst_case_ci_bounds_profile(n, l,
                                                   FlipProfile.constant(f, l))
            assert general.lower == pytest.approx(const.lower, abs=1e-15)
            assert general.upper == pytest.approx(const.upper, abs=1e-15)
            assert general.tight == const.tight
            assert general.regime == "generalized"

    def test_single_noisy_column(self):
        report = worst_case_ci_bounds_profile(3, 2, FlipProfile((0.3, 0.1)))
        assert report.lower == pytest.approx(sym(0.4 / 3), abs=1e-15)
        assert report.tight  # N = 2**0 * 3 with odd multiplier
        assert report.decomposition.cal == 1

    def test_two_noisy_columns_tight(self):
        report = worst_case_ci_bounds_profile(10, 2, FlipProfile((0.3, 0.3)))
        assert report.decomposition.cal == 2
        assert report.decomposition.k == 5
        assert report.decomposition.r == 0
        assert report.tight

    def test_uses_largest_rates(self):
        report = worst_case_ci_bounds_profile(4, 3, FlipProfile((0.3, 0.45, 0.1)))
        # two columns exceed 1/4, so epsilon uses 0.45 and 0.3
        expected_eps = 2 * (1 - 0.9) * (1 - 0.6) / 4
        assert report.decomposition.epsilon == pytest.approx(expected_eps,
                                                             abs=1e-15)

    def test_all_quiet_columns_unsupported(self):
        with pytest.raises(UnsupportedRegimeError):
            worst_case_ci_bounds_profile(3, 2, FlipProfile((0.1, 0.2)))

    def test_folds_entries_above_half(self):
        report = worst_case_ci_bounds_profile(3, 2, FlipProfile((0.7, 0.1)))
        same = worst_case_ci_bounds_profile(3, 2, FlipProfile((0.3, 0.1)))
        assert report.f_folded
        # 1 - 0.7 is one ulp away from 0.3, so exact equality is not expected
        assert report.lower == pytest.approx(same.lower, abs=1e-15)


class TestHammingOnePair:
    def test_three_row_single_column(self):
        pair = build_hamming_one_pair(3, 1, 0.1).pair
        assert pair.a.rows == (0, 1, 1)
        assert pair.b.rows == (0, 0, 1)

    def test_single_row(self):
        pair = build_hamming_one_pair(1, 2, 0.1).pair
        assert pair.a.rows == (1,)
        assert pair.b.rows == (0,)

    def test_even_rejected(self):
        with pytest.raises(InvalidInputError):
            build_hamming_one_pair(4, 2, 0.1)

    @pytest.mark.parametrize("n,l,f", [(5, 3, 0.2), (3, 2, 0.05), (7, 1, 0.25),
                                       (9, 3, 0.1)])
    def test_value_realized(self, n, l, f):
        extremal = build_hamming_one_pair(n, l, f)
        assert pair_ci(extremal.pair) == pytest.approx(extremal.predicted_ci,
                                                       abs=1e-9)
        assert extremal.predicted_ci == pytest.approx(sym((1 - 2 * f) / n),
                                                      abs=1e-15)


class TestSingleRowSmallFlip:
    """At N = 1 the gap 1 - 2f keeps no digit of a flip below 2**-54; the
    value -log(4f(1 - f))/2 must not depend on it."""

    FLIPS = (5e-324, 1e-300, 1e-100, 1e-17, 1e-12, 1e-9, 1e-3, 0.1, 0.25)

    @staticmethod
    def exact(f):
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            f = Decimal(f)
            return float(-(4 * f * (1 - f)).ln() / 2)

    @pytest.mark.parametrize("f", FLIPS)
    def test_every_low_noise_value(self, f):
        value = self.exact(f)
        for l in (1, 2, 3):
            report = worst_case_ci_bounds(1, l, f)
            assert report.lower == report.upper
            assert report.lower == pytest.approx(value, rel=1e-15, abs=0)
            # folded back to 1 - (1 - f), which is 0 for a flip below 2**-54
            mirror = 1 - f
            assert worst_case_ci_bounds(1, l, mirror).lower == pytest.approx(
                self.exact(1 - mirror), rel=1e-15, abs=0)
            extremal = build_hamming_one_pair(1, l, f)
            assert extremal.predicted_ci == report.lower
            assert pair_ci(extremal.pair) == pytest.approx(value, rel=1e-14,
                                                           abs=0)
            ((_, low, high),) = phase_sweep(1, l, [f])
            assert low == high == report.lower

    def test_endpoints(self):
        assert worst_case_ci_bounds(1, 2, 0.0).lower == math.inf
        ((_, low, high),) = phase_sweep(1, 2, [0.5])
        assert math.copysign(1.0, low) == math.copysign(1.0, high) == 1.0
        assert low == high == 0.0


class TestEvenNPair:
    def test_two_row_shape(self):
        pair = build_even_n_pair(2, 1, 0.1).pair
        assert pair.a.rows == (1, 1)
        assert pair.b.rows == (0, 1)

    def test_odd_rejected(self):
        with pytest.raises(InvalidInputError):
            build_even_n_pair(3, 1, 0.1)

    @pytest.mark.parametrize("n,l,f", [(4, 2, 0.1), (2, 2, 0.2), (6, 3, 0.05)])
    def test_value_and_bound(self, n, l, f):
        extremal = build_even_n_pair(n, l, f)
        actual = pair_ci(extremal.pair)
        assert actual == pytest.approx(extremal.predicted_ci, abs=1e-9)
        assert actual <= extremal.upper_bound + 1e-9
        report = worst_case_ci_bounds(n, l, f)
        assert extremal.upper_bound == pytest.approx(report.upper, abs=1e-12)

    def test_uninformative_channel(self):
        extremal = build_even_n_pair(4, 2, 0.5)
        assert pair_ci(extremal.pair) == pytest.approx(0.0, abs=1e-12)
        assert extremal.upper_bound == pytest.approx(0.0, abs=1e-15)


class TestParitySplitPair:
    def test_two_row_exact(self):
        extremal = build_parity_split_pair(2, 2, 0.3)
        assert extremal.pair.a.rows == (0, 3)
        assert extremal.pair.b.rows == (1, 2)
        assert pair_ci(extremal.pair) == pytest.approx(sym(0.16), abs=1e-9)

    def test_remainder_padding(self):
        extremal = build_parity_split_pair(4, 2, 0.3)
        assert extremal.pair.a.rows == (0, 0, 0, 3)
        assert extremal.pair.b.rows == (0, 0, 1, 2)
        actual = pair_ci(extremal.pair)
        assert actual == pytest.approx(extremal.predicted_ci, abs=1e-9)
        assert actual <= extremal.upper_bound + 1e-9

    def test_tight_case_meets_lower_bound(self):
        extremal = build_parity_split_pair(12, 3, 0.3)
        report = worst_case_ci_bounds(12, 3, 0.3)
        assert report.tight
        assert pair_ci(extremal.pair) == pytest.approx(report.lower, abs=1e-9)

    def test_extra_columns_are_zero(self):
        extremal = build_parity_split_pair(2, 4, 0.3)
        # active width is 2, so columns 0..1 are zero on both sides
        for row in extremal.pair.a.rows + extremal.pair.b.rows:
            assert row & 0b0011 == 0
        expected = sym((2 * 0.4) ** 2 / 4)
        assert pair_ci(extremal.pair) == pytest.approx(expected, abs=1e-9)


class TestPhaseSweep:
    def test_threshold_identity_exact(self):
        for n in range(1, 65):
            for l in range(1, 7):
                ((_, low, high),) = phase_sweep(n, l, [0.25])
                assert low == high, (n, l)

    def test_uninformative_endpoint(self):
        ((_, low, high),) = phase_sweep(3, 3, [0.5])
        assert low == 0.0 and high == 0.0

    def test_high_noise_curve_dominates_below_threshold(self):
        # with more than one active column the parity-style gap exceeds the
        # single-column gap below the threshold, and the order flips above
        ((_, low, high),) = phase_sweep(3, 3, [0.1])
        assert high > low
        ((_, low, high),) = phase_sweep(3, 3, [0.4])
        assert high < low

    def test_grid_validation(self):
        with pytest.raises(InvalidInputError):
            phase_sweep(3, 3, [0.6])

    def test_both_curves_nonincreasing(self):
        grid = [i / 1000 for i in range(501)]
        rows = phase_sweep(5, 3, grid)
        for (f0, low0, high0), (f1, low1, high1) in zip(rows, rows[1:]):
            assert low1 <= low0 + 1e-15
            assert high1 <= high0 + 1e-15

    def test_active_width(self):
        assert active_width(3, 3) == 2
        assert active_width(2, 2) == 2
        assert active_width(8, 2) == 2
        assert active_width(8, 6) == 4


class TestEntryLimits:
    @pytest.mark.parametrize("call", [
        lambda n: worst_case_ci_bounds(n, 3, 0.3),
        lambda n: worst_case_ci_bounds_profile(n, 2, FlipProfile((0.3, 0.4))),
        lambda n: phase_sweep(n, 3, [0.1]),
        lambda n: build_hamming_one_pair(n, 3, 0.1),
        lambda n: build_parity_split_pair(n, 3, 0.3),
    ], ids=["bounds", "profile", "sweep", "hamming", "parity"])
    def test_rows_beyond_a_float(self, call):
        with pytest.raises(InvalidInputError, match="float"):
            call(10 ** 400 + 1)

    @pytest.mark.parametrize("build,n", [
        (build_hamming_one_pair, 3), (build_even_n_pair, 4),
        (build_parity_split_pair, 4)])
    def test_columns_refused_before_any_row(self, build, n):
        # 10**90 columns: neither the rows nor the profile are built
        with pytest.raises(InvalidInputError, match="n_cols"):
            build(n, 10 ** 90, 0.3)


# N <= 199 and three large N, L <= 7, 53 flips from 0 to 1/2
GRID_ROWS = tuple(range(1, 200)) + (10 ** 6, 10 ** 9, 10 ** 9 + 1)
GRID_FLIPS = tuple(i / 104 for i in range(53))


def two_point_decimal(x, shared, n_rows):
    """``-log(shared/N + sqrt(rest^2 - x^2))`` to 60 digits, from the float
    ``x`` and the exact ``rest = (N - shared)/N``; the root is 0 at
    ``|x| >= rest``."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x, n = abs(Decimal(x)), Decimal(n_rows)
        rest = (n - shared) / n
        inner = shared / n + ((rest * rest - x * x).sqrt() if x < rest else 0)
        return math.inf if inner == 0 else float(-inner.ln())


def upper_arguments(report):
    """The gap and shared row count of a report's two-point upper bound:
    the odd-N value shares nothing, the even-N one a single row and the
    high-noise ones the remainder R."""
    deco = report.decomposition
    if report.regime == "low_noise_odd":
        return deco.eta, 0
    if report.regime == "low_noise_even":
        return deco.eta, 1
    return deco.epsilon, deco.r


def check_upper(report, n_rows):
    """The upper bound is never below the lower one, never -0.0, equals the
    60-digit value within 1e-15 relative, and is 0 at a zero gap."""
    assert report.lower <= report.upper
    assert math.copysign(1.0, report.upper) == 1.0
    x, shared = upper_arguments(report)
    if x == 0.0:
        assert report.upper == 0.0
        return
    reference = two_point_decimal(x, shared, n_rows)
    if math.isinf(reference):
        assert math.isinf(report.upper)
    else:
        assert abs(report.upper - reference) <= 1e-15 * reference


class TestTwoPointUpper:
    """Every upper bound is one two-point value, computed without
    cancellation, so none lies below its lower bound or prints as -0."""

    def test_constant_flip_grid(self):
        for n in GRID_ROWS:
            for l in range(1, 8):
                for f in GRID_FLIPS:
                    check_upper(worst_case_ci_bounds(n, l, f), n)

    def test_profile_grid(self):
        # each profile cycles through the grid flips, so most mix noisy and
        # quiet columns; one with no noisy column has no bounds
        for n in GRID_ROWS[::10] + GRID_ROWS[-3:]:
            for l in range(1, 8):
                for j in range(len(GRID_FLIPS)):
                    flips = tuple(GRID_FLIPS[(j + 7 * c) % len(GRID_FLIPS)]
                                  for c in range(l))
                    if max(flips) <= 0.25:
                        continue
                    check_upper(worst_case_ci_bounds_profile(
                        n, l, FlipProfile(flips)), n)

    def test_builder_uppers(self):
        # the even-N pair certifies the low-noise even-N upper bound and the
        # parity split the high-noise one, to the last bit
        certifier = {"low_noise_even": build_even_n_pair,
                     "high_noise": build_parity_split_pair}
        for n in range(1, 40):
            for l in range(1, 7):
                for f in (0.0, 0.1, 0.2, 0.25, 0.3, 0.4, 0.45, 0.5):
                    builders = ((build_parity_split_pair, build_even_n_pair)
                                if n % 2 == 0 else (build_parity_split_pair,))
                    uppers = {b: b(n, l, f).upper_bound for b in builders}
                    for upper in uppers.values():
                        assert math.copysign(1.0, upper) == 1.0, (n, l, f)
                    report = worst_case_ci_bounds(n, l, f)
                    if report.regime in certifier:
                        assert uppers[certifier[report.regime]] == report.upper

    def test_tight_reports_bitwise_equal(self):
        for n in range(1, 65):
            for l in range(1, 7):
                report = worst_case_ci_bounds(n, l, 0.3)
                assert report.tight == (report.lower == report.upper), (n, l)


class TestParityBuilderMemory:
    def test_one_pair_of_rows_at_a_time(self):
        # the pair at the active width is measured and released before the
        # full pair is built: 40 bytes a row, like the other builders
        tracemalloc.start()
        try:
            extremal = build_parity_split_pair(10 ** 6, 5, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert extremal.pair.a.n_rows == 10 ** 6
        assert peak <= 41 * 10 ** 6
