"""Worst-case Chernoff information bounds and the pairs that attain them.

For N-row, L-column sources under constant flip rate f the minimum
Chernoff information over all unequal pairs is pinned between closed-form
bounds whose shape switches at f = 1/4: below the threshold the binding
pairs perturb the frequencies of two words at Hamming distance one, above
it they offset the even- against the odd-parity words.  A per-column
profile generalizes the high-noise branch through the count of columns
noisier than 1/4.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .chernoff import bernoulli_ci, two_point_ci
from .exceptions import InvalidInputError, UnsupportedRegimeError
from .mixtures import (FlipProfile, check_budget, check_cols, check_profile,
                       check_shape, check_unit, decimal_text)
from .reductions import MatrixPair, epsilon_gap, pair_ci, parity_words

REGIME_LOW_NOISE_ODD = "low_noise_odd"
REGIME_LOW_NOISE_EVEN = "low_noise_even"
REGIME_HIGH_NOISE = "high_noise"
REGIME_GENERALIZED = "generalized"
# Bytes a builder traces per row of its pair: 40, charged at 64 so that no
# refusal point moves (ROADMAP.md keeps charging each traced rate open).
_ROW_BYTES = 64


@dataclass(frozen=True)
class Decomposition:
    """Active-column count with the split N = 2**(cal-1) * k + R, k odd."""

    cal: int
    k: int
    r: int
    epsilon: float
    eta: Optional[float] = None


@dataclass(frozen=True)
class BoundReport:
    lower: float
    upper: float
    regime: str
    tight: bool
    decomposition: Decomposition
    f_folded: bool = False

    def __post_init__(self) -> None:
        if math.isinf(self.lower) and not math.isinf(self.upper):
            raise InvalidInputError("infinite lower bound with finite upper bound")
        if (not math.isinf(self.lower)
                and self.lower > self.upper + 1e-12):
            raise InvalidInputError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )
        if self.tight and not (math.isinf(self.lower) and math.isinf(self.upper)):
            if abs(self.lower - self.upper) > 1e-12:
                raise InvalidInputError("tight report with unequal bounds")


@dataclass(frozen=True)
class ExtremalPair:
    """A constructed candidate pair with its exactly predicted value.

    ``predicted_ci`` is the pair's actual Chernoff information (closed form
    where one exists, otherwise computed from the reduced mixtures), so the
    construct/measure round trip agrees for every kind.  ``upper_bound``
    restates the closed-form bound the construction certifies.
    """

    pair: MatrixPair
    predicted_ci: float
    construction: str
    upper_bound: float


def _check_shape(n_rows: int, n_cols: int) -> None:
    """``check_shape``, and refuse an N that no float holds: every closed
    form divides by N."""
    check_shape(n_rows, n_cols)
    if n_rows > sys.float_info.max:
        raise InvalidInputError(
            f"N of {n_rows.bit_length()} bits does not fit in a float")


def _check_pair(n_rows: int, n_cols: int) -> None:
    """Refuse a pair too wide for a source or too tall for the budget,
    before any row is built."""
    check_cols(n_cols)
    check_budget(n_rows * _ROW_BYTES, f"a pair of {decimal_text(n_rows)} rows")


def _eta(flip: float, n_rows: int) -> float:
    """Low-noise Bernoulli gap (1 - 2f) / N."""
    return (1.0 - 2.0 * flip) / n_rows


def _low_noise_ci(flip: float, n_rows: int) -> float:
    """``two_point_ci`` of the gap (1 - 2f) / N.

    At N = 1 the gap keeps no digit of a flip below 2**-54, so the value is
    read off 1 - gap**2 = 4f(1 - f) instead.
    """
    if n_rows > 1:
        return two_point_ci(_eta(flip, n_rows))
    if flip in (0.0, 1.0):
        return math.inf
    # 0.0 - keeps f = 1/2 at 0.0 rather than -0.0
    return 0.0 - 0.5 * math.log(4.0 * flip * (1.0 - flip))


def active_width(n_rows: int, n_cols: int) -> int:
    """min(L, floor(log2 N) + 1): columns the worst-case pair can exploit."""
    return min(n_cols, n_rows.bit_length())


def decompose(n_rows: int, cal: int) -> tuple[int, int]:
    """Split N = 2**(cal-1) * k + R with k the largest odd choice, R >= 0.

    Requires 2**(cal-1) <= N; then R < 2**cal holds automatically.
    """
    if cal < 1 or n_rows < 1:
        raise InvalidInputError(f"need cal >= 1 and N >= 1, got {cal}, {n_rows}")
    block = 1 << (cal - 1)
    if block > n_rows:
        raise InvalidInputError(
            f"decomposition undefined: 2**{cal - 1} = {block} exceeds N = {n_rows}"
        )
    q = n_rows // block
    k = q if q % 2 == 1 else q - 1
    r = n_rows - block * k
    return k, r


def worst_case_ci_bounds(n_rows: int, n_cols: int, flip: float) -> BoundReport:
    """Bounds on the minimum Chernoff information over all unequal pairs.

    Flip rates above 1/2 are folded to their complement (channel symmetry)
    and flagged.  Below the 1/4 threshold odd N gives an exact value; above
    it the bounds are exact precisely when the decomposition remainder
    vanishes.
    """
    _check_shape(n_rows, n_cols)
    check_unit(flip, "flip probability")
    folded = flip > 0.5
    if folded:
        flip = 1.0 - flip

    cal = active_width(n_rows, n_cols)
    epsilon = epsilon_gap(flip, cal, n_rows)
    if flip > 0.25:
        return _high_noise_report(n_rows, cal, epsilon, REGIME_HIGH_NOISE,
                                  folded)

    k, r = decompose(n_rows, cal)
    eta = _eta(flip, n_rows)
    lower = _low_noise_ci(flip, n_rows)
    deco = Decomposition(cal=cal, k=k, r=r, epsilon=epsilon, eta=eta)
    if n_rows % 2 == 1:
        return BoundReport(lower=lower, upper=lower,
                           regime=REGIME_LOW_NOISE_ODD, tight=True,
                           decomposition=deco, f_folded=folded)
    return BoundReport(lower=lower, upper=two_point_ci(eta, 1, n_rows),
                       regime=REGIME_LOW_NOISE_EVEN, tight=False,
                       decomposition=deco, f_folded=folded)


def _high_noise_report(n_rows: int, cal: int, epsilon: float, regime: str,
                       folded: bool) -> BoundReport:
    """The two-point bounds of gap ``epsilon`` on ``cal`` active columns."""
    k, r = decompose(n_rows, cal)
    deco = Decomposition(cal=cal, k=k, r=r, epsilon=epsilon, eta=None)
    return BoundReport(lower=two_point_ci(epsilon),
                       upper=two_point_ci(epsilon, r, n_rows), regime=regime,
                       tight=(r == 0), decomposition=deco, f_folded=folded)


def worst_case_ci_bounds_profile(n_rows: int, n_cols: int,
                                 profile: FlipProfile) -> BoundReport:
    """Per-column generalization driven by the columns noisier than 1/4.

    With no such column the formulas are undefined and the call fails
    explicitly rather than guessing a regime.
    """
    _check_shape(n_rows, n_cols)
    check_profile(profile, n_cols)
    folded = any(f > 0.5 for f in profile.flips)
    flips = [min(f, 1.0 - f) for f in profile.flips]
    gamma = sum(1 for f in flips if f > 0.25)
    if gamma == 0:
        raise UnsupportedRegimeError(
            "no column has flip rate above 1/4; the generalized bounds are "
            "undefined in this regime"
        )
    cal = active_width(n_rows, gamma)
    largest = sorted(flips, reverse=True)[:cal]
    product = 1.0
    for f in largest:
        product *= 1.0 - 2.0 * f
    epsilon = (1 << (cal - 1)) * product / n_rows
    return _high_noise_report(n_rows, cal, epsilon, REGIME_GENERALIZED, folded)


CONSTRUCTION_HAMMING_ONE = "hamming_one_odd"
CONSTRUCTION_EVEN_ALMOST = "even_almost"
CONSTRUCTION_NEAR_OPTIMAL = "near_optimal_noisy"


def build_hamming_one_pair(n_rows: int, n_cols: int, flip: float) -> ExtremalPair:
    """Low-noise extremal pair for odd N: two words at Hamming distance one
    with multiplicities n and n+1, swapped between the sides."""
    _check_shape(n_rows, n_cols)
    if n_rows % 2 == 0:
        raise InvalidInputError(f"odd row count required, got {n_rows}")
    _check_pair(n_rows, n_cols)
    n = (n_rows - 1) // 2
    v1, v2 = 0, 1
    rows_a = (v1,) * n + (v2,) * (n + 1)
    rows_b = (v1,) * (n + 1) + (v2,) * n
    pair = MatrixPair.from_rows(rows_a, rows_b,
                                FlipProfile.constant(flip, n_cols))
    value = _low_noise_ci(flip, n_rows)
    return ExtremalPair(pair=pair, predicted_ci=value,
                        construction=CONSTRUCTION_HAMMING_ONE,
                        upper_bound=value)


def build_even_n_pair(n_rows: int, n_cols: int, flip: float) -> ExtremalPair:
    """Even-N candidate: multiplicities (n-1, n+1) against (n, n).

    Its value reduces exactly to the Bernoulli pair (1/2, 1/2 + eta_N); the
    stored upper bound is the weaker closed form it certifies.
    """
    _check_shape(n_rows, n_cols)
    if n_rows % 2 == 1 or n_rows < 2:
        raise InvalidInputError(f"even row count >= 2 required, got {n_rows}")
    _check_pair(n_rows, n_cols)
    n = n_rows // 2
    v1, v2 = 0, 1
    rows_a = (v1,) * (n - 1) + (v2,) * (n + 1)
    rows_b = (v1,) * n + (v2,) * n
    pair = MatrixPair.from_rows(rows_a, rows_b,
                                FlipProfile.constant(flip, n_cols))
    eta = _eta(flip, n_rows)
    return ExtremalPair(pair=pair, predicted_ci=bernoulli_ci(0.5, 0.5 + eta),
                        construction=CONSTRUCTION_EVEN_ALMOST,
                        upper_bound=two_point_ci(eta, 1, n_rows))


def build_parity_split_pair(n_rows: int, n_cols: int, flip: float) -> ExtremalPair:
    """High-noise candidate: offset even- vs odd-parity words by one replica.

    Uses the active width cal = min(L, floor(log2 N) + 1); columns beyond it
    are all zero, so they carry no information.  With remainder R the pair
    is padded with R copies of the zero word on both sides.  When R = 0 the
    value meets the high-noise lower bound exactly.
    """
    _check_shape(n_rows, n_cols)
    _check_pair(n_rows, n_cols)
    cal = active_width(n_rows, n_cols)
    k, r = decompose(n_rows, cal)
    epsilon = epsilon_gap(flip, cal, n_rows)
    if r == 0:
        value = two_point_ci(epsilon)
    else:
        # The zero columns are identical and constant, so leaving them out
        # keeps the value exact while the outcome space shrinks to 2**cal.
        value = pair_ci(MatrixPair.from_rows(*_parity_split_rows(cal, k, r, 0),
                                             FlipProfile.constant(flip, cal)))
    pair = MatrixPair.from_rows(*_parity_split_rows(cal, k, r, n_cols - cal),
                                FlipProfile.constant(flip, n_cols))
    return ExtremalPair(pair=pair, predicted_ci=value,
                        construction=CONSTRUCTION_NEAR_OPTIMAL,
                        upper_bound=two_point_ci(epsilon, r, n_rows))


def _parity_split_rows(cal: int, k: int, r: int,
                       shift: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both sides' rows: every even- and odd-parity ``cal``-bit word,
    shifted up by ``shift``, in (k+1)/2 and (k-1)/2 copies swapped between
    the sides, then ``r`` zero words."""
    n = (k - 1) // 2
    evens = tuple(w << shift for w in parity_words(cal, 0))
    odds = tuple(w << shift for w in parity_words(cal, 1))
    return (evens * (n + 1) + odds * n + (0,) * r,
            evens * n + odds * (n + 1) + (0,) * r)


def phase_sweep(n_rows: int, n_cols: int,
                f_grid: Sequence[float]) -> list[tuple[float, float, float]]:
    """Evaluate both bound families across flip rates.

    Emits (f, low-noise bound, high-noise bound) per grid point; the two
    values coincide exactly at f = 1/4, where both gaps equal 1/(2N).
    """
    _check_shape(n_rows, n_cols)
    cal = active_width(n_rows, n_cols)
    out = []
    for f in f_grid:
        if not 0.0 <= f <= 0.5:
            raise InvalidInputError(f"sweep flip rate {f!r} outside [0, 0.5]")
        low = _low_noise_ci(f, n_rows)
        # at N = 1 both gaps are 1 - 2f
        high = low if n_rows == 1 else two_point_ci(
            epsilon_gap(f, cal, n_rows))
        out.append((f, low, high))
    return out
