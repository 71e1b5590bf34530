"""Column-reduction calculus for pairs of binary sources.

Two operations shrink an unequal pair of sources while never increasing
the Chernoff information between their mixtures: eliminating a column
whose removal leaves the matrices unequal, and merging two columns into
their XOR (the merged column's flip rate multiplies through
``g(f) = 1 - 2f``).  Iterating down to a single column yields a pair of
Bernoulli distributions whose parameter gap is bounded below, which turns
into a closed-form lower bound on the original Chernoff information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .chernoff import chernoff_info_batch, two_point_ci
from .exceptions import ContractViolationError, InvalidInputError
from .mixtures import (
    BinaryMatrix,
    DeltaResult,
    FlipProfile,
    check_profile,
    check_unit,
    delta_reduce,
    drop_bit,
    mixture_distribution,
)


@dataclass(frozen=True)
class MatrixPair:
    """Two equally shaped sources observed through the same flip profile."""

    a: BinaryMatrix
    b: BinaryMatrix
    profile: FlipProfile

    def __post_init__(self) -> None:
        if self.a.n_cols != self.b.n_cols:
            raise InvalidInputError(
                f"column mismatch: {self.a.n_cols} vs {self.b.n_cols}"
            )
        if self.a.n_rows != self.b.n_rows:
            raise InvalidInputError(
                f"row-count mismatch: {self.a.n_rows} vs {self.b.n_rows}"
            )
        check_profile(self.profile, self.a.n_cols)

    @classmethod
    def from_rows(cls, rows_a, rows_b, profile: FlipProfile) -> "MatrixPair":
        """The pair of sources with these rows and one column per entry
        of ``profile``."""
        n_cols = len(profile)
        return cls(a=BinaryMatrix(tuple(rows_a), n_cols),
                   b=BinaryMatrix(tuple(rows_b), n_cols), profile=profile)

    @property
    def n_cols(self) -> int:
        return self.a.n_cols


def pair_cis(pairs: Iterable[MatrixPair]) -> np.ndarray:
    """Chernoff information between each pair's channel-output mixtures.

    The mixtures are built pair by pair, ``a`` before ``b``; the pairs are
    then grouped by column count, one ``chernoff_info_batch`` call a group.
    The solver searches each row on its own, so a value has the bits of its
    pair solved alone.
    """
    mixtures = [(mixture_distribution(pair.a, pair.profile).probs,
                 mixture_distribution(pair.b, pair.profile).probs)
                for pair in pairs]
    groups: dict[int, list[int]] = {}
    for k, (p1, _) in enumerate(mixtures):
        groups.setdefault(p1.size, []).append(k)
    values = np.empty(len(mixtures))
    for ks in groups.values():
        values[ks], _ = chernoff_info_batch(
            np.array([mixtures[k][0] for k in ks]),
            np.array([mixtures[k][1] for k in ks]))
    return values


def pair_ci(pair: MatrixPair) -> float:
    """Chernoff information between the two channel-output mixtures."""
    return float(pair_cis([pair])[0])


def epsilon_gap(flip: float, width: int, n_rows: int) -> float:
    """Bernoulli gap ``[2(1-2f)]^width / (2N)`` left by ``width`` surviving
    columns of an N-row pair under constant flip rate f."""
    return (2.0 * (1.0 - 2.0 * flip)) ** width / (2.0 * n_rows)


def g_map(f: float) -> float:
    """Column informativeness measure g(f) = 1 - 2f."""
    check_unit(f, "flip probability")
    return 1.0 - 2.0 * f


def merged_flip(fi: float, fj: float) -> float:
    """Flip rate of the XOR of two independently flipped columns.

    Satisfies g(result) = g(fi) * g(fj): a merge multiplies informativeness.
    """
    check_unit(fi, "flip probability")
    check_unit(fj, "flip probability")
    return fi * (1.0 - fj) + (1.0 - fi) * fj


def is_critical_column(pair: MatrixPair, col: int) -> bool:
    """True iff deleting column ``col`` from both matrices makes them equal."""
    if not 0 <= col < pair.n_cols:
        raise InvalidInputError(
            f"column index {col} out of range for {pair.n_cols} columns"
        )
    if pair.n_cols == 1:
        # Removing the only column leaves two empty-width matrices with the
        # same row count, which are equal.
        return True
    return pair.a.drop_column(col) == pair.b.drop_column(col)


def is_critical_pair(pair: MatrixPair) -> bool:
    """True iff every column of the (unequal) pair is critical."""
    if pair.a == pair.b:
        raise InvalidInputError("criticality is defined for unequal matrices only")
    return all(is_critical_column(pair, c) for c in range(pair.n_cols))


def matches_parity_split_form(pair: MatrixPair) -> bool:
    """Structural characterization of critical pairs, checked independently.

    After removing the shared rows, one remainder must consist of n* copies
    of every even-parity word and the other of n* copies of every odd-parity
    word, for a single positive n*.
    """
    if pair.a == pair.b:
        raise InvalidInputError("characterization applies to unequal matrices only")
    delta = delta_reduce(pair.a, pair.b)
    return _is_parity_split(delta, pair.n_cols)


def parity_words(width: int, parity: int) -> tuple[int, ...]:
    """All ``width``-bit words whose popcount has the given parity."""
    return tuple(w for w in range(1 << width) if (w.bit_count() & 1) == parity)


def _is_parity_split(delta: DeltaResult, n_cols: int) -> bool:
    da = delta.delta_a.multiplicities()
    db = delta.delta_b.multiplicities()
    half = 1 << (n_cols - 1)
    if len(da) != half or len(db) != half:
        return False
    counts = set(da.values()) | set(db.values())
    if len(counts) != 1:
        return False
    parities_a = {w.bit_count() & 1 for w in da}
    parities_b = {w.bit_count() & 1 for w in db}
    return parities_a != parities_b and len(parities_a) == 1 and len(parities_b) == 1


def _lossless_elimination(pair: MatrixPair, col: int) -> bool:
    # Equality case for elimination: both columns identical and constant.
    bits = set(pair.a.column(col)) | set(pair.b.column(col))
    return len(bits) == 1


def eliminate_column(pair: MatrixPair, col: int) -> MatrixPair:
    """Remove a non-critical column from both matrices and the profile."""
    if is_critical_column(pair, col):
        raise ContractViolationError(
            f"column {col} is critical; eliminating it would equalize the pair"
        )
    return MatrixPair(
        a=pair.a.drop_column(col),
        b=pair.b.drop_column(col),
        profile=pair.profile.drop(col),
    )


def _merge_row(word: int, i: int, j: int) -> int:
    xor_bit = ((word >> i) ^ (word >> j)) & 1
    shrunk = drop_bit(word, j)
    return (shrunk & ~(1 << i)) | (xor_bit << i)


def _check_column_pair(pair: MatrixPair, i: int, j: int) -> None:
    """Refuse column indices unless ``0 <= i < j < pair.n_cols``."""
    if not 0 <= i < j < pair.n_cols:
        raise InvalidInputError(
            f"need 0 <= i < j < {pair.n_cols}, got i={i}, j={j}"
        )


def merge_columns(pair: MatrixPair, i: int, j: int) -> MatrixPair:
    """Replace columns ``i < j`` by their XOR (placed at index ``i``).

    The new column's flip rate is ``merged_flip(f_i, f_j)``.  On critical
    pairs the result stays critical and gains a degree of regularity.
    """
    _check_column_pair(pair, i, j)
    fi, fj = pair.profile.flips[i], pair.profile.flips[j]
    new_flips = list(pair.profile.flips)
    new_flips[i] = merged_flip(fi, fj)
    del new_flips[j]
    return MatrixPair.from_rows((_merge_row(r, i, j) for r in pair.a.rows),
                                (_merge_row(r, i, j) for r in pair.b.rows),
                                FlipProfile(tuple(new_flips)))


def regularity_degree(pair: MatrixPair) -> int:
    """Largest t with every distinct-row multiplicity in both remainders
    divisible by 2**t; 0 when the remainders are empty."""
    delta = delta_reduce(pair.a, pair.b)
    counts = list(delta.delta_a.multiplicities().values())
    counts += list(delta.delta_b.multiplicities().values())
    if not counts:
        return 0
    degree = min((c & -c).bit_length() - 1 for c in counts)
    return degree


@dataclass(frozen=True)
class QuadruplePartition:
    """Partition of both row remainders into four-row matching groups.

    Each quadruple ``(s1, r1, s2, r2)`` indexes two rows of ``delta_a`` and
    two rows of ``delta_b`` that agree outside columns (i, j) and realize
    the two XOR patterns that make merging those columns lossless.
    """

    quads: tuple[tuple[int, int, int, int], ...]
    delta_a: BinaryMatrix
    delta_b: BinaryMatrix
    i: int
    j: int


def is_match_quadruple(delta_a: BinaryMatrix, delta_b: BinaryMatrix,
                       quad: tuple[int, int, int, int], i: int, j: int) -> bool:
    """Literal check of the eight bit conditions plus off-column agreement."""
    s1, r1, s2, r2 = quad
    va, vb = delta_a.rows, delta_b.rows
    bit = lambda w, c: (w >> c) & 1

    conditions = (
        bit(va[s1], i) == bit(vb[s2], i),
        bit(va[s1], j) != bit(vb[s2], j),
        bit(va[r1], i) == bit(vb[r2], i),
        bit(va[r1], j) != bit(vb[r2], j),
        bit(va[s1], j) == bit(vb[r2], j),
        bit(va[s1], i) != bit(vb[r2], i),
        bit(vb[s2], j) == bit(va[r1], j),
        bit(vb[s2], i) != bit(va[r1], i),
    )
    if not all(conditions):
        return False
    mask = ~((1 << i) | (1 << j))
    words = (va[s1], va[r1], vb[s2], vb[r2])
    return len({w & mask for w in words}) == 1


def _index_matching(rows_a: tuple[int, ...], rows_b: tuple[int, ...],
                    col: int) -> list[int]:
    # Bijection matching rows equal after deleting `col`; ties among equal
    # residuals broken by row index so the matching is order preserving.
    key_a = sorted(range(len(rows_a)), key=lambda t: (drop_bit(rows_a[t], col), t))
    key_b = sorted(range(len(rows_b)), key=lambda t: (drop_bit(rows_b[t], col), t))
    pi = [0] * len(rows_a)
    for ia, ib in zip(key_a, key_b):
        if drop_bit(rows_a[ia], col) != drop_bit(rows_b[ib], col):
            raise ContractViolationError(
                "row remainders do not match after deleting the column; "
                "the pair is not critical"
            )
        pi[ia] = ib
    return pi


def quadruple_partition(pair: MatrixPair, i: int, j: int) -> QuadruplePartition:
    """Partition the row remainders of a critical pair into match quadruples.

    Follows the constructive argument: build the two matchings that pair
    rows equal after deleting column i (resp. j), then close each orbit
    ``s1 -> s2 -> r1`` into a quadruple.  Deterministic through index-order
    tie breaking.
    """
    _check_column_pair(pair, i, j)
    if pair.a == pair.b or not is_critical_pair(pair):
        raise ContractViolationError(
            "quadruple partition requires an unequal critical pair"
        )
    delta = delta_reduce(pair.a, pair.b)
    ra, rb = delta.delta_a.rows, delta.delta_b.rows
    pi_i = _index_matching(ra, rb, i)
    pi_j = _index_matching(ra, rb, j)
    inv_pi_i = [0] * len(rb)
    for a_idx, b_idx in enumerate(pi_i):
        inv_pi_i[b_idx] = a_idx

    used_a = [False] * len(ra)
    used_b = [False] * len(rb)
    quads = []
    for s1 in range(len(ra)):
        if used_a[s1]:
            continue
        r2 = pi_i[s1]
        s2 = pi_j[s1]
        r1 = inv_pi_i[s2]
        if used_a[r1] or used_b[s2] or used_b[r2] or r1 == s1 or s2 == r2:
            raise ContractViolationError("quadruple chase collided; pair malformed")
        used_a[s1] = used_a[r1] = True
        used_b[s2] = used_b[r2] = True
        quads.append((s1, r1, s2, r2))
    return QuadruplePartition(
        quads=tuple(quads),
        delta_a=delta.delta_a,
        delta_b=delta.delta_b,
        i=i,
        j=j,
    )


@dataclass(frozen=True)
class ReductionTrace:
    """Record of a full reduction down to one column.

    ``eliminated_columns`` lists (original column index, lossless flag) in
    elimination order; ``merged_sequence`` lists the (i, j) merges in the
    frame current at each step.  ``f_br`` and the Bernoulli parameters
    ``p_br_a``/``p_br_b`` describe the final one-column pair;  ``step_cis``
    is populated only when per-step values were requested.
    """

    eliminated_columns: tuple[tuple[int, bool], ...]
    merged_sequence: tuple[tuple[int, int], ...]
    alpha: int
    final_pair: MatrixPair
    f_br: float
    p_br_a: float
    p_br_b: float
    step_cis: Optional[tuple[float, ...]] = None


def full_reduction(pair: MatrixPair, merge_order: str = "left_to_right",
                   record_ci: bool = False) -> ReductionTrace:
    """Eliminate non-critical columns (lowest index first), then merge to one.

    The final flip rate satisfies ``g(f_br) = prod g(f_l)`` over the
    surviving original columns regardless of merge order.
    """
    if pair.a == pair.b:
        raise InvalidInputError("reduction is defined for unequal pairs")
    if merge_order not in ("left_to_right", "right_to_left"):
        raise InvalidInputError(f"unknown merge order {merge_order!r}")

    work = pair
    original = list(range(pair.n_cols))
    eliminated = []
    cis = [pair_ci(work)] if record_ci else None

    while True:
        target = None
        for col in range(work.n_cols):
            if not is_critical_column(work, col):
                target = col
                break
        if target is None:
            break
        eliminated.append((original[target], _lossless_elimination(work, target)))
        del original[target]
        work = eliminate_column(work, target)
        if record_ci:
            cis.append(pair_ci(work))

    merges = []
    while work.n_cols > 1:
        if merge_order == "left_to_right":
            i, j = 0, 1
        else:
            i, j = work.n_cols - 2, work.n_cols - 1
        merges.append((i, j))
        work = merge_columns(work, i, j)
        if record_ci:
            cis.append(pair_ci(work))

    p_a = float(mixture_distribution(work.a, work.profile).probs[1])
    p_b = float(mixture_distribution(work.b, work.profile).probs[1])
    return ReductionTrace(
        eliminated_columns=tuple(eliminated),
        merged_sequence=tuple(merges),
        alpha=len(eliminated),
        final_pair=work,
        f_br=work.profile.flips[0],
        p_br_a=p_a,
        p_br_b=p_b,
        step_cis=None if cis is None else tuple(cis),
    )


def reduction_lower_bound(pair: MatrixPair) -> float:
    """Closed-form lower bound on the pair's Chernoff information.

    Requires a constant flip profile.  With ``alpha`` eliminations the
    surviving gap is at least ``[2(1-2f)]^(L-alpha) / (2N)``, and the bound
    is the symmetric two-point value at that gap.
    """
    if not pair.profile.is_constant:
        raise InvalidInputError(
            "constant flip profile required; use the generalized bounds for "
            "per-column profiles"
        )
    if pair.a == pair.b:
        raise InvalidInputError("bound is defined for unequal pairs")
    survivors = pair.n_cols - full_reduction(pair).alpha
    return two_point_ci(epsilon_gap(pair.profile.flips[0], survivors,
                                    pair.a.n_rows))
