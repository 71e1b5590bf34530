"""Exhaustive ground truth over the space of canonical sources.

Enumerates every N-row multiset of L-bit words, evaluates the Chernoff
information between all unordered pairs of distinct sources, and reports
the exact minimum.  The scan prunes with the Bhattacharyya coefficient BC
(f_lambda at 1/2, so ``-log BC`` bounds the Chernoff information from below),
one small matrix product of square-rooted distributions per tile.  A first
pass keeps each tile's largest BC and settles zero-information pairs block
by block; the pairs of largest BC then warm-start the incumbent, and one
batch solves every pair whose bound lies within ``PRUNE_MARGIN`` of it.
Ties go to the first ``(i, j)``, so tile size does not change the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .chernoff import chernoff_info  # noqa: F401  looked up by bench/spans.py
from .chernoff import chernoff_info_batch
from .exceptions import InvalidInputError, ResourceLimitError
from .mixtures import (BinaryMatrix, FlipProfile, channel_kernel, check_budget,
                       check_profile, check_shape, mixture_probs_table)
from .reductions import MatrixPair

DEFAULT_MAX_MATRICES = 10 ** 6
# Pairs whose cheap bound sits within this margin of the incumbent are
# always fully evaluated, so float noise in the bound can never prune a
# true minimizer.
PRUNE_MARGIN = 1e-9
# Multiply-adds per tile of the coefficient product.  A tile this small
# stays in cache and OpenBLAS runs it on the calling thread; larger products
# wake its worker threads, which spin between calls, so the scan would burn
# a second core and slow down whenever that core is busy.
_TILE_MADDS = 1 << 18
# Survivors per solver call, which bounds the solver's memory.
_SOLVE_PAIRS = 1 << 14


def count_matrices(n_rows: int, n_cols: int) -> int:
    """Number of canonical matrices: multisets of N words from 2**L values."""
    return math.comb((1 << n_cols) + n_rows - 1, n_rows)


def _family_size(n_rows: int, n_cols: int, max_matrices: int) -> int:
    check_shape(n_rows, n_cols)
    total = count_matrices(n_rows, n_cols)
    if total > max_matrices:
        raise ResourceLimitError(
            f"{total} matrices for N={n_rows}, L={n_cols} exceeds the cap "
            f"of {max_matrices}"
        )
    return total


def canonical_rows(n_rows: int, n_cols: int,
                   max_matrices: int = DEFAULT_MAX_MATRICES) -> np.ndarray:
    """Every canonical source as one row of sorted words, shape (M, N).

    Rows come in lexicographic order.  The multisets grow one column at a
    time: a prefix ending in ``last`` is followed by each of
    ``last .. 2**L - 1``.
    """
    _family_size(n_rows, n_cols, max_matrices)
    rows = np.zeros((1, 0), dtype=np.int64)
    last = np.zeros(1, dtype=np.int64)
    for _ in range(n_rows):
        reps = (1 << n_cols) - last
        starts = np.cumsum(reps) - reps
        last = np.arange(reps.sum()) + np.repeat(last - starts, reps)
        rows = np.column_stack((np.repeat(rows, reps, axis=0), last))
    return rows


def enumerate_matrices(n_rows: int, n_cols: int,
                       max_matrices: int = DEFAULT_MAX_MATRICES
                       ) -> Iterator[BinaryMatrix]:
    """Yield every canonical matrix once, in lexicographic order of sorted rows."""
    for rows in canonical_rows(n_rows, n_cols, max_matrices).tolist():
        yield BinaryMatrix(tuple(rows), n_cols)


def family_table(n_rows: int, n_cols: int, profile: FlipProfile,
                 max_matrices: int) -> tuple[np.ndarray, np.ndarray]:
    """Every canonical source with its channel-output distribution.

    Returns ``(rows, probs)`` in enumeration order: ``rows`` is
    ``canonical_rows`` and ``probs[i]`` is the mixture vector of source
    ``rows[i]`` over the 2**L outcome words.  A profile whose length is not
    L raises ``InvalidInputError``.  A table or an (M, N) rows array over
    the budget of ``check_budget`` raises ``ResourceLimitError`` before
    anything is built; the (2**L, 2**L) shifted kernels are never larger
    than the table, since M >= 2**L.
    """
    check_profile(profile, n_cols)
    check_budget(_family_size(n_rows, n_cols, max_matrices) * 8
                 * max(n_rows, 1 << n_cols),
                 f"the family table for N={n_rows}, L={n_cols}")
    rows = canonical_rows(n_rows, n_cols, max_matrices)
    return rows, mixture_probs_table(rows, channel_kernel(profile))


def family_index(table: tuple[np.ndarray, np.ndarray],
                 source: BinaryMatrix) -> int:
    """Position of ``source`` in a ``family_table``.

    Raises ``InvalidInputError`` when the table does not hold it.
    """
    rows, probs = table
    if rows.shape[1] == source.n_rows and probs.shape[1] == 1 << source.n_cols:
        hits = np.flatnonzero((rows == source.rows).all(axis=1))
        if hits.size:
            return int(hits[0])
    raise InvalidInputError(
        f"the {source.n_rows}x{source.n_cols} source is not in a family table "
        f"of {rows.shape[1]}-row sources over {probs.shape[1]} outcomes"
    )


def family_source(rows: np.ndarray, index: int, n_cols: int) -> BinaryMatrix:
    """The ``BinaryMatrix`` of row ``index`` of a ``family_table``."""
    return BinaryMatrix(tuple(rows[index].tolist()), n_cols)


@dataclass(frozen=True)
class ClosestPairResult:
    """Exact minimum over all unordered pairs of distinct sources.

    ``zero_ci`` marks the degenerate finding that two distinct sources map
    to the same output distribution, i.e. the family is not identifiable.
    ``pairs_solved`` counts the pairs sent to the Chernoff solver.
    """

    pair: MatrixPair
    min_ci: float
    candidates_examined: int
    lambda_star: float
    zero_ci: bool
    pairs_solved: int


def _min_pair(probs, row_blocks) -> tuple[tuple, int]:
    """Smallest key ``(value, i, j, lambda_star)`` over the pairs of the tiles.

    ``row_blocks`` lists blocks of tiles in increasing i.  A tile
    ``(r0, r1, c0, c1)`` holds the pairs of sources (rows of ``probs``) with
    i in ``range(r0, r1)`` and j in ``range(c0, c1)``, only those with j > i
    where ``r0 == c0``; row i is the solver's ``p1``.  Returns the key and
    the number of pairs solved.
    """
    sqrt_probs = np.sqrt(probs)
    with np.errstate(divide="ignore"):  # -inf is the solver's zero support
        logs = np.log(probs)

    def coefficients(r0, r1, c0, c1):
        bhatta = sqrt_probs[r0:r1] @ sqrt_probs[c0:c1].T
        if r0 == c0:  # -1 lies below every coefficient and every threshold
            bhatta[np.tri(r1 - r0, c1 - c0, dtype=bool)] = -1.0
        return bhatta

    def solve(tiles, tops, lo, hi, best):
        """Fold the pairs whose coefficient lies in [lo, hi) into ``best``."""
        found = [np.empty((2, 0), dtype=np.int64)]
        for (r0, r1, c0, c1), top in zip(tiles, tops):
            if top >= lo:
                bhatta = coefficients(r0, r1, c0, c1)
                hits = np.argwhere((bhatta >= lo) & (bhatta < hi)).T
                found.append(hits + [[r0], [c0]])
        ii, jj = np.concatenate(found, axis=1)
        for at in range(0, ii.size, _SOLVE_PAIRS):
            i, j = ii[at:at + _SOLVE_PAIRS], jj[at:at + _SOLVE_PAIRS]
            values, lams = chernoff_info_batch(logs[i], logs[j])
            k = np.lexsort((j, i, values))[0]
            best = min(best, (float(values[k]), int(i[k]), int(j[k]),
                              float(lams[k])))
        return best, ii.size

    # A pair survives when -log BC <= incumbent + PRUNE_MARGIN, so every
    # pair of zero information has BC >= zero_cut.
    zero_cut = math.exp(-PRUNE_MARGIN)
    best, solved, tiles, tops = (math.inf, math.inf, math.inf, 0.5), 0, [], []
    for block in row_blocks:
        block_tops = [coefficients(*tile).max() for tile in block]
        best, count = solve(block, block_tops, zero_cut, math.inf, best)
        solved += count
        if best[0] == 0.0:  # no earlier block holds a zero
            return best, solved
        tiles += block
        tops += block_tops
    # Warm start on the pairs of largest coefficient, then solve the rest.
    top = min(max(tops), zero_cut)
    best, warm = solve(tiles, tops, top, zero_cut, best)
    cut = math.exp(-(best[0] + PRUNE_MARGIN))
    best, rest = solve(tiles, tops, cut, top, best)
    return best, solved + warm + rest


def closest_pair(n_rows: int, n_cols: int, profile: FlipProfile,
                 max_matrices: int = DEFAULT_MAX_MATRICES) -> ClosestPairResult:
    """Exact minimum-Chernoff-information pair over the whole family.

    Distinct sources with identical output distributions are reported with
    ``min_ci = 0`` rather than skipped.  Ties are broken by lexicographic
    pair order, making the result independent of the tile schedule; the
    scan runs on the calling thread.
    """
    rows, probs = family_table(n_rows, n_cols, profile, max_matrices)
    n = rows.shape[0]  # at least 2: N, L >= 1
    side = max(1, math.isqrt(_TILE_MADDS // probs.shape[1]))
    row_blocks = [[(r0, min(r0 + side, n), c0, min(c0 + side, n))
                   for c0 in range(r0, n, side)]
                  for r0 in range(0, n - 1, side)]
    best, solved = _min_pair(probs, row_blocks)
    value, bi, bj, lam = best
    return ClosestPairResult(
        pair=MatrixPair(a=family_source(rows, bi, n_cols),
                        b=family_source(rows, bj, n_cols), profile=profile),
        min_ci=value,
        candidates_examined=n * (n - 1) // 2,
        lambda_star=lam,
        zero_ci=(value == 0.0),
        pairs_solved=solved,
    )


def exact_error_exponent(truth: BinaryMatrix, profile: FlipProfile,
                         max_matrices: int = DEFAULT_MAX_MATRICES,
                         table: tuple[np.ndarray, np.ndarray] | None = None
                         ) -> tuple[float, BinaryMatrix]:
    """Minimum Chernoff information between the truth and any other source.

    This is the exact asymptotic exponent of the maximum-likelihood error
    probability when ``truth`` generated the data.  Ties go to the source
    that comes first in enumeration order.  ``table`` is the truth's
    ``family_table`` under ``profile``, for a caller that already built it;
    otherwise it is built here.
    """
    if table is None:
        table = family_table(truth.n_rows, truth.n_cols, profile, max_matrices)
    rows, probs = table
    n, t = rows.shape[0], family_index(table, truth)
    height = max(1, _TILE_MADDS // probs.shape[1])
    strips = [[(r0, min(r0 + height, stop), t, t + 1)]
              for start, stop in ((0, t), (t + 1, n))
              for r0 in range(start, stop, height)]
    (value, other, _, _), _ = _min_pair(probs, strips)
    return value, family_source(rows, other, truth.n_cols)


def random_pair_stream(n_rows: int, n_cols: int, count: int, seed: int,
                       profile: FlipProfile,
                       critical_only: bool = False) -> Iterator[MatrixPair]:
    """Deterministic stream of random unequal pairs sharing ``profile``.

    With ``critical_only`` the pairs are assembled from the structural
    characterization: one side holds n* copies of every even-parity word,
    the other n* copies of every odd-parity word, plus a shared random
    padding multiset, so every emitted pair is critical by construction.
    """
    check_shape(n_rows, n_cols)
    check_profile(profile, n_cols)
    if count < 0:
        raise InvalidInputError(f"count must be >= 0, got {count}")
    half = 1 << (n_cols - 1)
    if critical_only and half > n_rows:
        raise InvalidInputError(
            f"no critical pair exists with N={n_rows} < 2**(L-1)={half}"
        )
    rng = np.random.default_rng(seed)

    def emit():
        if critical_only:
            max_mult = n_rows // half
            mult = int(rng.integers(1, max_mult + 1))
            padding = tuple(int(w) for w in
                            rng.integers(0, 1 << n_cols, n_rows - mult * half))
            evens = tuple(w for w in range(1 << n_cols)
                          if w.bit_count() % 2 == 0) * mult
            odds = tuple(w for w in range(1 << n_cols)
                         if w.bit_count() % 2 == 1) * mult
            if rng.integers(0, 2):
                evens, odds = odds, evens
            return MatrixPair(
                a=BinaryMatrix(evens + padding, n_cols),
                b=BinaryMatrix(odds + padding, n_cols),
                profile=profile,
            )
        while True:
            rows_a = tuple(int(w) for w in rng.integers(0, 1 << n_cols, n_rows))
            rows_b = tuple(int(w) for w in rng.integers(0, 1 << n_cols, n_rows))
            a = BinaryMatrix(rows_a, n_cols)
            b = BinaryMatrix(rows_b, n_cols)
            if a != b:
                return MatrixPair(a=a, b=b, profile=profile)

    for _ in range(count):
        yield emit()
