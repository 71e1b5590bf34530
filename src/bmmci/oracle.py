"""Exhaustive ground truth over the space of canonical sources.

Enumerates every N-row multiset of L-bit words, evaluates the Chernoff
information between all unordered pairs of distinct sources, and reports
the exact minimum.  The scan prunes with the Bhattacharyya coefficient BC
(f_lambda at 1/2, so ``-log BC`` bounds the Chernoff information from below),
one small matrix product of square-rooted distributions per tile.  A first
pass keeps each tile's largest BC and settles zero-information pairs block
by block.  Then one batch solves every pair whose ``-log BC`` lies within
``PRUNE_MARGIN`` of an upper bound on the minimum that needs no solve:
``log f_lambda`` is convex, so its tangent at 1/2 lies below it and bounds
the value of the pairs of largest BC (``tangent_bound``).  A pair's
``-log BC`` is at most its value, so the minimizer survives with its ties,
which go to the first ``(i, j)`` whatever the tile size.

The closest pair needs that scan over a small share of the pairs only.
XOR-ing both sources with one mask permutes the outcomes of both
distributions alike, so the Chernoff information of ``(S, T)`` equals that
of ``(S ^ a, T ^ a)`` for every mask and every profile.  Every unordered
pair therefore has an image ``(r, j)`` with ``r`` the first source of its
XOR orbit and ``j > r``: map the source whose orbit comes first to its
orbit's first member.  Phase 1 prunes those pairs, and its image of the
minimizer survives: it has the same value to within rounding, far inside
the margin.  The solver's last bits depend on the coordinates, so the batch
also holds every survivor's images, solved as the full scan solves them:
the answer is the full scan's to the last bit.  A chunk of survivors takes
its images under all 2**L masks at once, the masks on a leading axis of one
broadcast XOR.  A batch minimum within the margin of zero runs the full
scan instead, since the images could then cover every pair (at f = 1/2 all
have zero information).  It stops at the first solver call that settles a
zero, the pairs going in (i, j) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .bounds import _check_pair
from .chernoff import chernoff_info  # noqa: F401  looked up by bench/spans.py
from .chernoff import chernoff_info_batch, tangent_bound
from .exceptions import InvalidInputError, ResourceLimitError
from .mixtures import (BinaryMatrix, FlipProfile, channel_kernel, check_budget,
                       check_profile, check_shape, decimal_text,
                       mixture_probs_table, row_chunks)
from .reductions import MatrixPair, parity_words

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
    if max_matrices < 1:
        raise InvalidInputError(
            f"the matrix cap must be at least 1, got {max_matrices}")
    total = count_matrices(n_rows, n_cols)
    if total > max_matrices:
        raise ResourceLimitError(
            f"{decimal_text(total)} matrices for N={n_rows}, L={n_cols} "
            f"exceeds the cap of {max_matrices}"
        )
    return total


def _rank_counts(n_rows: int, n_cols: int) -> np.ndarray:
    """Table behind ``_ranks``, shape (N, 2**L + 1).

    ``counts[p, w]`` is the number of sorted runs of N - p words that
    start at ``w`` or above, ``comb(2**L - w + N - p - 1, N - p)``; none
    exceeds the family size, so int64 holds them.
    """
    size = 1 << n_cols
    return np.array([[math.comb(size - w + n_rows - p - 1, n_rows - p)
                      for w in range(size + 1)] for p in range(n_rows)],
                    dtype=np.int64)


def canonical_rows(n_rows: int, n_cols: int,
                   max_matrices: int = DEFAULT_MAX_MATRICES) -> np.ndarray:
    """Every canonical source as one row of sorted words, shape (M, N).

    Rows come in lexicographic order, each one read off its position.  The
    rows that share their first p words are contiguous, and the last
    ``counts[p, w]`` of them (``_rank_counts``) put w or above at p, so
    each column is one search over a row of ``counts``; beside the result
    the call holds a few arrays of one entry per row.
    """
    _family_size(n_rows, n_cols, max_matrices)
    counts = _rank_counts(n_rows, n_cols)
    total = counts[0, 0]
    rows = np.empty((total, n_rows), dtype=np.int64)
    # Minus the count of rows from each row to the last row sharing its
    # first p words, itself included.
    behind = np.arange(-total, 0)
    for p in range(n_rows):
        word = np.searchsorted(-counts[p], behind, side="right")
        word -= 1
        rows[:, p] = word
        behind += counts[p, 1:][word]
    return rows


def _ranks(counts: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Position in ``canonical_rows`` of each sorted row of ``words``.

    A row ``w`` comes after the rows that share its first p words and put
    a smaller word at p, ``counts[p, w[p-1]] - counts[p, w[p]]`` of them
    (``w[-1]`` read as 0), summed over p.
    """
    rank = counts[0, 0] - counts[0, words[..., 0]]
    for p in range(1, words.shape[-1]):
        rank += counts[p, words[..., p - 1]] - counts[p, words[..., p]]
    return rank


def _xor_images(rows: np.ndarray, counts: np.ndarray,
                masks: int | np.ndarray) -> np.ndarray:
    """Index of each source of ``rows`` XOR-ed with ``masks``.

    The words of each source lie along the last axis of ``rows``, and
    ``masks`` broadcasts against it: one mask, a column of one mask per
    source, or masks on a leading axis, for one array of indices per mask.
    """
    return _ranks(counts, np.sort(rows ^ masks, axis=-1))


def _orbit_firsts(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of the sources that come first in their XOR orbit.

    Every orbit has members whose first word is 0, the translates of any
    member by its own words, and those rows are a prefix of ``rows``.  The
    first member of an orbit is among them, so it is the translate of every
    member by one of that member's own words.  A row of the prefix comes
    first when no translate by its words 1..N-1 comes earlier (word 0
    leaves it as it is): N - 1 masks per row, not all 2**L - 1.
    """
    prefix = rows[:rows.shape[0] - counts[0, 1]]
    own = np.arange(prefix.shape[0])
    first = own
    for p in range(1, prefix.shape[1]):
        first = np.minimum(first, _xor_images(prefix, counts,
                                              prefix[:, p, None]))
    return np.flatnonzero(first == own)


def enumerate_matrices(n_rows: int, n_cols: int,
                       max_matrices: int = DEFAULT_MAX_MATRICES
                       ) -> Iterator[BinaryMatrix]:
    """Yield every canonical matrix once, in lexicographic order of sorted rows."""
    for rows in canonical_rows(n_rows, n_cols, max_matrices).tolist():
        yield BinaryMatrix(tuple(rows), n_cols)


def _check_table(n_sources: int, n_rows: int, n_cols: int) -> None:
    """Charge a family table of ``n_sources`` N-row, L-column sources, or
    its (M, N) rows array if larger, to the budget of ``check_budget``."""
    check_budget(n_sources * 8 * max(n_rows, 1 << n_cols),
                 f"the family table for N={n_rows}, L={n_cols}")


def family_rows(n_rows: int, n_cols: int,
                max_matrices: int = DEFAULT_MAX_MATRICES) -> np.ndarray:
    """``canonical_rows``, refused with ``ResourceLimitError`` before
    anything is built when their family table would pass the budget."""
    _check_table(_family_size(n_rows, n_cols, max_matrices), n_rows, n_cols)
    return canonical_rows(n_rows, n_cols, max_matrices)


def family_table(n_rows: int, n_cols: int, profile: FlipProfile,
                 max_matrices: int) -> tuple[np.ndarray, np.ndarray]:
    """Every canonical source with its channel-output distribution.

    Returns ``(rows, probs)`` in enumeration order: ``rows`` is
    ``family_rows`` and ``probs[i]`` is the mixture vector of source
    ``rows[i]`` over the 2**L outcome words.  A profile whose length is not
    L raises ``InvalidInputError``, and a table over the budget
    ``ResourceLimitError`` (``family_rows``), before anything is built.
    The shifted kernels, at most (2**L, 2**L), are gathered through an
    int64 index of their shape, and neither is larger than the table, since
    M >= 2**L.  At its peak the call holds the rows, the table and the
    shifted kernels, beside one row chunk's gather.
    """
    check_profile(profile, n_cols)
    rows = family_rows(n_rows, n_cols, max_matrices)
    return rows, mixture_probs_table(rows, channel_kernel(profile))


def family_index(rows: np.ndarray, source: BinaryMatrix) -> int:
    """Position of ``source`` in ``rows``, the ``family_rows`` of its
    shape; ``InvalidInputError`` when they are not, or lack it."""
    if (rows.shape[1] == source.n_rows
            and rows.shape[0] == count_matrices(source.n_rows, source.n_cols)):
        hits = np.flatnonzero((rows == source.rows).all(axis=1))
        if hits.size:
            return int(hits[0])
    raise InvalidInputError(
        f"the {source.n_rows}x{source.n_cols} source is not in a family of "
        f"{rows.shape[0]} {rows.shape[1]}-row sources"
    )


def family_source(rows: np.ndarray, index: int, n_cols: int) -> BinaryMatrix:
    """The ``BinaryMatrix`` of row ``index`` of ``family_rows``."""
    return BinaryMatrix(tuple(rows[index].tolist()), n_cols)


@dataclass(frozen=True)
class ClosestPairResult:
    """Exact minimum over all unordered pairs of distinct sources.

    ``zero_ci`` marks the degenerate finding that two distinct sources map
    to the same output distribution, i.e. the family is not identifiable.
    ``pairs_solved`` counts the distinct pairs sent to the Chernoff solver:
    the phase-1 survivors and their images, solved as one batch, and the
    pairs of the full scan that runs when that batch's minimum is near zero.
    """

    pair: MatrixPair
    min_ci: float
    candidates_examined: int
    lambda_star: float
    zero_ci: bool
    pairs_solved: int


def _solve(probs, codes, best) -> tuple[tuple, np.ndarray]:
    """Fold the pairs coded ``codes`` into the key ``best``.

    Pair ``(i, j)`` is coded ``i * M + j``, M being the rows of ``probs``;
    the codes increase, and row i is the solver's ``p1``.  Returns the
    smallest key ``(value, i, j, lambda_star)`` and the codes solved, a
    prefix of ``codes``: once the key has value 0 and comes before the next
    pair, no later pair can beat it.
    """
    done = 0
    for at in range(0, codes.size, _SOLVE_PAIRS):
        i, j = np.divmod(codes[at:at + _SOLVE_PAIRS], probs.shape[0])
        if best[:3] < (0.0, i[0], j[0]):
            break
        part, lams = chernoff_info_batch(probs[i], probs[j])
        k = np.lexsort((j, i, part))[0]
        best = min(best, (float(part[k]), int(i[k]), int(j[k]),
                          float(lams[k])))
        done = at + i.size
    return best, codes[:done]


def _min_pair(probs, side, row_blocks,
              images=lambda codes: codes[:0]) -> tuple[tuple, np.ndarray]:
    """Smallest key ``(value, i, j, lambda_star)`` over the pairs of the tiles.

    ``row_blocks`` lists blocks ``(rows, c0, c1)`` in increasing i; ``rows``
    are sources (rows of ``probs``), a slice or an increasing index array.
    Tile k of a block pairs them with the j in ``[c0 + k * side, c1)``, at
    most ``side``, keeping only j > i unless it ends at or before its
    first i.  Row i is the solver's ``p1``.  Returns the key and the codes
    ``i * M + j`` (``_solve``) of every pair solved.

    Each block first solves its pairs within ``PRUNE_MARGIN`` of zero, up to
    a block that holds a zero; then one batch solves the survivors of the
    tangent bound and the codes ``images`` maps theirs to (module docstring).

    The roots of the columns the blocks span, from the first c0 to the last
    c1, are taken once, and a block's rows are rooted for its tiles only,
    again by each later pass that reads it.  So the call holds the table
    ``probs``, the spanned columns' roots, one block's roots and one float
    per tile, its largest coefficient.
    """
    n = probs.shape[0]
    base = min(c0 for _, c0, _ in row_blocks)
    end = max(c1 for _, _, c1 in row_blocks)
    column_roots = np.sqrt(probs[base:end])
    positions = np.arange(n)

    def coefficients(roots, i_rows, c0, c1):
        """Coefficients of the tile of the rows at ``i_rows``, whose square
        roots are ``roots``, and the columns ``range(c0, c1)``."""
        bhatta = roots @ column_roots[c0 - base:c1 - base].T
        if c0 <= i_rows[-1] and c1 > i_rows[0]:
            # -1 lies below every coefficient and every threshold
            bhatta[np.arange(c0, c1) <= i_rows[:, None]] = -1.0
        return bhatta

    def between(blocks, lo, hi, roots=None):
        """Codes of the pairs whose coefficient lies in [lo, hi), increasing.

        ``blocks`` lists ``(rows, c0, c1, tops)``, ``tops`` the largest
        coefficient of each tile.  The rows of each block read are rooted
        here, unless ``roots`` holds those of the one block given.
        """
        found = [np.empty(0, dtype=np.int64)]
        for rows, c0, c1, tops in blocks:
            starts = (c0 + side * np.flatnonzero(tops >= lo)).tolist()
            if not starts:
                continue
            held = np.sqrt(probs[rows]) if roots is None else roots
            i_rows = positions[rows]
            for t0 in starts:
                bhatta = coefficients(held, i_rows, t0, min(t0 + side, c1))
                i, j = np.nonzero((bhatta >= lo) & (bhatta < hi))
                found.append(i_rows[i] * n + j + t0)
            del held
        return np.sort(np.concatenate(found))

    # A pair survives when -log BC <= incumbent + PRUNE_MARGIN, so every
    # pair of zero information has BC >= zero_cut.
    zero_cut = math.exp(-PRUNE_MARGIN)
    best, solved, scanned = (math.inf, math.inf, math.inf, 0.5), [], []
    for rows, c0, c1 in row_blocks:
        roots, i_rows = np.sqrt(probs[rows]), positions[rows]
        block = (rows, c0, c1, np.array([
            coefficients(roots, i_rows, t0, min(t0 + side, c1)).max()
            for t0 in range(c0, c1, side)]))
        codes = between([block], zero_cut, math.inf, roots)
        del roots
        best, codes = _solve(probs, codes, best)
        solved.append(codes)
        if best[0] == 0.0:  # no earlier block holds a zero
            return best, np.concatenate(solved)
        scanned.append(block)
    # Any subset of the pairs of largest coefficient gives a bound.
    top_coefficient = max(tops.max() for *_, tops in scanned)
    top = between(scanned, min(top_coefficient, zero_cut),
                  zero_cut)[:_SOLVE_PAIRS]
    bound = float(tangent_bound(probs[top // n], probs[top % n]).min(
        initial=best[0]))
    codes = between(scanned, math.exp(-(bound + PRUNE_MARGIN)), zero_cut)
    # no coefficient pass is left: free the square roots before the solve
    column_roots = None
    codes = np.sort(np.concatenate(
        (codes, images(np.concatenate(solved + [codes])))))
    best, codes = _solve(probs, codes, best)
    return best, np.concatenate(solved + [codes])


def _upper_tiles(heads: np.ndarray, n: int, side: int) -> list:
    """Row blocks of the pairs (i, j > i) with i in ``heads``, j below ``n``."""
    return [(block, block[0], n)
            for block in np.array_split(heads, range(side, heads.size, side))]


def _pair_images(rows, counts, codes, firsts) -> np.ndarray:
    """Codes ``i * M + j`` of the images (i < j) of the pairs coded ``codes``.

    An image XORs both sources of a pair with one mask.  Images whose i is
    in ``firsts`` are left out: they are pairs of phase 1, solved or pruned
    as unable to win.  The codes are distinct and increasing.

    The 2**L masks lie on a leading axis, so each chunk of codes takes all
    its images in one broadcast: a chunk's XOR-ed sources are a
    (2**L, chunk, N) int64 array per side, about 256 KiB (``row_chunks``).
    """
    n = rows.shape[0]
    scanned = np.zeros(n, dtype=bool)
    scanned[firsts] = True
    masks = np.arange(counts.shape[1] - 1)[:, None, None]
    images = [np.empty(0, dtype=np.int64)]
    for chunk in row_chunks(codes.size, 8 * rows.shape[1] * masks.size):
        part = codes[chunk]
        ia = _xor_images(rows[part // n], counts, masks)
        ib = _xor_images(rows[part % n], counts, masks)
        i, j = np.minimum(ia, ib), np.maximum(ia, ib)
        images.append((i * n + j)[~scanned[i]])
    return _distinct(np.concatenate(images))


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of ``codes``, increasing.

    ``np.unique`` would do, but its first call imports ``numpy.ma``, which
    costs a fresh process about 25 ms.
    """
    codes = np.sort(codes)
    keep = np.ones(codes.size, dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


def closest_pair(n_rows: int, n_cols: int, profile: FlipProfile,
                 max_matrices: int = DEFAULT_MAX_MATRICES) -> ClosestPairResult:
    """Exact minimum-Chernoff-information pair over the whole family.

    Distinct sources with identical output distributions are reported with
    ``min_ci = 0`` rather than skipped.  Ties are broken by lexicographic
    pair order, making the result independent of the tile schedule; the
    scan runs on the calling thread.

    Phase 1 prunes the pairs ``(r, j > r)`` whose first source ``r`` comes
    first in its XOR orbit, and one batch solves the survivors with their
    images whose first source is not orbit-first; near zero the full scan
    runs instead.  The module docstring says why this is exact.
    """
    rows, probs = family_table(n_rows, n_cols, profile, max_matrices)
    n = rows.shape[0]  # at least 2: N, L >= 1
    side = max(1, math.isqrt(_TILE_MADDS // probs.shape[1]))
    counts = _rank_counts(n_rows, n_cols)
    firsts = _orbit_firsts(rows, counts)
    best, solved = _min_pair(
        probs, side, _upper_tiles(firsts, n, side),
        lambda codes: _pair_images(rows, counts, codes, firsts))
    if best[0] <= PRUNE_MARGIN:
        best, rest = _min_pair(probs, side,
                               _upper_tiles(np.arange(n), n, side))
        solved = _distinct(np.concatenate((solved, rest)))
    value, bi, bj, lam = best
    return ClosestPairResult(
        pair=MatrixPair(a=family_source(rows, bi, n_cols),
                        b=family_source(rows, bj, n_cols), profile=profile),
        min_ci=value,
        candidates_examined=n * (n - 1) // 2,
        lambda_star=lam,
        zero_ci=(value == 0.0),
        pairs_solved=solved.size,
    )


def exact_error_exponent(truth: BinaryMatrix, profile: FlipProfile,
                         max_matrices: int = DEFAULT_MAX_MATRICES,
                         rows: np.ndarray | None = None
                         ) -> tuple[float, BinaryMatrix]:
    """Minimum Chernoff information between the truth and any other source.

    This is the exact asymptotic exponent of the maximum-likelihood error
    probability when ``truth`` generated the data.  Ties go to the source
    that comes first in enumeration order.  ``rows`` is the truth's
    ``family_rows``, for a caller that already made them; otherwise they
    are made here.  The table built from them is charged to the budget.
    """
    check_profile(profile, truth.n_cols)
    if rows is None:
        rows = family_rows(truth.n_rows, truth.n_cols, max_matrices)
    n, t = rows.shape[0], family_index(rows, truth)
    _check_table(*rows.shape, truth.n_cols)
    probs = mixture_probs_table(rows, channel_kernel(profile))
    height = max(1, _TILE_MADDS // probs.shape[1])
    strips = [(slice(r0, min(r0 + height, stop)), t, t + 1)
              for start, stop in ((0, t), (t + 1, n))
              for r0 in range(start, stop, height)]
    (value, other, _, _), _ = _min_pair(probs, 1, strips)
    return value, family_source(rows, other, truth.n_cols)


def random_pair_stream(n_rows: int, n_cols: int, count: int, seed: int,
                       profile: FlipProfile,
                       critical_only: bool = False) -> Iterator[MatrixPair]:
    """Deterministic stream of random unequal pairs sharing ``profile``.

    With ``critical_only`` the pairs are assembled from the structural
    characterization: one side holds n* copies of every even-parity word,
    the other n* copies of every odd-parity word, plus a shared random
    padding multiset, so every emitted pair is critical by construction.
    Rows too many for the budget are refused as a constructed pair's are.
    """
    check_shape(n_rows, n_cols)
    check_profile(profile, n_cols)
    _check_pair(n_rows, n_cols)
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
            evens = parity_words(n_cols, 0) * mult
            odds = parity_words(n_cols, 1) * mult
            if rng.integers(0, 2):
                evens, odds = odds, evens
            return MatrixPair.from_rows(evens + padding, odds + padding,
                                        profile)
        while True:
            pair = MatrixPair.from_rows(
                rng.integers(0, 1 << n_cols, n_rows).tolist(),
                rng.integers(0, 1 << n_cols, n_rows).tolist(), profile)
            if pair.a != pair.b:
                return pair

    for _ in range(count):
        yield emit()
