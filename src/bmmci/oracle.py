"""Exhaustive ground truth over the space of canonical sources.

Enumerates every N-row multiset of L-bit words, evaluates the Chernoff
information between all unordered pairs of distinct sources, and reports
the exact minimum.  The pair scan prunes with the Bhattacharyya value at
lambda = 1/2 (a lower bound on each pair's Chernoff information), kept
exact by a small safety margin, and resolves ties deterministically by
lexicographic pair order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator

import numpy as np

from .chernoff import chernoff_info  # noqa: F401  looked up by bench/spans.py
from .chernoff import chernoff_info_batch
from .exceptions import InvalidInputError, ResourceLimitError
from .mixtures import BinaryMatrix, FlipProfile, channel_kernel, mixture_probs_table
from .reductions import MatrixPair

DEFAULT_MAX_MATRICES = 10 ** 6
# Pairs whose cheap bound sits within this margin of the incumbent are
# always fully evaluated, so float noise in the bound can never prune a
# true minimizer.
PRUNE_MARGIN = 1e-9
_CHUNK_PAIRS = 1 << 17
_WARM_START = 64


def count_matrices(n_rows: int, n_cols: int) -> int:
    """Number of canonical matrices: multisets of N words from 2**L values."""
    return math.comb((1 << n_cols) + n_rows - 1, n_rows)


def _check_shape(n_rows: int, n_cols: int) -> None:
    if n_rows < 1 or n_cols < 1:
        raise InvalidInputError(f"need N >= 1 and L >= 1, got {n_rows}, {n_cols}")


def enumerate_matrices(n_rows: int, n_cols: int,
                       max_matrices: int = DEFAULT_MAX_MATRICES
                       ) -> Iterator[BinaryMatrix]:
    """Yield every canonical matrix once, in lexicographic order of sorted rows."""
    _check_shape(n_rows, n_cols)
    total = count_matrices(n_rows, n_cols)
    if total > max_matrices:
        raise ResourceLimitError(
            f"{total} matrices for N={n_rows}, L={n_cols} exceeds the cap "
            f"of {max_matrices}"
        )
    for rows in combinations_with_replacement(range(1 << n_cols), n_rows):
        yield BinaryMatrix(rows, n_cols)


def family_table(n_rows: int, n_cols: int, profile: FlipProfile,
                 max_matrices: int) -> tuple[list[BinaryMatrix], np.ndarray]:
    """Every canonical source with its channel-output distribution.

    Returns ``(matrices, probs)`` in enumeration order; ``probs[i]`` is the
    mixture vector of ``matrices[i]`` over the 2**L outcome words.
    """
    matrices = list(enumerate_matrices(n_rows, n_cols, max_matrices))
    rows_table = np.array([m.rows for m in matrices], dtype=np.int64)
    return matrices, mixture_probs_table(rows_table, channel_kernel(profile))


def _log_probs(probs: np.ndarray) -> np.ndarray:
    # Zero probabilities become -inf, the solver's zero-support encoding.
    with np.errstate(divide="ignore"):
        return np.log(probs)


@dataclass(frozen=True)
class ClosestPairResult:
    """Exact minimum over all unordered pairs of distinct sources.

    ``zero_ci`` marks the degenerate finding that two distinct sources map
    to the same output distribution, i.e. the family is not identifiable.
    """

    pair: MatrixPair
    min_ci: float
    candidates_examined: int
    lambda_star: float
    zero_ci: bool


def _pair_chunks(n_items: int, chunk_pairs: int):
    """Unordered index pairs (i < j) in lexicographic order, chunked."""
    buf_i, buf_j, size = [], [], 0
    for i in range(n_items - 1):
        count = n_items - 1 - i
        buf_i.append(np.full(count, i, dtype=np.int64))
        buf_j.append(np.arange(i + 1, n_items, dtype=np.int64))
        size += count
        if size >= chunk_pairs:
            yield np.concatenate(buf_i), np.concatenate(buf_j)
            buf_i, buf_j, size = [], [], 0
    if size:
        yield np.concatenate(buf_i), np.concatenate(buf_j)


def _scan_chunk(logs, sqrt_probs, ii, jj, incumbent):
    bhatta = np.einsum("ij,ij->i", sqrt_probs[ii], sqrt_probs[jj])
    cheap = np.maximum(0.0, -np.log(np.maximum(bhatta, 1e-300)))

    # Warm-start on the most promising pairs so the prune threshold is
    # tight before the rest of the chunk is filtered.
    order = np.argsort(cheap, kind="stable")[:_WARM_START]
    best = incumbent
    for stage_idx in (order, None):
        if stage_idx is None:
            mask = cheap <= best[0] + PRUNE_MARGIN
            mask[order] = False
            stage_idx = np.flatnonzero(mask)
        vals, lams = chernoff_info_batch(logs[ii[stage_idx]], logs[jj[stage_idx]])
        for pos in range(stage_idx.size):
            key = (vals[pos], int(ii[stage_idx[pos]]), int(jj[stage_idx[pos]]))
            if key < best[:3]:
                best = key + (float(lams[pos]),)
    return best


def closest_pair(n_rows: int, n_cols: int, profile: FlipProfile,
                 max_matrices: int = DEFAULT_MAX_MATRICES,
                 threads: int = 1) -> ClosestPairResult:
    """Exact minimum-Chernoff-information pair over the whole family.

    Distinct sources with identical output distributions are reported with
    ``min_ci = 0`` rather than skipped.  Ties are broken by lexicographic
    pair order, making the result independent of evaluation schedule.
    """
    if len(profile) != n_cols:
        raise InvalidInputError(
            f"profile length {len(profile)} != column count {n_cols}"
        )
    if threads < 1:
        raise InvalidInputError(f"threads must be >= 1, got {threads}")
    matrices, probs = family_table(n_rows, n_cols, profile, max_matrices)
    n = len(matrices)
    if n < 2:
        raise InvalidInputError("fewer than two candidate sources")
    logs = _log_probs(probs)
    sqrt_probs = np.sqrt(probs)

    total_pairs = n * (n - 1) // 2
    best = (math.inf, -1, -1, 0.5)
    chunks = _pair_chunks(n, _CHUNK_PAIRS)
    if threads == 1:
        for ii, jj in chunks:
            best = _scan_chunk(logs, sqrt_probs, ii, jj, best)
            if best[0] == 0.0:
                break
    else:
        # Chunks are scanned with a possibly stale incumbent, which only
        # widens the evaluated set; the key comparison keeps the result
        # schedule independent.
        with ThreadPoolExecutor(max_workers=threads) as pool:
            pending = []
            for ii, jj in chunks:
                pending.append(pool.submit(_scan_chunk, logs, sqrt_probs,
                                           ii, jj, best))
                if len(pending) >= threads:
                    best = min([best] + [f.result() for f in pending])
                    pending = []
                    if best[0] == 0.0:
                        break
            best = min([best] + [f.result() for f in pending])

    value, bi, bj, lam = best
    pair = MatrixPair(a=matrices[bi], b=matrices[bj], profile=profile)
    return ClosestPairResult(
        pair=pair,
        min_ci=float(value),
        candidates_examined=total_pairs,
        lambda_star=float(lam),
        zero_ci=(value == 0.0),
    )


def exact_error_exponent(truth: BinaryMatrix, profile: FlipProfile,
                         max_matrices: int = DEFAULT_MAX_MATRICES
                         ) -> tuple[float, BinaryMatrix]:
    """Minimum Chernoff information between the truth and any other source.

    This is the exact asymptotic exponent of the maximum-likelihood error
    probability when ``truth`` generated the data.
    """
    if len(profile) != truth.n_cols:
        raise InvalidInputError(
            f"profile length {len(profile)} != column count {truth.n_cols}"
        )
    matrices, probs = family_table(truth.n_rows, truth.n_cols, profile,
                                   max_matrices)
    logs = _log_probs(probs)
    truth_idx = matrices.index(truth)
    others = np.delete(np.arange(len(matrices)), truth_idx)
    values, _ = chernoff_info_batch(
        logs[others], np.broadcast_to(logs[truth_idx], (others.size, logs.shape[1])))
    # argmin keeps the first minimum, the lexicographically first source.
    best = int(np.argmin(values))
    return float(values[best]), matrices[others[best]]


def random_pair_stream(n_rows: int, n_cols: int, count: int, seed: int,
                       profile: FlipProfile,
                       critical_only: bool = False) -> Iterator[MatrixPair]:
    """Deterministic stream of random unequal pairs sharing ``profile``.

    With ``critical_only`` the pairs are assembled from the structural
    characterization: one side holds n* copies of every even-parity word,
    the other n* copies of every odd-parity word, plus a shared random
    padding multiset, so every emitted pair is critical by construction.
    """
    _check_shape(n_rows, n_cols)
    if len(profile) != n_cols:
        raise InvalidInputError(
            f"profile length {len(profile)} != column count {n_cols}"
        )
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
