"""Binary source matrices, flip profiles, and their channel-output mixtures.

A source is a multiset of ``n_rows`` binary words of length ``n_cols``; row
order never matters.  Words are packed into Python ints with bit ``l``
holding column ``l``.  Observing the source through a memoryless channel
that flips column ``l`` independently with probability ``f_l`` turns each
source into a dense probability vector over all ``2**n_cols`` outcome words.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .exceptions import InvalidInputError, ResourceLimitError

# Dense 2**L vectors are the computation model; 30 keeps them addressable.
MAX_COLS = 30
# Largest array one call may build, in bytes: a family table or its rows
# array; for one mixture vector, the arrays its call holds at once.
_BUDGET_BYTES = 1 << 30
# A table-sized computation runs over row chunks of about this many bytes,
# so that its temporaries stay small beside the table.  With rows of 2**k
# bytes every chunk starts at a multiple of a power of two; so cut, the
# matrix-vector products over chunks matched one product over the table
# bit for bit in every family tested (the BLAS kernels block rows by a
# small power of two).
_CHUNK_BYTES = 1 << 18

NORMALIZATION_TOL = 1e-12


def check_shape(n_rows: int, n_cols: int) -> None:
    """Refuse a source shape with no rows or no columns."""
    if n_rows < 1 or n_cols < 1:
        raise InvalidInputError(f"need N >= 1 and L >= 1, got {n_rows}, {n_cols}")


def check_cols(n_cols: int) -> None:
    """Refuse a column count outside [1, MAX_COLS]."""
    if not 1 <= n_cols <= MAX_COLS:
        raise InvalidInputError(
            f"n_cols must be in [1, {MAX_COLS}], got {n_cols}")


def check_unit(value: float, name: str) -> None:
    """Refuse a ``value`` outside [0, 1], NaN included, reported as ``name``."""
    if not 0.0 <= value <= 1.0:
        raise InvalidInputError(f"{name} {value!r} outside [0, 1]")


def check_probs(probs: np.ndarray) -> None:
    """Refuse a probability vector with a non-finite or negative entry, or
    whose sum is not 1 within ``NORMALIZATION_TOL``."""
    if not np.isfinite(probs).all():
        raise InvalidInputError("non-finite probability entry")
    if probs.min(initial=0.0) < 0.0:
        raise InvalidInputError("negative probability entry")
    total = float(probs.sum())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise InvalidInputError(
            f"probabilities sum to {total!r}, not 1 within "
            f"{NORMALIZATION_TOL}")


def check_profile(profile: FlipProfile, n_cols: int) -> None:
    """Refuse a profile whose length is not the column count."""
    if len(profile) != n_cols:
        raise InvalidInputError(
            f"profile length {len(profile)} != column count {n_cols}")


def check_budget(n_bytes: int, what: str) -> None:
    """Refuse, with ``ResourceLimitError``, an array over ``_BUDGET_BYTES``."""
    if n_bytes > _BUDGET_BYTES:
        raise ResourceLimitError(
            f"{what} needs {decimal_text(n_bytes)} bytes, over the budget of "
            f"{_BUDGET_BYTES}")


def row_chunks(n_rows: int, row_bytes: int) -> Iterator[slice]:
    """Consecutive slices covering ``range(n_rows)``, ``_CHUNK_BYTES`` each
    at ``row_bytes`` bytes a row (at least one row)."""
    step = max(1, _CHUNK_BYTES // row_bytes)
    return (slice(start, start + step) for start in range(0, n_rows, step))


def check_words(words: Sequence[int], n_cols: int, what: str) -> None:
    """Refuse words that are not integers in [0, 2**n_cols), naming the smallest."""
    if not all(issubclass(t, (int, np.integer)) for t in set(map(type, words))):
        raise InvalidInputError(f"{what}s must be integers")
    if words and (min(words) < 0 or max(words) >> n_cols):
        word = min(w for w in words if w < 0 or w >> n_cols)
        raise InvalidInputError(
            f"{what} {decimal_text(word)} does not fit in {n_cols} bits")


def decimal_text(n: int) -> str:
    """``str(n)``, or a lower bound on ``n`` past the digits Python converts
    (``sys.get_int_max_str_digits``)."""
    try:
        return str(n)
    except ValueError:
        return f"at least 10**{sys.get_int_max_str_digits()}"


def drop_bit(word: int, col: int) -> int:
    """Remove bit ``col`` from ``word``, shifting higher bits down."""
    return ((word >> (col + 1)) << col) | (word & ((1 << col) - 1))


@dataclass(frozen=True)
class BinaryMatrix:
    """Canonical multiset of binary rows; equal iff row multisets are equal.

    Rows are sorted ascending on construction, so permuting the input rows
    yields the identical object; bad rows (``check_words``) or a bad column
    count (``check_cols``) raise ``InvalidInputError``.  ``n_rows == 0`` is
    permitted only so that row-reduction results can be represented; sources
    fed to the channel must have at least one row.
    """

    rows: tuple[int, ...]
    n_cols: int

    def __post_init__(self) -> None:
        check_cols(self.n_cols)
        rows = tuple(self.rows)
        check_words(rows, self.n_cols, "row")
        object.__setattr__(self, "rows", tuple(sorted(rows)))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def multiplicities(self) -> Counter:
        """Multiplicity of each distinct row value."""
        return Counter(self.rows)

    def column(self, col: int) -> tuple[int, ...]:
        """Bits of column ``col``, in canonical row order."""
        self._check_col(col)
        return tuple((r >> col) & 1 for r in self.rows)

    def drop_column(self, col: int) -> "BinaryMatrix":
        """Matrix with column ``col`` removed (requires n_cols >= 2)."""
        self._check_col(col)
        if self.n_cols == 1:
            raise InvalidInputError("cannot drop the only column")
        return BinaryMatrix(tuple(drop_bit(r, col) for r in self.rows), self.n_cols - 1)

    def _check_col(self, col: int) -> None:
        if not 0 <= col < self.n_cols:
            raise InvalidInputError(
                f"column index {col} out of range for {self.n_cols} columns"
            )


def canonicalize(rows: Iterable[int], n_cols: int) -> BinaryMatrix:
    """Build the canonical (sorted) matrix from a row iterable."""
    return BinaryMatrix(tuple(rows), n_cols)


@dataclass(frozen=True)
class FlipProfile:
    """Per-column flip probabilities, each in [0, 1]."""

    flips: tuple[float, ...]

    def __post_init__(self) -> None:
        flips = tuple(float(f) for f in self.flips)
        if len(flips) == 0:
            raise InvalidInputError("flip profile must have at least one entry")
        for f in flips:
            check_unit(f, "flip probability")
        object.__setattr__(self, "flips", flips)

    @classmethod
    def constant(cls, f: float, length: int) -> "FlipProfile":
        return cls((float(f),) * length)

    def __len__(self) -> int:
        return len(self.flips)

    @property
    def is_constant(self) -> bool:
        return len(set(self.flips)) == 1

    def drop(self, col: int) -> "FlipProfile":
        if not 0 <= col < len(self.flips):
            raise InvalidInputError(f"profile index {col} out of range")
        return FlipProfile(self.flips[:col] + self.flips[col + 1:])


@dataclass(frozen=True, eq=False)
class MixtureDistribution:
    """Dense probability vector over all 2**n_cols outcome words.

    Normalization is asserted, never repaired: a vector that ``check_probs``
    refuses (a NaN or infinite entry, a negative one, or a sum off 1 by
    more than 1e-12) indicates a bug upstream and is rejected.
    """

    probs: np.ndarray
    n_cols: int

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (1 << self.n_cols,):
            raise InvalidInputError(
                f"expected {1 << self.n_cols} outcome probabilities, "
                f"got shape {probs.shape}"
            )
        check_probs(probs)
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


def channel_kernel(profile: FlipProfile) -> np.ndarray:
    """Probability of each flip pattern: kernel[d] = prod_l f_l^bit * (1-f_l)^(1-bit).

    Index bit ``l`` of ``d`` marks a flip in column ``l``.
    """
    kernel = np.ones(1)
    for f in profile.flips:
        kernel = np.multiply.outer(np.array([1.0 - f, f]), kernel).ravel()
    return kernel


def mixture_distribution(m: BinaryMatrix, fp: FlipProfile) -> MixtureDistribution:
    """Channel-output distribution of a source, each row carrying weight 1/N.

    The call holds at most 2d + 3 outcome vectors at once, for d distinct
    rows: the int64 index and the gather, d rows each, beside the kernel,
    the outcome words and the mixture.  Their bytes over ``_BUDGET_BYTES``
    raise ``ResourceLimitError`` before the kernel is built.
    """
    check_shape(m.n_rows, m.n_cols)
    check_profile(fp, m.n_cols)
    mult = m.multiplicities()
    vector = 8 << m.n_cols
    check_budget((2 * len(mult) + 3) * vector,
                 f"the mixture of a {m.n_rows}x{m.n_cols} source, at {vector}"
                 f" bytes per outcome vector,")
    kernel = channel_kernel(fp)
    outcomes = np.arange(1 << m.n_cols)
    values = np.fromiter(mult.keys(), dtype=np.int64, count=len(mult))
    weights = np.fromiter(mult.values(), dtype=float, count=len(mult))
    probs = weights @ kernel[values[:, None] ^ outcomes[None, :]]
    probs /= m.n_rows
    return MixtureDistribution(probs, m.n_cols)


def mixture_probs_table(rows_table: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Mixture vectors for many sources at once.

    ``rows_table`` has one source per row (shape (M, N)); returns (M, 2**L).
    ``shifted`` holds the kernel seen from each word that occurs in
    ``rows_table``, word w at row ``slot[w]``, so each of the N rows of
    every source is one row gather.  The sum runs over row chunks of the
    result, in place, so the call holds the result and one chunk's gather
    beside ``shifted`` and its int64 index, one row per word present: a few
    sources make a few rows, not 2**L.  No (M, N, 2**L) array and no second
    table is built.
    """
    outcomes = np.arange(kernel.shape[0])
    present = np.zeros(kernel.shape[0], dtype=bool)
    present[rows_table] = True
    shifted = kernel[np.flatnonzero(present)[:, None] ^ outcomes]
    slot = np.cumsum(present) - 1
    table = np.empty((rows_table.shape[0], kernel.shape[0]))
    for chunk in row_chunks(table.shape[0], kernel.nbytes):
        total, rows = table[chunk], slot[rows_table[chunk]]
        total[...] = shifted[rows[:, 0]]
        for n in range(1, rows.shape[1]):
            total += shifted[rows[:, n]]
    table /= rows_table.shape[1]
    return table


@dataclass(frozen=True)
class DeltaResult:
    """Row-reduced remainder of two equally shaped matrices.

    The maximal matching of equal rows is removed from both sides, so the
    remainders share no row value;  ``removed_count`` is the size of the
    multiset intersection.
    """

    delta_a: BinaryMatrix
    delta_b: BinaryMatrix
    removed_count: int


def delta_reduce(a: BinaryMatrix, b: BinaryMatrix) -> DeltaResult:
    """Iteratively remove pairs of equal rows from both matrices."""
    if a.n_cols != b.n_cols or a.n_rows != b.n_rows:
        raise InvalidInputError(
            f"shape mismatch: {a.n_rows}x{a.n_cols} vs {b.n_rows}x{b.n_cols}"
        )
    ca, cb = Counter(a.rows), Counter(b.rows)
    common = ca & cb
    rest_a = tuple((ca - common).elements())
    rest_b = tuple((cb - common).elements())
    return DeltaResult(
        delta_a=BinaryMatrix(rest_a, a.n_cols),
        delta_b=BinaryMatrix(rest_b, b.n_cols),
        removed_count=sum(common.values()),
    )


def format_matrix_text(m: BinaryMatrix) -> str:
    """One row per line, characters '0'/'1', column ``l`` at position ``l``."""
    width = f"0{m.n_cols}b"
    return "\n".join(format(r, width)[::-1] for r in m.rows) + "\n"


def parse_matrix_text(text: str) -> BinaryMatrix:
    """Parse the matrix text format; a blank line terminates the matrix."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            break
        if set(line) - {"0", "1"}:
            raise InvalidInputError(f"line {lineno}: invalid characters in {line!r}")
        if not rows:
            n_cols = len(line)
            if n_cols > MAX_COLS:
                raise InvalidInputError(
                    f"line {lineno}: {n_cols} columns exceeds limit {MAX_COLS}")
        elif len(line) != n_cols:
            raise InvalidInputError(
                f"line {lineno}: ragged row of length {len(line)}, expected {n_cols}")
        rows.append(int(line[::-1], 2))
    if not rows:
        raise InvalidInputError("matrix text contains no rows")
    return BinaryMatrix(tuple(rows), n_cols)
