"""Binary source matrices, flip profiles, and their channel-output mixtures.

A source is a multiset of ``n_rows`` binary words of length ``n_cols``; row
order never matters.  Words are packed into Python ints with bit ``l``
holding column ``l``.  Observing the source through a memoryless channel
that flips column ``l`` independently with probability ``f_l`` turns each
source into a dense probability vector over all ``2**n_cols`` outcome words.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .exceptions import InvalidInputError, ResourceLimitError

# Dense 2**L vectors are the computation model; 30 keeps them addressable.
MAX_COLS = 30
# Largest array one call may build, in bytes: a family table or its rows
# array; for one mixture vector, the arrays its call holds at once.
_BUDGET_BYTES = 1 << 30

NORMALIZATION_TOL = 1e-12


def check_shape(n_rows: int, n_cols: int) -> None:
    """Refuse a source shape with no rows or no columns."""
    if n_rows < 1 or n_cols < 1:
        raise InvalidInputError(f"need N >= 1 and L >= 1, got {n_rows}, {n_cols}")


def check_unit(value: float, name: str) -> None:
    """Refuse a ``value`` outside [0, 1], NaN included, reported as ``name``."""
    if not 0.0 <= value <= 1.0:
        raise InvalidInputError(f"{name} {value!r} outside [0, 1]")


def check_profile(profile: FlipProfile, n_cols: int) -> None:
    """Refuse a profile whose length is not the column count."""
    if len(profile) != n_cols:
        raise InvalidInputError(
            f"profile length {len(profile)} != column count {n_cols}")


def check_budget(n_bytes: int, what: str) -> None:
    """Refuse, with ``ResourceLimitError``, an array over ``_BUDGET_BYTES``."""
    if n_bytes > _BUDGET_BYTES:
        raise ResourceLimitError(
            f"{what} needs {n_bytes} bytes, over the budget of {_BUDGET_BYTES}")


def drop_bit(word: int, col: int) -> int:
    """Remove bit ``col`` from ``word``, shifting higher bits down."""
    return ((word >> (col + 1)) << col) | (word & ((1 << col) - 1))


@dataclass(frozen=True)
class BinaryMatrix:
    """Canonical multiset of binary rows; equal iff row multisets are equal.

    Rows are sorted ascending on construction, so permuting the input rows
    yields the identical object.  ``n_rows == 0`` is permitted only so that
    row-reduction results can be represented; sources fed to the channel
    must have at least one row.
    """

    rows: tuple[int, ...]
    n_cols: int

    def __post_init__(self) -> None:
        if not 1 <= self.n_cols <= MAX_COLS:
            raise InvalidInputError(
                f"n_cols must be in [1, {MAX_COLS}], got {self.n_cols}"
            )
        rows = tuple(sorted(self.rows))
        for word in rows:
            if word < 0 or word >> self.n_cols:
                raise InvalidInputError(
                    f"row {word!r} does not fit in {self.n_cols} bits"
                )
        object.__setattr__(self, "rows", rows)

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

    Normalization is asserted, never repaired: a vector that fails to sum
    to 1 within 1e-12 indicates a bug upstream and is rejected.
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
        if probs.min(initial=0.0) < 0.0:
            raise InvalidInputError("negative probability entry")
        if abs(float(probs.sum()) - 1.0) > NORMALIZATION_TOL:
            raise InvalidInputError(
                f"probabilities sum to {probs.sum()!r}, not 1 within "
                f"{NORMALIZATION_TOL}"
            )
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
    Row w of ``shifted`` is the kernel seen from word w, so each of the N
    rows of every source is one row gather; no (M, N, 2**L) array is built.
    """
    outcomes = np.arange(kernel.shape[0])
    shifted = kernel[outcomes[:, None] ^ outcomes]
    total = shifted[rows_table[:, 0]]
    for n in range(1, rows_table.shape[1]):
        total += shifted[rows_table[:, n]]
    return total / rows_table.shape[1]


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
    lines = [
        "".join("1" if (r >> l) & 1 else "0" for l in range(m.n_cols))
        for r in m.rows
    ]
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str) -> BinaryMatrix:
    """Parse the matrix text format; a blank line terminates the matrix."""
    rows = []
    n_cols = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            break
        if set(line) - {"0", "1"}:
            raise InvalidInputError(f"line {lineno}: invalid characters in {line!r}")
        if n_cols is None:
            n_cols = len(line)
            if n_cols > MAX_COLS:
                raise InvalidInputError(
                    f"line {lineno}: {n_cols} columns exceeds limit {MAX_COLS}"
                )
        elif len(line) != n_cols:
            raise InvalidInputError(
                f"line {lineno}: ragged row of length {len(line)}, expected {n_cols}"
            )
        word = 0
        for pos, ch in enumerate(line):
            if ch == "1":
                word |= 1 << pos
        rows.append(word)
    if not rows:
        raise InvalidInputError("matrix text contains no rows")
    return BinaryMatrix(tuple(rows), n_cols)
