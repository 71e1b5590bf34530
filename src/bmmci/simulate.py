"""Monte Carlo check of the operational meaning of the minimum exponent.

Observations are drawn from a known truth source through the flip channel,
exact maximum likelihood runs over every canonical candidate, and the decay
of the error rate with the sample count estimates the error exponent.  A
trial counts as an error unless the truth's log likelihood strictly exceeds
every other candidate's, so ties are errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import EstimationError, InvalidInputError
from .mixtures import BinaryMatrix, FlipProfile
from .mixtures import mixture_probs_table  # noqa: F401  looked up by bench/spans.py
from .oracle import DEFAULT_MAX_MATRICES, family_table
from .oracle import enumerate_matrices  # noqa: F401  looked up by bench/spans.py

_Z95 = 1.959963984540054
# Trials are generated in fixed-size blocks, each on its own spawned
# substream, so runs are reproducible and blocks can be processed in any
# order.
_TRIAL_BLOCK = 4096
# Candidates assigning probability 0 to an observed word must never win;
# this sentinel keeps the dot product finite while dominating any real
# log likelihood.
_LOG_ZERO = -1e18


@dataclass(frozen=True)
class SimConfig:
    truth: BinaryMatrix
    profile: FlipProfile
    m_values: tuple[int, ...]
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if len(self.profile) != self.truth.n_cols:
            raise InvalidInputError("profile length must match the truth matrix")
        if self.trials < 1:
            raise InvalidInputError(f"trials must be >= 1, got {self.trials}")
        m_values = tuple(int(m) for m in self.m_values)
        if any(m < 0 for m in m_values):
            raise InvalidInputError("sample counts must be nonnegative")
        if any(b <= a for a, b in zip(m_values, m_values[1:])):
            raise InvalidInputError("m_values must be strictly increasing")
        if not m_values:
            raise InvalidInputError("m_values must be non-empty")
        object.__setattr__(self, "m_values", m_values)


@dataclass(frozen=True)
class ExponentEstimate:
    """Per-sample-count error rates and the fitted decay slope (nats/sample)."""

    per_m: tuple[tuple[int, float, tuple[float, float]], ...]
    slope: float
    slope_interval: tuple[float, float]


def wilson_interval(successes: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise InvalidInputError("interval requires at least one trial")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return low, high


def _sample_block(rows: np.ndarray, profile: FlipProfile, n_trials: int,
                  m: int, rng: np.random.Generator) -> np.ndarray:
    """Observation words for a block of trials, shape (n_trials, m)."""
    idx = rng.integers(0, rows.shape[0], size=(n_trials, m))
    words = rows[idx]
    for col, f in enumerate(profile.flips):
        flips = rng.random((n_trials, m)) < f
        words = words ^ (flips.astype(np.int64) << col)
    return words


def sample_observations(truth: BinaryMatrix, profile: FlipProfile, m: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Draw m observations: uniform row choice, then independent column flips."""
    if len(profile) != truth.n_cols:
        raise InvalidInputError("profile length must match the truth matrix")
    if truth.n_rows == 0:
        raise InvalidInputError("truth matrix must have at least one row")
    rows = np.array(truth.rows, dtype=np.int64)
    return _sample_block(rows, profile, 1, m, rng)[0]


def _candidate_tables(n_rows: int, n_cols: int, profile: FlipProfile,
                      max_matrices: int):
    matrices, probs = family_table(n_rows, n_cols, profile, max_matrices)
    with np.errstate(divide="ignore"):
        log_probs = np.log(probs)
    log_probs = np.maximum(log_probs, _LOG_ZERO)
    return matrices, log_probs


def _counts_matrix(words: np.ndarray, n_outcomes: int) -> np.ndarray:
    n_trials = words.shape[0]
    offsets = np.arange(n_trials, dtype=np.int64)[:, None] * n_outcomes
    flat = (words + offsets).ravel()
    counts = np.bincount(flat, minlength=n_trials * n_outcomes)
    return counts.reshape(n_trials, n_outcomes)


def ml_decide(observations: Sequence[int], profile: FlipProfile,
              n_rows: int, n_cols: int, truth: BinaryMatrix,
              max_matrices: int = DEFAULT_MAX_MATRICES
              ) -> tuple[BinaryMatrix, bool]:
    """Exact maximum likelihood over every canonical candidate.

    Returns the argmax (ties resolved toward the lexicographically first
    candidate) and whether the truth's log likelihood strictly beat every
    rival; with zero observations all likelihoods tie and the flag is False.
    """
    if truth.n_rows != n_rows or truth.n_cols != n_cols:
        raise InvalidInputError("truth matrix shape disagrees with (N, L)")
    matrices, log_probs = _candidate_tables(n_rows, n_cols, profile, max_matrices)
    words = np.asarray(list(observations), dtype=np.int64)
    if words.size and (words.min() < 0 or words.max() >> n_cols):
        raise InvalidInputError("observation word outside the outcome space")
    counts = np.bincount(words, minlength=1 << n_cols).astype(float)
    scores = log_probs @ counts
    chosen = int(np.argmax(scores))
    truth_idx = matrices.index(truth)
    rival = np.delete(scores, truth_idx)
    correct = bool(rival.size == 0 or scores[truth_idx] > rival.max())
    return matrices[chosen], correct


def _error_count(truth_rows: np.ndarray, profile: FlipProfile,
                 log_probs: np.ndarray, truth_idx: int, m: int, trials: int,
                 seed_seq: np.random.SeedSequence) -> int:
    n_outcomes = log_probs.shape[1]
    rival = np.delete(log_probs, truth_idx, axis=0)
    n_blocks = (trials + _TRIAL_BLOCK - 1) // _TRIAL_BLOCK
    streams = seed_seq.spawn(n_blocks)
    errors = 0
    done = 0
    for block, stream in zip(range(n_blocks), streams):
        n_here = min(_TRIAL_BLOCK, trials - done)
        rng = np.random.default_rng(stream)
        words = _sample_block(truth_rows, profile, n_here, m, rng)
        if m == 0:
            errors += n_here  # all likelihoods tie
            done += n_here
            continue
        counts = _counts_matrix(words, n_outcomes).astype(float)
        truth_scores = counts @ log_probs[truth_idx]
        best_rival = (counts @ rival.T).max(axis=1)
        errors += int(np.sum(truth_scores <= best_rival))
        done += n_here
    return errors


def fit_exponent(points: Sequence[tuple[int, float, int]]
                 ) -> tuple[float, tuple[float, float]]:
    """Least-squares slope of -log(error rate) against the sample count.

    ``points`` holds (m, error_rate, trials) with rates strictly inside
    (0, 1); at least three are required.  The interval propagates the
    delta-method variance of each log rate through the slope formula.
    """
    usable = [(m, r, n) for m, r, n in points if 0.0 < r < 1.0]
    if len(usable) < 3:
        raise EstimationError(
            f"need at least 3 sample counts with error rate in (0, 1), "
            f"got {len(usable)}: "
            + ", ".join(f"m={m}: rate={r:.3g}" for m, r, _ in points)
        )
    x = np.array([m for m, _, _ in usable], dtype=float)
    y = np.array([-math.log(r) for _, r, _ in usable])
    var_y = np.array([(1.0 - r) / (n * r) for _, r, n in usable])
    xbar = x.mean()
    sxx = float(((x - xbar) ** 2).sum())
    slope = float(((x - xbar) * (y - y.mean())).sum() / sxx)
    coeff = (x - xbar) / sxx
    sigma = math.sqrt(float((coeff ** 2 * var_y).sum()))
    return slope, (slope - _Z95 * sigma, slope + _Z95 * sigma)


def estimate_exponent(cfg: SimConfig,
                      max_matrices: int = DEFAULT_MAX_MATRICES
                      ) -> ExponentEstimate:
    """Simulate the error rate per sample count and fit the decay exponent."""
    matrices, log_probs = _candidate_tables(cfg.truth.n_rows, cfg.truth.n_cols,
                                            cfg.profile, max_matrices)
    truth_idx = matrices.index(cfg.truth)
    truth_rows = np.array(cfg.truth.rows, dtype=np.int64)

    root = np.random.SeedSequence(cfg.seed)
    point_streams = root.spawn(len(cfg.m_values))
    per_m = []
    for m, stream in zip(cfg.m_values, point_streams):
        errors = _error_count(truth_rows, cfg.profile, log_probs, truth_idx,
                              m, cfg.trials, stream)
        rate = errors / cfg.trials
        per_m.append((m, rate, wilson_interval(errors, cfg.trials)))
    slope, interval = fit_exponent(
        [(m, rate, cfg.trials) for m, rate, _ in per_m]
    )
    return ExponentEstimate(per_m=tuple(per_m), slope=slope,
                            slope_interval=interval)
