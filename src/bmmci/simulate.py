"""Monte Carlo check of the operational meaning of the minimum exponent.

Data are drawn from a known truth source through the flip channel, exact
maximum likelihood runs over every canonical candidate, and the decay of the
error rate with the sample count estimates the error exponent.  A trial
counts as an error unless the truth's log likelihood strictly exceeds every
other candidate's, so ties are errors.

Maximum likelihood reads only the outcome counts, and under the truth those
are Multinomial(m, p_truth), so a trial draws its counts, not its m
observations.  A rival is scored by the log-likelihood ratio
``counts · (log p_rival - log p_truth)``, which is exactly 0 for a rival with
the truth's probabilities; a score within rounding of 0 is a tie.  A trial
leaves once some rival ties or beats the truth, and the scoring of a block
stops when no trial is left.

Rivals are scored a tile at a time, in groups of consecutive rivals taken
nearest group first, so that losing trials leave early; since a trial is an
error exactly when some rival ties or beats the truth, the order cannot
change the counts (rivals that fit in one tile keep enumeration order).
Every product is rival-major, (rivals, trials), so "some rival reaches its
threshold" ORs whole rows of trials together.  The first tile is scored
directly.  Past it, most trials are won by the truth, and a whole group is
cleared at once by its envelope, the outcome-wise largest ratio over its
members: counts are nonnegative, so ``counts · envelope`` bounds every
member's score from above, and a trial whose envelope score is below twice
the group's largest tie threshold beats every member.  The margin covers
the rounding of both products; a sentinel entry can only lower the envelope
score, and every member's score with it.  The envelopes are scored a span
of groups at a time, in one product; then each tile of the span scores only
the trials that its groups leave open and that no earlier tile of the span
settled.  A trial that no group of a span leaves open beats the whole span
unscored.  Trials settled within a span leave at its end, and the block is
compacted only when some trial left.

Sampling is most of the work when the family is small.  Each block of
trials has its own substream, spawned in order on the calling thread, and
is drawn on a thread pool (``Generator.multinomial`` runs without the
interpreter lock), at most one more block ahead than there are workers.
Workers start as blocks are submitted, at most one per CPU, and no block is
drawn on the calling thread, which scores the blocks in order as they
arrive.  The errors are summed per m, so the counts are the same on any
number of CPUs.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .exceptions import EstimationError, InvalidInputError
from .mixtures import BinaryMatrix, FlipProfile, check_profile, check_shape
from .mixtures import mixture_probs_table  # noqa: F401  looked up by bench/spans.py
from .oracle import (DEFAULT_MAX_MATRICES, family_index, family_source,
                     family_table)
from .oracle import enumerate_matrices  # noqa: F401  looked up by bench/spans.py

_Z95 = 1.959963984540054
# Trials are generated in fixed-size blocks, each on its own substream,
# spawned in (m, block) order on the calling thread; the blocks are drawn by
# pool workers, started as blocks are submitted and at most one per CPU, and
# scored in order on the calling thread, so the counts depend on neither the
# schedule nor the number of CPUs.
_TRIAL_BLOCK = 4096
# Rivals per tile, and groups per span: a full trial block against a tile
# of rivals or a span of envelopes is an 8 MiB product, whatever the size
# of the family.
_RIVAL_TILE = 256
# Consecutive rivals sharing one likelihood envelope.  On a 3x6 truth at
# f = 0.2 and m = 10..40, envelopes of 8 clear 94-99% of the (correct
# trial, group) pairs; envelopes of 16 clear only 76-94%.
_GROUP = 8
# Candidates assigning probability 0 to an observed word must never win;
# this sentinel keeps the ratios finite (a zero on both sides gives 0, not
# nan) while dominating any real log likelihood.
_LOG_ZERO = -1e18
# A rival whose probabilities are a permutation of the truth's (the truth
# with its rows XORed by a mask, say) ties exactly with counts permuted
# alike, but the tables, the logs and the products leave that tie a few
# units in the last place either side of 0.  A score above
# -m * _TIE_RTOL * (1 + max |log p|), summed over both sources, counts as a
# tie; the rounding is about (N + 2**L) * 2**-53 of that scale, below
# 1e-12 for N + 2**L up to about 9,000.  A group envelope's score rounds
# within the same scale, so an envelope score below twice its group's
# largest threshold leaves every member's score below that member's own.
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SimConfig:
    truth: BinaryMatrix
    profile: FlipProfile
    m_values: tuple[int, ...]
    trials: int
    seed: int

    def __post_init__(self) -> None:
        check_profile(self.profile, self.truth.n_cols)
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


def sample_observations(truth: BinaryMatrix, profile: FlipProfile, m: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Draw m observations: uniform row choice, then independent column flips."""
    check_shape(truth.n_rows, truth.n_cols)
    check_profile(profile, truth.n_cols)
    rows = np.array(truth.rows, dtype=np.int64)
    words = rows[rng.integers(0, rows.shape[0], size=m)]
    for col, f in enumerate(profile.flips):
        words ^= (rng.random(m) < f).astype(np.int64) << col
    return words


def _rival_ratios(probs: np.ndarray, truth_idx: int,
                  order: Callable[[np.ndarray], np.ndarray] | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Per-rival log-probability ratios against the truth and their tie slack.

    Returns ``(ratios, slack)``: row i of ``ratios`` is
    ``log p_r - log p_truth`` over the outcomes for the i-th rival r in
    scoring order, and a score ``counts @ ratios[i]`` of at least
    ``-m * slack[i]`` is a tie or a win for that rival.  The scoring order
    is enumeration order, or ``order(nearness)``: positions into the rivals
    in enumeration order, given each one's ``log p_r · p_truth``.
    """
    with np.errstate(divide="ignore"):
        logs = np.log(probs)
    # Over each source's support only: a sentinel entry is met by zero
    # counts (exact) or decides the trial by far more than any slack.
    magnitude = 1.0 - np.log(np.min(probs, axis=1, where=probs > 0.0,
                                    initial=np.inf))
    np.maximum(logs, _LOG_ZERO, out=logs)
    rivals = np.delete(np.arange(probs.shape[0]), truth_idx)
    if order is not None:
        rivals = rivals[order((logs @ probs[truth_idx])[rivals])]
    ratios = logs[rivals]
    ratios -= logs[truth_idx]
    slack = magnitude[rivals] + magnitude[truth_idx]
    return ratios, _TIE_RTOL * slack


def _nearest_groups_first(nearness: np.ndarray) -> np.ndarray:
    """Positions of the rivals in groups of ``_GROUP``, nearest group first.

    A group is ``_GROUP`` rivals consecutive in enumeration order, and a
    short last group is padded with copies of its last rival, which changes
    no envelope and no decision.  Groups are ordered by their largest
    ``nearness``, descending.
    """
    n = nearness.size
    groups = np.minimum(np.arange(-(-n // _GROUP) * _GROUP),
                        n - 1).reshape(-1, _GROUP)
    return groups[np.argsort(-nearness[groups].max(axis=1),
                             kind="stable")].ravel()


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
    table = family_table(n_rows, n_cols, profile, max_matrices)
    rows, probs = table
    words = np.asarray(list(observations), dtype=np.int64)
    if words.size and (words.min() < 0 or words.max() >> n_cols):
        raise InvalidInputError("observation word outside the outcome space")
    counts = np.bincount(words, minlength=1 << n_cols).astype(float)
    truth_idx = family_index(table, truth)
    ratios, slack = _rival_ratios(probs, truth_idx)
    scores = ratios @ counts
    correct = bool(np.all(scores < -words.size * slack))
    chosen = int(np.argmax(np.insert(scores, truth_idx, 0.0)))
    return family_source(rows, chosen, n_cols), correct


def _cpu_count() -> int:
    """The CPUs this process may run on: one sampling worker each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _draw(seed: np.random.SeedSequence, m: int, p_truth: np.ndarray,
          n: int) -> np.ndarray:
    """Outcome counts of n trials of m observations each, one row a trial."""
    return np.random.default_rng(seed).multinomial(m, p_truth, size=n)


def _drawn_blocks(p_truth: np.ndarray,
                  jobs: Iterable[tuple[np.random.SeedSequence, int, int]]
                  ) -> Iterator[tuple[int, np.ndarray]]:
    """Each job's ``(m, block)`` in job order, drawn on a thread pool.

    A job ``(seed, m, n)`` is the block ``_draw(seed, m, p_truth, n)``, and
    jobs are taken from ``jobs`` on the calling thread, which draws none of
    them.  The pool has one worker per CPU, and a worker starts only when a
    job is submitted while none is idle, so k jobs start at most
    min(k, CPUs) workers.  A draw's exception is raised in its job's turn.
    At most one job more than there are workers is submitted ahead of the
    block last yielded, each holding one block: the int64 draw, which the
    caller casts.  Finishing or closing the generator cancels the jobs no
    worker has started and joins the workers.  The workers are not
    daemons: were the generator never closed, the interpreter's exit would
    join them after at most ``workers + 1`` pending draws.
    """
    n_workers = _cpu_count()
    pool = ThreadPoolExecutor(n_workers)
    jobs = iter(jobs)
    ahead = deque()  # (m, future) of each job submitted, not yet yielded

    def top_up() -> None:
        for seed, m, n in islice(jobs, n_workers + 1 - len(ahead)):
            ahead.append((m, pool.submit(_draw, seed, m, p_truth, n)))

    def take() -> tuple[int, np.ndarray]:
        m, future = ahead.popleft()
        top_up()
        return m, future.result()

    try:
        top_up()
        while ahead:
            # yielding take()'s result keeps no reference to the block
            # here, so a block the caller casts or compacts is freed as it
            # drops it
            yield take()
    finally:
        pool.shutdown(cancel_futures=True)


def _error_counts(cfg: SimConfig,
                  table: tuple[np.ndarray, np.ndarray]) -> list[int]:
    """Errors among ``cfg.trials`` simulated trials, one count per m."""
    _, probs = table
    truth_idx = family_index(table, cfg.truth)
    if probs.shape[0] - 1 <= _RIVAL_TILE:
        # one tile holds every rival: no later tile to order or screen, and
        # a padded short group would only widen the one product
        ratios, slack = _rival_ratios(probs, truth_idx)
    else:
        ratios, slack = _rival_ratios(probs, truth_idx,
                                      _nearest_groups_first)
        envelopes = ratios.reshape(-1, _GROUP, ratios.shape[1]).max(axis=1)
        envelope_slack = 2.0 * slack.reshape(-1, _GROUP).max(axis=1)
    n_rivals = ratios.shape[0]
    n_blocks = (cfg.trials + _TRIAL_BLOCK - 1) // _TRIAL_BLOCK
    point_streams = np.random.SeedSequence(cfg.seed).spawn(len(cfg.m_values))
    jobs = ((point_stream.spawn(1)[0], m,
             min(_TRIAL_BLOCK, cfg.trials - block * _TRIAL_BLOCK))
            for m, point_stream in zip(cfg.m_values, point_streams)
            for block in range(n_blocks))
    per_m = dict.fromkeys(cfg.m_values, 0)
    with closing(_drawn_blocks(probs[truth_idx], jobs)) as blocks:
        for m, counts in blocks:
            # with m == 0 every count is 0, so every rival ties: all errors
            counts = counts.astype(float)
            # rival-major scores: "some rival reaches its threshold" ORs
            # whole rows of trials together
            lost = np.logical_or.reduce(
                ratios[:_RIVAL_TILE] @ counts.T
                >= -m * slack[:_RIVAL_TILE, None], axis=0)
            per_m[m] += int(np.count_nonzero(lost))
            start = _RIVAL_TILE
            while start < n_rivals:
                if lost.any():
                    counts = counts[~lost]
                    if counts.shape[0] == 0:
                        break
                first = start // _GROUP
                groups = slice(first, first + _RIVAL_TILE)
                stop = min(groups.stop * _GROUP, n_rivals)
                # (group, trial): only a trial that a group's envelope
                # leaves open can lose to that group's members
                left_open = (envelopes[groups] @ counts.T
                             >= -m * envelope_slack[groups, None])
                lost = np.zeros(counts.shape[0], dtype=bool)
                for tile_start in range(start, stop, _RIVAL_TILE):
                    tile = slice(tile_start,
                                 min(tile_start + _RIVAL_TILE, stop))
                    # the span's rows for the groups this tile meets
                    rows = slice(tile.start // _GROUP - first,
                                 -(-tile.stop // _GROUP) - first)
                    trials = np.flatnonzero(
                        np.logical_or.reduce(left_open[rows], axis=0) & ~lost)
                    if trials.size:
                        lost[trials] = np.logical_or.reduce(
                            ratios[tile] @ counts[trials].T
                            >= -m * slack[tile, None], axis=0)
                per_m[m] += int(np.count_nonzero(lost))
                start = stop
    return list(per_m.values())


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
                      max_matrices: int = DEFAULT_MAX_MATRICES,
                      table: tuple[np.ndarray, np.ndarray] | None = None
                      ) -> ExponentEstimate:
    """Simulate the error rate per sample count and fit the decay exponent.

    ``table`` is the truth's ``family_table`` under ``cfg.profile``, for a
    caller that already built it; otherwise it is built here.
    """
    if table is None:
        table = family_table(cfg.truth.n_rows, cfg.truth.n_cols, cfg.profile,
                             max_matrices)
    per_m = [(m, errors / cfg.trials, wilson_interval(errors, cfg.trials))
             for m, errors in zip(cfg.m_values, _error_counts(cfg, table))]
    slope, interval = fit_exponent(
        [(m, rate, cfg.trials) for m, rate, _ in per_m]
    )
    return ExponentEstimate(per_m=tuple(per_m), slope=slope,
                            slope_interval=interval)
