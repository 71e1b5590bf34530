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
directly, in float64, a few trials at a time, so that its product stays
small beside the trial block.

Past it, most trials are won by the truth, and they are cleared by float32
screens whose rounding is certified.  A rival's screen row is its ratio row
clipped from below at ``-B_r``, where
``B_r = magnitude_r + magnitude_truth`` is the scale of its tie slack: on
the truth's support every ratio entry lies within ``±B_r``, and off it the
counts are 0 (``_draw`` keeps them there).  By the dot-product rounding
bound (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
2002, §3.1), a float32 score over K = 2**L outcomes, counts and entries
rounded to float32 as well, lies within ``m * B * lambda_K`` of the exact
clipped score, in any summation order, with or without FMA, where
``lambda_K = (1+u)**2 * gamma_K + 2u + u**2``, ``u = 2**-24`` and
``gamma_K = K*u / (1 - K*u)``; clipping only raises a score.  So a (rival,
trial) pair whose screen score is below ``thr - 2m * B_r * lambda_K``, with
``thr = -m * slack_r``, has a float64 score below ``thr`` too: the float64
rounding is far inside the second ``m * B_r * lambda_K``, as is float32
underflow.  A group of rivals is cleared at once by its envelope, the
outcome-wise largest screen row of its members: counts are nonnegative, so
``counts · envelope`` bounds every member's clipped score; a group's
threshold is ``-2m`` times its largest slack and its scale its largest
``B_r``.  A tie scores 0 within rounding, above every threshold, so no
screen clears it, nor a rival that beats the truth.

The envelopes are scored a span of groups at a time, in one product; then
each tile of the span screens only the trials that its groups leave open
and that no earlier tile of the span settled.  The pairs a tile's screen
cannot clear are scored in float64 against those rivals' ratio rows, so
every decision is the float64 one.  A trial that no group of a span leaves
open beats the whole span unscored.  Trials settled within a span leave at
its end, and the block is compacted only when some trial left.

Scoring reads no family table: it takes the family's canonical rows
(``family_rows``) and makes every probability row it reads from them by
``mixture_probs_table``, bit for bit the table's.  One pass of row chunks
over the rivals gives each rival's ``B_r``, its nearness
``(log p_r - log p_truth) · p_truth`` and, past one tile, its float32
screen row; one gather then puts rivals, scales and screen rows nearest
group first, before any block is drawn.  The float64 ratio rows are made
again from the sources wherever a decision needs them.

Sampling is most of the work when the family is small.  Each block of
trials has its own substream, spawned in order on the calling thread, and
is drawn on a thread pool (``Generator.multinomial`` runs without the
interpreter lock), at most one more block ahead than there are workers.
A worker draws a block a few rows at a time straight into a float64
buffer that the calling thread made, and the buffer of a scored block is
drawn into again, so scoring neither casts a draw nor frees memory that
a worker allocated.  Workers start as blocks are submitted, at most one
per CPU and no more than let the buffers of two blocks more than there
are workers fit in the memory budget.  No block is drawn on the calling
thread, which scores the blocks in order as they arrive.  The errors are
summed per m, so the counts are the same on any number of CPUs.
"""

from __future__ import annotations

import math
import os
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .exceptions import EstimationError, InvalidInputError
from . import mixtures
from .mixtures import BinaryMatrix, FlipProfile, check_profile, check_shape
from .mixtures import mixture_probs_table  # noqa: F401  looked up by bench/spans.py
from .oracle import (DEFAULT_MAX_MATRICES, _check_table, family_index,
                     family_rows, family_source)
from .oracle import enumerate_matrices  # noqa: F401  looked up by bench/spans.py

_Z95 = 1.959963984540054
# Trials are generated in fixed-size blocks, each on its own substream,
# spawned in (m, block) order on the calling thread; the blocks are drawn by
# pool workers, started as blocks are submitted and at most one per CPU, and
# scored in order on the calling thread, so the counts depend on neither the
# schedule nor the number of CPUs.
_TRIAL_BLOCK = 4096
# Rivals per tile, and groups per span: a full trial block against a tile
# of rivals or a span of envelopes is a 4 MiB float32 product, whatever the
# size of the family.
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
# 1e-12 for N + 2**L up to about 9,000.
_TIE_RTOL = 1e-12
# The unit roundoff of float32, whose screens clear the trials that the
# truth wins past the first tile.
_U32 = 2.0 ** -24
# The first tile is scored in float64 over this many product bytes at a
# time: 1,024 trials against a full tile, a quarter of a trial block.
_FIRST_PRODUCT_BYTES = 1 << 21
# Bytes ``sample_observations`` traces per observation: 17.0 to 17.8 at
# L = 1, 3 and 10 (the words, the row choices, and one column's flips).
_OBSERVATION_BYTES = 24
# A trial block is drawn at most this many bytes of int64 counts at a time,
# straight into its float64 buffer.
_DRAW_BYTES = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    truth: BinaryMatrix
    profile: FlipProfile
    m_values: tuple[int, ...]
    trials: int
    seed: int

    def __post_init__(self) -> None:
        check_profile(self.profile, self.truth.n_cols)
        if not all(isinstance(v, (int, np.integer))
                   for v in (self.trials, self.seed, *self.m_values)):
            raise InvalidInputError("m_values, trials and seed must be integers")
        if self.trials < 1:
            raise InvalidInputError(f"trials must be >= 1, got {self.trials}")
        m_values = tuple(int(m) for m in self.m_values)
        if any(m < 0 for m in m_values):
            raise InvalidInputError("sample counts must be nonnegative")
        if any(b <= a for a, b in zip(m_values, m_values[1:])):
            raise InvalidInputError("m_values must be strictly increasing")
        if not m_values:
            raise InvalidInputError("m_values must be non-empty")
        if m_values[-1] > np.iinfo(np.int64).max:
            raise InvalidInputError(
                f"sample counts must fit in int64, at most "
                f"{np.iinfo(np.int64).max}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
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
    if not 0 <= successes <= n:
        raise InvalidInputError(f"successes {successes} outside [0, {n}]")
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == n else min(1.0, center + half)
    return low, high


def sample_observations(truth: BinaryMatrix, profile: FlipProfile, m: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Draw m observations: uniform row choice, then independent column flips.

    An m that is not a nonnegative integer, or over the budget, is refused.
    """
    check_shape(truth.n_rows, truth.n_cols)
    check_profile(profile, truth.n_cols)
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise InvalidInputError("m must be a nonnegative integer")
    mixtures.check_budget(int(m) * _OBSERVATION_BYTES,
                          f"{mixtures.decimal_text(int(m))} observations")
    rows = np.array(truth.rows, dtype=np.int64)
    words = rows[rng.integers(0, rows.shape[0], size=m)]
    for col, f in enumerate(profile.flips):
        words ^= (rng.random(m) < f).astype(np.int64) << col
    return words


def _log_ratios(rows: np.ndarray, truth_logs: np.ndarray | float
                ) -> np.ndarray:
    """Turn ``rows``, a fresh array of probabilities, into log-ratios.

    In place, ``log p - truth_logs`` with ``_LOG_ZERO`` for the log of 0;
    ``truth_logs`` 0 gives the logs.  Every float64 ratio a decision reads
    comes from here, so a row made again has the bits of the first.
    """
    with np.errstate(divide="ignore"):
        np.log(rows, out=rows)
    np.maximum(rows, _LOG_ZERO, out=rows)
    rows -= truth_logs
    return rows


def _magnitudes(probs: np.ndarray) -> np.ndarray:
    """``1 + max |log p|`` of each row of ``probs``, over its support only.

    A sentinel entry is met by zero counts (exact) or decides the trial by
    far more than any slack.  A rival's ``B_r`` is its magnitude plus the
    truth's, and ``_TIE_RTOL * B_r`` is its tie slack.
    """
    return 1.0 - np.log(np.min(probs, axis=1, where=probs > 0.0,
                               initial=np.inf))


def _screen_lambda(n_outcomes: int) -> float:
    """The rounding bound ``lambda_K`` of a float32 score over K outcomes.

    The float32 score of counts c against a row x, both rounded to float32
    first, lies within ``lambda_K * sum |c_i x_i|`` of the exact score, in
    any order of summation.  The bound needs ``K * u < 1``, that is L <=
    23; the table budget keeps L far below that.
    """
    k_u = n_outcomes * _U32
    assert k_u < 1.0, n_outcomes
    return (1.0 + _U32) ** 2 * k_u / (1.0 - k_u) + 2.0 * _U32 + _U32 ** 2


def _clear_levels(slack: np.ndarray, scale: np.ndarray,
                  n_outcomes: int) -> np.ndarray:
    """Per unit of m, the float64 level below which a screen score clears.

    That is the tie threshold ``-slack`` less ``2 * scale * lambda_K``, for
    screen rows or envelopes whose entries on the truth's support lie
    within ``±scale``.
    """
    return -(slack + 2.0 * _screen_lambda(n_outcomes) * scale)


def _screen_rows(ratios: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Float32 screen rows: ratio rows clipped from below at ``-B_r``."""
    return np.maximum(ratios, -scale[:, None]).astype(np.float32)


def _floor32(levels: np.ndarray) -> np.ndarray:
    """The largest float32 at most each float64 level."""
    rounded = levels.astype(np.float32)
    return np.where(rounded > levels,
                    np.nextafter(rounded, np.float32(-np.inf)), rounded)


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


def _ratio_chunks(sources: np.ndarray, kernel: np.ndarray,
                  p_truth: np.ndarray) -> Iterator[tuple]:
    """``(chunk, B_r, ratio rows)`` of each row chunk of ``sources``, the
    rows made by ``mixture_probs_table``, bit for bit the table's."""
    truth_magnitude = _magnitudes(p_truth[None])[0]
    truth_logs = _log_ratios(p_truth.copy(), 0.0)
    for chunk in mixtures.row_chunks(sources.shape[0], p_truth.nbytes):
        probs = mixtures.mixture_probs_table(sources[chunk], kernel)
        yield (chunk, _magnitudes(probs) + truth_magnitude,
               _log_ratios(probs, truth_logs))


def ml_decide(observations: Sequence[int], profile: FlipProfile,
              n_rows: int, n_cols: int, truth: BinaryMatrix,
              max_matrices: int = DEFAULT_MAX_MATRICES
              ) -> tuple[BinaryMatrix, bool]:
    """Exact maximum likelihood over every canonical candidate.

    Returns the argmax (ties resolved toward the lexicographically first
    candidate) and whether the truth's log likelihood strictly beat every
    rival; with zero observations all likelihoods tie and the flag is False.
    A bad word (``check_words``), truth shape or profile length raises
    ``InvalidInputError``.  Candidates are scored a row chunk at a time
    (``_ratio_chunks``), so no family table is built.
    """
    if truth.n_rows != n_rows or truth.n_cols != n_cols:
        raise InvalidInputError("truth matrix shape disagrees with (N, L)")
    observed = list(observations)
    mixtures.check_words(observed, n_cols, "observation word")
    check_profile(profile, n_cols)
    rows = family_rows(n_rows, n_cols, max_matrices)
    truth_idx = family_index(rows, truth)
    kernel = mixtures.channel_kernel(profile)
    counts = np.bincount(np.asarray(observed, dtype=np.int64),
                         minlength=1 << n_cols).astype(float)
    p_truth = mixtures.mixture_probs_table(rows[[truth_idx]], kernel)[0]
    scores = np.empty(rows.shape[0])
    beaten = np.empty(rows.shape[0], dtype=bool)
    for chunk, scale, ratios in _ratio_chunks(rows, kernel, p_truth):
        scores[chunk] = ratios @ counts
        beaten[chunk] = scores[chunk] < -len(observed) * (_TIE_RTOL * scale)
    # the truth's ratios are 0, so its score, 0, wins its ties with every
    # later candidate
    beaten[truth_idx] = True
    return (family_source(rows, int(np.argmax(scores)), n_cols),
            bool(beaten.all()))


def _cpu_count() -> int:
    """The CPUs this process may run on: one sampling worker each."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _draw(seed: np.random.SeedSequence, m: int, p_truth: np.ndarray,
          out: np.ndarray) -> None:
    """Fill ``out``, (n, K), with the outcome counts of n trials of m
    observations each, one row a trial; scoring reads them as float64.

    The counts are drawn ``_DRAW_BYTES`` of int64 at a time from one
    generator, and consecutive multinomial draws of one generator give,
    bit for bit, the rows of a single draw of all n.  numpy's multinomial
    gives its last outcome whatever the others leave of m, so when
    ``p_truth`` ends in a 0 the rounding of its conditional probabilities
    can leave a count there, from m near 10**15 up.  An outcome of
    probability 0 draws nothing, so that leftover is the remainder that
    numpy's multinomial over the support alone gives its last outcome, the
    truth's last of positive probability; it is moved there, and every
    trial is that multinomial.  Counts are therefore 0 wherever ``p_truth``
    is, which the scoring screens rely on.  The int64 sum is at most m, so
    it cannot overflow.
    """
    rng = np.random.default_rng(seed)
    rows = max(1, _DRAW_BYTES // (8 * p_truth.size))
    last = np.flatnonzero(p_truth)[-1]
    for lo in range(0, out.shape[0], rows):
        counts = rng.multinomial(m, p_truth,
                                 size=min(rows, out.shape[0] - lo))
        if last < p_truth.size - 1:
            counts[:, last] += counts[:, -1]
            counts[:, -1] = 0
        out[lo:lo + rows] = counts


def _drawn_blocks(p_truth: np.ndarray,
                  jobs: Iterable[tuple[np.random.SeedSequence, int, int]]
                  ) -> Iterator[tuple[int, np.ndarray]]:
    """Each job's ``(m, block)`` in job order, drawn on a thread pool.

    A job ``(seed, m, n)`` is a float64 block of n rows that
    ``_draw(seed, m, p_truth, block)`` fills, and jobs are taken from
    ``jobs`` on the calling thread, which draws none of them.  At most one
    job more than there are workers is submitted ahead of the block last
    yielded, each with its block: the first n rows of a buffer of
    ``_TRIAL_BLOCK`` rows (``8 * _TRIAL_BLOCK * 2**L`` bytes), made on the
    calling thread.  A yielded block is the caller's until it asks for the
    next; then its buffer is drawn into again, unless the caller has let go
    of the block (as scoring does once it copies the open trials smaller),
    in which case it was freed then, since only a weak reference to it is
    kept.  So at most ``workers + 2`` buffers are alive, and the pool has
    one worker per CPU, but no more than let those buffers fit in the
    budget of ``check_budget``, and at least one.  A worker starts only
    when a job is submitted while none is idle, so k jobs start at most
    min(k, workers) of them.  Nothing is submitted before the first block
    is asked for, so a caller prepares everything it can before.  A draw's
    exception is raised in its job's turn.  Finishing or closing the
    generator cancels the jobs no worker has started and joins the
    workers; a caller closes it however it leaves, with
    ``contextlib.closing``.  The workers are not daemons: were the
    generator never closed, the interpreter's exit would join them after
    at most ``workers + 1`` pending draws.
    """
    n_workers = max(1, min(_cpu_count(), mixtures._BUDGET_BYTES
                           // (8 * _TRIAL_BLOCK * p_truth.size) - 2))
    pool = ThreadPoolExecutor(n_workers)
    jobs = iter(jobs)
    ahead = deque()  # (m, future, block) of each job submitted, not yielded
    yielded = None  # a weak reference to the last yielded block's buffer

    def top_up(buffer: np.ndarray | None = None) -> None:
        # the first job submitted draws into ``buffer``, the others into
        # buffers made here
        for seed, m, n in islice(jobs, n_workers + 1 - len(ahead)):
            if buffer is None:
                buffer = np.empty((_TRIAL_BLOCK, p_truth.size))
            block, buffer = buffer[:n], None
            ahead.append((m, pool.submit(_draw, seed, m, p_truth, block),
                          block))

    def take() -> tuple[int, np.ndarray]:
        nonlocal yielded
        m, future, block = ahead.popleft()
        # the buffer of a block the caller kept goes to the next job, if
        # there is one, and is freed otherwise
        top_up(None if yielded is None else yielded())
        future.result()
        yielded = weakref.ref(block.base)
        return m, block

    try:
        top_up()
        while ahead:
            # yielding take()'s result keeps no reference to the block
            # here, so a block the caller lets go of is freed as it does
            yield take()
    finally:
        pool.shutdown(cancel_futures=True)


def _error_counts(cfg: SimConfig, rows: np.ndarray) -> list[int]:
    """Errors among ``cfg.trials`` simulated trials, one count per m.

    ``rows`` is the truth's ``family_rows``, from which ``cfg.profile``'s
    channel kernel makes every probability row scoring reads.  A family
    whose table would pass the budget raises ``ResourceLimitError`` first.
    """
    truth_idx = family_index(rows, cfg.truth)
    _check_table(*rows.shape, cfg.truth.n_cols)
    kernel = mixtures.channel_kernel(cfg.profile)
    p_truth = mixtures.mixture_probs_table(rows[[truth_idx]], kernel)[0]
    truth_logs = _log_ratios(p_truth.copy(), 0.0)

    def ratio_rows(picked: np.ndarray) -> np.ndarray:
        return _log_ratios(mixtures.mixture_probs_table(rows[picked], kernel),
                           truth_logs)

    rivals = np.delete(np.arange(rows.shape[0]), truth_idx)
    # rivals that fit in one tile keep enumeration order: there is no later
    # tile to order or screen, and a padded short group would only widen
    # the one product
    screened = rivals.size > _RIVAL_TILE
    scale, nearness = np.empty(rivals.size), np.empty(rivals.size)
    if screened:
        screen = np.empty((rivals.size, p_truth.size), dtype=np.float32)
    for chunk, chunk_scale, ratios in _ratio_chunks(rows[rivals], kernel,
                                                    p_truth):
        scale[chunk] = chunk_scale
        nearness[chunk] = ratios @ p_truth
        if screened:
            screen[chunk] = _screen_rows(ratios, chunk_scale)
    if screened:
        order = _nearest_groups_first(nearness)
        # the old screen rows are freed before the other gathers
        screen = screen[order]
        rivals, scale = rivals[order], scale[order]
    slack = _TIE_RTOL * scale
    first = ratio_rows(rivals[:_RIVAL_TILE])
    # trials per float64 product of the first tile
    step = max(1, _FIRST_PRODUCT_BYTES // (8 * first.shape[0]))
    if screened:
        envelopes = screen.reshape(-1, _GROUP, p_truth.size).max(axis=1)
        rival_levels = _clear_levels(slack, scale, p_truth.size)
        group_levels = _clear_levels(
            2.0 * slack.reshape(-1, _GROUP).max(axis=1),
            scale.reshape(-1, _GROUP).max(axis=1), p_truth.size)
        # not held while the blocks are scored
        del nearness, scale, order
    n_blocks = (cfg.trials + _TRIAL_BLOCK - 1) // _TRIAL_BLOCK
    point_streams = np.random.SeedSequence(cfg.seed).spawn(len(cfg.m_values))
    # seeds are spawned _TRIAL_BLOCK at a time, as the jobs are taken; a
    # SeedSequence counts its children, so the slices spawn the same seeds
    jobs = ((seed, m, min(_TRIAL_BLOCK, cfg.trials - block * _TRIAL_BLOCK))
            for m, point_stream in zip(cfg.m_values, point_streams)
            for at in range(0, n_blocks, _TRIAL_BLOCK)
            for block, seed in enumerate(point_stream.spawn(
                min(_TRIAL_BLOCK, n_blocks - at)), at))
    per_m = dict.fromkeys(cfg.m_values, 0)
    with closing(_drawn_blocks(p_truth, jobs)) as blocks:
        for m, counts in blocks:
            # with m == 0 every count is 0, so every rival ties: all errors
            # rival-major scores: "some rival reaches its threshold" ORs
            # whole rows of trials together
            lost = np.empty(counts.shape[0], dtype=bool)
            for lo in range(0, counts.shape[0], step):
                lost[lo:lo + step] = np.logical_or.reduce(
                    first @ counts[lo:lo + step].T
                    >= -m * slack[:_RIVAL_TILE, None], axis=0)
            per_m[m] += int(np.count_nonzero(lost))
            if not screened:
                continue
            rival_clear = _floor32(m * rival_levels)[:, None]
            group_clear = _floor32(m * group_levels)[:, None]
            counts32 = None
            start = _RIVAL_TILE
            while start < rivals.size:
                if lost.any():
                    # dropped first, so one float32 copy is alive at a time
                    counts32 = None
                    counts = counts[~lost]
                    if counts.shape[0] == 0:
                        break
                if counts32 is None:
                    counts32 = counts.astype(np.float32)
                first_group = start // _GROUP
                groups = slice(first_group, first_group + _RIVAL_TILE)
                stop = min(groups.stop * _GROUP, rivals.size)
                # (group, trial): only a trial that a group's envelope
                # leaves open can lose to that group's members
                left_open = (envelopes[groups] @ counts32.T
                             >= group_clear[groups])
                lost = np.zeros(counts.shape[0], dtype=bool)
                for tile_start in range(start, stop, _RIVAL_TILE):
                    tile = slice(tile_start,
                                 min(tile_start + _RIVAL_TILE, stop))
                    # the span's rows for the groups this tile meets
                    met = slice(tile.start // _GROUP - first_group,
                                -(-tile.stop // _GROUP) - first_group)
                    trials = np.flatnonzero(
                        np.logical_or.reduce(left_open[met], axis=0) & ~lost)
                    if not trials.size:
                        continue
                    # (rival, trial) pairs the tile's screen cannot clear,
                    # scored in float64 against the rivals' rows made again
                    left = (screen[tile] @ counts32[trials].T
                            >= rival_clear[tile])
                    near = np.flatnonzero(left.any(axis=1))
                    if near.size:
                        trials = trials[left.any(axis=0)]
                        lost[trials] = np.logical_or.reduce(
                            ratio_rows(rivals[tile][near]) @ counts[trials].T
                            >= -m * slack[tile][near, None], axis=0)
                per_m[m] += int(np.count_nonzero(lost))
                start = stop
            # not held while the next block is drawn
            del counts32
    return list(per_m.values())


def fit_exponent(points: Sequence[tuple[int, float, int]]
                 ) -> tuple[float, tuple[float, float]]:
    """Least-squares slope of -log(error rate) against the sample count.

    ``points`` holds (m, error_rate, trials), each with at least one trial;
    at least three rates strictly inside (0, 1), at two or more m, are
    required.  The interval propagates the delta-method variance of each
    log rate through the slope formula.
    """
    if any(n < 1 for _, _, n in points):
        raise InvalidInputError("every point needs at least one trial")
    usable = [(m, r, n) for m, r, n in points if 0.0 < r < 1.0]
    if len(usable) < 3:
        raise EstimationError(
            f"need at least 3 sample counts with error rate in (0, 1), "
            f"got {len(usable)}: "
            + ", ".join(f"m={m}: rate={r:.3g}" for m, r, _ in points)
        )
    if len({m for m, _, _ in usable}) == 1:
        raise EstimationError(f"all usable rates share m={usable[0][0]}")
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
                      rows: np.ndarray | None = None) -> ExponentEstimate:
    """Simulate the error rate per sample count and fit the decay exponent.

    ``rows`` is the truth's ``family_rows``, for a caller that already made
    them; otherwise they are made here.
    """
    if rows is None:
        rows = family_rows(cfg.truth.n_rows, cfg.truth.n_cols, max_matrices)
    per_m = [(m, errors / cfg.trials, wilson_interval(errors, cfg.trials))
             for m, errors in zip(cfg.m_values, _error_counts(cfg, rows))]
    slope, interval = fit_exponent(
        [(m, rate, cfg.trials) for m, rate, _ in per_m]
    )
    return ExponentEstimate(per_m=tuple(per_m), slope=slope,
                            slope_interval=interval)
