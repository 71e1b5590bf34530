import itertools
import math
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from fractions import Fraction

import numpy as np
import pytest

from bmmci import (
    EstimationError,
    FlipProfile,
    InvalidInputError,
    ResourceLimitError,
    SimConfig,
    canonicalize,
    estimate_exponent,
    exact_error_exponent,
    fit_exponent,
    ml_decide,
    parse_matrix_text,
    sample_observations,
    wilson_interval,
)
import bmmci.cli
import bmmci.mixtures
from bmmci import simulate
from bmmci.oracle import (DEFAULT_MAX_MATRICES, canonical_rows, family_index,
                          family_rows, family_source, family_table)

TRUTH = canonicalize([0, 1, 1], 1)
PROFILE = FlipProfile.constant(0.1, 1)

# chi-square critical value, 3 degrees of freedom, upper tail 0.001
_CHI2_3_CRIT = 16.266


def error_counts(truth, profile, m_values, trials, seed):
    cfg = SimConfig(truth=truth, profile=profile, m_values=m_values,
                    trials=trials, seed=seed)
    return simulate._error_counts(
        cfg, family_rows(truth.n_rows, truth.n_cols, DEFAULT_MAX_MATRICES))


def reference_error_counts(cfg, table):
    """Every rival scored in enumeration order, tiles of 256, no screen."""
    rows, probs = table
    truth_idx = next(i for i in range(len(rows))
                     if family_source(rows, i, cfg.truth.n_cols) == cfg.truth)
    with np.errstate(divide="ignore"):
        log_probs = np.log(probs)
    magnitude = np.where(probs > 0.0, np.abs(log_probs), 0.0).max(axis=1) + 1.0
    np.maximum(log_probs, simulate._LOG_ZERO, out=log_probs)
    ratios = np.delete(log_probs, truth_idx, axis=0) - log_probs[truth_idx]
    slack = simulate._TIE_RTOL * (np.delete(magnitude, truth_idx)
                                  + magnitude[truth_idx])
    block_size = simulate._TRIAL_BLOCK
    n_blocks = (cfg.trials + block_size - 1) // block_size
    point_streams = np.random.SeedSequence(cfg.seed).spawn(len(cfg.m_values))
    per_m = []
    for m, point_stream in zip(cfg.m_values, point_streams):
        errors = 0
        for block, stream in enumerate(point_stream.spawn(n_blocks)):
            n_here = min(block_size, cfg.trials - block * block_size)
            rng = np.random.default_rng(stream)
            counts = rng.multinomial(m, probs[truth_idx], size=n_here)
            counts = counts.astype(float)
            for start in range(0, ratios.shape[0], 256):
                stop = start + 256
                lost = (counts @ ratios[start:stop].T
                        >= -m * slack[start:stop]).any(axis=1)
                errors += int(np.count_nonzero(lost))
                counts = counts[~lost]
                if counts.shape[0] == 0:
                    break
        per_m.append(errors)
    return per_m


# N <= 3, L <= 4; constant flips from noiseless to inverted, and mixed
# profiles whose 0 and 1 entries put zeros in the table.  Most rival counts
# are not multiples of 8 (9 at (2, 2), 815 at (3, 4)), so the last group is
# short; tiles of 1 and 7 screen every family, the default tile only (3, 4)
# and (2, 5), whose 527 rivals make three tiles of one span and whose 0 and
# 1 flips put log-zero sentinels in the float32 screen rows.
REFERENCE_GRID = [
    (n, l, FlipProfile.constant(f, l))
    for n, l in ((1, 4), (2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (3, 4))
    for f in (0.0, 0.02, 0.2, 0.5, 1.0)
] + [
    (3, 2, FlipProfile((0.0, 0.2))),
    (2, 3, FlipProfile((1.0, 0.02, 0.2))),
    (3, 3, FlipProfile((0.0, 0.05, 1.0))),
    (2, 4, FlipProfile((0.0, 0.02, 1.0, 0.2))),
    (3, 4, FlipProfile((1.0, 0.5, 0.0, 0.05))),
    (2, 5, FlipProfile((0.0, 0.05, 0.2, 1.0, 0.1))),
]


# (_GROUP, _RIVAL_TILE) pairs.  A span is _RIVAL_TILE groups, so groups of
# 1 and 3 end spans mid-family at every tile size; tiles of 1 and 7 cut
# through groups of 3 and 8, and most families leave a short last span and
# a short last tile.
SPAN_SHAPES = [(group, tile) for group in (8, 1, 3) for tile in (1, 7, 256)]

# Sampling worker counts: one, two, and more than a small CI runner's CPUs.
WORKER_COUNTS = (1, 2, 7)


def exact_binary_error(ones: int, n_rows: int, f: Fraction, m: int) -> float:
    """ML error probability for a one-column truth with ``ones`` one-rows.

    Sums the binomial pmf over the m+1 outcome counts at which the truth's
    likelihood does not strictly exceed every other source's, comparing the
    likelihood ratios in exact rational arithmetic.
    """
    def p_one(k):
        return (k * (1 - f) + (n_rows - k) * f) / n_rows

    truth = p_one(ones)
    total = Fraction(0)
    for c1 in range(m + 1):
        c0 = m - c1
        if any((p_one(k) / truth) ** c1 * ((1 - p_one(k)) / (1 - truth)) ** c0
               >= 1 for k in range(n_rows + 1) if k != ones):
            total += math.comb(m, c1) * truth ** c1 * (1 - truth) ** c0
    return float(total)


class TestSampleObservations:
    def test_deterministic_given_state(self):
        a = sample_observations(TRUTH, PROFILE, 50,
                                np.random.default_rng(123))
        b = sample_observations(TRUTH, PROFILE, 50,
                                np.random.default_rng(123))
        assert np.array_equal(a, b)

    def test_noiseless_channel_emits_rows(self):
        truth = canonicalize([2, 5], 3)
        obs = sample_observations(truth, FlipProfile.constant(0.0, 3), 200,
                                  np.random.default_rng(0))
        assert set(obs.tolist()) <= set(truth.rows)

    def test_uninformative_channel_is_uniform(self):
        truth = canonicalize([0, 3], 2)
        obs = sample_observations(truth, FlipProfile.constant(0.5, 2), 100_000,
                                  np.random.default_rng(7))
        counts = np.bincount(obs, minlength=4)
        expected = len(obs) / 4
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < _CHI2_3_CRIT

    def test_profile_mismatch(self):
        with pytest.raises(InvalidInputError):
            sample_observations(TRUTH, FlipProfile.constant(0.1, 2), 5,
                                np.random.default_rng(0))

    @pytest.mark.parametrize("m", [-1, -10 ** 5000, 2.5, "3", None],
                             ids=["-1", "-10**5000", "2.5", "'3'", "None"])
    def test_refuses_bad_counts(self, m):
        # once a ValueError from numpy (-1) or a TypeError (2.5)
        with pytest.raises(InvalidInputError, match="m must be"):
            sample_observations(TRUTH, PROFILE, m, np.random.default_rng(0))

    @pytest.mark.parametrize("m", [10 ** 12, 10 ** 5000],
                             ids=["10**12", "10**5000"])
    def test_refuses_counts_over_budget(self, m):
        # 10**12 once asked numpy for 7.28 TiB and raised MemoryError
        with pytest.raises(ResourceLimitError, match="observations"):
            sample_observations(TRUTH, PROFILE, m, np.random.default_rng(0))

    def test_counts_within_budget_and_of_numpy_type(self, monkeypatch):
        obs = sample_observations(TRUTH, PROFILE, np.int64(0),
                                  np.random.default_rng(0))
        assert obs.shape == (0,)
        monkeypatch.setattr(bmmci.mixtures, "_BUDGET_BYTES",
                            1000 * simulate._OBSERVATION_BYTES)
        assert sample_observations(TRUTH, PROFILE, 1000,
                                   np.random.default_rng(0)).shape == (1000,)
        with pytest.raises(ResourceLimitError):
            sample_observations(TRUTH, PROFILE, 1001,
                                np.random.default_rng(0))


class TestMlDecide:
    def test_no_observations_tie_is_error(self):
        chosen, correct = ml_decide([], PROFILE, 3, 1, TRUTH)
        assert not correct
        assert chosen.rows == (0, 0, 0)  # lexicographically first candidate

    def test_noiseless_identification(self):
        truth = canonicalize([0, 1], 1)
        profile = FlipProfile.constant(0.0, 1)
        obs = [0, 1] * 20
        chosen, correct = ml_decide(obs, profile, 2, 1, truth)
        assert chosen == truth
        assert correct

    def test_prefers_candidate_matching_counts(self):
        # overwhelmingly many ones: the all-ones candidate wins
        chosen, correct = ml_decide([1] * 40, PROFILE, 3, 1, TRUTH)
        assert chosen.rows == (1, 1, 1)
        assert not correct

    def test_zero_probability_candidate_never_chosen(self):
        truth = canonicalize([0, 0], 1)
        profile = FlipProfile.constant(0.0, 1)
        chosen, correct = ml_decide([0, 0, 1], profile, 2, 1, truth)
        # only candidates containing both words keep finite likelihood
        assert chosen.rows == (0, 1)
        assert not correct

    def test_shape_validation(self):
        with pytest.raises(InvalidInputError):
            ml_decide([0], PROFILE, 2, 1, TRUTH)

    @pytest.mark.parametrize("word", [2**64, 1.5, "1", -1, 2])
    def test_refuses_bad_observation_words(self, word):
        # checked before the int64 cast, which overflows on 2**64 and turns
        # 1.5 and '1' into word 1
        with pytest.raises(InvalidInputError, match="observation word"):
            ml_decide([word], PROFILE, 3, 1, TRUTH)

    @pytest.mark.parametrize("flips", [(0.1,), (0.1, 0.1, 0.1)])
    def test_profile_length_validation(self, flips):
        # refused as a profile error before the table is built, not as an
        # IndexError (short) or a truth missing from the table (long)
        with pytest.raises(InvalidInputError, match="profile length"):
            ml_decide([0, 1], FlipProfile(flips), 2, 2,
                      canonicalize([0, 3], 2))

    def test_uninformative_channel_is_never_correct(self):
        truth = canonicalize([0, 1, 3], 2)
        profile = FlipProfile.constant(0.5, 2)
        chosen, correct = ml_decide([0, 1, 2, 3, 3], profile, 3, 2, truth)
        assert not correct
        assert chosen.rows == (0, 0, 0)

    def test_scores_row_chunks_as_the_whole_table(self):
        # 45,760 candidates over many row chunks: the choice and the flag
        # of the whole table's log-likelihood ratios
        truth = parse_matrix_text("000000\n101000\n100100\n")
        profile = FlipProfile.constant(0.2, 6)
        rows, probs = family_table(3, 6, profile, DEFAULT_MAX_MATRICES)
        t = family_index(rows, truth)
        magnitude = simulate._magnitudes(probs)
        logs = simulate._log_ratios(probs, 0.0)
        rng = np.random.default_rng(1)
        for m in (0, 5, 40, 400):
            observed = sample_observations(truth, profile, m, rng)
            scores = (logs - logs[t]) @ np.bincount(observed, minlength=64)
            slack = simulate._TIE_RTOL * (magnitude + magnitude[t])
            correct = bool(np.all(np.delete(scores < -m * slack, t)))
            chosen, flag = ml_decide(observed.tolist(), profile, 3, 6, truth)
            assert chosen == family_source(rows, int(np.argmax(scores)), 6)
            assert flag == correct
            assert flag == (m == 400)

    def test_peak_far_below_the_table(self):
        # beside the family's rows the call holds one row chunk's
        # probabilities and two floats a candidate: 0.11x the table at
        # (3, 6), traced, where copying the table before its logs took 2.22x
        truth = parse_matrix_text("000000\n101000\n100100\n")
        profile = FlipProfile.constant(0.2, 6)
        observed = np.random.default_rng(0).integers(0, 64, 50).tolist()
        tracemalloc.start()
        try:
            ml_decide(observed, profile, 3, 6, truth)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * 45760 * 64 * 8

    @pytest.mark.parametrize("f", [0.1, 0.15])
    def test_mirrored_rival_ties(self, f):
        # 0,0,1 has the probabilities of 0,1,1 in swapped order, so equal
        # counts of 0 and 1 tie exactly, whatever the rounding of the table
        profile = FlipProfile.constant(f, 1)
        _, correct = ml_decide([0, 1] * 10, profile, 3, 1, TRUTH)
        assert not correct
        _, correct = ml_decide([0, 1] * 10 + [1], profile, 3, 1, TRUTH)
        assert correct


class TestWilsonInterval:
    def test_bounds_within_unit_interval(self):
        low, high = wilson_interval(0, 100)
        assert low == 0.0 and 0 < high < 0.05
        low, high = wilson_interval(100, 100)
        assert high == 1.0 and 0.95 < low < 1

    def test_contains_point_estimate(self):
        low, high = wilson_interval(7, 50)
        assert low < 7 / 50 < high

    @pytest.mark.parametrize("successes", [-1, 4, 5])
    def test_refuses_successes_outside_trials(self, successes):
        with pytest.raises(InvalidInputError, match="outside"):
            wilson_interval(successes, 3)


class TestFitExponent:
    def test_recovers_exact_decay(self):
        c = 0.0123
        points = [(m, math.exp(-c * m), 10 ** 6) for m in range(50, 350, 50)]
        slope, (low, high) = fit_exponent(points)
        assert slope == pytest.approx(c, abs=1e-9)
        assert low < c < high

    def test_requires_three_informative_points(self):
        points = [(10, 0.5, 100), (20, 0.0, 100), (30, 0.0, 100)]
        with pytest.raises(EstimationError):
            fit_exponent(points)

    def test_rate_one_points_excluded(self):
        points = [(10, 1.0, 100), (20, 1.0, 100), (30, 0.5, 100)]
        with pytest.raises(EstimationError):
            fit_exponent(points)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_refuses_points_without_trials(self, trials):
        points = [(1, 0.5, trials), (2, 0.4, 100), (3, 0.3, 100)]
        with pytest.raises(InvalidInputError, match="trial"):
            fit_exponent(points)

    def test_one_sample_count_has_no_slope(self):
        points = [(1, 0.5, 100), (1, 0.4, 100), (1, 0.3, 100), (2, 1.0, 100)]
        with pytest.raises(EstimationError, match="m=1"):
            fit_exponent(points)


class TestErrorCounts:
    @pytest.mark.parametrize("f", [0.1, 0.15])
    def test_binary_outcomes_match_exact_error(self, f):
        trials = 20_000
        m_values = (20, 40, 60)
        profile = FlipProfile.constant(f, 1)
        counts = error_counts(TRUTH, profile, m_values, trials, seed=20)
        for m, errors in zip(m_values, counts):
            exact = exact_binary_error(2, 3, Fraction(str(f)), m)
            se = math.sqrt(exact * (1 - exact) / trials)
            assert abs(errors / trials - exact) <= 5 * se, (m, errors, exact)

    @pytest.mark.parametrize("n_cols", [2, 4, 6])
    def test_uninformative_channel_every_trial_is_an_error(self, n_cols):
        # at f = 0.5 every candidate has the same outcome distribution
        truth = canonicalize([0, 1, (1 << n_cols) - 1], n_cols)
        profile = FlipProfile.constant(0.5, n_cols)
        counts = error_counts(truth, profile, (0, 7, 30), 5000, seed=4)
        assert counts == [5000, 5000, 5000]

    def test_tile_size_does_not_change_counts(self, monkeypatch):
        truth = canonicalize([0, 3, 5, 6], 3)
        profile = FlipProfile((0.02, 0.05, 0.1))
        args = (truth, profile, (0, 9, 25, 51), 5000, 3)
        reference = error_counts(*args)
        assert 0 < reference[-1] < reference[1] < 5000
        for group, tile in SPAN_SHAPES:
            monkeypatch.setattr(simulate, "_GROUP", group)
            monkeypatch.setattr(simulate, "_RIVAL_TILE", tile)
            assert error_counts(*args) == reference, (group, tile)

    @pytest.mark.parametrize("truth_text,f,m_values,trials,expected", [
        # the bench's exponent call: 45,759 rivals, most of them screened
        ("000000\n101000\n100100\n", 0.2, (10, 20, 30, 40), 4096,
         [3966, 3484, 2763, 2045]),
        # the bench's tail call: 3 rivals in one tile, 98 blocks per m
        ("0\n1\n1\n", 0.1, (20, 40, 60, 80, 100, 120), 400_000,
         [98882, 30668, 11173, 4878, 2009, 848]),
    ], ids=["exponent", "tail"])
    def test_bench_counts_pinned(self, truth_text, f, m_values, trials,
                                 expected):
        truth = parse_matrix_text(truth_text)
        profile = FlipProfile.constant(f, truth.n_cols)
        assert error_counts(truth, profile, m_values, trials, 5) == expected

    @pytest.mark.parametrize("truth_text,f,m_values,trials", [
        ("000000\n101000\n100100\n", 0.2, (10, 20, 30, 40), 4096),
        ("0\n1\n1\n", 0.1, (20, 40, 60, 80, 100, 120), 40_000),
    ], ids=["exponent", "tail"])
    def test_worker_count_does_not_change_bench_counts(
            self, monkeypatch, truth_text, f, m_values, trials):
        # blocks of 300 give 14 and 134 blocks per m, the last one short
        monkeypatch.setattr(simulate, "_TRIAL_BLOCK", 300)
        truth = parse_matrix_text(truth_text)
        profile = FlipProfile.constant(f, truth.n_cols)
        table = family_table(truth.n_rows, truth.n_cols, profile,
                             DEFAULT_MAX_MATRICES)
        cfg = SimConfig(truth=truth, profile=profile, m_values=m_values,
                        trials=trials, seed=5)
        reference = reference_error_counts(cfg, table)
        for workers in WORKER_COUNTS:
            monkeypatch.setattr(simulate, "_cpu_count", lambda: workers)
            assert simulate._error_counts(cfg, table[0]) == reference, workers

    def test_seeds_spawned_in_slices(self, monkeypatch):
        # 10**9 trials are 244,141 blocks per m: spawned at once, the first
        # m's seeds took 92 MB before any block was drawn
        taken, peaks = [], []

        def drawn_blocks(p_truth, jobs):
            tracemalloc.start()
            try:
                taken.extend(itertools.islice(jobs, 3))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            yield from ()

        monkeypatch.setattr(simulate, "_drawn_blocks", drawn_blocks)
        cfg = SimConfig(truth=TRUTH, profile=PROFILE, m_values=(20, 40, 60),
                        trials=10 ** 9, seed=1)
        simulate._error_counts(cfg, family_rows(3, 1, DEFAULT_MAX_MATRICES))
        assert [seed.spawn_key for seed, _, _ in taken] == [
            (0, 0), (0, 1), (0, 2)]
        assert [(m, n) for _, m, n in taken] == [(20, 4096)] * 3
        assert peaks[0] < 4 * 2**20

    def test_sliced_seeds_match_one_spawn(self, monkeypatch):
        # blocks of 7 give 61 blocks per m, spawned in nine slices of at
        # most 7 seeds; the reference spawns each m's 61 seeds at once
        monkeypatch.setattr(simulate, "_TRIAL_BLOCK", 7)
        table = family_table(3, 1, PROFILE, DEFAULT_MAX_MATRICES)
        cfg = SimConfig(truth=TRUTH, profile=PROFILE, m_values=(5, 20),
                        trials=7 * 60 + 3, seed=2)
        assert simulate._error_counts(cfg, table[0]) == (
            reference_error_counts(cfg, table))

    def test_counts_stay_on_the_truth_support(self):
        # the bench's 3x6 truth with a flip-free last column: the truth's
        # last outcome has probability 0, and numpy's multinomial leaves
        # its rounding there, in every trial at m = 10**17
        truth = parse_matrix_text("000000\n101000\n100100\n")
        table = family_table(3, 6, FlipProfile((0.3,) * 5 + (0.0,)),
                             DEFAULT_MAX_MATRICES)
        p_truth = table[1][family_index(table[0], truth)]
        support = p_truth > 0.0
        m, seed = 10**17, np.random.SeedSequence(0)
        assert np.random.default_rng(seed).multinomial(
            m, p_truth, size=100)[:, -1].any()
        # drawn into int64, so the sums are exact
        counts = np.empty((100, p_truth.size), dtype=np.int64)
        simulate._draw(seed, m, p_truth, counts)
        assert not counts[:, ~support].any()
        assert (counts.sum(axis=1) == m).all()
        # the first trial is numpy's multinomial over the support alone
        assert np.array_equal(counts[0, support], np.random.default_rng(
            seed).multinomial(m, p_truth[support]))

    def test_peak_within_blocks_ahead_of_serial_peak(self, monkeypatch):
        # 1,024 outcomes, so a block of 4,096 trials is 32 MiB; with two
        # workers, at most three blocks are drawn ahead of the one scored
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
        truth = canonicalize([5], 10)
        profile = FlipProfile.constant(0.05, 10)
        rows = family_rows(1, 10, DEFAULT_MAX_MATRICES)
        cfg = SimConfig(truth=truth, profile=profile, m_values=(10, 40, 160),
                        trials=4096, seed=0)
        block = 4096 * 1024 * 8
        # measured with each block drawn and scored in turn on the calling
        # thread: an int64 draw beside its float copy and the last block's
        # open trials, and the 4 MiB float32 screen rows
        serial_peak = 74_391_953
        tracemalloc.start()
        try:
            simulate._error_counts(cfg, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= serial_peak + 3 * block

    def test_no_score_matrix_over_all_rivals(self):
        # 4096 trials against the 5,983 rivals at N=3, L=5 would be 196 MB
        truth = canonicalize([0, 5, 12], 5)
        profile = FlipProfile.constant(0.2, 5)
        rows = family_rows(3, 5, DEFAULT_MAX_MATRICES)
        cfg = SimConfig(truth=truth, profile=profile, m_values=(40,),
                        trials=4096, seed=0)
        tracemalloc.start()
        try:
            simulate._error_counts(cfg, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("n,l,profile", REFERENCE_GRID)
    def test_matches_unscreened_reference(self, monkeypatch, n, l, profile):
        # blocks of 300 make 1,000 trials four blocks, the last one short;
        # the first tile is scored 97 trials at a time against a full tile
        # (more against a short one), so a full block is four products
        monkeypatch.setattr(simulate, "_TRIAL_BLOCK", 300)
        table = family_table(n, l, profile, DEFAULT_MAX_MATRICES)
        rows, _ = table
        for t in sorted({0, len(rows) // 3, len(rows) - 1}):
            cfg = SimConfig(truth=family_source(rows, t, l), profile=profile,
                            m_values=(0, 3, 12, 40), trials=1000, seed=t)
            reference = reference_error_counts(cfg, table)
            # each worker count meets three span shapes
            for (group, tile), workers in zip(
                    SPAN_SHAPES, itertools.cycle(WORKER_COUNTS)):
                monkeypatch.setattr(simulate, "_GROUP", group)
                monkeypatch.setattr(simulate, "_RIVAL_TILE", tile)
                monkeypatch.setattr(simulate, "_FIRST_PRODUCT_BYTES",
                                    8 * tile * 97)
                monkeypatch.setattr(simulate, "_cpu_count", lambda: workers)
                assert simulate._error_counts(cfg, rows) == reference, (
                    t, group, tile, workers)

    @pytest.mark.parametrize("order", [None, simulate._nearest_groups_first])
    def test_ratios_match_whole_table_logs(self, monkeypatch, order):
        # scoring makes every rival's float64 row from its source, chunk by
        # chunk, and takes its B_r, its nearness and its float32 screen row
        # from it; all must keep the bits of the logs of the whole table.
        # One tile of every rival keeps enumeration order and makes no
        # screen rows.
        profile = FlipProfile.constant(0.3, 6)
        rows, probs = family_table(3, 6, profile, DEFAULT_MAX_MATRICES)
        assert probs.nbytes > 2 * bmmci.mixtures._CHUNK_BYTES
        if order is None:
            monkeypatch.setattr(simulate, "_RIVAL_TILE", probs.shape[0])
        screen_rows, made = simulate._screen_rows, []
        groups_first, ordered_by = simulate._nearest_groups_first, []

        def recorded(ratios, scale):
            made.append((screen_rows(ratios, scale), scale.copy()))
            return made[-1][0]

        def ordered(nearness):
            ordered_by.append(nearness.copy())
            return groups_first(nearness)

        monkeypatch.setattr(simulate, "_screen_rows", recorded)
        monkeypatch.setattr(simulate, "_nearest_groups_first", ordered)
        with np.errstate(divide="ignore"):
            logs = np.maximum(np.log(probs), simulate._LOG_ZERO)
        magnitude = 1.0 - np.log(np.min(probs, axis=1, where=probs > 0.0,
                                        initial=np.inf))
        for t in (0, 12345, probs.shape[0] - 1):
            rivals = np.delete(np.arange(probs.shape[0]), t)
            ratios = logs[rivals] - logs[t]
            scale = magnitude[rivals] + magnitude[t]
            made.clear()
            ordered_by.clear()
            simulate._error_counts(
                SimConfig(truth=family_source(rows, t, 6), profile=profile,
                          m_values=(0,), trials=1, seed=0), rows)
            if order is None:
                assert made == [] and ordered_by == []
                continue
            # in enumeration order, as made before the one gather
            assert np.array_equal(np.concatenate([row for row, _ in made]),
                                  screen_rows(ratios, scale))
            assert np.array_equal(np.concatenate([b for _, b in made]),
                                  scale)
            assert np.array_equal(ordered_by[0], ratios @ probs[t])

    @pytest.mark.parametrize("n,l,profile", [
        (3, 6, FlipProfile.constant(0.3, 6)),
        (3, 5, FlipProfile((0.0, 0.05, 0.2, 1.0, 0.1))),
        (2, 4, FlipProfile((0.0, 0.02, 1.0, 0.2))),
        (1, 10, FlipProfile.constant(0.05, 10)),
        (2, 8, FlipProfile((0.0, 0.05, 1.0, 0.2, 0.1, 0.3, 0.02, 0.4))),
    ])
    def test_rows_made_again_keep_the_table_bits(self, n, l, profile):
        # scoring past the first tile makes the rows of the rivals its
        # screen cannot clear, a few at a time, from their sources; a few
        # sources shift the kernel to their own words only
        rows, probs = family_table(n, l, profile, DEFAULT_MAX_MATRICES)
        kernel = bmmci.mixtures.channel_kernel(profile)
        rng = np.random.default_rng(l)
        truth_logs = simulate._log_ratios(probs[0].copy(), 0.0)
        for size in sorted({1, 7, min(256, rows.shape[0]), rows.shape[0]}):
            picked = rng.choice(rows.shape[0], size, replace=False)
            remade = bmmci.mixtures.mixture_probs_table(rows[picked], kernel)
            assert np.array_equal(remade, probs[picked])
            assert np.array_equal(simulate._log_ratios(remade, truth_logs),
                                  simulate._log_ratios(probs[picked],
                                                       truth_logs))
        assert (probs == 0.0).any() == (0.0 in profile.flips
                                        or 1.0 in profile.flips)

    def test_peak_within_table_multiple(self):
        # no table is built: scoring holds the float32 screen rows (half a
        # table) and, while it puts them in scoring order, their gathered
        # copy; then their group envelopes, the first tile's float64 rows,
        # the trial block in float64 and float32 and one span's product
        truth = canonicalize([0, 5, 9], 6)
        profile = FlipProfile.constant(0.3, 6)
        rows = family_rows(3, 6, DEFAULT_MAX_MATRICES)
        cfg = SimConfig(truth=truth, profile=profile, m_values=(40,),
                        trials=4096, seed=0)
        tracemalloc.start()
        try:
            simulate._error_counts(cfg, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * rows.shape[0] * 64 * 8

    def test_truth_outside_table(self):
        # the rows are of 3-row, 2-column sources; the truth has 3 rows of 1
        cfg = SimConfig(truth=TRUTH, profile=PROFILE, m_values=(5,),
                        trials=10, seed=0)
        with pytest.raises(InvalidInputError, match="not in a family"):
            estimate_exponent(cfg, rows=family_rows(3, 2,
                                                    DEFAULT_MAX_MATRICES))

    def test_handed_rows_charge_their_table(self, monkeypatch):
        # canonical_rows checks the matrix cap only; the table the rows
        # stand for, 10 sources of 4 outcomes, is charged before any row
        cfg = SimConfig(truth=canonicalize([0, 3], 2),
                        profile=FlipProfile.constant(0.1, 2),
                        m_values=(5, 10, 15), trials=10, seed=0)
        rows = canonical_rows(2, 2)
        monkeypatch.setattr(bmmci.mixtures, "_BUDGET_BYTES", 319)
        built = []
        monkeypatch.setattr(bmmci.mixtures, "mixture_probs_table",
                            lambda *args: built.append(args))
        with pytest.raises(ResourceLimitError, match="320 bytes"):
            estimate_exponent(cfg, rows=rows)
        assert built == []


def certified_clears(ratios, scale, counts, m):
    """Check the float32 screens of ``ratios`` against their float64 scores.

    Every (row, trial) pair a screen row clears, and every trial a group
    envelope of 8 rows clears, must score below the tie threshold in
    float64, in two summation orders.  Returns the number of pairs cleared.
    """
    n_outcomes = ratios.shape[1]
    slack = simulate._TIE_RTOL * scale
    counts32 = counts.astype(np.float32)
    screen = simulate._screen_rows(ratios, scale)
    cleared = (screen @ counts32.T < simulate._floor32(
        m * simulate._clear_levels(slack, scale, n_outcomes))[:, None])
    envelopes = screen.reshape(-1, 8, n_outcomes).max(axis=1)
    group_levels = simulate._clear_levels(
        2.0 * slack.reshape(-1, 8).max(axis=1),
        scale.reshape(-1, 8).max(axis=1), n_outcomes)
    group_cleared = (envelopes @ counts32.T
                     < simulate._floor32(m * group_levels)[:, None])
    cleared_by_group = np.repeat(group_cleared, 8, axis=0)
    threshold = -m * slack[:, None]
    for scores in (ratios @ counts.T,
                   ratios[:, ::-1] @ counts[:, ::-1].T):
        assert not (cleared & (scores >= threshold)).any()
        assert not (cleared_by_group & (scores >= threshold)).any()
    return int(np.count_nonzero(cleared))


class TestScreenCertificate:
    """A pair the float32 screen clears loses to the truth in float64."""

    @pytest.mark.parametrize("n_outcomes", [2, 64, 1024])
    def test_cleared_pairs_score_below_threshold(self, n_outcomes):
        rng = np.random.default_rng(n_outcomes)

        def draw(n_rows, zeros):
            probs = rng.gamma(0.5, size=(n_rows, n_outcomes))
            probs[rng.random(probs.shape) < zeros] = 0.0
            probs[:, rng.integers(n_outcomes)] += 1e-3
            return probs / probs.sum(axis=1, keepdims=True)

        for m in (1, 3, 40, 1000, 2**24 + 1, 2**27 + 3, 3 * 2**40 + 1):
            # the truth keeps both outcomes at K = 2; rivals put sentinels
            # against it everywhere
            p_truth = draw(1, 0.0 if n_outcomes == 2 else 0.125)[0]
            support = np.flatnonzero(p_truth)
            near = np.repeat(p_truth[None], 16, axis=0)
            for row in near[:8]:  # permuted truths: ties at equal counts
                row[support] = row[rng.permutation(support)]
            near[8:] *= 1.0 + 1e-6 * rng.standard_normal((8, n_outcomes))
            near[8:] /= near[8:].sum(axis=1, keepdims=True)
            probs = np.vstack([draw(48, 0.125), near])
            truth_logs = simulate._log_ratios(p_truth.copy(), 0.0)
            ratios = simulate._log_ratios(probs.copy(), truth_logs)
            magnitude = simulate._magnitudes(np.vstack([probs, p_truth]))
            scale = magnitude[:-1] + magnitude[-1]
            counts = rng.multinomial(m, p_truth, size=64).astype(float)
            # eight rows whose float64 score on one trial lies within a few
            # units in the last place of the threshold, either side: a
            # perturbed truth's ratios, shrunk, and one entry that sets the
            # score
            trial = int(np.argmax(counts[:60, 0]))
            c, j = counts[trial], int(np.argmax(counts[trial]))
            threshold = -m * simulate._TIE_RTOL * scale[-1]
            at = ratios[-1] * (1e-3 * abs(threshold)
                               / np.abs(ratios[-1] * c).sum())
            at[j] = 0.0
            at[j] = (threshold - at @ c) / c[j]
            at = np.repeat(at[None], 8, axis=0)
            at[:, j] *= 1.0 + np.arange(-4, 4) * 2.0**-52
            ratios = np.vstack([ratios, at])
            scale = np.concatenate([scale, np.full(8, scale[-1])])
            got = ratios[-8:] @ counts[trial]
            assert np.all(np.abs(got - threshold)
                          <= 16 * np.spacing(abs(threshold)))
            assert (got >= threshold).any() and (got < threshold).any()
            assert certified_clears(ratios, scale, counts, m) > 0

    def test_margin_is_needed(self, monkeypatch):
        # a tie in float64: 3 * (1 + 3 * 2**-26) - (3 + 9 * 2**-26) == 0,
        # but float32 rounds the first entry down and the second up, to
        # -2**-22; only the rounding margin keeps the screen from clearing
        # it.  Eight copies make one group.
        ratios = np.repeat([[1.0 + 3 * 2.0**-26, -(3.0 + 9 * 2.0**-26)]],
                           8, axis=0)
        scale = np.full(8, 5.0)
        counts = np.array([[3.0, 1.0]])
        assert (ratios @ counts.T == 0.0).all()
        assert certified_clears(ratios, scale, counts, 4) == 0
        monkeypatch.setattr(simulate, "_screen_lambda", lambda k: 0.0)
        with pytest.raises(AssertionError):
            certified_clears(ratios, scale, counts, 4)


class TestCommandMemory:
    """The ``simulate`` command holds one table-sized array at a time."""

    ARGV = ["simulate", "--truth", "truth.txt", "--flip", "0.2",
            "--m-values", "10,20,30,40", "--trials", "4096", "--seed", "1"]
    # the benchmark's 3x6 truth: 45,760 sources of 64 outcomes
    TABLE_BYTES = 45760 * 64 * 8

    @pytest.fixture(autouse=True)
    def truth_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "truth.txt").write_text("000000\n101000\n100100\n")

    @staticmethod
    def watch_table(monkeypatch):
        """Patch ``oracle.mixture_probs_table``, with which the exact phase
        builds its table, and ``simulate._drawn_blocks``.

        Returns the tables built, as weak references, and a list that gets,
        as each block is scored, whether any of them is still alive.
        """
        build, draw = bmmci.oracle.mixture_probs_table, simulate._drawn_blocks
        refs, alive = [], []

        def mixture_probs_table(*args):
            table = build(*args)
            refs.append(weakref.ref(table))
            return table

        def drawn_blocks(p_truth, jobs):
            with closing(draw(p_truth, jobs)) as blocks:
                for block in blocks:
                    alive.append(any(ref() is not None for ref in refs))
                    yield block

        monkeypatch.setattr(bmmci.oracle, "mixture_probs_table",
                            mixture_probs_table)
        monkeypatch.setattr(simulate, "_drawn_blocks", drawn_blocks)
        return refs, alive

    def test_peak_within_table_multiple(self, monkeypatch, capsys):
        # the exact phase builds the table from the rows, takes its square
        # roots in place, and lets it go on return;
        # scoring builds no table: it makes the float32 screen rows (half a
        # table) and gathers them into scoring order, then holds them,
        # their envelopes, three blocks in flight and one span's product
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
        tracemalloc.start()
        try:
            code = bmmci.cli.main(self.ARGV)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 1.25 * self.TABLE_BYTES

    def test_command_lets_go_of_table(self, monkeypatch, capsys):
        refs, alive = self.watch_table(monkeypatch)
        assert bmmci.cli.main(self.ARGV) == 0
        assert len(refs) == 1
        assert len(alive) == 4 and not any(alive)

    def test_estimate_lets_go_of_its_table(self, monkeypatch):
        # the command's calls on shared rows: only the exact phase builds a
        # table, and it is gone before the first block is scored
        refs, alive = self.watch_table(monkeypatch)
        cfg = SimConfig(truth=parse_matrix_text("000000\n101000\n100100\n"),
                        profile=FlipProfile.constant(0.2, 6),
                        m_values=(10, 20, 30, 40), trials=4096, seed=1)
        rows = family_rows(3, 6, DEFAULT_MAX_MATRICES)
        exact_error_exponent(cfg.truth, cfg.profile, rows=rows)
        estimate_exponent(cfg, rows=rows)
        assert len(refs) == 1
        assert len(alive) == 4 and not any(alive)


class TestDraw:
    @pytest.mark.parametrize("truth_text,flips,m", [
        ("0\n1\n1\n", (0.1,), 40),
        ("000000\n101000\n100100\n", (0.3,) * 6, 30),
        # the truth's last outcome has probability 0, where numpy's
        # multinomial leaves the rounding of the others in every trial
        ("000000\n101000\n100100\n", (0.3,) * 5 + (0.0,), 10**17),
    ], ids=["K2", "K64", "K64-stray"])
    def test_block_is_one_multinomial_draw(self, truth_text, flips, m):
        # drawn a sub-draw at a time, straight into float64, with the
        # stray counts folded onto the truth's last outcome of positive
        # probability: bit for bit one draw of every trial, folded, cast
        truth = parse_matrix_text(truth_text)
        rows = family_rows(truth.n_rows, truth.n_cols, DEFAULT_MAX_MATRICES)
        p_truth = bmmci.mixtures.mixture_probs_table(
            rows[[family_index(rows, truth)]],
            bmmci.mixtures.channel_kernel(FlipProfile(flips)))[0]
        sub_rows = simulate._DRAW_BYTES // (8 * p_truth.size)
        n = 3 * sub_rows + 5
        seed = np.random.SeedSequence(11)
        expected = np.random.default_rng(seed).multinomial(m, p_truth, size=n)
        if p_truth[-1] == 0.0:
            assert expected[:, -1].all()
            expected[:, np.flatnonzero(p_truth)[-1]] += expected[:, -1]
            expected[:, -1] = 0
        block = np.full((n, p_truth.size), np.nan)
        simulate._draw(seed, m, p_truth, block)
        assert np.array_equal(block, expected.astype(float))


def draw_jobs(count, taken=None):
    """Jobs ``(seed, m, 5)`` with m = 0, 1, ...; ``taken`` records each."""
    for m, seed in enumerate(np.random.SeedSequence(3).spawn(count)):
        if taken is not None:
            taken.append(m)
        yield seed, m, 5


class TestDrawnBlocks:
    P = np.array([0.3, 0.7])

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_in_order_with_bounded_lookahead(self, monkeypatch, workers):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: workers)
        seeds = np.random.SeedSequence(3).spawn(60)
        taken, seen, failures = [], [], []

        def consume():
            try:
                with closing(simulate._drawn_blocks(
                        self.P, draw_jobs(60, taken))) as blocks:
                    for m, block in blocks:
                        # the block yielded and at most workers + 1 ahead
                        assert len(taken) <= m + workers + 2
                        assert np.array_equal(block, np.random.default_rng(
                            seeds[m]).multinomial(m, self.P, size=5))
                        seen.append(m)
            except BaseException as exc:
                failures.append(exc)

        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumer = threading.Thread(target=consume)
            consumer.start()
            consumer.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not consumer.is_alive()
        assert failures == []
        assert seen == list(range(60))
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("holds", [True, False], ids=["holds", "drops"])
    def test_buffers_within_the_charge(self, monkeypatch, workers, holds):
        # a caller that holds each block until it asks for the next gets
        # its buffer drawn into again; one that drops it, as scoring does
        # when it copies its open trials smaller, gets it freed and a new
        # one made.  Either way no more buffers are alive than the
        # workers + 2 charged to the budget.
        monkeypatch.setattr(simulate, "_cpu_count", lambda: workers)
        made = []  # a weak reference to each buffer made

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def empty(self, *args, **kwargs):
                buffer = np.empty(*args, **kwargs)
                made.append(weakref.ref(buffer))
                return buffer

        monkeypatch.setattr(simulate, "np", CountingNumpy())
        seeds = np.random.SeedSequence(3).spawn(60)
        with closing(simulate._drawn_blocks(self.P,
                                           draw_jobs(60))) as blocks:
            for m, block in blocks:
                assert sum(ref() is not None for ref in made) <= workers + 2
                assert np.array_equal(block, np.random.default_rng(
                    seeds[m]).multinomial(m, self.P, size=5))
                if not holds:
                    del block
        if holds:
            assert len(made) <= workers + 2
        else:
            assert len(made) == 60

    def test_leaving_early_skips_unstarted_jobs(self, monkeypatch):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
        draw = simulate._draw
        started = []

        def counted(seed, m, p, out):
            started.append(m)
            draw(seed, m, p, out)

        monkeypatch.setattr(simulate, "_draw", counted)
        before = threading.active_count()
        with closing(simulate._drawn_blocks(self.P,
                                           draw_jobs(100))) as blocks:
            assert next(blocks)[0] == 0
        assert threading.active_count() == before
        assert len(started) <= 4

    def test_workers_start_only_for_submitted_jobs(self, monkeypatch):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 7)
        before = threading.active_count()
        with closing(simulate._drawn_blocks(self.P, draw_jobs(1))) as blocks:
            assert next(blocks)[0] == 0
            assert threading.active_count() <= before + 1
        assert threading.active_count() == before

    @pytest.mark.parametrize("budget_blocks,workers", [
        (4, 2), (5.5, 3), (2, 1), (1, 1), (0, 1)])
    def test_blocks_ahead_fit_the_budget(self, monkeypatch, budget_blocks,
                                         workers):
        # on 64 CPUs, the buffers of workers + 2 blocks of
        # 8 * _TRIAL_BLOCK * 2 bytes fit in the budget, and at least one
        # worker draws
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 64)
        monkeypatch.setattr(simulate, "_TRIAL_BLOCK", 5)
        monkeypatch.setattr(bmmci.mixtures, "_BUDGET_BYTES",
                            int(budget_blocks * 8 * 5 * 2))
        pools = []

        def pool(max_workers):
            pools.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", pool)
        seeds = np.random.SeedSequence(3).spawn(30)
        before = threading.active_count()
        taken = []
        with closing(simulate._drawn_blocks(
                self.P, draw_jobs(30, taken))) as blocks:
            for m, block in blocks:
                assert threading.active_count() <= before + workers
                assert len(taken) <= m + workers + 2
                assert np.array_equal(block, np.random.default_rng(
                    seeds[m]).multinomial(m, self.P, size=5))
        assert pools == [workers]
        assert threading.active_count() == before

    def test_blocks_ahead_at_the_largest_table(self, monkeypatch):
        # at L = 13 a full block is 256 MiB, so the 1 GiB budget holds the
        # buffers of 2 workers, however many CPUs there are
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 64)
        pools = []

        def pool(max_workers):
            pools.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", pool)
        p = np.full(1 << 13, 2.0 ** -13)
        with closing(simulate._drawn_blocks(p, draw_jobs(2))) as blocks:
            assert [m for m, _ in blocks] == [0, 1]
        assert pools == [2]

    def test_workers_joined_after_return(self):
        before = threading.active_count()
        error_counts(TRUTH, PROFILE, (5, 10), 10_000, 1)
        assert threading.active_count() == before

    def test_draw_error_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(simulate, "_TRIAL_BLOCK", 300)
        draw = simulate._draw

        def failing(seed, m, p, out):
            if seed.spawn_key == (0, 2):  # the first m's third block
                raise RuntimeError("draw failed")
            draw(seed, m, p, out)

        monkeypatch.setattr(simulate, "_draw", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed") as failure:
            error_counts(TRUTH, PROFILE, (5, 10), 3000, 1)
        # while the caller holds the traceback, and the frames with it
        assert threading.active_count() == before, failure

    def test_screen_build_error_stops_workers(self, monkeypatch):
        # the screen rows are made before any draw is submitted; they fail
        # at their first chunk, the second row build, after the truth's
        # row, and no pool is made and no worker started
        truth = canonicalize([0, 3, 5], 4)
        profile = FlipProfile.constant(0.2, 4)
        rows = family_rows(3, 4, DEFAULT_MAX_MATRICES)
        assert rows.shape[0] - 1 > simulate._RIVAL_TILE
        cfg = SimConfig(truth=truth, profile=profile, m_values=(5, 10),
                        trials=3000, seed=1)
        monkeypatch.setattr(simulate, "_TRIAL_BLOCK", 300)
        build, threads, pools = bmmci.mixtures.mixture_probs_table, [], []

        def failing(rows_table, kernel):
            threads.append(threading.active_count())
            if len(threads) == 2:
                raise RuntimeError("build failed")
            return build(rows_table, kernel)

        def pool(max_workers):
            pools.append(max_workers)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(bmmci.mixtures, "mixture_probs_table", failing)
        monkeypatch.setattr(simulate, "ThreadPoolExecutor", pool)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="build failed") as failure:
            simulate._error_counts(cfg, rows)
        assert pools == []
        assert threads == [before, before]
        # while the caller holds the traceback, and the frames with it
        assert threading.active_count() == before, failure

    def test_scoring_error_stops_workers(self, monkeypatch):
        monkeypatch.setattr(simulate, "_TRIAL_BLOCK", 300)
        drawn_blocks = simulate._drawn_blocks

        def widened(p_truth, jobs):
            with closing(drawn_blocks(p_truth, jobs)) as blocks:
                for turn, (m, block) in enumerate(blocks):
                    if turn == 2:  # one outcome too many to score
                        block = np.hstack([block, block[:, :1]])
                    yield m, block

        monkeypatch.setattr(simulate, "_drawn_blocks", widened)
        before = threading.active_count()
        with pytest.raises(ValueError) as failure:
            error_counts(TRUTH, PROFILE, (5, 10), 3000, 1)
        # while the caller holds the traceback, and the frames with it
        assert threading.active_count() == before, failure


class TestEstimateExponent:
    def test_reproducible(self):
        cfg = SimConfig(truth=TRUTH, profile=PROFILE,
                        m_values=(5, 10, 15), trials=4000, seed=77)
        first = estimate_exponent(cfg)
        second = estimate_exponent(cfg)
        assert first == second

    def test_error_rate_roughly_monotone(self):
        cfg = SimConfig(truth=TRUTH, profile=PROFILE,
                        m_values=(10, 40, 70, 100), trials=6000, seed=5)
        est = estimate_exponent(cfg)
        rates = [(rate, wilson) for _, rate, wilson in est.per_m]
        for (r0, (lo0, hi0)), (r1, (lo1, hi1)) in zip(rates, rates[1:]):
            # next rate may fluctuate but not above the previous upper band
            assert r1 <= hi0 + 3 * (hi0 - lo0)

    def test_slope_tracks_exact_exponent_loosely(self):
        cfg = SimConfig(truth=TRUTH, profile=PROFILE,
                        m_values=(20, 40, 60, 80, 100), trials=20_000, seed=11)
        est = estimate_exponent(cfg)
        d_exact, _ = exact_error_exponent(TRUTH, PROFILE)
        # small sample counts inflate the slope through the sub-exponential
        # prefactor (about +1/(2m) locally), so only a loose check applies
        assert est.slope == pytest.approx(d_exact, rel=0.5)

    def test_nearly_uninformative_channel_slope_near_zero(self):
        profile = FlipProfile.constant(0.45, 1)
        cfg = SimConfig(truth=TRUTH, profile=profile,
                        m_values=(50, 150, 250, 400), trials=4000, seed=21)
        est = estimate_exponent(cfg)
        assert abs(est.slope) <= 1e-2

    def test_insufficient_points_raise(self):
        profile = FlipProfile.constant(0.0, 1)
        cfg = SimConfig(truth=canonicalize([0, 1], 1), profile=profile,
                        m_values=(5, 10, 15), trials=500, seed=3)
        with pytest.raises(EstimationError):
            estimate_exponent(cfg)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            SimConfig(truth=TRUTH, profile=PROFILE, m_values=(10, 10),
                      trials=100, seed=0)
        with pytest.raises(InvalidInputError):
            SimConfig(truth=TRUTH, profile=PROFILE, m_values=(10, 20),
                      trials=0, seed=0)
        with pytest.raises(InvalidInputError):
            SimConfig(truth=TRUTH, profile=FlipProfile.constant(0.1, 2),
                      m_values=(10,), trials=10, seed=0)
        with pytest.raises(InvalidInputError, match="non-empty"):
            SimConfig(truth=TRUTH, profile=PROFILE, m_values=(), trials=10,
                      seed=0)


@pytest.mark.parametrize("m_values,seed,message", [
    ((10, 20), -1, "seed"),
    ((10, 2 ** 63), 0, "int64"),
])
def test_config_refuses_what_numpy_cannot_take(m_values, seed, message):
    with pytest.raises(InvalidInputError, match=message):
        SimConfig(truth=TRUTH, profile=PROFILE, m_values=m_values,
                  trials=10, seed=seed)


@pytest.mark.parametrize("m_values,trials,seed", [
    ((10.7, 20.2, 30.9), 100, 0),
    (("10", "20", "30"), 100, 0),
    ((10, 20, 30), 100.5, 0),
    ((10, 20, 30), 100, 1.5),
])
def test_config_refuses_non_integers(m_values, trials, seed):
    # none is rounded, parsed or left to fail later in range or SeedSequence
    with pytest.raises(InvalidInputError, match="integers"):
        SimConfig(truth=TRUTH, profile=PROFILE, m_values=m_values,
                  trials=trials, seed=seed)


def test_config_takes_numpy_integers():
    cfg = SimConfig(truth=TRUTH, profile=PROFILE,
                    m_values=np.array([5, 10, 15]), trials=np.int64(100),
                    seed=np.uint32(3))
    assert cfg.m_values == (5, 10, 15)
    assert estimate_exponent(cfg) == estimate_exponent(SimConfig(
        truth=TRUTH, profile=PROFILE, m_values=(5, 10, 15), trials=100,
        seed=3))
