import itertools
import math
import sys
import threading
import tracemalloc
from contextlib import closing
from fractions import Fraction

import numpy as np
import pytest

from bmmci import (
    EstimationError,
    FlipProfile,
    InvalidInputError,
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
from bmmci import simulate
from bmmci.oracle import DEFAULT_MAX_MATRICES, family_source, family_table

TRUTH = canonicalize([0, 1, 1], 1)
PROFILE = FlipProfile.constant(0.1, 1)

# chi-square critical value, 3 degrees of freedom, upper tail 0.001
_CHI2_3_CRIT = 16.266


def error_counts(truth, profile, m_values, trials, seed):
    cfg = SimConfig(truth=truth, profile=profile, m_values=m_values,
                    trials=trials, seed=seed)
    table = family_table(truth.n_rows, truth.n_cols, profile,
                         DEFAULT_MAX_MATRICES)
    return simulate._error_counts(cfg, table)


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
# short; tiles of 1 and 7 screen every family, the default tile only (3, 4).
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
        ("0\n1\n1\n", 0.1, (20, 40, 60, 80, 100, 120), 400_000),
    ], ids=["exponent", "tail"])
    def test_worker_count_does_not_change_bench_counts(
            self, monkeypatch, truth_text, f, m_values, trials):
        # blocks of 300 give 14 and 1,334 blocks per m, the last one short
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
            assert simulate._error_counts(cfg, table) == reference, workers

    def test_peak_within_blocks_ahead_of_serial_peak(self, monkeypatch):
        # 1,024 outcomes, so a block of 4,096 trials is 32 MiB; with two
        # workers, at most three blocks are drawn ahead of the one scored
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
        truth = canonicalize([5], 10)
        profile = FlipProfile.constant(0.05, 10)
        table = family_table(1, 10, profile, DEFAULT_MAX_MATRICES)
        cfg = SimConfig(truth=truth, profile=profile, m_values=(10, 40, 160),
                        trials=4096, seed=0)
        block = 4096 * 1024 * 8
        # measured with each block drawn and scored in turn on the calling
        # thread: an int64 draw beside its float copy, and the 8 MiB ratios
        serial_peak = 76_956_577
        tracemalloc.start()
        try:
            simulate._error_counts(cfg, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= serial_peak + 3 * block

    def test_no_score_matrix_over_all_rivals(self):
        # 4096 trials against the 5,983 rivals at N=3, L=5 would be 196 MB
        truth = canonicalize([0, 5, 12], 5)
        profile = FlipProfile.constant(0.2, 5)
        table = family_table(3, 5, profile, DEFAULT_MAX_MATRICES)
        cfg = SimConfig(truth=truth, profile=profile, m_values=(40,),
                        trials=4096, seed=0)
        tracemalloc.start()
        try:
            simulate._error_counts(cfg, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("n,l,profile", REFERENCE_GRID)
    def test_matches_unscreened_reference(self, monkeypatch, n, l, profile):
        # blocks of 300 make 1,000 trials four blocks, the last one short
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
                monkeypatch.setattr(simulate, "_cpu_count", lambda: workers)
                assert simulate._error_counts(cfg, table) == reference, (
                    t, group, tile, workers)

    def test_peak_within_table_multiple(self):
        # the ratios are gathered once, beside the logs they come from,
        # and the logs are dropped before any trial is scored
        truth = canonicalize([0, 5, 9], 6)
        profile = FlipProfile.constant(0.3, 6)
        table = family_table(3, 6, profile, DEFAULT_MAX_MATRICES)
        cfg = SimConfig(truth=truth, profile=profile, m_values=(40,),
                        trials=4096, seed=0)
        tracemalloc.start()
        try:
            simulate._error_counts(cfg, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * table[1].nbytes

    def test_truth_outside_table(self):
        # the table holds 3-row, 2-column sources; the truth has 3 rows of 1
        cfg = SimConfig(truth=TRUTH, profile=PROFILE, m_values=(5,),
                        trials=10, seed=0)
        table = family_table(3, 2, FlipProfile.constant(0.1, 2),
                             DEFAULT_MAX_MATRICES)
        with pytest.raises(InvalidInputError):
            simulate._error_counts(cfg, table)


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

    def test_leaving_early_skips_unstarted_jobs(self, monkeypatch):
        monkeypatch.setattr(simulate, "_cpu_count", lambda: 2)
        draw = simulate._draw
        started = []

        def counted(seed, m, p, n):
            started.append(m)
            return draw(seed, m, p, n)

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

    def test_workers_joined_after_return(self):
        before = threading.active_count()
        error_counts(TRUTH, PROFILE, (5, 10), 10_000, 1)
        assert threading.active_count() == before

    def test_draw_error_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(simulate, "_TRIAL_BLOCK", 300)
        draw = simulate._draw

        def failing(seed, m, p, n):
            if seed.spawn_key == (0, 2):  # the first m's third block
                raise RuntimeError("draw failed")
            return draw(seed, m, p, n)

        monkeypatch.setattr(simulate, "_draw", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed") as failure:
            error_counts(TRUTH, PROFILE, (5, 10), 3000, 1)
        # while the caller holds the traceback, and the frames with it
        assert threading.active_count() == before, failure

    def test_scoring_error_stops_workers(self, monkeypatch):
        monkeypatch.setattr(simulate, "_TRIAL_BLOCK", 300)
        draw = simulate._draw

        def widened(seed, m, p, n):
            counts = draw(seed, m, p, n)
            if seed.spawn_key == (0, 2):  # one outcome too many to score
                counts = np.hstack([counts, counts[:, :1]])
            return counts

        monkeypatch.setattr(simulate, "_draw", widened)
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
