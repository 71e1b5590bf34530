import math
import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest

import bmmci.mixtures
import bmmci.oracle
from bmmci import (
    BinaryMatrix,
    FlipProfile,
    InvalidInputError,
    ResourceLimitError,
    canonicalize,
    chernoff_info,
    closest_pair,
    count_matrices,
    enumerate_matrices,
    exact_error_exponent,
    is_critical_pair,
    mixture_distribution,
    parse_matrix_text,
    random_pair_stream,
)
from bmmci.chernoff import chernoff_info_batch, tangent_bound
from bmmci.oracle import (PRUNE_MARGIN, canonical_rows, family_rows,
                          family_table)


def _family_probs(n, l, profile):
    # looked up on the module, so a test's table stands in for it
    rows, probs = bmmci.oracle.family_table(n, l, profile, 10 ** 6)
    return [BinaryMatrix(tuple(r), l) for r in rows.tolist()], probs


def reference_closest_pair(n, l, profile):
    """Unpruned scan: every pair solved, lexicographic (value, i, j) minimum."""
    matrices, probs = _family_probs(n, l, profile)
    ii, jj = np.triu_indices(len(matrices), 1)
    # rows are solved independently; cache-sized batches only run faster
    values, lams = map(np.concatenate, zip(*(
        chernoff_info_batch(probs[ii[at:at + 4096]], probs[jj[at:at + 4096]])
        for at in range(0, ii.size, 4096))))
    order = np.lexsort((jj, ii, values))
    k = order[0]
    tied_rows = ii[order[values[order] == values[k]]]
    return values[k], matrices[ii[k]], matrices[jj[k]], lams[k], tied_rows


def reference_exponent(truth, profile):
    """Every other source solved against the truth; first index wins ties."""
    matrices, probs = _family_probs(truth.n_rows, truth.n_cols, profile)
    t = matrices.index(truth)
    others = np.flatnonzero(np.arange(len(matrices)) != t)
    values, _ = chernoff_info_batch(
        probs[others], np.broadcast_to(probs[t], probs[others].shape))
    k = np.lexsort((others, values))[0]
    return values[k], matrices[others[k]]


# New cases go at the end, so the ids of the earlier ones keep their indices.
EXACT_GRID = [
    (n, l, FlipProfile.constant(f, l))
    for n in range(1, 5) for l in range(1, 4) for f in (0.0, 0.1, 0.5, 1.0)
] + [
    (3, 2, FlipProfile((0.0, 0.3))),
    (4, 2, FlipProfile((0.3, 1.0))),
    (2, 3, FlipProfile((1.0, 0.3, 0.1))),
    (3, 3, FlipProfile((0.5, 0.0, 0.3))),
    (4, 3, FlipProfile((0.0, 0.1, 1.0))),
] + [
    (n, l, FlipProfile.constant(f, l))
    for n in range(1, 5) for l in range(1, 4) for f in (0.3, 0.45)
] + [
    (4, 2, FlipProfile((0.5, 1.0))),
    (3, 3, FlipProfile((1.0, 0.5, 0.0))),
    (4, 3, FlipProfile((0.45, 0.5, 1.0))),
    (3, 3, FlipProfile((0.0, 0.3, 0.5))),
]


def _orbit_firsts_by_sets(n, l):
    """Smallest enumeration index in each XOR orbit, from Python tuples."""
    rows = [tuple(r) for r in canonical_rows(n, l).tolist()]
    index = {r: k for k, r in enumerate(rows)}
    return sorted({min(index[tuple(sorted(w ^ a for w in r))]
                       for a in range(1 << l)) for r in rows})


def _pair_images_by_masks(rows, counts, codes, firsts):
    """``_pair_images`` as one loop iteration per mask, two sorts each."""
    n = rows.shape[0]
    scanned = np.zeros(n, dtype=bool)
    scanned[firsts] = True
    a, b = rows[codes // n], rows[codes % n]
    images = [np.empty(0, dtype=np.int64)]
    for mask in range(counts.shape[1] - 1):
        ia = bmmci.oracle._ranks(counts, np.sort(a ^ mask, axis=1))
        ib = bmmci.oracle._ranks(counts, np.sort(b ^ mask, axis=1))
        i, j = np.minimum(ia, ib), np.maximum(ia, ib)
        images.append((i * n + j)[~scanned[i]])
    return np.unique(np.concatenate(images))


def _image_codes(n, l, seed):
    """Random increasing pair codes of the (n, l) family: random pairs,
    pairs whose i is orbit-first, and pairs ending at the last source."""
    rows = canonical_rows(n, l)
    counts = bmmci.oracle._rank_counts(n, l)
    firsts = bmmci.oracle._orbit_firsts(rows, counts)
    m = rows.shape[0]
    rng = np.random.default_rng(seed)
    heads = firsts[firsts < m - 1]
    i = np.concatenate((rng.integers(0, m - 1, 600), rng.choice(heads, 600),
                        rng.integers(0, m - 1, 50)))
    j = rng.integers(i + 1, m)
    j[-50:] = m - 1
    return rows, counts, np.unique(i * m + j), firsts


class TestEnumeration:
    def test_two_rows_one_column(self):
        mats = list(enumerate_matrices(2, 1))
        assert [m.rows for m in mats] == [(0, 0), (0, 1), (1, 1)]

    @pytest.mark.parametrize("n,l,expected", [(3, 2, 20), (2, 2, 10)])
    def test_counts(self, n, l, expected):
        assert count_matrices(n, l) == expected
        assert len(list(enumerate_matrices(n, l))) == expected

    def test_counts_match_closed_form_everywhere(self):
        for n in range(1, 7):
            for l in range(1, 4):
                got = sum(1 for _ in enumerate_matrices(n, l))
                assert got == math.comb((1 << l) + n - 1, n)

    def test_lexicographic_order(self):
        mats = [m.rows for m in enumerate_matrices(3, 1)]
        assert mats == sorted(mats)

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError) as err:
            list(enumerate_matrices(12, 3, max_matrices=10_000))
        assert "50388" in str(err.value)

    def test_rows_match_combinations(self):
        for n in range(1, 6):
            for l in range(1, 5):
                expected = np.array(
                    list(combinations_with_replacement(range(2 ** l), n)))
                assert np.array_equal(canonical_rows(n, l), expected)

    def test_rank_is_position(self):
        for n in range(1, 6):
            for l in range(1, 5):
                rows = canonical_rows(n, l)
                counts = bmmci.oracle._rank_counts(n, l)
                assert np.array_equal(bmmci.oracle._ranks(counts, rows),
                                      np.arange(rows.shape[0]))

    def test_rows_peak_is_linear(self):
        # 1,001 rows of 1,000 words: the work arrays beside the 8 MB result
        # hold one entry per row, not one per word
        rows = canonical_rows(1000, 1)
        tracemalloc.start()
        try:
            canonical_rows(1000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * rows.nbytes

    def test_cap_checked_before_allocation(self):
        # the 2**39 sources of 2 rows of 20 bits would fill 8 TiB
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError) as err:
                canonical_rows(2, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(count_matrices(2, 20)) in str(err.value)
        assert peak < 2 ** 20

    def test_table_budget(self, monkeypatch):
        # 10 sources x 4 outcomes x 8 bytes is exactly 320 bytes
        profile = FlipProfile.constant(0.1, 2)
        monkeypatch.setattr(bmmci.mixtures, "_BUDGET_BYTES", 320)
        rows, probs = family_table(2, 2, profile, 10 ** 6)
        assert probs.shape == (10, 4)
        monkeypatch.setattr(bmmci.mixtures, "_BUDGET_BYTES", 319)
        with pytest.raises(ResourceLimitError) as err:
            family_table(2, 2, profile, 10 ** 6)
        assert "320 bytes" in str(err.value)

    def test_table_peak_within_table_multiple(self):
        # the table is summed in place over row chunks: beside it the call
        # holds the rows, the shifted kernels and one chunk's gather
        profile = FlipProfile.constant(0.3, 6)
        tracemalloc.start()
        try:
            _, probs = family_table(3, 6, profile, 10 ** 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * probs.nbytes


class TestClosestPair:
    def test_low_noise_odd_case(self):
        res = closest_pair(3, 2, FlipProfile.constant(0.1, 2))
        eta = 0.8 / 3
        assert res.min_ci == pytest.approx(-0.5 * math.log1p(-eta * eta),
                                           abs=1e-9)
        assert res.candidates_examined == 190
        assert not res.zero_ci

    def test_high_noise_case(self):
        res = closest_pair(2, 2, FlipProfile.constant(0.3, 2))
        assert res.min_ci == pytest.approx(-0.5 * math.log1p(-0.16 ** 2),
                                           abs=1e-9)
        assert res.pair.a.rows == (0, 3)
        assert res.pair.b.rows == (1, 2)
        assert res.candidates_examined == 45

    def test_uninformative_channel_collapses(self):
        res = closest_pair(3, 2, FlipProfile.constant(0.5, 2))
        assert res.min_ci == 0.0
        assert res.zero_ci

    def test_column_relabeling_invariance(self):
        v1 = closest_pair(3, 2, FlipProfile((0.3, 0.1))).min_ci
        v2 = closest_pair(3, 2, FlipProfile((0.1, 0.3))).min_ci
        assert v1 == pytest.approx(v2, abs=1e-12)

    @pytest.mark.parametrize("n,l,flips", [
        (3, 1, (0.15,)),
        (3, 2, (0.05, 0.05)),
        (3, 2, (0.3, 0.3)),
        (4, 2, (0.45, 0.45)),
        (2, 3, (0.4, 0.1, 0.3)),
    ])
    def test_matches_direct_scan(self, n, l, flips):
        # the pruned search must agree with a naive full scan in every regime
        profile = FlipProfile(flips)
        dists = np.array([mixture_distribution(m, profile).probs
                          for m in enumerate_matrices(n, l)])
        ii, jj = np.triu_indices(len(dists), 1)
        direct = chernoff_info_batch(dists[ii], dists[jj])[0].min()
        res = closest_pair(n, l, profile)
        assert res.min_ci == pytest.approx(direct, abs=1e-10)

    def test_zero_flip_supports(self):
        # deterministic channel: distinct sources with shared support exist,
        # and the scan must handle zero probabilities
        res = closest_pair(2, 1, FlipProfile.constant(0.0, 1))
        assert res.min_ci > 0

    def test_profile_length_checked(self):
        with pytest.raises(InvalidInputError):
            closest_pair(2, 2, FlipProfile((0.1,)))

    def test_many_block_answer_and_peak(self):
        # 10,659 orbit-first heads make 84 row blocks of 107,297 tiles in
        # all.  Beside the 170,544 x 16 x 8-byte table the scan holds the
        # square roots of the columns, the (M, N) rows and one float per
        # tile: a Python object per tile took the peak to 3.31x.  The answer
        # was recorded when each tile was a (c0, c1) tuple.
        table = 170544 * 16 * 8
        tracemalloc.start()
        try:
            res = closest_pair(7, 4, FlipProfile.constant(0.3, 4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.8 * table
        assert repr(res.min_ci) == "0.0006780782204685032"
        assert (res.pair.a.rows, res.pair.b.rows) == ((0, 0, 3, 3, 5, 5, 6),
                                                      (0, 1, 2, 3, 4, 5, 7))
        assert res.pairs_solved == 64
        assert res.lambda_star == 0.4999200900998914


class TestExactness:
    """The prefiltered oracles return exactly what an unpruned scan does."""

    @pytest.mark.parametrize("n,l,profile", EXACT_GRID)
    def test_closest_pair_matches_unpruned(self, n, l, profile):
        value, a, b, lam, _ = reference_closest_pair(n, l, profile)
        res = closest_pair(n, l, profile)
        assert (res.min_ci, res.pair.a, res.pair.b, res.lambda_star) == (
            value, a, b, lam)
        assert 1 <= res.pairs_solved <= res.candidates_examined

    @pytest.mark.parametrize("n,l,profile", EXACT_GRID)
    def test_exponent_matches_unpruned(self, n, l, profile):
        matrices = list(enumerate_matrices(n, l))
        for truth in matrices[::max(1, len(matrices) // 6)]:
            assert exact_error_exponent(truth, profile) == (
                reference_exponent(truth, profile))

    def test_all_disjoint_family(self):
        # every pair has infinite Chernoff information; the first pair wins
        res = closest_pair(1, 1, FlipProfile.constant(0.0, 1))
        assert res.min_ci == math.inf
        assert (res.pair.a.rows, res.pair.b.rows) == ((0,), (1,))
        assert res.pairs_solved == 1
        assert not res.zero_ci

    @pytest.mark.parametrize("n,l,profile,spans", [
        (3, 3, FlipProfile.constant(0.3, 3), True),
        (3, 2, FlipProfile.constant(0.1, 2), True),
        (4, 2, FlipProfile((0.0, 0.3)), False),
        (3, 2, FlipProfile.constant(0.5, 2), False),
        (1, 3, FlipProfile.constant(0.0, 3), False),
    ])
    def test_row_blocks(self, monkeypatch, n, l, profile, spans):
        value, a, b, lam, tied_rows = reference_closest_pair(n, l, profile)
        block = 2  # tiles of 2 x 2 pairs, strips of 4 sources
        monkeypatch.setattr(bmmci.oracle, "_TILE_MADDS", 4 << l)
        if spans:
            # the minimum is tied exactly by pairs in different row blocks
            assert len(set(tied_rows // block)) > 1
        res = closest_pair(n, l, profile)
        assert (res.min_ci, res.pair.a, res.pair.b, res.lambda_star) == (
            value, a, b, lam)
        for truth in (a, b):
            assert exact_error_exponent(truth, profile) == (
                reference_exponent(truth, profile))

    def test_stops_at_first_zero_block(self, monkeypatch):
        # sources 2 and 3 share a distribution, as do 6 and 7; with blocks
        # of 2 rows the scan stops in the second block after one solve
        matrices = list(enumerate_matrices(2, 2))
        probs = np.full((len(matrices), 4), 0.25)
        probs[:, 0] += 0.05 * np.array([1, 2, 3, 3, 4, 5, 6, 6, 7, 8])
        probs[:, 1:] -= probs[:, :1] / 3 - 0.25 / 3
        monkeypatch.setattr(bmmci.oracle, "family_table",
                            lambda *args: (canonical_rows(2, 2), probs))
        monkeypatch.setattr(bmmci.oracle, "_TILE_MADDS", 4 * 4)
        res = closest_pair(2, 2, FlipProfile.constant(0.1, 2))
        assert (res.min_ci, res.pair.a, res.pair.b) == (
            0.0, matrices[2], matrices[3])
        assert res.pairs_solved == 1

    def test_tie_across_column_tiles(self, monkeypatch):
        # (0, 4) and (1, 2) tie exactly (mirrored distributions); in tiles
        # of 2 x 2 pairs (1, 2) is met first, but (0, 4) comes first
        matrices = list(enumerate_matrices(5, 1))
        probs = np.array([[0.2, 0.8], [0.8, 0.2], [0.75, 0.25],
                          [0.5, 0.5], [0.25, 0.75], [0.6, 0.4]])
        monkeypatch.setattr(bmmci.oracle, "family_table",
                            lambda *args: (canonical_rows(5, 1), probs))
        monkeypatch.setattr(bmmci.oracle, "_TILE_MADDS", 4 * 2)
        res = closest_pair(5, 1, FlipProfile.constant(0.1, 1))
        assert (res.pair.a, res.pair.b) == (matrices[0], matrices[4])


@pytest.fixture
def solver_calls(monkeypatch):
    """Rows of each ``chernoff_info_batch`` call the oracle makes."""
    calls = []

    def counted(p1, p2):
        calls.append(p1.shape[0])
        return chernoff_info_batch(p1, p2)

    monkeypatch.setattr(bmmci.oracle, "chernoff_info_batch", counted)
    return calls


class TestOneSolve:
    """Away from zero, a search makes one solver call: the tangent bound
    sets the threshold, and the XOR images join the batch."""

    @pytest.mark.parametrize("n,l,f", [(4, 4, 0.3), (4, 4, 0.0),
                                       (3, 5, 0.3), (3, 6, 0.3)])
    def test_closest_pair(self, solver_calls, n, l, f):
        res = closest_pair(n, l, FlipProfile.constant(f, l))
        assert solver_calls == [res.pairs_solved]

    def test_exact_error_exponent(self, solver_calls):
        # the truth of the exponent benchmark
        truth = parse_matrix_text("000000\n101000\n100100\n")
        exact_error_exponent(truth, FlipProfile.constant(0.2, 6))
        assert len(solver_calls) == 1

    def test_bound_far_from_one_half(self, monkeypatch):
        # (0, 1) has the largest coefficient and lambda* = 0.41, so its
        # tangent bound (0.0065) admits (2, 5) at -log BC = 0.0053, which
        # its value (0.0049) prunes; the mirrored pair (2, 3) wins
        probs = np.array([[0.002, 0.998], [0.02, 0.98], [0.451, 0.549],
                          [0.549, 0.451], [0.9, 0.1], [0.35, 0.65]])
        monkeypatch.setattr(bmmci.oracle, "family_table",
                            lambda *args: (canonical_rows(5, 1), probs))
        monkeypatch.setattr(bmmci.oracle, "_TILE_MADDS", 4 * 2)
        top = chernoff_info(probs[0], probs[1]).value
        admitted = -math.log(np.sqrt(probs[2] * probs[5]).sum())
        assert top + PRUNE_MARGIN < admitted < tangent_bound(probs[:1],
                                                             probs[1:2])[0]
        profile = FlipProfile.constant(0.1, 1)
        value, a, b, lam, _ = reference_closest_pair(5, 1, profile)
        res = closest_pair(5, 1, profile)
        assert (res.min_ci, res.pair.a, res.pair.b, res.lambda_star) == (
            value, a, b, lam)
        assert (a.rows, b.rows) == ((0, 0, 0, 1, 1), (0, 0, 1, 1, 1))
        # (0, 1), (2, 3), (2, 5) and (4, 5), the image of (0, 1)
        assert res.pairs_solved == 4


class TestOrbits:
    """Phase 1 scans orbit-first sources; phase 2 re-solves their images."""

    @pytest.mark.parametrize("n,l", [(n, l) for n in range(1, 5)
                                     for l in range(1, 4)])
    def test_firsts_are_orbit_minima(self, n, l):
        rows = canonical_rows(n, l)
        firsts = bmmci.oracle._orbit_firsts(
            rows, bmmci.oracle._rank_counts(n, l))
        assert firsts.tolist() == _orbit_firsts_by_sets(n, l)

    @pytest.mark.parametrize("n,l", [(n, l) for n in range(1, 6)
                                     for l in range(1, 5) if n == 5 or l == 4])
    def test_firsts_are_orbit_minima_to_five_rows(self, n, l):
        # the own-word translates find the same firsts as all 2**L masks
        rows = canonical_rows(n, l)
        firsts = bmmci.oracle._orbit_firsts(
            rows, bmmci.oracle._rank_counts(n, l))
        assert firsts.tolist() == _orbit_firsts_by_sets(n, l)

    @pytest.mark.parametrize("n,l,firsts,total", [
        (4, 4, 276, 3876), (3, 5, 187, 5984), (3, 6, 715, 45760),
        (5, 5, 11781, 376992),
    ])
    def test_first_counts(self, n, l, firsts, total):
        rows = canonical_rows(n, l)
        counts = bmmci.oracle._rank_counts(n, l)
        assert rows.shape[0] == total
        assert bmmci.oracle._orbit_firsts(rows, counts).size == firsts

    @pytest.mark.parametrize("chunk_bytes", [None, 1])
    @pytest.mark.parametrize("n,l", [(n, l) for n in range(1, 5)
                                     for l in range(1, 5)] + [(3, 5)])
    def test_images_match_mask_loop(self, monkeypatch, n, l, chunk_bytes):
        # one code per chunk (chunk_bytes 1) puts every code at a chunk edge
        if chunk_bytes is not None:
            monkeypatch.setattr(bmmci.mixtures, "_CHUNK_BYTES", chunk_bytes)
        rows, counts, codes, firsts = _image_codes(n, l, seed=10 * n + l)
        m = rows.shape[0]
        assert np.isin(codes // m, firsts).any()
        assert (codes % m == m - 1).any()
        for part in (codes, codes[:1], codes[:0]):
            images = bmmci.oracle._pair_images(rows, counts, part, firsts)
            expected = _pair_images_by_masks(rows, counts, part, firsts)
            assert images.dtype == expected.dtype == np.int64
            np.testing.assert_array_equal(images, expected, strict=True)

    def test_images_peak(self, monkeypatch):
        # the 2,276 phase-1 survivors of (3, 5) at f = 0.499 have 42,044
        # images: the per-mask loop peaked at 1.85 MB and one broadcast over
        # all of them at 4.1 MB; chunks of codes stay below 2 MB
        images_of = bmmci.oracle._pair_images

        class Survivors(Exception):
            pass

        def capture(*args):
            raise Survivors(args)

        monkeypatch.setattr(bmmci.oracle, "_pair_images", capture)
        with pytest.raises(Survivors) as caught:
            closest_pair(3, 5, FlipProfile.constant(0.499, 5))
        args = caught.value.args[0]
        assert args[2].size == 2276
        tracemalloc.start()
        try:
            images = images_of(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert images.size == 42044
        assert peak < 2 * 10 ** 6

    def test_cap_scale_answer_and_peak(self):
        # the answer was recorded from the full scan over all 1,046,965,920
        # pairs; the table is 45,760 x 64 x 8 bytes, and beside it the scan
        # holds the square roots of every row its tiles span, dropped before
        # the final batch
        profile = FlipProfile.constant(0.3, 6)
        table = 45760 * 64 * 8
        peaks = []
        for build in (lambda: family_table(3, 6, profile, 10 ** 6),
                      lambda: closest_pair(3, 6, profile)):
            tracemalloc.start()
            try:
                res = build()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 2.1 * table
        assert peaks[1] < 2.2 * table
        assert repr(res.min_ci) == "0.00592732726964762"
        assert (res.pair.a.rows, res.pair.b.rows) == ((0, 0, 17), (0, 1, 16))
        assert res.lambda_star == 0.4999165940584744
        assert res.candidates_examined == 1046965920

    def test_orbit_blocks_answer(self):
        # phase 1 at (4, 5) scans 1,768 orbit-first sources of 52,360 in 20
        # row blocks of index arrays, each rooted once for its tiles;
        # recorded when every tile gathered its rows from a rooted table
        res = closest_pair(4, 5, FlipProfile.constant(0.3, 5))
        assert repr(res.min_ci) == "0.002052205792546058"
        assert (res.pair.a.rows, res.pair.b.rows) == ((0, 3, 5, 6),
                                                      (1, 2, 4, 7))
        assert res.lambda_star == 0.5000001495732048
        assert res.pairs_solved == 40

    @pytest.mark.parametrize("n,l,flips,a,b", [
        (4, 4, (0.5,) * 4, (0, 0, 0, 0), (0, 0, 0, 1)),
        (4, 4, (0.1, 0.5, 0.3, 0.2), (0, 0, 0, 0), (0, 0, 0, 2)),
        (3, 5, (0.0, 1.0, 0.5, 0.3, 0.1), (0, 0, 0), (0, 0, 4)),
    ])
    def test_zero_fallback_first_pair(self, n, l, flips, a, b):
        # recorded from the full scan; the fallback stops solving at the
        # first solver call that settles a zero, not at the end of the
        # 487,872 pairs of the first block of (4, 4) at f = 0.5
        res = closest_pair(n, l, FlipProfile(flips))
        assert (res.min_ci, res.pair.a.rows, res.pair.b.rows,
                res.lambda_star) == (0.0, a, b, 0.5)
        assert res.zero_ci
        assert res.pairs_solved <= bmmci.oracle._SOLVE_PAIRS


class TestExactErrorExponent:
    def test_matches_manual_minimum(self):
        profile = FlipProfile.constant(0.1, 1)
        truth = canonicalize([0, 1, 1], 1)
        d, nearest = exact_error_exponent(truth, profile)
        mats = [m for m in enumerate_matrices(3, 1) if m != truth]
        manual = min(
            chernoff_info(mixture_distribution(m, profile),
                          mixture_distribution(truth, profile)).value
            for m in mats
        )
        assert d == pytest.approx(manual, abs=1e-10)
        assert nearest.rows == (0, 0, 1)

    def test_profile_length_checked(self):
        with pytest.raises(InvalidInputError):
            exact_error_exponent(canonicalize([0, 1], 1),
                                 FlipProfile.constant(0.1, 2))

    def test_peak_above_table_multiple(self):
        # the call builds the table from the caller's rows, and beside it
        # the strips hold the square roots of the truth's row and of one
        # strip of 4,096 rows, not of the whole table
        profile = FlipProfile.constant(0.2, 6)
        truth = parse_matrix_text("000000\n101000\n100100\n")
        rows = family_rows(3, 6, 10 ** 6)
        tracemalloc.start()
        try:
            exact_error_exponent(truth, profile, rows=rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * rows.shape[0] * 64 * 8

    @pytest.mark.parametrize("n,l", [(3, 1), (2, 2)])
    def test_truth_outside_table(self, n, l):
        # the rows of 2-row, 1-column sources hold neither n-row truth; the
        # second has their width, not their count
        profile = FlipProfile.constant(0.1, l)
        rows = family_rows(2, 1, 10 ** 6)
        with pytest.raises(InvalidInputError, match="not in a family"):
            exact_error_exponent(canonicalize([i % 2 for i in range(n)], l),
                                 profile, rows=rows)

    def test_handed_rows_charge_their_table(self, monkeypatch):
        # canonical_rows checks the matrix cap only; the table built from
        # them, 10 sources of 4 outcomes, is charged before it is built
        rows = canonical_rows(2, 2)
        monkeypatch.setattr(bmmci.mixtures, "_BUDGET_BYTES", 319)
        with pytest.raises(ResourceLimitError, match="320 bytes"):
            exact_error_exponent(canonicalize([0, 3], 2),
                                 FlipProfile.constant(0.1, 2), rows=rows)


class TestRandomPairStream:
    def test_deterministic(self):
        profile = FlipProfile.constant(0.2, 2)
        first = list(random_pair_stream(3, 2, 10, seed=42, profile=profile))
        second = list(random_pair_stream(3, 2, 10, seed=42, profile=profile))
        assert first == second

    def test_different_seeds_differ(self):
        profile = FlipProfile.constant(0.2, 2)
        a = list(random_pair_stream(3, 2, 10, seed=1, profile=profile))
        b = list(random_pair_stream(3, 2, 10, seed=2, profile=profile))
        assert a != b

    def test_pairs_unequal(self):
        profile = FlipProfile.constant(0.2, 2)
        for pair in random_pair_stream(2, 2, 30, seed=5, profile=profile):
            assert pair.a != pair.b

    def test_critical_only_pairs_are_critical(self):
        profile = FlipProfile.constant(0.3, 2)
        for pair in random_pair_stream(2, 2, 30, seed=9, profile=profile,
                                       critical_only=True):
            assert is_critical_pair(pair)

    def test_empty_stream(self):
        profile = FlipProfile.constant(0.2, 2)
        assert list(random_pair_stream(3, 2, 0, seed=0, profile=profile)) == []

    def test_refuses_negative_count(self):
        profile = FlipProfile.constant(0.2, 2)
        with pytest.raises(InvalidInputError, match="count"):
            list(random_pair_stream(3, 2, -1, seed=0, profile=profile))

    @pytest.mark.parametrize("critical_only", [False, True])
    def test_refuses_rows_over_budget(self, critical_only):
        # charged as a constructed pair's rows are; both once ended in a
        # MemoryError
        profile = FlipProfile.constant(0.2, 2)
        with pytest.raises(ResourceLimitError,
                           match="a pair of 1000000000000 rows"):
            list(random_pair_stream(10 ** 12, 2, 1, seed=0, profile=profile,
                                    critical_only=critical_only))

    def test_infeasible_critical_request(self):
        profile = FlipProfile.constant(0.2, 3)
        with pytest.raises(InvalidInputError):
            list(random_pair_stream(2, 3, 1, seed=0, profile=profile,
                                    critical_only=True))
