import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bmmci import (
    FlipProfile,
    InvalidInputError,
    bernoulli_ci,
    canonicalize,
    chernoff_info,
    f_lambda,
    mixture_distribution,
    symmetric_ci,
)
from bmmci import chernoff
from bmmci.chernoff import (STEPS, chernoff_info_batch, tangent_bound,
                            two_point_ci)
from conftest import bernoulli_cis, random_distribution


@st.composite
def _pairs_with_zeros(draw):
    """Rows of small-integer weights, normalized, so zeros and ties are common."""
    size = draw(st.integers(2, 6))
    weights = st.lists(st.integers(0, 3), min_size=size,
                       max_size=size).filter(any)
    pairs = draw(st.lists(st.tuples(weights, weights), min_size=1, max_size=8))
    p1 = np.array([a for a, _ in pairs], dtype=float)
    p2 = np.array([b for _, b in pairs], dtype=float)
    return (p1 / p1.sum(axis=1, keepdims=True),
            p2 / p2.sum(axis=1, keepdims=True))


def _pair_major_search(logp1, logp2):
    """The search on pair-major (B, K) rows, each probe in fresh arrays:
    the operations, and their order, that the chunked search must give
    every row."""

    def log_f(lam):
        t = lam[:, None] * logp1 + (1.0 - lam[:, None]) * logp2
        tmax = t.max(axis=1, keepdims=True)
        return tmax[:, 0] + np.log(np.exp(t - tmax).sum(axis=1))

    a = np.zeros(logp1.shape[0])
    b = np.ones(logp1.shape[0])
    c = a + chernoff._INVPHI2 * (b - a)
    d = a + chernoff._INVPHI * (b - a)
    fc, fd = log_f(c), log_f(d)
    coef = np.array([chernoff._INVPHI, chernoff._INVPHI2])
    for _ in range(STEPS):
        shrink_right = fc < fd
        a = np.where(shrink_right, a, c)
        b = np.where(shrink_right, d, b)
        probe = a + coef[shrink_right.view(np.int8)] * (b - a)
        c, d = (np.where(shrink_right, probe, d),
                np.where(shrink_right, c, probe))
        f_new = log_f(probe)
        fc, fd = (np.where(shrink_right, f_new, fd),
                  np.where(shrink_right, fc, f_new))
    lam = 0.5 * (a + b)
    return lam, log_f(lam)


def _mixed_rows(rng, n_rows, size):
    """Random pairs of rows, among them identical pairs, disjoint pairs,
    pairs whose zeros differ and pairs that share their zeros."""
    p1 = rng.dirichlet(np.ones(size), size=n_rows)
    p2 = rng.dirichlet(np.ones(size), size=n_rows)
    kind = rng.integers(0, 5, n_rows)
    p2[kind == 0] = p1[kind == 0]
    p1[kind == 1] = np.eye(size)[0]
    p2[kind == 1] = np.eye(size)[-1]
    p1[kind == 2, :size // 2] = 0.0
    p2[kind == 2, -1] = 0.0
    p1[kind == 3, -1] = p2[kind == 3, -1] = 0.0
    return (p1 / p1.sum(axis=1, keepdims=True),
            p2 / p2.sum(axis=1, keepdims=True))


class TestFLambda:
    def test_identical_distributions(self):
        p = np.array([0.3, 0.7])
        assert f_lambda(p, p, 0.37) == pytest.approx(1.0, abs=1e-14)

    def test_disjoint_supports(self):
        assert f_lambda(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5) == 0.0

    def test_bhattacharyya_value(self):
        p1 = np.array([0.25, 0.75])
        p2 = np.array([0.75, 0.25])
        assert f_lambda(p1, p2, 0.5) == pytest.approx(math.sqrt(0.75), abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            f_lambda(np.array([1.0]), np.array([0.5, 0.5]), 0.5)

    def test_dimension_mismatch_message(self):
        # f_lambda and chernoff_info refuse with the same words
        for call in (lambda a, b: f_lambda(a, b, 0.5), chernoff_info):
            with pytest.raises(InvalidInputError,
                               match=r"dimension mismatch: \(1,\) vs \(2,\)"):
                call(np.array([1.0]), np.array([0.5, 0.5]))

    def test_lambda_out_of_range(self):
        p = np.array([0.5, 0.5])
        with pytest.raises(InvalidInputError):
            f_lambda(p, p, 1.5)

    @pytest.mark.parametrize("bad", [
        [0.7, 0.7], [math.nan, 1.0], [0.5, math.nan], [1.5, -0.5],
        [math.inf, 0.0],
    ])
    def test_refuses_what_a_mixture_refuses(self, bad):
        # f_lambda and chernoff_info take raw vectors on either side; each
        # is checked as MixtureDistribution checks its vector
        good = [0.5, 0.5]
        for p1, p2 in ((bad, good), (good, bad)):
            for call in (lambda a, b: f_lambda(a, b, 0.5), chernoff_info):
                with pytest.raises(InvalidInputError):
                    call(np.array(p1), np.array(p2))

    def test_endpoint_limits(self):
        # f_0 sums p2 over the support of p1
        p1 = np.array([0.5, 0.5, 0.0])
        p2 = np.array([0.25, 0.25, 0.5])
        assert f_lambda(p1, p2, 0.0) == pytest.approx(0.5, abs=1e-14)
        assert f_lambda(p1, p2, 1.0) == pytest.approx(1.0, abs=1e-14)


class TestChernoffInfo:
    def test_identical_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        res = chernoff_info(p, p)
        assert res.value == 0.0
        assert res.lambda_star == 0.5
        assert res.iterations == 0

    def test_symmetric_bernoulli_closed_form(self):
        res = chernoff_info(np.array([0.75, 0.25]), np.array([0.25, 0.75]))
        assert res.value == pytest.approx(-0.5 * math.log(0.75), abs=1e-12)
        assert res.lambda_star == pytest.approx(0.5, abs=1e-6)
        assert res.converged
        assert res.iterations == STEPS

    def test_single_column_mixture_pair(self):
        fp = FlipProfile((0.1,))
        p1 = mixture_distribution(canonicalize([0, 1, 1], 1), fp)
        p2 = mixture_distribution(canonicalize([0, 0, 1], 1), fp)
        eta = 0.8 / 3
        expected = -0.5 * math.log1p(-eta * eta)
        assert chernoff_info(p1, p2).value == pytest.approx(expected, abs=1e-10)

    def test_symmetry(self, rng):
        for _ in range(25):
            p1 = random_distribution(rng, 8)
            p2 = random_distribution(rng, 8)
            v12 = chernoff_info(p1, p2).value
            v21 = chernoff_info(p2, p1).value
            assert v12 == pytest.approx(v21, abs=1e-10)

    def test_disjoint_supports_infinite(self):
        res = chernoff_info(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert math.isinf(res.value)
        assert res.iterations == 0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            chernoff_info(np.array([1.0]), np.array([0.5, 0.5]))

    def test_log_f_three_point_convexity(self, rng):
        grid = np.linspace(0.0, 1.0, 11)
        for _ in range(20):
            p1 = random_distribution(rng, 6)
            p2 = random_distribution(rng, 6)
            logs = [math.log(f_lambda(p1, p2, lam)) for lam in grid]
            for a in range(len(grid) - 2):
                for c in range(a + 2, len(grid)):
                    for b in range(a + 1, c):
                        w = (grid[c] - grid[b]) / (grid[c] - grid[a])
                        chord = w * logs[a] + (1 - w) * logs[c]
                        assert logs[b] <= chord + 1e-9

    def test_value_dominates_midpoint_bound(self, rng):
        # the midpoint evaluation is feasible, so the optimized value is at
        # least as large as -log f_(1/2)
        for _ in range(40):
            p1 = random_distribution(rng, 5)
            p2 = random_distribution(rng, 5)
            mid = -math.log(f_lambda(p1, p2, 0.5))
            assert chernoff_info(p1, p2).value >= mid - 1e-12

    def test_swap_symmetric_outcome_pairing(self, rng):
        # distributions related by an outcome pairing with crossed masses
        # are minimized at lambda = 1/2 and equal the Bhattacharyya value
        for _ in range(20):
            half = random_distribution(rng, 4)
            p1 = np.concatenate([0.5 * half, 0.5 * half[::-1]])
            p2 = np.concatenate([0.5 * half[::-1], 0.5 * half])
            res = chernoff_info(p1, p2)
            assert res.lambda_star == pytest.approx(0.5, abs=1e-6)
            bhatta = -math.log(np.sqrt(p1 * p2).sum())
            assert res.value == pytest.approx(bhatta, abs=1e-10)

    def test_parity_offset_mixtures_are_swap_symmetric(self):
        fp = FlipProfile.constant(0.3, 2)
        p1 = mixture_distribution(canonicalize([0, 3], 2), fp)
        p2 = mixture_distribution(canonicalize([1, 2], 2), fp)
        res = chernoff_info(p1, p2)
        assert res.lambda_star == pytest.approx(0.5, abs=1e-6)
        bhatta = -math.log(float(np.sqrt(p1.probs * p2.probs).sum()))
        assert res.value == pytest.approx(bhatta, abs=1e-10)


class TestChernoffInfoBatch:
    def test_disjoint_rows_are_infinite(self):
        values, lams = chernoff_info_batch(np.array([[1.0, 0.0], [0.5, 0.5]]),
                                           np.array([[0.0, 1.0], [0.5, 0.5]]))
        assert math.isinf(values[0]) and lams[0] == 0.5
        assert values[1] == 0.0 and lams[1] == 0.5

    def test_endpoint_limit_is_exact(self):
        values, lams = chernoff_info_batch(np.array([[1.0, 0.0]]),
                                           np.array([[0.75, 0.25]]))
        assert values[0] == -math.log(0.75)
        assert lams[0] == 0.0

    def test_rows_keep_their_bits_in_any_batch(self, rng):
        # identical rows are settled without the search; the rows left to
        # it must come out as they do alone
        p1 = rng.dirichlet(np.ones(8), size=6)
        p2 = rng.dirichlet(np.ones(8), size=6)
        p2[[1, 4]] = p1[[1, 4]]
        p2[2, :3] = 0.0
        p2[2] /= p2[2].sum()
        values, lams = chernoff_info_batch(p1, p2)
        assert values[1] == values[4] == 0.0
        for row in range(6):
            alone = chernoff_info_batch(p1[row:row + 1], p2[row:row + 1])
            assert (values[row], lams[row]) == (alone[0][0], alone[1][0])
        # a batch of one chunk and two rows, cut at and next to the edge
        size = 8
        edge = chernoff._CHUNK // size
        p1, p2 = _mixed_rows(rng, edge + 2, size)
        values, lams = chernoff_info_batch(p1, p2)
        for cut in (edge - 1, edge, edge + 1):
            for part in (slice(0, cut), slice(cut, None)):
                alone = chernoff_info_batch(p1[part], p2[part])
                assert values[part].tobytes() == alone[0].tobytes()
                assert lams[part].tobytes() == alone[1].tobytes()

    @pytest.mark.parametrize("size", [2, 16, 64, 256])
    def test_same_bits_as_the_pair_major_search(self, rng, monkeypatch,
                                                size):
        # three chunks and part of a fourth
        rows = chernoff._CHUNK // size
        p1, p2 = _mixed_rows(rng, 3 * rows + rows // 2, size)
        values, lams = chernoff_info_batch(p1, p2)
        monkeypatch.setattr(chernoff, "_search", _pair_major_search)
        expected = chernoff_info_batch(p1, p2)
        assert values.tobytes() == expected[0].tobytes()
        assert lams.tobytes() == expected[1].tobytes()
        assert np.isinf(values).any() and (values == 0.0).any()
        assert ((values > 0.0) & np.isfinite(values)).any()

    def test_memory_within_its_tables(self, rng):
        # 16384 x 256 with zeros that differ in a third of the rows: two
        # log tables, their masked copy and the masks, not a table per
        # probe
        p1 = rng.dirichlet(np.ones(256), size=16384)
        p2 = rng.dirichlet(np.ones(256), size=16384)
        p2[::3, :128] = 0.0
        p2 /= p2.sum(axis=1, keepdims=True)
        tracemalloc.start()
        try:
            chernoff_info_batch(p1, p2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * p1.nbytes

    @settings(max_examples=200, deadline=None)
    @given(_pairs_with_zeros())
    def test_agrees_with_scalar_on_zero_support(self, pair):
        p1, p2 = pair
        assume((p1 == 0.0).any() or (p2 == 0.0).any())
        values, lams = chernoff_info_batch(p1, p2)
        for row in range(p1.shape[0]):
            res = chernoff_info(p1[row], p2[row])
            assert (values[row] == 0.0) == (res.value == 0.0)
            assert math.isinf(values[row]) == math.isinf(res.value)
            assert values[row] == pytest.approx(res.value, rel=1e-12)
            assert lams[row] == pytest.approx(res.lambda_star, abs=1e-9)


class TestBernoulliCi:
    def test_equal_parameters(self):
        assert bernoulli_ci(0.3, 0.3) == 0.0

    def test_deterministic_opposites(self):
        assert math.isinf(bernoulli_ci(0.0, 1.0))

    def test_symmetric_gap_closed_form(self):
        assert bernoulli_ci(0.4, 0.6) == pytest.approx(-0.5 * math.log(0.96),
                                                       abs=1e-10)

    def test_range_validation(self):
        with pytest.raises(InvalidInputError):
            bernoulli_ci(-0.1, 0.5)
        with pytest.raises(InvalidInputError):
            bernoulli_ci(0.5, 1.5)

    def test_agrees_with_vector_form(self, rng):
        for _ in range(30):
            p, q = rng.random(2)
            direct = chernoff_info(np.array([1 - p, p]),
                                   np.array([1 - q, q])).value
            assert bernoulli_ci(p, q) == pytest.approx(direct, abs=1e-10)


class TestSymmetricCi:
    def test_zero_gap(self):
        assert symmetric_ci(0.0) == 0.0

    def test_full_gap_infinite(self):
        assert math.isinf(symmetric_ci(1.0))

    def test_value(self):
        assert symmetric_ci(0.16) == pytest.approx(
            -0.5 * math.log1p(-0.16 ** 2), abs=1e-15)

    def test_range_validation(self):
        with pytest.raises(InvalidInputError):
            symmetric_ci(-0.2)
        with pytest.raises(InvalidInputError):
            symmetric_ci(1.2)

    def test_matches_solver(self):
        for eps in (0.05, 0.3, 0.9):
            solver = bernoulli_ci((1 - eps) / 2, (1 + eps) / 2)
            assert symmetric_ci(eps) == pytest.approx(solver, abs=1e-10)


class TestTwoPointCi:
    def test_nothing_shared_is_the_symmetric_value(self):
        for x in (0.0, 1e-9, 0.16, -0.3, 0.999):
            assert two_point_ci(x) == -0.5 * math.log1p(-x * x)
        assert math.isinf(two_point_ci(1.0)) and math.isinf(two_point_ci(-2.0))

    @pytest.mark.parametrize("shared,n_rows", [(0, 1), (1, 2), (1, 3),
                                               (5, 13), (1, 10 ** 9)])
    def test_zero_gap_is_positive_zero(self, shared, n_rows):
        value = two_point_ci(0.0, shared, n_rows)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_gap_at_rest_leaves_the_shared_mass(self):
        # rest = 2/3 is rounded once from the integers, so the gap 2/3
        # reaches it exactly; 1 - 1/3 would sit an ulp above it
        assert two_point_ci(2 / 3, 1, 3) == -math.log(1 / 3)
        assert two_point_ci(-0.9, 1, 2) == math.log(2.0)

    def test_matches_solver(self):
        for x, shared, n_rows in [(0.1, 1, 4), (0.3, 2, 5), (0.05, 3, 7)]:
            rest = (n_rows - shared) / n_rows
            s = shared / n_rows
            p = [s, (rest - x) / 2, (rest + x) / 2]
            q = [s, (rest + x) / 2, (rest - x) / 2]
            assert two_point_ci(x, shared, n_rows) == pytest.approx(
                chernoff_info(p, q).value, abs=1e-12)


class TestTangentBound:
    @pytest.mark.parametrize("size", [2, 4, 16, 64])
    def test_bounds_the_solver(self, size):
        rng = np.random.default_rng(size)
        p1 = rng.dirichlet(np.ones(size), size=200)
        p2 = rng.dirichlet(np.ones(size), size=200)
        # zeros on either side, then identical rows, then disjoint supports
        p1[:60][rng.random((60, size)) < 0.3] = 0.0
        p2[30:90][rng.random((60, size)) < 0.3] = 0.0
        p2[90:120] = p1[90:120]
        side = rng.random((40, size)) < 0.5
        side[:, 0], side[:, -1] = True, False
        p1[120:160][~side] = 0.0
        p2[120:160][side] = 0.0
        p1[:, 0] += (p1.sum(axis=1) == 0.0)
        p2[:, -1] += (p2.sum(axis=1) == 0.0)
        p1 /= p1.sum(axis=1, keepdims=True)
        p2 /= p2.sum(axis=1, keepdims=True)
        values, _ = chernoff_info_batch(p1, p2)
        bound = tangent_bound(p1, p2)
        # where log f_lambda is linear (one common outcome) the tangent is
        # the function itself, and the two formulas agree to rounding only:
        # a few ulps, far below the oracle's PRUNE_MARGIN
        finite = np.isfinite(values)
        assert (bound[finite] >= values[finite]
                - 1e-14 * (1.0 + values[finite])).all()
        disjoint = (np.sqrt(p1) * np.sqrt(p2)).sum(axis=1) == 0.0
        assert disjoint[120:160].all()
        assert np.array_equal(np.isinf(bound), disjoint)
        assert np.array_equal(np.isinf(values), disjoint)
        assert (bound[90:120] <= 1e-15).all()  # BC = 1 up to rounding

    def test_tight_at_one_half(self):
        # a mirrored pair has lambda* = 1/2, where the tangent is flat
        p = np.array([[0.2, 0.3, 0.5]])
        bound = tangent_bound(p, p[:, ::-1])[0]
        assert bound == pytest.approx(chernoff_info(p[0], p[0, ::-1]).value,
                                      rel=1e-12)


class TestBernoulliFamilyMinimum:
    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5])
    def test_grid_minimum_at_symmetric_center(self, eps):
        grid = np.arange(int(round((1 - eps) * 1000)) + 1) / 1000
        values = bernoulli_cis(grid, grid + eps)
        best = min(range(len(grid)), key=values.__getitem__)
        assert abs(grid[best] - (1 - eps) / 2) <= 1e-3 + 1e-12
        assert min(values) == pytest.approx(symmetric_ci(eps), abs=1e-9)

    def test_random_pairs_never_beat_symmetric_value(self, rng):
        eps = 0.2
        floor = symmetric_ci(eps)
        p, q = np.empty(2000), np.empty(2000)
        for k in range(2000):
            p[k] = rng.uniform(1e-9, 1 - eps - 2e-9)
            q[k] = rng.uniform(p[k] + eps, 1 - 1e-9)
        assert (bernoulli_cis(p, q) >= floor - 1e-12).all()
