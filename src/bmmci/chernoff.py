"""Chernoff information between discrete distributions, in nats.

The Chernoff information is ``-min over lambda in [0,1] of log f_lambda``
with ``f_lambda = sum_x p1(x)^lambda p2(x)^(1-lambda)``.  ``log f_lambda``
is convex in lambda (each term is log-linear), so a golden-section search
finds the minimizer reliably.  ``chernoff_info_batch`` is the one solver;
``chernoff_info`` runs it on a batch of one.  ``tangent_bound`` is no
solver: its closed-form upper bound only sets the oracle's pruning
threshold.

The solver takes probabilities, a zero logged as ``-inf``.  Only the common
support contributes to ``f_lambda``: inside (0, 1) a term with a zero on
either side vanishes.  At the endpoints ``f_lambda`` is the one-sided limit,
``f_0 = sum over {x : p1(x) > 0} of p2(x)`` and symmetrically for ``f_1``,
and a pair whose supports differ may attain its minimum there.  Pairs with
disjoint supports have infinite Chernoff information.

Every search takes a fixed ``STEPS = 60`` golden-section steps, which shrink
the lambda bracket from 1 to ``0.618**60``, about 2.9e-13, below
``LAMBDA_TOL``.  ``ChernoffResult.iterations`` is ``STEPS``, or 0 when the
value is settled without a search (identical distributions, disjoint
supports); ``converged`` says the final bracket is within ``LAMBDA_TOL``.

The search runs over chunks of about ``_CHUNK = 2**15`` table entries
(``2**15 // K`` rows).  Each chunk is copied outcome-major, (K, rows), so
a probe's products, row maxima and exponentials run along contiguous
arrays in five preallocated buffers of one chunk (1.3 MB); the
exponentials are copied back pair-major and summed there, so each row's
sum keeps numpy's order and every row gets the bits it gets alone.  A
call holds its two log tables and at most one masked copy with the masks,
about 3.4x the B x K x 8 bytes of one input, plus those buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .mixtures import MixtureDistribution, check_probs, check_unit

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = 1.0 - _INVPHI

LAMBDA_TOL = 1e-12
STEPS = 60
# Table entries per search chunk.  On a 2-core Xeon with 2 MB of L2 per
# core, solver calls took (2000, 64) 60/48/50/53 ms, (15360, 64)
# 458/405/410/467 ms and (4096, 256) 584/452/498/467 ms at 2**14, 2**15,
# 2**16 and 2**17 entries (medians of 4).
_CHUNK = 2 ** 15


@dataclass(frozen=True)
class ChernoffResult:
    """Minimized exponent with solver diagnostics.

    ``value`` is nonnegative and may be ``inf`` (disjoint supports).  When
    the distributions are identical the reported ``lambda_star`` is 0.5 by
    convention, since every lambda attains the minimum.
    """

    value: float
    lambda_star: float
    iterations: int
    converged: bool


def _as_probs(dist) -> np.ndarray:
    """``dist`` as an array; one that is not a ``MixtureDistribution``, and
    so unchecked, is refused as ``check_probs`` refuses it."""
    if isinstance(dist, MixtureDistribution):
        return dist.probs
    probs = np.asarray(dist, dtype=float)
    check_probs(probs)
    return probs


def _as_prob_pair(p1, p2) -> tuple[np.ndarray, np.ndarray]:
    """Both distributions as arrays, refused unless each is a probability
    vector and their shapes agree."""
    a1, a2 = _as_probs(p1), _as_probs(p2)
    if a1.shape != a2.shape:
        raise InvalidInputError(f"dimension mismatch: {a1.shape} vs {a2.shape}")
    return a1, a2


def _logsumexp(t: np.ndarray) -> np.ndarray:
    """Row-wise ``log sum exp`` of a 2-D array with a finite maximum per row."""
    tmax = t.max(axis=1, keepdims=True)
    return tmax[:, 0] + np.log(np.exp(t - tmax).sum(axis=1))


def _search(logp1: np.ndarray, logp2: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section search of each row's ``log f_lambda`` over (0, 1),
    one chunk of rows at a time (see the module docstring).

    Returns the final brackets' midpoints and ``log f`` there.  Every probe
    makes ``_logsumexp``'s operations on each row, in its order.
    """
    n, k = logp1.shape
    rows = max(1, _CHUNK // k)
    lam = np.empty(n)
    log_f_min = np.empty(n)
    flat = [np.empty(min(rows, n) * k) for _ in range(5)]
    # the new probe's offset into [a, b], indexed by "the bracket shrinks
    # from the right": the old c becomes d, or the old d becomes c
    coef = np.array([_INVPHI, _INVPHI2])
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        w = hi - lo
        l1, l2, t, u = (buf[:k * w].reshape(k, w) for buf in flat[:4])
        e = flat[4][:k * w].reshape(w, k)
        l1[...] = logp1[lo:hi].T
        l2[...] = logp2[lo:hi].T

        def log_f(x: np.ndarray) -> np.ndarray:
            np.multiply(l1, x, out=t)
            np.multiply(l2, 1.0 - x, out=u)
            np.add(t, u, out=t)
            top = np.maximum.reduce(t, axis=0)  # exact in any order
            np.subtract(t, top, out=t)
            np.exp(t, out=t)
            e[...] = t.T
            return top + np.log(e.sum(axis=1))

        a = np.zeros(w)
        b = np.ones(w)
        c = a + _INVPHI2 * (b - a)
        d = a + _INVPHI * (b - a)
        fc = log_f(c)
        fd = log_f(d)
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
        lam[lo:hi] = 0.5 * (a + b)
        log_f_min[lo:hi] = log_f(lam[lo:hi])
    return lam, log_f_min


def chernoff_info_batch(p1: np.ndarray, p2: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Chernoff information for many pairs of distributions at once.

    Inputs are probability arrays of shape (B, K).  Returns ``(values,
    lambda_stars)``; identical pairs and pairs with disjoint supports report
    lambda 0.5.  The rows left to the search are searched ``2**15 // K`` at
    a time in outcome-major copies (see the module docstring); the call
    holds at most about 3.4x B x K x 8 bytes, plus 1.3 MB of buffers.
    """
    with np.errstate(divide="ignore"):  # -inf stands for a zero
        logp1, logp2 = np.log(p1), np.log(p2)
    identical = np.all(logp1 == logp2, axis=1)
    values = np.where(identical, 0.0, math.inf)
    lams = np.full(identical.size, 0.5)
    zero1, zero2 = np.isneginf(logp1), np.isneginf(logp2)
    differ = np.any(zero1 != zero2, axis=1)
    # Identical rows are settled at zero and disjoint ones at inf; the rest
    # are searched, each row on its own, so leaving rows out moves no bits.
    live = ~identical
    if differ.any():
        # -inf in both rows wherever either is zero, so each interior probe
        # sums over the common support without a mask.
        either = zero1 | zero2
        live &= ~np.all(either, axis=1)
        logp1 = np.where(either, -np.inf, logp1)
        logp2 = np.where(either, -np.inf, logp2)
    if not live.any():
        return values, lams
    if not live.all():
        logp1, logp2, differ = logp1[live], logp2[live], differ[live]
    lam, log_f_min = _search(logp1, logp2)
    if differ.any():
        # Only where the supports differ can an endpoint limit lie below the
        # interior; ties go to the midpoint, then lambda 0, then lambda 1.
        rows = np.flatnonzero(differ)
        cand = np.stack([log_f_min[rows], _logsumexp(logp2[rows]),
                         _logsumexp(logp1[rows])])
        pick = cand.argmin(axis=0)
        log_f_min[rows] = cand[pick, np.arange(rows.size)]
        lam[rows] = np.choose(pick, (lam[rows], 0.0, 1.0))
    values[live] = np.maximum(0.0, -log_f_min) + 0.0  # +0.0 normalizes -0.0
    lams[live] = lam
    lams[values == 0.0] = 0.5
    return values, lams


def tangent_bound(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Upper bound on the Chernoff information of each pair of rows.

    Inputs are probability arrays of shape (B, K).  ``g = log f_lambda`` is
    convex on [0, 1], so it lies above its tangent at 1/2, and the
    information is at most ``-log BC + |g'(1/2)| / 2`` with ``BC = f_1/2``
    and ``g'(1/2) = sum sqrt(p1 p2) (log p1 - log p2) / BC``; a term with a
    zero on either side is 0.  Pairs with disjoint supports (BC = 0) are
    bounded by inf.  No search is run: this costs one pass over the rows.
    """
    root = np.sqrt(p1) * np.sqrt(p2)
    bc = root.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(root > 0.0, root * (np.log(p1) - np.log(p2)),
                         0.0).sum(axis=1) / bc
        bound = np.maximum(0.0, -np.log(bc) + 0.5 * np.abs(slope))
    return np.where(bc > 0.0, bound, math.inf)


def f_lambda(p1, p2, lam: float) -> float:
    """Evaluate ``sum_x p1(x)^lam p2(x)^(1-lam)`` with 0^lam * c = 0.

    Result lies in [0, 1]; it is 0 exactly when the supports are disjoint.
    """
    a1, a2 = _as_prob_pair(p1, p2)
    check_unit(lam, "lambda")
    common = (a1 > 0.0) & (a2 > 0.0)
    if not common.any():
        return 0.0
    t = lam * np.log(a1[common]) + (1.0 - lam) * np.log(a2[common])
    return min(1.0, math.exp(_logsumexp(t[None])[0]))


def chernoff_info(p1, p2) -> ChernoffResult:
    """Chernoff information between two distributions on the same outcome set."""
    a1, a2 = _as_prob_pair(p1, p2)
    values, lams = chernoff_info_batch(a1[None], a2[None])
    value = float(values[0])
    # Disjoint supports are the only infinite case.
    settled = math.isinf(value) or np.array_equal(a1, a2)
    return ChernoffResult(value=value, lambda_star=float(lams[0]),
                          iterations=0 if settled else STEPS,
                          converged=settled or _INVPHI ** STEPS <= LAMBDA_TOL)


def bernoulli_ci(p: float, q: float) -> float:
    """Chernoff information between Bernoulli(p) and Bernoulli(q)."""
    check_unit(p, "p")
    check_unit(q, "q")
    return chernoff_info([1.0 - p, p], [1.0 - q, q]).value


def two_point_ci(x: float, shared: int = 0, n_rows: int = 1) -> float:
    """``-log(shared/N + sqrt(rest^2 - x^2))`` with ``rest = (N - shared)/N``
    and N = ``n_rows``: the value, attained at lambda = 1/2, of a symmetric
    two-point pair of gap ``x`` whose mass ``shared/N`` lies on both sides.

    Takes any real gap; at ``|x| >= rest`` the value is ``-log(shared/N)``,
    infinite when nothing is shared.
    """
    if shared == 0:
        return math.inf if abs(x) >= 1.0 else -0.5 * math.log1p(-x * x)
    # rest is rounded once, and shared/N + rest = 1 is used exactly, so a
    # small gap costs no cancellation
    rest = (n_rows - shared) / n_rows
    if abs(x) >= rest:
        return -math.log(shared / n_rows)
    return -math.log1p(-x * x / (rest + math.sqrt((rest - x) * (rest + x))))


def symmetric_ci(epsilon: float) -> float:
    """Closed form for the pair Bernoulli((1-e)/2), Bernoulli((1+e)/2).

    Equals ``-log sqrt(1 - e^2)``; infinite at e = 1.
    """
    check_unit(epsilon, "epsilon")
    return two_point_ci(epsilon)
