"""Chernoff information between discrete distributions, in nats.

The Chernoff information is ``-min over lambda in [0,1] of log f_lambda``
with ``f_lambda = sum_x p1(x)^lambda p2(x)^(1-lambda)``.  ``log f_lambda``
is convex in lambda (each term is log-linear), so a golden-section search
finds the minimizer reliably.  ``chernoff_info_batch`` is the one solver;
``chernoff_info`` runs it on a batch of one.

Zero probabilities enter as ``-inf`` log-probabilities.  Only the common
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .mixtures import MixtureDistribution, check_unit

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = 1.0 - _INVPHI

LAMBDA_TOL = 1e-12
STEPS = 60


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
    if isinstance(dist, MixtureDistribution):
        return dist.probs
    return np.asarray(dist, dtype=float)


def _logsumexp(t: np.ndarray) -> np.ndarray:
    """Row-wise ``log sum exp`` of a 2-D array with a finite maximum per row."""
    tmax = t.max(axis=1, keepdims=True)
    return tmax[:, 0] + np.log(np.exp(t - tmax).sum(axis=1))


def chernoff_info_batch(logp1: np.ndarray, logp2: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Chernoff information for many pairs of distributions at once.

    Inputs are log-probability arrays of shape (B, K), ``-inf`` where a
    probability is zero.  Returns ``(values, lambda_stars)``; identical
    pairs and pairs with disjoint supports report lambda 0.5.
    """
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

    def log_f(lam: np.ndarray) -> np.ndarray:
        return _logsumexp(lam[:, None] * logp1 + (1.0 - lam[:, None]) * logp2)

    a = np.zeros(logp1.shape[0])
    b = np.ones(logp1.shape[0])
    c = a + _INVPHI2 * (b - a)
    d = a + _INVPHI * (b - a)
    fc = log_f(c)
    fd = log_f(d)
    # the new probe's offset into [a, b], indexed by "the bracket shrinks
    # from the right": the old c becomes d, or the old d becomes c
    coef = np.array([_INVPHI, _INVPHI2])
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
    log_f_min = log_f(lam)
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


def f_lambda(p1, p2, lam: float) -> float:
    """Evaluate ``sum_x p1(x)^lam p2(x)^(1-lam)`` with 0^lam * c = 0.

    Result lies in [0, 1]; it is 0 exactly when the supports are disjoint.
    """
    a1, a2 = _as_probs(p1), _as_probs(p2)
    if a1.shape != a2.shape:
        raise InvalidInputError(f"dimension mismatch: {a1.shape} vs {a2.shape}")
    check_unit(lam, "lambda")
    common = (a1 > 0.0) & (a2 > 0.0)
    if not common.any():
        return 0.0
    t = lam * np.log(a1[common]) + (1.0 - lam) * np.log(a2[common])
    return min(1.0, math.exp(_logsumexp(t[None])[0]))


def chernoff_info(p1, p2) -> ChernoffResult:
    """Chernoff information between two distributions on the same outcome set."""
    a1, a2 = _as_probs(p1), _as_probs(p2)
    if a1.shape != a2.shape:
        raise InvalidInputError(f"dimension mismatch: {a1.shape} vs {a2.shape}")
    with np.errstate(divide="ignore"):
        logs = np.log(np.stack([a1, a2]))
    values, lams = chernoff_info_batch(logs[:1], logs[1:])
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


def two_point_ci(x: float) -> float:
    """``-log sqrt(1 - x^2)``, the value ``symmetric_ci`` checks and returns.

    Takes any real gap; infinite at ``|x| >= 1``.
    """
    if abs(x) >= 1.0:
        return math.inf
    return -0.5 * math.log1p(-x * x)


def symmetric_ci(epsilon: float) -> float:
    """Closed form for the pair Bernoulli((1-e)/2), Bernoulli((1+e)/2).

    Equals ``-log sqrt(1 - e^2)``; infinite at e = 1.
    """
    check_unit(epsilon, "epsilon")
    return two_point_ci(epsilon)
