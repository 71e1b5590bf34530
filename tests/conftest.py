"""Shared fixtures plus a per-criterion summary for the acceptance module."""

import numpy as np
import pytest

from bmmci import BinaryMatrix, FlipProfile, MatrixPair
from bmmci.chernoff import chernoff_info_batch

_acceptance_results = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        _acceptance_results.append((name, report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _acceptance_results:
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")


def random_distribution(rng: np.random.Generator, size: int) -> np.ndarray:
    """Strictly positive probability vector."""
    raw = rng.random(size) + 1e-3
    return raw / raw.sum()


def bernoulli_cis(p, q) -> np.ndarray:
    """``bernoulli_ci`` of each pair of parameters, in one solver call."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    return chernoff_info_batch(np.column_stack([1 - p, p]),
                               np.column_stack([1 - q, q]))[0]


def random_unequal_pair(rng: np.random.Generator, n_rows: int, n_cols: int,
                        flip: float) -> MatrixPair:
    while True:
        a = BinaryMatrix(tuple(int(w) for w in
                               rng.integers(0, 1 << n_cols, n_rows)), n_cols)
        b = BinaryMatrix(tuple(int(w) for w in
                               rng.integers(0, 1 << n_cols, n_rows)), n_cols)
        if a != b:
            return MatrixPair(a=a, b=b, profile=FlipProfile.constant(flip, n_cols))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
