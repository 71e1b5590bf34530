"""Every public entry point refuses every bad precondition it can meet.

Each entry is called as ``call(n, l, flips, flip)``: a shape (N, L), a
profile tuple of length L and one scalar flip.  A case breaks one of them;
``kinds`` lists which of shape ("S"), profile length ("P") and flip value
("F") the entry point takes.
"""

import math

import numpy as np
import pytest

from bmmci import (
    BinaryMatrix,
    FlipProfile,
    InvalidInputError,
    MatrixPair,
    SimConfig,
    bernoulli_ci,
    build_even_n_pair,
    build_hamming_one_pair,
    build_parity_split_pair,
    closest_pair,
    estimate_exponent,
    exact_error_exponent,
    f_lambda,
    g_map,
    merged_flip,
    mixture_distribution,
    ml_decide,
    pair_ci,
    phase_sweep,
    random_pair_stream,
    sample_observations,
    symmetric_ci,
    worst_case_ci_bounds,
    worst_case_ci_bounds_profile,
)
from bmmci.oracle import family_table


def source(n, l, first=0):
    """``n`` rows of ``l`` columns, row i holding word (first + i) mod 2**l."""
    return BinaryMatrix(tuple((first + i) % (1 << l) for i in range(n)), l)


def sim_config(n, l, flips):
    return SimConfig(truth=source(n, l), profile=FlipProfile(flips),
                     m_values=(5, 15, 25), trials=500, seed=9)


ENTRIES = {
    "FlipProfile": ("F", lambda n, l, flips, flip: FlipProfile(flips)),
    "worst_case_ci_bounds": (
        "SF", lambda n, l, flips, flip: worst_case_ci_bounds(n, l, flip)),
    "worst_case_ci_bounds_profile": (
        "SPF", lambda n, l, flips, flip: worst_case_ci_bounds_profile(
            n, l, FlipProfile(flips))),
    "build_hamming_one_pair": (
        "SF", lambda n, l, flips, flip: build_hamming_one_pair(n, l, flip)),
    "build_even_n_pair": (
        "SF", lambda n, l, flips, flip: build_even_n_pair(2 * n, l, flip)),
    "build_parity_split_pair": (
        "SF", lambda n, l, flips, flip: build_parity_split_pair(n, l, flip)),
    "phase_sweep": ("SF", lambda n, l, flips, flip: phase_sweep(n, l, [flip])),
    "family_table": (
        "SPF", lambda n, l, flips, flip: family_table(
            n, l, FlipProfile(flips), 10 ** 6)),
    "closest_pair": (
        "SPF", lambda n, l, flips, flip: closest_pair(
            n, l, FlipProfile(flips))),
    "exact_error_exponent": (
        "SPF", lambda n, l, flips, flip: exact_error_exponent(
            source(n, l), FlipProfile(flips))),
    "random_pair_stream": (
        "SPF", lambda n, l, flips, flip: list(random_pair_stream(
            n, l, 1, 0, FlipProfile(flips)))),
    "mixture_distribution": (
        "SPF", lambda n, l, flips, flip: mixture_distribution(
            source(n, l), FlipProfile(flips))),
    "MatrixPair": (
        "PF", lambda n, l, flips, flip: MatrixPair(
            source(n, l), source(n, l, 1), FlipProfile(flips))),
    "pair_ci": (
        "SPF", lambda n, l, flips, flip: pair_ci(MatrixPair(
            source(n, l), source(n, l, 1), FlipProfile(flips)))),
    "SimConfig": ("PF", lambda n, l, flips, flip: sim_config(n, l, flips)),
    "estimate_exponent": (
        "SPF", lambda n, l, flips, flip: estimate_exponent(
            sim_config(n, l, flips))),
    "sample_observations": (
        "SPF", lambda n, l, flips, flip: sample_observations(
            source(n, l), FlipProfile(flips), 5, np.random.default_rng(0))),
    "ml_decide": (
        "SPF", lambda n, l, flips, flip: ml_decide(
            [0, 1], FlipProfile(flips), n, l, source(n, l))),
    "g_map": ("F", lambda n, l, flips, flip: g_map(flip)),
    "merged_flip(f, .)": ("F", lambda n, l, flips, flip: merged_flip(flip, 0.1)),
    "merged_flip(., f)": ("F", lambda n, l, flips, flip: merged_flip(0.1, flip)),
    "bernoulli_ci(p, .)": (
        "F", lambda n, l, flips, flip: bernoulli_ci(flip, 0.5)),
    "bernoulli_ci(., q)": (
        "F", lambda n, l, flips, flip: bernoulli_ci(0.5, flip)),
    "symmetric_ci": ("F", lambda n, l, flips, flip: symmetric_ci(flip)),
    "f_lambda": (
        "F", lambda n, l, flips, flip: f_lambda([0.5, 0.5], [0.2, 0.8], flip)),
}

# One column above 1/4, so the generalized bounds are defined too.
N, L, FLIPS, F = 3, 2, (0.3, 0.1), 0.1
CASES = {
    "N=0": ("S", 0, L, FLIPS, F),
    "L=0": ("S", N, 0, (), F),
    "short profile": ("P", N, L, FLIPS[:1], F),
    "long profile": ("P", N, L, FLIPS + (F,), F),
    "flip -0.1": ("F", N, L, (-0.1, 0.1), -0.1),
    "flip 1.5": ("F", N, L, (0.3, 1.5), 1.5),
    "flip nan": ("F", N, L, (math.nan, 0.1), math.nan),
}


@pytest.mark.parametrize("entry", ENTRIES)
def test_valid_call_passes(entry):
    _, call = ENTRIES[entry]
    call(N, L, FLIPS, F)


@pytest.mark.parametrize("entry,case", [
    (entry, case) for entry, (kinds, _) in ENTRIES.items()
    for case, (kind, *_) in CASES.items() if kind in kinds
])
def test_bad_precondition_is_refused(entry, case):
    _, call = ENTRIES[entry]
    _, n, l, flips, flip = CASES[case]
    with pytest.raises(InvalidInputError):
        call(n, l, flips, flip)
