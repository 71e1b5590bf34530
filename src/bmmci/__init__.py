"""Chernoff information toolkit for noisy binary mixture sources."""

from .bounds import (
    BoundReport,
    Decomposition,
    ExtremalPair,
    build_even_n_pair,
    build_hamming_one_pair,
    build_parity_split_pair,
    decompose,
    phase_sweep,
    worst_case_ci_bounds,
    worst_case_ci_bounds_profile,
)
from .chernoff import (
    ChernoffResult,
    bernoulli_ci,
    chernoff_info,
    f_lambda,
    symmetric_ci,
)
from .exceptions import (
    ContractViolationError,
    EstimationError,
    InvalidInputError,
    ResourceLimitError,
    UnsupportedRegimeError,
)
from .mixtures import (
    BinaryMatrix,
    DeltaResult,
    FlipProfile,
    MixtureDistribution,
    canonicalize,
    delta_reduce,
    format_matrix_text,
    mixture_distribution,
    parse_matrix_text,
)
from .oracle import (
    ClosestPairResult,
    closest_pair,
    count_matrices,
    enumerate_matrices,
    exact_error_exponent,
    random_pair_stream,
)
from .reductions import (
    MatrixPair,
    QuadruplePartition,
    ReductionTrace,
    eliminate_column,
    full_reduction,
    g_map,
    is_critical_column,
    is_critical_pair,
    is_match_quadruple,
    matches_parity_split_form,
    merge_columns,
    merged_flip,
    pair_ci,
    pair_cis,
    quadruple_partition,
    reduction_lower_bound,
    regularity_degree,
)
from .simulate import (
    ExponentEstimate,
    SimConfig,
    estimate_exponent,
    fit_exponent,
    ml_decide,
    sample_observations,
    wilson_interval,
)

__version__ = "0.1.0"
