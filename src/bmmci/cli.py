"""Command-line front end: parse inputs, dispatch, emit JSON/CSV reports.

Handlers return their fields (``sweep --format csv`` its text); ``main``
adds ``schema_version`` and ``command``, serializes and writes the report.

Exit codes: 0 on success, 2 on usage or input errors (an output file that
cannot be written among them), 3 when an enumeration cap is exceeded, 1 on
estimation failures, 4 when ``verify`` finds the oracle minimum outside the
bounds (the report is still written).  Reports are deterministic byte for
byte given the same arguments and seed: floats are printed with 17
significant digits and infinities as the string "inf".
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .chernoff import chernoff_info
from .exceptions import (
    EstimationError,
    InvalidInputError,
    ResourceLimitError,
    UnsupportedRegimeError,
)
from .mixtures import (
    BinaryMatrix,
    FlipProfile,
    check_budget,
    format_matrix_text,
    mixture_distribution,
    parse_matrix_text,
)
from .oracle import (
    DEFAULT_MAX_MATRICES,
    closest_pair,
    exact_error_exponent,
    family_rows,
)
from .simulate import SimConfig, estimate_exponent

SCHEMA_VERSION = 1
_THREADS_HELP = "checked to be >= 1; results never depended on it"
# Bytes traced per unit of a size argument, rounded up, charged to the
# budget before the objects they count are built: a sweep step in each
# format (up to 400 and 761 traced), a column of a --flip profile (a tuple
# and its checked copy, 17.2) and of the bounds report (98), and a row of a
# constructed pair's text (59, plus 3 per column).
_STEP_BYTES = {"csv": 420, "json": 800}
_PROFILE_COLUMN_BYTES = 18
_REPORT_COLUMN_BYTES = 100
_TEXT_ROW_BYTES = 60

_CONSTRUCTION_BUILDERS = {
    "hamming-one": bounds_mod.build_hamming_one_pair,
    "even-almost": bounds_mod.build_even_n_pair,
    "near-optimal": bounds_mod.build_parity_split_pair,
}


class CliUsageError(Exception):
    pass


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps_report(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{key}": {dumps_report(value, indent + 1)}'
            for key, value in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ", ".join(dumps_report(v, indent) for v in obj)
        return "[" + inner + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliUsageError(f"cannot write {path!r}: {exc}") from exc


def _matrix_lines(m: BinaryMatrix) -> list[str]:
    return format_matrix_text(m).splitlines()


def _load_matrix(path: str) -> BinaryMatrix:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise CliUsageError(f"cannot read matrix file {path!r}: {exc}") from exc
    return parse_matrix_text(text)


def _parse_profile(args, n_cols: int) -> FlipProfile:
    if args.flips is not None:
        try:
            entries = tuple(float(tok) for tok in args.flips.split(","))
        except ValueError as exc:
            raise CliUsageError(f"--flips must be a comma list of reals: {exc}")
        if len(entries) != n_cols:
            raise CliUsageError(
                f"--flips lists {len(entries)} entries, need {n_cols}"
            )
        return FlipProfile(entries)
    if args.flip is None:
        raise CliUsageError("one of --flip or --flips is required")
    check_budget(n_cols * _PROFILE_COLUMN_BYTES,
                 f"a --flip profile of {n_cols} columns")
    return FlipProfile.constant(args.flip, n_cols)


def _check_threads(args) -> None:
    if args.threads is not None and args.threads < 1:
        raise CliUsageError(f"--threads must be >= 1, got {args.threads}")


def _cmd_ci(args) -> dict:
    a = _load_matrix(args.a)
    b = _load_matrix(args.b)
    if a.n_cols != b.n_cols or a.n_rows != b.n_rows:
        raise CliUsageError(
            f"matrix shapes differ: {a.n_rows}x{a.n_cols} vs {b.n_rows}x{b.n_cols}"
        )
    profile = _parse_profile(args, a.n_cols)
    result = chernoff_info(mixture_distribution(a, profile),
                           mixture_distribution(b, profile))
    return {
        "N": a.n_rows,
        "L": a.n_cols,
        "profile": profile.flips,
        "value_nats": result.value,
        "lambda_star": result.lambda_star,
        "iterations": result.iterations,
        "converged": result.converged,
    }


def _bounds(args, profile: FlipProfile) -> dict:
    """The bounds fields of the ``bounds`` and ``verify`` reports."""
    if args.flips is None:
        report = bounds_mod.worst_case_ci_bounds(args.n, args.l, args.flip)
    else:
        report = bounds_mod.worst_case_ci_bounds_profile(args.n, args.l, profile)
    deco = report.decomposition
    return {
        "lower_nats": report.lower,
        "upper_nats": report.upper,
        "regime": report.regime,
        "tight": report.tight,
        "decomposition": {
            "cal": deco.cal,
            "k": deco.k,
            "r": deco.r,
            "epsilon": deco.epsilon,
            "eta": deco.eta,
        },
        "f_folded": report.f_folded,
    }


def _cmd_bounds(args) -> dict:
    profile = _parse_profile(args, args.l)
    bounds = _bounds(args, profile)
    check_budget(args.l * _REPORT_COLUMN_BYTES,
                 f"a report of {args.l} profile columns")
    return {"N": args.n, "L": args.l, "profile": profile.flips, **bounds}


def _cmd_closest_pair(args) -> dict:
    profile = _parse_profile(args, args.l)
    _check_threads(args)
    result = closest_pair(args.n, args.l, profile,
                          max_matrices=args.max_matrices)
    return {
        "N": args.n,
        "L": args.l,
        "profile": profile.flips,
        "min_ci_nats": result.min_ci,
        "pair_a": _matrix_lines(result.pair.a),
        "pair_b": _matrix_lines(result.pair.b),
        "candidates": result.candidates_examined,
        "lambda_star": result.lambda_star,
        "zero_ci": result.zero_ci,
    }


def _cmd_construct(args) -> dict:
    builder = _CONSTRUCTION_BUILDERS[args.kind]
    extremal = builder(args.n, args.l, args.flip)
    check_budget(args.n * (_TEXT_ROW_BYTES + 3 * args.l),
                 f"the text of a pair of {args.n} rows")
    _write(args.out_a, format_matrix_text(extremal.pair.a))
    _write(args.out_b, format_matrix_text(extremal.pair.b))
    return {
        "kind": args.kind,
        "construction": extremal.construction,
        "N": args.n,
        "L": args.l,
        "flip": args.flip,
        "predicted_ci_nats": extremal.predicted_ci,
        "upper_bound_nats": extremal.upper_bound,
        "file_a": args.out_a,
        "file_b": args.out_b,
    }


def _cmd_sweep(args) -> dict | str:
    """The report fields, or for ``--format csv`` the finished text."""
    if args.steps < 1:
        raise CliUsageError(f"--steps must be >= 1, got {args.steps}")
    check_budget((args.steps + 1) * _STEP_BYTES[args.format],
                 f"a sweep of {args.steps} steps")
    span = args.f_max - args.f_min
    grid = [args.f_min + span * i / args.steps for i in range(args.steps + 1)]
    rows = bounds_mod.phase_sweep(args.n, args.l, grid)
    if args.format == "csv":
        lines = ["f,bound_low_noise_nats,bound_high_noise_nats"]
        for f, low, high in rows:
            lines.append(",".join(_fmt_float(v).strip('"')
                                  for v in (f, low, high)))
        return "\n".join(lines)
    return {
        "N": args.n,
        "L": args.l,
        "rows": [
            {"f": f, "bound_low_noise_nats": low, "bound_high_noise_nats": high}
            for f, low, high in rows
        ],
    }


def _cmd_simulate(args) -> dict:
    truth = _load_matrix(args.truth)
    profile = _parse_profile(args, truth.n_cols)
    try:
        m_values = tuple(int(tok) for tok in args.m_values.split(","))
    except ValueError as exc:
        raise CliUsageError(f"--m-values must be a comma list of ints: {exc}")
    cfg = SimConfig(truth=truth, profile=profile, m_values=m_values,
                    trials=args.trials, seed=args.seed)
    rows = family_rows(truth.n_rows, truth.n_cols, args.max_matrices)
    d_exact, nearest = exact_error_exponent(truth, profile, rows=rows)
    estimate = estimate_exponent(cfg, rows=rows)
    return {
        "truth": _matrix_lines(truth),
        "profile": profile.flips,
        "m_values": m_values,
        "trials": args.trials,
        "seed": args.seed,
        "per_m": [
            {
                "m": m,
                "error_rate": rate,
                "wilson_low": low,
                "wilson_high": high,
            }
            for m, rate, (low, high) in estimate.per_m
        ],
        "slope_nats_per_sample": estimate.slope,
        "slope_interval": estimate.slope_interval,
        "exact_exponent_nats": d_exact,
        "nearest_alternative": _matrix_lines(nearest),
        "slope_over_exact": (estimate.slope / d_exact
                             if d_exact > 0 else None),
    }


def _cmd_verify(args) -> dict:
    profile = _parse_profile(args, args.l)
    bounds = _bounds(args, profile)
    _check_threads(args)
    result = closest_pair(args.n, args.l, profile,
                          max_matrices=args.max_matrices)
    tol = 1e-9
    lower, upper = bounds["lower_nats"], bounds["upper_nats"]
    if bounds["tight"] and abs(result.min_ci - lower) <= tol:
        status = "tight-match"
    elif lower - tol <= result.min_ci <= upper + tol:
        status = "within-bounds"
    else:
        status = "bound-violation"
    return {
        "N": args.n,
        "L": args.l,
        "profile": profile.flips,
        "oracle_min_ci_nats": result.min_ci,
        "pair_a": _matrix_lines(result.pair.a),
        "pair_b": _matrix_lines(result.pair.b),
        "candidates": result.candidates_examined,
        "zero_ci": result.zero_ci,
        "status": status,
        **bounds,
    }


def _add_profile_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--flip", type=float,
                       help="constant flip probability for every column")
    group.add_argument("--flips",
                       help="comma-separated per-column flip probabilities")


def _add_common_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write the report here instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Parsing leaves it unchanged (its defaults are immutable and ``prog`` is
    fixed), so every ``main`` call can share it.
    """
    parser = argparse.ArgumentParser(
        prog="bmmci",
        description="Chernoff information tools for noisy binary sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ci", help="Chernoff information between two matrices")
    p.add_argument("--a", required=True, help="first matrix file")
    p.add_argument("--b", required=True, help="second matrix file")
    _add_profile_flags(p)
    _add_common_output(p)
    p.set_defaults(func=_cmd_ci)

    p = sub.add_parser("bounds", help="worst-case bound report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    _add_profile_flags(p)
    _add_common_output(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("closest-pair", help="exhaustive minimum search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    _add_profile_flags(p)
    p.add_argument("--max-matrices", type=int, default=DEFAULT_MAX_MATRICES)
    p.add_argument("--threads", type=int, help=_THREADS_HELP)
    _add_common_output(p)
    p.set_defaults(func=_cmd_closest_pair)

    p = sub.add_parser("construct", help="emit an extremal pair to files")
    p.add_argument("--kind", choices=sorted(_CONSTRUCTION_BUILDERS),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--flip", type=float, required=True)
    p.add_argument("--out-a", required=True)
    p.add_argument("--out-b", required=True)
    _add_common_output(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("sweep", help="phase-transition data across flip rates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--f-min", type=float, default=0.0)
    p.add_argument("--f-max", type=float, default=0.5)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common_output(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo error-exponent estimate")
    p.add_argument("--truth", required=True, help="truth matrix file")
    _add_profile_flags(p)
    p.add_argument("--m-values", required=True,
                   help="comma-separated sample counts")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-matrices", type=int, default=DEFAULT_MAX_MATRICES)
    _add_common_output(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="oracle minimum against the bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    _add_profile_flags(p)
    p.add_argument("--max-matrices", type=int, default=DEFAULT_MAX_MATRICES)
    p.add_argument("--threads", type=int, help=_THREADS_HELP)
    _add_common_output(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
        code = 0
        if isinstance(report, dict):
            if report.get("status") == "bound-violation":
                code = 4
            report = dumps_report({"schema_version": SCHEMA_VERSION,
                                   "command": args.command, **report})
        if args.out:
            _write(args.out, report + "\n")
        else:
            sys.stdout.write(report + "\n")
        return code
    except (CliUsageError, InvalidInputError, UnsupportedRegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except EstimationError as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
