"""In-memory spans around the calls bmmci modules make to one another.

A traced pass installs wrappers on the public functions each module calls
across a module boundary, as the caller sees them (``bmmci.oracle.chernoff_info``
rather than ``bmmci.chernoff.chernoff_info``), records one span per call and
restores the originals afterwards.  The program itself is not modified.
Spans stay in memory until the benchmark writes them out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _closest_pair_counts(args, result):
    return {"pairs_total": result.candidates_examined}


def _estimate_counts(args, result):
    cfg = args[0]
    return {"trials_m": cfg.trials * len(cfg.m_values),
            "observations": cfg.trials * sum(cfg.m_values)}


def _table_counts(args, result):
    rows_table, kernel = args[0], args[1]
    return {"bytes": rows_table.shape[0] * rows_table.shape[1]
            * kernel.shape[0] * 8}


def _scalar_counts(args, result):
    return {"iterations": result.iterations,
            "nonconverged": int(not result.converged)}


def _batch_counts(args, result):
    return {"pairs": args[0].shape[0]}


# (module, attribute, span name, counts taken from the call and its result)
WRAPPED = (
    ("bmmci.cli", "closest_pair", "oracle.closest_pair", _closest_pair_counts),
    ("bmmci.cli", "exact_error_exponent", "oracle.exact_error_exponent", None),
    ("bmmci.cli", "estimate_exponent", "simulate.estimate_exponent",
     _estimate_counts),
    ("bmmci.bounds", "worst_case_ci_bounds", "bounds", None),
    ("bmmci.bounds", "worst_case_ci_bounds_profile", "bounds", None),
    ("bmmci.oracle", "enumerate_matrices", "oracle.enumerate", None),
    ("bmmci.simulate", "enumerate_matrices", "oracle.enumerate", None),
    ("bmmci.oracle", "mixture_probs_table", "mixtures.table", _table_counts),
    ("bmmci.simulate", "mixture_probs_table", "mixtures.table", _table_counts),
    ("bmmci.oracle", "chernoff_info", "chernoff.scalar", _scalar_counts),
    ("bmmci.oracle", "chernoff_info_batch", "chernoff.batch", _batch_counts),
)


class Tracer:
    """Collects spans; parents follow the calling thread's open spans.

    A span opened on a worker thread with nothing open on that thread
    takes the innermost span open on the thread that created the tracer,
    which is the call that handed the work to the pool.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            parent = stack[-1].id
        else:
            home = self._stacks.get(self._home)
            parent = home[-1].id if home else None
        record = Span(id=next(self._ids), parent=parent, name=name,
                      start=time.perf_counter())
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def _wrapper(self, name, func, counts):
        if name == "oracle.enumerate":
            # Consume the generator inside the span, so the span holds the
            # enumeration rather than only the generator's creation.
            @functools.wraps(func)
            def enumerate_wrapper(*args, **kwargs):
                with self.span(name) as record:
                    items = list(func(*args, **kwargs))
                    record.counts["matrices"] = len(items)
                return iter(items)
            return enumerate_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
                if counts is not None:
                    record.counts.update(counts(args, result))
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every function in ``WRAPPED``; ``restore`` undoes it."""
        for module_name, attr, name, counts in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original, counts))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that child spans cover."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, cursor)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced pass, keyed by metric name."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name):
        return [s for s in spans if s.name == name]

    def under(span, name):
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == name:
                return True
        return False

    def self_sum(name):
        return sum(self_time(s, children.get(s.id, [])) for s in named(name))

    def total(name, count=None):
        if count is None:
            return sum(s.duration for s in named(name))
        return sum(s.counts.get(count, 0) for s in named(name))

    scalar = named("chernoff.scalar")
    batch = named("chernoff.batch")
    pairs_total = total("oracle.closest_pair", "pairs_total")
    pairs_solved = (
        sum(1 for s in scalar if under(s, "oracle.closest_pair"))
        + sum(s.counts["pairs"] for s in batch
              if under(s, "oracle.closest_pair")))
    score_cells = 0
    for s in named("simulate.estimate_exponent"):
        n_matrices = sum(c.counts.get("matrices", 0)
                         for c in children.get(s.id, ())
                         if c.name == "oracle.enumerate")
        score_cells += s.counts["trials_m"] * (n_matrices - 1)

    return {
        "oracle.scan_self_s": self_sum("oracle.closest_pair"),
        "oracle.pairs_total": pairs_total,
        "oracle.pairs_solved": pairs_solved,
        "oracle.solve_ratio": (pairs_solved / pairs_total
                               if pairs_total else 0.0),
        "chernoff.scalar_s": total("chernoff.scalar"),
        "chernoff.scalar_calls": len(scalar),
        "chernoff.scalar_iterations": total("chernoff.scalar", "iterations"),
        "chernoff.nonconverged": total("chernoff.scalar", "nonconverged"),
        "chernoff.batch_s": total("chernoff.batch"),
        "chernoff.batch_pairs": total("chernoff.batch", "pairs"),
        "oracle.enumerate_s": total("oracle.enumerate"),
        "oracle.matrices": total("oracle.enumerate", "matrices"),
        "mixtures.table_s": total("mixtures.table"),
        "mixtures.table_calls": len(named("mixtures.table")),
        "mixtures.table_bytes": total("mixtures.table", "bytes"),
        "oracle.exponent_s": total("oracle.exact_error_exponent"),
        "simulate.self_s": self_sum("simulate.estimate_exponent"),
        "simulate.observations": total("simulate.estimate_exponent",
                                       "observations"),
        "simulate.score_cells": score_cells,
        "cli.self_s": self_sum("cli.main"),
        "bounds.s": total("bounds"),
    }
