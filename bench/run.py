"""bmmci benchmark: run one workload, check every report, print its metrics.

Run from the repository root:

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs traced
and untraced passes alternately and reports the per-layer metrics and the
tracing overhead.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads, checks and metrics are described in
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

import harness

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Pin BLAS threads to the CPUs this process may use; returns that count.

    Must run before numpy is imported, in this process and in the set-up
    children, which inherit the environment.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def environment_line(nproc: int) -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"env: nproc={nproc} blas_threads={os.environ[BLAS_THREAD_VARS[0]]}"
            f" blas={blas.get('name')} {blas.get('version')}"
            f" numpy={np.__version__} python={platform.python_version()}")


def summary_lines(run, trace: bool) -> list[str]:
    lines = []
    for key in [c.key for c in run.passes[0].calls]:
        walls = [c.wall for p in run.passes for c in p.calls
                 if c.key == key and not p.traced]
        lines.append(f"call {key}: median {statistics.median(walls):.3f} s "
                     f"over {len(walls)} untraced passes")
    for p in run.passes:
        for c in p.calls:
            for problem in c.problems:
                lines.append(f"FAILED {c.key}: {problem}")
    shown = {**harness.end_to_end(run), **harness.throughput(run)}
    if trace:
        shown.update(harness.per_layer(run))
    units = harness.declared_units()
    for name, value in shown.items():
        lines.append(f"{name} = {value:.6g} {units[name]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (harness.SRC / "bmmci" / "cli.py").is_file():
        print(f"bmmci sources not found under {harness.SRC}", file=sys.stderr)
        return 2
    nproc = pin_blas_threads()
    sys.path.insert(0, str(harness.SRC))

    run = harness.measure(harness.WORKLOADS[args.workload],
                          harness.load_references(), args.seed, args.seconds,
                          bool(args.trace), harness.WORK)
    if args.trace:
        spans_path = (harness.WORK
                      / f"spans-{args.workload}-seed{args.seed}.json")
        spans_path.write_text(json.dumps(run.spans))
    print(environment_line(nproc))
    for line in summary_lines(run, bool(args.trace)):
        print(line)
    print(json.dumps(harness.result_line(run, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
