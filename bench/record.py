"""Record the references the benchmark checks reports against.

Run from the repository root, at a commit whose outputs are trusted:

    python3 bench/record.py

Closest-pair and verify references are the reports' checked fields.
Simulate references add error rates measured at ten times the workload's
trials on a seed of their own.  The result goes to bench/references.json.
"""

from __future__ import annotations

import json
import sys

import harness
from run import pin_blas_threads


def main() -> int:
    pin_blas_threads()
    sys.path.insert(0, str(harness.SRC))
    harness.write_inputs(harness.WORK)
    refs = {call.key: harness.record_reference(call, harness.WORK)
            for workload in harness.WORKLOADS.values()
            for call in workload.calls}
    harness.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
