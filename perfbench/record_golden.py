"""Record the golden outputs of the simulate workloads.

Run from the root of a checkout whose program is the reference::

    PYTHONPATH=src python3 perfbench/record_golden.py

For the workload seed and the held-out seed it runs the first operation
of each ``simulate-*`` workload, checks its output, and writes the
SHA-256 of the run file and every number of the summary to golden.json.
Later runs with those seeds must match the hash exactly and the numbers
within 1e-12.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from run import HELDOUT_SEED, WORKLOAD_SEED
from workloads import GOLDEN_PATH, WORKLOADS, _sha256, flatten_numbers


def main() -> int:
    golden: dict = {}
    for name in ("simulate-chain-csv", "simulate-tripartite-json"):
        for seed in (WORKLOAD_SEED, HELDOUT_SEED):
            with tempfile.TemporaryDirectory() as workdir:
                work = WORKLOADS[name](seed, workdir)
                work.op(0)
                out = os.path.join(workdir, "op0")
                runs_path = os.path.join(out, work.runs_name)
                with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
                    summary = json.load(fh)
                work.check(runs_path, summary)
                if work.failures:
                    print("\n".join(work.failures), file=sys.stderr)
                    return 1
                golden.setdefault(name, {})[str(seed)] = {
                    "runs_sha256": _sha256(runs_path),
                    "runs_bytes": os.path.getsize(runs_path),
                    "summary": flatten_numbers(summary),
                }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
