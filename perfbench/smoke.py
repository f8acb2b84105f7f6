"""Smoke check of the benchmark itself, at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/smoke.py

Every workload runs a short timed pass and a traced pass with all output
checks on; the script exits non-zero if any operation or check fails.
It is not a pytest module, so the test suite never collects it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("simulate-chain-csv", "simulate-tripartite-json", "localparts-lp-batch", "cli-cold")
SEED = 7


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    bad = 0
    for name in WORKLOADS:
        for mode in ("run", "trace"):
            workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
                     "--seed", str(SEED), "--workdir", workdir, "--mode", mode,
                     "--seconds", "0.5", "--scale", "tiny"],
                    env=env, cwd=ROOT, capture_output=True, text=True, timeout=170,
                )
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and len(lines) > 1 else None
            ok = result is not None and result["failed"] == 0 and not result["failures"]
            bad += not ok
            detail = proc.stderr[-500:] if result is None else "; ".join(result["failures"][:3])
            print(f"{'ok  ' if ok else 'FAIL'} {name} {mode}: "
                  f"{result['attempted'] if result else 0} operations checked {detail}")
    if not os.listdir(os.path.join(ROOT, ".perfbench_work")):
        os.rmdir(os.path.join(ROOT, ".perfbench_work"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
