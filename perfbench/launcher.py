"""Runs and times cli-cold's commands on behalf of a worker.

A child's peak resident set counts the memory of the process that
started it, so commands started straight from a worker (which holds the
whole package and the reference work) would all report the worker's
size.  This small process starts them instead.  It reads one JSON argv
list per line on stdin and answers each with one JSON line holding the
command's wall time, exit code, stdout and stderr; at end of input it
prints the largest peak resident set of its commands, in KiB::

    python3 perfbench/launcher.py
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from time import perf_counter


def main() -> int:
    for line in sys.stdin:
        argv = json.loads(line)
        start = perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        seconds = perf_counter() - start
        reply = {"seconds": seconds, "code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        print(json.dumps(reply), flush=True)
    print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
