"""One benchmark process: set up a workload, then time or trace it.

Run by ``run.py`` with the package's ``src`` directory on PYTHONPATH::

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR \
        --mode run|trace [--seconds S] [--part K --parts P] [--scale full|tiny]

The process prints ``READY`` once ``bellsim.cli`` is imported and the
inputs are generated, so the parent can time the set-up.  Mode ``run``
then times operations until ``--seconds`` have passed and this part's
share of the minimum sample count exists; mode ``trace`` runs a fixed
list of operations untraced and then traced.  Both print one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from time import perf_counter

import bellsim.cli  # noqa: F401  (set-up: the import every command pays)

#: Timed runs stop this long after ``--seconds`` even when short of samples.
HARD_EXTRA_S = 30.0

#: Seconds between two timings of the reference work.
REFERENCE_EVERY_S = 1.0

#: The cli-cold command whose imports the traced run breaks down.
IMPORTTIME_ARGV = ["timing", "--v", "100000c", "--L", "30000"]


def environment() -> dict:
    import numpy
    import scipy

    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_timed(work, seconds: float, part: int, parts: int, in_process: bool) -> dict:
    """Time this part's operations, every parts-th of the sequence from
    1 + part, until ``seconds`` pass and it has its share of the minimum
    sample count; the parts of a run together cover its first operations.

    About once a second, between operations, the fixed reference work is
    timed too, so that the run can be scaled to a reference speed.
    """
    from reference import reference_work  # after set-up, whose imports it must not pay

    work.op(0, in_process=in_process)  # warm-up, checked but not timed
    # The reference work's own memory must not count: in-process workloads
    # take their peak after the warm-up operation, before any reference
    # work; cli-cold takes the largest command process from its launcher.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies: list[float] = []
    reference_s: list[float] = []
    units = 0
    i = 1 + part
    min_ops = -(-work.min_ops // parts)
    last_reference = -REFERENCE_EVERY_S
    start = perf_counter()
    while True:
        if perf_counter() - last_reference >= REFERENCE_EVERY_S:
            last_reference = perf_counter()
            reference_work()
            reference_s.append(perf_counter() - last_reference)
        took, done = work.op(i, in_process=in_process)
        i += parts
        if took is not None:
            latencies.append(took)
            units += done
        elapsed = perf_counter() - start
        if elapsed >= seconds and len(latencies) >= min_ops or elapsed >= seconds + HARD_EXTRA_S:
            break
    if not in_process:
        peak_kib = work.close_launcher()
    if part == 0:  # the other parts' outputs must hash the same as this part's
        work.finish()
    return {"latencies": latencies, "units": units, "peak_rss_mb": peak_kib / 1024.0,
            "reference_s": reference_s}


def run_traced(work) -> dict:
    from tracer import Tracer, parse_importtime

    indices = range(1, 1 + work.trace_ops)
    work.op(0)  # warm-up
    untraced = [work.op(i)[0] for i in indices]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [work.op(i, tracer=tracer)[0] for i in indices]
    finally:
        tracer.uninstall()
    work.finish()
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "bellsim", *IMPORTTIME_ARGV],
        cwd=work.workdir, capture_output=True, text=True, timeout=120,
    )
    work.attempted += 1
    if proc.returncode != 0:
        work.fail(f"importtime command exited {proc.returncode}")
        work.failed += 1
    clean = all(t is not None for t in untraced + traced)
    return {
        "layers": {name: list(v) for name, v in tracer.self_times().items()},
        "counters": dict(tracer.counters),
        "imports": parse_importtime(proc.stderr),
        "untraced_s": sum(untraced) if clean else None,
        "traced_s": sum(traced) if clean else None,
        "traced_root_s": tracer.root_seconds(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--part", type=int, default=0, help="which part of a run this is")
    parser.add_argument("--parts", type=int, default=1, help="processes sharing the run")
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    work = WORKLOADS[args.workload](args.seed, args.workdir, args.scale)
    print("READY", flush=True)
    if args.mode == "run":
        result = run_timed(work, args.seconds, args.part, args.parts,
                           in_process=args.workload != "cli-cold")
    else:
        result = run_traced(work)
    result.update(
        attempted=work.attempted,
        failed=work.failed,
        failures=work.failures[:20],
        golden=work.golden,
        mix=getattr(work, "kinds", None),
        verdicts=getattr(work, "verdicts", None),
        instance_latencies=getattr(work, "instance_latencies", None),
        output_sha256=getattr(work, "reference", None),
        unit=work.unit,
        environment=environment(),
        bellsim=os.path.dirname(bellsim.__file__),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
