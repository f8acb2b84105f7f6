"""bellsim benchmark: one workload, measured end to end or traced per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* ``simulate-chain-csv``: ``bellsim simulate`` of a 200k-trial bipartite
  mixture at the 4-chain optimum, ``--format csv --workers 2``.
* ``simulate-tripartite-json``: ``bellsim simulate`` of a 30k-trial GHZ
  scenario on the fig2b layout, ``--format json --workers 1``.
* ``localparts-lp-batch``: tripartite instances decided by
  ``signaling.infeasibility_slack`` and ``signaling.localparts_feasible``.
* ``cli-cold``: short commands, each a fresh ``python -m bellsim`` process.

The package is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.  Scratch files go to
``.perfbench_work/`` and are removed at the end.

With ``--trace 0`` the run is untraced.  Three fresh worker processes
run one after another; each is timed from its start until ``bellsim.cli``
is imported and the inputs exist (the set-up), then times operations for
a third of ``--seconds`` and until its share of the workload's minimum
sample count is reached.  Splitting the run keeps one process's speed
from deciding it.  About once a second, between operations, the worker
also times a fixed piece of reference work (reference.py); the machine's
slowness in the run is the median of those timings over ``REFERENCE_S``.
The metrics are every ``end_to_end`` metric of BENCHMARK.json:

* ``setup_s``: median set-up time of the three processes;
* ``op_p50_ms``: median latency of one operation (one ``simulate``
  command, one batch of ten LP instances decided, one fresh-process
  command);
* ``throughput_per_s``: trials, instances or commands per second of
  operation time;
* ``peak_rss_mb``: peak resident set of the process doing the work (the
  worker after its warm-up operation for in-process workloads, the
  largest command process for ``cli-cold``).

``op_p50_ms`` is divided by the slowness and ``throughput_per_s``
multiplied by it, so both read as on a machine that does the reference
work in ``REFERENCE_S``: on the machine the benchmark was built on, speed
swings of tens of percent over minutes otherwise decide the result.  The
values as measured are printed above the result line.

With ``--trace 1`` one process runs a fixed list of operations untraced,
then the same list with every public layer function wrapped (see
tracer.py), and reports every ``per_layer`` metric: self time and calls
per layer, LP sizes and iterations, bytes written, the import times of
one cold command, and the tracing overhead with its untraced base.  The
fixed list makes counts repeat exactly for a given seed.

Every operation's output is checked; the last stdout line is the result
``{"correct", "attempted", "failed", "metrics"}``, and the lines before it
describe the run (seed, environment, sample counts, baseline split).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR_ROOT = os.path.join(ROOT, ".perfbench_work")
#: Fresh worker processes per untimed run; each sets up, then times its
#: share of the operations, so no single process's speed decides a run.
PARTS = 3
#: Median time of reference.py's work on the machine the benchmark was
#: built on (2 vCPU x86_64, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
#: End-to-end times are scaled by it; it must never change.
REFERENCE_S = 0.1
#: The workload seed, and a held-out seed kept for confirming claims
#: (never used while a change is being written).
WORKLOAD_SEED = 1
HELDOUT_SEED = 2
#: Longest a run may take; a worker still running then is killed.
RUN_BUDGET_S = 170.0

#: The ROADMAP's baseline split per workload: (label, span names).
SPLITS = {
    "simulate-chain-csv": [
        ("sampler", ["hvmodels.sample_runs"]),
        ("correlators", ["hvmodels.empirical_correlator"]),
        ("writer", ["hvmodels.write_run_csv"]),
        ("records", ["hvmodels.run_records"]),
    ],
    "simulate-tripartite-json": [
        ("sampler", ["hvmodels.sample_runs"]),
        ("records", ["hvmodels.run_records"]),
        ("json_text", ["cli.json_text"]),
        ("effective_behavior", ["hvmodels.effective_behavior"]),
    ],
    "localparts-lp-batch": [
        ("LP build", ["signaling.build_feasibility_problem"]),
        ("born_behavior", ["quantum.born_behavior"]),
        ("linprog", ["signaling.linprog"]),
    ],
    "cli-cold": [
        ("cli.main", ["cli.main"]),
        ("linprog", ["signaling.linprog"]),
        ("LP build", ["signaling.build_feasibility_problem"]),
    ],
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def note(text: str) -> None:
    print(f"# {text}", flush=True)


def spawn_worker(args, mode: str, workdir: str, env: dict, part: int = 0) -> tuple[float, dict]:
    """Start a worker; returns (set-up seconds, its result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", workdir, "--mode", mode,
           "--seconds", str(args.seconds / PARTS), "--part", str(part), "--parts", str(PARTS)]
    os.makedirs(workdir, exist_ok=True)
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(max(1.0, args.deadline - perf_counter()), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        setup = perf_counter() - start
        rest = proc.stdout.read()
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{mode} worker failed with exit code {proc.returncode}")
    return setup, json.loads(rest.strip().splitlines()[-1])


def latency_summary(seconds: list[float]) -> str:
    """Median and the highest of p90/p95/p99 with at least ten samples beyond it."""
    text = f"p50 {statistics.median(seconds) * 1e3:.3f} ms"
    tail = None
    for q in (90, 95, 99):
        if len(seconds) * (100 - q) / 100 >= 10:
            tail = f"p{q} {statistics.quantiles(seconds, n=100)[q - 1] * 1e3:.3f} ms"
    return f"{text}, {tail or 'no tail percentile with ten samples beyond'}"


def end_to_end(args, bench: dict, env: dict) -> tuple[dict, dict]:
    setups, parts = [], []
    for k in range(PARTS):
        setup, part = spawn_worker(args, "run", os.path.join(args.workdir, f"part{k}"), env, k)
        setups.append(setup)
        parts.append(part)
    result = dict(parts[0])  # part 0 also ran the full output and golden checks
    result["latencies"] = lat = [t for part in parts for t in part["latencies"]]
    for key in ("units", "attempted", "failed", "failures"):
        result[key] = sum((part[key] for part in parts), [] if key == "failures" else 0)
    for key in ("mix", "verdicts"):
        if result[key] is not None:
            names = sorted({k for part in parts for k in part[key]})
            result[key] = {k: sum(part[key].get(k, 0) for part in parts) for k in names}
    if result["instance_latencies"] is not None:
        result["instance_latencies"] = [t for part in parts for t in part["instance_latencies"]]
    if len({str(part["output_sha256"]) for part in parts}) > 1:
        result["failures"].append("outputs of the same scenario differ between processes")
        result["failed"] += 1
    if not lat:
        raise BenchError("no operation succeeded")
    reference = [t for part in parts for t in part["reference_s"]]
    slowness = statistics.median(reference) / REFERENCE_S
    raw = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "throughput_per_s": result["units"] / sum(lat),
    }
    values = {
        "setup_s": raw["setup_s"],
        "op_p50_ms": raw["op_p50_ms"] / slowness,
        "throughput_per_s": raw["throughput_per_s"] * slowness,
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
    }
    note(f"reference work: median {statistics.median(reference):.4f} s over {len(reference)} timings, "
         f"{slowness:.4f} times the reference {REFERENCE_S} s; operation times below are as "
         "measured, the result line divides them by that factor")
    note(f"as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    note(f"set-up samples (s): {setups}")
    note(f"operations timed: {len(lat)}, {result['units']} {result['unit']} in {sum(lat):.3f} s; "
         + latency_summary(lat))
    if result["instance_latencies"]:
        note(f"LP instances timed: {len(result['instance_latencies'])}; "
             + latency_summary(result["instance_latencies"]))
    return values, result


def per_layer(args, bench: dict, env: dict) -> tuple[dict, dict]:
    _, result = spawn_worker(args, "trace", os.path.join(args.workdir, "trace"), env)
    layers, counters, imports = result["layers"], result["counters"], result["imports"]
    untraced, traced = result["untraced_s"] or 0.0, result["traced_s"] or 0.0
    extra = {
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_ratio": (traced - untraced) / untraced if untraced else 0.0,
        "hvmodels.run_records.count": layers.get("hvmodels.run_records", [0, 0.0])[0],
    }
    values = {}
    for metric in bench["per_layer"]:
        name = metric["name"]
        span, _, field = name.rpartition(".")
        if name in counters or name in imports or name in extra:
            values[name] = counters.get(name, imports.get(name, extra.get(name)))
        elif field in ("self_s", "calls"):
            values[name] = layers.get(span, [0, 0.0])[0 if field == "calls" else 1]
        else:
            values[name] = 0
    note(f"tracing overhead: {traced - untraced:+.4f} s on an untraced base of {untraced:.4f} s "
         f"(ratio {values['trace.overhead_ratio']:+.4f}) over the same fixed operations")
    total = result["traced_root_s"]
    parts = [(label, sum(layers.get(s, [0, 0.0])[1] for s in spans)) for label, spans in SPLITS[args.workload]]
    parts.append(("rest", total - sum(t for _, t in parts)))
    note("baseline split of traced time, self seconds (share of %.4f s): " % total
         + ", ".join(f"{label} {t:.4f} ({t / total:.1%})" for label, t in parts))
    top = sorted(layers.items(), key=lambda kv: -kv[1][1])[:10]
    note("top layers by self time: " + ", ".join(f"{k} {v[1]:.4f} s/{v[0]} calls" for k, v in top))
    return values, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bellsim benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = perf_counter() + RUN_BUDGET_S

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "bellsim", "cli.py")):
        print(f"error: the bellsim package is missing from {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)
    os.makedirs(WORKDIR_ROOT, exist_ok=True)
    args.workdir = tempfile.mkdtemp(dir=WORKDIR_ROOT)
    try:
        if args.trace:
            values, result = per_layer(args, bench, env)
            metrics = bench["per_layer"]
        else:
            values, result = end_to_end(args, bench, env)
            metrics = bench["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
        if not os.listdir(WORKDIR_ROOT):
            os.rmdir(WORKDIR_ROOT)

    seeds = {WORKLOAD_SEED: "the workload seed", HELDOUT_SEED: "the held-out seed"}.get(args.seed, "a fresh seed")
    note(f"workload {args.workload}, seed {args.seed} ({seeds}), trace {args.trace}, "
         f"golden outputs: {result['golden']}, package: {result['bellsim']}")
    note("environment: " + json.dumps(result["environment"], sort_keys=True))
    for key in ("mix", "verdicts"):
        if result.get(key):
            note(f"{key}: " + json.dumps(result[key], sort_keys=True))
    for failure in result["failures"]:
        note(f"FAILED: {failure}")
    out = {
        "correct": result["failed"] == 0 and not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
