"""The four benchmark workloads: input generation, operations and output checks.

Every workload is built from a seed and a scratch directory.  Building
it is the set-up: it generates the inputs (scenario files, argv lists,
LP instances) from the seed alone.  ``op(i)`` runs operation ``i`` of
the workload's deterministic sequence and returns its wall time and the
work units it completed; everything around the timed call (preparing
the input, hashing and checking the output) stays outside the timing.
Each failed check appends a message to ``failures``.

The program is reached only through the public functions of
``bellsim.cli``, ``bellsim.quantum`` and ``bellsim.signaling`` and, for
``cli-cold``, through fresh ``python -m bellsim`` processes.  The checks
re-derive what they can from the generated inputs, independently of the
program: the schedule of every run row, correlator sums and standard
errors, analytic predictions, coordination maps from the timing rule,
witness marginals, certificate margins and timing predicates.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from time import perf_counter

import numpy as np

from bellsim import cli, quantum, signaling

SPEED_OF_LIGHT = 299_792_458.0
RECHECK_TOL = 1e-9
#: Slack above this counts as an infeasible verdict (the sweep's threshold).
SLACK_THRESHOLD = 1e-7
#: Exact-arithmetic comparisons (sums of +-1 products, golden numbers).
EXACT_TOL = 1e-12
#: Statistical checks allow this many standard errors.
SIGMAS = 6.0

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
#: Starts cli-cold's command processes, so they do not inherit a worker's size.
LAUNCHER = os.path.join(HERE, "launcher.py")

#: Sizes of the full benchmark and of the smoke check.
SCALES = {
    "full": {"chain_trials": 200_000, "tripartite_trials": 30_000},
    "tiny": {"chain_trials": 3_000, "tripartite_trials": 400, "min_ops": 2, "trace_ops": 2},
}

_WORKLOAD_IDS = {
    "simulate-chain-csv": 1,
    "simulate-tripartite-json": 2,
    "localparts-lp-batch": 3,
    "cli-cold": 4,
}


def _rng(name: str, seed: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_IDS[name], *more])


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def flatten_numbers(obj, prefix: str = "") -> dict[str, float]:
    """Every numeric leaf of a JSON document, keyed by its JSON pointer."""
    out: dict[str, float] = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(flatten_numbers(value, f"{prefix}/{key}"))
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            out.update(flatten_numbers(value, f"{prefix}/{k}"))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = float(obj)
    return out


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def chain_angles(n: int) -> tuple[list[float], list[float]]:
    """Singlet angles reaching the quantum optimum 2n cos(pi/2n) of the n-chain."""
    delta = math.pi - math.pi / (2 * n)
    return (
        [((2 * i + 1) * delta) % (2 * math.pi) for i in range(n)],
        [((2 * i + 2) * delta) % (2 * math.pi) for i in range(n)],
    )


#: The fig2b layout: spectator first, only the receiver pair (1, 2) cut at v = 100c.
FIG2B_EVENTS = [{"t": -2.0e-6, "x": 0.0}, {"t": 0.0, "x": 40000.0}, {"t": 5.0e-10, "x": 55000.0}]


class Workload:
    name = ""
    unit = ""
    #: Fewest timed operations per run.
    min_ops = 1
    #: Operations in the fixed list of a traced run.
    trace_ops = 1

    def __init__(self, seed: int, workdir: str, scale: str = "full") -> None:
        self.seed = seed
        self.workdir = workdir
        self.scale = scale
        self.sizes = SCALES[scale]
        self.min_ops = self.sizes.get("min_ops", self.min_ops)
        self.trace_ops = self.sizes.get("trace_ops", self.trace_ops)
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.golden = "none"

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def op(self, i: int, tracer=None, in_process: bool = True) -> tuple[float, int]:
        """Run operation i; returns (seconds, work units) or (None, 0) on failure."""
        self.attempted += 1
        before = len(self.failures)
        try:
            seconds, units = self._op(i, tracer, in_process)
        except Exception as exc:  # a crash of the program is a failed operation
            self.fail(f"op {i}: {type(exc).__name__}: {exc}")
            seconds, units = None, 0
        if len(self.failures) > before:
            self.failed += 1
            return None, 0
        return seconds, units

    def finish(self) -> None:
        """Checks that run once, after the timed part; a failure there fails
        the first operation, whose output they examine."""
        before = len(self.failures)
        try:
            self._finish()
        except Exception as exc:
            self.fail(f"final check: {type(exc).__name__}: {exc}")
        if len(self.failures) > before:
            self.failed += 1

    def _finish(self) -> None:
        pass

    @staticmethod
    def _timed(tracer, call):
        """(seconds, result) of call(), inside a benchmark span when tracing."""
        with tracer.span("perfbench.op") if tracer else contextlib.nullcontext():
            start = perf_counter()
            result = call()
            return perf_counter() - start, result


class _Simulate(Workload):
    """``bellsim simulate`` in process; every operation samples the same scenario."""

    fmt = ""
    workers = 1
    trace_ops = 3
    min_ops = 5

    def __init__(self, seed: int, workdir: str, scale: str = "full") -> None:
        super().__init__(seed, workdir, scale)
        self.doc = self.make_doc(_rng(self.name, seed))
        self.scenario_path = os.path.join(workdir, "scenario.json")
        with open(self.scenario_path, "w", encoding="utf-8") as fh:
            json.dump(self.doc, fh)
        self.runs_name = "runs.csv" if self.fmt == "csv" else "runs.json"
        self.reference: tuple[str, str] | None = None

    def make_doc(self, rng: np.random.Generator) -> dict:
        raise NotImplementedError

    def _op(self, i, tracer, in_process):
        out = os.path.join(self.workdir, "op0" if i == 0 else "op")
        argv = ["simulate", "--scenario", self.scenario_path, "--format", self.fmt,
                "--workers", str(self.workers), "--out", out]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            seconds, code = self._timed(tracer, lambda: cli.main(argv))
        if code != 0:
            self.fail(f"op {i}: simulate exited {code}")
            return seconds, 0
        runs_path = os.path.join(out, self.runs_name)
        if tracer is not None:
            tracer.counters["runs_file.bytes"] += os.path.getsize(runs_path)
        hashes = (_sha256(runs_path), _sha256(os.path.join(out, "summary.json")))
        if self.reference is None:
            self.reference = hashes
        elif hashes != self.reference:
            self.fail(f"op {i}: output differs from the first run of the same scenario")
        return seconds, self.doc["trials"]

    def _finish(self) -> None:
        out = os.path.join(self.workdir, "op0")
        runs_path = os.path.join(out, self.runs_name)
        if not os.path.exists(runs_path):
            self.fail("no output of the first operation to check")
            return
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        self.check(runs_path, summary)
        golden = load_golden().get(self.name, {}).get(str(self.seed))
        if golden is None or self.scale != "full":
            return
        self.golden = "matched"
        if _sha256(runs_path) != golden["runs_sha256"]:
            self.golden = "mismatch"
            self.fail("run file differs from the golden hash")
        numbers = flatten_numbers(summary)
        if set(numbers) != set(golden["summary"]):
            self.golden = "mismatch"
            self.fail("summary fields differ from the golden summary")
        for key, want in golden["summary"].items():
            if key in numbers and not _close(numbers[key], want, EXACT_TOL):
                self.golden = "mismatch"
                self.fail(f"summary {key} = {numbers[key]!r}, golden {want!r}")

    def check(self, runs_path: str, summary: dict) -> None:
        raise NotImplementedError

    def _check_correlators(self, summary, stats, predicted) -> None:
        """Summary correlators against sums recomputed from the run file.

        stats maps a setting tuple to (count, sum of outcome products);
        predicted maps it to an independent prediction or None."""
        seen = set()
        for entry in summary["correlators"]:
            combo = tuple(entry["settings"])
            seen.add(combo)
            count, total = stats.get(combo, (0, 0))
            if entry["count"] != count:
                self.fail(f"correlator {combo}: count {entry['count']} != {count} rows")
                continue
            mean = total / count
            se = math.sqrt(max(0.0, (count - total * total / count) / (count - 1)) / count)
            if not _close(entry["mean"], mean, EXACT_TOL):
                self.fail(f"correlator {combo}: mean {entry['mean']!r} != {mean!r} from rows")
            if entry["se"] is None or not _close(entry["se"], se, 1e-9):
                self.fail(f"correlator {combo}: se {entry['se']!r} != {se!r} from rows")
            want = predicted(combo)
            if want is not None and not _close(entry["predicted"], want, EXACT_TOL):
                self.fail(f"correlator {combo}: predicted {entry['predicted']!r} != {want!r}")
            if abs(mean - entry["predicted"]) > SIGMAS * se + EXACT_TOL:
                self.fail(f"correlator {combo}: mean {mean} is {SIGMAS} se from prediction")
        if seen != set(stats):
            self.fail("summary correlators do not cover the sampled settings")


class SimulateChainCsv(_Simulate):
    """Bipartite singlet mixture (p = 0.25, coin schedule) at the 4-chain optimum, CSV, 2 workers."""

    name = "simulate-chain-csv"
    unit = "trials"
    fmt = "csv"
    workers = 2
    n = 4
    p = 0.25

    def make_doc(self, rng):
        angles_a, angles_b = chain_angles(self.n)
        return {
            "schema": "bellsim-scenario-1",
            "name": f"bench-chain-{self.seed}",
            "geometry": {
                "events": [{"t": 0.0, "x": 0.0}, {"t": 0.0, "x": 10.0}],
                "boosts": [{"beta": 0.0}, {"beta": 0.0}],
            },
            "model": {"kind": "mixture", "p": self.p, "schedule": "coin"},
            "state": {"kind": "singlet"},
            "settings": [angles_a, angles_b],
            "trials": self.sizes["chain_trials"],
            "seed": int(rng.integers(2**32)),
        }

    def check(self, runs_path, summary):
        angles_a, angles_b = self.doc["settings"]
        schedule = list(itertools.product(range(self.n), range(self.n)))
        rows = [f"{x},{y}," for x, y in schedule]
        stats = {combo: [0, 0] for combo in schedule}
        local = 0
        trials = self.doc["trials"]
        with open(runs_path, encoding="utf-8") as fh:
            if fh.readline() != "trial,x,y,z,a,b,c,coord_ab,coord_ac,coord_bc\n":
                self.fail("run CSV header differs")
            t = -1
            for t, line in enumerate(fh):
                k = t % len(schedule)
                head = f"{t},{rows[k]}"
                rest = line[len(head):].rstrip("\n").split(",")
                if not line.startswith(head) or len(rest) != 7 or rest[0] != "" \
                        or rest[3] != "" or rest[5:] != ["", ""] \
                        or rest[1] not in ("1", "-1") or rest[2] not in ("1", "-1") \
                        or rest[4] not in ("ON", "OFF"):
                    self.fail(f"run CSV row {t} is malformed: {line.strip()!r}")
                    return
                entry = stats[schedule[k]]
                entry[0] += 1
                entry[1] += int(rest[1]) * int(rest[2])
                local += rest[4] == "OFF"
        if t + 1 != trials:
            self.fail(f"run CSV has {t + 1} rows for {trials} trials")
            return
        p = self.p
        if abs(local / trials - p) > SIGMAS * math.sqrt(p * (1 - p) / trials):
            self.fail(f"local-branch share {local / trials} is far from p = {p}")

        def predicted(combo):
            return -(1 - p) * math.cos(angles_a[combo[0]] - angles_b[combo[1]])

        self._check_correlators(summary, {k: tuple(v) for k, v in stats.items()}, predicted)
        if summary["coordination"] != {"nonlocal": {"0-1": "ON"}, "local": {"0-1": "OFF"}}:
            self.fail(f"coordination {summary['coordination']!r} is not the mixture's")
        chain = summary["derived"]["chain"]
        optimum = 2 * self.n * math.cos(math.pi / (2 * self.n))
        # The chain's 2n terms are the settings whose angle gap gives |cos| = cos(pi/2n).
        terms = [c for c in schedule if abs(predicted(c)) > (1 - p) * 0.9]
        value = sum(math.copysign(1.0, predicted(c)) * stats[c][1] / stats[c][0] for c in terms)
        if len(terms) != 2 * self.n or not _close(chain["empirical_value"], value, EXACT_TOL):
            self.fail(f"chain value {chain['empirical_value']!r} != {value!r} from rows")
        if not _close(chain["predicted_value"], (1 - p) * optimum, 1e-9):
            self.fail(f"chain prediction {chain['predicted_value']!r} is not (1-p) {optimum}")
        if chain["local_bound"] != 2 * self.n - 2 or not _close(chain["quantum_optimum"], optimum, 1e-9):
            self.fail("chain bounds differ from 2n-2 and 2n cos(pi/2n)")


class SimulateTripartiteJson(_Simulate):
    """3-party GHZ on the fig2b layout (receiver pair cut), JSON records, 1 worker."""

    name = "simulate-tripartite-json"
    unit = "trials"
    fmt = "json"
    workers = 1
    v_multiple = 100.0

    def make_doc(self, rng):
        return {
            "schema": "bellsim-scenario-1",
            "name": f"bench-tripartite-{self.seed}",
            "geometry": {
                "events": FIG2B_EVENTS,
                "boosts": [{"beta": 0.0}] * 3,
                "critical_distance": 100.0,
            },
            "model": {"kind": "finite_speed", "v": f"{self.v_multiple:g}c"},
            "state": {"kind": "ghz3"},
            "settings": [sorted(rng.uniform(0.0, 2 * math.pi, 2).tolist()) for _ in range(3)],
            "trials": self.sizes["tripartite_trials"],
            "seed": int(rng.integers(2**32)),
        }

    def expected_map(self) -> dict[str, str]:
        """The finite-speed rule: a pair is cut iff L > v |dt|."""
        events = self.doc["geometry"]["events"]
        v = self.v_multiple * SPEED_OF_LIGHT
        out = {}
        for i, j in itertools.combinations(range(3), 2):
            dist = abs(events[j]["x"] - events[i]["x"])
            dt = abs(events[j]["t"] - events[i]["t"])
            out[f"{i}-{j}"] = "OFF" if dist > v * dt else "ON"
        return out

    def check(self, runs_path, summary):
        with open(runs_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        angles = self.doc["settings"]
        schedule = list(itertools.product(range(2), repeat=3))
        cmap = self.expected_map()
        records = doc.get("records", [])
        if doc.get("schema") != "bellsim-runs-1" or len(records) != self.doc["trials"]:
            self.fail("run JSON has the wrong schema or record count")
            return
        stats = {combo: [0, 0, 0, 0] for combo in schedule}  # count, abc, ab, ac
        for t, rec in enumerate(records):
            combo = schedule[t % len(schedule)]
            out = rec.get("outcomes")
            if rec.get("trial") != t or tuple(rec.get("settings", ())) != combo \
                    or rec.get("coordination") != cmap or len(out) != 3 \
                    or any(o not in (1, -1) for o in out):
                self.fail(f"run record {t} is malformed: {rec!r}")
                return
            entry = stats[combo]
            entry[0] += 1
            entry[1] += out[0] * out[1] * out[2]
            entry[2] += out[0] * out[1]
            entry[3] += out[0] * out[2]
        self._check_correlators(
            summary, {k: (v[0], v[1]) for k, v in stats.items()}, lambda combo: None
        )
        # Both pairs with the spectator stay coordinated, so their GHZ
        # correlators keep the quantum value cos(theta_0) cos(theta_k).
        for combo, (count, _, ab, ac) in stats.items():
            for k, total in ((1, ab), (2, ac)):
                want = math.cos(angles[0][combo[0]]) * math.cos(angles[k][combo[k]])
                if abs(total / count - want) > SIGMAS / math.sqrt(count):
                    self.fail(f"pair (0,{k}) correlator at {combo} is far from {want}")
        if summary["coordination"] != cmap:
            self.fail(f"coordination {summary['coordination']!r} != {cmap!r}")
        for key, entry in summary.get("timing", {}).items():
            if entry.get("finite_speed_cut") != (cmap[key] == "OFF"):
                self.fail(f"timing block of pair {key} disagrees with the finite-speed rule")


class LocalPartsBatch(Workload):
    """Batches of tripartite instances decided by the local-parts LP, pair (1, 2) cut.

    Every batch holds four random complex states at (2,2,2) settings,
    three at (3,3,3) and three double-PR targets with white noise of
    weight in [0, 0.4], in a seeded order.  An operation is one batch, so
    every operation does the same mix of work; the time of each instance
    is kept as well, for per-instance percentiles.
    """

    name = "localparts-lp-batch"
    unit = "instances"
    #: 200 instances, so that the per-instance p95 has ten samples beyond it.
    min_ops = 20
    trace_ops = 5
    KINDS = ("s2",) * 4 + ("s3",) * 3 + ("dpr",) * 3
    OFF = (1, 2)

    def __init__(self, seed, workdir, scale="full"):
        super().__init__(seed, workdir, scale)
        self._dpr = signaling.double_pr_target().table
        self.instance_latencies: list[float] = []
        self.verdicts = {"feasible": 0, "infeasible": 0}

    def batch(self, i: int) -> list[tuple[str, object]]:
        """(kind, (state, angles)) or (kind, noisy target) for each instance of batch i."""
        rng = _rng(self.name, self.seed, i)
        made = []
        for kind in rng.permutation(self.KINDS):
            if kind == "dpr":
                lam = float(rng.uniform(0.0, 0.4))
                table = (1 - lam) * self._dpr + lam / 8.0
                made.append((kind, quantum.Behavior(3, (2, 2, 2), table)))
            else:
                m = 2 if kind == "s2" else 3
                amps = rng.normal(size=8) + 1j * rng.normal(size=8)
                state = quantum.state_from_amplitudes(amps / np.linalg.norm(amps))
                made.append((kind, (state, rng.uniform(0, 2 * math.pi, (3, m)).tolist())))
        return made

    def _op(self, i, tracer, in_process):
        total = 0.0
        for pos, (kind, data) in enumerate(self.batch(i)):

            def decide():
                target = data if kind == "dpr" else quantum.born_behavior(*data)
                slack = signaling.infeasibility_slack(target, self.OFF)
                return target, slack, signaling.localparts_feasible(target, self.OFF)

            seconds, (target, slack, result) = self._timed(tracer, decide)
            total += seconds
            if i > 0:  # batch 0 is the warm-up
                self.instance_latencies.append(seconds)
            self.verdicts["feasible" if result.feasible else "infeasible"] += 1
            self.check(f"instance {pos} of batch {i} ({kind})", kind, target, slack, result)
        return total, len(self.KINDS)

    def check(self, where, kind, target, slack, result) -> None:
        if result.feasible != (slack <= SLACK_THRESHOLD):
            self.fail(f"{where}: verdict feasible={result.feasible} but slack {slack!r}")
        if kind == "dpr" and result.feasible:
            self.fail(f"{where}: a noisy double-PR target came out feasible")
        problem = result.problem
        if result.feasible:
            if not result.max_residual <= RECHECK_TOL:
                self.fail(f"{where}: witness residual {result.max_residual!r}")
            self._check_witness(where, target.table, result)
        else:
            y = result.certificate.y
            margin = float(y @ problem.b_eq - np.clip(problem.a_eq.T @ y, 0.0, None).sum())
            if not margin > RECHECK_TOL or not _close(result.certificate.margin, margin, 1e-9):
                self.fail(f"{where}: certificate margin {result.certificate.margin!r}, rechecked {margin!r}")

    def _check_witness(self, where, target, result) -> None:
        """The witness matches both spectator marginals, and its receiver-pair
        marginal is the spectator-independent mixture the weights describe."""
        q = result.witness.table  # (x, y, z, a, b, c)
        tol = 1e-8
        if q.min() < -tol:
            self.fail(f"{where}: witness has a negative entry")
        for axis, name in ((5, "spectator-first"), (4, "spectator-second")):
            if np.max(np.abs(q.sum(axis=axis) - target.sum(axis=axis))) > tol:
                self.fail(f"{where}: witness misses the {name} marginal")
        pair = q.sum(axis=3)  # (x, y, z, b, c)
        mb, mc = q.shape[1], q.shape[2]
        local = np.zeros((mb, mc, 2, 2))
        for w, (bits_b, bits_c) in zip(result.witness_weights, result.problem.strategies):
            for y, z in itertools.product(range(mb), range(mc)):
                local[y, z, bits_b[y], bits_c[z]] += w
        if np.max(np.abs(pair - local[None])) > tol:
            self.fail(f"{where}: receiver-pair marginal is not the weights' local mixture")


class CliCold(Workload):
    """Short commands, each a fresh ``python -m bellsim`` process, one client in a closed loop.

    The commands are started and timed by launcher.py, one at a time.
    """

    name = "cli-cold"
    unit = "commands"
    min_ops = 21
    trace_ops = 30
    KINDS = ("timing", "validate-ok", "validate-bad", "chain", "chsh", "point-d",
             "signal-fig2a", "signal-fig2b", "signal-fig1-detection", "preset-list")
    SIGNAL_CUT = {"fig2a": False, "fig2b": True, "fig1-detection": True}
    PRESETS = {"fig1-detection", "fig2a", "fig2b", "before-before",
               "finite-speed-1e5c", "mixture-chain"}

    def __init__(self, seed, workdir, scale="full"):
        super().__init__(seed, workdir, scale)
        self._cached_block = (-1, [])
        self._launcher: subprocess.Popen | None = None
        self.kinds: dict[str, int] = {}

    def close_launcher(self) -> int:
        """Stop the launcher; the largest peak resident set of its commands, in KiB."""
        self._launcher.stdin.close()
        peak_kib = int(self._launcher.stdout.readline())
        self._launcher.wait()
        self._launcher = None
        return peak_kib

    def command(self, i: int) -> tuple[str, list[str], dict]:
        """(kind, argv, facts for the check) of command i."""
        block_index, pos = divmod(i, len(self.KINDS))
        if self._cached_block[0] != block_index:
            rng = _rng(self.name, self.seed, block_index)
            self._cached_block = (block_index, [
                self._make(str(kind), rng, block_index) for kind in rng.permutation(self.KINDS)
            ])
        return self._cached_block[1][pos]

    def _make(self, kind, rng, block_index):
        if kind == "timing":
            multiple = float(10 ** rng.uniform(1.0, 6.0))
            length = float(rng.uniform(10.0, 1e5))
            dt = float(rng.uniform(0.0, 1e-5))
            argv = ["timing", "--v", f"{multiple!r}c", "--L", repr(length), "--dt", repr(dt)]
            return kind, argv, {"v": multiple * SPEED_OF_LIGHT, "L": length, "dt": dt}
        if kind.startswith("validate"):
            angles_a, angles_b = chain_angles(2)
            doc = {
                "schema": "bellsim-scenario-1",
                "name": f"validate-{block_index}",
                "geometry": {
                    "events": [{"t": 0.0, "x": float(rng.uniform(-1e4, 0.0))},
                               {"t": float(rng.uniform(0.0, 1e-6)), "x": float(rng.uniform(1.0, 1e4))}],
                    "boosts": [{"beta": float(rng.uniform(-0.5, 0.5))} for _ in range(2)],
                },
                "model": {"kind": "finite_speed", "v": f"{float(10 ** rng.uniform(1, 6))!r}c"},
                "state": {"kind": "singlet"},
                "settings": [angles_a, angles_b],
                "trials": int(rng.integers(1, 10**6)),
                "seed": int(rng.integers(2**32)),
            }
            if kind == "validate-bad":
                doc["geometry"]["boosts"][1]["beta"] = 1.0 + float(rng.uniform(0.0, 1.0))
            path = os.path.join(self.workdir, f"{kind}-{block_index}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            return kind, ["validate", path], {}
        if kind == "point-d":
            events = [(float(rng.uniform(-5, 5)), *rng.uniform(-10, 10, 2).tolist()) for _ in range(3)]
            argv = ["point-d", "--c-units"]
            for flag, ev in zip(("--a", "--b", "--c"), events):
                argv.append(f"{flag}={','.join(repr(v) for v in ev)}")
            return kind, argv, {"events": events}
        if kind.startswith("signal-"):
            return kind, ["signal", "--preset", kind[len("signal-"):]], {}
        return kind, {"chain": ["chain", "--n", "4"], "chsh": ["chsh"],
                      "preset-list": ["preset", "list"]}[kind], {}

    def _op(self, i, tracer, in_process):
        kind, argv, facts = self.command(i)
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                seconds, code = self._timed(tracer, lambda: cli.main(list(argv)))
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            if self._launcher is None:
                self._launcher = subprocess.Popen(
                    [sys.executable, LAUNCHER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    text=True, cwd=self.workdir,
                )
            self._launcher.stdin.write(json.dumps([sys.executable, "-m", "bellsim", *argv]) + "\n")
            self._launcher.stdin.flush()
            reply = json.loads(self._launcher.stdout.readline())
            seconds, code, stdout, stderr = (reply[k] for k in ("seconds", "code", "stdout", "stderr"))
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        self.check(f"command {i} ({' '.join(argv)})", kind, facts, code, stdout, stderr)
        return seconds, 1

    def check(self, where, kind, facts, code, stdout, stderr) -> None:
        want_code = 2 if kind == "validate-bad" else 0
        if code != want_code:
            self.fail(f"{where}: exit code {code}, want {want_code}: {stderr[-300:]}")
            return
        try:
            doc = json.loads(stderr if kind == "validate-bad" else stdout)
        except json.JSONDecodeError:
            self.fail(f"{where}: output is not one JSON document")
            return
        checker = {
            "timing": self._check_timing, "validate": self._check_validate,
            "chain": self._check_chain, "chsh": self._check_chsh,
            "point": self._check_point_d, "signal": self._check_signal,
            "preset": self._check_preset_list,
        }[kind.split("-")[0]]
        problem = checker(kind, facts, doc)
        if problem:
            self.fail(f"{where}: {problem}")

    def _check_timing(self, kind, facts, doc):
        c, v, length, dt = SPEED_OF_LIGHT, facts["v"], facts["L"], facts["dt"]
        cut = length > v * dt
        if not _close(doc["v_bb_equivalent"], c * c / v, 1e-12):
            return f"v_bb_equivalent {doc['v_bb_equivalent']!r} != c^2/v"
        if doc["finite_speed_cut"] != cut or doc["before_before"] != cut or not doc["criteria_agree"]:
            return "timing criteria disagree with L > v dt at v_bb = c^2/v"
        return None

    def _check_validate(self, kind, facts, doc):
        if kind == "validate-ok":
            return None if doc == {"ok": True} else f"valid file reported {doc!r}"
        paths = [e.get("path") for e in doc.get("errors", [])]
        if doc.get("ok") is not False or "/geometry/boosts/1/beta" not in paths:
            return f"invalid file reported {doc!r}"
        return None

    def _check_chain(self, kind, facts, doc):
        optimum = 8 * math.cos(math.pi / 8)
        if doc["local_bound"] != 6 or not _close(doc["quantum_optimum"], optimum, 1e-9):
            return "4-chain bounds differ from 6 and 8 cos(pi/8)"
        return None

    def _check_chsh(self, kind, facts, doc):
        if doc["local_bound"] != 2 or not _close(doc["quantum_optimum"], 2 * math.sqrt(2), 1e-9):
            return "CHSH bounds differ from 2 and 2 sqrt(2)"
        return None

    def _check_point_d(self, kind, facts, doc):
        if not doc["found"]:
            return None
        (ta, xa, ya), (tb, xb, yb), (tc, xc, yc) = facts["events"]
        d = doc["point"]
        reach = {k: math.hypot(d["x"] - x, d["y"] - y) for k, x, y in
                 (("a", xa, ya), ("b", xb, yb), ("c", xc, yc))}
        tol = 1e-9 * max(1.0, abs(d["t"]))
        if d["t"] - tb < reach["b"] - tol or d["t"] - tc < reach["c"] - tol:
            return "point D is outside a receiver's future cone"
        advantage = ta + reach["a"] - d["t"]
        if not advantage > 0 or not _close(doc["advantage_seconds"], advantage, 1e-9):
            return f"advantage {doc['advantage_seconds']!r}, light from A gives {advantage!r}"
        if not all(doc["predicates"].values()):
            return f"predicates {doc['predicates']!r}"
        return None

    def _check_signal(self, kind, facts, doc):
        cut = self.SIGNAL_CUT[kind[len("signal-"):]]
        sd = doc["signaling_distance"]
        if (sd > RECHECK_TOL) != cut or doc["channel"] != ("binary" if cut else "none"):
            return f"channel {doc['channel']!r} at distance {sd!r}"
        if not _close(doc["bias"], sd / 2.0, 1e-15):
            return "bias is not half the signaling distance"
        if max(doc["receiver_alone_distances"].values()) > RECHECK_TOL:
            return "a single receiver sees the spectator's setting"
        if doc["feasible"] and not doc["witness_max_residual"] <= RECHECK_TOL:
            return f"witness residual {doc['witness_max_residual']!r}"
        if not doc["feasible"] and not doc["certificate"]["margin"] > RECHECK_TOL:
            return f"certificate margin {doc['certificate']['margin']!r}"
        return None

    def _check_preset_list(self, kind, facts, doc):
        names = {p.get("name") for p in doc}
        return None if self.PRESETS <= names else f"preset list {sorted(names)}"


WORKLOADS = {
    cls.name: cls for cls in (SimulateChainCsv, SimulateTripartiteJson, LocalPartsBatch, CliCold)
}
