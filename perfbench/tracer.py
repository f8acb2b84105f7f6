"""Outside-in span tracer for the bellsim package.

The tracer wraps public functions of the package at every module
attribute that holds them (so names brought in with ``from ... import``
are wrapped too) and records one span per call: name, start, end and the
span that was open when the call began.  Spans stay in memory; self time
is computed at the end as a span's duration minus the part of it that
its child spans cover.  Nothing under the package's source is changed on
disk, and ``uninstall`` puts every original attribute back.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

#: (module, attribute, span name) for every wrapped function.
FUNCTION_TARGETS = (
    ("bellsim.cli", "main", "cli.main"),
    ("bellsim.cli", "_json_text", "cli.json_text"),
    ("bellsim.scenario", "load_scenario", "scenario.load_scenario"),
    ("bellsim.scenario", "validate_scenario", "scenario.validate_scenario"),
    ("bellsim.quantum", "born_behavior", "quantum.born_behavior"),
    ("bellsim.quantum", "marginal", "quantum.marginal"),
    ("bellsim.hvmodels", "coordination_map", "hvmodels.coordination_map"),
    ("bellsim.hvmodels", "effective_behavior", "hvmodels.effective_behavior"),
    ("bellsim.hvmodels", "sample_runs", "hvmodels.sample_runs"),
    ("bellsim.hvmodels", "write_run_csv", "hvmodels.write_run_csv"),
    ("bellsim.signaling", "build_feasibility_problem", "signaling.build_feasibility_problem"),
    ("scipy.optimize", "linprog", "signaling.linprog"),
    ("bellsim.signaling", "recheck_feasibility_witness", "signaling.recheck"),
    ("bellsim.signaling", "recheck_farkas_certificate", "signaling.recheck"),
    ("bellsim.signaling", "infeasibility_slack", "signaling.infeasibility_slack"),
    ("bellsim.signaling", "localparts_feasible", "signaling.localparts_feasible"),
    ("bellsim.spacetime", "find_point_d", "spacetime.find_point_d"),
    ("bellsim.inequality", "quantum_chain_optimum", "inequality.quantum_chain_optimum"),
)

#: (module, class, method, span name) for wrapped methods.
METHOD_TARGETS = (
    ("bellsim.hvmodels", "RunSample", "__getitem__", "hvmodels.run_records"),
    ("bellsim.hvmodels", "RunSample", "empirical_correlator", "hvmodels.empirical_correlator"),
)


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, after=None):
        """A wrapper of ``fn`` recording a span; ``after(counters, args,
        kwargs, result)`` runs once the span is closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return traced

    def span(self, name: str) -> "_Span":
        """Context manager recording a span around a call."""
        return _Span(self, name)

    def install(self) -> None:
        """Wrap every target at every module attribute holding it.

        The modules searched are the loaded bellsim modules and
        scipy.optimize, so an import of linprog made inside a function
        also gets the wrapper.  A target the package no longer has is
        skipped, and its metrics read zero.
        """
        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("bellsim") and m]
        modules.append(importlib.import_module("scipy.optimize"))
        for mod_name, attr, name in FUNCTION_TARGETS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, _AFTER.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)
        for mod_name, cls_name, method, name in METHOD_TARGETS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                continue
            self._restore.append((cls, method, original))
            setattr(cls, method, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, total self seconds) per span name."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for index, (name, start, end, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - covered
        return {name: (calls, total) for name, (calls, total) in out.items()}

    def root_seconds(self) -> float:
        """Total duration of the spans that have no parent."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self):
        stack = self._tracer._stack()
        self._parent = stack[-1] if stack else -1
        self._index = len(self._tracer.spans)
        self._tracer.spans.append(None)
        stack.append(self._index)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        self._tracer._stack().pop()
        self._tracer.spans[self._index] = (self._name, self._start, end, self._parent)
        return False


def _count_json_bytes(counters, args, kwargs, result) -> None:
    counters["cli.json_text.bytes"] += len(result.encode("utf-8"))


def _count_linprog(counters, args, kwargs, result) -> None:
    """Size, iterations and status of one LP, as signaling passes it."""
    for key in ("A_eq", "A_ub"):
        matrix = kwargs.get(key)
        if matrix is not None:
            counters["signaling.linprog.rows"] += matrix.shape[0]
            nnz = matrix.nnz if hasattr(matrix, "nnz") else np.count_nonzero(matrix)
            counters["signaling.linprog.nnz"] += int(nnz)
    counters["signaling.linprog.cols"] += len(args[0] if args else kwargs["c"])
    counters["signaling.linprog.nit"] += int(result.nit)
    status = {0: "status_0", 2: "status_2"}.get(result.status, "status_other")
    counters[f"signaling.linprog.{status}"] += 1


_AFTER = {
    "cli.json_text": _count_json_bytes,
    "signaling.linprog": _count_linprog,
}


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """numpy and scipy.optimize cumulative, and bellsim self import seconds,
    from the stderr of ``python -X importtime``; absent modules count 0."""
    out = {"import.numpy.cum_s": 0.0, "import.scipy_optimize.cum_s": 0.0, "import.bellsim.self_s": 0.0}
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if not match:
            continue
        self_us, cum_us, module = match.groups()
        if module == "numpy":
            out["import.numpy.cum_s"] = int(cum_us) / 1e6
        elif module == "scipy.optimize":
            out["import.scipy_optimize.cum_s"] = int(cum_us) / 1e6
        elif module == "bellsim" or module.startswith("bellsim."):
            out["import.bellsim.self_s"] += int(self_us) / 1e6
    return out
