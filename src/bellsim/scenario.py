"""Scenario files: schema validation and loading.

A scenario is a JSON document with a versioned ``schema`` field that
fully describes one experiment: device geometry, hidden-influence model,
quantum state, measurement angles, trial count, and seed.  Validation is
collect-all rather than fail-fast, and every violation is reported with
a JSON-pointer path so batch tooling can point at the offending field.

Speeds are accepted either as numbers in m/s or as strings with a ``c``
suffix ("100000c" means 1e5 times the speed of light, using the
scenario's own c so c=1 geometries stay consistent; spacetime.parse_speed
reads them).  Angles are always
radians.  Custom state amplitudes are normalized on load; entries may be
real numbers or [re, im] pairs.

Validation and construction are pure Python: only a custom state's norm
is computed with numpy, and the StateVector is built from the document
when a command first reads Scenario.state, so validating a file with a
shipped state never loads numpy.  ``create_output`` opens every file the
command line writes, also without numpy, so a command given --out loads
this module.  SchemaError and Scenario are namedtuples.
"""

from __future__ import annotations

import functools
import json
import math
import os
import stat
import sys
from collections import namedtuple
from typing import TYPE_CHECKING, BinaryIO

from .spacetime import MODEL_KINDS, SPEED_OF_LIGHT, Boost, Event, Geometry, ModelConfig
from .spacetime import _finite_number, _is_number, parse_speed

if TYPE_CHECKING:
    import numpy as np

    from .quantum import StateVector

SCHEMA_VERSION = "bellsim-scenario-1"

_TOP_KEYS = {
    "schema",
    "name",
    "geometry",
    "model",
    "state",
    "settings",
    "trials",
    "seed",
    "outputs",
}
_GEOMETRY_KEYS = {"events", "boosts", "critical_distance", "c"}
_EVENT_KEYS = {"t", "x", "y"}
_MODEL_KEYS = {"kind", "v", "p", "schedule"}
_STATE_KEYS = {"kind", "amplitudes"}
#: Output file names by key; a scenario's ``outputs`` overrides them.
DEFAULT_OUTPUTS = {
    "runs_csv": "runs.csv",
    "runs_json": "runs.json",
    "summary_json": "summary.json",
    "report_json": "report.json",
}
STATE_KINDS = ("singlet", "ghz3", "custom")


class SchemaError(namedtuple("SchemaError", "path message")):
    """One validation failure, addressed by a JSON pointer: (path, message)."""

    __slots__ = ()

    def as_dict(self) -> dict:
        return {"path": self.path, "message": self.message}


class ScenarioError(ValueError):
    """Raised when a scenario document fails validation."""

    def __init__(self, errors: list[SchemaError]):
        self.errors = errors
        lines = "; ".join(f"{e.path}: {e.message}" for e in errors[:5])
        more = "" if len(errors) <= 5 else f" (+{len(errors) - 5} more)"
        super().__init__(f"invalid scenario: {lines}{more}")


def _pointer(*parts) -> str:
    out = ""
    for part in parts:
        text = str(part).replace("~", "~0").replace("/", "~1")
        out += "/" + text
    return out or "/"


class Scenario(namedtuple("Scenario", "name geometry model settings trials seed outputs doc")):
    """A validated experiment description; its state is built on first use
    and kept in the __dict__ that a namedtuple without __slots__ has.
    outputs names a file for every key of DEFAULT_OUTPUTS."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def parties(self) -> int:
        return self.geometry.parties

    @functools.cached_property
    def state(self) -> StateVector:
        """The quantum state, built from the document on first use."""
        return _build_state(self.doc["state"])


def _check_unknown(obj: dict, allowed: set, base: str, errors: list[SchemaError]) -> None:
    for key in sorted(set(obj) - allowed):
        errors.append(SchemaError(base + _pointer(key), "unknown field"))


def _validate_geometry(doc, errors: list[SchemaError]) -> None:
    if not isinstance(doc, dict):
        errors.append(SchemaError("/geometry", "must be an object"))
        return
    _check_unknown(doc, _GEOMETRY_KEYS, "/geometry", errors)
    events = doc.get("events")
    if not isinstance(events, list) or not 2 <= len(events) <= 3:
        errors.append(
            SchemaError("/geometry/events", "must be a list of 2 or 3 device events")
        )
        events = []
    for i, ev in enumerate(events):
        base = f"/geometry/events/{i}"
        if not isinstance(ev, dict):
            errors.append(SchemaError(base, "must be an object"))
            continue
        _check_unknown(ev, _EVENT_KEYS, base, errors)
        for field in ("t", "x"):
            if field not in ev:
                errors.append(SchemaError(f"{base}/{field}", "required"))
            elif not _finite_number(ev[field]):
                errors.append(SchemaError(f"{base}/{field}", "must be a finite number"))
        if "y" in ev and not _finite_number(ev["y"]):
            errors.append(SchemaError(f"{base}/y", "must be a finite number"))
    boosts = doc.get("boosts")
    if boosts is None:
        errors.append(SchemaError("/geometry/boosts", "required"))
        boosts = []
    elif not isinstance(boosts, list):
        errors.append(SchemaError("/geometry/boosts", "must be a list"))
        boosts = []
    elif events and len(boosts) != len(events):
        errors.append(
            SchemaError("/geometry/boosts", "must have one boost per event")
        )
    for i, bo in enumerate(boosts):
        base = f"/geometry/boosts/{i}"
        if not isinstance(bo, dict):
            errors.append(SchemaError(base, "must be an object"))
            continue
        _check_unknown(bo, {"beta"}, base, errors)
        beta = bo.get("beta")
        if beta is None:
            errors.append(SchemaError(f"{base}/beta", "required"))
        elif not _finite_number(beta) or abs(beta) >= 1:
            errors.append(SchemaError(f"{base}/beta", "must satisfy |beta| < 1"))
    if "critical_distance" in doc and doc["critical_distance"] is not None:
        if not _finite_number(doc["critical_distance"]) or doc["critical_distance"] <= 0:
            errors.append(
                SchemaError("/geometry/critical_distance", "must be a positive number")
            )
    if "c" in doc and (not _finite_number(doc["c"]) or doc["c"] <= 0):
        errors.append(SchemaError("/geometry/c", "must be a positive number"))


def _validate_model(doc, c: float, errors: list[SchemaError]) -> None:
    if not isinstance(doc, dict):
        errors.append(SchemaError("/model", "must be an object"))
        return
    _check_unknown(doc, _MODEL_KEYS, "/model", errors)
    kind = doc.get("kind")
    if kind not in MODEL_KINDS:
        errors.append(
            SchemaError("/model/kind", f"must be one of {', '.join(MODEL_KINDS)}")
        )
        return
    if kind == "finite_speed":
        if "v" not in doc:
            errors.append(SchemaError("/model/v", "required for finite_speed"))
        else:
            try:
                v = parse_speed(doc["v"], c)
                if not v > 0:
                    errors.append(SchemaError("/model/v", "must be > 0"))
            except ValueError as exc:
                errors.append(SchemaError("/model/v", str(exc)))
    elif "v" in doc:
        errors.append(SchemaError("/model/v", f"{kind} takes no v"))
    if kind == "mixture":
        p = doc.get("p")
        if p is None or not _finite_number(p) or not 0 <= p <= 1:
            errors.append(SchemaError("/model/p", "must be a number in [0, 1]"))
        if doc.get("schedule", "coin") != "coin":
            errors.append(SchemaError("/model/schedule", "must be 'coin'"))
    else:
        for field in ("p", "schedule"):
            if field in doc:
                errors.append(SchemaError(f"/model/{field}", f"{kind} takes no {field}"))


#: The smallest norm whose square is a normal double; below it the sum
#: of squares loses precision and the normalized state misses norm 1.
_MIN_NORM = math.sqrt(sys.float_info.min)


def _amplitudes(entries: list) -> tuple[np.ndarray, np.float64]:
    """Custom amplitudes as a complex array, with the norm that normalizes
    them: inf when it overflows, 0.0 when it underflows."""
    import numpy as np

    amps = np.asarray(
        [complex(a, 0.0) if _is_number(a) else complex(a[0], a[1]) for a in entries],
        dtype=np.complex128,
    )
    with np.errstate(over="ignore"):
        return amps, np.linalg.norm(amps)


def _validate_state(doc, parties: int | None, errors: list[SchemaError]) -> None:
    if not isinstance(doc, dict):
        errors.append(SchemaError("/state", "must be an object"))
        return
    _check_unknown(doc, _STATE_KEYS, "/state", errors)
    kind = doc.get("kind")
    if kind not in STATE_KINDS:
        errors.append(SchemaError("/state/kind", f"must be one of {', '.join(STATE_KINDS)}"))
        return
    if kind == "singlet" and parties is not None and parties != 2:
        errors.append(SchemaError("/state/kind", "singlet needs exactly 2 devices"))
    if kind == "ghz3" and parties is not None and parties != 3:
        errors.append(SchemaError("/state/kind", "ghz3 needs exactly 3 devices"))
    if kind == "custom":
        amps = doc.get("amplitudes")
        if not isinstance(amps, list) or not amps:
            errors.append(SchemaError("/state/amplitudes", "required for custom states"))
            return
        ok = True
        for i, amp in enumerate(amps):
            if not (
                _finite_number(amp)
                or isinstance(amp, list)
                and len(amp) == 2
                and all(_finite_number(part) for part in amp)
            ):
                message = "must be a number or an [re, im] pair"
                errors.append(SchemaError(f"/state/amplitudes/{i}", message))
                ok = False
        n = len(amps)
        if n & (n - 1) or (parties is not None and n != 2**parties):
            errors.append(
                SchemaError(
                    "/state/amplitudes",
                    "length must be 2**devices (one amplitude per basis state)",
                )
            )
        if ok:
            norm = _amplitudes(amps)[1]
            if not _MIN_NORM <= norm < math.inf:
                why = "overflows" if norm == math.inf else "is zero or underflows"
                message = f"norm {why} in double precision; it must be positive and finite"
                errors.append(SchemaError("/state/amplitudes", message))
    elif "amplitudes" in doc:
        errors.append(SchemaError("/state/amplitudes", f"{kind} takes no amplitudes"))


def validate_scenario(doc) -> list[SchemaError]:
    """All schema and invariant violations of a scenario document."""
    errors: list[SchemaError] = []
    if not isinstance(doc, dict):
        return [SchemaError("/", "scenario must be a JSON object")]
    _check_unknown(doc, _TOP_KEYS, "", errors)
    if doc.get("schema") != SCHEMA_VERSION:
        errors.append(SchemaError("/schema", f"must be {SCHEMA_VERSION!r}"))
    if not isinstance(doc.get("name"), str) or not doc.get("name"):
        errors.append(SchemaError("/name", "must be a non-empty string"))
    if "geometry" not in doc:
        errors.append(SchemaError("/geometry", "required"))
    else:
        _validate_geometry(doc["geometry"], errors)
    parties = None
    c = SPEED_OF_LIGHT
    if isinstance(doc.get("geometry"), dict):
        events = doc["geometry"].get("events")
        if isinstance(events, list) and 2 <= len(events) <= 3:
            parties = len(events)
        if _finite_number(doc["geometry"].get("c")) and doc["geometry"]["c"] > 0:
            c = float(doc["geometry"]["c"])
    if "model" not in doc:
        errors.append(SchemaError("/model", "required"))
    else:
        _validate_model(doc["model"], c, errors)
    if "state" not in doc:
        errors.append(SchemaError("/state", "required"))
    else:
        _validate_state(doc["state"], parties, errors)
    settings = doc.get("settings")
    if not isinstance(settings, list) or (parties is not None and len(settings) != parties):
        errors.append(SchemaError("/settings", "must list one angle list per device"))
    else:
        for i, angles in enumerate(settings):
            if not isinstance(angles, list) or not angles:
                errors.append(
                    SchemaError(f"/settings/{i}", "must be a non-empty list of angles")
                )
                continue
            for j, theta in enumerate(angles):
                if not _finite_number(theta):
                    errors.append(
                        SchemaError(f"/settings/{i}/{j}", "must be a finite number")
                    )
    trials = doc.get("trials")
    if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
        errors.append(SchemaError("/trials", "must be an integer >= 1"))
    seed = doc.get("seed")
    if (
        not isinstance(seed, int)
        or isinstance(seed, bool)
        or not 0 <= seed < 2**64
    ):
        errors.append(SchemaError("/seed", "must be an integer in [0, 2**64)"))
    _validate_outputs(doc.get("outputs", {}), errors)
    return errors


def _plain_file_name(name: str) -> bool:
    """Whether name is one file name inside the output directory."""
    if name in (".", "..") or "\0" in name:
        return False
    return not any(sep and sep in name for sep in ("/", os.sep, os.altsep))


def _validate_outputs(doc, errors: list[SchemaError]) -> None:
    """Each output name stays inside --out, and a runs file never
    overwrites the summary that simulate writes after it."""
    if not isinstance(doc, dict):
        errors.append(SchemaError("/outputs", "must be an object"))
        return
    _check_unknown(doc, set(DEFAULT_OUTPUTS), "/outputs", errors)
    names = dict(DEFAULT_OUTPUTS)
    for key, value in doc.items():
        if key not in DEFAULT_OUTPUTS:
            continue
        if not isinstance(value, str) or not value:
            errors.append(SchemaError(_pointer("outputs", key), "must be a non-empty filename"))
        elif not _plain_file_name(value):
            message = "must be a plain file name: no path separator, NUL, '.' or '..'"
            errors.append(SchemaError(_pointer("outputs", key), message))
        else:
            names[key] = value
    for key in ("runs_csv", "runs_json"):
        if names[key] == names["summary_json"]:
            given = doc.get(key) == names[key]
            at, other = (key, "summary_json") if given else ("summary_json", key)
            message = f"must differ from {other} ({names[key]!r})"
            errors.append(SchemaError(_pointer("outputs", at), message))


def _build_state(doc: dict) -> StateVector:
    from .quantum import make_ghz3, make_singlet, state_from_amplitudes

    kind = doc["kind"]
    if kind == "singlet":
        return make_singlet()
    if kind == "ghz3":
        return make_ghz3()
    amps, norm = _amplitudes(doc["amplitudes"])
    return state_from_amplitudes(amps / norm)


def scenario_from_doc(doc: dict) -> Scenario:
    """Validate and construct; raises ScenarioError listing every violation."""
    errors = validate_scenario(doc)
    if errors:
        raise ScenarioError(errors)
    gdoc = doc["geometry"]
    c = float(gdoc.get("c", SPEED_OF_LIGHT))
    geometry = Geometry(
        events=tuple(
            Event(float(ev["t"]), float(ev["x"]), float(ev.get("y", 0.0)))
            for ev in gdoc["events"]
        ),
        boosts=tuple(Boost(float(bo["beta"])) for bo in gdoc["boosts"]),
        c=c,
    )
    gaps = [f(i, j) for i, j in geometry.pairs() for f in (geometry.distance, geometry.arrival_dt)]
    if not all(map(math.isfinite, gaps)):
        message = "pair separations and arrival gaps must be finite in double precision"
        raise ScenarioError([SchemaError("/geometry/events", message)])
    mdoc = doc["model"]
    model = ModelConfig(
        kind=mdoc["kind"],
        v=parse_speed(mdoc["v"], c) if "v" in mdoc else None,
        p=mdoc.get("p"),
    )
    return Scenario(
        name=doc["name"],
        geometry=geometry,
        model=model,
        settings=tuple(tuple(float(t) for t in row) for row in doc["settings"]),
        trials=doc["trials"],
        seed=doc["seed"],
        outputs={**DEFAULT_OUTPUTS, **doc.get("outputs", {})},
        doc=doc,
    )


def load_scenario(path: str) -> Scenario:
    """Read, validate, and construct a scenario from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        # ValueError: bad JSON, bad UTF-8 or an int past the digit limit;
        # RecursionError: arrays or objects nested too deep to decode.
        except (ValueError, RecursionError) as exc:
            raise ScenarioError([SchemaError("/", f"not valid JSON: {exc}")]) from None
    return scenario_from_doc(doc)


def create_output(path: str) -> BinaryIO:
    """Open path for writing in binary mode as a new file.

    An existing regular file is unlinked first instead of truncated:
    when a truncated and rewritten file is closed, ext4 (with its default
    auto_da_alloc) allocates its blocks and starts their write-back on
    the writer's own thread, and it does not do so for a new file.  A
    hard link to the old file keeps the old bytes.  Symlinks, FIFOs and
    devices are opened as they are, and if the unlink fails the file is
    truncated as before.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except OSError:
        pass
    return open(path, "wb")
