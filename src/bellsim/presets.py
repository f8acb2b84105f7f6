"""Shipped scenario presets, one per canonical configuration.

Each preset is a complete scenario document (the same JSON shape that
``validate`` accepts) plus the pipeline that gives it meaning: sampling
presets produce run CSVs and summary statistics, signaling presets
produce the marginal-shift report.  Distances and times are artifact
choices sized so the timing rules produce the intended coordination
pattern; the physics content lives in the pattern, not the meters.
``scenario_doc`` writes every document, these and the scenario that
``chsh`` and ``chain`` sample, so each preset states only what sets it
apart from its siblings.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .scenario import SCHEMA_VERSION

#: A shipped scenario document and the pipeline ("simulate" or "signal") that runs it.
Preset = namedtuple("Preset", "name description pipeline doc")


def chsh_optimal_angles() -> tuple[list[float], list[float]]:
    """Singlet angles reaching 2*sqrt(2): A at {0, pi/2}, B at {pi/4, 3pi/4}."""
    return [0.0, math.pi / 2], [math.pi / 4, 3 * math.pi / 4]


def chain_optimal_angles(n: int) -> tuple[list[float], list[float]]:
    """Equally spaced singlet angles attaining 2N cos(pi/(2N)).

    Consecutive settings along the chain differ by pi - pi/(2N), which
    puts every chain term at correlator cos(pi/(2N)) with the right sign.
    """
    delta = math.pi - math.pi / (2 * n)
    angles_a = [((2 * i + 1) * delta) % (2 * math.pi) for i in range(n)]
    angles_b = [((2 * i + 2) * delta) % (2 * math.pi) for i in range(n)]
    return angles_a, angles_b


def scenario_doc(
    name, events, model, state, settings, trials, seed, outputs=None, boosts=None, **geometry
) -> dict:
    """A fresh scenario document.

    ``events`` are (t, x) pairs and ``boosts`` the devices' betas, at
    rest by default; extra ``geometry`` keys (fig2b's critical_distance)
    join the geometry block, and ``outputs`` is written only when given.
    """
    doc = {
        "schema": SCHEMA_VERSION,
        "name": name,
        "geometry": {
            "events": [{"t": t, "x": x} for t, x in events],
            "boosts": [{"beta": beta} for beta in boosts or [0.0] * len(events)],
            **geometry,
        },
        "model": dict(model),
        "state": dict(state),
        "settings": [list(row) for row in settings],
        "trials": trials,
        "seed": seed,
    }
    if outputs is not None:
        doc["outputs"] = dict(outputs)
    return doc


def _signal(name: str, description: str, events, **geometry) -> Preset:
    """GHZ under 100c influences; the spectator switches between z and x
    while both receivers measure z."""
    model = {"kind": "finite_speed", "v": "100c"}
    settings = [[0.0, math.pi / 2], [0.0], [0.0]]
    outputs = {"report_json": "report.json"}
    doc = scenario_doc(name, events, model, {"kind": "ghz3"}, settings, 1, 0, outputs, **geometry)
    return Preset(name, description, "signal", doc)


def _simulate(name, description, events, boosts, model, settings, trials, seed) -> Preset:
    """A sampled singlet written to runs.csv and summary.json."""
    outputs = {"runs_csv": "runs.csv", "summary_json": "summary.json"}
    singlet = {"kind": "singlet"}
    doc = scenario_doc(name, events, model, singlet, settings, trials, seed, outputs, boosts)
    return Preset(name, description, "simulate", doc)


def _build_presets() -> dict[str, Preset]:
    chsh = chsh_optimal_angles()
    presets = [
        _signal(
            "fig1-detection",
            "Detection-level coordination cut: spectator device and two "
            "receiver detectors; the cut pair's joint-outcome rates shift "
            "with the spectator's setting (correlation tables only)",
            [(-1.0e-5, 0.0), (0.0, 2000.0), (1.0e-9, 2500.0)],
        ),
        _signal(
            "fig2a",
            "Tripartite layout with every pair coordinated: the model "
            "reproduces the target statistics and no marginal shifts",
            [(-2.0e-6, 0.0), (0.0, 40000.0), (6.0e-7, 55000.0)],
        ),
        _signal(
            "fig2b",
            "Tripartite layout where only the receiver pair loses "
            "coordination: their joint marginal shifts with the spectator "
            "setting, and a point D inside both receiver lightcones but "
            "outside the spectator's realizes the timing advantage",
            [(-2.0e-6, 0.0), (0.0, 40000.0), (5.0e-10, 55000.0)],
            critical_distance=100.0,
        ),
        _simulate(
            "before-before",
            "Symmetric receding devices with simultaneous arrivals: each "
            "device frame puts its own choice first, coordination is off, "
            "and sampled CHSH stays within the local bound",
            [(0.0, -5000.0), (0.0, 5000.0)], [-1.0e-5, 1.0e-5],
            {"kind": "multisim"}, chsh, 200000, 20130412,
        ),
        _simulate(
            "finite-speed-1e5c",
            "Finite-speed influences at v = 1e5 c with simultaneous "
            "arrivals 30 km apart: the influence never arrives in time, "
            "coordination is off, and the summary carries the equivalent "
            "before-before speed c**2/v of about 2.998e3 m/s",
            [(0.0, -15000.0), (0.0, 15000.0)], None,
            {"kind": "finite_speed", "v": "100000c"}, chsh, 200000, 19970618,
        ),
        _simulate(
            "mixture-chain",
            "Local-weight mixture (p = 0.25) sampled against the 4-chain "
            "at its optimal angles; the summary compares the empirical "
            "chain value with the mixed-behavior prediction",
            [(0.0, 0.0), (0.0, 10.0)], None,
            {"kind": "mixture", "p": 0.25, "schedule": "coin"}, chain_optimal_angles(4), 400000, 77,
        ),
    ]
    return {p.name: p for p in presets}


PRESETS: dict[str, Preset] = _build_presets()


def get_preset(name: str) -> Preset:
    if name not in PRESETS:
        known = ", ".join(PRESETS)
        raise ValueError(f"unknown preset {name!r}; available: {known}")
    return PRESETS[name]
