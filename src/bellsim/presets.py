"""Shipped scenario presets, one per canonical configuration.

Each preset is a complete scenario document (the same JSON shape that
``validate`` accepts) plus the pipeline that gives it meaning: sampling
presets produce run CSVs and summary statistics, signaling presets
produce the marginal-shift report.  Distances and times are artifact
choices sized so the timing rules produce the intended coordination
pattern; the physics content lives in the pattern, not the meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .scenario import SCHEMA_VERSION


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    pipeline: str  # "simulate" or "signal"
    doc: dict


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


def _witness_settings() -> list[list[float]]:
    # Spectator switches between z and x; both receivers measure z.
    return [[0.0, math.pi / 2], [0.0], [0.0]]


def _build_presets() -> dict[str, Preset]:
    a_chsh, b_chsh = chsh_optimal_angles()
    a_chain, b_chain = chain_optimal_angles(4)

    presets = {}

    presets["fig1-detection"] = Preset(
        name="fig1-detection",
        description=(
            "Detection-level coordination cut: spectator device and two "
            "receiver detectors; the cut pair's joint-outcome rates shift "
            "with the spectator's setting (correlation tables only)"
        ),
        pipeline="signal",
        doc={
            "schema": SCHEMA_VERSION,
            "name": "fig1-detection",
            "geometry": {
                "events": [
                    {"t": -1.0e-5, "x": 0.0},
                    {"t": 0.0, "x": 2000.0},
                    {"t": 1.0e-9, "x": 2500.0},
                ],
                "boosts": [{"beta": 0.0}, {"beta": 0.0}, {"beta": 0.0}],
            },
            "model": {"kind": "finite_speed", "v": "100c"},
            "state": {"kind": "ghz3"},
            "settings": _witness_settings(),
            "trials": 1,
            "seed": 0,
            "outputs": {"report_json": "report.json"},
        },
    )

    presets["fig2a"] = Preset(
        name="fig2a",
        description=(
            "Tripartite layout with every pair coordinated: the model "
            "reproduces the target statistics and no marginal shifts"
        ),
        pipeline="signal",
        doc={
            "schema": SCHEMA_VERSION,
            "name": "fig2a",
            "geometry": {
                "events": [
                    {"t": -2.0e-6, "x": 0.0},
                    {"t": 0.0, "x": 40000.0},
                    {"t": 6.0e-7, "x": 55000.0},
                ],
                "boosts": [{"beta": 0.0}, {"beta": 0.0}, {"beta": 0.0}],
            },
            "model": {"kind": "finite_speed", "v": "100c"},
            "state": {"kind": "ghz3"},
            "settings": _witness_settings(),
            "trials": 1,
            "seed": 0,
            "outputs": {"report_json": "report.json"},
        },
    )

    presets["fig2b"] = Preset(
        name="fig2b",
        description=(
            "Tripartite layout where only the receiver pair loses "
            "coordination: their joint marginal shifts with the spectator "
            "setting, and a point D inside both receiver lightcones but "
            "outside the spectator's realizes the timing advantage"
        ),
        pipeline="signal",
        doc={
            "schema": SCHEMA_VERSION,
            "name": "fig2b",
            "geometry": {
                "events": [
                    {"t": -2.0e-6, "x": 0.0},
                    {"t": 0.0, "x": 40000.0},
                    {"t": 5.0e-10, "x": 55000.0},
                ],
                "boosts": [{"beta": 0.0}, {"beta": 0.0}, {"beta": 0.0}],
                "critical_distance": 100.0,
            },
            "model": {"kind": "finite_speed", "v": "100c"},
            "state": {"kind": "ghz3"},
            "settings": _witness_settings(),
            "trials": 1,
            "seed": 0,
            "outputs": {"report_json": "report.json"},
        },
    )

    presets["before-before"] = Preset(
        name="before-before",
        description=(
            "Symmetric receding devices with simultaneous arrivals: each "
            "device frame puts its own choice first, coordination is off, "
            "and sampled CHSH stays within the local bound"
        ),
        pipeline="simulate",
        doc={
            "schema": SCHEMA_VERSION,
            "name": "before-before",
            "geometry": {
                "events": [
                    {"t": 0.0, "x": -5000.0},
                    {"t": 0.0, "x": 5000.0},
                ],
                "boosts": [{"beta": -1.0e-5}, {"beta": 1.0e-5}],
            },
            "model": {"kind": "multisim"},
            "state": {"kind": "singlet"},
            "settings": [a_chsh, b_chsh],
            "trials": 200000,
            "seed": 20130412,
            "outputs": {"runs_csv": "runs.csv", "summary_json": "summary.json"},
        },
    )

    presets["finite-speed-1e5c"] = Preset(
        name="finite-speed-1e5c",
        description=(
            "Finite-speed influences at v = 1e5 c with simultaneous "
            "arrivals 30 km apart: the influence never arrives in time, "
            "coordination is off, and the summary carries the equivalent "
            "before-before speed c**2/v of about 2.998e3 m/s"
        ),
        pipeline="simulate",
        doc={
            "schema": SCHEMA_VERSION,
            "name": "finite-speed-1e5c",
            "geometry": {
                "events": [
                    {"t": 0.0, "x": -15000.0},
                    {"t": 0.0, "x": 15000.0},
                ],
                "boosts": [{"beta": 0.0}, {"beta": 0.0}],
            },
            "model": {"kind": "finite_speed", "v": "100000c"},
            "state": {"kind": "singlet"},
            "settings": [a_chsh, b_chsh],
            "trials": 200000,
            "seed": 19970618,
            "outputs": {"runs_csv": "runs.csv", "summary_json": "summary.json"},
        },
    )

    presets["mixture-chain"] = Preset(
        name="mixture-chain",
        description=(
            "Local-weight mixture (p = 0.25) sampled against the 4-chain "
            "at its optimal angles; the summary compares the empirical "
            "chain value with the mixed-behavior prediction"
        ),
        pipeline="simulate",
        doc={
            "schema": SCHEMA_VERSION,
            "name": "mixture-chain",
            "geometry": {
                "events": [
                    {"t": 0.0, "x": 0.0},
                    {"t": 0.0, "x": 10.0},
                ],
                "boosts": [{"beta": 0.0}, {"beta": 0.0}],
            },
            "model": {"kind": "mixture", "p": 0.25, "schedule": "coin"},
            "state": {"kind": "singlet"},
            "settings": [a_chain, b_chain],
            "trials": 400000,
            "seed": 77,
            "outputs": {"runs_csv": "runs.csv", "summary_json": "summary.json"},
        },
    )

    return presets


PRESETS: dict[str, Preset] = _build_presets()


def get_preset(name: str) -> Preset:
    if name not in PRESETS:
        known = ", ".join(PRESETS)
        raise ValueError(f"unknown preset {name!r}; available: {known}")
    return PRESETS[name]
