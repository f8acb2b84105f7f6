"""Command-line front door.

Subcommands cover the timing criteria, CHSH and chained-inequality
numbers, model sampling to CSV or JSON, the marginal-shift signaling
report, the point-D construction, shipped presets, and scenario
validation.  Every result is a JSON document on stdout (and optionally
files under --out); failures put a machine-readable JSON object on
stderr.  Exit codes: 0 success, 2 malformed scenario or usage, 1 other
errors.  Outputs are deterministic for a given scenario and seed,
independent of --workers.  Each subcommand loads only the modules it
computes with: timing, point-d, validate, preset list, and chsh and
chain without --trials start without numpy, and scipy is loaded only
when a linear program is solved.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .presets import PRESETS, get_preset, scenario_doc
from .scenario import ScenarioError, create_output, load_scenario, parse_speed, scenario_from_doc
from .spacetime import (
    SPEED_OF_LIGHT,
    TIMING_RULES,
    Event,
    ModelConfig,
    before_before,
    coordination_map,
    equivalent_vbb,
    find_point_d,
    finite_speed_cut,
    in_future_lightcone,
    pair_timing,
    spectator_first,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SCHEMA = 2


class CliError(Exception):
    """Carries an exit code and a JSON payload for stderr."""

    def __init__(self, code: int, payload: dict):
        self.code = code
        self.payload = payload
        super().__init__(payload.get("error", {}).get("message", "error"))


def _usage_error(message: str) -> CliError:
    return CliError(EXIT_SCHEMA, {"error": {"code": "usage", "message": message}})


def _invalid_error(message: str) -> CliError:
    return CliError(EXIT_ERROR, {"error": {"code": "invalid", "message": message}})


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _usage_error(message)


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def seed_int(text: str) -> int:
    """argparse type for a seed, an integer in [0, 2**64)."""
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**64), got {value}")
    return value


def cut_pair(text: str) -> tuple[int, int]:
    """argparse type for a tripartite cut pair 'i,j', returned sorted."""
    try:
        _, i, j = spectator_first(text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return i, j


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit(obj, out_dir: str | None, filename: str) -> None:
    """Write out_dir/filename, if given, before stdout: a failed write prints nothing."""
    text = _json_text(obj)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with create_output(os.path.join(out_dir, filename)) as fh:
            fh.write(text.encode())
    sys.stdout.write(text)


def _finite_or_none(value: float) -> float | None:
    return float(value) if math.isfinite(value) else None


def _resolve_scenario(args):
    if getattr(args, "scenario", None):
        sc = load_scenario(args.scenario)
    elif getattr(args, "preset", None):
        sc = scenario_from_doc(get_preset(args.preset).doc)
    else:
        raise _usage_error("one of --scenario or --preset is required")
    overrides = {
        key: getattr(args, key)
        for key in ("trials", "seed")
        if getattr(args, key, None) is not None
    }
    return scenario_from_doc({**sc.doc, **overrides}) if overrides else sc


def cmd_timing(args) -> int:
    c = 1.0 if args.c_units else SPEED_OF_LIGHT
    v = parse_speed(args.v, c)
    v_bb_equiv = equivalent_vbb(v, c)
    v_bb = v_bb_equiv if args.v_bb is None else parse_speed(args.v_bb, c)
    for holds, message in (
        (math.isfinite(args.L), f"--L must be finite, got {args.L!r}"),
        (math.isfinite(args.dt), f"--dt must be finite, got {args.dt!r}"),
        (args.L > 0.0, f"L must be > 0, got {args.L!r}"),
        (args.dt >= 0.0, f"dt must be >= 0, got {args.dt!r}"),
        (args.v_bb is not None or v > c, f"--v must exceed c unless --v-bb is given, got {v!r}"),
        (0.0 <= v_bb < c, f"v_bb must be in [0, c), got {v_bb!r}"),
    ):
        if not holds:
            raise _invalid_error(message)
    fsc = finite_speed_cut(args.L, args.dt, v)
    # At the exact v_bb = c**2/v, dt c**2 < v_bb L is v dt < L itself: with
    # --v-bb omitted, before-before is the finite-speed verdict by construction.
    bb = fsc if args.v_bb is None else before_before(args.L, args.dt, v_bb, c)
    _emit(
        {
            "schema": "bellsim-timing-1",
            "inputs": {"L": args.L, "dt": args.dt, "v": v, "v_bb": v_bb, "c": c},
            "v_bb_equivalent": v_bb_equiv,
            "v_equivalent": _finite_or_none(c * c / v_bb) if v_bb > 0 else None,
            "finite_speed_cut": fsc,
            "before_before": bb,
            "criteria_agree": fsc == bb,
        },
        args.out,
        "timing.json",
    )
    return EXIT_OK


def _empirical_summary(sc, workers: int) -> tuple:
    from .hvmodels import sample_runs
    from .quantum import born_behavior, correlator

    target = born_behavior(sc.state, sc.settings)
    sample = sample_runs(sc.model, sc.geometry, target, sc.trials, sc.seed, workers=workers)
    correlators = []
    for combo in sample.schedule.tolist():
        mean, se, count = sample.empirical_correlator(combo)
        correlators.append(
            {
                "settings": combo,
                "mean": float(mean) if count else None,
                "se": _finite_or_none(se),
                "count": count,
                "predicted": correlator(sample.behavior, combo),
            }
        )
    return sample, correlators


def _derived_block(sc, eff, correlators) -> dict:
    """Chain/CHSH values from the summary's correlators, plus mixture
    analysis, for a bipartite scenario with 2..MAX_CHAIN_N settings per side."""
    from . import inequality

    if sc.parties != 2:
        return {}
    n_a, n_b = len(sc.settings[0]), len(sc.settings[1])
    if n_a != n_b or not 2 <= n_a <= inequality.MAX_CHAIN_N:
        return {}
    spec = inequality.chain_spec(n_a)
    by_settings = {tuple(entry["settings"]): entry for entry in correlators}
    value = se2 = 0.0
    for (ia, ib), sign in spec.terms:
        entry = by_settings[(ia, ib)]
        mean, se = entry["mean"], entry["se"]
        value += sign * mean if mean is not None else math.nan
        se2 += se * se if se is not None else math.inf
    block = {
        "n": n_a,
        "empirical_value": _finite_or_none(value),
        "se": _finite_or_none(math.sqrt(se2) if math.isfinite(se2) else math.inf),
        "predicted_value": inequality.chain_value(eff, spec),
        "local_bound": inequality.local_bound(spec),
        "quantum_optimum": inequality.quantum_chain_optimum(n_a).value,
    }
    derived = {"chain": block}
    if n_a == 2:
        derived["chsh"] = {
            "empirical_value": block["empirical_value"],
            "se": block["se"],
            "predicted_value": block["predicted_value"],
            "local_bound": 2.0,
            "tsirelson": 2.0 * math.sqrt(2.0),
        }
    if sc.model.kind == "mixture":
        derived["mixture"] = {
            "p": sc.model.p,
            "max_value": inequality.mixture_max_value(sc.model.p, n_a),
            "deviation": inequality.mixture_deviation(sc.model.p, n_a),
        }
    return derived


def cmd_simulate(args) -> int:
    from .hvmodels import pair_key, write_run_csv, write_run_json

    sc = _resolve_scenario(args)
    sample, correlators = _empirical_summary(sc, args.workers)
    maps = [{pair_key(p): s for p, s in zip(sample.pairs, states)} for states in sample.maps]
    summary = {
        "schema": "bellsim-summary-1",
        "scenario": sc.doc,
        "coordination": dict(zip(("nonlocal", "local"), maps)) if len(maps) > 1 else maps[0],
        "correlators": correlators,
        "derived": _derived_block(sc, sample.behavior, correlators),
    }
    if sc.model.kind in TIMING_RULES:
        summary["timing"] = {
            pair_key(p): entry for p, entry in pair_timing(sc.model, sc.geometry).items()
        }
    out_dir = args.out if args.out is not None else "."
    os.makedirs(out_dir, exist_ok=True)
    runs_path = os.path.join(out_dir, sc.outputs[f"runs_{args.format}"])
    if args.format == "csv":
        write_run_csv(sample, runs_path)
    else:
        write_run_json(sample, runs_path)
    _emit(summary, out_dir, sc.outputs["summary_json"])
    return EXIT_OK


def cmd_signal(args) -> int:
    from .hvmodels import effective_behavior, pair_key
    from .quantum import born_behavior
    from .signaling import signal_report

    sc = _resolve_scenario(args)
    off = args.off_pair
    if sc.parties != 3:
        raise _invalid_error("signal needs a tripartite scenario")
    if sc.model.kind == "mixture":
        raise _invalid_error("signal needs a model with a static coordination map")
    target = born_behavior(sc.state, sc.settings)
    cmap = coordination_map(sc.model, sc.geometry)
    off_pairs = [pair for pair, state in cmap.items() if state == "OFF"]
    if off is None and len(off_pairs) > 1:
        raise _invalid_error(
            f"coordination map cuts {len(off_pairs)} pairs; "
            "pass --off-pair to choose the receiver pair"
        )
    if off is None:
        off = off_pairs[0] if off_pairs else (1, 2)
    observed = effective_behavior(sc.model, sc.geometry, target)
    report = signal_report(observed, target, off, sc.geometry)
    report.update(
        schema="bellsim-signal-1",
        scenario=sc.doc,
        coordination={pair_key(p): state for p, state in cmap.items()},
        settings=[list(row) for row in sc.settings],
    )
    _emit(report, args.out, sc.outputs["report_json"])
    return EXIT_OK


def _sample_at_optimum(name: str, opt, args) -> tuple | None:
    """The sampled part of chsh and chain.

    Checks the --model/--p pair.  With --trials, samples the singlet at
    opt's angles (a chain optimum) under --model over every setting
    pair and returns the correlators, the derived block and the model
    echo; without --trials, returns None.
    """
    if args.p is not None and args.model != "mixture":
        raise _usage_error("--p needs --model mixture")
    if args.model == "mixture":
        try:
            ModelConfig(kind="mixture", p=args.p)
        except ValueError as exc:
            raise _usage_error(f"--model mixture needs --p: {exc}") from None
    if args.trials is None:
        return None
    model = {"kind": args.model} if args.p is None else {"kind": args.model, "p": args.p}
    events, settings = [(0.0, -1.0), (0.0, 1.0)], [opt.angles_a, opt.angles_b]
    doc = scenario_doc(name, events, model, {"kind": "singlet"}, settings, args.trials, args.seed)
    sc = scenario_from_doc(doc)
    sample, correlators = _empirical_summary(sc, args.workers)
    derived = _derived_block(sc, sample.behavior, correlators)
    return correlators, derived, {"kind": sc.model.kind, "p": sc.model.p}


def cmd_chsh(args) -> int:
    from . import inequality

    opt = inequality.quantum_chain_optimum(2)
    out = {
        "schema": "bellsim-chsh-1",
        "local_bound": 2.0,
        "tsirelson": 2.0 * math.sqrt(2.0),
        "quantum_optimum": opt.value,
        "angles": {"a": list(opt.angles_a), "b": list(opt.angles_b)},
    }
    sampled = _sample_at_optimum("chsh", opt, args)
    if sampled:
        out["correlators"], derived, out["model"] = sampled
        out["empirical"] = derived["chsh"]
    _emit(out, args.out, "chsh.json")
    return EXIT_OK


def cmd_chain(args) -> int:
    from . import inequality

    if args.n < 2 or args.n > inequality.MAX_CHAIN_N:
        raise _usage_error(f"--n must be in 2..{inequality.MAX_CHAIN_N}")
    spec = inequality.chain_spec(args.n)
    want_all = not args.local_bound and not args.quantum
    out = {"schema": "bellsim-chain-1", "n": args.n}
    if args.local_bound or want_all:
        out["local_bound"] = inequality.local_bound(spec)
    opt = None
    if args.quantum or want_all or args.trials is not None:
        opt = inequality.quantum_chain_optimum(args.n)
    if args.quantum or want_all:
        out["quantum_optimum"] = opt.value
        out["closed_form"] = 2 * args.n * math.cos(math.pi / (2 * args.n))
        out["angles"] = {"a": list(opt.angles_a), "b": list(opt.angles_b)}
    sampled = _sample_at_optimum("chain", opt, args)
    if sampled:
        _, derived, out["model"] = sampled
        out["empirical"] = derived["chain"]
        if "mixture" in derived:
            out["mixture"] = derived["mixture"]
    _emit(out, args.out, "chain.json")
    return EXIT_OK


def _parse_event(text: str, flag: str) -> Event:
    parts = text.split(",")
    if len(parts) not in (2, 3):
        raise _usage_error(f"{flag} must look like 't,x' or 't,x,y'")
    try:
        numbers = [float(part) for part in parts]
    except ValueError:
        raise _usage_error(f"{flag} must contain numbers") from None
    return Event(numbers[0], numbers[1], numbers[2] if len(numbers) == 3 else 0.0)


def cmd_point_d(args) -> int:
    if args.scenario or args.preset:
        if args.c_units or any(e is not None for e in (args.a, args.b, args.c)):
            raise _usage_error(
                "--a, --b, --c and --c-units cannot be combined with --scenario/--preset"
            )
        sc = _resolve_scenario(args)
        if sc.parties != 3:
            raise _invalid_error("point-d needs three devices")
        a, b, c_ev = sc.geometry.events
        c = sc.geometry.c
    elif args.a and args.b and args.c:
        a = _parse_event(args.a, "--a")
        b = _parse_event(args.b, "--b")
        c_ev = _parse_event(args.c, "--c")
        c = 1.0 if args.c_units else SPEED_OF_LIGHT
    else:
        raise _usage_error("give --scenario/--preset or all of --a, --b, --c")
    point = find_point_d(a, b, c_ev, c=c)
    if point is None:
        out = {
            "schema": "bellsim-pointd-1",
            "found": False,
            "point": None,
            "advantage_seconds": None,
            "predicates": None,
        }
    else:
        d, advantage = point
        out = {
            "schema": "bellsim-pointd-1",
            "found": True,
            "point": {"t": d.t, "x": d.x, "y": d.y},
            "advantage_seconds": advantage,
            "predicates": {
                "inside_b_cone": in_future_lightcone(b, d, c=c),
                "inside_c_cone": in_future_lightcone(c_ev, d, c=c),
                "outside_a_cone": not in_future_lightcone(a, d, c=c),
            },
        }
    _emit(out, args.out, "point_d.json")
    return EXIT_OK


def cmd_preset(args) -> int:
    # The preset parser defaults every sampling flag to None, so these were given.
    given = [
        f"--{key}"
        for key in ("trials", "seed", "workers", "format")
        if getattr(args, key) is not None
    ]
    if args.action == "list":
        if args.name is not None:
            raise _usage_error("preset list takes no name")
        if given:
            raise _usage_error(f"preset list takes no {', '.join(given)}")
        _emit(
            [
                {"name": p.name, "description": p.description, "pipeline": p.pipeline}
                for p in PRESETS.values()
            ],
            args.out,
            "presets.json",
        )
        return EXIT_OK
    if not args.name:
        raise _usage_error("preset run needs a preset name")
    preset = get_preset(args.name)
    args.scenario = None
    args.preset = preset.name
    if preset.pipeline == "signal":
        if given:
            raise _usage_error(f"signal preset {preset.name} takes no {', '.join(given)}")
        args.off_pair = None
        return cmd_signal(args)
    args.workers = 1 if args.workers is None else args.workers
    args.format = args.format or "csv"
    return cmd_simulate(args)


def cmd_validate(args) -> int:
    try:
        load_scenario(args.file)
    except ScenarioError as exc:
        payload = {"ok": False, "errors": [e.as_dict() for e in exc.errors]}
        sys.stderr.write(_json_text(payload))
        return EXIT_SCHEMA
    sys.stdout.write(_json_text({"ok": True}))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="bellsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scenario=False, sampling=False, model=False):
        """--out, plus the scenario source, the flags of a sampled scenario
        run, or the flags of a sampled chsh or chain run."""
        p.add_argument("--out", default=None, help="directory for output files")
        if scenario:
            source = p.add_mutually_exclusive_group()
            source.add_argument("--scenario", default=None, help="scenario JSON file")
            source.add_argument("--preset", default=None, help="shipped preset name")
        if sampling or model:
            p.add_argument("--trials", type=positive_int, default=None)
            p.add_argument("--seed", type=seed_int, default=0 if model else None)
            p.add_argument("--workers", type=positive_int, default=1)
        if sampling:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if model:
            p.add_argument("--model", choices=("quantum", "local", "mixture"), default="quantum")
            p.add_argument("--p", type=float, default=None, help="local weight for mixtures")

    p = sub.add_parser("timing", help="evaluate the timing criteria")
    p.add_argument("--L", type=float, required=True, help="separation in meters")
    p.add_argument("--dt", type=float, default=0.0, help="arrival gap in seconds")
    p.add_argument("--v", required=True, help="influence speed (m/s or e.g. '100000c')")
    p.add_argument("--v-bb", default=None, help="recession speed (default c**2/v)")
    p.add_argument("--c-units", action="store_true", help="set c = 1")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_timing)

    p = sub.add_parser("chsh", help="CHSH numbers and optional sampling")
    add_common(p, model=True)
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("chain", help="chained-inequality numbers and sampling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--local-bound", action="store_true", help="report the local bound")
    p.add_argument("--quantum", action="store_true", help="report the quantum optimum")
    add_common(p, model=True)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser("simulate", help="sample a scenario to CSV or JSON plus summary")
    add_common(p, scenario=True, sampling=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("signal", help="marginal-shift report for a tripartite scenario")
    add_common(p, scenario=True)
    p.add_argument("--off-pair", type=cut_pair, default=None, help="receiver pair, e.g. '1,2'")
    p.set_defaults(func=cmd_signal)

    p = sub.add_parser("point-d", help="point-D construction for three events")
    add_common(p, scenario=True)
    p.add_argument("--a", default=None, help="event 't,x[,y]' for the sender")
    p.add_argument("--b", default=None, help="event 't,x[,y]' for receiver B")
    p.add_argument("--c", default=None, help="event 't,x[,y]' for receiver C")
    p.add_argument("--c-units", action="store_true", help="set c = 1")
    p.set_defaults(func=cmd_point_d)

    p = sub.add_parser("preset", help="list shipped presets or run one")
    p.add_argument("action", choices=("list", "run"))
    p.add_argument("name", nargs="?", default=None)
    add_common(p, sampling=True)
    p.set_defaults(func=cmd_preset, workers=None, format=None)

    p = sub.add_parser("validate", help="check a scenario file against the schema")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(_json_text(exc.payload))
        return exc.code
    except ScenarioError as exc:
        payload = {
            "error": {
                "code": "schema",
                "message": "scenario failed validation",
                "errors": [e.as_dict() for e in exc.errors],
            }
        }
        sys.stderr.write(_json_text(payload))
        return EXIT_SCHEMA
    except OSError as exc:
        sys.stderr.write(
            _json_text({"error": {"code": "io", "message": str(exc)}})
        )
        return EXIT_ERROR
    except ValueError as exc:
        sys.stderr.write(
            _json_text({"error": {"code": "invalid", "message": str(exc)}})
        )
        return EXIT_ERROR
    except Exception as exc:  # any other failure is still a JSON error, never a traceback
        sys.stderr.write(
            _json_text(
                {"error": {"code": "internal", "message": f"{type(exc).__name__}: {exc}"}}
            )
        )
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
