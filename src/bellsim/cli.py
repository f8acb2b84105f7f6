"""Command-line front door.

Subcommands cover the timing criteria, CHSH and chained-inequality
numbers, model sampling to CSV or JSON, the marginal-shift signaling
report, the point-D construction, shipped presets, and scenario
validation.  Every result is a JSON document on stdout (and optionally
files under --out); failures put a machine-readable JSON object on
stderr.  Exit codes: 0 success, 2 malformed scenario or usage, 1 other
errors.  Outputs are deterministic for a given scenario and seed,
independent of --workers.  No package module is imported at start:
each subcommand imports what its own code runs.  timing and point-d
with --a/--b/--c load spacetime, chsh and chain inequality (and
spacetime for --model mixture); a scenario file, a preset or --out adds
scenario, a preset presets; sampling, signal and a custom state load
numpy, and only a linear program loads scipy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_SCHEMA = 2


class UsageError(Exception):
    """A malformed command line: exit 2 with error code "usage"."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


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
    from .spacetime import spectator_first

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
        from .scenario import create_output

        os.makedirs(out_dir, exist_ok=True)
        with create_output(os.path.join(out_dir, filename)) as fh:
            fh.write(text.encode())
    sys.stdout.write(text)


def _finite_or_none(value: float) -> float | None:
    return float(value) if math.isfinite(value) else None


def _resolve_scenario(args):
    from .scenario import load_scenario, scenario_from_doc

    if getattr(args, "scenario", None):
        sc = load_scenario(args.scenario)
    elif getattr(args, "preset", None):
        from .presets import get_preset

        sc = scenario_from_doc(get_preset(args.preset).doc)
    else:
        raise UsageError("one of --scenario or --preset is required")
    overrides = {
        key: getattr(args, key)
        for key in ("trials", "seed")
        if getattr(args, key, None) is not None
    }
    return scenario_from_doc({**sc.doc, **overrides}) if overrides else sc


def cmd_timing(args) -> int:
    from . import spacetime

    c = 1.0 if args.c_units else spacetime.SPEED_OF_LIGHT
    v = spacetime.parse_speed(args.v, c)
    v_bb_equiv = spacetime.equivalent_vbb(v, c)
    v_bb = v_bb_equiv if args.v_bb is None else spacetime.parse_speed(args.v_bb, c)
    for holds, message in (
        (math.isfinite(args.L), f"--L must be finite, got {args.L!r}"),
        (math.isfinite(args.dt), f"--dt must be finite, got {args.dt!r}"),
        (args.L > 0.0, f"L must be > 0, got {args.L!r}"),
        (args.dt >= 0.0, f"dt must be >= 0, got {args.dt!r}"),
        (args.v_bb is not None or v > c, f"--v must exceed c unless --v-bb is given, got {v!r}"),
        (0.0 <= v_bb < c, f"v_bb must be in [0, c), got {v_bb!r}"),
    ):
        if not holds:
            raise ValueError(message)
    fsc = spacetime.finite_speed_cut(args.L, args.dt, v)
    # At the exact v_bb = c**2/v, dt c**2 < v_bb L is v dt < L itself: with
    # --v-bb omitted, before-before is the finite-speed verdict by construction.
    bb = fsc if args.v_bb is None else spacetime.before_before(args.L, args.dt, v_bb, c)
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
    from .spacetime import TIMING_RULES, pair_timing

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
    from .spacetime import coordination_map

    sc = _resolve_scenario(args)
    off = args.off_pair
    if sc.parties != 3:
        raise ValueError("signal needs a tripartite scenario")
    if sc.model.kind == "mixture":
        raise ValueError("signal needs a model with a static coordination map")
    target = born_behavior(sc.state, sc.settings)
    cmap = coordination_map(sc.model, sc.geometry)
    off_pairs = [pair for pair, state in cmap.items() if state == "OFF"]
    if off is None and len(off_pairs) > 1:
        raise ValueError(
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
        raise UsageError("--p needs --model mixture")
    if args.model == "mixture":
        from .spacetime import ModelConfig

        try:
            ModelConfig(kind="mixture", p=args.p)
        except ValueError as exc:
            raise UsageError(f"--model mixture needs --p: {exc}") from None
    if args.trials is None:
        return None
    from .presets import scenario_doc
    from .scenario import scenario_from_doc

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
        raise UsageError(f"--n must be in 2..{inequality.MAX_CHAIN_N}")
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


def _parse_event(text: str, flag: str) -> list[float]:
    parts = text.split(",")
    if len(parts) not in (2, 3):
        raise UsageError(f"{flag} must look like 't,x' or 't,x,y'")
    try:
        numbers = [float(part) for part in parts]
    except ValueError:
        raise UsageError(f"{flag} must contain numbers") from None
    return numbers


def cmd_point_d(args) -> int:
    from .spacetime import SPEED_OF_LIGHT, Event, find_point_d, in_future_lightcone

    if args.scenario or args.preset:
        if args.c_units or any(e is not None for e in (args.a, args.b, args.c)):
            raise UsageError(
                "--a, --b, --c and --c-units cannot be combined with --scenario/--preset"
            )
        sc = _resolve_scenario(args)
        if sc.parties != 3:
            raise ValueError("point-d needs three devices")
        a, b, c_ev = sc.geometry.events
        c = sc.geometry.c
    elif args.a and args.b and args.c:
        a, b, c_ev = (Event(*_parse_event(getattr(args, k), f"--{k}")) for k in "abc")
        c = 1.0 if args.c_units else SPEED_OF_LIGHT
    else:
        raise UsageError("give --scenario/--preset or all of --a, --b, --c")
    point = find_point_d(a, b, c_ev, c=c)
    out = {
        "schema": "bellsim-pointd-1",
        "found": point is not None,
        "point": None,
        "advantage_seconds": None,
        "predicates": None,
    }
    if point is not None:
        d, out["advantage_seconds"] = point
        out["point"] = {"t": d.t, "x": d.x, "y": d.y}
        out["predicates"] = {
            "inside_b_cone": in_future_lightcone(b, d, c=c),
            "inside_c_cone": in_future_lightcone(c_ev, d, c=c),
            "outside_a_cone": not in_future_lightcone(a, d, c=c),
        }
    _emit(out, args.out, "point_d.json")
    return EXIT_OK


def cmd_preset(args) -> int:
    from .presets import PRESETS, get_preset

    # The preset parser defaults every sampling flag to None, so these were given.
    given = [
        f"--{key}"
        for key in ("trials", "seed", "workers", "format")
        if getattr(args, key) is not None
    ]
    if args.action == "list":
        if args.name is not None:
            raise UsageError("preset list takes no name")
        if given:
            raise UsageError(f"preset list takes no {', '.join(given)}")
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
        raise UsageError("preset run needs a preset name")
    preset = get_preset(args.name)
    args.scenario = None
    args.preset = preset.name
    if preset.pipeline == "signal":
        if given:
            raise UsageError(f"signal preset {preset.name} takes no {', '.join(given)}")
        args.off_pair = None
        return cmd_signal(args)
    args.workers = 1 if args.workers is None else args.workers
    args.format = args.format or "csv"
    return cmd_simulate(args)


def cmd_validate(args) -> int:
    from .scenario import ScenarioError, load_scenario

    try:
        load_scenario(args.file)
    except ScenarioError as exc:
        payload = {"ok": False, "errors": [e.as_dict() for e in exc.errors]}
        sys.stderr.write(_json_text(payload))
        return EXIT_SCHEMA
    sys.stdout.write(_json_text({"ok": True}))
    return EXIT_OK


def build_parser(command: str | None = None) -> _Parser:
    """The parser with only the subparser that `command` names, or with
    all of them when it names none, so help and errors list every name."""
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

    def timing(p):
        p.add_argument("--L", type=float, required=True, help="separation in meters")
        p.add_argument("--dt", type=float, default=0.0, help="arrival gap in seconds")
        p.add_argument("--v", required=True, help="influence speed (m/s or e.g. '100000c')")
        p.add_argument("--v-bb", default=None, help="recession speed (default c**2/v)")
        p.add_argument("--c-units", action="store_true", help="set c = 1")
        p.add_argument("--out", default=None)

    def chsh(p):
        add_common(p, model=True)

    def chain(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--local-bound", action="store_true", help="report the local bound")
        p.add_argument("--quantum", action="store_true", help="report the quantum optimum")
        add_common(p, model=True)

    def simulate(p):
        add_common(p, scenario=True, sampling=True)

    def signal(p):
        add_common(p, scenario=True)
        p.add_argument("--off-pair", type=cut_pair, default=None, help="receiver pair, e.g. '1,2'")

    def point_d(p):
        add_common(p, scenario=True)
        p.add_argument("--a", default=None, help="event 't,x[,y]' for the sender")
        p.add_argument("--b", default=None, help="event 't,x[,y]' for receiver B")
        p.add_argument("--c", default=None, help="event 't,x[,y]' for receiver C")
        p.add_argument("--c-units", action="store_true", help="set c = 1")

    def preset(p):
        p.add_argument("action", choices=("list", "run"))
        p.add_argument("name", nargs="?", default=None)
        add_common(p, sampling=True)
        p.set_defaults(workers=None, format=None)

    def validate(p):
        p.add_argument("file")

    commands = {
        "timing": ("evaluate the timing criteria", cmd_timing, timing),
        "chsh": ("CHSH numbers and optional sampling", cmd_chsh, chsh),
        "chain": ("chained-inequality numbers and sampling", cmd_chain, chain),
        "simulate": ("sample a scenario to CSV or JSON plus summary", cmd_simulate, simulate),
        "signal": ("marginal-shift report for a tripartite scenario", cmd_signal, signal),
        "point-d": ("point-D construction for three events", cmd_point_d, point_d),
        "preset": ("list shipped presets or run one", cmd_preset, preset),
        "validate": ("check a scenario file against the schema", cmd_validate, validate),
    }
    for name in [command] if command in commands else commands:
        help_text, func, add_arguments = commands[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        add_arguments(p)
    return parser


def _failure(exc: Exception) -> tuple[int, dict]:
    """The failure contract: the exit status and stderr document for exc.

    ScenarioError is checked before ValueError, its base class; any
    exception not named here is still a JSON error, never a traceback.
    """
    from .scenario import ScenarioError

    if isinstance(exc, ScenarioError):
        errors = [e.as_dict() for e in exc.errors]
        message = "scenario failed validation"
        return EXIT_SCHEMA, {"error": {"code": "schema", "message": message, "errors": errors}}
    for kind, status, code in (
        (UsageError, EXIT_SCHEMA, "usage"),
        (OSError, EXIT_ERROR, "io"),
        (ValueError, EXIT_ERROR, "invalid"),
    ):
        if isinstance(exc, kind):
            return status, {"error": {"code": code, "message": str(exc)}}
    return EXIT_ERROR, {"error": {"code": "internal", "message": f"{type(exc).__name__}: {exc}"}}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        return args.func(args)
    except Exception as exc:  # BaseExceptions (Ctrl-C, --help's SystemExit) pass through
        status, payload = _failure(exc)
        sys.stderr.write(_json_text(payload))
        return status


if __name__ == "__main__":
    sys.exit(main())
