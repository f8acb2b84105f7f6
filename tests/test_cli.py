"""End-to-end checks of the command-line interface.

Most tests drive bellsim.cli.main in process and capture stdout and
stderr with capsys; one subprocess test covers the module entry point.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bellsim
from bellsim.cli import UsageError, _failure, build_parser, main
from bellsim.hvmodels import UnsupportedConfigurationError
from bellsim.presets import PRESETS, get_preset
from bellsim.scenario import ScenarioError, SchemaError


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scenario(tmp_path, mutate=None):
    doc = json.loads(json.dumps(get_preset("before-before").doc))
    if mutate is not None:
        mutate(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def test_timing_equivalence(capsys):
    code, out, err = run_cli(["timing", "--v", "100000c", "--L", "30000"], capsys)
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert abs(doc["v_bb_equivalent"] - 2997.92458) <= 1e-6
    assert doc["finite_speed_cut"] is True
    assert doc["before_before"] is True
    assert doc["criteria_agree"] is True


def test_timing_late_arrival_turns_both_on(capsys):
    code, out, _ = run_cli(
        ["timing", "--v", "100000c", "--L", "30000", "--dt", "1e-6"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["finite_speed_cut"] is False
    assert doc["before_before"] is False
    assert doc["criteria_agree"] is True


def test_timing_criteria_agree_at_a_rounding_tie(capsys):
    """dt is one float below L/v, so v dt < L holds exactly, while in floats
    the before-before bound (v_bb / c**2) L rounds down to dt.  With --v-bb
    omitted both criteria are that one exact inequality."""
    argv = ["timing", "--v", "938.8809398100537c", "--L", "44949.65698780902"]
    code, out, _ = run_cli(argv + ["--dt", "1.5969641119393885e-07"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["finite_speed_cut"], doc["before_before"], doc["criteria_agree"]) == (True,) * 3


#: Stands for the path of an existing regular file.
A_FILE = "<file>"
#: Stands for the path of an output directory that does not exist yet.
OUT_DIR = "<out>"

#: Events whose point D beats light from A by more than the largest double.
POINT_D_PAST_THE_LARGEST_DOUBLE = [
    "point-d", "--c-units", "--a=1e308,0", "--b=-1e308,1", "--c=-1e308,2"
]

#: The start of the error message of some bad argvs below; the rest of the
#: JSON range error's wording differs between Python versions.
BAD_ARGV_MESSAGES = {
    ("timing", "--v", "100c", "--L", "0"): "L must be > 0",
    ("timing", "--v", "100c", "--L", "1", "--dt", "-1"): "dt must be >= 0",
    ("timing", "--v", "100c", "--L", "1", "--v-bb", "1c"): "v_bb must be in [0, c)",
    ("timing", "--v", "0", "--L", "1"): "v must be > 0",
    ("timing", "--v", "1e8", "--L", "1"): "--v must exceed c unless --v-bb is given",
    (*POINT_D_PAST_THE_LARGEST_DOUBLE, "--out", OUT_DIR): (
        "Out of range float values are not JSON compliant"
    ),
}


def simulate_with_outputs(key, name):
    """simulate into OUT_DIR from a placeholder that stands for a scenario
    file: the before-before preset with outputs.key = name."""
    return ["simulate", "--scenario", f"<outputs {key}={name}>", "--out", OUT_DIR]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["timing", "--v", "infc", "--L", "30000"], 1),
        (["timing", "--v", "1e400", "--L", "30000"], 1),
        (["timing", "--v", "1e300c", "--L", "30000"], 1),
        (["timing", "--v", "100c", "--L", "30000", "--v-bb", "nan"], 1),
        (["signal", "--preset", "fig2b", "--trials", "5"], 2),
        (["point-d", "--preset", "fig2b", "--seed", "1"], 2),
        (["timing", "--v", "100c", "--L", "inf"], 1),
        (["timing", "--v", "100c", "--L", "30000", "--dt", "inf"], 1),
        (["preset", "run", "mixture-chain", "--trials", "100", "--out", A_FILE], 1),
        (["preset", "run", "mixture-chain", "--trials", "100", "--out", A_FILE + "/sub"], 1),
        (["simulate", "--preset", "before-before", "--trials", "10", "--workers", "0"], 2),
        (["chsh", "--trials", "10", "--workers", "-1"], 2),
        (["preset", "run", "mixture-chain", "--trials", "10", "--workers", "0"], 2),
        (["chsh", "--trials", "100", "--p", "0.5"], 2),
        (["chsh", "--model", "mixture"], 2),
        (["chain", "--n", "3", "--trials", "100", "--model", "mixture"], 2),
        (["signal", "--preset", "fig2a", "--off-pair", "1,1"], 2),
        (["signal", "--preset", "fig2a", "--off-pair", "0,3"], 2),
        (["signal", "--preset", "fig2a", "--off-pair", "1,2,3"], 2),
        (["signal", "--preset", "fig2a", "--off-pair", "a,b"], 2),
        (["chsh", "--trials", "-3"], 2),
        (["chain", "--n", "3", "--trials", "0"], 2),
        (["simulate", "--preset", "before-before", "--trials", "0"], 2),
        (["simulate", "--scenario", "run.json", "--preset", "fig2b"], 2),
        (["signal", "--preset", "fig2a", "--scenario", "run.json"], 2),
        (["point-d", "--preset", "fig2b", "--c-units"], 2),
        (["point-d", "--preset", "fig2b", "--a", "0,0"], 2),
        (["point-d", "--scenario", "run.json", "--b", "0,10"], 2),
        (["point-d", "--preset", "fig2b", "--c", "0,20"], 2),
        (["preset", "list", "fig2b"], 2),
        (["preset", "list", "--trials", "5", "--workers", "3", "--format", "json"], 2),
        (["preset", "run", "fig2b", "--trials", "7", "--workers", "2", "--format", "json"], 2),
        (["preset", "run", "fig2b", "--seed", "3"], 2),
        (["preset", "run", "fig2b", "--workers", "1"], 2),
        (["preset", "run", "fig2b", "--format", "csv"], 2),
        (["chsh", "--model", "mixture", "--p", "nan"], 2),
        (["chsh", "--model", "mixture", "--p", "2", "--trials", "5"], 2),
        (["chsh", "--model", "mixture", "--p", "-0.5"], 2),
        (["chsh", "--model", "mixture", "--p", "nan", "--trials", "5"], 2),
        (["chain", "--n", "3", "--model", "mixture", "--p", "-0.5"], 2),
        (["chain", "--n", "3", "--model", "mixture", "--p", "inf", "--trials", "5"], 2),
        (["chain", "--n", "3", "--model", "mixture", "--p", "2"], 2),
        (["chain", "--n", "3", "--model", "mixture", "--p", "nan", "--trials", "5"], 2),
        (["chsh", "--trials", "3", "--seed", "-1"], 2),
        (["chsh", "--trials", "3", "--seed", "18446744073709551616"], 2),
        (["chain", "--n", "3", "--trials", "3", "--seed", "-1"], 2),
        (["simulate", "--preset", "before-before", "--trials", "3", "--seed", "18446744073709551616"], 2),
        (["preset", "run", "mixture-chain", "--trials", "3", "--seed", "-1"], 2),
        (["timing", "--v", "100c", "--L", "5", "--out", A_FILE + "/sub"], 1),
        (["chsh", "--out", A_FILE + "/sub"], 1),
        (["chsh", "--trials", "10", "--out", A_FILE + "/sub"], 1),
        (["chain", "--n", "3", "--out", A_FILE + "/sub"], 1),
        (["signal", "--preset", "fig2b", "--out", A_FILE + "/sub"], 1),
        (["point-d", "--preset", "fig2b", "--out", A_FILE + "/sub"], 1),
        (["point-d", "--a", "0,0", "--b", "1,10", "--c", "1,20", "--out", A_FILE], 1),
        (simulate_with_outputs("runs_csv", "summary.json"), 2),
        (simulate_with_outputs("runs_csv", "../escape.csv"), 2),
        (simulate_with_outputs("runs_csv", "a\u0000b"), 2),
        (simulate_with_outputs("runs_csv", "."), 2),
        (simulate_with_outputs("runs_csv", "sub/x.csv"), 2),
        (simulate_with_outputs("summary_json", "runs.json"), 2),
        (simulate_with_outputs("summary_json", ".."), 2),
        (["point-d", "--c-units", "--a=0,1.5e308", "--b=0,-1e308", "--c=0,-5e307"], 1),
        # D is found at x = -9.5e307, but light from A needs 1.95e308 to reach it.
        (["point-d", "--c-units", "--a=0,1e308", "--b=0,-1e308", "--c=0,-9e307"], 1),
        (["timing", "--v", "100c", "--L", "0"], 1),
        (["timing", "--v", "100c", "--L", "1", "--dt", "-1"], 1),
        (["timing", "--v", "100c", "--L", "1", "--v-bb", "1c"], 1),
        (["timing", "--v", "0", "--L", "1"], 1),
        (["timing", "--v", "1e8", "--L", "1"], 1),
        # D's advantage, about 2e308 seconds, overflows to inf: no JSON number.
        (POINT_D_PAST_THE_LARGEST_DOUBLE + ["--out", OUT_DIR], 1),
    ],
)
def test_bad_argv_is_json_error_without_traceback(argv, code, tmp_path, capsys):
    """Usage errors and bad output names in a scenario (schema) exit 2; bad
    values (invalid) and unusable --out paths (io) exit 1.  A failed run
    prints nothing on stdout, not even a result it computed before its
    --out write failed, and writes no file.  Where BAD_ARGV_MESSAGES names
    argv, the error message starts with its entry."""
    message = BAD_ARGV_MESSAGES.get(tuple(argv), "")
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    scenario = next((arg for arg in argv if arg.startswith("<outputs ")), None)
    if scenario is not None:
        key, name = scenario[len("<outputs ") : -1].split("=", 1)
        path = write_scenario(tmp_path, lambda doc: doc.update(outputs={key: name}))
        argv = [str(path) if arg == scenario else arg for arg in argv]
    made = sorted(os.listdir(tmp_path))
    unusable_out = any(A_FILE in arg for arg in argv)
    error = "schema" if scenario else "usage" if code == 2 else "io" if unusable_out else "invalid"
    argv = [arg.replace(A_FILE, str(a_file)).replace(OUT_DIR, str(tmp_path / "out")) for arg in argv]
    got, out, err = run_cli(argv, capsys)
    assert got == code
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"]["code"] == error
    assert json.loads(err)["error"]["message"].startswith(message)
    assert a_file.read_text() == ""
    assert sorted(os.listdir(tmp_path)) == made


#: Values that no flag may turn into a traceback or an internal error.
HOSTILE = ["nan", "inf", "-inf", "1e400", "infc", "-1", "0", "18446744073709551616", "2**64", "0,0", ""]


def values(*good):
    """A good value half the time, else a hostile one."""
    return st.sampled_from(good) | st.sampled_from(HOSTILE)


#: Every --trials value is at most 1000 or refused, so no draw samples more.
TRIALS = st.sampled_from(["1", "7", "1000"]) | st.sampled_from(
    ["0", "-1", "nan", "inf", "1e400", "2**64", "0,0", ""]
)
#: Placeholders for paths under tmp_path, substituted in the test body.
OUT = {"--out": st.sampled_from(["<out>", A_FILE, A_FILE + "/sub"])}
SOURCE = {
    "--scenario": values("<bipartite>", "<tripartite>", A_FILE, "<missing>"),
    "--preset": values(*PRESETS),
}
SAMPLED = {
    "--trials": TRIALS,
    "--seed": values("5", "18446744073709551615"),
    "--workers": values("1", "2"),
}
MODEL = {"--model": values("quantum", "local", "mixture"), "--p": values("0.25", "1")}
FORMAT = {"--format": values("csv", "json")}
#: Each subcommand's flags: a flag's value strategy, or None for a switch.
FLAGS = {
    "timing": {
        "--L": values("30000"),
        "--dt": values("1e-6"),
        "--v": values("100000c", "3e8", "100c"),
        "--v-bb": values("2997.9"),
        "--c-units": None,
        **OUT,
    },
    "chsh": {**OUT, **SAMPLED, **MODEL},
    "chain": {
        "--n": values("2", "4", "12", "13"),
        "--local-bound": None,
        "--quantum": None,
        **OUT,
        **SAMPLED,
        **MODEL,
    },
    "simulate": {**OUT, **SOURCE, **SAMPLED, **FORMAT},
    "signal": {**OUT, **SOURCE, "--off-pair": values("1,2", "0,2", "0,1")},
    "point-d": {
        "--a": values("0,0", "0,1e200", "1,-1e308"),
        "--b": values("0,10", "0,10,0", "0,-1e308", "1e200,0"),
        "--c": values("0,20", "0,1e307", "-1e308,1e308"),
        "--c-units": None,
        **OUT,
        **SOURCE,
    },
    "preset": {**OUT, **SAMPLED, **FORMAT},
    "validate": {},
}
#: Flags a subcommand needs, drawn first and each left out one time in four.
REQUIRED = {"timing": ["--L", "--v"], "chain": ["--n"]}
POSITIONALS = {
    "preset": [values("list", "run"), values(*PRESETS)],
    "validate": [values("<bipartite>", "<tripartite>", A_FILE, "<missing>")],
}


def reject_constant(name):
    raise AssertionError(f"{name} is not a JSON number")


@st.composite
def argvs(draw):
    """A subcommand, some of its positionals, then some of its flags.  A
    command that samples a scenario ends with a --trials draw, which wins,
    and with --out unless one was drawn, since runs go to the working
    directory by default."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    positionals = POSITIONALS.get(command, [])
    argv = [command] + [draw(s) for s in positionals[: draw(st.integers(0, len(positionals)))]]
    flags = FLAGS[command]
    names = [flag for flag in REQUIRED.get(command, []) if draw(st.integers(0, 3))]
    names += draw(st.lists(st.sampled_from(sorted(flags)), max_size=4)) if flags else []
    for flag in names:
        argv += [flag] if flags[flag] is None else [flag, draw(flags[flag])]
    samples_preset = command == "preset" and len(argv) > 2 and argv[2] in PRESETS
    if command == "simulate" or samples_preset and PRESETS[argv[2]].pipeline == "simulate":
        argv += ["--trials", draw(TRIALS)] + ([] if "--out" in argv else ["--out", "<out>"])
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argvs())
# Events whose separation squares overflow a double.
@example(argv=["point-d", "--c-units", "--a", "0,1e308", "--b", "1,-1e308", "--c", "0,1e307"])
@example(argv=["point-d", "--c-units", "--a", "0,1.5e308", "--b", "0,-1e308", "--c", "0,-5e307"])
# Results past the largest double: an equivalent speed, and D's advantage.
@example(argv=["timing", "--v", "1c", "--L", "1", "--v-bb", "1e-300"])
@example(argv=POINT_D_PAST_THE_LARGEST_DOUBLE)
def test_fuzzed_argv_exits_with_json(argv, tmp_path):
    """Any argv built from the subcommands' flags, the preset names and
    hostile values exits 0 with strict JSON (no Infinity or NaN) on
    stdout, or 1 or 2 with nothing on stdout and one JSON error on stderr
    that is not an internal one."""
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    files = {"<out>": tmp_path / "out", "<missing>": tmp_path / "missing.json"}
    for name, preset in (("<bipartite>", "before-before"), ("<tripartite>", "fig2b")):
        doc = {**get_preset(preset).doc, "trials": 100}
        files[name] = tmp_path / f"{preset}.json"
        files[name].write_text(json.dumps(doc))
    argv = [str(files.get(arg, arg)).replace(A_FILE, str(a_file)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=reject_constant)
        assert err.getvalue() == ""
    else:
        assert code in (1, 2)
        assert out.getvalue() == ""
        report = json.loads(err.getvalue())
        if "error" in report:
            assert report["error"]["code"] in ("usage", "schema", "invalid", "io"), report
        else:
            assert argv[0] == "validate" and report["ok"] is False
    assert a_file.read_text() == ""


def write_lp_scenario(tmp_path, target):
    """fig2b's layout and model with a custom state and settings whose
    target no spectator-outcome model fits, so ``signal`` solves an LP."""
    amplitudes, angles = target
    doc = json.loads(json.dumps(get_preset("fig2b").doc))
    doc.update(state={"kind": "custom", "amplitudes": amplitudes}, settings=angles)
    path = tmp_path / "lp.json"
    path.write_text(json.dumps(doc))
    return path


def test_failed_lp_is_json_error_without_traceback(monkeypatch, capsys, tmp_path, lp_needing_target):
    import bellsim.signaling

    class Failed:
        status = 4
        message = "numerical difficulties"
        x = None

    monkeypatch.setattr(bellsim.signaling, "linprog", lambda *a, **k: Failed())
    scenario = write_lp_scenario(tmp_path, lp_needing_target)
    code, out, err = run_cli(["signal", "--scenario", str(scenario)], capsys)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    doc = json.loads(err)
    assert doc["error"]["code"] == "internal"
    assert "LP failed with status 4" in doc["error"]["message"]


@pytest.mark.parametrize("preset", ["fig1-detection", "fig2a", "fig2b"])
def test_signal_presets_solve_no_lp(preset, no_lp, capsys):
    """Each signal preset's witness comes from a spectator-outcome model."""
    code, out, err = run_cli(["signal", "--preset", preset], capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["feasible"] is True and doc["witness_max_residual"] <= 1e-9


def test_timing_zero_recession_speed_has_no_equivalent(capsys):
    code, out, err = run_cli(
        ["timing", "--v", "100c", "--L", "30000", "--v-bb", "0"], capsys
    )
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["inputs"]["v_bb"] == 0.0
    assert doc["v_equivalent"] is None
    assert doc["before_before"] is False


def test_chain_local_bound(capsys):
    code, out, _ = run_cli(["chain", "--n", "4", "--local-bound"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["local_bound"] == 6.0
    assert "quantum_optimum" not in doc


def test_chain_quantum_matches_closed_form(capsys):
    code, out, _ = run_cli(["chain", "--n", "4", "--quantum"], capsys)
    assert code == 0
    doc = json.loads(out)
    closed = 8.0 * math.cos(math.pi / 8.0)
    assert abs(doc["quantum_optimum"] - closed) <= 1e-6
    assert abs(doc["closed_form"] - closed) <= 1e-12


def test_chain_n_out_of_range(capsys):
    code, out, err = run_cli(["chain", "--n", "1", "--local-bound"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["code"] == "usage"


def test_chain_p_requires_mixture_model(capsys):
    code, _, err = run_cli(["chain", "--n", "2", "--p", "0.5"], capsys)
    assert code == 2
    assert json.loads(err)["error"]["code"] == "usage"


def test_simulate_beyond_the_chain_limit_skips_the_chain_block(tmp_path, capsys):
    """A bipartite scenario with 13 settings per side is valid; its summary
    has no chain or CHSH block, since chains stop at MAX_CHAIN_N = 12."""

    def wide(doc):
        doc["model"] = {"kind": "quantum"}
        doc["settings"] = [[0.1 * k for k in range(13)], [0.1 * k + 0.05 for k in range(13)]]

    path = write_scenario(tmp_path, wide)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        ["simulate", "--scenario", str(path), "--trials", "26", "--out", str(out_dir)], capsys
    )
    assert code == 0, err
    assert json.loads(out)["derived"] == {}
    rows = (out_dir / "runs.csv").read_text().splitlines()
    assert len(rows) == 1 + 26


def test_chsh_exact_numbers(capsys):
    code, out, _ = run_cli(["chsh"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["local_bound"] == 2.0
    assert abs(doc["tsirelson"] - 2.0 * math.sqrt(2.0)) <= 1e-12
    assert abs(doc["quantum_optimum"] - 2.0 * math.sqrt(2.0)) <= 1e-6


def test_chsh_sampled_tracks_prediction(capsys):
    code, out, _ = run_cli(["chsh", "--trials", "20000", "--seed", "7"], capsys)
    assert code == 0
    emp = json.loads(out)["empirical"]
    assert emp["predicted_value"] > 2.7
    assert abs(emp["empirical_value"] - emp["predicted_value"]) <= 5.0 * emp["se"]


def test_setting_tuples_without_trials_report_no_mean(capsys):
    """With fewer trials than setting tuples the last tuples are never
    sampled: their mean is null, not 0.0, and so is any value built on them."""
    code, out, _ = run_cli(["chsh", "--trials", "1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [(c["count"], c["mean"]) for c in doc["correlators"]][1:] == [(0, None)] * 3
    assert doc["correlators"][0]["mean"] in (1.0, -1.0)
    assert doc["empirical"]["empirical_value"] is None
    assert doc["empirical"]["se"] is None
    code, out, _ = run_cli(["chain", "--n", "3", "--trials", "5"], capsys)
    assert code == 0
    emp = json.loads(out)["empirical"]
    assert emp["empirical_value"] is None
    assert emp["se"] is None
    assert emp["predicted_value"] > emp["local_bound"]


def test_usage_failure_is_json_on_stderr(capsys):
    code, out, err = run_cli(["timing", "--L", "5"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "usage"


@pytest.mark.parametrize(
    "exc, status, error",
    [
        (UsageError("bad flag"), 2, {"code": "usage", "message": "bad flag"}),
        (
            ScenarioError([SchemaError("/trials", "must be >= 1")]),
            2,
            {
                "code": "schema",
                "message": "scenario failed validation",
                "errors": [{"path": "/trials", "message": "must be >= 1"}],
            },
        ),
        (FileNotFoundError("no file"), 1, {"code": "io", "message": "no file"}),
        (ValueError("bad value"), 1, {"code": "invalid", "message": "bad value"}),
        (UnsupportedConfigurationError("no map"), 1, {"code": "invalid", "message": "no map"}),
        (RuntimeError("x"), 1, {"code": "internal", "message": "RuntimeError: x"}),
    ],
)
def test_failure_table(exc, status, error):
    """_failure alone decides each exception's exit status and error document."""
    assert _failure(exc) == (status, {"error": error})


def test_keyboard_interrupt_is_not_a_json_error(monkeypatch, capsys):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr("bellsim.cli.cmd_timing", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["timing", "--v", "100000c", "--L", "30000"])
    assert capsys.readouterr().err == ""


def exit_and_output(argv, capsys):
    """main's exit status (or --help's SystemExit code), stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        *(
            [name, "--help"]
            for name in ("timing", "chsh", "chain", "simulate", "signal", "point-d", "preset", "validate")
        ),
        ["-h"],
        ["--help"],
        [],
        ["bogus"],
        ["simul"],
        ["--"],
        ["timing", "--v", "100000c"],
        ["simulate", "--scenario", "x.json", "--preset", "fig2b"],
        ["chsh", "--trials", "0"],
        ["chsh", "--seed", "-1"],
        ["signal", "--preset", "fig2b", "--off-pair", "1,1"],
        ["chain", "--n", "4", "extra"],
        ["timing", "--v", "100000c", "--L", "30000"],
    ],
)
def test_one_command_parser_matches_the_full_parser(argv, monkeypatch, capsys):
    """main builds only argv[0]'s subparser when argv[0] names one; the
    exit status, stdout and stderr are those of the parser with every
    subcommand, for help, usage errors and a run alike."""
    one = exit_and_output(argv, capsys)
    build_full = bellsim.cli.build_parser
    monkeypatch.setattr("bellsim.cli.build_parser", lambda command=None: build_full())
    assert exit_and_output(argv, capsys) == one


def test_build_parser_adds_only_the_named_subcommand():
    assert build_parser("chain").format_usage() == "usage: bellsim [-h] {chain} ...\n"
    assert build_parser("simul").format_usage() == build_parser().format_usage()


def test_validate_ok(tmp_path, capsys):
    path = write_scenario(tmp_path)
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 0
    assert json.loads(out) == {"ok": True}
    assert err == ""


def test_validate_collects_all_pointer_paths(tmp_path, capsys):
    def corrupt(doc):
        doc["trials"] = 0
        doc["geometry"]["boosts"][1]["beta"] = 1.5

    path = write_scenario(tmp_path, corrupt)
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["ok"] is False
    paths = {e["path"] for e in doc["errors"]}
    assert "/trials" in paths
    assert "/geometry/boosts/1/beta" in paths


#: An integer too large for a float, where the schema wants a number.
HUGE = 10**400


def _set(*path_and_value):
    """A mutation that sets the field at path (under the document) to value."""
    *path, key, value = path_and_value

    def mutate(doc):
        for part in path:
            doc = doc[part]
        doc[key] = value

    return mutate


def assert_one_schema_error(path, pointer, message, tmp_path, capsys):
    """validate reports the field alone, at its JSON pointer, and simulate
    refuses the file as a schema error too (exit 2)."""
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["errors"] == [{"path": pointer, "message": message}]
    code, out, err = run_cli(
        ["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")], capsys
    )
    assert code == 2
    assert json.loads(err)["error"]["code"] == "schema"


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc["geometry"].pop("boosts"),
        _set("geometry", "boosts", None),
    ],
    ids=["missing", "null"],
)
def test_geometry_without_boosts_is_a_schema_error(mutate, tmp_path, capsys):
    path = write_scenario(tmp_path, mutate)
    assert_one_schema_error(path, "/geometry/boosts", "required", tmp_path, capsys)


@pytest.mark.parametrize(
    "mutate, pointer, message",
    [
        (_set("settings", 0, 1, HUGE), "/settings/0/1", "must be a finite number"),
        (_set("geometry", "events", 0, "t", HUGE), "/geometry/events/0/t", "must be a finite number"),
        (_set("geometry", "events", 1, "x", -HUGE), "/geometry/events/1/x", "must be a finite number"),
        (_set("geometry", "events", 0, "y", HUGE), "/geometry/events/0/y", "must be a finite number"),
        (
            _set("geometry", "boosts", 1, "beta", HUGE),
            "/geometry/boosts/1/beta",
            "must satisfy |beta| < 1",
        ),
        (
            _set("geometry", "critical_distance", HUGE),
            "/geometry/critical_distance",
            "must be a positive number",
        ),
        (_set("geometry", "c", HUGE), "/geometry/c", "must be a positive number"),
        (
            _set("model", {"kind": "finite_speed", "v": HUGE}),
            "/model/v",
            "speed must be a finite number",
        ),
        (_set("model", {"kind": "mixture", "p": HUGE}), "/model/p", "must be a number in [0, 1]"),
        (
            _set("state", {"kind": "custom", "amplitudes": [0, [HUGE, 0], 0, 0]}),
            "/state/amplitudes/1",
            "must be a number or an [re, im] pair",
        ),
    ],
    ids=["angle", "t", "x", "y", "beta", "critical-distance", "c", "v", "p", "amplitude"],
)
def test_oversized_integer_is_one_schema_error(mutate, pointer, message, tmp_path, capsys):
    path = write_scenario(tmp_path, mutate)
    assert_one_schema_error(path, pointer, message, tmp_path, capsys)


def test_non_finite_speed_is_a_schema_error(tmp_path, capsys):
    def infinite_speed(doc):
        doc["model"] = {"kind": "finite_speed", "v": "infc"}

    path = write_scenario(tmp_path, infinite_speed)
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert [e["path"] for e in json.loads(err)["errors"]] == ["/model/v"]
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        ["simulate", "--scenario", str(path), "--out", str(out_dir)], capsys
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "schema"
    assert not out_dir.exists()


def test_validate_rejects_broken_json(tmp_path, capsys):
    # Python's json refuses an integer of more than 4300 digits, and
    # nesting deeper than the recursion limit.
    path = tmp_path / "broken.json"
    for text in ("{not json", '{"trials": ' + "9" * 5000 + "}", "[" * 10**5 + "]" * 10**5):
        path.write_text(text)
        code, _, err = run_cli(["validate", str(path)], capsys)
        assert code == 2
        (error,) = json.loads(err)["errors"]
        assert error["path"] == "/" and error["message"].startswith("not valid JSON")


def test_non_utf8_scenario_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert out == ""
    (error,) = json.loads(err)["errors"]
    assert error["path"] == "/" and error["message"].startswith("not valid JSON")
    out_dir = tmp_path / "out"
    for argv in (
        ["simulate", "--scenario", str(path), "--out", str(out_dir)],
        ["signal", "--scenario", str(path)],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        doc = json.loads(err)["error"]
        assert doc["code"] == "schema"
        assert [e["path"] for e in doc["errors"]] == ["/"]
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "amplitudes, why",
    [
        ([1e200, 0, 0, 0], "overflows"),
        ([1e155, 1e155, 0, 0], "overflows"),
        ([[0, 1e200], 0, 0, 0], "overflows"),
        ([1e-200, 1e-200, 0, 0], "is zero or underflows"),
        ([0, 0, 0, 0], "is zero or underflows"),
        ([1e-160, 1e-160, 0, 0], "is zero or underflows"),
    ],
)
def test_amplitude_norm_out_of_range_is_a_schema_error(tmp_path, capsys, amplitudes, why):
    def custom_state(doc):
        doc["state"] = {"kind": "custom", "amplitudes": amplitudes}

    path = write_scenario(tmp_path, custom_state)
    code, out, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert out == ""
    (error,) = json.loads(err)["errors"]
    assert error["path"] == "/state/amplitudes"
    assert f"norm {why}" in error["message"]
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        ["simulate", "--scenario", str(path), "--out", str(out_dir)], capsys
    )
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "schema"
    assert not out_dir.exists()


def test_small_but_normalizable_amplitudes_are_accepted(tmp_path, capsys):
    def custom_state(doc):
        doc["state"] = {"kind": "custom", "amplitudes": [1e-150, 0, 0, -1e-150]}

    code, out, _ = run_cli(["validate", str(write_scenario(tmp_path, custom_state))], capsys)
    assert code == 0
    assert json.loads(out) == {"ok": True}


def test_missing_scenario_file(capsys):
    code, _, err = run_cli(["simulate", "--scenario", "/no/such/file.json"], capsys)
    assert code == 1
    assert json.loads(err)["error"]["code"] == "io"


def test_preset_list_names(capsys):
    code, out, _ = run_cli(["preset", "list"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert [r["name"] for r in rows] == [
        "fig1-detection",
        "fig2a",
        "fig2b",
        "before-before",
        "finite-speed-1e5c",
        "mixture-chain",
    ]
    assert all(r["pipeline"] in ("simulate", "signal") for r in rows)


def test_preset_run_unknown_name(capsys):
    code, _, err = run_cli(["preset", "run", "nope"], capsys)
    assert code == 1
    assert "unknown preset" in json.loads(err)["error"]["message"]


def test_preset_run_before_before_is_deterministic(tmp_path, capsys):
    texts = []
    for label, workers in (("one", "1"), ("four", "4")):
        out_dir = tmp_path / label
        code, out, _ = run_cli(
            ["preset", "run", "before-before", "--out", str(out_dir),
             "--workers", workers],
            capsys,
        )
        assert code == 0
        texts.append(
            (
                out,
                (out_dir / "runs.csv").read_text(),
                (out_dir / "summary.json").read_text(),
            )
        )
    assert texts[0] == texts[1]
    summary = json.loads(texts[0][2])
    assert summary["coordination"] == {"0-1": "OFF"}
    chsh = summary["derived"]["chsh"]
    assert chsh["empirical_value"] <= 2.0 + 5.0 * chsh["se"]
    first_lines = texts[0][1].splitlines()[:2]
    assert first_lines[0] == "trial,x,y,z,a,b,c,coord_ab,coord_ac,coord_bc"
    assert first_lines[1].startswith("0,")


def test_simulate_json_run_format(tmp_path, capsys):
    path = write_scenario(tmp_path)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        ["simulate", "--scenario", str(path), "--trials", "64", "--seed", "3",
         "--format", "json", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    runs = json.loads((out_dir / "runs.json").read_text())
    assert runs["schema"] == "bellsim-runs-1"
    assert len(runs["records"]) == 64
    rec = runs["records"][0]
    assert set(rec) == {"trial", "settings", "outcomes", "coordination"}
    assert rec["coordination"] == {"0-1": "OFF"}
    assert set(rec["outcomes"]) <= {1, -1}
    summary = json.loads(out)
    assert summary["scenario"]["trials"] == 64


def simulate_into(out_dir, fmt, seed, capsys):
    """The runs file and summary bytes of a 300-trial before-before run."""
    argv = ["simulate", "--preset", "before-before", "--trials", "300", "--seed", str(seed)]
    code, _, _ = run_cli(argv + ["--format", fmt, "--out", str(out_dir)], capsys)
    assert code == 0
    return {name: (out_dir / name).read_bytes() for name in (f"runs.{fmt}", "summary.json")}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_rerun_creates_each_output_anew(fmt, tmp_path, capsys):
    """A rerun into the same --out writes what a run into a fresh directory
    writes, into new files: a hard link to an earlier output keeps the
    earlier bytes."""
    out_dir = tmp_path / "out"
    first = simulate_into(out_dir, fmt, 1, capsys)
    for name in first:
        os.link(out_dir / name, tmp_path / f"old-{name}")
    rerun = simulate_into(out_dir, fmt, 2, capsys)
    assert rerun == simulate_into(tmp_path / "fresh", fmt, 2, capsys)
    for name, data in first.items():
        assert (tmp_path / f"old-{name}").read_bytes() == data != rerun[name]


def test_symlinked_output_is_written_through(tmp_path, capsys):
    """An output path that is a symlink stays one, and its target gets the run."""
    target = tmp_path / "elsewhere.csv"
    target.write_text("old\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "runs.csv").symlink_to(target)
    run = simulate_into(out_dir, "csv", 1, capsys)
    assert (out_dir / "runs.csv").is_symlink()
    assert target.read_bytes() == run["runs.csv"]
    assert run == simulate_into(tmp_path / "fresh", "csv", 1, capsys)


def test_output_that_cannot_be_unlinked_is_truncated(tmp_path, monkeypatch, capsys):
    """When unlinking the old output fails, the run truncates and rewrites
    it in place, so a hard link to it sees the new bytes."""
    out_dir = tmp_path / "out"
    simulate_into(out_dir, "csv", 1, capsys)
    os.link(out_dir / "runs.csv", tmp_path / "old.csv")

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(os, "unlink", refuse)
    rerun = simulate_into(out_dir, "csv", 2, capsys)
    assert (tmp_path / "old.csv").read_bytes() == rerun["runs.csv"]
    assert rerun == simulate_into(tmp_path / "fresh", "csv", 2, capsys)


def test_simulate_timing_block(tmp_path, capsys):
    out_dir = tmp_path / "fs"
    code, out, _ = run_cli(
        ["preset", "run", "finite-speed-1e5c", "--out", str(out_dir),
         "--trials", "1000"],
        capsys,
    )
    assert code == 0
    timing = json.loads(out)["timing"]["0-1"]
    assert timing["finite_speed_cut"] is True
    assert abs(timing["v_bb_equivalent"] - 2997.92458) <= 1e-6


def test_mixture_summary_blocks(tmp_path, capsys):
    out_dir = tmp_path / "mx"
    code, out, _ = run_cli(
        ["preset", "run", "mixture-chain", "--out", str(out_dir),
         "--trials", "20000"],
        capsys,
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["coordination"]["nonlocal"] == {"0-1": "ON"}
    assert summary["coordination"]["local"] == {"0-1": "OFF"}
    mix = summary["derived"]["mixture"]
    assert mix["p"] == 0.25
    chain = summary["derived"]["chain"]
    assert abs(chain["empirical_value"] - chain["predicted_value"]) <= 5.0 * chain["se"]


def test_signal_fig2b_report(tmp_path, capsys):
    out_dir = tmp_path / "f2b"
    code, out, _ = run_cli(
        ["preset", "run", "fig2b", "--out", str(out_dir)], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["off_pair"] == [1, 2]
    assert report["spectator"] == 0
    assert report["feasible"] is True
    assert abs(report["signaling_distance"] - 0.5) <= 1e-9
    assert abs(report["bias"] - 0.25) <= 1e-9
    assert report["channel"] == "binary"
    assert report["advantage_seconds"] > 0.0
    assert report["point_d"] is not None
    assert all(
        abs(v) <= 1e-12 for v in report["receiver_alone_distances"].values()
    )
    assert (out_dir / "report.json").read_text() == out


def test_signal_fig1_has_no_point_d(tmp_path, capsys):
    out_dir = tmp_path / "f1"
    code, out, _ = run_cli(
        ["preset", "run", "fig1-detection", "--out", str(out_dir)], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["advantage_seconds"] is None
    assert report["point_d"] is None
    assert report["channel"] == "binary"


def test_signal_all_on_shows_no_channel(capsys):
    code, out, _ = run_cli(["signal", "--preset", "fig2a"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["signaling_distance"] <= 1e-12
    assert report["channel"] == "none"
    assert report["feasible"] is True


def test_signal_off_pair_override(capsys):
    code, out, _ = run_cli(
        ["signal", "--preset", "fig2a", "--off-pair", "0,2"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["off_pair"] == [0, 2]
    assert report["spectator"] == 1


def test_signal_rejects_bipartite(capsys):
    code, _, err = run_cli(["signal", "--preset", "before-before"], capsys)
    assert code == 1
    assert json.loads(err)["error"]["code"] == "invalid"


def test_point_d_explicit_events(capsys):
    code, out, _ = run_cli(
        ["point-d", "--a", "0,0", "--b", "0,10", "--c", "0,20", "--c-units"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert abs(doc["advantage_seconds"] - 10.0) <= 1e-9
    assert doc["point"] == {"t": 5.0, "x": 15.0, "y": 0.0}
    assert doc["predicates"] == {
        "inside_b_cone": True,
        "inside_c_cone": True,
        "outside_a_cone": True,
    }


def test_point_d_predicates_hold_at_a_small_scale(capsys):
    """The lightlike tolerance is relative to the squares compared: the
    layout above shrunk to x = 0, 1e-6, 2e-6 keeps every predicate."""
    code, out, _ = run_cli(["point-d", "--c-units", "--a=0,0", "--b=0,1e-6", "--c=0,2e-6"], capsys)
    assert code == 0
    assert json.loads(out)["predicates"] == {
        "inside_b_cone": True,
        "inside_c_cone": True,
        "outside_a_cone": True,
    }


def test_point_d_near_the_largest_double(capsys):
    """Separations whose squares overflow a double still classify: D lies
    in both cones and outside A's."""
    code, out, _ = run_cli(
        ["point-d", "--c-units", "--a=0,1e308", "--b=0,-1e308", "--c=0,1e307"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["point"] == {"t": 5.5e307, "x": -4.5e307, "y": 0.0}
    assert doc["predicates"] == {
        "inside_b_cone": True,
        "inside_c_cone": True,
        "outside_a_cone": True,
    }


@pytest.mark.parametrize(
    "events, point",
    [
        (["--a=0,5e307", "--b=0,-1e308", "--c=0,-9e307"], (5.000000000000008e306, -9.5e307)),
        (["--a=9e307,1e300", "--b=9e307,0", "--c=9e307,0"], (9e307 + 0.5e300, 0.0)),
    ],
)
def test_point_d_midpoint_of_a_sum_past_the_largest_double(events, point, capsys):
    """D is placed at a midpoint, of B and C in space or of the two-event
    time window, whose ends sum past the largest double, yet the midpoint
    itself is representable."""
    code, out, _ = run_cli(["point-d", "--c-units", *events], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["point"] == {"t": point[0], "x": point[1], "y": 0.0}
    assert all(doc["predicates"].values())


def test_point_d_absent_when_sender_sits_between(capsys):
    code, out, _ = run_cli(
        ["point-d", "--a", "0,15", "--b", "0,10", "--c", "0,20", "--c-units"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is False
    assert doc["point"] is None
    assert doc["advantage_seconds"] is None


def child_env():
    """The environment of a child process that imports the same bellsim, installed or not."""
    package_root = os.path.dirname(os.path.dirname(bellsim.__file__))
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bellsim", "chain", "--n", "4", "--local-bound"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["local_bound"] == 6.0


#: Runs main(argv) with its output discarded, then prints the exit code
#: and whether scipy.optimize, scipy.sparse and numpy were loaded.
IMPORT_PROBE = """
import contextlib, io, sys
from bellsim.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
probed = ("scipy.optimize", "scipy.sparse", "numpy", "dataclasses", "inspect",
          "bellsim.scenario", "bellsim.presets")
print(code, *(name in sys.modules for name in probed))
"""


def probe_imports(argv, tmp_path, lp_needing_target):
    """Runs IMPORT_PROBE on argv in a fresh process; placeholders in argv
    name scenario files written under tmp_path."""

    def corrupt(doc):
        doc["trials"] = 0

    def custom_state(doc):
        doc["state"] = {"kind": "custom", "amplitudes": [0, 1, [0, -1], 0]}

    invalid = write_scenario(tmp_path, corrupt).rename(tmp_path / "invalid.json")
    custom = write_scenario(tmp_path, custom_state).rename(tmp_path / "custom.json")
    files = {
        "<valid>": str(write_scenario(tmp_path)),
        "<invalid>": str(invalid),
        "<custom>": str(custom),
        "<out>": str(tmp_path / "out"),
        "<lp>": str(write_lp_scenario(tmp_path, lp_needing_target)),
    }
    argv = [files.get(arg, arg) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.stderr == ""
    return proc.stdout.split()


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        (["timing", "--v", "100000c", "--L", "30000"], 0, False),
        (["validate", "<valid>"], 0, False),
        (["validate", "<invalid>"], 2, False),
        (["chsh"], 0, False),
        (["chsh", "--trials", "1000"], 0, False),
        (["chain", "--n", "4"], 0, False),
        (["point-d", "--a", "0,0", "--b", "0,10", "--c", "0,20", "--c-units"], 0, False),
        (["preset", "list"], 0, False),
        (["preset", "run", "before-before", "--trials", "1000", "--out", "<out>"], 0, False),
        (["signal", "--scenario", "<lp>"], 0, True),
        (["signal", "--preset", "fig2a"], 0, False),
    ],
)
def test_only_lp_commands_load_scipy_optimize(argv, code, loaded, tmp_path, lp_needing_target):
    """scipy.optimize, which loads scipy.sparse, is imported on the first
    LP, so a fresh process loads neither unless it solves one: not for
    ``signal`` on a target that a spectator-outcome model fits."""
    out = probe_imports(argv, tmp_path, lp_needing_target)
    assert out[:3] == [str(code), str(loaded), str(loaded)]


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        (["timing", "--v", "100000c", "--L", "30000"], 0, False),
        (["validate", "<valid>"], 0, False),
        (["validate", "<invalid>"], 2, False),
        (["point-d", "--a", "0,0", "--b", "0,10", "--c", "0,20", "--c-units"], 0, False),
        (["preset", "list"], 0, False),
        (["validate", "<custom>"], 0, True),
        (["chsh"], 0, False),
        (["chain", "--n", "4"], 0, False),
        (["preset", "run", "before-before", "--trials", "1000", "--out", "<out>"], 0, True),
        (["signal", "--preset", "fig2a"], 0, True),
        (["timing", "--v", "100000c", "--L", "30000", "--out", "<out>"], 0, False),
        (["point-d", "--preset", "fig2b", "--out", "<out>"], 0, False),
        (["chain", "--n", "12"], 0, False),
        (["chain", "--n", "3", "--local-bound"], 0, False),
        (["chain", "--n", "5", "--quantum"], 0, False),
        (["chsh", "--trials", "1000"], 0, True),
        (["chain", "--n", "4", "--trials", "1000"], 0, True),
        (["point-d", "--c-units", "--a=0,5e307", "--b=0,-1e308", "--c=0,-9e307"], 0, False),
        (["bogus"], 2, False),
    ],
)
def test_only_numeric_commands_load_numpy(argv, code, loaded, tmp_path, lp_needing_target):
    """numpy is loaded only by the commands that compute with it: not for
    the timing rules, point D, the preset list, the chsh and chain numbers
    (a table and an integer enumeration) without --trials, or validating
    a file whose state is a shipped one (a custom state's norm needs
    numpy), and not for writing a --out file."""
    out = probe_imports(argv, tmp_path, lp_needing_target)
    assert [out[0], out[3]] == [str(code), str(loaded)]


@pytest.mark.parametrize(
    "argv, code, scenario, presets",
    [
        (["timing", "--v", "100000c", "--L", "30000"], 0, False, False),
        (["point-d", "--a", "0,0", "--b", "0,10", "--c", "0,20", "--c-units"], 0, False, False),
        (["point-d", "--c-units", "--a=0,5e307", "--b=0,-1e308", "--c=0,-9e307"], 0, False, False),
        (["chsh"], 0, False, False),
        (["chain", "--n", "4"], 0, False, False),
        (["chain", "--n", "12"], 0, False, False),
        (["chain", "--n", "3", "--local-bound"], 0, False, False),
        (["chain", "--n", "5", "--quantum"], 0, False, False),
        (["validate", "<valid>"], 0, True, False),
        (["validate", "<invalid>"], 2, True, False),
        (["preset", "list"], 0, True, True),
        (["point-d", "--preset", "fig2b", "--out", "<out>"], 0, True, True),
        (["timing", "--v", "100000c", "--L", "30000", "--out", "<out>"], 0, True, False),
        (["bogus"], 2, True, False),
    ],
)
def test_numpy_free_commands_load_only_what_they_run(
    argv, code, scenario, presets, tmp_path, lp_needing_target
):
    """No numpy-free command loads dataclasses, or inspect with it: the
    package's records are namedtuples.  bellsim.scenario comes only with
    a scenario file, a preset or --out (create_output lives there), and
    with the failure report, which checks for a ScenarioError;
    bellsim.presets only with a preset."""
    out = probe_imports(argv, tmp_path, lp_needing_target)
    assert out == [str(code), "False", "False", "False", "False", "False", str(scenario), str(presets)]
