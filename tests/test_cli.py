"""End-to-end checks of the command-line interface.

Most tests drive bellsim.cli.main in process and capture stdout and
stderr with capsys; one subprocess test covers the module entry point.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import bellsim
from bellsim.cli import main
from bellsim.presets import get_preset


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


#: Stands for the path of an existing regular file.
A_FILE = "<file>"


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
    ],
)
def test_bad_argv_is_json_error_without_traceback(argv, code, tmp_path, capsys):
    """Usage errors exit 2; bad values (invalid) and unusable --out paths (io) exit 1."""
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    error = "usage" if code == 2 else "io" if "--out" in argv else "invalid"
    argv = [arg.replace(A_FILE, str(a_file)) for arg in argv]
    got, out, err = run_cli(argv, capsys)
    assert got == code
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"]["code"] == error
    assert a_file.read_text() == ""


def test_failed_lp_is_json_error_without_traceback(monkeypatch, capsys):
    import bellsim.signaling

    class Failed:
        status = 4
        message = "numerical difficulties"
        x = None

    monkeypatch.setattr(bellsim.signaling, "linprog", lambda *a, **k: Failed())
    code, out, err = run_cli(["signal", "--preset", "fig2b"], capsys)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    doc = json.loads(err)
    assert doc["error"]["code"] == "internal"
    assert "LP failed with status 4" in doc["error"]["message"]


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


def test_usage_error_is_json_on_stderr(capsys):
    code, out, err = run_cli(["timing", "--L", "5"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "usage"


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
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(["validate", str(path)], capsys)
    assert code == 2
    assert json.loads(err)["ok"] is False


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
#: and whether scipy.optimize was loaded.
SCIPY_PROBE = """
import contextlib, io, sys
from bellsim.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "scipy.optimize" in sys.modules)
"""


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
        (["signal", "--preset", "fig2a"], 0, True),
    ],
)
def test_only_lp_commands_load_scipy_optimize(argv, code, loaded, tmp_path):
    """scipy.optimize is imported on the first LP, so a fresh process
    running any other command never loads it."""

    def corrupt(doc):
        doc["trials"] = 0

    invalid = write_scenario(tmp_path, corrupt).rename(tmp_path / "invalid.json")
    files = {
        "<valid>": str(write_scenario(tmp_path)),
        "<invalid>": str(invalid),
        "<out>": str(tmp_path / "out"),
    }
    argv = [files.get(arg, arg) for arg in argv]
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, *argv],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.stderr == ""
    assert proc.stdout.split() == [str(code), str(loaded)]
