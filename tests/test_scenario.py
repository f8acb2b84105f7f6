import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bellsim.cli import main
from bellsim.presets import PRESETS
from bellsim.scenario import DEFAULT_OUTPUTS, ScenarioError, scenario_from_doc

DELETE = object()
MUTANTS = (DELETE, None, "x", 2.5, [], {})


def key_paths(node, path=()):
    """Every key path into a JSON document's objects and lists."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from key_paths(child, path + (key,))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_mutated_preset_doc_loads_or_raises_scenario_error(name):
    # Deleting or retyping any one field of a valid document either still
    # gives a scenario or a schema error, never a crash in the loader.
    doc = PRESETS[name].doc
    for path in key_paths(doc):
        for mutant in MUTANTS:
            mutated = copy.deepcopy(doc)
            parent = mutated
            for key in path[:-1]:
                parent = parent[key]
            if mutant is DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = mutant
            try:
                scenario_from_doc(mutated)
            except ScenarioError:
                pass
            except Exception as exc:
                what = "deleted" if mutant is DELETE else f"set to {mutant!r}"
                pytest.fail(f"/{'/'.join(map(str, path))} {what}: {exc!r}")


def _custom_state_doc():
    doc = copy.deepcopy(PRESETS["fig2b"].doc)
    doc["state"] = {"kind": "custom", "amplitudes": [0.5, [0, 0.5], 0, 0, 0, 0, -0.5, [0.5, 0]]}
    return doc


#: Valid documents to mutate: every preset, and one with a custom state.
VALID_DOCS = [PRESETS[name].doc for name in sorted(PRESETS)] + [_custom_state_doc()]

JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(alphabet="cx 1.", max_size=4),
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    # Too large for a float, past the seed range, and norms that overflow
    # or underflow in double precision.
    st.sampled_from([10**400, -(10**400), 2**64, 1e200, 1e-160, 1e-200, "100c", "infc"]),
)
JSON_VALUES = st.one_of(
    JSON_SCALARS,
    st.lists(JSON_SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(["t", "x", "beta", "kind", "v", "p"]), JSON_SCALARS, max_size=2),
)


@st.composite
def mutated_docs(draw):
    """A valid document after one to three edits, each of which drops a
    key or list entry, replaces a value, or grows or shrinks a list."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(key_paths(doc))
        if not paths:
            break
        *path, key = draw(st.sampled_from(paths))
        parent = doc
        for part in path:
            parent = parent[part]
        action = draw(st.sampled_from(["drop", "replace", "grow", "shrink"]))
        value = parent[key]
        if action == "drop":
            del parent[key]
        elif action == "replace" or not isinstance(value, list) or not value:
            parent[key] = draw(JSON_VALUES)
        elif action == "grow":
            value.append(copy.deepcopy(value[-1]))
        else:
            value.pop()
    return doc


def validate(doc, tmp_path):
    """Exit code, stdout and stderr of ``bellsim validate`` on doc."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", str(path)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_docs())
def test_validate_agrees_with_construction(doc, tmp_path):
    """validate exits 0 exactly when the document constructs a scenario
    (whose state then builds too), and otherwise exits 2 with one JSON
    pointer per error, never with an internal error."""
    try:
        scenario_from_doc(copy.deepcopy(doc)).state
    except ScenarioError:
        constructs = False
    else:
        constructs = True
    code, out, err = validate(doc, tmp_path)
    if constructs:
        assert (code, out, err) == (0, '{\n  "ok": true\n}\n', "")
        return
    assert code == 2, err
    assert out == ""
    report = json.loads(err)
    assert report["ok"] is False and report["errors"]
    for error in report["errors"]:
        assert error["path"].startswith("/") and error["message"]


def with_outputs(outputs):
    return {**PRESETS["before-before"].doc, "outputs": outputs}


@pytest.mark.parametrize(
    "outputs, pointer",
    [
        ({"runs_csv": "summary.json"}, "/outputs/runs_csv"),
        ({"runs_json": "summary.json"}, "/outputs/runs_json"),
        ({"summary_json": "runs.csv"}, "/outputs/summary_json"),
        ({"summary_json": "runs.json"}, "/outputs/summary_json"),
        ({"runs_csv": "out", "summary_json": "out"}, "/outputs/runs_csv"),
        ({"runs_csv": "../escape.csv"}, "/outputs/runs_csv"),
        ({"runs_csv": "/tmp/abs.csv"}, "/outputs/runs_csv"),
        ({"runs_json": "sub/x.json"}, "/outputs/runs_json"),
        ({"summary_json": "a\u0000b"}, "/outputs/summary_json"),
        ({"runs_csv": "."}, "/outputs/runs_csv"),
        ({"report_json": ".."}, "/outputs/report_json"),
    ],
)
def test_output_names_must_be_plain_and_distinct(outputs, pointer):
    """An output name is one file name inside --out (no separator, NUL, '.'
    or '..'), and with the defaults filled in the summary's name differs
    from both runs files' names."""
    with pytest.raises(ScenarioError) as info:
        scenario_from_doc(with_outputs(outputs))
    assert [error.path for error in info.value.errors] == [pointer]


@pytest.mark.parametrize(
    "outputs",
    [
        {},
        {"runs_csv": "summary.json", "summary_json": "run summary.json"},
        {"runs_json": "...", "report_json": "summary.json"},
        {"summary_json": "runs"},
    ],
)
def test_plain_distinct_output_names_fill_in_the_defaults(outputs):
    assert scenario_from_doc(with_outputs(outputs)).outputs == {**DEFAULT_OUTPUTS, **outputs}


def with_model(**changes):
    """The mixture-chain document with its model's fields changed; None drops one."""
    doc = copy.deepcopy(PRESETS["mixture-chain"].doc)
    doc["model"].update(changes)
    doc["model"] = {key: value for key, value in doc["model"].items() if value is not None}
    return doc


@pytest.mark.parametrize(
    "changes, pointer",
    [
        ({"schedule": "block"}, "/model/schedule"),
        ({"block_length": 7}, "/model/block_length"),
        ({"kind": "quantum", "p": None}, "/model/schedule"),
    ],
    ids=("block-schedule", "block-length", "schedule-without-mixture"),
)
def test_mixture_schedule_is_only_the_coin(changes, pointer, tmp_path):
    """A mixture picks its branch by a per-trial coin: any other schedule,
    a block length, or a schedule on another kind is a schema error."""
    code, out, err = validate(with_model(**changes), tmp_path)
    assert (code, out) == (2, "")
    assert [error["path"] for error in json.loads(err)["errors"]] == [pointer]


@pytest.mark.parametrize("schedule", ("coin", None), ids=("coin", "absent"))
def test_coin_mixture_validates(schedule, tmp_path):
    doc = with_model(schedule=schedule)
    assert validate(doc, tmp_path) == (0, '{\n  "ok": true\n}\n', "")
    assert scenario_from_doc(doc).model.p == 0.25
