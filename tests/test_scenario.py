import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bellsim.cli import main
from bellsim.presets import PRESETS
from bellsim.scenario import ScenarioError, scenario_from_doc

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
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", str(path)])
    if constructs:
        assert (code, out.getvalue(), err.getvalue()) == (0, '{\n  "ok": true\n}\n', "")
        return
    assert code == 2, err.getvalue()
    assert out.getvalue() == ""
    report = json.loads(err.getvalue())
    assert report["ok"] is False and report["errors"]
    for error in report["errors"]:
        assert error["path"].startswith("/") and error["message"]
