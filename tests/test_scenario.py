import copy

import pytest

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
