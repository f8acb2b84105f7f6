"""The shipped presets, pinned.

Each preset's document, description and pipeline are compared against
SHA-256 hashes recorded before the presets were built from one
scenario-document builder.  The golden CLI runs override --trials and
--seed, so this is the only check on the trials and seeds the presets
ship with.
"""

import hashlib
import json

from bellsim.presets import PRESETS


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: name -> (pipeline, SHA-256 of json.dumps(doc, sort_keys=True),
#: SHA-256 of the description), in the order of PRESETS.
PINNED = {
    "fig1-detection": (
        "signal",
        "9a455d790c6c2be269a430030062aa0bdce581cf6ed0b8f2649b23ec39880c56",
        "46cf0e6aa1e50f4b6f85b6427b9bb433356e50e37c9d9a7287e538ab8d984a63",
    ),
    "fig2a": (
        "signal",
        "f28b9f7f9504bd2e7df14f38c416648dea462ddca5f87e1f23995211128cc735",
        "51ddc11c0459e82b2a55d8449bb2ad7e58b66aefb999c46901892a8dcd6e7343",
    ),
    "fig2b": (
        "signal",
        "2ae23091a5b11c2a932d6fee8cd2006c6ab86670641e0fde213a35daf0075464",
        "5bde8461ecb8b0a42123d41de6cfda15a415eb7a2f372d54a7a8413d1c8005fc",
    ),
    "before-before": (
        "simulate",
        "28dce796d253548df09ba6c695676fa94ca219459eed9348230441495f1a98fe",
        "c7eb7a2de23087a4560b9499967c03b678f4bfe94c5868f1bbe7d49457d0c0a7",
    ),
    "finite-speed-1e5c": (
        "simulate",
        "0236e5cd8821b08ac4c3158a5cca6c0603ce18ec19e16403c6b1c41ddfc3b7d4",
        "d34c0dad9ea83d8c6fa0ebd4c5f7c964ad92fad02ebb43b8e7debb0b3f2e4f13",
    ),
    "mixture-chain": (
        "simulate",
        "88a542b36a45266aeab72f55861abec438f275832c142ea1aa127704306d9c06",
        "c2f00d18c236eca437a08c284819ea8b6ca20f32722ab3084f9cade60c20fe29",
    ),
}


def test_presets_match_the_recorded_documents():
    assert list(PRESETS) == list(PINNED)
    got = {
        name: (
            p.pipeline,
            sha256(json.dumps(p.doc, sort_keys=True)),
            sha256(p.description),
        )
        for name, p in PRESETS.items()
    }
    assert got == PINNED
    assert all(p.name == p.doc["name"] == name for name, p in PRESETS.items())


def containers(node):
    """Every list and dict in a JSON document, the document included."""
    if isinstance(node, (list, dict)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from containers(child)


def test_no_two_presets_share_a_nested_object():
    # A caller that edits one preset's document must not edit another's.
    owner = {}
    for name, p in PRESETS.items():
        for node in containers(p.doc):
            other = owner.setdefault(id(node), name)
            assert other == name, f"{name} shares {node!r} with {other}"
