"""Test-side builders that no command, benchmark or package function needs."""

import itertools

import numpy as np

from bellsim.quantum import Behavior


def behavior_from_json(obj: dict) -> Behavior:
    """The inverse of quantum.behavior_to_json."""
    return Behavior(
        parties=int(obj["parties"]),
        settings_per_party=tuple(obj["settings_per_party"]),
        table=np.asarray(obj["table"], dtype=np.float64),
    )


def pr_box_behavior() -> Behavior:
    """The PR box: a xor b = x and y in bit form, uniform marginals."""
    table = np.zeros((2, 2, 2, 2))
    for x, y, a, b in itertools.product((0, 1), repeat=4):
        if a ^ b == (x & y):
            table[x, y, a, b] = 0.5
    return Behavior(2, (2, 2), table)
