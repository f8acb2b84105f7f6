"""Reference work of fixed size, timed between operations to gauge machine speed.

The 2-vCPU virtual machine this benchmark was built on changes speed by
tens of percent over minutes, and the work of every workload slows and
speeds up with fresh-memory, small-object, JSON and LP work done in the
same process.
This module holds such work; it never changes and never touches bellsim,
so a change to the program cannot move it.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.optimize import linprog

_RNG = np.random.default_rng(0)
_A = _RNG.random((60, 100))
_B = _A @ _RNG.random(100)


def reference_work() -> None:
    records = [
        {"trial": i, "settings": [i % 2, 1, 0], "outcomes": (1, -1, 1), "coordination": {"0-1": "ON", "1-2": "OFF"}}
        for i in range(5000)
    ]
    json.dumps({"records": records}, sort_keys=True, indent=2)
    pages = bytearray(8 << 20)
    pages[::4096] = b"\x01" * len(pages[::4096])
    "\n".join(f"{i},{i % 4},{i % 3},,1,-1,,ON,," for i in range(10000))
    linprog(np.zeros(100), A_eq=_A, b_eq=_B, bounds=(0, 1), method="highs")
