"""Test-side builders and reference computations that no command,
benchmark or package function needs."""

import itertools
import math

import numpy as np

from bellsim.inequality import ChainOptimum, ChainSpec, chain_spec, chain_value
from bellsim.quantum import Behavior, born_behavior, correlator, make_singlet


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


def chsh_value(b: Behavior, a: int, a2: int, b1: int, b2: int) -> float:
    """S = E(a,b1) + E(a,b2) + E(a2,b1) - E(a2,b2)."""
    if b.parties != 2:
        raise ValueError(f"need a bipartite behavior, got {b.parties} parties")
    return (
        correlator(b, (a, b1))
        + correlator(b, (a, b2))
        + correlator(b, (a2, b1))
        - correlator(b, (a2, b2))
    )


def local_bound_by_matrix(spec: ChainSpec) -> float:
    """The chain's local bound as one integer matrix product.

    Row k of the sign matrix is Alice's +-1 assignment for bit pattern k,
    and Bob's best answer per column is the sign of the column's sum.
    """
    n = spec.n
    m = np.zeros((n, n))
    for (x, y), sign in spec.terms:
        m[x, y] += sign
    alphas = 2 * (np.arange(2**n)[:, None] >> np.arange(n) & 1) - 1
    return float(np.abs(alphas @ m).sum(axis=1).max())


def _closed_form_chain(angles_a: list[float], angles_b: list[float], spec: ChainSpec) -> float:
    return sum(
        -sign * math.cos(angles_a[x] - angles_b[y]) for (x, y), sign in spec.terms
    )


def _ascend(angles_a: list[float], angles_b: list[float], spec: ChainSpec) -> float:
    """Coordinate ascent with exact single-angle updates.

    With all other angles fixed, the objective in one angle theta is
    A cos(theta) + B sin(theta) + const, maximized at atan2(B, A).
    Partner lists per setting are small (each setting is in two terms).
    """
    partners_a: list[list[tuple[int, int]]] = [[] for _ in range(spec.n)]
    partners_b: list[list[tuple[int, int]]] = [[] for _ in range(spec.n)]
    for (x, y), sign in spec.terms:
        partners_a[x].append((y, sign))
        partners_b[y].append((x, sign))
    value = _closed_form_chain(angles_a, angles_b, spec)
    for _ in range(500):
        for x in range(spec.n):
            amp_c = sum(-s * math.cos(angles_b[y]) for y, s in partners_a[x])
            amp_s = sum(-s * math.sin(angles_b[y]) for y, s in partners_a[x])
            angles_a[x] = math.atan2(amp_s, amp_c)
        for y in range(spec.n):
            amp_c = sum(-s * math.cos(angles_a[x]) for x, s in partners_b[y])
            amp_s = sum(-s * math.sin(angles_a[x]) for x, s in partners_b[y])
            angles_b[y] = math.atan2(amp_s, amp_c)
        new_value = _closed_form_chain(angles_a, angles_b, spec)
        if new_value - value < 1e-10:
            return new_value
        value = new_value
    return value


def searched_chain_optimum(n: int) -> ChainOptimum:
    """Maximize the chain value of the singlet over all 2N angles.

    The search that inequality.quantum_chain_optimum's table records:
    32 seeded random starts of coordinate ascent; the inner loop scores
    candidates with the singlet correlator -cos(delta) and the returned
    value is re-evaluated through chain_value on the Born behavior at
    the winning angles, so the reported number comes from the full
    measurement pipeline.
    """
    spec = chain_spec(n)
    rng = np.random.default_rng(1000 + n)
    best_value = -math.inf
    best: tuple[list[float], list[float]] | None = None
    for _ in range(32):
        angles_a = list(rng.uniform(0.0, 2.0 * math.pi, size=n))
        angles_b = list(rng.uniform(0.0, 2.0 * math.pi, size=n))
        value = _ascend(angles_a, angles_b, spec)
        if value > best_value:
            best_value = value
            best = (angles_a, angles_b)
    assert best is not None
    angles_a, angles_b = best
    behavior = born_behavior(make_singlet(), [angles_a, angles_b])
    return ChainOptimum(
        value=chain_value(behavior, spec),
        angles_a=tuple(angles_a),
        angles_b=tuple(angles_b),
    )
