"""Exact quantum predictions for small projective-measurement experiments.

States are dense n-qubit vectors (n <= 4).  Party i measures the +-1
observable cos(theta) sigma_z + sin(theta) sigma_x, so all measurement
directions live in the x-z plane and the singlet correlator is
-cos(theta_a - theta_b).  The result of a measurement round is a
Behavior: the table P(outcomes | settings) with outcomes enumerated in
lexicographic order, +1 before -1 (outcome axis index 0 is +1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state of n qubits, 1 <= n <= 4."""

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 4:
            raise ValueError(f"qubit count must be in [1, 4], got {self.n}")
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (2**self.n,):
            raise ValueError(f"expected {2**self.n} amplitudes, got shape {amps.shape}")
        norm = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"state not normalized: |amps|^2 sums to {norm!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)


@dataclass(frozen=True, eq=False)
class Behavior:
    """Conditional probability table P(outcomes | settings).

    table has one leading axis per party for the setting index, then one
    trailing length-2 axis per party for the outcome (index 0 is +1,
    index 1 is -1).  Every entry must be finite, and every conditional
    distribution non-negative and sum to 1 within 1e-12.
    """

    parties: int
    settings_per_party: tuple[int, ...]
    table: np.ndarray

    def __post_init__(self) -> None:
        if self.parties < 1:
            raise ValueError(f"parties must be >= 1, got {self.parties}")
        spp = tuple(int(m) for m in self.settings_per_party)
        if len(spp) != self.parties or any(m < 1 for m in spp):
            raise ValueError(f"bad settings_per_party {self.settings_per_party!r}")
        table = np.asarray(self.table, dtype=np.float64)
        expected = spp + (2,) * self.parties
        if table.shape != expected:
            raise ValueError(f"table shape {table.shape} != {expected}")
        if not np.isfinite(table).all():
            raise ValueError("table has non-finite entries")
        if float(table.min()) < -1e-12:
            raise ValueError(f"negative probability {float(table.min())!r}")
        sums = table.sum(axis=tuple(range(self.parties, 2 * self.parties)))
        worst = float(np.max(np.abs(sums - 1.0)))
        if worst > 1e-12:
            raise ValueError(f"conditional distributions off by {worst!r} from 1")
        table.flags.writeable = False
        object.__setattr__(self, "settings_per_party", spp)
        object.__setattr__(self, "table", table)


def make_singlet() -> StateVector:
    """The two-qubit singlet (|01> - |10>)/sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    return StateVector(n=2, amps=np.array([0.0, s, -s, 0.0]))


def make_ghz3() -> StateVector:
    """The three-qubit GHZ state (|000> + |111>)/sqrt(2)."""
    amps = np.zeros(8)
    amps[0] = amps[7] = 1.0 / math.sqrt(2.0)
    return StateVector(n=3, amps=amps)


def state_from_amplitudes(amps: Iterable[complex]) -> StateVector:
    """Build a StateVector from raw amplitudes; length must be a power of two."""
    arr = np.asarray(list(amps), dtype=np.complex128)
    n = int(round(math.log2(arr.size))) if arr.size > 0 else 0
    if arr.size == 0 or 2**n != arr.size:
        raise ValueError(f"amplitude count {arr.size} is not a power of two")
    return StateVector(n=n, amps=arr)


def measurement_basis(theta: float) -> np.ndarray:
    """Rows are the eigenbras of cos(theta) sigma_z + sin(theta) sigma_x.

    Row 0 is the +1 eigenvector (cos(theta/2), sin(theta/2)); row 1 the
    -1 eigenvector (-sin(theta/2), cos(theta/2)).
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, s], [-s, c]])


def born_behavior(state: StateVector, settings: Sequence[Sequence[float]]) -> Behavior:
    """Measure each party at its listed angles and tabulate Born probabilities."""
    n = state.n
    if len(settings) != n:
        raise ValueError(f"state has {n} qubits but {len(settings)} parties given")
    angles = [tuple(float(t) for t in s) for s in settings]
    if any(len(a) == 0 for a in angles):
        raise ValueError("every party needs at least one setting")
    # One contraction per party with its stacked (setting, outcome, qubit)
    # bases; after party i the axes are the settings of parties 0..i, their
    # outcomes, then the qubits not yet measured.
    amp = state.amps.reshape((2,) * n)
    for i, party in enumerate(angles):
        bases = np.stack([measurement_basis(t) for t in party])
        amp = np.moveaxis(np.tensordot(bases, amp, axes=(2, 2 * i)), (0, 1), (i, 2 * i + 1))
    # Contiguous, so the renormalising sum adds in C order.
    table = np.ascontiguousarray(np.abs(amp) ** 2)
    # Rounding can leave sums a few ulp off 1; renormalize exactly.
    sums = table.sum(axis=tuple(range(n, 2 * n)), keepdims=True)
    table /= sums
    return Behavior(parties=n, settings_per_party=table.shape[:n], table=table)


def outcome_signs(parties: int) -> np.ndarray:
    """Array of outcome products over (2,)*parties, +1 at index 0 per axis."""
    signs = np.array([1.0, -1.0])
    out = signs
    for _ in range(parties - 1):
        out = np.multiply.outer(out, signs)
    return out


def correlator(b: Behavior, settings: Sequence[int]) -> float:
    """Expectation of the product of all outcomes at one setting tuple."""
    idx = _setting_index(b, settings)
    return float(np.sum(b.table[idx] * outcome_signs(b.parties)))


def _setting_index(b: Behavior, settings: Sequence[int]) -> tuple[int, ...]:
    if len(settings) != b.parties:
        raise IndexError(f"need {b.parties} setting indices, got {len(settings)}")
    idx = tuple(int(s) for s in settings)
    for i, (s, m) in enumerate(zip(idx, b.settings_per_party)):
        if not 0 <= s < m:
            raise IndexError(f"setting {s} out of range for party {i} (has {m})")
    return idx


def marginal(b: Behavior, subset: Sequence[int]) -> np.ndarray:
    """Marginal tables over ``subset``, one per complementary setting tuple.

    The family is returned unaveraged, so dependence on remote settings
    stays visible: one array whose axes are the complement's setting axes
    in party order, then the subset's setting and outcome axes, so
    ``marginal(b, subset)[k]`` is the subset's table at remote settings k.
    """
    sub = tuple(sorted(set(int(i) for i in subset)))
    if len(sub) != len(tuple(subset)):
        raise ValueError(f"duplicate parties in subset {tuple(subset)!r}")
    if not sub or len(sub) >= b.parties:
        raise ValueError("subset must be non-empty and proper")
    if sub[0] < 0 or sub[-1] >= b.parties:
        raise ValueError(f"subset {sub!r} out of range for {b.parties} parties")
    comp = tuple(i for i in range(b.parties) if i not in sub)
    summed = b.table.sum(axis=tuple(b.parties + i for i in comp))
    return np.moveaxis(summed, comp, tuple(range(len(comp))))


def no_signaling_defect(b: Behavior) -> float:
    """Largest deviation of any subset marginal across remote settings.

    Zero (up to float noise) for quantum and other no-signaling
    behaviors; the Behavior invariant computes this rather than assuming
    it.  The value is the max absolute probability difference between
    marginal tables of the same subset at different remote settings.
    """
    worst = 0.0
    for r in range(1, b.parties):
        for sub in itertools.combinations(range(b.parties), r):
            family = marginal(b, sub)
            worst = max(worst, float(np.max(np.abs(family - family[(0,) * (b.parties - r)]))))
    return worst


def behavior_to_json(b: Behavior) -> dict:
    """JSON-ready dict: parties, settings_per_party, nested table."""
    return {
        "parties": b.parties,
        "settings_per_party": list(b.settings_per_party),
        "table": b.table.tolist(),
    }
