"""Bell-inequality machinery: CHSH, the N-chain, and mixture analysis.

The chain inequality is handled in correlator form,

    E(a1,b1) + E(b1,a2) + E(a2,b2) + ... + E(aN,bN) - E(bN,a1),

with the local bound computed by enumerating deterministic strategies
rather than asserted from a remembered constant.  Quantum optima come
from a seeded multi-start coordinate ascent over measurement angles.
Mixture analysis covers models that are local with weight p and quantum
with weight 1-p, under the worst-case assumption that the local part
saturates the enumerated local bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .quantum import Behavior, born_behavior, correlator, make_singlet

Term = tuple[tuple[int, int], int]

# Local-bound enumeration stays exact and cheap through the largest chain
# the threshold scan visits.
MAX_CHAIN_N = 12


@dataclass(frozen=True)
class ChainSpec:
    """The 2N signed correlator terms of an N-chain.

    Each term is ((alice_setting, bob_setting), sign).  Exactly one sign
    is negative and every setting of either party appears in exactly two
    terms.
    """

    n: int
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"chain needs N >= 2, got {self.n}")
        if len(self.terms) != 2 * self.n:
            raise ValueError(f"chain N={self.n} needs {2 * self.n} terms")
        if sum(1 for _, sign in self.terms if sign == -1) != 1:
            raise ValueError("chain needs exactly one negative term")
        if any(sign not in (-1, 1) for _, sign in self.terms):
            raise ValueError("term signs must be +1 or -1")
        for party in (0, 1):
            counts = [0] * self.n
            for pair, _ in self.terms:
                if not 0 <= pair[party] < self.n:
                    raise ValueError(f"setting {pair[party]} out of range")
                counts[pair[party]] += 1
            if any(c != 2 for c in counts):
                raise ValueError("every setting must appear in exactly two terms")


def chain_spec(n: int) -> ChainSpec:
    """Canonical N-chain term list with the negative sign on E(bN, a1)."""
    terms: list[Term] = []
    for i in range(n):
        terms.append(((i, i), 1))
        if i + 1 < n:
            terms.append(((i + 1, i), 1))
    terms.append(((0, n - 1), -1))
    return ChainSpec(n=n, terms=tuple(terms))


def _check_weight(p: float) -> None:
    """The local weight p of a mixture lies in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"weight p must be in [0, 1], got {p!r}")


def _require_bipartite(b: Behavior) -> None:
    if b.parties != 2:
        raise ValueError(f"need a bipartite behavior, got {b.parties} parties")


def chsh_value(b: Behavior, a: int, a2: int, b1: int, b2: int) -> float:
    """S = E(a,b1) + E(a,b2) + E(a2,b1) - E(a2,b2)."""
    _require_bipartite(b)
    return (
        correlator(b, (a, b1))
        + correlator(b, (a, b2))
        + correlator(b, (a2, b1))
        - correlator(b, (a2, b2))
    )


def chain_value(b: Behavior, spec: ChainSpec) -> float:
    """Signed correlator sum of the chain terms."""
    _require_bipartite(b)
    if min(b.settings_per_party) < spec.n:
        raise ValueError(
            f"chain N={spec.n} needs {spec.n} settings per party, "
            f"behavior has {b.settings_per_party}"
        )
    return sum(sign * correlator(b, pair) for pair, sign in spec.terms)


def local_bound(spec: ChainSpec) -> float:
    """Max chain value over deterministic local strategies, by enumeration.

    Alice assignments are enumerated exhaustively; for each, the optimal
    Bob assignment is the sign choice per column, which is exact.
    """
    n = spec.n
    if n > MAX_CHAIN_N:
        raise ValueError(f"enumeration limited to N <= {MAX_CHAIN_N}, got {n}")
    m = np.zeros((n, n))
    for (x, y), sign in spec.terms:
        m[x, y] += sign
    # Row k holds Alice's +-1 assignment for bit pattern k; every score is a
    # small integer, so one matrix product gives them all exactly.
    alphas = 2 * (np.arange(2**n)[:, None] >> np.arange(n) & 1) - 1
    return float(np.abs(alphas @ m).sum(axis=1).max())


@dataclass(frozen=True)
class ChainOptimum:
    """Result of the quantum angle search for one chain size."""

    value: float
    angles_a: tuple[float, ...]
    angles_b: tuple[float, ...]


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


@functools.lru_cache(maxsize=None)
def quantum_chain_optimum(n: int) -> ChainOptimum:
    """Maximize the chain value of the singlet over all 2N angles.

    32 seeded random starts of coordinate ascent; the inner loop scores
    candidates with the singlet correlator -cos(delta) and the returned
    value is re-evaluated through chain_value on the Born behavior at
    the winning angles, so the reported number comes from the full
    measurement pipeline.
    """
    if not 2 <= n <= MAX_CHAIN_N:
        raise ValueError(f"chain optimum supports 2 <= N <= {MAX_CHAIN_N}, got {n}")
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


def mixture_max_value(p: float, n: int) -> float:
    """(1-p) Q_N + p L_N with the local part saturating the local bound."""
    _check_weight(p)
    q = quantum_chain_optimum(n).value
    lb = local_bound(chain_spec(n))
    return (1.0 - p) * q + p * lb


def mixture_deviation(p: float, n: int) -> float:
    """Guaranteed shortfall from the quantum optimum: p (Q_N - L_N)."""
    _check_weight(p)
    q = quantum_chain_optimum(n).value
    lb = local_bound(chain_spec(n))
    return p * (q - lb)


@dataclass(frozen=True)
class DetectionReport:
    """Smallest chain size whose deviation reaches epsilon, plus the sweep."""

    n: int | None
    deviations: tuple[tuple[int, float], ...]


def detection_threshold_N(p: float, epsilon: float) -> DetectionReport:
    """Scan N = 2..12 for mixture_deviation(p, N) >= epsilon.

    The full deviation sequence is reported so monotonicity can be
    inspected rather than assumed.  p = 0 never reaches any positive
    epsilon and reports n = None.
    """
    _check_weight(p)
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be > 0, got {epsilon!r}")
    deviations = tuple((n, mixture_deviation(p, n)) for n in range(2, MAX_CHAIN_N + 1))
    for n, dev in deviations:
        if dev >= epsilon:
            return DetectionReport(n=n, deviations=deviations)
    return DetectionReport(n=None, deviations=deviations)
