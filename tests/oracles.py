"""Test-side builders and reference computations that no command,
benchmark or package function needs."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from dataclasses import dataclass

from bellsim.inequality import ChainOptimum, ChainSpec, chain_spec, chain_value
from bellsim.quantum import Behavior, born_behavior, correlator, make_singlet
from bellsim.signaling import RECHECK_TOL
from bellsim.spacetime import SPEED_OF_LIGHT, Boost, Event, _interval_squares


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


def lorentz_boost(e: Event, b: Boost, c: float = SPEED_OF_LIGHT) -> Event:
    """Transform an event into the frame moving at b.beta along +x.

    t' = gamma (t - beta x / c), x' = gamma (x - beta c t), y' = y.
    """
    g = 1.0 / math.sqrt(1.0 - b.beta * b.beta)
    return Event(
        t=g * (e.t - b.beta * e.x / c),
        x=g * (e.x - b.beta * c * e.t),
        y=e.y,
    )


def interval_squared(e1: Event, e2: Event, c: float = SPEED_OF_LIGHT) -> float:
    """Squared Minkowski interval c^2 dt^2 - dx^2 - dy^2 between two events."""
    time_sq, space_sq, unit = _interval_squares(e1, e2, c)
    return (time_sq - space_sq) * unit * unit


def device_frame_order(
    local: Event, remote: Event, device_boost: Boost, c: float = SPEED_OF_LIGHT
) -> str:
    """Temporal order of ``local`` relative to ``remote`` in the device frame,
    the oracle for the before-before rule.

    Returns "before" if the local event precedes the remote one after
    boosting both events by ``device_boost``, "after" if it follows, and
    "simultaneous" when the boosted times are equal.  t' = gamma (t - beta
    x / c) with gamma > 0, so the order is the exact sign of
    (t_l - t_r) c - beta (x_l - x_r), taken in rationals without a square
    root.
    """
    F = Fraction
    gap = (F(local.t) - F(remote.t)) * F(c) - F(device_boost.beta) * (F(local.x) - F(remote.x))
    if gap == 0:
        return "simultaneous"
    return "before" if gap < 0 else "after"


MAX_MEMBER_SETTINGS = 4


def _local_vertices(ma: int, mb: int) -> np.ndarray:
    """Deterministic-strategy behaviors, one row per (Alice, Bob) assignment.

    Assignments map each setting to an outcome index (0 is +1); rows are
    flattened tables over (x, y, a, b) in C order.
    """
    # One-hot [assignment, setting, outcome] per party.
    onehot = [np.eye(2)[list(itertools.product((0, 1), repeat=m))] for m in (ma, mb)]
    return np.einsum("ixa,jyb->ijxyab", *onehot).reshape(-1, ma * mb * 4)


@dataclass(frozen=True, eq=False)
class SeparatingInequality:
    """Bell-type functional h with local bound: h . b <= bound for every
    local behavior, while the tested behavior reaches value."""

    h: np.ndarray  # shape (ma, mb, 2, 2)
    bound: float
    value: float

    @property
    def margin(self) -> float:
        return self.value - self.bound

    def inequality_string(self) -> str:
        terms = []
        ma, mb = self.h.shape[:2]
        for x, y, a, b in itertools.product(range(ma), range(mb), (0, 1), (0, 1)):
            coeff = self.h[x, y, a, b]
            if abs(coeff) > 1e-12:
                terms.append(f"{coeff:+.6f} P({1 - 2 * a:+d},{1 - 2 * b:+d}|{x},{y})")
            # zero coefficients are omitted
        lhs = " ".join(terms) if terms else "0"
        return f"{lhs} <= {self.bound:.6f} (local bound); behavior gives {self.value:.6f}"


@dataclass(frozen=True, eq=False)
class PolytopeResult:
    member: bool
    weights: np.ndarray | None
    certificate: SeparatingInequality | None


def local_polytope_member(bc: Behavior) -> PolytopeResult:
    """Decide membership in the local polytope by one separation LP:
    max h.b - t subject to h.v <= t at every deterministic vertex v and
    |h| <= 1.  A positive optimum is a separating inequality, its local
    bound re-computed over all vertices; else the vertex rows' duals,
    which minimise ||V^T w - b||_1 over convex w, are the weights.  When
    neither re-checks to RECHECK_TOL, the behavior is within the LP's
    tolerance of the boundary and RuntimeError is raised.
    """
    import scipy.optimize

    if bc.parties != 2:
        raise ValueError(f"need a bipartite behavior, got {bc.parties} parties")
    ma, mb = bc.settings_per_party
    if max(ma, mb) > MAX_MEMBER_SETTINGS:
        raise ValueError(
            f"vertex enumeration limited to {MAX_MEMBER_SETTINGS} settings per side"
        )
    vertices = _local_vertices(ma, mb)
    n_v, dim = vertices.shape
    b_vec = bc.table.reshape(dim)
    sep = scipy.optimize.linprog(
        np.concatenate([-b_vec, [1.0]]),
        A_ub=np.hstack([vertices, -np.ones((n_v, 1))]),
        b_ub=np.zeros(n_v),
        bounds=[(-1, 1)] * dim + [(None, None)],
        method="highs",
    )
    if sep.status != 0:
        raise RuntimeError(f"separation LP failed with status {sep.status}: {sep.message}")
    h = sep.x[:dim]
    bound = float(np.max(vertices @ h))
    cert = SeparatingInequality(h=h.reshape(ma, mb, 2, 2), bound=bound, value=float(h @ b_vec))
    if cert.margin > RECHECK_TOL:
        return PolytopeResult(member=False, weights=None, certificate=cert)
    weights = -sep.ineqlin.marginals
    if recheck_membership_witness(bc, weights) <= RECHECK_TOL:
        return PolytopeResult(member=True, weights=weights, certificate=None)
    raise RuntimeError(
        "behavior is within the LP's tolerance of the local polytope's boundary: "
        "neither the weights nor the separating inequality re-check"
    )


def recheck_membership_witness(bc: Behavior, weights: np.ndarray) -> float:
    """Max residual of the convex-combination witness, checked directly."""
    vertices = _local_vertices(*bc.settings_per_party)
    resid = float(np.max(np.abs(vertices.T @ weights - bc.table.ravel())))
    resid = max(resid, abs(float(weights.sum()) - 1.0))
    resid = max(resid, float(max(0.0, -weights.min())))
    return resid
