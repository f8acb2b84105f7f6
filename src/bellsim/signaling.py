"""Setting-dependence of marginals, local-polytope membership, and the
local-parts feasibility program.

The central operation asks: given a tripartite target behavior and an
uncoordinated pair (canonically Bob-Charlie), does any no-signaling
distribution Q match the target's Alice-Bob and Alice-Charlie marginals
for every setting while keeping the Bob-Charlie marginal independent of
Alice's setting and inside the local polytope?  Infeasibility means
every model with a local Bob-Charlie part must let that marginal depend
on Alice's setting, which is a superluminal channel once the spacetime
layout provides a point D inside both receiver lightcones.

All linear programs are solved with scipy's HiGHS backend, and every
witness or certificate is re-checked directly against the constraint
system, so solver tolerances never carry a conclusion on their own.
The local-parts constraint matrix is built once per settings shape, and
HiGHS gets cached sparse (CSC) copies of it.  scipy.optimize and
scipy.sparse are imported on the first LP, not with this module, so
commands that solve none never load them.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hvmodels import Geometry, spectator_first
from .quantum import Behavior, behavior_to_json, marginal
from .spacetime import find_point_d

#: Residual tolerance for re-checking witnesses and certificates.
RECHECK_TOL = 1e-9

#: Slack above which the settings sweep stops and solves for a certificate.
SLACK_THRESHOLD = 1e-7

MAX_MEMBER_SETTINGS = 4
MAX_FEASIBILITY_SETTINGS = 3


def linprog(*args, **kwargs):
    """scipy's HiGHS linprog, imported on first use (scipy.optimize takes ~0.4 s to import)."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def signaling_distance(b: Behavior, receivers: tuple[int, ...] | list[int]) -> float:
    """Largest total-variation shift of the receivers' marginal.

    Maximized over pairs of remote setting tuples and over the
    receivers' own settings (per-setting maximum, not average); zero
    means the receivers cannot detect remote settings at all.
    """
    family = marginal(b, tuple(receivers))
    keys = sorted(family.keys())
    n_rec = len(tuple(receivers))
    outcome_axes = tuple(range(n_rec, 2 * n_rec))
    worst = 0.0
    for k1, k2 in itertools.combinations(keys, 2):
        diff = np.abs(family[k1].table - family[k2].table)
        tv = 0.5 * diff.sum(axis=outcome_axes)
        worst = max(worst, float(tv.max()))
    return worst


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
    """Decide membership in the local polytope by linear programming.

    Membership returns convex weights over the deterministic vertices;
    rejection returns a separating inequality found by the dual LP, with
    the local bound re-computed directly over all vertices.
    """
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
    a_eq = np.vstack([vertices.T, np.ones((1, n_v))])
    b_eq = np.concatenate([b_vec, [1.0]])
    res = linprog(np.zeros(n_v), A_eq=a_eq, b_eq=b_eq, bounds=(0, 1), method="highs")
    if res.status == 0:
        return PolytopeResult(member=True, weights=res.x, certificate=None)
    if res.status != 2:
        raise RuntimeError(f"membership LP failed with status {res.status}: {res.message}")
    # Separation: max h.b - t subject to h.v <= t for all vertices, |h| <= 1.
    c = np.concatenate([-b_vec, [1.0]])
    a_ub = np.hstack([vertices, -np.ones((n_v, 1))])
    sep = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(n_v),
        bounds=[(-1, 1)] * dim + [(None, None)],
        method="highs",
    )
    if sep.status != 0:
        raise RuntimeError(f"separation LP failed with status {sep.status}: {sep.message}")
    h = sep.x[:dim]
    bound = float(np.max(vertices @ h))
    value = float(h @ b_vec)
    cert = SeparatingInequality(h=h.reshape(ma, mb, 2, 2), bound=bound, value=value)
    if cert.margin <= RECHECK_TOL:
        raise RuntimeError("separation LP produced no verifiable margin")
    return PolytopeResult(member=False, weights=None, certificate=cert)


def recheck_membership_witness(bc: Behavior, weights: np.ndarray) -> float:
    """Max residual of the convex-combination witness, checked directly."""
    vertices = _local_vertices(*bc.settings_per_party)
    resid = float(np.max(np.abs(vertices.T @ weights - bc.table.ravel())))
    resid = max(resid, abs(float(weights.sum()) - 1.0))
    resid = max(resid, float(max(0.0, -weights.min())))
    return resid


@dataclass(frozen=True, eq=False)
class FeasibilityProblem:
    """Equality system A z = b over z = [Q entries; strategy weights] >= 0.

    Q runs over (x, y, z, a, b, c) in C order for the permuted party
    order (spectator first); strategies enumerate deterministic outcome
    assignments for the uncoordinated pair.  Any feasible z also obeys
    z <= 1, which certificate re-checking relies on.

    Farkas certificates index the rows, which come in blocks, each in C
    order of the indices named:

    1. normalization of Q, per (x, y, z);
    2. no-signaling of A, per (x, y, z, b, c) with x < ma - 1: the sum
       over a at x minus the same sum at x + 1;
    3. no-signaling of B, per (y, x, z, a, c) with y < mb - 1;
    4. no-signaling of C, per (z, x, y, a, b) with z < mc - 1;
    5. the AB marginal, per (x, y, z, a, b): the sum over c equals the
       target's P(a, b | x, y);
    6. the AC marginal, per (x, y, z, a, c);
    7. the decomposition, per (x, y, z, b, c): the sum over a minus the
       weights of the strategies that answer (b, c) at (y, z) is zero.
    """

    a_eq: np.ndarray
    b_eq: np.ndarray
    n_q: int
    strategies: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    settings: tuple[int, int, int]

    def __post_init__(self) -> None:
        rows, cols = self.a_eq.shape
        if self.b_eq.shape != (rows,):
            raise ValueError("constraint matrix and rhs disagree on row count")
        if cols != self.n_q + len(self.strategies):
            raise ValueError("variable count does not match Q size plus strategies")
        if self.b_eq.min() < -1e-12 or self.b_eq.max() > 1.0 + 1e-12:
            raise ValueError("target marginal values must lie in [0, 1]")


@dataclass(frozen=True, eq=False)
class FarkasCertificate:
    """Infeasibility certificate y over the rows of A z = b, with
    ||y||_1 <= 1: the slack LP's duals.

    margin is re-checked as y.b - sum_j max(0, (A^T y)_j).  Every z in
    [0, 1]^n has y.(b - A z) >= margin, so margin / ||y||_1 bounds its
    max-norm violation max_i |(A z - b)_i| from below, and a positive
    margin rules out all candidate distributions, solver-independent.
    """

    y: np.ndarray
    margin: float

    def inequality_string(self) -> str:
        return (
            f"certificate y with y.rhs = margin {self.margin:.6e} > 0 while "
            "y.A <= 0 componentwise: the marginal-matching and local-"
            "decomposition constraints are jointly unsatisfiable"
        )


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    feasible: bool
    witness: Behavior | None
    witness_weights: np.ndarray | None
    certificate: FarkasCertificate | None
    problem: FeasibilityProblem
    max_residual: float | None


def _pair_marginal_checked(target: Behavior, pair: tuple[int, int], what: str) -> np.ndarray:
    """The tripartite target's marginal table over ``pair``, checked to be
    the same at every setting of the remaining party."""
    (rest,) = set(range(3)) - set(pair)
    # One table per remaining setting, leading; the outcome sum is over
    # a length-2 axis, so its bits do not depend on the axis order.
    tables = np.moveaxis(target.table.sum(axis=3 + rest), rest, 0)
    if np.max(np.abs(tables - tables[0])) > RECHECK_TOL:
        raise ValueError(f"target's {what} marginal depends on the remaining party's setting")
    return tables[0]


class _LPSystem:
    """The target-independent part of the program for one spectator-first
    settings shape, shared by every FeasibilityProblem of that shape.

    a_eq is read-only.  ``rhs_rows`` spans the rows of the three blocks
    whose rhs is not zero: normalization, the AB marginal and the AC
    marginal.  HiGHS gets two sparse copies, each built on first use:
    a_eq for the primal LP and the slack LP's block.
    A plain class, not a dataclass: defining a dataclass takes about half
    a millisecond, which every command would pay at import.
    """

    def __init__(
        self,
        a_eq: np.ndarray,
        n_q: int,
        strategies: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
        rhs_rows: tuple[slice, slice, slice],
    ) -> None:
        self.a_eq = a_eq
        self.n_q = n_q
        self.strategies = strategies
        self.rhs_rows = rhs_rows

    @functools.cached_property
    def a_eq_csc(self):
        """a_eq for the primal LP."""
        return _csc(self.a_eq)

    @functools.cached_property
    def slack_csc(self):
        """[[A, -1], [-A, -1]] for the slack LP over [z; t]."""
        ones = np.ones((self.a_eq.shape[0], 1))
        return _csc(np.block([[self.a_eq, -ones], [-self.a_eq, -ones]]))


def _csc(dense: np.ndarray):
    """A scipy.sparse CSC copy of ``dense``; scipy.sparse loads on the first call."""
    from scipy.sparse import csc_matrix

    return csc_matrix(dense)


@functools.cache
def _lp_system(spp: tuple[int, int, int]) -> _LPSystem:
    """Build the constraint matrix of FeasibilityProblem's row blocks for
    spectator-first settings ``spp``, once per shape.  There are at most
    MAX_FEASIBILITY_SETTINGS**3 shapes, so the cache stays small."""
    ma, mb, mc = spp
    q = np.arange(ma * mb * mc * 8).reshape(ma, mb, mc, 2, 2, 2)
    n_q = q.size
    strategies = tuple(
        (bits_b, bits_c)
        for bits_b in itertools.product((0, 1), repeat=mb)
        for bits_c in itertools.product((0, 1), repeat=mc)
    )
    # Q's columns with the summed party's outcome last and the block's
    # leading setting first.
    sum_a = q.transpose(0, 1, 2, 4, 5, 3)
    sum_b = q.transpose(0, 1, 2, 3, 5, 4)
    ns_b = sum_b.transpose(1, 0, 2, 3, 4, 5)
    ns_c = q.transpose(2, 0, 1, 3, 4, 5)
    # answers[s, o, k]: strategy k gives outcome o at setting s (Bob's
    # settings, then Charlie's).  A quarter of the strategies answer each
    # (b, c) at (y, z); their weight columns enter decomposition rows.
    answers = np.array([b + c for b, c in strategies]).T[:, None] == np.arange(2)[:, None]
    answering = answers[:mb, None, :, None] & answers[None, mb:, None, :]
    weights = n_q + np.nonzero(answering)[-1].reshape(mb, mc, 2, 2, -1)
    # (+1 columns, -1 columns) per row block; adjacent setting pairs
    # generate all no-signaling equalities.
    blocks = (
        (q.reshape(ma, mb, mc, 8), None),
        (sum_a[:-1], sum_a[1:]),
        (ns_b[:-1], ns_b[1:]),
        (ns_c[:-1], ns_c[1:]),
        (q, None),
        (sum_b, None),
        (sum_a, weights),
    )
    n_rows = sum(math.prod(plus.shape[:-1]) for plus, _ in blocks)
    a_eq = np.zeros((n_rows, n_q + len(strategies)))
    spans = []
    start = 0
    for plus, minus in blocks:
        lead = plus.shape[:-1]
        rows = np.arange(start, start + math.prod(lead)).reshape(lead + (1,))
        a_eq[rows, plus] = 1.0
        if minus is not None:
            a_eq[rows, minus] = -1.0
        spans.append(slice(start, start + rows.size))
        start += rows.size
    a_eq.flags.writeable = False  # every problem of the shape shares it
    return _LPSystem(a_eq, n_q, strategies, (spans[0], spans[4], spans[5]))


def build_feasibility_problem(target: Behavior, off_pair: tuple[int, int]) -> FeasibilityProblem:
    """Constraint system for the local-parts question with ``off_pair`` cut.

    Parties are permuted so the spectator comes first; FeasibilityProblem
    lists the row blocks.  The decomposition of the pair marginal into
    shared strategy weights enforces both its spectator-independence and
    its local-polytope membership.  The matrix depends only on the
    permuted settings shape and is built once per shape; a target sets
    only the rhs.
    """
    if target.parties != 3:
        raise ValueError(f"need a tripartite behavior, got {target.parties} parties")
    perm = spectator_first(off_pair)
    if max(target.settings_per_party) > MAX_FEASIBILITY_SETTINGS:
        raise ValueError(
            f"feasibility limited to {MAX_FEASIBILITY_SETTINGS} settings per party"
        )
    table = np.transpose(target.table, perm + tuple(3 + q for q in perm))
    spp = tuple(target.settings_per_party[q] for q in perm)
    permuted = Behavior(3, spp, np.ascontiguousarray(table))

    t_ab = _pair_marginal_checked(permuted, (0, 1), "spectator-first-partner")
    t_ac = _pair_marginal_checked(permuted, (0, 2), "spectator-second-partner")

    system = _lp_system(spp)
    lead = spp + (2, 2)
    norm, ab, ac = system.rhs_rows
    b_eq = np.zeros(system.a_eq.shape[0])
    b_eq[norm] = 1.0
    b_eq[ab] = np.broadcast_to(t_ab[:, :, None], lead).ravel()
    b_eq[ac] = np.broadcast_to(t_ac[:, None], lead).ravel()
    return FeasibilityProblem(
        a_eq=system.a_eq,
        b_eq=b_eq,
        n_q=system.n_q,
        strategies=system.strategies,
        settings=spp,
    )


def recheck_feasibility_witness(problem: FeasibilityProblem, z: np.ndarray) -> float:
    resid = float(np.max(np.abs(problem.a_eq @ z - problem.b_eq)))
    resid = max(resid, float(max(0.0, -z.min())))
    resid = max(resid, float(max(0.0, z.max() - 1.0)))
    return resid


def recheck_farkas_certificate(problem: FeasibilityProblem, y: np.ndarray) -> float:
    """Contradiction margin valid for all z in [0,1]^n; > 0 proves infeasibility."""
    aty = problem.a_eq.T @ y
    return float(y @ problem.b_eq - np.clip(aty, 0.0, None).sum())


def _solve_localparts(problem: FeasibilityProblem):
    """``(z, witness residual, None)`` when some z re-checks to RECHECK_TOL,
    else ``(None, slack, certificate)`` when a certificate re-checks above it.

    The primal LP (z in [0, 1]^n with A z = b) decides alone when its
    witness re-checks.  Otherwise the slack LP, min t subject to
    |A z - b| <= t, gives a fallback witness and, from its duals, a
    certificate y with ||y||_1 <= 1 whose margin equals the slack.
    """
    system = _lp_system(problem.settings)
    m, n = problem.a_eq.shape
    res = linprog(
        np.zeros(n), A_eq=system.a_eq_csc, b_eq=problem.b_eq, bounds=(0, 1), method="highs"
    )
    if res.status not in (0, 2):
        raise RuntimeError(f"feasibility LP failed with status {res.status}: {res.message}")
    if res.status == 0:
        resid = recheck_feasibility_witness(problem, res.x)
        if resid <= RECHECK_TOL:
            return res.x, resid, None
    # Variables [z; t]: minimize t with -t <= (A z - b)_i <= t.
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = linprog(
        c,
        A_ub=system.slack_csc,
        b_ub=np.concatenate([problem.b_eq, -problem.b_eq]),
        bounds=[(0, 1)] * n + [(0, None)],
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"slack LP failed with status {res.status}: {res.message}")
    z = res.x[:-1]
    resid = recheck_feasibility_witness(problem, z)
    if resid <= RECHECK_TOL:
        return z, resid, None
    duals = res.ineqlin.marginals
    y = duals[:m] - duals[m:]
    margin = recheck_farkas_certificate(problem, y)
    if margin <= RECHECK_TOL:
        raise RuntimeError(
            "target is within solver tolerance of the local-parts boundary: "
            f"witness residual {resid:.3e}, certificate margin {margin:.3e}"
        )
    return None, float(res.x[-1]), FarkasCertificate(y=y, margin=margin)


def localparts_feasible(target: Behavior, off_pair: tuple[int, int]) -> FeasibilityResult:
    """Solve the local-parts feasibility program.

    Feasible instances return the witness distribution (in the original
    party order) plus the strategy weights; infeasible ones return a
    Farkas certificate from the slack LP's duals.  Both outcomes carry
    independently re-checked residuals or margins; a target for which
    neither re-checks raises RuntimeError.
    """
    problem = build_feasibility_problem(target, off_pair)
    x, value, certificate = _solve_localparts(problem)
    witness = weights = None
    if certificate is None:
        z = np.clip(x, 0.0, None)
        ma, mb, mc = problem.settings
        q = z[: problem.n_q].reshape(ma, mb, mc, 2, 2, 2)
        # Solver roundoff can leave conditionals a few ulp off 1.
        q = q / q.sum(axis=(3, 4, 5), keepdims=True)
        inverse = tuple(np.argsort(spectator_first(off_pair)))
        witness = Behavior(
            3,
            target.settings_per_party,
            np.ascontiguousarray(np.transpose(q, inverse + tuple(3 + i for i in inverse))),
        )
        weights = z[problem.n_q :]
    return FeasibilityResult(
        feasible=certificate is None,
        witness=witness,
        witness_weights=weights,
        certificate=certificate,
        problem=problem,
        max_residual=value if certificate is None else None,
    )


def infeasibility_slack(target: Behavior, off_pair: tuple[int, int]) -> float:
    """Smallest max-norm constraint violation over candidate distributions.

    The same decision as localparts_feasible: exactly 0.0 when the
    verdict is feasible, otherwise the slack LP's optimum, which the
    certificate's re-checked margin equals.  The slack ranks how strongly
    an instance resists a local-parts account, which guides the settings
    search; feasible instances take the feasibility LP alone.
    """
    _, value, certificate = _solve_localparts(build_feasibility_problem(target, off_pair))
    return 0.0 if certificate is None else value


def pr_box_behavior() -> Behavior:
    """The PR box: a xor b = x and y in bit form, uniform marginals."""
    table = np.zeros((2, 2, 2, 2))
    for x, y, a, b in itertools.product((0, 1), repeat=4):
        if a ^ b == (x & y):
            table[x, y, a, b] = 0.5
    return Behavior(2, (2, 2), table)


def double_pr_target() -> Behavior:
    """Tripartite target whose AB and AC marginals are both PR boxes.

    Alice's bit is uniform; b = a xor (x and y), c = a xor (x and z).
    PR-box monogamy makes the local-parts program infeasible here, so
    this target exercises the certificate path.  The behavior itself
    signals (its BC marginal depends on x), which is allowed: only its
    AB and AC marginals enter the feasibility constraints.
    """
    table = np.zeros((2, 2, 2, 2, 2, 2))
    for x, y, z, a in itertools.product((0, 1), repeat=4):
        b = a ^ (x & y)
        c = a ^ (x & z)
        table[x, y, z, a, b, c] = 0.5
    return Behavior(3, (2, 2, 2), table)


def signal_report(
    observed: Behavior,
    target: Behavior,
    off_pair: tuple[int, int],
    geometry: Geometry,
) -> dict:
    """The cut pair's marginal shift, its LP verdict, and point D.

    ``observed`` is the behavior whose marginal shift is reported (a
    model's effective behavior, or constructive_off_behavior for the
    explicit spectator-mediated model); the local-parts verdict, with
    its re-checked witness or certificate, is decided on ``target``.
    The timing advantage comes from the point-D construction on the
    geometry with the spectator device as A; ``point_d`` and
    ``advantage_seconds`` are None when the geometry admits no point D.
    The bias field is the per-use total-variation bias, with no
    coding-theorem claim attached.
    """
    if geometry.parties != 3:
        raise ValueError("geometry must have three devices")
    spect, i, j = spectator_first(off_pair)
    off = (i, j)
    sd = signaling_distance(observed, off)
    feas = localparts_feasible(target, off)
    family = marginal(observed, off)
    events = geometry.events
    point = find_point_d(events[spect], events[i], events[j], c=geometry.c)
    report: dict = {
        "off_pair": list(off),
        "spectator": spect,
        "feasible": feas.feasible,
        "signaling_distance": sd,
        "bias": sd / 2.0,
        "channel": "binary" if sd > RECHECK_TOL else "none",
        "marginal_tables": {
            f"spectator_setting={key[0]}": family[key].table.tolist()
            for key in sorted(family)
        },
        "receiver_alone_distances": {
            str(q): signaling_distance(observed, (q,)) for q in off
        },
        "advantage_seconds": None if point is None else point[1],
        "point_d": None
        if point is None
        else {"t": point[0].t, "x": point[0].x, "y": point[0].y},
        "note": (
            "a marginal shift is visible only in the cut pair's joint "
            "outcomes; neither receiver alone sees it"
        ),
    }
    if feas.feasible:
        report["witness"] = behavior_to_json(feas.witness)
        report["witness_max_residual"] = feas.max_residual
    else:
        report["certificate"] = {
            "y": feas.certificate.y.tolist(),
            "margin": feas.certificate.margin,
            "inequality": feas.certificate.inequality_string(),
        }
    return report


@dataclass(frozen=True, eq=False)
class SearchReport:
    """Outcome of the infeasibility settings sweep."""

    outcome: str  # "infeasible_found" or "all_feasible"
    instances_checked: int
    max_slack: float
    best_settings: tuple[tuple[float, ...], ...]
    best_state: str
    certificate_margin: float | None
    witness_residual: float | None


def _ghz_family_state(phi: float):
    from .quantum import state_from_amplitudes

    amps = np.zeros(8)
    amps[0] = math.cos(phi)
    amps[7] = math.sin(phi)
    return state_from_amplitudes(amps)


def search_infeasible_instance(
    grid: int = 8,
    refine_rounds: int = 2,
    family_phis: tuple[float, ...] = (
        math.pi / 16,
        math.pi / 8,
        3 * math.pi / 16,
        5 * math.pi / 16,
        3 * math.pi / 8,
        7 * math.pi / 16,
    ),
) -> SearchReport:
    """Sweep measurement settings (and a weighted state family) for an
    infeasible local-parts instance with the pair (1, 2) cut.

    Stage 1 scans a symmetric two-setting ansatz (Bob and Charlie share
    angles) on a coarse grid; stage 2 refines all six angles around the
    best candidates by coordinate descent on the infeasibility slack;
    stage 3 repeats the scan over amplitude-weighted superpositions
    cos(phi)|000> + sin(phi)|111>.  Every instance is scored by
    infeasibility_slack; any instance above SLACK_THRESHOLD is solved
    for a certificate and re-checked.  The honest outcome is reported
    either way: feasible-everywhere is a result, not a failure.
    """
    from .quantum import born_behavior, make_ghz3

    axis = [k * math.pi / grid for k in range(grid)]
    checked = 0
    best_slack = -1.0
    best_angles: tuple[tuple[float, ...], ...] = ((0.0, 0.0), (0.0, 0.0), (0.0, 0.0))
    best_state = "ghz3"

    def score(state, angles) -> float:
        nonlocal checked, best_slack, best_angles, best_state
        target = born_behavior(state, angles)
        slack = infeasibility_slack(target, (1, 2))
        checked += 1
        if slack > best_slack:
            best_slack = slack
            best_angles = tuple(tuple(a) for a in angles)
            best_state = state_label
        return slack

    state_label = "ghz3"
    ghz = make_ghz3()
    candidates: list[tuple[float, tuple[tuple[float, ...], ...]]] = []
    for a1, a2, b1, b2 in itertools.product(axis, repeat=4):
        if a1 >= a2:
            # The ansatz is symmetric under swapping Alice's settings.
            continue
        angles = ((a1, a2), (b1, b2), (b1, b2))
        slack = score(ghz, angles)
        candidates.append((slack, angles))
        if slack > SLACK_THRESHOLD:
            return _conclude(checked, slack, angles, ghz, "ghz3")

    candidates.sort(key=lambda item: item[0], reverse=True)
    step = math.pi / (2 * grid)
    for _, start in candidates[:4]:
        current = [list(a) for a in start]
        for _ in range(refine_rounds):
            for party, k in itertools.product(range(3), range(2)):
                base = current[party][k]
                for delta in (-step, step, -step / 2, step / 2):
                    current[party][k] = base + delta
                    slack = score(ghz, tuple(tuple(a) for a in current))
                    if slack > SLACK_THRESHOLD:
                        return _conclude(
                            checked, slack, tuple(tuple(a) for a in current), ghz, "ghz3"
                        )
                    if slack <= best_slack:
                        current[party][k] = base

    coarse = [k * math.pi / 4 for k in range(4)]
    for phi in family_phis:
        state_label = f"weighted_ghz(phi={phi:.6f})"
        state = _ghz_family_state(phi)
        for a1, a2, b1 in itertools.product(coarse, repeat=3):
            if a1 >= a2:
                continue
            angles = ((a1, a2), (b1, b1 + math.pi / 4), (b1, b1 + math.pi / 4))
            slack = score(state, angles)
            if slack > SLACK_THRESHOLD:
                return _conclude(checked, slack, angles, state, state_label)

    return SearchReport(
        outcome="all_feasible",
        instances_checked=checked,
        max_slack=best_slack,
        best_settings=best_angles,
        best_state=best_state,
        certificate_margin=None,
        witness_residual=None,
    )


def _conclude(checked, slack, angles, state, label) -> SearchReport:
    from .quantum import born_behavior

    result = localparts_feasible(born_behavior(state, angles), (1, 2))
    if result.feasible:
        # The slack LP flagged a borderline instance the exact program
        # accepts; treat it as feasible rather than over-claim.
        return SearchReport(
            outcome="all_feasible",
            instances_checked=checked,
            max_slack=slack,
            best_settings=angles,
            best_state=label,
            certificate_margin=None,
            witness_residual=result.max_residual,
        )
    return SearchReport(
        outcome="infeasible_found",
        instances_checked=checked,
        max_slack=slack,
        best_settings=angles,
        best_state=label,
        certificate_margin=result.certificate.margin,
        witness_residual=None,
    )
