"""Setting-dependence of marginals and the local-parts feasibility program.

The central operation asks: given a tripartite target behavior and an
uncoordinated pair (canonically Bob-Charlie), does any no-signaling
distribution Q match the target's Alice-Bob and Alice-Charlie marginals
for every setting while keeping the Bob-Charlie marginal independent of
Alice's setting and inside the local polytope?  Infeasibility means
every model with a local Bob-Charlie part must let that marginal depend
on Alice's setting, which is a superluminal channel once the spacetime
layout provides a point D inside both receiver lightcones.

The local-parts program is decided by its Frechet reduction (see
_Reduction): an empty Frechet interval, or a receiver marginal that the
spectator's setting shifts, is rejected with no LP; otherwise the local
model whose hidden variable is the spectator's own outcome gives the
witness, and only where it fits at no spectator setting does one small
LP over the cut pair's strategy weights.  Every witness or certificate
is re-checked directly against the full constraint system, so solver
tolerances never carry a conclusion on their own.  LPs use scipy's
HiGHS backend; scipy.optimize is imported on the first LP, not with
this module, so commands that solve none never load it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .quantum import Behavior, behavior_to_json, marginal
from .spacetime import Geometry, find_point_d, spectator_first

#: Residual tolerance for re-checking witnesses and certificates.
RECHECK_TOL = 1e-9

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
    n_rec = len(tuple(receivers))
    family = marginal(b, tuple(receivers))
    family = family.reshape((-1,) + family.shape[-2 * n_rec :])
    # Every pair of remote setting tuples at once; the diagonal adds zeros.
    diff = np.abs(family[:, None] - family[None])
    tv = 0.5 * diff.sum(axis=tuple(range(2 + n_rec, 2 + 2 * n_rec)))
    return float(tv.max())


@dataclass(frozen=True, eq=False)
class FeasibilityProblem:
    """Equality system A z = b over z = [Q entries; strategy weights] >= 0.

    Q runs over (x, y, z, a, b, c) in C order for the permuted party
    order: spectator A first, then the cut pair B and C; strategies
    enumerate deterministic outcome assignments for the cut pair.  Any
    feasible z also obeys z <= 1, which certificate re-checking relies
    on.  No LP solves this system: witnesses and certificates of the
    Frechet reduction are re-checked against it.

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
    ||y||_1 = 1, combining a few rows into the statement it proves: an
    empty Frechet interval, a receiver marginal shifted by the spectator's
    setting, or (from the centred LP's duals) no local L in the intervals.

    margin is re-checked as y.b - sum_j max(0, (A^T y)_j).  Every z in
    [0, 1]^n has y.(b - A z) >= margin, so margin bounds its max-norm
    violation max_i |(A z - b)_i| from below, and a positive margin rules
    out all candidate distributions, solver-independent.
    """

    y: np.ndarray
    margin: float
    statement: str

    def inequality_string(self) -> str:
        return f"{self.statement}; certificate margin {self.margin:.6e} > 0"


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    feasible: bool
    witness: Behavior | None
    witness_weights: np.ndarray | None
    certificate: FarkasCertificate | None
    problem: FeasibilityProblem
    max_residual: float | None


def _pair_marginal_checked(target: Behavior, spectator: int, partner: int, what: str) -> np.ndarray:
    """The target's (spectator, partner) marginal, axes in that order,
    checked to be the same at every setting of the remaining party."""
    tables = marginal(target, (spectator, partner))
    if partner < spectator:
        tables = tables.transpose(0, 2, 1, 4, 3)
    if np.max(np.abs(tables - tables[0])) > RECHECK_TOL:
        raise ValueError(f"target's {what} marginal depends on the remaining party's setting")
    return tables[0]


class _LPSystem:
    """The target-independent part of the program for one spectator-first
    settings shape, shared by every FeasibilityProblem of that shape.

    a_eq is read-only; norm, ab, ac and d hold the row numbers of blocks
    1, 5, 6 and 7, shaped like their indices; plus[s, k] says whether
    strategy k answers +1 at setting s (Bob's, then Charlie's).  The
    centred LP runs over [strategy weights; t]: lp_eq's rows are sum w = 1
    and P(+1) at each setting of B, then of C; lp_ub's are -L00 + t and
    L00 + t per (y, z), where s00 @ w is L00, the weight answering (+1, +1).
    A plain class, not a dataclass: defining a dataclass takes about half
    a millisecond, which every command would pay at import.
    """

    def __init__(self, a_eq, n_q, strategies, rows, answers) -> None:
        self.a_eq = a_eq
        self.n_q = n_q
        self.strategies = strategies
        self.norm, self.ab, self.ac, self.d = rows
        self.plus = answers[:, 0]
        plus = self.plus.astype(float)
        mb, k = len(strategies[0][0]), plus.shape[1]
        self.s00 = (plus[:mb, None] * plus[None, mb:]).reshape(-1, k)
        eq, ub = np.vstack([np.ones((1, k)), plus]), np.vstack([-self.s00, self.s00])
        self.lp_eq = np.hstack([eq, np.zeros((len(eq), 1))])
        self.lp_ub = np.hstack([ub, np.ones((len(ub), 1))])


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
    rows_of = []
    start = 0
    for plus, minus in blocks:
        lead = plus.shape[:-1]
        rows = np.arange(start, start + math.prod(lead)).reshape(lead + (1,))
        a_eq[rows, plus] = 1.0
        if minus is not None:
            a_eq[rows, minus] = -1.0
        rows_of.append(rows[..., 0])
        start += rows.size
    a_eq.flags.writeable = False  # every problem of the shape shares it
    rows = (rows_of[0], rows_of[4], rows_of[5], rows_of[6])
    return _LPSystem(a_eq, n_q, strategies, rows, answers)


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
    spp = tuple(target.settings_per_party[q] for q in perm)

    t_ab = _pair_marginal_checked(target, perm[0], perm[1], "spectator-first-partner")
    t_ac = _pair_marginal_checked(target, perm[0], perm[2], "spectator-second-partner")

    system = _lp_system(spp)
    b_eq = np.zeros(system.a_eq.shape[0])
    b_eq[system.norm] = 1.0
    b_eq[system.ab] = t_ab[:, :, None]
    b_eq[system.ac] = t_ac[:, None]
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


class _Reduction:
    """The Frechet intervals of one FeasibilityProblem, read from its rhs.

    The coupling Q(a, +1, +1 | x, y, z) lies in [lo_a, hi_a], with
    lo_a = max(0, T_AC(a,+1|x,z) - T_AB(a,-1|x,y)) and
    hi_a = min(T_AB(a,+1|x,y), T_AC(a,+1|x,z)); lo and hi sum them over a.
    Each bound is a combination of the full system's rows whose Q
    coefficients are all <= 0, and a certificate weighs such combinations.
    """

    def __init__(self, problem: FeasibilityProblem) -> None:
        self.problem, self.s = problem, _lp_system(problem.settings)
        self.t_ab, self.t_ac = problem.b_eq[self.s.ab[:, :, 0]], problem.b_eq[self.s.ac[:, 0]]
        self.ab0, self.ac0 = self.t_ab[:, :, None, :, 0], self.t_ac[:, None, :, :, 0]
        # T_A(a|x) - T_AB(a,+1|x,y) is T_AB(a,-1|x,y), as the rows give it.
        self.lo_branch = self.ac0 - self.t_ab[:, :, None, :, 1]  # (x, y, z, a)
        self.lo_a, self.hi_a = np.maximum(self.lo_branch, 0.0), np.minimum(self.ab0, self.ac0)
        self.hi_from_ab = self.ab0 <= self.ac0
        self.lo, self.hi = self.lo_a.sum(axis=-1), self.hi_a.sum(axis=-1)
        self.x_lo, self.x_hi = self.lo.argmax(axis=0), self.hi.argmin(axis=0)
        self.gap = self.lo.max(axis=0) - self.hi.min(axis=0)  # (y, z)
        # P_B(+1|y) and P_C(+1|z) at each x.
        self.t_b, self.t_c = self.t_ab[..., 0].sum(axis=2), self.t_ac[..., 0].sum(axis=2)

    def certificate(self, statement, u_lo, u_hi, one=0.0, lam_b=0.0, lam_c=0.0):
        """Weigh, per (y, z), the bound lo at x_lo by u_lo and hi at x_hi by
        u_hi, and the equalities sum w = 1, P_B(+1|y) and P_C(+1|z) at each
        x (Q cancels in them) by one, lam_b and lam_c; None unless the
        certificate re-checks."""
        s, y = self.s, np.zeros(len(self.problem.b_eq))
        at_lo = (self.x_lo, *np.indices(self.gap.shape))
        at_hi = (self.x_hi, *at_lo[1:])
        # lo <= L00: AC(a,+1) - AB(a,-1) for each a on the non-zero branch, less D(+1,+1).
        on = u_lo[..., None] * (self.lo_branch[at_lo] > 0)
        y[s.ac[at_lo][..., 0]] += on
        y[s.ab[at_lo][..., 1]] -= on
        y[s.d[at_lo][..., 0, 0]] -= u_lo
        # L00 <= hi: less AB(a,+1) or AC(a,+1), whichever gave hi_a, plus D(+1,+1).
        hi_rows = np.where(self.hi_from_ab[at_hi], s.ab[at_hi][..., 0], s.ac[at_hi][..., 0])
        y[hi_rows] -= u_hi[..., None]
        y[s.d[at_hi][..., 0, 0]] += u_hi
        y[s.norm[0, 0, 0]] += one
        y[s.d[0, 0, 0]] -= one
        lam_b = np.broadcast_to(lam_b, self.t_b.shape)[..., None]
        lam_c = np.broadcast_to(lam_c, self.t_c.shape)[..., None]
        y[s.ab[:, :, 0, :, 0]] += lam_b
        y[s.d[:, :, 0, 0, :]] -= lam_b
        y[s.ac[:, 0, :, :, 0]] += lam_c
        y[s.d[:, 0, :, :, 0]] -= lam_c
        y /= np.abs(y).sum()
        margin = recheck_farkas_certificate(self.problem, y)
        return FarkasCertificate(y, margin, statement) if margin > RECHECK_TOL else None

    def rejection(self) -> FarkasCertificate | None:
        """With no LP: of the certificates of the emptiest Frechet interval
        and of the spectator's largest shifts of P_B and P_C, the one with
        the largest margin, if any re-checks."""
        zero = np.zeros(self.gap.shape)
        cell = np.unravel_index(np.argmax(self.gap), zero.shape)
        found = []
        if self.gap[cell] > RECHECK_TOL:
            x, x2 = self.x_lo[cell], self.x_hi[cell]
            lo = ["P_AC(a,+1|x,z)-P_AB(a,-1|x,y)" if v > 0 else "0" for v in self.lo_branch[x][cell]]
            hi = ["P_AB(a,+1|x',y)" if f else "P_AC(a,+1|x',z)" for f in self.hi_from_ab[x2][cell]]
            onehot = zero.copy()
            onehot[cell] = 1.0
            found.append(self.certificate(
                f"Frechet interval empty at x={x}, x'={x2}, (y, z)={tuple(map(int, cell))}: "
                f"lo = {self.lo[x][cell]:.6g} > hi = {self.hi[x2][cell]:.6g}, where for "
                f"a = +1, -1 lo_a = {', '.join(lo)} and hi_a = {', '.join(hi)}",
                onehot,
                onehot,
            ))
        for party, t in enumerate((self.t_b, self.t_c)):
            k = int(np.argmax(t.max(axis=0) - t.min(axis=0)))
            x, x2 = int(np.argmax(t[:, k])), int(np.argmin(t[:, k]))
            if t[x, k] - t[x2, k] > RECHECK_TOL:
                lam = [np.zeros(self.t_b.shape), np.zeros(self.t_c.shape)]
                lam[party][x, k], lam[party][x2, k] = 1.0, -1.0
                found.append(self.certificate(
                    f"the spectator's setting shifts P_{'BC'[party]}(+1|{'yz'[party]}={k}) "
                    f"from {t[x2, k]:.6g} at x={x2} to {t[x, k]:.6g} at x={x}",
                    zero,
                    zero,
                    0.0,
                    *lam,
                ))
        return max(filter(None, found), key=lambda cert: cert.margin, default=None)

    def lift(self, w):
        """(z, residual) for the local L with strategy weights w: Q puts
        every a's coupling at the fraction of its interval at which
        L00 = s00 @ w sits in [lo, hi], at each x, and re-checks."""
        ma, mb, mc = self.problem.settings
        width = self.hi - self.lo
        frac = np.divide((self.s.s00 @ w).reshape(mb, mc) - self.lo, width, where=width > 0,
                         out=np.zeros_like(width))
        q = np.empty((ma, mb, mc, 2, 2, 2))
        q[..., 0, 0] = self.lo_a + np.clip(frac, 0.0, 1.0)[..., None] * (self.hi_a - self.lo_a)
        q[..., 0, 1] = self.ab0 - q[..., 0, 0]
        q[..., 1, 0] = self.ac0 - q[..., 0, 0]
        q[..., 1, 1] = self.t_ab[:, :, None, :, 1] - q[..., 1, 0]
        z = np.concatenate([q.ravel(), w])
        return z, recheck_feasibility_witness(self.problem, z)

    def spectator_models(self):
        """Strategy weights, one row per x*, of the local L that takes the
        spectator's outcome a at x* as its hidden variable:
        L(b, c|y, z) = sum_a T_A(a|x*) T(b|a,x*,y) T(c|a,x*,z), with
        T_A(a|x*) = 0 terms skipped.  Its L00 sums each a's independent
        coupling, so it lies in [lo, hi] at x* itself."""
        t_a = self.t_ab[:, 0].sum(axis=-1)[:, None, :, None]  # (x, ., a, .)
        given_a = np.concatenate([self.t_ab, self.t_ac], axis=1)  # (x, setting, a, outcome)
        given_a = np.divide(given_a, t_a, where=t_a > 0, out=np.zeros_like(given_a))
        # (x, a, setting, strategy): T(the strategy's answer|a, x, setting).
        answer = np.where(self.s.plus[:, None], given_a[..., 0, None], given_a[..., 1, None])
        return np.einsum("xa,xak->xk", t_a[:, 0, :, 0], answer.swapaxes(1, 2).prod(axis=2))

    def witness(self):
        """(z, residual, certificate or None, t* or None).

        The first spectator-outcome model whose L00 lies in
        [max_x lo, min_x hi] at every (y, z) is lifted; if the lift
        re-checks, no LP runs and t* is None.  Otherwise the centred LP
        maximizes t subject to sum w = 1, P_B and P_C at x = 0, and
        max_x lo + t <= L00 <= min_x hi - t per (y, z).  Centring keeps L00
        off the interval ends, where the LP's tolerance would push the
        lift outside them.  When t* < 0 no local L fits, and the LP's
        duals weigh the certificate.  At shapes in {1,2}^3 a negative t*
        cannot follow a rejection() that found nothing (acceptance
        criterion 8).  At (3,3,3) this program rejects some no-signaling
        targets through this certificate alone, with t* = -eps/16 on the
        example of test_local_part_binds_at_three_settings.
        """
        s, (_, mb, mc) = self.s, self.problem.settings
        floor, ceiling = self.lo.max(axis=0).ravel(), self.hi.min(axis=0).ravel()
        models = self.spectator_models()
        l00 = models @ s.s00.T
        fits = np.all((floor <= l00) & (l00 <= ceiling), axis=1)
        if fits.any():
            z, resid = self.lift(models[np.argmax(fits)])
            if resid <= RECHECK_TOL:
                return z, resid, None, None
        c = np.zeros(s.lp_ub.shape[1])
        c[-1] = -1.0
        res = linprog(
            c,
            A_ub=s.lp_ub,
            b_ub=np.concatenate([-floor, ceiling]),
            A_eq=s.lp_eq,
            b_eq=np.concatenate([[1.0], self.t_b[0], self.t_c[0]]),
            bounds=[(0, None)] * (len(c) - 1) + [(None, None)],
            method="highs",
        )
        if res.status != 0:
            raise RuntimeError(f"centred LP failed with status {res.status}: {res.message}")
        w, t_star = np.clip(res.x[:-1], 0.0, None), float(res.x[-1])
        z, resid = self.lift(w)
        cert = None
        if t_star < 0:
            # The <= rows' duals are <= 0 and sum to -1.
            lam = res.eqlin.marginals
            lam_b, lam_c = np.zeros(self.t_b.shape), np.zeros(self.t_c.shape)
            lam_b[0], lam_c[0] = lam[1 : 1 + mb], lam[1 + mb :]
            cert = self.certificate(
                f"no local receiver-pair behavior fits the Frechet intervals: the "
                f"centred LP's margin is {t_star:.6g} < 0, and its duals weigh the bounds",
                *-res.ineqlin.marginals.reshape(2, mb, mc),
                lam[0],
                lam_b,
                lam_c,
            )
        return z, resid, cert, t_star


def _decide(problem: FeasibilityProblem):
    """``(z, witness residual, None)`` when some z re-checks to RECHECK_TOL,
    else ``(None, margin, certificate)`` when a certificate re-checks above
    it; RuntimeError when neither does."""
    reduction = _Reduction(problem)
    found = reduction.rejection()
    if found is None:
        z, resid, found, t_star = reduction.witness()
        if resid <= RECHECK_TOL:
            return z, resid, None
        if found is None:
            raise RuntimeError(
                "target is within re-check tolerance of the local-parts boundary: "
                f"witness residual {resid:.3e}, centred LP margin {t_star:.3e}"
            )
    return None, found.margin, found


def localparts_feasible(target: Behavior, off_pair: tuple[int, int]) -> FeasibilityResult:
    """Solve the local-parts feasibility program.

    Feasible instances return the witness distribution (in the original
    party order) plus the strategy weights; infeasible ones return a
    Farkas certificate naming the violated statement.  Both outcomes
    carry independently re-checked residuals or margins; a target for
    which neither re-checks raises RuntimeError.
    """
    problem = build_feasibility_problem(target, off_pair)
    x, value, certificate = _decide(problem)
    witness = weights = None
    if certificate is None:
        ma, mb, mc = problem.settings
        q = np.clip(x[: problem.n_q], 0.0, None).reshape(ma, mb, mc, 2, 2, 2)
        inverse = tuple(np.argsort(spectator_first(off_pair)))
        witness = Behavior(
            3,
            target.settings_per_party,
            np.ascontiguousarray(np.transpose(q, inverse + tuple(3 + i for i in inverse))),
        )
        weights = x[problem.n_q :]
    return FeasibilityResult(
        feasible=certificate is None,
        witness=witness,
        witness_weights=weights,
        certificate=certificate,
        problem=problem,
        max_residual=value if certificate is None else None,
    )


def infeasibility_slack(target: Behavior, off_pair: tuple[int, int]) -> float:
    """How strongly a target resists a local-parts account.

    The same decision as localparts_feasible: exactly 0.0 when the
    verdict is feasible, otherwise the certificate's re-checked margin.
    That margin is a proven lower bound on the smallest max-norm
    constraint violation over candidate distributions z in [0, 1]^n.
    """
    _, value, certificate = _decide(build_feasibility_problem(target, off_pair))
    return 0.0 if certificate is None else value


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
    """The cut pair's marginal shift, its local-parts verdict, and point D.

    ``observed`` is the behavior whose marginal shift is reported (a
    model's effective behavior, which with one pair of three cut is the
    explicit spectator-mediated model), and ``marginal_tables`` its
    cut-pair marginal at each spectator setting; the local-parts verdict,
    with its re-checked witness or certificate, is decided on ``target``.
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
            f"spectator_setting={x}": table.tolist()
            for x, table in enumerate(marginal(observed, off))
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
