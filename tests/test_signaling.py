import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.hvmodels import _one_off_pair_tripartite, effective_behavior
from bellsim.quantum import (
    Behavior,
    born_behavior,
    make_ghz3,
    make_singlet,
    marginal,
    no_signaling_defect,
    state_from_amplitudes,
)
from bellsim.signaling import (
    RECHECK_TOL,
    _Reduction,
    _lp_system,
    build_feasibility_problem,
    double_pr_target,
    infeasibility_slack,
    localparts_feasible,
    recheck_farkas_certificate,
    recheck_feasibility_witness,
    signal_report,
    signaling_distance,
)
from bellsim.spacetime import Boost, Event, Geometry, ModelConfig, spectator_first
from oracles import (
    _local_vertices,
    behavior_from_json,
    chsh_value,
    local_polytope_member,
    pr_box_behavior,
    recheck_membership_witness,
)


def random_state(rng, qubits):
    amps = rng.normal(size=2**qubits) + 1j * rng.normal(size=2**qubits)
    return state_from_amplitudes(amps / np.linalg.norm(amps))


def random_product_behavior(rng, settings=(2, 3)):
    pa = rng.dirichlet(np.ones(2), size=settings[0])
    pb = rng.dirichlet(np.ones(2), size=settings[1])
    return Behavior(2, settings, np.einsum("xa,yb->xyab", pa, pb))


def test_signaling_distance_zero_for_product():
    rng = np.random.default_rng(3)
    b = random_product_behavior(rng)
    assert signaling_distance(b, (0,)) <= 1e-12
    assert signaling_distance(b, (1,)) <= 1e-12


def test_signaling_distance_validates_subset():
    b = pr_box_behavior()
    with pytest.raises(ValueError):
        signaling_distance(b, ())
    with pytest.raises(ValueError):
        signaling_distance(b, (0, 1))


def test_quantum_behaviors_do_not_signal():
    rng = np.random.default_rng(11)
    for _ in range(20):
        parties = int(rng.integers(2, 4))
        state = random_state(rng, parties)
        settings = [list(rng.uniform(0, 2 * math.pi, size=2)) for _ in range(parties)]
        b = born_behavior(state, settings)
        for sub_size in range(1, parties):
            for sub in itertools.combinations(range(parties), sub_size):
                assert signaling_distance(b, sub) <= 1e-10


def test_pr_box_is_a_pr_box():
    pr = pr_box_behavior()
    assert no_signaling_defect(pr) <= 1e-12
    assert chsh_value(pr, 0, 1, 0, 1) == pytest.approx(4.0)


def test_product_behavior_is_member_with_checked_weights():
    rng = np.random.default_rng(5)
    for _ in range(5):
        b = random_product_behavior(rng, settings=(2, 2))
        res = local_polytope_member(b)
        assert res.member
        assert recheck_membership_witness(b, res.weights) <= 1e-9


def test_members_respect_chsh():
    # Random convex mixtures of deterministic points are members, and
    # membership implies every CHSH expression stays within the local bound.
    rng = np.random.default_rng(17)
    vertices = _local_vertices(2, 2)
    for _ in range(10):
        w = rng.dirichlet(np.ones(len(vertices)))
        b = Behavior(2, (2, 2), (vertices.T @ w).reshape(2, 2, 2, 2))
        res = local_polytope_member(b)
        assert res.member
        for a1, a2 in ((0, 1), (1, 0)):
            for b1, b2 in ((0, 1), (1, 0)):
                assert abs(chsh_value(b, a1, a2, b1, b2)) <= 2.0 + 1e-9


def test_pr_box_rejected_with_chsh_margin():
    res = local_polytope_member(pr_box_behavior())
    assert not res.member
    cert = res.certificate
    # Re-check the separation directly: bound recomputed over all vertices.
    h = cert.h.reshape(-1)
    bound = np.max(_local_vertices(2, 2) @ h)
    value = h @ pr_box_behavior().table.reshape(-1)
    assert value - bound >= 2.0 - 1e-9
    assert "<=" in cert.inequality_string()


def test_singlet_chsh_settings_rejected():
    b = born_behavior(
        make_singlet(), [[0.0, math.pi / 2], [math.pi / 4, 3 * math.pi / 4]]
    )
    res = local_polytope_member(b)
    assert not res.member
    assert res.certificate.margin == pytest.approx(2 * math.sqrt(2) - 2, abs=1e-8)


def test_membership_validates_input():
    with pytest.raises(ValueError):
        local_polytope_member(double_pr_target())
    rng = np.random.default_rng(0)
    wide = random_product_behavior(rng, settings=(5, 2))
    with pytest.raises(ValueError):
        local_polytope_member(wide)


@pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 0.0, -1e-8])
def test_membership_near_the_boundary_is_rechecked_or_raises(eps):
    """(1/2 + eps) PR + (1/2 - eps) white noise has CHSH 2 + 4 eps.  Each
    answer is a member whose weights re-check, a rejection whose margin
    re-checks, or RuntimeError; inside the LP's tolerance band (eps of
    1e-7 and 1e-8) it is never a member."""
    b = Behavior(2, (2, 2), (0.5 + eps) * pr_box_behavior().table + (0.5 - eps) / 4)
    try:
        res = local_polytope_member(b)
    except RuntimeError as exc:
        assert "boundary" in str(exc)
        return
    if res.member:
        assert eps not in (1e-7, 1e-8)
        assert recheck_membership_witness(b, res.weights) <= RECHECK_TOL
    else:
        h = res.certificate.h.reshape(-1)
        margin = h @ b.table.reshape(-1) - np.max(_local_vertices(2, 2) @ h)
        assert margin > RECHECK_TOL


def test_membership_takes_one_lp_per_decision(monkeypatch):
    """One separation LP decides each behavior: its optimum rejects, its
    duals are the member's weights, and a boundary case raises after it."""
    import scipy.optimize

    real = scipy.optimize.linprog
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    rng = np.random.default_rng(41)
    boundary = Behavior(2, (2, 2), (0.5 + 1e-7) * pr_box_behavior().table + (0.5 - 1e-7) / 4)
    for b in (pr_box_behavior(), random_product_behavior(rng, (3, 4)), boundary):
        calls.clear()
        try:
            local_polytope_member(b)
        except RuntimeError:
            pass
        assert len(calls) == 1


def test_product_target_feasible():
    rng = np.random.default_rng(23)
    pa = rng.dirichlet(np.ones(2), size=2)
    pb = rng.dirichlet(np.ones(2), size=2)
    pc = rng.dirichlet(np.ones(2), size=2)
    table = np.einsum("xa,yb,zc->xyzabc", pa, pb, pc)
    target = Behavior(3, (2, 2, 2), table)
    res = localparts_feasible(target, (1, 2))
    assert res.feasible
    assert res.max_residual <= 1e-9
    assert res.witness_weights.sum() == pytest.approx(1.0, abs=1e-9)


def test_ghz_instance_feasible_with_verified_witness():
    target = born_behavior(make_ghz3(), [[0.0, math.pi / 2], [0.0], [0.0]])
    res = localparts_feasible(target, (1, 2))
    assert res.feasible
    witness = res.witness
    assert no_signaling_defect(witness) <= 1e-9
    # AB and AC marginals of the witness reproduce the target's exactly.
    for pair in ((0, 1), (0, 2)):
        assert np.max(np.abs(marginal(witness, pair) - marginal(target, pair))) <= 1e-9
    # The witness' BC marginal ignores Alice's setting and is local.
    assert signaling_distance(witness, (1, 2)) <= 1e-9
    bc = Behavior(2, witness.settings_per_party[1:], marginal(witness, (1, 2))[0])
    assert local_polytope_member(bc).member


def test_double_pr_target_infeasible_with_verified_certificate():
    res = localparts_feasible(double_pr_target(), (1, 2))
    assert not res.feasible
    margin = recheck_farkas_certificate(res.problem, res.certificate.y)
    assert margin > 1e-9
    assert res.certificate.margin == pytest.approx(margin)
    # PR-box monogamy: at x = 0, b = c = a forces L(+1,+1|0,1) = 1/2, at
    # x = 1, c = not b forces it to 0.  Six rows of weight 1/6 prove it.
    assert res.certificate.margin == pytest.approx(1 / 12, abs=1e-15)
    assert np.abs(res.certificate.y).sum() == pytest.approx(1.0, abs=1e-15)
    assert res.certificate.inequality_string().startswith(
        "Frechet interval empty at x=0, x'=1, (y, z)=(0, 1): lo = 0.5 > hi = 0, where for "
        "a = +1, -1 lo_a = P_AC(a,+1|x,z)-P_AB(a,-1|x,y), 0 and "
        "hi_a = P_AC(a,+1|x',z), P_AB(a,+1|x',y)"
    )


def exact_margin(problem, y):
    """y.b - sum_j max(0, (A^T y)_j) in exact rational arithmetic from the
    float b and y, floats or Fractions: every float is a dyadic rational,
    so nothing rounds."""
    support = np.nonzero(y)[0]
    ys = [Fraction(y[i]) for i in support]
    value = sum(w * Fraction(float(problem.b_eq[i])) for w, i in zip(ys, support))
    aty = [
        sum(w * int(problem.a_eq[i, j]) for w, i in zip(ys, support))
        for j in range(problem.a_eq.shape[1])
    ]
    return value - sum(max(Fraction(0), v) for v in aty)


@pytest.mark.parametrize("lam", [0.0, 0.5 - 1e-8])
def test_named_inequality_has_an_exact_positive_margin(lam):
    """The double PR, and with white noise 1e-8 short of the boundary:
    the certificate names (x, x', y, z) and each a's branch, and its margin
    recomputed exactly from the float rhs is positive."""
    target = Behavior(3, (2, 2, 2), (1 - lam) * double_pr_target().table + lam / 8.0)
    res = localparts_feasible(target, (1, 2))
    assert not res.feasible
    assert res.certificate.inequality_string().startswith(
        "Frechet interval empty at x=0, x'=1, (y, z)=(0, 1)"
    )
    exact = exact_margin(res.problem, res.certificate.y)
    assert exact > 0
    assert float(exact) == pytest.approx(res.certificate.margin, abs=1e-15)
    assert float(exact) == pytest.approx((0.5 - lam) / 6, rel=1e-6)


def test_spectator_shift_of_a_receiver_marginal_is_rejected():
    """Bob's outcome depends on Alice's setting while both pair marginals
    with Alice stay independent of the third setting: no local part can
    match, and the certificate names the shift exactly."""
    pa = np.array([[0.5, 0.5], [0.25, 0.75]])
    pb = np.array([[[0.875, 0.125]] * 2, [[0.125, 0.875]] * 2])  # (x, y, b)
    pc = np.array([[0.5, 0.5], [0.5, 0.5]])
    target = Behavior(3, (2, 2, 2), np.einsum("xa,xyb,zc->xyzabc", pa, pb, pc))
    res = localparts_feasible(target, (1, 2))
    assert not res.feasible
    assert res.certificate.inequality_string().startswith(
        "the spectator's setting shifts P_B(+1|y=0) from 0.125 at x=1 to 0.875 at x=0"
    )
    assert exact_margin(res.problem, res.certificate.y) == Fraction(3, 32)
    assert infeasibility_slack(target, (1, 2)) == res.certificate.margin == 3 / 32


def test_off_pair_roles_can_be_permuted():
    # Swap parties 0 and 1 of the double-PR target; the spectator is then
    # party 1 and the cut pair (0, 2), and infeasibility must persist.
    base = double_pr_target()
    table = np.transpose(base.table, (1, 0, 2, 4, 3, 5))
    swapped = Behavior(3, (2, 2, 2), table)
    res = localparts_feasible(swapped, (0, 2))
    assert not res.feasible
    assert res.certificate.margin > 1e-9

    ghz = born_behavior(make_ghz3(), [[0.0], [0.0, math.pi / 2], [0.0]])
    assert localparts_feasible(ghz, (0, 2)).feasible


def test_feasibility_validates_input():
    with pytest.raises(ValueError):
        localparts_feasible(pr_box_behavior(), (0, 1))
    ghz = born_behavior(make_ghz3(), [[0.0, math.pi / 2], [0.0], [0.0]])
    for off_pair in ((1, 1), (0, 3), (2,)):
        with pytest.raises(ValueError, match="two distinct parties"):
            localparts_feasible(ghz, off_pair)


def reference_local_vertices(ma, mb):
    """Deterministic vertices filled entry by entry."""
    rows = []
    for bits_a in itertools.product((0, 1), repeat=ma):
        for bits_b in itertools.product((0, 1), repeat=mb):
            v = np.zeros((ma, mb, 2, 2))
            for x in range(ma):
                for y in range(mb):
                    v[x, y, bits_a[x], bits_b[y]] = 1.0
            rows.append(v.reshape(ma * mb * 4))
    return np.array(rows)


def reference_pair_marginal(permuted, pair, what):
    """The pair's marginal through quantum.marginal of the spectator-first
    table, each remaining setting's table compared with the first."""
    tables = marginal(permuted, pair)
    for t in tables[1:]:
        if np.max(np.abs(t - tables[0])) > 1e-9:
            raise ValueError(f"target's {what} marginal depends on the remaining party's setting")
    return tables[0]


def reference_feasibility_problem(target, off_pair):
    """(a_eq, b_eq, n_q, strategies, settings) of the local-parts LP, built
    row by row with one loop nest per row block."""
    off = tuple(sorted(off_pair))
    (spect,) = tuple(set(range(3)) - set(off))
    perm = (spect, off[0], off[1])
    table = np.transpose(target.table, perm + tuple(3 + q for q in perm))
    spp = tuple(target.settings_per_party[q] for q in perm)
    permuted = Behavior(3, spp, np.ascontiguousarray(table))
    ma, mb, mc = spp
    t_ab = reference_pair_marginal(permuted, (0, 1), "spectator-first-partner")
    t_ac = reference_pair_marginal(permuted, (0, 2), "spectator-second-partner")
    q_shape = (ma, mb, mc, 2, 2, 2)
    n_q = int(np.prod(q_shape))
    strategies = tuple(
        (bits_b, bits_c)
        for bits_b in itertools.product((0, 1), repeat=mb)
        for bits_c in itertools.product((0, 1), repeat=mc)
    )

    def q_index(*index):
        return int(np.ravel_multi_index(index, q_shape))

    rows, rhs = [], []

    def add_row(plus, minus=(), value=0.0, weights=()):
        row = np.zeros(n_q + len(strategies))
        for index in plus:
            row[q_index(*index)] += 1.0
        for index in minus:
            row[q_index(*index)] -= 1.0
        for k in weights:
            row[n_q + k] -= 1.0
        rows.append(row)
        rhs.append(float(value))

    for x, y, z in itertools.product(range(ma), range(mb), range(mc)):
        add_row([(x, y, z, a, b, c) for a, b, c in itertools.product((0, 1), repeat=3)], value=1.0)
    for x in range(ma - 1):
        for y, z, b, c in itertools.product(range(mb), range(mc), (0, 1), (0, 1)):
            add_row([(x, y, z, a, b, c) for a in (0, 1)], [(x + 1, y, z, a, b, c) for a in (0, 1)])
    for y in range(mb - 1):
        for x, z, a, c in itertools.product(range(ma), range(mc), (0, 1), (0, 1)):
            add_row([(x, y, z, a, b, c) for b in (0, 1)], [(x, y + 1, z, a, b, c) for b in (0, 1)])
    for z in range(mc - 1):
        for x, y, a, b in itertools.product(range(ma), range(mb), (0, 1), (0, 1)):
            add_row([(x, y, z, a, b, c) for c in (0, 1)], [(x, y, z + 1, a, b, c) for c in (0, 1)])
    for x, y, z, a, b in itertools.product(range(ma), range(mb), range(mc), (0, 1), (0, 1)):
        add_row([(x, y, z, a, b, c) for c in (0, 1)], value=t_ab[x, y, a, b])
    for x, y, z, a, c in itertools.product(range(ma), range(mb), range(mc), (0, 1), (0, 1)):
        add_row([(x, y, z, a, b, c) for b in (0, 1)], value=t_ac[x, z, a, c])
    for x, y, z, b, c in itertools.product(range(ma), range(mb), range(mc), (0, 1), (0, 1)):
        add_row(
            [(x, y, z, a, b, c) for a in (0, 1)],
            weights=[
                k for k, (bits_b, bits_c) in enumerate(strategies)
                if bits_b[y] == b and bits_c[z] == c
            ],
        )
    return np.array(rows), np.array(rhs), n_q, strategies, spp


def test_local_vertices_match_entry_by_entry_reference():
    for ma, mb in itertools.product(range(1, 5), repeat=2):
        got = _local_vertices(ma, mb)
        want = reference_local_vertices(ma, mb)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", list(itertools.product((1, 2, 3), repeat=3)))
@settings(max_examples=6, deadline=None)
@given(
    kind=st.sampled_from(("born", "double_pr")),
    seed=st.integers(0, 2**32 - 1),
    noise=st.floats(0.0, 1.0),
)
def test_feasibility_problem_matches_row_by_row_reference(shape, kind, seed, noise):
    """Byte-identical system on every cut pair, or the same rejection."""
    if kind == "born":
        rng = np.random.default_rng(seed)
        angles = [rng.uniform(0, 2 * math.pi, m).tolist() for m in shape]
        target = born_behavior(random_state(rng, 3), angles)
    else:
        # Its two settings repeat cyclically.  The double PR signals to some
        # pairs: those cuts must be rejected alike.
        table = (1 - noise) * double_pr_target().table + noise / 8.0
        target = Behavior(3, shape, table[np.ix_(*(np.arange(m) % 2 for m in shape))])
    for off_pair in ((1, 2), (0, 2), (0, 1)):
        try:
            a_eq, b_eq, n_q, strategies, spp = reference_feasibility_problem(target, off_pair)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                build_feasibility_problem(target, off_pair)
            continue
        problem = build_feasibility_problem(target, off_pair)
        assert problem.a_eq.shape == a_eq.shape
        assert problem.a_eq.tobytes() == a_eq.tobytes()
        assert problem.b_eq.tobytes() == b_eq.tobytes()
        assert problem.strategies == strategies
        assert problem.settings == spp
        assert problem.n_q == n_q


def test_infeasibility_slack_signs():
    target = born_behavior(make_ghz3(), [[0.0, math.pi / 2], [0.0], [0.0]])
    assert infeasibility_slack(target, (1, 2)) <= 1e-9
    assert infeasibility_slack(double_pr_target(), (1, 2)) > 0.05


def test_lps_reach_scipy_linprog_unchanged(monkeypatch, lp_needing_target):
    """Every LP goes through scipy.optimize.linprog as looked up at call
    time, with its arguments and result passed on unchanged, so a wrapper
    installed there (as the benchmark tracer does) sees every LP.  A target
    that no spectator-outcome model fits takes one centred LP over the cut
    pair's strategy weights and t, with the shape's cached dense matrices;
    the GHZ target, which such a model fits, and a target with an empty
    Frechet interval take none."""
    import scipy.optimize

    amplitudes, angles = lp_needing_target
    needy = born_behavior(state_from_amplitudes([complex(*a) for a in amplitudes]), angles)
    ghz = born_behavior(make_ghz3(), [[0.0, math.pi / 2], [0.0], [0.0]])
    dpr = double_pr_target()
    plain = localparts_feasible(needy, (1, 2))

    real = scipy.optimize.linprog
    calls = []

    def recorder(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    def recorded(fn, *args):
        calls.clear()
        return fn(*args), list(calls)

    monkeypatch.setattr(scipy.optimize, "linprog", recorder)
    res, feasible_calls = recorded(localparts_feasible, needy, (1, 2))
    needy_slack, needy_calls = recorded(infeasibility_slack, needy, (1, 2))
    modelled, ghz_calls = recorded(localparts_feasible, ghz, (1, 2))
    ghz_slack, ghz_slack_calls = recorded(infeasibility_slack, ghz, (1, 2))
    rejected, dpr_calls = recorded(localparts_feasible, dpr, (1, 2))
    dpr_slack, dpr_slack_calls = recorded(infeasibility_slack, dpr, (1, 2))

    assert dpr_calls == dpr_slack_calls == ghz_calls == ghz_slack_calls == []
    assert not rejected.feasible and dpr_slack == rejected.certificate.margin > 0.05
    assert modelled.feasible and modelled.max_residual <= RECHECK_TOL and ghz_slack == 0.0
    assert res.feasible and needy_slack == 0.0 and len(needy_calls) == 1

    ((c,), kw, result) = feasible_calls[0]
    assert len(feasible_calls) == 1
    system = _lp_system(res.problem.settings)
    k = len(res.problem.strategies)
    assert kw["method"] == "highs"
    assert kw["A_ub"] is system.lp_ub and kw["A_eq"] is system.lp_eq
    assert isinstance(kw["A_ub"], np.ndarray) and isinstance(kw["A_eq"], np.ndarray)
    _, mb, mc = res.problem.settings
    assert kw["A_ub"].shape == (2 * mb * mc, k + 1) and kw["A_eq"].shape == (1 + mb + mc, k + 1)
    assert c.tobytes() == np.concatenate([np.zeros(k), [-1.0]]).tobytes()
    assert kw["bounds"] == [(0, None)] * k + [(None, None)]
    assert result.status == 0
    assert result.x[-1] == pytest.approx(0.0158, abs=1e-4)
    assert res.max_residual <= RECHECK_TOL
    assert res.witness_weights.tobytes() == np.clip(result.x[:-1], 0.0, None).tobytes()
    assert res.witness.table.tobytes() == plain.witness.table.tobytes()


def oracle_slack(target, off_pair):
    """The slack LP, min t subject to |A z - b| <= t with z in [0, 1], on the
    row-by-row reference system, and the max-norm violation of its z
    clipped to [0, 1], re-checked: an upper bound on the true minimum,
    which no certificate's margin may exceed."""
    import scipy.optimize

    a_eq, b_eq, *_ = reference_feasibility_problem(target, off_pair)
    rows, n = a_eq.shape
    ones = np.ones((rows, 1))
    res = scipy.optimize.linprog(
        np.concatenate([np.zeros(n), [1.0]]),
        A_ub=np.block([[a_eq, -ones], [-a_eq, -ones]]),
        b_ub=np.concatenate([b_eq, -b_eq]),
        bounds=[(0, 1)] * n + [(0, None)],
        method="highs",
    )
    assert res.status == 0
    return float(np.max(np.abs(a_eq @ np.clip(res.x[:-1], 0.0, 1.0) - b_eq)))


def test_slack_equals_the_slack_lp_alone():
    """infeasibility_slack is exactly 0.0 on a feasible verdict and else the
    certificate's margin (||y||_1 = 1), which the slack LP on the full
    system bounds from above: random states at (2,2,2) and (3,3,3), noisy
    double PRs, and GHZ with Alice at 0 and pi/2 and Bob and Charlie
    sharing angles on a grid of pi/8 steps."""
    rng = np.random.default_rng(29)
    targets = [
        born_behavior(random_state(rng, 3), rng.uniform(0, 2 * math.pi, (3, m)).tolist())
        for m in (2, 2, 2, 3, 3, 3)
    ]
    for lam in rng.uniform(0.0, 0.4, 4):
        targets.append(Behavior(3, (2, 2, 2), (1 - lam) * double_pr_target().table + lam / 8.0))
    axis = [k * math.pi / 8 for k in range(8)]
    ghz = make_ghz3()
    targets += [
        born_behavior(ghz, ((axis[0], axis[4]), (b1, b2), (b1, b2)))
        for b1, b2 in itertools.product(axis, repeat=2)
    ]
    zeros = 0
    for target in targets:
        slack = infeasibility_slack(target, (1, 2))
        res = localparts_feasible(target, (1, 2))
        if res.feasible:
            assert slack == 0.0
            zeros += 1
        else:
            assert slack == res.certificate.margin
            assert 0.0 < slack <= oracle_slack(target, (1, 2)) + 1e-12
            assert np.abs(res.certificate.y).sum() == pytest.approx(1.0, abs=1e-12)
    assert 0 < zeros < len(targets)


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(0.0, 1.0),
    product=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_slack_is_zero_exactly_on_feasible_mixtures(lam, product, seed):
    """(1 - lam) double PR + lam (white noise or a product behavior): a
    feasible verdict gives slack 0.0, and any other a margin that the slack
    LP's optimum bounds from above."""
    if product:
        rng = np.random.default_rng(seed)
        pa, pb, pc = (rng.dirichlet(np.ones(2), size=2) for _ in range(3))
        other = np.einsum("xa,yb,zc->xyzabc", pa, pb, pc)
    else:
        other = np.full((2,) * 6, 1 / 8.0)
    target = Behavior(3, (2, 2, 2), (1 - lam) * double_pr_target().table + lam * other)
    slack = infeasibility_slack(target, (1, 2))
    if localparts_feasible(target, (1, 2)).feasible:
        assert slack == 0.0
    else:
        assert 0.0 < slack <= oracle_slack(target, (1, 2)) + 1e-12


@pytest.mark.parametrize(
    "lam, margin",
    [(0.5 + eps, 0.0) for eps in (1e-7, 3e-8, 1e-8, 3e-9, 1e-9)]
    + [(0.5 - 1e-6, 1.67e-7), (0.5 - 1e-7, 1.67e-8), (0.5 - 1e-8, 1.67e-9), (0.5 - 3e-9, None)],
)
def test_noisy_double_pr_near_the_boundary(lam, margin):
    """(1 - lam) double PR + lam white noise is feasible exactly for
    lam >= 1/2, where its Frechet gap 1/2 - lam closes.  Just above, a
    witness re-checks; below, the interval's certificate re-checks with
    margin (1/2 - lam) / 6 down to 1e-8 short of 1/2.  Between about 1e-9
    and 6e-9 short, the lifted witness misses by the gap while the margin
    is at most RECHECK_TOL, and both functions say so instead of guessing."""
    target = Behavior(3, (2, 2, 2), (1 - lam) * double_pr_target().table + lam / 8.0)
    if margin is None:
        for fn in (localparts_feasible, infeasibility_slack):
            with pytest.raises(RuntimeError, match="within re-check tolerance"):
                fn(target, (1, 2))
        return
    res = localparts_feasible(target, (1, 2))
    found = infeasibility_slack(target, (1, 2))
    assert res.feasible == (margin == 0.0)
    if res.feasible:
        assert res.max_residual <= RECHECK_TOL
        assert found == 0.0
    else:
        assert found == res.certificate.margin == pytest.approx(margin, rel=1e-2)
        assert res.certificate.margin > RECHECK_TOL


def test_the_model_must_fit_every_spectator_settings_interval(no_lp):
    """At three spectator settings, the model at x* = 0 of this random
    state lies in the interval at x = 1 but not at x = 2, and only the
    model at x* = 2 lies in all three: that one is the witness, with no
    LP."""
    amps = [0.2 - 0.01j, -0.78 - 1.45j, 0.36 - 0.46j, 0.34 + 0.74j,
            2.03 - 0.08j, -1.39 + 0.08j, 0.89 - 0.29j, -0.09 + 1.15j]
    angles = [[2.37, 2.34, 3.39], [1.35, 1.55], [2.07, 2.87]]
    target = born_behavior(state_from_amplitudes(np.array(amps) / np.linalg.norm(amps)), angles)
    reduction = _Reduction(build_feasibility_problem(target, (1, 2)))
    l00 = (reduction.spectator_models() @ reduction.s.s00.T).reshape(reduction.lo.shape)
    inside = np.all((reduction.lo[None] <= l00[:, None]) & (l00[:, None] <= reduction.hi[None]),
                    axis=(2, 3))  # (x*, x)
    assert inside.tolist() == [[True, True, False], [True, True, False], [True, True, True]]
    res = localparts_feasible(target, (1, 2))
    assert res.feasible and res.max_residual <= RECHECK_TOL


@pytest.mark.parametrize("shift", [2e-9, 4e-9, 7e-9])
def test_receiver_shift_below_the_certificate_is_undecided(shift):
    """Bob's marginal moves with Alice's setting by a few 1e-9: too little
    for the shift's certificate (margin shift / 8) to re-check, and too
    much for a lifted witness, the spectator-outcome model's included,
    whose residual is the shift.  Both functions say so instead of
    returning a witness that misses by more than RECHECK_TOL."""
    pa = np.array([[0.5, 0.5], [0.25, 0.75]])
    pb = np.array([[[0.625, 0.375]] * 2, [[0.625 + shift, 0.375 - shift]] * 2])  # (x, y, b)
    pc = np.array([[0.5, 0.5], [0.75, 0.25]])
    target = Behavior(3, (2, 2, 2), np.einsum("xa,xyb,zc->xyzabc", pa, pb, pc))
    reduction = _Reduction(build_feasibility_problem(target, (1, 2)))
    assert reduction.rejection() is None
    for fn in (localparts_feasible, infeasibility_slack):
        with pytest.raises(RuntimeError, match="within re-check tolerance"):
            fn(target, (1, 2))


@pytest.mark.parametrize("lam", [0.0, 0.2, 0.49])
def test_centred_lp_duals_certify_when_no_local_behavior_fits(lam):
    """A negative centred-LP margin t* means no local L fits the intervals,
    and the LP's duals, mapped to rows of the full system, make a
    certificate that re-checks.  The noisy double PR reaches this path
    only when the interval test is skipped, as here: at shapes in {1,2}^3
    a negative t* cannot follow a rejection() that found nothing
    (acceptance criterion 8), so the dual certificate serves shapes with
    a 3."""
    target = Behavior(3, (2, 2, 2), (1 - lam) * double_pr_target().table + lam / 8.0)
    problem = build_feasibility_problem(target, (1, 2))
    _, resid, cert, t_star = _Reduction(problem).witness()
    assert t_star == pytest.approx(-(0.5 - lam) / 2, abs=1e-12)
    assert resid > RECHECK_TOL
    assert cert.inequality_string().startswith("no local receiver-pair behavior fits")
    assert np.abs(cert.y).sum() == pytest.approx(1.0, abs=1e-12)
    assert cert.margin == recheck_farkas_certificate(problem, cert.y)
    assert cert.margin == pytest.approx(localparts_feasible(target, (1, 2)).certificate.margin)
    assert cert.margin <= oracle_slack(target, (1, 2)) + 1e-12


#: V1 of the (3,3,3) counterexample, an NS vertex of the pair-marginal
#: polytope: [P++, P+-, P-+, P--] per (x, y) for AB and per (x, z) for AC.
_H = Fraction(1, 2)
V1_AB = [
    [(0, 0, _H, _H), (0, 0, _H, _H), (0, 0, 1, 0)],
    [(_H, 0, 0, _H), (_H, 0, 0, _H), (_H, 0, _H, 0)],
    [(0, _H, _H, 0), (0, _H, _H, 0), (_H, 0, _H, 0)],
]
V1_AC = [
    [(0, 0, 1, 0), (0, 0, _H, _H), (0, 0, _H, _H)],
    [(_H, 0, _H, 0), (0, _H, _H, 0), (0, _H, _H, 0)],
    [(_H, 0, _H, 0), (_H, 0, 0, _H), (0, _H, _H, 0)],
]


def counterexample_target(eps):
    """Q = T_AB T_AC / T_A of the pair marginals (1 - eps) V0 + eps V1,
    computed in Fractions and rounded once.  V0 is deterministic: A
    answers +1 at every x, B +1 at y = 0 and -1 at y = 1, 2, C -1 at
    z = 0 and +1 at z = 1, 2 (outcome index 0 is +1).  Q's AB and AC
    marginals are T_AB and T_AC at every remaining setting, which is all
    the local-parts program reads; its BC marginal moves with x."""
    v0_ab, v0_ac = np.zeros((2, 3, 3, 2, 2), dtype=int)
    v0_ab[:, range(3), 0, [0, 1, 1]] = 1
    v0_ac[:, range(3), 0, [1, 0, 0]] = 1
    t_ab = (1 - eps) * v0_ab + eps * np.array(V1_AB, dtype=object).reshape(3, 3, 2, 2)
    t_ac = (1 - eps) * v0_ac + eps * np.array(V1_AC, dtype=object).reshape(3, 3, 2, 2)
    t_a = t_ab[:, 0].sum(axis=-1)  # (x, a), positive for 0 < eps < 1
    q = t_ab[:, :, None, :, :, None] * t_ac[:, None, :, :, None, :] / t_a[:, None, None, :, None, None]
    return Behavior(3, (3, 3, 3), q.astype(float))


@pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 16), Fraction(1, 2**10)])
def test_local_part_binds_at_three_settings(eps):
    """The (3,3,3) counterexample: no Frechet interval is empty and no
    receiver marginal shifts, so rejection() finds nothing, yet the
    centred LP's t* is -eps/16 and its duals prove infeasibility with
    margin eps/84.  Rounded to the multiples of 1/42 they approximate,
    the certificate's weights keep ||y||_1 = 1 and prove the margin
    eps/84 exactly."""
    target = counterexample_target(eps)
    problem = build_feasibility_problem(target, (1, 2))
    reduction = _Reduction(problem)
    assert reduction.rejection() is None
    _, resid, cert, t_star = reduction.witness()
    assert t_star == pytest.approx(float(-eps / 16), abs=1e-12)
    assert resid > RECHECK_TOL
    assert cert.inequality_string().startswith("no local receiver-pair behavior fits")
    exact = exact_margin(problem, cert.y)
    assert exact > 0
    assert abs(exact - eps / 84) <= 1e-15
    rounded = np.array([Fraction(float(v)).limit_denominator(42) for v in cert.y], dtype=object)
    assert sum(abs(v) for v in rounded) == 1
    assert exact_margin(problem, rounded) == eps / 84
    assert cert.margin <= oracle_slack(target, (1, 2)) + 1e-12
    res = localparts_feasible(target, (1, 2))
    assert not res.feasible
    assert res.certificate.margin == cert.margin


def test_local_part_binds_through_a_forced_3322_type_box():
    """At eps = 1/2 every Frechet interval has zero width, so the
    intervals force the BC box.  It passes every CHSH form on its 2x2
    sub-blocks, yet lies outside the (3,3) local polytope.  Every
    restriction of the target to two settings at one or more parties has
    a local part.  A no-signaling target with the same AB and AC
    marginals, a vertex of blocks 1-6 of the row-by-row system, is
    rejected as well."""
    target = counterexample_target(Fraction(1, 2))
    reduction = _Reduction(build_feasibility_problem(target, (1, 2)))
    l00 = reduction.lo.max(axis=0)
    assert np.array_equal(l00, reduction.hi.min(axis=0))
    assert l00.tolist() == [[0.25, 0.5, 0.5], [0.25, 0.0, 0.25], [0.5, 0.25, 0.25]]
    p_b, p_c = reduction.t_b[0], reduction.t_c[0]
    assert (p_b.tolist(), p_c.tolist()) == ([0.75, 0.25, 0.5], [0.5, 0.75, 0.75])
    box = np.empty((3, 3, 2, 2))
    box[..., 0, 0] = l00
    box[..., 0, 1] = p_b[:, None] - l00
    box[..., 1, 0] = p_c[None, :] - l00
    box[..., 1, 1] = 1 - p_b[:, None] - p_c[None, :] + l00
    bc = Behavior(2, (3, 3), box)
    for (y, y2), (z, z2) in itertools.product(itertools.permutations(range(3), 2), repeat=2):
        assert abs(chsh_value(bc, y, y2, z, z2)) <= 2.0
    member = local_polytope_member(bc)
    assert not member.member and member.certificate.margin > 1e-9

    for keep in itertools.product(((0, 1, 2), (0, 1), (0, 2), (1, 2)), repeat=3):
        if min(map(len, keep)) == 2:
            table = np.ascontiguousarray(target.table[np.ix_(*keep)])
            assert localparts_feasible(Behavior(3, tuple(map(len, keep)), table), (1, 2)).feasible

    import scipy.optimize

    a_eq, b_eq, n_q, *_ = reference_feasibility_problem(target, (1, 2))
    rows = len(b_eq) - 27 * 4  # block 7 has one row per (x, y, z, b, c)
    found = scipy.optimize.linprog(np.zeros(n_q), A_eq=a_eq[:rows, :n_q], b_eq=b_eq[:rows],
                                   bounds=(0, None), method="highs")
    assert found.status == 0
    ns = Behavior(3, (3, 3, 3), np.clip(found.x, 0.0, None).reshape(target.table.shape))
    assert no_signaling_defect(ns) <= 1e-12
    assert np.max(np.abs(marginal(ns, (0, 1)) - marginal(target, (0, 1)))) <= 1e-12
    assert np.max(np.abs(marginal(ns, (0, 2)) - marginal(target, (0, 2)))) <= 1e-12
    res = localparts_feasible(ns, (1, 2))
    assert not res.feasible
    assert res.certificate.margin == pytest.approx(1 / 168, abs=1e-12)


@pytest.mark.parametrize("shape", list(itertools.product((1, 2, 3), repeat=3)))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_spectator_models_are_local_and_fit_their_own_intervals(shape, seed):
    """On every cut pair of a random state: the spectator-outcome model at
    x* is a probability vector over the strategies whose receiver-pair
    behavior is sum_a T_AB(a,b|x*,y) T_AC(a,c|x*,z) / T_A(a|x*), so its
    marginals are T_B and T_C at x*, and its L00 lies in [lo, hi] at x*,
    as each a's independent coupling lies inside its Frechet bounds."""
    rng = np.random.default_rng(seed)
    angles = [rng.uniform(0, 2 * math.pi, m).tolist() for m in shape]
    target = born_behavior(random_state(rng, 3), angles)
    for off_pair in ((1, 2), (0, 2), (0, 1)):
        reduction = _Reduction(build_feasibility_problem(target, off_pair))
        models = reduction.spectator_models()
        ma, mb, mc = reduction.problem.settings
        t_ab, t_ac = reduction.t_ab, reduction.t_ac  # (x, y, a, b), (x, z, a, c)
        assert models.shape == (ma, len(reduction.problem.strategies))
        assert models.min() >= 0.0
        assert np.max(np.abs(models.sum(axis=1) - 1.0)) <= 1e-12
        for x in range(ma):
            local = np.zeros((mb, mc, 2, 2))
            for w, (bits_b, bits_c) in zip(models[x], reduction.problem.strategies):
                for y, z in itertools.product(range(mb), range(mc)):
                    local[y, z, bits_b[y], bits_c[z]] += w
            t_a = t_ab[x, 0].sum(axis=-1)
            coupled = np.einsum("yab,zac,a->yzbc", t_ab[x], t_ac[x], 1.0 / t_a)
            assert np.max(np.abs(local - coupled)) <= 1e-12
            assert np.max(np.abs(local.sum(axis=3) - t_ab[x].sum(axis=1)[:, None])) <= 1e-12
            assert np.max(np.abs(local.sum(axis=2) - t_ac[x].sum(axis=1)[None])) <= 1e-12
            l00 = local[..., 0, 0]
            assert np.all(reduction.lo[x] - 1e-12 <= l00) and np.all(l00 <= reduction.hi[x] + 1e-12)


@pytest.mark.parametrize(
    "amplitudes",
    [
        [1, 0, 0, 0, 0, 0, 0, 1],  # GHZ
        [1, 0, 0, 0, 0, 0, 0, 0],  # |000>: T_A(-1|0) = 0
    ],
)
def test_spectator_outcome_model_decides_without_an_lp(amplitudes, no_lp):
    """The GHZ target's witness, and a product target's with an outcome of
    probability zero, come from a spectator-outcome model and re-check."""
    state = state_from_amplitudes(np.array(amplitudes) / np.linalg.norm(amplitudes))
    target = born_behavior(state, [[0.0, math.pi / 2], [0.0], [0.0]])
    res = localparts_feasible(target, (1, 2))
    assert res.feasible and res.max_residual <= RECHECK_TOL
    assert infeasibility_slack(target, (1, 2)) == 0.0


@pytest.mark.parametrize("shape", list(itertools.product((1, 2, 3), repeat=3)))
@settings(max_examples=3, deadline=None)
@given(
    kind=st.sampled_from(("born", "double_pr", "shifted")),
    seed=st.integers(0, 2**32 - 1),
    noise=st.floats(0.0, 1.0),
)
def test_decision_agrees_with_the_full_lp(shape, kind, seed, noise):
    """On every cut pair: a feasible verdict's witness re-checks against
    the row-by-row reference system; a rejection's margin is positive and
    at most the slack LP's optimum on that system; and an undecided target
    lies within the LP's tolerance of the boundary.  At shapes in {1,2}^3
    the verdict is feasible exactly when rejection() finds nothing
    (acceptance criterion 8).  Targets are random quantum states, noisy
    double PRs and products in which party 0's setting shifts party 1's
    marginal."""
    rng = np.random.default_rng(seed)
    if kind == "born":
        angles = [rng.uniform(0, 2 * math.pi, m).tolist() for m in shape]
        target = born_behavior(random_state(rng, 3), angles)
    elif kind == "double_pr":
        table = (1 - noise) * double_pr_target().table + noise / 8.0
        target = Behavior(3, shape, table[np.ix_(*(np.arange(m) % 2 for m in shape))])
    else:
        pa = rng.dirichlet(np.ones(2), size=shape[0])
        pb = rng.dirichlet(np.ones(2), size=shape[:2])
        pc = rng.dirichlet(np.ones(2), size=shape[2])
        target = Behavior(3, shape, np.einsum("xa,xyb,zc->xyzabc", pa, pb, pc))
    for off_pair in ((1, 2), (0, 2), (0, 1)):
        try:
            a_eq, b_eq, *_ = reference_feasibility_problem(target, off_pair)
        except ValueError:
            continue  # the double PR signals to some pairs
        try:
            res = localparts_feasible(target, off_pair)
        except RuntimeError:
            assert oracle_slack(target, off_pair) <= 1e-7
            continue
        if max(shape) <= 2:
            assert res.feasible == (_Reduction(res.problem).rejection() is None)
        if res.feasible:
            perm = spectator_first(off_pair)
            q = np.transpose(res.witness.table, perm + tuple(3 + p for p in perm))
            z = np.concatenate([q.ravel(), res.witness_weights])
            assert np.max(np.abs(a_eq @ z - b_eq)) <= RECHECK_TOL
            assert z.min() >= -RECHECK_TOL
        else:
            assert RECHECK_TOL < res.certificate.margin <= oracle_slack(target, off_pair) + 1e-12


def test_system_is_built_once_per_shape():
    """Problems of one spectator-first shape share one read-only matrix,
    and rebuilding it from scratch changes no result bit."""
    rng = np.random.default_rng(41)
    targets = [
        born_behavior(random_state(rng, 3), rng.uniform(0, 2 * math.pi, (3, 2)).tolist()),
        double_pr_target(),
        born_behavior(random_state(rng, 3), [[0.3, 1.9], [0.7], [2.2, 0.4, 1.1]]),
    ]

    def results():
        out = []
        for target in targets:
            for off_pair in ((1, 2), (0, 2)):
                try:
                    res = localparts_feasible(target, off_pair)
                except ValueError:
                    continue  # the double PR signals to some cut pairs
                found = res.witness.table if res.feasible else res.certificate.y
                out.append((res.problem, found, infeasibility_slack(target, off_pair)))
        return out

    before = results()
    a = build_feasibility_problem(targets[0], (1, 2)).a_eq
    b = build_feasibility_problem(targets[1], (1, 2)).a_eq
    assert a is b and not a.flags.writeable
    with pytest.raises(ValueError):
        a[0, 0] = 2.0
    assert build_feasibility_problem(targets[2], (1, 2)).a_eq is not a

    _lp_system.cache_clear()
    after = results()
    assert len(before) == len(after) >= 4
    for (p0, found0, slack0), (p1, found1, slack1) in zip(before, after):
        assert p1.a_eq is not p0.a_eq
        assert p1.a_eq.tobytes() == p0.a_eq.tobytes()
        assert p1.b_eq.tobytes() == p0.b_eq.tobytes()
        assert found1.tobytes() == found0.tobytes()
        assert np.float64(slack1).tobytes() == np.float64(slack0).tobytes()


def test_witness_recheck_flags_corruption():
    res = localparts_feasible(
        born_behavior(make_ghz3(), [[0.0, math.pi / 2], [0.0], [0.0]]), (1, 2)
    )
    z = np.concatenate(
        [np.zeros(res.problem.n_q), np.zeros(len(res.problem.strategies))]
    )
    assert recheck_feasibility_witness(res.problem, z) > 0.1


def test_constructive_model_consistency():
    # For no-signaling targets the constructive OFF model exists, and an
    # x-independent pair marginal there implies the program is feasible
    # (the model itself is then a witness).  Checked both ways on
    # concrete instances: the product target realizes the zero-shift
    # branch, the entangled ones the positive-shift branch.
    rng = np.random.default_rng(29)
    targets = []
    pa = rng.dirichlet(np.ones(2), size=2)
    pb = rng.dirichlet(np.ones(2), size=2)
    pc = rng.dirichlet(np.ones(2), size=2)
    targets.append(Behavior(3, (2, 2, 2), np.einsum("xa,yb,zc->xyzabc", pa, pb, pc)))
    targets.append(born_behavior(make_ghz3(), [[0.0, math.pi / 2], [0.0], [0.0]]))
    amps = np.zeros(8)
    amps[0], amps[7] = math.cos(0.5), math.sin(0.5)
    targets.append(
        born_behavior(state_from_amplitudes(amps), [[0.1, 1.2], [0.3], [2.1]])
    )
    for target in targets:
        eff = one_off_behavior(target, (1, 2))
        sd = signaling_distance(eff, (1, 2))
        res = localparts_feasible(target, (1, 2))
        if not res.feasible:
            assert sd > 1e-9
        if sd <= 1e-12:
            assert res.feasible


def test_constructive_model_rejects_signaling_targets():
    # Alice between B and C, measured long before them: at v=2 (c=1) only
    # the far B-C pair is cut.
    g = Geometry(
        events=(Event(0.0, 150.0), Event(80.0, 0.0), Event(80.5, 300.0)),
        boosts=(Boost(0.0),) * 3,
        c=1.0,
    )
    with pytest.raises(ValueError, match="target behavior signals"):
        effective_behavior(ModelConfig(kind="finite_speed", v=2.0), g, double_pr_target())


def one_off_behavior(target, off):
    """The explicit spectator-mediated model's statistics with pair off cut."""
    table = _one_off_pair_tripartite(target, spectator_first(off))
    return Behavior(3, target.settings_per_party, table)


def constructive_report(target, off, g):
    return signal_report(one_off_behavior(target, off), target, off, g)


def test_signal_report_for_ghz_collinear_layout():
    target = born_behavior(make_ghz3(), [[0.0, math.pi / 2], [0.0], [0.0]])
    g = Geometry(
        events=(Event(0.0, 0.0), Event(0.0, 10.0), Event(0.0, 20.0)),
        boosts=(Boost(0.0),) * 3,
        c=1.0,
    )
    report = constructive_report(target, (1, 2), g)
    assert report["off_pair"] == [1, 2]
    assert report["spectator"] == 0
    assert report["feasible"] is True
    assert report["witness_max_residual"] <= 1e-9
    # The reported witness keeps both spectator marginals of the target.
    witness = behavior_from_json(report["witness"])
    for pair in ((0, 1), (0, 2)):
        assert np.max(np.abs(marginal(witness, pair) - marginal(target, pair))) <= 1e-9
    assert report["signaling_distance"] == pytest.approx(0.5)
    assert report["bias"] == pytest.approx(0.25)
    assert report["channel"] == "binary"
    assert report["advantage_seconds"] == pytest.approx(10.0)
    assert report["point_d"] == {"t": 5.0, "x": 15.0, "y": 0.0}
    assert max(report["receiver_alone_distances"].values()) <= 1e-12
    json.dumps(report)


def test_signal_report_no_channel_for_product_target():
    rng = np.random.default_rng(31)
    pa = rng.dirichlet(np.ones(2), size=2)
    pb = rng.dirichlet(np.ones(2), size=2)
    pc = rng.dirichlet(np.ones(2), size=2)
    target = Behavior(3, (2, 2, 2), np.einsum("xa,yb,zc->xyzabc", pa, pb, pc))
    g = Geometry(
        events=(Event(0.0, 0.0), Event(0.0, 10.0), Event(0.0, 20.0)),
        boosts=(Boost(0.0),) * 3,
        c=1.0,
    )
    report = constructive_report(target, (1, 2), g)
    assert report["channel"] == "none"
    assert report["signaling_distance"] <= 1e-12


def test_signal_report_without_point_d():
    target = born_behavior(make_ghz3(), [[0.0, math.pi / 2], [0.0], [0.0]])
    g = Geometry(
        events=(Event(0.0, 15.0), Event(0.0, 10.0), Event(0.0, 20.0)),
        boosts=(Boost(0.0),) * 3,
        c=1.0,
    )
    report = constructive_report(target, (1, 2), g)
    assert report["point_d"] is None
    assert report["advantage_seconds"] is None
    assert report["channel"] == "binary"
    json.dumps(report)


def test_signal_report_carries_rechecked_certificate():
    target = double_pr_target()
    g = Geometry(
        events=(Event(0.0, 0.0), Event(0.0, 10.0), Event(0.0, 20.0)),
        boosts=(Boost(0.0),) * 3,
        c=1.0,
    )
    report = signal_report(target, target, (1, 2), g)
    assert report["feasible"] is False
    assert "witness" not in report
    problem = localparts_feasible(target, (1, 2)).problem
    cert = report["certificate"]
    margin = recheck_farkas_certificate(problem, np.asarray(cert["y"]))
    assert margin == pytest.approx(cert["margin"], abs=1e-12)
    assert margin > 1e-9
    json.dumps(report)
