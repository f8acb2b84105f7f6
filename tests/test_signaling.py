import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.hvmodels import Geometry, constructive_off_behavior
from bellsim.inequality import chsh_value
from bellsim.quantum import (
    Behavior,
    behavior_from_json,
    born_behavior,
    make_ghz3,
    make_singlet,
    marginal,
    no_signaling_defect,
    state_from_amplitudes,
)
from bellsim.signaling import (
    RECHECK_TOL,
    _local_vertices,
    _lp_system,
    build_feasibility_problem,
    double_pr_target,
    infeasibility_slack,
    local_polytope_member,
    localparts_feasible,
    pr_box_behavior,
    recheck_farkas_certificate,
    recheck_feasibility_witness,
    recheck_membership_witness,
    search_infeasible_instance,
    signal_report,
    signaling_distance,
)
from bellsim.spacetime import Boost, Event


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
    from bellsim.signaling import _local_vertices

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
    from bellsim.signaling import _local_vertices

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
    from bellsim.quantum import marginal

    for pair in ((0, 1), (0, 2)):
        fam_w = marginal(witness, pair)
        fam_t = marginal(target, pair)
        for key in fam_t:
            assert np.max(np.abs(fam_w[key].table - fam_t[key].table)) <= 1e-9
    # The witness' BC marginal ignores Alice's setting and is local.
    assert signaling_distance(witness, (1, 2)) <= 1e-9
    bc = marginal(witness, (1, 2))[(0,)]
    assert local_polytope_member(bc).member


def test_double_pr_target_infeasible_with_verified_certificate():
    res = localparts_feasible(double_pr_target(), (1, 2))
    assert not res.feasible
    margin = recheck_farkas_certificate(res.problem, res.certificate.y)
    assert margin > 1e-9
    assert res.certificate.margin == pytest.approx(margin)
    assert "unsatisfiable" in res.certificate.inequality_string()


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
        for solve in (localparts_feasible, constructive_off_behavior):
            with pytest.raises(ValueError, match="two distinct parties"):
                solve(ghz, off_pair)


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
    """The pair's marginal through quantum.marginal, one Behavior per
    remaining setting, each compared with the first."""
    family = marginal(permuted, pair)
    tables = [family[k].table for k in sorted(family)]
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


def test_lps_reach_scipy_linprog_unchanged(monkeypatch):
    """Every LP goes through scipy.optimize.linprog as looked up at call
    time, with its arguments and result passed on unchanged, so a wrapper
    installed there (as the benchmark tracer does) sees every LP.  The
    matrices arrive as the shape's cached sparse copies of the system.
    The slack of a feasible target takes the feasibility LP alone; the
    slack LP runs only after that LP rejects the target."""
    import scipy.optimize
    import scipy.sparse

    ghz = born_behavior(make_ghz3(), [[0.0, math.pi / 2], [0.0], [0.0]])
    dpr = double_pr_target()
    plain = localparts_feasible(dpr, (1, 2))
    plain_slacks = (infeasibility_slack(ghz, (1, 2)), infeasibility_slack(dpr, (1, 2)))

    real = scipy.optimize.linprog
    calls = []

    def recorder(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    def recorded(fn, *args):
        calls.clear()
        return fn(*args), list(calls)

    def assert_primal(args, kwargs, problem):
        (c,) = args
        assert kwargs["A_eq"] is _lp_system(problem.settings).a_eq_csc
        assert kwargs["b_eq"].tobytes() == problem.b_eq.tobytes()
        assert kwargs["bounds"] == (0, 1)
        assert c.tobytes() == np.zeros(problem.a_eq.shape[1]).tobytes()

    monkeypatch.setattr(scipy.optimize, "linprog", recorder)
    res, feasible_calls = recorded(localparts_feasible, dpr, (1, 2))
    ghz_slack, ghz_calls = recorded(infeasibility_slack, ghz, (1, 2))
    dpr_slack, dpr_calls = recorded(infeasibility_slack, dpr, (1, 2))

    for _, kw, _ in feasible_calls + ghz_calls + dpr_calls:
        assert kw["method"] == "highs"
        matrix = kw.get("A_eq", kw.get("A_ub"))
        assert scipy.sparse.issparse(matrix) and matrix.format == "csc"

    # localparts_feasible: the primal, rejected, then the slack LP, whose
    # duals on the two row blocks are the certificate.
    (p_args, primal, primal_res), (_, slack_lp, slack_res) = feasible_calls
    system = _lp_system(res.problem.settings)
    m = res.problem.a_eq.shape[0]
    assert primal["b_eq"] is res.problem.b_eq
    assert_primal(p_args, primal, res.problem)
    assert primal_res.status == 2
    assert np.array_equal(primal["A_eq"].toarray(), res.problem.a_eq)
    assert slack_lp["A_ub"] is system.slack_csc
    assert not res.feasible
    duals = slack_res.ineqlin.marginals
    assert res.certificate.y.tobytes() == (duals[:m] - duals[m:]).tobytes()
    assert res.certificate.margin == plain.certificate.margin
    assert recheck_farkas_certificate(res.problem, res.certificate.y) == res.certificate.margin

    # Feasible GHZ target: one LP, the primal, whose witness re-checks.
    ((g_args, ghz_primal, ghz_res),) = ghz_calls
    assert_primal(g_args, ghz_primal, build_feasibility_problem(ghz, (1, 2)))
    assert ghz_res.status == 0
    assert ghz_slack == plain_slacks[0] == 0.0

    # Double PR: the primal (status 2), then the slack LP over [z; t].
    (d_args, dpr_primal, dpr_primal_res), (_, slack_lp, slack_res) = dpr_calls
    problem = build_feasibility_problem(dpr, (1, 2))
    assert_primal(d_args, dpr_primal, problem)
    assert dpr_primal_res.status == 2
    rows, n = problem.a_eq.shape
    ones = np.ones((rows, 1))
    assert slack_lp["A_ub"] is _lp_system(problem.settings).slack_csc
    assert np.array_equal(
        slack_lp["A_ub"].toarray(), np.block([[problem.a_eq, -ones], [-problem.a_eq, -ones]])
    )
    assert slack_lp["bounds"] == [(0, 1)] * n + [(0, None)]
    assert dpr_slack == plain_slacks[1] == float(slack_res.x[-1])
    assert dpr_slack > 0.05


def direct_slack(target, off_pair):
    """The slack LP over [z; t] solved on its own, with no feasibility LP first."""
    import scipy.optimize

    problem = build_feasibility_problem(target, off_pair)
    n = problem.a_eq.shape[1]
    c = np.zeros(n + 1)
    c[-1] = 1.0
    res = scipy.optimize.linprog(
        c,
        A_ub=_lp_system(problem.settings).slack_csc,
        b_ub=np.concatenate([problem.b_eq, -problem.b_eq]),
        bounds=[(0, 1)] * n + [(0, None)],
        method="highs",
    )
    assert res.status == 0
    return float(res.x[-1])


def test_slack_equals_the_slack_lp_alone():
    """Answering feasible instances from the feasibility LP changes no
    slack bit: random states at (2,2,2) and (3,3,3), noisy double PRs and
    a slice of the sweep's stage-1 GHZ grid.  A rejected instance's
    certificate has ||y||_1 <= 1 and re-checks to the slack."""
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
        assert np.float64(slack).tobytes() == np.float64(direct_slack(target, (1, 2))).tobytes()
        res = localparts_feasible(target, (1, 2))
        if res.feasible:
            assert slack == 0.0
            zeros += 1
        else:
            assert slack > 0.0
            assert res.certificate.margin == pytest.approx(slack, rel=1e-12)
            assert np.abs(res.certificate.y).sum() <= 1 + 1e-12
    assert 0 < zeros < len(targets)


@settings(max_examples=40, deadline=None)
@given(
    lam=st.floats(0.0, 1.0),
    product=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_slack_is_zero_exactly_on_feasible_mixtures(lam, product, seed):
    """(1 - lam) double PR + lam (white noise or a product behavior): a
    feasible verdict gives slack 0.0, and any other the slack LP's optimum."""
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
        assert slack == direct_slack(target, (1, 2))


@pytest.mark.parametrize(
    "lam, slack",
    [(0.5 + eps, 0.0) for eps in (1e-7, 3e-8, 1e-8, 3e-9)]
    + [(0.5 - 1e-6, 2.0e-7), (0.5 - 1e-7, 1.43e-8), (0.5 - 1e-8, None)],
)
def test_noisy_double_pr_near_the_boundary(lam, slack):
    """(1 - lam) double PR + lam white noise is feasible exactly for
    lam >= 1/2.  Just above, a witness re-checks; below, a certificate
    re-checks to the slack; within HiGHS's tolerance below 1/2 neither
    does, and both functions say so instead of guessing."""
    target = Behavior(3, (2, 2, 2), (1 - lam) * double_pr_target().table + lam / 8.0)
    if slack is None:
        for fn in (localparts_feasible, infeasibility_slack):
            with pytest.raises(RuntimeError, match="within solver tolerance"):
                fn(target, (1, 2))
        return
    res = localparts_feasible(target, (1, 2))
    found = infeasibility_slack(target, (1, 2))
    assert res.feasible == (slack == 0.0)
    if res.feasible:
        assert res.max_residual <= RECHECK_TOL
        assert found == 0.0
    else:
        assert found == pytest.approx(slack, rel=1e-2)
        assert res.certificate.margin == pytest.approx(found, abs=1e-15)
        assert res.certificate.margin > RECHECK_TOL


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
        eff = constructive_off_behavior(target, (1, 2))
        sd = signaling_distance(eff, (1, 2))
        res = localparts_feasible(target, (1, 2))
        if not res.feasible:
            assert sd > 1e-9
        if sd <= 1e-12:
            assert res.feasible


def test_constructive_model_rejects_signaling_targets():
    with pytest.raises(ValueError):
        constructive_off_behavior(double_pr_target(), (1, 2))


def constructive_report(target, off, g):
    return signal_report(constructive_off_behavior(target, off), target, off, g)


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
        fam_w, fam_t = marginal(witness, pair), marginal(target, pair)
        for key in fam_t:
            assert np.max(np.abs(fam_w[key].table - fam_t[key].table)) <= 1e-9
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


def test_small_search_reports_honestly():
    report = search_infeasible_instance(grid=2, refine_rounds=1, family_phis=(0.4,))
    assert report.outcome in ("all_feasible", "infeasible_found")
    assert report.instances_checked > 0
    if report.outcome == "all_feasible":
        assert report.max_slack <= 1e-7
        assert report.certificate_margin is None
    else:
        assert report.certificate_margin is not None
        assert report.certificate_margin > 1e-9


def test_search_concludes_on_the_flagged_state(monkeypatch):
    # A slack that flags only targets whose Alice marginal is biased picks
    # the first weighted-family instance (GHZ marginals are uniform); the
    # exact program must then be solved on that very state and settings.
    import bellsim.signaling

    solved = []
    real_feasible = bellsim.signaling.localparts_feasible

    def biased_alice(target, off_pair):
        return float(abs(target.table[0, 0, 0].sum(axis=(1, 2))[0] - 0.5) > 1e-6)

    def recording_feasible(target, off_pair):
        solved.append(target)
        return real_feasible(target, off_pair)

    monkeypatch.setattr(bellsim.signaling, "infeasibility_slack", biased_alice)
    monkeypatch.setattr(bellsim.signaling, "localparts_feasible", recording_feasible)
    report = search_infeasible_instance(grid=2, refine_rounds=1, family_phis=(0.4,))
    assert report.best_state == "weighted_ghz(phi=0.400000)"
    amps = np.zeros(8)
    amps[0], amps[7] = math.cos(0.4), math.sin(0.4)
    want = born_behavior(state_from_amplitudes(amps), report.best_settings)
    assert len(solved) == 1
    assert np.array_equal(solved[0].table, want.table)
    assert report.outcome == "all_feasible"
    assert report.witness_residual <= 1e-9
