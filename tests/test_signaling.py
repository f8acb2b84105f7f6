import itertools
import json
import math

import numpy as np
import pytest

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
    with pytest.raises(ValueError):
        localparts_feasible(double_pr_target(), (1, 1))


def test_infeasibility_slack_signs():
    target = born_behavior(make_ghz3(), [[0.0, math.pi / 2], [0.0], [0.0]])
    assert infeasibility_slack(target, (1, 2)) <= 1e-9
    assert infeasibility_slack(double_pr_target(), (1, 2)) > 0.05


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
