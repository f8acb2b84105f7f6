import math

import numpy as np
import pytest

from bellsim.hvmodels import (
    TIMING_RULES,
    Geometry,
    ModelConfig,
    RunRecord,
    UnsupportedConfigurationError,
    coordination_map,
    effective_behavior,
    pair_timing,
    run_csv_lines,
    sample_runs,
)
from bellsim.inequality import quantum_chain_optimum
from bellsim.quantum import (
    born_behavior,
    correlator,
    make_ghz3,
    make_singlet,
    marginal,
    state_from_amplitudes,
)
from bellsim.spacetime import SPEED_OF_LIGHT as C, Boost, Event

CHSH_SCHEDULE = [(0, 0), (0, 1), (1, 0), (1, 1)]


def pair_geometry(L=1000.0, dt=0.0, beta=0.0, c=1.0):
    return Geometry(
        events=(Event(t=0.0, x=0.0), Event(t=dt, x=L)),
        boosts=(Boost(-beta), Boost(beta)),
        c=c,
    )


def tripartite_bc_off_geometry():
    # Alice between B and C, measured long before them; at v=2 (c=1) both
    # Alice pairs stay coordinated while the far B-C pair is cut.
    return Geometry(
        events=(Event(t=0.0, x=150.0), Event(t=80.0, x=0.0), Event(t=80.5, x=300.0)),
        boosts=(Boost(0.0),) * 3,
        c=1.0,
    )


def assert_off_exactly_when_verdict(model, g):
    """The map cuts a pair exactly when pair_timing's verdict is True."""
    verdict = TIMING_RULES[model.kind]
    timing = pair_timing(model, g)
    cmap = coordination_map(model, g)
    assert set(cmap) == set(timing)
    for pair, entry in timing.items():
        assert (cmap[pair] == "OFF") == (entry.get(verdict) is True)
    return timing


def singlet_behavior():
    opt = quantum_chain_optimum(2)
    return born_behavior(make_singlet(), [list(opt.angles_a), list(opt.angles_b)])


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(events=(Event(0, 0),), boosts=(Boost(0),))
    with pytest.raises(ValueError):
        Geometry(events=(Event(0, 0), Event(0, 1)), boosts=(Boost(0),))


def test_recession_speed():
    g = pair_geometry(L=10.0, beta=0.5, c=1.0)
    assert g.recession_speed(0, 1) == pytest.approx(0.5, abs=1e-15)
    # Approaching devices never count as receding.
    g2 = Geometry(
        events=(Event(0, 0), Event(0, 10)), boosts=(Boost(0.5), Boost(-0.5)), c=1.0
    )
    assert g2.recession_speed(0, 1) == 0.0
    # One static device pins the pair speed at zero.
    g3 = Geometry(
        events=(Event(0, 0), Event(0, 10)), boosts=(Boost(0.0), Boost(0.5)), c=1.0
    )
    assert g3.recession_speed(0, 1) == 0.0


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(kind="bogus")
    with pytest.raises(ValueError):
        ModelConfig(kind="finite_speed")
    with pytest.raises(ValueError):
        ModelConfig(kind="quantum", v=1.0)
    with pytest.raises(ValueError):
        ModelConfig(kind="mixture", p=1.5)
    with pytest.raises(ValueError):
        ModelConfig(kind="mixture", p=0.5, schedule="bogus")
    with pytest.raises(ValueError):
        ModelConfig(kind="local", p=0.5)


def test_coordination_map_static_kinds():
    g = pair_geometry()
    assert coordination_map(ModelConfig(kind="quantum"), g) == {(0, 1): "ON"}
    assert coordination_map(ModelConfig(kind="local"), g) == {(0, 1): "OFF"}
    mix = ModelConfig(kind="mixture", p=0.5)
    assert coordination_map(mix, g) == {(0, 1): "ON"}
    assert coordination_map(mix, g, mixture_branch="local") == {(0, 1): "OFF"}


def test_coordination_map_multisim_static_devices():
    g = Geometry(
        events=(Event(0, 0), Event(1e-6, 4e4), Event(2e-6, 8e4)),
        boosts=(Boost(0.0),) * 3,
    )
    model = ModelConfig(kind="multisim")
    cmap = coordination_map(model, g)
    assert all(state == "ON" for state in cmap.values())
    timing = assert_off_exactly_when_verdict(model, g)
    assert timing[(0, 2)]["L"] == 8e4
    assert timing[(0, 2)]["dt"] == 2e-6
    assert all(entry["recession_speed"] == 0.0 for entry in timing.values())
    assert all(entry["before_before"] is False for entry in timing.values())


def test_coordination_map_finite_speed():
    g = Geometry(
        events=(Event(t=0.0, x=0.0), Event(t=1e-9, x=1000.0)),
        boosts=(Boost(0.0), Boost(0.0)),
    )
    model = ModelConfig(kind="finite_speed", v=100 * C)
    cmap = coordination_map(model, g)
    assert cmap == {(0, 1): "OFF"}
    timing = assert_off_exactly_when_verdict(model, g)
    assert timing[(0, 1)] == {
        "L": 1000.0,
        "dt": 1e-9,
        "recession_speed": 0.0,
        "v": 100 * C,
        "v_bb_equivalent": C / 100,
        "finite_speed_cut": True,
    }
    # A fast enough influence catches up: 1e5 c covers 30 km in 1 ns.
    model2 = ModelConfig(kind="finite_speed", v=1e5 * C)
    cmap2 = coordination_map(model2, g)
    assert cmap2 == {(0, 1): "ON"}
    assert assert_off_exactly_when_verdict(model2, g)[(0, 1)]["finite_speed_cut"] is False
    # Coincident devices get no verdict and stay coordinated.
    g3 = Geometry(
        events=(Event(t=0.0, x=0.0), Event(t=1e-9, x=0.0), Event(t=0.0, x=1000.0)),
        boosts=(Boost(0.0),) * 3,
    )
    timing3 = assert_off_exactly_when_verdict(model, g3)
    assert "finite_speed_cut" not in timing3[(0, 1)]
    assert coordination_map(model, g3) == {(0, 1): "ON", (0, 2): "OFF", (1, 2): "OFF"}


def test_multisim_matches_finite_speed_under_equivalence():
    # Receding pairs with v = c^2 / v_bb must produce identical maps; this
    # is restricted to two-device layouts because three mutually receding
    # devices cannot share one pairwise recession speed.
    rng = np.random.default_rng(41)
    for k in range(10_000):
        L = float(rng.uniform(1.0, 1e7))
        x0 = float(rng.uniform(-1e6, 1e6))
        y_off = float(rng.uniform(-L, L)) if rng.random() < 0.3 else 0.0
        dt = float(rng.uniform(-3.0, 3.0)) * L / C
        b0 = -float(rng.uniform(1e-6, 0.99))
        b1 = float(rng.uniform(1e-6, 0.99))
        g = Geometry(
            events=(Event(t=0.0, x=x0), Event(t=dt, x=x0 + L, y=y_off)),
            boosts=(Boost(b0), Boost(b1)),
        )
        v_bb = g.recession_speed(0, 1)
        assert v_bb > 0.0
        fs_model = ModelConfig(kind="finite_speed", v=C**2 / v_bb)
        fs = coordination_map(fs_model, g)
        ms = coordination_map(ModelConfig(kind="multisim"), g)
        assert fs == ms
        if k % 100 == 0:
            assert_off_exactly_when_verdict(fs_model, g)
            assert_off_exactly_when_verdict(ModelConfig(kind="multisim"), g)


def test_effective_behavior_identity():
    b = singlet_behavior()
    g = pair_geometry()
    assert effective_behavior(ModelConfig(kind="quantum"), g, b) is b


def test_effective_behavior_party_mismatch():
    b = singlet_behavior()
    g = Geometry(events=(Event(0, 0), Event(0, 1), Event(0, 2)), boosts=(Boost(0),) * 3)
    with pytest.raises(ValueError):
        effective_behavior(ModelConfig(kind="quantum"), g, b)


def test_effective_behavior_bipartite_off():
    b = singlet_behavior()
    g = pair_geometry(c=1.0)
    eff = effective_behavior(ModelConfig(kind="local"), g, b)
    # Singlet single-party marginals are uniform, so the product is flat.
    assert np.allclose(eff.table, 0.25, atol=1e-12)
    for x in range(2):
        for y in range(2):
            assert abs(correlator(eff, (x, y))) < 1e-12


def test_effective_behavior_tripartite_one_off():
    target = born_behavior(make_ghz3(), [[0.0, math.pi / 2], [0.0], [0.0]])
    g = tripartite_bc_off_geometry()
    model = ModelConfig(kind="finite_speed", v=2.0)
    assert coordination_map(model, g) == {(0, 1): "ON", (0, 2): "ON", (1, 2): "OFF"}
    eff = effective_behavior(model, g, target)
    for pair in ((0, 1), (0, 2)):
        fam_eff = marginal(eff, pair)
        fam_tgt = marginal(target, pair)
        for key in fam_eff:
            assert np.max(np.abs(fam_eff[key].table - fam_tgt[key].table)) < 1e-12
    # The BC marginal now depends on Alice's setting: quantum GHZ gives
    # perfectly correlated z outcomes at x=0 but the surrogate loses the
    # correlation once Alice measures along x.
    fam_bc = marginal(eff, (1, 2))
    diff = np.max(np.abs(fam_bc[(0,)].table - fam_bc[(1,)].table))
    assert diff == pytest.approx(0.25, abs=1e-12)


def test_effective_behavior_two_off_pairs():
    target = born_behavior(make_ghz3(), [[0.0], [0.0], [0.0]])
    # Alice far away and near-simultaneous with the close B-C pair: both
    # Alice pairs are cut, B-C survives via its time offset.
    g = Geometry(
        events=(Event(t=0.0, x=-100.0), Event(t=0.0, x=10.0), Event(t=5.0, x=11.0)),
        boosts=(Boost(0.0),) * 3,
        c=1.0,
    )
    model = ModelConfig(kind="finite_speed", v=3.0)
    assert coordination_map(model, g) == {(0, 1): "OFF", (0, 2): "OFF", (1, 2): "ON"}
    eff = effective_behavior(model, g, target)
    fam_bc = marginal(eff, (1, 2))
    fam_bc_t = marginal(target, (1, 2))
    assert np.max(np.abs(fam_bc[(0,)].table - fam_bc_t[(0,)].table)) < 1e-12
    fam_a = marginal(eff, (0,))
    assert np.allclose(fam_a[(0, 0)].table, 0.5, atol=1e-12)


def test_effective_behavior_unsupported_pattern():
    state = state_from_amplitudes([1.0] + [0.0] * 15)
    target = born_behavior(state, [[0.0]] * 4)
    # Exactly one OFF pair among four parties: the ON graph is connected
    # but incomplete, which no supported surrogate covers.
    g = Geometry(
        events=(
            Event(t=0.0, x=0.0),
            Event(t=0.0, x=10.0),
            Event(t=100.0, x=5.0),
            Event(t=50.0, x=6.0),
        ),
        boosts=(Boost(0.0),) * 4,
        c=1.0,
    )
    model = ModelConfig(kind="finite_speed", v=2.0)
    cmap = coordination_map(model, g)
    assert sum(1 for s in cmap.values() if s == "OFF") == 1
    with pytest.raises(UnsupportedConfigurationError):
        effective_behavior(model, g, target)


def test_sample_runs_deterministic():
    b = singlet_behavior()
    g = pair_geometry(c=1.0)
    model = ModelConfig(kind="mixture", p=0.3)
    s1 = sample_runs(model, g, b, CHSH_SCHEDULE, trials=200_000, seed=99)
    s2 = sample_runs(model, g, b, CHSH_SCHEDULE, trials=200_000, seed=99)
    s4 = sample_runs(model, g, b, CHSH_SCHEDULE, trials=200_000, seed=99, workers=4)
    assert np.array_equal(s1.outcomes, s2.outcomes)
    assert np.array_equal(s1.outcomes, s4.outcomes)
    assert np.array_equal(s1.branch_local, s4.branch_local)
    assert list(run_csv_lines(s1))[:1000] == list(run_csv_lines(s4))[:1000]
    s3 = sample_runs(model, g, b, CHSH_SCHEDULE, trials=200_000, seed=100)
    assert not np.array_equal(s1.outcomes, s3.outcomes)


def test_sample_runs_rejects_bad_input():
    b = singlet_behavior()
    g = pair_geometry(c=1.0)
    with pytest.raises(ValueError):
        sample_runs(ModelConfig(kind="quantum"), g, b, CHSH_SCHEDULE, trials=0, seed=1)
    with pytest.raises(ValueError):
        sample_runs(ModelConfig(kind="quantum"), g, b, [], trials=10, seed=1)
    with pytest.raises(ValueError):
        sample_runs(ModelConfig(kind="quantum"), g, b, [(0, 5)], trials=10, seed=1)


def test_sample_runs_quantum_converges():
    b = singlet_behavior()
    g = pair_geometry(c=1.0)
    sample = sample_runs(ModelConfig(kind="mixture", p=0.0), g, b, CHSH_SCHEDULE, 100_000, seed=7)
    for settings in CHSH_SCHEDULE:
        mean, se, count = sample.empirical_correlator(settings)
        assert count == 25_000
        assert abs(mean - correlator(b, settings)) <= 5 * se


def test_sample_runs_pure_local_respects_chsh():
    b = singlet_behavior()
    g = pair_geometry(c=1.0)
    sample = sample_runs(ModelConfig(kind="mixture", p=1.0), g, b, CHSH_SCHEDULE, 100_000, seed=13)
    total, var = 0.0, 0.0
    for k, settings in enumerate(CHSH_SCHEDULE):
        mean, se, _ = sample.empirical_correlator(settings)
        total += (-1.0 if k == 3 else 1.0) * mean
        var += se * se
    assert total <= 2.0 + 5 * math.sqrt(var)


def test_mixture_block_schedule():
    b = singlet_behavior()
    g = pair_geometry(c=1.0)
    model = ModelConfig(kind="mixture", p=0.25, schedule="block", block_length=10)
    sample = sample_runs(model, g, b, CHSH_SCHEDULE, trials=12_000, seed=3)
    frac = float(sample.branch_local.mean())
    assert frac == pytest.approx(0.25, abs=1e-12)
    # Blocks are contiguous runs of identical branch.
    blocks = sample.branch_local.reshape(-1, 10)
    assert np.all(blocks.min(axis=1) == blocks.max(axis=1))


def test_run_records_and_csv():
    b = singlet_behavior()
    g = pair_geometry(c=1.0)
    sample = sample_runs(ModelConfig(kind="local"), g, b, CHSH_SCHEDULE, trials=8, seed=5)
    rec = sample[5]
    assert isinstance(rec, RunRecord)
    assert rec.trial == 5
    assert rec.settings == (0, 1)
    assert rec.coordination == {(0, 1): "OFF"}
    assert len(list(iter(sample))) == 8
    lines = list(run_csv_lines(sample))
    assert lines[0] == "trial,x,y,z,a,b,c,coord_ab,coord_ac,coord_bc"
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "" and first[6] == ""
    assert first[7] == "OFF" and first[8] == "" and first[9] == ""


def test_run_csv_tripartite_columns():
    target = born_behavior(make_ghz3(), [[0.0, math.pi / 2], [0.0], [0.0]])
    g = tripartite_bc_off_geometry()
    model = ModelConfig(kind="finite_speed", v=2.0)
    sample = sample_runs(model, g, target, [(0, 0, 0), (1, 0, 0)], trials=4, seed=2)
    lines = list(run_csv_lines(sample))
    row = lines[1].split(",")
    assert len(row) == 10
    assert row[7] == "ON" and row[8] == "ON" and row[9] == "OFF"


def test_empirical_correlator_missing_settings():
    b = singlet_behavior()
    g = pair_geometry(c=1.0)
    sample = sample_runs(ModelConfig(kind="quantum"), g, b, [(0, 0)], trials=50, seed=1)
    mean, se, count = sample.empirical_correlator((1, 1))
    assert count == 0 and se == math.inf
