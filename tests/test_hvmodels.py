import itertools
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim import hvmodels
from bellsim.hvmodels import (
    CHUNK,
    WRITE_BUDGET,
    UnsupportedConfigurationError,
    _components_of_on_graph,
    effective_behavior,
    sample_runs,
    write_run_csv,
    write_run_json,
)
from bellsim.inequality import quantum_chain_optimum
from bellsim.quantum import (
    Behavior,
    born_behavior,
    correlator,
    make_ghz3,
    make_singlet,
    marginal,
    state_from_amplitudes,
)
from bellsim.spacetime import (
    OFF,
    ON,
    SPEED_OF_LIGHT as C,
    TIMING_RULES,
    Boost,
    Event,
    Geometry,
    ModelConfig,
    coordination_map,
    pair_timing,
)

CHSH_SETTINGS = [(0, 0), (0, 1), (1, 0), (1, 1)]


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


def outcomes_of(sample):
    """Trials x parties array of +1/-1: party q saw -1 when bit parties-1-q
    of the trial's code is set."""
    codes = sample.codes.astype(np.int64)
    bits = [(codes >> (sample.parties - 1 - q)) & 1 for q in range(sample.parties)]
    return 1 - 2 * np.stack(bits, axis=1)


def every_setting(behavior):
    """Every setting tuple of the behavior in C order, as lists."""
    return [list(combo) for combo in itertools.product(*map(range, behavior.settings_per_party))]


def trial_rows(sample):
    """(trial, settings, outcomes, coordination) per trial, one at a time;
    trial t's settings are the (t % n_settings)-th tuple in C order."""
    combos = every_setting(sample.behavior)
    outcomes = outcomes_of(sample)
    for t in range(len(sample)):
        states = sample.map_nonlocal
        if sample.branch_local is not None and bool(sample.branch_local[t]):
            states = sample.map_local
        yield (
            t,
            combos[t % len(combos)],
            [int(o) for o in outcomes[t]],
            dict(zip(sample.pairs, states)),
        )


def reference_csv(sample):
    """The run CSV built cell by cell, one row per trial."""
    lines = ["trial,x,y,z,a,b,c,coord_ab,coord_ac,coord_bc"]
    for t, settings, outcomes, coordination in trial_rows(sample):
        cells = [str(t)]
        cells += [str(settings[q]) if q < sample.parties else "" for q in range(3)]
        cells += [str(outcomes[q]) if q < sample.parties else "" for q in range(3)]
        cells += [coordination.get(pair, "") for pair in ((0, 1), (0, 2), (1, 2))]
        lines.append(",".join(cells))
    return "".join(line + "\n" for line in lines)


def reference_json(sample):
    """runs.json as json.dumps of the whole list of trial records."""
    records = [
        {
            "trial": t,
            "settings": settings,
            "outcomes": outcomes,
            "coordination": {f"{i}-{j}": s for (i, j), s in coordination.items()},
        }
        for t, settings, outcomes, coordination in trial_rows(sample)
    ]
    return json.dumps({"schema": "bellsim-runs-1", "records": records}, sort_keys=True, indent=2) + "\n"


def reference_correlator(sample, settings):
    """Mean, se and count from a mask over every trial's settings."""
    combos = np.array(every_setting(sample.behavior))
    per_trial = combos[np.arange(len(sample)) % len(combos)]
    mask = np.all(per_trial == np.asarray(settings), axis=1)
    count = int(mask.sum())
    if count == 0:
        return 0.0, math.inf, 0
    prods = np.prod(outcomes_of(sample)[mask], axis=1).astype(np.float64)
    if count < 2:
        return float(prods.mean()), math.inf, count
    return float(prods.mean()), float(prods.std(ddof=1) / math.sqrt(count)), count


def written(writer, sample):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "runs")
        writer(sample, path)
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()


def assert_same_text(got, want):
    """got == want, else fail naming the first differing line: pytest's own
    diff of two multi-megabyte texts takes minutes."""
    if got != want:
        pairs = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
        n, (a, b) = next((n, pair) for n, pair in enumerate(pairs, 1) if pair[0] != pair[1])
        pytest.fail(f"line {n}: got {a!r}, want {b!r}")


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
        ModelConfig(kind="local", p=0.5)


def test_coordination_map_static_kinds():
    g = pair_geometry()
    assert coordination_map(ModelConfig(kind="quantum"), g) == {(0, 1): "ON"}
    assert coordination_map(ModelConfig(kind="local"), g) == {(0, 1): "OFF"}
    with pytest.raises(ValueError, match="no static coordination map"):
        coordination_map(ModelConfig(kind="mixture", p=0.5), g)


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
        assert np.max(np.abs(marginal(eff, pair) - marginal(target, pair))) < 1e-12
    # The BC marginal now depends on Alice's setting: quantum GHZ gives
    # perfectly correlated z outcomes at x=0 but the surrogate loses the
    # correlation once Alice measures along x.
    fam_bc = marginal(eff, (1, 2))
    diff = np.max(np.abs(fam_bc[0] - fam_bc[1]))
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
    assert np.max(np.abs(fam_bc[0] - fam_bc_t[0])) < 1e-12
    fam_a = marginal(eff, (0,))
    assert np.allclose(fam_a[0, 0], 0.5, atol=1e-12)


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
    s1 = sample_runs(model, g, b, trials=200_000, seed=99)
    s2 = sample_runs(model, g, b, trials=200_000, seed=99)
    assert np.array_equal(s1.codes, s2.codes)
    files = (written(write_run_csv, s1), written(write_run_json, s1))
    for workers in (2, 4):
        sw = sample_runs(model, g, b, trials=200_000, seed=99, workers=workers)
        assert np.array_equal(s1.codes, sw.codes)
        assert np.array_equal(s1.branch_local, sw.branch_local)
        assert (written(write_run_csv, sw), written(write_run_json, sw)) == files
    s3 = sample_runs(model, g, b, trials=200_000, seed=100)
    assert not np.array_equal(s1.codes, s3.codes)


@pytest.mark.parametrize(
    "model",
    [ModelConfig(kind="mixture", p=0.3), ModelConfig(kind="finite_speed", v=2.0)],
)
def test_sample_carries_effective_behavior_and_maps(model):
    """The sample's behavior and maps are the ones effective_behavior and
    coordination_map give; a mixture has the all-ON and all-OFF maps."""
    target = born_behavior(make_ghz3(), [[0.0, math.pi / 2], [0.0], [0.0]])
    g = tripartite_bc_off_geometry()
    sample = sample_runs(model, g, target, trials=10, seed=1)
    assert np.array_equal(sample.behavior.table, effective_behavior(model, g, target).table)
    if model.kind == "mixture":
        assert sample.map_nonlocal == ("ON",) * 3
        assert sample.map_local == ("OFF",) * 3
    else:
        cmap = coordination_map(model, g)
        assert sample.map_nonlocal == sample.map_local == tuple(cmap[p] for p in sample.pairs)


def test_sample_runs_rejects_bad_input():
    b = singlet_behavior()
    g = pair_geometry(c=1.0)
    with pytest.raises(ValueError):
        sample_runs(ModelConfig(kind="quantum"), g, b, trials=0, seed=1)


def test_sample_runs_quantum_converges():
    b = singlet_behavior()
    g = pair_geometry(c=1.0)
    sample = sample_runs(ModelConfig(kind="mixture", p=0.0), g, b, 100_000, seed=7)
    for settings in CHSH_SETTINGS:
        mean, se, count = sample.empirical_correlator(settings)
        assert count == 25_000
        assert abs(mean - correlator(b, settings)) <= 5 * se


def test_sample_runs_pure_local_respects_chsh():
    b = singlet_behavior()
    g = pair_geometry(c=1.0)
    sample = sample_runs(ModelConfig(kind="mixture", p=1.0), g, b, 100_000, seed=13)
    total, var = 0.0, 0.0
    for k, settings in enumerate(CHSH_SETTINGS):
        mean, se, _ = sample.empirical_correlator(settings)
        total += (-1.0 if k == 3 else 1.0) * mean
        var += se * se
    assert total <= 2.0 + 5 * math.sqrt(var)


def test_run_records_and_csv():
    b = singlet_behavior()
    g = pair_geometry(c=1.0)
    sample = sample_runs(ModelConfig(kind="local"), g, b, trials=8, seed=5)
    lines = written(write_run_csv, sample).splitlines()
    assert len(lines) == 9
    assert lines[0] == "trial,x,y,z,a,b,c,coord_ab,coord_ac,coord_bc"
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "" and first[6] == ""
    assert first[7] == "OFF" and first[8] == "" and first[9] == ""
    row = lines[6].split(",")
    assert row[0] == "5" and row[1:3] == ["0", "1"]
    assert row[4:6] == [str(o) for o in outcomes_of(sample)[5]]
    doc = json.loads(written(write_run_json, sample))
    assert doc["schema"] == "bellsim-runs-1"
    assert [rec["trial"] for rec in doc["records"]] == list(range(8))
    assert doc["records"][5] == {
        "trial": 5,
        "settings": [0, 1],
        "outcomes": [int(o) for o in outcomes_of(sample)[5]],
        "coordination": {"0-1": "OFF"},
    }


def test_run_csv_tripartite_columns():
    target = born_behavior(make_ghz3(), [[0.0, math.pi / 2], [0.0], [0.0]])
    g = tripartite_bc_off_geometry()
    model = ModelConfig(kind="finite_speed", v=2.0)
    sample = sample_runs(model, g, target, trials=4, seed=2)
    lines = written(write_run_csv, sample).splitlines()
    assert len(lines) == 5
    for t, line in enumerate(lines[1:]):
        row = line.split(",")
        assert len(row) == 10
        assert row[:4] == [str(t), str(t % 2), "0", "0"]
        assert row[7] == "ON" and row[8] == "ON" and row[9] == "OFF"


def _writer_case(parties, kind):
    """Model, geometry, target and every setting tuple of one writer case."""
    if parties == 2:
        g, target = pair_geometry(c=1.0), singlet_behavior()
    else:
        g = tripartite_bc_off_geometry()
        target = born_behavior(make_ghz3(), [[0.0, math.pi / 2], [0.0, 1.0], [0.0]])
    model = {
        "quantum": ModelConfig(kind="quantum"),
        "local": ModelConfig(kind="local"),
        "finite_speed": ModelConfig(kind="finite_speed", v=2.0),
        "coin": ModelConfig(kind="mixture", p=0.3),
    }[kind]
    combos = list(itertools.product(*(range(n) for n in target.settings_per_party)))
    return model, g, target, combos


#: Every writer's padded row is wider than 20 bytes (a bipartite CSV row,
#: the narrowest, is 22 at five-digit trials), so up to this many trials
#: span at least three of every writer's blocks.
THREE_BLOCKS = 3 * WRITE_BUDGET // 20


@settings(max_examples=30, deadline=None)
@given(
    parties=st.sampled_from((2, 3)),
    kind=st.sampled_from(("quantum", "local", "finite_speed", "coin")),
    trials=st.one_of(st.integers(1, 20), st.integers(1, THREE_BLOCKS)),
    workers=st.sampled_from((1, 2)),
    seed=st.integers(0, 2**32 - 1),
)
# Trial indices reach six digits at 10**5, inside a write block.
@example(parties=2, kind="finite_speed", trials=100_003, workers=2, seed=5)
@example(parties=3, kind="coin", trials=100_001, workers=1, seed=11)
def test_writers_match_row_by_row_references(parties, kind, trials, workers, seed):
    model, g, target, combos = _writer_case(parties, kind)
    sample = sample_runs(model, g, target, trials, seed, workers=workers)
    assert sample.schedule.tolist() == every_setting(target)
    assert_same_text(written(write_run_csv, sample), reference_csv(sample))
    assert_same_text(written(write_run_json, sample), reference_json(sample))
    for combo in combos:
        assert sample.empirical_correlator(combo) == reference_correlator(sample, combo)


@pytest.mark.parametrize("writer", [write_run_csv, write_run_json])
def test_write_blocks_stay_within_the_byte_budget(writer, monkeypatch):
    """No block of the narrowest writer case exceeds WRITE_BUDGET bytes,
    and THREE_BLOCKS trials take at least eight blocks: four end at 10,
    100, 1000 and 10**4, three or more at multiples of a block's rows,
    and the last at the last trial."""
    blocks = []

    def recorded(sample, template):
        for block in row_blocks(sample, template):
            blocks.append(len(block))
            yield block

    row_blocks = hvmodels._row_blocks
    monkeypatch.setattr(hvmodels, "_row_blocks", recorded)
    model, g, target, _ = _writer_case(2, "quantum")
    written(writer, sample_runs(model, g, target, THREE_BLOCKS, 1))
    assert len(blocks) >= 8
    assert max(blocks) <= WRITE_BUDGET


def test_empirical_correlator_missing_settings():
    """With fewer trials than setting tuples, the last tuples have none."""
    b = singlet_behavior()
    g = pair_geometry(c=1.0)
    sample = sample_runs(ModelConfig(kind="quantum"), g, b, trials=3, seed=1)
    mean, se, count = sample.empirical_correlator((1, 1))
    assert (mean, se, count) == (0.0, math.inf, 0)
    assert sample.empirical_correlator((1, 0))[1:] == (math.inf, 1)


@pytest.mark.parametrize(
    "settings, message",
    [
        ((0,), "need 2 setting indices, got 1"),
        ((0, 0, 0), "need 2 setting indices, got 3"),
        ((0, 9), r"setting 9 out of range for party 1 \(has 2\)"),
    ],
)
def test_empirical_correlator_checks_settings_as_correlator_does(settings, message):
    """A settings tuple of the wrong length or out of range is the same
    IndexError as quantum.correlator's, not a broadcast match or an empty
    count."""
    b = singlet_behavior()
    sample = sample_runs(ModelConfig(kind="quantum"), pair_geometry(c=1.0), b, 50, 1)
    with pytest.raises(IndexError, match=message):
        correlator(b, settings)
    with pytest.raises(IndexError, match=message):
        sample.empirical_correlator(settings)


def oracle_codes(model, g, target, trials, seed):
    """Every trial's code and local-branch flag, rebuilt from the chunk
    protocol: chunk j draws from default_rng(SeedSequence(seed,
    spawn_key=(j,))), mixtures draw their coins before the outcome
    variates u, trial t takes the (t % n_settings)-th setting tuple in C
    order, and its code is the inverse CDF of its branch's row at those
    settings."""
    schedule = every_setting(target)
    quantum = target if model.kind == "mixture" else effective_behavior(model, g, target)
    local = None
    if model.kind == "mixture":
        local = effective_behavior(ModelConfig(kind="local"), g, target)
    n_out = 2**target.parties
    codes = np.empty(trials, dtype=np.int64)
    branch = np.zeros(trials, dtype=bool)
    for j, lo in enumerate(range(0, trials, CHUNK)):
        t = np.arange(lo, min(trials, lo + CHUNK))
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,)))
        if model.kind == "mixture":
            branch[t] = rng.random(t.size) < model.p
        u = rng.random(t.size)
        for r, settings in enumerate(schedule):
            for is_local, b in ((False, quantum), (True, local)):
                sel = (t % len(schedule) == r) & (branch[t] == is_local)
                if sel.any():
                    row = np.cumsum(b.table[tuple(settings)].ravel())
                    code = np.searchsorted(row, u[sel], side="right")
                    codes[t[sel]] = np.minimum(code, n_out - 1)
    return codes, branch


def first_variates(model, trials, seed):
    """The outcome variates u of chunk 0, drawn as the chunk protocol draws them."""
    n = min(trials, CHUNK)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    if model.kind == "mixture":
        rng.random(n)
    return rng.random(n)


def product_table(plus):
    """Product behavior table from P(+1 | x) per party and setting."""
    parts = [np.stack([np.asarray(p), 1.0 - np.asarray(p)], axis=1) for p in plus]
    letters = "xyz"[: len(plus)]
    expr = ",".join(f"{x}{x.upper()}" for x in letters) + "->" + letters + letters.upper()
    return np.einsum(expr, *parts)


@settings(max_examples=60, deadline=None)
@given(
    parties=st.sampled_from((2, 3)),
    kind=st.sampled_from(("quantum", "local", "coin")),
    trials=st.one_of(
        st.integers(1, 40), st.integers(1, CHUNK + 1), st.sampled_from((CHUNK, CHUNK + 1))
    ),
    workers=st.sampled_from((1, 2)),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_sample_codes_match_inverse_cdf_oracle(parties, kind, trials, workers, seed, data):
    """Random nonnegative tables with exact zeros; when pinned, one trial's
    variate lies exactly on a cumulative boundary of its row."""
    model = {
        "quantum": ModelConfig(kind="quantum"),
        "local": ModelConfig(kind="local"),
        "coin": ModelConfig(
            kind="mixture", p=data.draw(st.sampled_from((0.0, 0.3, 0.5, 1.0)) | st.floats(0.0, 1.0))
        ),
    }[kind]
    g = pair_geometry(c=1.0) if parties == 2 else tripartite_bc_off_geometry()
    spp = tuple(data.draw(st.integers(1, 3 if parties == 2 else 2)) for _ in range(parties))
    combos = list(itertools.product(*(range(n) for n in spp)))
    prob = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))

    def draw_plus():
        return [[data.draw(prob) for _ in range(n)] for n in spp]

    if data.draw(st.booleans(), label="pin"):
        t0 = data.draw(st.integers(0, min(trials, CHUNK) - 1))
        u0 = float(first_variates(model, trials, seed)[t0])
        plus = draw_plus()
        for q, x in enumerate(combos[t0 % len(combos)]):
            plus[q][x] = u0 if q == 0 else 1.0
        table = product_table(plus)
    elif kind == "quantum":
        size = len(combos) * 2**parties
        weights = np.array(
            data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)), dtype=np.float64
        ).reshape(len(combos), 2**parties)
        weights[weights.sum(axis=1) == 0, 0] = 1.0
        table = (weights / weights.sum(axis=1, keepdims=True)).reshape(spp + (2,) * parties)
    else:
        w = data.draw(st.sampled_from((0.0, 0.5, 1.0)) | st.floats(0.0, 1.0))
        table = w * product_table(draw_plus()) + (1.0 - w) * product_table(draw_plus())
    target = Behavior(parties, spp, table)

    sample = sample_runs(model, g, target, trials, seed, workers=workers)
    codes, branch = oracle_codes(model, g, target, trials, seed)
    assert sample.codes.dtype == np.uint8
    assert np.array_equal(sample.codes, codes)
    if model.kind == "mixture":
        assert np.array_equal(sample.branch_local, branch)
    else:
        assert sample.branch_local is None


@pytest.mark.parametrize(
    "model",
    [
        ModelConfig(kind="quantum"),
        ModelConfig(kind="mixture", p=0.3),
        ModelConfig(kind="local"),
    ],
    ids=("quantum", "coin", "local"),
)
@pytest.mark.parametrize("trials", (2 * CHUNK + 5, 3 * CHUNK + 7))
@pytest.mark.parametrize("b_settings", (1, 3), ids=("3-rows", "9-rows"))
def test_sample_codes_past_chunk_boundaries_match_oracle(model, trials, b_settings):
    """Neither target's number of setting tuples (3 by 1 or 3 by 3)
    divides CHUNK, so later chunks start mid-schedule (lo % rows != 0);
    every worker count gives the oracle's codes and branches."""
    opt = quantum_chain_optimum(3)
    target = born_behavior(make_singlet(), [list(opt.angles_a), list(opt.angles_b[:b_settings])])
    g = pair_geometry(c=1.0)
    codes, branch = oracle_codes(model, g, target, trials, seed=21)
    for workers in (1, 2, 3):
        sample = sample_runs(model, g, target, trials, seed=21, workers=workers)
        assert np.array_equal(sample.codes, codes)
        if model.kind == "mixture":
            assert np.array_equal(sample.branch_local, branch)
        else:
            assert sample.branch_local is None


@pytest.mark.parametrize(
    ("workers", "trials", "cpus", "threads"),
    [
        (100_000, 4 * CHUNK, 64, 4),
        (100_000, 4 * CHUNK, 3, 3),
        (2, 4 * CHUNK, 64, 2),
        (100_000, 3 * CHUNK + 1, None, None),
        (100_000, CHUNK, 64, None),
    ],
)
def test_sampling_pool_is_bounded_by_chunks_and_cpus(monkeypatch, workers, trials, cpus, threads):
    """The pool has min(workers, chunks, cpus) threads, and none when that
    is 1; the executor is replaced, so no thread is started."""
    sizes = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(hvmodels.concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(hvmodels.os, "cpu_count", lambda: cpus)
    b = singlet_behavior()
    sample = sample_runs(ModelConfig(kind="quantum"), pair_geometry(), b,
                         trials, seed=2, workers=workers)
    assert sizes == ([] if threads is None else [threads])
    assert np.array_equal(sample.codes, sample_runs(ModelConfig(kind="quantum"), pair_geometry(),
                                                    b, trials, seed=2).codes)


@settings(max_examples=100, deadline=None)
@given(parties=st.integers(2, 4), data=st.data())
def test_components_match_brute_force_reachability(parties, data):
    """Each party's component is the set it reaches over ON pairs; the
    components come out as sorted tuples ordered by their lowest party."""
    pairs = list(itertools.combinations(range(parties), 2))
    states = data.draw(st.lists(st.sampled_from((ON, OFF)), min_size=len(pairs), max_size=len(pairs)))
    cmap = dict(zip(pairs, states))
    reach = np.eye(parties, dtype=bool)
    for (i, j), state in cmap.items():
        reach[i, j] = reach[j, i] = reach[i, j] or state == ON
    for _ in range(parties):
        reach = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
    expected = sorted({tuple(np.flatnonzero(row).tolist()) for row in reach})
    assert _components_of_on_graph(parties, cmap) == expected
