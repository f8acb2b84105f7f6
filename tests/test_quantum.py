import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim.quantum import (
    Behavior,
    StateVector,
    behavior_to_json,
    born_behavior,
    correlator,
    make_ghz3,
    make_singlet,
    marginal,
    measurement_basis,
    no_signaling_defect,
    state_from_amplitudes,
)
from bellsim.signaling import signaling_distance
from oracles import behavior_from_json


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return state_from_amplitudes(amps / np.linalg.norm(amps))


def test_singlet_amplitudes():
    s = make_singlet()
    r = 1 / math.sqrt(2)
    assert np.allclose(s.amps, [0, r, -r, 0], atol=0)
    assert abs(np.sum(np.abs(s.amps) ** 2) - 1) < 1e-15


def test_ghz3_amplitudes():
    g = make_ghz3()
    r = 1 / math.sqrt(2)
    expected = np.zeros(8)
    expected[0] = expected[7] = r
    assert np.allclose(g.amps, expected, atol=0)
    assert abs(np.sum(np.abs(g.amps) ** 2) - 1) < 1e-15


def test_state_validation():
    with pytest.raises(ValueError):
        StateVector(n=1, amps=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        StateVector(n=5, amps=np.zeros(32))
    with pytest.raises(ValueError):
        state_from_amplitudes([1.0, 0.0, 0.0])


def test_born_eigenstate():
    zero = state_from_amplitudes([1.0, 0.0])
    b = born_behavior(zero, [[0.0]])
    assert b.table[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert b.table[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_born_dimension_mismatch():
    with pytest.raises(ValueError):
        born_behavior(make_singlet(), [[0.0]])
    with pytest.raises(ValueError):
        born_behavior(make_singlet(), [[0.0], []])


def test_singlet_perfect_anticorrelation():
    for theta in (0.0, 0.3, 1.2, math.pi / 2):
        b = born_behavior(make_singlet(), [[theta], [theta]])
        # Equal outcomes never occur at equal angles.
        assert b.table[0, 0, 0, 0] < 1e-15
        assert b.table[0, 0, 1, 1] < 1e-15
        assert correlator(b, (0, 0)) == pytest.approx(-1.0, abs=1e-12)


def test_singlet_correlator_closed_form():
    thetas = np.linspace(0, 2 * math.pi, 360, endpoint=False)
    b = born_behavior(make_singlet(), [[0.0], list(thetas)])
    for j, t in enumerate(thetas):
        assert abs(correlator(b, (0, j)) - (-math.cos(t))) <= 1e-10


def test_ghz_z_basis():
    b = born_behavior(make_ghz3(), [[0.0]] * 3)
    t = b.table[0, 0, 0]
    assert t[0, 0, 0] == pytest.approx(0.5, abs=1e-12)
    assert t[1, 1, 1] == pytest.approx(0.5, abs=1e-12)
    assert float(t.sum() - t[0, 0, 0] - t[1, 1, 1]) == pytest.approx(0.0, abs=1e-12)


def test_uniform_coins_have_zero_correlator():
    # |00> measured along sigma_x on both sides: independent fair coins.
    plus = state_from_amplitudes([1.0, 0.0, 0.0, 0.0])
    b = born_behavior(plus, [[math.pi / 2], [math.pi / 2]])
    assert correlator(b, (0, 0)) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(b.table[0, 0], 0.25, atol=1e-12)


def test_correlator_index_errors():
    b = born_behavior(make_singlet(), [[0.0], [0.0, 1.0]])
    with pytest.raises(IndexError):
        correlator(b, (0, 2))
    with pytest.raises(IndexError):
        correlator(b, (0,))


def test_marginal_rejects_bad_subsets():
    b = born_behavior(make_singlet(), [[0.0], [0.0]])
    with pytest.raises(ValueError):
        marginal(b, [])
    with pytest.raises(ValueError):
        marginal(b, [0, 1])
    with pytest.raises(ValueError):
        marginal(b, [2])


def test_marginal_of_product_behavior():
    rng = np.random.default_rng(3)
    b = born_behavior(random_state(rng, 1), [[0.1, 0.7]])
    other = born_behavior(random_state(rng, 1), [[0.4, 2.0, 5.0]])
    # Product table: P(ab|xy) = P(a|x) P(b|y).
    joint = np.einsum("xa,yb->xyab", b.table, other.table)
    prod = Behavior(2, (2, 3), joint)
    fam = marginal(prod, [0])
    assert fam.shape == (3, 2, 2)
    for table in fam:
        assert np.allclose(table, b.table, atol=1e-15)


def test_ghz_bc_marginal_independent_of_alice():
    b = born_behavior(make_ghz3(), [[0.0, 1.1, 2.3], [0.2, 0.9], [0.5, 1.7]])
    fam = marginal(b, [1, 2])
    assert fam.shape == (3, 2, 2, 2, 2)
    assert np.max(np.abs(fam - fam[0])) < 1e-12


def test_singlet_alice_marginal_uniform():
    b = born_behavior(make_singlet(), [[0.0, 0.8], [0.3, 1.4, 2.2]])
    assert np.allclose(marginal(b, [0]), 0.5, atol=1e-12)


def test_quantum_no_signaling_random_suite():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        settings = [list(rng.uniform(0, 2 * math.pi, size=rng.integers(1, 3))) for _ in range(n)]
        b = born_behavior(random_state(rng, n), settings)
        assert no_signaling_defect(b) <= 1e-10


def reference_marginal(b, subset):
    """Subset marginals keyed by the complement's setting tuple in party
    order, one sliced sum per key."""
    sub = tuple(sorted(subset))
    comp = tuple(i for i in range(b.parties) if i not in sub)
    sum_axes = tuple(len(sub) + j for j in comp)
    family = {}
    for key in itertools.product(*(range(b.settings_per_party[i]) for i in comp)):
        fixed = dict(zip(comp, key))
        indexer = tuple(fixed.get(i, slice(None)) for i in range(b.parties))
        # Fixing the complement's settings leaves the subset's setting
        # axes, then every outcome axis in party order.
        family[key] = b.table[indexer].sum(axis=sum_axes)
    return family


def reference_no_signaling_defect(b):
    """Largest difference of any subset's table from the first of its family."""
    worst = 0.0
    for r in range(1, b.parties):
        for sub in itertools.combinations(range(b.parties), r):
            tables = list(reference_marginal(b, sub).values())
            for other in tables[1:]:
                worst = max(worst, float(np.max(np.abs(other - tables[0]))))
    return worst


def reference_signaling_distance(b, receivers):
    """Largest total-variation shift over every pair of remote setting tuples."""
    family = reference_marginal(b, receivers)
    outcome_axes = tuple(range(len(receivers), 2 * len(receivers)))
    worst = 0.0
    for k1, k2 in itertools.combinations(sorted(family), 2):
        tv = 0.5 * np.abs(family[k1] - family[k2]).sum(axis=outcome_axes)
        worst = max(worst, float(tv.max()))
    return worst


def random_signaling_behavior(rng, spp):
    """A random table whose marginals move with remote settings; cubing
    puts some entries near zero."""
    parties = len(spp)
    raw = rng.random(spp + (2**parties,)) ** 3
    table = raw / raw.sum(axis=-1, keepdims=True)
    return Behavior(parties, spp, table.reshape(spp + (2,) * parties))


@settings(max_examples=40, deadline=None)
@given(
    spp=st.lists(st.integers(1, 3), min_size=2, max_size=5).map(tuple),
    seed=st.integers(0, 2**32 - 1),
)
@example(spp=(3, 3, 3, 3, 3), seed=0)
@example(spp=(2, 1, 3, 1, 2), seed=1)
def test_marginal_family_matches_per_key_reference(spp, seed):
    """One array holds every family member bit for bit, and both readers
    of it give exactly the per-key loops' values."""
    b = random_signaling_behavior(np.random.default_rng(seed), spp)
    for r in range(1, b.parties):
        for sub in itertools.combinations(range(b.parties), r):
            fam = marginal(b, sub)
            comp = tuple(m for q, m in enumerate(spp) if q not in sub)
            assert fam.shape == comp + tuple(spp[q] for q in sub) + (2,) * r
            for key, table in reference_marginal(b, sub).items():
                assert fam[key].tobytes() == table.tobytes()
            assert signaling_distance(b, sub) == reference_signaling_distance(b, sub)
    assert no_signaling_defect(b) == reference_no_signaling_defect(b)


def reference_born_table(state, angles):
    """Born table with every setting combo contracted from the state alone."""
    n = state.n
    spp = tuple(len(a) for a in angles)
    psi = state.amps.reshape((2,) * n)
    table = np.empty(spp + (2,) * n)
    for combo in itertools.product(*(range(m) for m in spp)):
        phi = psi
        for i in range(n):
            u = measurement_basis(angles[i][combo[i]])
            phi = np.moveaxis(np.tensordot(u, phi, axes=(1, i)), 0, i)
        table[combo] = np.abs(phi) ** 2
    table /= table.sum(axis=tuple(range(n, 2 * n)), keepdims=True)
    return table


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    spp=st.lists(st.integers(1, 3), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=4, spp=[3, 3, 3, 3], seed=0)
@example(n=1, spp=[1, 1, 1, 1], seed=0)
def test_born_behavior_matches_per_combo_reference(n, spp, seed):
    """Contracting each party's stacked bases once, for all its settings,
    gives the bits of a loop that contracts every setting tuple alone."""
    rng = np.random.default_rng(seed)
    angles = [rng.uniform(0, 2 * math.pi, m).tolist() for m in spp[:n]]
    state = random_state(rng, n)
    got = born_behavior(state, angles).table
    want = reference_born_table(state, angles)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "state, angles",
    [
        (make_ghz3(), [[0.0, math.pi / 2, 1.1], [0.3, math.pi / 2, 2.5], [-0.7, 0.0, math.pi]]),
        (make_singlet(), [[0.0, math.pi / 4, 2.0], [math.pi / 8, -1.3]]),
    ],
)
def test_born_behavior_of_real_states_matches_per_combo_reference(state, angles):
    """The property test draws complex amplitudes; GHZ and the singlet are real."""
    got = born_behavior(state, angles).table
    want = reference_born_table(state, angles)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_behavior_validation():
    with pytest.raises(ValueError):
        Behavior(2, (1, 1), np.full((1, 1, 2, 2), 0.3))
    bad = np.zeros((1, 1, 2, 2))
    bad[0, 0, 0, 0] = 1.5
    bad[0, 0, 1, 1] = -0.5
    with pytest.raises(ValueError):
        Behavior(2, (1, 1), bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda: StateVector(1, np.array([math.nan, 0.0])),
        lambda: Behavior(1, (1,), [[math.nan, math.nan]]),
        lambda: Behavior(2, (1, 1), [[[[math.nan, 0.5], [0.25, 0.25]]]]),
        lambda: born_behavior(make_singlet(), [[math.nan], [0.0]]),
    ],
    ids=["state", "behavior", "one-entry", "born"],
)
def test_nan_is_rejected(build):
    """Every comparison with NaN is false, so the checks are written to
    fail on it."""
    with pytest.raises(ValueError, match="not normalized|non-finite"):
        build()


def test_behavior_json_round_trip():
    b = born_behavior(make_ghz3(), [[0.0, 1.0], [0.5], [0.25, 2.5]])
    blob = json.dumps(behavior_to_json(b), sort_keys=True)
    b2 = behavior_from_json(json.loads(blob))
    assert b2.parties == b.parties
    assert b2.settings_per_party == b.settings_per_party
    assert np.array_equal(b2.table, b.table)
