import json
import math

import numpy as np
import pytest

from bellsim.quantum import (
    Behavior,
    StateVector,
    behavior_from_json,
    behavior_to_json,
    born_behavior,
    correlator,
    make_ghz3,
    make_singlet,
    marginal,
    no_signaling_defect,
    state_from_amplitudes,
)


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
    for key, m in fam.items():
        assert np.allclose(m.table, b.table, atol=1e-15)
    assert set(fam.keys()) == {(0,), (1,), (2,)}


def test_ghz_bc_marginal_independent_of_alice():
    b = born_behavior(make_ghz3(), [[0.0, 1.1, 2.3], [0.2, 0.9], [0.5, 1.7]])
    fam = marginal(b, [1, 2])
    tables = [m.table for m in fam.values()]
    for t in tables[1:]:
        assert np.max(np.abs(t - tables[0])) < 1e-12


def test_singlet_alice_marginal_uniform():
    b = born_behavior(make_singlet(), [[0.0, 0.8], [0.3, 1.4, 2.2]])
    for m in marginal(b, [0]).values():
        assert np.allclose(m.table, 0.5, atol=1e-12)


def test_quantum_no_signaling_random_suite():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        settings = [list(rng.uniform(0, 2 * math.pi, size=rng.integers(1, 3))) for _ in range(n)]
        b = born_behavior(random_state(rng, n), settings)
        assert no_signaling_defect(b) <= 1e-10


def test_behavior_validation():
    with pytest.raises(ValueError):
        Behavior(2, (1, 1), np.full((1, 1, 2, 2), 0.3))
    bad = np.zeros((1, 1, 2, 2))
    bad[0, 0, 0, 0] = 1.5
    bad[0, 0, 1, 1] = -0.5
    with pytest.raises(ValueError):
        Behavior(2, (1, 1), bad)


def test_behavior_json_round_trip():
    b = born_behavior(make_ghz3(), [[0.0, 1.0], [0.5], [0.25, 2.5]])
    blob = json.dumps(behavior_to_json(b), sort_keys=True)
    b2 = behavior_from_json(json.loads(blob))
    assert b2.parties == b.parties
    assert b2.settings_per_party == b.settings_per_party
    assert np.array_equal(b2.table, b.table)
