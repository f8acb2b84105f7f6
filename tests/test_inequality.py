import math

import numpy as np
import pytest

from bellsim.inequality import (
    MAX_CHAIN_N,
    ChainSpec,
    chain_spec,
    chain_value,
    chsh_value,
    detection_threshold_N,
    local_bound,
    mixture_deviation,
    mixture_max_value,
    quantum_chain_optimum,
)
from bellsim.quantum import Behavior, born_behavior, make_singlet, state_from_amplitudes


def deterministic_plus_behavior(settings=(2, 2)):
    table = np.zeros(settings + (2, 2))
    table[..., 0, 0] = 1.0
    return Behavior(2, settings, table)


def random_behavior(rng, settings=(2, 2)):
    table = rng.uniform(size=settings + (2, 2))
    table /= table.sum(axis=(-2, -1), keepdims=True)
    return Behavior(2, settings, table)


def test_chain_spec_structure():
    spec = chain_spec(3)
    assert len(spec.terms) == 6
    assert sum(1 for _, s in spec.terms if s == -1) == 1
    with pytest.raises(ValueError):
        chain_spec(1)
    with pytest.raises(ValueError):
        ChainSpec(n=2, terms=chain_spec(2).terms[:3])
    # Two negative signs violate the chain form.
    bad = tuple((pair, -s if i < 2 else s) for i, (pair, s) in enumerate(chain_spec(2).terms))
    with pytest.raises(ValueError):
        ChainSpec(n=2, terms=bad)


def test_chsh_deterministic():
    b = deterministic_plus_behavior()
    assert chsh_value(b, 0, 1, 0, 1) == pytest.approx(2.0, abs=1e-12)


def test_chsh_uniform_noise():
    b = Behavior(2, (2, 2), np.full((2, 2, 2, 2), 0.25))
    assert chsh_value(b, 0, 1, 0, 1) == pytest.approx(0.0, abs=1e-15)


def test_chsh_rejects_non_bipartite():
    tri = np.full((1, 1, 1, 2, 2, 2), 0.125)
    b = Behavior(3, (1, 1, 1), tri)
    with pytest.raises(ValueError):
        chsh_value(b, 0, 0, 0, 0)


def test_chsh_optimum_from_search():
    opt = quantum_chain_optimum(2)
    b = born_behavior(make_singlet(), [list(opt.angles_a), list(opt.angles_b)])
    s = chsh_value(b, 1, 0, 0, 1)
    assert abs(s - 2 * math.sqrt(2)) < 1e-6


def test_chain_n2_is_chsh():
    rng = np.random.default_rng(5)
    spec = chain_spec(2)
    for _ in range(20):
        b = random_behavior(rng)
        assert chain_value(b, spec) == pytest.approx(chsh_value(b, 1, 0, 0, 1), abs=1e-12)


def test_chain_requires_enough_settings():
    b = deterministic_plus_behavior((2, 2))
    with pytest.raises(ValueError):
        chain_value(b, chain_spec(3))


def test_chain_equally_spaced_n4():
    n = 4
    delta = math.pi - math.pi / (2 * n)
    angles_a = [(2 * i + 1) * delta for i in range(n)]
    angles_b = [(2 * i + 2) * delta for i in range(n)]
    b = born_behavior(make_singlet(), [angles_a, angles_b])
    value = chain_value(b, chain_spec(n))
    assert abs(value - 8 * math.cos(math.pi / 8)) < 1e-6


def test_chain_deterministic_behavior():
    for n in (2, 3, 4):
        b = deterministic_plus_behavior((n, n))
        assert chain_value(b, chain_spec(n)) == pytest.approx(2 * n - 2, abs=1e-12)


def test_local_bounds_by_enumeration():
    for n in range(2, MAX_CHAIN_N + 1):
        assert local_bound(chain_spec(n)) == pytest.approx(2 * n - 2, abs=1e-12)
    with pytest.raises(ValueError):
        local_bound(chain_spec(13))


def test_quantum_chain_optimum_values():
    for n in range(2, 9):
        opt = quantum_chain_optimum(n)
        assert abs(opt.value - 2 * n * math.cos(math.pi / (2 * n))) < 1e-6


def test_quantum_chain_optimum_self_consistent():
    for n in (2, 5):
        opt = quantum_chain_optimum(n)
        b = born_behavior(make_singlet(), [list(opt.angles_a), list(opt.angles_b)])
        assert abs(chain_value(b, chain_spec(n)) - opt.value) < 1e-9


def test_quantum_chain_optimum_range():
    with pytest.raises(ValueError):
        quantum_chain_optimum(1)
    with pytest.raises(ValueError):
        quantum_chain_optimum(13)


def test_mixture_values():
    for bad in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError, match=r"weight p must be in \[0, 1\]"):
            mixture_deviation(bad, 4)
        with pytest.raises(ValueError, match=r"weight p must be in \[0, 1\]"):
            mixture_max_value(bad, 4)
    q4 = quantum_chain_optimum(4).value
    l4 = local_bound(chain_spec(4))
    assert mixture_deviation(0.0, 4) == 0.0
    assert mixture_deviation(1.0, 4) == pytest.approx(q4 - l4, abs=0)
    assert mixture_deviation(0.1, 4) == pytest.approx(0.1 * (8 * math.cos(math.pi / 8) - 6), abs=1e-5)
    assert mixture_max_value(0.1, 4) == pytest.approx(0.9 * q4 + 0.1 * l4, abs=0)


def test_mixture_deviation_linear_in_p():
    q3 = quantum_chain_optimum(3).value
    l3 = local_bound(chain_spec(3))
    for p in np.linspace(0, 1, 21):
        assert mixture_deviation(float(p), 3) == float(p) * (q3 - l3)


def test_detection_threshold():
    rep = detection_threshold_N(1.0, 0.5)
    assert rep.n == 2
    assert rep.deviations[0] == (2, pytest.approx(2 * math.sqrt(2) - 2, abs=1e-6))
    assert len(rep.deviations) == 11
    assert detection_threshold_N(0.5, 10.0).n is None
    assert detection_threshold_N(0.0, 1e-9).n is None
    with pytest.raises(ValueError):
        detection_threshold_N(0.5, 0.0)
    with pytest.raises(ValueError):
        detection_threshold_N(1.5, 0.1)


def test_tsirelson_sanity():
    rng = np.random.default_rng(29)
    bound = 2 * math.sqrt(2) + 1e-6
    for _ in range(1000):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = state_from_amplitudes(amps / np.linalg.norm(amps))
        settings = [list(rng.uniform(0, 2 * math.pi, size=2)) for _ in range(2)]
        b = born_behavior(state, settings)
        assert abs(chsh_value(b, 0, 1, 0, 1)) <= bound
