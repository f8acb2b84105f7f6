"""Acceptance gate: one test per shipped guarantee, each printing a
PASS line with the measured numbers (pytest -v adds its own verdict per
test).  Runtime budgets are asserted alongside the numeric tolerances.
"""

import contextlib
import io
import itertools
import json
import math
import time

import numpy as np

from bellsim.cli import main as cli_main
from bellsim.hvmodels import (
    Geometry,
    ModelConfig,
    constructive_off_behavior,
    effective_behavior,
    sample_runs,
)
from bellsim.inequality import (
    chain_spec,
    chain_value,
    chsh_value,
    local_bound,
    mixture_deviation,
    quantum_chain_optimum,
)
from bellsim.presets import get_preset
from bellsim.quantum import (
    Behavior,
    born_behavior,
    make_ghz3,
    make_singlet,
    state_from_amplitudes,
)
from bellsim.signaling import (
    RECHECK_TOL,
    local_polytope_member,
    localparts_feasible,
    pr_box_behavior,
    recheck_farkas_certificate,
    recheck_feasibility_witness,
    recheck_membership_witness,
    search_infeasible_instance,
    signaling_distance,
)
from bellsim.spacetime import (
    SPEED_OF_LIGHT,
    Boost,
    Event,
    TimingScenario,
    before_before,
    equivalent_vbb,
    find_point_d,
    finite_speed_cut,
    in_future_lightcone,
)

TWO_DEVICE_GEOMETRY = Geometry(
    events=(Event(0.0, -1.0), Event(0.0, 1.0)),
    boosts=(Boost(0.0), Boost(0.0)),
)


def run_cli_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    assert code == 0
    return json.loads(buf.getvalue())


def sampled_chain(model, spec, settings, trials, seed):
    """Empirical chain value, its standard error, and the prediction."""
    target = born_behavior(make_singlet(), settings)
    n = len(settings[0])
    schedule = [(x, y) for x in range(n) for y in range(n)]
    sample = sample_runs(
        model, TWO_DEVICE_GEOMETRY, target, schedule, trials, seed
    )
    value = var = 0.0
    for (ia, ib), sign in spec.terms:
        mean, se, count = sample.empirical_correlator((ia, ib))
        assert count > 0
        value += sign * mean
        var += se * se
    eff = effective_behavior(model, TWO_DEVICE_GEOMETRY, target)
    return value, math.sqrt(var), chain_value(eff, spec)


def deterministic_local_max(h):
    """Best value of the inequality h over deterministic strategies."""
    ma, mb = h.shape[0], h.shape[1]
    best = -math.inf
    for a_bits in itertools.product((0, 1), repeat=ma):
        for b_bits in itertools.product((0, 1), repeat=mb):
            value = sum(
                h[x, y, a_bits[x], b_bits[y]] for x in range(ma) for y in range(mb)
            )
            best = max(best, value)
    return best


def rechecked_rejection_margin(bc):
    """Re-derive a separation margin from scratch for a rejected behavior."""
    result = local_polytope_member(bc)
    assert not result.member
    h = np.asarray(result.certificate.h)
    bound = deterministic_local_max(h)
    value = float(np.tensordot(h, bc.table, axes=4))
    return value - bound


def random_product_behavior(rng):
    pa = rng.uniform(0.05, 0.95, size=(2,))
    pb = rng.uniform(0.05, 0.95, size=(2,))
    table = np.empty((2, 2, 2, 2))
    for x, y, a, b in itertools.product(range(2), repeat=4):
        qa = pa[x] if a == 0 else 1.0 - pa[x]
        qb = pb[y] if b == 0 else 1.0 - pb[y]
        table[x, y, a, b] = qa * qb
    return Behavior(2, (2, 2), table)


def random_state(rng, parties):
    amps = rng.normal(size=2**parties) + 1j * rng.normal(size=2**parties)
    return state_from_amplitudes(amps / np.linalg.norm(amps))


def rebuild_search_state(label):
    if label == "ghz3":
        return make_ghz3()
    phi = float(label.split("=")[1].rstrip(")"))
    amps = np.zeros(8)
    amps[0] = math.cos(phi)
    amps[7] = math.sin(phi)
    return state_from_amplitudes(amps)


def test_criterion_01_equivalent_speed_value():
    start = time.perf_counter()
    v = 1e5 * SPEED_OF_LIGHT
    direct = equivalent_vbb(v)
    assert abs(direct - 2997.92458) / 2997.92458 <= 1e-9
    doc = run_cli_json(["timing", "--v", "100000c", "--L", "30000"])
    assert abs(doc["v_bb_equivalent"] - 2997.92458) / 2997.92458 <= 1e-9
    assert doc["inputs"]["v_bb"] == direct
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"[criterion 1] PASS: v = 1e5 c maps to v_bb = {direct!r} m/s "
        f"(rel tol 1e-9, {elapsed:.2f}s)"
    )


def test_criterion_02_timing_criteria_agree_on_grid():
    start = time.perf_counter()
    lengths = np.linspace(1e2, 1e6, 100)
    gaps = np.linspace(0.0, 1e-4, 100)
    recessions = np.logspace(1.0, 5.0, 10)
    checked = 0
    for v_bb in recessions:
        v = SPEED_OF_LIGHT * SPEED_OF_LIGHT / v_bb
        for length in lengths:
            for dt in gaps:
                s = TimingScenario(L=length, dt=dt, v_bb=v_bb, v=v)
                assert finite_speed_cut(s) == before_before(s)
                checked += 1
    assert checked == 100 * 100 * 10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"[criterion 2] PASS: finite-speed cut and before-before agree on "
        f"{checked} grid points with v = c**2/v_bb ({elapsed:.2f}s)"
    )


def test_criterion_03_chsh_optimum_and_sampling():
    start = time.perf_counter()
    tsirelson = 2.0 * math.sqrt(2.0)
    opt = quantum_chain_optimum(2)
    assert abs(opt.value - tsirelson) <= 1e-6
    settings = [list(opt.angles_a), list(opt.angles_b)]
    spec = chain_spec(2)
    emp, se, predicted = sampled_chain(
        ModelConfig(kind="quantum"), spec, settings, 1_000_000, 20130419
    )
    assert abs(emp - tsirelson) <= 5.0 * se
    local_emp, local_se, _ = sampled_chain(
        ModelConfig(kind="local"), spec, settings, 1_000_000, 20130420
    )
    assert local_emp <= 2.0 + 5.0 * local_se
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"[criterion 3] PASS: optimum {opt.value:.9f} vs 2*sqrt(2), sampled "
        f"{emp:.4f} +- {se:.4f}, local {local_emp:.4f} <= 2 + 5 sigma "
        f"({elapsed:.2f}s)"
    )


def test_criterion_04_chain_bounds_and_quantum_values():
    start = time.perf_counter()
    for n in range(2, 7):
        assert local_bound(chain_spec(n)) == 2.0 * n - 2.0
    worst = 0.0
    for n in range(2, 9):
        closed = 2.0 * n * math.cos(math.pi / (2.0 * n))
        worst = max(worst, abs(quantum_chain_optimum(n).value - closed))
    assert worst <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"[criterion 4] PASS: local bounds 2N-2 for N=2..6, quantum values "
        f"within {worst:.2e} of 2N cos(pi/2N) for N=2..8 ({elapsed:.2f}s)"
    )


def test_criterion_05_mixture_deviation_and_sampling():
    start = time.perf_counter()
    for p in (0.1, 0.5):
        for n in (2, 4):
            expected = p * (
                quantum_chain_optimum(n).value - local_bound(chain_spec(n))
            )
            assert mixture_deviation(p, n) == expected
    reports = []
    for p in (0.1, 0.5):
        for n in (2, 4):
            opt = quantum_chain_optimum(n)
            settings = [list(opt.angles_a), list(opt.angles_b)]
            emp, se, predicted = sampled_chain(
                ModelConfig(kind="mixture", p=p),
                chain_spec(n),
                settings,
                1_000_000,
                900 + n,
            )
            assert abs(emp - predicted) <= 5.0 * se
            reports.append(f"p={p} N={n}: {emp:.4f} vs {predicted:.4f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        "[criterion 5] PASS: deviation p(Q_N - L_N) exact; sampled within "
        f"5 sigma ({'; '.join(reports)}) ({elapsed:.2f}s)"
    )


def test_criterion_06_local_polytope_certificates():
    start = time.perf_counter()
    pr = pr_box_behavior()
    assert abs(chsh_value(pr, 0, 1, 0, 1) - 4.0) <= 1e-12
    pr_margin = rechecked_rejection_margin(pr)
    assert pr_margin >= 2.0 - 1e-9
    rng = np.random.default_rng(6)
    for _ in range(5):
        bc = random_product_behavior(rng)
        result = local_polytope_member(bc)
        assert result.member
        assert recheck_membership_witness(bc, result.weights) <= RECHECK_TOL
    opt = quantum_chain_optimum(2)
    singlet_bc = born_behavior(
        make_singlet(), [list(opt.angles_a), list(opt.angles_b)]
    )
    singlet_margin = rechecked_rejection_margin(singlet_bc)
    assert singlet_margin > RECHECK_TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"[criterion 6] PASS: PR box rejected with re-checked margin "
        f"{pr_margin:.9f} >= 2 - 1e-9, products accepted, singlet-optimal "
        f"rejected (margin {singlet_margin:.6f}) ({elapsed:.2f}s)"
    )


def test_criterion_07_no_signaling_and_constructive_shift():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for k in range(100):
        parties = 2 if k % 2 == 0 else 3
        counts = [int(rng.integers(2, 4)) for _ in range(parties)]
        settings = [list(rng.uniform(0.0, math.pi, size=m)) for m in counts]
        b = born_behavior(random_state(rng, parties), settings)
        for r in range(1, parties):
            for receivers in itertools.combinations(range(parties), r):
                worst = max(worst, signaling_distance(b, receivers))
    assert worst <= 1e-10
    witness_settings = [[0.0, math.pi / 2.0], [0.0], [0.0]]
    target = born_behavior(make_ghz3(), witness_settings)
    off_model = constructive_off_behavior(target, (1, 2))
    shift = signaling_distance(off_model, (1, 2))
    assert shift > 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"[criterion 7] PASS: max signaling distance {worst:.2e} over 100 "
        f"random behaviors; constructive OFF-pair shift = {shift} "
        f"({elapsed:.2f}s)"
    )


def test_criterion_08_infeasibility_search_with_rechecking():
    start = time.perf_counter()
    report = search_infeasible_instance()
    state = rebuild_search_state(report.state)
    target = born_behavior(state, report.settings)
    result = localparts_feasible(target, (1, 2))
    if report.outcome == "infeasible_found":
        assert report.certificate_margin is not None
        assert report.certificate_margin > 1e-9
        assert not result.feasible
        margin = recheck_farkas_certificate(result.problem, result.certificate.y)
        assert margin > 1e-9
        detail = f"infeasible instance, re-checked margin {margin:.3e}"
    else:
        assert report.outcome == "all_feasible"
        assert result.feasible
        # The searched off pair is (1, 2), so the witness table is already
        # in the problem's spectator-first order.
        flat = np.concatenate(
            [result.witness.table.ravel(), result.witness_weights]
        )
        residual = recheck_feasibility_witness(result.problem, flat)
        assert residual <= RECHECK_TOL
        detail = (
            f"every instance feasible (first instance's witness residual "
            f"{residual:.2e})"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(
        f"[criterion 8] PASS: swept {report.instances_checked} instances; "
        f"{detail} ({elapsed:.2f}s)"
    )


def test_criterion_09_point_d_construction():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    found = 0
    attempts = 0
    while found < 100 and attempts < 10_000:
        attempts += 1
        ax, ay, bx, by, cx, cy = rng.uniform(-100.0, 100.0, size=6)
        a = Event(0.0, ax, ay)
        b = Event(0.0, bx, by)
        c_ev = Event(0.0, cx, cy)
        hit = find_point_d(a, b, c_ev, c=1.0)
        if hit is None:
            continue
        d, advantage = hit
        assert advantage > 0.0
        assert in_future_lightcone(b, d, c=1.0)
        assert in_future_lightcone(c_ev, d, c=1.0)
        assert not in_future_lightcone(a, d, c=1.0)
        ad = math.hypot(d.x - a.x, d.y - a.y)
        bd = math.hypot(d.x - b.x, d.y - b.y)
        cd = math.hypot(d.x - c_ev.x, d.y - c_ev.y)
        assert ad > bd
        assert abs(bd - cd) <= 1e-9 * max(1.0, bd)
        found += 1
    assert found == 100
    collinear = find_point_d(
        Event(0.0, 0.0), Event(0.0, 10.0), Event(0.0, 20.0), c=1.0
    )
    assert collinear is not None
    assert collinear[1] == 10.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"[criterion 9] PASS: {found} random layouts pass all lightcone "
        f"predicates (in {attempts} attempts); collinear advantage exactly "
        f"10.0 ({elapsed:.2f}s)"
    )


def test_criterion_10_preset_determinism(tmp_path):
    lines = []
    for name in (
        "fig1-detection",
        "fig2a",
        "fig2b",
        "before-before",
        "finite-speed-1e5c",
        "mixture-chain",
    ):
        outputs = []
        for label, workers in (("first", "1"), ("second", "3")):
            out_dir = tmp_path / name / label
            argv = ["preset", "run", name, "--out", str(out_dir)]
            # Signal presets take no sampling flags; both of their runs use the defaults.
            if get_preset(name).pipeline == "simulate":
                argv += ["--workers", workers]
            start = time.perf_counter()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(argv)
            assert code == 0
            assert time.perf_counter() - start < 60.0
            files = {
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            }
            assert files
            outputs.append((buf.getvalue(), files))
        assert outputs[0] == outputs[1]
        lines.append(f"{name}: {len(outputs[0][1])} files identical")
    print(f"[criterion 10] PASS: {'; '.join(lines)}")
