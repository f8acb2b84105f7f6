import math

import numpy as np
import pytest

from bellsim.spacetime import (
    SPEED_OF_LIGHT as C,
    Boost,
    Event,
    TimingScenario,
    before_before,
    device_frame_order,
    equivalent_vbb,
    find_point_d,
    finite_speed_cut,
    in_future_lightcone,
    interval_classify,
    interval_squared,
    lorentz_boost,
)


def test_event_rejects_non_finite():
    with pytest.raises(ValueError):
        Event(t=math.nan, x=0.0)
    with pytest.raises(ValueError):
        Event(t=0.0, x=math.inf)


def test_boost_rejects_superluminal():
    with pytest.raises(ValueError):
        Boost(beta=1.0)
    with pytest.raises(ValueError):
        Boost(beta=-1.2)


def test_identity_boost_is_identity():
    e = Event(t=3.0, x=-2.0, y=7.0)
    assert lorentz_boost(e, Boost(0.0), c=1.0) == e


def test_boost_hand_calculation():
    # c=1, beta=0.6, gamma=1.25: (0, 1, 0) -> (-0.75, 1.25, 0).
    e2 = lorentz_boost(Event(t=0.0, x=1.0, y=0.0), Boost(0.6), c=1.0)
    assert abs(e2.t - (-0.75)) < 1e-15
    assert abs(e2.x - 1.25) < 1e-15
    assert e2.y == 0.0


def test_boost_preserves_interval():
    rng = np.random.default_rng(7)
    origin = Event(t=0.0, x=0.0, y=0.0)
    for _ in range(10_000):
        t, x, y = rng.normal(size=3)
        beta = rng.uniform(-0.99, 0.99)
        e = Event(t=float(t), x=float(x), y=float(y))
        s2_before = interval_squared(origin, e, c=1.0)
        s2_after = interval_squared(origin, lorentz_boost(e, Boost(beta), c=1.0), c=1.0)
        scale = t * t + x * x + y * y
        assert abs(s2_after - s2_before) <= 1e-12 * scale


def test_interval_classification():
    o = Event(t=0.0, x=0.0)
    assert interval_classify(o, Event(t=0.0, x=3.0), c=1.0) == "spacelike"
    assert interval_classify(o, Event(t=2.0, x=0.0), c=1.0) == "timelike"
    assert interval_classify(o, Event(t=2.0, x=2.0), c=1.0) == "lightlike"
    # Tolerance is absolute on the squared interval.
    assert interval_classify(o, Event(t=2.0, x=2.0 + 1e-12), c=1.0) == "lightlike"


@pytest.mark.parametrize(
    ("t", "x", "kind"),
    [(1.0, 3.0, "spacelike"), (3.0, 1.0, "timelike"), (1.0, 1.0, "lightlike")],
)
def test_interval_classification_holds_past_the_square_range(t, x, kind):
    """Separations whose squares overflow a double keep their class, and
    interval_squared keeps its sign."""
    o = Event(t=0.0, x=0.0)
    for scale in (1.0, 1e200, 1e300):
        e = Event(t=t * scale, x=x * scale)
        assert interval_classify(o, e, c=1.0) == kind
        assert interval_classify(e, o, c=1.0) == kind
        s2 = interval_squared(o, e, c=1.0)
        assert (s2 > 0, s2 < 0) == (kind == "timelike", kind == "spacelike")


def test_infinite_separation_is_a_value_error():
    with pytest.raises(ValueError, match="overflows"):
        interval_classify(Event(t=0.0, x=1e308), Event(t=1.0, x=-1e308), c=1.0)
    with pytest.raises(ValueError, match="overflows"):
        interval_squared(Event(t=-1e308, x=0.0), Event(t=1e308, x=0.0), c=1.0)


def test_future_lightcone():
    o = Event(t=0.0, x=0.0)
    assert in_future_lightcone(o, Event(t=1.0, x=0.0), c=1.0)
    assert in_future_lightcone(o, Event(t=1.0, x=1.0), c=1.0)
    assert not in_future_lightcone(o, Event(t=1.0, x=2.0), c=1.0)
    assert not in_future_lightcone(o, Event(t=-1.0, x=0.0), c=1.0)
    assert not in_future_lightcone(o, o, c=1.0)


def test_timing_scenario_invariants():
    with pytest.raises(ValueError):
        TimingScenario(L=0.0, dt=0.0, v_bb=0.0, v=C)
    with pytest.raises(ValueError):
        TimingScenario(L=1.0, dt=-1.0, v_bb=0.0, v=C)
    with pytest.raises(ValueError):
        TimingScenario(L=1.0, dt=0.0, v_bb=C, v=C)
    with pytest.raises(ValueError):
        TimingScenario(L=1.0, dt=0.0, v_bb=0.0, v=0.0)


def test_before_before():
    assert before_before(TimingScenario(L=10.0, dt=0.0, v_bb=1.0, v=C))
    assert not before_before(TimingScenario(L=10.0, dt=0.0, v_bb=0.0, v=C))
    # L=3.0e4 m, v_bb=2.998e3 m/s: bound ~ 1.0e-9 s, so dt=0.5e-9 passes.
    s = TimingScenario(L=3.0e4, dt=0.5e-9, v_bb=2.998e3, v=1e5 * C)
    assert abs((s.v_bb / C**2) * s.L - 1.0007174604146246e-09) < 1e-22
    assert before_before(s)
    assert not before_before(TimingScenario(L=3.0e4, dt=2.0e-9, v_bb=2.998e3, v=1e5 * C))


def test_finite_speed_cut():
    assert finite_speed_cut(TimingScenario(L=1000.0, dt=1e-9, v_bb=0.0, v=100 * C))
    assert finite_speed_cut(TimingScenario(L=1.0, dt=0.0, v_bb=0.0, v=1e5 * C))
    assert not finite_speed_cut(TimingScenario(L=1.0, dt=1e-9, v_bb=0.0, v=1e5 * C))
    # Equality counts as coordination ON.
    assert not finite_speed_cut(TimingScenario(L=2.0, dt=1.0, v_bb=0.0, v=2.0, c=10.0))


def test_equivalent_vbb():
    assert abs(equivalent_vbb(1e5 * C) - 2.99792458e3) < 1e-9 * 2.99792458e3
    assert equivalent_vbb(C) == C
    assert equivalent_vbb(2 * C) == C / 2
    with pytest.raises(ValueError):
        equivalent_vbb(0.0)


def test_equivalence_of_timing_criteria():
    # With v = c^2/v_bb both criteria reduce to dt < L/v; they must agree
    # pointwise on the grid, including the dt=0 row.
    for v_bb in np.geomspace(1.0, 1e8, 10):
        v = equivalent_vbb(float(v_bb))
        for L in np.linspace(1e3, 3e6, 100):
            for dt in np.linspace(0.0, 1e-3, 100):
                s = TimingScenario(L=float(L), dt=float(dt), v_bb=float(v_bb), v=v)
                assert finite_speed_cut(s) == before_before(s)


def test_device_frame_order_basics():
    e = Event(t=1.0, x=2.0)
    assert device_frame_order(e, e, Boost(0.5), c=1.0) == "simultaneous"
    a = Event(t=0.0, x=0.0)
    b = Event(t=1.0, x=0.0)
    assert device_frame_order(a, b, Boost(0.0), c=1.0) == "before"
    assert device_frame_order(b, a, Boost(0.0), c=1.0) == "after"


def test_device_frame_order_receding_device():
    # Lab-simultaneous events at x=0 and x=L; in a frame moving toward +x
    # the remote event at +x happens earlier: t' = gamma(0 - beta L / c) < 0.
    local = Event(t=0.0, x=0.0)
    remote = Event(t=0.0, x=5.0)
    assert device_frame_order(local, remote, Boost(0.4), c=1.0) == "after"
    assert device_frame_order(local, remote, Boost(-0.4), c=1.0) == "before"


def test_before_before_matches_device_frames():
    # Symmetric layout: devices at x=-L/2 and x=+L/2 receding at -v_bb and
    # +v_bb, arrivals offset by a signed dt.  before_before must agree with
    # "each device frame puts the local event strictly first".
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        L = float(rng.uniform(1e2, 1e7))
        v_bb = float(rng.uniform(0.0, 0.3 * C))
        dt_signed = float(rng.uniform(-1e-3, 1e-3)) * L / C
        left = Event(t=0.0, x=-L / 2)
        right = Event(t=dt_signed, x=L / 2)
        each_first = device_frame_order(
            left, right, Boost(-v_bb / C)
        ) == "before" and device_frame_order(right, left, Boost(v_bb / C)) == "before"
        s = TimingScenario(L=L, dt=abs(dt_signed), v_bb=v_bb, v=1e5 * C)
        assert before_before(s) == each_first


def test_point_d_collinear_example():
    a = Event(t=0.0, x=0.0, y=0.0)
    b = Event(t=0.0, x=10.0, y=0.0)
    c_ev = Event(t=0.0, x=20.0, y=0.0)
    res = find_point_d(a, b, c_ev, c=1.0)
    assert res is not None
    d, advantage = res
    assert (d.t, d.x, d.y) == (5.0, 15.0, 0.0)
    assert advantage == 10.0


def test_point_d_midpoint_source_has_none():
    a = Event(t=0.0, x=15.0, y=0.0)
    b = Event(t=0.0, x=10.0, y=0.0)
    c_ev = Event(t=0.0, x=20.0, y=0.0)
    assert find_point_d(a, b, c_ev, c=1.0) is None


def test_point_d_degenerate_coincident_pair():
    a = Event(t=0.0, x=0.0, y=0.0)
    b = Event(t=0.0, x=10.0, y=0.0)
    res = find_point_d(a, b, b, c=1.0)
    assert res is not None
    d, advantage = res
    assert advantage > 0.0
    assert in_future_lightcone(b, d, c=1.0)
    assert not in_future_lightcone(a, d, c=1.0)


def test_point_d_random_layouts():
    rng = np.random.default_rng(23)
    found = 0
    while found < 100:
        b = Event(*(float(v) for v in rng.uniform(-10, 10, size=3)))
        c_ev = Event(*(float(v) for v in rng.uniform(-10, 10, size=3)))
        bc = math.hypot(c_ev.x - b.x, c_ev.y - b.y)
        if bc < 1.0:
            continue
        mx, my = (b.x + c_ev.x) / 2, (b.y + c_ev.y) / 2
        phi = float(rng.uniform(0, 2 * math.pi))
        r = bc / 2 + float(rng.uniform(2.0, 10.0))
        a = Event(
            t=float(rng.uniform(-0.5, 0.5)),
            x=mx + r * math.cos(phi),
            y=my + r * math.sin(phi),
        )
        res = find_point_d(a, b, c_ev, c=1.0)
        if res is None:
            continue
        d, advantage = res
        assert advantage > 0.0
        assert in_future_lightcone(b, d, c=1.0)
        assert in_future_lightcone(c_ev, d, c=1.0)
        assert not in_future_lightcone(a, d, c=1.0)
        found += 1
