"""Special-relativity primitives in 2+1 dimensions, and the timing rules
of the hidden-influence models.

Events live in a flat (t, x, y) spacetime; boosts are restricted to the
x axis, which covers collinear device-motion layouts.  The module also
implements the two timing criteria that decide when a hidden-influence
model switches its nonlocal coordination off:

* finite-speed cut: the devices are farther apart than an influence at
  speed v can travel within the arrival-time difference,
* before-before: each receding device, in its own rest frame, makes its
  choice before the other's.

Both criteria are strict inequalities; ties count as coordination ON.
All functions are pure and accept an explicit speed of light ``c`` so
that c=1 unit systems work alongside SI.

The per-pair layer on top of them lives here too: a Geometry of device
events and boosts, the ModelConfig that names a model, pair_timing (the
one evaluation of the timing rules on a geometry) and the ON/OFF
coordination_map read from it.  The module is pure Python, so commands
that only need timing (timing, point-d, validate) start without numpy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

SPEED_OF_LIGHT = 299_792_458.0  # m/s

#: Absolute tolerance for the lightlike boundary of the squared
#: interval, intended for c=1 unit systems with O(1..1e3) coordinates.
LIGHTLIKE_ATOL = 1e-9


@dataclass(frozen=True)
class Event:
    """A point in 2+1-dimensional flat spacetime.

    t is in seconds, x and y in meters (or any consistent unit system
    when a non-SI ``c`` is passed to the operations below).
    """

    t: float
    x: float
    y: float = 0.0

    def __post_init__(self) -> None:
        for name in ("t", "x", "y"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"Event.{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class Boost:
    """A velocity boost along the x axis, beta = v/c with |beta| < 1."""

    beta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta) or abs(self.beta) >= 1.0:
            raise ValueError(f"|beta| must be < 1, got {self.beta!r}")

    @property
    def gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.beta * self.beta)


@dataclass(frozen=True)
class TimingScenario:
    """Inputs of the two timing criteria.

    L: device separation (m); dt: |arrival-time difference| (s);
    v_bb: recession speed of each device in the lab frame (m/s);
    v: hidden-influence speed in the preferred frame (m/s, may exceed c).
    """

    L: float
    dt: float
    v_bb: float
    v: float
    c: float = SPEED_OF_LIGHT

    def __post_init__(self) -> None:
        if not (self.L > 0.0):
            raise ValueError(f"L must be > 0, got {self.L!r}")
        if not (self.dt >= 0.0):
            raise ValueError(f"dt must be >= 0, got {self.dt!r}")
        if not (0.0 <= self.v_bb < self.c):
            raise ValueError(f"v_bb must be in [0, c), got {self.v_bb!r}")
        if not (self.v > 0.0):
            raise ValueError(f"v must be > 0, got {self.v!r}")


def lorentz_boost(e: Event, b: Boost, c: float = SPEED_OF_LIGHT) -> Event:
    """Transform an event into the frame moving at b.beta along +x.

    t' = gamma (t - beta x / c), x' = gamma (x - beta c t), y' = y.
    """
    g = b.gamma
    return Event(
        t=g * (e.t - b.beta * e.x / c),
        x=g * (e.x - b.beta * c * e.t),
        y=e.y,
    )


def _interval_squares(e1: Event, e2: Event, c: float) -> tuple[float, float, float]:
    """(c^2 dt^2, dx^2 + dy^2, unit): the squares in units of the largest
    separation component if a square overflows a double, else of 1.0."""
    sep = (c * (e2.t - e1.t), e2.x - e1.x, e2.y - e1.y)
    if not all(map(math.isfinite, sep)):
        raise ValueError(f"separation of {e1} and {e2} overflows at c={c!r}")
    ct, dx, dy = sep
    try:
        if (space_sq := dx * dx + dy * dy) < math.inf:
            return ct**2, space_sq, 1.0
    except OverflowError:  # from ct**2
        pass
    unit = max(map(abs, sep))
    ct, dx, dy = (s / unit for s in sep)
    return ct**2, dx * dx + dy * dy, unit


def interval_squared(e1: Event, e2: Event, c: float = SPEED_OF_LIGHT) -> float:
    """Squared Minkowski interval c^2 dt^2 - dx^2 - dy^2 between two events."""
    time_sq, space_sq, unit = _interval_squares(e1, e2, c)
    return (time_sq - space_sq) * unit * unit


def interval_classify(e1: Event, e2: Event, c: float = SPEED_OF_LIGHT) -> str:
    """Classify the separation of two events.

    Returns "timelike", "lightlike" or "spacelike" by the sign of the
    squared interval.  |s2| within LIGHTLIKE_ATOL of zero counts as
    lightlike, with the tolerance scaled by the magnitude of the squares
    being subtracted so that on-cone events classify as lightlike at any
    coordinate scale despite floating-point cancellation.  Squares too
    large for a double are compared in units of the largest separation
    component; an infinite separation component raises ValueError.
    """
    time_sq, space_sq, _ = _interval_squares(e1, e2, c)
    s2 = time_sq - space_sq
    if abs(s2) <= LIGHTLIKE_ATOL * max(1.0, time_sq, space_sq):
        return "lightlike"
    return "timelike" if s2 > 0.0 else "spacelike"


def in_future_lightcone(source: Event, target: Event, c: float = SPEED_OF_LIGHT) -> bool:
    """True iff target lies on or inside the future lightcone of source."""
    if not target.t > source.t:
        return False
    return interval_classify(source, target, c=c) != "spacelike"


def before_before(s: TimingScenario) -> bool:
    """Criterion for two receding devices to each choose first in its own frame.

    True iff dt < (v_bb / c^2) L, strictly; v_bb = 0 can never satisfy it.
    """
    return s.dt < (s.v_bb / (s.c * s.c)) * s.L


def finite_speed_cut(s: TimingScenario) -> bool:
    """True iff the devices outrun a speed-v influence: L > v dt, strictly."""
    return s.L > s.v * s.dt


def equivalent_vbb(v: float, c: float = SPEED_OF_LIGHT) -> float:
    """Device recession speed whose before-before criterion matches speed v.

    Both criteria reduce to dt < L/v at v_bb = c^2 / v, so a before-before
    test at this recession speed also tests the finite-speed model at v.
    """
    if not (v > 0.0):
        raise ValueError(f"v must be > 0, got {v!r}")
    return c * c / v


def device_frame_order(
    local: Event, remote: Event, device_boost: Boost, c: float = SPEED_OF_LIGHT
) -> str:
    """Temporal order of ``local`` relative to ``remote`` in the device frame.

    Returns "before" if the local event precedes the remote one after
    boosting both events by ``device_boost``, "after" if it follows, and
    "simultaneous" when the boosted times are equal.
    """
    tl = lorentz_boost(local, device_boost, c=c).t
    tr = lorentz_boost(remote, device_boost, c=c).t
    if tl == tr:
        return "simultaneous"
    return "before" if tl < tr else "after"


def _bisector_gap(
    a: Event, b: Event, c_ev: Event, px: float, py: float, c: float
) -> float:
    """Advantage window at plane point (px, py): light-from-A arrival minus
    the earliest time inside both B and C future cones."""
    t_a = a.t + math.hypot(px - a.x, py - a.y) / c
    t_b = b.t + math.hypot(px - b.x, py - b.y) / c
    t_c = c_ev.t + math.hypot(px - c_ev.x, py - c_ev.y) / c
    return t_a - max(t_b, t_c)


def find_point_d(
    a: Event,
    b: Event,
    c_ev: Event,
    c: float = SPEED_OF_LIGHT,
) -> tuple[Event, float] | None:
    """Find a point D inside the future cones of b and c_ev but outside a's.

    Only the perpendicular bisector of the B-C spatial segment is
    searched.  D is placed on it at the earliest time contained in both
    future cones, and the returned ``advantage`` is the number of seconds
    by which D beats a light signal sent from A to D's location.  The
    spatial midpoint is tried first; failing that, the bisector is
    scanned at 2001 evenly spaced points over a bounded range (10x the
    largest pairwise distance) and its best point is returned.  The
    advantage is therefore that of one point on the bisector, not the
    largest over the plane, and None means no point D on the bisector,
    not none anywhere.

    A degenerate spatially coincident B=C reduces to the two-event case:
    D sits at their common position, halfway through the time window.
    """
    bc_dx = c_ev.x - b.x
    bc_dy = c_ev.y - b.y
    bc_len = math.hypot(bc_dx, bc_dy)

    if bc_len == 0.0:
        # Two-event case: want max(t_b, t_c) < t_D < light-from-A arrival.
        t_open = max(b.t, c_ev.t)
        t_close = a.t + math.hypot(b.x - a.x, b.y - a.y) / c
        if not t_close > t_open:
            return None
        t_d = 0.5 * (t_open + t_close)
        return Event(t=t_d, x=b.x, y=b.y), t_close - t_d

    mx = 0.5 * (b.x + c_ev.x)
    my = 0.5 * (b.y + c_ev.y)
    # Unit direction along the bisector (perpendicular to B-C).
    ux = -bc_dy / bc_len
    uy = bc_dx / bc_len

    def candidate(s: float) -> tuple[float, float, float]:
        px = mx + s * ux
        py = my + s * uy
        return px, py, _bisector_gap(a, b, c_ev, px, py, c)

    px, py, gap = candidate(0.0)
    if gap <= 0.0:
        dists = (
            math.hypot(b.x - a.x, b.y - a.y),
            math.hypot(c_ev.x - a.x, c_ev.y - a.y),
            bc_len,
        )
        bound = 10.0 * max(dists)
        best = (gap, px, py)
        for i in range(2001):
            s = -bound + (2.0 * bound) * i / 2000
            qx, qy, g = candidate(s)
            if g > best[0]:
                best = (g, qx, qy)
        gap, px, py = best
        if gap <= 0.0:
            return None

    t_d = max(
        b.t + math.hypot(px - b.x, py - b.y) / c,
        c_ev.t + math.hypot(px - c_ev.x, py - c_ev.y) / c,
    )
    return Event(t=t_d, x=px, y=py), gap


MODEL_KINDS = ("quantum", "local", "finite_speed", "multisim", "mixture")

ON = "ON"
OFF = "OFF"


@dataclass(frozen=True)
class Geometry:
    """Device arrival events and rest-frame boosts, one per party."""

    events: tuple[Event, ...]
    boosts: tuple[Boost, ...]
    c: float = SPEED_OF_LIGHT

    def __post_init__(self) -> None:
        events = tuple(self.events)
        boosts = tuple(self.boosts)
        if len(events) < 2:
            raise ValueError("geometry needs at least two devices")
        if len(events) != len(boosts):
            raise ValueError(
                f"{len(events)} events but {len(boosts)} boosts; counts must match"
            )
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "boosts", boosts)

    @property
    def parties(self) -> int:
        return len(self.events)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(itertools.combinations(range(self.parties), 2))

    def distance(self, i: int, j: int) -> float:
        return math.hypot(
            self.events[j].x - self.events[i].x, self.events[j].y - self.events[i].y
        )

    def arrival_dt(self, i: int, j: int) -> float:
        return abs(self.events[j].t - self.events[i].t)

    def recession_speed(self, i: int, j: int) -> float:
        """Pair recession speed feeding the before-before criterion.

        Each device's speed away from the other is its x velocity
        projected on the line of sight; the pair value is the smaller of
        the two, floored at zero, so a pair counts as receding only when
        both members are.  With this projection the criterion matches
        the device-frame time ordering exactly, y offsets included.
        """
        dist = self.distance(i, j)
        if dist == 0.0:
            return 0.0
        toward_j = (self.events[j].x - self.events[i].x) / dist
        w_i = -self.boosts[i].beta * self.c * toward_j
        w_j = self.boosts[j].beta * self.c * toward_j
        return min(max(0.0, w_i), max(0.0, w_j))


@dataclass(frozen=True)
class ModelConfig:
    """Tagged hidden-influence model description.

    kind "finite_speed" needs v (influence speed in the preferred frame,
    taken to be the lab frame); "mixture" needs p, the probability that
    a trial is local.  Other kinds take no parameters.
    """

    kind: str
    v: float | None = None
    p: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; choose from {MODEL_KINDS}")
        if self.kind == "finite_speed":
            if self.v is None or not self.v > 0:
                raise ValueError(f"finite_speed needs v > 0, got {self.v!r}")
        elif self.v is not None:
            raise ValueError(f"model kind {self.kind!r} takes no v")
        if self.kind == "mixture":
            if self.p is None or not 0.0 <= self.p <= 1.0:
                raise ValueError(f"mixture needs p in [0, 1], got {self.p!r}")
        elif self.p is not None:
            raise ValueError(f"model kind {self.kind!r} takes no p")


#: Timed model kinds and the name of the verdict their timing rule gives.
TIMING_RULES = {"finite_speed": "finite_speed_cut", "multisim": "before_before"}


def pair_timing(model: ModelConfig, g: Geometry) -> dict[tuple[int, int], dict]:
    """Timing quantities and the model's timing verdict, per device pair.

    Every pair carries its separation L, arrival gap dt and recession
    speed.  Under a timed model (see TIMING_RULES), a pair at nonzero
    separation also carries the verdict of the model's rule, True when
    the rule cuts coordination; finite-speed pairs add v and the
    equivalent before-before speed c**2/v.  Coincident devices get no
    verdict: timing can never separate them.
    """
    result: dict[tuple[int, int], dict] = {}
    for i, j in g.pairs():
        entry = {
            "L": g.distance(i, j),
            "dt": g.arrival_dt(i, j),
            "recession_speed": g.recession_speed(i, j),
        }
        if entry["L"] > 0 and model.kind == "finite_speed":
            s = TimingScenario(L=entry["L"], dt=entry["dt"], v_bb=0.0, v=model.v, c=g.c)
            entry["v"] = model.v
            entry["v_bb_equivalent"] = equivalent_vbb(model.v, g.c)
            entry["finite_speed_cut"] = finite_speed_cut(s)
        elif entry["L"] > 0 and model.kind == "multisim":
            # v is unused by the criterion; any positive value works.
            s = TimingScenario(
                L=entry["L"], dt=entry["dt"], v_bb=entry["recession_speed"], v=g.c, c=g.c
            )
            entry["before_before"] = before_before(s)
        result[(i, j)] = entry
    return result


def coordination_map(model: ModelConfig, g: Geometry) -> dict[tuple[int, int], str]:
    """ON/OFF state per device pair under the model's rule.

    Timed models cut exactly the pairs whose pair_timing verdict is
    True.  A mixture has no static map (hvmodels.sample_runs switches
    between the all-ON and all-OFF maps per trial) and raises ValueError.
    """
    if model.kind == "mixture":
        raise ValueError("a mixture has no static coordination map")
    if model.kind in TIMING_RULES:
        verdict = TIMING_RULES[model.kind]
        return {
            pair: OFF if entry.get(verdict) else ON
            for pair, entry in pair_timing(model, g).items()
        }
    state = ON if model.kind == "quantum" else OFF
    return {pair: state for pair in g.pairs()}


def spectator_first(off_pair: Sequence[int]) -> tuple[int, int, int]:
    """Tripartite party order (spectator, i, j) for the cut pair i < j."""
    off = sorted(int(q) for q in off_pair)
    if len(off) != 2 or off[0] == off[1] or not set(off) <= {0, 1, 2}:
        raise ValueError(f"off_pair must be two distinct parties, got {off_pair!r}")
    return (3 - off[0] - off[1], off[0], off[1])
