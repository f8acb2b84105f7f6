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

Both criteria are strict inequalities, decided exactly on their float
inputs; ties count as coordination ON.
All functions are pure and accept an explicit speed of light ``c`` so
that c=1 unit systems work alongside SI.

The per-pair layer on top of them lives here too: a Geometry of device
events and boosts, the ModelConfig that names a model, pair_timing (the
one evaluation of the timing rules on a geometry) and the ON/OFF
coordination_map read from it.  So does parse_speed, which reads a speed
in m/s or as a multiple of c.  The module is pure Python and its records
are namedtuples, so timing and point-d load it without numpy.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import Sequence

SPEED_OF_LIGHT = 299_792_458.0  # m/s

#: Tolerance for the lightlike boundary of the squared interval, relative
#: to the larger of the two squares being subtracted.
LIGHTLIKE_ATOL = 1e-9

#: The records' _make: namedtuple's own, which _replace calls, skips __new__'s checks.
_make_checked = classmethod(lambda cls, fields: cls(*fields))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite_number(value) -> bool:
    """A JSON number that converts to a finite float (an int too large
    for a float does not)."""
    if not _is_number(value):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def parse_speed(value, c: float = SPEED_OF_LIGHT) -> float:
    """Speed in m/s from a number or a "<multiple>c" string.

    Raises ValueError for anything else, including a number too large
    for a float and a text that parses to a non-finite speed; range
    checks belong to the consuming type (model or timing scenario).
    """
    if _is_number(value):
        if not _finite_number(value):
            raise ValueError("speed must be a finite number")
        return float(value)
    if not isinstance(value, str):
        raise ValueError(f"speed must be a number or a 'c'-suffixed string, got {value!r}")
    text = value.strip()
    scale = 1.0
    if text.endswith("c"):
        text, scale = text[:-1], c
    try:
        speed = float(text) * scale
    except ValueError:
        raise ValueError(f"cannot parse speed {value!r}") from None
    if not math.isfinite(speed):
        raise ValueError(f"speed {value!r} is not finite")
    return speed


class Event(namedtuple("Event", "t x y")):
    """A point in 2+1-dimensional flat spacetime, the tuple (t, x, y).

    t is in seconds, x and y in meters (or any consistent unit system
    when a non-SI ``c`` is passed to the operations below).
    """

    __slots__ = ()

    def __new__(cls, t: float, x: float, y: float = 0.0) -> Event:
        for name, v in zip(cls._fields, (t, x, y)):
            if not math.isfinite(v):
                raise ValueError(f"Event.{name} must be finite, got {v!r}")
        return super().__new__(cls, t, x, y)

    _make = _make_checked


class Boost(namedtuple("Boost", "beta")):
    """A velocity boost along the x axis, beta = v/c with |beta| < 1."""

    __slots__ = ()

    def __new__(cls, beta: float) -> Boost:
        if not math.isfinite(beta) or abs(beta) >= 1.0:
            raise ValueError(f"|beta| must be < 1, got {beta!r}")
        return super().__new__(cls, beta)

    _make = _make_checked


def _interval_squares(e1: Event, e2: Event, c: float) -> tuple[float, float, float]:
    """(c^2 dt^2, dx^2 + dy^2, unit): the squares in units of the largest
    separation component (1.0 for coincident events), so neither overflows."""
    sep = (c * (e2.t - e1.t), e2.x - e1.x, e2.y - e1.y)
    if not all(map(math.isfinite, sep)):
        raise ValueError(f"separation of {e1} and {e2} overflows at c={c!r}")
    unit = max(map(abs, sep)) or 1.0
    ct, dx, dy = (s / unit for s in sep)
    return ct * ct, dx * dx + dy * dy, unit


def interval_classify(e1: Event, e2: Event, c: float = SPEED_OF_LIGHT) -> str:
    """Classify the separation of two events.

    Returns "timelike", "lightlike" or "spacelike" by the sign of the
    squared interval.  The squares are compared in units of the largest
    separation component, and |s2| within LIGHTLIKE_ATOL of the larger
    square counts as lightlike: the tolerance is relative, so on-cone
    events classify as lightlike at any coordinate scale despite
    floating-point cancellation.  An infinite separation component
    raises ValueError.
    """
    time_sq, space_sq, _ = _interval_squares(e1, e2, c)
    s2 = time_sq - space_sq
    if abs(s2) <= LIGHTLIKE_ATOL * max(time_sq, space_sq):
        return "lightlike"
    return "timelike" if s2 > 0.0 else "spacelike"


def in_future_lightcone(source: Event, target: Event, c: float = SPEED_OF_LIGHT) -> bool:
    """True iff target lies on or inside the future lightcone of source."""
    if not target.t > source.t:
        return False
    return interval_classify(source, target, c=c) != "spacelike"


def _product_below(smaller: tuple[float, ...], larger: tuple[float, ...]) -> bool:
    """True iff the exact product of the finite floats ``smaller`` is below
    that of ``larger``, compared as integer fractions without rounding."""
    left = right = 1
    for f in smaller:
        num, den = f.as_integer_ratio()
        left, right = left * num, right * den
    for f in larger:
        num, den = f.as_integer_ratio()
        left, right = left * den, right * num
    return left < right


def before_before(L: float, dt: float, v_bb: float, c: float = SPEED_OF_LIGHT) -> bool:
    """Criterion for two receding devices to each choose first in its own frame.

    True iff dt c^2 < v_bb L, strictly and exactly on the given floats;
    v_bb = 0 can never satisfy it.
    """
    return _product_below((dt, c, c), (v_bb, L))


def finite_speed_cut(L: float, dt: float, v: float) -> bool:
    """True iff the devices outrun a speed-v influence: v dt < L, strictly
    and exactly on the given floats."""
    return _product_below((v, dt), (L,))


def equivalent_vbb(v: float, c: float = SPEED_OF_LIGHT) -> float:
    """Device recession speed whose before-before criterion matches speed v.

    Both criteria reduce to dt < L/v at v_bb = c^2 / v, so a before-before
    test at this recession speed also tests the finite-speed model at v.
    """
    if not (v > 0.0):
        raise ValueError(f"v must be > 0, got {v!r}")
    return c * c / v


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
    Midpoints are taken as 0.5 * u + 0.5 * v: away from subnormals that
    has the bits of 0.5 * (u + v), and it stays finite where u + v would
    overflow.
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
        t_d = 0.5 * t_open + 0.5 * t_close
        return Event(t=t_d, x=b.x, y=b.y), t_close - t_d

    mx = 0.5 * b.x + 0.5 * c_ev.x
    my = 0.5 * b.y + 0.5 * c_ev.y
    # Unit direction along the bisector (perpendicular to B-C).
    ux = -bc_dy / bc_len
    uy = bc_dx / bc_len

    (ta, xa, ya), (tb, xb, yb), (tc, xc, yc) = a, b, c_ev

    def candidate(s: float) -> tuple[float, float, float]:
        """Point s along the bisector and its advantage window: light-from-A
        arrival minus the earliest time inside both B and C future cones."""
        px = mx + s * ux
        py = my + s * uy
        t_b = tb + math.hypot(px - xb, py - yb) / c
        t_c = tc + math.hypot(px - xc, py - yc) / c
        return px, py, ta + math.hypot(px - xa, py - ya) / c - max(t_b, t_c)

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


class Geometry(namedtuple("Geometry", "events boosts c")):
    """Device arrival events and rest-frame boosts, one per party, and the
    speed of light: the tuple (events, boosts, c)."""

    __slots__ = ()

    def __new__(cls, events, boosts, c: float = SPEED_OF_LIGHT) -> Geometry:
        events, boosts = tuple(events), tuple(boosts)
        if len(events) < 2:
            raise ValueError("geometry needs at least two devices")
        if len(events) != len(boosts):
            message = f"{len(events)} events but {len(boosts)} boosts; counts must match"
            raise ValueError(message)
        return super().__new__(cls, events, boosts, c)

    _make = _make_checked

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


class ModelConfig(namedtuple("ModelConfig", "kind v p")):
    """Tagged hidden-influence model description, the tuple (kind, v, p).

    kind "finite_speed" needs v (influence speed in the preferred frame,
    taken to be the lab frame); "mixture" needs p, the probability that
    a trial is local.  Other kinds take no parameters.
    """

    __slots__ = ()

    def __new__(cls, kind: str, v: float | None = None, p: float | None = None) -> ModelConfig:
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}; choose from {MODEL_KINDS}")
        if kind == "finite_speed":
            if v is None or not v > 0:
                raise ValueError(f"finite_speed needs v > 0, got {v!r}")
        elif v is not None:
            raise ValueError(f"model kind {kind!r} takes no v")
        if kind == "mixture":
            if p is None or not 0.0 <= p <= 1.0:
                raise ValueError(f"mixture needs p in [0, 1], got {p!r}")
        elif p is not None:
            raise ValueError(f"model kind {kind!r} takes no p")
        return super().__new__(cls, kind, v, p)

    _make = _make_checked


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
        L, dt, w = g.distance(i, j), g.arrival_dt(i, j), g.recession_speed(i, j)
        entry = {"L": L, "dt": dt, "recession_speed": w}
        if L > 0 and model.kind == "finite_speed":
            entry["v"] = model.v
            entry["v_bb_equivalent"] = equivalent_vbb(model.v, g.c)
            entry["finite_speed_cut"] = finite_speed_cut(L, dt, model.v)
        elif L > 0 and model.kind == "multisim":
            entry["before_before"] = before_before(L, dt, w, g.c)
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
