"""Hidden-influence model layer.

A ModelConfig plus a Geometry decides, per device pair, whether nonlocal
coordination is ON or OFF: the finite-speed rule cuts a pair when the
devices outrun an influence at speed v, the multisimultaneity rule when
the pair is in before-before timing, and mixtures switch between the
quantum (all ON) and local (all OFF) maps per trial.  effective_behavior
turns the map into a probability table: ON parts reproduce the target,
OFF parts are replaced by a declared local surrogate.  sample_runs draws
a reproducible columnar sample from that table and carries the table and
the coordination maps with it; write_run_csv and write_run_json write it
out.

The localized surrogate choices (documented per function) are declared
conventions, not claims of uniqueness; surrogate-independent conclusions
come from the feasibility analysis in the signaling module.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .quantum import Behavior, marginal, no_signaling_defect
from .spacetime import (
    SPEED_OF_LIGHT,
    Boost,
    Event,
    TimingScenario,
    before_before,
    equivalent_vbb,
    finite_speed_cut,
)

MODEL_KINDS = ("quantum", "local", "finite_speed", "multisim", "mixture")

#: Trials per sampling chunk; part of the determinism contract.
CHUNK = 2**16

ON = "ON"
OFF = "OFF"


class UnsupportedConfigurationError(ValueError):
    """The coordination pattern has no expressible surrogate behavior."""


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
    taken to be the lab frame); "mixture" needs p plus a switching
    schedule ("coin" per-trial or "block" with block_length).  Other
    kinds take no parameters.
    """

    kind: str
    v: float | None = None
    p: float | None = None
    schedule: str = "coin"
    block_length: int = 1

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
            if self.schedule not in ("coin", "block"):
                raise ValueError(f"schedule must be 'coin' or 'block', got {self.schedule!r}")
            if self.schedule == "block" and self.block_length < 1:
                raise ValueError(f"block_length must be >= 1, got {self.block_length}")
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
    True.  A mixture has no static map (sample_runs switches between
    the all-ON and all-OFF maps per trial) and raises ValueError.
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


_SETTING_LETTERS = "STUV"
_OUTCOME_LETTERS = "abcd"


def _marginal_table(b: Behavior, subset: tuple[int, ...]) -> np.ndarray:
    """Subset marginal at remote settings fixed to 0 (b must be no-signaling)."""
    family = marginal(b, subset)
    key = (0,) * (b.parties - len(subset))
    return family[key].table


def _subscript(subset: tuple[int, ...]) -> str:
    return "".join(_SETTING_LETTERS[q] for q in subset) + "".join(
        _OUTCOME_LETTERS[q] for q in subset
    )


def _product_of_components(target: Behavior, components: list[tuple[int, ...]]) -> np.ndarray:
    tables = [_marginal_table(target, comp) for comp in components]
    out = _subscript(tuple(range(target.parties)))
    expr = ",".join(_subscript(comp) for comp in components) + "->" + out
    return np.einsum(expr, *tables)


def spectator_first(off_pair: Sequence[int]) -> tuple[int, int, int]:
    """Tripartite party order (spectator, i, j) for the cut pair i < j."""
    off = sorted(int(q) for q in off_pair)
    if len(off) != 2 or off[0] == off[1] or not set(off) <= {0, 1, 2}:
        raise ValueError(f"off_pair must be two distinct parties, got {off_pair!r}")
    return (3 - off[0] - off[1], off[0], off[1])


def _one_off_pair_tripartite(target: Behavior, order: tuple[int, int, int]) -> np.ndarray:
    """Joint table for a tripartite target with exactly one pair OFF.

    The spectator k joins its lower-indexed OFF partner through their
    exact pairwise marginal; the remaining party is drawn from its
    conditional given the spectator's outcome.  Both marginals that
    contain k are then exact; the OFF pair's correlation is mediated by
    k's outcome only, hence local.  ``order`` is (k, partner, other),
    from spectator_first.
    """
    k, partner, other = order
    kp = tuple(sorted((k, partner)))
    ko = tuple(sorted((k, other)))
    joint_kp = _marginal_table(target, kp)
    joint_ko = _marginal_table(target, ko)
    p_k = _marginal_table(target, (k,))
    # Broadcast P(a_k | x_k) into joint_ko's axes to divide it out.
    pos = ko.index(k)
    shape = [1, 1, 1, 1]
    shape[pos] = p_k.shape[0]
    shape[2 + pos] = 2
    p_k_exp = p_k.reshape(shape)
    safe = np.where(p_k_exp > 0, p_k_exp, 1.0)
    # Outcomes with zero spectator probability never occur; any
    # normalized filler row keeps the table a valid distribution.
    cond = np.where(p_k_exp > 0, joint_ko / safe, 0.5)
    expr = f"{_subscript(kp)},{_subscript(ko)}->{_subscript((0, 1, 2))}"
    return np.einsum(expr, joint_kp, cond)


def constructive_off_behavior(target: Behavior, off_pair: tuple[int, int]) -> Behavior:
    """Observable statistics of the explicit model with one pair cut.

    This is the spectator-mediated construction used when exactly one
    pair of a tripartite target loses coordination: both marginals that
    contain the spectator stay exact, and the cut pair's joint outcomes
    are correlated only through the spectator's outcome.  Exposed so the
    signaling layer can quantify the marginal shift this model displays.
    """
    if target.parties != 3:
        raise ValueError(f"need a tripartite behavior, got {target.parties} parties")
    order = spectator_first(off_pair)
    table = _one_off_pair_tripartite(_validated(target), order)
    return Behavior(3, target.settings_per_party, table)


def _components_of_on_graph(parties: int, cmap: dict[tuple[int, int], str]) -> list[tuple[int, ...]]:
    adj: dict[int, set[int]] = {i: set() for i in range(parties)}
    for (i, j), state in cmap.items():
        if state == ON:
            adj[i].add(j)
            adj[j].add(i)
    seen: set[int] = set()
    components: list[tuple[int, ...]] = []
    for start in range(parties):
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            q = stack.pop()
            if q in comp:
                continue
            comp.add(q)
            stack.extend(adj[q] - comp)
        seen |= comp
        components.append(tuple(sorted(comp)))
    return components


def effective_behavior(model: ModelConfig, g: Geometry, target: Behavior) -> Behavior:
    """The model's observable statistics for the given geometry and target.

    All pairs ON returns the target unchanged.  A pattern that splits
    the parties into components (every within-component pair ON, every
    cross pair OFF) yields the product of the target's component
    marginals.  A tripartite pattern with exactly one pair OFF uses the
    spectator-mediated construction.  Mixtures return the p-weighted
    convex combination of the local (all OFF) and quantum branches.
    Anything else raises UnsupportedConfigurationError.
    """
    if g.parties != target.parties:
        raise ValueError(
            f"geometry has {g.parties} devices but target has {target.parties} parties"
        )
    if model.kind == "mixture":
        return _mixed(model.p, target, effective_behavior(ModelConfig(kind="local"), g, target))

    cmap = coordination_map(model, g)
    if all(state == ON for state in cmap.values()):
        return target
    components = _components_of_on_graph(target.parties, cmap)
    by_component = {q: comp for comp in components for q in comp}
    is_partition_pattern = all(
        (cmap[(i, j)] == ON) == (by_component[i] is by_component[j])
        for i, j in g.pairs()
    )
    if is_partition_pattern:
        table = _product_of_components(_validated(target), components)
    elif target.parties == 3 and sum(1 for s in cmap.values() if s == OFF) == 1:
        off = next(pair for pair, s in cmap.items() if s == OFF)
        table = _one_off_pair_tripartite(_validated(target), spectator_first(off))
    else:
        raise UnsupportedConfigurationError(
            f"no expressible surrogate for coordination pattern {cmap!r}"
        )
    return Behavior(target.parties, target.settings_per_party, table)


def _mixed(p: float, target: Behavior, local: Behavior) -> Behavior:
    """The mixture's behavior: local with weight p, the target otherwise."""
    mixed = (1.0 - p) * target.table + p * local.table
    return Behavior(target.parties, target.settings_per_party, mixed)


def _validated(target: Behavior) -> Behavior:
    defect = no_signaling_defect(target)
    if defect > 1e-9:
        raise ValueError(
            f"target behavior signals (marginal defect {defect:.3e}); "
            "its party marginals are not well defined"
        )
    return target


@dataclass(frozen=True, eq=False)
class RunSample:
    """Columnar sample: trial t used setting row schedule[t % len(schedule)].

    ``behavior`` is the model's effective behavior, which the sample's
    predictions come from: for a mixture the p-weighted one, otherwise
    the one every trial is drawn from.  A trial's coordination is
    ``map_local`` when its mixture branch is local, else ``map_nonlocal``.
    """

    parties: int
    pairs: tuple[tuple[int, int], ...]
    schedule: np.ndarray  # (rows, parties) int16
    codes: np.ndarray  # (trials,) uint8, bit parties-1-q set when party q saw -1
    behavior: Behavior
    map_nonlocal: tuple[str, ...]
    map_local: tuple[str, ...]
    branch_local: np.ndarray | None  # bool per trial for mixtures, else None

    def __len__(self) -> int:
        return self.codes.shape[0]

    def empirical_correlator(self, settings: Sequence[int]) -> tuple[float, float, int]:
        """Mean outcome product, its standard error, and the trial count.

        The trials of a setting are those of the schedule rows equal to
        it, in trial order (a strided slice when one row matches).
        """
        want = np.asarray(settings, dtype=self.schedule.dtype)
        rows = np.flatnonzero(np.all(self.schedule == want, axis=1))
        n_rows = self.schedule.shape[0]
        if rows.size == 1:
            selected = self.codes[rows[0] :: n_rows]
        else:
            selected = self.codes[np.isin(np.arange(len(self)) % n_rows, rows)]
        count = selected.shape[0]
        if count == 0:
            return 0.0, math.inf, 0
        # The outcome product of a code is -1 exactly when it has an odd number of set bits.
        signs = np.array([1.0 - 2.0 * (bin(c).count("1") & 1) for c in range(1 << self.parties)])
        prods = signs[selected]
        mean = float(prods.mean())
        if count < 2:
            return mean, math.inf, count
        se = float(prods.std(ddof=1) / math.sqrt(count))
        return mean, se, count

    def _row_keys(self, lo: int, hi: int) -> np.ndarray:
        """Key of trials lo..hi-1: (schedule row, outcome code, local branch).

        The key is ((row << parties) | code) << 1 | local.
        """
        trials = np.arange(lo, hi, dtype=np.int64)
        keys = (((trials % self.schedule.shape[0]) << self.parties) | self.codes[lo:hi]) << 1
        if self.branch_local is not None:
            keys |= self.branch_local[lo:hi]
        return keys

    def _key_row(self, key: int) -> tuple[list[int], list[int], dict[tuple[int, int], str]]:
        """Settings, outcomes and coordination of the rows with this key."""
        code = (key >> 1) & ((1 << self.parties) - 1)
        settings = [int(s) for s in self.schedule[key >> (self.parties + 1)]]
        outcomes = [-1 if code >> (self.parties - 1 - q) & 1 else 1 for q in range(self.parties)]
        states = self.map_local if key & 1 else self.map_nonlocal
        return settings, outcomes, dict(zip(self.pairs, states))


def _block_local_mask(trial_indices: np.ndarray, p: float, block_length: int) -> np.ndarray:
    """Deterministic switching: block j is local iff the running tally of
    floor((j+1)p) advances, giving long-run local fraction p."""
    blocks = trial_indices // block_length
    return np.floor((blocks + 1) * p) - np.floor(blocks * p) >= 1.0


def sample_runs(
    model: ModelConfig,
    g: Geometry,
    target: Behavior,
    schedule: Sequence[Sequence[int]],
    trials: int,
    seed: int,
    workers: int = 1,
) -> RunSample:
    """Draw i.i.d. trials from the model's effective behavior.

    Trial t uses schedule[t % len(schedule)] as its setting tuple.  For
    mixtures, each trial is local with probability p (or per the block
    schedule) and quantum otherwise.  Output is deterministic given
    (seed, trials, schedule) and independent of ``workers``: trials are
    partitioned into fixed chunks of 2**16, chunk j draws from a child
    generator spawned as SeedSequence(seed, spawn_key=(j,)), and inside
    a chunk the branch coins are drawn before the outcome variates.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    sched = np.asarray([[int(s) for s in row] for row in schedule], dtype=np.int16)
    if sched.ndim != 2 or sched.shape[0] == 0 or sched.shape[1] != target.parties:
        raise ValueError("schedule must be a non-empty list of full setting tuples")
    for q in range(target.parties):
        if sched[:, q].min() < 0 or sched[:, q].max() >= target.settings_per_party[q]:
            raise ValueError(f"schedule settings out of range for party {q}")

    pairs = g.pairs()
    if model.kind == "mixture":
        behavior_local = effective_behavior(ModelConfig(kind="local"), g, target)
        behavior = _mixed(model.p, target, behavior_local)
        branches = (target, behavior_local)
        map_nl = tuple(ON for _ in pairs)
        map_loc = tuple(OFF for _ in pairs)
    else:
        behavior = effective_behavior(model, g, target)
        branches = (behavior,)
        cmap = coordination_map(model, g)
        map_nl = map_loc = tuple(cmap[p] for p in pairs)

    # One cumulative row per (branch, flat setting index), the local rows
    # after the quantum ones.  The tables are nonnegative, so each row is
    # nondecreasing and the number of its entries <= u is
    # searchsorted(row, u, side="right").  The last column is left out: a
    # u at or past it takes the last code.
    n_settings = int(np.prod(target.settings_per_party))
    cum = np.concatenate(
        [b.table.reshape(n_settings, -1).cumsum(axis=1)[:, :-1] for b in branches]
    )
    flat_sched = np.ravel_multi_index(tuple(sched.T), target.settings_per_party)

    def sample_chunk(j: int) -> tuple[np.ndarray, np.ndarray | None]:
        lo = j * CHUNK
        hi = min(trials, lo + CHUNK)
        idx = np.arange(lo, hi, dtype=np.int64)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,)))
        local_mask: np.ndarray | None = None
        if model.kind == "mixture":
            if model.schedule == "coin":
                local_mask = rng.random(idx.size) < model.p
            else:
                local_mask = _block_local_mask(idx, model.p, model.block_length)
        u = rng.random(idx.size)
        groups = flat_sched[idx % sched.shape[0]]
        if local_mask is not None:
            groups = groups + local_mask * n_settings
        codes = (cum[groups] <= u[:, None]).sum(axis=1, dtype=np.uint8)
        return codes, local_mask

    n_chunks = (trials + CHUNK - 1) // CHUNK
    if workers > 1 and n_chunks > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(sample_chunk, range(n_chunks)))
    else:
        results = [sample_chunk(j) for j in range(n_chunks)]

    codes = np.concatenate([r[0] for r in results])
    branch_local = (
        np.concatenate([r[1] for r in results]) if model.kind == "mixture" else None
    )
    return RunSample(
        parties=target.parties,
        pairs=pairs,
        schedule=sched,
        codes=codes,
        behavior=behavior,
        map_nonlocal=map_nl,
        map_local=map_loc,
        branch_local=branch_local,
    )


RUN_CSV_HEADER = "trial,x,y,z,a,b,c,coord_ab,coord_ac,coord_bc\n"

_PAIR_COLUMNS = ((0, 1), (0, 2), (1, 2))

#: Rows formatted and written per block; bounds the writers' memory.
WRITE_BLOCK = 8192


def pair_key(pair: tuple[int, int]) -> str:
    """The name of a device pair in JSON outputs, e.g. "0-1"."""
    return f"{pair[0]}-{pair[1]}"


def _row_blocks(sample: RunSample, template: Callable[[int], str]) -> Iterator[str]:
    """The text of every row, WRITE_BLOCK rows at a time.

    A row is template(key) % trial, the template holding one %d for the
    trial index; each template is built once, for the keys that occur.
    """
    templates: dict[int, str] = {}
    for lo in range(0, len(sample), WRITE_BLOCK):
        hi = min(len(sample), lo + WRITE_BLOCK)
        keys, inverse = np.unique(sample._row_keys(lo, hi), return_inverse=True)
        block = []
        for key in keys.tolist():
            if key not in templates:
                templates[key] = template(key)
            block.append(templates[key])
        yield "".join(map(str.__mod__, map(block.__getitem__, inverse.tolist()), range(lo, hi)))


def write_run_csv(sample: RunSample, path: str) -> None:
    """Run CSV: header, then one row per trial; parties beyond the sample blank."""
    if sample.parties > 3:
        raise ValueError("run CSV covers at most three parties")
    blank = [""] * (3 - sample.parties)

    def template(key: int) -> str:
        settings, outcomes, coordination = sample._key_row(key)
        cells = ["%d", *map(str, settings), *blank, *map(str, outcomes), *blank]
        cells += [coordination.get(pair, "") for pair in _PAIR_COLUMNS]
        return ",".join(cells) + "\n"

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(RUN_CSV_HEADER)
        for text in _row_blocks(sample, template):
            fh.write(text)


def write_run_json(sample: RunSample, path: str) -> None:
    """runs.json: the records of every trial as json.dumps(sort_keys=True,
    indent=2) lays them out, followed by a newline."""

    def template(key: int) -> str:
        settings, outcomes, coordination = sample._key_row(key)
        record = {
            "trial": 0,
            "settings": settings,
            "outcomes": outcomes,
            "coordination": {pair_key(p): s for p, s in coordination.items()},
        }
        head, tail = json.dumps(record, sort_keys=True, indent=2).split('"trial": 0')
        text = head + '"trial": %d' + tail
        # Records sit two levels deep; each starts with the separator that
        # the first record of the file drops.
        return ",\n    " + text.replace("\n", "\n    ")

    blocks = _row_blocks(sample, template)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('{\n  "records": [\n' + next(blocks)[2:])
        for text in blocks:
            fh.write(text)
        fh.write('\n  ],\n  "schema": "bellsim-runs-1"\n}\n')
