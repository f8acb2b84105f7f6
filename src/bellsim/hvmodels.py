"""Hidden-influence model layer: the models' probabilities, with numpy.

The spacetime module decides, per device pair, whether a ModelConfig on
a Geometry keeps nonlocal coordination ON or OFF (pair_timing and
coordination_map).  Here effective_behavior turns that map into a
probability table: ON parts reproduce the target, OFF parts are replaced
by a declared local surrogate, and a mixture weighs the quantum (all ON)
and local (all OFF) tables by p.  sample_runs draws a reproducible
columnar sample from that table, switching a mixture's branch per trial,
and carries the table and the coordination maps with it; write_run_csv
and write_run_json write it out.

The localized surrogate choices (documented per function) are declared
conventions, not claims of uniqueness; surrogate-independent conclusions
come from the feasibility analysis in the signaling module.
"""

from __future__ import annotations

import concurrent.futures
import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .quantum import Behavior, _setting_index, marginal, no_signaling_defect, outcome_signs
from .scenario import create_output
from .spacetime import OFF, ON, Geometry, ModelConfig, coordination_map, spectator_first

#: Trials per sampling chunk; part of the determinism contract.
CHUNK = 2**16


class UnsupportedConfigurationError(ValueError):
    """The coordination pattern has no expressible surrogate behavior."""


_SETTING_LETTERS = "STUV"
_OUTCOME_LETTERS = "abcd"


def _subscript(subset: tuple[int, ...]) -> str:
    return "".join(_SETTING_LETTERS[q] for q in subset) + "".join(
        _OUTCOME_LETTERS[q] for q in subset
    )


def _product_of_components(target: Behavior, components: list[tuple[int, ...]]) -> np.ndarray:
    # The target is no-signaling: each marginal is read at remote settings 0.
    tables = [marginal(target, comp)[(0,) * (target.parties - len(comp))] for comp in components]
    out = _subscript(tuple(range(target.parties)))
    expr = ",".join(_subscript(comp) for comp in components) + "->" + out
    return np.einsum(expr, *tables)


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
    joint_kp = marginal(target, kp)[0]
    joint_ko = marginal(target, ko)[0]
    p_k = marginal(target, (k,))[0, 0]
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
    """Connected components of the ON pairs, as sorted tuples ordered by
    their lowest party."""
    comp = {q: {q} for q in range(parties)}
    for (i, j), state in cmap.items():
        if state == ON and comp[i] is not comp[j]:
            merged = comp[i] | comp[j]
            comp.update((q, merged) for q in merged)
    return sorted({tuple(sorted(c)) for c in comp.values()})


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
    """Columnar sample: trial t used setting row schedule[t % len(schedule)],
    the schedule being every setting tuple of ``behavior`` in C order, so
    the trials of one setting tuple are one strided slice of ``codes``.

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

        The trials of a setting are one strided slice: every
        len(schedule)-th trial from the setting's flat index.  The
        settings are checked as quantum.correlator checks them.
        """
        spp = self.behavior.settings_per_party
        row = np.ravel_multi_index(_setting_index(self.behavior, settings), spp)
        selected = self.codes[row :: self.schedule.shape[0]]
        count = selected.shape[0]
        if count == 0:
            return 0.0, math.inf, 0
        # Codes enumerate outcome tuples in C order, as outcome_signs does.
        prods = outcome_signs(self.parties).ravel()[selected]
        mean = float(prods.mean())
        if count < 2:
            return mean, math.inf, count
        se = float(prods.std(ddof=1) / math.sqrt(count))
        return mean, se, count

    def _row_keys(self, bounds: Sequence[int]) -> Iterator[np.ndarray]:
        """Keys of the trials of each block bounds[k]..bounds[k+1]-1:
        (schedule row, outcome code, local branch).

        The key is ((row << parties) | code) << 1 | local.  Trial t's row
        is t % rows; a block's row bits are a slice of one cycle of them,
        built once and long enough for the longest block.
        """
        n_rows = self.schedule.shape[0]
        longest = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
        cycle = (np.arange(n_rows + longest - 1, dtype=np.int64) % n_rows) << (self.parties + 1)
        for lo, hi in zip(bounds, bounds[1:]):
            start = lo % n_rows
            keys = cycle[start : start + hi - lo] | (self.codes[lo:hi] << 1)
            if self.branch_local is not None:
                keys |= self.branch_local[lo:hi]
            yield keys

    def _key_row(self, key: int) -> tuple[list[int], list[int], dict[tuple[int, int], str]]:
        """Settings, outcomes and coordination of the rows with this key."""
        code = (key >> 1) & ((1 << self.parties) - 1)
        settings = [int(s) for s in self.schedule[key >> (self.parties + 1)]]
        outcomes = [-1 if code >> (self.parties - 1 - q) & 1 else 1 for q in range(self.parties)]
        states = self.map_local if key & 1 else self.map_nonlocal
        return settings, outcomes, dict(zip(self.pairs, states))


def sample_runs(
    model: ModelConfig,
    g: Geometry,
    target: Behavior,
    trials: int,
    seed: int,
    workers: int = 1,
) -> RunSample:
    """Draw i.i.d. trials from the model's effective behavior.

    The schedule is derived from the target: trial t uses the setting
    tuple of flat index t % n_settings in C order.  For mixtures, each
    trial is local with probability p and quantum otherwise.  Output is
    deterministic given (target, seed, trials) and independent of
    ``workers``: trials are partitioned into fixed chunks of 2**16, chunk
    j draws from a child generator spawned as SeedSequence(seed,
    spawn_key=(j,)), and inside a chunk the branch coins are drawn before
    the outcome variates.  ``workers`` caps the sampling threads, which
    never outnumber the chunks or the CPUs.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

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
    # after the quantum ones, stored by column: cum[k, g] sums the first
    # k + 1 entries of row g.  The tables are nonnegative, so each row is
    # nondecreasing and a trial's code is the number of its row's entries
    # <= u, counted one column at a time.  The last column is left out: a
    # u at or past it takes the last code.
    n_settings = int(np.prod(target.settings_per_party))
    cum = np.ascontiguousarray(
        np.concatenate(
            [b.table.reshape(n_settings, -1).cumsum(axis=1)[:, :-1] for b in branches]
        ).T
    )
    # Trial t's row is t % n_settings; each chunk slices its rows out of
    # one cycle of them, long enough for the longest chunk.
    cycle = np.arange(n_settings + min(trials, CHUNK) - 1) % n_settings

    def sample_chunk(j: int) -> tuple[np.ndarray, np.ndarray | None]:
        lo = j * CHUNK
        n = min(trials, lo + CHUNK) - lo
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,)))
        local_mask = rng.random(n) < model.p if model.kind == "mixture" else None
        u = rng.random(n)
        start = lo % n_settings
        groups = cycle[start : start + n]
        if local_mask is not None:
            groups = groups + local_mask * n_settings
        codes = np.zeros(n, dtype=np.uint8)
        for column in cum:
            codes += column.take(groups) <= u
        return codes, local_mask

    n_chunks = (trials + CHUNK - 1) // CHUNK
    # One thread per chunk at most, and no more than the machine runs.
    threads = min(workers, n_chunks, os.cpu_count() or 1)
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(sample_chunk, range(n_chunks)))
    else:
        results = [sample_chunk(j) for j in range(n_chunks)]

    codes, masks = zip(*results)
    schedule = np.indices(target.settings_per_party, dtype=np.int16).reshape(target.parties, -1)
    return RunSample(
        parties=target.parties,
        pairs=pairs,
        schedule=schedule.T,
        codes=np.concatenate(codes),
        behavior=behavior,
        map_nonlocal=map_nl,
        map_local=map_loc,
        branch_local=None if masks[0] is None else np.concatenate(masks),
    )


RUN_CSV_HEADER = "trial,x,y,z,a,b,c,coord_ab,coord_ac,coord_bc\n"

_PAIR_COLUMNS = ((0, 1), (0, 2), (1, 2))

#: Padded row bytes gathered per block; bounds the writers' memory.
WRITE_BUDGET = 1 << 18


def pair_key(pair: tuple[int, int]) -> str:
    """The name of a device pair in JSON outputs, e.g. "0-1"."""
    return f"{pair[0]}-{pair[1]}"


@functools.cache
def _digit_columns() -> np.ndarray:
    """(3, 1000) uint8: column g holds the ASCII digits of g, zero-padded to three."""
    g = np.arange(1000)
    table = (np.stack([g // 100, g // 10 % 10, g % 10]) + ord("0")).astype(np.uint8)
    table.flags.writeable = False  # every caller shares it
    return table


def _row_blocks(sample: RunSample, template: Callable[[int], str]) -> Iterator[np.ndarray]:
    """The bytes of every row, at most WRITE_BUDGET padded bytes at a time.

    A row is template(key) % trial, the template holding one %d for the
    trial index.  Once per run, each distinct template is split around
    its %d into head and tail bytes, laid out in one uint8 table over the
    whole key space: per key, the head, a digit slot as wide as the
    largest trial index, then the tail, each part NUL-padded to its
    widest.  A block gathers its rows' lines by key, writes the trial
    digits into the slot, three at a time from a 000-999 lookup, and
    drops the padding with one boolean compress (no template holds a
    NUL).  A block holds as many rows as fit in WRITE_BUDGET bytes of the
    padded table (at least one), and blocks also end at powers of ten, so
    all trials of a block have the same number of digits.
    """
    n_keys = len(sample.schedule) << (sample.parties + 1)
    # A key's last bit picks its branch's coordination map; when both
    # branches have one map, the odd keys share the text of the key below.
    step = 1 if sample.map_local != sample.map_nonlocal else 2
    parts = [template(key).encode().split(b"%d") for key in range(0, n_keys, step)]
    slot_start = max(len(head) for head, _ in parts)
    tail_start = slot_start + len(str(len(sample) - 1))
    table = np.zeros((len(parts), tail_start + max(len(tail) for _, tail in parts)), np.uint8)
    for k, (head, tail) in enumerate(parts):
        table[k, : len(head)] = np.frombuffer(head, np.uint8)
        table[k, tail_start : tail_start + len(tail)] = np.frombuffer(tail, np.uint8)
    if step > 1:
        table = table.repeat(step, axis=0)
    digits = _digit_columns()
    powers = (10**k for k in range(1, tail_start - slot_start))
    block = max(1, WRITE_BUDGET // table.shape[1])
    bounds = sorted({*range(0, len(sample), block), *powers, len(sample)})
    for lo, hi, keys in zip(bounds, bounds[1:], sample._row_keys(bounds)):
        rows = table.take(keys, axis=0)
        trials = np.arange(lo, hi)
        # Each step writes the slot columns end-3..end-1 that lie in the slot.
        for end in range(slot_start + len(str(hi - 1)), slot_start, -3):
            rest = trials // 1000
            group = trials - 1000 * rest
            for k in range(max(0, slot_start + 3 - end), 3):
                rows[:, end - 3 + k] = digits[k].take(group)
            trials = rest
        # Rebinding frees the gathered lines before the yield, and the
        # writers' writelines drops each block once written, so only one
        # block's bytes outlive the compress.
        rows = rows[rows != 0]
        yield rows


def write_run_csv(sample: RunSample, path: str) -> None:
    """Run CSV: header, then one row per trial; parties beyond the sample blank.

    The rows are _row_blocks' byte arrays, written as they come.
    """
    if sample.parties > 3:
        raise ValueError("run CSV covers at most three parties")
    blank = [""] * (3 - sample.parties)

    def template(key: int) -> str:
        settings, outcomes, coordination = sample._key_row(key)
        cells = ["%d", *map(str, settings), *blank, *map(str, outcomes), *blank]
        cells += [coordination.get(pair, "") for pair in _PAIR_COLUMNS]
        return ",".join(cells) + "\n"

    with create_output(path) as fh:
        fh.write(RUN_CSV_HEADER.encode())
        fh.writelines(_row_blocks(sample, template))


def write_run_json(sample: RunSample, path: str) -> None:
    """runs.json: the records of every trial as json.dumps(sort_keys=True,
    indent=2) lays them out, followed by a newline.

    The records are _row_blocks' byte arrays, written as they come
    between the document's opening and closing bytes.
    """

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
    with create_output(path) as fh:
        fh.write(b'{\n  "records": [\n')
        fh.write(next(blocks)[2:])
        fh.writelines(blocks)
        fh.write(b'\n  ],\n  "schema": "bellsim-runs-1"\n}\n')
