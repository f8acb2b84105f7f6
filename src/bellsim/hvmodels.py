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


def _cycle(n: int, length: int) -> np.ndarray:
    """0, 1, ..., n - 1, 0, 1, ... up to ``length`` int64 entries.

    Tiling whole periods is about 20 times faster than an int64 modulo.
    """
    return np.tile(np.arange(n, dtype=np.int64), -(-length // n))[:length]


@dataclass(frozen=True, eq=False)
class RunSample:
    """Columnar sample: trial t used setting row schedule[t % len(schedule)],
    the schedule being every setting tuple of ``behavior`` in C order, so
    the trials of one setting tuple are one strided slice of ``codes``.

    A trial's code is its whole key below the schedule row: bit
    parties-1-q is set when party q saw -1, and a mixture sets bit
    ``parties`` when the trial's branch is local.  ``maps`` holds one
    coordination map per branch, indexed by code >> parties: the model's
    map, or for a mixture the all-ON map and then the all-OFF one.
    ``behavior`` is the model's effective behavior, which the sample's
    predictions come from: for a mixture the p-weighted one, otherwise
    the one every trial is drawn from.
    """

    parties: int
    pairs: tuple[tuple[int, int], ...]
    schedule: np.ndarray  # (rows, parties) int16
    codes: np.ndarray  # (trials,) uint8: outcome bits, then a mixture's branch bit
    behavior: Behavior
    maps: tuple[tuple[str, ...], ...]  # one coordination map per branch

    def __len__(self) -> int:
        return self.codes.shape[0]

    @property
    def code_bits(self) -> int:
        """Bits of a code: one per party, and a mixture's branch bit."""
        return self.parties + len(self.maps) - 1

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
        # Codes enumerate outcome tuples in C order, as outcome_signs does,
        # once per branch (concatenate is faster than np.tile here).
        signs = np.concatenate([outcome_signs(self.parties).ravel()] * len(self.maps))
        prods = signs[selected]
        mean = float(prods.mean())
        if count < 2:
            return mean, math.inf, count
        se = float(prods.std(ddof=1) / math.sqrt(count))
        return mean, se, count

    def _row_keys(self, bounds: Sequence[int]) -> Iterator[np.ndarray]:
        """Keys of the trials of each block bounds[k]..bounds[k+1]-1:
        (row << code_bits) | code, with row the trial's schedule row.

        Trial t's row is t % rows; a block's row bits are a slice of one
        cycle of them, built once and long enough for the longest block.
        """
        n_rows = self.schedule.shape[0]
        longest = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
        cycle = _cycle(n_rows, n_rows + longest - 1) << self.code_bits
        for lo, hi in zip(bounds, bounds[1:]):
            start = lo % n_rows
            yield cycle[start : start + hi - lo] | self.codes[lo:hi]

    def _key_row(self, key: int) -> tuple[list[int], list[int], dict[tuple[int, int], str]]:
        """Settings, outcomes and coordination of the rows with this key."""
        code = key & ((1 << self.code_bits) - 1)
        settings = [int(s) for s in self.schedule[key >> self.code_bits]]
        outcomes = [-1 if code >> (self.parties - 1 - q) & 1 else 1 for q in range(self.parties)]
        return settings, outcomes, dict(zip(self.pairs, self.maps[code >> self.parties]))


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
    trial is local with probability p and quantum otherwise, and its code
    carries the branch in bit ``parties``.  Output is deterministic given
    (target, seed, trials) and independent of ``workers``: trials are
    partitioned into fixed chunks of 2**16, chunk j draws from a child
    generator spawned as SeedSequence(seed, spawn_key=(j,)), and inside a
    chunk the branch coins are drawn before the outcome variates.  Each
    chunk writes its own slice of the one codes array.  ``workers`` caps
    the sampling threads, which never outnumber the chunks or the CPUs.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    pairs = g.pairs()
    if model.kind == "mixture":
        behavior_local = effective_behavior(ModelConfig(kind="local"), g, target)
        behavior = _mixed(model.p, target, behavior_local)
        branches = (target, behavior_local)
        maps = (tuple(ON for _ in pairs), tuple(OFF for _ in pairs))
    else:
        behavior = effective_behavior(model, g, target)
        branches = (behavior,)
        cmap = coordination_map(model, g)
        maps = (tuple(cmap[p] for p in pairs),)

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
    cycle = _cycle(n_settings, n_settings + min(trials, CHUNK) - 1)
    codes = np.zeros(trials, dtype=np.uint8)

    def sample_chunk(j: int) -> None:
        lo = j * CHUNK
        out = codes[lo : lo + CHUNK]
        n = out.shape[0]
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(j,)))
        start = lo % n_settings
        groups = cycle[start : start + n]
        if model.kind == "mixture":
            local = rng.random(n) < model.p
            groups = groups + local * n_settings
            out |= local.view(np.uint8) << target.parties
        u = rng.random(n)
        for column in cum:
            out += column.take(groups) <= u

    n_chunks = (trials + CHUNK - 1) // CHUNK
    # One thread per chunk at most, and no more than the machine runs.
    threads = min(workers, n_chunks, os.cpu_count() or 1)
    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(sample_chunk, range(n_chunks)))
    else:
        for j in range(n_chunks):
            sample_chunk(j)

    schedule = np.indices(target.settings_per_party, dtype=np.int16).reshape(target.parties, -1)
    return RunSample(
        parties=target.parties,
        pairs=pairs,
        schedule=schedule.T,
        codes=codes,
        behavior=behavior,
        maps=maps,
    )


RUN_CSV_HEADER = "trial,x,y,z,a,b,c,coord_ab,coord_ac,coord_bc\n"

_PAIR_COLUMNS = ((0, 1), (0, 2), (1, 2))

#: Padded row bytes gathered per block; bounds the writers' memory.
WRITE_BUDGET = 1 << 18


def pair_key(pair: tuple[int, int]) -> str:
    """The name of a device pair in JSON outputs, e.g. "0-1"."""
    return f"{pair[0]}-{pair[1]}"


@functools.cache
def _digit_table() -> np.ndarray:
    """(1000, 3) uint8: row g holds the ASCII digits of g, zero-padded to three."""
    g = np.arange(1000)
    table = (np.stack([g // 100, g // 10 % 10, g % 10], axis=1) + ord("0")).astype(np.uint8)
    table.flags.writeable = False  # every caller shares it
    return table


def _row_blocks(sample: RunSample, template: Callable[[int], str]) -> Iterator[memoryview]:
    """The bytes of every row, at most WRITE_BUDGET bytes at a time.

    A row is template(key) % trial, the template holding one %d for the
    trial index, and a trial's key is its schedule row above its code
    (RunSample._row_keys).  Once per run, each key's template is split
    around its %d into head and tail bytes, laid out in one uint8 table
    with a row per key: the head right-aligned against a digit slot as
    wide as the largest trial index, the tail left-aligned after it.
    Either every head or every tail must have one length, so that a
    row's padding lies on one side only; otherwise ValueError.

    Blocks end at powers of ten.  Each gathers its rows by key from the
    table with a slot as wide as its trials' digits, writes the digits
    (the last three as one 3-byte cell per row, each higher group once
    per thousand trials), and copies the rows end to end into one reused
    buffer, of which it yields a view: a block stays valid until the next
    one is requested.  Row i starts at the sum of the text lengths before
    it.  With W the row width and m the shortest text, the copy is one
    scatter of the W - m columns that hold each row's padding, then one
    of the m columns on the other side, each through an overlapping
    strided view of the buffer.  Rows lie at least m apart, so while
    W <= 2m, as in both writers, the writes of one pass never overlap,
    and the second pass overwrites the padding that the first spilled
    into the next row.  A wider spread takes more passes of at most m
    columns, the padded side first.  One scatter of whole rows would be
    faster, but would rely on numpy writing fancy indices in order, which
    it does not promise; one scatter per distinct text length measured no
    faster than bytes.replace (README has the figures).
    """
    n_keys = len(sample.schedule) << sample.code_bits
    parts = [template(key).encode().split(b"%d") for key in range(n_keys)]
    heads = np.array([len(head) for head, _ in parts], np.int64)
    tails = np.array([len(tail) for _, tail in parts], np.int64)
    pad_left = heads.min() < heads.max()
    if pad_left and tails.min() < tails.max():
        raise ValueError("row templates vary in length both before and after the %d")
    slot = int(heads.max())
    widest = len(str(len(sample) - 1))
    table = np.zeros((len(parts), slot + widest + int(tails.max())), np.uint8)
    for k, (head, tail) in enumerate(parts):
        table[k, slot - len(head) : slot] = np.frombuffer(head, np.uint8)
        table[k, slot + widest : slot + widest + len(tail)] = np.frombuffer(tail, np.uint8)
    sizes = heads + tails
    block = max(1, WRITE_BUDGET // table.shape[1])
    bounds = sorted({*range(0, len(sample), block), *(10**k for k in range(1, widest)), len(sample)})
    longest = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    # Row t % 1000 holds trial t's last three digits, a block's in one slice.
    cycle = np.tile(_digit_table(), (-(-(1000 + longest) // 1000), 1))
    # Blocks share both buffers: faulting in fresh pages costs more than
    # the copies.  Rows land one row width into ``out``: a left-padded
    # row's first column stays at or past 0, the last row's padding inside.
    gathered = np.empty(longest * table.shape[1], np.uint8)
    out = np.empty((longest + 2) * table.shape[1], np.uint8)
    n_digits = 0
    for lo, hi, keys in zip(bounds, bounds[1:], sample._row_keys(bounds)):
        if len(str(hi - 1)) != n_digits:
            n_digits = len(str(hi - 1))
            narrowed = np.delete(table, np.s_[slot + n_digits : slot + widest], axis=1)
            width = narrowed.shape[1]
            grid = gathered[: longest * width].reshape(longest, width)
            low = min(n_digits, 3)
            last = cycle[:, 3 - low :].view(f"V{low}")[:, 0]
            lengths = sizes + n_digits
            m = int(lengths.min())
            # Passes of at most m columns, the padded side's first.
            cuts = [(c, min(width, c + m)) for c in reversed(range(0, width, m))]
            if pad_left:
                cuts = [(width - c1, width - c0) for c0, c1 in cuts]
            # Cell j of a pass's view holds the pass's columns of a row placed at j.
            passes = [
                (c0, c1, np.ndarray((out.size - c1 + 1,), f"V{c1 - c0}", out, c0, (1,)))
                for c0, c1 in cuts
            ]
        rows = grid[: hi - lo]
        # Every key is in range; mode="clip" lets take write rows unbuffered.
        narrowed.take(keys, axis=0, out=rows, mode="clip")
        # The last three digits are one cell per row; each higher group is
        # one slice per thousand trials.
        end = slot + n_digits
        rows[:, end - low : end].view(last.dtype)[:, 0] = last[lo % 1000 : lo % 1000 + hi - lo]
        if n_digits > 3:
            for k in range(lo // 1000, (hi - 1) // 1000 + 1):
                group = np.frombuffer(b"%d" % k, np.uint8)
                rows[max(0, 1000 * k - lo) : 1000 * (k + 1) - lo, slot : end - 3] = group
        row_lengths = lengths.take(keys)
        ends = row_lengths.cumsum()
        base = ends if pad_left else ends - row_lengths + width
        for c0, c1, cells in passes:
            cells[base] = rows[:, c0:c1].view(cells.dtype)[:, 0]
        yield out[width : width + ends[-1]].data


def write_run_csv(sample: RunSample, path: str) -> None:
    """Run CSV: header, then one row per trial; parties beyond the sample blank.

    The rows are _row_blocks' blocks of bytes, written as they come.
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

    The records are _row_blocks' blocks of bytes, written as they come
    between the document's opening and closing bytes.
    """
    rendered: dict[str, str] = {}  # each distinct field value, one level deep

    def template(key: int) -> str:
        settings, outcomes, coordination = sample._key_row(key)
        coordination = {pair_key(p): s for p, s in coordination.items()}
        fields = ("coordination", coordination), ("outcomes", outcomes), ("settings", settings)
        text = "{"
        for name, value in fields:  # sort_keys order, then "trial"
            if repr(value) not in rendered:
                nested = json.dumps(value, sort_keys=True, indent=2)
                rendered[repr(value)] = nested.replace("\n", "\n  ")
            text += f'\n  "{name}": {rendered[repr(value)]},'
        text += '\n  "trial": %d\n}'
        # Records sit two levels deep; each starts with the separator that
        # the first record of the file drops.
        return ",\n    " + text.replace("\n", "\n    ")

    blocks = _row_blocks(sample, template)
    with create_output(path) as fh:
        fh.write(b'{\n  "records": [\n')
        fh.write(next(blocks)[2:])
        fh.writelines(blocks)
        fh.write(b'\n  ],\n  "schema": "bellsim-runs-1"\n}\n')
