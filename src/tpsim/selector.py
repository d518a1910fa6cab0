"""Adversarial choice of hardware traces, constrained to visible state.

A step's abstract semantics fixes which addresses may be touched; the concrete
trace the hardware performs is chosen here.  The selector may pick any order,
repetition or subset of the permitted accesses, but its choice is a pure
function of the touched set, the chooser's visible projection, the address
map, a length budget and a seed.  It cannot see hidden cache sets, so two
states that agree on the visible projection always yield the same trace.
That restriction is what lets the confidentiality argument go through; the
"peeking" variant below deliberately breaks it and exists to be caught.
"""

from __future__ import annotations

import functools
import hashlib
import random
from typing import Iterable

from .core import AddressMap, CacheGeometry, DomainPolicy, set_index_of
from .microarch import (
    CacheSet,
    Entry,
    MicroArchState,
    Read,
    Trace,
    TraceOp,
    VisibleProjection,
    Write,
    visible_set_indices,
)


def _digest(parts: Iterable[object]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return h.hexdigest()


def projection_digest(vp: VisibleProjection) -> str:
    return _digest([vp.role, vp.flushable, vp.visible_sets, vp.clock])


def full_state_digest(state: MicroArchState) -> str:
    """Digest over the whole state, hidden sets included.  Only the peeking
    selector variant uses this; everything legitimate uses the projection."""
    return _digest([state.flushable, state.sets, state.clock])


def _ta_lines(ta: Iterable[int], amap: AddressMap, line_size: int) -> list[int]:
    lines = []
    for vpage in sorted(set(ta)):
        for off in range(0, amap.page_size, line_size):
            lines.append(vpage + off)
    return lines


def select_trace(
    ta: Iterable[int],
    visible: VisibleProjection,
    amap: AddressMap,
    budget: int,
    seed: object,
    *,
    line_size: int = 64,
    extra_entropy: str = "",
) -> Trace:
    """Choose a trace of reads and writes over the touched set's lines, at
    most budget long.

    The result depends on exactly (ta, visible, amap, budget, seed): the
    random source is the seed combined with a digest of the visible
    projection, so hidden state cannot influence the choice.
    """
    if budget < 1:
        raise ValueError(f"trace budget must be >= 1, got {budget}")
    ta_pages = sorted(set(ta))
    if not ta_pages:
        return ()

    key = ":".join([
        "select", str(seed), projection_digest(visible),
        _digest([ta_pages, amap.digest_key(), budget]), extra_entropy,
    ])
    rng = random.Random(key)

    lines = _ta_lines(ta_pages, amap, line_size)
    mode = rng.random()
    if 0.90 <= mode < 0.95:
        k = rng.randint(1, min(len(lines), budget))
        chosen = rng.sample(lines, k)
    else:
        # Permutation of every permitted line, possibly truncated by budget;
        # the top 5% of modes then pad it with repeats.
        chosen = list(lines)
        rng.shuffle(chosen)
        chosen = chosen[:budget]
        while mode >= 0.95 and len(chosen) < budget and rng.random() < 0.7:
            chosen.append(rng.choice(lines))

    ops: list[TraceOp] = []
    for v in chosen:
        p = amap.translate(v)
        if rng.random() < 0.25:
            ops.append(Write(v, p))
        else:
            ops.append(Read(v, p))
    return tuple(ops)


def select_trace_peeking(
    ta: Iterable[int],
    state: MicroArchState,
    visible: VisibleProjection,
    amap: AddressMap,
    budget: int,
    seed: object,
    *,
    line_size: int = 64,
) -> Trace:
    """Mutation of select_trace that also keys on hidden state.

    Identical interface and output space, but the random source additionally
    digests the full microarchitectural state.  Two states with the same
    visible projection but different hidden sets now produce different traces,
    which the dependency property suite must detect.
    """
    return select_trace(
        ta, visible, amap, budget, seed,
        line_size=line_size,
        extra_entropy=full_state_digest(state),
    )


PoolPlan = tuple[tuple[int, ...], tuple[int, ...] | None]


def pool_plans(universe: Iterable[int], g: CacheGeometry, sets: Iterable[int]) -> dict[int, PoolPlan]:
    """What draw_ways needs for each of sets: its pool among the universe's
    lines, and the widths of the draws Random.sample makes to take up to
    num_ways of it from a list (None over 21 lines: then it may use a set)."""
    pools: dict[int, list[int]] = {i: [] for i in sets}
    for line in sorted(universe):
        if (i := set_index_of(line, g)) in pools:
            pools[i].append(g.line_of(line))
    return {i: (tuple(p), None if len(p) > 21 else
                tuple((len(p) - k).bit_length() for k in range(min(len(p), g.num_ways))))
            for i, p in pools.items()}


def draw_ways(rng: random.Random, tags: tuple[int, ...], widths: tuple[int, ...] | None,
              ways: int, max_level: int, shuffle: bool = False) -> tuple[Entry | None, ...]:
    """A random cache set's ways, drawn word for word as this draws them:
        out = [(t, rng.randint(1, max_level))
               for t in rng.sample(tags, min(rng.randint(0, ways), len(tags)))]
        out += [None] * (ways - len(out)); if shuffle: rng.shuffle(out)
    but by rng.getrandbits alone, each loop a Random._randbelow; see pool_plans."""
    grb, w = rng.getrandbits, (ways + 1).bit_length()
    while (n := grb(w)) > ways:
        pass
    k = min(n, len(tags))
    if widths is None:
        picked = rng.sample(tags, k)
    else:
        pool, size, picked = list(tags), len(tags), []
        for i in range(k):
            while (j := grb(widths[i])) >= size - i:
                pass
            picked.append(pool[j])
            pool[j] = pool[size - i - 1]
    w = max_level.bit_length()
    out: list[Entry | None] = [None] * ways
    for i, t in enumerate(picked):
        while (level := grb(w)) >= max_level:
            pass
        out[i] = (t, level + 1)
    for i in range(ways - 1, 0, -1) if shuffle else ():
        w = (i + 1).bit_length()
        while (j := grb(w)) > i:
            pass
        out[i], out[j] = out[j], out[i]
    return tuple(out)


@functools.lru_cache(maxsize=64)
def _perturb_plan(observer: int, policy: DomainPolicy, g: CacheGeometry,
                  universe: frozenset[int]) -> tuple[tuple[int, PoolPlan], ...]:
    """pool_plans for each set the executing observer cannot see, once per policy."""
    hidden = set(range(g.num_sets)).difference(visible_set_indices(observer, policy, g, "executing"))
    return tuple(pool_plans(universe, g, sorted(hidden)).items())


def perturb_invisible(
    state: MicroArchState,
    observer: int,
    policy: DomainPolicy,
    g: CacheGeometry,
    universe_lines: Iterable[int],
    seed: object,
    max_level: int = 2,
) -> MicroArchState:
    """Randomize every cache set the executing observer cannot see.

    Test helper for the dependency restriction: the returned state has the
    same visible projection as the input for that observer, with all other
    sets re-rolled.  With a single-domain policy covering every colour there
    is nothing invisible and the state comes back unchanged.
    """
    plan = _perturb_plan(observer, policy, g, frozenset(universe_lines))
    if not plan:
        return state
    rng = random.Random(f"perturb:{seed}")
    new_sets = list(state.sets)
    for idx, (tags, widths) in plan:
        ways = draw_ways(rng, tags, widths, g.num_ways, max_level) if tags else (None,) * g.num_ways
        new_sets[idx] = CacheSet(ways, rng.getrandbits(64))
    return MicroArchState(state.flushable, tuple(new_sets), state.clock)
