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

from .core import AddressMap, CacheGeometry, DomainPolicy, TranslationFault, set_index_of
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


def _digest_text(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _digest(parts: Iterable[object]) -> str:
    """Hash of each part's repr, each followed by a 0x1f byte."""
    return _digest_text("".join(f"{part!r}\x1f" for part in parts))


@functools.lru_cache(maxsize=512)
def _visible_set_text(item: tuple[int, CacheSet]) -> str:
    # Named-tuple reprs run in Python; a round of probe runs shows a few
    # hundred distinct sets.  The state records hold ints only, so equal
    # keys have equal reprs.
    return repr(item)


def projection_digest(vp: VisibleProjection) -> str:
    """_digest([vp.role, vp.flushable, vp.visible_sets, vp.clock]), with the
    text of visible_sets put together from cached per-set text."""
    texts = [_visible_set_text(item) for item in vp.visible_sets]
    sets = "(" + ", ".join(texts) + ("," if len(texts) == 1 else "") + ")"
    return _digest_text(f"{vp.role!r}\x1f{vp.flushable!r}\x1f{sets}\x1f{vp.clock!r}\x1f")


def full_state_digest(state: MicroArchState) -> str:
    """Digest over the whole state, hidden sets included.  Only the peeking
    selector variant uses this; everything legitimate uses the projection."""
    return _digest([state.flushable, state.sets, state.clock])


def _shuffle(grb, x: list) -> None:
    """rng.shuffle(x), word for word, by grb = rng.getrandbits alone."""
    for i in range(len(x) - 1, 0, -1):
        w = (i + 1).bit_length()
        while (j := grb(w)) > i:
            pass
        x[i], x[j] = x[j], x[i]


@functools.lru_cache(maxsize=32)
def _footprint_plan(pages: tuple[int, ...], amap: AddressMap, budget: int, line_size: int
                    ) -> tuple[str, tuple[tuple[int, Read | None, Write | None], ...]]:
    """What select_trace needs of a footprint besides the projection and the
    seed: its digest, and each permitted line with its read and its write
    (None and None for a line of an unmapped page)."""
    lines = []
    for v in (vpage + off for vpage in pages for off in range(0, amap.page_size, line_size)):
        try:
            p = amap.translate(v)
        except TranslationFault:
            lines.append((v, None, None))
        else:
            lines.append((v, Read(v, p), Write(v, p)))
    return _digest([list(pages), amap.digest_key(), budget]), tuple(lines)


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
    ta_pages = tuple(sorted(set(ta)))
    if not ta_pages:
        return ()

    footprint, lines = _footprint_plan(ta_pages, amap, budget, line_size)
    key = ":".join([
        "select", str(seed), projection_digest(visible), footprint, extra_entropy,
    ])
    rng = random.Random(key)

    # Each choice below picks lines by position only, so choosing among the
    # plan's entries picks the lines it would pick among bare lines.
    mode = rng.random()
    if 0.90 <= mode < 0.95:
        k = rng.randint(1, min(len(lines), budget))
        chosen = rng.sample(lines, k)
    else:
        # Permutation of every permitted line, possibly truncated by budget;
        # the top 5% of modes then pad it with repeats.
        chosen = list(lines)
        _shuffle(rng.getrandbits, chosen)
        chosen = chosen[:budget]
        while mode >= 0.95 and len(chosen) < budget and rng.random() < 0.7:
            chosen.append(rng.choice(lines))

    ops: list[TraceOp] = []
    for v, read, write in chosen:
        if read is None:
            raise TranslationFault(v)
        ops.append(write if rng.random() < 0.25 else read)
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
    # _shuffle, inline: property states draw hundreds of thousands of sets.
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
    return state._replace(sets=tuple(new_sets))
