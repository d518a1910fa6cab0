"""Adversarial choice of hardware traces, constrained to visible state.

A step's abstract semantics fixes which addresses may be touched; the concrete
trace the hardware performs is chosen here.  The selector may pick any order,
repetition or subset of the permitted accesses, but its choice is a pure
function of the touched set, the chooser's visible projection, the address
map, a length budget and a seed.  It cannot see hidden cache sets, so two
states that agree on the visible projection always yield the same trace.
That restriction is what lets the confidentiality argument go through; the
"peeking" variant below deliberately breaks it and exists to be caught.

draw_sets draws the random cache sets that the property checks start from,
and that perturb_invisible re-rolls where a chooser cannot see.
"""

from __future__ import annotations

import functools
import hashlib
import random
import struct
from itertools import repeat
from math import comb, perm
from operator import and_
from typing import Iterable, NamedTuple

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


# --- random cache sets -------------------------------------------------------

_MEMO_CAP = 256


class _Pool(dict):
    """Ways tuples of distinct tags, by key.  Key k holds min(k % (ways + 1),
    len(tags)) tags at levels 1..levels in some ways, numbered by k // (ways + 1);
    mods[n] is ways + 1 times the count for n, so r % mods[r % (ways + 1)] of a
    uniform r is uniform over n and then over the tuples.  A missing key is
    decoded; the first _MEMO_CAP are kept, and the entry tuples are shared."""

    def __init__(self, tags: tuple[int, ...], ways: int, levels: int):
        self.ways, self.levels = ways, levels
        self.entries = tuple(tuple((t, level) for level in range(1, levels + 1)) for t in tags)
        self.mods = tuple((ways + 1) * comb(ways, k) * perm(len(tags), k) * levels ** k
                          for k in (min(n, len(tags)) for n in range(ways + 1)))

    def __missing__(self, key: int) -> tuple[Entry | None, ...]:
        k = min(key % (self.ways + 1), len(self.entries))
        j, c = divmod(key // (self.ways + 1), comb(self.ways, k))
        left, out, x = list(self.entries), [None] * self.ways, self.ways
        for i in range(k, 0, -1):   # the ways of combination c, highest first
            x -= 1
            while comb(x, i) > c:
                x -= 1
            c -= comb(x, i)
            j, level = divmod(j, self.levels)
            j, t = divmod(j, len(left))
            out[x] = left.pop(t)[level]
        ways = tuple(out)
        return self.setdefault(key, ways) if len(self) < _MEMO_CAP else ways


_pool = functools.lru_cache(maxsize=256)(_Pool)


class SetDraw(NamedTuple):
    """How draw_sets draws a run of cache sets: one pool per set, the number
    of ways, the bytes drawn per set and the width of the metadata."""
    pools: tuple[_Pool, ...]
    ways: int
    width: int
    meta_bits: int


def set_draw(universe: Iterable[int], g: CacheGeometry, sets: Iterable[int], max_level: int,
             replacement: str) -> SetDraw:
    """The SetDraw for the given sets, each drawn from the universe's lines in it:
    metadata of max(ways - 1, 1) bits under PLRU and 64 under adversarial."""
    pools: dict[int, list[int]] = {i: [] for i in sets}
    for line in sorted({g.line_of(a) for a in universe}):
        if (i := set_index_of(line, g)) in pools:
            pools[i].append(line)
    drawn = tuple(_pool(tuple(p), g.num_ways, max_level) for p in pools.values())
    meta_bits = 64 if replacement == "adversarial" else max(g.num_ways - 1, 1)
    # 32 bits beyond the largest modulus keep each key's bias below 2^-32.
    top = max((m for p in drawn for m in p.mods), default=1)
    return SetDraw(drawn, g.num_ways, (meta_bits + top.bit_length() + 39) // 8, meta_bits)


def draw_sets(rng: random.Random, draw: SetDraw, tail: str = "") -> tuple[list[CacheSet], tuple]:
    """A random cache set for each of draw's pools, then the fields of the struct
    format tail, all from one rng.getrandbits.  The number of lines a set asks
    for is uniform over 0..ways; it holds that many distinct lines of its pool
    (or all of them) at uniform levels in uniformly chosen ways, and its field's
    low meta_bits are its metadata."""
    fmt = f"<{f'{draw.width}s' * len(draw.pools)}{tail}"
    size = struct.calcsize(fmt)
    fields = struct.unpack(fmt, rng.getrandbits(8 * size).to_bytes(size, "little"))
    n, n1, shift, mask = len(draw.pools), draw.ways + 1, draw.meta_bits, (1 << draw.meta_bits) - 1
    values = list(map(int.from_bytes, fields[:n], repeat("little")))
    ways = [pool[(r := v >> shift) % pool.mods[r % n1]] for pool, v in zip(draw.pools, values)]
    metas = map(and_, values, repeat(mask))
    # CacheSet._make without its length check: a fifth of a state's cost.
    return list(map(tuple.__new__, repeat(CacheSet), zip(ways, metas))), fields[n:]


@functools.lru_cache(maxsize=64)
def _perturb_plan(observer: int, policy: DomainPolicy, g: CacheGeometry, universe: frozenset[int],
                  max_level: int) -> tuple[tuple[int, ...], SetDraw]:
    """The sets the executing observer cannot see, and their SetDraw, once per policy."""
    hidden = sorted(set(range(g.num_sets)).difference(
        visible_set_indices(observer, policy, g, "executing")))
    return tuple(hidden), set_draw(universe, g, hidden, max_level, policy.replacement)


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
    sets re-rolled by draw_sets.  With a single-domain policy covering every
    colour there is nothing invisible and the state comes back unchanged.
    """
    hidden, draw = _perturb_plan(observer, policy, g, frozenset(universe_lines), max_level)
    if not hidden:
        return state
    new_sets = list(state.sets)
    for idx, cset in zip(hidden, draw_sets(random.Random(f"perturb:{seed}"), draw)[0]):
        new_sets[idx] = cset
    return state._replace(sets=tuple(new_sets))
