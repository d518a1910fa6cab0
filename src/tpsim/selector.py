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
import marshal
import random
import struct
from itertools import chain, repeat
from math import comb, perm
from operator import and_
from typing import Iterable, NamedTuple

from .core import AddressMap, CacheGeometry, DomainPolicy, TranslationFault, set_index_of
from .microarch import (
    CacheSet,
    Entry,
    MicroArchState,
    NondetOracle,
    Read,
    Trace,
    VisibleProjection,
    Write,
    visible_set_indices,
)


def _digest(head: object, sets: Iterable[tuple[int, CacheSet]] = ()) -> str:
    """Hash of marshal's version 2 encoding of head, then of each (index, ways,
    meta) of sets, one set at a time in the order given.  Version 2 records no
    object sharing (3 and later do), so equal ints, Nones, strs and tuples of
    them encode alike however they were built.  Each encoding says where it
    ends, and head carries the number of sets.  The sets go in one list,
    whose encoding is a 5-byte header and then each element's encoding."""
    body = marshal.dumps([(i, ways, meta) for i, (ways, meta) in sets], 2)
    return hashlib.blake2b(marshal.dumps(head, 2) + body[5:], digest_size=16).hexdigest()


def projection_digest(vp: VisibleProjection) -> str:
    """Digest of the projection's values: role, flushable words (or None),
    the number of visible sets and the clock (or None), then each visible set's
    index, ways and metadata in index order."""
    return _digest((vp.role, vp.flushable, len(vp.visible_sets), vp.clock), vp.visible_sets)


def full_state_digest(state: MicroArchState) -> str:
    """Digest over the whole state, hidden sets included, encoded as
    projection_digest encodes a projection.  Only the peeking selector variant
    uses this; everything legitimate uses the projection."""
    return _digest((state.flushable, len(state.sets), state.clock), enumerate(state.sets))


@functools.lru_cache(maxsize=64)
def _page_plan(vpage: int, amap: AddressMap, line_size: int
               ) -> tuple[tuple[int, Read | None, Write | None], ...]:
    """Each line of a page with its read and its write (None and None for a
    line of an unmapped page)."""
    lines = []
    for v in range(vpage, vpage + amap.page_size, line_size):
        try:
            p = amap.translate(v)
        except TranslationFault:
            lines.append((v, None, None))
        else:
            lines.append((v, Read(v, p), Write(v, p)))
    return tuple(lines)


@functools.lru_cache(maxsize=32)
def _footprint_plan(pages: tuple[int, ...], amap: AddressMap, budget: int, line_size: int
                    ) -> tuple[str, tuple[tuple[int, Read | None, Write | None], ...], bool, list]:
    """What select_trace needs of a footprint besides the projection and the
    seed: its digest, its pages' lines in order, whether every line is
    mapped, and the oracle key and trace of the last choice made over it."""
    lines = tuple(chain.from_iterable(_page_plan(vpage, amap, line_size) for vpage in pages))
    return (_digest((pages, amap.digest_key(), budget)), lines,
            all(read is not None for _, read, _ in lines), [None, ()])


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

    The result depends on exactly (ta, visible, amap, budget, seed): every
    choice takes words from one NondetOracle keyed by the seed and digests of
    the visible projection and the footprint, so hidden state cannot influence
    it.  Of n lines, with m = min(n, budget), the first 2 + n + m words are a
    mode, a size, a sort key per line and a write word per position.  Of the
    lines sorted on their keys, 90% of modes take the first m, 5% the first
    1 + size % m, and 5% the first m and then, while under budget, a word to
    go on (70%), a line and its write word.  A quarter of write words write.
    """
    if budget < 1:
        raise ValueError(f"trace budget must be >= 1, got {budget}")
    ta_pages = tuple(sorted(set(ta)))
    if not ta_pages:
        return ()

    footprint, lines, mapped, last = _footprint_plan(ta_pages, amap, budget, line_size)
    key = ":".join(["select", str(seed), projection_digest(visible), footprint, extra_entropy])
    if last[0] == key:    # the choice is a function of the key and the footprint
        return last[1]
    oracle = NondetOracle(key=key)
    n, m = len(lines), min(len(lines), budget)
    words = oracle.next_words(2 + n + m)
    mode = words[0] * 20 >> 64      # 0-17: every line; 18: a sample; 19: padded
    writes = list(words[2 + n:])
    k = 1 + words[1] % m if mode == 18 else m
    chosen = sorted(range(n), key=words[2:2 + n].__getitem__)[:k]
    while mode == 19 and len(chosen) < budget and oracle.next_word() < 7 * 2 ** 64 // 10:
        chosen.append(oracle.next_word() % n)
        writes.append(oracle.next_word())

    if not mapped:
        for i in chosen:
            if lines[i][1] is None:
                raise TranslationFault(lines[i][0])
    # Each line's write (index 2) for a write word below 2^62, else its read.
    last[:] = key, tuple([lines[i][2 - (w >= 1 << 62)] for i, w in zip(chosen, writes)])
    return last[1]


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

    Identical interface and output space, but the oracle's key additionally
    holds a digest of the full microarchitectural state.  Two states with the
    same visible projection but different hidden sets now produce different
    traces, which the dependency property suite must detect.
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
