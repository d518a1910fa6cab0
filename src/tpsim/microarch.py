"""Microarchitectural state and the five-operation hardware trace language.

The observable hardware is split the way a time-protection kernel splits it:

* flushable state: everything on-core that a targeted microreset can scrub.
  Modelled as a fixed-length sequence of opaque words with an all-zero reset
  value.  Reads and writes mix new content into it; only an on-core flush
  restores the reset value.

* partitionable state: a set-associative cache.  Each set holds at most
  num_ways (tag, cachedness) entries plus one word of replacement metadata.
  Cachedness is graded, not boolean: level 1 is closest and cheapest, deeper
  levels cost more, level 0 means absent.

* a cycle clock that only moves forward.

Hardware interaction is reified as traces over five operations: Read, Write,
OnCoreFlush, OffCoreFlush and PadTo.  Costs are local by construction: an
access costs a function of its own collision set, an on-core flush a function
of the flushable words, an off-core flush a function of the targeted sets.
All residual nondeterminism (content mixing, per-operation jitter) is drawn
from an explicit replayable oracle so that runs are reproducible and pairs of
runs can share exactly the nondeterminism they are meant to share.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Union

from .core import (
    AddressMap,
    CacheGeometry,
    ConfigError,
    DomainPolicy,
    ModelError,
    TranslationFault,
    set_index_of,
)

_WORD_MASK = (1 << 64) - 1
_MIX_MULT = 0x9E3779B97F4A7C15  # odd, so multiplication mod 2^64 is a bijection

META_RESET = 0


class PadViolation(ModelError):
    """A pad target lies in the past.  Carries both clock values."""

    def __init__(self, now: int, target: int):
        super().__init__(f"cannot pad backwards: clock is {now}, pad target is {target}")
        self.now = now
        self.target = target


class TraceError(ModelError):
    """Applying a trace failed; index points at the offending operation and
    state is what the operations before it left."""

    def __init__(self, index: int, cause: Exception, state: "MicroArchState"):
        super().__init__(f"trace operation {index} failed: {cause}")
        self.index = index
        self.cause = cause
        self.state = state


# --- trace operations -------------------------------------------------------
# Frozen dataclasses, unlike the state records below: they compare by class
# as well as by fields, so Read(v, p) never equals Write(v, p).

@dataclass(frozen=True)
class Read:
    v: int
    p: int


@dataclass(frozen=True)
class Write:
    v: int
    p: int


@dataclass(frozen=True)
class OnCoreFlush:
    pass


@dataclass(frozen=True)
class OffCoreFlush:
    targets: frozenset[int]


@dataclass(frozen=True)
class PadTo:
    t: int


TraceOp = Union[Read, Write, OnCoreFlush, OffCoreFlush, PadTo]
Trace = tuple[TraceOp, ...]


# --- state ------------------------------------------------------------------

Entry = tuple[int, int]  # (line-aligned physical tag, cachedness level >= 1)


# The state records are named tuples of plain ints, Nones and tuples: immutable
# and cheap to build.  Derive a changed copy with _replace.

class CacheSet(NamedTuple):
    ways: tuple[Optional[Entry], ...]
    meta: int = META_RESET

    def resident(self) -> tuple[Entry, ...]:
        return tuple(e for e in self.ways if e is not None)

    def level_of(self, tag: int) -> int:
        for e in self.ways:
            if e is not None and e[0] == tag:
                return e[1]
        return 0

    def is_empty(self) -> bool:
        return all(e is None for e in self.ways)


class MicroArchState(NamedTuple):
    flushable: tuple[int, ...]
    sets: tuple[CacheSet, ...]
    clock: int = 0

    @classmethod
    def initial(cls, g: CacheGeometry, flushable_words: int) -> "MicroArchState":
        empty = CacheSet(ways=(None,) * g.num_ways)
        return cls(flushable=(0,) * flushable_words, sets=(empty,) * g.num_sets, clock=0)


def flushable_reset(words: int) -> tuple[int, ...]:
    return (0,) * words


# --- nondeterminism oracle --------------------------------------------------

class NondetOracle:
    """A replayable stream of opaque 64-bit words.

    Under-defined hardware updates (flushable mixing, per-operation jitter)
    consume words from here and from nowhere else.  Two oracles built from the
    same key, or over the same explicit word list, produce identical streams,
    which is what makes run pairs alignable.

    A keyed oracle's word i is bytes 8i to 8i + 8 of SHAKE-128 of the key's
    UTF-8 text, read little-endian: a pure function of (key, i), so no word
    depends on how the draws before it were split up.  The stream is read at
    the first draw, since many runs build oracles that never draw, and read
    further, to at least twice its length, when the words read run out.
    """

    def __init__(self, key: str | None = None, words: Iterable[int] | None = None):
        if (key is None) == (words is None):
            raise ValueError("provide exactly one of key or words")
        self._key = key
        self._words: tuple[int, ...] = () if words is None else tuple(w & _WORD_MASK for w in words)
        self.consumed = 0

    def _read(self, n: int) -> None:
        """Make at least n words available, if the oracle is keyed."""
        if self._key is not None:
            import hashlib    # here, not at the top: loading a config draws no word
            n = max(n, 2 * len(self._words), 21)    # a SHAKE-128 block is 21 words
            self._words = struct.unpack(f"<{n}Q", hashlib.shake_128(self._key.encode()).digest(8 * n))

    def next_word(self) -> int:
        i = self.consumed
        self.consumed = i + 1    # a draw that finds no word counts too
        if i >= len(self._words):
            self._read(i + 1)
            if i >= len(self._words):
                raise ModelError("nondeterminism oracle ran out of words")
        return self._words[i]

    def next_words(self, n: int) -> tuple[int, ...]:
        """The words n next_word calls would return, drawn at once.  A word
        list gives only the words it has left; the next next_word raises."""
        i = self.consumed
        if i + n > len(self._words):
            self._read(i + n)
        out = self._words[i:i + n]
        self.consumed = i + len(out)
        return out


# --- cost model ---------------------------------------------------------------

@dataclass(frozen=True)
class CostModel:
    """Access and flush costs, all in cycles.

    hit_cost is indexed by cachedness level (entry 0 is the cost of a level-1
    hit), so its length is the number of levels, max_level.  Deeper levels
    must cost more, misses more still.  WCET fields bound the flush operations
    over every possible state, targets included.
    """

    hit_cost: tuple[int, ...]
    miss_cost: int
    miss_evict_cost: int
    writeback_cost: int
    oncore_flush_base: int
    oncore_flush_spread: int
    oncore_flush_wcet: int
    offcore_flush_base: int
    offcore_flush_wcet: int
    jitter: int
    flushable_words: int

    def validate(self, g: CacheGeometry) -> None:
        costs = list(self.hit_cost) + [self.miss_cost, self.miss_evict_cost]
        if any(c <= 0 for c in costs):
            raise ConfigError("cost_model: all access costs must be positive")
        if sorted(costs) != costs:
            raise ConfigError(
                "cost_model: costs must not decrease as cachedness gets worse "
                "(hit levels, then miss, then miss with eviction)"
            )
        for name in ("writeback_cost", "oncore_flush_base", "offcore_flush_base", "jitter"):
            if getattr(self, name) < 0:
                raise ConfigError(f"cost_model.{name}: must be >= 0")
        for name in ("oncore_flush_spread", "flushable_words"):
            if getattr(self, name) < 1:
                raise ConfigError(f"cost_model.{name}: must be >= 1")
        worst_on = self.oncore_flush_base + self.oncore_flush_spread - 1 + self.jitter
        if worst_on > self.oncore_flush_wcet:
            raise ConfigError(
                f"cost_model.oncore_flush_wcet: {self.oncore_flush_wcet} is below the "
                f"worst case {worst_on}"
            )
        worst_off = (
            self.offcore_flush_base
            + g.num_sets * g.num_ways * self.writeback_cost
            + self.jitter
        )
        if worst_off > self.offcore_flush_wcet:
            raise ConfigError(
                f"cost_model.offcore_flush_wcet: {self.offcore_flush_wcet} is below the "
                f"worst case {worst_off}"
            )

    @property
    def max_level(self) -> int:
        return len(self.hit_cost)

    @property
    def cost_min(self) -> int:
        return self.hit_cost[0]

    @property
    def cost_max(self) -> int:
        return self.miss_evict_cost


def touch_cost(state: MicroArchState, p: int, g: CacheGeometry, cm: CostModel) -> int:
    """Cycles to access p, before jitter.

    Depends only on p's own cachedness and on the cachedness of the addresses
    colliding with p, which is exactly the content of p's cache set.
    """
    cset = state.sets[set_index_of(p, g)]
    level = cset.level_of(g.line_of(p))
    if level > 0:
        return cm.hit_cost[level - 1]
    if any(e is None for e in cset.ways):
        return cm.miss_cost
    return cm.miss_evict_cost


# --- replacement policies ----------------------------------------------------

def _plru_touch(meta: int, way: int, num_ways: int) -> int:
    """Point the tree bits away from the way just used."""
    node = 0
    lo, hi = 0, num_ways
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if way < mid:
            meta |= 1 << node          # touched left, victim search goes right
            node = 2 * node + 1
            hi = mid
        else:
            meta &= ~(1 << node)       # touched right, victim search goes left
            node = 2 * node + 2
            lo = mid
    return meta


@functools.lru_cache(maxsize=8)
def _plru_masks(num_ways: int) -> tuple[tuple[int, int], ...]:
    """(keep, set) for each way: _plru_touch(meta, way) is meta & keep | set."""
    return tuple((_plru_touch(-1, way, num_ways), _plru_touch(0, way, num_ways))
                 for way in range(num_ways))


def _plru_victim(meta: int, num_ways: int) -> int:
    node = 0
    lo, hi = 0, num_ways
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meta & (1 << node):
            node = 2 * node + 2
            lo = mid
        else:
            node = 2 * node + 1
            hi = mid
    return lo


def _adv_update(meta: int, tag: int) -> int:
    # Affine in meta with an odd multiplier, hence a bijection of the old
    # metadata for any fixed access.  No sequence of ordinary accesses can
    # collapse two distinct histories, which is the point of this mode.
    return (meta * _MIX_MULT + (tag | 1)) & _WORD_MASK


def _adv_victim(meta: int, num_ways: int) -> int:
    return (meta >> 13) % num_ways


# --- the five operations -----------------------------------------------------

def _mix_flushable(flushable: tuple[int, ...], v: int, p: int, word: int) -> tuple[int, ...]:
    out = []
    for i, w in enumerate(flushable):
        w = (w * _MIX_MULT) & _WORD_MASK
        w ^= (v + 0x9E37 * i) & _WORD_MASK
        w ^= (p + 0x79B9 * i) & _WORD_MASK
        w ^= word
        out.append(w)
    return tuple(out)


def _jitter(oracle: NondetOracle, cm: CostModel) -> int:
    # One word even at jitter 0, so that op streams line up across cost models.
    return oracle.next_word() % (cm.jitter + 1)


def _access(state: MicroArchState, v: int, p: int, oracle: NondetOracle,
            g: CacheGeometry, cm: CostModel, policy: DomainPolicy) -> MicroArchState:
    cost = touch_cost(state, p, g, cm)
    mix_word = oracle.next_word()
    jitter = _jitter(oracle, cm)

    idx = set_index_of(p, g)
    cset = state.sets[idx]
    tag = g.line_of(p)
    adversarial = policy.replacement == "adversarial"

    ways = list(cset.ways)
    way = None
    for i, e in enumerate(ways):
        if e is not None and e[0] == tag:
            way = i
            break
    if way is None:
        for i, e in enumerate(ways):
            if e is None:
                way = i
                break
    if way is None:
        if adversarial:
            way = _adv_victim(cset.meta, g.num_ways)
        else:
            way = _plru_victim(cset.meta, g.num_ways)
    ways[way] = (tag, 1)

    if adversarial:
        meta = _adv_update(cset.meta, tag)
    else:
        meta = _plru_touch(cset.meta, way, g.num_ways)

    new_sets = state.sets[:idx] + (CacheSet(tuple(ways), meta),) + state.sets[idx + 1:]
    return MicroArchState(
        flushable=_mix_flushable(state.flushable, v, p, mix_word),
        sets=new_sets,
        clock=state.clock + cost + jitter,
    )


def oncore_flush_cost(state: MicroArchState, cm: CostModel) -> int:
    """Cost of the on-core microreset before jitter: a function of the
    flushable words and of nothing else."""
    acc = 0
    for w in state.flushable:
        acc = (acc * 31 + w) & _WORD_MASK
    return cm.oncore_flush_base + acc % cm.oncore_flush_spread


def offcore_flush_cost(state: MicroArchState, targets: frozenset[int],
                       g: CacheGeometry, cm: CostModel) -> int:
    """Cost of flushing the targeted sets before jitter: base plus a writeback
    per resident entry in any set that collides with a target."""
    indices = {set_index_of(t, g) for t in targets}
    entries = sum(len(state.sets[i].resident()) for i in indices)
    return cm.offcore_flush_base + entries * cm.writeback_cost


def apply_op(state: MicroArchState, op: TraceOp, oracle: NondetOracle,
             g: CacheGeometry, cm: CostModel, policy: DomainPolicy) -> MicroArchState:
    """Apply one hardware operation, returning the successor state."""
    if isinstance(op, (Read, Write)):
        # Reads and writes are distinct operations with identical semantics.
        return _access(state, op.v, op.p, oracle, g, cm, policy)
    if isinstance(op, OnCoreFlush):
        cost = oncore_flush_cost(state, cm) + _jitter(oracle, cm)
        return state._replace(flushable=flushable_reset(len(state.flushable)),
                              clock=state.clock + cost)
    if isinstance(op, OffCoreFlush):
        cost = offcore_flush_cost(state, op.targets, g, cm) + _jitter(oracle, cm)
        indices = {set_index_of(t, g) for t in op.targets}
        empty = CacheSet(ways=(None,) * g.num_ways, meta=META_RESET)
        new_sets = tuple(
            empty if i in indices else s for i, s in enumerate(state.sets)
        )
        return state._replace(sets=new_sets, clock=state.clock + cost)
    if isinstance(op, PadTo):
        if op.t < state.clock:
            raise PadViolation(state.clock, op.t)
        return state._replace(clock=op.t)
    raise TypeError(f"unknown trace operation {op!r}")


# The fold below keeps the flushable words in 128-bit lanes of one int, so a
# single multiply, mask and three xors mix all of them at once.
_LANE = 128


@functools.lru_cache(maxsize=8)
def _lane_constants(n: int) -> tuple[int, int, int, int]:
    """(ones, lane mask, v offsets, p offsets) for n packed words."""
    ones = sum(1 << (_LANE * i) for i in range(n))
    return (
        ones,
        ones * _WORD_MASK,
        sum((0x9E37 * i) << (_LANE * i) for i in range(n)),
        sum((0x79B9 * i) << (_LANE * i) for i in range(n)),
    )


@functools.lru_cache(maxsize=512)
def _access_terms(v: int, p: int, line_size: int, num_sets: int, n: int) -> tuple[int, int, int]:
    """(set index, tag, packed v and p mixing term) of an access, p >= 0.

    _mix_flushable keeps (v + c) and (p + c) mod 2^64, which is the same for
    v and p reduced mod 2^64 first; reduced, no lane carries.
    """
    ones, _, v_off, p_off = _lane_constants(n)
    term = ((v & _WORD_MASK) * ones + v_off) ^ ((p & _WORD_MASK) * ones + p_off)
    return (p // line_size) % num_sets, p - p % line_size, term


@functools.lru_cache(maxsize=8)
def _lanes(n: int) -> struct.Struct:
    """n little-endian 64-bit words, each padded to its 128-bit lane."""
    return struct.Struct("<" + "Q8x" * n)


def _pack(words: tuple[int, ...]) -> int:
    # Mixing multiplies first and keeps 64 bits, so reducing each word mod
    # 2^64 beforehand gives the same result.
    return int.from_bytes(_lanes(len(words)).pack(*[w & _WORD_MASK for w in words]), "little")


def _unpack(packed: int, n: int) -> tuple[int, ...]:
    return _lanes(n).unpack(packed.to_bytes(16 * n, "little"))


def _freeze(base: tuple[CacheSet, ...], work: dict[int, list], words: tuple[int, ...],
            packed: int | None, clock: int) -> MicroArchState:
    sets = base
    if work:
        sets = list(base)
        for idx, (ways, meta) in work.items():
            sets[idx] = CacheSet(tuple(ways), meta)
        sets = tuple(sets)
    if packed is not None:
        words = _unpack(packed, len(words))
    return MicroArchState(words, sets, clock)


def apply_trace(state: MicroArchState, trace: Trace, oracle: NondetOracle,
                g: CacheGeometry, cm: CostModel, policy: DomainPolicy) -> MicroArchState:
    """Left fold of apply_op; the first failing operation aborts the trace.

    Every operation updates a private working copy: the flushable words, the
    touched and flushed sets as mutable [ways, meta] pairs, and the clock.
    One state is built at the end.  apply_op stays the reference semantics,
    and the fold must agree with it on the result, the oracle words drawn
    and any error raised.
    """
    if not trace:
        return state
    n_words = len(state.flushable)
    ones, lane_mask, _, _ = _lane_constants(n_words)
    words = state.flushable       # current unless packed is set
    packed: int | None = None
    base = state.sets
    work: dict[int, list] = {}    # set index -> [ways list, meta]
    clock = state.clock

    line_size, num_sets, num_ways = g.line_size, g.num_sets, g.num_ways
    hit_cost, miss_cost, miss_evict_cost = cm.hit_cost, cm.miss_cost, cm.miss_evict_cost
    jitter_mod = cm.jitter + 1
    adversarial = policy.replacement == "adversarial"
    plru = _plru_masks(num_ways)

    i, end = 0, len(trace)
    try:
        while i < end:
            op = trace[i]
            cls = op.__class__
            if cls is not Read and cls is not Write:
                if cls is OffCoreFlush:
                    # offcore_flush_cost, on the working copy
                    indices = {set_index_of(t, g) for t in op.targets}
                    entries = 0
                    for idx in indices:
                        ways = work[idx][0] if idx in work else base[idx].ways
                        entries += len(ways) - ways.count(None)
                    clock += (cm.offcore_flush_base + entries * cm.writeback_cost
                              + oracle.next_word() % jitter_mod)
                    for idx in indices:
                        work[idx] = [[None] * num_ways, META_RESET]
                elif cls is OnCoreFlush:
                    if packed is not None:
                        words, packed = _unpack(packed, n_words), None
                    # oncore_flush_cost, on the working copy
                    acc = 0
                    for w in words:
                        acc = (acc * 31 + w) & _WORD_MASK
                    clock += (cm.oncore_flush_base + acc % cm.oncore_flush_spread
                              + oracle.next_word() % jitter_mod)
                    words = flushable_reset(n_words)
                elif cls is PadTo:
                    if op.t < clock:
                        raise PadViolation(clock, op.t)
                    clock = op.t
                else:
                    raise TypeError(f"unknown trace operation {op!r}")
                i += 1
                continue

            # A run of reads and writes draws its words at once.  It ends
            # before any other operation and before a negative address, which
            # raises, as in apply_op, before it draws a word.
            j = i
            while j < end and ((cls := trace[j].__class__) is Read or cls is Write) \
                    and not trace[j].p < 0:
                j += 1
            if j == i:
                set_index_of(op.p, g)    # op.p < 0, so this raises
            drawn = iter(oracle.next_words(2 * (j - i)))
            if packed is None:
                packed = _pack(words)
            for mix_word, jitter_word in zip(drawn, drawn):
                op = trace[i]
                idx, tag, term = _access_terms(op.v, op.p, line_size, num_sets, n_words)
                entry = work.get(idx)
                if entry is None:
                    cset = base[idx]
                    entry = work[idx] = [list(cset.ways), cset.meta]
                ways = entry[0]

                # touch_cost, on the working copy
                way, level = -1, 0
                for k, e in enumerate(ways):
                    if e is not None and e[0] == tag:
                        way, level = k, e[1]
                        break
                if level > 0:
                    cost = hit_cost[level - 1]
                elif None in ways:
                    cost = miss_cost
                else:
                    cost = miss_evict_cost

                # _access, on the working copy
                if way < 0:
                    if None in ways:
                        way = ways.index(None)
                    elif adversarial:
                        way = _adv_victim(entry[1], num_ways)
                    else:
                        way = _plru_victim(entry[1], num_ways)
                ways[way] = (tag, 1)
                if adversarial:
                    entry[1] = _adv_update(entry[1], tag)
                else:
                    keep, set_bits = plru[way]
                    entry[1] = entry[1] & keep | set_bits

                packed = ((packed * _MIX_MULT ^ term) & lane_mask) ^ (mix_word * ones)
                clock += cost + jitter_word % jitter_mod    # as _jitter, also for jitter 0
                i += 1
            if i < j:
                oracle.next_word()    # the word list ran out: raises at operation i
    except ModelError as e:
        # No operation changes the working copy before it has drawn its words
        # and passed its checks.
        raise TraceError(i, e, _freeze(base, work, words, packed, clock)) from e
    return _freeze(base, work, words, packed, clock)


# --- adherence ----------------------------------------------------------------

def adheres(trace: Trace, ta: Iterable[int], amap: AddressMap,
            kernel_globals: frozenset[int] = frozenset()) -> tuple[bool, int | None]:
    """Does every operation stay inside the touched set?

    Reads and writes must name a virtual address whose page is in ta and must
    carry its actual translation.  Off-core flush targets must translate from
    ta or be kernel globals.  OnCoreFlush and PadTo always adhere.  Returns
    (True, None) or (False, index of the first offender).
    """
    ta_pages = frozenset(ta)
    phys_pages = set()
    for vpage in ta_pages:
        try:
            phys_pages.add(amap.translate_page(vpage))
        except TranslationFault:
            pass
    for i, op in enumerate(trace):
        if isinstance(op, (Read, Write)):
            vpage = op.v - (op.v % amap.page_size)
            if vpage not in ta_pages:
                return False, i
            try:
                if amap.translate(op.v) != op.p:
                    return False, i
            except TranslationFault:
                return False, i
        elif isinstance(op, OffCoreFlush):
            for t in op.targets:
                tpage = t - (t % amap.page_size)
                if tpage not in phys_pages and t not in kernel_globals:
                    return False, i
    return True, None


# --- visible projections -------------------------------------------------------

class VisibleProjection(NamedTuple):
    """What one domain can observe of the microarchitectural state.

    While executing, a domain sees all flushable state, the cache sets of its
    own colours, the sets colliding with kernel globals (the kernel touches
    those on its behalf) and the exact clock.  While suspended it keeps only
    its own coloured sets, minus the global-colliding ones, with no flushable
    state and no clock.
    """

    role: str
    flushable: tuple[int, ...] | None
    visible_sets: tuple[tuple[int, CacheSet], ...]
    clock: int | None


@functools.lru_cache(maxsize=64)
def visible_set_indices(observer: int, policy: DomainPolicy, g: CacheGeometry,
                        role: str) -> tuple[int, ...]:
    """The observer's visible cache sets, in order; computed once per policy."""
    spec = policy.domain(observer)
    own = frozenset(
        i for i in range(g.num_sets) if g.colour_of_set(i) in spec.colours
    )
    global_sets = policy.global_set_indices(g)
    if role == "executing":
        return tuple(sorted(own | global_sets))
    if role == "suspended":
        return tuple(sorted(own - global_sets))
    raise ValueError(f"unknown observer role {role!r}")


def visible_projection(state: MicroArchState, observer: int, policy: DomainPolicy,
                       role: str, g: CacheGeometry) -> VisibleProjection:
    sets = tuple((i, state.sets[i]) for i in visible_set_indices(observer, policy, g, role))
    if role == "executing":
        return VisibleProjection(role, state.flushable, sets, state.clock)
    return VisibleProjection(role, None, sets, None)


# --- trace dump format ----------------------------------------------------------

def format_trace(trace: Trace) -> list[str]:
    """One line per operation; addresses in hex, cycle counts in decimal."""
    lines = []
    for op in trace:
        if isinstance(op, Read):
            lines.append(f"READ {op.v:#x} {op.p:#x}")
        elif isinstance(op, Write):
            lines.append(f"WRITE {op.v:#x} {op.p:#x}")
        elif isinstance(op, OnCoreFlush):
            lines.append("ONFLUSH")
        elif isinstance(op, OffCoreFlush):
            lines.append("OFFFLUSH " + ",".join(f"{t:#x}" for t in sorted(op.targets)))
        elif isinstance(op, PadTo):
            lines.append(f"PAD {op.t}")
        else:
            raise TypeError(f"unknown trace operation {op!r}")
    return lines


def parse_trace(lines: Iterable[str]) -> Trace:
    ops: list[TraceOp] = []
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "READ":
            v, p = rest.split()
            ops.append(Read(int(v, 16), int(p, 16)))
        elif head == "WRITE":
            v, p = rest.split()
            ops.append(Write(int(v, 16), int(p, 16)))
        elif head == "ONFLUSH":
            ops.append(OnCoreFlush())
        elif head == "OFFFLUSH":
            # A bare OFFFLUSH is an off-core flush with no targets.
            ops.append(OffCoreFlush(frozenset(int(t, 16) for t in rest.split(",") if rest)))
        elif head == "PAD":
            ops.append(PadTo(int(rest)))
        else:
            raise ValueError(f"unparseable trace line: {raw!r}")
    return tuple(ops)
