"""Hardware model semantics, each cost checked against a recomputation."""

import dataclasses
import random

import pytest

from tpsim.core import (
    CacheGeometry, ConfigError, DomainPolicy, DomainSpec, ModelError, set_index_of,
)
from tpsim.microarch import (
    CacheSet,
    CostModel,
    MicroArchState,
    NondetOracle,
    OffCoreFlush,
    OnCoreFlush,
    PadTo,
    PadViolation,
    Read,
    TraceError,
    VisibleProjection,
    Write,
    adheres,
    apply_op,
    apply_trace,
    flushable_reset,
    format_trace,
    offcore_flush_cost,
    oncore_flush_cost,
    parse_trace,
    touch_cost,
    visible_projection,
    visible_set_indices,
)
from tpsim.core import AddressMap
from tpsim.selector import perturb_invisible

G = CacheGeometry(line_size=64, num_sets=64, num_ways=2, page_size=1024)
CM = CostModel(
    hit_cost=(2, 6), miss_cost=20, miss_evict_cost=30, writeback_cost=4,
    oncore_flush_base=40, oncore_flush_spread=32, oncore_flush_wcet=120,
    offcore_flush_base=20, offcore_flush_wcet=600, jitter=1,
    flushable_words=8, max_level=2,
)
PLRU = DomainPolicy(
    domains=(DomainSpec(0, frozenset({0, 1, 2, 3}), frozenset(), frozenset()),),
    kernel_globals=frozenset(), switch_deadline=320, slice_length=8192,
)
ADV = DomainPolicy(
    domains=PLRU.domains, kernel_globals=frozenset(),
    switch_deadline=320, slice_length=8192, replacement="adversarial",
)


def rand_state(rng, levels=2, fill=0.6):
    sets = []
    for idx in range(G.num_sets):
        ways = []
        for _ in range(G.num_ways):
            if rng.random() < fill:
                page = rng.randrange(64) * G.page_size
                line = page + (idx % G.lines_per_page) * G.line_size
                # force the line into this set by picking a colliding page
                while set_index_of(line, G) != idx:
                    page += G.page_size
                    line = page + rng.randrange(G.lines_per_page) * G.line_size
                ways.append((line, rng.randint(1, levels)))
            else:
                ways.append(None)
        sets.append(CacheSet(tuple(ways), meta=rng.getrandbits(8)))
    flushable = tuple(rng.getrandbits(64) for _ in range(CM.flushable_words))
    return MicroArchState(flushable, tuple(sets), clock=rng.randrange(10000))


def test_cost_model_validation():
    with pytest.raises(ConfigError):
        CostModel(hit_cost=(6, 2), miss_cost=20, miss_evict_cost=30, writeback_cost=4,
                  oncore_flush_base=40, oncore_flush_spread=32, oncore_flush_wcet=120,
                  offcore_flush_base=20, offcore_flush_wcet=600, jitter=1,
                  flushable_words=8, max_level=2).validate(G)
    with pytest.raises(ConfigError):
        CostModel(hit_cost=(2, 6), miss_cost=20, miss_evict_cost=30, writeback_cost=4,
                  oncore_flush_base=40, oncore_flush_spread=32, oncore_flush_wcet=60,
                  offcore_flush_base=20, offcore_flush_wcet=600, jitter=1,
                  flushable_words=8, max_level=2).validate(G)
    with pytest.raises(ConfigError):
        CostModel(hit_cost=(2, 6), miss_cost=20, miss_evict_cost=30, writeback_cost=4,
                  oncore_flush_base=40, oncore_flush_spread=32, oncore_flush_wcet=120,
                  offcore_flush_base=20, offcore_flush_wcet=500, jitter=1,
                  flushable_words=8, max_level=2).validate(G)
    with pytest.raises(ConfigError):
        CostModel(hit_cost=(2,), miss_cost=20, miss_evict_cost=30, writeback_cost=4,
                  oncore_flush_base=40, oncore_flush_spread=32, oncore_flush_wcet=120,
                  offcore_flush_base=20, offcore_flush_wcet=600, jitter=1,
                  flushable_words=8, max_level=2).validate(G)
    CM.validate(G)  # the reference model itself is fine


def test_oracle_streams():
    a = NondetOracle(key="k")
    b = NondetOracle(key="k")
    assert [a.next_word() for _ in range(20)] == [b.next_word() for _ in range(20)]
    assert a.consumed == 20
    c = NondetOracle(words=[5, 6])
    assert c.next_word() == 5 and c.next_word() == 6
    with pytest.raises(Exception):
        c.next_word()
    with pytest.raises(ValueError):
        NondetOracle()
    with pytest.raises(ValueError):
        NondetOracle(key="k", words=[1])


def test_word_budget_per_operation():
    """Reads and writes draw two oracle words, flushes one, padding none."""
    rng = random.Random("budget")
    s = rand_state(rng)
    for op, want in [
        (Read(0x10, 0x40), 2),
        (Write(0x10, 0x40), 2),
        (OnCoreFlush(), 1),
        (OffCoreFlush(frozenset({0x40})), 1),
        (PadTo(s.clock + 10), 0),
    ]:
        o = NondetOracle(key="w")
        apply_op(s, op, o, G, CM, PLRU)
        assert o.consumed == want, op


def test_touch_cost_oracle():
    """touch_cost replays the hit-level/miss/evict table entry by entry."""
    rng = random.Random("touch")
    for _ in range(1000):
        s = rand_state(rng)
        p = rng.randrange(1 << 16)
        cset = s.sets[set_index_of(p, G)]
        lvl = 0
        for e in cset.ways:
            if e is not None and e[0] == G.line_of(p):
                lvl = e[1]
        if lvl:
            want = CM.hit_cost[lvl - 1]
        elif any(e is None for e in cset.ways):
            want = CM.miss_cost
        else:
            want = CM.miss_evict_cost
        assert touch_cost(s, p, G, CM) == want


def test_access_promotes_and_advances_clock():
    rng = random.Random("access")
    for trial in range(500):
        s = rand_state(rng)
        p = rng.randrange(1 << 16)
        idx = set_index_of(p, G)
        cost = touch_cost(s, p, G, CM)
        words = [rng.getrandbits(64), rng.getrandbits(64)]
        r = apply_op(s, Read(0x123, p), NondetOracle(words=words), G, CM, PLRU)
        assert r.clock == s.clock + cost + words[1] % (CM.jitter + 1)
        assert r.sets[idx].level_of(G.line_of(p)) == 1   # freshly cached
        assert r.flushable != s.flushable                 # mixing is lossy but live
        for j in range(G.num_sets):
            if j != idx:
                assert r.sets[j] == s.sets[j]


def test_plru_never_evicts_the_resident_pair_member():
    """After touching a line in a 2-way set, an immediate conflicting fill
    must evict the other way, not the touched one."""
    rng = random.Random("plru")
    for _ in range(300):
        a, b, c = (n * G.page_size + 0x40 for n in (0, 4, 8))  # same set
        idx = set_index_of(a, G)
        s = MicroArchState.initial(G, CM.flushable_words)
        oracle = NondetOracle(key=f"plru:{rng.random()}")
        for p in (a, b, a, c):
            s = apply_op(s, Read(p, p), oracle, G, CM, PLRU)
        # a was touched most recently before the fill of c, so b is gone
        assert s.sets[idx].level_of(G.line_of(a)) == 1
        assert s.sets[idx].level_of(G.line_of(b)) == 0
        assert s.sets[idx].level_of(G.line_of(c)) == 1


def test_adversarial_update_is_a_bijection():
    rng = random.Random("adv")
    tag = 0x1040
    seen = {}
    for _ in range(2000):
        m = rng.getrandbits(64)
        s = MicroArchState(
            flushable=(0,) * CM.flushable_words,
            sets=(CacheSet((( 0x40, 1), (0x1040, 1)), meta=m),) + (CacheSet((None, None)),) * (G.num_sets - 1),
            clock=0,
        )
        r = apply_op(s, Read(tag, tag), NondetOracle(words=[0, 0]), G, CM, ADV)
        m2 = r.sets[0].meta
        assert seen.setdefault(m2, m) == m, "two metas mapped to the same image"


def test_oncore_flush_cost_and_effect():
    rng = random.Random("oncore")
    for _ in range(500):
        s = rand_state(rng)
        base = oncore_flush_cost(s, CM)
        assert CM.oncore_flush_base <= base < CM.oncore_flush_base + CM.oncore_flush_spread
        # recompute the fold
        acc = 0
        for w in s.flushable:
            acc = (acc * 31 + w) % (1 << 64)
        assert base == CM.oncore_flush_base + acc % CM.oncore_flush_spread
        jit = rng.getrandbits(64)
        r = apply_op(s, OnCoreFlush(), NondetOracle(words=[jit]), G, CM, PLRU)
        assert r.clock == s.clock + base + jit % (CM.jitter + 1)
        assert r.flushable == flushable_reset(CM.flushable_words)
        assert r.sets == s.sets


def test_offcore_flush_cost_and_effect():
    rng = random.Random("offcore")
    for _ in range(500):
        s = rand_state(rng)
        targets = frozenset(rng.randrange(1 << 16) for _ in range(rng.randint(1, 3)))
        indices = {set_index_of(t, G) for t in targets}
        want = CM.offcore_flush_base + CM.writeback_cost * sum(
            len(s.sets[i].resident()) for i in indices
        )
        assert offcore_flush_cost(s, targets, G, CM) == want
        r = apply_op(s, OffCoreFlush(targets), NondetOracle(words=[0]), G, CM, PLRU)
        for i in range(G.num_sets):
            if i in indices:
                assert r.sets[i].is_empty() and r.sets[i].meta == 0
            else:
                assert r.sets[i] == s.sets[i]
        assert r.flushable == s.flushable


def test_pad_semantics():
    s = MicroArchState.initial(G, 8)
    r = apply_op(s, PadTo(500), NondetOracle(words=[]), G, CM, PLRU)
    assert r.clock == 500
    assert apply_op(r, PadTo(500), NondetOracle(words=[]), G, CM, PLRU).clock == 500
    with pytest.raises(PadViolation):
        apply_op(r, PadTo(499), NondetOracle(words=[]), G, CM, PLRU)


def test_trace_error_carries_index_and_cause():
    s = MicroArchState.initial(G, 8)
    trace = (PadTo(100), PadTo(50), PadTo(200))
    with pytest.raises(TraceError) as e:
        apply_trace(s, trace, NondetOracle(key="t"), G, CM, PLRU)
    assert e.value.index == 1
    assert isinstance(e.value.cause, PadViolation)
    assert e.value.state == MicroArchState(s.flushable, s.sets, 100)


def test_wcet_bounds_hold_on_random_states():
    rng = random.Random("wcet")
    lines = [n * G.line_size for n in range(256)]
    for _ in range(1000):
        s = rand_state(rng)
        o = NondetOracle(key=f"wcet:{rng.random()}")
        r = apply_op(s, OnCoreFlush(), o, G, CM, PLRU)
        assert r.clock - s.clock <= CM.oncore_flush_wcet
        t = frozenset(rng.sample(lines, 5))
        r = apply_op(s, OffCoreFlush(t), o, G, CM, PLRU)
        assert r.clock - s.clock <= CM.offcore_flush_wcet
        r = apply_op(s, Read(0, rng.choice(lines)), o, G, CM, PLRU)
        assert r.clock - s.clock <= CM.miss_evict_cost + CM.jitter


def test_adheres():
    amap = AddressMap(1024, {0x10000: 0x1400, 0x10400: 0x2400})
    ta = {0x10000}
    good = (Read(0x10040, 0x1440), Write(0x100C0, 0x14C0), OnCoreFlush(), PadTo(9))
    assert adheres(good, ta, amap) == (True, None)
    # outside the touched set
    ok, i = adheres((Read(0x10400, 0x2400),), ta, amap)
    assert (ok, i) == (False, 0)
    # right page, wrong claimed translation
    ok, i = adheres((Read(0x10040, 0x9999),), ta, amap)
    assert (ok, i) == (False, 0)
    # flush targets must come from ta translations or the globals
    ok, i = adheres((OffCoreFlush(frozenset({0x1440})),), ta, amap)
    assert ok
    ok, i = adheres((Read(0x10040, 0x1440), OffCoreFlush(frozenset({0x2400})),), ta, amap)
    assert (ok, i) == (False, 1)
    ok, i = adheres((OffCoreFlush(frozenset({0xC80})),), ta, amap, frozenset({0xC80}))
    assert ok
    # unmapped pages never adhere
    ok, i = adheres((Read(0x30000, 0x0),), {0x30000}, amap)
    assert (ok, i) == (False, 0)


def test_visible_projection_shapes():
    g = G
    pol = DomainPolicy(
        domains=(
            DomainSpec(0, frozenset({0, 1}), frozenset(), frozenset()),
            DomainSpec(1, frozenset({2, 3}), frozenset(), frozenset()),
        ),
        kernel_globals=frozenset({0xC80}),   # set 50, colour 3
        switch_deadline=320, slice_length=8192,
    )
    own0 = {i for i in range(g.num_sets) if g.colour_of_set(i) in (0, 1)}
    assert visible_set_indices(0, pol, g, "executing") == tuple(sorted(own0 | {50}))
    assert visible_set_indices(0, pol, g, "suspended") == tuple(sorted(own0))
    own1 = {i for i in range(g.num_sets) if g.colour_of_set(i) in (2, 3)}
    assert visible_set_indices(1, pol, g, "suspended") == tuple(sorted(own1 - {50}))
    with pytest.raises(ValueError):
        visible_set_indices(0, pol, g, "dreaming")

    rng = random.Random("proj")
    s = rand_state(rng)
    ex = visible_projection(s, 0, pol, "executing", g)
    assert ex.flushable == s.flushable and ex.clock == s.clock
    assert [i for i, _ in ex.visible_sets] == sorted(own0 | {50})
    su = visible_projection(s, 0, pol, "suspended", g)
    assert su.flushable is None and su.clock is None
    assert all(s.sets[i] == cs for i, cs in su.visible_sets)


def test_trace_format_round_trip():
    rng = random.Random("fmt")
    ops = []
    for _ in range(200):
        k = rng.randrange(5)
        if k == 0:
            ops.append(Read(rng.randrange(1 << 20), rng.randrange(1 << 20)))
        elif k == 1:
            ops.append(Write(rng.randrange(1 << 20), rng.randrange(1 << 20)))
        elif k == 2:
            ops.append(OnCoreFlush())
        elif k == 3:
            ops.append(OffCoreFlush(frozenset(rng.randrange(1 << 16) for _ in range(3))))
        else:
            ops.append(PadTo(rng.randrange(1 << 30)))
    # No targets is a real op: a config without kernel globals emits one at
    # every honest switch.
    ops.insert(100, OffCoreFlush(frozenset()))
    trace = tuple(ops)
    assert parse_trace(format_trace(trace)) == trace
    assert parse_trace(["OFFFLUSH"]) == (OffCoreFlush(frozenset()),)
    with pytest.raises(ValueError):
        parse_trace(["JUMP 0x0"])


# --- apply_trace against the left fold of apply_op ----------------------------

G8K = CacheGeometry(line_size=64, num_sets=8192, num_ways=2, page_size=1024)
TWO_DOMAINS = DomainPolicy(
    domains=(
        DomainSpec(0, frozenset({0, 1}), frozenset(), frozenset()),
        DomainSpec(1, frozenset({2, 3}), frozenset(), frozenset()),
    ),
    kernel_globals=frozenset(), switch_deadline=320, slice_length=8192,
)


def fold_apply_op(state, trace, oracle, g, cm, policy):
    """The reference: apply_op one operation at a time."""
    for i, op in enumerate(trace):
        try:
            state = apply_op(state, op, oracle, g, cm, policy)
        except ModelError as e:
            raise TraceError(i, e, state) from e
    return state


def outcome(fn, state, trace, make_oracle, g, policy):
    """What a trace application did: result or error (with the state the
    operations before the failing one left), and oracle words drawn."""
    oracle = make_oracle()
    try:
        result = fn(state, trace, oracle, g, CM, policy)
    except TraceError as e:
        return ("trace-error", e.index, type(e.cause), e.state), oracle.consumed
    except ValueError as e:
        return ("bare", type(e)), oracle.consumed
    return ("ok", result), oracle.consumed


def dense_state(rng, g, spans=4):
    """Random state with level-1 and level-2 entries over spans cache spans."""
    span = g.line_size * g.num_sets
    sets = []
    for idx in range(g.num_sets):
        ways = [
            (rng.randrange(spans) * span + idx * g.line_size, rng.randint(1, 2))
            if rng.random() < 0.6 else None
            for _ in range(g.num_ways)
        ]
        sets.append(CacheSet(tuple(ways), meta=rng.getrandbits(64)))
    flushable = tuple(rng.getrandbits(64) for _ in range(CM.flushable_words))
    return MicroArchState(flushable, tuple(sets), clock=rng.randrange(10000))


def random_trace(rng, g, state, length, spans=4):
    span = g.line_size * g.num_sets
    # A small pool of lines, so that a trace revisits, fills and evicts sets.
    pool = [rng.randrange(spans * span) for _ in range(6)]
    pool += [p + k * span for p in pool[:2] for k in (1, 2)]
    ops = []
    for _ in range(length):
        k = rng.randrange(10)
        if k < 7:
            p = rng.choice(pool)
            v = rng.randrange(1 << 32)
            if rng.random() < 0.05:
                # Wide addresses, which the packed mixing reduces mod 2^64.
                v = rng.choice([rng.randrange(1 << 64, 1 << 127), rng.randrange(1 << 127, 1 << 130)])
                p = rng.choice([p + (1 << 64) * span, p + (1 << 127) * span])
            ops.append((Read if k < 5 else Write)(v, p))
        elif k == 7:
            ops.append(OnCoreFlush())
        elif k == 8:
            ops.append(OffCoreFlush(frozenset(rng.sample(pool, rng.randint(0, 2)))))
        else:
            # Mostly ahead of the clock, sometimes behind it.
            ops.append(PadTo(state.clock + rng.randrange(-50, 4000)))
    return tuple(ops)


@pytest.mark.parametrize("g", [G, G8K], ids=["sets64", "sets8192"])
@pytest.mark.parametrize("policy", [PLRU, ADV], ids=["plru", "adversarial"])
def test_apply_trace_matches_fold_of_apply_op(g, policy):
    rng = random.Random(f"fold:{g.num_sets}:{policy.replacement}")
    outcomes = set()
    for trial in range(12 if g is G8K else 120):
        if trial % 3 == 0:
            state = MicroArchState.initial(g, CM.flushable_words)
        else:
            state = dense_state(rng, g)
        trace = random_trace(rng, g, state, rng.randint(1, 40))
        if trial % 4 == 1:
            # An explicit word list that may run out partway through.
            words = [rng.getrandbits(64) for _ in range(rng.randrange(2 * len(trace)))]
            make_oracle = lambda: NondetOracle(words=words)
        else:
            make_oracle = lambda: NondetOracle(key=f"fold:{trial}")
        want = outcome(fold_apply_op, state, trace, make_oracle, g, policy)
        got = outcome(apply_trace, state, trace, make_oracle, g, policy)
        assert got == want, (trial, trace)
        outcomes.add(want[0][0] if want[0][0] == "ok" else want[0][2])
    # The random traces reached success, a past pad and an exhausted oracle.
    assert outcomes == {"ok", PadViolation, ModelError}


def test_apply_trace_fold_edge_cases():
    rng = random.Random("fold-edges")
    key = lambda: NondetOracle(key="edges")

    def same(state, trace, make_oracle=key, g=G, policy=PLRU):
        want = outcome(fold_apply_op, state, trace, make_oracle, g, policy)
        assert outcome(apply_trace, state, trace, make_oracle, g, policy) == want
        return want

    s = dense_state(rng, G)
    # A negative physical address is a bare ValueError, raised before the
    # operation draws a word.
    assert same(s, (Read(0, 0x40), Write(0, -64))) == (("bare", ValueError), 2)
    assert same(s, (Read(0, -1),)) == (("bare", ValueError), 0)
    # A pad in the past stops the trace at its index, keeping the read before.
    after_read = apply_op(s, Read(0, 0x40), key(), G, CM, PLRU)
    assert same(s, (Read(0, 0x40), PadTo(0), Read(0, 0x80)))[0] == (
        "trace-error", 1, PadViolation, after_read)
    # An oracle that runs out between the mixing word and the jitter word.
    words = lambda: NondetOracle(words=[1, 2, 3])
    after_read = apply_op(s, Read(0, 0x40), words(), G, CM, PLRU)
    assert same(s, (Read(0, 0x40), Write(0, 0x80)), words) == (
        ("trace-error", 1, ModelError, after_read), 4)
    # Addresses at and above 2^64, above 2^127 and negative virtual ones;
    # empty off-core targets.
    wide = (Write(1 << 64, (1 << 64) + 0x40), Read((1 << 127) + 5, 0x40), Read(-3, 0x80),
            Read(0x40, (1 << 127) + 0x40), OffCoreFlush(frozenset()),
            Write(3, 0x40), OnCoreFlush(), Read(1 << 130, 1 << 131))
    for policy in (PLRU, ADV):
        assert same(s, wide, policy=policy)[0][0] == "ok"
    # Flushable words outside 64 bits mix as their residues mod 2^64.
    odd = MicroArchState((-1, 1 << 70) + (5,) * 6, s.sets, s.clock)
    assert same(odd, (Read(0, 0x40), Read(1, 0x80)))[0][0] == "ok"
    assert apply_trace(s, (), key(), G, CM, PLRU) is s

    # Level-2 entries planted by perturb_invisible in the sets domain 0
    # cannot see, then read from.
    lines = [n * G.line_size for n in range(4 * G.num_sets)]
    base = MicroArchState.initial(G, CM.flushable_words)
    mixed = perturb_invisible(base, 0, TWO_DOMAINS, G, lines, seed=3, max_level=2)
    assert any(e is not None and e[1] == 2 for cs in mixed.sets for e in cs.ways)
    trace = tuple(Read(a, a) for a in rng.sample(lines, 60))
    for policy in (PLRU, ADV):
        assert same(mixed, trace, policy=policy)[0][0] == "ok"


def test_cache_set_repr_is_the_dataclass_text():
    """Digests hash CacheSet's repr, so the named tuple's text must stay the
    one the frozen dataclass it replaced printed."""
    Generated = dataclasses.make_dataclass(
        "CacheSet", [("ways", tuple), ("meta", int, dataclasses.field(default=0))],
        frozen=True)
    rng = random.Random("repr")
    for _ in range(300):
        ways = tuple(None if rng.random() < 0.3 else
                     (rng.getrandbits(48) & ~63, rng.randint(1, 2))
                     for _ in range(rng.choice([1, 2, 4, 8])))
        meta = rng.choice([0, rng.getrandbits(64), (1 << 64) - 1])
        assert repr(CacheSet(ways, meta)) == repr(Generated(ways, meta))
        assert repr(CacheSet(ways)) == repr(Generated(ways))


def test_trace_ops_of_different_kinds_stay_distinct():
    """Trace ops compare by class, so a read swapped for a write is a change;
    named tuples would compare Read(v, p) and Write(v, p) equal as tuples."""
    ops = [Read(0x40, 0x80), Write(0x40, 0x80), OnCoreFlush(),
           OffCoreFlush(frozenset({0x80})), PadTo(0x80)]
    for i, a in enumerate(ops):
        for b in ops[i + 1:]:
            assert a != b
    assert len(set(ops)) == len(ops) and len(dict.fromkeys(ops)) == len(ops)
    assert Read(0x40, 0x80) == Read(0x40, 0x80) and len({Read(1, 2), Read(1, 2)}) == 1


def test_state_records_are_named_tuples_built_by_keyword():
    cs = CacheSet(ways=(None, (0x40, 1)))
    assert cs.meta == 0 and isinstance(cs, tuple)
    s = MicroArchState(flushable=(0,) * 8, sets=(cs,) * G.num_sets)
    assert s.clock == 0 and s._replace(clock=5) == MicroArchState((0,) * 8, s.sets, 5)
    vp = VisibleProjection(role="suspended", flushable=None, visible_sets=(), clock=None)
    assert vp == visible_projection(s, 0, PLRU, "suspended", G)._replace(visible_sets=())
