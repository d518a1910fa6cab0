"""The trace chooser: adversarial in choice, constrained in what it can see."""

import hashlib
import random

import pytest

from tpsim.core import (
    AddressMap, CacheGeometry, DomainPolicy, DomainSpec, TranslationFault,
)
from tpsim.microarch import (
    CacheSet,
    MicroArchState,
    Read,
    VisibleProjection,
    Write,
    adheres,
    visible_projection,
)
from tpsim.selector import (
    _shuffle,
    perturb_invisible,
    projection_digest,
    select_trace,
    select_trace_peeking,
)

G = CacheGeometry(line_size=64, num_sets=64, num_ways=2, page_size=1024)
POL = DomainPolicy(
    domains=(
        DomainSpec(0, frozenset({0, 1}), frozenset(), frozenset()),
        DomainSpec(1, frozenset({2, 3}), frozenset(), frozenset()),
    ),
    kernel_globals=frozenset({0xC80}),
    switch_deadline=320,
    slice_length=8192,
)
AMAP = AddressMap(1024, {
    0x10000: 0x1400, 0x10400: 0x2400, 0x10800: 0x1000,
    0x20000: 0x3C00, 0x20400: 0x4C00,
})
UNIVERSE = [p + off for p in (0x0, 0x400, 0xC00, 0x1000, 0x1400, 0x2400,
                              0x3C00, 0x4C00)
            for off in range(0, 1024, 64)]


def _vis(state, observer=0):
    return visible_projection(state, observer, POL, "executing", G)


def test_selection_is_deterministic():
    s = MicroArchState.initial(G, 8)
    ta = {0x10000, 0x10400}
    for seed in range(50):
        a = select_trace(ta, _vis(s), AMAP, 64, seed)
        b = select_trace(ta, _vis(s), AMAP, 64, seed)
        assert a == b
        assert a != select_trace(ta, _vis(s), AMAP, 64, f"other:{seed}")


def test_selected_traces_adhere():
    rng = random.Random("adh")
    pages = sorted(AMAP.pages)
    for trial in range(300):
        ta = set(rng.sample(pages, rng.randint(1, 3)))
        s = MicroArchState.initial(G, 8)
        tr = select_trace(ta, _vis(s), AMAP, rng.randint(1, 64), trial)
        ok, idx = adheres(tr, ta, AMAP, POL.kernel_globals)
        assert ok, (trial, idx, tr[idx] if idx is not None else None)


def test_budget_is_respected_and_empty_ta_is_empty():
    s = MicroArchState.initial(G, 8)
    for budget in (1, 3, 17, 64):
        tr = select_trace({0x10000, 0x10400, 0x20000}, _vis(s), AMAP, budget, 9)
        assert 1 <= len(tr) <= budget
    assert select_trace(set(), _vis(s), AMAP, 8, 0) == ()
    with pytest.raises(ValueError):
        select_trace({0x10000}, _vis(s), AMAP, 0, 0)


def test_operation_mix_over_many_seeds():
    """Only reads and writes; reads dominate, writes land near a quarter."""
    s = MicroArchState.initial(G, 8)
    ta = {0x10000, 0x10400}
    reads = writes = 0
    for seed in range(400):
        plain = select_trace(ta, _vis(s), AMAP, 32, seed)
        assert all(isinstance(op, (Read, Write)) for op in plain)
        reads += sum(isinstance(op, Read) for op in plain)
        writes += sum(isinstance(op, Write) for op in plain)
    frac = writes / (reads + writes)
    assert 0.15 < frac < 0.35


def test_visible_projection_is_the_whole_story():
    """Re-rolling the sets the chooser cannot see must not change its pick."""
    rng = random.Random("dep")
    ta = {0x10000, 0x10400, 0x10800}
    for trial in range(300):
        s = MicroArchState.initial(G, 8)
        # run a couple of ops so the state is not pristine
        flushable = tuple(rng.getrandbits(64) for _ in range(8))
        s = MicroArchState(flushable, s.sets, clock=rng.randrange(5000))
        p = perturb_invisible(s, 0, POL, G, UNIVERSE, seed=trial)
        assert _vis(s) == _vis(p)
        assert p.flushable == s.flushable and p.clock == s.clock
        base = select_trace(ta, _vis(s), AMAP, 48, trial)
        assert select_trace(ta, _vis(p), AMAP, 48, trial) == base


def test_peeking_variant_reacts_to_hidden_state():
    ta = {0x10000, 0x10400, 0x10800}
    hits = 0
    for trial in range(100):
        s = MicroArchState.initial(G, 8)
        p = perturb_invisible(s, 0, POL, G, UNIVERSE, seed=f"peek:{trial}")
        a = select_trace_peeking(ta, s, _vis(s), AMAP, 48, trial)
        b = select_trace_peeking(ta, p, _vis(p), AMAP, 48, trial)
        if a != b:
            hits += 1
    assert hits > 50  # hidden sets were rerolled, the choice should swing


def test_perturb_leaves_single_domain_alone():
    solo = DomainPolicy(
        domains=(DomainSpec(0, frozenset({0, 1, 2, 3}), frozenset(), frozenset()),),
        kernel_globals=frozenset(), switch_deadline=320, slice_length=8192,
    )
    s = MicroArchState.initial(G, 8)
    assert perturb_invisible(s, 0, solo, G, UNIVERSE, seed=1) is s


# --- the cached fast paths against the text and draws they replace -----------

def _reference_digest(parts):
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return h.hexdigest()


def _random_cache_set(rng):
    ways = tuple(None if rng.random() < 0.4 else
                 (rng.getrandbits(20) & ~63, rng.randint(1, 3)) for _ in range(G.num_ways))
    return CacheSet(ways, rng.choice([0, rng.getrandbits(64)]))


def test_projection_digest_hashes_the_projection_repr():
    """The same bytes as _digest over the four fields; 0 and 1 visible sets
    are where a tuple's repr has its edge cases, "()" and "(x,)"."""
    rng = random.Random("projection-digest")
    pool = [_random_cache_set(rng) for _ in range(40)]
    for trial in range(400):
        count = trial % 4 if trial < 200 else rng.randrange(70)
        sets = tuple((rng.randrange(G.num_sets), rng.choice(pool)) for _ in range(count))
        if rng.random() < 0.5:
            vp = VisibleProjection("executing", tuple(rng.getrandbits(64) for _ in range(8)),
                                   sets, rng.randrange(1 << 40))
        else:
            vp = VisibleProjection("suspended", None, sets, None)
        want = _reference_digest([vp.role, vp.flushable, vp.visible_sets, vp.clock])
        assert projection_digest(vp) == want, vp


def test_shuffle_replica_draws_what_random_shuffle_draws():
    for n in list(range(0, 12)) + [31, 32, 33, 64, 100]:
        for seed in range(20):
            a, b = random.Random(f"shuffle:{seed}"), random.Random(f"shuffle:{seed}")
            want, got = list(range(n)), list(range(n))
            a.shuffle(want)
            _shuffle(b.getrandbits, got)
            assert got == want
            assert a.getrandbits(64) == b.getrandbits(64)    # same words drawn


def _reference_select(ta, visible, amap, budget, seed, line_size=64):
    """select_trace as it read before its per-footprint plans and shuffle
    replica; every fast path must choose exactly this trace."""
    ta_pages = sorted(set(ta))
    if not ta_pages:
        return ()
    key = ":".join([
        "select", str(seed), _reference_digest([visible.role, visible.flushable,
                                                visible.visible_sets, visible.clock]),
        _reference_digest([ta_pages, amap.digest_key(), budget]), "",
    ])
    rng = random.Random(key)
    lines = [vpage + off for vpage in ta_pages for off in range(0, amap.page_size, line_size)]
    mode = rng.random()
    if 0.90 <= mode < 0.95:
        chosen = rng.sample(lines, rng.randint(1, min(len(lines), budget)))
    else:
        chosen = list(lines)
        rng.shuffle(chosen)
        chosen = chosen[:budget]
        while mode >= 0.95 and len(chosen) < budget and rng.random() < 0.7:
            chosen.append(rng.choice(lines))
    ops = []
    for v in chosen:
        p = amap.translate(v)
        ops.append(Write(v, p) if rng.random() < 0.25 else Read(v, p))
    return tuple(ops)


def test_select_trace_chooses_the_reference_trace():
    rng = random.Random("select-reference")
    pages = sorted(AMAP.pages) + [0x30000]      # the last one is unmapped
    for trial in range(600):
        state = MicroArchState(tuple(rng.getrandbits(64) for _ in range(8)),
                               tuple(_random_cache_set(rng) for _ in range(G.num_sets)),
                               rng.randrange(1 << 20))
        vis = _vis(state, trial % 2)
        ta = set(rng.sample(pages, rng.randint(1, 3)))
        budget = rng.choice([1, 5, 16, 40, 64])
        line_size = rng.choice([64, 256])
        try:
            want = _reference_select(ta, vis, AMAP, budget, trial, line_size)
        except TranslationFault as e:
            with pytest.raises(TranslationFault) as got:
                select_trace(ta, vis, AMAP, budget, trial, line_size=line_size)
            assert got.value.vaddr == e.vaddr
            continue
        assert select_trace(ta, vis, AMAP, budget, trial, line_size=line_size) == want
