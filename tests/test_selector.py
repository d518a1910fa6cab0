"""The trace chooser: adversarial in choice, constrained in what it can see."""

import dataclasses
import hashlib
import marshal
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import tpsim
from tpsim.core import (
    REPLACEMENTS, AddressMap, CacheGeometry, DomainPolicy, DomainSpec, TranslationFault,
)
from tpsim.microarch import (
    CacheSet,
    MicroArchState,
    Read,
    Write,
    adheres,
    visible_projection,
)
from tpsim.selector import (
    draw_sets,
    full_state_digest,
    perturb_invisible,
    projection_digest,
    select_trace,
    select_trace_peeking,
    set_draw,
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


# --- digests by value, and the selection stream --------------------------------

def _random_cache_set(rng):
    ways = tuple(None if rng.random() < 0.4 else
                 (rng.getrandbits(20) & ~63, rng.randint(1, 3)) for _ in range(G.num_ways))
    return CacheSet(ways, rng.choice([0, rng.getrandbits(64)]))


def _copy_int(x):
    """An int equal to x that is a distinct object where CPython allows it."""
    return int.from_bytes(x.to_bytes(9, "little", signed=True), "little", signed=True)


def _rebuilt(state):
    """state with every tuple and large int rebuilt as a new object."""
    sets = tuple(CacheSet(tuple(None if e is None else (_copy_int(e[0]), _copy_int(e[1]))
                                for e in s.ways), _copy_int(s.meta)) for s in state.sets)
    return MicroArchState(tuple(map(_copy_int, state.flushable)), sets, _copy_int(state.clock))


def _one_field_changes(vp):
    """Projections that each differ from vp in exactly one field."""
    i, cset = next((i, s) for i, s in vp.visible_sets if s.ways[0] is not None)
    k = vp.visible_sets.index((i, cset))
    tag, level = cset.ways[0]

    def with_set(new_i, new_set):
        sets = list(vp.visible_sets)
        sets[k] = (new_i, new_set)
        return vp._replace(visible_sets=tuple(sets))

    yield vp._replace(role="suspended")
    yield vp._replace(flushable=vp.flushable[:3] + (vp.flushable[3] ^ 1,) + vp.flushable[4:])
    yield with_set(i, cset._replace(ways=((tag + 64, level),) + cset.ways[1:]))
    yield with_set(i, cset._replace(ways=((tag, level % 3 + 1),) + cset.ways[1:]))
    yield with_set(i, cset._replace(ways=(None,) + cset.ways[1:]))
    yield with_set(i, cset._replace(meta=cset.meta ^ 1))
    yield with_set(i + G.num_sets, cset)
    yield vp._replace(clock=vp.clock + 1)


def _layout_digest(head, sets):
    """The documented layout: marshal version 2 of head, then of each (index,
    ways, meta), one set at a time, hashed with 16-byte BLAKE2b."""
    encoded = marshal.dumps(head, 2) + b"".join(
        marshal.dumps((i, ways, meta), 2) for i, (ways, meta) in sets)
    return hashlib.blake2b(encoded, digest_size=16).hexdigest()


def test_digests_hash_the_documented_byte_layout():
    """Random executing and suspended projections of both observers, and the
    whole states, under both replacement policies: empty ways, level-2
    entries and 64-bit adversarial metadata included."""
    rng = random.Random("digest-layout")
    universe = range(0, 4 * G.num_sets * G.line_size, G.line_size)
    seen = set()
    for replacement in REPLACEMENTS:
        policy = dataclasses.replace(POL, replacement=replacement)
        draw = set_draw(universe, G, range(G.num_sets), 2, replacement)
        for _ in range(250):
            sets, (clock,) = draw_sets(rng, draw, "Q")
            state = MicroArchState(tuple(rng.getrandbits(64) for _ in range(8)), tuple(sets), clock)
            assert full_state_digest(state) == _layout_digest(
                (state.flushable, len(state.sets), state.clock), enumerate(state.sets))
            for observer in (0, 1):
                for role in ("executing", "suspended"):
                    vp = visible_projection(state, observer, policy, role, G)
                    assert projection_digest(vp) == _layout_digest(
                        (vp.role, vp.flushable, len(vp.visible_sets), vp.clock), vp.visible_sets)
            for cset in sets:
                if cset.is_empty():
                    seen.add(("empty", replacement))
                if any(e is not None and e[1] == 2 for e in cset.ways):
                    seen.add(("level 2", replacement))
                if cset.meta >= 1 << 63:
                    seen.add(("64-bit meta", replacement))
    assert seen >= {("empty", "plru"), ("empty", "adversarial"), ("level 2", "plru"),
                    ("level 2", "adversarial"), ("64-bit meta", "adversarial")}


def test_a_digest_depends_on_the_value_alone():
    """Equal projections and states digest equal however their objects are
    built or shared, and any one changed field changes the digest."""
    rng = random.Random("value-digest")
    shared_entry = (0x1440, 2)
    for trial in range(100):
        sets = [_random_cache_set(rng) for _ in range(G.num_sets)]
        # One entry tuple shared by many sets, and one flushable word repeated.
        for j in range(0, G.num_sets, 7):
            sets[j] = sets[j]._replace(ways=(shared_entry,) + sets[j].ways[1:])
        word = rng.getrandbits(64)
        state = MicroArchState((word,) * 4 + tuple(rng.getrandbits(64) for _ in range(4)),
                               tuple(sets), rng.randrange(1 << 40))
        vp = _vis(state, trial % 2)
        copies = [pickle.loads(pickle.dumps(state)), _rebuilt(state)]
        for copy in copies:
            assert copy == state and copy.sets[0] is not state.sets[0]
            assert full_state_digest(copy) == full_state_digest(state)
            assert projection_digest(_vis(copy, trial % 2)) == projection_digest(vp)
        assert projection_digest(pickle.loads(pickle.dumps(vp))) == projection_digest(vp)
        role = "".join(vp.role)     # equal, but not the interned literal
        assert role is not vp.role
        assert projection_digest(vp._replace(role=role)) == projection_digest(vp)

        changed = list(_one_field_changes(vp))
        assert len(changed) == 8 and all(c != vp for c in changed)
        digests = {projection_digest(c) for c in changed}
        assert projection_digest(vp) not in digests and len(digests) == len(changed)

        k = next(i for i, s in enumerate(state.sets) if s.ways[0] is not None)
        tag, level = state.sets[k].ways[0]
        states = [state._replace(flushable=(word ^ 1,) + state.flushable[1:]),
                  state._replace(clock=state.clock + 1)]
        for new in (state.sets[k]._replace(ways=((tag + 64, level),) + state.sets[k].ways[1:]),
                    state.sets[k]._replace(ways=((tag, level % 3 + 1),) + state.sets[k].ways[1:]),
                    state.sets[k]._replace(meta=state.sets[k].meta ^ 1)):
            states.append(state._replace(sets=state.sets[:k] + (new,) + state.sets[k + 1:]))
        digests = {full_state_digest(s) for s in states}
        assert full_state_digest(state) not in digests and len(digests) == len(states)


def test_select_trace_takes_its_modes_and_writes_in_proportion():
    """Over 2,000 seeds: 90% of calls take every line exactly once, 5% a
    sample and 5% pad with repeats (a pad may stop at once, and a sample may
    be whole); no trace is over budget, and a quarter of operations write."""
    s = MicroArchState.initial(G, 8)
    ta = {0x10000, 0x10400}
    lines = [p + off for p in sorted(ta) for off in range(0, 1024, 64)]
    n, budget, seeds = len(lines), 64, 2000
    whole = sample = padded = writes = ops = 0
    for seed in range(seeds):
        tr = select_trace(ta, _vis(s), AMAP, budget, seed)
        vs = [op.v for op in tr]
        assert 1 <= len(tr) <= budget and set(vs) <= set(lines)
        if len(tr) > n:
            assert sorted(vs[:n]) == lines      # every line once, then repeats
            padded += 1
        elif len(tr) == n:
            assert sorted(vs) == lines
            whole += 1
        else:
            assert len(set(vs)) == len(vs)
            sample += 1
        writes += sum(isinstance(op, Write) for op in tr)
        ops += len(tr)
    # Expected: whole 0.90 + 0.05/32 + 0.05 * 0.3; sample 0.05 * 31/32; padded 0.05 * 0.7.
    assert abs(whole / seeds - 0.9166) < 0.03
    assert abs(sample / seeds - 0.0484) < 0.02
    assert abs(padded / seeds - 0.035) < 0.02
    assert abs(writes / ops - 0.25) < 0.03


def test_select_trace_stays_on_its_footprint_and_budget():
    """Random states, footprints, budgets and line sizes: each operation reads
    or writes a permitted line at its translation, no trace is over budget or
    repeats a line among its first min(n, budget), and choosing a line of an
    unmapped page faults with that line's address."""
    rng = random.Random("select-footprint")
    unmapped = 0x30000
    faults = 0
    for trial in range(600):
        state = MicroArchState(tuple(rng.getrandbits(64) for _ in range(8)),
                               tuple(_random_cache_set(rng) for _ in range(G.num_sets)),
                               rng.randrange(1 << 20))
        ta = set(rng.sample(sorted(AMAP.pages) + [unmapped], rng.randint(1, 3)))
        budget = rng.choice([1, 5, 16, 40, 64])
        line_size = rng.choice([64, 256])
        lines = [p + off for p in sorted(ta) for off in range(0, AMAP.page_size, line_size)]
        try:
            tr = select_trace(ta, _vis(state, trial % 2), AMAP, budget, trial, line_size=line_size)
        except TranslationFault as e:
            assert e.vaddr in range(unmapped, unmapped + AMAP.page_size, line_size)
            faults += 1
            continue
        vs = [op.v for op in tr][:min(len(lines), budget)]
        assert 1 <= len(tr) <= budget and len(set(vs)) == len(vs)
        assert all(op.v in lines and op.p == AMAP.translate(op.v) for op in tr)
    assert faults > 50


_IN_A_NEW_PROCESS = """
from tpsim.core import AddressMap, CacheGeometry, DomainPolicy, DomainSpec
from tpsim.microarch import MicroArchState, visible_projection
from tpsim.selector import select_trace
G = CacheGeometry(line_size=64, num_sets=64, num_ways=2, page_size=1024)
POL = DomainPolicy(domains=(DomainSpec(0, frozenset({0, 1}), frozenset(), frozenset()),
                            DomainSpec(1, frozenset({2, 3}), frozenset(), frozenset())),
                   kernel_globals=frozenset({0xC80}), switch_deadline=320, slice_length=8192)
AMAP = AddressMap(1024, {0x10000: 0x1400, 0x10400: 0x2400, 0x10800: 0x1000,
                         0x20000: 0x3C00, 0x20400: 0x4C00})
vis = visible_projection(MicroArchState.initial(G, 8), 0, POL, "executing", G)
for seed in range(20):
    print(select_trace({0x10000, 0x10800}, vis, AMAP, 40, seed))
"""


def test_a_selection_is_the_same_in_every_process():
    """The stream depends on no per-process state such as string hashing."""
    src = Path(tpsim.__file__).resolve().parent.parent
    outs = [subprocess.run([sys.executable, "-c", _IN_A_NEW_PROCESS], check=True,
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": h}).stdout
            for h in ("1", "2")]
    vis = _vis(MicroArchState.initial(G, 8))
    here = [repr(select_trace({0x10000, 0x10800}, vis, AMAP, 40, seed)) for seed in range(20)]
    assert outs[0] == outs[1] == "".join(f"{t}\n" for t in here)
