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

import hashlib
import random
from typing import Iterable

from .core import AddressMap, CacheGeometry, DomainPolicy, set_index_of
from .microarch import (
    CacheSet,
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
    visible = frozenset(visible_set_indices(observer, policy, g, "executing"))
    rng = random.Random(f"perturb:{seed}")
    by_set: dict[int, list[int]] = {}
    for line in universe_lines:
        by_set.setdefault(set_index_of(line, g), []).append(line)

    new_sets = list(state.sets)
    changed = False
    for idx in range(g.num_sets):
        if idx in visible:
            continue
        candidates = sorted(by_set.get(idx, []))
        ways: list[tuple[int, int] | None] = [None] * g.num_ways
        if candidates:
            occupancy = rng.randint(0, g.num_ways)
            tags = rng.sample(candidates, min(occupancy, len(candidates)))
            for i, t in enumerate(tags):
                ways[i] = (g.line_of(t), rng.randint(1, max_level))
        new_sets[idx] = CacheSet(tuple(ways), meta=rng.getrandbits(64))
        changed = True
    if not changed:
        return state
    return MicroArchState(state.flushable, tuple(new_sets), state.clock)
