"""Geometry, colouring and policy checks against brute-force oracles, and the
process fan-out."""

import multiprocessing
import os
import random
import signal
import time

import pytest

from tpsim.core import (
    AddressMap,
    CacheGeometry,
    ConfigError,
    DomainPolicy,
    DomainSpec,
    TranslationFault,
    collision_set_of,
    colour_of,
    fan_out,
    physical_universe,
    pool_size,
    set_index_of,
    universe_lines,
    validate_policy,
)

REF_G = CacheGeometry(line_size=64, num_sets=64, num_ways=2, page_size=1024)


def random_geometry(rng):
    line = rng.choice([16, 32, 64, 128])
    # Keep the cache span at least one page so colouring is defined.
    page = line * rng.choice([4, 8, 16])
    sets = rng.choice([1, 2, 4, 8]) * (page // line)
    ways = rng.choice([1, 2, 4])
    return CacheGeometry(line_size=line, num_sets=sets, num_ways=ways, page_size=page)


def test_reference_shape():
    assert REF_G.num_colours == 4
    assert REF_G.lines_per_page == 16
    assert REF_G.num_sets // REF_G.num_colours == 16      # sets per colour
    assert len(REF_G.page_lines(0x400)) == 16


def test_geometry_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        CacheGeometry(line_size=48, num_sets=64, num_ways=2, page_size=1024)
    with pytest.raises(ConfigError):
        CacheGeometry(line_size=64, num_sets=63, num_ways=2, page_size=1024)
    with pytest.raises(ConfigError):
        CacheGeometry(line_size=64, num_sets=64, num_ways=0, page_size=1024)
    with pytest.raises(ConfigError):
        CacheGeometry(line_size=64, num_sets=64, num_ways=3, page_size=1024)
    with pytest.raises(ConfigError):
        CacheGeometry(line_size=64, num_sets=64, num_ways=2, page_size=32)
    with pytest.raises(ConfigError):
        # cache span (4 sets * 64) smaller than one page
        CacheGeometry(line_size=64, num_sets=4, num_ways=2, page_size=1024)
    with pytest.raises(ConfigError, match="geometry.num_sets: must be >= 2, got 1"):
        CacheGeometry(line_size=64, num_sets=1, num_ways=2, page_size=64)


def test_set_index_walks_lines():
    """The index advances by one per line and wraps at the set count."""
    rng = random.Random("set-index")
    for _ in range(1000):
        g = random_geometry(rng)
        p = rng.randrange(1 << 24)
        base = set_index_of(p, g)
        assert 0 <= base < g.num_sets
        assert set_index_of(p + g.line_size, g) == (base + 1) % g.num_sets
        # stable within one line
        assert set_index_of(g.line_of(p) + g.line_size - 1, g) == \
            set_index_of(g.line_of(p), g)
    with pytest.raises(ValueError):
        set_index_of(-1, REF_G)


def test_colour_matches_set_footprints():
    """Two pages share a colour exactly when their lines land on the same
    cache sets.  That footprint comparison is the defining property; the
    arithmetic shortcut must agree with it."""
    rng = random.Random("colours")
    for _ in range(1000):
        g = random_geometry(rng)
        p1 = g.page_of(rng.randrange(1 << 24))
        p2 = g.page_of(rng.randrange(1 << 24))
        f1 = {set_index_of(l, g) for l in g.page_lines(p1)}
        f2 = {set_index_of(l, g) for l in g.page_lines(p2)}
        same_colour = colour_of(p1, g) == colour_of(p2, g)
        assert same_colour == (f1 == f2)
        if not same_colour:
            assert not (f1 & f2), "different colours must not share any set"


def test_colour_count_is_exact():
    rng = random.Random("colour-count")
    for _ in range(50):
        g = random_geometry(rng)
        footprints = {
            frozenset(set_index_of(l, g) for l in g.page_lines(i * g.page_size))
            for i in range(4 * g.num_colours)
        }
        assert len(footprints) == g.num_colours


def test_colour_of_set_inverts_colouring():
    for g in (REF_G, CacheGeometry(32, 32, 2, 256)):
        for idx in range(g.num_sets):
            c = g.colour_of_set(idx)
            page = c * g.page_size
            assert idx in {set_index_of(l, g) for l in g.page_lines(page)}


def test_collision_set_brute_force_agreement():
    rng = random.Random("collisions")
    for _ in range(200):
        g = random_geometry(rng)
        pages = [g.page_of(rng.randrange(1 << 20)) for _ in range(6)]
        universe = sorted(universe_lines(pages, g))
        p = rng.choice(universe)
        cs = collision_set_of(p, g, universe)
        assert p in cs
        for q in universe:
            assert (q in cs) == (set_index_of(q, g) == set_index_of(p, g))
    with pytest.raises(ValueError):
        collision_set_of(0x12345, REF_G, [0x0])


def test_address_map_translation():
    amap = AddressMap(page_size=1024, pages={0x10000: 0x1400, 0x10400: 0x2400})
    assert amap.translate(0x10000) == 0x1400
    assert amap.translate(0x10013) == 0x1413
    assert amap.translate(0x107FF) == 0x27FF
    assert amap.translate_page(0x10400) == 0x2400
    assert amap.mapped_pages() == frozenset({0x10000, 0x10400})
    with pytest.raises(TranslationFault):
        amap.translate(0x99999)
    with pytest.raises(ValueError):
        amap.translate_page(0x10001)
    with pytest.raises(ConfigError):
        AddressMap(page_size=1024, pages={0x10001: 0x1400})


def test_address_map_digest_is_order_free():
    a = AddressMap(1024, {0x1000: 0x400, 0x2000: 0x800})
    b = AddressMap(1024, {0x2000: 0x800, 0x1000: 0x400})
    assert a.digest_key() == b.digest_key()


def _policy(domains, globals_=frozenset({0xC80})):
    return DomainPolicy(
        domains=domains, kernel_globals=frozenset(globals_),
        switch_deadline=320, slice_length=8192,
    )


def _dom(ident, colours, image, region):
    return DomainSpec(ident=ident, colours=frozenset(colours),
                      kernel_image=frozenset(image), user_region=frozenset(region))


def test_policy_rejects_duplicates_and_bad_values():
    d0 = _dom(0, {0}, {0x400}, set())
    with pytest.raises(ConfigError):
        _policy((d0, _dom(0, {1}, {0x800}, set())))
    with pytest.raises(ConfigError):
        DomainPolicy(domains=(d0,), kernel_globals=frozenset(),
                     switch_deadline=0, slice_length=100)
    with pytest.raises(ConfigError):
        DomainPolicy(domains=(d0,), kernel_globals=frozenset(),
                     switch_deadline=10, slice_length=100, replacement="fifo")


def test_validate_policy_flags_the_discipline_breaches():
    g = REF_G
    amap = AddressMap(1024, {0x10000: 0x1000, 0x20000: 0x1400})
    # 0x1000 is page 4 colour 0; 0x1400 is page 5 colour 1
    ok = _policy((
        _dom(0, {0}, {0x0}, {0x10000}),      # image page 0 colour 0
        _dom(1, {1}, {0x400}, {0x20000}),
    ))
    assert validate_policy(ok, amap, g) == []

    overlap = _policy((
        _dom(0, {0, 1}, {0x0}, set()),
        _dom(1, {1}, {0x400}, set()),
    ))
    assert any("already claimed" in p for p in validate_policy(overlap, amap, g))

    out_of_range = _policy((_dom(0, {7}, set(), set()),))
    assert any("out of range" in p for p in validate_policy(out_of_range, amap, g))

    wrong_image = _policy((_dom(0, {0}, {0x400}, set()),))  # colour 1 image
    assert any("kernel image" in p for p in validate_policy(wrong_image, amap, g))

    unmapped = _policy((_dom(0, {0}, {0x0}, {0x5000}),))
    assert any("unmapped" in p for p in validate_policy(unmapped, amap, g))

    wrong_colour = _policy((_dom(0, {0}, {0x0}, {0x20000}),))  # maps to colour 1
    assert any("outside the domain's colours" in p
               for p in validate_policy(wrong_colour, amap, g))

    aliased_map = AddressMap(1024, {0x10000: 0x1000, 0x10400: 0x1000})
    aliasing = _policy((_dom(0, {0}, {0x0}, {0x10000, 0x10400}),))
    assert any("alias" in p for p in validate_policy(aliasing, aliased_map, g))

    into_global = _policy((_dom(0, {0}, {0x0}, {0x10000}),),
                          globals_={0x1010})  # global page = 0x1000
    assert any("kernel global page" in p for p in validate_policy(into_global, amap, g))


def test_global_pages_and_sets(ref_cfg):
    pol, g = ref_cfg.policy, ref_cfg.geometry
    assert pol.global_pages(g) == frozenset({0xC00, 0x1C00, 0x2C00})
    # all three globals were placed in the same set on purpose
    assert pol.global_set_indices(g) == frozenset({50})


def test_physical_universe_covers_everything(ref_cfg):
    uni = physical_universe(ref_cfg.policy, ref_cfg.amap, ref_cfg.geometry)
    for d in ref_cfg.policy.domains:
        assert d.kernel_image <= uni
        for v in d.user_region:
            assert ref_cfg.amap.translate_page(v) in uni
    assert ref_cfg.policy.global_pages(ref_cfg.geometry) <= uni
    lines = universe_lines(uni, ref_cfg.geometry)
    assert len(lines) == len(uni) * ref_cfg.geometry.lines_per_page


# Workers look these up by name, so they live at module level.
def _tagged(tag, item):
    return tag, item, os.getpid()


def _nap(item):
    time.sleep(item)
    return item


def _fail_on(bad, item):
    if item == bad:
        raise TranslationFault(item)
    return item


def _timed_out(signum, frame):
    raise TimeoutError("fan_out did not return")


def test_pool_size_is_bounded_by_jobs_items_and_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert pool_size(64, 4) == 4          # attack --samples 4 --jobs 64
    assert pool_size(64, 100) == 8
    assert pool_size(3, 100) == 3
    assert pool_size(2, 1) == 1
    assert pool_size(2, 0) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pool_size(4, 10) == 1


def test_fan_out_keeps_item_order_and_runs_one_worker_in_the_caller():
    items = list(range(7))
    serial = list(fan_out(_tagged, ("x",), items, 1))
    assert [r[:2] for r in serial] == [("x", i) for i in items]
    assert {r[2] for r in serial} == {os.getpid()}
    assert [r[2] for r in fan_out(_tagged, ("x",), [5], 2)] == [os.getpid()]
    parallel = list(fan_out(_tagged, ("x",), items, 2))
    assert [r[:2] for r in parallel] == [r[:2] for r in serial]
    if pool_size(2, len(items)) > 1:
        assert os.getpid() not in {r[2] for r in parallel}
    assert multiprocessing.active_children() == []


def test_fan_out_stopped_early_does_not_wait_for_started_items():
    results = fan_out(_nap, (), [0, 30, 30, 30], 2)
    assert next(results) == 0
    start = time.monotonic()
    results.close()
    assert time.monotonic() - start < 15
    assert multiprocessing.active_children() == []


def test_fan_out_raises_a_worker_error_and_leaves_no_worker():
    # The error crosses a pickle boundary; one that cannot be rebuilt there
    # would leave the caller waiting for ever, hence the alarm.
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(60)
    try:
        with pytest.raises(TranslationFault) as e:
            list(fan_out(_fail_on, (0x3000,), list(range(0x1000, 0x6000, 0x1000)), 2))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert e.value.vaddr == 0x3000
    assert multiprocessing.active_children() == []
