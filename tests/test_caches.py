"""The model's memo caches are keyed by value and bounded, so a long run of
distinct states, footprints or policies cannot grow memory without limit."""

import pytest

from tpsim import core, kernel, microarch, selector
from tpsim.core import AddressMap, CacheGeometry, DomainPolicy, DomainSpec
from tpsim.microarch import CacheSet

G = CacheGeometry(line_size=64, num_sets=64, num_ways=2, page_size=1024)
AMAP = AddressMap(1024, {0x10000: 0x1400, 0x10400: 0x2400})
POLICY = DomainPolicy(
    domains=(DomainSpec(0, frozenset({0, 1}), frozenset(), frozenset()),),
    kernel_globals=frozenset({0xC80}), switch_deadline=320, slice_length=8192,
)

# Each cache with a call that gives a new key for every k.
CACHES = [
    (selector._visible_set_text, lambda k: ((k % 64, CacheSet((None, (k * 64, 1)), k)),)),
    (selector._footprint_plan, lambda k: ((0x10000 + 1024 * k,), AMAP, 64, 64)),
    (microarch._access_terms, lambda k: (k, 64 * k, 64, 64, 8)),
    (microarch._plru_masks, lambda k: (k + 1,)),
    (microarch._lanes, lambda k: (k + 1,)),
    (kernel._partition_subset_invariant, lambda k: (frozenset({0x10000 * (k + 1)}), 0,
                                                    POLICY, AMAP, G)),
    (core._global_pages, lambda k: (frozenset({64 * k}), G)),
    (core._global_set_indices, lambda k: (frozenset({64 * k}), G)),
]


@pytest.mark.parametrize("cache, args", CACHES, ids=[c.__wrapped__.__name__ for c, _ in CACHES])
def test_cache_stays_within_its_bound(cache, args):
    bound = cache.cache_info().maxsize
    assert bound is not None and bound <= 512
    cache.cache_clear()
    for k in range(bound + 20):
        cache(*args(k))
    info = cache.cache_info()
    assert info.misses == bound + 20      # every key was new
    assert info.currsize == bound
