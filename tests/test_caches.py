"""The model's memo caches are keyed by value and bounded, so a long run of
distinct states or footprints cannot grow memory without limit."""

import pytest

from tpsim import microarch, selector
from tpsim.core import AddressMap
from tpsim.microarch import CacheSet

AMAP = AddressMap(1024, {0x10000: 0x1400, 0x10400: 0x2400})

# Each cache with a call that gives a new key for every k.
CACHES = [
    (selector._visible_set_text, lambda k: ((k % 64, CacheSet((None, (k * 64, 1)), k)),)),
    (selector._footprint_plan, lambda k: ((0x10000 + 1024 * k,), AMAP, 64, 64)),
    (microarch._access_terms, lambda k: (k, 64 * k, 64, 64, 8)),
    (microarch._plru_masks, lambda k: (k + 1,)),
    (microarch._lanes, lambda k: (k + 1,)),
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
