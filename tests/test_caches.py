"""The model's memo caches are keyed by value and bounded, so a long run of
distinct states or footprints cannot grow memory without limit."""

import pytest

from tpsim import microarch, selector
from tpsim.core import AddressMap

AMAP = AddressMap(1024, {0x10000: 0x1400, 0x10400: 0x2400})

# Each cache with a call that gives a new key for every k.
CACHES = [
    (selector._page_plan, lambda k: (0x10000 + 1024 * k, AMAP, 64)),
    (selector._footprint_plan, lambda k: ((0x10000 + 1024 * k,), AMAP, 64, 64)),
    (microarch._access_terms, lambda k: (k, 64 * k, 64, 64, 8)),
    (microarch._plru_masks, lambda k: (k + 1,)),
    (microarch._lanes, lambda k: (k + 1,)),
    (selector._pool, lambda k: ((64 * k,), 2, 2)),
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


def test_a_pool_keeps_at_most_its_memo_cap():
    """A pool of 30 lines in 4 ways at 3 levels has 53M sets of four lines;
    its memo keeps the first _MEMO_CAP keys drawn and decodes the rest."""
    pool = selector._Pool(tuple(range(0, 30 * 64, 64)), 4, 3)
    assert pool.mods[4] == 5 * 30 * 29 * 28 * 27 * 3 ** 4
    keys = range(0, 5 * pool.mods[4], pool.mods[4] // 997)
    drawn = [pool[k % pool.mods[k % 5]] for k in keys]
    assert len(keys) > 2 * selector._MEMO_CAP and len(pool) == selector._MEMO_CAP
    assert [pool[k % pool.mods[k % 5]] for k in keys] == drawn
