"""The model's memo caches are keyed by value and bounded, so a long run of
distinct states or footprints cannot grow memory without limit."""

import importlib
import inspect
import re

import pytest

from tpsim import kernel, microarch, selector
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


MODULES = ("channel", "checks", "cli", "confidentiality", "config", "core", "kernel",
           "microarch", "selector")


def _functools_caches(namespace):
    return {name: value for name, value in vars(namespace).items()
            if callable(getattr(value, "cache_parameters", None))}


def test_every_memo_cache_is_bounded_and_keyed_by_value(ref_cfg):
    """Every functools cache of the package, at module level, in a class or
    in the run plan that runners share, keeps at most 512 entries, and no
    module keys anything by id()."""
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"tpsim.{name}")
        found.update({f"{name}.{k}": v for k, v in _functools_caches(module).items()})
        for cls in (v for v in vars(module).values() if isinstance(v, type)):
            found.update({f"{name}.{cls.__name__}.{k}": v
                          for k, v in _functools_caches(cls).items()})
        assert not re.search(r"\bid\(", inspect.getsource(module)), name
    found.update({f"plan.{k}": v for k, v in
                  _functools_caches(kernel.SystemRunner(ref_cfg, 0).plan).items()})
    assert all(any(cache is c for c in found.values()) for cache, _ in CACHES), sorted(found)
    for name, cache in found.items():
        maxsize = cache.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize <= 512, name
