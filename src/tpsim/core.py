"""Cache geometry, page colouring and the per-domain partitioning policy.

Physical addresses index into a set-associative cache: the set index of an
address is taken from the bits above the line offset, and its colour is the
overlap of those set-index bits with the page number bits.  Two pages of the
same colour compete for the same cache sets; pages of different colours can
never evict each other.  A partitioning policy assigns each security domain a
private group of colours, so that (kernel globals aside) no domain can reach
cache state belonging to another.

Everything here is plain integer arithmetic over byte addresses.  Virtual and
physical addresses are non-negative ints; pages and cache lines are identified
by their base address.  fan_out, at the end, is the one way the model spreads
independent units of work (samples, checks, trials) over processes.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence


class ModelError(Exception):
    """Base class for errors raised by the model itself."""


class ConfigError(ModelError):
    """A configuration document is malformed.  The message names the field."""


class TranslationFault(ModelError):
    """A virtual address has no mapping.  Distinct from a touched-set violation."""

    def __init__(self, vaddr: int):
        super().__init__(f"no translation for virtual address {vaddr:#x}")
        self.vaddr = vaddr

    def __reduce__(self):
        # Rebuilt from vaddr, not the message, when it crosses from a worker.
        return type(self), (self.vaddr,)


class PolicyError(ModelError):
    """A domain policy violates the partitioning discipline."""


# Domain identifier used for transitions executed by the kernel itself while
# switching, as opposed to on behalf of a user domain.
KERNEL_DOMAIN = -1

# Virtual base of the kernel window, which maps each kernel-owned physical
# page (images and globals) at this fixed offset.
KERNEL_VBASE = 0xF000000


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Shape of the modelled partitionable cache and of physical pages."""

    line_size: int
    num_sets: int
    num_ways: int
    page_size: int

    def __post_init__(self):
        for name in ("line_size", "num_sets", "page_size"):
            if not _is_pow2(getattr(self, name)):
                raise ConfigError(f"geometry.{name}: must be a power of two, got {getattr(self, name)}")
        if self.num_sets < 2:
            # No other set to perturb in a locality check, and no colours to split.
            raise ConfigError(f"geometry.num_sets: must be >= 2, got {self.num_sets}")
        if self.num_ways < 1:
            raise ConfigError(f"geometry.num_ways: must be >= 1, got {self.num_ways}")
        if not _is_pow2(self.num_ways):
            raise ConfigError(f"geometry.num_ways: must be a power of two, got {self.num_ways}")
        if self.page_size < self.line_size:
            raise ConfigError("geometry.page_size: must be >= line_size")
        if self.line_size * self.num_sets < self.page_size:
            raise ConfigError(
                "geometry: line_size * num_sets must cover at least one page "
                f"({self.line_size} * {self.num_sets} < {self.page_size})"
            )

    @property
    def num_colours(self) -> int:
        # Exact by construction: both sides are powers of two and the span of
        # the cache (line_size * num_sets) is at least one page.
        return (self.line_size * self.num_sets) // self.page_size

    @property
    def lines_per_page(self) -> int:
        return self.page_size // self.line_size

    def line_of(self, addr: int) -> int:
        return addr - (addr % self.line_size)

    def page_of(self, addr: int) -> int:
        return addr - (addr % self.page_size)

    def colour_of_set(self, set_index: int) -> int:
        return (set_index * self.line_size) // self.page_size

    def page_lines(self, page: int) -> list[int]:
        return [page + i * self.line_size for i in range(self.lines_per_page)]


def set_index_of(p: int, g: CacheGeometry) -> int:
    """Cache set a physical address falls into."""
    if p < 0:
        raise ValueError(f"physical address must be non-negative, got {p}")
    return (p // g.line_size) % g.num_sets


def colour_of(p: int, g: CacheGeometry) -> int:
    """Page colour of a physical address: page number modulo colour count."""
    if p < 0:
        raise ValueError(f"physical address must be non-negative, got {p}")
    return (p // g.page_size) % g.num_colours


def collision_set_of(p: int, g: CacheGeometry, universe: Iterable[int]) -> frozenset[int]:
    """All addresses of the universe that compete for p's cache set.

    Brute force by definition, so that cleverer index functions elsewhere can
    be checked against it.  p itself must be a member of the universe.
    """
    members = frozenset(universe)
    if p not in members:
        raise ValueError(f"address {p:#x} is not in the declared physical universe")
    target = set_index_of(p, g)
    return frozenset(q for q in members if set_index_of(q, g) == target)


@dataclass(frozen=True)
class AddressMap:
    """Page-granular virtual to physical mapping.

    The map is total over the pages it contains and is never changed by a run:
    every user-controlled object is mapped up front, regardless of which
    domain is executing.  Offsets within a page are preserved.
    """

    page_size: int
    pages: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for v, p in self.pages.items():
            if v % self.page_size or p % self.page_size:
                raise ConfigError(
                    f"address_map: entries must be page aligned ({v:#x} -> {p:#x})"
                )

    def __hash__(self) -> int:
        # By value, like the generated __eq__; the pages dict itself cannot be hashed.
        return hash((self.page_size, self._digest_key))

    def translate(self, v: int) -> int:
        vpage = v - (v % self.page_size)
        try:
            ppage = self.pages[vpage]
        except KeyError:
            raise TranslationFault(v) from None
        return ppage + (v - vpage)

    def translate_page(self, vpage: int) -> int:
        if vpage % self.page_size:
            raise ValueError(f"{vpage:#x} is not page aligned")
        try:
            return self.pages[vpage]
        except KeyError:
            raise TranslationFault(vpage) from None

    def mapped_pages(self) -> frozenset[int]:
        return frozenset(self.pages)

    def digest_key(self) -> str:
        return self._digest_key

    @functools.cached_property
    def _digest_key(self) -> str:
        # Built once: the map never changes.
        return ",".join(f"{v:x}:{p:x}" for v, p in sorted(self.pages.items()))


@dataclass(frozen=True)
class DomainSpec:
    """Static per-domain resources: colours, kernel image pages, user pages."""

    ident: int
    colours: frozenset[int]
    kernel_image: frozenset[int]   # physical pages holding this domain's kernel image
    user_region: frozenset[int]    # virtual pages the domain's objects live in


@dataclass(frozen=True)
class DomainPolicy:
    """Partitioning policy shared by the whole system.

    switch_deadline is the padded duration of one domain switch, counted from
    the timer tick that ends a slice.  slice_length is the duration of one
    timeslice.  kernel_globals are the few physical addresses of shared kernel
    data that cannot be partitioned; they are granted an explicit exception
    everywhere else in the model.
    """

    domains: tuple[DomainSpec, ...]
    kernel_globals: frozenset[int]
    switch_deadline: int
    slice_length: int
    replacement: str = "plru"
    use_dirty_phase: bool = False

    def __post_init__(self):
        if self.replacement not in ("plru", "adversarial"):
            raise ConfigError(f"policy.replacement: unknown policy {self.replacement!r}")
        if self.switch_deadline <= 0:
            raise ConfigError("policy.switch_deadline: must be positive")
        if self.slice_length <= 0:
            raise ConfigError("policy.slice_length: must be positive")
        seen = set()
        for d in self.domains:
            if d.ident in seen:
                raise ConfigError(f"policy.domains: duplicate domain id {d.ident}")
            seen.add(d.ident)

    def domain(self, ident: int) -> DomainSpec:
        for d in self.domains:
            if d.ident == ident:
                return d
        raise KeyError(f"unknown domain {ident}")

    def domain_ids(self) -> tuple[int, ...]:
        return tuple(d.ident for d in self.domains)

    def global_pages(self, g: CacheGeometry) -> frozenset[int]:
        return frozenset(g.page_of(a) for a in self.kernel_globals)

    def global_set_indices(self, g: CacheGeometry) -> frozenset[int]:
        return frozenset(set_index_of(a, g) for a in self.kernel_globals)


def validate_policy(
    policy: DomainPolicy,
    amap: AddressMap,
    g: CacheGeometry,
) -> list[str]:
    """Check the static partitioning discipline; returns a list of problems."""
    problems: list[str] = []

    claimed: dict[int, int] = {}
    for d in policy.domains:
        for c in d.colours:
            if not 0 <= c < g.num_colours:
                problems.append(f"domain {d.ident}: colour {c} out of range 0..{g.num_colours - 1}")
            elif c in claimed:
                problems.append(f"domain {d.ident}: colour {c} already claimed by domain {claimed[c]}")
            else:
                claimed[c] = d.ident

    global_pages = policy.global_pages(g)
    for d in policy.domains:
        for page in sorted(d.kernel_image):
            col = colour_of(page, g)
            if col not in d.colours:
                problems.append(
                    f"domain {d.ident}: kernel image page {page:#x} has colour {col}, "
                    f"outside the domain's colours"
                )
        for vpage in sorted(d.user_region):
            try:
                ppage = amap.translate_page(vpage)
            except TranslationFault:
                problems.append(f"domain {d.ident}: user page {vpage:#x} is unmapped")
                continue
            col = colour_of(ppage, g)
            if col not in d.colours:
                problems.append(
                    f"domain {d.ident}: user page {vpage:#x} -> {ppage:#x} has colour {col}, "
                    f"outside the domain's colours"
                )
            if ppage in global_pages:
                problems.append(
                    f"domain {d.ident}: user page {vpage:#x} translates into kernel global page {ppage:#x}"
                )

    # Injectivity of the map over each domain's user region.
    for d in policy.domains:
        seen_phys: dict[int, int] = {}
        for vpage in sorted(d.user_region):
            try:
                ppage = amap.translate_page(vpage)
            except TranslationFault:
                continue
            if ppage in seen_phys:
                problems.append(
                    f"domain {d.ident}: user pages {seen_phys[ppage]:#x} and {vpage:#x} "
                    f"alias physical page {ppage:#x}"
                )
            else:
                seen_phys[ppage] = vpage

    return problems


def physical_universe(policy: DomainPolicy, amap: AddressMap, g: CacheGeometry) -> frozenset[int]:
    """All physical pages a run can name: user translations, images, globals."""
    pages: set[int] = set()
    for d in policy.domains:
        pages.update(d.kernel_image)
        for vpage in d.user_region:
            try:
                pages.add(amap.translate_page(vpage))
            except TranslationFault:
                pass
    pages.update(policy.global_pages(g))
    return frozenset(pages)


def universe_lines(universe_pages: Iterable[int], g: CacheGeometry) -> frozenset[int]:
    lines: set[int] = set()
    for page in universe_pages:
        lines.update(g.page_lines(page))
    return frozenset(lines)


def pool_size(jobs: int, items: int) -> int:
    """Worker processes for items independent units: at most jobs, and never
    more than there are units or cores."""
    return max(1, min(jobs, items, os.cpu_count() or 1))


# Set once in each worker process by the pool initializer: the function and
# the shared arguments of every task the worker runs.
_worker_task: tuple = ()


def _init_worker(fn: Callable, shared: tuple) -> None:
    global _worker_task
    _worker_task = (fn, shared)


def _run_item(item):
    fn, shared = _worker_task
    return fn(*shared, item)


def fan_out(fn: Callable, shared: tuple, items: Sequence, jobs: int) -> Iterator:
    """Yield fn(*shared, item) for each item, in item order.

    With one worker (see pool_size) everything runs in the calling process.
    Otherwise a process pool does: each worker receives shared once, and a
    task carries only its item.  As long as fn depends on its arguments alone,
    results are the same for every jobs.  Closing the generator before the
    end (a consumer that may stop early should use contextlib.closing)
    terminates and joins the pool at once, without waiting for items already
    started.
    """
    workers = pool_size(jobs, len(items))
    if workers == 1:
        for item in items:
            yield fn(*shared, item)
        return
    import multiprocessing    # here, not at the top: most runs start no pool
    pool = multiprocessing.Pool(workers, _init_worker, (fn, shared))
    try:
        yield from pool.imap(_run_item, items, chunksize=1)
    finally:
        pool.terminate()
        pool.join()
