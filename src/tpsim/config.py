"""Configuration documents: one YAML file fully determines a run.

Top-level sections are geometry, cost_model, policy, scenario and analysis,
plus a mandatory spec_version.  Addresses are written as hex strings, every
other numeric field in decimal.  Validation errors name the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping

import yaml

from .core import (
    KERNEL_VBASE,
    AddressMap,
    CacheGeometry,
    ConfigError,
    DomainPolicy,
    DomainSpec,
    physical_universe,
    set_index_of,
    validate_policy,
)
from .microarch import CostModel, OffCoreFlush, OnCoreFlush, PadTo, Read

SPEC_VERSION = 1

# Input kinds a schedule can contain.
USER_READ = "user_read"
USER_WRITE = "user_write"
SYS_READ = "sys_read"
SYS_WRITE = "sys_write"
SYS_ALLOC = "sys_alloc"
NOOP = "noop"
RAW_ACCESS = "raw_access"

KERNEL_CALLS = (SYS_READ, SYS_WRITE, SYS_ALLOC)
INPUT_KINDS = (USER_READ, USER_WRITE, SYS_READ, SYS_WRITE, SYS_ALLOC, NOOP, RAW_ACCESS)

# The switch mechanism as an ordered template of operation classes.  Read
# stands for a walk of the kernel globals; each other class is one operation
# (the off-core flush targets the globals, the pad targets the deadline).
HONEST_MECHANISM = (OffCoreFlush, OnCoreFlush, PadTo)
PREFETCH_MECHANISM = (Read, OnCoreFlush, PadTo)

# The choices of the command line, kept here so that building its parser
# loads none of the modules that run them.
PROTECTIONS = ("on", "off", "prefetch", "targeted-flush")
SUITES = ("properties", "invariants", "all")
MUTATIONS = ("no-oncore-flush", "no-offcore-global-flush", "no-pad", "bad-colouring",
             "ta-leak", "selector-peek")


@dataclass(frozen=True)
class Input:
    kind: str
    obj: str | None = None
    offset: int = 0
    byte: int = 0
    vaddr: int | None = None   # raw_access only

    def __post_init__(self):
        if self.kind not in INPUT_KINDS:
            raise ValueError(f"unknown input kind {self.kind!r}")
        if self.kind == RAW_ACCESS and self.vaddr is None:
            raise ValueError("a raw_access input needs a vaddr")


@dataclass(frozen=True)
class ObjectSpec:
    """A kernel object.  The scenario declares each one, and runs share them:
    a run that allocates or writes an object replaces it in its next state,
    and never changes one in place.  The payload is a read-only view of a copy
    of the mapping given, so no run can write through it to the others."""

    ident: str
    owner: int
    base: int          # virtual byte address
    size: int          # bytes
    allocated: bool = True
    payload: Mapping[int, int] = field(default_factory=dict)   # sparse offset -> byte

    def __post_init__(self):
        object.__setattr__(self, "payload", MappingProxyType(dict(self.payload)))

    def __reduce__(self):
        # A view cannot be pickled; the payload goes as a dict.
        return ObjectSpec, (self.ident, self.owner, self.base, self.size, self.allocated,
                            dict(self.payload))

    def pages(self, page_size: int) -> frozenset[int]:
        """The virtual pages the object spans."""
        return frozenset(range(self.base - self.base % page_size, self.base + self.size, page_size))


@dataclass
class Scenario:
    slices: int
    inputs: dict[int, list[list[Input]]]   # domain -> per-rotation input batches
    objects: list[ObjectSpec]
    initial_cache: list[tuple[int, int]] = field(default_factory=list)  # (phys addr, level)


@dataclass
class Analysis:
    bin_width: int = 1
    samples_per_symbol: int = 10000
    shuffles: int = 200
    trace_budget: int = 64
    trials: int = 200


@dataclass
class RunConfig:
    geometry: CacheGeometry
    cost_model: CostModel
    policy: DomainPolicy
    amap: AddressMap
    scenario: Scenario
    analysis: Analysis
    universe_pages: frozenset[int]
    source: str = "<memory>"


# The keys each kind of mapping may hold.
_KEYS = {
    "config": "spec_version geometry cost_model policy scenario analysis",
    "geometry": "line_size num_sets num_ways page_size",
    "cost_model": "hit_cost miss_cost miss_evict_cost writeback_cost oncore_flush_base "
                  "oncore_flush_spread oncore_flush_wcet offcore_flush_base "
                  "offcore_flush_wcet jitter flushable_words",
    "policy": "domains kernel_globals switch_deadline slice_length replacement use_dirty_phase",
    "scenario": "slices address_map objects inputs initial_cache",
    "analysis": "bin_width samples_per_symbol shuffles trace_budget trials",
    "domain": "id colours kernel_image user_region",
    "object": "id owner base size allocated",
    "initial_cache": "addr level",
    "input": "kind obj offset byte vaddr",
}


def _mapping(section: Any, kind: str, where: str) -> None:
    """Require section to be a mapping that holds only keys known to kind."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: must be a mapping")
    known = _KEYS[kind].split()
    for key in section:
        if key not in known:
            raise ConfigError(f"{where}.{key}: unknown field; expected one of {', '.join(known)}")


def _req(section: dict, key: str, where: str) -> Any:
    if key not in section:
        raise ConfigError(f"{where}.{key}: missing required field")
    return section[key]


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected a decimal integer, got {value!r}")
    return value


def _as_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {value!r}")
    return value


def _as_addr(value: Any, where: str) -> int:
    if not isinstance(value, str) or not value.lower().startswith("0x"):
        raise ConfigError(f"{where}: addresses must be hex strings like '0x1000', got {value!r}")
    try:
        return int(value, 16)
    except ValueError:
        raise ConfigError(f"{where}: unparseable hex address {value!r}") from None


def _as_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return value


def _as_addr_list(value: Any, where: str) -> list[int]:
    return [_as_addr(v, f"{where}[{i}]") for i, v in enumerate(_as_list(value, where))]


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        # libyaml's loader where PyYAML has it: the same documents, parsed in C.
        raw = yaml.load(path.read_text(), Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"config is not valid YAML: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a mapping")
    cfg = parse_config(raw)
    cfg.source = str(path)
    return cfg


def parse_config(raw: dict) -> RunConfig:
    version = _req(raw, "spec_version", "config")
    if version != SPEC_VERSION:
        raise ConfigError(f"spec_version: expected {SPEC_VERSION}, got {version!r}")
    _mapping(raw, "config", "config")

    for section in ("geometry", "cost_model", "policy", "scenario", "analysis"):
        if section not in raw:
            raise ConfigError(f"{section}: missing required section")
        _mapping(raw[section], section, section)

    gsec = raw["geometry"]
    geometry = CacheGeometry(
        line_size=_as_int(_req(gsec, "line_size", "geometry"), "geometry.line_size"),
        num_sets=_as_int(_req(gsec, "num_sets", "geometry"), "geometry.num_sets"),
        num_ways=_as_int(_req(gsec, "num_ways", "geometry"), "geometry.num_ways"),
        page_size=_as_int(_req(gsec, "page_size", "geometry"), "geometry.page_size"),
    )

    csec = raw["cost_model"]
    hit = _req(csec, "hit_cost", "cost_model")
    if not isinstance(hit, list) or not hit:
        raise ConfigError("cost_model.hit_cost: expected a non-empty list")
    cost_model = CostModel(
        hit_cost=tuple(_as_int(h, f"cost_model.hit_cost[{i}]") for i, h in enumerate(hit)),
        miss_cost=_as_int(_req(csec, "miss_cost", "cost_model"), "cost_model.miss_cost"),
        miss_evict_cost=_as_int(_req(csec, "miss_evict_cost", "cost_model"), "cost_model.miss_evict_cost"),
        writeback_cost=_as_int(_req(csec, "writeback_cost", "cost_model"), "cost_model.writeback_cost"),
        oncore_flush_base=_as_int(_req(csec, "oncore_flush_base", "cost_model"), "cost_model.oncore_flush_base"),
        oncore_flush_spread=_as_int(csec.get("oncore_flush_spread", 32), "cost_model.oncore_flush_spread"),
        oncore_flush_wcet=_as_int(_req(csec, "oncore_flush_wcet", "cost_model"), "cost_model.oncore_flush_wcet"),
        offcore_flush_base=_as_int(_req(csec, "offcore_flush_base", "cost_model"), "cost_model.offcore_flush_base"),
        offcore_flush_wcet=_as_int(_req(csec, "offcore_flush_wcet", "cost_model"), "cost_model.offcore_flush_wcet"),
        jitter=_as_int(_req(csec, "jitter", "cost_model"), "cost_model.jitter"),
        flushable_words=_as_int(csec.get("flushable_words", 8), "cost_model.flushable_words"),
    )
    cost_model.validate(geometry)

    psec = raw["policy"]
    domains = []
    draw = _req(psec, "domains", "policy")
    if not isinstance(draw, list) or not draw:
        raise ConfigError("policy.domains: expected a non-empty list")
    for i, d in enumerate(draw):
        where = f"policy.domains[{i}]"
        _mapping(d, "domain", where)
        colours = _as_list(_req(d, "colours", where), f"{where}.colours")
        domains.append(DomainSpec(
            ident=_as_int(_req(d, "id", where), f"{where}.id"),
            colours=frozenset(_as_int(c, f"{where}.colours[{j}]") for j, c in enumerate(colours)),
            kernel_image=frozenset(_as_addr_list(_req(d, "kernel_image", where), f"{where}.kernel_image")),
            user_region=frozenset(_as_addr_list(_req(d, "user_region", where), f"{where}.user_region")),
        ))
    policy = DomainPolicy(
        domains=tuple(domains),
        kernel_globals=frozenset(_as_addr_list(_req(psec, "kernel_globals", "policy"), "policy.kernel_globals")),
        switch_deadline=_as_int(_req(psec, "switch_deadline", "policy"), "policy.switch_deadline"),
        slice_length=_as_int(_req(psec, "slice_length", "policy"), "policy.slice_length"),
        replacement=psec.get("replacement", "plru"),
        use_dirty_phase=_as_bool(psec.get("use_dirty_phase", False), "policy.use_dirty_phase"),
    )

    ssec = raw["scenario"]
    amap_raw = _req(ssec, "address_map", "scenario")
    if not isinstance(amap_raw, dict):
        raise ConfigError("scenario.address_map: expected a mapping of hex vpage to hex ppage")
    pages = {}
    for v, p in amap_raw.items():
        vaddr = _as_addr(v, "scenario.address_map key")
        pages[vaddr] = _as_addr(p, f"scenario.address_map[{v}]")
    # The kernel window maps every kernel-owned physical page at a fixed
    # virtual offset; add those entries so the map is total over them.
    for d in policy.domains:
        for page in d.kernel_image:
            pages[KERNEL_VBASE + page] = page
    for page in policy.global_pages(geometry):
        pages[KERNEL_VBASE + page] = page
    amap = AddressMap(page_size=geometry.page_size, pages=pages)

    objects = []
    for i, o in enumerate(_as_list(_req(ssec, "objects", "scenario"), "scenario.objects")):
        where = f"scenario.objects[{i}]"
        _mapping(o, "object", where)
        ident = _req(o, "id", where)
        if not isinstance(ident, str):
            raise ConfigError(f"{where}.id: expected a string, got {ident!r}")
        objects.append(ObjectSpec(
            ident=ident,
            owner=_as_int(_req(o, "owner", where), f"{where}.owner"),
            base=_as_addr(_req(o, "base", where), f"{where}.base"),
            size=_as_int(_req(o, "size", where), f"{where}.size"),
            allocated=_as_bool(o.get("allocated", True), f"{where}.allocated"),
        ))

    inputs: dict[int, list[list[Input]]] = {}
    sizes = {o.ident: o.size for o in objects}
    inputs_raw = ssec.get("inputs", {})
    if not isinstance(inputs_raw, dict):
        raise ConfigError("scenario.inputs: expected a mapping of domain to input batches")
    for key, per_slice in inputs_raw.items():
        dom = _as_int(key, "scenario.inputs key")
        if dom not in policy.domain_ids():
            raise ConfigError(f"scenario.inputs[{key}]: unknown domain {dom}")
        inputs[dom] = [_parse_batch(batch, sizes, f"scenario.inputs[{key}][{i}]")
                       for i, batch in enumerate(_as_list(per_slice, f"scenario.inputs[{key}]"))]

    initial_cache = []
    seeded: dict[int, list[int]] = {}    # set index -> lines seeded into it
    for i, entry in enumerate(_as_list(ssec.get("initial_cache", []), "scenario.initial_cache")):
        where = f"scenario.initial_cache[{i}]"
        _mapping(entry, "initial_cache", where)
        addr = _as_addr(_req(entry, "addr", where), f"{where}.addr")
        level = _as_int(entry.get("level", 1), f"{where}.level")
        if not 1 <= level <= cost_model.max_level:
            raise ConfigError(f"{where}.level: must be in 1..{cost_model.max_level}, got {level}")
        idx, line = set_index_of(addr, geometry), geometry.line_of(addr)
        lines = seeded.setdefault(idx, [])
        if line in lines:
            raise ConfigError(f"{where}.addr: line {line:#x} is already seeded")
        if len(lines) == geometry.num_ways:
            raise ConfigError(f"{where}.addr: set {idx} already holds "
                              f"{geometry.num_ways} seeded lines")
        lines.append(line)
        initial_cache.append((addr, level))

    scenario = Scenario(
        slices=_as_int(ssec.get("slices", 2), "scenario.slices"),
        inputs=inputs,
        objects=objects,
        initial_cache=initial_cache,
    )
    if scenario.slices < 1:
        raise ConfigError("scenario.slices: must be >= 1")

    asec = raw["analysis"]
    analysis = Analysis(**{f.name: _as_int(asec.get(f.name, f.default), f"analysis.{f.name}")
                           for f in fields(Analysis)})
    for name, value in vars(analysis).items():
        least = 100 if name == "shuffles" else 1     # M0 needs its label shuffles
        if value < least:
            raise ConfigError(f"analysis.{name}: must be >= {least}")

    cfg = RunConfig(
        geometry=geometry,
        cost_model=cost_model,
        policy=policy,
        amap=amap,
        scenario=scenario,
        analysis=analysis,
        universe_pages=physical_universe(policy, amap, geometry),
    )
    _check_objects(cfg)
    return cfg


def _parse_batch(batch: Any, sizes: dict[str, int], where: str) -> list[Input]:
    """Inputs of one batch; sizes maps each object id to its size."""
    out = []
    for j, d in enumerate(_as_list(batch, where)):
        at = f"{where}[{j}]"
        _mapping(d, "input", at)
        kind = d.get("kind")
        if kind not in INPUT_KINDS:
            raise ConfigError(f"{at}.kind: unknown input kind {kind!r}; "
                              f"know {', '.join(INPUT_KINDS)}")
        obj = d.get("obj")
        named = kind in (USER_READ, USER_WRITE, SYS_READ, SYS_WRITE)
        if named and obj not in sizes:
            raise ConfigError(f"{at}.obj: unknown object {obj!r}")
        offset = _as_int(d.get("offset", 0), f"{at}.offset")
        if named and not 0 <= offset < sizes[obj]:
            raise ConfigError(f"{at}.offset: must be in 0..{sizes[obj] - 1}, got {offset}")
        byte = _as_int(d.get("byte", 0), f"{at}.byte")
        if named and not 0 <= byte <= 255:
            raise ConfigError(f"{at}.byte: must be in 0..255, got {byte}")
        if kind == RAW_ACCESS:
            _req(d, "vaddr", at)
        out.append(Input(kind=kind, obj=obj, offset=offset, byte=byte,
                         vaddr=_as_addr(d["vaddr"], f"{at}.vaddr") if "vaddr" in d else None))
    return out


def _check_objects(cfg: RunConfig) -> None:
    seen = set()
    owners = set(cfg.policy.domain_ids())
    for i, o in enumerate(cfg.scenario.objects):
        where = f"scenario.objects[{i}]"
        if o.ident in seen:
            raise ConfigError(f"{where}.id: duplicate object id {o.ident!r}")
        seen.add(o.ident)
        if o.owner not in owners:
            raise ConfigError(f"{where}.owner: unknown domain {o.owner}")
        if o.size < 1:
            raise ConfigError(f"{where}.size: must be >= 1")
        region = cfg.policy.domain(o.owner).user_region
        for p in sorted(o.pages(cfg.geometry.page_size)):
            if p not in region:
                raise ConfigError(
                    f"{where}: page {p:#x} lies outside domain {o.owner}'s user region"
                )


def worst_input_cost(cfg: RunConfig, kind: str, kernel_ops: int) -> int:
    """Most cycles an input of kind can take: each op a miss that evicts, at top jitter.
    The selector pads any footprint, a raw access's one page included, to
    trace_budget ops."""
    user_ops = 0 if kind == NOOP else cfg.analysis.trace_budget
    return (kernel_ops + user_ops) * (cfg.cost_model.miss_evict_cost + cfg.cost_model.jitter)


def worst_switch_cost(cfg: RunConfig, mechanism: tuple[type, ...]) -> int:
    """Most cycles a switch's work can take before its pad: the globals walk,
    the dirty phase's two image walks when it is on, then the template.  Each
    access is a miss that evicts, each flush at its worst, at top jitter."""
    g, cm, policy = cfg.geometry, cfg.cost_model, cfg.policy
    per_op = cm.miss_evict_cost + cm.jitter
    walk = len(policy.kernel_globals) * per_op
    writebacks = len(policy.global_set_indices(g)) * g.num_ways    # the global sets, full
    template = {
        Read: walk,
        OffCoreFlush: cm.offcore_flush_base + writebacks * cm.writeback_cost + cm.jitter,
        OnCoreFlush: cm.oncore_flush_wcet,
        PadTo: 0,
    }
    cost = walk + sum(template[cls] for cls in mechanism)
    if policy.use_dirty_phase:
        # The outgoing domain's image and its round-robin successor's.
        images = [len(d.kernel_image) for d in policy.domains]
        pair = max(a + b for a, b in zip(images, images[1:] + images[:1]))
        cost += pair * g.lines_per_page * per_op
    return cost


def validate_config(cfg: RunConfig) -> None:
    problems = validate_policy(cfg.policy, cfg.amap, cfg.geometry)
    if problems:
        raise ConfigError("policy: " + "; ".join(problems))
    walk = len(cfg.policy.kernel_globals) + cfg.geometry.lines_per_page * max(
        len(d.kernel_image) for d in cfg.policy.domains)     # the longest kernel-call walk
    worst = max(worst_input_cost(cfg, k, walk if k in KERNEL_CALLS else 0) for k in INPUT_KINDS)
    if cfg.policy.slice_length < worst:
        raise ConfigError(f"policy.slice_length: {cfg.policy.slice_length} is below {worst}, "
                          f"the worst-case cost of a single input, so that input could never run")
    # Attack variants run the prefetch template on the same config.
    worst = max(worst_switch_cost(cfg, m) for m in (HONEST_MECHANISM, PREFETCH_MECHANISM))
    if cfg.policy.switch_deadline < worst:
        raise ConfigError(f"policy.switch_deadline: {cfg.policy.switch_deadline} is below "
                          f"{worst}, the worst-case cost of a switch's work, so the pad "
                          f"could miss the deadline")
