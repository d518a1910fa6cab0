"""Configuration documents: one YAML file fully determines a run.

Top-level sections are geometry, cost_model, policy, scenario and analysis,
plus a mandatory spec_version.  Addresses are written as hex strings, every
other numeric field in decimal.  Validation errors name the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from .core import (
    AddressMap,
    CacheGeometry,
    ConfigError,
    DomainPolicy,
    DomainSpec,
    physical_universe,
    validate_policy,
)
from .microarch import CostModel

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


@dataclass
class ObjectSpec:
    ident: str
    owner: int
    base: int          # virtual byte address
    size: int          # bytes
    allocated: bool = True


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


def _req(section: dict, key: str, where: str) -> Any:
    if key not in section:
        raise ConfigError(f"{where}.{key}: missing required field")
    return section[key]


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected a decimal integer, got {value!r}")
    return value


def _as_addr(value: Any, where: str) -> int:
    if not isinstance(value, str) or not value.lower().startswith("0x"):
        raise ConfigError(f"{where}: addresses must be hex strings like '0x1000', got {value!r}")
    try:
        return int(value, 16)
    except ValueError:
        raise ConfigError(f"{where}: unparseable hex address {value!r}") from None


def _as_addr_list(value: Any, where: str) -> list[int]:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list of hex addresses")
    return [_as_addr(v, f"{where}[{i}]") for i, v in enumerate(value)]


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
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

    for section in ("geometry", "cost_model", "policy", "scenario", "analysis"):
        if section not in raw:
            raise ConfigError(f"{section}: missing required section")
        if not isinstance(raw[section], dict):
            raise ConfigError(f"{section}: must be a mapping")

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
        max_level=_as_int(csec.get("max_level", len(hit)), "cost_model.max_level"),
    )
    cost_model.validate(geometry)

    psec = raw["policy"]
    domains = []
    draw = _req(psec, "domains", "policy")
    if not isinstance(draw, list) or not draw:
        raise ConfigError("policy.domains: expected a non-empty list")
    for i, d in enumerate(draw):
        where = f"policy.domains[{i}]"
        if not isinstance(d, dict):
            raise ConfigError(f"{where}: must be a mapping")
        colours = _req(d, "colours", where)
        if not isinstance(colours, list):
            raise ConfigError(f"{where}.colours: expected a list")
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
        use_dirty_phase=bool(psec.get("use_dirty_phase", False)),
        kernel_vbase=_as_addr(psec.get("kernel_vbase", "0xF000000"), "policy.kernel_vbase"),
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
            pages[policy.kernel_vbase + page] = page
    for page in policy.global_pages(geometry):
        pages[policy.kernel_vbase + page] = page
    amap = AddressMap(page_size=geometry.page_size, pages=pages)

    objects = []
    for i, o in enumerate(_req(ssec, "objects", "scenario")):
        where = f"scenario.objects[{i}]"
        if not isinstance(o, dict):
            raise ConfigError(f"{where}: must be a mapping")
        objects.append(ObjectSpec(
            ident=str(_req(o, "id", where)),
            owner=_as_int(_req(o, "owner", where), f"{where}.owner"),
            base=_as_addr(_req(o, "base", where), f"{where}.base"),
            size=_as_int(_req(o, "size", where), f"{where}.size"),
            allocated=bool(o.get("allocated", True)),
        ))

    inputs: dict[int, list[list[Input]]] = {}
    idents = {o.ident for o in objects}
    for key, per_slice in ssec.get("inputs", {}).items():
        dom = _as_int(key, "scenario.inputs key")
        if dom not in policy.domain_ids():
            raise ConfigError(f"scenario.inputs[{key}]: unknown domain {dom}")
        if not isinstance(per_slice, list):
            raise ConfigError(f"scenario.inputs[{key}]: expected a list of slices")
        inputs[dom] = [_parse_batch(batch, idents, f"scenario.inputs[{key}][{i}]")
                       for i, batch in enumerate(per_slice)]

    initial_cache = []
    for i, entry in enumerate(ssec.get("initial_cache", [])):
        where = f"scenario.initial_cache[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: must be a mapping with addr and level")
        initial_cache.append((
            _as_addr(_req(entry, "addr", where), f"{where}.addr"),
            _as_int(entry.get("level", 1), f"{where}.level"),
        ))

    scenario = Scenario(
        slices=_as_int(ssec.get("slices", 2), "scenario.slices"),
        inputs=inputs,
        objects=objects,
        initial_cache=initial_cache,
    )

    asec = raw["analysis"]
    analysis = Analysis(
        bin_width=_as_int(asec.get("bin_width", 1), "analysis.bin_width"),
        samples_per_symbol=_as_int(asec.get("samples_per_symbol", 10000), "analysis.samples_per_symbol"),
        shuffles=_as_int(asec.get("shuffles", 200), "analysis.shuffles"),
        trace_budget=_as_int(asec.get("trace_budget", 64), "analysis.trace_budget"),
        trials=_as_int(asec.get("trials", 200), "analysis.trials"),
    )
    if analysis.bin_width < 1:
        raise ConfigError("analysis.bin_width: must be >= 1")
    if analysis.shuffles < 100:
        raise ConfigError("analysis.shuffles: need at least 100 label shuffles")

    extra = _as_addr_list(ssec.get("universe_pages", []), "scenario.universe_pages")
    universe = physical_universe(policy, amap, geometry, extra_pages=extra)

    cfg = RunConfig(
        geometry=geometry,
        cost_model=cost_model,
        policy=policy,
        amap=amap,
        scenario=scenario,
        analysis=analysis,
        universe_pages=universe,
    )
    _check_objects(cfg)
    return cfg


def _parse_batch(batch: Any, idents: set[str], where: str) -> list[Input]:
    if not isinstance(batch, list):
        raise ConfigError(f"{where}: expected a list of inputs")
    out = []
    for j, d in enumerate(batch):
        at = f"{where}[{j}]"
        if not isinstance(d, dict):
            raise ConfigError(f"{at}: must be a mapping")
        kind = d.get("kind")
        if kind not in INPUT_KINDS:
            raise ConfigError(f"{at}.kind: unknown input kind {kind!r}; "
                              f"know {', '.join(INPUT_KINDS)}")
        obj = d.get("obj")
        if kind in (USER_READ, USER_WRITE, SYS_READ, SYS_WRITE) and obj not in idents:
            raise ConfigError(f"{at}.obj: unknown object {obj!r}")
        out.append(Input(
            kind=kind,
            obj=obj,
            offset=_as_int(d.get("offset", 0), f"{at}.offset"),
            byte=_as_int(d.get("byte", 0), f"{at}.byte"),
            vaddr=_as_addr(d["vaddr"], f"{at}.vaddr") if "vaddr" in d else None,
        ))
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
        page = cfg.geometry.page_of(o.base)
        last_page = cfg.geometry.page_of(o.base + o.size - 1)
        p = page
        while p <= last_page:
            if p not in region:
                raise ConfigError(
                    f"{where}: page {p:#x} lies outside domain {o.owner}'s user region"
                )
            p += cfg.geometry.page_size


def worst_input_cost(cfg: RunConfig, kind: str, kernel_ops: int) -> int:
    """Most cycles an input of kind can take: each op a miss that evicts, at top jitter."""
    user_ops = {NOOP: 0, RAW_ACCESS: cfg.geometry.lines_per_page}.get(kind, cfg.analysis.trace_budget)
    return (kernel_ops + user_ops) * (cfg.cost_model.miss_evict_cost + cfg.cost_model.jitter)


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
