"""Configuration documents: one YAML file fully determines a run.

Top-level sections are geometry, cost_model, policy, scenario and analysis,
plus a mandatory spec_version.  Addresses are written as hex strings, every
other numeric field in decimal.  Validation errors name the offending field.
_SCHEMA lists each key of each kind of mapping with its parser and default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping

import yaml

from .core import (
    KERNEL_DOMAIN,
    KERNEL_VBASE,
    REPLACEMENTS,
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
    allocated: bool
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
    initial_cache: list[tuple[int, int]]   # (phys addr, level)


@dataclass
class Analysis:
    bin_width: int
    samples_per_symbol: int
    shuffles: int
    trace_budget: int
    trials: int


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


class _Missing(str):
    """The default of a key that must be given.  Formatted with the mapping's
    path (where) and the key, it is the error for the key's absence."""


_REQUIRED = _Missing("{where}.{key}: missing required field")
_SECTION = _Missing("{key}: missing required section")
_KIND_HINT = "; know " + ", ".join(INPUT_KINDS)
_NO_KIND = _Missing("{where}.{key}: unknown input kind None" + _KIND_HINT)   # as if kind: null


def _typed(ok, expected: str):
    """A parser that passes a value ok accepts and names any other."""
    def parse(value: Any, where: str) -> Any:
        if not ok(value):
            raise ConfigError(f"{where}: expected {expected}, got {value!r}")
        return value
    return parse


_as_int = _typed(lambda v: isinstance(v, int) and not isinstance(v, bool), "a decimal integer")
_as_bool = _typed(lambda v: isinstance(v, bool), "true or false")
_as_str = _typed(lambda v: isinstance(v, str), "a string")
_as_opt_str = _typed(lambda v: v is None or isinstance(v, str), "a string")
_as_list = _typed(lambda v: isinstance(v, list), "a list")
_as_version = _typed(lambda v: type(v) is int and v == SPEC_VERSION, str(SPEC_VERSION))


def _as_addr(value: Any, where: str) -> int:
    if not isinstance(value, str) or not value.lower().startswith("0x"):
        raise ConfigError(f"{where}: addresses must be hex strings like '0x1000', got {value!r}")
    try:
        return int(value, 16)
    except ValueError:
        raise ConfigError(f"{where}: unparseable hex address {value!r}") from None


def _as_domain_id(value: Any, where: str) -> int:
    ident = _as_int(value, where)
    if ident == KERNEL_DOMAIN:
        # The kernel's switch work runs under this id, and the two runs of a
        # confidentiality trial share its oracle words.
        raise ConfigError(f"{where}: {ident} is the kernel's own domain id")
    return ident


def _one_of(names: tuple[str, ...], what: str, hint: str = ""):
    def parse(value: Any, where: str) -> str:
        if value not in names:
            raise ConfigError(f"{where}: unknown {what} {value!r}{hint}")
        return value
    return parse


def _seq(parse, into=list, nonempty: bool = False):
    """A list whose items parse with parse, gathered into into."""
    def parse_seq(value: Any, where: str):
        if nonempty and not (isinstance(value, list) and value):
            raise ConfigError(f"{where}: expected a non-empty list")
        return into(parse(v, f"{where}[{i}]") for i, v in enumerate(_as_list(value, where)))
    return parse_seq


def _mapping_of(parse_key, parse_value, of: str):
    def parse(value: Any, where: str) -> dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{where}: expected a mapping of {of}")
        return {parse_key(k, f"{where} key"): parse_value(v, f"{where}[{k}]")
                for k, v in value.items()}
    return parse


def _entry(kind: str):
    return lambda value, where: _read(value, kind, where)


# Each kind of mapping: its keys in order, each with its parser and either its
# default or a _Missing marker where the key must be given.
_INT = (_as_int, _REQUIRED)
_ADDRS = (_seq(_as_addr, frozenset), _REQUIRED)
_SCHEMA: dict[str, dict[str, tuple[Any, Any]]] = {
    "config": {"spec_version": (_as_version, _REQUIRED),
               "geometry": (_entry("geometry"), _SECTION),
               "cost_model": (_entry("cost_model"), _SECTION),
               "policy": (_entry("policy"), _SECTION),
               "scenario": (_entry("scenario"), _SECTION),
               "analysis": (_entry("analysis"), _SECTION)},
    "geometry": {"line_size": _INT, "num_sets": _INT, "num_ways": _INT, "page_size": _INT},
    "cost_model": {"hit_cost": (_seq(_as_int, tuple, nonempty=True), _REQUIRED),
                   "miss_cost": _INT, "miss_evict_cost": _INT, "writeback_cost": _INT,
                   "oncore_flush_base": _INT, "oncore_flush_spread": (_as_int, 32),
                   "oncore_flush_wcet": _INT, "offcore_flush_base": _INT,
                   "offcore_flush_wcet": _INT, "jitter": _INT, "flushable_words": (_as_int, 8)},
    "policy": {"domains": (_seq(_entry("domain"), tuple, nonempty=True), _REQUIRED),
               "kernel_globals": _ADDRS, "switch_deadline": _INT, "slice_length": _INT,
               "replacement": (_one_of(REPLACEMENTS, "policy"), "plru"),
               "use_dirty_phase": (_as_bool, False)},
    "domain": {"id": (_as_domain_id, _REQUIRED), "colours": (_seq(_as_int, frozenset), _REQUIRED),
               "kernel_image": _ADDRS, "user_region": _ADDRS},
    "scenario": {"slices": (_as_int, 2),
                 "address_map": (_mapping_of(_as_addr, _as_addr, "hex vpage to hex ppage"),
                                 _REQUIRED),
                 "objects": (_seq(_entry("object")), _REQUIRED),
                 # _parse_batch reads each batch, once the objects are known.
                 "inputs": (_mapping_of(_as_int, _as_list, "domain to input batches"), {}),
                 "initial_cache": (_seq(_entry("initial_cache")), [])},
    "object": {"id": (_as_str, _REQUIRED), "owner": _INT, "base": (_as_addr, _REQUIRED),
               "size": _INT, "allocated": (_as_bool, True)},
    "initial_cache": {"addr": (_as_addr, _REQUIRED), "level": (_as_int, 1)},
    "input": {"kind": (_one_of(INPUT_KINDS, "input kind", _KIND_HINT), _NO_KIND),
              "obj": (_as_opt_str, None), "offset": (_as_int, 0), "byte": (_as_int, 0),
              "vaddr": (_as_addr, None)},
    "analysis": {"bin_width": (_as_int, 1), "samples_per_symbol": (_as_int, 10000),
                 "shuffles": (_as_int, 200), "trace_budget": (_as_int, 64),
                 "trials": (_as_int, 200)},
}


def _read(section: Any, kind: str, where: str) -> dict[str, Any]:
    """The keys of a mapping of the given kind, each parsed, absent ones defaulted."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: must be a mapping")
    schema = _SCHEMA[kind]
    for key in section:
        if key not in schema:
            raise ConfigError(f"{where}.{key}: unknown field; expected one of {', '.join(schema)}")
    out = {}
    for key, (parse, default) in schema.items():
        if key in section:
            # The top level's keys are named alone: geometry, not config.geometry.
            out[key] = parse(section[key], key if kind == "config" else f"{where}.{key}")
        elif isinstance(default, _Missing):
            raise ConfigError(default.format(where=where, key=key))
        else:
            out[key] = default
    return out


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
    doc = _read(raw, "config", "config")
    geometry = CacheGeometry(**doc["geometry"])
    cost_model = CostModel(**doc["cost_model"])
    cost_model.validate(geometry)
    policy = DomainPolicy(**{**doc["policy"], "domains": tuple(
        DomainSpec(d["id"], d["colours"], d["kernel_image"], d["user_region"])
        for d in doc["policy"]["domains"])})

    ssec = doc["scenario"]
    pages = ssec["address_map"]
    # The kernel window maps every kernel-owned physical page at a fixed
    # virtual offset; add those entries so the map is total over them.
    for d in policy.domains:
        for page in d.kernel_image:
            pages[KERNEL_VBASE + page] = page
    for page in policy.global_pages(geometry):
        pages[KERNEL_VBASE + page] = page
    amap = AddressMap(page_size=geometry.page_size, pages=pages)

    objects = [ObjectSpec(o["id"], o["owner"], o["base"], o["size"], o["allocated"])
               for o in ssec["objects"]]
    sizes = {o.ident: o.size for o in objects}
    inputs: dict[int, list[list[Input]]] = {}
    for dom, batches in ssec["inputs"].items():
        if dom not in policy.domain_ids():
            raise ConfigError(f"scenario.inputs[{dom}]: unknown domain {dom}")
        inputs[dom] = [_parse_batch(batch, sizes, f"scenario.inputs[{dom}][{i}]")
                       for i, batch in enumerate(batches)]

    initial_cache = []
    seeded: dict[int, list[int]] = {}    # set index -> lines seeded into it
    for i, entry in enumerate(ssec["initial_cache"]):
        where = f"scenario.initial_cache[{i}]"
        addr, level = entry["addr"], entry["level"]
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

    slices = ssec["slices"]
    if slices < 1:
        raise ConfigError("scenario.slices: must be >= 1")
    ids = policy.domain_ids()
    for dom, batches in inputs.items():
        # The domain at position p runs in slices p, p + n, ...: one batch each.
        runs = len(range(ids.index(dom), slices, len(ids)))
        if len(batches) > runs:
            raise ConfigError(f"scenario.inputs[{dom}]: {len(batches)} batches, but domain {dom} "
                              f"runs in only {runs} of the {slices} slices")
    scenario = Scenario(slices=slices, inputs=inputs, objects=objects,
                        initial_cache=initial_cache)

    analysis = Analysis(**doc["analysis"])
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
        inp = _read(d, "input", at)
        obj, offset, byte = inp["obj"], inp["offset"], inp["byte"]
        if inp["kind"] in (USER_READ, USER_WRITE, SYS_READ, SYS_WRITE):
            if obj not in sizes:
                raise ConfigError(f"{at}.obj: unknown object {obj!r}")
            if not 0 <= offset < sizes[obj]:
                raise ConfigError(f"{at}.offset: must be in 0..{sizes[obj] - 1}, got {offset}")
            if not 0 <= byte <= 255:
                raise ConfigError(f"{at}.byte: must be in 0..255, got {byte}")
        if inp["kind"] == RAW_ACCESS and inp["vaddr"] is None:
            raise ConfigError(f"{at}.vaddr: missing required field")
        out.append(Input(**inp))
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


def worst_input_cost(cm: CostModel, trace_budget: int, kind: str, kernel_ops: int) -> int:
    """Most cycles an input of kind can take: each op a miss that evicts, at top jitter.
    The selector pads any footprint, a raw access's one page included, to
    trace_budget ops."""
    user_ops = 0 if kind == NOOP else trace_budget
    return (kernel_ops + user_ops) * (cm.miss_evict_cost + cm.jitter)


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
    worst = max(worst_input_cost(cfg.cost_model, cfg.analysis.trace_budget, k,
                                 walk if k in KERNEL_CALLS else 0) for k in INPUT_KINDS)
    if cfg.policy.slice_length < worst:
        raise ConfigError(f"policy.slice_length: {cfg.policy.slice_length} is below {worst}, "
                          f"the worst-case cost of a single input, so that input could never run")
    # Attack variants run the prefetch template on the same config.
    worst = max(worst_switch_cost(cfg, m) for m in (HONEST_MECHANISM, PREFETCH_MECHANISM))
    if cfg.policy.switch_deadline < worst:
        raise ConfigError(f"policy.switch_deadline: {cfg.policy.switch_deadline} is below "
                          f"{worst}, the worst-case cost of a switch's work, so the pad "
                          f"could miss the deadline")
