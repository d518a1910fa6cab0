"""Config parsing: every rejection names the field that caused it."""

import copy
import re

import pytest
import yaml

from tpsim.config import (
    HONEST_MECHANISM,
    NOOP,
    PREFETCH_MECHANISM,
    RAW_ACCESS,
    _SCHEMA,
    Input,
    load_config,
    parse_config,
    validate_config,
    worst_switch_cost,
)
from tpsim.cli import main
from tpsim.core import KERNEL_VBASE, ConfigError


@pytest.fixture(scope="module")
def raw(config_dir):
    return yaml.safe_load((config_dir / "reference.yaml").read_text())


def _broken(raw, mutate):
    doc = copy.deepcopy(raw)
    mutate(doc)
    return doc


def test_reference_parses_and_spot_checks(ref_cfg):
    assert ref_cfg.geometry.num_sets == 64 and ref_cfg.geometry.num_colours == 4
    assert ref_cfg.policy.slice_length == 8192
    assert ref_cfg.policy.replacement == "plru"
    assert ref_cfg.analysis.shuffles >= 100
    assert {o.ident for o in ref_cfg.scenario.objects} >= {"s_buf", "t_gbuf"}
    assert ref_cfg.scenario.slices == 6
    assert ref_cfg.source.endswith("reference.yaml")


def test_kernel_window_is_mapped_automatically(ref_cfg):
    for d in ref_cfg.policy.domains:
        for page in d.kernel_image:
            assert ref_cfg.amap.translate_page(KERNEL_VBASE + page) == page
    for page in ref_cfg.policy.global_pages(ref_cfg.geometry):
        assert ref_cfg.amap.translate_page(KERNEL_VBASE + page) == page


def test_universe_covers_the_address_map(ref_cfg):
    g = ref_cfg.geometry
    for ppage in ref_cfg.amap.pages.values():
        assert g.page_of(ppage) in ref_cfg.universe_pages


def test_missing_section_is_named(raw):
    with pytest.raises(ConfigError, match="policy: missing required section"):
        parse_config(_broken(raw, lambda d: d.pop("policy")))


def test_missing_field_is_named(raw):
    with pytest.raises(ConfigError, match="geometry.line_size"):
        parse_config(_broken(raw, lambda d: d["geometry"].pop("line_size")))


def test_wrong_spec_version(raw):
    with pytest.raises(ConfigError, match="spec_version"):
        parse_config(_broken(raw, lambda d: d.update(spec_version=99)))
    with pytest.raises(ConfigError, match="spec_version: expected 1, got True"):
        parse_config(_broken(raw, lambda d: d.update(spec_version=True)))


def test_addresses_must_be_hex_strings(raw):
    with pytest.raises(ConfigError, match="kernel_globals"):
        parse_config(_broken(raw, lambda d: d["policy"].update(kernel_globals=[3200])))
    with pytest.raises(ConfigError, match="address_map"):
        parse_config(_broken(
            raw, lambda d: d["scenario"]["address_map"].update({"0x99000": 123})
        ))


def test_integers_must_be_integers(raw):
    with pytest.raises(ConfigError, match="slice_length"):
        parse_config(_broken(raw, lambda d: d["policy"].update(slice_length="fast")))
    with pytest.raises(ConfigError, match="slice_length"):
        parse_config(_broken(raw, lambda d: d["policy"].update(slice_length=True)))


def test_analysis_guards(raw):
    with pytest.raises(ConfigError, match="shuffles"):
        parse_config(_broken(raw, lambda d: d["analysis"].update(shuffles=10)))
    with pytest.raises(ConfigError, match="bin_width"):
        parse_config(_broken(raw, lambda d: d["analysis"].update(bin_width=0)))


QUOTED_BOOLEANS = [
    ("policy.use_dirty_phase", lambda d: d["policy"].update(use_dirty_phase="false")),
    ("scenario.objects[2].allocated",
     lambda d: d["scenario"]["objects"][2].update(allocated="no")),
]


@pytest.mark.parametrize("name, mutate", QUOTED_BOOLEANS, ids=[n for n, _ in QUOTED_BOOLEANS])
def test_booleans_must_be_yaml_booleans(raw, name, mutate):
    """bool("false") is True: a quoted boolean would mean its opposite."""
    with pytest.raises(ConfigError, match=re.escape(name) + ": expected true or false"):
        parse_config(_broken(raw, mutate))


UNKNOWN_KEYS = [
    ("policy.replacment", lambda d: d["policy"].update(replacment="adversarial")),
    ("config.analysys", lambda d: d.update(analysys={})),
    ("geometry.ways", lambda d: d["geometry"].update(ways=2)),
    ("cost_model.max_level", lambda d: d["cost_model"].update(max_level=2)),
    ("policy.kernel_vbase", lambda d: d["policy"].update(kernel_vbase="0xF000000")),
    ("policy.domains[1].colors", lambda d: d["policy"]["domains"][1].update(colors=[2])),
    ("scenario.universe_pages", lambda d: d["scenario"].update(universe_pages=[])),
    ("scenario.objects[0].alocated", lambda d: d["scenario"]["objects"][0].update(alocated=1)),
    ("scenario.initial_cache[0].lvl",
     lambda d: d["scenario"].update(initial_cache=[{"addr": "0x1440", "lvl": 2}])),
    ("scenario.inputs[0][1][0].ofset",
     lambda d: d["scenario"]["inputs"][0][1][0].update(ofset=16)),
    ("analysis.shufles", lambda d: d["analysis"].update(shufles=500)),
]


@pytest.mark.parametrize("name, mutate", UNKNOWN_KEYS, ids=[n for n, _ in UNKNOWN_KEYS])
def test_unknown_keys_are_named(raw, name, mutate):
    """A mistyped or retired key is an error, not a silent default."""
    with pytest.raises(ConfigError, match=re.escape(name) + ": unknown field"):
        parse_config(_broken(raw, mutate))


def test_object_rejections(raw):
    def dup(d):
        d["scenario"]["objects"].append(dict(d["scenario"]["objects"][0]))
    with pytest.raises(ConfigError, match="duplicate object id"):
        parse_config(_broken(raw, dup))

    def stray_owner(d):
        d["scenario"]["objects"][0]["owner"] = 7
    with pytest.raises(ConfigError, match="unknown domain 7"):
        parse_config(_broken(raw, stray_owner))

    def outside(d):
        d["scenario"]["objects"][0]["base"] = "0x90000"
    with pytest.raises(ConfigError, match="outside domain"):
        parse_config(_broken(raw, outside))


def test_initial_cache_parse(raw):
    doc = _broken(raw, lambda d: d["scenario"].update(
        initial_cache=[{"addr": "0x1440", "level": 2}, {"addr": "0x2400"}]
    ))
    cfg = parse_config(doc)
    assert cfg.scenario.initial_cache == [(0x1440, 2), (0x2400, 1)]
    with pytest.raises(ConfigError, match="initial_cache"):
        parse_config(_broken(raw, lambda d: d["scenario"].update(initial_cache=["0x1440"])))


UNRUNNABLE_CACHES = [     # 0x1440, 0x2440 and 0x3440 all fall into set 17 of two ways
    ("level-0", [{"addr": "0x1440", "level": 0}], "[0].level: must be in 1..2, got 0"),
    ("level-7", [{"addr": "0x1440", "level": 7}], "[0].level: must be in 1..2, got 7"),
    ("line-twice", [{"addr": "0x1440"}, {"addr": "0x1450", "level": 2}],
     "[1].addr: line 0x1440 is already seeded"),
    ("set-overfull", [{"addr": "0x1440"}, {"addr": "0x2440"}, {"addr": "0x3440"}],
     "[2].addr: set 17 already holds 2 seeded lines"),
]


@pytest.mark.parametrize("name, entries, message", UNRUNNABLE_CACHES,
                         ids=[n for n, _, _ in UNRUNNABLE_CACHES])
def test_initial_cache_that_cannot_run_is_rejected(raw, name, entries, message):
    """Such an entry used to be clamped, overwritten or dropped at run time."""
    with pytest.raises(ConfigError, match=re.escape("scenario.initial_cache" + message)):
        parse_config(_broken(raw, lambda d: d["scenario"].update(initial_cache=entries)))


def test_scenario_inputs_are_parsed_at_load(raw):
    """A mistyped input kind or object, or inputs for a domain that does not
    exist, are rejected at load, naming the input, not when a run first
    reaches the slice (or never)."""
    with pytest.raises(ConfigError, match=r"scenario\.inputs\[1\]\[2\]\[0\]\.kind: .*'sys_wirte'"):
        parse_config(_broken(raw, lambda d: d["scenario"]["inputs"][1][2][0].update(
            kind="sys_wirte")))
    with pytest.raises(ConfigError, match=r"scenario\.inputs\[0\]\[0\]\[0\]\.obj: .*'s_bfu'"):
        parse_config(_broken(raw, lambda d: d["scenario"]["inputs"][0][0][0].update(
            obj="s_bfu")))
    with pytest.raises(ConfigError, match=r"scenario\.inputs\[7\]: unknown domain 7"):
        parse_config(_broken(raw, lambda d: d["scenario"]["inputs"].update(
            {7: [[{"kind": "noop"}]]})))
    with pytest.raises(ConfigError, match=r"scenario\.inputs\[0\]\[1\]\[0\]\.offset"):
        parse_config(_broken(raw, lambda d: d["scenario"]["inputs"][0][1][0].update(
            offset="sixteen")))
    with pytest.raises(ConfigError, match=r"scenario\.inputs\[0\]\[0\]: expected a list"):
        parse_config(_broken(raw, lambda d: d["scenario"]["inputs"][0].__setitem__(
            0, {"kind": "noop"})))
    with pytest.raises(ConfigError, match=r"scenario\.inputs\[0\]\[0\]\[0\]\.op: unknown field"):
        parse_config(_broken(raw, lambda d: d["scenario"]["inputs"][0].__setitem__(
            0, [{"op": "noop"}])))
    with pytest.raises(ConfigError, match=r"scenario\.inputs\[0\]\[0\]\[0\]\.kind: .*None"):
        parse_config(_broken(raw, lambda d: d["scenario"]["inputs"][0].__setitem__(
            0, [{"obj": "s_buf"}])))
    cfg = parse_config(_broken(raw, lambda d: d["scenario"]["inputs"][0][2].extend(
        [{"kind": "raw_access", "vaddr": "0x10020"}, {"kind": "noop"}])))
    assert cfg.scenario.inputs[0][2][1:] == [Input(RAW_ACCESS, vaddr=0x10020), Input(NOOP)]
    with pytest.raises(ValueError, match="raw_access input needs a vaddr"):
        Input(RAW_ACCESS)


def _idle_domain_as_kernel(d):
    """Domain 1 with no objects or inputs, under the kernel's id: its oracle
    words would be shared between the two runs of a confidentiality trial."""
    d["scenario"]["objects"] = [o for o in d["scenario"]["objects"] if o["owner"] == 0]
    del d["scenario"]["inputs"][1]
    d["policy"]["domains"][1]["id"] = -1


UNRUNNABLE_INPUTS = [
    ("raw-access-without-vaddr",
     lambda d: d["scenario"]["inputs"][0][0].append({"kind": "raw_access"}),
     "scenario.inputs[0][0][1].vaddr: missing required field"),
    ("negative-offset", lambda d: d["scenario"]["inputs"][0][2][0].update(offset=-5),
     "scenario.inputs[0][2][0].offset: must be in 0..2047, got -5"),
    ("offset-past-the-object", lambda d: d["scenario"]["inputs"][0][1][0].update(offset=256),
     "scenario.inputs[0][1][0].offset: must be in 0..255, got 256"),
    ("byte-above-255", lambda d: d["scenario"]["inputs"][0][2][0].update(byte=999),
     "scenario.inputs[0][2][0].byte: must be in 0..255, got 999"),
    ("negative-byte", lambda d: d["scenario"]["inputs"][1][2][0].update(byte=-1),
     "scenario.inputs[1][2][0].byte: must be in 0..255, got -1"),
    ("object-id-a-list", lambda d: d["scenario"]["objects"][0].update(id=[1]),
     "scenario.objects[0].id: expected a string, got [1]"),
    ("object-id-a-number", lambda d: d["scenario"]["objects"][0].update(id=5),
     "scenario.objects[0].id: expected a string, got 5"),
    ("object-name-a-list", lambda d: d["scenario"]["inputs"][0][1][0].update(obj=["s_probe"]),
     "scenario.inputs[0][1][0].obj: expected a string, got ['s_probe']"),
    ("kernel-domain-id", _idle_domain_as_kernel,
     "policy.domains[1].id: -1 is the kernel's own domain id"),
    ("batch-no-slice-reaches", lambda d: d["scenario"]["inputs"][0].append([{"kind": "noop"}]),
     "scenario.inputs[0]: 4 batches, but domain 0 runs in only 3 of the 6 slices"),
]


@pytest.mark.parametrize("name, mutate, message", UNRUNNABLE_INPUTS,
                         ids=[n for n, _, _ in UNRUNNABLE_INPUTS])
def test_inputs_and_objects_the_kernel_cannot_run_are_exit_2(raw, tmp_path, capsys,
                                                             name, mutate, message):
    """A raw access with no address, an offset outside its object, a byte
    that is not a byte and an object id that is not a string are config
    faults: rejected at load, naming the field, rather than run as a kernel
    failure or silently wrapped."""
    doc = _broken(raw, mutate)
    with pytest.raises(ConfigError, match=re.escape(message) + "$"):
        parse_config(doc)
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert main(["check", str(path), "--trials", "1", "--no-timestamp"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_validate_config_catches_colour_overlap(raw, ref_cfg):
    validate_config(ref_cfg)   # the shipped config is sound
    doc = _broken(raw, lambda d: d["policy"]["domains"][1].update(colours=[1, 2]))
    cfg = parse_config(doc)
    with pytest.raises(ConfigError, match="already claimed"):
        validate_config(cfg)


@pytest.mark.parametrize("name", ["reference.yaml", "adversarial.yaml"])
def test_validate_config_rejects_a_slice_no_kernel_call_fits(config_dir, name):
    """A kernel call walks the 3 globals and a 16-line image and may trace 64
    ops, each at most a miss that evicts plus jitter: 83 * 31 = 2573 cycles.
    A shorter slice could never run one, so it is rejected at load."""
    raw = yaml.safe_load((config_dir / name).read_text())
    fits = parse_config(_broken(raw, lambda d: d["policy"].update(slice_length=2573)))
    validate_config(fits)
    short = parse_config(_broken(raw, lambda d: d["policy"].update(slice_length=2572)))
    with pytest.raises(ConfigError, match=r"policy\.slice_length: 2572 is below 2573"):
        validate_config(short)


@pytest.mark.parametrize("name", ["reference.yaml", "adversarial.yaml"])
def test_validate_config_rejects_a_deadline_the_switch_can_miss(config_dir, name):
    """A switch walks the 3 globals, 3 * 31 = 93 cycles, then runs its
    template: the honest one flushes set 50 off-core (20 + 2 * 4 + 1) and
    on-core (WCET 120), 242 in all; the prefetch one walks the globals again
    instead, 306.  The dirty phase adds two 16-line image walks, 992."""
    raw = yaml.safe_load((config_dir / name).read_text())
    cfg = parse_config(raw)
    assert [worst_switch_cost(cfg, m) for m in (HONEST_MECHANISM, PREFETCH_MECHANISM)] \
        == [242, 306]
    validate_config(cfg)     # the shipped 320
    validate_config(parse_config(_broken(raw, lambda d: d["policy"].update(switch_deadline=306))))
    tight = parse_config(_broken(raw, lambda d: d["policy"].update(switch_deadline=305)))
    with pytest.raises(ConfigError, match=r"policy\.switch_deadline: 305 is below 306"):
        validate_config(tight)

    dirty = _broken(raw, lambda d: d["policy"].update(use_dirty_phase=True))
    assert worst_switch_cost(parse_config(dirty), HONEST_MECHANISM) == 242 + 992
    with pytest.raises(ConfigError, match=r"policy\.switch_deadline: 320 is below 1298"):
        validate_config(parse_config(dirty))
    dirty["policy"]["switch_deadline"] = 1298
    validate_config(parse_config(dirty))


def test_load_config_io_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("spec_version: [unclosed\n")
    with pytest.raises(ConfigError, match="YAML"):
        load_config(bad)
    top = tmp_path / "top.yaml"
    top.write_text("- just\n- a list\n")
    with pytest.raises(ConfigError, match="top level"):
        load_config(top)


@pytest.mark.parametrize("name", ["reference.yaml", "adversarial.yaml", "three-domain.yaml"])
def test_libyaml_and_pure_python_loaders_give_equal_configs(config_dir, monkeypatch, name):
    """load_config parses with libyaml's CSafeLoader where PyYAML has it, and
    the result is the one PyYAML's own SafeLoader gives."""
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("this PyYAML is built without libyaml")
    used = []

    class Spy(yaml.CSafeLoader):
        def __init__(self, stream):
            used.append(name)
            super().__init__(stream)

    monkeypatch.setattr(yaml, "CSafeLoader", Spy)
    fast = load_config(config_dir / name)
    assert used == [name]
    monkeypatch.delattr(yaml, "CSafeLoader")
    assert load_config(config_dir / name) == fast


@pytest.mark.parametrize("libyaml", [True, False], ids=["as-is", "no-libyaml"])
def test_malformed_yaml_is_exit_2_with_either_loader(tmp_path, capsys, monkeypatch, libyaml):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    bad = tmp_path / "bad.yaml"
    bad.write_text("spec_version: [unclosed\n")
    assert main(["check", str(bad), "--trials", "1", "--no-timestamp"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: config is not valid YAML")


# Where each kind of mapping sits in reference.yaml, once one initial_cache
# entry is added: its path as messages name it, and how to reach it.
INSTANCES = {
    "config": ("config", lambda d: d),
    "geometry": ("geometry", lambda d: d["geometry"]),
    "cost_model": ("cost_model", lambda d: d["cost_model"]),
    "policy": ("policy", lambda d: d["policy"]),
    "domain": ("policy.domains[1]", lambda d: d["policy"]["domains"][1]),
    "scenario": ("scenario", lambda d: d["scenario"]),
    "object": ("scenario.objects[0]", lambda d: d["scenario"]["objects"][0]),
    "initial_cache": ("scenario.initial_cache[0]", lambda d: d["scenario"]["initial_cache"][0]),
    "input": ("scenario.inputs[0][1][0]", lambda d: d["scenario"]["inputs"][0][1][0]),
    "analysis": ("analysis", lambda d: d["analysis"]),
}
FAULT_VALUES = ["x", True, [1], {"a": 1}, 3, None, 2.5]
# Fields whose check reads another key, so that its fault is named there.
REFERRERS = {
    ("cost_model", "hit_cost"): ["scenario.initial_cache[0].level"],   # the level count
    ("domain", "id"): ["scenario.inputs[1]"],                          # inputs by domain id
}


def _single_faults(base, kind):
    """Variants of base that each break one key of kind's instance: removed,
    replaced by a value of each YAML type, or joined by an unknown key.  Each
    comes with the paths its error may start with: the key's own, or that of
    a mapping that holds it."""
    where, reach = INSTANCES[kind]
    ancestors = [where[:i] for i, c in enumerate(where) if c in ".["] + [where]
    for key in _SCHEMA[kind]:
        own = [f"{where}.{key}", key] if kind == "config" else [f"{where}.{key}"]
        edits = [("removed", lambda m: m.pop(key, None))]
        edits += [(repr(v), lambda m, v=v: m.__setitem__(key, copy.deepcopy(v)))
                  for v in FAULT_VALUES]
        for name, edit in edits:
            doc = copy.deepcopy(base)
            edit(reach(doc))
            yield f"{key} {name}", doc, own + ancestors + REFERRERS.get((kind, key), [])
    doc = copy.deepcopy(base)
    reach(doc)["unknown_key"] = 1
    yield "unknown key", doc, [f"{where}.unknown_key"]


@pytest.mark.parametrize("kind", list(INSTANCES))
def test_every_single_fault_loads_or_is_a_config_error_naming_its_field(raw, kind):
    """A config with one key of one mapping broken loads, or is rejected with a
    ConfigError that starts with the path of that key or of a mapping that
    holds it; never with another exception (an obj list was a TypeError)."""
    assert set(INSTANCES) == set(_SCHEMA)
    base = _broken(raw, lambda d: d["scenario"].update(
        initial_cache=[{"addr": "0x1440", "level": 2}]))
    unnamed = []
    for name, doc, paths in _single_faults(base, kind):
        try:
            parse_config(doc)
        except ConfigError as e:
            msg = str(e)
            if not any(msg.startswith(p) and msg[len(p):][:1] in (":", "[", ".", " ")
                       for p in paths):
                unnamed.append((name, msg))
        except Exception as e:
            unnamed.append((name, repr(e)))
    assert unnamed == []
