"""Kernel semantics: touched-set tracking, slices, and the four-phase switch."""

import dataclasses
import json
import random

import pytest

from tpsim.channel import PROTECTIONS, _attack_objects, attack_variant
from tpsim.config import (
    HONEST_MECHANISM,
    NOOP,
    PREFETCH_MECHANISM,
    RAW_ACCESS,
    SYS_ALLOC,
    SYS_READ,
    SYS_WRITE,
    USER_READ,
    USER_WRITE,
    Input,
    _parse_batch,
    worst_switch_cost,
)
from tpsim.core import KERNEL_DOMAIN, ModelError, PolicyError, set_index_of
from tpsim.kernel import (
    RunError,
    RunOptions,
    StepRecord,
    SystemRunner,
    partition_subset_invariant,
    record_to_dict,
)
from tpsim.microarch import (
    NondetOracle,
    OffCoreFlush,
    OnCoreFlush,
    PadTo,
    Read,
    apply_trace,
    flushable_reset,
    parse_trace,
    visible_projection,
)
from tpsim.selector import select_trace


def _run(cfg, seed, options=None, clean=True, **kw):
    """A whole run through transitions(): the runner after it, and its records.
    Unless `clean` is off, the run must have registered no failure."""
    runner = SystemRunner(cfg, seed, options)
    records = list(runner.transitions(**kw))
    if clean:
        assert runner.failures == []
    return runner, records


def test_worst_case_cost_formula(ref_cfg):
    r = SystemRunner(ref_cfg, seed=0)
    per_op = ref_cfg.cost_model.miss_evict_cost + ref_cfg.cost_model.jitter
    walk = len(r.globals_walk) + len(r.image_walks[0])
    budget = ref_cfg.analysis.trace_budget
    assert r.worst_case_cost(Input(NOOP)) == 0
    assert r.worst_case_cost(Input(USER_READ, obj="s_buf")) == budget * per_op
    assert r.worst_case_cost(Input(SYS_READ, obj="s_buf")) == (walk + budget) * per_op
    assert (r.worst_case_cost(Input(RAW_ACCESS, vaddr=0x10000))
            == ref_cfg.geometry.lines_per_page * per_op)


def test_step_cost_never_exceeds_worst_case(ref_cfg):
    rng = random.Random("wc")
    r = SystemRunner(ref_cfg, seed="wc")
    for trial in range(200):
        obj = rng.choice(["s_buf", "s_probe"])
        kind = rng.choice([USER_READ, USER_WRITE, SYS_READ, SYS_WRITE, NOOP])
        inp = Input(kind, obj=obj, offset=rng.randrange(256), byte=rng.randrange(256))
        wc = r.worst_case_cost(inp)
        rec = r.step(inp)
        assert rec.clock_delta <= wc
        r.abstract.slot_remaining = ref_cfg.policy.slice_length  # keep the slot open


def test_get_object_grows_the_touched_set(ref_cfg):
    r = SystemRunner(ref_cfg, seed=1)
    assert r.abstract.ta == set()
    rec = r.step(Input(USER_READ, obj="s_buf", offset=5))
    assert rec.kind == "user"
    assert rec.ta_before == frozenset()
    assert rec.ta_after == frozenset({0x10000, 0x10400})  # 2048 bytes, two pages
    assert 0x10000 in r.abstract.ta


def test_raw_access_requires_retrieval(ref_cfg):
    r = SystemRunner(ref_cfg, seed=2)
    rec = r.step(Input(RAW_ACCESS, vaddr=0x10020))
    assert any(f.kind == "ta-violation" and f.vaddr == 0x10020 for f in rec.failures)
    assert rec.trace == () and rec.kernel_trace == ()
    assert rec.s_mu_after == rec.s_mu_before   # rejected before touching hardware
    # after retrieval the same address is fine
    r2 = SystemRunner(ref_cfg, seed=2)
    r2.step(Input(USER_READ, obj="s_buf"))
    rec2 = r2.step(Input(RAW_ACCESS, vaddr=0x10020))
    assert rec2.failures == ()


BAD_INPUT_SCHEDULE = {0: [[Input(USER_READ, obj="no-such-object"),
                           Input(USER_READ, obj="s_buf")]]}


def test_strict_mode_raises_and_collect_mode_records(ref_cfg):
    """Checks the one run mode: a run registers every failure and goes on,
    while a bare step only records its failures in its own record."""
    bare = SystemRunner(ref_cfg, seed=3)
    rec = bare.step(Input(USER_READ, obj="no-such-object"))
    assert [f.kind for f in rec.failures] == ["bad-input"]
    assert bare.failures == []
    runner, records = _run(ref_cfg, seed=3, slices=2, schedule=BAD_INPUT_SCHEDULE,
                           clean=False)
    assert [str(f) for f in runner.failures] == ["bad-input: unknown object 'no-such-object'"]
    # the run went on past the failure: the next input and both switches ran
    assert [r.kind for r in records] == ["user", "user", "switch", "switch"]
    assert records[1].failures == ()


def test_strict_transitions_yield_the_failing_record_before_raising(ref_cfg):
    """transitions() adds a record's failures to runner.failures before it
    yields the record, so a strict consumer can raise at that record."""
    r = SystemRunner(ref_cfg, seed=3)
    steps = r.transitions(slices=2, schedule=BAD_INPUT_SCHEDULE)
    records = []
    with pytest.raises(RunError, match="unknown object 'no-such-object'"):
        for rec in steps:
            assert r.failures == [f for seen in records + [rec] for f in seen.failures]
            records.append(rec)
            if rec.failures:
                raise RunError(rec.failures[0])
    assert len(records) == 1
    assert [f.kind for f in records[0].failures] == ["bad-input"]
    assert [f.kind for f in r.failures] == ["bad-input"]


def test_a_slice_that_overruns_its_tick_fails_the_next_switch(ref_cfg, monkeypatch):
    """With deferral defeated, a kernel call runs past a short slice's tick:
    its step records a slot-overrun, and the switch after the slice records
    the tick-overrun."""
    monkeypatch.setattr(SystemRunner, "worst_case_cost", lambda self, inp: 0)
    short = dataclasses.replace(
        ref_cfg, policy=dataclasses.replace(ref_cfg.policy, slice_length=500)
    )
    schedule = {0: [[Input(SYS_READ, obj="s_buf")]]}
    runner, records = _run(short, seed=22, slices=1, schedule=schedule, clean=False)
    assert [r.kind for r in records] == ["kernel-call", "switch"]
    assert [f.kind for f in records[0].failures] == ["slot-overrun"]
    overrun = records[1].failures[0]
    assert overrun.kind == "tick-overrun" and "past the tick 500" in overrun.detail
    assert runner.failures == [f for rec in records for f in rec.failures]
    kinds = [f.kind for f in runner.failures]
    assert kinds.index("slot-overrun") < kinds.index("tick-overrun")


def test_cross_domain_object_breaks_the_invariant(ref_cfg):
    r = SystemRunner(ref_cfg, seed=4)
    rec = r.step(Input(SYS_READ, obj="t_obj"))
    bad = [f for f in rec.failures if f.kind == "invariant"]
    assert bad and 0x21000 in bad[0].witnesses
    ok, wit = partition_subset_invariant(r.abstract.ta, r.abstract.current, ref_cfg.policy,
                                         ref_cfg.amap, ref_cfg.geometry)
    assert not ok and 0x21000 in wit


def test_sys_alloc_draws_from_the_pool(ref_cfg):
    r = SystemRunner(ref_cfg, seed=5)
    assert not r.abstract.objects["s_pool"].allocated
    rec = r.step(Input(SYS_ALLOC))
    assert rec.kind == "kernel-call"
    assert r.abstract.objects["s_pool"].allocated
    assert 0x10C00 in r.abstract.ta
    # The run changed its own copy, not the config's object.
    assert not next(o for o in ref_cfg.scenario.objects if o.ident == "s_pool").allocated
    # pool is now empty: the call still enters the kernel but does nothing
    rec2 = r.step(Input(SYS_ALLOC))
    assert rec2.kind == "kernel-call" and rec2.failures == ()
    assert rec2.ta_after == rec.ta_after


def test_switch_requires_an_expired_slot(ref_cfg):
    r = SystemRunner(ref_cfg, seed=6)
    with pytest.raises(PolicyError):
        r.domain_switch(ref_cfg.policy.slice_length)


def test_run_rejects_a_rotation_out_of_turn(ref_cfg):
    """A raised error, not an assert, so that python -O keeps the check."""
    r = SystemRunner(ref_cfg, seed=6)
    r.abstract.current = ref_cfg.policy.domain_ids()[1]
    with pytest.raises(ModelError, match="out of sync with rotation"):
        next(r.transitions(slices=2))     # raises before it yields anything


def test_switch_mechanism_shape_and_postconditions(ref_cfg):
    runner, records = _run(ref_cfg, seed=7)
    switches = [rec for rec in records if rec.kind == "switch"]
    assert len(switches) == ref_cfg.scenario.slices
    L, D = ref_cfg.policy.slice_length, ref_cfg.policy.switch_deadline
    for k, rec in enumerate(switches):
        ops = rec.trace
        assert tuple(type(o) for o in ops) == HONEST_MECHANISM
        assert ops[0].targets == ref_cfg.policy.kernel_globals
        assert rec.ta_after == frozenset()
        assert rec.s_mu_before.clock == (k + 1) * L + k * D
        assert rec.s_mu_after.clock == rec.s_mu_before.clock + D
        after = rec.s_mu_after
        assert after.flushable == flushable_reset(ref_cfg.cost_model.flushable_words)
        for idx in ref_cfg.policy.global_set_indices(ref_cfg.geometry):
            assert after.sets[idx].is_empty() and after.sets[idx].meta == 0
    assert runner.micro.clock == ref_cfg.scenario.slices * (L + D)


def test_dirty_phase_runs_clean_at_the_deadline_load_derives(ref_cfg):
    """At the shipped 320 the dirty phase misses its pad, which is why such a
    config no longer loads; at the derived worst case every switch makes it."""
    dirty = dataclasses.replace(ref_cfg.policy, use_dirty_phase=True)
    cfg = dataclasses.replace(ref_cfg, policy=dirty)
    missed, _ = _run(cfg, seed=8, clean=False)
    assert {f.kind for f in missed.failures} == {"pad-violation", "switch-postcondition"}
    for mechanism in (HONEST_MECHANISM, PREFETCH_MECHANISM):
        deadline = worst_switch_cost(cfg, mechanism)
        fits = dataclasses.replace(cfg, policy=dataclasses.replace(dirty, switch_deadline=deadline))
        _, records = _run(fits, seed=8,
                          options=RunOptions(mechanism=mechanism))
        assert [r.kind for r in records].count("switch") == ref_cfg.scenario.slices


def test_undersized_deadline_is_a_pad_violation(ref_cfg):
    """A switch whose pad fails keeps both flushes: it records exactly them,
    and reports only the missed deadline, not flushes that did run."""
    squeezed = dataclasses.replace(
        ref_cfg, policy=dataclasses.replace(ref_cfg.policy, switch_deadline=8)
    )
    runner, records = _run(squeezed, seed=8, slices=2, clean=False)
    assert any(f.kind == "pad-violation" for f in runner.failures)
    switches = [rec for rec in records if rec.kind == "switch"]
    assert len(switches) == 2
    for rec in switches:
        assert [type(o) for o in rec.trace] == [OffCoreFlush, OnCoreFlush]
        after = rec.s_mu_after
        assert after.flushable == flushable_reset(ref_cfg.cost_model.flushable_words)
        for idx in ref_cfg.policy.global_set_indices(ref_cfg.geometry):
            assert after.sets[idx].is_empty() and after.sets[idx].meta == 0
        assert after.clock > rec.s_mu_before.clock + 8     # the flushes cost time
        kinds = [f.kind for f in rec.failures]
        assert kinds.count("pad-violation") == 1
        details = " ".join(f.detail for f in rec.failures)
        assert "not reset" not in details and "not scrubbed" not in details
        assert "does not sit on the deadline" in details


def test_failed_step_trace_keeps_the_ops_before_the_failure(ref_cfg):
    """An oracle that runs out mid-trace: the step records the operations
    that ran, and the state holds exactly their effect."""
    opts = RunOptions(oracle_factory=lambda sl, dom, phase: NondetOracle(words=range(7)))
    r = SystemRunner(ref_cfg, seed=18, options=opts)
    rec = r.step(Input(SYS_READ, obj="s_buf"))
    assert [f.kind for f in rec.failures] == ["trace-error"]
    ran = rec.kernel_trace + rec.trace
    assert len(ran) == 3                               # two words per access
    fresh = SystemRunner(ref_cfg, seed=18)
    want = apply_trace(fresh.micro, ran, NondetOracle(words=range(7)),
                       ref_cfg.geometry, ref_cfg.cost_model, ref_cfg.policy)
    assert rec.s_mu_after == want == r.micro


def test_run_that_ends_with_deferred_inputs_is_starved(ref_cfg):
    """No input fits a 500-cycle slice: the run must not pass as clean."""
    short = dataclasses.replace(
        ref_cfg, policy=dataclasses.replace(ref_cfg.policy, slice_length=500)
    )
    runner, records = _run(short, seed=19, clean=False)
    assert {r.kind for r in records} == {"switch"} and runner.failures != []
    starved = [f for f in runner.failures if f.kind == "starved"]
    assert [f.detail.split(":")[0] for f in starved] == ["domain 0", "domain 1"]
    assert all("still deferred" in f.detail for f in starved)


def test_prefetch_mechanism_replaces_the_targeted_flush(ref_cfg):
    _, records = _run(ref_cfg, seed=9, slices=2,
                      options=RunOptions(mechanism=PREFETCH_MECHANISM))
    walk = tuple(sorted(ref_cfg.policy.kernel_globals))
    for rec in records:
        if rec.kind != "switch":
            continue
        # old_clean walks the globals, and the mechanism walks them again
        assert tuple(op.p for op in rec.kernel_trace) == walk
        assert [type(o) for o in rec.trace] == [Read] * len(walk) + [OnCoreFlush, PadTo]
        assert tuple(op.p for op in rec.trace[:len(walk)]) == walk
        # the globals are warm, not scrubbed, and that is fine here
        idx = next(iter(ref_cfg.policy.global_set_indices(ref_cfg.geometry)))
        assert not rec.s_mu_after.sets[idx].is_empty()


def test_mechanism_template_shapes_the_switch(ref_cfg):
    opts = RunOptions(mechanism=())
    _, records = _run(ref_cfg, seed=10, slices=2, options=opts, clean=False)
    for rec in records:
        if rec.kind == "switch":
            assert rec.trace == ()


def test_deferral_preserves_program_order(ref_cfg):
    # Six kernel calls cost more than one slot; the tail must carry over
    # to the same domain's next slice, ahead of that slice's own batch.
    many = [Input(SYS_READ, obj="s_buf", offset=i) for i in range(6)]
    later = [Input(USER_READ, obj="s_probe", offset=99)]
    schedule = {0: [many, later], 1: [[Input(NOOP)], [Input(NOOP)]]}
    _, records = _run(ref_cfg, seed=11, slices=4, schedule=schedule)
    d0 = [rec for rec in records if rec.kind != "switch" and rec.domain == 0]
    offsets = [rec.input.offset for rec in d0]
    assert offsets == [0, 1, 2, 3, 4, 5, 99]
    first_slice = [rec for rec in d0 if rec.slice_index == 0]
    assert 0 < len(first_slice) < 6
    # the deferral rule fired exactly when the worst case no longer fit
    wc = SystemRunner(ref_cfg, seed=0).worst_case_cost(many[0])
    left = ref_cfg.policy.slice_length - first_slice[-1].s_mu_after.clock
    assert wc > left
    carried = [rec for rec in d0 if rec.slice_index == 2]
    assert carried[0].input.offset == len(first_slice)
    assert carried[-1].input.offset == 99


def test_ta_leak_copies_a_byte_across_domains(ref_cfg):
    r = SystemRunner(ref_cfg, seed=12, options=RunOptions(ta_leak=True))
    r.step(Input(USER_WRITE, obj="s_buf", offset=0, byte=0xAB))
    assert r.abstract.objects["t_gbuf"].payload.get(0) == 0xAB
    honest = SystemRunner(ref_cfg, seed=12)
    honest.step(Input(USER_WRITE, obj="s_buf", offset=0, byte=0xAB))
    assert honest.abstract.objects["t_gbuf"].payload == {}


def test_initial_cache_seeds_the_micro_state(ref_cfg):
    """Each entry seeds its line at its level; two lines may share a set up to
    its ways.  Entries that cannot run are rejected at load (test_config)."""
    seeds = [(0x1440, 1), (0x2440, 2), (0x2400, 2)]     # 0x1440 and 0x2440 share set 17
    scen = dataclasses.replace(ref_cfg.scenario, initial_cache=seeds)
    cfg = dataclasses.replace(ref_cfg, scenario=scen)
    r = SystemRunner(cfg, seed=13)
    g = ref_cfg.geometry
    s = r.micro
    for addr, level in seeds:
        assert s.sets[set_index_of(addr, g)].level_of(g.line_of(addr)) == level
    assert set_index_of(0x1440, g) == set_index_of(0x2440, g) == 17


def test_oracle_hook_and_runner_seeded_traces(ref_cfg):
    phases = []

    def factory(slice_index, domain, phase):
        phases.append((slice_index, domain, phase))
        return NondetOracle(key=f"hook:{slice_index}:{domain}:{phase}")

    _, records = _run(ref_cfg, seed=14, slices=2,
                      options=RunOptions(oracle_factory=factory))
    kinds = {p[2] for p in phases}
    assert "old_clean" in kinds and "mechanism" in kinds
    assert any(p.startswith("step:") for p in kinds)
    assert any(d == KERNEL_DOMAIN for _, d, ph in phases if ph == "mechanism")

    # Whatever the oracle, trace seeds come from the runner's seed: the first
    # step's trace is the selector's choice under "14:trace:0:0".
    g = ref_cfg.geometry
    first = records[0]
    vis = visible_projection(first.s_mu_before, 0, ref_cfg.policy, "executing", g)
    assert first.trace == select_trace(first.ta_after, vis, ref_cfg.amap,
                                       ref_cfg.analysis.trace_budget, "14:trace:0:0",
                                       line_size=g.line_size)

    # Without the hook, oracle keys come from the runner's seed too.
    keyed = RunOptions(oracle_factory=lambda sl, dom, ph:
                       NondetOracle(key=f"14:oracle:{sl}:{dom}:{ph}"))
    assert _run(ref_cfg, seed=14, slices=2, options=keyed)[1] \
        == _run(ref_cfg, seed=14, slices=2)[1]


def test_default_scenario_runs_clean_and_serializes(ref_cfg):
    _, records = _run(ref_cfg, seed=15)
    kinds = [rec.kind for rec in records]
    assert kinds.count("switch") == 6 and len(kinds) > 6
    for rec in records:
        d = record_to_dict(rec)
        json.dumps(d)   # must be JSON-clean
        assert parse_trace(d["trace"]) == rec.trace
        assert (d["clock_before"], d["clock_after"]) \
            == (rec.s_mu_before.clock, rec.s_mu_after.clock)
        assert d["clock_after"] - d["clock_before"] == rec.clock_delta


def test_scenario_rotation_lookup(ref_cfg):
    inputs = ref_cfg.scenario.inputs     # parsed once, at load
    assert inputs[0][0] == [Input(USER_READ, obj="s_buf", offset=0)]
    assert inputs[1][2] == [Input(SYS_WRITE, obj="t_obj", offset=8, byte=9)]
    # transitions() reads the scenario's batches when it is given no schedule
    assert _run(ref_cfg, seed=16)[1] == _run(ref_cfg, seed=16, schedule=inputs)[1]
    # rotations past the last batch run no input
    _, records = _run(ref_cfg, seed=16, slices=8)
    assert [r.kind for r in records if r.slice_index >= 6] == ["switch", "switch"]


def test_transitions_yield_each_record_with_the_live_state(ref_cfg):
    runner = SystemRunner(ref_cfg, seed=17)
    yielded = []
    for rec in runner.transitions(slices=2):
        assert rec.s_mu_after is runner.micro    # the runner has not moved on yet
        yielded.append(rec)
    assert yielded == _run(ref_cfg, seed=17, slices=2)[1]
    kinds = [rec.kind for rec in yielded]
    assert kinds.count("switch") == 2 and len(kinds) > 2


def test_record_inputs_read_back_as_scenario_inputs(ref_cfg):
    """A JSONL record writes its input in the schema of scenario.inputs."""
    r = SystemRunner(ref_cfg, seed=20)
    recs = [r.step(Input(USER_WRITE, obj="s_buf", offset=3, byte=0xAB)),
            r.step(Input(RAW_ACCESS, vaddr=0x10020))]
    sizes = {o.ident: o.size for o in ref_cfg.scenario.objects}
    for rec in recs:
        d = json.loads(json.dumps(record_to_dict(rec)))
        assert _parse_batch([d["input"]], sizes, "record") == [rec.input]


@pytest.mark.parametrize("config", ["ref_cfg", "adv_cfg"])
def test_forked_probe_runs_match_unforked_runs(request, config):
    """Fork after the prime slice's switch, go on to the probe step: every
    record up to it equals the unforked run's, in every field."""
    cfg = request.getfixturevalue(config)
    for protection in PROTECTIONS:
        acfg, options = attack_variant(cfg, protection)
        prime_obj, probe_obj, trojan_obj = _attack_objects(acfg)
        spy, trojan = acfg.policy.domain_ids()[:2]
        spy_batches = [[Input(USER_READ, obj=prime_obj)], [Input(SYS_READ, obj=probe_obj)]]
        runner = SystemRunner(acfg, seed=protection, options=options)
        prefix = list(runner.transitions(slices=1, schedule={spy: spy_batches}))
        for signal in (Input(NOOP), Input(SYS_READ, obj=trojan_obj)):
            schedule = {spy: spy_batches, trojan: [[signal]]}
            _, whole = _run(acfg, seed=protection, options=options,
                            slices=3, schedule=schedule)
            forked = list(prefix)
            for rec in runner.fork().transitions(slices=3, schedule=schedule):
                forked.append(rec)
                if rec.slice_index == 2 and rec.kind != "switch":
                    break
            assert len(forked) == len(whole) - 1       # all but the last switch
            for a, b in zip(forked, whole):
                for f in dataclasses.fields(StepRecord):
                    assert getattr(a, f.name) == getattr(b, f.name), (protection, signal, f.name)


def test_a_fork_shares_no_mutable_state_with_its_parent(ref_cfg):
    r = SystemRunner(ref_cfg, seed=21)
    r.step(Input(USER_WRITE, obj="s_buf", offset=1, byte=5))
    r._deferred[0].append(Input(NOOP))
    before = (dict(r.abstract.objects["s_buf"].payload), set(r.abstract.ta),
              {d: list(q) for d, q in r._deferred.items()}, list(r.failures), r.micro)

    twin = r.fork()
    twin.step(Input(USER_WRITE, obj="s_buf", offset=2, byte=9))    # payload byte
    twin.step(Input(USER_READ, obj="s_probe"))                      # touched page
    twin.failures.append(twin.step(Input(RAW_ACCESS, vaddr=0x20000)).failures[0])   # a failure
    twin._deferred[0].append(Input(USER_READ, obj="s_buf"))        # deferred input
    twin._deferred[1].append(Input(NOOP))

    assert twin.abstract.objects["s_buf"].payload == {1: 5, 2: 9}
    assert twin.abstract.ta > before[1] and twin.failures and twin.micro != before[4]
    after = (dict(r.abstract.objects["s_buf"].payload), set(r.abstract.ta),
             {d: list(q) for d, q in r._deferred.items()}, list(r.failures), r.micro)
    assert after == before
