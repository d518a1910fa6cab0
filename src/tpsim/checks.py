"""Randomized property suites over the hardware model, selector and kernel.

Each check builds its own inputs from a seeded generator, runs a fixed number
of cases and reports the failures it saw; nothing here depends on global
state.  The CLI surfaces these through `check --suite ...`, and the test suite
drives the same functions at larger case counts.

The locality checks all follow one scheme: construct two states that agree
exactly on the slice of state an operation is allowed to depend on, hand both
the same nondeterminism, and require identical costs (and, where it applies,
identical effects on that slice).

Random states are drawn from a plan built once per config, each from one
getrandbits through selector.draw_sets, which documents their distribution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Iterator

from .config import (INPUT_KINDS, KERNEL_CALLS, NOOP, RAW_ACCESS, SUITES, SYS_ALLOC, Input,
                     RunConfig)
from .core import (
    KERNEL_VBASE,
    ConfigError,
    fan_out,
    set_index_of,
    universe_lines,
)
from .kernel import Failure, StepRecord, SystemRunner, partition_subset_invariant
from .microarch import (
    MicroArchState,
    NondetOracle,
    OffCoreFlush,
    OnCoreFlush,
    Read,
    Write,
    _adv_update,
    _adv_victim,
    _plru_touch,
    _plru_victim,
    adheres,
    apply_op,
    flushable_reset,
    visible_projection,
)
from .selector import (SetDraw, draw_sets, perturb_invisible, select_trace, select_trace_peeking,
                       set_draw)


@dataclass
class CheckResult:
    name: str
    cases: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, case: int, msg: str) -> None:
        self.failures.append(f"case {case}: {msg}")

    def format(self) -> str:
        if self.ok:
            return f"PASS {self.name} ({self.cases} cases)"
        head = f"FAIL {self.name} ({len(self.failures)}/{self.cases} cases)"
        return head + "".join("\n  " + f for f in self.failures[:5])


# --- random state construction ---------------------------------------------------

def _state_plan(cfg: RunConfig) -> SetDraw:
    """What _random_state draws from: the SetDraw of every set, in order."""
    g = cfg.geometry
    return set_draw(universe_lines(cfg.universe_pages, g), g, range(g.num_sets),
                    cfg.cost_model.max_level, cfg.policy.replacement)


def _random_state(rng: random.Random, cfg: RunConfig, plan: SetDraw) -> MicroArchState:
    words = cfg.cost_model.flushable_words
    sets, tail = draw_sets(rng, plan, f"{words}QI")
    return MicroArchState(flushable=tail[:words], sets=tuple(sets), clock=tail[words] & 0xFFFFF)


def _reroll_set(rng: random.Random, plan: SetDraw, state: MicroArchState, j: int) -> MicroArchState:
    """state with cache set j replaced by a fresh random set."""
    fresh, _ = draw_sets(rng, plan._replace(pools=plan.pools[j:j + 1]))
    return state._replace(sets=state.sets[:j] + tuple(fresh) + state.sets[j + 1:])


# --- cost locality ---------------------------------------------------------------

def _paired_apply(cfg: RunConfig, s1: MicroArchState, s2: MicroArchState, op,
                  key: str, sets: Collection[int] = (),
                  flushable: bool = False) -> tuple[str | None, MicroArchState]:
    """Apply op to two states that agree on all it may depend on, under paired
    oracles.  Both must pay the same cost.  The parts op may write (the given
    cache sets, and the flushable words if flushable) must come out equal in
    both successors; every other part must come through untouched in each.
    Returns the first problem, or None, and s1's successor."""
    r1 = apply_op(s1, op, NondetOracle(key=key), cfg.geometry, cfg.cost_model, cfg.policy)
    r2 = apply_op(s2, op, NondetOracle(key=key), cfg.geometry, cfg.cost_model, cfg.policy)
    name = type(op).__name__
    if r1.clock - s1.clock != r2.clock - s2.clock:
        return f"{name} cost differs between states that agree on all it may read", r1
    writable = [flushable] + [i in sets for i in range(len(s1.sets))]
    parts = zip(writable, (s1.flushable,) + s1.sets, (s2.flushable,) + s2.sets,
                (r1.flushable,) + r1.sets, (r2.flushable,) + r2.sets)
    for k, (w, a, b, ra, rb) in enumerate(parts):
        if w and ra != rb:
            bad = "left {} depending on unrelated state"
        elif not w and not (ra is a and rb is b) and (ra != a or rb != b):
            bad = "wrote {}, which it may not touch"
        else:
            continue
        return f"{name} " + bad.format(f"set {k - 1}" if k else "the flushable words"), r1
    return None, r1


def check_access_cost_locality(cfg: RunConfig, trials: int, seed: object) -> CheckResult:
    """Perturbing any set other than the accessed line's own leaves the access
    cost and the accessed set's new content unchanged."""
    res = CheckResult("access-cost-locality", trials)
    g = cfg.geometry
    plan = _state_plan(cfg)
    rng = random.Random(f"{seed}:access-locality")
    lines = sorted(universe_lines(cfg.universe_pages, g))
    for t in range(trials):
        s1 = _random_state(rng, cfg, plan)
        p = rng.choice(lines)
        idx = set_index_of(p, g)
        s2 = _reroll_set(rng, plan, s1, rng.choice([i for i in range(g.num_sets) if i != idx]))
        op = Read(rng.getrandbits(32), p) if rng.random() < 0.75 else Write(rng.getrandbits(32), p)
        bad, _ = _paired_apply(cfg, s1, s2, op, f"{seed}:al:{t}",
                               sets={idx}, flushable=True)
        if bad:
            res.fail(t, bad)
    return res


def check_offcore_flush_locality(cfg: RunConfig, trials: int, seed: object) -> CheckResult:
    """An off-core flush is local to the sets its targets collide with: cost
    ignores other sets, and other sets come through untouched."""
    res = CheckResult("offcore-flush-locality", trials)
    g = cfg.geometry
    plan = _state_plan(cfg)
    rng = random.Random(f"{seed}:offcore-locality")
    lines = sorted(universe_lines(cfg.universe_pages, g))
    for t in range(trials):
        s1 = _random_state(rng, cfg, plan)
        targets = frozenset(rng.sample(lines, rng.randint(1, min(3, len(lines)))))
        indices = {set_index_of(a, g) for a in targets}
        # Every set may be a target when there are few; then none is re-rolled.
        others = [i for i in range(g.num_sets) if i not in indices]
        s2 = _reroll_set(rng, plan, s1, rng.choice(others)) if others else s1
        bad, r1 = _paired_apply(cfg, s1, s2, OffCoreFlush(targets), f"{seed}:ol:{t}",
                                sets=indices)
        unscrubbed = [i for i in sorted(indices) if not r1.sets[i].is_empty() or r1.sets[i].meta]
        if bad is None and unscrubbed:
            bad = f"target set {unscrubbed[0]} not scrubbed"
        if bad:
            res.fail(t, bad)
    return res


def check_oncore_flush_dependence(cfg: RunConfig, trials: int, seed: object) -> CheckResult:
    """The on-core flush cost is a function of the flushable words alone, and
    its effect resets them regardless of everything else."""
    res = CheckResult("oncore-flush-dependence", trials)
    plan = _state_plan(cfg)
    rng = random.Random(f"{seed}:oncore-dependence")
    for t in range(trials):
        s1 = _random_state(rng, cfg, plan)
        s2 = _random_state(rng, cfg, plan)._replace(flushable=s1.flushable)
        bad, r1 = _paired_apply(cfg, s1, s2, OnCoreFlush(), f"{seed}:on:{t}",
                                flushable=True)
        if bad is None and r1.flushable != flushable_reset(cfg.cost_model.flushable_words):
            bad = "flushable words not reset"
        if bad:
            res.fail(t, bad)
    return res


def check_wcet_bounds(cfg: RunConfig, trials: int, seed: object) -> CheckResult:
    """Every operation's cost observes the configured bounds on every state."""
    res = CheckResult("wcet-bounds", trials)
    g, cm = cfg.geometry, cfg.cost_model
    plan = _state_plan(cfg)
    rng = random.Random(f"{seed}:wcet")
    lines = sorted(universe_lines(cfg.universe_pages, g))
    for t in range(trials):
        s = _random_state(rng, cfg, plan)
        oracle = NondetOracle(key=f"{seed}:wc:{t}")
        pick = rng.randrange(4)
        if pick == 0:
            op = Read(rng.getrandbits(32), rng.choice(lines))
            lo, hi = cm.cost_min, cm.cost_max + cm.jitter
        elif pick == 1:
            op = Write(rng.getrandbits(32), rng.choice(lines))
            lo, hi = cm.cost_min, cm.cost_max + cm.jitter
        elif pick == 2:
            op = OnCoreFlush()
            lo, hi = cm.oncore_flush_base, cm.oncore_flush_wcet
        else:
            op = OffCoreFlush(frozenset(rng.sample(lines, rng.randint(1, min(3, len(lines))))))
            lo, hi = cm.offcore_flush_base, cm.offcore_flush_wcet
        r = apply_op(s, op, oracle, g, cm, cfg.policy)
        cost = r.clock - s.clock
        if not lo <= cost <= hi:
            res.fail(t, f"{type(op).__name__} cost {cost} outside [{lo}, {hi}]")
    return res


def check_replacement_sanity(cfg: RunConfig, trials: int, seed: object) -> CheckResult:
    """Victim choices stay in range; tree-PLRU never victimises the way it
    just touched; the adversarial update is injective in the old metadata."""
    res = CheckResult("replacement-sanity", trials)
    g = cfg.geometry
    rng = random.Random(f"{seed}:replacement")
    for t in range(trials):
        meta = rng.getrandbits(64)
        way = rng.randrange(g.num_ways)
        touched = _plru_touch(meta, way, g.num_ways)
        v = _plru_victim(touched, g.num_ways)
        if not 0 <= v < g.num_ways:
            res.fail(t, f"plru victim {v} out of range")
        elif g.num_ways > 1 and v == way:
            res.fail(t, f"plru victimised way {way} right after touching it")
            continue
        tag = rng.getrandbits(16)
        m1, m2 = rng.getrandbits(64), rng.getrandbits(64)
        if m1 != m2 and _adv_update(m1, tag) == _adv_update(m2, tag):
            res.fail(t, "adversarial update collapsed two metadata values")
        av = _adv_victim(rng.getrandbits(64), g.num_ways)
        if not 0 <= av < g.num_ways:
            res.fail(t, f"adversarial victim {av} out of range")
    return res


# --- selector dependency -----------------------------------------------------------

def check_selector_dependency(cfg: RunConfig, trials: int, seed: object,
                              peeking: bool = False) -> CheckResult:
    """Perturbing invisible sets must not change the selected trace.

    With peeking=True the same experiment drives the deliberately broken
    selector variant, which this suite is expected to flag.
    """
    name = "selector-dependency" + ("-peeking" if peeking else "")
    res = CheckResult(name, trials)
    g = cfg.geometry
    plan = _state_plan(cfg)
    rng = random.Random(f"{seed}:selector")
    vpages = sorted(cfg.amap.mapped_pages())
    ulines = universe_lines(cfg.universe_pages, g)
    budget = cfg.analysis.trace_budget
    for t in range(trials):
        s1 = _random_state(rng, cfg, plan)
        observer = rng.choice(cfg.policy.domain_ids())
        s2 = perturb_invisible(s1, observer, cfg.policy, g, ulines,
                               f"{seed}:perturb:{t}", max_level=cfg.cost_model.max_level)
        ta = rng.sample(vpages, rng.randint(1, min(3, len(vpages))))
        v1 = visible_projection(s1, observer, cfg.policy, "executing", g)
        v2 = visible_projection(s2, observer, cfg.policy, "executing", g)
        if v1 != v2:
            res.fail(t, "perturbation leaked into the visible projection")
            continue
        key = f"{seed}:trace:{t}"
        t1, t2 = (
            select_trace_peeking(ta, s, v, cfg.amap, budget, key, line_size=g.line_size)
            if peeking else select_trace(ta, v, cfg.amap, budget, key, line_size=g.line_size)
            for s, v in ((s1, v1), (s2, v2))
        )
        if t1 != t2:
            res.fail(t, "trace changed under an invisible perturbation")
    return res


# --- whole-run audits ----------------------------------------------------------------

def _owned_objects(cfg: RunConfig, domain: int) -> list[str]:
    return sorted(o.ident for o in cfg.scenario.objects if o.owner == domain)


def _random_benign_input(cfg: RunConfig, domain: int, rng: random.Random) -> Input:
    """A random well-formed input of domain's; a noop if it owns no object."""
    objs = _owned_objects(cfg, domain)
    if not objs:
        return Input(kind=NOOP)
    kind = rng.choice([k for k in INPUT_KINDS if k != RAW_ACCESS])
    if kind in (NOOP, SYS_ALLOC):
        return Input(kind=kind)
    return Input(kind=kind, obj=rng.choice(objs),
                 offset=rng.randrange(4096), byte=rng.randrange(256))


def _random_fuzz_input(cfg: RunConfig, domain: int, rng: random.Random) -> Input:
    """Like the benign generator but occasionally hostile: raw accesses to
    arbitrary addresses, unknown objects, other domains' objects."""
    roll = rng.random()
    if roll < 0.15:
        bases = [o.base for o in cfg.scenario.objects]
        if bases and rng.random() < 0.5:
            v = rng.choice(bases) + rng.randrange(cfg.amap.page_size)
        else:
            v = rng.randrange(1 << 28)
        return Input(kind=RAW_ACCESS, vaddr=v)
    obj_calls = sorted(set(KERNEL_CALLS) - {SYS_ALLOC})
    if roll < 0.20:
        return Input(kind=rng.choice(obj_calls), obj="no-such-object")
    if roll < 0.30:
        foreign = sorted(o.ident for o in cfg.scenario.objects if o.owner != domain)
        if foreign:
            return Input(kind=rng.choice(obj_calls),
                         obj=rng.choice(foreign), offset=rng.randrange(4096))
    return _random_benign_input(cfg, domain, rng)


def _random_schedule(cfg: RunConfig, slices: int, rng: random.Random,
                     gen: Callable[[RunConfig, int, random.Random], Input],
                     max_steps: int) -> dict[int, list[list[Input]]]:
    ids = cfg.policy.domain_ids()
    rotations = (slices + len(ids) - 1) // len(ids)
    return {
        d: [
            [gen(cfg, d, rng) for _ in range(rng.randint(1, max_steps))]
            for _ in range(rotations)
        ]
        for d in ids
    }


def audit_records(cfg: RunConfig, records: Iterable[StepRecord]) -> list[str]:
    """Offline re-check of a run's records, independent of the inline checks.

    Verifies trace adherence to the post-step touched set, the hard-failure
    discipline (no trace on a failed step), the partition invariant, and the
    switch postconditions including clock placement on the padded deadline.
    """
    problems = []
    policy, g = cfg.policy, cfg.geometry
    hard = {"ta-violation", "invariant", "bad-input"}
    for n, rec in enumerate(records):
        where = f"record {n} (slice {rec.slice_index}, {rec.kind})"
        trace = rec.trace
        if rec.kind == "switch":
            # The prefetch template's walk of the kernel globals is kernel
            # work, exempt from adherence like kernel_trace.
            trace = tuple(op for op in trace if not (
                type(op) is Read and op.v == KERNEL_VBASE + op.p
                and op.p in policy.kernel_globals))
        ok, at = adheres(trace, rec.ta_after, cfg.amap, policy.kernel_globals)
        if not ok:
            problems.append(f"{where}: trace op {trace[at]} does not adhere to the touched set")
        if any(f.kind in hard for f in rec.failures) and rec.trace != ():
            problems.append(f"{where}: hard failure yet a trace was applied")
        if rec.kind == "switch":
            mu = rec.s_mu_after
            if mu.flushable != flushable_reset(cfg.cost_model.flushable_words):
                problems.append(f"{where}: flushable state survived the switch")
            for idx in sorted(policy.global_set_indices(g)):
                if not mu.sets[idx].is_empty() or mu.sets[idx].meta != 0:
                    problems.append(f"{where}: kernel-global set {idx} not scrubbed")
            want = rec.s_mu_before.clock + policy.switch_deadline
            if mu.clock != want:
                problems.append(f"{where}: post-switch clock {mu.clock}, expected {want}")
            tick = (rec.slice_index + 1) * policy.slice_length \
                + rec.slice_index * policy.switch_deadline
            if rec.s_mu_before.clock != tick:
                problems.append(f"{where}: switch began at {rec.s_mu_before.clock}, "
                                f"not on the tick {tick}")
        else:
            ok, wit = partition_subset_invariant(
                rec.ta_after, rec.domain, policy, cfg.amap, g
            )
            flagged = any(f.kind == "invariant" for f in rec.failures)
            if ok is flagged:
                problems.append(f"{where}: invariant audit disagrees with the record")
    return problems


def _random_runs(cfg: RunConfig, trials: int, key: str,
                 gen: Callable[[RunConfig, int, random.Random], Input]
                 ) -> Iterator[tuple[list[StepRecord], list[Failure]]]:
    """trials whole runs of random schedules from gen, two rotations each,
    as (records, failures).  A run records its failures and goes on, so a model
    failure is a result to report and only a defect of the code raises."""
    nslices = 2 * len(cfg.policy.domains)
    for t in range(trials):
        rng = random.Random(f"{key}:{t}")
        schedule = _random_schedule(cfg, nslices, rng, gen, 3)
        runner = SystemRunner(cfg, f"{key}:{t}")
        records = list(runner.transitions(slices=nslices, schedule=schedule))
        yield records, runner.failures


def check_run_invariants(cfg: RunConfig, trials: int, seed: object) -> CheckResult:
    """Benign random runs finish with zero failures and a clean audit."""
    res = CheckResult("run-invariants", trials)
    for t, (records, failures) in enumerate(
            _random_runs(cfg, trials, f"{seed}:run", _random_benign_input)):
        if failures:
            res.fail(t, f"failures on a benign run: {failures[:2]}")
            continue
        for p in audit_records(cfg, records)[:2]:
            res.fail(t, p)
    return res


def check_ta_adherence(cfg: RunConfig, trials: int, seed: object) -> CheckResult:
    """Hostile fuzzing: every recorded trace still adheres to the touched set,
    and untracked accesses surface as TA violations rather than traces."""
    res = CheckResult("ta-adherence", trials)
    for t, (records, _) in enumerate(
            _random_runs(cfg, trials, f"{seed}:fuzz", _random_fuzz_input)):
        for p in audit_records(cfg, records)[:2]:
            res.fail(t, p)
        for rec in records:
            if rec.kind == "switch" or rec.input is None:
                continue
            if rec.input.kind == RAW_ACCESS:
                v = rec.input.vaddr
                tracked = any(f.kind == "ta-violation" for f in rec.failures) \
                    or v - v % cfg.amap.page_size in rec.ta_before
                if not tracked:
                    res.fail(t, f"raw access {v:#x} neither tracked nor flagged")
    return res


# --- suite driver -------------------------------------------------------------------

_PROPERTY_FNS: dict[str, Callable[[RunConfig, int, object], CheckResult]] = {
    "access-cost-locality": check_access_cost_locality,
    "offcore-flush-locality": check_offcore_flush_locality,
    "oncore-flush-dependence": check_oncore_flush_dependence,
    "wcet-bounds": check_wcet_bounds,
    "replacement-sanity": check_replacement_sanity,
    "selector-dependency": check_selector_dependency,
}
_INVARIANT_FNS: dict[str, Callable[[RunConfig, int, object], CheckResult]] = {
    "run-invariants": check_run_invariants,
    "ta-adherence": check_ta_adherence,
}
PROPERTY_CHECKS = tuple(_PROPERTY_FNS)
INVARIANT_CHECKS = tuple(_INVARIANT_FNS)


def _run_check(cfg: RunConfig, seed: object,
               check: tuple[Callable[[RunConfig, int, object], CheckResult], int]) -> CheckResult:
    fn, cases = check
    return fn(cfg, cases, seed)


def run_suite(cfg: RunConfig, suite: str, trials: int, seed: object,
              jobs: int = 1) -> list[CheckResult]:
    """Run a suite's checks, each in one of up to jobs processes; the results
    come back in suite order and are the same for every jobs."""
    if suite not in SUITES:
        raise ConfigError(f"suite: unknown suite {suite!r}; know {', '.join(SUITES)}")
    if trials < 1:
        raise ConfigError(f"trials: must be at least 1, got {trials}")
    checks = []
    if suite in ("properties", "all"):
        checks += [(fn, trials) for fn in _PROPERTY_FNS.values()]
    if suite in ("invariants", "all"):
        # Whole runs cost more per case than the pointwise properties.
        checks += [(fn, max(1, trials // 20)) for fn in _INVARIANT_FNS.values()]
    return list(fan_out(_run_check, (cfg, seed), checks, jobs))
