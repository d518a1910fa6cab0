"""Two-run checking of observer confidentiality, with plantable defects.

The property under test: take two system runs that agree on everything the
observer domain legitimately influences or sees (its own inputs, the slice
schedule, the nondeterminism consumed while its state is in play) and differ
arbitrarily in some other domain's secrets.  After every transition, the
observer's view must be identical across the pair.  The view has an abstract
part (the observer's objects, plus the touched set while it is the one
executing) and a microarchitectural part (its visible projection).  Variant
"u" compares only the abstract part; variant "u-mu" compares both.

Nondeterminism is aligned the only way that makes the property checkable:
oracle words consumed during the observer's own phases and during the shared
mechanism phase are identical across the pair, while words consumed during
other domains' phases are independent per run.  Schedules share their shape
(which step kinds happen where), so the runs stay in lockstep; only the other
domains' chosen values differ.

A checker that can only say yes is worthless, so MUTATIONS lists six
deliberate defects, each of which the checker must catch: dropping either
flush, dropping the pad, a colouring that overlaps domains, an abstract
information flow, and a trace selector that keys on hidden state.
"""

from __future__ import annotations

import contextlib
import itertools
import random
from dataclasses import dataclass, field, replace

from .config import (HONEST_MECHANISM, MUTATIONS, NOOP, SYS_ALLOC, SYS_READ, SYS_WRITE,
                     USER_READ, USER_WRITE, Input, RunConfig)
from .core import (
    CacheGeometry,
    ConfigError,
    DomainPolicy,
    KERNEL_DOMAIN,
    colour_of,
    fan_out,
    physical_universe,
    validate_policy,
)
from .kernel import AbstractState, RunOptions, SystemRunner
from .microarch import (
    MicroArchState,
    NondetOracle,
    OffCoreFlush,
    OnCoreFlush,
    PadTo,
    VisibleProjection,
    visible_projection,
)


@dataclass(frozen=True)
class ObserverView:
    """Everything one domain can see at a checkpoint."""

    observer: int
    role: str                                   # executing | suspended
    objects: tuple[tuple[str, bool, tuple[tuple[int, int], ...]], ...]
    ta: frozenset[int] | None                   # own touched set, executing only
    micro: VisibleProjection


def observer_view(abstract: AbstractState, micro: MicroArchState, observer: int,
                  policy: DomainPolicy, g: CacheGeometry) -> ObserverView:
    role = "executing" if abstract.current == observer else "suspended"
    objs = tuple(
        (o.ident, o.allocated, tuple(sorted(o.payload.items())))
        for o in sorted(abstract.objects.values(), key=lambda o: o.ident)
        if o.owner == observer
    )
    return ObserverView(
        observer=observer,
        role=role,
        objects=objs,
        ta=abstract.ta if role == "executing" else None,
        micro=visible_projection(micro, observer, policy, role, g),
    )


def _diff_views(a: ObserverView, b: ObserverView,
                include_micro: bool) -> tuple[str, object, object] | None:
    """The first differing field and the two values it is reported with, or
    None when the views are equal.  An object field reports both object
    lists, and a cache-set field both lists of visible sets."""
    if a.role != b.role:
        return "role", a.role, b.role
    if a.ta != b.ta:
        # The roles agree, so both views are executing ones with a touched set.
        return "ta", sorted(a.ta), sorted(b.ta)
    if [o[0] for o in a.objects] != [o[0] for o in b.objects]:
        return "objects", a.objects, b.objects
    for (ident, alloc_a, pay_a), (_, alloc_b, pay_b) in zip(a.objects, b.objects):
        if alloc_a != alloc_b:
            return f"objects[{ident}].allocated", a.objects, b.objects
        if pay_a != pay_b:
            return f"objects[{ident}].payload", a.objects, b.objects
    if not include_micro:
        return None
    ma, mb = a.micro, b.micro
    if ma.flushable != mb.flushable:
        return "micro.flushable", ma.flushable, mb.flushable
    if ma.clock != mb.clock:
        return "micro.clock", ma.clock, mb.clock
    if tuple(i for i, _ in ma.visible_sets) != tuple(i for i, _ in mb.visible_sets):
        return "micro.visible_sets", ma.visible_sets, mb.visible_sets
    for (idx, sa), (_, sb) in zip(ma.visible_sets, mb.visible_sets):
        if sa != sb:
            return f"micro.sets[{idx}]", ma.visible_sets, mb.visible_sets
    return None


# --- schedule construction ------------------------------------------------------

_KIND_CHOICES = (
    (USER_READ, 0.22),
    (USER_WRITE, 0.20),
    (SYS_READ, 0.20),
    (SYS_WRITE, 0.20),
    (SYS_ALLOC, 0.08),
    (NOOP, 0.10),
)


def _pick_kind(rng: random.Random) -> str:
    x = rng.random()
    acc = 0.0
    for kind, w in _KIND_CHOICES:
        acc += w
        if x < acc:
            return kind
    return NOOP


def build_schedule(cfg: RunConfig, observer: int, trial_key: str,
                   run_tag: str) -> dict[int, list[list[Input]]]:
    """One run's inputs.  Shape (step kinds, counts) is shared across a pair;
    values are shared for the observer and tagged per run for everyone else."""
    policy = cfg.policy
    ids = policy.domain_ids()
    slices = cfg.scenario.slices
    objects_of = {
        d: sorted(o.ident for o in cfg.scenario.objects if o.owner == d)
        for d in ids
    }
    sizes = {o.ident: o.size for o in cfg.scenario.objects}

    schedule: dict[int, list[list[Input]]] = {}
    for pos, dom in enumerate(ids):
        rotations = len(range(pos, slices, len(ids)))
        tag = "" if dom == observer else f":{run_tag}"
        batches = []
        for rot in range(rotations):
            shape_rng = random.Random(f"{trial_key}:shape:{dom}:{rot}")
            value_rng = random.Random(f"{trial_key}:value:{dom}:{rot}{tag}")
            batch = []
            # At most three inputs: at the reference costs, three worst cases
            # (3 x 2,573 cycles) fit in one 8,192-cycle slice.
            for _ in range(shape_rng.randint(1, 3)):
                kind = _pick_kind(shape_rng)
                if kind in (NOOP, SYS_ALLOC):
                    batch.append(Input(kind=kind))
                    continue
                pool = objects_of[dom]
                if not pool:
                    batch.append(Input(kind=NOOP))
                    continue
                obj = value_rng.choice(pool)
                batch.append(Input(
                    kind=kind,
                    obj=obj,
                    offset=value_rng.randrange(max(sizes[obj], 1)),
                    byte=value_rng.randrange(256),
                ))
            batches.append(batch)
        schedule[dom] = batches
    return schedule


def _pair_oracle_factory(pair_key: str, observer: int, run_tag: str):
    def factory(slice_index: int, domain: int, phase: str) -> NondetOracle:
        key = f"{pair_key}:oracle:{slice_index}:{domain}:{phase}"
        if domain != observer and domain != KERNEL_DOMAIN:
            key += f":{run_tag}"
        return NondetOracle(key=key)
    return factory


# --- mutations ------------------------------------------------------------------

# Mutations that drop one operation class from the switch template.
_MECHANISM_DROPS = {
    "no-oncore-flush": OnCoreFlush,
    "no-offcore-global-flush": OffCoreFlush,
    "no-pad": PadTo,
}


def apply_mutation(cfg: RunConfig, options: RunOptions, mutation: str | None,
                   observer: int) -> tuple[RunConfig, RunOptions]:
    """Translate a mutation id into a config or option transform."""
    if mutation in (None, "none"):
        return cfg, options
    if mutation in _MECHANISM_DROPS:
        drop = _MECHANISM_DROPS[mutation]
        return cfg, replace(options, mechanism=tuple(c for c in options.mechanism if c is not drop))
    if mutation == "ta-leak":
        return cfg, replace(options, ta_leak=observer)
    if mutation == "selector-peek":
        return cfg, replace(options, selector_peek=True)
    if mutation == "bad-colouring":
        return _bad_colouring(cfg, observer), options
    raise ConfigError(f"unknown mutation {mutation!r}; know {', '.join(MUTATIONS)}")


def _bad_colouring(cfg: RunConfig, observer: int) -> RunConfig:
    """Remap one foreign object into the observer's colour.

    The foreign domain is also granted that colour, so the kernel's own
    runtime invariant stays green; only the static policy validation (which
    this mutated system pointedly skips) would object.  The effect is two
    domains sharing cache sets, which is the defect being planted.
    """
    g = cfg.geometry
    policy = cfg.policy
    high = next(d for d in policy.domain_ids() if d != observer)
    low_colour = min(policy.domain(observer).colours)

    victims = sorted(
        (o for o in cfg.scenario.objects if o.owner == high),
        key=lambda o: o.ident,
    )
    if not victims:
        raise ConfigError(f"bad-colouring: domain {high} owns no objects to remap")
    vpages = sorted(victims[0].pages(g.page_size))

    used = set(cfg.universe_pages) | set(cfg.amap.pages.values())
    candidate = (max(used) + g.page_size) if used else 0
    pages = dict(cfg.amap.pages)
    for vpage in vpages:
        while colour_of(candidate, g) != low_colour or candidate in used:
            candidate += g.page_size
        pages[vpage] = candidate
        used.add(candidate)
        candidate += g.page_size

    amap = replace(cfg.amap, pages=pages)
    domains = tuple(
        replace(d, colours=d.colours | {low_colour}) if d.ident == high else d
        for d in policy.domains
    )
    new_policy = replace(policy, domains=domains)
    universe = physical_universe(new_policy, amap, g)
    return replace(cfg, policy=new_policy, amap=amap, universe_pages=universe)


# --- the checker ------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    trial: int
    transition: int
    kind: str
    slice_index: int
    domain: int
    field: str
    a: str
    b: str

    def __str__(self):
        return (
            f"trial {self.trial} transition {self.transition} "
            f"({self.kind}, slice {self.slice_index}, domain {self.domain}): "
            f"{self.field} differs: {self.a} vs {self.b}"
        )


@dataclass
class ConfidentialityReport:
    variant: str
    observer: int
    trials: int
    seed: object
    mutation: str
    violations: list[Violation]
    transitions: int
    hypothesis_ok: bool
    hypothesis_notes: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def first_witness(self) -> Violation | None:
        return self.violations[0] if self.violations else None

    def format(self) -> str:
        lines = [
            f"confidentiality-{self.variant} report",
            f"seed {self.seed} observer {self.observer} trials {self.trials} "
            f"mutation {self.mutation}",
            f"transitions compared: {self.transitions}",
            "hypothesis: " + ("ok" if self.hypothesis_ok else
                              "NOT SATISFIED (" + "; ".join(self.hypothesis_notes) + ")"),
            f"violations: {len(self.violations)}",
        ]
        if self.violations:
            lines.append("first witness: " + str(self.first_witness))
        lines.extend(self.notes)
        return "\n".join(lines)


# Violations quote each run's value of the differing field up to this length.
_CLIP = 160


def _trial(cfg: RunConfig, options: RunOptions, observer: int, include_micro: bool,
           seed: object, trial: int):
    """One trial pair, its two runs in lockstep: each step draws the next
    record of run A, then of run B, and compares the observer's two views, so
    the trial stops at the first difference.  Returns its hypothesis notes,
    the failure that aborted it (or None), the number of transitions compared
    and the first violation (or None)."""
    trial_key = f"{seed}:t{trial}"
    runs = []
    for tag in ("A", "B"):
        # Both runs take the trial key as their seed, so their trace seeds agree;
        # the oracle factory shares the observer's and the mechanism's words only.
        opts = replace(options, oracle_factory=_pair_oracle_factory(trial_key, observer, tag))
        runner = SystemRunner(cfg, trial_key, opts)
        records = runner.transitions(schedule=build_schedule(cfg, observer, trial_key, tag))
        runs.append((tag, runner, records, []))

    def notes(upto: int = 2) -> list[str]:
        # Each run's abort line, then its first three notes; B's are left out when A aborts.
        out = []
        for tag, runner, _, hypothesis in runs[:upto]:
            if runner.failures:
                out.append(f"trial {trial} run {tag} aborted: {runner.failures[0]}")
            out.extend(f"trial {trial} run {tag}: {h}" for h in hypothesis[:3])
        return out

    lengths = [0, 0]
    while True:
        pair = []
        for k, (tag, runner, records, hypothesis) in enumerate(runs):
            record = next(records, None)
            if record is not None:
                lengths[k] += 1
                hypothesis.extend(f"{record.kind} slice {record.slice_index}: {f}"
                                  for f in record.failures)
                if record.kind == "switch" and tuple(map(type, record.trace)) != HONEST_MECHANISM:
                    hypothesis.append(
                        f"switch slice {record.slice_index}: mechanism trace is "
                        f"{[type(op).__name__ for op in record.trace]}, "
                        "not the exact flush/flush/pad sequence")
            # A failure after a record aborts the trial, and so does the
            # starved that transitions() adds once a run's records end.
            if runner.failures:
                return notes(k + 1), runner.failures[0], min(lengths), None
            pair.append(record)
        if None in pair:
            if pair == [None, None]:
                break
            continue        # one run has ended: drain the other to count its records
        diff = _diff_views(*(observer_view(r.abstract, r.micro, observer, r.policy, r.g)
                             for _, r, _, _ in runs), include_micro)
        if diff is not None:
            ctx = pair[0]
            return notes(), None, lengths[0], Violation(
                trial=trial, transition=lengths[0] - 1, kind=ctx.kind,
                slice_index=ctx.slice_index, domain=ctx.domain, field=diff[0],
                a=repr(diff[1])[:_CLIP], b=repr(diff[2])[:_CLIP],
            )
    violation = None if lengths[0] == lengths[1] else Violation(
        trial=trial, transition=min(lengths), kind="run", slice_index=-1, domain=-1,
        field="transition-count", a=str(lengths[0]), b=str(lengths[1]),
    )
    return notes(), None, min(lengths), violation


def check_confidentiality(
    cfg: RunConfig,
    observer: int,
    trials: int,
    seed: object,
    variant: str = "u-mu",
    mutation: str | None = None,
    jobs: int = 1,
) -> ConfidentialityReport:
    """Run the two-run checker for either property variant.  It stops at the
    first trial that aborts or shows a violation.

    Trial 0 runs in the calling process; with jobs > 1 the later trials run in
    up to jobs processes, and their outcomes are folded in trial order, so the
    report is the same for every jobs."""
    if variant not in ("u", "u-mu"):
        raise ConfigError(f"unknown variant {variant!r}; know u, u-mu")
    if trials < 1:
        raise ConfigError("trials: must be >= 1")
    if observer not in cfg.policy.domain_ids():
        raise ConfigError(f"observer: unknown domain {observer}")
    include_micro = variant == "u-mu"

    cfg, options = apply_mutation(cfg, RunOptions(), mutation, observer)

    report = ConfidentialityReport(
        variant=variant, observer=observer, trials=trials, seed=seed,
        mutation=mutation or "none", violations=[], transitions=0,
        hypothesis_ok=True,
    )

    if len(cfg.policy.domains) < 2:
        report.notes.append("single domain: nothing to vary, property holds vacuously")
        return report

    policy_problems = validate_policy(cfg.policy, cfg.amap, cfg.geometry)
    if policy_problems:
        report.hypothesis_ok = False
        report.hypothesis_notes.append(
            "policy validation failed: " + policy_problems[0]
        )

    # Only the first trial that breaches the hypothesis adds notes, but the
    # search for a violation goes on: some defects first show dozens of
    # trials in.  Many defects show in trial 0, so it runs before any worker
    # starts, and a search that ends there starts none.
    shared = (cfg, options, observer, include_micro, seed)
    noted = False
    with contextlib.closing(fan_out(_trial, shared, range(1, trials), jobs)) as later:
        for notes, abort, transitions, violation in itertools.chain(
                [_trial(*shared, 0)], later):
            if notes and not noted:
                report.hypothesis_ok = False
                report.hypothesis_notes.extend(notes)
                noted = True
            if abort is not None:
                break
            report.transitions += transitions
            if violation is not None:
                report.violations.append(violation)
                break

    return report
