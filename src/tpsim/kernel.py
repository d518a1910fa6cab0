"""A toy multi-domain kernel with touched-set ghost tracking.

Domains run round-robin in fixed timeslices.  Every transition a domain makes
is either a user step (direct access to its own mapped objects) or a kernel
call (a small syscall repertoire: read an object, write an object, allocate
from a pre-mapped pool, or do nothing).  Retrieving an object records all of
its virtual pages into the touched set; any memory access whose page was never
retrieved is rejected as a touched-set violation rather than silently
performed.  The touched set is a ghost over-approximation: the hardware trace
a step performs may visit any line of any retrieved page, in any order the
trace selector picks.

A domain switch runs in four phases.  old_clean does the outgoing scheduler
bookkeeping (a deterministic walk of the kernel globals).  An optional dirty
phase, off by default, may touch both domains' kernel images.  The mechanism
phase applies the switch template (HONEST_MECHANISM: flush off-core, flush
on-core, pad to the deadline); the touched set is emptied here and nowhere
else.  new_clean installs the next domain and resets its slot.

Kernel-global and kernel-image accesses never enter the touched set.  They
are not user-controlled, so the partitioning invariant handles them by a
static exception, and their trace segments are recorded separately and must
follow a fixed order.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional

from .config import (
    HONEST_MECHANISM,
    INPUT_KINDS,
    KERNEL_CALLS,
    NOOP,
    RAW_ACCESS,
    SYS_ALLOC,
    SYS_WRITE,
    USER_WRITE,
    Input,
    ObjectSpec,
    RunConfig,
    worst_input_cost,
)
from .core import (
    AddressMap,
    CacheGeometry,
    DomainPolicy,
    KERNEL_DOMAIN,
    KERNEL_VBASE,
    ModelError,
    PolicyError,
    TranslationFault,
    colour_of,
    set_index_of,
)
from .microarch import (
    CostModel,
    MicroArchState,
    NondetOracle,
    OffCoreFlush,
    OnCoreFlush,
    PadTo,
    PadViolation,
    Read,
    Trace,
    TraceError,
    apply_trace,
    flushable_reset,
    visible_projection,
)
from .selector import select_trace, select_trace_peeking

class RunError(ModelError):
    """A consumer aborted a run at one of its failures."""

    def __init__(self, failure: "Failure"):
        super().__init__(str(failure))
        self.failure = failure


@dataclass(frozen=True)
class Failure:
    kind: str                 # ta-violation | invariant | pad-violation | slot-overrun | ...
    detail: str
    vaddr: int | None = None
    witnesses: tuple[int, ...] = ()

    def __str__(self):
        return f"{self.kind}: {self.detail}"


class AbstractState(NamedTuple):
    """What a run changes of the kernel; the config holds everything else.

    A value: each transition builds the next state, and never changes a
    state, its objects mapping or an object in place.
    """

    objects: Mapping[str, ObjectSpec]
    current: int
    slot_remaining: int
    ta: frozenset[int]           # virtual pages retrieved since the last switch


@dataclass
class StepRecord:
    kind: str                    # user | kernel-call | switch
    slice_index: int
    domain: int
    input: Input | None
    ta_before: frozenset[int]
    ta_after: frozenset[int]
    kernel_trace: Trace          # fixed kernel accesses, exempt from touched-set adherence
    trace: Trace                 # selector-chosen (steps) or mechanism (switches)
    s_mu_before: MicroArchState
    s_mu_after: MicroArchState
    failures: tuple[Failure, ...] = ()

    @property
    def clock_delta(self) -> int:
        return self.s_mu_after.clock - self.s_mu_before.clock


def get_object(state: AbstractState, ident: str,
               page_size: int) -> tuple[AbstractState, ObjectSpec, frozenset[int]]:
    """Retrieve an object: the next state, whose touched set holds all of its
    pages, the object and its pages."""
    obj = state.objects[ident]
    pages = obj.pages(page_size)
    return AbstractState(state.objects, state.current, state.slot_remaining,
                         state.ta | pages), obj, pages


def access_mem(state: AbstractState, v: int, page_size: int) -> Failure | None:
    """Access one virtual address; fails unless its page was retrieved."""
    vpage = v - (v % page_size)
    if vpage not in state.ta:
        return Failure(
            kind="ta-violation",
            detail=f"access to {v:#x} whose page was never retrieved",
            vaddr=v,
        )
    return None


def partition_subset_invariant(
    ta: Iterable[int], current: int, policy: DomainPolicy, amap: AddressMap,
    g: CacheGeometry,
) -> tuple[bool, tuple[int, ...]]:
    """Every touched page must translate into the current domain's colours.

    Kernel-global pages are the one static exception.  A page with no
    translation at all is also a violation.  Returns (ok, witness vaddrs).
    """
    colours = policy.domain(current).colours
    global_pages = policy.global_pages(g)
    witnesses = []
    for vpage in sorted(ta):
        try:
            ppage = amap.translate_page(vpage)
        except TranslationFault:
            witnesses.append(vpage)
            continue
        if ppage in global_pages:
            continue
        if colour_of(ppage, g) not in colours:
            witnesses.append(vpage)
    return (not witnesses, tuple(witnesses))


# --- run options and the run plan ------------------------------------------------

@dataclass(frozen=True)
class RunOptions:
    """Behavioural switches for a run.

    mechanism is the switch template; the mutation harness and the attack
    variants derive changed copies, and the default gives the honest kernel.
    ta_leak names the domain that the ta-leak mutation leaks into, or is None.
    oracle_factory replaces the oracle of a (slice, domain, phase); by
    default every oracle and trace seed is keyed on the runner's seed.
    """

    mechanism: tuple[type, ...] = HONEST_MECHANISM
    selector_peek: bool = False
    ta_leak: Optional[int] = None
    oracle_factory: Optional[Callable[[int, int, str], NondetOracle]] = None


class _RunPlan:
    """What every run of a config under one switch mechanism shares: built
    once, then only read through read-only views.  The template is cut at
    its pads, as each pads to its own switch's deadline; invariant memoises
    partition_subset_invariant per (touched set, domain)."""

    def __init__(self, policy: DomainPolicy, g: CacheGeometry, cm: CostModel, amap: AddressMap,
                 budget: int, mechanism: tuple[type, ...]):
        self.rotation = ids = policy.domain_ids()
        self.successor = MappingProxyType(dict(zip(ids, ids[1:] + ids[:1])))
        self.globals_walk = tuple(Read(KERNEL_VBASE + a, a) for a in sorted(policy.kernel_globals))
        self.image_walks = MappingProxyType({
            d.ident: tuple(Read(KERNEL_VBASE + line, line)
                           for page in sorted(d.kernel_image) for line in g.page_lines(page))
            for d in policy.domains
        })
        self.kernel_walks = MappingProxyType(
            {d: self.globals_walk + walk for d, walk in self.image_walks.items()})
        # The dirty phase touches both images in a fixed order, so it reveals
        # nothing either domain does not know.
        self.old_clean = MappingProxyType({d: self.globals_walk + tuple(sorted(
            self.image_walks[d] + self.image_walks[self.successor[d]], key=lambda op: op.p,
        )) if policy.use_dirty_phase else self.globals_walk for d in ids})
        self.worst = MappingProxyType({  # for the deferral rule
            (kind, d): worst_input_cost(cm, budget, kind, len(walk) if kind in KERNEL_CALLS else 0)
            for kind in INPUT_KINDS for d, walk in self.kernel_walks.items()})
        ops = {Read: self.globals_walk, OffCoreFlush: (OffCoreFlush(policy.kernel_globals),),
               OnCoreFlush: (OnCoreFlush(),)}
        pieces: list[Trace] = [()]
        for cls in mechanism:
            if cls is PadTo:
                pieces.append(())
            else:
                pieces[-1] += ops[cls]
        self.template = tuple(pieces)
        self.global_sets = policy.global_set_indices(g)
        self.invariant = functools.lru_cache(maxsize=256)(functools.partial(
            partition_subset_invariant, policy=policy, amap=amap, g=g))


_run_plan = functools.lru_cache(maxsize=16)(_RunPlan)


class SystemRunner:
    """Drives one system run: alternating timeslices and domain switches."""

    def __init__(self, cfg: RunConfig, seed: object, options: RunOptions | None = None):
        self._begin(cfg, seed, options)
        self.abstract = AbstractState({o.ident: o for o in cfg.scenario.objects},
                                      self.plan.rotation[0], self.policy.slice_length, frozenset())
        self.micro = self._initial_micro()
        self.slice_index = 0

    @classmethod
    def at(cls, cfg: RunConfig, seed: object, options: RunOptions | None,
           abstract: AbstractState, micro: MicroArchState, slice_index: int) -> "SystemRunner":
        """A runner whose next slice is slice_index, from the state (abstract,
        micro), with no inputs deferred and no failures.  The state need not be
        one that any run of the config reaches; no initial state is built."""
        runner = cls.__new__(cls)
        runner._begin(cfg, seed, options)
        runner.abstract, runner.micro, runner.slice_index = abstract, micro, slice_index
        return runner

    def _begin(self, cfg: RunConfig, seed: object, options: RunOptions | None) -> None:
        """Everything but the state: the config, its shared plan, no failures."""
        self.cfg = cfg
        self.seed = str(seed)
        self.options = options or RunOptions()
        self.g, self.cm, self.policy, self.amap = cfg.geometry, cfg.cost_model, cfg.policy, cfg.amap
        self.plan = _run_plan(self.policy, self.g, self.cm, self.amap,
                              cfg.analysis.trace_budget, self.options.mechanism)
        self.globals_walk, self.image_walks = self.plan.globals_walk, self.plan.image_walks
        self.failures: list[Failure] = []
        self._deferred: dict[int, list[Input]] = {d: [] for d in self.plan.rotation}
        self._step_in_slice = 0

    def _initial_micro(self) -> MicroArchState:
        state = MicroArchState.initial(self.g, self.cm.flushable_words)
        sets = list(state.sets)
        # Load checked that the lines are distinct, fit their sets and have valid levels.
        for addr, level in self.cfg.scenario.initial_cache:
            idx = set_index_of(addr, self.g)
            ways = list(sets[idx].ways)
            ways[ways.index(None)] = (self.g.line_of(addr), level)
            sets[idx] = sets[idx]._replace(ways=tuple(ways))
        return state._replace(sets=tuple(sets))

    def _oracle(self, domain: int, phase: str) -> NondetOracle:
        if self.options.oracle_factory is not None:
            return self.options.oracle_factory(self.slice_index, domain, phase)
        return NondetOracle(key=f"{self.seed}:oracle:{self.slice_index}:{domain}:{phase}")

    def _apply(self, trace: Trace, oracle: NondetOracle, failures: list[Failure]) -> Trace:
        """Apply a trace to the hardware state; returns the operations that ran.

        A failing operation is added to failures, and the state keeps exactly
        the operations before it.
        """
        try:
            self.micro = apply_trace(self.micro, trace, oracle, self.g, self.cm, self.policy)
        except TraceError as e:
            self.micro = e.state
            if isinstance(e.cause, PadViolation):
                # Only the switch mechanism pads.
                failures.append(Failure(
                    kind="pad-violation",
                    detail=f"switch work ran past the deadline "
                           f"(clock {e.cause.now}, deadline {e.cause.target})",
                ))
            else:
                failures.append(Failure("trace-error", str(e)))
            return trace[:e.index]
        return trace

    # -- abstract semantics --

    def _run_abstract(self, input: Input,
                      domain: int) -> tuple[AbstractState, list[Failure], Iterable[int]]:
        """Execute the abstract semantics of one input.

        Returns (next abstract state, failures, footprint pages).
        """
        st = self.abstract
        psz = self.amap.page_size
        if input.kind == NOOP:
            return st, [], ()
        if input.kind == RAW_ACCESS:
            f = access_mem(st, input.vaddr, psz)
            return (st, [f], ()) if f else (st, [], (input.vaddr - input.vaddr % psz,))
        if input.kind == SYS_ALLOC:
            pool = [o for o in st.objects.values() if o.owner == domain and not o.allocated]
            if not pool:
                return st, [], ()   # pool exhausted
            st, obj, pages = get_object(st, min(pool, key=lambda o: o.ident).ident, psz)
            st = st._replace(objects={**st.objects,
                                      obj.ident: replace(obj, allocated=True, payload={})})
            f = access_mem(st, obj.base, psz)
            return st, [f] if f else [], pages
        if input.obj not in st.objects:
            return st, [Failure("bad-input", f"unknown object {input.obj!r}")], ()

        st, obj, pages = get_object(st, input.obj, psz)
        offset = input.offset % max(obj.size, 1)
        f = access_mem(st, obj.base + offset, psz)
        if not f and input.kind in (USER_WRITE, SYS_WRITE):
            byte = input.byte & 0xFF
            objects = {**st.objects, obj.ident: replace(obj, payload={**obj.payload, offset: byte})}
            if self.options.ta_leak not in (None, domain):
                objects = self._leak_byte(objects, byte)
            st = st._replace(objects=objects)
        return st, [f] if f else [], pages

    def _leak_byte(self, objects: Mapping[str, ObjectSpec], byte: int) -> Mapping[str, ObjectSpec]:
        # Deliberate confidentiality bug: copy a byte written by another domain
        # into the first object owned by the receiving domain, without tracking.
        for o in sorted(objects.values(), key=lambda o: o.ident):
            if o.owner == self.options.ta_leak:
                return {**objects, o.ident: replace(o, payload={**o.payload, 0: byte})}
        return objects

    # -- cost bounds for the deferral rule --

    def worst_case_cost(self, input: Input) -> int:
        return self.plan.worst[input.kind, self.abstract.current]

    # -- one step -------------------------------------------------------------

    def step(self, input: Input) -> StepRecord:
        """Apply one input of the current domain and return its record."""
        before = self.abstract
        domain = before.current
        mu_before = self.micro

        st, failures, footprint = self._run_abstract(input, domain)
        kernel_call = input.kind in KERNEL_CALLS

        ok, witnesses = self.plan.invariant(st.ta, domain)
        if not ok:
            failures.append(Failure(
                kind="invariant",
                detail="touched pages outside the current domain's colours: "
                       + ", ".join(f"{w:#x}" for w in witnesses),
                witnesses=witnesses,
            ))

        # A step that failed in the abstract semantics never touches the hardware.
        kernel_trace: Trace = ()
        trace: Trace = ()
        if not failures:
            if kernel_call:
                kernel_trace = self.plan.kernel_walks[domain]
            if footprint:
                vis = visible_projection(self.micro, domain, self.policy, "executing", self.g)
                seed = f"{self.seed}:trace:{self.slice_index}:{self._step_in_slice}"
                if self.options.selector_peek:
                    trace = select_trace_peeking(
                        footprint, self.micro, vis, self.amap, self.cfg.analysis.trace_budget,
                        seed, line_size=self.g.line_size,
                    )
                else:
                    trace = select_trace(
                        footprint, vis, self.amap, self.cfg.analysis.trace_budget,
                        seed, line_size=self.g.line_size,
                    )

            oracle = self._oracle(domain, f"step:{self._step_in_slice}")
            applied = self._apply(kernel_trace + trace, oracle, failures)
            if failures:
                kernel_trace, trace = applied[:len(kernel_trace)], applied[len(kernel_trace):]

            delta = self.micro.clock - mu_before.clock
            if delta > before.slot_remaining:
                failures.append(Failure(
                    kind="slot-overrun",
                    detail=f"step cost {delta} exceeded remaining slot {before.slot_remaining}",
                ))
            st = AbstractState(st.objects, st.current, before.slot_remaining - delta, st.ta)
        self.abstract = st

        record = StepRecord(
            kind="kernel-call" if kernel_call else "user", slice_index=self.slice_index,
            domain=domain, input=input, ta_before=before.ta, ta_after=st.ta,
            kernel_trace=kernel_trace, trace=trace,
            s_mu_before=mu_before, s_mu_after=self.micro,
            failures=tuple(failures),
        )
        self._step_in_slice += 1
        return record

    # -- the four-phase switch --------------------------------------------------

    def domain_switch(self, tick: int) -> StepRecord:
        """Switch away from the current domain at the given timer tick; returns its record."""
        st = self.abstract
        if st.slot_remaining > 0:
            raise PolicyError(
                f"domain switch before the timer tick: {st.slot_remaining} cycles left"
            )
        old = st.current
        plan = self.plan
        mu_before = self.micro
        failures: list[Failure] = []
        if self.micro.clock > tick:
            failures.append(Failure("tick-overrun", f"slice work ran to {self.micro.clock}, "
                                                    f"past the tick {tick}"))
        deadline = tick + self.policy.switch_deadline

        # Phase 1, old_clean: deterministic scheduler bookkeeping over the
        # kernel globals, same discipline as any step but outside the
        # touched set (static exception).  Phase 2, dirty: optional, off by
        # default; the plan appends both images' walks to old_clean.
        kernel_trace = self._apply(plan.old_clean[old], self._oracle(old, "old_clean"), failures)

        # Phase 3, mechanism: scrub and pad.  The next state's touched set is
        # empty; no other transition empties it.
        template = plan.template[0]
        for piece in plan.template[1:]:
            template += (PadTo(deadline),) + piece
        mechanism_ops = self._apply(template, self._oracle(KERNEL_DOMAIN, "mechanism"),
                                    failures)

        # Phase 4, new_clean: install the next domain.  Pure bookkeeping, no
        # timed accesses, so the post-switch clock stays at the deadline.
        self.abstract = AbstractState(st.objects, plan.successor[old], self.policy.slice_length,
                                      frozenset())

        failures.extend(self._switch_postcondition_failures(deadline))

        return StepRecord(
            kind="switch", slice_index=self.slice_index, domain=old, input=None,
            ta_before=st.ta, ta_after=self.abstract.ta,
            kernel_trace=kernel_trace, trace=mechanism_ops,
            s_mu_before=mu_before, s_mu_after=self.micro,
            failures=tuple(failures),
        )

    def _switch_postcondition_failures(self, deadline: int) -> list[Failure]:
        """Postconditions of exactly the operation classes in the template."""
        out = []
        mechanism = self.options.mechanism
        if OnCoreFlush in mechanism:
            if self.micro.flushable != flushable_reset(self.cm.flushable_words):
                out.append(Failure("switch-postcondition", "flushable state not reset"))
        if OffCoreFlush in mechanism:
            for idx in self.plan.global_sets:
                cset = self.micro.sets[idx]
                if not cset.is_empty() or cset.meta != 0:
                    out.append(Failure(
                        "switch-postcondition",
                        f"kernel-global set {idx} not scrubbed",
                    ))
        if PadTo in mechanism and self.micro.clock != deadline:
            out.append(Failure(
                "switch-postcondition",
                f"clock {self.micro.clock} does not sit on the deadline {deadline}",
            ))
        return out

    # -- whole runs ---------------------------------------------------------------

    def transitions(self, slices: int | None = None,
                    schedule: dict[int, list[list[Input]]] | None = None
                    ) -> Iterator[StepRecord]:
        """Drive a run: alternate slices and switches, a switch after every
        slice, and yield each record while the runner's state is the state
        just after it.

        The run goes on from slice_index and stops before slice index
        slices, by default the scenario's.  Each record's failures join
        self.failures before it is yielded, and the run goes on; a consumer
        that wants to stop breaks out.  schedule maps each domain to its input
        batches, one per rotation; it defaults to the scenario's inputs.
        """
        total = slices if slices is not None else self.cfg.scenario.slices
        if schedule is None:
            schedule = self.cfg.scenario.inputs
        ids = self.plan.rotation
        for k in range(self.slice_index, total):
            domain = ids[k % len(ids)]
            # The round-robin successor was installed by the previous switch;
            # trust but verify, since schedules are defined positionally.
            if domain != self.abstract.current:
                raise ModelError(
                    f"schedule out of sync with rotation: slice {k} belongs to domain "
                    f"{domain}, but domain {self.abstract.current} is current"
                )
            self._step_in_slice = 0
            tick = self.micro.clock + self.policy.slice_length

            batches = schedule.get(domain, [])
            rotation = k // len(ids)
            batch = batches[rotation] if rotation < len(batches) else []
            queue = self._deferred[domain] + list(batch)
            self._deferred[domain] = []

            for i, inp in enumerate(queue):
                if self.worst_case_cost(inp) > self.abstract.slot_remaining:
                    # Near-tick operation: defer it (and program order behind
                    # it) to this domain's next slice.
                    self._deferred[domain] = queue[i:]
                    break
                record = self.step(inp)
                self.failures.extend(record.failures)
                yield record

            # Idle to the timer tick; slices end on exact boundaries.  A slice
            # that ran past it is a failure of the switch that follows.
            if self.micro.clock < tick:
                self.micro = MicroArchState(self.micro.flushable, self.micro.sets, tick)
            st = self.abstract
            self.abstract = AbstractState(st.objects, st.current, 0, st.ta)

            record = self.domain_switch(tick)
            self.failures.extend(record.failures)
            yield record
            self.slice_index += 1
        self.finish()

    def finish(self) -> None:
        """Mark the run starved if inputs are still deferred.  transitions()
        calls it at the end; a consumer that stops early calls it itself."""
        # A run that never got to some inputs says nothing about them.
        for domain, queue in self._deferred.items():
            if queue:
                self.failures.append(Failure("starved", f"domain {domain}: {len(queue)} "
                                                        f"input(s) still deferred when the run ended"))


def _input_to_dict(inp: Input) -> dict[str, Any]:
    """An input in the schema of scenario.inputs; it loads back if its offset fits the object."""
    d = {"kind": inp.kind, "obj": inp.obj, "offset": inp.offset, "byte": inp.byte}
    if inp.vaddr is not None:
        d["vaddr"] = f"{inp.vaddr:#x}"
    return d


def record_to_dict(r: StepRecord) -> dict[str, Any]:
    """Line-oriented structured form of a record, for JSONL logs."""
    from .microarch import format_trace
    return {
        "kind": r.kind,
        "slice": r.slice_index,
        "domain": r.domain,
        "input": None if r.input is None else _input_to_dict(r.input),
        "ta_before": [f"{v:#x}" for v in sorted(r.ta_before)],
        "ta_after": [f"{v:#x}" for v in sorted(r.ta_after)],
        "kernel_trace": format_trace(r.kernel_trace),
        "trace": format_trace(r.trace),
        "clock_before": r.s_mu_before.clock,
        "clock_after": r.s_mu_after.clock,
        "failures": [str(f) for f in r.failures],
    }
