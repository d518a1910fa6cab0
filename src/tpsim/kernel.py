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

import copy
import functools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

from .config import (
    HONEST_MECHANISM,
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


@dataclass
class AbstractState:
    """What a run changes of the kernel; the config holds everything else."""

    objects: dict[str, ObjectSpec]   # the run's own copies
    current: int
    slot_remaining: int
    ta: set[int]                 # virtual pages retrieved since the last switch


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


def get_object(state: AbstractState, ident: str, page_size: int) -> ObjectSpec:
    """Retrieve an object, recording all of its pages into the touched set."""
    obj = state.objects[ident]
    state.ta.update(obj.pages(page_size))
    return obj


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


# --- run options ---------------------------------------------------------------

# How each class of the switch template expands at a switch.
_TEMPLATE_OPS = {
    Read: lambda runner, deadline: runner.globals_walk,
    OffCoreFlush: lambda runner, deadline: (OffCoreFlush(runner.policy.kernel_globals),),
    OnCoreFlush: lambda runner, deadline: (OnCoreFlush(),),
    PadTo: lambda runner, deadline: (PadTo(deadline),),
}


@dataclass
class RunOptions:
    """Behavioural switches for a run.

    mechanism is the switch template; the mutation harness and the attack
    variants edit it, and the default gives the honest kernel.
    oracle_factory replaces the oracle of a (slice, domain, phase); by
    default every oracle and trace seed is keyed on the runner's seed.
    """

    mechanism: tuple[type, ...] = HONEST_MECHANISM
    selector_peek: bool = False
    ta_leak: bool = False
    oracle_factory: Optional[Callable[[int, int, str], NondetOracle]] = None


@functools.lru_cache(maxsize=32)
def _kernel_walks(policy: DomainPolicy, g: CacheGeometry) -> tuple[Trace, dict[int, Trace]]:
    """The globals walk, and each domain's image walk, of a policy.  Every
    runner of the policy shares the result and only reads it."""
    images = {
        d.ident: tuple(Read(KERNEL_VBASE + line, line)
                       for page in sorted(d.kernel_image) for line in g.page_lines(page))
        for d in policy.domains
    }
    return tuple(Read(KERNEL_VBASE + a, a) for a in sorted(policy.kernel_globals)), images


def _own_copies(objects: Iterable[ObjectSpec]) -> dict[str, ObjectSpec]:
    """Copies of objects, keyed by id, that a run may change.  Built field by
    field: dataclasses.replace would double the cost of starting a run."""
    return {o.ident: ObjectSpec(o.ident, o.owner, o.base, o.size, o.allocated, dict(o.payload))
            for o in objects}


class SystemRunner:
    """Drives one system run: alternating timeslices and domain switches."""

    def __init__(self, cfg: RunConfig, seed: object, options: RunOptions | None = None):
        self.cfg = cfg
        self.seed = str(seed)
        self.options = options or RunOptions()
        self.g = cfg.geometry
        self.cm = cfg.cost_model
        self.policy = cfg.policy
        self.amap = cfg.amap
        # The fixed kernel walks, shared by every runner of the policy.
        self.globals_walk, self.image_walks = _kernel_walks(self.policy, self.g)
        self.abstract = AbstractState(
            objects=_own_copies(cfg.scenario.objects),
            current=self.policy.domains[0].ident,
            slot_remaining=self.policy.slice_length,
            ta=set(),
        )
        self.micro = self._initial_micro()
        self.slice_index = 0
        self.failures: list[Failure] = []
        self._deferred: dict[int, list[Input]] = {d: [] for d in self.policy.domain_ids()}
        self._step_in_slice = 0

    # -- construction helpers --

    def _initial_micro(self) -> MicroArchState:
        state = MicroArchState.initial(self.g, self.cm.flushable_words)
        if not self.cfg.scenario.initial_cache:
            return state
        sets = list(state.sets)
        # Load checked that the lines are distinct, fit their sets and have
        # valid levels.
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

    def _kernel_walk(self, input: Input, domain: int) -> Trace:
        if input.kind in KERNEL_CALLS:
            return self.globals_walk + self.image_walks[domain]
        return ()

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

    def _resolve_alloc(self, domain: int) -> ObjectSpec | None:
        pool = [
            o for o in self.abstract.objects.values()
            if o.owner == domain and not o.allocated
        ]
        pool.sort(key=lambda o: o.ident)
        return pool[0] if pool else None

    def _run_abstract(self, input: Input, domain: int) -> tuple[list[Failure], set[int]]:
        """Execute the abstract semantics of one input.

        Returns (failures, footprint pages).  The touched set grows as a side
        effect.
        """
        failures: list[Failure] = []
        footprint: set[int] = set()
        st = self.abstract
        psz = self.amap.page_size

        if input.kind == NOOP:
            return failures, footprint

        if input.kind == RAW_ACCESS:
            v = input.vaddr
            f = access_mem(st, v, psz)
            if f:
                failures.append(f)
            else:
                footprint.add(v - (v % psz))
            return failures, footprint

        if input.kind == SYS_ALLOC:
            obj = self._resolve_alloc(domain)
            if obj is None:
                return failures, footprint   # pool exhausted
            get_object(st, obj.ident, psz)
            footprint |= obj.pages(psz)
            obj.allocated = True
            obj.payload.clear()
            f = access_mem(st, obj.base, psz)
            if f:
                failures.append(f)
            return failures, footprint

        obj = st.objects.get(input.obj or "")
        if obj is None:
            failures.append(Failure("bad-input", f"unknown object {input.obj!r}"))
            return failures, footprint

        get_object(st, obj.ident, psz)
        footprint |= obj.pages(psz)
        offset = input.offset % max(obj.size, 1)
        write = input.kind in (USER_WRITE, SYS_WRITE)
        f = access_mem(st, obj.base + offset, psz)
        if f:
            failures.append(f)
        elif write:
            obj.payload[offset] = input.byte & 0xFF
            if self.options.ta_leak:
                self._leak_byte(domain, input.byte & 0xFF)
        return failures, footprint

    def _leak_byte(self, domain: int, byte: int) -> None:
        # Deliberate confidentiality bug: copy a byte written by one domain
        # into the first object owned by some other domain, without tracking.
        for o in sorted(self.abstract.objects.values(), key=lambda o: o.ident):
            if o.owner != domain:
                o.payload[0] = byte
                return

    # -- cost bounds for the deferral rule --

    def worst_case_cost(self, input: Input) -> int:
        return worst_input_cost(self.cfg, input.kind, len(self._kernel_walk(input, self.abstract.current)))

    # -- one step -------------------------------------------------------------

    def step(self, input: Input) -> StepRecord:
        """Apply one input of the current domain and return its record."""
        st = self.abstract
        domain = st.current
        ta_before = frozenset(st.ta)
        mu_before = self.micro
        slot_before = st.slot_remaining

        failures, footprint = self._run_abstract(input, domain)
        kind = "kernel-call" if input.kind in KERNEL_CALLS else "user"

        ok, witnesses = partition_subset_invariant(
            st.ta, domain, self.policy, self.amap, self.g
        )
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
            kernel_trace = self._kernel_walk(input, domain)
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
            kernel_trace, trace = applied[:len(kernel_trace)], applied[len(kernel_trace):]

            delta = self.micro.clock - mu_before.clock
            if delta > slot_before:
                failures.append(Failure(
                    kind="slot-overrun",
                    detail=f"step cost {delta} exceeded remaining slot {slot_before}",
                ))
            st.slot_remaining = slot_before - delta

        record = StepRecord(
            kind=kind, slice_index=self.slice_index, domain=domain, input=input,
            ta_before=ta_before, ta_after=frozenset(st.ta),
            kernel_trace=kernel_trace, trace=trace,
            s_mu_before=mu_before, s_mu_after=self.micro,
            failures=tuple(failures),
        )
        self._step_in_slice += 1
        return record

    # -- the four-phase switch --------------------------------------------------

    def _next_domain(self, old: int) -> int:
        ids = self.policy.domain_ids()
        return ids[(ids.index(old) + 1) % len(ids)]

    def domain_switch(self, tick: int) -> StepRecord:
        """Switch away from the current domain at the given timer tick; returns its record."""
        st = self.abstract
        if st.slot_remaining > 0:
            raise PolicyError(
                f"domain switch before the timer tick: {st.slot_remaining} cycles left"
            )
        old = st.current
        ta_before = frozenset(st.ta)
        mu_before = self.micro
        failures: list[Failure] = []
        if self.micro.clock > tick:
            failures.append(Failure("tick-overrun", f"slice work ran to {self.micro.clock}, "
                                                    f"past the tick {tick}"))
        deadline = tick + self.policy.switch_deadline

        # Phase 1, old_clean: deterministic scheduler bookkeeping over the
        # kernel globals, same discipline as any step but outside the
        # touched set (static exception).
        kernel_trace: Trace = self.globals_walk

        # Phase 2, dirty: optional, off by default.  Touches both images in a
        # fixed order, so it reveals nothing either domain does not know.
        if self.policy.use_dirty_phase:
            new = self._next_domain(old)
            kernel_trace = kernel_trace + tuple(sorted(
                self.image_walks[old] + self.image_walks[new], key=lambda op: op.p,
            ))

        kernel_trace = self._apply(kernel_trace, self._oracle(old, "old_clean"), failures)

        # Phase 3, mechanism: scrub and pad.  The touched set is emptied here
        # and only here.
        st.ta.clear()
        template = tuple(op for cls in self.options.mechanism
                         for op in _TEMPLATE_OPS[cls](self, deadline))
        mechanism_ops = self._apply(template, self._oracle(KERNEL_DOMAIN, "mechanism"),
                                    failures)

        # Phase 4, new_clean: install the next domain.  Pure bookkeeping, no
        # timed accesses, so the post-switch clock stays at the deadline.
        new = self._next_domain(old)
        st.current = new
        st.slot_remaining = self.policy.slice_length

        failures.extend(self._switch_postcondition_failures(deadline))

        record = StepRecord(
            kind="switch", slice_index=self.slice_index, domain=old, input=None,
            ta_before=ta_before, ta_after=frozenset(),
            kernel_trace=kernel_trace, trace=mechanism_ops,
            s_mu_before=mu_before, s_mu_after=self.micro,
            failures=tuple(failures),
        )
        return record

    def _switch_postcondition_failures(self, deadline: int) -> list[Failure]:
        """Postconditions of exactly the operation classes in the template."""
        out = []
        mechanism = self.options.mechanism
        if OnCoreFlush in mechanism:
            if self.micro.flushable != flushable_reset(self.cm.flushable_words):
                out.append(Failure("switch-postcondition", "flushable state not reset"))
        if OffCoreFlush in mechanism:
            for idx in self.policy.global_set_indices(self.g):
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
        for record in self._slices(slices, schedule):
            self.failures.extend(record.failures)
            yield record
        self.finish()

    def finish(self) -> None:
        """Mark the run starved if inputs are still deferred.  transitions()
        calls it at the end; a consumer that stops early calls it itself."""
        # A run that never got to some inputs says nothing about them.
        for domain, queue in self._deferred.items():
            if queue:
                self.failures.append(Failure("starved", f"domain {domain}: {len(queue)} "
                                                        f"input(s) still deferred when the run ended"))

    def fork(self) -> "SystemRunner":
        """An independent runner at the same point of the run.

        The abstract state, the deferred inputs and the failures are copied;
        the hardware state is immutable and shared.
        """
        twin = copy.copy(self)
        st = self.abstract
        twin.abstract = AbstractState(_own_copies(st.objects.values()), st.current,
                                      st.slot_remaining, set(st.ta))
        twin._deferred = {d: list(q) for d, q in self._deferred.items()}
        twin.failures = list(self.failures)
        return twin

    def _slices(self, slices: int | None,
                schedule: dict[int, list[list[Input]]] | None) -> Iterator[StepRecord]:
        total = slices if slices is not None else self.cfg.scenario.slices
        if schedule is None:
            schedule = self.cfg.scenario.inputs
        for k in range(self.slice_index, total):
            domain = self.policy.domain_ids()[k % len(self.policy.domains)]
            # The round-robin successor was installed by the previous switch;
            # trust but verify, since schedules are defined positionally.
            if domain != self.abstract.current:
                raise ModelError(
                    f"schedule out of sync with rotation: slice {k} belongs to domain "
                    f"{domain}, but domain {self.abstract.current} is current"
                )
            self._step_in_slice = 0
            slice_start = self.micro.clock
            tick = slice_start + self.policy.slice_length

            batches = schedule.get(domain, [])
            rotation = k // len(self.policy.domains)
            batch = batches[rotation] if rotation < len(batches) else []
            queue = self._deferred[domain] + list(batch)
            self._deferred[domain] = []

            for i, inp in enumerate(queue):
                if self.worst_case_cost(inp) > self.abstract.slot_remaining:
                    # Near-tick operation: defer it (and program order behind
                    # it) to this domain's next slice.
                    self._deferred[domain] = queue[i:]
                    break
                yield self.step(inp)

            # Idle to the timer tick; slices end on exact boundaries.  A slice
            # that ran past it is a failure of the switch that follows.
            if self.micro.clock < tick:
                self.micro = self.micro._replace(clock=tick)
            self.abstract.slot_remaining = 0

            yield self.domain_switch(tick)
            self.slice_index += 1


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
