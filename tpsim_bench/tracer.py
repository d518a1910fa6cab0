"""Spans around calls into tpsim's layers, recorded from outside the package.

install() replaces each traced function, where its callers look it up, by a
wrapper that records one span per call: id, name, start, end, parent span
and, for some spans, a work size taken from the arguments or the result
(ops in a trace, probe runs, transitions, cases, records).  Spans stay in
memory; the caller writes them out when the run ends.  uninstall() puts the
originals back.

A layer's self time is its span's duration minus the durations of its
traced children.
"""

from __future__ import annotations

import itertools
import statistics
import time
from collections import defaultdict


def _patch_sites(tp):
    """(owner, attribute, span name, size function) for every traced call.

    The owner is the module (or class, or dispatch table) through which
    callers find the function, so only calls that cross into the layer are
    counted: apply_trace's own apply_op calls, for one, are not.
    """
    from tpsim import channel, checks, confidentiality, kernel

    def arg(i):
        return lambda args, result: len(args[i])

    sites = [
        (kernel, "apply_trace", "microarch.apply_trace", arg(1)),
        (checks, "apply_op", "microarch.apply_op", None),
        (checks, "perturb_invisible", "selector.perturb_invisible", None),
        (kernel.SystemRunner, "__init__", "kernel.runner_init", None),
        (kernel.SystemRunner, "step", "kernel.step", None),
        (kernel.SystemRunner, "domain_switch", "kernel.switch", None),
        (channel, "run_prime_probe", "channel.run_prime_probe",
         lambda args, result: result.total),
        (channel, "mutual_information", "channel.mutual_information", None),
        (channel, "apparent_capacity_M0", "channel.m0", None),
        (tp, "check_confidentiality", "confidentiality.check",
         lambda args, result: result.transitions),
        (confidentiality, "observer_view", "confidentiality.observer_view", None),
        (confidentiality, "build_schedule", "confidentiality.build_schedule", None),
        (checks, "audit_records", "checks.audit_records", arg(1)),
    ]
    sites += [(m, "visible_projection", "microarch.visible_projection", None)
              for m in (kernel, confidentiality, checks)]
    sites += [(m, f, "selector.select_trace", None)
              for m in (kernel, checks) for f in ("select_trace", "select_trace_peeking")]
    # run_suite dispatches through these tables, not through module globals.
    for table in (checks._PROPERTY_FNS, checks._INVARIANT_FNS):
        sites += [(table, name, f"checks.{name}", lambda args, result: result.cases)
                  for name in table]
    return sites


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    def __init__(self, tp):
        self.tp = tp
        self.spans: list[tuple] = []      # (id, name, start_ns, end_ns, parent, size)
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, size):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                n = size(args, result) if size is not None and result is not None else None
                spans.append((sid, name, start, end, parent, n))

        return traced

    def install(self) -> None:
        for owner, attr, name, size in _patch_sites(self.tp):
            original = _get(owner, attr)
            self._saved.append((owner, attr, original))
            _set(owner, attr, self._wrap(name, original, size))

    def uninstall(self) -> None:
        while self._saved:
            _set(*self._saved.pop())

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# --- per-layer metrics -----------------------------------------------------

CHECK_NAMES = (
    "access-cost-locality", "offcore-flush-locality", "oncore-flush-dependence",
    "wcet-bounds", "replacement-sanity", "selector-dependency",
    "run-invariants", "ta-adherence",
)

# Work counts: they must repeat exactly between rounds of the same seed.
COUNTS = (
    "microarch.apply_trace.calls", "microarch.trace_ops", "microarch.apply_op.calls",
    "microarch.visible_projection.calls", "selector.select_trace.calls",
    "kernel.runner_init.calls", "kernel.step.calls", "kernel.switch.calls",
    "confidentiality.transitions", "confidentiality.observer_view.calls", "checks.cases",
)


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self time in microseconds, size."""
    child_ns: dict[int, int] = defaultdict(int)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    agg: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "us": 0.0, "self_us": 0.0, "size": 0})
    for sid, name, start, end, _, size in spans:
        a = agg[name]
        a["calls"] += 1
        a["us"] += (end - start) / 1e3
        a["self_us"] += (end - start - child_ns[sid]) / 1e3
        a["size"] += size or 0
    return agg


def layer_metrics(spans) -> dict[str, float | None]:
    """The per-layer metrics of one round's spans.  A time per call, op,
    case or record is None when the round made no such call."""
    agg = aggregate(spans)

    def get(name, key):
        return agg[name][key] if name in agg else 0

    def ratio(name, key="us", per="calls", scale=1.0):
        d = get(name, per)
        return get(name, key) / d * scale if d else None

    m: dict[str, float | None] = {
        "microarch.apply_trace.calls": get("microarch.apply_trace", "calls"),
        "microarch.trace_ops": get("microarch.apply_trace", "size"),
        "microarch.apply_trace.us_per_op": ratio("microarch.apply_trace", per="size"),
        "microarch.apply_op.calls": get("microarch.apply_op", "calls"),
        "microarch.apply_op.us_per_call": ratio("microarch.apply_op"),
        "microarch.visible_projection.calls": get("microarch.visible_projection", "calls"),
        "microarch.visible_projection.us_per_call": ratio("microarch.visible_projection"),
        "selector.select_trace.calls": get("selector.select_trace", "calls"),
        "selector.select_trace.us_per_call": ratio("selector.select_trace"),
        "selector.perturb_invisible.us_per_call": ratio("selector.perturb_invisible"),
        "kernel.runner_init.calls": get("kernel.runner_init", "calls"),
        "kernel.runner_init.us_per_call": ratio("kernel.runner_init"),
        "kernel.step.calls": get("kernel.step", "calls"),
        "kernel.step.self_us_per_call": ratio("kernel.step", "self_us"),
        "kernel.switch.calls": get("kernel.switch", "calls"),
        "kernel.switch.self_us_per_call": ratio("kernel.switch", "self_us"),
        "channel.us_per_sample": ratio("channel.run_prime_probe", per="size"),
        "channel.mutual_information.us_per_call": ratio("channel.mutual_information"),
        "channel.m0.ms_per_call": ratio("channel.m0", scale=1e-3),
        "confidentiality.transitions": get("confidentiality.check", "size"),
        "confidentiality.us_per_transition": ratio("confidentiality.check", per="size"),
        "confidentiality.self_us_per_transition":
            ratio("confidentiality.check", "self_us", per="size"),
        "confidentiality.observer_view.calls": get("confidentiality.observer_view", "calls"),
        "confidentiality.observer_view.us_per_call": ratio("confidentiality.observer_view"),
        "confidentiality.build_schedule.us_per_call": ratio("confidentiality.build_schedule"),
        "checks.cases": sum(get(f"checks.{c}", "size") for c in CHECK_NAMES),
        "checks.audit_records.us_per_record": ratio("checks.audit_records", per="size"),
    }
    for c in CHECK_NAMES:
        m[f"checks.{c}.us_per_case"] = ratio(f"checks.{c}", per="size")
    return m


def median_metrics(rounds: list[dict]) -> dict[str, float | None]:
    """Counts from the first round; times as the median over rounds that
    made the call."""
    out = {}
    for name in rounds[0]:
        if name in COUNTS:
            out[name] = rounds[0][name]
        else:
            values = [r[name] for r in rounds if r[name] is not None]
            out[name] = statistics.median(values) if values else None
    return out
