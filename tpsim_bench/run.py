"""tpsim benchmark: end-to-end and per-layer timings of three workloads.

Run from anywhere inside a tpsim checkout; the package is imported from the
checkout's src/ and nowhere else:

    python3 tpsim_bench/run.py --workload capacity --seed 1 --seconds 30 --trace 0
    python3 tpsim_bench/run.py --workload all --quick

--trace 0 measures the end-to-end metrics.  It repeats, until --seconds is
used, a serial round of the workload through the library API, a parallel
round through the command line with --jobs 2, and the set-up of a fresh
interpreter; each metric is the median over its rounds.  --trace 1 alternates
untraced and traced rounds and reports the per-layer metrics, the tracing
overhead among them.  Every round's outputs are checked.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Results and span dumps go to .tpsim_bench/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gzip
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import tracer
from workloads import REFERENCE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".tpsim_bench"

MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 2
SETUP_REPEATS = 5

SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import tpsim\n"
    "for path in sys.argv[2:]:\n"
    "    tpsim.validate_config(tpsim.load_config(path))\n"
)


def import_tpsim():
    src = ROOT / "src"
    if not (src / "tpsim" / "__init__.py").is_file():
        sys.exit(f"error: no tpsim package under {src}; run inside a tpsim checkout")
    sys.path.insert(0, str(src))
    import tpsim
    import tpsim.cli  # noqa: F401  (the parallel pass drives the CLI)
    if Path(tpsim.__file__).resolve().parent != (src / "tpsim").resolve():
        sys.exit(f"error: imported tpsim from {tpsim.__file__}, not from {src}")
    return tpsim


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# --- rounds -------------------------------------------------------------------

@dataclass
class Round:
    wall_s: float
    cpu_s: float
    value: Any


@dataclass
class Outcome:
    """What the serial operations of one round returned."""
    outputs: dict
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def timed(fn: Callable[[], Any]) -> Round:
    t0, c0 = time.perf_counter(), time.process_time()
    value = fn()
    return Round(time.perf_counter() - t0, time.process_time() - c0, value)


def run_operations(tp, wl) -> Outcome:
    out = Outcome(outputs={})
    for op in wl.operations():
        out.attempted += op.count
        try:
            out.outputs[op.label] = op.run()
        except tp.ModelError as e:
            out.failed += op.count
            out.errors.append(f"{wl.name} {op.label}: {e}")
    return out


def check_rounds(wl, rounds: list[Round]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    for r in rounds:
        attempted += r.value.attempted
        failed += r.value.failed
        problems += [f"{wl.name}: {p}" for p in wl.verify(r.value.outputs)]
    return attempted, failed, problems


# --- end-to-end metrics -----------------------------------------------------------

def setup_command(configs: tuple[str, ...]) -> list[str]:
    """A fresh interpreter importing tpsim and loading and validating the
    workload's configs."""
    return [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), *(str(ROOT / c) for c in configs)]


def end_to_end(tp, workload_cls, seed: int, seconds: float, quick: bool):
    """Serial round, parallel round and one set-up, in turn, until --seconds
    is used; interleaving lets every metric sample the whole run, so a slow
    spell of a shared host does not land on one metric alone."""
    cmd = setup_command(workload_cls.configs)

    def spawn():
        # No timeout: with one, subprocess polls the child in steps of up to
        # 50 ms, which would quantise the timing.
        subprocess.run(cmd, check=True)

    spawn()  # compiles the bytecode, which users do not pay on every run
    wl = workload_cls(tp, ROOT, seed, "quick" if quick else "full", OUT_DIR)
    serial: list[Round] = []
    parallel: list[Round] = []
    setup: list[float] = []
    start = time.perf_counter()
    while True:
        serial.append(timed(lambda: run_operations(tp, wl)))
        if not parallel:
            runs = wl.cli_runs(serial[0].value.outputs)
        parallel.append(timed(lambda: wl.run_parallel(runs)))
        setup.append(timed(spawn).wall_s)
        n = len(serial)
        if quick or (n >= MIN_ROUNDS and (time.perf_counter() - start) * (n + 1) / n > seconds):
            break
    while not quick and len(setup) < SETUP_REPEATS:
        setup.append(timed(spawn).wall_s)
    # Worker processes are not counted; the parent does the serial work and,
    # in the parallel rounds, at most the same work again.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed, problems = check_rounds(wl, serial)
    items = [wl.items(r.value.outputs) for r in serial]
    for r in parallel:
        problems += [f"{wl.name} parallel: {p}" for p in r.value[1]]
    if min(items) < 1 or min(r.value[0] for r in parallel) < 1:
        problems.append(f"{wl.name}: a round did no work")

    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": statistics.median(n / r.wall_s for n, r in zip(items, serial)),
        "cpu_ms_per_item": statistics.median(1e3 * r.cpu_s / n for n, r in zip(items, serial)),
        "parallel_items_per_s": statistics.median(r.value[0] / r.wall_s for r in parallel),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "setup_s": setup,
        "serial_rounds": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "items": n}
                          for n, r in zip(items, serial)],
        "parallel_rounds": [{"wall_s": r.wall_s, "items": r.value[0]} for r in parallel],
        "errors": [e for r in serial for e in r.value.errors],
    }
    return attempted, failed, problems, metrics, detail


# --- per-layer metrics --------------------------------------------------------------

READ_PROBE_SETS = (64, 1024, 8192)


def read_cost_us(tp, cfg, num_sets: int, seed: int, reads: int = 400, repeats: int = 5) -> float:
    """Median microseconds per apply_op(Read) on a state whose sets are all
    full, at the reference line size and ways but with num_sets sets.  Each
    read starts from the same full state, so every read sees full sets."""
    g = tp.CacheGeometry(line_size=cfg.geometry.line_size, num_sets=num_sets,
                         num_ways=cfg.geometry.num_ways, page_size=cfg.geometry.page_size)
    span = g.line_size * g.num_sets
    sets = tuple(
        tp.CacheSet(ways=tuple((i * g.line_size + k * span, 1) for k in range(g.num_ways)))
        for i in range(num_sets)
    )
    state = tp.MicroArchState(flushable=(0,) * cfg.cost_model.flushable_words, sets=sets)
    rng = random.Random(f"{seed}:read-probe:{num_sets}")
    # Lines over twice the resident tags: about half hit, half evict.
    ops = [tp.Read(a, a) for a in (rng.randrange(2 * g.num_ways * span) for _ in range(reads))]
    oracle = tp.NondetOracle(key=f"{seed}:read-probe")
    per_read = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for op in ops:
            tp.apply_op(state, op, oracle, g, cfg.cost_model, cfg.policy)
        per_read.append((time.perf_counter_ns() - t0) / reads / 1e3)
    return statistics.median(per_read)


def config_load_ms(tp, configs: tuple[str, ...], repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        for c in configs:
            t0 = time.perf_counter_ns()
            tp.load_config(ROOT / c)
            times.append((time.perf_counter_ns() - t0) / 1e6)
    return statistics.median(times)


def per_layer(tp, workload_cls, seed: int, seconds: float, quick: bool):
    load_ms = config_load_ms(tp, workload_cls.configs)
    wl = workload_cls(tp, ROOT, seed, "quick" if quick else "full", OUT_DIR)
    untraced: list[Round] = []
    traced: list[Round] = []
    spans: list[list] = []
    start = time.perf_counter()
    while True:
        untraced.append(timed(lambda: run_operations(tp, wl)))
        with tracer.Tracer(tp) as tr:
            traced.append(timed(lambda: run_operations(tp, wl)))
        spans.append(tr.spans)
        pairs = len(traced)
        elapsed = time.perf_counter() - start
        if quick or (pairs >= MIN_TRACED_PAIRS and elapsed * (pairs + 1) / pairs > seconds):
            break
    attempted, failed, problems = check_rounds(wl, untraced + traced)

    rounds = [tracer.layer_metrics(s) for s in spans]
    for name in tracer.COUNTS:
        if len({r[name] for r in rounds}) > 1:
            problems.append(f"{wl.name}: work count {name} differs between identical "
                            f"rounds: {[r[name] for r in rounds]}")
    metrics = tracer.median_metrics(rounds)

    # A layer this workload never calls gets its per-call times from small
    # untimed instances of the other workloads, so every metric is measured.
    if any(v is None for v in metrics.values()):
        with tracer.Tracer(tp) as tr:
            for other in WORKLOADS.values():
                if other is not workload_cls:
                    run_operations(tp, other(tp, ROOT, seed, "sweep", OUT_DIR))
        sweep = tracer.layer_metrics(tr.spans)
        metrics = {k: sweep[k] if v is None else v for k, v in metrics.items()}
        spans.append(tr.spans)

    ref = tp.load_config(ROOT / REFERENCE)
    for n in READ_PROBE_SETS:
        metrics[f"microarch.read.us.sets{n}"] = read_cost_us(tp, ref, n, seed)
    metrics["config.load_ms"] = load_ms
    # Ratios of neighbouring rounds, so that slow drift of the host cancels.
    metrics["trace.overhead_pct"] = 100 * (statistics.median(
        t.wall_s / u.wall_s for t, u in zip(traced, untraced)) - 1)

    dump = OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl.gz"
    with gzip.open(dump, "wt", compresslevel=1) as fh:
        for i, round_spans in enumerate(spans):
            for s in round_spans:
                fh.write(json.dumps([i, *s]) + "\n")
    detail = {"untraced_wall_s": [r.wall_s for r in untraced],
              "traced_wall_s": [r.wall_s for r in traced], "span_dump": str(dump)}
    return attempted, failed, problems, metrics, detail


# --- command line ---------------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process, so set-up and peak memory stay apart."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--quick"] if args.quick else []),
                              capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, m in result["metrics"].items():
            metrics[f"{name}.{metric}"] = m
            print(f"{name:16s} {metric:44s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="one round of each pass at a small size, for a smoke test")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    tp = import_tpsim()
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)

    workload_cls = WORKLOADS[args.workload]
    e2e_units, layer_units = metric_units()
    measure = per_layer if args.trace else end_to_end
    units = layer_units if args.trace else e2e_units
    attempted, failed, problems, metrics, detail = measure(
        tp, workload_cls, args.seed, args.seconds, args.quick)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                           "BENCHMARK.json")

    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    for name in units:
        print(f"{args.workload:16s} {name:44s} {metrics[name]:14.6g} {units[name]}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, quick=args.quick, problems=problems, **detail)
    suffix = "-quick" if args.quick else ""
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
