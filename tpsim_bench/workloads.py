"""The three workloads: what one round runs, how many items it did, and
whether its outputs are right.

A round is a fixed list of operations (one channel measurement, one
confidentiality check or one property check each), run serially through
tpsim's library API.  The parallel pass asks for the same work through the
command line front end with --jobs 2, the way a user asks for it, and must
print exactly what the serial reports say.

Items are counted from tpsim's own reports (matrix totals, transitions
compared, cases run), so a change that does less work cannot read as a
speed-up.
"""

from __future__ import annotations

import contextlib
import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import verify

JOBS = 2

# Samples per symbol, honest trials, and cases per property, by size.  The
# capacity workload cannot shrink for a quick run: below 300 samples M0's
# interval comes too close to a fifth of the unprotected M (at 250 the worst
# of 22 seeds kept a 5.55x margin, at 300 the worst of 30 kept 6.13x).  The
# sweep size only feeds per-layer timings and is not verified.
SIZES = {
    "capacity": {"full": 300, "quick": 300, "sweep": 20},
    "confidentiality": {"full": 50, "quick": 10, "sweep": 3},
    "properties": {"full": 200, "quick": 40, "sweep": 20},
}

# Mutated runs stop at their first violation; this only caps the search.
# The off-core flush mutation needed up to 47 trials over seeds 1..100.
MUTATION_TRIALS = 200

REFERENCE = "configs/reference.yaml"
ADVERSARIAL = "configs/adversarial.yaml"


@dataclass
class Operation:
    label: str
    count: int                    # operations in the benchmark's sense
    run: Callable[[], Any]


@dataclass
class CliRun:
    argv: list[str]
    expected_text: str
    expected_code: int
    csv_path: Path | None = None
    matrix: Any = None            # the serial matrix the CSV must equal


def run_cli(tp, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tp.cli.main(argv)
    return code, buf.getvalue()


def read_matrix_csv(path: Path) -> tuple[list[int], list[str], list[tuple[int, ...]]]:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return ([int(e) for e in header[1:]], [r[0] for r in rows],
            [tuple(int(c) for c in r[1:]) for r in rows])


class Workload:
    name: str
    configs: tuple[str, ...]

    def __init__(self, tp, root: Path, seed: int, size: str, out_dir: Path):
        self.tp = tp
        self.root = root
        self.seed = seed
        self.n = SIZES[self.name][size]
        self.out_dir = out_dir
        self.cfg = {c: tp.load_config(root / c) for c in self.configs}
        for cfg in self.cfg.values():
            tp.validate_config(cfg)

    def path(self, config: str) -> str:
        return str(self.root / config)

    def common_args(self) -> list[str]:
        return ["--seed", str(self.seed), "--jobs", str(JOBS), "--no-timestamp"]

    def operations(self) -> list[Operation]:
        raise NotImplementedError

    def items(self, outputs: dict) -> int:
        raise NotImplementedError

    def verify(self, outputs: dict) -> list[str]:
        raise NotImplementedError

    def cli_runs(self, outputs: dict) -> list[CliRun]:
        raise NotImplementedError

    def cli_items(self, run: CliRun, text: str) -> int:
        raise NotImplementedError

    def run_parallel(self, runs: list[CliRun]) -> tuple[int, list[str]]:
        """Run the CLI invocations; return items done and problems seen."""
        items, problems = 0, []
        for run in runs:
            if run.csv_path is not None:
                run.csv_path.unlink(missing_ok=True)
            code, text = run_cli(self.tp, run.argv)
            where = " ".join(run.argv)
            if code != run.expected_code:
                problems.append(f"{where}: exit {code}, expected {run.expected_code}")
            if text != run.expected_text:
                problems.append(f"{where}: --jobs {JOBS} output differs from the serial report")
            if run.csv_path is not None:
                lower, labels, counts = read_matrix_csv(run.csv_path)
                m = run.matrix
                if (lower, tuple(labels), tuple(counts)) != (list(m.edges[:-1]), m.labels, m.counts):
                    problems.append(f"{where}: --jobs {JOBS} matrix differs from the serial one")
            items += self.cli_items(run, text)
        return items, problems


class Capacity(Workload):
    """Prime-and-probe capacity: protection off and on under tree-PLRU, then
    prefetch against targeted flush under adversarial replacement."""

    name = "capacity"
    configs = (REFERENCE, ADVERSARIAL)
    modes = {"off": REFERENCE, "on": REFERENCE,
             "prefetch": ADVERSARIAL, "targeted-flush": ADVERSARIAL}

    def operations(self) -> list[Operation]:
        tp, ref = self.tp, self.cfg[REFERENCE]
        ops = [
            Operation(mode, 1, lambda m=mode: tp.measure_channel(
                ref, m, self.seed, samples_per_symbol=self.n))
            for mode in ("off", "on")
        ]
        ops.append(Operation("prefetch-experiment", 2, lambda: tp.prefetch_experiment(
            self.cfg[ADVERSARIAL], self.seed, samples_per_symbol=self.n)))
        return ops

    @staticmethod
    def reports(outputs: dict) -> dict:
        reports = {m: outputs[m] for m in ("off", "on") if m in outputs}
        if "prefetch-experiment" in outputs:
            pre = outputs["prefetch-experiment"]
            reports["prefetch"], reports["targeted-flush"] = pre.prefetch, pre.flush
        return reports

    def items(self, outputs: dict) -> int:
        return sum(r.matrix.total for r in self.reports(outputs).values())

    def verify(self, outputs: dict) -> list[str]:
        return verify.check_capacity(self.reports(outputs), self.n)

    def cli_runs(self, outputs: dict) -> list[CliRun]:
        runs = []
        for mode, rep in self.reports(outputs).items():
            csv_path = self.out_dir / f"{self.name}-{mode}.csv"
            runs.append(CliRun(
                argv=["attack", self.path(self.modes[mode]), "--protection", mode,
                      "--samples", str(self.n), "--out-csv", str(csv_path)]
                     + self.common_args(),
                expected_text=f"channel matrix written to {csv_path}\n{rep.format()}\n",
                expected_code=0, csv_path=csv_path, matrix=rep.matrix,
            ))
        return runs

    def cli_items(self, run: CliRun, text: str) -> int:
        return sum(sum(row) for row in read_matrix_csv(run.csv_path)[2])


class Confidentiality(Workload):
    """Two-run u-mu confidentiality for observer 0: honest trials, then each
    of the six mutations until its first violation."""

    name = "confidentiality"
    configs = (REFERENCE,)
    observer = 0

    def operations(self) -> list[Operation]:
        tp, ref = self.tp, self.cfg[REFERENCE]
        ops = [Operation("honest", 1, lambda: tp.check_confidentiality(
            ref, self.observer, self.n, self.seed, variant="u-mu"))]
        ops += [
            Operation(m, 1, lambda m=m: tp.check_confidentiality(
                ref, self.observer, MUTATION_TRIALS, self.seed, variant="u-mu", mutation=m))
            for m in verify.MUTATIONS
        ]
        return ops

    def items(self, outputs: dict) -> int:
        return sum(r.transitions for r in outputs.values())

    def verify(self, outputs: dict) -> list[str]:
        mutated = {k: v for k, v in outputs.items() if k != "honest"}
        return verify.check_confidentiality(outputs.get("honest"), mutated, self.n,
                                            self.cfg[REFERENCE].scenario.slices)

    def cli_runs(self, outputs: dict) -> list[CliRun]:
        runs = []
        for label, rep in outputs.items():
            trials = self.n if label == "honest" else MUTATION_TRIALS
            extra = [] if label == "honest" else ["--mutation", label]
            runs.append(CliRun(
                argv=["confidentiality", self.path(REFERENCE), "--variant", "u-mu",
                      "--observer", str(self.observer), "--trials", str(trials)]
                     + extra + self.common_args(),
                expected_text=rep.format() + "\n",
                expected_code=1 if rep.violations else 0,
            ))
        return runs

    def cli_items(self, run: CliRun, text: str) -> int:
        found = re.search(r"^transitions compared: (\d+)$", text, re.M)
        return int(found.group(1)) if found else 0


class Properties(Workload):
    """The hardware property suites and whole-run audits on both configs,
    plus the peeking selector as a negative control."""

    name = "properties"
    configs = (REFERENCE, ADVERSARIAL)

    def operations(self) -> list[Operation]:
        tp = self.tp
        ops = [
            Operation(c, len(verify.POINTWISE_CHECKS + verify.WHOLE_RUN_CHECKS),
                      lambda c=c: tp.run_suite(self.cfg[c], "all", self.n, self.seed))
            for c in self.configs
        ]
        ops.append(Operation("peeking", 1, lambda: tp.checks.check_selector_dependency(
            self.cfg[REFERENCE], self.n, self.seed, peeking=True)))
        return ops

    def items(self, outputs: dict) -> int:
        results = [r for c in self.configs for r in outputs.get(c, [])]
        if "peeking" in outputs:
            results.append(outputs["peeking"])
        return sum(r.cases for r in results)

    def verify(self, outputs: dict) -> list[str]:
        suites = {c: outputs[c] for c in self.configs if c in outputs}
        return verify.check_properties(suites, self.n, outputs.get("peeking"))

    def cli_runs(self, outputs: dict) -> list[CliRun]:
        runs = []
        for c in self.configs:
            if c not in outputs:
                continue
            results = outputs[c]
            passed = sum(r.ok for r in results)
            text = "".join(
                [f"property check, suite=all, trials={self.n}, seed={self.seed}\n"]
                + [r.format() + "\n" for r in results]
                + [f"{passed}/{len(results)} checks passed\n"]
            )
            runs.append(CliRun(
                argv=["check", self.path(c), "--suite", "all", "--trials", str(self.n)]
                     + self.common_args(),
                expected_text=text, expected_code=0 if passed == len(results) else 1,
            ))
        return runs

    def cli_items(self, run: CliRun, text: str) -> int:
        return sum(int(n) for n in re.findall(r"\((?:\d+/)?(\d+) cases\)", text))


WORKLOADS = {w.name: w for w in (Capacity, Confidentiality, Properties)}
