"""Self-test of the benchmark's correctness checks.

Every check in verify.py gets a right answer, which it must accept, and a
planted wrong answer, which it must reject.  The answers are built by hand
from tpsim's own report types, so the test runs in a second:

    python3 tpsim_bench/selftest.py

Exit status 0 when every planted answer was caught, 1 otherwise.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tpsim  # noqa: E402
from tpsim.checks import CheckResult  # noqa: E402
from tpsim.confidentiality import Violation  # noqa: E402

import verify  # noqa: E402

SAMPLES = 10


def capacity_report(mode: str, rows, m0_hi: float) -> tpsim.CapacityReport:
    matrix = tpsim.ChannelMatrix(labels=("0", "1"), edges=tuple(range(len(rows[0]) + 1)),
                                 counts=tuple(tuple(r) for r in rows))
    return tpsim.CapacityReport(
        protection=mode, matrix=matrix, M_bits=tpsim.mutual_information(matrix),
        M0_bits=m0_hi / 2, M0_ci95=(0.0, m0_hi), samples=SAMPLES, shuffles=200,
        bin_width=1, seed=1)


def capacity_reports() -> dict:
    open_rows = ((SAMPLES, 0), (0, SAMPLES))           # M = 1 bit exactly
    closed_rows = ((4, 6), (4, 6))                     # M = 0 exactly
    return {
        "off": capacity_report("off", open_rows, 0.1),
        "on": capacity_report("on", closed_rows, 0.1),
        "prefetch": capacity_report("prefetch", ((8, 2), (1, 9)), 0.1),
        "targeted-flush": capacity_report("targeted-flush", closed_rows, 0.1),
    }


def confidentiality_report(mutation: str, transitions: int, violations: int):
    return tpsim.ConfidentialityReport(
        variant="u-mu", observer=0, trials=2, seed=1, mutation=mutation,
        violations=[Violation(0, 3, "switch", 1, 1, "micro.clock", "1", "2")] * violations,
        transitions=transitions, hypothesis_ok=True)


def property_results(asked: int) -> list:
    return [CheckResult(name, verify.expected_cases(name, asked))
            for name in verify.POINTWISE_CHECKS + verify.WHOLE_RUN_CHECKS]


def cases() -> list[tuple[str, str, list[str], list[str]]]:
    """(name, the problem the planted answer must raise, problems on the
    right answer, problems on the planted answer)."""
    out = []

    good = capacity_reports()
    bad = dict(good, off=replace(good["off"], M_bits=0.75))
    out.append(("capacity: misreported M", "brute force", verify.check_capacity(good, SAMPLES),
                verify.check_capacity(bad, SAMPLES)))

    bad = dict(good, on=capacity_report("on", ((4, 6), (5, 5)), 0.1))
    out.append(("capacity: on rows differ", "symbol rows differ", [],
                verify.check_capacity(bad, SAMPLES)))

    trials, slices = 2, 6
    honest = confidentiality_report("none", 2 * trials * slices, 0)
    mutated = {m: confidentiality_report(m, 5, 1) for m in verify.MUTATIONS}
    out.append(("confidentiality: honest run compared nothing", "compared 0 transitions",
                verify.check_confidentiality(honest, mutated, trials, slices),
                verify.check_confidentiality(replace(honest, transitions=0), mutated,
                                             trials, slices)))

    silent = dict(mutated, **{"ta-leak": confidentiality_report("ta-leak", 5, 0)})
    out.append(("confidentiality: mutation without violation", "ta-leak: no violation", [],
                verify.check_confidentiality(honest, silent, trials, slices)))

    asked = 40
    suites = {"reference": property_results(asked)}
    peeking = CheckResult("selector-dependency-peeking", asked, ["case 0: trace changed"])
    short = {"reference": [replace(r, cases=r.cases - 1) if r.name == "wcet-bounds" else r
                           for r in suites["reference"]]}
    out.append(("properties: fewer cases than asked", "wcet-bounds ran 39 cases",
                verify.check_properties(suites, asked, peeking),
                verify.check_properties(short, asked, peeking)))

    out.append(("properties: peeking selector passes", "peeking selector passed", [],
                verify.check_properties(suites, asked, replace(peeking, failures=[]))))
    return out


def main() -> int:
    ok = True
    for name, expected, on_right, on_planted in cases():
        caught = [p for p in on_planted if expected in p]
        passed = bool(caught) and not on_right
        ok &= passed
        detail = on_right[0] if on_right else (caught[0] if caught else "not caught")
        print(f"{'ok' if passed else 'FAILED':6s} {name}: {detail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
