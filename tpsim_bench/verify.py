"""Correctness checks on the outputs of the benchmark's workloads.

Each function takes the reports tpsim returned and gives back a list of
problems; an empty list means the outputs are right.  The checks compare
against computations made here, apart from tpsim (mutual information by
brute force from the entropy identity), or against properties the method
must have (equal rows when nondeterminism is keyed on the sample, a checker
that still says no to a planted defect).  None of them compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

import math

MI_TOLERANCE = 1e-9

# A channel counts as open when M lies above the upper end of M0's 95%
# interval.  The unprotected channel must be open by a wide margin.
OFF_MARGIN = 5.0

OPEN_MODES = ("off", "prefetch")
CLOSED_MODES = ("on", "targeted-flush")

MUTATIONS = (
    "no-oncore-flush",
    "no-offcore-global-flush",
    "no-pad",
    "bad-colouring",
    "ta-leak",
    "selector-peek",
)

# The eight checks of run_suite(cfg, "all", ...), in the order it runs them.
POINTWISE_CHECKS = (
    "access-cost-locality",
    "offcore-flush-locality",
    "oncore-flush-dependence",
    "wcet-bounds",
    "replacement-sanity",
    "selector-dependency",
)
WHOLE_RUN_CHECKS = ("run-invariants", "ta-adherence")


def _entropy(counts: list[int], total: int) -> float:
    return -sum((c / total) * math.log2(c / total) for c in counts if c)


def brute_force_mi(rows: tuple[tuple[int, ...], ...]) -> float:
    """I(X;Y) = H(X) + H(Y) - H(X,Y) of the empirical joint, in bits."""
    total = sum(sum(row) for row in rows)
    h_x = _entropy([sum(row) for row in rows], total)
    h_y = _entropy([sum(col) for col in zip(*rows)], total)
    h_xy = _entropy([c for row in rows for c in row], total)
    return h_x + h_y - h_xy


def check_capacity(reports: dict, samples: int) -> list[str]:
    """reports maps a protection mode to the CapacityReport measured for it."""
    problems = []
    for mode, rep in reports.items():
        rows = rep.matrix.counts
        if any(sum(row) != samples for row in rows):
            problems.append(f"{mode}: row sums {[sum(r) for r in rows]}, "
                            f"asked for {samples} samples per symbol")
        mi = brute_force_mi(rows)
        if abs(mi - rep.M_bits) > MI_TOLERANCE:
            problems.append(f"{mode}: reported M {rep.M_bits!r}, brute force {mi!r}")
        hi = rep.M0_ci95[1]
        if mode in OPEN_MODES and not rep.M_bits > hi:
            problems.append(f"{mode}: channel should be open, M {rep.M_bits} <= M0 hi {hi}")
        if mode == "off" and not rep.M_bits >= OFF_MARGIN * hi:
            problems.append(f"off: M {rep.M_bits} below {OFF_MARGIN} x M0 hi {hi}")
        if mode in CLOSED_MODES:
            if len(set(rows)) != 1:
                problems.append(f"{mode}: symbol rows differ though the protection "
                                "removes the medium")
            if rep.M_bits != 0.0:
                problems.append(f"{mode}: M is {rep.M_bits!r}, not exactly 0.0")
    return problems


def check_confidentiality(honest, mutated: dict, trials: int, slices: int) -> list[str]:
    """honest is the report of the unmutated kernel, or None when that
    operation failed; mutated maps each mutation run to its report."""
    problems = []
    for name, rep in mutated.items():
        if not rep.violations:
            problems.append(f"mutation {name}: no violation found")
    if honest is None:
        return problems
    if honest.violations:
        problems.append(f"honest run: {len(honest.violations)} violations, first "
                        f"{honest.violations[0]}")
    if not honest.hypothesis_ok:
        problems.append("honest run: hypothesis not satisfied: "
                        + "; ".join(honest.hypothesis_notes[:2]))
    if honest.transitions < trials * slices:
        problems.append(f"honest run compared {honest.transitions} transitions, "
                        f"fewer than {trials} trials x {slices} slices")
    return problems


def expected_cases(check: str, asked: int) -> int:
    """Cases run_suite runs for a check when asked for `asked`: whole-run
    audits cost more per case, so they get a twentieth, at least one."""
    return max(1, asked // 20) if check in WHOLE_RUN_CHECKS else asked


def check_properties(suites: dict, asked: int, peeking) -> list[str]:
    """suites maps a config name to the CheckResults of run_suite "all";
    peeking is the dependency check run with the peeking selector, or None
    when that operation failed."""
    problems = []
    for cfg_name, results in suites.items():
        names = tuple(r.name for r in results)
        if names != POINTWISE_CHECKS + WHOLE_RUN_CHECKS:
            problems.append(f"{cfg_name}: ran checks {names}")
        for r in results:
            want = expected_cases(r.name, asked)
            if r.cases != want:
                problems.append(f"{cfg_name}: {r.name} ran {r.cases} cases, asked for {want}")
            if r.failures:
                problems.append(f"{cfg_name}: {r.name} failed: {r.failures[0]}")
    if peeking is None:
        return problems
    if peeking.cases != asked:
        problems.append(f"peeking selector: ran {peeking.cases} cases, asked for {asked}")
    if not peeking.failures:
        problems.append("peeking selector passed the dependency check")
    return problems
