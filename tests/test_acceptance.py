"""Nine acceptance gates, one verdict line each.

Run order matters only for readability: the gates are independent.  Each test
prints a single "criterion N PASS/FAIL" line even under plain pytest -v, then
asserts.  The heavy gates (1 and 8) drive full 10,000-sample channel
measurements and dominate the suite's runtime; they carry the slow marker,
so pytest -m "not slow" skips them for a fast edit loop.
"""

import contextlib
import dataclasses
import io
import math
import random
import time

import pytest

from tpsim.channel import ChannelMatrix, mutual_information
from tpsim.checks import (
    _random_fuzz_input,
    _random_schedule,
    audit_records,
    check_access_cost_locality,
    check_offcore_flush_locality,
    check_oncore_flush_dependence,
    check_selector_dependency,
    check_wcet_bounds,
)
from tpsim.cli import main as cli_main
from tpsim.confidentiality import MUTATIONS, check_confidentiality
from tpsim.channel import prefetch_experiment
from tpsim.config import SYS_READ, Input
from tpsim.kernel import SystemRunner, partition_subset_invariant
from tpsim.microarch import flushable_reset


def _verdict(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def _attack_kv(cfg_path: str, protection: str, seed: int) -> tuple[dict, float]:
    """Run the attack subcommand, parse its key=value lines, return runtime."""
    buf = io.StringIO()
    t0 = time.monotonic()
    with contextlib.redirect_stdout(buf):
        code = cli_main([
            "attack", cfg_path, "--protection", protection,
            "--seed", str(seed), "--samples", "10000", "--no-timestamp",
        ])
    elapsed = time.monotonic() - t0
    assert code == 0
    kv = {}
    for line in buf.getvalue().splitlines():
        if "=" in line and " " not in line.split("=", 1)[0]:
            k, v = line.split("=", 1)
            kv[k] = v
    return kv, elapsed


@pytest.mark.slow
def test_criterion_1_capacity_separation(capsys, config_dir):
    cfg_path = str(config_dir / "reference.yaml")
    worst_off_margin = math.inf
    worst_on_excess = -math.inf
    slowest = 0.0
    ok = True
    for seed in (1, 2, 3, 4, 5):
        for protection in ("off", "on"):
            kv, elapsed = _attack_kv(cfg_path, protection, seed)
            slowest = max(slowest, elapsed)
            m = float(kv["M_bits"])
            ci_hi = float(kv["M0_ci_hi"])
            assert int(kv["samples_per_symbol"]) == 10000
            if elapsed >= 60.0:
                ok = False
            if protection == "off":
                worst_off_margin = min(worst_off_margin, m / (5 * ci_hi))
                if m < 5 * ci_hi:
                    ok = False
            else:
                worst_on_excess = max(worst_on_excess, m - ci_hi)
                if m > ci_hi:
                    ok = False
    _verdict(
        capsys, 1, ok,
        f"seeds 1..5, 2x10000 samples: off M >= 5*ci_hi "
        f"(min margin {worst_off_margin:.1f}x), on M <= ci_hi "
        f"(max excess {worst_on_excess:.2e}), slowest run {slowest:.1f}s < 60s",
    )


def test_criterion_2_mi_against_brute_force(capsys):
    def brute(counts):
        total = sum(map(sum, counts))
        px = [sum(r) / total for r in counts]
        py = [sum(c) / total for c in zip(*counts)]
        return sum(
            (c / total) * math.log2((c / total) / (px[x] * py[y]))
            for x, r in enumerate(counts) for y, c in enumerate(r) if c
        )

    rng = random.Random("criterion2")
    worst = 0.0
    for _ in range(100):
        rows = rng.randint(2, 4)
        cols = rng.randint(2, 8)
        per_row = rng.randint(5, 50)
        counts = []
        for _ in range(rows):
            cuts = sorted(rng.randint(0, per_row) for _ in range(cols - 1))
            counts.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [per_row])))
        m = ChannelMatrix(
            labels=tuple(str(i) for i in range(rows)),
            edges=tuple(range(cols + 1)),
            counts=tuple(counts),
        )
        worst = max(worst, abs(mutual_information(m) - brute(m.counts)))
    ident = mutual_information(ChannelMatrix(("0", "1"), (0, 1, 2), ((9, 0), (0, 9))))
    unif = mutual_information(ChannelMatrix(("0", "1"), (0, 1, 2), ((5, 5), (5, 5))))
    ok = worst < 1e-9 and ident == 1.0 and unif == 0.0
    _verdict(
        capsys, 2, ok,
        f"100 random matrices within 1e-9 of brute force (worst {worst:.2e}), "
        f"identity = {ident}, uniform = {unif}",
    )


def test_criterion_3_mutation_coverage(capsys, ref_cfg):
    t0 = time.monotonic()
    honest_violations = 0
    for seed in (1, 2, 3, 4, 5):
        rep = check_confidentiality(ref_cfg, observer=0, trials=200,
                                    seed=seed, variant="u-mu")
        honest_violations += len(rep.violations)
    caught = {}
    for mutation in MUTATIONS:
        for seed in (1, 2, 3, 4, 5):
            rep = check_confidentiality(ref_cfg, observer=0, trials=200,
                                        seed=seed, variant="u-mu",
                                        mutation=mutation)
            if rep.violations:
                caught[mutation] = seed
                break
    elapsed = time.monotonic() - t0
    ok = (honest_violations == 0 and len(caught) == len(MUTATIONS)
          and elapsed < 300.0)
    _verdict(
        capsys, 3, ok,
        f"honest u-mu clean over 200 trials x seeds 1..5 "
        f"({honest_violations} violations); all {len(caught)}/6 mutations "
        f"caught at seeds {sorted(set(caught.values()))}; {elapsed:.0f}s < 300s",
    )


def test_criterion_4_inline_invariant_and_witness(capsys, ref_cfg):
    checked = 0
    ok = True
    for seed in ("c4:a", "c4:b", "c4:c"):
        runner = SystemRunner(ref_cfg, seed=seed)
        records = list(runner.transitions())
        if runner.failures:
            ok = False
        for rec in records:
            if rec.kind == "switch":
                continue
            good, _ = partition_subset_invariant(
                rec.ta_after, rec.domain, ref_cfg.policy, ref_cfg.amap,
                ref_cfg.geometry,
            )
            checked += 1
            if not good or any(f.kind == "invariant" for f in rec.failures):
                ok = False

    planted = SystemRunner(ref_cfg, seed="c4:plant")
    rec = planted.step(Input(SYS_READ, obj="t_obj"))
    hits = [f for f in rec.failures if f.kind == "invariant"]
    witness_ok = bool(hits) and 0x21000 in hits[0].witnesses
    ok = ok and witness_ok
    _verdict(
        capsys, 4, ok,
        f"invariant held at all {checked} benign steps; planted cross-colour "
        f"access flagged with witness "
        f"{hits[0].witnesses if hits else 'NONE'}",
    )


def test_criterion_5_hardware_property_checks(capsys, ref_cfg):
    results = [
        check_access_cost_locality(ref_cfg, 1000, "c5"),
        check_offcore_flush_locality(ref_cfg, 1000, "c5"),
        check_oncore_flush_dependence(ref_cfg, 1000, "c5"),
        check_wcet_bounds(ref_cfg, 1000, "c5"),
    ]
    bad = [r for r in results if not r.ok]
    _verdict(
        capsys, 5, not bad,
        "access-cost locality, off-core flush locality, on-core flush "
        "dependence, WCET bounds: 1000 cases each, "
        + ("zero failures" if not bad else bad[0].format()),
    )


def test_criterion_6_selector_dependency(capsys, ref_cfg):
    honest = check_selector_dependency(ref_cfg, trials=1000, seed="c6")
    peeking = check_selector_dependency(ref_cfg, trials=1000, seed="c6",
                                        peeking=True)
    ok = honest.ok and not peeking.ok
    _verdict(
        capsys, 6, ok,
        f"1000 invisible perturbations left every trace unchanged; the "
        f"peeking selector failed {len(peeking.failures)}/1000 cases",
    )


def test_criterion_7_switch_postconditions(capsys, ref_cfg):
    runner = SystemRunner(ref_cfg, seed="c7")
    records = list(runner.transitions())
    reset = flushable_reset(ref_cfg.cost_model.flushable_words)
    g_idx = sorted(ref_cfg.policy.global_set_indices(ref_cfg.geometry))
    D = ref_cfg.policy.switch_deadline
    switches = 0
    ok = not runner.failures
    for rec in records:
        if rec.kind != "switch":
            continue
        switches += 1
        after = rec.s_mu_after
        if after.flushable != reset:
            ok = False
        for idx in g_idx:
            if not after.sets[idx].is_empty() or after.sets[idx].meta != 0:
                ok = False
        if after.clock != rec.s_mu_before.clock + D:
            ok = False

    squeezed = dataclasses.replace(
        ref_cfg, policy=dataclasses.replace(ref_cfg.policy, switch_deadline=8)
    )
    tight = SystemRunner(squeezed, seed="c7")
    for _ in tight.transitions(slices=2):
        pass
    padded_out = any(f.kind == "pad-violation" for f in tight.failures)
    ok = ok and switches == ref_cfg.scenario.slices and padded_out
    _verdict(
        capsys, 7, ok,
        f"all {switches} switches end reset/scrubbed exactly on "
        f"deadline +{D}; an 8-cycle deadline raises pad-violation",
    )


@pytest.mark.slow
def test_criterion_8_prefetch_versus_flush(capsys, adv_cfg):
    worst_gap = math.inf
    ok = True
    for seed in (1, 2, 3):
        rep = prefetch_experiment(adv_cfg, seed=seed, samples_per_symbol=10000)
        ci_hi = rep.prefetch.M0_ci95[1]
        worst_gap = min(worst_gap, rep.M_prefetch - ci_hi)
        if not (rep.prefetch.channel_open and not rep.flush.channel_open):
            ok = False
    _verdict(
        capsys, 8, ok,
        f"adversarial replacement, seeds 1..3, 10000 samples: prefetch stays "
        f"open (min M - ci_hi gap {worst_gap:.3f} bits) while the targeted "
        f"flush closes it",
    )


def test_criterion_9_touched_set_fuzz(capsys, ref_cfg):
    runs = 10000
    records_audited = 0
    raw_accesses = 0
    problems = []
    ok = True
    for t in range(runs):
        rng = random.Random(f"c9:{t}")
        schedule = _random_schedule(ref_cfg, 4, rng, _random_fuzz_input, 3)
        runner = SystemRunner(ref_cfg, f"c9:{t}")
        records = list(runner.transitions(slices=4, schedule=schedule))
        found = audit_records(ref_cfg, records)
        if found:
            problems.extend(found[:2])
            ok = False
        records_audited += len(records)
        for rec in records:
            if rec.input is None or rec.input.kind != "raw_access":
                continue
            raw_accesses += 1
            v = rec.input.vaddr
            tracked = (v - v % ref_cfg.amap.page_size) in rec.ta_before
            flagged = any(f.kind == "ta-violation" for f in rec.failures)
            if not (tracked or flagged):
                ok = False
                problems.append(f"raw access {v:#x} escaped tracking")
    _verdict(
        capsys, 9, ok,
        f"{runs} fuzzed runs, {records_audited} records audited for "
        f"adherence, {raw_accesses} raw accesses all tracked or flagged"
        + ("" if ok else f"; first problem: {problems[0]}"),
    )
