"""Two-run checking: honest systems pass, every planted defect is caught."""

import dataclasses
import multiprocessing
import random

import pytest

from tpsim.confidentiality import (
    MUTATIONS,
    apply_mutation,
    build_schedule,
    check_confidentiality,
    low_equiv,
    observer_view,
)
from tpsim.core import ConfigError
from tpsim.config import USER_WRITE, Input
from tpsim.kernel import RunOptions, SystemRunner
from tpsim.selector import perturb_invisible

# The expected first-divergence site for each planted defect.  no-pad shows
# up in the clock; the missing on-core flush in the flushable words; the
# missing global flush and the overlapped colouring in a visible cache set;
# the abstract leak in a payload; the peeking selector wherever the divergent
# trace first lands.
WITNESS_FIELD = {
    "no-oncore-flush": ("micro.flushable",),
    "no-offcore-global-flush": ("micro.sets",),
    "no-pad": ("micro.clock",),
    "bad-colouring": ("micro.sets",),
    "ta-leak": ("objects",),
    "selector-peek": ("micro.sets", "micro.flushable", "micro.clock"),
}


def test_mutation_list_is_stable():
    assert len(MUTATIONS) == 6


def test_honest_system_has_no_violations(ref_cfg):
    for variant in ("u", "u-mu"):
        rep = check_confidentiality(ref_cfg, observer=0, trials=25,
                                    seed="honest", variant=variant)
        assert rep.violations == [], rep.format()
        assert rep.hypothesis_ok
        assert rep.transitions > 0
        assert rep.mutation == "none"


def test_honest_system_passes_for_the_other_observer(ref_cfg):
    rep = check_confidentiality(ref_cfg, observer=1, trials=15, seed="obs1", variant="u-mu")
    assert rep.violations == [] and rep.hypothesis_ok


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_each_mutation_is_caught(ref_cfg, mutation):
    rep = check_confidentiality(ref_cfg, observer=0, trials=200,
                                seed=1, variant="u-mu", mutation=mutation)
    assert rep.violations, f"{mutation} escaped {rep.trials} trials"
    w = rep.first_witness
    assert any(w.field.startswith(p) for p in WITNESS_FIELD[mutation]), \
        f"{mutation} first diverged at {w.field}"
    assert mutation in rep.format()


def test_abstract_leak_is_visible_to_the_u_variant(ref_cfg):
    rep = check_confidentiality(ref_cfg, observer=0, trials=200,
                                seed=2, variant="u", mutation="ta-leak")
    assert rep.violations
    assert rep.first_witness.field.startswith("objects")


def test_microarch_defects_are_invisible_to_the_u_variant(ref_cfg):
    # Dropping the pad distorts timing, which the abstract view cannot see.
    rep = check_confidentiality(ref_cfg, observer=0, trials=40,
                                seed=3, variant="u", mutation="no-pad")
    assert rep.violations == []
    assert not rep.hypothesis_ok   # but the tampered mechanism is reported


def test_tampered_mechanism_is_flagged_in_hypothesis(ref_cfg):
    rep = check_confidentiality(ref_cfg, observer=0, trials=5,
                                seed=4, variant="u-mu", mutation="no-pad")
    assert not rep.hypothesis_ok
    assert any("mechanism trace" in n for n in rep.hypothesis_notes)
    assert "NOT SATISFIED" in rep.format()


def test_hypothesis_notes_come_from_one_trial(ref_cfg):
    """The search for a violation goes on past the first breach of the
    hypothesis, but only that trial's notes are reported."""
    rep = check_confidentiality(ref_cfg, observer=0, trials=20, seed=1,
                                variant="u", mutation="no-pad")
    assert rep.violations == [] and not rep.hypothesis_ok
    assert 0 < len(rep.hypothesis_notes) <= 6, rep.hypothesis_notes
    assert {n.split(" run ")[0] for n in rep.hypothesis_notes} == {"trial 0"}
    assert rep.transitions > 19 * ref_cfg.scenario.slices     # all 20 trials compared


def test_unknown_mutation_variant_observer_and_trials(ref_cfg):
    with pytest.raises(ConfigError, match="unknown mutation"):
        apply_mutation(ref_cfg, RunOptions(), "rowhammer", observer=0)
    with pytest.raises(ConfigError, match="variant"):
        check_confidentiality(ref_cfg, 0, 1, 0, variant="mu")
    with pytest.raises(ConfigError, match="observer"):
        check_confidentiality(ref_cfg, 9, 1, 0)
    with pytest.raises(ConfigError, match="trials"):
        check_confidentiality(ref_cfg, 0, 0, 0)


def test_single_domain_is_vacuous(ref_cfg):
    solo_policy = dataclasses.replace(
        ref_cfg.policy, domains=ref_cfg.policy.domains[:1]
    )
    objects = [o for o in ref_cfg.scenario.objects if o.owner == 0]
    scen = dataclasses.replace(ref_cfg.scenario, objects=objects)
    solo = dataclasses.replace(ref_cfg, policy=solo_policy, scenario=scen)
    rep = check_confidentiality(solo, observer=0, trials=10, seed=5)
    assert rep.violations == [] and rep.transitions == 0
    assert any("vacuous" in n for n in rep.notes)


def test_schedule_pairing_rule(ref_cfg):
    a = build_schedule(ref_cfg, observer=0, trial_key="k", run_tag="A")
    b = build_schedule(ref_cfg, observer=0, trial_key="k", run_tag="B")
    # observer inputs identical, shapes identical everywhere
    assert a[0] == b[0]
    assert [[i.kind for i in batch] for batch in a[1]] \
        == [[i.kind for i in batch] for batch in b[1]]
    # the other domain's chosen values differ somewhere across the run
    assert a[1] != b[1]
    # and the whole construction is deterministic in the trial key
    assert a == build_schedule(ref_cfg, observer=0, trial_key="k", run_tag="A")


def test_low_equiv_and_observer_view(ref_cfg):
    g = ref_cfg.geometry
    rng = random.Random("le")
    r1 = SystemRunner(ref_cfg, seed="le1")
    r2 = SystemRunner(ref_cfg, seed="le1")
    for r in (r1, r2):
        r.step(Input(USER_WRITE, obj="s_buf", offset=3, byte=7))
    ok, diff = low_equiv(r1.abstract, r2.abstract, r1.micro, r2.micro,
                         0, ref_cfg.policy, g)
    assert ok and diff is None

    # hidden-set perturbation is invisible to the executing observer
    lines = sorted(
        p + off
        for p in ref_cfg.universe_pages
        for off in range(0, g.page_size, g.line_size)
    )
    mu2 = perturb_invisible(r2.micro, 0, ref_cfg.policy, g, lines, seed=9)
    ok, _ = low_equiv(r1.abstract, r2.abstract, r1.micro, mu2,
                      0, ref_cfg.policy, g)
    assert ok

    # the same two micro states differ for observer 1, whose sets they are
    ok, diff = low_equiv(r1.abstract, r2.abstract, r1.micro, mu2,
                         1, ref_cfg.policy, g)
    assert not ok and diff.startswith("micro.sets")

    # abstract difference: payload byte
    r2.abstract.objects["s_buf"].payload[3] = 99
    ok, diff = low_equiv(r1.abstract, r2.abstract, r1.micro, r2.micro,
                         0, ref_cfg.policy, g)
    assert not ok and diff == "objects[s_buf].payload"

    v = observer_view(r1.abstract, r1.micro, 0, ref_cfg.policy, g)
    assert v.role == "executing" and v.ta == frozenset({0x10000, 0x10400})
    suspended = observer_view(r1.abstract, r1.micro, 1, ref_cfg.policy, g)
    assert suspended.role == "suspended" and suspended.ta is None
    assert suspended.micro.flushable is None


def test_starved_runs_are_no_clean_verdict(ref_cfg):
    """No input fits a 500-cycle slice, so nothing is compared: the checker
    must say that rather than report the property as holding."""
    short = dataclasses.replace(
        ref_cfg, policy=dataclasses.replace(ref_cfg.policy, slice_length=500)
    )
    for mutation in (None, "ta-leak", "selector-peek"):
        rep = check_confidentiality(short, observer=0, trials=5, seed=1, mutation=mutation)
        assert not rep.hypothesis_ok, mutation
        assert any("starved: domain" in n for n in rep.hypothesis_notes), rep.format()
        assert "NOT SATISFIED" in rep.format()


def test_an_aborting_run_notes_its_failing_record_first(ref_cfg):
    """A strict run that aborts at a switch: the checker still sees that
    switch's record, and notes its failures, before the abort."""
    squeezed = dataclasses.replace(
        ref_cfg, policy=dataclasses.replace(ref_cfg.policy, switch_deadline=8)
    )
    rep = check_confidentiality(squeezed, 0, 5, 1)
    pad = "pad-violation: switch work ran past the deadline (clock 8376, deadline 8200)"
    assert rep.hypothesis_notes == [
        f"trial 0 run A aborted: {pad}",
        f"trial 0 run A: switch slice 0: {pad}",
        "trial 0 run A: switch slice 0: switch-postcondition: "
        "clock 8376 does not sit on the deadline 8200",
        "trial 0 run A: switch slice 0: mechanism trace is "
        "['OffCoreFlush', 'OnCoreFlush'], not the exact flush/flush/pad sequence",
    ]
    assert rep.transitions == 0 and not rep.violations


@pytest.mark.parametrize("variant,mutation,policy_change", [
    pytest.param("u", None, {}, id="honest-u"),
    pytest.param("u-mu", None, {}, id="honest-u-mu"),
    *(pytest.param("u-mu", m, {}, id=m) for m in MUTATIONS),
    # Notes from trial 0, and no violation in any trial.
    pytest.param("u", "no-pad", {}, id="no-pad-u"),
    pytest.param("u-mu", None, {"switch_deadline": 8}, id="aborting"),
])
def test_report_is_the_same_for_any_jobs(ref_cfg, variant, mutation, policy_change):
    cfg = dataclasses.replace(ref_cfg, policy=dataclasses.replace(ref_cfg.policy, **policy_change))
    trials = 200 if mutation and variant == "u-mu" else 12
    serial, parallel = (
        check_confidentiality(cfg, 0, trials, 1, variant=variant, mutation=mutation, jobs=jobs)
        for jobs in (1, 2)
    )
    for f in dataclasses.fields(serial):
        assert getattr(parallel, f.name) == getattr(serial, f.name), f.name
    if policy_change:
        assert serial.hypothesis_notes and "aborted" in serial.hypothesis_notes[0]


def test_a_search_that_stops_early_leaves_no_worker(ref_cfg):
    rep = check_confidentiality(ref_cfg, 0, 200, 1, mutation="no-offcore-global-flush", jobs=2)
    assert rep.first_witness.trial == 15
    assert multiprocessing.active_children() == []
