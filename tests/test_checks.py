"""The property and invariant check suites, plus their own failure modes."""

import dataclasses
import random

import pytest

from tpsim import checks, microarch
from tpsim.checks import (
    CheckResult,
    INVARIANT_CHECKS,
    PROPERTY_CHECKS,
    SUITES,
    audit_records,
    check_run_invariants,
    check_selector_dependency,
    check_ta_adherence,
    run_suite,
)
from tpsim.core import ConfigError, set_index_of, universe_lines
from tpsim.kernel import PREFETCH_MECHANISM, Failure, RunOptions, SystemRunner, run_system
from tpsim.microarch import (
    CacheSet,
    MicroArchState,
    OffCoreFlush,
    OnCoreFlush,
    PadTo,
    Read,
    Write,
)


def test_property_suite_passes_on_both_configs(ref_cfg, adv_cfg):
    for cfg in (ref_cfg, adv_cfg):
        results = run_suite(cfg, "properties", trials=150, seed="suite")
        assert [r.name for r in results] == list(PROPERTY_CHECKS)
        for r in results:
            assert r.ok, r.format()
            assert r.cases == 150
            assert r.format().startswith("PASS")


def test_invariant_suite_passes(ref_cfg):
    results = run_suite(ref_cfg, "invariants", trials=100, seed="inv")
    assert [r.name for r in results] == list(INVARIANT_CHECKS)
    for r in results:
        assert r.ok, r.format()
        assert r.cases == 5   # whole runs are budgeted at trials // 20


def test_all_suite_is_both(ref_cfg):
    results = run_suite(ref_cfg, "all", trials=40, seed="all")
    assert [r.name for r in results] == list(PROPERTY_CHECKS + INVARIANT_CHECKS)
    with pytest.raises(ConfigError, match="unknown suite"):
        run_suite(ref_cfg, "vibes", trials=1, seed=0)
    assert set(SUITES) == {"properties", "invariants", "all"}


@pytest.mark.parametrize("cfg_name", ["ref_cfg", "adv_cfg"])
def test_run_suite_is_the_same_for_any_jobs(request, cfg_name):
    cfg = request.getfixturevalue(cfg_name)
    for suite in SUITES:
        assert run_suite(cfg, suite, 40, "jobs", jobs=2) == run_suite(cfg, suite, 40, "jobs")


def test_peeking_selector_fails_the_dependency_check(ref_cfg):
    honest = check_selector_dependency(ref_cfg, trials=100, seed="peek")
    assert honest.ok
    peeking = check_selector_dependency(ref_cfg, trials=100, seed="peek",
                                        peeking=True)
    # The exact list, so that states drawn from another stream show here too.
    assert peeking.failures == [
        f"case {t}: trace changed under an invisible perturbation" for t in range(100)
    ]
    assert peeking.format().startswith("FAIL")


# --- the random state stream --------------------------------------------------
# checks draws its states through rng.getrandbits alone.  These are the
# randint/sample/shuffle originals it must match word for word, so that every
# seeded check result stays what it was.

def _reference_pools(cfg):
    pools = {i: [] for i in range(cfg.geometry.num_sets)}
    for line in sorted(universe_lines(cfg.universe_pages, cfg.geometry)):
        pools[set_index_of(line, cfg.geometry)].append(line)
    return pools


def _reference_set(rng, g, cm, pool, adversarial):
    n = rng.randint(0, g.num_ways)
    lines = rng.sample(pool, min(n, len(pool)))
    ways = [(g.line_of(p), rng.randint(1, cm.max_level)) for p in lines]
    ways += [None] * (g.num_ways - len(ways))
    rng.shuffle(ways)
    if adversarial:
        meta = rng.getrandbits(64)
    else:
        meta = rng.getrandbits(max(g.num_ways - 1, 1))
    return CacheSet(ways=tuple(ways), meta=meta)


def _reference_state(rng, cfg, pools):
    g, cm = cfg.geometry, cfg.cost_model
    adversarial = cfg.policy.replacement == "adversarial"
    sets = tuple(
        _reference_set(rng, g, cm, pools[i], adversarial) for i in range(g.num_sets)
    )
    flushable = tuple(rng.getrandbits(64) for _ in range(cm.flushable_words))
    return MicroArchState(flushable=flushable, sets=sets,
                          clock=rng.randrange(1 << 20))


def _reference_reroll(rng, cfg, pools, state, j):
    adversarial = cfg.policy.replacement == "adversarial"
    fresh = _reference_set(rng, cfg.geometry, cfg.cost_model, pools[j], adversarial)
    return state._replace(sets=state.sets[:j] + (fresh,) + state.sets[j + 1:])


def _four_way_config(cfg):
    """4 ways, 3 cachedness levels, and per colour 30, 10, 0 and 1 pages: pools
    too large for Random.sample's list branch, pools within it, empty pools,
    and shuffles of several swaps."""
    pages = [p * 1024 for p in range(120) if p % 4 == 0]
    pages += [p * 1024 for p in range(40) if p % 4 == 1] + [3 * 1024]
    return dataclasses.replace(
        cfg,
        geometry=dataclasses.replace(cfg.geometry, num_ways=4),
        cost_model=dataclasses.replace(cfg.cost_model, hit_cost=(2, 4, 6)),
        universe_pages=frozenset(pages),
    )


@pytest.mark.parametrize("replacement", ["plru", "adversarial"])
@pytest.mark.parametrize("shape", ["ref_cfg", "adv_cfg", "four-way"])
def test_random_states_draw_the_reference_stream(request, ref_cfg, shape, replacement):
    cfg = _four_way_config(ref_cfg) if shape == "four-way" else request.getfixturevalue(shape)
    cfg = dataclasses.replace(
        cfg, policy=dataclasses.replace(cfg.policy, replacement=replacement))
    pools, plan = _reference_pools(cfg), checks._state_plan(cfg)
    if shape == "four-way":
        assert {len(p) for p in pools.values()} == {30, 10, 0, 1}
    for seed in range(50):
        want, got = random.Random(seed), random.Random(seed)
        for _ in range(5):
            state = _reference_state(want, cfg, pools)
            assert checks._random_state(got, cfg, plan) == state, seed
            j = want.randrange(cfg.geometry.num_sets)
            assert got.randrange(cfg.geometry.num_sets) == j
            assert (checks._reroll_set(got, cfg, plan, state, j)
                    == _reference_reroll(want, cfg, pools, state, j)), seed
        assert got.getrandbits(64) == want.getrandbits(64), seed


def test_audit_flags_doctored_records(ref_cfg):
    res = run_system(ref_cfg, seed="audit", slices=2)
    assert audit_records(ref_cfg, res.records) == []
    # clone a switch record with a clock moved off the deadline
    import dataclasses
    from tpsim.microarch import MicroArchState
    doctored = []
    for rec in res.records:
        if rec.kind == "switch":
            mu = rec.s_mu_after
            bad = MicroArchState(mu.flushable, mu.sets, mu.clock + 1)
            rec = dataclasses.replace(rec, s_mu_after=bad)
        doctored.append(rec)
    problems = audit_records(ref_cfg, doctored)
    assert any("clock" in p for p in problems)


def test_audit_catches_skipped_mechanism(ref_cfg):
    opts = RunOptions(mechanism=(OnCoreFlush, PadTo), collect=True)
    res = run_system(ref_cfg, seed="skip", slices=2, options=opts)
    problems = audit_records(ref_cfg, res.records)
    assert any("not scrubbed" in p for p in problems)


def test_audit_of_a_prefetch_run_reports_only_the_unscrubbed_globals(ref_cfg):
    opts = RunOptions(mechanism=PREFETCH_MECHANISM, collect=True)
    res = run_system(ref_cfg, seed=1, slices=2, options=opts)
    problems = audit_records(ref_cfg, res.records)
    assert problems
    assert all("not scrubbed" in p for p in problems), problems


def test_fuzz_and_benign_runners_directly(ref_cfg):
    ok = check_run_invariants(ref_cfg, trials=3, seed="direct")
    assert ok.ok and ok.cases == 3
    fuzz = check_ta_adherence(ref_cfg, trials=3, seed="direct")
    assert fuzz.ok, fuzz.format()


def test_run_invariants_reports_a_failure_by_kind_and_lets_a_defect_raise(ref_cfg, monkeypatch):
    """A model failure on a benign run is a failed case that names its kind;
    an exception from the code is a defect, and propagates."""
    real = SystemRunner.domain_switch

    def planted(self, tick):
        rec = real(self, tick)
        rec.failures += (Failure("planted", f"switch in slice {rec.slice_index}"),)
        return rec

    monkeypatch.setattr(SystemRunner, "domain_switch", planted)
    res = check_run_invariants(ref_cfg, trials=2, seed="plant")
    assert len(res.failures) == 2
    for t, msg in enumerate(res.failures):
        assert msg.startswith(f"case {t}: failures on a benign run: [Failure(kind='planted', "
                              f"detail='switch in slice 0'"), msg

    def broken(self, tick):
        raise TypeError("a defect, not a failed check")

    monkeypatch.setattr(SystemRunner, "domain_switch", broken)
    with pytest.raises(TypeError, match="a defect"):
        check_run_invariants(ref_cfg, trials=1, seed="plant")


def test_check_result_formatting():
    r = CheckResult("demo", 10)
    assert r.ok and r.format() == "PASS demo (10 cases)"
    for i in range(7):
        r.fail(i, f"boom {i}")
    text = r.format()
    assert text.startswith("FAIL demo (7/10 cases)")
    assert text.count("\n") == 5   # only the first five are printed


# --- negative controls: each hardware locality check can report FAIL ----------

def _unrelated(state):
    """A cost term that every cache set feeds, related to the op or not."""
    return sum(len(s.resident()) for s in state.sets)


def _assert_fails_on_cost(result):
    assert not result.ok and result.format().startswith("FAIL")
    assert "cost" in result.failures[0], result.failures[0]


def test_access_cost_locality_catches_a_cost_from_an_unrelated_set(ref_cfg, monkeypatch):
    real = checks.apply_op

    def leaky(state, op, *rest):
        out = real(state, op, *rest)
        if isinstance(op, (Read, Write)):
            out = out._replace(clock=out.clock + _unrelated(state))
        return out

    monkeypatch.setattr(checks, "apply_op", leaky)
    _assert_fails_on_cost(checks.check_access_cost_locality(ref_cfg, 50, "neg"))


def test_offcore_flush_locality_catches_a_cost_from_a_non_target_set(ref_cfg, monkeypatch):
    real = microarch.offcore_flush_cost
    monkeypatch.setattr(microarch, "offcore_flush_cost",
                        lambda state, *rest: real(state, *rest) + _unrelated(state))
    _assert_fails_on_cost(checks.check_offcore_flush_locality(ref_cfg, 50, "neg"))


def test_oncore_flush_dependence_catches_a_cost_from_the_cache_sets(ref_cfg, monkeypatch):
    real = microarch.oncore_flush_cost
    monkeypatch.setattr(microarch, "oncore_flush_cost",
                        lambda state, cm: real(state, cm) + _unrelated(state))
    _assert_fails_on_cost(checks.check_oncore_flush_dependence(ref_cfg, 50, "neg"))


# --- negative controls: a flush that writes a part it may not touch -----------

def _scrubbing_set_0(monkeypatch, op_class):
    """Make every op_class also empty cache set 0, whatever it targets."""
    real = checks.apply_op

    def overreaching(state, op, *rest):
        out = real(state, op, *rest)
        if isinstance(op, op_class):
            empty = CacheSet(ways=(None,) * len(out.sets[0].ways), meta=0)
            out = out._replace(sets=(empty,) + out.sets[1:])
        return out

    monkeypatch.setattr(checks, "apply_op", overreaching)


def _assert_fails_on_a_write(result):
    assert not result.ok and result.format().startswith("FAIL")
    msg = result.failures[0]
    assert "set" in msg and "cost" not in msg, msg


def test_offcore_flush_locality_catches_a_scrub_of_a_non_target_set(ref_cfg, monkeypatch):
    _scrubbing_set_0(monkeypatch, OffCoreFlush)
    _assert_fails_on_a_write(checks.check_offcore_flush_locality(ref_cfg, 50, "neg"))


def test_oncore_flush_dependence_catches_a_scrub_of_a_cache_set(ref_cfg, monkeypatch):
    _scrubbing_set_0(monkeypatch, OnCoreFlush)
    _assert_fails_on_a_write(checks.check_oncore_flush_dependence(ref_cfg, 50, "neg"))
