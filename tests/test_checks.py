"""The property and invariant check suites, plus their own failure modes."""

import collections
import dataclasses
import itertools
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
from tpsim.config import PREFETCH_MECHANISM
from tpsim.core import ConfigError, set_index_of, universe_lines
from tpsim.kernel import Failure, RunOptions, SystemRunner
from tpsim.microarch import (
    CacheSet,
    MicroArchState,
    OffCoreFlush,
    OnCoreFlush,
    PadTo,
    Read,
    Write,
    visible_set_indices,
)
from tpsim.selector import perturb_invisible


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


# --- random states -------------------------------------------------------------
# checks draws each state from one rng.getrandbits through selector.draw_sets.
# These tests pin what a drawn set may hold and how often, not the stream.

def _four_way_config(cfg):
    """4 ways, 3 cachedness levels, and per colour 30, 10, 0 and 1 pages: pools
    of 30, 10, 0 and 1 lines in each set, far more outcomes than a memo keeps."""
    pages = [p * 1024 for p in range(120) if p % 4 == 0]
    pages += [p * 1024 for p in range(40) if p % 4 == 1] + [3 * 1024]
    return dataclasses.replace(
        cfg,
        geometry=dataclasses.replace(cfg.geometry, num_ways=4),
        cost_model=dataclasses.replace(cfg.cost_model, hit_cost=(2, 4, 6)),
        universe_pages=frozenset(pages),
    )


SHAPES = [(shape, replacement) for shape in ("ref_cfg", "adv_cfg", "four-way")
          for replacement in ("plru", "adversarial")]


def _shaped(request, ref_cfg, shape, replacement):
    cfg = _four_way_config(ref_cfg) if shape == "four-way" else request.getfixturevalue(shape)
    return dataclasses.replace(cfg, policy=dataclasses.replace(cfg.policy, replacement=replacement))


def _pools(cfg):
    """Each set's lines in the config's universe."""
    pools = {i: set() for i in range(cfg.geometry.num_sets)}
    for line in universe_lines(cfg.universe_pages, cfg.geometry):
        pools[set_index_of(line, cfg.geometry)].add(line)
    return pools


def _meta_bits(cfg):
    return 64 if cfg.policy.replacement == "adversarial" else max(cfg.geometry.num_ways - 1, 1)


def _drawn_sets(cfg, draws, seed):
    """(set index, set) for every set the three drawing functions draw: the
    sets of draws random states, one re-rolled set of each, and the hidden sets
    of a perturbation of each for every observer.  Asserts on the way that
    each leaves all else as it was."""
    g, plan = cfg.geometry, checks._state_plan(cfg)
    rng = random.Random(seed)
    lines = sorted(universe_lines(cfg.universe_pages, g))
    for t in range(draws):
        s = checks._random_state(rng, cfg, plan)
        assert len(s.flushable) == cfg.cost_model.flushable_words
        assert all(0 <= w < 1 << 64 for w in s.flushable) and 0 <= s.clock < 1 << 20
        yield from enumerate(s.sets)
        j = rng.randrange(g.num_sets)
        r = checks._reroll_set(rng, plan, s, j)
        assert (r.flushable, r.clock) == (s.flushable, s.clock)
        assert all(a is b for i, (a, b) in enumerate(zip(r.sets, s.sets)) if i != j)
        yield j, r.sets[j]
        for observer in cfg.policy.domain_ids():
            p = perturb_invisible(s, observer, cfg.policy, g, lines, f"{seed}:{t}",
                                  max_level=cfg.cost_model.max_level)
            visible = visible_set_indices(observer, cfg.policy, g, "executing")
            assert (p.flushable, p.clock) == (s.flushable, s.clock)
            assert all(p.sets[i] is s.sets[i] for i in visible)
            yield from ((i, cs) for i, cs in enumerate(p.sets) if i not in visible)


@pytest.mark.parametrize("shape, replacement", SHAPES)
def test_random_sets_hold_distinct_lines_of_their_own_pool(request, ref_cfg, shape, replacement):
    cfg = _shaped(request, ref_cfg, shape, replacement)
    g, pools, bits = cfg.geometry, _pools(cfg), _meta_bits(cfg)
    metas_or, metas_and = 0, (1 << bits) - 1
    for i, cs in _drawn_sets(cfg, 150, f"fit:{shape}"):
        assert len(cs.ways) == g.num_ways
        tags = [e[0] for e in cs.ways if e is not None]
        assert len(set(tags)) == len(tags) <= len(pools[i]), (i, cs)
        assert set(tags) <= pools[i], (i, cs)
        assert all(1 <= e[1] <= cfg.cost_model.max_level for e in cs.ways if e is not None), cs
        assert 0 <= cs.meta < 1 << bits
        metas_or, metas_and = metas_or | cs.meta, metas_and & cs.meta
    assert (metas_or, metas_and) == ((1 << bits) - 1, 0)     # every metadata bit varies


def _all_ways(tags, ways, levels):
    """Every ways tuple of distinct tags, at any levels, in any ways."""
    out = set()
    for k in range(min(ways, len(tags)) + 1):
        for where in itertools.combinations(range(ways), k):
            for chosen in itertools.permutations(sorted(tags), k):
                for lv in itertools.product(range(1, levels + 1), repeat=k):
                    w = [None] * ways
                    for at, tag, level in zip(where, chosen, lv):
                        w[at] = (tag, level)
                    out.add(tuple(w))
    return out


@pytest.mark.parametrize("shape, replacement", SHAPES)
def test_random_sets_are_uniform_in_size_and_cover_small_pools(request, ref_cfg, shape,
                                                                replacement):
    """The number of lines asked for is uniform over 0..num_ways: a set whose
    pool has at least num_ways lines holds each count 1/(num_ways + 1) of the
    time.  A pool of 2 or 3 lines shows every set it can make."""
    cfg = _shaped(request, ref_cfg, shape, replacement)
    g, pools = cfg.geometry, _pools(cfg)
    sizes, seen = collections.Counter(), collections.defaultdict(set)
    for i, cs in _drawn_sets(cfg, 1000, f"uniform:{shape}"):
        if len(pools[i]) >= g.num_ways:
            sizes[sum(e is not None for e in cs.ways)] += 1
        if len(pools[i]) in (2, 3):
            seen[i].add(cs.ways)
    total = sum(sizes.values())
    assert total >= 3000 and sorted(sizes) == list(range(g.num_ways + 1))
    assert all(1 / 6 < n / total < 1 / 2 for n in sizes.values()), sizes
    assert seen or shape == "four-way"
    for i, ways in seen.items():
        assert ways == _all_ways(pools[i], g.num_ways, cfg.cost_model.max_level), i


@pytest.mark.parametrize("shape, replacement", SHAPES)
def test_random_sets_repeat_with_the_seed(request, ref_cfg, shape, replacement):
    cfg = _shaped(request, ref_cfg, shape, replacement)
    first = list(_drawn_sets(cfg, 20, "again"))
    assert list(_drawn_sets(cfg, 20, "again")) == first
    assert list(_drawn_sets(cfg, 20, "other")) != first


def test_audit_flags_doctored_records(ref_cfg):
    runner = SystemRunner(ref_cfg, seed="audit")
    records = list(runner.transitions(slices=2))
    assert runner.failures == []
    assert audit_records(ref_cfg, records) == []
    # clone a switch record with a clock moved off the deadline
    import dataclasses
    from tpsim.microarch import MicroArchState
    doctored = []
    for rec in records:
        if rec.kind == "switch":
            mu = rec.s_mu_after
            bad = MicroArchState(mu.flushable, mu.sets, mu.clock + 1)
            rec = dataclasses.replace(rec, s_mu_after=bad)
        doctored.append(rec)
    problems = audit_records(ref_cfg, doctored)
    assert any("clock" in p for p in problems)


def test_audit_catches_skipped_mechanism(ref_cfg):
    opts = RunOptions(mechanism=(OnCoreFlush, PadTo))
    records = list(SystemRunner(ref_cfg, seed="skip", options=opts).transitions(slices=2))
    problems = audit_records(ref_cfg, records)
    assert any("not scrubbed" in p for p in problems)


def test_audit_of_a_prefetch_run_reports_only_the_unscrubbed_globals(ref_cfg):
    opts = RunOptions(mechanism=PREFETCH_MECHANISM)
    records = list(SystemRunner(ref_cfg, seed=1, options=opts).transitions(slices=2))
    problems = audit_records(ref_cfg, records)
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
