"""Channel matrices, the plug-in estimator and its shuffle calibration."""

import csv
import dataclasses
import itertools
import math
import random
import statistics

import pytest

from tpsim.channel import (
    CapacityReport,
    ChannelMatrix,
    PROTECTIONS,
    _attack_objects,
    _shuffled_counts,
    apparent_capacity_M0,
    attack_variant,
    measure_channel,
    mutual_information,
    prefetch_experiment,
    run_prime_probe,
    write_matrix_csv,
)
from tpsim.config import HONEST_MECHANISM, PREFETCH_MECHANISM, SYS_READ
from tpsim.core import ConfigError, ModelError
from tpsim.kernel import Failure, RunError, SystemRunner


def read_matrix_csv(path, bin_width=None):
    """Read back what write_matrix_csv writes."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:1] != ["symbol"]:
        raise ConfigError(f"{path}: not a channel matrix CSV")
    lower = [int(e) for e in rows[0][1:]]
    width = lower[1] - lower[0] if len(lower) > 1 else (bin_width or 1)
    return ChannelMatrix(
        labels=tuple(row[0] for row in rows[1:]),
        edges=tuple(lower + [lower[-1] + width]),
        counts=tuple(tuple(int(c) for c in row[1:]) for row in rows[1:]),
    )


def mi_by_hand(counts):
    """Textbook plug-in MI, written independently of the library code."""
    total = sum(map(sum, counts))
    px = [sum(row) / total for row in counts]
    py = [sum(col) / total for col in zip(*counts)]
    mi = 0.0
    for x, row in enumerate(counts):
        for y, c in enumerate(row):
            if c:
                p = c / total
                mi += p * math.log2(p / (px[x] * py[y]))
    return mi


def random_matrix(rng, max_rows=4, max_cols=8):
    """Random counts with equal row sums, as the protocol guarantees."""
    rows = rng.randint(2, max_rows)
    cols = rng.randint(2, max_cols)
    per_row = rng.randint(5, 60)
    counts = []
    for _ in range(rows):
        cuts = sorted(rng.randint(0, per_row) for _ in range(cols - 1))
        row = [b - a for a, b in zip([0] + cuts, cuts + [per_row])]
        counts.append(tuple(row))
    edges = tuple(range(cols + 1))
    labels = tuple(str(i) for i in range(rows))
    return ChannelMatrix(labels=labels, edges=edges, counts=tuple(counts))


def test_matrix_validation():
    with pytest.raises(ConfigError, match="row sums"):
        ChannelMatrix(("0", "1"), (0, 1, 2), ((3, 1), (2, 1)))
    with pytest.raises(ConfigError, match="increasing"):
        ChannelMatrix(("0",), (0, 0), ((5,),))
    with pytest.raises(ConfigError, match="one count row"):
        ChannelMatrix(("0", "1"), (0, 1), ((5,),))
    with pytest.raises(ConfigError, match="has 3 bins"):
        ChannelMatrix(("0",), (0, 1), ((1, 2, 3),))
    with pytest.raises(ConfigError, match="negative"):
        ChannelMatrix(("0",), (0, 1, 2), ((-1, 1),))
    m = ChannelMatrix(("0", "1"), (10, 11, 12), ((3, 1), (1, 3)))
    assert m.samples_per_symbol == 4 and m.total == 8


def test_from_samples_recount():
    rng = random.Random("fs")
    for trial in range(200):
        width = rng.choice([1, 1, 3, 7])
        samples = {
            str(s): [rng.randint(50, 120) for _ in range(rng.randint(1, 40))]
            for s in range(rng.randint(1, 3))
        }
        n = max(len(v) for v in samples.values())
        for v in samples.values():            # equal rows, as the harness makes
            while len(v) < n:
                v.append(v[0])
        m = ChannelMatrix.from_samples(samples, bin_width=width)
        lo = min(v for vs in samples.values() for v in vs)
        assert m.edges[0] == lo
        assert all(b - a == width for a, b in zip(m.edges, m.edges[1:]))
        for label, row in zip(m.labels, m.counts):
            assert sum(row) == len(samples[label])
            for v in samples[label]:
                b = (v - lo) // width
                assert m.edges[b] <= v < m.edges[b + 1]
                assert row[b] >= 1
    with pytest.raises(ConfigError, match="bin_width"):
        ChannelMatrix.from_samples({"0": [1]}, bin_width=0)
    with pytest.raises(ConfigError, match="no samples"):
        ChannelMatrix.from_samples({"0": []})


def test_csv_round_trip(tmp_path):
    rng = random.Random("csv")
    for i in range(20):
        m = random_matrix(rng)
        p = tmp_path / f"m{i}.csv"
        write_matrix_csv(m, p)
        assert read_matrix_csv(p) == m
    narrow = ChannelMatrix(("0",), (7, 9), ((4,),))
    p = tmp_path / "narrow.csv"
    write_matrix_csv(narrow, p)
    assert read_matrix_csv(p, bin_width=2) == narrow
    junk = tmp_path / "junk.csv"
    junk.write_text("latency,count\n1,2\n")
    with pytest.raises(ConfigError, match="not a channel matrix"):
        read_matrix_csv(junk)


def test_mi_against_independent_implementation():
    rng = random.Random("mi")
    for _ in range(100):
        m = random_matrix(rng)
        assert abs(mutual_information(m) - mi_by_hand(m.counts)) < 1e-9


def test_mi_exact_values():
    ident = ChannelMatrix(("0", "1"), (0, 1, 2), ((7, 0), (0, 7)))
    assert mutual_information(ident) == 1.0
    uniform = ChannelMatrix(("0", "1"), (0, 1, 2), ((5, 5), (5, 5)))
    assert mutual_information(uniform) == 0.0
    skew = ChannelMatrix(("0", "1"), (0, 1, 2), ((3, 1), (1, 3)))
    assert mutual_information(skew) == pytest.approx(0.18872187554086717, abs=1e-15)


def test_mi_is_permutation_invariant():
    rng = random.Random("perm")
    for _ in range(50):
        m = random_matrix(rng)
        base = mutual_information(m)
        rows = list(range(len(m.labels)))
        cols = list(range(len(m.edges) - 1))
        rng.shuffle(rows)
        rng.shuffle(cols)
        shuffled = ChannelMatrix(
            labels=tuple(m.labels[r] for r in rows),
            edges=m.edges,
            counts=tuple(tuple(m.counts[r][c] for c in cols) for r in rows),
        )
        assert abs(mutual_information(shuffled) - base) < 1e-12


def test_merging_bins_never_gains_information():
    rng = random.Random("dpi")
    for _ in range(50):
        m = random_matrix(rng, max_cols=8)
        cols = len(m.edges) - 1
        if cols < 2:
            continue
        merged = ChannelMatrix(
            labels=m.labels,
            edges=m.edges[::2] if cols % 2 == 0 else m.edges[::2] + (m.edges[-1],),
            counts=tuple(
                tuple(sum(row[i:i + 2]) for i in range(0, cols, 2))
                for row in m.counts
            ),
        )
        assert mutual_information(merged) <= mutual_information(m) + 1e-12


def test_m0_basics():
    rng = random.Random("m0")
    m = random_matrix(rng)
    with pytest.raises(ConfigError, match="at least 100"):
        apparent_capacity_M0(m, 99, seed=0)
    mean, (lo, hi) = apparent_capacity_M0(m, 120, seed=0)
    assert lo <= mean <= hi
    assert 0.0 <= lo
    again = apparent_capacity_M0(m, 120, seed=0)
    assert again == (mean, (lo, hi))
    other = apparent_capacity_M0(m, 120, seed=1)
    assert other != (mean, (lo, hi))


def test_m0_calibrates_independent_joints():
    """When rows really are identically distributed, plug-in M is pure bias
    and should sit inside the shuffle interval nearly always."""
    rng = random.Random("cal")
    weights = [5, 3, 2, 1, 1, 2]
    inside = 0
    reps = 50
    for rep in range(reps):
        samples = {
            s: [rng.choices(range(6), weights=weights)[0] for _ in range(400)]
            for s in ("0", "1")
        }
        m = ChannelMatrix.from_samples({k: v for k, v in samples.items()})
        mi = mutual_information(m)
        _, (_, hi) = apparent_capacity_M0(m, 100, seed=f"cal:{rep}")
        if mi <= hi:
            inside += 1
    assert inside >= int(reps * 0.9)


def multinomial(n, parts):
    """n! / prod(k! for k in parts), as a product of binomials."""
    out = 1
    for k in parts:
        out *= math.comb(n, k)
        n -= k
    return out


def exact_shuffle_law(nrows, cols):
    """{count table: probability} of a uniform shuffle of nrows labels, each on
    sum(cols) // nrows samples, over bins of sizes cols: the multivariate
    hypergeometric law, table by table."""
    n = sum(cols) // nrows
    splits = [[p for p in itertools.product(range(c + 1), repeat=nrows) if sum(p) == c]
              for c in cols]
    law = {}
    for columns in itertools.product(*splits):
        rows = tuple(zip(*columns))
        if all(sum(row) == n for row in rows):
            law[rows] = math.prod(multinomial(c, k) for c, k in zip(cols, columns)) \
                / multinomial(sum(cols), [n] * nrows)
    return law


@pytest.mark.parametrize("nrows, cols", [(2, (2, 3, 1)), (2, (1, 2, 2, 3)), (3, (2, 2, 2)),
                                         (3, (3, 1, 1, 1, 3))], ids=str)
def test_label_shuffles_follow_the_hypergeometric_law(nrows, cols):
    """The shuffle's count tables, against the exact law of a uniform
    permutation of the labels, by a chi-square test at the 99.9% point."""
    law = exact_shuffle_law(nrows, cols)
    assert math.isclose(sum(law.values()), 1.0)
    draws = 24_000
    seen = dict.fromkeys(law, 0)
    for rows in _shuffled_counts(nrows, cols, draws, random.Random(f"law:{nrows}:{cols}")):
        seen[tuple(map(tuple, rows))] += 1         # a table outside the law is a KeyError
    assert len(seen) == len(law)
    chi2 = sum((seen[t] - draws * p) ** 2 / (draws * p) for t, p in law.items())
    df = len(law) - 1
    # Wilson-Hilferty approximation of the chi-square quantile.
    bound = df * (1 - 2 / (9 * df) + 3.09 * math.sqrt(2 / (9 * df))) ** 3
    assert chi2 < bound, (chi2, bound, df)


def test_m0_scores_each_shuffle_with_the_plug_in_mi():
    """M0 is the mean of mutual_information over the shuffled tables, empty
    bins and all, and its interval the 2.5th and 97.5th percentiles of it."""
    rng = random.Random("score")
    for _ in range(10):
        m = random_matrix(rng)
        cols = [sum(col) for col in zip(*m.counts)]
        occupied = [y for y, c in enumerate(cols) if c]
        mis = []
        for rows in _shuffled_counts(len(m.labels), [cols[y] for y in occupied], 150,
                                     random.Random("7")):
            full = [[0] * len(cols) for _ in rows]
            for row, counts in zip(full, rows):
                for y, k in zip(occupied, counts):
                    row[y] = k
            mis.append(mutual_information(
                ChannelMatrix(m.labels, m.edges, tuple(map(tuple, full)))))
        mean, (lo, hi) = apparent_capacity_M0(m, 150, seed=7)
        cuts = statistics.quantiles(mis, n=40, method="inclusive")
        assert mean == pytest.approx(statistics.fmean(mis), abs=1e-12)
        assert (lo, hi) == pytest.approx((cuts[0], cuts[-1]), abs=1e-12)


def test_m0_rejects_more_symbols_than_a_byte_holds():
    m = ChannelMatrix(tuple(map(str, range(257))), (0, 1), ((1,),) * 257)
    with pytest.raises(ConfigError, match="at most 256 symbols"):
        apparent_capacity_M0(m, 100, seed=0)


def test_capacity_report_invariants():
    m = ChannelMatrix(("0", "1"), (0, 1, 2), ((3, 1), (1, 3)))
    rep = CapacityReport(
        protection="off", matrix=m, M_bits=0.18872187554086717,
        M0_bits=0.05, M0_ci95=(0.01, 0.09), samples=4, shuffles=100,
        bin_width=1, seed=1,
    )
    assert rep.channel_open
    text = rep.format()
    assert "M_bits=" in text and "M0_ci_hi=" in text and "OPEN" in text
    closed = CapacityReport(
        protection="on", matrix=m, M_bits=0.05, M0_bits=0.05,
        M0_ci95=(0.01, 0.09), samples=4, shuffles=100, bin_width=1, seed=1,
    )
    assert not closed.channel_open and "closed" in closed.format()
    with pytest.raises(ConfigError, match="outside"):
        CapacityReport(protection="x", matrix=m, M_bits=1.5, M0_bits=0.05,
                       M0_ci95=(0.01, 0.09), samples=4, shuffles=100,
                       bin_width=1, seed=1)
    with pytest.raises(ConfigError, match="interval"):
        CapacityReport(protection="x", matrix=m, M_bits=0.1, M0_bits=0.5,
                       M0_ci95=(0.01, 0.09), samples=4, shuffles=100,
                       bin_width=1, seed=1)


def test_attack_variant_shapes(ref_cfg):
    for p in ("on", "targeted-flush"):
        cfg, opts = attack_variant(ref_cfg, p)
        assert cfg is ref_cfg
        assert opts.mechanism == HONEST_MECHANISM
    cfg, opts = attack_variant(ref_cfg, "prefetch")
    assert opts.mechanism == PREFETCH_MECHANISM
    cfg, opts = attack_variant(ref_cfg, "off")
    assert opts.mechanism == ()
    spy, trojan = cfg.policy.domain_ids()[:2]
    assert cfg.policy.domain(trojan).kernel_image \
        == cfg.policy.domain(spy).kernel_image
    with pytest.raises(ConfigError, match="unknown mode"):
        attack_variant(ref_cfg, "firewall")
    assert set(PROTECTIONS) == {"on", "off", "prefetch", "targeted-flush"}


def test_run_prime_probe_argument_checks(ref_cfg):
    with pytest.raises(ConfigError, match="samples_per_symbol"):
        run_prime_probe(ref_cfg, "on", 0, seed=0)
    with pytest.raises(ConfigError, match="unknown mode"):
        run_prime_probe(ref_cfg, "firewall", 1, seed=0)


def test_probe_runs_that_stop_early_still_reject_a_broken_sample(ref_cfg, monkeypatch):
    """A probe run stops at the probe step, yet a trojan input still deferred
    there, or a failure in the probe step's record, must abort the sample:
    neither may read as a closed channel."""
    trojan = ref_cfg.policy.domain_ids()[1]
    trojan_obj = _attack_objects(ref_cfg)[2]
    worst_case_cost, step = SystemRunner.worst_case_cost, SystemRunner.step

    def signal_never_fits(self, inp):
        if inp.kind == SYS_READ and inp.obj == trojan_obj:
            return 10 ** 9
        return worst_case_cost(self, inp)

    with monkeypatch.context() as m:
        m.setattr(SystemRunner, "worst_case_cost", signal_never_fits)
        with pytest.raises(ModelError, match=f"starved: domain {trojan}: 1 input"):
            run_prime_probe(ref_cfg, "on", 3, seed=0)

    def failing_probe(self, inp):
        rec = step(self, inp)
        if self.slice_index == 2:
            rec = dataclasses.replace(rec, failures=(Failure("planted", "probe step"),))
        return rec

    monkeypatch.setattr(SystemRunner, "step", failing_probe)
    with pytest.raises(RunError, match="planted: probe step"):
        run_prime_probe(ref_cfg, "on", 3, seed=0)


def test_protection_on_is_bit_identical(ref_cfg):
    m = run_prime_probe(ref_cfg, "on", 25, seed="small")
    assert m.counts[0] == m.counts[1]
    assert mutual_information(m) == 0.0


def test_protection_off_separates_cleanly(ref_cfg):
    m = run_prime_probe(ref_cfg, "off", 25, seed="small")
    hot = {i for i, c in enumerate(m.counts[0]) if c}
    cold = {i for i, c in enumerate(m.counts[1]) if c}
    assert hot.isdisjoint(cold)
    # disjoint support means MI == H(symbol) == 1 bit, up to summation rounding
    assert mutual_information(m) == pytest.approx(1.0, abs=1e-12)


def test_parallel_collection_matches_serial(ref_cfg):
    serial = run_prime_probe(ref_cfg, "off", 8, seed="par")
    assert serial.labels == ("0", "1") and serial.samples_per_symbol == 8
    for jobs in (2, 3):
        assert run_prime_probe(ref_cfg, "off", 8, seed="par", jobs=jobs) == serial
    # Seven samples over two workers: ranges of unequal length.
    assert run_prime_probe(ref_cfg, "off", 7, seed="par", jobs=2) \
        == run_prime_probe(ref_cfg, "off", 7, seed="par")


def test_measure_channel_and_prefetch_notes(ref_cfg, adv_cfg):
    few = dataclasses.replace(ref_cfg, analysis=dataclasses.replace(ref_cfg.analysis,
                                                                   shuffles=100))
    rep = measure_channel(few, "on", seed="mc", samples_per_symbol=25)
    assert rep.M_bits == 0.0 and not rep.channel_open and rep.shuffles == 100
    assert rep.replacement == "plru" and rep.samples == 25

    pre = prefetch_experiment(ref_cfg, seed="pw", samples_per_symbol=4)
    assert any("not adversarial" in n for n in pre.notes)
    assert "warning" in pre.format()
    pre_adv = prefetch_experiment(adv_cfg, seed="pw", samples_per_symbol=4)
    assert pre_adv.notes == []
    assert pre_adv.replacement == "adversarial"
