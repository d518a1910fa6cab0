"""Prime-and-probe harness, channel matrices and capacity estimates.

The covert channel protocol is the classic one: the spy primes cache state,
the trojan either does nothing (symbol 0) or performs a kernel-image-touching
syscall (symbol 1) in its own timeslice, and the spy then measures how long
its probe syscall takes.  Latencies per symbol are binned into a channel
matrix; capacity is the plug-in mutual information M of the empirical joint.

Because the plug-in estimator is biased upward on finite samples, M alone
cannot distinguish a real channel from sampling noise.  The apparent capacity
M0 calibrates that: shuffle the symbol labels (destroying any real
association), recompute MI, and repeat; the mean is M0 and the 2.5th/97.5th
percentiles give a 95% interval.  A channel counts as closed when M sits
within that interval.  The shuffles draw from one string-seeded random.Random,
so for a fixed seed M0 depends only on Python's random stream.

Every sample is a run of prime, symbol and probe slices per symbol, with any
other domains idle between the symbol and the probe; the two runs share the
prime slice, so it runs once, and each symbol's run starts from its end state
through SystemRunner.at.
All nondeterminism for sample i is keyed on (seed, i) and never on the
symbol, so a protection mode that actually removes the medium produces
bit-identical probe latencies for both symbols and therefore exactly zero
measured MI.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
import random
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Sequence

from .config import NOOP, PREFETCH_MECHANISM, PROTECTIONS, SYS_READ, USER_READ, Input, RunConfig
from .core import ConfigError, fan_out, pool_size
from .kernel import RunError, RunOptions, SystemRunner

# --- channel matrix ---------------------------------------------------------------

@dataclass(frozen=True)
class ChannelMatrix:
    """Input symbols x latency bins, as raw sample counts."""

    labels: tuple[str, ...]
    edges: tuple[int, ...]                    # bin i covers [edges[i], edges[i+1])
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.labels) < 1:
            raise ConfigError("channel matrix: need at least one input symbol")
        if len(self.edges) < 2:
            raise ConfigError("channel matrix: need at least one latency bin")
        if any(b >= a for a, b in zip(self.edges[1:], self.edges)):
            raise ConfigError("channel matrix: bin edges must be strictly increasing")
        if len(self.counts) != len(self.labels):
            raise ConfigError("channel matrix: one count row per symbol")
        width = len(self.edges) - 1
        for label, row in zip(self.labels, self.counts):
            if len(row) != width:
                raise ConfigError(f"channel matrix: row {label} has {len(row)} bins, expected {width}")
            if any(c < 0 for c in row):
                raise ConfigError(f"channel matrix: negative count in row {label}")
        sums = {sum(row) for row in self.counts}
        if len(sums) > 1:
            raise ConfigError(
                f"channel matrix: unequal row sums {sorted(sums)}; "
                "the protocol draws the same number of samples per symbol"
            )

    @property
    def samples_per_symbol(self) -> int:
        return sum(self.counts[0])

    @property
    def total(self) -> int:
        return self.samples_per_symbol * len(self.labels)

    @classmethod
    def from_samples(cls, samples: dict[str, Sequence[int]], bin_width: int = 1) -> "ChannelMatrix":
        if bin_width < 1:
            raise ConfigError("bin_width: must be >= 1")
        labels = tuple(samples)
        flat = [v for vs in samples.values() for v in vs]
        if not flat:
            raise ConfigError("channel matrix: no samples")
        lo = min(flat)
        nbins = (max(flat) - lo) // bin_width + 1
        edges = tuple(lo + i * bin_width for i in range(nbins + 1))
        counts = []
        for label in labels:
            row = [0] * nbins
            for v in samples[label]:
                row[(v - lo) // bin_width] += 1
            counts.append(tuple(row))
        return cls(labels=labels, edges=edges, counts=tuple(counts))


def write_matrix_csv(matrix: ChannelMatrix, path: str | Path) -> None:
    """Header row of bin lower edges; one row per symbol, symbol first."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["symbol"] + [str(e) for e in matrix.edges[:-1]])
        for label, row in zip(matrix.labels, matrix.counts):
            w.writerow([label] + [str(c) for c in row])


# --- capacity ---------------------------------------------------------------------

def _mi_term(c: int, total: int, rowsum: int, colsum: int) -> float:
    """One cell's MI term, in bits: exactly 0.0 where c*T == rowsum*colsum or c == 0."""
    num, den = c * total, rowsum * colsum
    return 0.0 if c == 0 or num == den else (c / total) * math.log2(num / den)


def mutual_information(matrix: ChannelMatrix) -> float:
    """Plug-in MI of the empirical joint, in bits.  Exactly factorising terms
    add exactly zero, so the uniform matrix gives 0.0 and the 2x2 identity 1.0."""
    counts = matrix.counts
    total = sum(map(sum, counts))
    if total <= 0:
        raise ConfigError("channel matrix: empty")
    colsums = [sum(col) for col in zip(*counts)]
    mi = 0.0
    for rx, row in zip(map(sum, counts), counts):
        for c, cy in zip(row, colsums):
            if c:
                mi += _mi_term(c, total, rx, cy)
    return mi


def _shuffled_counts(nrows: int, cols: Sequence[int], shuffles: int,
                     rng: random.Random) -> Iterator[list[list[int]]]:
    """Count tables of `shuffles` uniform shuffles of nrows equal-sized label
    groups over samples in bins of sizes cols, one row per label.

    Bin y is one span of sample positions.  A shuffle draws every sample's
    label alike, then moves uniformly chosen samples off each label that holds
    too many onto one that holds too few.  Each step treats positions alike,
    so the labelling is exchangeable, and with exact counts it is uniform.
    """
    if nrows > 256:
        raise ConfigError("channel matrix: M0 shuffles at most 256 symbols")
    total = sum(cols)
    n = total // nrows
    edges = [0, *itertools.accumulate(cols)]            # bin y spans edges[y]..edges[y+1]
    table = (bytes(range(nrows)) * 256)[:256]          # table[b] == b % nrows
    for _ in range(shuffles):
        labels = bytearray(rng.randbytes(total).translate(table))
        have = [labels.count(x) for x in range(nrows)]
        for x in range(nrows):
            while have[x] > n:
                i = rng.randrange(total)
                if labels[i] == x:
                    labels[i] = z = have.index(min(have))
                    have[x], have[z] = have[x] - 1, have[z] + 1
        rows, rest = [], cols
        for x in range(nrows - 1):
            rows.append(list(map(labels.count, itertools.repeat(x), edges, edges[1:])))
            rest = list(map(operator.sub, rest, rows[-1]))
        yield rows + [rest]


def apparent_capacity_M0(matrix: ChannelMatrix, shuffles: int,
                         seed: object) -> tuple[float, tuple[float, float]]:
    """Capacity that pure sampling error would fake on this data.

    Shuffling the symbol labels destroys any symbol/latency association while
    preserving both marginals; the MI that survives is small-sample bias.
    Returns (mean over shuffles, (2.5th, 97.5th percentile, linearly interpolated)).
    """
    if shuffles < 100:
        raise ConfigError(f"shuffles: need at least 100, got {shuffles}")
    total, n = matrix.total, matrix.samples_per_symbol
    cols = [c for c in map(sum, zip(*matrix.counts)) if c]
    # Row sums are equal, so one table of terms per bin, indexed by count, serves every row.
    terms = [[_mi_term(k, total, n, c) for k in range(c + 1)] for c in cols]
    mis = [sum(sum(map(operator.getitem, terms, row)) for row in rows) for rows in
           _shuffled_counts(len(matrix.labels), cols, shuffles, random.Random(str(seed)))]
    cuts = statistics.quantiles(mis, n=40, method="inclusive")
    return statistics.fmean(mis), (cuts[0], cuts[-1])


@dataclass
class CapacityReport:
    protection: str
    matrix: ChannelMatrix
    M_bits: float
    M0_bits: float
    M0_ci95: tuple[float, float]
    samples: int                      # per symbol
    shuffles: int
    bin_width: int
    seed: object
    replacement: str = "plru"

    def __post_init__(self):
        cap = math.log2(len(self.matrix.labels)) if len(self.matrix.labels) > 1 else 0.0
        if not (-1e-12 <= self.M_bits <= cap + 1e-9):
            raise ConfigError(f"capacity report: M {self.M_bits} outside [0, log2 inputs]")
        lo, hi = self.M0_ci95
        if not (lo - 1e-12 <= self.M0_bits <= hi + 1e-12):
            raise ConfigError("capacity report: M0 outside its own interval")

    @property
    def channel_open(self) -> bool:
        return self.M_bits > self.M0_ci95[1]

    def format(self) -> str:
        lo, hi = self.M0_ci95
        lines = [
            f"prime-and-probe capacity, protection={self.protection}, "
            f"replacement={self.replacement}",
            f"seed {self.seed}, {self.samples} samples per symbol, "
            f"bin width {self.bin_width}, {self.shuffles} shuffles",
            f"M  = {self.M_bits:.6f} bits",
            f"M0 = {self.M0_bits:.6f} bits (ci95 {lo:.6f} .. {hi:.6f})",
            "channel " + ("OPEN: M above the M0 interval" if self.channel_open
                          else "closed: M within the M0 interval"),
            f"M_bits={self.M_bits!r}",
            f"M0_bits={self.M0_bits!r}",
            f"M0_ci_lo={lo!r}",
            f"M0_ci_hi={hi!r}",
            f"samples_per_symbol={self.samples}",
            f"seed={self.seed}",
        ]
        return "\n".join(lines)


# --- the attack harness ------------------------------------------------------------

def attack_variant(cfg: RunConfig, protection: str) -> tuple[RunConfig, RunOptions]:
    """Derive the run configuration and kernel options for a protection mode.

    "on" and "targeted-flush" run the honest kernel as configured.  "off"
    makes the trojan's kernel image the spy's image (one shared page is the
    channel medium) and runs an empty switch mechanism.  "prefetch" replaces
    the targeted flush by sequential reads of the kernel globals.
    """
    if protection not in PROTECTIONS:
        raise ConfigError(
            f"protection: unknown mode {protection!r}; know {', '.join(PROTECTIONS)}"
        )
    if len(cfg.policy.domains) < 2:
        raise ConfigError("attack: need at least two domains (spy and trojan)")
    if protection in ("on", "targeted-flush"):
        return cfg, RunOptions()
    if protection == "prefetch":
        return cfg, RunOptions(mechanism=PREFETCH_MECHANISM)

    spy, trojan = cfg.policy.domain_ids()[:2]
    spy_image = cfg.policy.domain(spy).kernel_image
    domains = tuple(
        replace(d, kernel_image=spy_image) if d.ident == trojan else d
        for d in cfg.policy.domains
    )
    policy = replace(cfg.policy, domains=domains)
    # The spy's image pages are already in the kernel window of the address
    # map, so the trojan's walks of the shared image translate as-is.
    off_cfg = replace(cfg, policy=policy)
    return off_cfg, RunOptions(mechanism=())


def _attack_objects(cfg: RunConfig) -> tuple[str, str, str]:
    """Pick the working objects by size convention.

    The spy primes with its largest object and probes with its smallest; the
    trojan signals through its largest.  Size ties break by identifier.
    """
    spy, trojan = cfg.policy.domain_ids()[:2]
    spy_objs = sorted(
        (o for o in cfg.scenario.objects if o.owner == spy),
        key=lambda o: (o.size, o.ident),
    )
    trojan_objs = sorted(
        (o for o in cfg.scenario.objects if o.owner == trojan),
        key=lambda o: (o.size, o.ident),
    )
    if not spy_objs or not trojan_objs:
        raise ConfigError("attack: both spy and trojan need at least one object")
    return spy_objs[-1].ident, spy_objs[0].ident, trojan_objs[-1].ident


def _probe_pair(cfg: RunConfig, options: RunOptions, seed: object, index: int,
                prime_obj: str, probe_obj: str, trojan_obj: str) -> tuple[int, int]:
    """Probe latencies of one sample, for symbol 0 and for symbol 1.

    Both symbols share the prime slice and the switch after it, so that part
    runs once, and each symbol's run starts from the state it ends in.  The
    probe is in the spy's next slice; any other domains idle in between.  A
    symbol's run stops at the probe step: the switch after it feeds no
    measurement.  Any failure, of the prime run or of a symbol's, aborts.
    """
    spy, trojan = cfg.policy.domain_ids()[:2]
    probe_slice = len(cfg.policy.domains)
    spy_batches = [[Input(kind=USER_READ, obj=prime_obj)], [Input(kind=SYS_READ, obj=probe_obj)]]
    # Seeded by the sample, never by the symbol: the symbol-0 and symbol-1
    # runs of one sample draw identical oracle words and trace seeds.
    runner = SystemRunner(cfg, f"{seed}:s{index}", options)
    for _ in runner.transitions(slices=1, schedule={spy: spy_batches}):
        pass
    if runner.failures:
        raise RunError(runner.failures[0])
    latencies = []
    for signal in (Input(kind=NOOP), Input(kind=SYS_READ, obj=trojan_obj)):
        run = SystemRunner.at(cfg, runner.seed, options, runner.abstract, runner.micro, 1)
        schedule = {spy: spy_batches, trojan: [[signal]]}
        probe = next(r for r in run.transitions(slices=probe_slice + 1, schedule=schedule)
                     if r.slice_index == probe_slice and r.kind != "switch")
        run.finish()
        if run.failures:
            raise RunError(run.failures[0])
        latencies.append(probe.clock_delta)
    return latencies[0], latencies[1]


def _probe_range(cfg: RunConfig, options: RunOptions, seed: object,
                 objs: tuple[str, str, str], samples: range) -> list[tuple[int, int]]:
    """Probe latency pairs of the given samples, in sample order."""
    return [_probe_pair(cfg, options, seed, i, *objs) for i in samples]


def run_prime_probe(cfg: RunConfig, protection: str, samples_per_symbol: int,
                    seed: object, jobs: int = 1) -> ChannelMatrix:
    """Collect the channel matrix for one protection mode.

    The samples are cut into one contiguous range per worker, and the ranges'
    latencies are joined in sample order, so any jobs gives the same matrix.
    """
    if samples_per_symbol < 1:
        raise ConfigError("samples_per_symbol: must be >= 1")
    acfg, options = attack_variant(cfg, protection)
    objs = _attack_objects(acfg)
    chunk = math.ceil(samples_per_symbol / pool_size(jobs, samples_per_symbol))
    ranges = [range(lo, min(lo + chunk, samples_per_symbol))
              for lo in range(0, samples_per_symbol, chunk)]
    pairs = [p for piece in fan_out(_probe_range, (acfg, options, seed, objs), ranges, jobs)
             for p in piece]
    samples = {str(s): [p[s] for p in pairs] for s in (0, 1)}
    return ChannelMatrix.from_samples(samples, bin_width=cfg.analysis.bin_width)


def measure_channel(cfg: RunConfig, protection: str, seed: object,
                    samples_per_symbol: int | None = None,
                    jobs: int = 1) -> CapacityReport:
    """Matrix plus M and M0 (over analysis.shuffles label shuffles) in one report."""
    samples = cfg.analysis.samples_per_symbol if samples_per_symbol is None \
        else samples_per_symbol
    matrix = run_prime_probe(cfg, protection, samples, seed, jobs=jobs)
    m = mutual_information(matrix)
    m0, ci = apparent_capacity_M0(matrix, cfg.analysis.shuffles, f"{seed}:m0:{protection}")
    return CapacityReport(
        protection=protection,
        matrix=matrix,
        M_bits=m,
        M0_bits=m0,
        M0_ci95=ci,
        samples=samples,
        shuffles=cfg.analysis.shuffles,
        bin_width=cfg.analysis.bin_width,
        seed=seed,
        replacement=cfg.policy.replacement,
    )


@dataclass
class PrefetchReport:
    prefetch: CapacityReport
    flush: CapacityReport
    replacement: str
    notes: list[str] = field(default_factory=list)

    @property
    def M_prefetch(self) -> float:
        return self.prefetch.M_bits

    @property
    def M_flush(self) -> float:
        return self.flush.M_bits

    @property
    def M0_bits(self) -> float:
        return self.prefetch.M0_bits

    def format(self) -> str:
        lo, hi = self.prefetch.M0_ci95
        lines = [
            f"prefetch versus targeted flush, replacement={self.replacement}",
            f"M_prefetch = {self.M_prefetch:.6f} bits "
            f"(M0 {self.M0_bits:.6f}, ci95 {lo:.6f} .. {hi:.6f})",
            f"M_flush    = {self.M_flush:.6f} bits "
            f"(M0 {self.flush.M0_bits:.6f}, ci95 {self.flush.M0_ci95[0]:.6f} .. "
            f"{self.flush.M0_ci95[1]:.6f})",
        ]
        lines.extend(self.notes)
        lines += [
            f"M_prefetch_bits={self.M_prefetch!r}",
            f"M_flush_bits={self.M_flush!r}",
            f"M0_bits={self.M0_bits!r}",
        ]
        return "\n".join(lines)


def prefetch_experiment(cfg: RunConfig, seed: object,
                        samples_per_symbol: int | None = None,
                        jobs: int = 1) -> PrefetchReport:
    """Drive the same channel through both mechanism variants.

    With the adversarial replacement policy, reading the kernel globals back
    sequentially (prefetch) cannot normalise the replacement metadata the
    trojan scrambled, while the targeted flush resets it outright.
    """
    notes = []
    if cfg.policy.replacement != "adversarial":
        notes.append(
            "warning: replacement policy is not adversarial; the prefetch "
            "variant is expected to look closed under plain PLRU"
        )
    pre = measure_channel(cfg, "prefetch", seed,
                          samples_per_symbol=samples_per_symbol, jobs=jobs)
    flu = measure_channel(cfg, "targeted-flush", seed,
                          samples_per_symbol=samples_per_symbol, jobs=jobs)
    return PrefetchReport(
        prefetch=pre, flush=flu, replacement=cfg.policy.replacement, notes=notes,
    )
