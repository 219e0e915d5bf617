"""Experiment orchestration: claim suites, decoder trials, scaling studies.

Every randomized suite draws from streams derived off one master seed (see
rng.py), reports violations with the labels that reproduce them, and uses
exact arithmetic for every bound it asserts.  Aggregation is order
independent, so reports are deterministic for a given (config, seed).
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from random import Random
from typing import Callable, Collection, Sequence

from .daisy import (
    DaisyLevel,
    build_daisy_sequence,
    partition_check,
    pick_heavy_level,
    pluck_simple_daisy,
)
from .decoders import Code, NonAdaptiveDecoder, parse_code_spec, random_corruption
from .exact import PowerBound, floor_power_bound
from .global_decoder import (
    DECODED,
    KERNEL_CAP,
    IndexDecodePackage,
    IndexOutcome,
    build_decode_packages,
    default_sampling_probability,
    kernel_assignment,
    run_global_decoder,
    unanimous_assignments,
)
from .rng import derive_rng, randbelow_many, sorted_samples
from .set_system import SetSystem, covered_elements, petal_degrees, verify_daisy

CLAIM_IDS = (
    "coresub",
    "partition",
    "external",
    "simple-daisy-bound",
    "completeness",
    "soundness",
    "wrapup",
)

DEFAULT_POINTS = tuple((n, ell) for n in (64, 256, 1024) for ell in (2, 3, 4))
MAX_LABELS = 25  # violation labels kept per report; counts stay exact
WRAPUP_MAX_K = 10  # largest k of the exhaustive wrap-up check (2^k messages)


@dataclass
class ClaimReport:
    """Aggregated result of one randomized claim suite."""

    claim: str
    instances: int = 0
    violations: int = 0
    violation_seeds: list = field(default_factory=list)
    worst_margin: float | None = None

    def record(self, labels, margin: float | None = None) -> None:
        self.violations += 1
        self.keep((labels,))
        self.note_margin(margin)

    def keep(self, labels) -> None:
        """Append violation labels in order until the report holds MAX_LABELS."""
        self.violation_seeds.extend(islice(labels, max(0, MAX_LABELS - len(self.violation_seeds))))

    def note_margin(self, margin: float | None) -> None:
        if margin is not None and (self.worst_margin is None or margin < self.worst_margin):
            self.worst_margin = margin

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "instances": self.instances,
            "violations": self.violations,
            "violation_seeds": [list(v) for v in self.violation_seeds],
            "worst_margin": self.worst_margin,
        }


# ---------------------------------------------------------------------------
# random instances


def random_set_system(n: int, set_count: int, set_size: int, rng: Random) -> SetSystem:
    """set_count uniformly random distinct-element sets of exactly set_size:
    those of set_count rng.sample calls, drawn in batches."""
    return SetSystem(n, tuple(sorted_samples(rng, n, set_count, set_size)))


def random_masses(count: int, rng: Random) -> tuple[int, ...]:
    """The values of count rng.randrange(1, 1000) calls, leaving rng as they would."""
    return tuple(value + 1 for value in randbelow_many(rng, 999, count))


def random_daisy_instance(
    rng: Random,
) -> tuple[SetSystem, frozenset[int], int, int]:
    """A random valid (t, s)-daisy: (system of members, kernel, s, t).

    Petal elements are drawn so no outside element is used more than t times;
    members may additionally contain arbitrary kernel elements, and a few
    members may sit entirely inside the kernel (empty petals).
    """
    n = rng.choice((64, 128, 256, 512, 1024))
    petal_bound = rng.randint(1, 4)
    degree_bound = rng.randint(1, 4)
    kernel_size = rng.randint(1, max(2, n // 16))
    elements = list(range(n))
    rng.shuffle(elements)
    kernel = elements[:kernel_size]
    outside = elements[kernel_size:]

    usage = Counter()
    available = list(outside)
    sets = []
    target = rng.randint(1, n)
    while len(sets) < target and available:
        if rng.random() < 0.05:
            petal: list[int] = []  # member hiding entirely inside the kernel
        else:
            size = rng.randint(1, petal_bound)
            if size > len(available):
                break
            petal = rng.sample(available, size)
            for e in petal:
                usage[e] += 1
                if usage[e] == degree_bound:
                    available.remove(e)
        inside = rng.sample(kernel, rng.randint(0 if petal else 1, min(2, kernel_size)))
        sets.append(tuple(sorted(petal + inside)))
    if not sets:
        sets.append((kernel[0],))
    return SetSystem(n, tuple(sets)), frozenset(kernel), petal_bound, degree_bound


def make_in_radius_corpus(
    code: Code, size: int, rng: Random
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(word, message) pairs with the word exactly radius_flips from C(x)."""
    corpus = []
    flips = code.radius_flips()
    for _ in range(size):
        x = tuple(rng.randrange(2) for _ in range(code.k))
        corpus.append((random_corruption(code.encode(x), flips, rng), x))
    return corpus


# ---------------------------------------------------------------------------
# daisy-sequence claims


def audit_daisy_levels(
    system: SetSystem, ell: int, levels: Sequence[DaisyLevel]
) -> dict[str, list]:
    """Exact re-verification of the three level guarantees.

    Returns violation lists keyed by claim: "partition" (member lists must
    partition the collection), "coresub" (|K_i| < l * n**(1 - i/l)), and
    "external" (petal degree at level i at most the level max(1, i-1)
    threshold).
    """
    n = system.universe_size
    out: dict[str, list] = {"partition": [], "coresub": [], "external": []}

    partitioned, count = partition_check(levels, len(system.sets))
    if not partitioned:
        out["partition"].append(("cover", count, len(system.sets)))

    for level in levels:
        i = level.level_index
        kernel_bound = PowerBound(Fraction(ell), n, Fraction(ell - i, ell))
        if kernel_bound.cmp(len(level.kernel)) <= 0:  # need |K_i| < bound, strictly
            out["coresub"].append((i, len(level.kernel)))

        degree_cap = floor_power_bound(levels[max(1, i - 1) - 1].threshold)
        counts = petal_degrees(system, level.members, level.kernel)
        for e, d in counts.items():
            if d > degree_cap:
                out["external"].append((i, e, d))
    return out


def _kernel_margin(system: SetSystem, ell: int, levels: Sequence[DaisyLevel]) -> float:
    n = system.universe_size
    return min(
        float(PowerBound(Fraction(ell), n, Fraction(ell - lvl.level_index, ell)))
        - len(lvl.kernel)
        for lvl in levels
    )


def run_daisy_claim_suite(
    points: Sequence[tuple[int, int]],
    instances: int,
    master_seed: int,
    tamper: Callable[[SetSystem, tuple[DaisyLevel, ...]], tuple[DaisyLevel, ...]] | None = None,
) -> dict[str, ClaimReport]:
    """Random systems of |T| = n sets of size exactly l; zero violations expected.

    Each instance builds the level sequence with scale c = |T|/n = 1, audits
    partition / kernel-size / degree bounds exactly, and checks that the
    heavy level reaches density 1/l under random weights (tracked under the
    extra key "pigeonhole"; it is a consequence of the partition claim, so
    an instance whose levels break the partition skips it).  `tamper` lets
    tests inject corrupted levels to prove the audit catches them.
    """
    reports = {c: ClaimReport(c) for c in ("coresub", "partition", "external", "pigeonhole")}
    for n, ell in points:
        for idx in range(instances):
            labels = ("daisy", n, ell, idx)
            rng = derive_rng(master_seed, *labels)
            system = random_set_system(n, n, ell, rng)
            levels = build_daisy_sequence(system, ell, Fraction(1))
            if tamper is not None:
                levels = tamper(system, levels)

            found = audit_daisy_levels(system, ell, levels)
            for claim in ("coresub", "partition", "external"):
                reports[claim].instances += 1
                if found[claim]:
                    reports[claim].record(labels + tuple(found[claim][0]))
            reports["coresub"].note_margin(_kernel_margin(system, ell, levels))
            if found["partition"]:
                continue

            heavy = pick_heavy_level(levels, random_masses(len(system), rng))
            reports["pigeonhole"].instances += 1
            if heavy.density * ell < 1:
                reports["pigeonhole"].record(labels + ("pigeonhole",))
            else:
                reports["pigeonhole"].note_margin(float(heavy.density - Fraction(1, ell)))
    return reports


def run_pluck_suite(samples: int, master_seed: int) -> ClaimReport:
    """Random valid t-daisies: plucked output must be a 1-daisy meeting the
    covered-elements size bound."""
    report = ClaimReport("simple-daisy-bound")
    for idx in range(samples):
        labels = ("pluck", idx)
        rng = derive_rng(master_seed, *labels)
        system, kernel, s, t = random_daisy_instance(rng)
        members = tuple(range(len(system.sets)))
        assert verify_daisy(system, members, kernel, s, t).ok, "generator produced an invalid daisy"

        chosen = pluck_simple_daisy(system, members, kernel, s, t)
        report.instances += 1

        simple = verify_daisy(system, chosen, kernel, s, 1)
        covered = len(covered_elements(system, members))
        needed = covered - len(kernel)
        got = len(chosen) if s == 1 else len(chosen) * t * s * s
        if not simple.ok or not set(chosen) <= set(members) or got < needed:
            report.record(labels)
        else:
            report.note_margin(float(got - needed))
    return report


# ---------------------------------------------------------------------------
# global-decoder trials


@dataclass(frozen=True)
class TrialRow:
    trial: int
    success: bool
    queries: int
    statuses: tuple[str, ...]
    wall_ms: float = field(compare=False, repr=False)


@dataclass
class GlobalTrialStats:
    code_name: str
    trials: int
    seed: int
    rows: list[TrialRow] = field(default_factory=list)
    successes: int = 0
    wrong_bits: int = 0
    completeness_violations: int = 0
    soundness_violations: int = 0
    violation_seeds: list = field(default_factory=list)

    def label(self, t: int, kind: str, index: int) -> None:
        """Keep the replay label (seed, "trial", t, kind, index), up to MAX_LABELS of each kind."""
        if sum(label[3] == kind for label in self.violation_seeds) < MAX_LABELS:
            self.violation_seeds.append((self.seed, "trial", t, kind, index))

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials

    @property
    def mean_queries(self) -> float:
        return sum(r.queries for r in self.rows) / len(self.rows)

    @property
    def max_queries(self) -> int:
        return max(r.queries for r in self.rows)


def _audit_index(
    pkg: IndexDecodePackage, outcome: IndexOutcome, word: Sequence[int], true_bit: int
) -> tuple[bool, int]:
    """(correct-assignment completeness holds, count of unanimous-wrong
    assignments) for one index, from the decoder's outcome: its unanimous
    assignments, then the rest of the enumeration from where it stopped."""
    if not outcome.fully_queried:
        return True, 0
    truth, width = kernel_assignment(pkg, word), len(pkg.kernel_order)
    rest = unanimous_assignments(outcome.completion, width, outcome.assignments_tried)
    complete, wrong = False, 0
    for a, bit in chain(outcome.unanimous, rest):
        complete |= a == truth and bit == true_bit
        wrong += bit != true_bit
    return complete, wrong


def run_global_trials(
    code: Code,
    decoder: NonAdaptiveDecoder,
    trials: int,
    master_seed: int,
    kernel_cap: int = KERNEL_CAP,
    p: float | None = None,
    query_budget: int | None = None,
    strict: bool = False,
    audit: bool = True,
) -> GlobalTrialStats:
    """Seeded global-decoder runs on fresh random valid codewords.

    Each trial gets the stream hash(master_seed, "trial", index), draws its
    message from it and hands the same stream to run_global_decoder; daisy
    packages are extracted once and shared, and p defaults to
    default_sampling_probability(n, locality).  With audit on, every trial
    also checks correct-assignment completeness and counts unanimous-wrong
    kernel assignments across the full enumeration, from the run's sample.
    """
    packages = build_decode_packages(decoder)
    if p is None:
        p = default_sampling_probability(code.n, decoder.locality)
    stats = GlobalTrialStats(code.name, trials, master_seed)

    for t in range(trials):
        start = time.perf_counter()
        rng = derive_rng(master_seed, "trial", t)
        x = tuple(rng.randrange(2) for _ in range(code.k))
        word = code.encode(x)
        run = run_global_decoder(packages, word, p, rng, kernel_cap, query_budget, strict)
        for pkg, outcome in zip(packages, run.results):  # an aborted run has no results
            if outcome.status == DECODED and outcome.bit != x[pkg.index]:
                stats.wrong_bits += 1
                stats.label(t, "wrong-bit", pkg.index)
            if audit:
                complete, wrong_events = _audit_index(pkg, outcome, word, x[pkg.index])
                if not complete:
                    stats.completeness_violations += 1
                    stats.label(t, "completeness", pkg.index)
                if wrong_events:
                    stats.soundness_violations += wrong_events
                    stats.label(t, "soundness", pkg.index)

        ok = run.message == x
        wall = (time.perf_counter() - start) * 1000
        stats.successes += ok
        statuses = ("aborted",) * code.k if run.aborted else tuple(r.code() for r in run.results)
        stats.rows.append(TrialRow(t, ok, run.total_queries, statuses, wall))
    return stats


def run_decoder_claim_suite(trials: int, master_seed: int) -> dict[str, ClaimReport]:
    """Completeness / soundness audits over both global-decoder paths:
    empty kernel (hadamard) and pivot-block kernel (shared-pivot)."""
    completeness = ClaimReport("completeness")
    soundness = ClaimReport("soundness")
    for spec in ("hadamard:m=10", "shared-pivot:kappa=2,r=64,k=16"):
        code, decoder = parse_code_spec(spec)
        stats = run_global_trials(code, decoder, trials, master_seed, audit=True)
        completeness.instances += trials * code.k
        soundness.instances += trials * code.k
        completeness.violations += stats.completeness_violations
        soundness.violations += stats.soundness_violations + stats.wrong_bits
        # labels are (seed, "trial", t, kind, index); "soundness" and
        # "wrong-bit" labels both belong to the soundness report
        labels = stats.violation_seeds
        completeness.violation_seeds.extend([s for s in labels if s[3] == "completeness"][:5])
        soundness.violation_seeds.extend([s for s in labels if s[3] != "completeness"][:5])
    return {"completeness": completeness, "soundness": soundness}


# ---------------------------------------------------------------------------
# information-theoretic sanity


def wrapup_sanity(k: int) -> ClaimReport:
    """Every deterministic strategy reading k-1 of k identity-coded bits errs
    on at least half of all messages; measured exhaustively.

    For each query set I of size k-1, messages are grouped by their view
    w|_I; any output map is correct on at most one message per view group, so
    the best strategy errs on exactly 2**k - 2**(k-1) messages.  The measured
    minimum is compared against that half exactly.
    """
    if k < 1 or k > WRAPUP_MAX_K:
        raise ValueError(f"exhaustive regime requires 1 <= k <= {WRAPUP_MAX_K}")
    report = ClaimReport("wrapup")
    total = 1 << k
    for dropped in range(k):
        groups: Counter = Counter()
        for x in range(total):
            view = x & ~(1 << dropped)
            groups[view] += 1
        best_correct = len(groups)
        min_errors = total - best_correct

        # Concrete fixed strategy: read all but `dropped`, guess 0 there.
        concrete_errors = sum(1 for x in range(total) if (x >> dropped) & 1)

        report.instances += 1
        if min_errors * 2 < total or concrete_errors * 2 < total:
            report.record(("wrapup", k, dropped))
        else:
            report.note_margin(min_errors / total - 0.5)
    return report


# ---------------------------------------------------------------------------
# scaling


@dataclass(frozen=True)
class ScalingRow:
    n: int
    trials: int
    success_rate: float
    mean_queries: float
    max_queries: int


@dataclass(frozen=True)
class ScalingResult:
    family: str
    rows: tuple[ScalingRow, ...]
    exponent: float | None
    residuals: tuple[float, ...]
    skipped: tuple[tuple[int, str], ...] = ()


def fit_log_slope(points: Sequence[tuple[float, float]]) -> tuple[float, tuple[float, ...]]:
    """Least squares on (ln x, ln y): slope and per-point residuals.  Needs
    positive values and at least two distinct x."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) * (x - mx) for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    residuals = tuple(y - (intercept + slope * x) for x, y in zip(xs, ys))
    return slope, residuals


SCALING_FAMILIES = ("hadamard", "identity")


def _code_for_size(family: str, n: int) -> tuple[Code, NonAdaptiveDecoder]:
    if family == "hadamard":
        m = n.bit_length() - 1
        if 1 << m != n:
            raise ValueError(f"hadamard needs a power-of-two blocklength, got {n}")
        return parse_code_spec(f"hadamard:m={m}")
    return parse_code_spec(f"identity:k={n}")


def scaling_study(
    family: str,
    sizes: Sequence[int],
    trials: int,
    master_seed: int,
    p: float | None = None,
) -> ScalingResult:
    """Mean query counts per blocklength with a log-log slope fit.

    Infeasible sizes are skipped with a recorded reason; fewer than two
    surviving points, or a point with no queries, yields raw stats and no
    fit.  A repeated size or one below 1 is a ValueError.
    """
    family = family.lower().replace("_", "-")
    if family not in SCALING_FAMILIES:
        raise ValueError(f"unknown scaling family {family!r}")
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"repeated size in {list(sizes)}")
    if any(n < 1 for n in sizes):
        raise ValueError(f"sizes must be >= 1, got {list(sizes)}")
    rows = []
    skipped = []
    for n in sizes:
        try:
            code, decoder = _code_for_size(family, n)
        except ValueError as why:
            skipped.append((n, str(why)))
            continue
        stats = run_global_trials(code, decoder, trials, master_seed, p=p, audit=False)
        rows.append(
            ScalingRow(n, trials, stats.success_rate, stats.mean_queries, stats.max_queries)
        )
    if len(rows) >= 2 and all(row.mean_queries > 0 for row in rows):
        slope, residuals = fit_log_slope([(row.n, row.mean_queries) for row in rows])
    else:
        slope, residuals = None, ()
    return ScalingResult(family, tuple(rows), slope, residuals, tuple(skipped))


# ---------------------------------------------------------------------------
# top-level verification


def verify_claims(
    *, claims: Collection[str] | None, seed: int, instances: int, daisies: int, trials: int, wrapup_max: int
) -> list[ClaimReport]:
    """Run the claim suites in `claims` (all when None): the daisy suites on
    `instances` systems per point, the pluck suite on `daisies` daisies, the
    decoder audits over `trials` trials per code and the wrap-up check up to
    k = wrapup_max.  Bad arguments raise ValueError before any suite runs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0 or seed >= 1 << 64:
        raise ValueError("seed must fit in 64 unsigned bits")
    if wrapup_max > WRAPUP_MAX_K:
        raise ValueError(f"wrapup_max must be <= {WRAPUP_MAX_K}")
    claims = CLAIM_IDS if claims is None else claims
    reports: list[ClaimReport] = []
    daisy_wanted = [c for c in ("coresub", "partition", "external") if c in claims]
    if daisy_wanted:
        daisy = run_daisy_claim_suite(DEFAULT_POINTS, instances, seed)
        # The heavy-level pigeonhole is a corollary of the partition claim;
        # its violations surface under the fixed "partition" claim id.
        daisy["partition"].violations += daisy["pigeonhole"].violations
        daisy["partition"].keep(daisy["pigeonhole"].violation_seeds)
        reports.extend(daisy[c] for c in daisy_wanted)
    if "simple-daisy-bound" in claims:
        reports.append(run_pluck_suite(daisies, seed))
    if "completeness" in claims or "soundness" in claims:
        decoder_reports = run_decoder_claim_suite(trials, seed)
        for claim in ("completeness", "soundness"):
            if claim in claims:
                reports.append(decoder_reports[claim])
    if "wrapup" in claims:
        merged = ClaimReport("wrapup")
        for k in range(1, wrapup_max + 1):
            single = wrapup_sanity(k)
            merged.instances += single.instances
            merged.violations += single.violations
            merged.keep(single.violation_seeds)
            merged.note_margin(single.worst_margin)
        reports.append(merged)
    return reports
