"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here; the random suites are seeded and
deterministic.
"""

import itertools
import math
import time
from fractions import Fraction
from random import Random

import pytest

from rldc.decoders import (
    REJECT,
    AdaptiveDecoder,
    TreeNode,
    hadamard_code,
    random_corruption,
    repetition_code,
    shared_pivot_code,
)
from rldc.global_decoder import default_sampling_probability
from rldc.harness import (
    DEFAULT_POINTS,
    make_in_radius_corpus,
    run_daisy_claim_suite,
    run_global_trials,
    run_pluck_suite,
    scaling_study,
    wrapup_sanity,
)
from rldc.preprocessing import (
    ReductionFailedError,
    amplify,
    flatten_adaptive,
    randomness_complexity,
    reduce_randomness,
)
from rldc.rng import derive_rng

from oracles import evaluate, output_distribution, run_tree, runs, sample_view, wrong_rate

SEED = 20250808


def check(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:2d} | {name}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def daisy_suite():
    start = time.perf_counter()
    reports = run_daisy_claim_suite(DEFAULT_POINTS, 1000, SEED)
    return reports, time.perf_counter() - start


def test_c01_daisy_sequence_claims(daisy_suite):
    reports, duration = daisy_suite
    bad = sum(reports[c].violations for c in ("partition", "coresub", "external"))
    per_point = 1000 * len(DEFAULT_POINTS)
    counted = all(
        reports[c].instances == per_point for c in ("partition", "coresub", "external")
    )
    check(
        1,
        "daisy-sequence partition/kernel/degree claims",
        bad == 0 and counted and duration < 60.0,
        f"{per_point} instances, {bad} violations, {duration:.1f}s",
    )


def test_c02_heavy_level_pigeonhole(daisy_suite):
    reports, _ = daisy_suite
    pigeonhole = reports["pigeonhole"]
    check(
        2,
        "heavy-level density >= 1/l exactly",
        pigeonhole.instances == 1000 * len(DEFAULT_POINTS) and pigeonhole.violations == 0,
        f"{pigeonhole.instances} instances, {pigeonhole.violations} violations",
    )


def test_c03_simple_daisy_bound():
    report = run_pluck_suite(200, SEED)
    check(
        3,
        "plucked daisies: disjoint petals and size bound",
        report.instances == 200 and report.violations == 0,
        f"{report.instances} daisies, {report.violations} violations",
    )


def _acceptance_tree(rng: Random, n: int, depth: int, used=frozenset()):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice((0, 1, REJECT))
    coord = rng.choice([c for c in range(n) if c not in used])
    return TreeNode(
        coord,
        _acceptance_tree(rng, n, depth - 1, used | {coord}),
        _acceptance_tree(rng, n, depth - 1, used | {coord}),
    )


def test_c04_flatten_equivalence_exhaustive():
    rng = derive_rng(SEED, "flatten")
    n, k, depth, coins = 12, 3, 3, 8
    trees = tuple(
        tuple((Fraction(1, coins), _acceptance_tree(rng, n, depth)) for _ in range(coins))
        for _ in range(k)
    )
    adaptive = AdaptiveDecoder(k=k, n=n, locality=depth, trees=trees)
    flat = flatten_adaptive(adaptive)

    mismatches = 0
    checked = 0
    oversized = 0
    for i in range(k):
        for (wt, tree), (wt2, view) in zip(adaptive.trees[i], flat.views[i]):
            assert wt == wt2
            if len(view.coords) > 2 ** depth:
                oversized += 1
            for word in itertools.product((0, 1), repeat=n):
                expect, _ = run_tree(tree, word)
                if view.read_and_evaluate(word) != expect:
                    mismatches += 1
                checked += 1
    check(
        4,
        "flattened decoder output identical on all inputs and coins",
        mismatches == 0 and oversized == 0 and checked == k * coins * 2 ** n,
        f"{checked} replays, {mismatches} mismatches",
    )


def test_c05_amplification():
    # exact completeness: all coins, all valid codewords, k <= 8
    complete = True
    for code, dec in (hadamard_code(4), repetition_code(2, 3)):
        amp = amplify(dec, Fraction(1, 16))
        for x in itertools.product((0, 1), repeat=code.k):
            w = code.encode(x)
            for i in range(code.k):
                if output_distribution(amp, w, i) != {x[i]: Fraction(1)}:
                    complete = False

    # empirical wrong rate at radius 1/16 over 10^4 trials
    code, dec = hadamard_code(6)
    amp = amplify(dec, Fraction(1, 16))
    flips = code.n // 16
    trials = 10_000
    wrong = 0
    for t in range(trials):
        rng = derive_rng(SEED, "amp", t)
        x = tuple(rng.randrange(2) for _ in range(code.k))
        word = random_corruption(code.encode(x), flips, rng)
        i = rng.randrange(code.k)
        views, times = runs(amp, i)
        view = sample_view(views, rng, times)
        out = evaluate(view, word)
        if out is not REJECT and out != x[i]:
            wrong += 1
    rate = wrong / trials
    bound = 1 / 16 + 0.02
    check(
        5,
        "amplification: exact completeness + empirical error",
        complete and rate <= bound,
        f"completeness={'exact' if complete else 'BROKEN'}, rate={rate:.5f} <= {bound:.4f}",
    )


def test_c06_randomness_reduction():
    code, dec = hadamard_code(6)
    t = 4 * code.n
    passes = 0
    coin_bits_ok = True
    for s in range(100):
        rng = derive_rng(SEED, "reduce", s)
        corpus = make_in_radius_corpus(code, 50, rng)
        epsilon = max(
            wrong_rate(dec, word, i, x[i]) for word, x in corpus for i in range(code.k)
        )
        try:
            reduced, report = reduce_randomness(dec, t, corpus, 2 * epsilon, rng)
        except ReductionFailedError:
            continue
        passes += 1
        if randomness_complexity(reduced) > math.ceil(math.log2(code.n)) + 2:
            coin_bits_ok = False
    check(
        6,
        "randomness reduction passes with log(n)+2 coin bits",
        passes >= 95 and coin_bits_ok,
        f"{passes}/100 seeds passed within 3 retries",
    )


def test_c07_global_decoder_empty_kernel():
    code, dec = hadamard_code(10)
    start = time.perf_counter()
    stats = run_global_trials(code, dec, 200, SEED, audit=True)
    duration = time.perf_counter() - start

    p = default_sampling_probability(code.n, dec.locality)
    expected = p * code.n
    sigma_mean = math.sqrt(code.n * p * (1 - p) / 200)
    mean_ok = abs(stats.mean_queries - expected) <= 3 * sigma_mean
    check(
        7,
        "global decoder on hadamard m=10 (kernel-free path)",
        stats.success_rate >= 0.90
        and stats.wrong_bits == 0
        and mean_ok
        and duration < 120.0,
        f"success={stats.success_rate:.3f}, mean|Q|={stats.mean_queries:.1f} "
        f"(target {expected:.1f} +- {3 * sigma_mean:.1f}), {duration:.1f}s",
    )


def test_c08_global_decoder_pivot_kernel():
    code, dec = shared_pivot_code(2, 64, 16)
    stats = run_global_trials(code, dec, 200, SEED, audit=True)
    check(
        8,
        "global decoder on shared-pivot (kernel enumeration path)",
        stats.success_rate >= 2 / 3
        and stats.soundness_violations == 0
        and stats.wrong_bits == 0,
        f"success={stats.success_rate:.3f}, unanimous-wrong events="
        f"{stats.soundness_violations}",
    )


def test_c09_wrapup_information_bound():
    total_instances = 0
    violations = 0
    margins = []
    for k in range(1, 11):
        report = wrapup_sanity(k)
        total_instances += report.instances
        violations += report.violations
        margins.append(report.worst_margin)
    check(
        9,
        "every (k-1)-query strategy errs on >= half of messages, k <= 10",
        violations == 0 and all(m == 0.0 for m in margins),
        f"{total_instances} strategies, {violations} counterexamples",
    )


def test_c10_scaling_exponent():
    result = scaling_study("hadamard", [256, 1024, 4096], 100, SEED)
    target = 1 - 1 / 8
    ok = result.exponent is not None and abs(result.exponent - target) <= 0.08
    check(
        10,
        "fitted query exponent near 7/8",
        ok,
        f"exponent={result.exponent:.4f}, target={target:.4f} +- 0.08",
    )
