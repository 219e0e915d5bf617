import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from rldc.daisy import build_daisy_sequence
from rldc import harness
from rldc.harness import (
    MAX_LABELS,
    WRAPUP_MAX_K,
    ClaimReport,
    GlobalTrialStats,
    audit_daisy_levels,
    make_in_radius_corpus,
    random_daisy_instance,
    random_set_system,
    run_daisy_claim_suite,
    run_decoder_claim_suite,
    run_global_trials,
    run_pluck_suite,
    scaling_study,
    verify_claims,
    wrapup_sanity,
)
from rldc.decoders import parse_code_spec
from rldc.rng import derive_rng, derive_seed
from rldc.set_system import verify_daisy

import oracles
from sample_draws import outcome, same_masses, same_set_system, set_system_cases


def test_rng_streams_are_stable_and_distinct():
    assert derive_seed(7, "trial", 0) == derive_seed(7, "trial", 0)
    assert derive_seed(7, "trial", 0) != derive_seed(7, "trial", 1)
    assert derive_seed(7, "a") != derive_seed(8, "a")
    a = derive_rng(1, "x").random()
    b = derive_rng(1, "x").random()
    assert a == b


def test_random_set_system_shape():
    system = random_set_system(32, 32, 3, random.Random(0))
    assert len(system.sets) == 32
    assert all(len(s) == 3 == len(set(s)) for s in system.sets)


def test_random_set_system_draws_as_rng_sample():
    # both sides of both pool bounds, and the errors of sizes 0 and above n
    assert [case for case in set_system_cases() if not same_set_system(*case)] == []


def test_random_masses_draw_as_randrange():
    assert all(same_masses(count, seed) for seed in range(5) for count in (0, 1, 1344))


def test_random_daisy_instance_keeps_the_rebuilt_available_list():
    for seed in range(40):
        assert outcome(random_daisy_instance, seed) == outcome(oracles.random_daisy_instance, seed)


def test_random_daisy_instance_always_valid():
    for i in range(25):
        rng = random.Random(1000 + i)
        system, kernel, s, t = random_daisy_instance(rng)
        assert verify_daisy(system, range(len(system.sets)), kernel, s, t).ok


def test_daisy_suite_small_scale_clean():
    reports = run_daisy_claim_suite([(64, 2), (64, 3)], 25, master_seed=5)
    for claim in ("coresub", "partition", "external", "pigeonhole"):
        assert reports[claim].instances == 50
        assert reports[claim].violations == 0, reports[claim].to_json()


def test_daisy_suite_ell_one_edge():
    reports = run_daisy_claim_suite([(64, 1)], 10, master_seed=2)
    assert all(r.violations == 0 for r in reports.values())


def test_negative_control_tamper_detected():
    # Dropping an element from a kernel must surface as a degree violation
    # with a reproduction label.
    def tamper(system, levels):
        out = []
        for lvl in levels:
            if lvl.kernel and lvl.members:
                out.append(replace(lvl, kernel=frozenset(list(lvl.kernel)[1:])))
            else:
                out.append(lvl)
        return tuple(out)

    reports = run_daisy_claim_suite([(64, 4)], 10, master_seed=1, tamper=tamper)
    assert reports["external"].violations >= 1
    assert reports["external"].violation_seeds
    labels = reports["external"].violation_seeds[0]
    assert labels[0] == "daisy" and labels[1] == 64


def test_tamper_breaking_the_partition_is_recorded():
    # dropping a member of the last level breaks the partition: the suite
    # records it with its replay label and looks for no heavy level there
    def tamper(system, levels):
        return levels[:-1] + (replace(levels[-1], members=levels[-1].members[1:]),)

    reports = run_daisy_claim_suite([(64, 2)], 2, master_seed=1, tamper=tamper)
    assert reports["partition"].instances == 2 and reports["partition"].violations == 2
    assert reports["partition"].violation_seeds == [("daisy", 64, 2, idx, "cover", 63, 64) for idx in range(2)]
    assert reports["pigeonhole"].instances == 0


def test_tamper_kernel_at_the_coresub_bound_is_recorded():
    # at (64, 2) level 1's kernel must have fewer than 2 * 64**(1/2) = 16 elements;
    # exactly 16 is a violation, recorded with its replay label
    def tamper(system, levels):
        return (replace(levels[0], kernel=frozenset(range(16))),) + levels[1:]

    reports = run_daisy_claim_suite([(64, 2)], 2, master_seed=1, tamper=tamper)
    assert reports["coresub"].instances == 2 and reports["coresub"].violations == 2
    assert reports["coresub"].violation_seeds == [("daisy", 64, 2, idx, 1, 16) for idx in range(2)]


def test_audit_catches_fake_partition():
    system = random_set_system(16, 16, 2, random.Random(3))
    levels = build_daisy_sequence(system, 2, Fraction(1))
    truncated = (levels[0], replace(levels[1], members=levels[1].members[:-1]))
    found = audit_daisy_levels(system, 2, truncated)
    assert found["partition"]


def test_pluck_suite_clean():
    report = run_pluck_suite(25, master_seed=9)
    assert report.instances == 25 and report.violations == 0


def test_wrapup_examples():
    # k=1, zero queries: blind guessing errs on exactly half
    report = wrapup_sanity(1)
    assert report.instances == 1 and report.violations == 0
    assert report.worst_margin == 0.0

    # k=3: reading two bits and guessing the third errs on exactly half
    report = wrapup_sanity(3)
    assert report.violations == 0 and report.worst_margin == 0.0

    report = wrapup_sanity(8)
    assert report.instances == 8 and report.violations == 0

    with pytest.raises(ValueError):
        wrapup_sanity(11)


def test_in_radius_corpus_is_in_radius():
    code, _ = parse_code_spec("hadamard:m=5")
    corpus = make_in_radius_corpus(code, 10, random.Random(4))
    flips = code.radius_flips()
    for word, x in corpus:
        reference = code.encode(x)
        assert sum(1 for a, b in zip(word, reference) if a != b) == flips


def test_scaling_identity_exact_exponent():
    result = scaling_study("identity", [64, 128, 256], 3, master_seed=0, p=1.0)
    assert result.exponent == 1.0
    assert all(row.mean_queries == row.n for row in result.rows)


def test_scaling_single_point_skips_fit():
    result = scaling_study("hadamard", [256], 5, master_seed=0)
    assert result.exponent is None and result.residuals == ()
    assert result.rows[0].n == 256


def test_scaling_rejects_repeated_size():
    with pytest.raises(ValueError, match="repeated size"):
        scaling_study("hadamard", [4, 4], 2, master_seed=0)


def test_scaling_rejects_nonpositive_size():
    with pytest.raises(ValueError, match="sizes must be >= 1"):
        scaling_study("hadamard", [0, 4, 8], 2, master_seed=0)


@pytest.mark.parametrize("p", [0.0, 1e-9])
def test_scaling_without_queries_skips_fit(p):
    result = scaling_study("hadamard", [4, 8], 2, master_seed=0, p=p)
    assert [row.mean_queries for row in result.rows] == [0.0, 0.0]
    assert result.exponent is None and result.residuals == ()


def test_scaling_rejects_bad_family():
    with pytest.raises(ValueError):
        scaling_study("nope", [8], 1, 0)


def test_scaling_skips_infeasible_sizes():
    result = scaling_study("hadamard", [100, 64, 128], 3, master_seed=0)
    assert [row.n for row in result.rows] == [64, 128]
    assert result.skipped[0][0] == 100
    assert "power-of-two" in result.skipped[0][1]


SMALL = dict(claims=None, seed=0, instances=10, daisies=10, trials=5, wrapup_max=4)


def test_verify_claims_small_config_clean():
    reports = verify_claims(**SMALL)
    assert [r.claim for r in reports] == [
        "coresub",
        "partition",
        "external",
        "simple-daisy-bound",
        "completeness",
        "soundness",
        "wrapup",
    ]
    assert all(r.violations == 0 for r in reports)


def test_verify_claims_toggles():
    reports = verify_claims(**SMALL | dict(instances=5, claims=["wrapup"], wrapup_max=3))
    assert [r.claim for r in reports] == ["wrapup"]


def test_config_validation(monkeypatch):
    # each bad argument fails before any suite runs; the largest wrapup_max passes
    def no_work(*args, **kwargs):
        raise AssertionError("a suite ran before the argument checks")

    wrapup_ks = []
    monkeypatch.setattr(harness, "run_daisy_claim_suite", no_work)
    monkeypatch.setattr(harness, "wrapup_sanity", lambda k: wrapup_ks.append(k) or ClaimReport("wrapup"))
    with pytest.raises(ValueError):
        verify_claims(**SMALL | dict(trials=0))
    with pytest.raises(ValueError):
        verify_claims(**SMALL | dict(seed=-1))
    with pytest.raises(ValueError, match="wrapup_max"):
        verify_claims(**SMALL | dict(wrapup_max=WRAPUP_MAX_K + 1))
    assert wrapup_ks == []
    verify_claims(**SMALL | dict(claims=["wrapup"], wrapup_max=WRAPUP_MAX_K))
    assert wrapup_ks == list(range(1, WRAPUP_MAX_K + 1))


def test_global_trials_report_structure():
    code, dec = parse_code_spec("hadamard:m=5")
    stats = run_global_trials(code, dec, 8, master_seed=21)
    assert len(stats.rows) == 8
    assert stats.rows[0].trial == 0
    assert all(len(r.statuses) == code.k for r in stats.rows)
    assert stats.max_queries >= stats.mean_queries


def test_decoder_claim_suite_routes_labels_by_kind(monkeypatch):
    labels = [
        (4, "trial", 0, "soundness", 1),
        (4, "trial", 1, "completeness", 2),
        (4, "trial", 2, "wrong-bit", 3),
    ]

    def fake_trials(code, decoder, trials, master_seed, **_):
        return GlobalTrialStats(
            code.name, trials, master_seed, completeness_violations=1,
            soundness_violations=2, wrong_bits=1, violation_seeds=list(labels),
        )

    monkeypatch.setattr(harness, "run_global_trials", fake_trials)
    reports = run_decoder_claim_suite(3, master_seed=4)
    completeness, soundness = reports["completeness"], reports["soundness"]
    # two codes, each with the same three labels
    assert completeness.violations == 2 and soundness.violations == 6
    assert completeness.violation_seeds == [labels[1]] * 2
    assert soundness.violation_seeds == [labels[0], labels[2]] * 2


def test_trial_labels_capped_counts_exact():
    stats = GlobalTrialStats("c", 40, 9)
    for t in range(40):
        stats.wrong_bits += 1
        stats.label(t, "wrong-bit", 0)
    assert stats.wrong_bits == 40
    assert len(stats.violation_seeds) == MAX_LABELS
    assert stats.violation_seeds[-1] == (9, "trial", MAX_LABELS - 1, "wrong-bit", 0)


def test_each_violation_kind_keeps_its_own_labels(monkeypatch):
    # every index fails soundness, and index 0 also fails completeness from
    # trial 3 on: the soundness labels must not crowd out completeness's
    audits = Counter()

    def audit(pkg, outcome, word, true_bit):
        t, audits[pkg] = audits[pkg], audits[pkg] + 1  # one audit per trial
        return not (pkg.index == 0 and t >= 3), 1

    monkeypatch.setattr(harness, "_audit_index", audit)
    reports = run_decoder_claim_suite(10, 0)
    completeness, soundness = reports["completeness"], reports["soundness"]
    assert (completeness.violations, soundness.violations) == (2 * 7, 10 * (10 + 16))
    assert completeness.violation_seeds == [(0, "trial", t, "completeness", 0) for t in range(3, 8)] * 2
    assert soundness.violation_seeds == [(0, "trial", 0, "soundness", i) for i in range(5)] * 2


def test_merged_claim_labels_capped_counts_exact(monkeypatch):
    # the pigeonhole labels join partition's and every k's join wrapup's, in
    # order, up to MAX_LABELS in all; the counts add up in full
    def report(claim, count, *key):
        made = ClaimReport(claim, instances=1)
        for j in range(count):
            made.record(key + (j,))
        return made

    suites = {c: report(c, 10, c) for c in ("coresub", "partition", "external")}
    monkeypatch.setattr(harness, "run_daisy_claim_suite", lambda *_: suites | {
        "pigeonhole": report("pigeonhole", MAX_LABELS, "pigeonhole")})
    monkeypatch.setattr(harness, "wrapup_sanity", lambda k: report("wrapup", MAX_LABELS, "wrapup", k))
    partition, wrapup = verify_claims(**SMALL | dict(claims=["partition", "wrapup"], wrapup_max=3))
    assert (partition.violations, wrapup.violations) == (10 + MAX_LABELS, 3 * MAX_LABELS)
    assert partition.violation_seeds == [("partition", j) for j in range(10)] + [
        ("pigeonhole", j) for j in range(MAX_LABELS - 10)
    ], "the pigeonhole labels were not capped"
    assert wrapup.violation_seeds == [("wrapup", 1, j) for j in range(MAX_LABELS)], "the wrapup labels were not capped"
