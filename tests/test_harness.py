import random
from dataclasses import replace
from fractions import Fraction

import pytest

from rldc.daisy import build_daisy_sequence
from rldc import harness
from rldc.harness import (
    MAX_LABELS,
    ExperimentConfig,
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
from rldc.set_system import DaisyCertificate, verify_daisy


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


def test_random_daisy_instance_always_valid():
    for i in range(25):
        rng = random.Random(1000 + i)
        system, kernel, s, t = random_daisy_instance(rng)
        cert = DaisyCertificate(
            frozenset(range(len(system.sets))), kernel, s, Fraction(t)
        )
        assert verify_daisy(system, cert).ok


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


def test_verify_claims_small_config_clean():
    config = ExperimentConfig(
        trials=5,
        claim_instances=10,
        daisy_samples=10,
        wrapup_max=4,
    )
    reports = verify_claims(config)
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
    config = ExperimentConfig(claim_instances=5, toggles=frozenset({"wrapup"}), wrapup_max=3)
    reports = verify_claims(config)
    assert [r.claim for r in reports] == ["wrapup"]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(seed=-1)


def test_global_trials_report_structure():
    code, dec = parse_code_spec("hadamard:m=5")
    stats = run_global_trials(code, dec, 8, master_seed=21, timing=True)
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
