import functools
import math
import random
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rldc.daisy import HeavyDaisy
from rldc.decoders import (
    REJECT,
    ExplicitViews,
    LocalView,
    NonAdaptiveDecoder,
    hadamard_code,
    identity_code,
    shared_pivot_code,
)
from rldc.exact import PowerBound
from rldc.global_decoder import (
    DECODED,
    KERNEL_TOO_LARGE,
    NO_CONSENSUS,
    IndexDecodePackage,
    IndexOutcome,
    build_decode_packages,
    build_index_package,
    decode_index,
    default_extraction_scale,
    default_sampling_probability,
    fully_queried_petals,
    run_global_decoder,
    sample_coordinates,
)
from rldc.harness import _audit_index, run_global_trials


def test_sample_extremes():
    assert sample_coordinates(10, 0.0, random.Random(0)) == frozenset()
    assert sample_coordinates(10, 1.0, random.Random(0)) == frozenset(range(10))


def test_sample_concentration():
    n = 10_000
    sizes = [len(sample_coordinates(n, 0.5, random.Random(seed))) for seed in range(20)]
    sigma = math.sqrt(n * 0.25)
    assert all(abs(s - 5000) <= 4 * sigma for s in sizes)
    assert abs(statistics.mean(sizes) - 5000) <= sigma


def test_sample_validation():
    with pytest.raises(ValueError):
        sample_coordinates(4, 1.5, random.Random(0))


def test_default_probability():
    assert default_sampling_probability(1024, 2) == pytest.approx(1024 ** -0.125)


def test_default_extraction_scale_floor():
    # sparse support: floored at n**(-1/l); dense support: ratio wins
    scale = default_extraction_scale(64, 1026, 3)
    assert isinstance(scale, PowerBound)
    assert scale.cmp(Fraction(64, 1026)) > 0
    assert default_extraction_scale(512, 1024, 2) == Fraction(1, 2)


def test_fully_queried_petals_star():
    _, dec = shared_pivot_code(1, 7, 1)
    pkg = build_index_package(dec, 0)
    assert pkg.kernel_order == (0,)
    everything = frozenset(range(8))
    assert fully_queried_petals(pkg, everything) == pkg.daisy.members
    assert fully_queried_petals(pkg, frozenset()) == ()
    # copies live at coords 1..7; sampling {1, 3} captures exactly two petals
    got = fully_queried_petals(pkg, frozenset({1, 3}))
    assert tuple(sorted(next(iter(pkg.petals[m])) for m in got)) == (1, 3)


def test_empty_petals_never_queried():
    # A member entirely inside the kernel is never usable.
    views = ExplicitViews(
        [
            (Fraction(1, 2), LocalView((0,), (0, 1))),
            (Fraction(1, 2), LocalView((0, 1), (0, 1, 1, 0))),
        ]
    )
    dec = NonAdaptiveDecoder(k=1, n=2, locality=2, views=(views,))
    # threshold sqrt(2): only the degree-2 element 0 enters the kernel
    pkg = build_index_package(dec, 0, scale=Fraction(1))
    assert pkg.kernel_order == (0,)
    assert pkg.petals[0] == frozenset()
    assert 0 not in fully_queried_petals(pkg, frozenset({0, 1}))


def test_decode_index_hadamard_empty_kernel():
    code, dec = hadamard_code(5)
    x = (1, 0, 1, 1, 0)
    w = code.encode(x)
    pkgs = build_decode_packages(dec)
    sampled = {j: w[j] for j in range(code.n)}  # everything sampled
    for pkg in pkgs:
        assert pkg.kernel_order == ()
        out = decode_index(pkg, sampled, kernel_cap=20)
        assert out.status == DECODED and out.bit == x[pkg.index]
        assert out.assignments_tried == 1


def test_decode_index_no_petal_returns_no_consensus():
    _, dec = hadamard_code(3)
    pkg = build_index_package(dec, 0)
    out = decode_index(pkg, {}, kernel_cap=20)
    assert out.status == NO_CONSENSUS and out.fully_queried == 0


def test_decode_index_kernel_cap():
    _, dec = shared_pivot_code(3, 4, 2)
    pkg = build_index_package(dec, 0)
    assert len(pkg.kernel_order) == 3
    out = decode_index(pkg, {}, kernel_cap=2)
    assert out.status == KERNEL_TOO_LARGE


def test_decode_index_shared_pivot_assignments():
    code, dec = shared_pivot_code(2, 8, 4)
    x = (1, 0, 1, 0)
    w = code.encode(x)
    pkgs = build_decode_packages(dec)
    sampled = {j: w[j] for j in range(code.n)}
    for pkg in pkgs:
        assert pkg.kernel_order == (0, 1)  # the pivot block
        assert all(len(p) == 1 for p in pkg.petals.values())
        out = decode_index(pkg, sampled, kernel_cap=20)
        # kappa = 00 comes first lexicographically and matches the codeword
        assert out.status == DECODED and out.bit == x[pkg.index]
        assert out.assignments_tried == 1
        # under any other assignment every view rejects: no wrong consensus
        for a in range(1, 4):
            kappa = {0: (a >> 1) & 1, 1: a & 1}
            outs = [
                pkg.views[m].read_and_evaluate(
                    {
                        c: sampled[c] if c in pkg.petals[m] else kappa[c]
                        for c in pkg.views[m].coords
                    }
                )
                for m in fully_queried_petals(pkg, frozenset(sampled))
            ]
            assert all(o is REJECT for o in outs)


def test_strict_mode_two_sided():
    # One member, petal {1}, kernel {0}; predicate = XOR of the two reads.
    # kappa=0 gives unanimity on 1, kappa=1 unanimity on 0: strict refuses.
    views = ExplicitViews([(Fraction(1), LocalView((0, 1), (0, 1, 1, 0)))])
    dec = NonAdaptiveDecoder(k=1, n=2, locality=2, views=(views,))
    pkg = IndexDecodePackage(
        index=0,
        daisy=build_index_package(dec, 0, scale=Fraction(1, 4)).daisy,
        petals={0: frozenset({1})},
        kernel_order=(0,),
        views=tuple(v for _, v in views),
    )
    sampled = {1: 1}
    default = decode_index(pkg, sampled, kernel_cap=5, strict=False)
    assert default.status == DECODED and default.bit == 1 and default.assignments_tried == 1
    strict = decode_index(pkg, sampled, kernel_cap=5, strict=True)
    assert strict.status == NO_CONSENSUS and strict.assignments_tried == 2


def test_run_identity_full_sampling():
    code, dec = identity_code(3)
    out = run_global_decoder(dec, code, code.encode((1, 0, 1)), random.Random(0), p=1.0)
    assert out.message == (1, 0, 1)
    assert out.reads == {0: 1, 1: 0, 2: 1}
    assert out.total_queries == 3 and not out.aborted


def test_budget_abort():
    code, dec = identity_code(8)
    word = code.encode((0,) * 8)
    out = run_global_decoder(dec, code, word, random.Random(0), p=1.0, query_budget=4)
    assert out.aborted and out.message is None and out.results == ()
    assert out.total_queries == 8
    # a sample exactly at the budget still decodes
    out = run_global_decoder(dec, code, word, random.Random(0), p=1.0, query_budget=8)
    assert not out.aborted and out.message == (0,) * 8


def test_determinism_same_seed():
    code, dec = hadamard_code(6)
    x = (1, 0, 0, 1, 1, 0)
    w = code.encode(x)
    pkgs = build_decode_packages(dec)
    a = run_global_decoder(dec, code, w, random.Random(99), packages=pkgs)
    b = run_global_decoder(dec, code, w, random.Random(99), packages=pkgs)
    assert a == b


def test_hadamard_monte_carlo_success():
    code, dec = hadamard_code(7)
    stats = run_global_trials(code, dec, 30, master_seed=5, audit=True)
    assert stats.success_rate >= 0.9
    assert stats.wrong_bits == 0
    assert stats.completeness_violations == 0
    assert stats.soundness_violations == 0


def test_shared_pivot_monte_carlo_success():
    code, dec = shared_pivot_code(2, 32, 8)
    stats = run_global_trials(code, dec, 30, master_seed=6, audit=True)
    assert stats.success_rate >= 0.9
    assert stats.wrong_bits == 0
    assert stats.soundness_violations == 0


def test_trials_deterministic():
    code, dec = hadamard_code(5)
    a = run_global_trials(code, dec, 10, master_seed=3, audit=False)
    b = run_global_trials(code, dec, 10, master_seed=3, audit=False)
    assert a.rows == b.rows and a.successes == b.successes


# ---------------------------------------------------------------------------
# the completion core against the brute-force enumerator it replaced


def _reference_outputs(pkg, queried, sampled_values, a):
    """Completed outputs under assignment a, built value by value."""
    width = len(pkg.kernel_order)
    kappa = {e: (a >> (width - 1 - j)) & 1 for j, e in enumerate(pkg.kernel_order)}
    return [
        pkg.views[m].read_and_evaluate(
            {c: sampled_values[c] if c in pkg.petals[m] else kappa[c] for c in pkg.views[m].coords}
        )
        for m in queried
    ]


def reference_decode(pkg, sampled_values, kernel_cap, strict):
    kernel = pkg.kernel_order
    if len(kernel) > kernel_cap:
        return IndexOutcome(KERNEL_TOO_LARGE, None, 0, 0)
    queried = fully_queried_petals(pkg, frozenset(sampled_values))
    if not queried:
        return IndexOutcome(NO_CONSENSUS, None, 0, 0)
    unanimous = set()
    assignments = 1 << len(kernel)
    for a in range(assignments):
        outputs = _reference_outputs(pkg, queried, sampled_values, a)
        first = outputs[0]
        if first is not REJECT and all(out == first for out in outputs):
            if not strict:
                return IndexOutcome(DECODED, first, len(queried), a + 1)
            unanimous.add(first)
    if strict and len(unanimous) == 1:
        return IndexOutcome(DECODED, unanimous.pop(), len(queried), assignments)
    return IndexOutcome(NO_CONSENSUS, None, len(queried), assignments)


def reference_audit(pkg, sampled_values, word, true_bit, kernel_cap):
    kernel = pkg.kernel_order
    if len(kernel) > kernel_cap:
        return True, 0
    queried = fully_queried_petals(pkg, frozenset(sampled_values))
    if not queried:
        return True, 0
    true_kappa = {e: word[e] for e in kernel}
    complete = all(
        pkg.views[m].read_and_evaluate(
            {c: sampled_values[c] if c in pkg.petals[m] else true_kappa[c] for c in pkg.views[m].coords}
        )
        == true_bit
        for m in queried
    )
    wrong = sum(
        all(out == 1 - true_bit for out in _reference_outputs(pkg, queried, sampled_values, a))
        for a in range(1 << len(kernel))
    )
    return complete, wrong


@functools.lru_cache(maxsize=None)
def _pivot_package(kappa, r, k, i):
    code, dec = shared_pivot_code(kappa, r, k)
    return code, build_index_package(dec, i)


@st.composite
def pivot_cases(draw):
    """A shared-pivot index with kappa <= 6, a corrupted codeword and a sample."""
    kappa, r, k = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    code, pkg = _pivot_package(kappa, r, k, draw(st.integers(0, k - 1)))
    x = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    word = list(code.encode(tuple(x)))
    for j in draw(st.sets(st.integers(0, code.n - 1), max_size=3)):
        word[j] ^= 1
    return pkg, word, x[pkg.index], draw(st.sets(st.integers(0, code.n - 1)))


@st.composite
def explicit_cases(draw):
    """Random views with REJECT in their tables and an arbitrary kernel; a
    member lying inside the kernel has an empty petal."""
    n = draw(st.integers(2, 7))
    coord_sets = draw(
        st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=3), min_size=1, max_size=6)
    )
    views = tuple(
        LocalView(
            tuple(sorted(coords)),
            tuple(draw(st.lists(st.sampled_from((0, 1, REJECT)), min_size=1 << len(coords),
                                max_size=1 << len(coords)))),
        )
        for coords in coord_sets
    )
    kernel = frozenset(draw(st.sets(st.integers(0, n - 1), max_size=4)))
    members = tuple(range(len(views)))
    pkg = IndexDecodePackage(
        index=0,
        daisy=HeavyDaisy(1, members, kernel, 3, PowerBound(Fraction(1), n, Fraction(0)), Fraction(1)),
        petals={m: frozenset(views[m].coords) - kernel for m in members},
        kernel_order=tuple(sorted(kernel)),
        views=views,
    )
    word = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return pkg, word, draw(st.integers(0, 1)), draw(st.sets(st.integers(0, n - 1)))


# mostly the default cap, sometimes one that cuts the kernel off
kernel_caps = st.one_of(st.just(20), st.integers(0, 6))


def _check_against_reference(case, kernel_cap):
    """case is (package, word, true bit, sampled coordinates)."""
    pkg, word, true_bit, sample = case
    sampled_values = {j: word[j] for j in sample}
    for strict in (False, True):
        assert decode_index(pkg, sampled_values, kernel_cap, strict) == reference_decode(
            pkg, sampled_values, kernel_cap, strict
        )
    assert _audit_index(pkg, sampled_values, word, true_bit, kernel_cap) == reference_audit(
        pkg, sampled_values, word, true_bit, kernel_cap
    )


@settings(max_examples=300, deadline=None)
@given(pivot_cases(), kernel_caps)
def test_completion_core_matches_reference_shared_pivot(case, kernel_cap):
    _check_against_reference(case, kernel_cap)


@settings(max_examples=300, deadline=None)
@given(explicit_cases(), kernel_caps)
def test_completion_core_matches_reference_explicit_views(case, kernel_cap):
    _check_against_reference(case, kernel_cap)
