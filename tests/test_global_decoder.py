import functools
import gc
import itertools
import math
import random
import statistics
import tracemalloc
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import views_of
from sample_draws import EDGE_PROBABILITIES, MAX_N, drawn_probabilities, same_draws

from rldc import set_system
from rldc.daisy import HeavyDaisy, build_daisy_sequence, default_extraction_scale, pick_heavy_level
from rldc.decoders import (
    REJECT,
    AdaptiveDecoder,
    ExplicitViews,
    LocalView,
    NonAdaptiveDecoder,
    TreeNode,
    hadamard_code,
    identity_code,
    parse_code_spec,
    shared_pivot_code,
)
from rldc.exact import PowerBound
from rldc.global_decoder import (
    DECODED,
    KERNEL_TOO_LARGE,
    NO_CONSENSUS,
    IndexDecodePackage,
    IndexOutcome,
    SampleBytes,
    build_decode_packages,
    build_index_package,
    complete_views,
    decode_index,
    default_sampling_probability,
    fully_queried_petals,
    run_global_decoder,
    sample_coordinates,
)
from rldc.harness import _audit_index, run_global_trials
from rldc.preprocessing import flatten_adaptive
from rldc.set_system import SetSystem, WeightedSetSystem


# A package with the views and the daisy it was compiled from, which the
# package itself does not keep; the references below read them.
Compiled = namedtuple("Compiled", "pkg views daisy")


def compiled_index(dec, i):
    """Index i's package, with its views and the heavy daisy rebuilt the way
    build_index_package builds it."""
    daisy = pick_heavy_level(build_daisy_sequence(dec.views[i], dec.locality), dec.views[i].masses)
    return Compiled(build_index_package(dec, i), tuple(view for _, view in dec.views[i]), daisy)


def petals(compiled):
    """Each member's petal: its view's coordinates outside the kernel."""
    return {m: frozenset(compiled.views[m].coords) - compiled.daisy.kernel for m in compiled.daisy.members}


def sample_of(coords, word=None):
    """SampleBytes for the sampled coordinates `coords`, reading word there
    (every read bit 0 when word is None)."""
    flags = bytearray(max(coords, default=-1) + 1)
    for j in coords:
        flags[j] = 1
    return SampleBytes.of(dict.fromkeys(coords, 0) if word is None else word, flags)


class RecordedWord:
    """A word that records every coordinate read from it."""

    def __init__(self, word):
        self.word, self.reads = word, []

    def __len__(self):
        return len(self.word)

    def __getitem__(self, j):
        self.reads.append(j)
        return self.word[j]


def queried_lanes(pkg, sample):
    """(table id, c0) of each lane the compiled filter keeps, group by group
    in lane order."""
    lanes = []
    for g, full in zip(pkg.groups, fully_queried_petals(pkg, sample)):
        kept = compress(range(g.lo, g.hi), full.to_bytes(g.hi - g.lo, "little"))
        lanes += ((id(g.table), c0) for c0 in kept)
    return lanes


def reference_lanes(compiled, sample):
    """(table id, first petal coordinate) of each member the per-member
    filter keeps, in daisy order."""
    petal = petals(compiled)
    queried = reference_filter(compiled, frozenset(sample))
    return [(id(compiled.views[m].table), min(petal[m])) for m in queried]


def test_sample_extremes():
    word = (1, 0) * 5
    assert sample_coordinates(word, 0.0, random.Random(0)) == SampleBytes(bytes(10), bytes(10))
    assert sample_coordinates(word, 1.0, random.Random(0)) == SampleBytes(b"\1" * 10, bytes(word))


def test_sample_concentration():
    n = 10_000
    sizes = [len(sample_coordinates(bytes(n), 0.5, random.Random(seed))) for seed in range(20)]
    sigma = math.sqrt(n * 0.25)
    assert all(abs(s - 5000) <= 4 * sigma for s in sizes)
    assert abs(statistics.mean(sizes) - 5000) <= sigma


@st.composite
def draw_cases(draw):
    """(n, p, seed) with p at an edge, anywhere in [0, 1], or at a value the
    stream draws for some coordinate, or one of that value's neighbours."""
    n, seed = draw(st.integers(0, MAX_N)), draw(st.integers(0, 2**64 - 1))
    if n and draw(st.booleans()):
        p = draw(st.sampled_from(drawn_probabilities(seed, draw(st.integers(0, n - 1)))))
    else:
        p = draw(st.one_of(st.sampled_from(EDGE_PROBABILITIES), st.floats(0, 1)))
    return n, p, seed


@settings(max_examples=300, deadline=None)
@given(draw_cases())
def test_sample_matches_the_random_loop_draw_for_draw(case):
    # the same set as one rng.random() < p per coordinate, and the same next draw
    assert same_draws(*case)


def test_sample_validation():
    with pytest.raises(ValueError):
        sample_coordinates(bytes(4), 1.5, random.Random(0))


def test_default_probability():
    assert default_sampling_probability(1024, 2) == pytest.approx(1024 ** -0.125)


def test_default_extraction_scale_floor():
    # sparse support: floored at n**(-1/l); dense support: ratio wins
    scale = default_extraction_scale(64, 1026, 3)
    assert isinstance(scale, PowerBound)
    assert scale.cmp(Fraction(64, 1026)) > 0
    assert default_extraction_scale(512, 1024, 2) == PowerBound(Fraction(1, 2), 1024, 0)


def test_fully_queried_petals_star():
    _, dec = shared_pivot_code(1, 7, 1)
    compiled = compiled_index(dec, 0)
    assert compiled.pkg.kernel_order == (0,) and len(compiled.daisy.members) == 7
    everything = sample_of(range(8))
    assert queried_lanes(compiled.pkg, everything) == reference_lanes(compiled, range(8))
    assert len(queried_lanes(compiled.pkg, everything)) == 7
    assert queried_lanes(compiled.pkg, sample_of(())) == []
    # copies live at coords 1..7; sampling {1, 3} captures exactly two petals
    assert [c0 for _, c0 in queried_lanes(compiled.pkg, sample_of({1, 3}))] == [1, 3]


def test_empty_petals_never_queried():
    # A member entirely inside the kernel is never usable.
    views = views_of(
        2,
        [
            (Fraction(1, 2), LocalView((0,), (0, 1))),
            (Fraction(1, 2), LocalView((0, 1), (0, 1, 1, 0))),
        ]
    )
    dec = NonAdaptiveDecoder(k=1, n=2, locality=2, views=(views,))
    # the default scale is 1 (the ratio 2/2 is above the floor 2^(-1/2)), so
    # the threshold is sqrt(2): only the degree-2 element 0 enters the kernel
    compiled = compiled_index(dec, 0)
    assert compiled.pkg.kernel_order == (0,)
    assert petals(compiled)[0] == frozenset()
    assert reference_filter(compiled, {0, 1}) == (1,)
    assert queried_lanes(compiled.pkg, sample_of({0, 1})) == [(id(views.tables[1]), 1)]


def test_decode_index_hadamard_empty_kernel():
    code, dec = hadamard_code(5)
    x = (1, 0, 1, 1, 0)
    w = code.encode(x)
    pkgs = build_decode_packages(dec)
    sampled = sample_of(range(code.n), w)  # everything sampled
    for pkg in pkgs:
        assert pkg.kernel_order == ()
        out = decode_index(pkg, sampled, kernel_cap=20)
        assert out.status == DECODED and out.bit == x[pkg.index]
        assert out.assignments_tried == 1


def test_decode_index_no_petal_returns_no_consensus():
    _, dec = hadamard_code(3)
    pkg = build_index_package(dec, 0)
    out = decode_index(pkg, sample_of(()), kernel_cap=20)
    assert out.status == NO_CONSENSUS and out.fully_queried == 0


def test_decode_index_kernel_cap():
    _, dec = shared_pivot_code(3, 4, 2)
    pkg = build_index_package(dec, 0)
    assert len(pkg.kernel_order) == 3
    out = decode_index(pkg, sample_of(()), kernel_cap=2)
    assert out.status == KERNEL_TOO_LARGE


def test_decode_index_shared_pivot_assignments():
    code, dec = shared_pivot_code(2, 8, 4)
    x = (1, 0, 1, 0)
    w = code.encode(x)
    sampled = {j: w[j] for j in range(code.n)}
    for i in range(dec.k):
        compiled = compiled_index(dec, i)
        assert compiled.pkg.kernel_order == (0, 1)  # the pivot block
        assert all(len(p) == 1 for p in petals(compiled).values())
        sample = sample_of(sampled, sampled)
        out = decode_index(compiled.pkg, sample, kernel_cap=20)
        # kappa = 00 comes first lexicographically and matches the codeword
        assert out.status == DECODED and out.bit == x[i]
        assert out.assignments_tried == 1
        assert queried_lanes(compiled.pkg, sample) == reference_lanes(compiled, sampled)
        # under any other assignment every view rejects: no wrong consensus
        petal = petals(compiled)
        queried = [(m, compiled.views[m]) for m in reference_filter(compiled, frozenset(sampled))]
        for a in range(1, 4):
            kappa = {0: (a >> 1) & 1, 1: a & 1}
            outs = [
                view.read_and_evaluate({c: sampled[c] if c in petal[m] else kappa[c] for c in view.coords})
                for m, view in queried
            ]
            assert all(o is REJECT for o in outs)


def test_strict_mode_two_sided():
    # One member, petal {1}, kernel {0}; predicate = XOR of the two reads.
    # kappa=0 gives unanimity on 1, kappa=1 unanimity on 0: strict refuses.
    compiled = _package((LocalView((0, 1), (0, 1, 1, 0)),), frozenset({0}), 2)
    assert petals(compiled) == {0: frozenset({1})} and compiled.pkg.kernel_order == (0,)
    pkg = compiled.pkg
    sampled = sample_of([1], {1: 1})
    default = decode_index(pkg, sampled, kernel_cap=5, strict=False)
    assert default.status == DECODED and default.bit == 1 and default.assignments_tried == 1
    strict = decode_index(pkg, sampled, kernel_cap=5, strict=True)
    assert strict.status == NO_CONSENSUS and strict.assignments_tried == 2


def test_audit_resumes_past_the_decoders_stop():
    # the XOR package above decodes 1 at a=0 and stops; a=1 is unanimous on 0
    pkg = _package((LocalView((0, 1), (0, 1, 1, 0)),), frozenset({0}), 2).pkg
    outcome = decode_index(pkg, sample_of([1], {1: 1}), kernel_cap=5)
    assert outcome.unanimous == ((0, 1),) and outcome.assignments_tried == 1
    # true kernel 0, true bit 1: the wrong assignment lies past the stop
    assert _audit_index(pkg, outcome, [0, 1], 1) == (True, 1)
    # true kernel 1, true bit 0: the wrong assignment is the decoder's hit
    assert _audit_index(pkg, outcome, [1, 1], 0) == (True, 1)


def test_audit_flags_an_empty_kernel_decoding_the_wrong_bit():
    code, dec = hadamard_code(5)
    pkg = build_index_package(dec, 2)
    assert pkg.kernel_order == ()
    x = (1, 0, 1, 1, 0)
    word = code.encode((1, 0, 0, 1, 0))  # index 2 flipped: every view reads the wrong bit
    outcome = decode_index(pkg, sample_of(range(code.n), word), kernel_cap=20)
    assert outcome.status == DECODED and outcome.bit == 0 and outcome.unanimous == ((0, 0),)
    assert _audit_index(pkg, outcome, word, x[2]) == (False, 1)


def test_empty_kernel_outcome_is_one_assignment_without_completion():
    # each view reads (w[r], w[r ^ 4]); every full lane is counted, the one
    # assignment a = 0 is unanimous on the decoded bit and no triple is kept
    code, dec = hadamard_code(5)
    pkg = build_index_package(dec, 2)
    word = code.encode((1, 0, 1, 1, 0))
    outcome = decode_index(pkg, sample_of(range(code.n), word), kernel_cap=20)
    assert outcome.status == DECODED and outcome.bit == 1
    assert outcome.fully_queried == 16 and outcome.assignments_tried == 1
    assert outcome.unanimous == ((0, 1),) and outcome.completion == ()


# bit 0 of a table index is a view's first coordinate: read it, and REJECT
# when both coordinates read 0; swapping the two table bits changes the output
FIRST_OR_REJECT = (REJECT, 1, 0, 1)


def _lane_package(rows, table=FIRST_OR_REJECT, n=6):
    return _package(tuple(LocalView(row, table) for row in rows), frozenset(), n)


def _decode_lanes(compiled, word, sampled):
    """decode_index on an empty kernel, checked against the reference in
    both modes."""
    sampled_values = {j: word[j] for j in sampled}
    outcome = decode_index(compiled.pkg, sample_of(sampled, word), 20)
    assert outcome == decode_index(compiled.pkg, sample_of(sampled, word), 20, strict=True)
    assert outcome == reference_decode(compiled, sampled_values, 20, False)
    return outcome


def test_empty_kernel_groups_must_agree():
    # (0,1) reads 1 through XOR; (2,3) twice, under another table, reads 0 in two layers
    xor, xnor = (0, 1, 1, 0), (1, 0, 0, 1)
    views = (LocalView((0, 1), xor), LocalView((2, 3), xnor), LocalView((2, 3), xnor))
    compiled = _package(views, frozenset(), 4)
    assert [(g.table, g.lanes) for g in compiled.pkg.groups] == [(xor, 1), (xnor, 1), (xnor, 1)]
    outcome = _decode_lanes(compiled, [1, 0, 1, 0], range(4))
    assert (outcome.status, outcome.fully_queried, outcome.assignments_tried) == (NO_CONSENSUS, 3, 1)
    assert outcome.unanimous == ()
    # with (2,3) reading 1 as well every group agrees
    assert _decode_lanes(compiled, [1, 0, 1, 1], range(4)).bit == 1
    # and either side alone decodes its own bit
    assert _decode_lanes(compiled, [1, 0, 1, 0], {0, 1}).bit == 1
    assert _decode_lanes(compiled, [1, 0, 1, 0], {2, 3}).bit == 0


def test_empty_kernel_lane_reading_reject_blocks_decoding():
    compiled = _lane_package(((0, 1), (2, 3), (4, 5)))
    assert len(compiled.pkg.groups) == 1
    outcome = _decode_lanes(compiled, [1, 0, 1, 1, 0, 0], range(6))
    assert (outcome.status, outcome.bit, outcome.fully_queried) == (NO_CONSENSUS, None, 3)
    outcome = _decode_lanes(compiled, [1, 0, 1, 1, 1, 0], range(6))
    assert (outcome.status, outcome.bit, outcome.fully_queried) == (DECODED, 1, 3)


def test_empty_kernel_lane_not_fully_queried_cannot_block_decoding():
    # (4,5) reads 0 in the word, and as sampled, but coordinate 5 is not sampled
    compiled = _lane_package(((0, 1), (2, 3), (4, 5)))
    word = [1, 0, 1, 1, 0, 1]
    assert _decode_lanes(compiled, word, range(6)).status == NO_CONSENSUS
    outcome = _decode_lanes(compiled, word, range(5))
    assert (outcome.status, outcome.bit, outcome.fully_queried) == (DECODED, 1, 2)
    assert _decode_lanes(compiled, [0, 1, 0, 1, 1, 0], {0, 1, 2, 3, 5}).bit == 0


def test_views_that_query_nothing_decode():
    # a coin that reads no coordinate beside one that reads coordinate 0: the
    # empty row joins the heavy level, sits in no group and is never fully
    # queried, so its REJECT never blocks a decision
    trees = (((Fraction(1, 2), TreeNode(0, 0, 1)), (Fraction(1, 2), None)),)
    dec = flatten_adaptive(AdaptiveDecoder(k=1, n=2, locality=1, trees=trees))
    assert dec.views[0].sets == ((0,), ())
    (pkg,) = build_decode_packages(dec)
    assert pkg.kernel_order == () and len(pkg.groups) == 1
    for word in itertools.product((0, 1), repeat=2):
        for flags in itertools.product((0, 1), repeat=2):
            out = decode_index(pkg, SampleBytes.of(word, bytes(flags)), kernel_cap=20)
            assert out.fully_queried == flags[0]
            assert (out.status, out.bit) == ((DECODED, word[0]) if flags[0] else (NO_CONSENSUS, None))


def test_packages_read_the_view_lists_in_place(monkeypatch):
    # every row and mass was checked when the decoder was built: compiling
    # its packages builds no set system and checks no row again
    _, dec = hadamard_code(8)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for cls in (SetSystem, WeightedSetSystem, ExplicitViews):
        monkeypatch.setattr(cls, "__post_init__", counted(cls.__name__, cls.__post_init__))
    monkeypatch.setattr(set_system, "rows_increasing", counted("rows_increasing", set_system.rows_increasing))
    assert len(build_decode_packages(dec)) == dec.k
    assert not calls
    ExplicitViews(2, ((0,), (1,)), (1, 1), 2, ((0, 1),) * 2)  # the spies see a view list, checked once
    assert calls == {"ExplicitViews": 1, "WeightedSetSystem": 1, "SetSystem": 1, "rows_increasing": 1}


def test_packages_keep_little_beside_the_decoder():
    # the decoder holds its views as rows: one coordinate tuple per view, with
    # the tables and masses shared; a package keeps the kernel order and the
    # petal groups, not the views or the daisy it was compiled from
    tracemalloc.start()
    try:
        _, dec = parse_code_spec("hadamard:m=10")
        gc.collect()
        decoder_bytes = tracemalloc.get_traced_memory()[0]
        packages = build_decode_packages(dec)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - decoder_bytes
    finally:
        tracemalloc.stop()
    assert len(packages) == dec.k
    assert decoder_bytes <= 1_087_525 // 2  # half of what LocalView entries took
    assert retained < 5_000 * dec.k


def test_run_identity_full_sampling():
    code, dec = identity_code(3)
    out = run_global_decoder(build_decode_packages(dec), code.encode((1, 0, 1)), 1.0, random.Random(0))
    assert out.message == (1, 0, 1)
    assert out.sample == SampleBytes(b"\1\1\1", b"\1\0\1")
    assert out.total_queries == 3 and not out.aborted


def test_budget_abort():
    code, dec = identity_code(8)
    pkgs, word = build_decode_packages(dec), code.encode((0,) * 8)
    out = run_global_decoder(pkgs, word, 1.0, random.Random(0), query_budget=4)
    assert out.aborted and out.message is None and out.results == ()
    assert out.total_queries == 8
    # a sample exactly at the budget still decodes
    out = run_global_decoder(pkgs, word, 1.0, random.Random(0), query_budget=8)
    assert not out.aborted and out.message == (0,) * 8


@pytest.mark.parametrize("spec, p, budget", [("hadamard:m=6", 0.3, None), ("identity:k=8", 1.0, 4)])
def test_only_sampled_bits_are_read(spec, p, budget):
    code, dec = parse_code_spec(spec)
    rng = random.Random(7)
    word = RecordedWord(code.encode(tuple(rng.randrange(2) for _ in range(code.k))))
    out = run_global_decoder(build_decode_packages(dec), word, p, rng, query_budget=budget)
    assert out.aborted == (budget is not None)
    assert sorted(word.reads) == list(compress(range(code.n), out.sample.flags))
    assert len(out.sample) == out.total_queries == len(word.reads)


def test_determinism_same_seed():
    code, dec = hadamard_code(6)
    x = (1, 0, 0, 1, 1, 0)
    w = code.encode(x)
    pkgs = build_decode_packages(dec)
    p = default_sampling_probability(code.n, dec.locality)
    a = run_global_decoder(pkgs, w, p, random.Random(99))
    b = run_global_decoder(pkgs, w, p, random.Random(99))
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


def reference_filter(compiled, sampled):
    """The per-member filter the compiled groups replaced: members whose
    petal is nonempty and inside the sampled set, in daisy order."""
    petal = petals(compiled)
    return tuple(m for m in compiled.daisy.members if petal[m] and petal[m] <= sampled)


def kernel_order(compiled):
    return tuple(sorted(compiled.daisy.kernel))


def reference_completion(compiled, sampled_values):
    """The per-member completion the compiled groups replaced."""
    order = kernel_order(compiled)
    slot = {e: 1 << (len(order) - 1 - j) for j, e in enumerate(order)}
    petal = petals(compiled)
    completion = []
    for m in reference_filter(compiled, frozenset(sampled_values)):
        view = compiled.views[m]
        base, pairs = 0, []
        for j, c in enumerate(view.coords):
            if c not in petal[m]:
                pairs.append((1 << j, slot[c]))
            elif sampled_values[c]:
                base |= 1 << j
        completion.append((view.table, base, tuple(pairs)))
    return completion


def comparable(completion):
    """Completion triples with the table compared by object."""
    return [(id(table), base, tuple(pairs)) for table, base, pairs in completion]


def _reference_outputs(compiled, queried, sampled_values, a):
    """Completed outputs under assignment a, built value by value."""
    order = kernel_order(compiled)
    kappa = {e: (a >> (len(order) - 1 - j)) & 1 for j, e in enumerate(order)}
    petal = petals(compiled)
    return [
        compiled.views[m].read_and_evaluate(
            {c: sampled_values[c] if c in petal[m] else kappa[c] for c in compiled.views[m].coords}
        )
        for m in queried
    ]


def reference_decode(compiled, sampled_values, kernel_cap, strict):
    kernel = kernel_order(compiled)
    if len(kernel) > kernel_cap:
        return IndexOutcome(KERNEL_TOO_LARGE, None, 0, 0)
    queried = reference_filter(compiled, frozenset(sampled_values))
    if not queried:
        return IndexOutcome(NO_CONSENSUS, None, 0, 0)
    unanimous = set()
    assignments = 1 << len(kernel)
    for a in range(assignments):
        outputs = _reference_outputs(compiled, queried, sampled_values, a)
        first = outputs[0]
        if first is not REJECT and all(out == first for out in outputs):
            if not strict:
                return IndexOutcome(DECODED, first, len(queried), a + 1)
            unanimous.add(first)
    if strict and len(unanimous) == 1:
        return IndexOutcome(DECODED, unanimous.pop(), len(queried), assignments)
    return IndexOutcome(NO_CONSENSUS, None, len(queried), assignments)


def reference_audit(compiled, sampled_values, word, true_bit, kernel_cap):
    kernel = kernel_order(compiled)
    if len(kernel) > kernel_cap:
        return True, 0
    queried = reference_filter(compiled, frozenset(sampled_values))
    if not queried:
        return True, 0
    true_kappa = {e: word[e] for e in kernel}
    petal = petals(compiled)
    complete = all(
        compiled.views[m].read_and_evaluate(
            {c: sampled_values[c] if c in petal[m] else true_kappa[c] for c in compiled.views[m].coords}
        )
        == true_bit
        for m in queried
    )
    wrong = sum(
        all(out == 1 - true_bit for out in _reference_outputs(compiled, queried, sampled_values, a))
        for a in range(1 << len(kernel))
    )
    return complete, wrong


@functools.lru_cache(maxsize=None)
def _pivot_package(kappa, r, k, i):
    code, dec = shared_pivot_code(kappa, r, k)
    return code, compiled_index(dec, i)


@st.composite
def pivot_cases(draw):
    """A shared-pivot index with kappa <= 6, a corrupted codeword and a sample."""
    kappa, r, k = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 3))
    code, compiled = _pivot_package(kappa, r, k, draw(st.integers(0, k - 1)))
    x = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    word = list(code.encode(tuple(x)))
    for j in draw(st.sets(st.integers(0, code.n - 1), max_size=3)):
        word[j] ^= 1
    return compiled, word, x[compiled.pkg.index], draw(st.sets(st.integers(0, code.n - 1)))


def _package(views, kernel, n, members=None):
    """Index 0's package of a daisy of the given views (every view by
    default), with the views and the daisy."""
    members = tuple(range(len(views))) if members is None else members
    daisy = HeavyDaisy(1, members, kernel, 3, PowerBound(Fraction(1), n, Fraction(0)), Fraction(1))
    rows = views_of(n, [(Fraction(1, len(views)), view) for view in views])
    return Compiled(IndexDecodePackage.of(0, daisy, rows), views, daisy)


@st.composite
def explicit_cases(draw, empty_kernel=False):
    """Random views with REJECT in their tables and an arbitrary kernel (or
    none); a member lying inside the kernel has an empty petal."""
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
    kernel = frozenset() if empty_kernel else frozenset(draw(st.sets(st.integers(0, n - 1), max_size=4)))
    word = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return _package(views, kernel, n), word, draw(st.integers(0, 1)), draw(st.sets(st.integers(0, n - 1)))


@st.composite
def grouped_cases(draw, empty_kernel=False):
    """Views made by shifting a few shapes (up to 10 coordinates, so petals
    of 9 and more), with tables shared by object or drawn afresh, repeated
    views, and a kernel that views meet at different positions or contain
    whole (empty petals), or no kernel.  The sample misses only a few coordinates, so
    large petals are fully queried too."""
    n = draw(st.integers(2, 40))
    rng = random.Random(draw(st.integers(0, 2**32)))
    shared = {}
    views = []
    for _ in range(draw(st.integers(1, 5))):
        shape = sorted(draw(st.sets(st.integers(0, min(n, 12) - 1), min_size=1, max_size=10)))
        fresh = draw(st.booleans())
        for _ in range(draw(st.integers(1, 8))):
            shift = draw(st.integers(0, n - 1 - shape[-1]))
            coords = tuple(c + shift for c in shape)
            table = shared.get(len(coords))
            if table is None or fresh:
                table = tuple(rng.choice((0, 1, REJECT)) for _ in range(1 << len(coords)))
                shared.setdefault(len(coords), table)
            views.append(LocalView(coords, table))
            if draw(st.integers(0, 3)) == 0:
                views.append(draw(st.sampled_from((views[-1], LocalView(coords, table)))))
    kernel = frozenset(draw(st.sets(st.integers(0, n - 1), max_size=4)))
    if draw(st.booleans()):
        kernel |= frozenset(draw(st.sampled_from(views)).coords)
    if empty_kernel:
        kernel = frozenset()
    members = None
    if draw(st.booleans()):  # a daisy of some of the views
        members = tuple(sorted(draw(st.sets(st.integers(0, len(views) - 1), min_size=1))))
    missing = draw(st.sets(st.integers(0, n - 1), max_size=3))
    word = [rng.randrange(2) for _ in range(n)]
    return _package(tuple(views), kernel, n, members), word, rng.randrange(2), set(range(n)) - missing


# One shared table over rows where kernel coordinate 3 sits in column 1, 2 or 0
# or in none, and where the column-2 rows' petal offsets differ: five groups.
# Every view reads odd parity under the true assignment, so the index decodes 1.
PARITY3 = (0, 1, 1, 0, 1, 0, 0, 1)
MIXED_ROWS = ((1, 3, 5), (2, 3, 6), (0, 2, 3), (1, 2, 3), (4, 5, 7), (5, 6, 8), (3, 4, 6))
MIXED_BUCKET = (
    _package(tuple(LocalView(row, PARITY3) for row in MIXED_ROWS), frozenset({3}), 9),
    [0, 0, 1, 0, 1, 1, 0, 1, 0], 1, set(range(9)) - {3},
)

# mostly the default cap, sometimes one that cuts the kernel off
kernel_caps = st.one_of(st.just(20), st.integers(0, 6))


def _check_against_reference(case, kernel_cap):
    """case is (Compiled, word, true bit, sampled coordinates)."""
    compiled, word, true_bit, sample = case
    sampled_values = {j: word[j] for j in sample}
    sample_bytes = sample_of(sample, word)
    audit = reference_audit(compiled, sampled_values, word, true_bit, kernel_cap)
    for strict in (False, True):
        outcome = decode_index(compiled.pkg, sample_bytes, kernel_cap, strict)
        assert outcome == reference_decode(compiled, sampled_values, kernel_cap, strict)
        # the audit resumes this outcome's scan, in either mode
        assert _audit_index(compiled.pkg, outcome, word, true_bit) == audit


@settings(max_examples=300, deadline=None)
@given(pivot_cases(), kernel_caps)
def test_completion_core_matches_reference_shared_pivot(case, kernel_cap):
    _check_against_reference(case, kernel_cap)


@settings(max_examples=300, deadline=None)
@given(explicit_cases(), kernel_caps)
def test_completion_core_matches_reference_explicit_views(case, kernel_cap):
    _check_against_reference(case, kernel_cap)


@settings(max_examples=200, deadline=None)
@given(grouped_cases(), kernel_caps)
@example(MIXED_BUCKET, 20)
def test_completion_core_matches_reference_grouped_views(case, kernel_cap):
    if case is MIXED_BUCKET:
        assert len(case[0].pkg.groups) == 5
        assert decode_index(case[0].pkg, sample_of(case[3], case[1]), 20).bit == 1
    _check_against_reference(case, kernel_cap)


@settings(max_examples=300, deadline=None)
@given(st.one_of(explicit_cases(empty_kernel=True), grouped_cases(empty_kernel=True)), kernel_caps)
def test_empty_kernel_matches_reference(case, kernel_cap):
    # the one-assignment case: one triple per distinct lane key is kept
    assert case[0].pkg.kernel_order == ()
    _check_against_reference(case, kernel_cap)


def test_empty_kernel_reads_several_index_tables():
    # 9 petal bits need two index tables; REJECT entries and both bits occur
    rng = random.Random(4)
    table = tuple(rng.choice((0, 1, 1, 1, REJECT)) for _ in range(1 << 9))
    views = tuple(LocalView(tuple(range(s, s + 9)), table) for s in range(6))
    compiled = _package(views, frozenset(), 14)
    assert compiled.pkg.kernel_order == () and [len(g.index) for g in compiled.pkg.groups] == [2]
    for _ in range(40):
        word = [rng.randrange(2) for _ in range(14)]
        _check_against_reference((compiled, word, rng.randrange(2), set(range(14)) - {rng.randrange(20)}), 20)


def _check_compiled_filter(compiled, sampled_values, ordered):
    """Compiled filter lanes and completion triples against the per-member
    reference: equal as multisets, and in the same order when `ordered`."""
    sample = sample_of(sampled_values, sampled_values)
    got, want = queried_lanes(compiled.pkg, sample), reference_lanes(compiled, sampled_values)
    queried, completion = complete_views(compiled.pkg, sample)
    got_triples = comparable(completion)
    want_triples = comparable(reference_completion(compiled, sampled_values))
    assert got == want if ordered else Counter(got) == Counter(want)
    assert queried == len(want_triples)
    assert got_triples == want_triples if ordered else Counter(got_triples) == Counter(want_triples)


@settings(max_examples=300, deadline=None)
@given(st.one_of(explicit_cases(), grouped_cases()))
def test_compiled_filter_matches_per_member_reference(case):
    compiled, word, _, sample = case
    _check_compiled_filter(compiled, {j: word[j] for j in sample}, ordered=False)


def test_compiled_filter_keeps_repeated_views():
    # (0,1) twice, (2,3) and (1,2) share one table: all four fully queried
    table = (0, 1, 1, 0)
    views = tuple(LocalView(coords, table) for coords in ((0, 1), (0, 1), (2, 3), (1, 2)))
    compiled = _package(views, frozenset(), 4)
    assert len(compiled.pkg.groups) == 2  # the repeat of (0,1) needs a second layer of lanes
    sampled = {0: 1, 1: 0, 2: 1, 3: 1}
    assert decode_index(compiled.pkg, sample_of(sampled, sampled), 20).fully_queried == 4
    _check_compiled_filter(compiled, sampled, ordered=False)


@functools.lru_cache(maxsize=None)
def _builtin_packages(spec):
    code, dec = parse_code_spec(spec)
    return code, [compiled_index(dec, i) for i in range(dec.k)]


BUILTIN_SPECS = (
    "identity:k=5", "repetition:k=3,r=5", "hadamard:m=5", "shared-pivot:kappa=3,r=6,k=3",
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(BUILTIN_SPECS), st.data())
def test_compiled_filter_matches_reference_in_order_on_builtin_codes(spec, data):
    code, indices = _builtin_packages(spec)
    assert all(len(compiled.pkg.groups) == 1 for compiled in indices)
    word = data.draw(st.lists(st.integers(0, 1), min_size=code.n, max_size=code.n))
    sample = data.draw(st.sets(st.integers(0, code.n - 1)))
    for compiled in indices:
        _check_compiled_filter(compiled, {j: word[j] for j in sample}, ordered=True)


@pytest.mark.parametrize(
    "spec, lo", [("hadamard:m=12", 0), ("repetition:k=16,r=64", 0), ("shared-pivot:kappa=5,r=64,k=16", 5)]
)
def test_decode_matches_reference_at_full_width(spec, lo):
    # samples of the whole word from the sampler, at the default p and at 0.9:
    # Hadamard groups span 4095 lanes, repetition tables read one bit, and
    # shared-pivot lanes start past the kernel
    code, indices = _builtin_packages(spec)
    assert min(g.lo for compiled in indices for g in compiled.pkg.groups) == lo
    locality = parse_code_spec(spec)[1].locality
    for seed in range(3):
        rng = random.Random(seed)
        word = list(code.encode(tuple(rng.randrange(2) for _ in range(code.k))))
        for j in rng.sample(range(code.n), seed):  # a few corruptions, none at seed 0
            word[j] ^= 1
        for p in (default_sampling_probability(code.n, locality), 0.9):
            sample = sample_coordinates(word, p, rng)
            sampled_values = {j: word[j] for j in compress(range(code.n), sample.flags)}
            for compiled in indices:
                for strict in (False, True):
                    want = reference_decode(compiled, sampled_values, 20, strict)
                    assert decode_index(compiled.pkg, sample, 20, strict) == want
