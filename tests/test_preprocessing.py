import itertools
import random
from fractions import Fraction

import pytest

from rldc.decoders import (
    REJECT,
    AdaptiveDecoder,
    ExplicitViews,
    LocalView,
    NonAdaptiveDecoder,
    TreeNode,
    hadamard_code,
    repetition_code,
    run_tree,
    tree_coords,
)
from rldc.harness import make_in_radius_corpus
from rldc.preprocessing import (
    ReductionFailedError,
    amplify,
    epsilon_for_locality,
    flatten_adaptive,
    preprocess_pipeline,
    randomness_complexity,
    reduce_randomness,
    repetitions_for,
)

from oracles import output_distribution


def random_tree(rng, n, depth, used=frozenset()):
    if depth == 0 or rng.random() < 0.3 or len(used) == n:
        return rng.choice((0, 1, REJECT))
    coord = rng.choice([c for c in range(n) if c not in used])
    grown = used | {coord}
    return TreeNode(
        coord,
        random_tree(rng, n, depth - 1, grown),
        random_tree(rng, n, depth - 1, grown),
    )


def random_adaptive(rng, k, n, locality, coins):
    trees = []
    for _ in range(k):
        dist = [(Fraction(1, coins), random_tree(rng, n, locality)) for _ in range(coins)]
        trees.append(tuple(dist))
    return AdaptiveDecoder(k=k, n=n, locality=locality, trees=tuple(trees))


# ---------------------------------------------------------------------------
# flatten


def test_flatten_depth_one_tree():
    tree = TreeNode(2, 0, 1)
    dec = AdaptiveDecoder(k=1, n=4, locality=1, trees=(((Fraction(1), tree),),))
    flat = flatten_adaptive(dec)
    view = flat.views[0].entries[0][1]
    assert view.coords == (2,)
    assert view.table == (0, 1)


def test_flatten_depth_two_tree_replays():
    tree = TreeNode(0, TreeNode(1, 0, 1), TreeNode(2, 1, REJECT))
    dec = AdaptiveDecoder(k=1, n=3, locality=2, trees=(((Fraction(1), tree),),))
    flat = flatten_adaptive(dec)
    view = flat.views[0].entries[0][1]
    assert view.coords == (0, 1, 2)
    for w in itertools.product((0, 1), repeat=3):
        expect, _ = run_tree(tree, w)
        assert view.read_and_evaluate(w) == expect


def test_flatten_redundant_branch_constant():
    # Both children lead to the same label: the predicate ignores coordinate 1.
    tree = TreeNode(0, TreeNode(1, 1, 1), 0)
    dec = AdaptiveDecoder(k=1, n=2, locality=2, trees=(((Fraction(1), tree),),))
    flat = flatten_adaptive(dec)
    view = flat.views[0].entries[0][1]
    for w0 in (0, 1):
        outs = {view.read_and_evaluate((w0, w1)) for w1 in (0, 1)}
        assert len(outs) == 1


def test_flatten_equivalence_exhaustive():
    rng = random.Random(404)
    dec = random_adaptive(rng, k=2, n=8, locality=3, coins=6)
    flat = flatten_adaptive(dec)
    assert flat.locality <= 2 ** 3
    for i in range(2):
        dist = dec.trees[i]
        views = flat.views[i].entries
        for w_bits in itertools.product((0, 1), repeat=8):
            for (wt, tree), (wt2, view) in zip(dist, views):
                assert wt == wt2
                expect, _ = run_tree(tree, w_bits)
                assert view.read_and_evaluate(w_bits) == expect
                assert frozenset(view.coords) == tree_coords(tree)


# ---------------------------------------------------------------------------
# amplify


def test_repetition_count_formula():
    assert repetitions_for(Fraction(1, 3)) == 2
    assert repetitions_for(Fraction(1, 4)) == 2
    assert repetitions_for(Fraction(1, 5)) == 3
    assert repetitions_for(Fraction(1, 16)) == 4
    with pytest.raises(ValueError):
        repetitions_for(Fraction(1, 2))
    with pytest.raises(ValueError):
        repetitions_for(Fraction(0))


def test_amplify_preserves_completeness_exactly():
    code, dec = hadamard_code(3)
    amp = amplify(dec, Fraction(1, 16))
    assert amp.locality == 4 * dec.locality
    for x in itertools.product((0, 1), repeat=3):
        w = code.encode(x)
        for i in range(3):
            assert output_distribution(amp, w, i) == {x[i]: Fraction(1)}


def test_amplify_planted_error_is_power():
    # One of three uniform coins errs on this word: base wrong rate 1/3.
    views = ExplicitViews(
        [(Fraction(1, 3), LocalView((c,), (0, 1))) for c in range(3)]
    )
    dec = NonAdaptiveDecoder(k=1, n=3, locality=1, views=(views,))
    word = (1, 0, 0)  # true bit 0; coin 0 answers 1
    assert output_distribution(dec, word, 0)[1] == Fraction(1, 3)

    amp = amplify(dec, Fraction(1, 16))  # R = 4
    dist = output_distribution(amp, word, 0)
    assert dist[1] == Fraction(1, 3) ** 4
    assert dist[0] == Fraction(2, 3) ** 4
    assert dist[REJECT] == 1 - Fraction(1, 3) ** 4 - Fraction(2, 3) ** 4


def test_amplify_rejects_bad_epsilon():
    _, dec = hadamard_code(2)
    with pytest.raises(ValueError):
        amplify(dec, Fraction(1, 2))


# ---------------------------------------------------------------------------
# reduce randomness


def test_reduce_deterministic_decoder_trivial():
    code, dec = repetition_code(2, 1)  # single coin outcome per index
    corpus = [(code.encode((0, 1)), (0, 1))]
    reduced, report = reduce_randomness(dec, 5, corpus, Fraction(0), random.Random(0))
    assert report.passed and report.attempts == 1
    assert report.max_wrong_rate == 0
    assert len(reduced.views[0]) == 5
    assert all(v == dec.views[0].entries[0][1] for _, v in reduced.views[0])


def test_reduce_t1_adversarial_corpus_fails():
    # With a single retained coin, some corpus entry always hits the one
    # corrupted copy for rate 1 > tolerance, every retry.
    code, dec = repetition_code(1, 2)
    w = code.encode((0,))
    corpus = [((1, 0), (0,)), ((0, 1), (0,))]
    with pytest.raises(ReductionFailedError) as err:
        reduce_randomness(dec, 1, corpus, Fraction(1, 2), random.Random(3))
    assert err.value.report.attempts == 4
    assert err.value.report.max_wrong_rate == 1


def test_reduce_hadamard_m6():
    code, dec = hadamard_code(6)
    rng = random.Random(123)
    corpus = make_in_radius_corpus(code, 20, rng)
    reduced, report = reduce_randomness(dec, 4 * code.n, corpus, Fraction(1, 2), rng)
    assert report.passed
    assert len(reduced.views[0]) == 4 * code.n
    assert randomness_complexity(reduced) == 8  # ceil(log2 64) + 2


def test_reduce_refuses_oversized_tables_before_sampling():
    _, dec = hadamard_code(6)
    amp = amplify(dec, Fraction(1, 1024))  # R = 10: rows of up to 2^20 entries
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match="1610612736 table entries"):
        reduce_randomness(amp, 4 * dec.n, [], Fraction(1), rng)
    assert rng.getstate() == state


def test_reduce_coin_space_size_exact():
    _, dec = hadamard_code(4)
    reduced, _ = reduce_randomness(dec, 37, [], Fraction(0), random.Random(1))
    for i in range(4):
        assert len(reduced.views[i]) == 37


# ---------------------------------------------------------------------------
# pipeline


def test_epsilon_targets():
    _, dec = hadamard_code(3)  # locality 2
    assert epsilon_for_locality(dec, literal=True) == Fraction(1, 4)
    # fixed point: R0 = ceil(log2(4)) = 2, locality' = 4, eps = 1/16
    assert epsilon_for_locality(dec) == Fraction(1, 16)


def test_pipeline_flatten_amplify_reduce():
    rng = random.Random(9)
    adaptive = AdaptiveDecoder(
        k=2, n=4, locality=2,
        trees=tuple(
            (
                (Fraction(1), TreeNode(0, TreeNode(1 + i, 0, 1), TreeNode(3 - i, 1, 0))),
            )
            for i in range(2)
        ),
    )
    corpus = []
    reduced, report = preprocess_pipeline(
        adaptive, Fraction(1, 4), 16, corpus, Fraction(1), rng
    )
    assert report.passed
    assert reduced.k == 2 and reduced.n == 4
    assert len(reduced.views[0]) == 16
    # flattened locality <= 2^l, amplified locality <= R * that
    assert reduced.locality <= 2 ** 2 * repetitions_for(Fraction(1, 4))
