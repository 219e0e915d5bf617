import itertools
import random
import json
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rldc.decoders import (
    REJECT,
    AdaptiveDecoder,
    ExplicitViews,
    LocalView,
    NonAdaptiveDecoder,
    TreeNode,
    UnanimityView,
    decoder_to_json,
    hadamard_code,
    parse_code_spec,
    repetition_code,
    shared_pivot_code,
    tree_coords,
)
from rldc import preprocessing
from rldc.harness import make_in_radius_corpus
from rldc.preprocessing import (
    MAX_MASK_BITS,
    MAX_SAMPLED_PARTS,
    AmplifiedDecoder,
    ReductionFailedError,
    amplify,
    epsilon_for_locality,
    flatten_adaptive,
    preprocess_pipeline,
    randomness_complexity,
    reduce_randomness,
    repetitions_for,
)

from oracles import output_distribution, reduce_by_words, run_tree, views_of


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
    _, view = next(iter(flat.views[0]))
    assert view.coords == (2,)
    assert view.table == (0, 1)


def test_flatten_depth_two_tree_replays():
    tree = TreeNode(0, TreeNode(1, 0, 1), TreeNode(2, 1, REJECT))
    dec = AdaptiveDecoder(k=1, n=3, locality=2, trees=(((Fraction(1), tree),),))
    flat = flatten_adaptive(dec)
    _, view = next(iter(flat.views[0]))
    assert view.coords == (0, 1, 2)
    for w in itertools.product((0, 1), repeat=3):
        expect, _ = run_tree(tree, w)
        assert view.read_and_evaluate(w) == expect


def test_flatten_redundant_branch_constant():
    # Both children lead to the same label: the predicate ignores coordinate 1.
    tree = TreeNode(0, TreeNode(1, 1, 1), 0)
    dec = AdaptiveDecoder(k=1, n=2, locality=2, trees=(((Fraction(1), tree),),))
    flat = flatten_adaptive(dec)
    _, view = next(iter(flat.views[0]))
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
        views = list(flat.views[i])
        for w_bits in itertools.product((0, 1), repeat=8):
            for (wt, tree), (wt2, view) in zip(dist, views):
                assert wt == wt2
                expect, _ = run_tree(tree, w_bits)
                assert view.read_and_evaluate(w_bits) == expect
                assert frozenset(view.coords) == tree_coords(tree)


@st.composite
def adaptive_decoders(draw):
    """One or two indices over n <= 8, each drawing among up to four random
    decision trees of depth <= 3 with positive rational weights."""
    n = draw(st.integers(1, 8))

    def tree(depth, used):
        free = [c for c in range(n) if c not in used]
        if depth == 0 or not free or draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from((0, 1, REJECT)))
        coord = draw(st.sampled_from(free))
        return TreeNode(coord, tree(depth - 1, used | {coord}), tree(depth - 1, used | {coord}))

    trees = []
    for _ in range(draw(st.integers(1, 2))):
        masses = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
        trees.append(tuple((Fraction(m, sum(masses)), tree(3, frozenset())) for m in masses))
    return AdaptiveDecoder(k=len(trees), n=n, locality=3, trees=tuple(trees))


def walk(node, w):
    """A decision tree's output on w, walked here rather than by run_tree."""
    while isinstance(node, TreeNode):
        node = node.if_one if w[node.coord] else node.if_zero
    return node


@settings(max_examples=150, deadline=None)
@given(adaptive_decoders())
def test_flattened_views_match_the_trees_on_every_word(dec):
    flat = flatten_adaptive(dec)
    for dist, views in zip(dec.trees, flat.views, strict=True):
        views = list(views)
        assert [wt for wt, _ in views] == [wt for wt, _ in dist]
        for w in itertools.product((0, 1), repeat=dec.n):
            assert [view.read_and_evaluate(w) for _, view in views] == [walk(tree, w) for _, tree in dist]


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
    views = views_of(3, [(Fraction(1, 3), LocalView((c,), (0, 1))) for c in range(3)])
    dec = NonAdaptiveDecoder(k=1, n=3, locality=1, views=(views,))
    word = (1, 0, 0)  # true bit 0; coin 0 answers 1
    assert output_distribution(dec, word, 0)[1] == Fraction(1, 3)

    amp = amplify(dec, Fraction(1, 16))  # R = 4
    dist = output_distribution(amp, word, 0)
    assert dist[1] == Fraction(1, 3) ** 4
    assert dist[0] == Fraction(2, 3) ** 4
    assert dist[REJECT] == 1 - Fraction(1, 3) ** 4 - Fraction(2, 3) ** 4


@st.composite
def planted_decoders(draw):
    """(decoder, word, planted): per index, up to four weighted views, each
    planted to output the true bit, the wrong bit or REJECT on the word (its
    table is free off the word's bits), and planted[i] = (true bit, weight of
    the views planted wrong, weight of those planted right)."""
    n = draw(st.integers(1, 4))
    word = tuple(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    planted, lists = [], []
    for _ in range(draw(st.integers(1, 2))):
        bit = draw(st.integers(0, 1))
        entries, weight = [], {0: 0, 1: 0, REJECT: 0}
        masses = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
        for mass in masses:
            coords = tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=2))))
            table = draw(st.lists(st.sampled_from((0, 1, REJECT)), min_size=1 << len(coords), max_size=1 << len(coords)))
            out = table[sum(word[c] << j for j, c in enumerate(coords))] = draw(st.sampled_from((0, 1, REJECT)))
            weight[out] += Fraction(mass, sum(masses))
            entries.append((Fraction(mass, sum(masses)), LocalView(coords, tuple(table))))
        planted.append((bit, weight[1 - bit], weight[bit]))
        lists.append(views_of(n, entries))
    return NonAdaptiveDecoder(k=len(lists), n=n, locality=2, views=tuple(lists)), word, planted


@settings(max_examples=100, deadline=None)
@given(planted_decoders(), st.sampled_from((Fraction(1, 3), Fraction(1, 5), Fraction(1, 8), Fraction(2, 31))))
def test_amplified_error_is_the_base_error_to_the_power_r(case, epsilon):
    # R = ceil(log2(1/epsilon)) runs output a bit only when all agree, so the
    # wrong bit's weight is the base's to the R-th power, exactly, and so is the true bit's
    dec, word, planted = case
    reps = ((epsilon.denominator - 1) // epsilon.numerator).bit_length()
    amp = amplify(dec, epsilon)
    assert amp.locality == reps * dec.locality
    for i, (bit, wrong, right) in enumerate(planted):
        base = output_distribution(dec, word, i)
        assert (base.get(1 - bit, 0), base.get(bit, 0)) == (wrong, right)
        dist = output_distribution(amp, word, i)
        assert (dist.get(1 - bit, 0), dist.get(bit, 0)) == (wrong**reps, right**reps)
        assert dist.get(REJECT, 0) == 1 - wrong**reps - right**reps


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
    assert all(v == next(iter(dec.views[0]))[1] for _, v in reduced.views[0])


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


@pytest.mark.parametrize("epsilon, multiset_size", [(Fraction(1, 256), 4096), (Fraction(1, 8), 8192)])
def test_reduce_budget_caps_a_row_at_its_lists_coverage(epsilon, multiset_size):
    # R runs of the pivot and one of 8 copies merge into at most the pivot and
    # all 8 copies: width min(3R, 10), so R = 8 charges 10, not 24, and R = 3 charges 9
    _, dec = shared_pivot_code(2, 8, 4)
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match=r"^reduction needs 16777216 table entries, over 8388608$"):
        reduce_randomness(amplify(dec, epsilon), multiset_size, [], Fraction(1), rng)
    assert rng.getstate() == state


def test_reduce_refuses_too_many_parts_before_sampling():
    code, dec = shared_pivot_code(2, 4, 4)  # 4 indices, multiset 72
    reps = MAX_SAMPLED_PARTS // (4 * 72) + 1
    amp = amplify(dec, Fraction(1, 1 << reps))
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError, match=f"samples {4 * 72 * reps} parts, over {MAX_SAMPLED_PARTS}"):
        reduce_randomness(amp, 72, [], Fraction(1), rng)
    assert rng.getstate() == state


def test_reduce_refuses_dense_wide_parts_before_any_draw():
    # 8 base rows over 12 of 16 coordinates with dense tables: a row of R = 8 parts
    # merges all 16, and a new shape ANDs 2^16-bit masks for each of 4096 entries
    # of each part, so 64 rows charge 64 * 8 * 4096 << 16 = 2^37 mask bits; the
    # table entries (64 << 16 = 2^22) and the parts (512) are within their budgets
    rng = random.Random(7)
    sets = tuple(tuple(sorted(rng.sample(range(16), 12))) for _ in range(8))
    dense = tuple(tuple(rng.randrange(2) for _ in range(1 << 12)) for _ in range(8))
    views = ExplicitViews(16, sets, (1,) * 8, 8, dense)
    amp = AmplifiedDecoder(NonAdaptiveDecoder(1, 16, 12, (views,)), 8)
    state = rng.getstate()
    with pytest.raises(ValueError, match=rf"^reduction may AND {1 << 37} mask bits, over {MAX_MASK_BITS}$"):
        reduce_randomness(amp, 64, [], Fraction(1), rng)
    assert rng.getstate() == state
    # REJECT entries cost nothing: the same rows with two answers a table are charged 2 each
    sparse = tuple((0, 1) + (None,) * ((1 << 12) - 2) for _ in range(8))
    sparse_amp = AmplifiedDecoder(NonAdaptiveDecoder(1, 16, 12, (ExplicitViews(16, sets, (1,) * 8, 8, sparse),)), 8)
    reduced, report = reduce_randomness(sparse_amp, 64, [], Fraction(1), rng)
    assert report.passed and len(reduced.views[0]) == 64


def _hadamard_xor_trees(m):
    """Hadamard m as an adaptive decoder: read r, then r ^ e_i, output the XOR."""
    trees = []
    for i in range(m):
        e = 1 << i
        trees.append(tuple(
            (Fraction(2, 1 << m), TreeNode(r, TreeNode(r ^ e, 0, 1), TreeNode(r ^ e, 1, 0)))
            for r in range(1 << m) if not r & e
        ))
    return AdaptiveDecoder(k=m, n=1 << m, locality=2, trees=tuple(trees))


def test_reduced_rows_share_one_table_per_shape():
    code, _ = hadamard_code(6)
    flat = flatten_adaptive(_hadamard_xor_trees(6))
    # flattening gives every view its own table tuple: the memo must key by value
    assert len({id(view.table) for views in flat.views for _, view in views}) == 6 * 32
    rng = random.Random(4)
    corpus = make_in_radius_corpus(code, 20, rng)
    reduced, report = reduce_randomness(amplify(flat, Fraction(1, 16)), 4 * code.n, corpus, Fraction(1, 8), rng)
    assert report.passed
    tables = {id(view.table) for views in reduced.views for _, view in views}
    assert len(tables) * 20 < 6 * 4 * code.n  # 1536 rows of a few dozen shapes
    doc = decoder_to_json(reduced)
    assert len({id(table) for index in doc["indices"] for table in index["tables"]}) == len(tables)
    fresh = replace(reduced, views=tuple(
        views_of(reduced.n, [(wt, LocalView(view.coords, tuple(list(view.table)))) for wt, view in views])
        for views in reduced.views
    ))
    assert json.dumps(decoder_to_json(fresh), indent=2, sort_keys=True) == json.dumps(doc, indent=2, sort_keys=True)


def _random_corpus(code, size, rng):
    """Arbitrary words and messages, far outside the radius: many wrong rows."""
    return [
        (tuple(rng.randrange(2) for _ in range(code.n)), tuple(rng.randrange(2) for _ in range(code.k)))
        for _ in range(size)
    ]


def _assert_reduces_like_words(decoder, multiset_size, corpus, tolerance, seed):
    def run(reduce):
        try:
            reduced, report = reduce(decoder, multiset_size, corpus, tolerance, random.Random(seed))
        except ReductionFailedError as failure:
            return None, failure.report
        return [list(views) for views in reduced.views], report

    expected = run(reduce_by_words)
    assert run(reduce_randomness) == expected
    return expected[1]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "spec, epsilon",
    [
        ("hadamard:m=4", Fraction(1, 16)),  # amplified, R = 4
        ("shared-pivot:kappa=2,r=8,k=4", Fraction(1, 8)),  # amplified, REJECT tables
        ("hadamard:m=4", None),  # R = 1: rows are plain LocalViews
    ],
)
@pytest.mark.parametrize("corpus_kind", ["in-radius", "random", "empty"])
def test_reduce_matches_word_by_word_reference(spec, epsilon, corpus_kind, seed):
    code, dec = parse_code_spec(spec)
    decoder = amplify(dec, epsilon) if epsilon else dec
    rng = random.Random(1000 + seed)
    corpus = {
        "in-radius": lambda: make_in_radius_corpus(code, 12, rng),
        "random": lambda: _random_corpus(code, 12, rng),
        "empty": lambda: [],
    }[corpus_kind]()
    report = _assert_reduces_like_words(decoder, 2 * code.n, corpus, Fraction(1), seed)
    assert report.passed and report.attempts == 1
    assert report.max_wrong_rate > 0 or corpus_kind != "random"


@pytest.mark.parametrize("epsilon", [None, Fraction(1, 4)])
def test_reduce_rows_over_no_coordinates(epsilon):
    # coins that read nothing beside two Hadamard views: a constant REJECT,
    # never wrong, and a constant 1, run alone or amplified (R = 2)
    code, dec = hadamard_code(3)
    base = [view for _, view in dec.views[0]]
    rows = [LocalView((), (REJECT,)), LocalView((), (1,)), base[0], base[3]]
    views = views_of(code.n, [(Fraction(1, 4), row) for row in rows])
    decoder = NonAdaptiveDecoder(k=1, n=code.n, locality=2, views=(views,))
    decoder = amplify(decoder, epsilon) if epsilon else decoder
    corpus = _random_corpus(replace(code, k=1), 16, random.Random(2))
    report = _assert_reduces_like_words(decoder, 9, corpus, Fraction(1), 4)
    assert 0 < report.max_wrong_rate < 1


@pytest.mark.parametrize("spec", ["hadamard:m=4", "shared-pivot:kappa=2,r=8,k=4"])
def test_failed_reduction_report_matches_word_by_word_reference(spec):
    code, dec = parse_code_spec(spec)
    corpus = _random_corpus(code, 12, random.Random(7))
    report = _assert_reduces_like_words(amplify(dec, Fraction(1, 8)), code.n, corpus, Fraction(0), 3)
    assert not report.passed and report.attempts == 4 and report.max_wrong_rate > 0


@st.composite
def reducible_decoders(draw):
    """k <= 3 indices over n <= 10 coordinates, each 1-6 rows of 0-3
    coordinates with REJECT in the tables, run R = 1-4 times (R = 1 also as
    the plain decoder): a row repeats an earlier table as a fresh tuple at other
    coordinates, and a twin row reads the same coordinates through its own
    table.  Masses are uniform or not, one reduced denominator above 2^32."""
    n, reps = draw(st.integers(1, 10)), draw(st.integers(1, 4))

    def table(width):
        return tuple(draw(st.lists(st.sampled_from((0, 1, REJECT)), min_size=1 << width, max_size=1 << width)))

    def coords(width=None):
        low, high = (0, min(3, n)) if width is None else (width, width)
        return tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=low, max_size=high))))

    views = []
    for _ in range(draw(st.integers(1, 3))):
        rows = [coords() for _ in range(draw(st.integers(1, 4)))]
        tables = [table(len(row)) for row in rows]
        rows.append(coords(len(rows[0])))
        tables.append(tuple(list(tables[0])))  # equal values, a distinct tuple
        rows.append(rows[-1])
        tables.append(table(len(rows[-1])))  # the same coordinates, its own table
        masses = [1] * len(rows) if draw(st.booleans()) else draw(
            st.lists(st.integers(1, 6), min_size=len(rows), max_size=len(rows))
        )
        if draw(st.integers(0, 3)) == 0:
            masses[draw(st.integers(0, len(rows) - 1))] += 2**35 + draw(st.integers(0, 2**8))
        views.append(ExplicitViews(n, tuple(rows), tuple(masses), sum(masses), tuple(tables)))
    locality = max(1, max(v.max_view_size() for v in views))
    decoder = NonAdaptiveDecoder(k=len(views), n=n, locality=locality, views=tuple(views))
    return decoder if reps == 1 and draw(st.booleans()) else AmplifiedDecoder(decoder, reps)


@st.composite
def reduction_cases(draw):
    """A generated decoder, a multiset size, a corpus (random, within one flip
    of one word with one message, or empty), a tolerance and a seed."""
    decoder = draw(reducible_decoders())
    base = decoder.base if isinstance(decoder, AmplifiedDecoder) else decoder
    n, k = base.n, base.k
    kind = draw(st.sampled_from(("random", "in-radius", "empty")))
    bits = lambda size: tuple(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
    size = 0 if kind == "empty" else draw(st.integers(1, 6))
    if kind == "random":
        corpus = [(bits(n), bits(k)) for _ in range(size)]
    else:
        word, message = bits(n), bits(k)
        corpus = []
        for _ in range(size):
            flips = draw(st.sets(st.integers(0, n - 1), max_size=1))
            corpus.append((tuple(b ^ (c in flips) for c, b in enumerate(word)), message))
    tolerance = draw(st.sampled_from((Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))))
    return decoder, draw(st.integers(1, 8)), corpus, tolerance, draw(st.integers(0, 2**32))


def _row_key_by_value(view):
    """A materialized row's shape with its parts in the order given: the
    positions of their coordinates among the merged ones, and their tables."""
    position = {c: q for q, c in enumerate(view.coords)}
    return tuple(position[c] for part in view.parts for c in part.coords), tuple(part.table for part in view.parts)


@settings(max_examples=200, deadline=None)
@given(reduction_cases())
def test_reduce_matches_word_by_word_reference_on_generated_decoders(case):
    decoder, multiset_size, corpus, tolerance, seed = case
    materialized = []
    materialize = UnanimityView.materialize

    def spy(view, tables):
        materialized.append(view)
        return materialize(view, tables)

    def run(reduce):
        rng = random.Random(seed)
        try:
            reduced, report = reduce(decoder, multiset_size, corpus, tolerance, rng)
        except ReductionFailedError as failure:
            return None, failure.report, rng.getstate()
        return [list(views) for views in reduced.views], report, rng.getstate()

    expected = run(reduce_by_words)
    with mock.patch.object(UnanimityView, "materialize", spy):
        assert run(reduce_randomness) == expected
    # one table per row shape: no two rows of one shape materialize apart
    keys = list(map(_row_key_by_value, materialized))
    assert len(set(keys)) == len(keys)


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
    # at locality 1 neither target lies in (0, 1/3]
    _, dec = repetition_code(2, 3)
    for literal in (False, True):
        with pytest.raises(ValueError, match="undefined at locality 1; give epsilon"):
            epsilon_for_locality(dec, literal)


@pytest.mark.parametrize(
    "epsilon, tolerance, literal, locality, passed_tolerance",
    [
        (None, None, False, 8, Fraction(1, 8)),  # 1/16 by the fixed point: R = 4
        (None, None, True, 4, Fraction(1, 2)),  # 1/4 literally: R = 2
        (Fraction(1, 64), None, True, 12, Fraction(1, 32)),  # an explicit epsilon wins
        (None, Fraction(1, 3), False, 8, Fraction(1, 3)),
    ],
)
def test_pipeline_resolves_its_defaults(epsilon, tolerance, literal, locality, passed_tolerance, monkeypatch):
    seen = []
    monkeypatch.setattr(
        preprocessing, "reduce_randomness", lambda dec, m, corpus, tol, rng: seen.append((dec.locality, tol))
    )
    _, dec = hadamard_code(3)  # locality 2
    preprocess_pipeline(dec, epsilon, 4, [], tolerance, random.Random(0), literal_epsilon=literal)
    assert seen == [(locality, passed_tolerance)]


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
