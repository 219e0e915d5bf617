import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rldc.decoders import (
    MAX_VIEWS,
    REJECT,
    AdaptiveDecoder,
    ExplicitViews,
    LocalView,
    NonAdaptiveDecoder,
    ProductViews,
    TreeNode,
    UnanimityView,
    corrupt,
    hadamard_code,
    identity_code,
    local_view_system,
    parse_code_spec,
    repetition_code,
    shared_pivot_code,
    table_masks,
)

from oracles import column_fold, output_distribution, wrong_rate


def all_messages(k):
    return itertools.product((0, 1), repeat=k)


def hamming(a, b):
    return sum(1 for x, y in zip(a, b) if x != y)


# ---------------------------------------------------------------------------
# baseline codes


def test_identity_decodes_every_bit():
    code, dec = identity_code(3)
    w = code.encode((1, 0, 1))
    for i, expect in enumerate((1, 0, 1)):
        out, queried = dec.decode(w, i, random.Random(i))
        assert out == expect and queried == frozenset({i})


def test_repetition_single_corrupted_copy():
    code, dec = repetition_code(2, 3)
    x = (1, 0)
    w = corrupt(code.encode(x), [0])  # one copy of bit 0 flipped
    assert wrong_rate(dec, w, 0, x[0]) == Fraction(1, 3)
    assert wrong_rate(dec, w, 1, x[1]) == 0


def test_repetition_r1_matches_identity():
    _, rep = repetition_code(3, 1)
    _, ident = identity_code(3)
    for i in range(3):
        assert rep.views[i].entries == ident.views[i].entries


def test_constant_reject_predicate():
    views = (ExplicitViews([(Fraction(1), LocalView((0,), (REJECT, REJECT)))]),)
    dec = NonAdaptiveDecoder(k=1, n=2, locality=1, views=views)
    for w in ((0, 0), (1, 1)):
        out, _ = dec.decode(w, 0, random.Random(0))
        assert out is REJECT


# ---------------------------------------------------------------------------
# hadamard


def test_hadamard_codeword_is_parity_table():
    code, _ = hadamard_code(2)
    # position a holds <a, x>: verified against direct parity computation
    for x in all_messages(2):
        w = code.encode(x)
        for a in range(4):
            parity = (((a >> 0) & 1) * x[0] + ((a >> 1) & 1) * x[1]) % 2
            assert w[a] == parity
    assert code.encode((0, 0)) == (0, 0, 0, 0)


def test_hadamard_decodes_on_every_coin():
    code, dec = hadamard_code(3)
    for x in all_messages(3):
        w = code.encode(x)
        for i in range(3):
            for _, view in dec.views[i]:
                assert view.read_and_evaluate(w) == x[i]


def test_hadamard_single_corruption_rate():
    code, dec = hadamard_code(3)
    x = (1, 1, 0)
    w = corrupt(code.encode(x), [3])
    for i in range(3):
        assert wrong_rate(dec, w, i, x[i]) == Fraction(2, 8)


def test_hadamard_views_are_unordered_pairs():
    _, dec = hadamard_code(3)
    for i in range(3):
        assert len(dec.views[i]) == 4  # n/2 distinct sets
        assert all(wt == Fraction(2, 8) for wt, _ in dec.views[i])
        union = set()
        for _, view in dec.views[i]:
            assert view.coords[1] == view.coords[0] ^ (1 << i)
            union.update(view.coords)
        assert union == set(range(8))


def _inner_product_word(m, x):
    """Position a holds <a, x> mod 2, bit j of a being a_j."""
    return tuple(sum(x[j] & (a >> j) for j in range(m)) & 1 for a in range(1 << m))


def test_hadamard_encode_matches_inner_products():
    for m in range(1, 7):
        code, _ = hadamard_code(m)
        for x in all_messages(m):
            assert code.encode(x) == _inner_product_word(m, x)
    code, _ = hadamard_code(14)
    rng = random.Random(14)
    for _ in range(5):
        x = tuple(rng.randrange(2) for _ in range(14))
        assert code.encode(x) == _inner_product_word(14, x)


def test_hadamard_guard():
    with pytest.raises(ValueError):
        hadamard_code(21)
    with pytest.raises(ValueError, match="exceed the budget"):
        hadamard_code(17)  # 17 * 2^16 views
    with pytest.raises(ValueError, match="exceed the budget"):
        hadamard_code(10**12)  # refused without computing 2^(m-1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: identity_code(MAX_VIEWS // 5 + 1),
        lambda: repetition_code(1, MAX_VIEWS - 3),
        lambda: repetition_code(100_000, 100_000),
        lambda: shared_pivot_code(1, MAX_VIEWS // 4, 4),
    ],
)
def test_view_budget(build):
    with pytest.raises(ValueError, match="exceed the budget"):
        build()


# ---------------------------------------------------------------------------
# shared pivot


def test_shared_pivot_paths():
    code, dec = shared_pivot_code(1, 2, 2)
    x = (1, 0)
    w = code.encode(x)
    assert w == (0, 1, 1, 0, 0)
    for i in range(2):
        assert output_distribution(dec, w, i) == {x[i]: Fraction(1)}
    flipped = corrupt(w, [0])
    for i in range(2):
        assert output_distribution(dec, flipped, i) == {REJECT: Fraction(1)}


def test_shared_pivot_table_budget():
    with pytest.raises(ValueError, match="2\\^24 table entries exceed"):
        shared_pivot_code(23, 1, 1)


def test_shared_pivot_views_contain_pivot():
    _, dec = shared_pivot_code(2, 4, 3)
    for i in range(3):
        for _, view in dec.views[i]:
            assert view.coords[:2] == (0, 1)
            assert len(view.coords) == 3


# ---------------------------------------------------------------------------
# decoder contracts


@pytest.mark.parametrize(
    "spec",
    ["identity:k=4", "repetition:k=3,r=3", "hadamard:m=4", "shared-pivot:kappa=2,r=3,k=3"],
)
def test_perfect_completeness_exhaustive(spec):
    code, dec = parse_code_spec(spec)
    for x in all_messages(code.k):
        w = code.encode(x)
        for i in range(code.k):
            assert output_distribution(dec, w, i) == {x[i]: Fraction(1)}


@pytest.mark.parametrize(
    "spec",
    ["hadamard:m=3", "repetition:k=2,r=4", "shared-pivot:kappa=1,r=4,k=2"],
)
def test_relaxed_decoding_within_radius(spec):
    # Exact wrong probability <= 1/3 for every word in the radius ball.
    code, dec = parse_code_spec(spec)
    flips = code.radius_flips()
    for x in all_messages(code.k):
        w = code.encode(x)
        for count in range(flips + 1):
            for coords in itertools.combinations(range(code.n), count):
                bad = corrupt(w, coords)
                for i in range(code.k):
                    assert wrong_rate(dec, bad, i, x[i]) <= Fraction(1, 3)


def test_oracle_accounting():
    class Recorder:
        """A word that records every coordinate read from it."""

        def __init__(self, word):
            self.word, self.reads = word, set()

        def __getitem__(self, j):
            self.reads.add(j)
            return self.word[j]

    code, dec = hadamard_code(4)
    w = code.encode((1, 0, 1, 1))
    for i in range(4):
        for trial in range(10):
            oracle = Recorder(w)
            _, queried = dec.decode(oracle, i, random.Random(trial))
            assert len(queried) <= dec.locality
            assert oracle.reads == set(queried)


def test_decoder_index_validation():
    _, dec = identity_code(2)
    with pytest.raises(ValueError):
        dec.decode((0, 1), 2, random.Random(0))


# ---------------------------------------------------------------------------
# code properties


@pytest.mark.parametrize(
    "spec",
    ["identity:k=4", "repetition:k=3,r=3", "hadamard:m=4", "shared-pivot:kappa=2,r=4,k=3"],
)
def test_injectivity_and_distance_exhaustive(spec):
    code, _ = parse_code_spec(spec)
    words = {x: code.encode(x) for x in all_messages(code.k)}
    floor = code.relative_distance * code.n
    for a, b in itertools.combinations(words, 2):
        d = hamming(words[a], words[b])
        assert d > 0
        assert Fraction(d) >= floor
    assert 0 < code.decoding_radius < code.relative_distance / 2


def test_hadamard_distance_via_linearity():
    # d(C(x), C(y)) = weight(C(x ^ y)); every nonzero codeword has weight n/2.
    code, _ = hadamard_code(8)
    for x in all_messages(8):
        if any(x):
            assert sum(code.encode(x)) == code.n // 2


def test_encode_validation():
    code, _ = identity_code(3)
    with pytest.raises(ValueError):
        code.encode((0, 1))
    with pytest.raises(ValueError):
        code.encode((0, 1, 2))


# ---------------------------------------------------------------------------
# adaptive decoders


def test_tree_validation():
    with pytest.raises(ValueError):
        AdaptiveDecoder(
            k=1, n=3, locality=2,
            trees=(((Fraction(1), TreeNode(0, TreeNode(0, 0, 1), 1)),),),
        )  # repeated coordinate on a path
    with pytest.raises(ValueError):
        AdaptiveDecoder(
            k=1, n=2, locality=1,
            trees=(((Fraction(1, 2), TreeNode(0, 0, 1)),),),
        )  # weights must sum to 1
    with pytest.raises(ValueError):
        AdaptiveDecoder(
            k=1, n=1, locality=1,
            trees=(((Fraction(1), TreeNode(0, TreeNode(1, 0, 1), 1)),),),
        )  # too deep / out of range


def test_adaptive_decode():
    tree = TreeNode(0, 0, TreeNode(1, REJECT, 1))
    dec = AdaptiveDecoder(k=1, n=2, locality=2, trees=(((Fraction(1), tree),),))
    out, queried = dec.decode((1, 1), 0, random.Random(0))
    assert out == 1 and queried == frozenset({0, 1})
    out, queried = dec.decode((0, 1), 0, random.Random(0))
    assert out == 0 and queried == frozenset({0})


# ---------------------------------------------------------------------------
# conversion and serialization


def test_local_view_system_orders_match():
    _, dec = hadamard_code(3)
    weighted = local_view_system(dec, 1)
    assert len(weighted.system.sets) == len(dec.views[1])
    for set_, (wt, view) in zip(weighted.system.sets, dec.views[1]):
        assert set_ == view.coords
    assert sum(weighted.weights, Fraction(0)) == 1


def test_parse_code_spec_errors():
    with pytest.raises(ValueError):
        parse_code_spec("nope:k=1")
    with pytest.raises(ValueError):
        parse_code_spec("hadamard")
    with pytest.raises(ValueError):
        parse_code_spec("hadamard:m")
    with pytest.raises(ValueError, match="takes no argument 'x'"):
        parse_code_spec("hadamard:m=3,x=1")
    with pytest.raises(ValueError, match="'m' twice"):
        parse_code_spec("hadamard:m=3,m=4")
    with pytest.raises(ValueError, match="missing argument 'r'"):
        parse_code_spec("repetition:k=3")


def test_view_table_validation():
    with pytest.raises(ValueError):
        LocalView((0, 1), (0, 1))  # table too short
    with pytest.raises(ValueError):
        LocalView((1, 0), (0, 1, 0, 1))  # unsorted coords


# ---------------------------------------------------------------------------
# unanimity views


@st.composite
def unanimity_views(draw):
    """1-4 parts over overlapping coordinates in [0, 7), REJECT in the tables."""
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        coords = tuple(sorted(draw(st.sets(st.integers(0, 6), max_size=3))))
        size = 1 << len(coords)
        table = draw(st.lists(st.sampled_from((0, 1, REJECT)), min_size=size, max_size=size))
        parts.append(LocalView(coords, tuple(table)))
    return UnanimityView.of(parts)


def assert_materializes(view):
    concrete = view.materialize({})
    assert concrete.coords == view.coords
    assert len(concrete.table) == 1 << len(view.coords)
    for idx, out in enumerate(concrete.table):
        word = {c: (idx >> j) & 1 for j, c in enumerate(view.coords)}
        assert out == view.read_and_evaluate(word)


@settings(max_examples=300, deadline=None)
@given(unanimity_views())
def test_materialize_matches_read_and_evaluate(view):
    assert_materializes(view)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["hadamard:m=4", "shared-pivot:kappa=2,r=8,k=4"]),
    st.integers(2, 4),
    st.integers(0, 2**32),
)
def test_materialize_product_samples(spec, times, seed):
    _, dec = parse_code_spec(spec)
    rng = random.Random(seed)
    for views in dec.views:
        assert_materializes(ProductViews(views, times).sample(rng))


@st.composite
def mixed_unanimity_views(draw):
    """0-5 parts, each over the shared coordinates [0, 4), its own disjoint
    block of [10k, 10k+3), or none, with REJECT in the tables."""
    parts = []
    for k in range(draw(st.integers(0, 5))):
        pool = draw(st.sampled_from([range(4), range(10 * (k + 1), 10 * (k + 1) + 3), range(0)]))
        coords = tuple(sorted(draw(st.sets(st.sampled_from(pool), max_size=3)) if pool else ()))
        size = 1 << len(coords)
        table = draw(st.lists(st.sampled_from((0, 1, REJECT)), min_size=size, max_size=size))
        parts.append(LocalView(coords, tuple(table)))
    return UnanimityView.of(parts)


@settings(max_examples=400, deadline=None)
@given(mixed_unanimity_views())
def test_materialize_matches_column_fold(view):
    assert view.materialize({}) == column_fold(view)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8).flatmap(lambda p: st.tuples(
    st.lists(st.sampled_from((0, 1, REJECT)), min_size=1 << p, max_size=1 << p),
    st.lists(st.integers(0, 2**40 - 1), min_size=p, max_size=p),
)))
def test_table_masks_read_each_point(case):
    # dense, sparse and all-REJECT tables up to 8 coordinates, point by point
    table, literals = case
    ones, zeros = table_masks(table, literals, 2**40 - 1)
    for t in range(40):
        out = table[sum((literal >> t & 1) << j for j, literal in enumerate(literals))]
        assert (ones >> t & 1, zeros >> t & 1) == (out == 1, out == 0)


@st.composite
def product_rows(draw):
    """Rows sampled from 1-4 runs of 3-5 random views over [0, 6) with REJECT
    in the tables: the first view's table again (a fresh tuple) at other
    coordinates, and a twin at its coordinates with its own table; then a row
    repeating a part beside that twin, and the empty view."""
    def coords(low=0, high=3):
        return tuple(sorted(draw(st.sets(st.integers(0, 5), min_size=low, max_size=high))))

    def view(at):
        size = 1 << len(at)
        return LocalView(at, tuple(draw(st.lists(st.sampled_from((0, 1, REJECT)), min_size=size, max_size=size))))

    base = [view(coords()) for _ in range(draw(st.integers(1, 3)))]
    width = len(base[0].coords)
    base.append(LocalView(coords(width, width), tuple(list(base[0].table))))
    base.append(view(base[0].coords))
    product = ProductViews(ExplicitViews([(Fraction(1, len(base)), v) for v in base]), draw(st.integers(1, 4)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [product.sample(rng) for _ in range(draw(st.integers(1, 12)))]
    return rows + [UnanimityView.of([base[0], base[-1], base[0]]), UnanimityView.of([])]


@settings(max_examples=300, deadline=None)
@given(product_rows())
def test_shape_memo_matches_materialize(rows):
    tables = {}
    for row in rows:
        shared = row.materialize(tables)
        assert shared == row.materialize({})
        assert any(shared.table is table for table in tables.values())
        # equal part tables in distinct tuple objects: the same shape, one entry
        known = len(tables)
        copy = UnanimityView(tuple(LocalView(p.coords, tuple(list(p.table))) for p in row.parts), row.coords)
        assert copy.materialize(tables).table is shared.table
        assert len(tables) == known


def test_materialize_without_parts_rejects():
    assert UnanimityView.of([]).materialize({}) == LocalView((), (REJECT,))


def test_product_view_size_capped_by_coverage():
    _, dec = shared_pivot_code(2, 8, 4)
    # eight runs of pivot + one copy merge into at most the pivot and all 8 copies
    assert ProductViews(dec.views[0], 8).max_view_size() == 10
    assert ProductViews(dec.views[0], 3).max_view_size() == 9
