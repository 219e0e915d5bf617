import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rldc.decoders import (
    INDEX_VIEWS,
    MAX_VIEWS,
    REJECT,
    AdaptiveDecoder,
    ExplicitViews,
    LocalView,
    NonAdaptiveDecoder,
    TreeNode,
    UnanimityView,
    corrupt,
    hadamard_code,
    identity_code,
    parse_code_spec,
    repetition_code,
    shared_pivot_code,
    table_masks,
)

from rldc import rng as rng_module
from rldc.exact import integer_masses
from rldc.preprocessing import flatten_adaptive
from rldc.rng import randbelow_many
from rldc.set_system import WeightedSetSystem

from sample_draws import DRAW_BOUNDS, MAX_COUNT
from oracles import (
    EntryViews,
    adaptive_decode,
    check_entry_decoder,
    column_fold,
    decode,
    evaluate,
    output_distribution,
    sample_view,
    unanimity_of,
    views_of,
    wrong_rate,
)


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
        out, queried = decode(dec, w, i, random.Random(i))
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
        assert list(rep.views[i]) == list(ident.views[i])
    # identity is repetition r = 1, and repetition is shared-pivot without its pivot block
    for kappa, r, k in ((1, 1, 1), (2, 3, 2), (3, 2, 4)):
        pivot_code, pivot = shared_pivot_code(kappa, r, k)
        rep_code, rep = repetition_code(k, r)
        for msg in all_messages(k):
            assert pivot_code.encode(msg)[kappa:] == rep_code.encode(msg)
        for i in range(k):
            unpivoted = []
            for weight, view in pivot.views[i]:
                assert view.coords[:kappa] == tuple(range(kappa))
                coords = tuple(c - kappa for c in view.coords[kappa:])
                unpivoted.append((weight, LocalView(coords, view.table[:: 1 << kappa])))  # pivot bits are the low ones
            assert unpivoted == list(rep.views[i])


def test_constant_reject_predicate():
    views = (views_of(2, [(Fraction(1), LocalView((0,), (REJECT, REJECT)))]),)
    dec = NonAdaptiveDecoder(k=1, n=2, locality=1, views=views)
    for w in ((0, 0), (1, 1)):
        out, _ = decode(dec, w, 0, random.Random(0))
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


# the most indices identity_code builds: each is one view plus INDEX_VIEWS
IDENTITY_MAX_K = MAX_VIEWS // (INDEX_VIEWS + 1)


def test_view_budget_boundary():
    assert identity_code(IDENTITY_MAX_K)[0].k == IDENTITY_MAX_K
    with pytest.raises(ValueError, match="exceed the budget"):
        identity_code(IDENTITY_MAX_K + 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: identity_code(IDENTITY_MAX_K + 1),
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
            _, queried = decode(dec, oracle, i, random.Random(trial))
            assert len(queried) <= dec.locality
            assert oracle.reads == set(queried)


def test_decoder_index_validation():
    _, dec = identity_code(2)
    with pytest.raises(ValueError):
        decode(dec, (0, 1), 2, random.Random(0))


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


def test_decoders_over_no_coordinates_are_refused():
    with pytest.raises(ValueError, match="n=0"):
        flatten_adaptive(AdaptiveDecoder(k=1, n=0, locality=1, trees=(((Fraction(1), 0),),)))
    # a view list over no coordinates is refused where it is built, and so is a decoder
    with pytest.raises(ValueError, match="universe size must be positive, got 0"):
        ExplicitViews(0, ((),), (1,), 1, ((1,),))
    views = ExplicitViews(1, ((),), (1,), 1, ((1,),))
    with pytest.raises(ValueError, match="n=0"):
        NonAdaptiveDecoder(k=1, n=0, locality=1, views=(views,))


def test_non_adaptive_decoders_below_locality_one_are_refused():
    # refused where it is made, not later inside build_decode_packages' daisy levels
    views = ExplicitViews(1, ((),), (1,), 1, ((0,),))
    with pytest.raises(ValueError, match="locality >= 1"):
        NonAdaptiveDecoder(k=1, n=1, locality=0, views=(views,))


def test_adaptive_decode():
    tree = TreeNode(0, 0, TreeNode(1, REJECT, 1))
    dec = AdaptiveDecoder(k=1, n=2, locality=2, trees=(((Fraction(1), tree),),))
    out, queried = adaptive_decode(dec, (1, 1), 0, random.Random(0))
    assert out == 1 and queried == frozenset({0, 1})
    out, queried = adaptive_decode(dec, (0, 1), 0, random.Random(0))
    assert out == 0 and queried == frozenset({0})


# ---------------------------------------------------------------------------
# conversion and serialization


def test_view_list_is_its_weighted_set_system():
    _, dec = hadamard_code(3)
    views = dec.views[1]
    assert isinstance(views, WeightedSetSystem)
    assert views.universe_size == dec.n and len(views.sets) == len(views.masses) == len(views)
    for set_, mass, (wt, view) in zip(views.sets, views.masses, views):
        assert set_ == view.coords and Fraction(mass, views.total) == wt
    assert sum(views.masses) == views.total


def test_view_lists_keep_no_instance_dict():
    # INDEX_VIEWS was measured with slotted lists; a __dict__ on every list
    # would add to each message index's cost unseen by the view budget
    for build in (lambda: identity_code(3), lambda: hadamard_code(3), lambda: shared_pivot_code(2, 2, 2)):
        _, dec = build()
        assert not any(hasattr(views, "__dict__") for views in dec.views)


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


@st.composite
def view_lists(draw):
    """0-8 raw views (weight, coords, table) over [0, n), with tables shared
    by shape or drawn afresh, and at most one fault: unordered, repeated or
    out-of-range coordinates, a table of the wrong length, or weights that do
    not sum to 1 or are not positive."""
    n = draw(st.integers(1, 6))
    fault = draw(st.sampled_from((None, None, None, "order", "range", "table", "sum", "sign")))
    count = draw(st.integers(0, 8))
    bad = draw(st.integers(0, max(count - 1, 0)))
    shared = {}
    views = []
    for j in range(count):
        coords = tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=3))))
        if j == bad and fault == "order":
            coords = tuple(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=4)))
        if j == bad and fault == "range":
            coords = tuple(sorted(draw(st.sets(st.integers(-1, n), min_size=1, max_size=4))))
        size = 1 << len(coords)
        if j == bad and fault == "table":
            size = draw(st.sampled_from((size >> 1, size + 1, 2 * size)))
        table = shared.get((len(coords), size))
        if table is None or draw(st.booleans()):
            table = tuple(draw(st.lists(st.sampled_from((0, 1, REJECT)), min_size=size, max_size=size)))
            shared.setdefault((len(coords), size), table)
        views.append((coords, table))
    weights = [Fraction(1, count)] * count if count else []
    if count and draw(st.booleans()):
        parts = draw(st.lists(st.integers(1, 6), min_size=count, max_size=count))
        weights = [Fraction(part, sum(parts)) for part in parts]
    if count and fault == "sum":
        weights[bad] += draw(st.sampled_from((Fraction(-1, 3), Fraction(1, 7))))
    if count > 1 and fault == "sign":
        weights[bad] -= 1
        weights[bad - 1] += 1
    return n, draw(st.sampled_from((3, 3, 2, 1))), [(w, coords, table) for w, (coords, table) in zip(weights, views)]


def _error(build):
    try:
        return None, build()
    except ValueError as err:
        return str(err), None


@settings(max_examples=400, deadline=None)
@given(view_lists(), st.integers(1, 3), st.integers(0, 2**32))
def test_rows_match_entry_by_entry_views(case, scale, seed):
    n, locality, raw = case

    def entries():
        views = EntryViews(n, raw)
        check_entry_decoder(n, locality, views)
        return views

    def rows():
        masses, common = integer_masses([w for w, _, _ in raw])
        views = ExplicitViews(
            n, tuple(coords for _, coords, _ in raw),
            tuple(scale * m for m in masses), scale * common,  # an unreduced denominator samples the same
            tuple(table for _, _, table in raw),
        )
        NonAdaptiveDecoder(k=1, n=n, locality=locality, views=(views,))
        return views

    error, reference = _error(entries)
    assert _error(rows)[0] == error
    if error is not None:
        return
    views = rows()
    assert len(views) == len(reference) and views.max_view_size() == reference.max_view_size()
    got = list(views)
    assert [(w, v.coords, v.table) for w, v in got] == [(w, v.coords, v.table) for w, v in reference]
    assert all(v.table is table for (_, v), (_, _, table) in zip(got, raw))
    # one batch of 12 draws picks the rows that 12 draws of the reference pick
    ours, theirs = random.Random(seed), random.Random(seed)
    drawn = views.draw(ours, 12)
    picked = [reference.sample(theirs) for _ in range(12)]
    assert len(drawn) == 12 and all(reference.entries[r][1] is view for r, view in zip(drawn, picked))
    assert ours.getstate() == theirs.getstate()


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.sampled_from(DRAW_BOUNDS), st.integers(1, 2**100)),
    st.integers(0, MAX_COUNT),
    st.sampled_from((1, 7, rng_module.DRAWS_PER_ROUND)),
    st.integers(0, 2**64),
)
def test_randbelow_many_matches_randrange(n, count, per_round, seed):
    # the values and the state of a randrange loop, also when the rounds are short
    ours, theirs = random.Random(seed), random.Random(seed)
    with mock.patch.object(rng_module, "DRAWS_PER_ROUND", per_round):
        values = randbelow_many(ours, n, count)
    assert values == [theirs.randrange(n) for _ in range(count)]
    assert ours.getstate() == theirs.getstate()


def test_randbelow_many_refuses_an_empty_range():
    with pytest.raises(ValueError, match="empty range"):
        randbelow_many(random.Random(0), 0, 1)


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
    return unanimity_of(parts)


def assert_materializes(view):
    table = view.materialize({})
    assert len(table) == 1 << len(view.coords)
    for idx, out in enumerate(table):
        word = {c: (idx >> j) & 1 for j, c in enumerate(view.coords)}
        assert out == evaluate(view, word)


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
        assert_materializes(sample_view(views, rng, times))


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
    return unanimity_of(parts)


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
    views, times = views_of(6, [(Fraction(1, len(base)), v) for v in base]), draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [sample_view(views, rng, times) for _ in range(draw(st.integers(1, 12)))]
    return rows + [unanimity_of([base[0], base[-1], base[0]]), unanimity_of([])]


@settings(max_examples=300, deadline=None)
@given(product_rows())
def test_shape_memo_matches_materialize(rows):
    tables = {}
    for row in rows:
        shared = row.materialize(tables)
        assert shared == row.materialize({})
        assert any(shared is table for table in tables.values())
        # equal part tables in distinct tuple objects: the same shape, one entry
        known = len(tables)
        copy = UnanimityView(tuple(LocalView(p.coords, tuple(list(p.table))) for p in row.parts), row.coords)
        assert copy.materialize(tables) is shared
        assert len(tables) == known


def test_materialize_without_parts_rejects():
    assert unanimity_of([]).materialize({}) == (REJECT,)


def test_view_list_checks_its_universe():
    with pytest.raises(ValueError, match=r"^set 1 has elements outside \[0, 2\)$"):
        ExplicitViews(2, ((0,), (2,)), (1, 1), 2, ((0, 1),) * 2)
    views = ExplicitViews(3, ((0,), (2,)), (1, 1), 2, ((0, 1),) * 2)
    with pytest.raises(ValueError, match=r"index 0 has views over \[0, 3\), not \[0, 4\)"):
        NonAdaptiveDecoder(k=1, n=4, locality=1, views=(views,))


def test_decoder_holds_only_explicit_view_lists():
    views = ExplicitViews(3, ((0,), (2,)), (1, 1), 2, ((0, 1),) * 2)
    for other in (list(views), EntryViews(3, [(Fraction(1, 2), (0,), (0, 1)), (Fraction(1, 2), (2,), (0, 1))])):
        with pytest.raises(TypeError, match=rf"^index 1 holds a {type(other).__name__}, not an ExplicitViews view list$"):
            NonAdaptiveDecoder(k=2, n=3, locality=1, views=(views, other))
