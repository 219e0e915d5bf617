"""Decoder preprocessing: flatten, amplify, reduce randomness.

The three transformations applied in order turn an arbitrary adaptive local
decoder into a non-adaptive one with small soundness error and a coin space
of linear size:

1. flatten_adaptive queries every coordinate a decision tree might read and
   replays the tree on the answers -- output-identical, locality up to 2**l.
2. amplify runs R = ceil(log2(1/eps)) independent executions and answers b
   only on unanimity, driving the wrong-output probability below eps while
   keeping valid-codeword decoding exact.  Its result, an AmplifiedDecoder,
   is the base decoder and R; only reduce_randomness reads it.
3. reduce_randomness redraws the decoder's coins from a sampled multiset of
   fixed size t, so the coin space costs only ceil(log2 t) random bits.  The
   underlying guarantee is existential over all in-radius inputs; at desk
   scale the resampled decoder is validated against a caller-supplied corpus
   and the exact per-corpus wrong rates are reported, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from random import Random
from typing import Sequence

from .decoders import (
    MAX_TABLE_ENTRIES,
    REJECT,
    AdaptiveDecoder,
    ExplicitViews,
    LocalView,
    NonAdaptiveDecoder,
    TreeNode,
    UnanimityView,
    table_masks,
    tree_coords,
)
from .exact import format_fraction, integer_masses

RETRIES = 3  # resampling attempts after the first, before reduction fails

# Most parts (base views) one reduction attempt may sample, k x multiset x R: about
# 4.5 us each where rows repeat no part (an attempt at the budget takes 4.5 s and
# peaks at 112 MB), 0.3 us where they repeat a few base views (CHANGES.md).
MAX_SAMPLED_PARTS = 1 << 20

# Most mask bits one reduction attempt may AND to materialize its row shapes,
# charged as if every row were a new shape: per part, its table's non-REJECT
# entries (2^p for a dense table over p coordinates) times 2^w for the row's w
# merged coordinates.  Rows of two dense parts, each row a new shape over w = 16,
# took 0.027-0.046 ns a charged bit: 1.9-2.3 s and 66-69 MB at this cap (p = 12
# and 14, in-process on a 2-core x86-64 host; CHANGES.md).
MAX_MASK_BITS = 1 << 36


def flatten_adaptive(decoder: AdaptiveDecoder) -> NonAdaptiveDecoder:
    """Make every decision tree non-adaptive by querying all its labels.

    For each coin outcome the query set is the set of coordinates appearing
    anywhere in the tree (at most 2**l - 1 of them for depth l), and the
    predicate replays the tree on the read values, so the output matches the
    adaptive decoder exactly on every oracle and coin outcome.
    """
    views = []
    for dist in decoder.trees:
        rows, tables = [], []
        for _, tree in dist:
            coords = tuple(sorted(tree_coords(tree)))
            position = {c: j for j, c in enumerate(coords)}
            table = []
            for idx in range(1 << len(coords)):  # walk the tree on the values that idx gives coords
                node = tree
                while isinstance(node, TreeNode):
                    node = node.if_one if idx >> position[node.coord] & 1 else node.if_zero
                table.append(node)
            rows.append(coords)
            tables.append(tuple(table))
        masses, common = integer_masses([weight for weight, _ in dist])
        views.append(ExplicitViews(decoder.n, tuple(rows), tuple(masses), common, tuple(tables)))
    locality = max([1] + [view_set.max_view_size() for view_set in views])
    return NonAdaptiveDecoder(
        k=decoder.k, n=decoder.n, locality=locality, views=tuple(views)
    )


def repetitions_for(epsilon: Fraction) -> int:
    """Smallest R with 2**-R <= epsilon, i.e. R = ceil(log2(1/epsilon))."""
    if not 0 < epsilon <= Fraction(1, 3):
        raise ValueError(f"target error must lie in (0, 1/3], got {epsilon}")
    r = 0
    while (epsilon.numerator << r) < epsilon.denominator:
        r += 1
    return r


@dataclass(frozen=True)
class AmplifiedDecoder:
    """Unanimity over `times` independent runs of a base decoder, whose coin outcomes are never listed."""

    base: NonAdaptiveDecoder
    times: int

    def __post_init__(self) -> None:
        if self.times < 1:
            raise ValueError("need at least one repetition")

    @property
    def locality(self) -> int:
        return self.base.locality * self.times


def amplify(decoder: NonAdaptiveDecoder, epsilon: Fraction) -> AmplifiedDecoder:
    """Unanimity over R = ceil(log2(1/eps)) independent parallel executions.

    The merged decoder outputs b in {0,1} iff all executions output b and
    REJECT otherwise, so valid-codeword decoding stays exact and the
    wrong-output probability drops to at most (1/3)**R <= eps.
    """
    return AmplifiedDecoder(decoder, repetitions_for(Fraction(epsilon)))


@dataclass(frozen=True)
class ReductionReport:
    """Validation outcome of a randomness reduction attempt.

    entry_rates holds, per corpus entry, the exact worst (over indices)
    fraction of multiset rows whose output is neither the reference bit nor
    REJECT; max_wrong_rate is their maximum and decides passed.
    """

    multiset_size: int
    validation_corpus_size: int
    max_wrong_rate: Fraction
    passed: bool
    attempts: int
    entry_rates: tuple[Fraction, ...] = ()

    def to_json(self) -> dict:
        return {
            "multiset_size": self.multiset_size,
            "validation_corpus_size": self.validation_corpus_size,
            "max_wrong_rate": format_fraction(self.max_wrong_rate),
            "passed": self.passed,
            "attempts": self.attempts,
            "entry_rates": [format_fraction(r) for r in self.entry_rates],
        }


class ReductionFailedError(RuntimeError):
    """Raised when every resampling attempt exceeded the tolerance."""

    def __init__(self, report: ReductionReport):
        super().__init__(
            f"randomness reduction failed after {report.attempts} attempts "
            f"(max wrong rate {report.max_wrong_rate})"
        )
        self.report = report


def reduce_randomness(
    decoder: NonAdaptiveDecoder | AmplifiedDecoder,
    multiset_size: int,
    corpus: Sequence[tuple[Sequence[int], Sequence[int]]],
    tolerance: Fraction,
    rng: Random,
) -> tuple[NonAdaptiveDecoder, ReductionReport]:
    """Redraw each index's coins from a uniform multiset of `multiset_size` rows.

    Each corpus entry (oracle word, reference message) must be within the
    decoding radius of its codeword; the report gives the exact worst fraction
    of rows whose output is neither the reference bit nor REJECT.  Over
    `tolerance`, the multisets are resampled up to RETRIES more times, and then
    ReductionFailedError carries the final report.  It raises ValueError before
    sampling for a negative tolerance, which no corpus can meet, and for over
    MAX_TABLE_ENTRIES table entries, MAX_SAMPLED_PARTS sampled parts (k x
    multiset x R) or MAX_MASK_BITS mask bits in all.  A row is R draws of base row numbers
    (ExplicitViews.draw; R = 1 for a plain decoder), and its parts are the
    distinct rows drawn.  The corpus is checked as bit masks: bit t of column c
    is word t at c, and a row's wrong words are `ones & ~truth | zeros & truth`
    over its parts' table_masks, made at most once per base row.  A row's key
    is the positions of its parts' coordinates among the merged ones and the
    parts' table numbers (one per table value); a new key materializes through
    one shape memo per call, so every row of a shape shares one table tuple.
    """
    if multiset_size < 1:
        raise ValueError("multiset size must be >= 1")
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    base, times = (decoder.base, decoder.times) if isinstance(decoder, AmplifiedDecoder) else (decoder, 1)
    # a row merges `times` base rows, but reads no more than all its list covers
    widths = [min(v.max_view_size() * times, len(set(chain.from_iterable(v.sets)))) for v in base.views]
    entries = sum(multiset_size << width for width in widths)
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(f"reduction needs {entries} table entries, over {MAX_TABLE_ENTRIES}")
    parts = multiset_size * times * base.k
    if parts > MAX_SAMPLED_PARTS:
        raise ValueError(f"reduction samples {parts} parts, over {MAX_SAMPLED_PARTS}")
    # a new row shape ANDs masks of 2^width bits for each non-REJECT entry of each part's table
    dense = [max(len(t) - t.count(REJECT) for t in {id(t): t for t in v.tables}.values()) for v in base.views]
    mask_bits = sum(multiset_size * times * most << width for most, width in zip(dense, widths))
    if mask_bits > MAX_MASK_BITS:
        raise ValueError(f"reduction may AND {mask_bits} mask bits, over {MAX_MASK_BITS}")
    full = (1 << len(corpus)) - 1
    columns = [sum(1 << t for t, (w, _) in enumerate(corpus) if w[c]) for c in range(base.n)]
    truths = [sum(1 << t for t, (_, x) in enumerate(corpus) if x[i]) for i in range(base.k)]
    objects, by_value = {id(t): t for views in base.views for t in views.tables}, {}  # ids stay valid: the decoder holds them
    number = {key: by_value.setdefault(table, len(by_value)) for key, table in objects.items()}  # one per value
    numbers = [list(map(number.__getitem__, map(id, views.tables))) for views in base.views]
    masks = [{} for _ in base.views]  # per list, base row number -> its table_masks over the corpus
    shapes, tables = {}, {}  # row key -> its table; materialize's memo by shape
    for attempt in range(1, RETRIES + 2):
        reduced, worst = [], [0] * len(corpus)
        for views, row_numbers, row_masks, truth in zip(base.views, numbers, masks, truths):
            sets, view_tables = views.sets, views.tables
            row_sets, row_tables, counts = [], [], [0] * len(corpus)
            draws = views.draw(rng, multiset_size * times)
            for r in set(draws).difference(row_masks):  # made once per base row, and only once it is drawn
                row_masks[r] = table_masks(view_tables[r], [columns[c] for c in sets[r]], full)
            for drawn in zip(*[iter(draws)] * times):  # `times` draws a row
                drawn = sorted(set(drawn))  # a repeated part changes neither the table nor the masks
                coords = list(chain.from_iterable(map(sets.__getitem__, drawn)))
                merged = tuple(sorted(set(coords)))
                key = (tuple(map(merged.index, coords)), tuple(map(row_numbers.__getitem__, drawn)))
                table = shapes.get(key)
                if table is None:
                    row_parts = tuple(map(LocalView, map(sets.__getitem__, drawn), map(view_tables.__getitem__, drawn)))
                    table = shapes[key] = UnanimityView(row_parts, merged).materialize(tables)
                row_sets.append(merged)
                row_tables.append(table)
                ones = zeros = full
                for part_ones, part_zeros in map(row_masks.__getitem__, drawn):
                    ones &= part_ones
                    zeros &= part_zeros
                wrong = ones & ~truth | zeros & truth
                while wrong:
                    counts[(wrong & -wrong).bit_length() - 1] += 1
                    wrong &= wrong - 1
            reduced.append(ExplicitViews(base.n, tuple(row_sets), (1,) * multiset_size, multiset_size, tuple(row_tables)))
            worst = list(map(max, worst, counts))
        entry_rates = tuple(Fraction(count, multiset_size) for count in worst)
        max_wrong_rate = max(entry_rates, default=Fraction(0))
        passed = max_wrong_rate <= tolerance
        report = ReductionReport(multiset_size, len(corpus), max_wrong_rate, passed, attempt, entry_rates)
        if passed:
            return NonAdaptiveDecoder(base.k, base.n, decoder.locality, tuple(reduced)), report
    raise ReductionFailedError(report)


def randomness_complexity(decoder: NonAdaptiveDecoder) -> int:
    """Coin bits needed to index the largest per-index coin space."""
    return (max(map(len, decoder.views)) - 1).bit_length()


def epsilon_for_locality(decoder: NonAdaptiveDecoder, literal: bool = False) -> Fraction:
    """Default amplification target.

    The post-amplification locality grows with the repetition count, so the
    default solves eps = 1/locality'**2 by one fixed-point pass: start from
    the pre-amplification locality, compute R, and re-target against the
    resulting locality.  `literal=True` instead returns 1/locality**2 for the
    decoder as given.  Below locality 2 neither lies in (0, 1/3]: ValueError.
    """
    base = decoder.locality
    if base < 2:
        raise ValueError(f"the default target error is undefined at locality {base}; give epsilon")
    if literal:
        return Fraction(1, base * base)
    final = base * repetitions_for(Fraction(1, base * base))
    return Fraction(1, final * final)


def preprocess_pipeline(
    decoder: AdaptiveDecoder | NonAdaptiveDecoder,
    epsilon: Fraction | None,
    multiset_size: int,
    corpus: Sequence[tuple[Sequence[int], Sequence[int]]],
    tolerance: Fraction | None,
    rng: Random,
    literal_epsilon: bool = False,
) -> tuple[NonAdaptiveDecoder, ReductionReport]:
    """flatten -> amplify -> reduce, in that order.  epsilon None targets
    epsilon_for_locality(flattened decoder, literal_epsilon), and tolerance
    None is twice the target."""
    flat = flatten_adaptive(decoder) if isinstance(decoder, AdaptiveDecoder) else decoder
    target = Fraction(epsilon) if epsilon is not None else epsilon_for_locality(flat, literal_epsilon)
    tolerance = 2 * target if tolerance is None else tolerance
    return reduce_randomness(amplify(flat, target), multiset_size, corpus, tolerance, rng)
