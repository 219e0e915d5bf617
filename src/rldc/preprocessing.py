"""Decoder preprocessing: flatten, amplify, reduce randomness.

The three transformations applied in order turn an arbitrary adaptive local
decoder into a non-adaptive one with small soundness error and a coin space
of linear size:

1. flatten_adaptive queries every coordinate a decision tree might read and
   replays the tree on the answers -- output-identical, locality up to 2**l.
2. amplify runs R = ceil(log2(1/eps)) independent executions and answers b
   only on unanimity, driving the wrong-output probability below eps while
   keeping valid-codeword decoding exact.
3. reduce_randomness redraws the decoder's coins from a sampled multiset of
   fixed size t, so the coin space costs only ceil(log2 t) random bits.  The
   underlying guarantee is existential over all in-radius inputs; at desk
   scale the resampled decoder is validated against a caller-supplied corpus
   and the exact per-corpus wrong rates are reported, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Sequence

from .decoders import (
    MAX_TABLE_ENTRIES,
    AdaptiveDecoder,
    ExplicitViews,
    LocalView,
    NonAdaptiveDecoder,
    ProductViews,
    UnanimityView,
    run_tree,
    table_masks,
    tree_coords,
)

RETRIES = 3  # resampling attempts after the first, before reduction fails

# Most parts (base views) one reduction attempt may sample, k x multiset x R:
# about 4.5 us each, so an attempt at the budget takes about 5 s (CHANGES.md).
MAX_SAMPLED_PARTS = 1 << 20


def flatten_adaptive(decoder: AdaptiveDecoder) -> NonAdaptiveDecoder:
    """Make every decision tree non-adaptive by querying all its labels.

    For each coin outcome the query set is the set of coordinates appearing
    anywhere in the tree (at most 2**l - 1 of them for depth l), and the
    predicate replays the tree on the read values, so the output matches the
    adaptive decoder exactly on every oracle and coin outcome.
    """
    views = []
    locality = 1
    for dist in decoder.trees:
        entries = []
        for weight, tree in dist:
            coords = tuple(sorted(tree_coords(tree)))
            position = {c: j for j, c in enumerate(coords)}
            table = []
            for idx in range(1 << len(coords)):
                lookup = {c: (idx >> position[c]) & 1 for c in coords}
                out, _ = run_tree(tree, lookup)
                table.append(out)
            entries.append((weight, LocalView(coords, tuple(table))))
            locality = max(locality, len(coords))
        views.append(ExplicitViews(entries))
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


def amplify(decoder: NonAdaptiveDecoder, epsilon: Fraction) -> NonAdaptiveDecoder:
    """Unanimity over R = ceil(log2(1/eps)) independent parallel executions.

    The merged decoder outputs b in {0,1} iff all executions output b and
    REJECT otherwise, so valid-codeword decoding stays exact and the
    wrong-output probability drops to at most (1/3)**R <= eps.  The coin
    space is the R-fold product, held lazily.
    """
    reps = repetitions_for(Fraction(epsilon))
    views = []
    for i in range(decoder.k):
        base = decoder.views[i]
        if not isinstance(base, ExplicitViews):
            raise TypeError("amplify expects an explicit coin space; reduce first")
        views.append(ProductViews(base, reps))
    return NonAdaptiveDecoder(
        k=decoder.k,
        n=decoder.n,
        locality=decoder.locality * reps,
        views=tuple(views),
    )


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
            "max_wrong_rate": f"{self.max_wrong_rate.numerator}/{self.max_wrong_rate.denominator}",
            "passed": self.passed,
            "attempts": self.attempts,
            "entry_rates": [f"{r.numerator}/{r.denominator}" for r in self.entry_rates],
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
    decoder: NonAdaptiveDecoder,
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
    ReductionFailedError carries the final report.  It raises ValueError
    before sampling for a negative tolerance, which no corpus can meet, and
    for over MAX_TABLE_ENTRIES table entries or MAX_SAMPLED_PARTS sampled
    parts (k x multiset x R) in all.  The corpus is checked as bit masks: bit
    t of column c is word t at c, and a row's wrong words are `ones & ~truth |
    zeros & truth` over its parts' table_masks (each built once).  Amplified
    rows materialize through one shape memo per call, so each distinct row
    shape builds its table once and every row of that shape shares the tuple.
    """
    if multiset_size < 1:
        raise ValueError("multiset size must be >= 1")
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    entries = sum(multiset_size << views.max_view_size() for views in decoder.views)
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(f"reduction needs {entries} table entries, over {MAX_TABLE_ENTRIES}")
    parts = multiset_size * sum(v.times if isinstance(v, ProductViews) else 1 for v in decoder.views)
    if parts > MAX_SAMPLED_PARTS:
        raise ValueError(f"reduction samples {parts} parts, over {MAX_SAMPLED_PARTS}")
    uniform = Fraction(1, multiset_size)
    full = (1 << len(corpus)) - 1
    columns = [sum(1 << t for t, (w, _) in enumerate(corpus) if w[c]) for c in range(decoder.n)]
    truths = [sum(1 << t for t, (_, x) in enumerate(corpus) if x[i]) for i in range(decoder.k)]
    masks = {}  # part -> its table_masks over the corpus
    tables = {}  # row shape -> its materialized table, shared by every row of that shape
    for attempt in range(1, RETRIES + 2):
        views, worst = [], [0] * len(corpus)
        for view_set, truth in zip(decoder.views, truths):
            rows = [view_set.sample(rng) for _ in range(multiset_size)]
            concrete = [row.materialize(tables) if isinstance(row, UnanimityView) else row for row in rows]
            views.append(ExplicitViews([(uniform, view) for view in concrete]))
            counts = [0] * len(corpus)
            for row in rows:
                row_parts = row.parts if isinstance(row, UnanimityView) else (row,)
                if not row_parts:  # REJECT is never wrong; an AND over no parts is full
                    continue
                ones = zeros = full
                for part in row_parts:
                    part_masks = masks.get(part)
                    if part_masks is None:
                        part_masks = masks[part] = table_masks(part.table, [columns[c] for c in part.coords], full)
                    ones, zeros = ones & part_masks[0], zeros & part_masks[1]
                wrong = ones & ~truth | zeros & truth
                while wrong:
                    counts[(wrong & -wrong).bit_length() - 1] += 1
                    wrong &= wrong - 1
            worst = list(map(max, worst, counts))
        entry_rates = tuple(Fraction(count, multiset_size) for count in worst)
        max_wrong_rate = max(entry_rates, default=Fraction(0))
        passed = max_wrong_rate <= tolerance
        report = ReductionReport(multiset_size, len(corpus), max_wrong_rate, passed, attempt, entry_rates)
        if passed:
            return NonAdaptiveDecoder(decoder.k, decoder.n, decoder.locality, tuple(views)), report
    raise ReductionFailedError(report)


def randomness_complexity(decoder: NonAdaptiveDecoder) -> int:
    """Coin bits needed to index the largest per-index coin space."""
    worst = max(len(decoder.views[i]) for i in range(decoder.k))
    return (worst - 1).bit_length()


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
