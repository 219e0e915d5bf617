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
    REJECT,
    AdaptiveDecoder,
    ExplicitViews,
    LocalView,
    NonAdaptiveDecoder,
    ProductViews,
    run_tree,
    tree_coords,
)

RETRIES = 3  # resampling attempts after the first, before reduction fails


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
        views.append(ProductViews(base, reps) if reps > 1 else base)
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


def _concrete(view) -> LocalView:
    return view if isinstance(view, LocalView) else view.materialize()


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
    """Redraw each index's coins from a uniform multiset of fixed size.

    Per index, samples a multiset of `multiset_size` coin outcomes (views)
    and builds a decoder that draws uniformly from it, so the coin space has
    exactly `multiset_size` rows.  Each corpus entry (oracle word, reference
    message) must be within the decoding radius of its codeword; the report
    gives the exact worst fraction of rows whose output is neither the
    reference bit nor REJECT.  If that exceeds `tolerance`, the multisets are
    resampled, up to RETRIES extra attempts, before failing with
    ReductionFailedError carrying the final report.  Rows that could hold
    over MAX_TABLE_ENTRIES table entries in all raise ValueError up front.
    """
    if multiset_size < 1:
        raise ValueError("multiset size must be >= 1")
    entries = sum(multiset_size << views.max_view_size() for views in decoder.views)
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(f"reduction needs {entries} table entries, over {MAX_TABLE_ENTRIES}")
    uniform = Fraction(1, multiset_size)
    report = None
    for attempt in range(1, RETRIES + 2):
        views = tuple(
            ExplicitViews(
                [
                    (uniform, _concrete(decoder.views[i].sample(rng)))
                    for _ in range(multiset_size)
                ]
            )
            for i in range(decoder.k)
        )
        reduced = NonAdaptiveDecoder(
            k=decoder.k, n=decoder.n, locality=decoder.locality, views=views
        )

        entry_rates = []
        for word, message in corpus:
            entry_worst = Fraction(0)
            for i in range(decoder.k):
                true_bit = message[i]
                wrong = sum(
                    1
                    for _, view in views[i]
                    if view.read_and_evaluate(word) not in (true_bit, REJECT)
                )
                rate = Fraction(wrong, multiset_size)
                if rate > entry_worst:
                    entry_worst = rate
            entry_rates.append(entry_worst)
        worst = max(entry_rates, default=Fraction(0))
        passed = worst <= tolerance
        report = ReductionReport(
            multiset_size=multiset_size,
            validation_corpus_size=len(corpus),
            max_wrong_rate=worst,
            passed=passed,
            attempts=attempt,
            entry_rates=tuple(entry_rates),
        )
        if passed:
            return reduced, report
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
    decoder as given.
    """
    base = decoder.locality
    if literal:
        return Fraction(1, base * base)
    reps = repetitions_for(Fraction(1, base * base))
    final = base * max(reps, 1)
    return Fraction(1, final * final)


def preprocess_pipeline(
    decoder: AdaptiveDecoder | NonAdaptiveDecoder,
    epsilon: Fraction | None,
    multiset_size: int,
    corpus: Sequence[tuple[Sequence[int], Sequence[int]]],
    tolerance: Fraction,
    rng: Random,
    literal_epsilon: bool = False,
) -> tuple[NonAdaptiveDecoder, ReductionReport]:
    """flatten -> amplify -> reduce, in that order."""
    flat = flatten_adaptive(decoder) if isinstance(decoder, AdaptiveDecoder) else decoder
    target = Fraction(epsilon) if epsilon is not None else epsilon_for_locality(flat, literal_epsilon)
    amplified = amplify(flat, target)
    return reduce_randomness(amplified, multiset_size, corpus, tolerance, rng)
