"""Exact reference quantities of a non-adaptive decoder, and the plain
entry-by-entry forms of the mask computations, for the tests."""

from fractions import Fraction

from rldc.decoders import REJECT, ExplicitViews, LocalView, NonAdaptiveDecoder
from rldc.preprocessing import RETRIES, ReductionFailedError, ReductionReport


def output_distribution(decoder, w, i):
    """Exact output distribution of decoder(i) on oracle w over its coin space."""
    dist = {}
    for weight, view in decoder.views[i]:
        out = view.read_and_evaluate(w)
        dist[out] = dist.get(out, Fraction(0)) + weight
    return dist


def wrong_rate(decoder, w, i, true_bit):
    """Exact probability that decoder(i) on w outputs the wrong bit (not REJECT)."""
    return output_distribution(decoder, w, i).get(1 - true_bit, Fraction(0))


def column_fold(view):
    """A UnanimityView's table by the column fold: each part's table indices
    over all merged indices double once per merged coordinate, and the
    parts' columns fold pairwise, a REJECT or disagreement giving REJECT."""
    table = None
    for part in view.parts:
        bit = {c: 1 << j for j, c in enumerate(part.coords)}
        idx = [0]
        for c in view.coords:
            b = bit.get(c, 0)
            idx += [v | b for v in idx] if b else idx
        col = [part.table[v] for v in idx]
        table = col if table is None else [a if a == b else REJECT for a, b in zip(table, col)]
    return LocalView(view.coords, tuple(table or (REJECT,)))


def reduce_by_words(decoder, multiset_size, corpus, tolerance, rng):
    """reduce_randomness evaluated word by word: every row's column-folded
    table reads every corpus word, and the wrong rows are counted per index."""
    uniform = Fraction(1, multiset_size)
    report = None
    for attempt in range(1, RETRIES + 2):
        views = []
        for i in range(decoder.k):
            rows = [decoder.views[i].sample(rng) for _ in range(multiset_size)]
            views.append(ExplicitViews(
                [(uniform, row if isinstance(row, LocalView) else column_fold(row)) for row in rows]
            ))
        reduced = NonAdaptiveDecoder(
            k=decoder.k, n=decoder.n, locality=decoder.locality, views=tuple(views)
        )
        entry_rates = []
        for word, message in corpus:
            entry_worst = Fraction(0)
            for i in range(decoder.k):
                wrong = sum(
                    1 for _, view in views[i]
                    if view.read_and_evaluate(word) not in (message[i], REJECT)
                )
                entry_worst = max(entry_worst, Fraction(wrong, multiset_size))
            entry_rates.append(entry_worst)
        worst = max(entry_rates, default=Fraction(0))
        report = ReductionReport(
            multiset_size=multiset_size,
            validation_corpus_size=len(corpus),
            max_wrong_rate=worst,
            passed=worst <= tolerance,
            attempts=attempt,
            entry_rates=tuple(entry_rates),
        )
        if report.passed:
            return reduced, report
    raise ReductionFailedError(report)
