"""Reference semantics for the tests: of local decoders, exact output
distributions, decoding by one sampled coin, the walk of one decision tree,
the entry-by-entry view list that ExplicitViews's rows replace, and the plain
forms of the mask computations; of the claim suites, the random instances
drawn call by call."""

import functools
import itertools
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

from rldc.decoders import REJECT, ExplicitViews, LocalView, NonAdaptiveDecoder, TreeNode, UnanimityView
from rldc.exact import integer_masses
from rldc.preprocessing import RETRIES, AmplifiedDecoder, ReductionFailedError, ReductionReport
from rldc.set_system import SetSystem


def views_of(n, entries):
    """ExplicitViews over [0, n) holding (weight, LocalView) entries as rows."""
    masses, common = integer_masses([weight for weight, _ in entries])
    rows = tuple(view.coords for _, view in entries)
    return ExplicitViews(n, rows, tuple(masses), common, tuple(view.table for _, view in entries))


def mass_table(weights):
    """(cumulative masses, total) over the weights' least common denominator."""
    masses, common = integer_masses(weights)
    return tuple(itertools.accumulate(masses)), common


def draw(table, rng):
    """The entry that one rng.randrange(total) picks from a mass table."""
    cum, total = table
    return bisect_right(cum, rng.randrange(total))


class EntryViews:
    """A view list over [0, n) kept entry by entry: one (weight, LocalView)
    pair per raw (weight, coords, table) entry, checked entry by entry with
    the texts of ExplicitViews and sampled through mass_table."""

    def __init__(self, n, raw):
        if not raw:
            raise ValueError("a decoder index needs at least one view")
        for j, (_, coords, _) in enumerate(raw):
            for a, b in zip(coords, coords[1:]):
                if a == b:
                    raise ValueError(f"set {j} repeats element {a}")
                if a > b:
                    raise ValueError(f"set {j} is not strictly sorted: {coords}")
            if coords and (coords[0] < 0 or coords[-1] >= n):
                raise ValueError(f"set {j} has elements outside [0, {n})")
        masses, common = integer_masses([wt for wt, _, _ in raw])
        if sum(masses) != common:
            raise ValueError("weights must sum to exactly 1")
        if any(m <= 0 for m in masses):
            raise ValueError("weights must be positive")
        self.n = n
        self.entries = tuple((wt, LocalView(coords, table)) for wt, coords, table in raw)  # checks each table

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def sample(self, rng):
        return self.entries[draw(mass_table([wt for wt, _ in self.entries]), rng)][1]

    def max_view_size(self):
        return max(len(v.coords) for _, v in self.entries)


def unanimity_of(parts):
    """The UnanimityView of parts in the given order over their merged coordinates."""
    return UnanimityView(tuple(parts), tuple(sorted({c for part in parts for c in part.coords})))


def runs(decoder, i):
    """(index i's base view list, its run count): an AmplifiedDecoder's
    times, or None for a plain decoder's list, run once as it is."""
    base, times = (decoder.base, decoder.times) if isinstance(decoder, AmplifiedDecoder) else (decoder, None)
    if i < 0 or i >= base.k:
        raise ValueError(f"index {i} outside [0, {base.k})")
    return base.views[i], times


def sample_view(view_set, rng, times=None):
    """One coin outcome drawn through draw, one rng.randrange per part: a
    view of the list, or given `times` the unanimity of `times` draws in
    draw order."""
    if times is not None:
        return unanimity_of([sample_view(view_set, rng) for _ in range(times)])
    entries, table = _entries(view_set)
    return entries[draw(table, rng)][1]


@functools.lru_cache(maxsize=64)
def _entries(view_set):
    """A view list's entries and their mass table, cached by the list's
    value: equal lists have equal entries."""
    entries = list(view_set)
    return entries, mass_table([wt for wt, _ in entries])


def check_entry_decoder(n, locality, view_set):
    """The decoder checks on one index's entries: its universe, then the
    locality."""
    if view_set.n != n:
        raise ValueError(f"index 0 has views over [0, {view_set.n}), not [0, {n})")
    if view_set.max_view_size() > locality:
        raise ValueError(f"index 0 has a view larger than locality {locality}")


def evaluate(view, w):
    """A LocalView's output on w; a UnanimityView outputs b iff every part
    does, and REJECT on any REJECT or disagreement."""
    if isinstance(view, LocalView):
        return view.read_and_evaluate(w)
    verdict = None
    for part in view.parts:
        out = part.read_and_evaluate(w)
        if out is REJECT:
            return REJECT
        if verdict is None:
            verdict = out
        elif out != verdict:
            return REJECT
    return verdict


def product_entries(views, times):
    """Every (weight, UnanimityView) of `times` independent runs of a list."""
    for combo in itertools.product(views, repeat=times):
        weight = Fraction(1)
        for wt, _ in combo:
            weight *= wt
        yield weight, unanimity_of([view for _, view in combo])


def coin_space(decoder, i):
    """The (weight, view) entries of index i of a plain or an amplified decoder."""
    views, times = runs(decoder, i)
    return iter(views) if times is None else product_entries(views, times)


def decode(decoder, w, i, rng):
    """Sample one view for index i and apply it to w: (output, queried set)."""
    view_set, times = runs(decoder, i)
    view = sample_view(view_set, rng, times)
    return evaluate(view, w), frozenset(view.coords)


def run_tree(tree, w):
    """Walk a tree against an oracle, returning (output, queried coords in order)."""
    queried = []
    node = tree
    while isinstance(node, TreeNode):
        queried.append(node.coord)
        node = node.if_one if w[node.coord] else node.if_zero
    return node, tuple(queried)


def adaptive_decode(decoder, w, i, rng):
    """Draw one tree for index i by its weight and run it on w: (output,
    queried set)."""
    if i < 0 or i >= decoder.k:
        raise ValueError(f"index {i} outside [0, {decoder.k})")
    dist = decoder.trees[i]
    tree = dist[draw(mass_table([wt for wt, _ in dist]), rng)][1]
    out, queried = run_tree(tree, w)
    return out, frozenset(queried)


def output_distribution(decoder, w, i):
    """Exact output distribution of decoder(i) on oracle w over its coin space."""
    dist = {}
    for weight, view in coin_space(decoder, i):
        out = evaluate(view, w)
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
    return tuple(table or (REJECT,))


def reduce_by_words(decoder, multiset_size, corpus, tolerance, rng):
    """reduce_randomness evaluated word by word: every row's column-folded
    table reads every corpus word, and the wrong rows are counted per index."""
    uniform = Fraction(1, multiset_size)
    base = decoder.base if isinstance(decoder, AmplifiedDecoder) else decoder
    report = None
    for attempt in range(1, RETRIES + 2):
        views = []
        for i in range(base.k):
            view_set, times = runs(decoder, i)
            rows = [sample_view(view_set, rng, times) for _ in range(multiset_size)]
            views.append(views_of(base.n, [
                (uniform, row if isinstance(row, LocalView) else LocalView(row.coords, column_fold(row))) for row in rows
            ]))
        reduced = NonAdaptiveDecoder(
            k=base.k, n=base.n, locality=decoder.locality, views=tuple(views)
        )
        entry_rates = []
        for word, message in corpus:
            entry_worst = Fraction(0)
            for i in range(base.k):
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


def random_set_system(n, set_count, set_size, rng):
    """set_count sorted rng.sample(range(n), set_size) calls."""
    universe = list(range(n))
    return SetSystem(
        n, tuple(tuple(sorted(rng.sample(universe, set_size))) for _ in range(set_count))
    )


def random_masses(count, rng):
    """count rng.randrange(1, 1000) calls."""
    return tuple(rng.randrange(1, 1000) for _ in range(count))


def random_daisy_instance(rng):
    """harness.random_daisy_instance with the available elements rebuilt by a
    filter after every petal."""
    n = rng.choice((64, 128, 256, 512, 1024))
    petal_bound = rng.randint(1, 4)
    degree_bound = rng.randint(1, 4)
    kernel_size = rng.randint(1, max(2, n // 16))
    elements = list(range(n))
    rng.shuffle(elements)
    kernel = elements[:kernel_size]
    outside = elements[kernel_size:]

    usage = Counter()
    available = list(outside)
    sets = []
    target = rng.randint(1, n)
    while len(sets) < target and available:
        if rng.random() < 0.05:
            petal = []
        else:
            size = rng.randint(1, petal_bound)
            if size > len(available):
                break
            petal = rng.sample(available, size)
            for e in petal:
                usage[e] += 1
            available = [e for e in available if usage[e] < degree_bound]
        inside = rng.sample(kernel, rng.randint(0 if petal else 1, min(2, kernel_size)))
        sets.append(tuple(sorted(petal + inside)))
    if not sets:
        sets.append((kernel[0],))
    return SetSystem(n, tuple(sets)), frozenset(kernel), petal_bound, degree_bound
