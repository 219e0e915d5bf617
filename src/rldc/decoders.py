"""Local decoders (adaptive and non-adaptive) and concrete codes.

A decoder output is 0, 1, or REJECT (None): decoders may refuse to decode a
corrupted word but must never be wrong too often inside the decoding radius,
and must be exact on valid codewords.

Non-adaptive decoders are stored per message index as weighted query sets
with predicate truth tables, which doubles as the weighted set system that
daisy extraction consumes.  Probabilities are exact rationals, summed and
checked as integer masses over their least common denominator
(exact.integer_masses); sampling draws those masses, so a seeded run is
reproducible and matches the exact distribution.

table_masks evaluates a table on a set of points at once as bit masks: it makes
an amplified coin outcome (UnanimityView) one table and checks a whole corpus.
That table depends only on the outcome's shape (unanimity_table), so a batch
of outcomes can share one table per shape.

decoder_to_json writes the JSON that `rldc preprocess` prints; nothing reads
it back.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import itemgetter
from random import Random
from typing import Callable, Iterable, Iterator, Sequence

from .exact import format_fraction, integer_masses
from .set_system import SetSystem, WeightedSetSystem

Symbol = int | None  # 0, 1, or REJECT
REJECT = None

_SYMBOLS = (0, 1, None)
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")

# Most table entries one step may build (a shared-pivot table; all reduced rows),
# set from the measured time and memory of `rldc preprocess` (CHANGES.md).
MAX_TABLE_ENTRIES = 1 << 23

# Most local views a built-in code may build, each message index counting as
# 4 views more: `rldc simulate` peaks at about 350-700 B per view plus about
# 1.7 KB per index.  Runs at the budget peaked at 0.46-0.77 GB (CHANGES.md).
MAX_VIEWS = 1 << 20
INDEX_VIEWS = 4


def _check_views(views: int, k: int) -> None:
    if views + INDEX_VIEWS * k > MAX_VIEWS:
        raise ValueError(
            f"{views} local views over {k} indices exceed the budget of {MAX_VIEWS} "
            f"(each index counts as {INDEX_VIEWS} views)"
        )


def _check_symbol(value) -> None:
    if value not in _SYMBOLS:
        raise ValueError(f"symbol must be 0, 1, or REJECT, got {value!r}")


# ---------------------------------------------------------------------------
# decision trees (adaptive decoders)


@dataclass(frozen=True)
class TreeNode:
    """Internal decision-tree node: query `coord`, branch on the read bit.

    Children are either TreeNode or a leaf symbol (0, 1, or REJECT).
    """

    coord: int
    if_zero: "TreeNode | int | None"
    if_one: "TreeNode | int | None"


def tree_coords(tree) -> frozenset[int]:
    """All coordinates labelling internal nodes."""
    if not isinstance(tree, TreeNode):
        return frozenset()
    return frozenset({tree.coord}) | tree_coords(tree.if_zero) | tree_coords(tree.if_one)


def validate_tree(tree, n: int, max_depth: int, _path: frozenset[int] = frozenset()) -> None:
    """Check coordinate ranges, the depth bound, and path-distinct queries."""
    if not isinstance(tree, TreeNode):
        _check_symbol(tree)
        return
    if max_depth < 1:
        raise ValueError("tree exceeds the depth bound")
    if tree.coord < 0 or tree.coord >= n:
        raise ValueError(f"tree queries coordinate {tree.coord} outside [0, {n})")
    if tree.coord in _path:
        raise ValueError(f"coordinate {tree.coord} queried twice on one path")
    path = _path | {tree.coord}
    validate_tree(tree.if_zero, n, max_depth - 1, path)
    validate_tree(tree.if_one, n, max_depth - 1, path)


def run_tree(tree, w) -> "tuple[int | None, tuple[int, ...]]":
    """Walk a tree against an oracle, returning (output, queried coords in order)."""
    queried: list[int] = []
    node = tree
    while isinstance(node, TreeNode):
        bit = w[node.coord]
        queried.append(node.coord)
        node = node.if_one if bit else node.if_zero
    return node, tuple(queried)


@dataclass(frozen=True)
class AdaptiveDecoder:
    """Per message index, a rational-weighted distribution over decision trees."""

    k: int
    n: int
    locality: int
    trees: tuple[tuple[tuple[Fraction, "TreeNode | int | None"], ...], ...]

    def __post_init__(self) -> None:
        if len(self.trees) != self.k:
            raise ValueError("one tree distribution per message index required")
        for i, dist in enumerate(self.trees):
            masses, common = integer_masses([wt for wt, _ in dist])
            if sum(masses) != common:
                raise ValueError(f"tree weights for index {i} must sum to 1")
            for mass, (_, tree) in zip(masses, dist):
                if mass <= 0:
                    raise ValueError("tree weights must be positive")
                validate_tree(tree, self.n, self.locality)

    def decode(self, w, i: int, rng: Random) -> "tuple[int | None, frozenset[int]]":
        if i < 0 or i >= self.k:
            raise ValueError(f"index {i} outside [0, {self.k})")
        dist = self.trees[i]
        masses = _mass_table([wt for wt, _ in dist])
        tree = dist[_draw(masses, rng)][1]
        out, queried = run_tree(tree, w)
        return out, frozenset(queried)


def _mass_table(weights: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    masses, common = integer_masses(weights)
    return tuple(itertools.accumulate(masses)), common


def _draw(mass_table: tuple[tuple[int, ...], int], rng: Random) -> int:
    cum, total = mass_table
    return bisect_right(cum, rng.randrange(total))


# ---------------------------------------------------------------------------
# non-adaptive decoders


@dataclass(frozen=True)
class LocalView:
    """One query set with its predicate truth table.

    coords are strictly increasing; table has 2**len(coords) entries and
    bit j of the table index is the value read at coords[j].
    """

    coords: tuple[int, ...]
    table: "tuple[int | None, ...]"

    def __post_init__(self) -> None:
        if len(self.table) != 1 << len(self.coords):
            raise ValueError("table must cover all assignments of the query set")
        if any(a >= b for a, b in zip(self.coords, self.coords[1:])):
            raise ValueError(f"coords must be strictly increasing: {self.coords}")

    def read_and_evaluate(self, w) -> "int | None":
        idx = 0
        for j, c in enumerate(self.coords):
            if w[c]:
                idx |= 1 << j
        return self.table[idx]


@dataclass(frozen=True)
class UnanimityView:
    """Several views run on one merged query set; outputs b iff all parts do.

    Any REJECT or disagreement among the parts yields REJECT.
    """

    parts: tuple[LocalView, ...]
    coords: tuple[int, ...]

    @classmethod
    def of(cls, parts: Sequence[LocalView]) -> "UnanimityView":
        merged = sorted({c for part in parts for c in part.coords})
        return cls(tuple(parts), tuple(merged))

    def read_and_evaluate(self, w) -> "int | None":
        verdict = None
        for part in self.parts:
            out = part.read_and_evaluate(w)
            if out is REJECT:
                return REJECT
            if verdict is None:
                verdict = out
            elif out != verdict:
                return REJECT
        return verdict

    def materialize(self, tables: dict) -> LocalView:
        """Collapse to a concrete truth table over the merged query set.

        The table depends only on the view's shape: the merged width and,
        per part, its table and the positions of its coordinates among the
        merged ones (unanimity_table).  A `tables` dict shared across calls
        memoizes it by shape, so views of one shape share one table tuple;
        shapes compare by value (equal tables in distinct tuples match), with
        the parts sorted by position only (tables hold REJECT, None).  Keep
        the dict to one batch of views: its keys hold every part table seen.
        """
        position = {c: q for q, c in enumerate(self.coords)}
        parts = ((part.table, tuple(map(position.__getitem__, part.coords))) for part in self.parts)
        shape = (len(self.coords), tuple(sorted(parts, key=itemgetter(1))))
        table = tables.get(shape)
        if table is None:
            table = tables[shape] = unanimity_table(*shape)
        return LocalView(self.coords, table)


def unanimity_table(width: int, parts: "Sequence[tuple[tuple, tuple[int, ...]]]") -> tuple:
    """The unanimity table over `width` merged coordinates of parts given as
    (table, positions of its coordinates among the merged ones).

    The points are the 2^width table indices, and merged coordinate q's
    literal is the mask of indices with bit q set.  The parts' table_masks
    AND together; an index in neither mask (a REJECT or a disagreement) is
    REJECT.  With no parts the table is (REJECT,).
    """
    size = 1 << width
    full = (1 << size) - 1
    ones = zeros = full if parts else 0
    literals, period = [0] * width, 1  # period: a bit at the start of each 2^(q+1)-index block
    for q in reversed(range(width)):  # 2^q clear, 2^q set, ...
        literals[q] = period * (((1 << (1 << q)) - 1) << (1 << q))
        period |= period << (1 << q)
    for table, positions in parts:
        part_ones, part_zeros = table_masks(table, [literals[q] for q in positions], full)
        ones, zeros = ones & part_ones, zeros & part_zeros
    # a byte per index, index 0 first: 2 for a one, 1 for a zero, 0 for REJECT
    spec = f"0{size}b"
    ones, zeros = (int.from_bytes(format(m, spec).encode().translate(_BIT_BYTES), "big") for m in (ones, zeros))
    table = itemgetter(*(ones << 1 | zeros).to_bytes(size, "little"))((REJECT, 0, 1))
    return table if size > 1 else (table,)


def table_masks(table, literals: Sequence[int], full: int) -> tuple[int, int]:
    """(ones, zeros): the points within `full` where the table reads 1 and 0,
    given literals[j], the points whose coordinate j reads 1: the OR over the
    non-REJECT entries of the AND of each literal or its complement.  cells[j]
    keeps the AND over coordinates j and up for the last entry's index, so a
    dense table costs about two ANDs per entry and any entry at most len(literals)."""
    pairs = [(full ^ literal, literal) for literal in literals]
    cells = [full]
    for complement, _ in reversed(pairs):
        cells.insert(0, cells[0] & complement)
    masks = [0, 0]  # the points where the table reads 0, and 1
    last = 0
    for idx, out in enumerate(table):
        if out is not REJECT:
            j = (idx ^ last).bit_length()
            while j:
                j -= 1
                cells[j] = cells[j + 1] & pairs[j][idx >> j & 1]
            masks[out] |= cells[0]
            last = idx
    return masks[1], masks[0]


class ExplicitViews:
    """A concrete weighted list of local views for one message index."""

    __slots__ = ("entries", "_cum", "_total")

    def __init__(self, entries: Sequence[tuple[Fraction, LocalView]]):
        if not entries:
            raise ValueError("a decoder index needs at least one view")
        masses, common = integer_masses([wt for wt, _ in entries])
        total = sum(masses)
        if total != common:
            raise ValueError(f"view weights must sum to 1, got {Fraction(total, common)}")
        if any(m <= 0 for m in masses):
            raise ValueError("view weights must be positive")
        self.entries = tuple(entries)
        self._cum = None
        self._total = None

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[Fraction, LocalView]]:
        return iter(self.entries)

    def sample(self, rng: Random) -> LocalView:
        if self._cum is None:
            self._cum, self._total = _mass_table([wt for wt, _ in self.entries])
        return self.entries[bisect_right(self._cum, rng.randrange(self._total))][1]

    def max_view_size(self) -> int:
        return max(len(v.coords) for _, v in self.entries)


class ProductViews:
    """The coin space of `times` independent runs of a base view list.

    Represents the amplified decoder's views without materialising the full
    product: iteration yields every combination lazily (exact weights),
    sampling draws the constituents independently.
    """

    __slots__ = ("base", "times")

    def __init__(self, base: ExplicitViews, times: int):
        if times < 1:
            raise ValueError("need at least one repetition")
        self.base = base
        self.times = times

    def __len__(self) -> int:
        return len(self.base) ** self.times

    def __iter__(self) -> Iterator[tuple[Fraction, UnanimityView]]:
        for combo in itertools.product(self.base.entries, repeat=self.times):
            weight = Fraction(1)
            for wt, _ in combo:
                weight *= wt
            yield weight, UnanimityView.of([view for _, view in combo])

    def sample(self, rng: Random) -> UnanimityView:
        return UnanimityView.of([self.base.sample(rng) for _ in range(self.times)])

    def max_view_size(self) -> int:
        """`times` base views merged, but no more than all the base covers."""
        covered = {c for _, view in self.base for c in view.coords}
        return min(self.base.max_view_size() * self.times, len(covered))


@dataclass(frozen=True)
class NonAdaptiveDecoder:
    """Per message index, a weighted list of (query set, predicate) pairs."""

    k: int
    n: int
    locality: int
    views: "tuple[ExplicitViews | ProductViews, ...]"

    def __post_init__(self) -> None:
        if len(self.views) != self.k:
            raise ValueError("one view list per message index required")
        for i, view_set in enumerate(self.views):
            if view_set.max_view_size() > self.locality:
                raise ValueError(f"index {i} has a view larger than locality {self.locality}")
            if isinstance(view_set, ExplicitViews):
                for _, view in view_set:
                    if view.coords and (view.coords[0] < 0 or view.coords[-1] >= self.n):
                        raise ValueError(f"view coords outside [0, {self.n})")

    def decode(self, w, i: int, rng: Random) -> "tuple[int | None, frozenset[int]]":
        """Sample a view for index i and apply it to w: (output, queried set)."""
        if i < 0 or i >= self.k:
            raise ValueError(f"index {i} outside [0, {self.k})")
        view = self.views[i].sample(rng)
        return view.read_and_evaluate(w), frozenset(view.coords)


def local_view_system(decoder: NonAdaptiveDecoder, i: int) -> WeightedSetSystem:
    """The index-i query distribution as a weighted set system (multiset order
    preserved, so view j of the decoder is set j of the system)."""
    view_set = decoder.views[i]
    if not isinstance(view_set, ExplicitViews):
        raise TypeError("only explicit view lists convert to set systems")
    sets = tuple(view.coords for _, view in view_set)
    system = SetSystem(decoder.n, sets)
    masses, common = integer_masses([wt for wt, _ in view_set])
    return WeightedSetSystem(system, tuple(masses), common)


# ---------------------------------------------------------------------------
# codes


@dataclass(frozen=True)
class Code:
    """An injective encoder with relative distance and a decoding radius
    strictly below half the distance."""

    name: str
    k: int
    n: int
    encoder: Callable[[tuple[int, ...]], tuple[int, ...]]
    relative_distance: Fraction
    decoding_radius: Fraction

    def __post_init__(self) -> None:
        if not 0 < self.decoding_radius < self.relative_distance / 2:
            raise ValueError(
                f"decoding radius {self.decoding_radius} must lie in "
                f"(0, {self.relative_distance}/2)"
            )

    def encode(self, message: Sequence[int]) -> tuple[int, ...]:
        msg = tuple(message)
        if len(msg) != self.k:
            raise ValueError(f"message length {len(msg)} != k={self.k}")
        if any(b not in (0, 1) for b in msg):
            raise ValueError("message bits must be 0/1")
        word = self.encoder(msg)
        assert len(word) == self.n
        return word

    def radius_flips(self) -> int:
        """Largest corruption count within the decoding radius."""
        return (self.decoding_radius.numerator * self.n) // self.decoding_radius.denominator


_READ_BIT = (0, 1)
_PARITY2 = (0, 1, 1, 0)
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def repetition_code(k: int, r: int) -> tuple[Code, NonAdaptiveDecoder]:
    """Each message bit repeated r times; the decoder reads one uniform copy."""
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    _check_views(k * r, k)
    n = k * r

    def encode(msg: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(msg[j // r] for j in range(n))

    code = Code(
        name=f"repetition:k={k},r={r}",
        k=k,
        n=n,
        encoder=encode,
        relative_distance=Fraction(1, k),
        decoding_radius=Fraction(1, 4 * k),
    )
    views = tuple(
        ExplicitViews(
            [(Fraction(1, r), LocalView((i * r + j,), _READ_BIT)) for j in range(r)]
        )
        for i in range(k)
    )
    return code, NonAdaptiveDecoder(k=k, n=n, locality=1, views=views)


def identity_code(k: int) -> tuple[Code, NonAdaptiveDecoder]:
    """n = k, each bit read directly; the degenerate baseline (repetition r = 1)."""
    code, decoder = repetition_code(k, 1)
    return replace(code, name=f"identity:k={k}"), decoder


def hadamard_code(m: int) -> tuple[Code, NonAdaptiveDecoder]:
    """All parities of the message: k = m, n = 2**m, 2-query decoding.

    Position a holds the inner product <a, x> mod 2 (bit j of the position
    index is a_j).  The decoder for bit i draws a uniform pair {r, r^e_i}
    (stored as an unordered query set, so each of the n/2 sets has weight
    2/n) and outputs the XOR of the two reads.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > MAX_VIEWS.bit_length():  # not even computed: m * 2^(m-1) is far past the budget
        raise ValueError(f"m={m}: m * 2^(m-1) local views exceed the budget of {MAX_VIEWS}")
    _check_views(m << (m - 1), m)
    n = 1 << m

    def encode(msg: tuple[int, ...]) -> tuple[int, ...]:
        # positions with top bit j are the ones below, XOR-ed with x_j
        word = b"\0"
        for b in msg:
            word += word.translate(_FLIP) if b else word
        return tuple(word)

    code = Code(
        name=f"hadamard:m={m}",
        k=m,
        n=n,
        encoder=encode,
        relative_distance=Fraction(1, 2),
        decoding_radius=Fraction(1, 8),
    )
    weight = Fraction(2, n)
    views = []
    for i in range(m):
        e = 1 << i
        views.append(
            ExplicitViews(
                [
                    (weight, LocalView((r, r ^ e), _PARITY2))
                    for r in range(n)
                    if not r & e
                ]
            )
        )
    return code, NonAdaptiveDecoder(k=m, n=n, locality=2, views=views)


def shared_pivot_code(kappa: int, r: int, k: int) -> tuple[Code, NonAdaptiveDecoder]:
    """A zero pivot block shared by every local view, then r copies per bit.

    The decoder for bit i reads the whole pivot block plus one uniform copy;
    it outputs the copy when the pivot reads all-zero and REJECT otherwise.
    Every view contains the pivot block, which forces a nonempty kernel in
    daisy extraction.
    """
    if kappa < 1 or r < 1 or k < 1:
        raise ValueError("kappa, r, k must be >= 1")
    _check_views(k * r, k)
    if kappa + 1 > MAX_TABLE_ENTRIES.bit_length() - 1:  # 2^(kappa+1) entries
        raise ValueError(f"kappa={kappa}: 2^{kappa + 1} table entries exceed {MAX_TABLE_ENTRIES}")
    n = kappa + k * r

    def encode(msg: tuple[int, ...]) -> tuple[int, ...]:
        word = [0] * kappa
        for b in msg:
            word.extend([b] * r)
        return tuple(word)

    code = Code(
        name=f"shared-pivot:kappa={kappa},r={r},k={k}",
        k=k,
        n=n,
        encoder=encode,
        relative_distance=Fraction(r, n),
        decoding_radius=Fraction(r, 4 * n),
    )
    pivot = tuple(range(kappa))
    pivot_mask = (1 << kappa) - 1
    table = tuple(
        REJECT if idx & pivot_mask else (idx >> kappa) & 1 for idx in range(1 << (kappa + 1))
    )
    views = tuple(
        ExplicitViews(
            [
                (Fraction(1, r), LocalView(pivot + (kappa + i * r + j,), table))
                for j in range(r)
            ]
        )
        for i in range(k)
    )
    return code, NonAdaptiveDecoder(k=k, n=n, locality=kappa + 1, views=views)


def parse_code_spec(spec: str) -> tuple[Code, NonAdaptiveDecoder]:
    """Build a code from "name:key=val,..." as used by the CLI.

    Known names and their arguments are in _CODES; each argument must
    be given exactly once, and no other.
    """
    name, _, arg_text = spec.partition(":")
    name = name.strip().lower().replace("_", "-")
    if name not in _CODES:
        raise ValueError(f"unknown code {name!r}")
    build, params = _CODES[name]
    args: dict[str, int] = {}
    for pair in arg_text.split(",") if arg_text else ():
        key, _, val = pair.partition("=")
        key = key.strip()
        if not val:
            raise ValueError(f"malformed code argument {pair!r}")
        if key not in params:
            raise ValueError(f"code {name!r} takes no argument {key!r}")
        if key in args:
            raise ValueError(f"code {name!r} got argument {key!r} twice")
        args[key] = int(val)
    for key in params:
        if key not in args:
            raise ValueError(f"code {name!r} is missing argument {key!r}")
    return build(*(args[key] for key in params))


_CODES = {
    "identity": (identity_code, ("k",)),
    "repetition": (repetition_code, ("k", "r")),
    "hadamard": (hadamard_code, ("m",)),
    "shared-pivot": (shared_pivot_code, ("kappa", "r", "k")),
}


def corrupt(word: Sequence[int], coords: Iterable[int]) -> tuple[int, ...]:
    """A copy of the word with the given coordinates flipped."""
    out = list(word)
    for c in coords:
        out[c] ^= 1
    return tuple(out)


def random_corruption(word: Sequence[int], flips: int, rng: Random) -> tuple[int, ...]:
    """Flip exactly `flips` distinct uniformly random coordinates."""
    return corrupt(word, rng.sample(range(len(word)), flips))


# ---------------------------------------------------------------------------
# serialization


def decoder_to_json(decoder: NonAdaptiveDecoder) -> dict:
    """One weighted set system per index plus the predicate truth tables.

    REJECT serialises as JSON null.  Lazy (product) view lists must be
    reduced to explicit lists first.  Views that share a table tuple (as
    reduce_randomness's rows of one shape do) share its list in the document,
    so it costs one list per distinct table; json.dump prints each use in full.
    """
    lists = {}  # id(table) -> its list; the decoder keeps every table alive meanwhile
    indices = []
    for i in range(decoder.k):
        view_set = decoder.views[i]
        if not isinstance(view_set, ExplicitViews):
            raise TypeError("serialise explicit decoders only; reduce the coin space first")
        tables = []
        for _, view in view_set:
            table = lists.get(id(view.table))
            if table is None:
                table = lists[id(view.table)] = list(view.table)
            tables.append(table)
        doc = {
            "n": decoder.n,
            "sets": [list(view.coords) for _, view in view_set],
            "weights": [format_fraction(wt) for wt, _ in view_set],
            "tables": tables,
        }
        indices.append(doc)
    return {"k": decoder.k, "n": decoder.n, "locality": decoder.locality, "indices": indices}
