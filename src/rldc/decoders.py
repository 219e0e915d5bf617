"""Local decoders (adaptive and non-adaptive) and concrete codes.

A decoder output is 0, 1, or REJECT (None): decoders may refuse to decode a
corrupted word but must never be wrong too often inside the decoding radius,
and must be exact on valid codewords.

Non-adaptive decoders are stored per message index as rows (ExplicitViews)
over the universe [0, n): a sorted coordinate tuple and a truth table per view
(rows of one shape share the table object), and integer masses over one
common total.  The list is the index's weighted set system, a
set_system.WeightedSetSystem with a table per row, which daisy extraction
reads in place; WeightedSetSystem checks its rows and masses once, when it is
made.  The list keeps no cache: iterating makes LocalViews anew.  Weights stay
exact: the sum-to-1 and positivity checks are integer sums, and draws pick
row numbers by the masses over their least common denominator, so a seeded
run is reproducible and matches the exact distribution.  A NonAdaptiveDecoder
holds only such lists, and refuses any other where it is built; an amplified
decoder (preprocessing.AmplifiedDecoder) is a base decoder and a run count,
which only randomness reduction reads.

table_masks evaluates a table on a set of points at once as bit masks: it
makes an amplified coin outcome (a UnanimityView of drawn rows) one table and
checks a whole corpus.  That table depends only on the outcome's shape
(unanimity_table), so a batch of outcomes builds one table per row shape.

The block codes are one family, built by _block_code: a zero pivot block of
kappa coordinates that every view reads, then r copies of each message bit.
identity (r = 1) is a repetition code, and repetition is the shared-pivot
code at kappa = 0, which the CLI names `repetition`: `shared-pivot` still
refuses kappa = 0.

decoder_to_json writes the JSON that `rldc preprocess` prints; nothing reads
it back.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, compress, cycle, repeat
from operator import itemgetter
from random import Random
from typing import Callable, Iterable, Iterator, Sequence

from .exact import format_fraction, integer_masses
from .rng import randbelow_many
from .set_system import WeightedSetSystem

REJECT = None

_SYMBOLS = (0, 1, None)
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")

# Most table entries one step may build (a shared-pivot table; all reduced rows),
# set from the measured time and memory of `rldc preprocess` (CHANGES.md).
MAX_TABLE_ENTRIES = 1 << 23

# Most local views a built-in code may build, each message index counting as
# INDEX_VIEWS views more.  `rldc simulate --trials 1 --no-audit` peaks at about
# 93 B per Hadamard view (hadamard:m=15 to 16) and 1.15 KB per index
# (identity:k=100000 to 200000); 1.15 KB / 93 B = 12.4, rounded up.  Runs at
# the budget peak at 0.11-0.37 GB (CHANGES.md).
MAX_VIEWS = 1 << 20
INDEX_VIEWS = 13


def _check_views(views: int, k: int) -> None:
    if views + INDEX_VIEWS * k > MAX_VIEWS:
        raise ValueError(
            f"{views} local views over {k} indices exceed the budget of {MAX_VIEWS} "
            f"(each index counts as {INDEX_VIEWS} views)"
        )


def _check_universe(n: int) -> None:
    if n < 1:
        raise ValueError(f"a decoder needs at least one coordinate, got n={n}")


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
    coords, nodes = set(), [tree]
    while nodes:
        node = nodes.pop()
        if isinstance(node, TreeNode):
            coords.add(node.coord)
            nodes += node.if_zero, node.if_one
    return frozenset(coords)


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


@dataclass(frozen=True)
class AdaptiveDecoder:
    """Per message index, a rational-weighted distribution over decision trees."""

    k: int
    n: int
    locality: int
    trees: tuple[tuple[tuple[Fraction, "TreeNode | int | None"], ...], ...]

    def __post_init__(self) -> None:
        _check_universe(self.n)
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


# ---------------------------------------------------------------------------
# non-adaptive decoders


@dataclass(frozen=True, slots=True)
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

    def materialize(self, tables: dict) -> tuple:
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
        return table


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


@dataclass(frozen=True)
class ExplicitViews(WeightedSetSystem):
    """One message index's weighted view list: its weighted set system over
    [0, universe_size), which daisy extraction reads in place, with a truth
    table per row.

    sets[j] holds view j's coordinates (strictly increasing, possibly none),
    masses[j] / total its weight and tables[j] its truth table (rows of one
    shape share the object).  Beside the checks of a WeightedSetSystem, the
    list checks that it is not empty and that each table covers its row.
    Iterating yields (weight, LocalView), making the views anew; draw picks
    rows.
    """

    __slots__ = ("tables",)
    tables: tuple

    def __post_init__(self) -> None:
        if not self.sets:
            raise ValueError("a decoder index needs at least one view")
        super().__post_init__()
        if len(self.tables) != len(self.sets):
            raise ValueError("one table per set required")
        if any(size != 1 << width for width, size in set(zip(map(len, self.sets), map(len, self.tables)))):
            raise ValueError("table must cover all assignments of the query set")

    def __iter__(self) -> Iterator[tuple[Fraction, LocalView]]:
        return zip(map(Fraction, self.masses, repeat(self.total)), map(LocalView, self.sets, self.tables))

    def draw(self, rng: Random, count: int) -> list[int]:
        """The row numbers of `count` draws by mass, each the row that one
        rng.randrange over the masses' least common denominator picks; with
        uniform masses the value is the row number."""
        unit = math.gcd(self.total, *self.masses)
        cum = tuple(accumulate(m // unit for m in self.masses))  # cum[-1] is the masses' lcd
        values = randbelow_many(rng, cum[-1], count)
        return values if cum[-1] == len(cum) else list(map(bisect_right, repeat(cum), values))

    def max_view_size(self) -> int:
        return max(map(len, self.sets))


@dataclass(frozen=True)
class NonAdaptiveDecoder:
    """Per message index, a weighted list of (query set, predicate) pairs over [0, n)."""

    k: int
    n: int
    locality: int
    views: tuple[ExplicitViews, ...]

    def __post_init__(self) -> None:
        _check_universe(self.n)
        if self.locality < 1:
            raise ValueError(f"a non-adaptive decoder needs locality >= 1, got locality={self.locality}")
        if len(self.views) != self.k:
            raise ValueError("one view list per message index required")
        for i, view_set in enumerate(self.views):
            if not isinstance(view_set, ExplicitViews):
                raise TypeError(f"index {i} holds a {type(view_set).__name__}, not an ExplicitViews view list")
            if view_set.universe_size != self.n:
                raise ValueError(f"index {i} has views over [0, {view_set.universe_size}), not [0, {self.n})")
            if view_set.max_view_size() > self.locality:
                raise ValueError(f"index {i} has a view larger than locality {self.locality}")


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


_PARITY2 = (0, 1, 1, 0)
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _block_code(name: str, kappa: int, r: int, k: int) -> tuple[Code, NonAdaptiveDecoder]:
    """A zero pivot block of kappa coordinates, then r copies of each message bit.

    The decoder for bit i reads the whole pivot block plus one uniform copy of
    the bit; it outputs the copy when the pivot reads all-zero and REJECT
    otherwise.  With kappa = 0 the pivot is empty, the table is (0, 1) and the
    decoder reads one copy.
    """
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
        name=name,
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
    tables, masses = (table,) * r, (1,) * r
    views = tuple(
        ExplicitViews(
            n, tuple(map(pivot.__add__, zip(range(kappa + i * r, kappa + (i + 1) * r)))), masses, r, tables
        )
        for i in range(k)
    )
    return code, NonAdaptiveDecoder(k=k, n=n, locality=kappa + 1, views=views)


def repetition_code(k: int, r: int) -> tuple[Code, NonAdaptiveDecoder]:
    """Each message bit repeated r times; the decoder reads one uniform copy.

    This is the shared-pivot code with an empty pivot (kappa = 0).
    """
    if k < 1 or r < 1:
        raise ValueError("k and r must be >= 1")
    return _block_code(f"repetition:k={k},r={r}", 0, r, k)


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
    # the r with bit i clear pair up in order with the r ^ e_i, as ints of one shared list
    coords = list(range(n))
    half = n >> 1
    tables, masses = (_PARITY2,) * half, (1,) * half
    views = []
    for i in range(m):
        clear = (1,) * (1 << i) + (0,) * (1 << i)
        rows = tuple(zip(compress(coords, cycle(clear)), compress(coords, cycle(clear[::-1]))))
        views.append(ExplicitViews(n, rows, masses, half, tables))
    return code, NonAdaptiveDecoder(k=m, n=n, locality=2, views=tuple(views))


def shared_pivot_code(kappa: int, r: int, k: int) -> tuple[Code, NonAdaptiveDecoder]:
    """A zero pivot block shared by every local view, then r copies per bit
    (_block_code).

    Every view contains the pivot block, which forces a nonempty kernel in
    daisy extraction.  At kappa = 0 this is repetition_code(k, r), so
    `shared-pivot` refuses kappa = 0 and the CLI names that code `repetition`.
    """
    if kappa < 1 or r < 1 or k < 1:
        raise ValueError("kappa, r, k must be >= 1")
    return _block_code(f"shared-pivot:kappa={kappa},r={r},k={k}", kappa, r, k)


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

    REJECT serialises as JSON null.  The document holds the view lists' own
    row and table tuples, which print as arrays, so rows that share a table
    tuple (as reduce_randomness's rows of one shape do) share it in the
    document too; json.dump prints each use in full.
    """
    indices = []
    for view_set in decoder.views:
        weights = {m: format_fraction(Fraction(m, view_set.total)) for m in set(view_set.masses)}
        doc = {
            "n": decoder.n,
            "sets": list(view_set.sets),
            "weights": list(map(weights.__getitem__, view_set.masses)),
            "tables": list(view_set.tables),
        }
        indices.append(doc)
    return {"k": decoder.k, "n": decoder.n, "locality": decoder.locality, "indices": indices}
