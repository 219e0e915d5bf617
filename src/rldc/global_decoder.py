"""Sample-based global decoding of an entire message from a valid codeword.

One binomial coordinate sample Q (each coordinate kept with probability p;
harness.run_global_trials defaults p to n**(-1/(2*locality**2))) is reused
across all k message indices.  It is drawn as 2n words of the Mersenne
Twister at once, the words that one rng.random() per coordinate would use,
and gives the same sample.  The sampler's keep marks, one 0/1 byte per
coordinate, are the sample's flags: SampleBytes pairs them with bits, the
bit read at each flagged coordinate, and the word is read nowhere else.
Each string is also made into one little-endian integer, once per sample.
Per index, a heavy daisy extracted from the decoder's query distribution
supplies petals; members whose petal is nonempty and fully inside Q become
usable partial views.  Since the kernel is typically unsampled, the decoder
enumerates every kernel assignment, completes the queried petals into full
local views, and outputs a bit as soon as some assignment makes all completed
views agree on it.

run_global_decoder(packages, w, p, rng, ...) is the one trial path: it
samples, applies the query budget and decodes every index; its outcome
carries the SampleBytes that the audit in harness.py works from.

Packages are compiled once into groups (PetalGroup) and keep only the kernel
order and the groups, not the daisy or the views.  They compile from the
decoder's rows (decoders.ExplicitViews): the heavy daisy's members are
split by table object and each bucket's rows are read a column at a time.
Columns whose rows disagree on the kernel coordinate they hold, or on the
petal offset, split the bucket on their values; nothing is keyed row by
row.  A group stands for the members of one part: the offsets of their
petal coordinates from the first petal coordinate c0, the table bits of
those coordinates and the kernel pairs.  It gives each c0 in [lo, hi) a
one-byte lane and marks the occupied lanes.  Per petal offset d
the filter ANDs the lane mask with the flags integer shifted down to
coordinate lo + d, and the completion ORs the bits integer shifted the same
way (and up to the petal position), keeps the full lanes with
bytes.translate and maps each through the group's table of petal bits to
table index: a few whole-integer operations per group, no byte slice
converted per group and nothing per member.  Every built-in code has one
group per index.

One enumeration per (index, sample) serves the decoder and the audit in
harness.py.  complete_views turns each fully queried view into its table, the
table index of its sampled petal bits and a (table bit, assignment bit) pair
per kernel coordinate; unanimous_assignments evaluates assignment a over that
by OR-ing in only kernel bits.  Assignment a gives the smallest kernel element
its most significant bit, so counting a upward is lexicographic order.  The
outcome keeps the completion and what the decoder scanned of it, and the
audit resumes the scan where the decoder stopped.

An empty kernel (2-query codes such as Hadamard) is the case with one
assignment, a = 0, and skips the completion: the lanes are the only axis
left, so each group with full lanes makes one bit mask per table bit, the
bits integer shifted down to coordinate lo + d and ANDed with the full
lanes, and one decoders.table_masks call gives the lanes that read 1 and
those that read 0.  The index decodes b iff b's mask is every full lane in
every group; no lane byte is made.  The outcome keeps no completion, so the
audit resumes past a = 0 and finds nothing.

On a valid codeword the assignment matching the true kernel values makes
every completed view output the true bit, and no assignment can achieve
unanimity on the wrong bit as long as one good petal is sampled; corrupted
inputs carry no guarantee and are accepted for diagnostics only.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from operator import sub
from random import Random
from typing import Iterable, Iterator, Mapping, Sequence

from .daisy import HeavyDaisy, build_daisy_sequence, pick_heavy_level
from .decoders import REJECT, ExplicitViews, NonAdaptiveDecoder, table_masks

DECODED = "decoded"
NO_CONSENSUS = "no_consensus"
KERNEL_TOO_LARGE = "kernel_too_large"

KERNEL_CAP = 20  # default largest kernel enumerated (2^20 assignments)


def sample_coordinates(word: Sequence[int], p: float, rng: Random) -> SampleBytes:
    """Keep each coordinate of word independently with probability p, and
    read word at the kept ones.

    The same sample as keeping j when the j-th rng.random() < p, and rng ends
    in the same state: random() is X / 2^53 with X = (w0 >> 5) << 26 | w1 >> 6
    for the next two 32-bit words w0, w1, and getrandbits(64 n) draws those
    2n words in that order, least significant first.  So j is kept iff
    X < T = ceil(p * 2^53).  The top byte of X, X >> 45, is the top byte of
    w0 (byte 8j + 3); it settles every coordinate but those whose top byte
    equals T >> 45, and only those get the exact check.
    """
    if not 0 <= p <= 1:
        raise ValueError(f"sampling probability must lie in [0, 1], got {p}")
    n = len(word)
    threshold = math.ceil(p * 2**53)
    top = threshold >> 45
    raw = rng.getrandbits(64 * n).to_bytes(8 * n, "little")
    # top byte below T's: kept (1); equal: a tie (2), settled by X < T; above: dropped (0)
    marks = bytearray(raw[3::8].translate((b"\1" * top + b"\2").ljust(256, b"\0")[:256]))
    j = marks.find(2)
    while j >= 0:
        draw = int.from_bytes(raw[8 * j:8 * j + 8], "little")
        marks[j] = (draw & 0xFFFFFFFF) >> 5 << 26 | draw >> 38 < threshold
        j = marks.find(2, j + 1)
    return SampleBytes.of(word, marks)


def default_sampling_probability(n: int, locality: int) -> float:
    return n ** (-1.0 / (2 * locality * locality))


LANE_BITS = 7  # petal bits per lane byte; the byte's top bit marks a full lane


@dataclass(frozen=True, eq=False)
class PetalGroup:
    """Daisy members that share a table object, the offsets of their petal
    coordinates from the first one (c0), the table bits of those petal
    coordinates and the kernel (table bit, assignment bit) pairs: the petal
    coordinate at offsets[t] is table bit positions[t].

    Lane c - lo stands for c0 = c, and byte c - lo of `lanes` is 1 when a
    member sits there.  A lane holds one member: repeated views go to
    further groups with the same key.  `index[q]` maps a lane byte 0x80 | b,
    where b packs the bits read at petal positions 7q..7q+6, to the table
    index bits they set; it is stored as bytes when every entry fits a byte
    (256 B instead of 2 KB).
    """

    table: tuple
    pairs: tuple[tuple[int, int], ...]
    offsets: tuple[int, ...]
    positions: tuple[int, ...]
    index: tuple[bytes | tuple[int, ...], ...]
    lo: int
    hi: int
    lanes: int


@dataclass(frozen=True, eq=False)
class IndexDecodePackage:
    """Everything decode_index needs for one message index: the kernel of
    its heavy daisy in order, and the daisy's petals as groups."""

    index: int
    kernel_order: tuple[int, ...]
    groups: tuple[PetalGroup, ...]

    @classmethod
    def of(cls, index: int, daisy: HeavyDaisy, views: ExplicitViews) -> "IndexDecodePackage":
        """Compile the daisy's members (row numbers of views) into petal
        groups; the package keeps neither the daisy nor the views."""
        kernel_order = tuple(sorted(daisy.kernel))
        return cls(index, kernel_order, _petal_groups(views, daisy.members, kernel_order))


@dataclass(frozen=True)
class SampleBytes:
    """A run's sample, shared by every index, as two byte strings indexed by
    coordinate: flags[j] is 1 where j was sampled, bits[j] the bit read there.

    flags_int and bits_int are the same strings read as little-endian
    integers, made once here; byte j of either sits at bit 8j, so a group
    reads the bytes from c on by shifting right by 8c."""

    flags: bytes
    bits: bytes
    flags_int: int = field(init=False, compare=False, repr=False)
    bits_int: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "flags_int", int.from_bytes(self.flags, "little"))
        object.__setattr__(self, "bits_int", int.from_bytes(self.bits, "little"))

    @classmethod
    def of(cls, word: Sequence[int], flags: bytes | bytearray) -> "SampleBytes":
        """Read word where flags (one 0/1 byte per coordinate) is 1; nothing
        else of it is read."""
        bits = bytearray(len(flags))
        for j in compress(range(len(flags)), flags):
            bits[j] = word[j]
        return cls(bytes(flags), bytes(bits))

    def __len__(self) -> int:
        """The number of sampled coordinates."""
        return self.flags.count(1)


@dataclass(frozen=True)
class IndexOutcome:
    """How one index decoded: how many views were fully queried, its
    completion (empty if none was made) and every unanimous (assignment,
    bit) with assignment < assignments_tried."""

    status: str
    bit: int | None
    fully_queried: int
    assignments_tried: int
    completion: tuple = field(default=(), compare=False, repr=False)
    unanimous: tuple[tuple[int, int], ...] = field(default=(), compare=False, repr=False)

    def code(self) -> str:
        return "ok" if self.status == DECODED else self.status


@dataclass(frozen=True)
class GlobalDecodeOutcome:
    """Per-index results plus the sample of one run: every sampled coordinate
    with the bit read there, also when the run aborted."""

    results: tuple[IndexOutcome, ...]
    sample: SampleBytes
    aborted: bool

    @property
    def total_queries(self) -> int:
        return len(self.sample)

    @property
    def message(self) -> tuple[int, ...] | None:
        if self.aborted or any(r.status != DECODED for r in self.results):
            return None
        return tuple(r.bit for r in self.results)


def build_index_package(decoder: NonAdaptiveDecoder, i: int) -> IndexDecodePackage:
    """Extract the heavy daisy for index i at the default extraction scale
    from its view list, read in place, and compile its petal groups."""
    views = decoder.views[i]
    heavy = pick_heavy_level(build_daisy_sequence(views, decoder.locality), views.masses)
    return IndexDecodePackage.of(i, heavy, views)


def build_decode_packages(decoder: NonAdaptiveDecoder) -> tuple[IndexDecodePackage, ...]:
    return tuple(build_index_package(decoder, i) for i in range(decoder.k))


def _petal_groups(
    views: ExplicitViews, members: Sequence[int], kernel_order: tuple[int, ...]
) -> tuple[PetalGroup, ...]:
    """Group members a table object's bucket at a time, in the order of each
    bucket's first member; ExplicitViews sizes a table by its row, so a
    bucket's rows have one length.  Each bucket is read by columns and split
    only where its columns disagree.  Members with empty petals sit in no
    group: they are never fully queried."""
    width = len(kernel_order)
    slot = {e: 1 << (width - 1 - j) for j, e in enumerate(kernel_order)}
    rows, tables = views.sets, views.tables
    groups = []
    for part in _split(id(tables[m]) for m in members):
        for key, c0s in _layouts(list(zip(*[rows[members[j]] for j in part])), slot):
            groups += _lay_out(tables[members[part[0]]], key, c0s)
    return tuple(groups)


def _split(keys: Iterable) -> list[list[int]]:
    """The positions of keys grouped by key, in order of each key's first position."""
    parts = defaultdict(list)
    for j, key in enumerate(keys):
        parts[key].append(j)
    return list(parts.values())


def _layouts(columns: list[tuple[int, ...]], slot: Mapping[int, int]) -> Iterator[tuple[tuple, list[int]]]:
    """(key, c0s) per part of a bucket, given as its columns; a key is (petal
    positions, petal offsets, kernel pairs).  Each column reads every row's
    kernel slot bit, 0 outside the kernel, and the columns whose slots
    disagree split the rows on those slots.  Within a part c0 is the first
    petal column, and the petal columns whose offsets from it disagree split
    the part again on those offsets.  A part with no petal yields nothing."""
    mixed = [col for col in columns if not slot.keys().isdisjoint(col) and (col[0] not in slot or col.count(col[0]) < len(col))]
    if mixed:
        for part in _split(zip(*(map(slot.get, col, repeat(0)) for col in mixed))):
            yield from _layouts([tuple([col[r] for r in part]) for col in columns], slot)
        return
    positions = [j for j, col in enumerate(columns) if col[0] not in slot]
    if not positions:
        return
    pairs = tuple((1 << j, slot[col[0]]) for j, col in enumerate(columns) if col[0] in slot)
    c0s = columns[positions[0]]
    uneven = [columns[j] for j in positions[1:] if len(set(map(sub, columns[j], c0s))) > 1]
    for part in _split(zip(*(map(sub, col, c0s) for col in uneven))) if uneven else [range(len(c0s))]:
        first = part[0]
        offsets = tuple(columns[j][first] - c0s[first] for j in positions)
        yield (tuple(positions), offsets, pairs), [c0s[r] for r in part]


def _lay_out(table: tuple, key: tuple, c0s: Sequence[int]) -> list[PetalGroup]:
    """One group per layer of lanes: layer r holds each c0 that occurs more
    than r times, so repeated views keep their multiplicity."""
    positions, offsets, pairs = key
    index = []
    for start in range(0, len(positions), LANE_BITS):
        bits = [0]
        for pos in positions[start:start + LANE_BITS]:
            bits += [b | 1 << pos for b in bits]
        entries = [0] * 0x80 + bits + [0] * (0x80 - len(bits))
        index.append(bytes(entries) if bits[-1] < 0x100 else tuple(entries))
    counts = Counter(c0s)
    layer, groups = counts.keys(), []
    while layer:
        lo, hi = min(layer), max(layer) + 1
        mask = bytearray(hi - lo)
        for c0 in layer:
            mask[c0 - lo] = 1
        lanes = int.from_bytes(mask, "little")
        groups.append(PetalGroup(table, pairs, offsets, positions, tuple(index), lo, hi, lanes))
        layer = [c0 for c0 in layer if counts[c0] > len(groups)]
    return groups


def fully_queried_petals(pkg: IndexDecodePackage, sample: SampleBytes) -> tuple[int, ...]:
    """Per group of pkg, the lanes of the members whose petal lies entirely
    inside the sample: the lane mask with byte c0 - lo at 1 for each.

    Per petal offset d the sample's flags integer is shifted down to
    coordinate lo + d and ANDed in; the lane mask keeps hi - lo bytes of it.
    Members lying wholly inside the kernel have empty petals, sit in no
    group and are never fully queried.
    """
    flags = sample.flags_int
    fulls = []
    for g in pkg.groups:
        full = g.lanes
        for d in g.offsets:
            full &= flags >> 8 * (g.lo + d)
        fulls.append(full)
    return tuple(fulls)


def _full_lane_bytes(g: PetalGroup, full: int, bits: int) -> list[bytes]:
    """Per index table of g, one byte per full lane in lane order: 0x80 | the
    bits read at that table's (up to 7) petal positions.  `bits` is the
    sample's bits integer; petal position t of the table reads it shifted
    down to coordinate lo + d and up by t, and the full lanes keep hi - lo
    bytes of that."""
    keep, flag = full * 0x7F, full << LANE_BITS
    lanes = []
    for q in range(len(g.index)):
        packed = 0
        for t, d in enumerate(g.offsets[q * LANE_BITS:(q + 1) * LANE_BITS]):
            packed |= bits >> 8 * (g.lo + d) << t
        lanes.append((packed & keep | flag).to_bytes(g.hi - g.lo, "little").translate(None, b"\0"))
    return lanes


def complete_views(pkg: IndexDecodePackage, sample: SampleBytes) -> tuple[int, tuple]:
    """The completion core of a nonempty kernel: the count of fully queried
    views and one (table, base index, kernel pairs) triple per such view.
    The base index holds the view's sampled petal bits; each kernel
    coordinate it reads is a (table bit, assignment bit) pair."""
    queried, completion = 0, []
    for g, full in zip(pkg.groups, fully_queried_petals(pkg, sample)):
        if not full:
            continue
        lanes = _full_lane_bytes(g, full, sample.bits_int)
        queried += len(lanes[0])  # every full lane byte has 0x80 set, so translate kept each
        columns = [map(index.__getitem__, column) for index, column in zip(g.index, lanes)]
        bases = columns[0] if len(columns) == 1 else map(sum, zip(*columns))
        completion += zip(repeat(g.table), bases, repeat(g.pairs))
    return queried, tuple(completion)


def kernel_assignment(pkg: IndexDecodePackage, word: Sequence[int]) -> int:
    """The number of the kernel assignment that word carries."""
    width = len(pkg.kernel_order)
    return sum(1 << (width - 1 - j) for j, e in enumerate(pkg.kernel_order) if word[e])


def unanimous_assignments(completion: tuple, width: int, start: int = 0) -> Iterator[tuple[int, int]]:
    """Yield (a, b) for each assignment a >= start of a width-bit kernel, in
    lexicographic order, under which every view of the (nonempty)
    completion outputs bit b.  The one loop over kernel assignments; an
    empty kernel's outcome has no completion and nothing past a = 0."""
    for a in range(start, 1 << width):
        outputs = []
        for table, idx, pairs in completion:
            for table_bit, assignment_bit in pairs:
                if a & assignment_bit:
                    idx |= table_bit
            outputs.append(table[idx])
        first = outputs[0]
        if first is not REJECT and all(out == first for out in outputs):
            yield a, first


def decode_index(
    pkg: IndexDecodePackage,
    sample: SampleBytes,
    kernel_cap: int,
    strict: bool = False,
) -> IndexOutcome:
    """Enumerate kernel assignments and decode on unanimity.

    The sample holds only sampled bits, so nothing else can reach the
    completion.  An assignment decodes b when the (nonempty) set of
    completed views unanimously outputs b.  The default
    rule returns at the first unanimous assignment in lexicographic order;
    strict mode scans all assignments and answers only when a single bit
    value ever achieves unanimity.  An empty kernel has one assignment, so
    both modes try it alone and agree: _decode_by_lanes reads it.
    """
    width = len(pkg.kernel_order)
    if width > kernel_cap:
        return IndexOutcome(KERNEL_TOO_LARGE, None, 0, 0)
    if not width:
        return _decode_by_lanes(pkg, sample)

    queried, completion = complete_views(pkg, sample)
    if not queried:
        return IndexOutcome(NO_CONSENSUS, None, 0, 0)

    scan = unanimous_assignments(completion, width)
    unanimous = tuple(scan if strict else islice(scan, 1))
    tried = unanimous[0][0] + 1 if unanimous and not strict else 1 << width
    bits = {bit for _, bit in unanimous}
    status, bit = (DECODED, bits.pop()) if len(bits) == 1 else (NO_CONSENSUS, None)
    return IndexOutcome(status, bit, queried, tried, completion, unanimous)


def _decode_by_lanes(pkg: IndexDecodePackage, sample: SampleBytes) -> IndexOutcome:
    """An empty kernel's one assignment, a = 0, as one table_masks call per
    group over its full lanes: literal t holds the lanes whose petal
    coordinate at offsets[t] reads 1, at table bit positions[t].  The index
    decodes b iff every group's lanes reading b are all its full lanes.  The
    outcome keeps no completion, so the audit has nothing past a = 0."""
    bits, queried, votes = sample.bits_int, 0, 0b11  # bit b of votes: b is still unanimous
    for g, full in zip(pkg.groups, fully_queried_petals(pkg, sample)):
        if full:
            literals = [0] * len(g.positions)
            for position, d in zip(g.positions, g.offsets):
                literals[position] = bits >> 8 * (g.lo + d) & full
            ones, zeros = table_masks(g.table, literals, full)
            queried += full.bit_count()
            votes &= (ones == full) << 1 | (zeros == full)
    if not queried:
        return IndexOutcome(NO_CONSENSUS, None, 0, 0)
    if not votes:  # a group's lanes read REJECT or both bits, or two groups disagree
        return IndexOutcome(NO_CONSENSUS, None, queried, 1)
    bit = votes >> 1
    return IndexOutcome(DECODED, bit, queried, 1, (), ((0, bit),))


def run_global_decoder(
    packages: Sequence[IndexDecodePackage],
    w: Sequence[int],
    p: float,
    rng: Random,
    kernel_cap: int = KERNEL_CAP,
    query_budget: int | None = None,
    strict: bool = False,
) -> GlobalDecodeOutcome:
    """One full run: sample w once, decode every index of `packages`
    (build_decode_packages(decoder), reused across trials) from it.

    This is the one trial path (harness.run_global_trials calls it per
    trial), and its outcome carries the SampleBytes every index was decoded
    from, which the harness audits.  A sample larger than query_budget
    aborts the run before decoding.  The caller promises w = C(x); corrupted
    inputs still run but only for diagnostics.
    """
    sample = sample_coordinates(w, p, rng)
    if query_budget is not None and len(sample) > query_budget:
        return GlobalDecodeOutcome((), sample, True)
    results = tuple(decode_index(pkg, sample, kernel_cap, strict) for pkg in packages)
    return GlobalDecodeOutcome(results, sample, False)
