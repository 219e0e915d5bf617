"""Sample-based global decoding of an entire message from a valid codeword.

One binomial coordinate sample Q (each coordinate kept with probability p;
harness.run_global_trials defaults p to n**(-1/(2*locality**2))) is reused
across all k message indices.  It is drawn as 2n words of the Mersenne
Twister at once, the words that one rng.random() per coordinate would use,
and gives the same sample.  The sampler's keep marks, one 0/1 byte per
coordinate, are the sample's flags: SampleBytes pairs them with bits, the
bit read at each flagged coordinate, and the word is read nowhere else.
Per index, a heavy daisy extracted from the decoder's query distribution
supplies petals; members whose petal is nonempty and fully inside Q become
usable partial views.  Since the kernel is typically unsampled, the decoder
enumerates every kernel assignment, completes the queried petals into full
local views, and outputs a bit as soon as some assignment makes all completed
views agree on it.

run_global_decoder(packages, w, p, rng, ...) is the one trial path: it
samples, applies the query budget and decodes every index; its outcome
carries the SampleBytes that the audit in harness.py works from.

Packages are compiled once into groups (PetalGroup): the members that share
a table object, the offsets of their petal coordinates from the first petal
coordinate c0, the table bits of those coordinates and the kernel pairs.  A
group gives each c0 in [lo, hi) a one-byte lane.  Per group the filter ANDs
the lane mask with one flags slice per petal offset, and the completion ORs
the matching bits slices together, keeps the full lanes with bytes.translate
and maps each through the group's table of petal bits to table index: a few
whole-slice integer operations per group, none per member.  Every built-in
code has one group per index.

One enumeration per (index, sample) serves the decoder and the audit in
harness.py.  complete_views turns each fully queried view into its table, the
table index of its sampled petal bits and a (table bit, assignment bit) pair
per kernel coordinate; unanimous_assignments evaluates assignment a over that
by OR-ing in only kernel bits.  Assignment a gives the smallest kernel element
its most significant bit, so counting a upward is lexicographic order.  The
outcome keeps the completion and what the decoder scanned of it, and the
audit resumes the scan where the decoder stopped.

An empty kernel (2-query codes such as Hadamard) has one assignment and
needs no completion: views with equal lane bytes output the same, so the
index decodes iff the distinct lane bytes of its groups, mapped through the
index and the table, give exactly one non-REJECT bit.  The outcome then
keeps no completion, and the audit has nothing past the decoder's stop.

On a valid codeword the assignment matching the true kernel values makes
every completed view output the true bit, and no assignment can achieve
unanimity on the wrong bit as long as one good petal is sampled; corrupted
inputs carry no guarantee and are accepted for diagnostics only.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from operator import getitem, sub
from random import Random
from typing import Iterator, Mapping, Sequence

from .daisy import HeavyDaisy, build_daisy_sequence, pick_heavy_level
from .decoders import REJECT, ExplicitViews, LocalView, NonAdaptiveDecoder, local_view_system

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
    """Members that share a table object, the offsets of their petal
    coordinates from the first one (c0), the table bits of those petal
    coordinates and the kernel (table bit, assignment bit) pairs.

    Lane c - lo stands for c0 = c, and byte c - lo of `lanes` is 1 when a
    member sits there; `members` lists them in lane order.  A lane holds one
    member: repeated views go to further groups with the same key.
    `index[q]` maps a lane byte 0x80 | b, where b packs the bits read at petal
    positions 7q..7q+6, to the table index bits they set; it is stored as
    bytes when every entry fits a byte (256 B instead of 2 KB).
    """

    table: tuple
    pairs: tuple[tuple[int, int], ...]
    offsets: tuple[int, ...]
    index: tuple[bytes | tuple[int, ...], ...]
    lo: int
    hi: int
    lanes: int
    members: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class IndexDecodePackage:
    """Everything decode_index needs for one message index."""

    index: int
    daisy: HeavyDaisy
    kernel_order: tuple[int, ...]
    views: tuple[LocalView, ...]
    groups: tuple[PetalGroup, ...]

    @classmethod
    def of(cls, index: int, daisy: HeavyDaisy, views: tuple[LocalView, ...]) -> "IndexDecodePackage":
        """Compile the daisy's members (view numbers) into petal groups."""
        kernel_order = tuple(sorted(daisy.kernel))
        groups = _petal_groups(views, daisy.members, kernel_order)
        return cls(index, daisy, kernel_order, views, groups)


@dataclass(frozen=True)
class SampleBytes:
    """A run's sample, shared by every index, as two byte strings indexed by
    coordinate: flags[j] is 1 where j was sampled, bits[j] the bit read there."""

    flags: bytes
    bits: bytes

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
    """How one index decoded, with its completion (empty if none was made,
    and for an empty kernel, which is decided from distinct lane bytes) and
    every unanimous (assignment, bit) with assignment < assignments_tried."""

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
    and compile its petal groups."""
    weighted = local_view_system(decoder, i)
    levels = build_daisy_sequence(weighted.system, decoder.locality)
    heavy = pick_heavy_level(levels, weighted)
    view_set = decoder.views[i]
    assert isinstance(view_set, ExplicitViews)
    return IndexDecodePackage.of(i, heavy, tuple(view for _, view in view_set))


def build_decode_packages(decoder: NonAdaptiveDecoder) -> tuple[IndexDecodePackage, ...]:
    return tuple(build_index_package(decoder, i) for i in range(decoder.k))


def _petal_groups(
    views: Sequence[LocalView], members: Sequence[int], kernel_order: tuple[int, ...]
) -> tuple[PetalGroup, ...]:
    """Group members a (table, view size) bucket at a time.  A bucket is read
    by columns when each column lies wholly outside the kernel or is one
    kernel coordinate throughout, and each petal column sits at a fixed
    offset from the first; otherwise it is keyed member by member.  Members
    with empty petals are left out: they are never fully queried."""
    width = len(kernel_order)
    slot = {e: 1 << (width - 1 - j) for j, e in enumerate(kernel_order)}
    buckets = defaultdict(list)
    for m in members:
        view = views[m]
        buckets[id(view.table), len(view.coords)].append(m)
    groups = []
    for ms in buckets.values():
        table = views[ms[0]].table
        columns = list(zip(*(views[m].coords for m in ms)))
        parts = _column_layout(columns, slot, ms) or _member_layouts(views, ms, slot)
        for key, c0s, part in parts:
            if key[0]:
                groups += _lay_out(table, key, c0s, part)
    return tuple(groups)


def _column_layout(columns: list[tuple[int, ...]], slot: Mapping[int, int], ms: list[int]):
    """[(key, c0s, ms)] for a regular bucket, else None.  A key is (petal
    positions, petal offsets, kernel pairs)."""
    positions, pairs = [], []
    for j, col in enumerate(columns):
        if slot.keys().isdisjoint(col):
            positions.append(j)
        elif col[0] in slot and col.count(col[0]) == len(col):
            pairs.append((1 << j, slot[col[0]]))
        else:
            return None
    c0s = columns[positions[0]] if positions else ()
    offsets = [0] if positions else []
    for j in positions[1:]:
        diffs = set(map(sub, columns[j], c0s))
        if len(diffs) != 1:
            return None
        offsets.append(diffs.pop())
    return [((tuple(positions), tuple(offsets), tuple(pairs)), c0s, ms)]


def _member_layouts(views: Sequence[LocalView], ms: list[int], slot: Mapping[int, int]):
    """[(key, c0s, ms)] with members split by their own keys."""
    parts: dict = {}
    for m in ms:
        coords = views[m].coords
        petal = [(j, c) for j, c in enumerate(coords) if c not in slot]
        c0 = petal[0][1] if petal else 0
        key = (
            tuple(j for j, _ in petal),
            tuple(c - c0 for _, c in petal),
            tuple((1 << j, slot[c]) for j, c in enumerate(coords) if c in slot),
        )
        c0s, part = parts.setdefault(key, ([], []))
        c0s.append(c0)
        part.append(m)
    return [(key, c0s, part) for key, (c0s, part) in parts.items()]


def _lay_out(table: tuple, key: tuple, c0s: Sequence[int], ms: Sequence[int]) -> list[PetalGroup]:
    """One group per layer of lanes: the r-th member with a given c0 goes to
    layer r, so repeated views keep their multiplicity."""
    positions, offsets, pairs = key
    index = []
    for start in range(0, len(positions), LANE_BITS):
        bits = [0]
        for pos in positions[start:start + LANE_BITS]:
            bits += [b | 1 << pos for b in bits]
        entries = [0] * 0x80 + bits + [0] * (0x80 - len(bits))
        index.append(bytes(entries) if bits[-1] < 0x100 else tuple(entries))
    lanes = sorted(zip(c0s, ms))
    if len(set(c0s)) == len(c0s):
        layers = [lanes]
    else:
        layers, seen = [], {}
        for c0, m in lanes:
            r = seen[c0] = seen.get(c0, -1) + 1
            if r == len(layers):
                layers.append([])
            layers[r].append((c0, m))
    groups = []
    for layer in layers:
        lo, hi = layer[0][0], layer[-1][0] + 1
        mask = bytearray(hi - lo)
        for c0, _ in layer:
            mask[c0 - lo] = 1
        groups.append(PetalGroup(
            table, pairs, offsets, tuple(index), lo, hi,
            int.from_bytes(mask, "little"), tuple(m for _, m in layer),
        ))
    return groups


def fully_queried_petals(pkg: IndexDecodePackage, sample: SampleBytes) -> tuple[int, ...]:
    """Per group of pkg, the lanes of the members whose petal lies entirely
    inside the sample: the lane mask with byte c0 - lo at 1 for each.

    Members lying wholly inside the kernel have empty petals, sit in no
    group and are never fully queried.
    """
    flags = sample.flags
    fulls = []
    for g in pkg.groups:
        full = g.lanes
        for d in g.offsets:
            full &= int.from_bytes(flags[g.lo + d:g.hi + d], "little")
        fulls.append(full)
    return tuple(fulls)


def _full_lane_bytes(g: PetalGroup, full: int, bits: bytes) -> list[bytes]:
    """Per index table of g, one byte per full lane in lane order: 0x80 | the
    bits read at that table's (up to 7) petal positions."""
    keep, flag = full * 0x7F, full << LANE_BITS
    lanes = []
    for q in range(len(g.index)):
        packed = 0
        for t, d in enumerate(g.offsets[q * LANE_BITS:(q + 1) * LANE_BITS]):
            packed |= int.from_bytes(bits[g.lo + d:g.hi + d], "little") << t
        lanes.append((packed & keep | flag).to_bytes(g.hi - g.lo, "little").translate(None, b"\0"))
    return lanes


def complete_views(pkg: IndexDecodePackage, sample: SampleBytes) -> tuple:
    """The completion core: one (table, base index, kernel pairs) triple per
    fully queried view, empty when no petal is.  The base index holds the
    view's sampled petal bits; each kernel coordinate it reads is a
    (table bit, assignment bit) pair."""
    completion = []
    for g, full in zip(pkg.groups, fully_queried_petals(pkg, sample)):
        if not full:
            continue
        lanes = _full_lane_bytes(g, full, sample.bits)
        columns = [map(index.__getitem__, column) for index, column in zip(g.index, lanes)]
        bases = columns[0] if len(columns) == 1 else map(sum, zip(*columns))
        completion += zip(repeat(g.table), bases, repeat(g.pairs))
    return tuple(completion)


def _decode_without_kernel(pkg: IndexDecodePackage, sample: SampleBytes) -> IndexOutcome:
    """decode_index for an empty kernel: its one assignment is unanimous iff
    the fully queried views output one non-REJECT bit, and views with equal
    lane bytes output the same, so only the distinct lane bytes are read."""
    outputs, queried = set(), 0
    for g, full in zip(pkg.groups, fully_queried_petals(pkg, sample)):
        if not full:
            continue
        queried += full.bit_count()
        lanes = _full_lane_bytes(g, full, sample.bits)
        if len(lanes) == 1:
            bases = map(g.index[0].__getitem__, set(lanes[0]))
        else:
            bases = (sum(map(getitem, g.index, key)) for key in set(zip(*lanes)))
        outputs.update(map(g.table.__getitem__, bases))
    if not queried:
        return IndexOutcome(NO_CONSENSUS, None, 0, 0)
    if len(outputs) == 1 and REJECT not in outputs:
        bit = outputs.pop()
        return IndexOutcome(DECODED, bit, queried, 1, unanimous=((0, bit),))
    return IndexOutcome(NO_CONSENSUS, None, queried, 1)


def kernel_assignment(pkg: IndexDecodePackage, word: Sequence[int]) -> int:
    """The number of the kernel assignment that word carries."""
    width = len(pkg.kernel_order)
    return sum(1 << (width - 1 - j) for j, e in enumerate(pkg.kernel_order) if word[e])


def unanimous_assignments(completion: tuple, width: int, start: int = 0) -> Iterator[tuple[int, int]]:
    """Yield (a, b) for each assignment a >= start of a width-bit kernel, in
    lexicographic order, under which every view of the (nonempty)
    completion outputs bit b.  The one loop over kernel assignments."""
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
    value ever achieves unanimity.  An empty kernel is decided from the
    distinct lane bytes of the fully queried views, with no completion kept;
    both modes agree there, since there is one assignment.
    """
    width = len(pkg.kernel_order)
    if width > kernel_cap:
        return IndexOutcome(KERNEL_TOO_LARGE, None, 0, 0)
    if not width:
        return _decode_without_kernel(pkg, sample)

    completion = complete_views(pkg, sample)
    if not completion:
        return IndexOutcome(NO_CONSENSUS, None, 0, 0)

    scan = unanimous_assignments(completion, width)
    unanimous = tuple(scan if strict else islice(scan, 1))
    tried = unanimous[0][0] + 1 if unanimous and not strict else 1 << width
    bits = {bit for _, bit in unanimous}
    status, bit = (DECODED, bits.pop()) if len(bits) == 1 else (NO_CONSENSUS, None)
    return IndexOutcome(status, bit, len(completion), tried, completion, unanimous)


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
