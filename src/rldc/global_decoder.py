"""Sample-based global decoding of an entire message from a valid codeword.

One binomial coordinate sample Q (each coordinate kept with probability p,
default n**(-1/(2*locality**2))) is reused across all k message indices.  Per
index, a heavy daisy extracted from the decoder's query distribution supplies
petals; members whose petal is nonempty and fully inside Q become usable
partial views.  Since the kernel is typically unsampled, the decoder
enumerates every kernel assignment, completes the queried petals into full
local views, and outputs a bit as soon as some assignment makes all completed
views agree on it.

run_global_decoder is the one trial path: it samples, applies the query
budget and decodes every index; its outcome carries the sample (each sampled
coordinate with its bit) that the audit in harness.py works from.

Packages are compiled once into groups (PetalGroup): the members that share
a table object, the offsets of their petal coordinates from the first petal
coordinate c0, the table bits of those coordinates and the kernel pairs.  A
group gives each c0 in [lo, hi) a one-byte lane.  A run's sample becomes two
byte strings (SampleBytes): flags marks the sampled coordinates, bits holds
the bit read at each.  Per group the filter ANDs the lane mask with one flags
slice per petal offset, and the completion ORs the matching bits slices
together, keeps the full lanes with bytes.translate and maps each through the
group's table of petal bits to table index: a few whole-slice integer
operations per group, none per member.  Every built-in code has one group per
index.  Only sampled bits are ever read: the bytes are built from the
sampled coordinates alone.

One completion core serves the decoder and the audit in harness.py:
complete_views turns each fully queried view into its table, the table index
of its sampled petal bits and a (table bit, assignment bit) pair per kernel
coordinate, once per (package, sample), so unanimous_bit evaluates assignment
a by OR-ing in only kernel bits.  Assignment a gives the smallest kernel
element its most significant bit, so counting a upward walks assignments in
lexicographic order.

On a valid codeword the assignment matching the true kernel values makes
every completed view output the true bit, and no assignment can achieve
unanimity on the wrong bit as long as one good petal is sampled; corrupted
inputs carry no guarantee and are accepted for diagnostics only.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import sub
from random import Random
from typing import Collection, Mapping, Sequence

from .daisy import HeavyDaisy, build_daisy_sequence, pick_heavy_level
from .decoders import REJECT, Code, ExplicitViews, LocalView, NonAdaptiveDecoder, local_view_system
from .exact import PowerBound

DECODED = "decoded"
NO_CONSENSUS = "no_consensus"
KERNEL_TOO_LARGE = "kernel_too_large"

KERNEL_CAP = 20  # default largest kernel enumerated (2^20 assignments)


def sample_coordinates(n: int, p: float, rng: Random) -> frozenset[int]:
    """Keep each coordinate of [0, n) independently with probability p."""
    if not 0 <= p <= 1:
        raise ValueError(f"sampling probability must lie in [0, 1], got {p}")
    return frozenset(j for j in range(n) if rng.random() < p)


def default_sampling_probability(n: int, locality: int) -> float:
    return n ** (-1.0 / (2 * locality * locality))


def default_extraction_scale(support_size: int, n: int, ell: int) -> Fraction | PowerBound:
    """Scale parameter for daisy extraction on a decoder's query distribution.

    The natural choice is support_size/n, but when the support is sparse that
    puts the first-level threshold below 1 and every covered coordinate lands
    in the kernel, collapsing the sequence.  Flooring the scale at n**(-1/l)
    keeps the first threshold at >= 1 (so only coordinates shared by two or
    more views can enter a kernel) and only raises thresholds, which preserves
    the partition, degree-bound, and kernel-size guarantees.
    """
    ratio = Fraction(support_size, n)
    floor = PowerBound(Fraction(1), n, Fraction(-1, ell))
    return ratio if floor.cmp(ratio) < 0 else floor


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
    """A run's sample as two byte strings indexed by coordinate: flags[j] is
    1 where j was sampled and bits[j] is the bit read there, 0 elsewhere.
    Every index and the audit share them, and `completions` keeps each
    package's completion against them."""

    flags: bytes
    bits: bytes
    completions: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def of(cls, word: Sequence[int], coords: Collection[int]) -> "SampleBytes":
        """Read word at each sampled coordinate; nothing else of it is read."""
        size = max(coords, default=-1) + 1
        flags, bits = bytearray(size), bytearray(size)
        for j in coords:
            flags[j] = 1
            bits[j] = word[j]
        return cls(bytes(flags), bytes(bits))


@dataclass(frozen=True)
class IndexOutcome:
    status: str
    bit: int | None
    fully_queried: int
    assignments_tried: int

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
        return self.sample.flags.count(1)

    @property
    def message(self) -> tuple[int, ...] | None:
        if self.aborted or any(r.status != DECODED for r in self.results):
            return None
        return tuple(r.bit for r in self.results)


def build_index_package(decoder: NonAdaptiveDecoder, i: int) -> IndexDecodePackage:
    """Extract the heavy daisy for index i at the default extraction scale
    and compile its petal groups."""
    weighted = local_view_system(decoder, i)
    system = weighted.system
    scale = default_extraction_scale(len(system.sets), system.universe_size, decoder.locality)
    levels = build_daisy_sequence(system, decoder.locality, scale)
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


def complete_views(pkg: IndexDecodePackage, sample: SampleBytes) -> tuple:
    """The completion core: one (table, base index, kernel pairs) triple per
    fully queried view, empty when no petal is.  The base index holds the
    view's sampled petal bits; each kernel coordinate it reads is a
    (table bit, assignment bit) pair.  Computed once per (package, sample)."""
    done = sample.completions.get(pkg)
    if done is not None:
        return done
    bits = sample.bits
    completion = []
    for g, full in zip(pkg.groups, fully_queried_petals(pkg, sample)):
        if not full:
            continue
        keep, flag = full * 0x7F, full << LANE_BITS
        columns = []
        for q, index in enumerate(g.index):
            packed = 0
            for t, d in enumerate(g.offsets[q * LANE_BITS:(q + 1) * LANE_BITS]):
                packed |= int.from_bytes(bits[g.lo + d:g.hi + d], "little") << t
            lane_bytes = (packed & keep | flag).to_bytes(g.hi - g.lo, "little")
            columns.append(map(index.__getitem__, lane_bytes.translate(None, b"\0")))
        bases = columns[0] if len(columns) == 1 else map(sum, zip(*columns))
        completion += zip(repeat(g.table), bases, repeat(g.pairs))
    done = sample.completions[pkg] = tuple(completion)
    return done


def kernel_assignment(pkg: IndexDecodePackage, word: Sequence[int]) -> int:
    """The number of the kernel assignment that word carries."""
    width = len(pkg.kernel_order)
    return sum(1 << (width - 1 - j) for j, e in enumerate(pkg.kernel_order) if word[e])


def unanimous_bit(completion: tuple, a: int) -> int | None:
    """The bit every completed view outputs under assignment a, else None."""
    outputs = []
    for table, idx, pairs in completion:
        for table_bit, assignment_bit in pairs:
            if a & assignment_bit:
                idx |= table_bit
        outputs.append(table[idx])
    first = outputs[0]
    return first if first is not REJECT and all(out == first for out in outputs) else None


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
    value ever achieves unanimity.
    """
    kernel = pkg.kernel_order
    if len(kernel) > kernel_cap:
        return IndexOutcome(KERNEL_TOO_LARGE, None, 0, 0)

    completion = complete_views(pkg, sample)
    if not completion:
        return IndexOutcome(NO_CONSENSUS, None, 0, 0)

    unanimous: set[int] = set()
    assignments = 1 << len(kernel)
    for a in range(assignments):
        bit = unanimous_bit(completion, a)
        if bit is not None:
            if not strict:
                return IndexOutcome(DECODED, bit, len(completion), a + 1)
            unanimous.add(bit)
    if strict and len(unanimous) == 1:
        return IndexOutcome(DECODED, unanimous.pop(), len(completion), assignments)
    return IndexOutcome(NO_CONSENSUS, None, len(completion), assignments)


def run_global_decoder(
    decoder: NonAdaptiveDecoder,
    code: Code,
    w: Sequence[int],
    rng: Random,
    kernel_cap: int = KERNEL_CAP,
    query_budget: int | None = None,
    p: float | None = None,
    strict: bool = False,
    packages: tuple[IndexDecodePackage, ...] | None = None,
) -> GlobalDecodeOutcome:
    """One full run: sample once, decode every index from the shared sample.

    This is the one trial path (harness.run_global_trials calls it per
    trial), and its outcome carries the SampleBytes every index was decoded
    from, which the harness audits.  A sample larger than query_budget
    aborts the run before decoding.  The caller promises w = C(x); corrupted
    inputs still run but only for diagnostics.  Pass precomputed `packages`
    (build_decode_packages(decoder)) to reuse the deterministic daisy
    extraction across trials.
    """
    if p is None:
        p = default_sampling_probability(code.n, decoder.locality)
    coords = sample_coordinates(code.n, p, rng)
    sample = SampleBytes.of(w, coords)
    if query_budget is not None and len(coords) > query_budget:
        return GlobalDecodeOutcome((), sample, True)

    if packages is None:
        packages = build_decode_packages(decoder)
    results = tuple(decode_index(pkg, sample, kernel_cap, strict) for pkg in packages)
    return GlobalDecodeOutcome(results, sample, False)
