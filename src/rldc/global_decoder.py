"""Sample-based global decoding of an entire message from a valid codeword.

One binomial coordinate sample Q (each coordinate kept with probability p,
default n**(-1/(2*locality**2))) is reused across all k message indices.  Per
index, a heavy daisy extracted from the decoder's query distribution supplies
petals; members whose petal is nonempty and fully inside Q become usable
partial views.  Since the kernel is typically unsampled, the decoder
enumerates every kernel assignment, completes the queried petals into full
local views, and outputs a bit as soon as some assignment makes all completed
views agree on it.

One completion core serves the decoder and the audit in harness.py:
complete_views turns each queried view into its table, the table index of its
sampled petal bits and a (table bit, assignment bit) pair per kernel
coordinate, so unanimous_bit evaluates assignment a by OR-ing in only kernel
bits.  Assignment a gives the smallest kernel element its most significant
bit, so counting a upward walks assignments in lexicographic order.

On a valid codeword the assignment matching the true kernel values makes
every completed view output the true bit, and no assignment can achieve
unanimity on the wrong bit as long as one good petal is sampled; corrupted
inputs carry no guarantee and are accepted for diagnostics only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Mapping, Sequence

from .daisy import HeavyDaisy, build_daisy_sequence, pick_heavy_level
from .decoders import REJECT, Code, ExplicitViews, LocalView, NonAdaptiveDecoder, local_view_system
from .exact import PowerBound

DECODED = "decoded"
NO_CONSENSUS = "no_consensus"
KERNEL_TOO_LARGE = "kernel_too_large"


@dataclass(frozen=True)
class SamplePlan:
    """The binomial sample: inclusion probability, sampled set, budget cap."""

    p: float
    coords: frozenset[int]
    query_budget: int | None

    @property
    def aborted(self) -> bool:
        return self.query_budget is not None and len(self.coords) > self.query_budget


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


@dataclass(frozen=True, eq=False)
class IndexDecodePackage:
    """Everything decode_index needs for one message index."""

    index: int
    daisy: HeavyDaisy
    petals: Mapping[int, frozenset[int]]
    kernel_order: tuple[int, ...]
    views: tuple[LocalView, ...]


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
    """Per-index results plus query accounting for one run."""

    results: tuple[IndexOutcome, ...]
    total_queries: int
    aborted: bool

    @property
    def message(self) -> tuple[int, ...] | None:
        if self.aborted or any(r.status != DECODED for r in self.results):
            return None
        return tuple(r.bit for r in self.results)


def build_index_package(
    decoder: NonAdaptiveDecoder,
    i: int,
    scale: Fraction | PowerBound | None = None,
) -> IndexDecodePackage:
    """Extract the heavy daisy for index i and precompute its petals."""
    weighted = local_view_system(decoder, i)
    system = weighted.system
    if scale is None:
        scale = default_extraction_scale(len(system.sets), system.universe_size, decoder.locality)
    levels = build_daisy_sequence(system, decoder.locality, scale)
    heavy = pick_heavy_level(levels, weighted)
    petals = {
        m: frozenset(system.sets[m]) - heavy.kernel for m in heavy.members
    }
    view_set = decoder.views[i]
    assert isinstance(view_set, ExplicitViews)
    return IndexDecodePackage(
        index=i,
        daisy=heavy,
        petals=petals,
        kernel_order=tuple(sorted(heavy.kernel)),
        views=tuple(view for _, view in view_set),
    )


def build_decode_packages(
    decoder: NonAdaptiveDecoder, scale: Fraction | PowerBound | None = None
) -> tuple[IndexDecodePackage, ...]:
    return tuple(build_index_package(decoder, i, scale) for i in range(decoder.k))


def fully_queried_petals(pkg: IndexDecodePackage, sampled: frozenset[int]) -> tuple[int, ...]:
    """Members whose petal is nonempty and entirely inside the sampled set.

    Members lying wholly inside the kernel have empty petals and are treated
    as never fully queried.
    """
    return tuple(
        m for m in pkg.daisy.members if pkg.petals[m] and pkg.petals[m] <= sampled
    )


def complete_views(
    pkg: IndexDecodePackage, queried: Sequence[int], sampled_values: Mapping[int, int]
) -> tuple:
    """The completion core: one (table, base index, kernel pairs) triple per
    queried view.  The base index holds the view's sampled petal bits; each
    kernel coordinate it reads is a (table bit, assignment bit) pair."""
    width = len(pkg.kernel_order)
    slot = {e: 1 << (width - 1 - j) for j, e in enumerate(pkg.kernel_order)}
    completion = []
    for m in queried:
        view, petal = pkg.views[m], pkg.petals[m]
        base, pairs = 0, []
        for j, c in enumerate(view.coords):
            if c not in petal:
                pairs.append((1 << j, slot[c]))
            elif sampled_values[c]:
                base |= 1 << j
        completion.append((view.table, base, pairs))
    return tuple(completion)


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
    sampled_values: Mapping[int, int],
    kernel_cap: int,
    strict: bool = False,
) -> IndexOutcome:
    """Enumerate kernel assignments and decode on unanimity.

    sampled_values maps every sampled coordinate to its read bit, so any
    access outside the sample fails loudly.  An assignment decodes b when the
    (nonempty) set of completed views unanimously outputs b.  The default
    rule returns at the first unanimous assignment in lexicographic order;
    strict mode scans all assignments and answers only when a single bit
    value ever achieves unanimity.
    """
    kernel = pkg.kernel_order
    if len(kernel) > kernel_cap:
        return IndexOutcome(KERNEL_TOO_LARGE, None, 0, 0)

    queried = fully_queried_petals(pkg, frozenset(sampled_values))
    if not queried:
        return IndexOutcome(NO_CONSENSUS, None, 0, 0)

    completion = complete_views(pkg, queried, sampled_values)
    unanimous: set[int] = set()
    assignments = 1 << len(kernel)
    for a in range(assignments):
        bit = unanimous_bit(completion, a)
        if bit is not None:
            if not strict:
                return IndexOutcome(DECODED, bit, len(queried), a + 1)
            unanimous.add(bit)
    if strict and len(unanimous) == 1:
        return IndexOutcome(DECODED, unanimous.pop(), len(queried), assignments)
    return IndexOutcome(NO_CONSENSUS, None, len(queried), assignments)


def run_global_decoder(
    decoder: NonAdaptiveDecoder,
    code: Code,
    w: Sequence[int],
    rng: Random,
    kernel_cap: int = 20,
    query_budget: int | None = None,
    p: float | None = None,
    scale: Fraction | PowerBound | None = None,
    strict: bool = False,
    packages: tuple[IndexDecodePackage, ...] | None = None,
) -> GlobalDecodeOutcome:
    """One full run: sample once, decode every index from the shared sample.

    The caller promises w = C(x); corrupted inputs still run but only for
    diagnostics.  Pass precomputed `packages` to reuse daisy extraction
    across trials (extraction is deterministic per decoder, so this does not
    affect outcomes).
    """
    n = code.n
    if p is None:
        p = default_sampling_probability(n, decoder.locality)
    plan = SamplePlan(p, sample_coordinates(n, p, rng), query_budget)
    if plan.aborted:
        return GlobalDecodeOutcome((), len(plan.coords), True)

    if packages is None:
        packages = build_decode_packages(decoder, scale)
    sampled_values = {j: w[j] for j in plan.coords}
    results = tuple(
        decode_index(pkg, sampled_values, kernel_cap, strict) for pkg in packages
    )
    return GlobalDecodeOutcome(results, len(plan.coords), False)
