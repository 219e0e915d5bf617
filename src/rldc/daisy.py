"""Daisy extraction: layered kernel thresholds, heavy-level selection, plucking.

build_daisy_sequence splits a collection of small sets into l levels.  Level i
puts every element whose residual degree exceeds c * n**(i/l) into a kernel
K_i, collects the residual sets with at most i elements outside K_i, and
removes them before the next level.  The levels partition the input, every
level's outside-kernel degrees are bounded by the previous level's threshold,
and |K_i| stays below l * n**(1 - i/l) whenever c >= |collection|/n; it
defaults to default_extraction_scale, max(|collection|/n, n**(-1/l)).

pick_heavy_level then finds a level carrying at least 1/l of the query
weight (one exists by pigeonhole), and pluck_simple_daisy greedily thins a
t-daisy down to pairwise-disjoint petals while keeping a guaranteed fraction
of the covered elements.

A rational scale c is converted to a PowerBound once, at entry, and level
i's threshold is c * n**(i/l).  Integer degrees are compared with its
floor, and a daisy is passed as its parts with an integer degree_cap.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import add, ge, le, lt, not_
from typing import Sequence

from .exact import PowerBound, floor_power_bound, format_fraction
from .set_system import ContractError, SetSystem, covered_elements, verify_daisy


@dataclass(frozen=True)
class DaisyLevel:
    """One level of the sequence: members S_i, kernel K_i, threshold c*n^(i/l)."""

    level_index: int
    members: tuple[int, ...]
    kernel: frozenset[int]
    threshold: PowerBound

    def to_json(self) -> dict:
        return {
            "level": self.level_index,
            "members": list(self.members),
            "kernel": sorted(self.kernel),
            "threshold": self.threshold.to_json(),
        }


@dataclass(frozen=True)
class HeavyDaisy:
    """A level holding >= 1/l of the weight, with its petal and degree bounds."""

    level: int
    members: tuple[int, ...]
    kernel: frozenset[int]
    petal_bound: int
    degree_bound: PowerBound
    density: Fraction

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "members": list(self.members),
            "kernel": sorted(self.kernel),
            "petal_bound": self.petal_bound,
            "degree_bound": self.degree_bound.to_json(),
            "density": format_fraction(self.density),
        }


# Most levels build_daisy_sequence makes: each exact floor raises to the ell-th power,
# so on 2 sets ell = 1000 took 0.02 s at n = 4 and 0.39 s at n = 2^20 (CHANGES.md).
# The cost tracks ell * n.bit_length(): 0.42-0.49 s at 25,000 (ell = 1000, n = 2^24; ell = 100,
# n = 2^256), 0.59-0.94 s at 30,750-33,000 (ell = 30, n = 2^1024; ell = 1000, n = 2^32).
# An explicit scale c adds 3 per numerator bit (each floor binary-searches that many more bits)
# and 1 per 4 denominator bits (they only widen the powers): at the limit, 3 sets over n = 16
# took 0.12-0.26 s (numerator) and 0.01-0.59 s (denominator) for ell = 2 to 1000; uncharged,
# ell = 100 took 43 s at a 1,000-bit numerator and 7.8 s at a 32,000-bit denominator.
MAX_LEVELS = 1000
MAX_LEVEL_BITS = 25_000


def default_extraction_scale(support_size: int, n: int, ell: int) -> PowerBound:
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
    return PowerBound(ratio, n, 0) if floor.cmp(ratio) < 0 else floor


def build_daisy_sequence(system: SetSystem, ell: int, c: Fraction | None = None) -> tuple[DaisyLevel, ...]:
    """Run the level construction on a system whose sets have size <= ell.

    The system may be a decoder index's view list (decoders.ExplicitViews),
    read in place; its empty sets join level 1.  Residual
    collection T_1 is the whole system; at level i the kernel is
    K_i = {j : deg over T_i of j > c * n**(i/ell)}, the members are the
    residual sets with at most i elements outside K_i, and T_{i+1} drops
    them.  The ell member tuples always partition the input.  The rational
    scale c is read as PowerBound(c, n, 0), and None as default_extraction_scale.
    """
    n = system.universe_size
    if not 1 <= ell <= MAX_LEVELS:
        raise ValueError(f"level count must be in [1, {MAX_LEVELS}], got {ell}")
    bits, charged = n.bit_length(), "n.bit_length()"
    if c is not None:
        bits += 3 * c.numerator.bit_length() + c.denominator.bit_length() // 4
        charged = "(n.bit_length() + 3 * c's numerator bits + c's denominator bits // 4)"
    if ell * bits > MAX_LEVEL_BITS:
        raise ValueError(f"ell * {charged} = {ell} * {bits} exceeds {MAX_LEVEL_BITS}")
    c = default_extraction_scale(len(system.sets), n, ell) if c is None else PowerBound(c, n, 0)
    sets = system.sets
    sizes = tuple(map(len, sets))
    if sets and max(sizes) > ell:
        idx = next(idx for idx, size in enumerate(sizes) if size > ell)
        raise ValueError(f"set {idx} has {sizes[idx]} > {ell} elements")

    # the residual collection as set numbers, sets and sizes, and its degrees
    residual, residual_sets = range(len(sets)), sets
    degrees = top = None  # recounted only after a level takes members
    levels = []
    for i in range(1, ell + 1):
        threshold = c.scale_exponent(Fraction(i, ell))
        # "deg > threshold" == "deg > floor(threshold)" for integer degrees.
        cap = floor_power_bound(threshold)
        if degrees is None:
            degrees = Counter(chain.from_iterable(residual_sets))
            top = max(degrees.values(), default=0)
        kernel = frozenset(compress(degrees, map(lt, repeat(cap), degrees.values())) if top > cap else ())

        # a member has at most i elements outside the kernel: its size is at
        # most i plus its kernel elements, or just i when the kernel is empty
        if kernel:
            inside = (sum(map(kernel.__contains__, row)) for row in residual_sets)
            keep = list(map(le, sizes, map(add, inside, repeat(i))))
        else:
            keep = list(map(ge, repeat(i), sizes))
        members = tuple(compress(residual, keep))
        if members:
            drop = list(map(not_, keep))
            residual, residual_sets, sizes = (tuple(compress(seq, drop)) for seq in (residual, residual_sets, sizes))
            degrees = None
        levels.append(DaisyLevel(i, members, kernel, threshold))

    assert not residual, "level ell must absorb every residual set"
    return tuple(levels)


def partition_check(levels: tuple[DaisyLevel, ...], size: int) -> tuple[bool, int]:
    """(whether the levels' member lists partition range(size), how many
    members they list in all)."""
    listed = list(chain.from_iterable(level.members for level in levels))
    return len(listed) == size and set(listed) == set(range(size)), len(listed)


def pick_heavy_level(levels: tuple[DaisyLevel, ...], masses: Sequence[int]) -> HeavyDaisy:
    """Select the smallest level with weight >= 1/l; it exists by pigeonhole.

    Set j weighs masses[j] / sum(masses): the masses of a WeightedSetSystem
    or of a decoder index's view list, or any positive integers.  The levels
    must come from build_daisy_sequence over the same sets (checked: the
    member lists partition the masses).
    """
    if not levels:
        raise ContractError("empty level sequence")
    ell = len(levels)
    if not partition_check(levels, len(masses))[0]:
        raise ContractError("levels do not partition the weighted system's support")

    total = sum(masses)
    for level in levels:
        mass = sum(map(masses.__getitem__, level.members))
        if ell * mass >= total:
            s = level.level_index
            bound_level = max(1, s - 1)
            return HeavyDaisy(
                level=s,
                members=level.members,
                kernel=level.kernel,
                petal_bound=s,
                degree_bound=levels[bound_level - 1].threshold,
                density=Fraction(mass, total),
            )
    raise ContractError("no level reaches density 1/l; partition invariant broken")


def pluck_simple_daisy(
    system: SetSystem,
    members: tuple[int, ...] | frozenset[int],
    kernel: frozenset[int],
    petal_bound: int,
    degree_cap: int,
) -> tuple[int, ...]:
    """Thin a valid t-daisy to members with pairwise-disjoint petals.

    Walks the covered elements outside the kernel in ascending order; at each
    element still covered by a remaining petal, keeps the lexicographically
    smallest containing set and discards every set whose petal meets the kept
    petal.  The survivors form a 1-daisy with the same kernel, of size at
    least (covered - |kernel|) when petal_bound == 1 and at least
    (covered - |kernel|) / (t * s**2) otherwise, where t = degree_cap.
    """
    member_tuple = system.check_scope(members)
    report = verify_daisy(system, member_tuple, kernel, petal_bound, degree_cap)
    if not report.ok:
        raise ContractError(f"input is not a valid daisy: {report.to_json()}")

    petals = {idx: frozenset(system.sets[idx]) - kernel for idx in member_tuple}
    by_element: dict[int, list[int]] = {}
    for idx in member_tuple:
        for e in petals[idx]:
            by_element.setdefault(e, []).append(idx)

    remaining = set(member_tuple)
    chosen: list[int] = []
    for e in sorted(by_element):
        candidates = [idx for idx in by_element[e] if idx in remaining]
        if not candidates:
            continue  # element dropped out of the residual union
        pick = min(candidates, key=lambda idx: (system.sets[idx], idx))
        chosen.append(pick)
        conflict = {
            other
            for p in petals[pick]
            for other in by_element.get(p, ())
            if other in remaining
        }
        conflict.add(pick)
        remaining -= conflict
    return tuple(sorted(chosen))


def extraction_report(
    system: SetSystem, levels: tuple[DaisyLevel, ...], heavy: HeavyDaisy
) -> dict:
    """JSON summary of an extraction: levels, chosen level, verification."""
    cap = floor_power_bound(heavy.degree_bound)
    report = verify_daisy(system, heavy.members, heavy.kernel, heavy.petal_bound, cap)
    return {
        "n": system.universe_size,
        "set_count": len(system.sets),
        "levels": [lvl.to_json() for lvl in levels],
        "heavy": heavy.to_json(),
        "covered_by_heavy": len(covered_elements(system, heavy.members)),
        "verification": report.to_json(),
    }
