"""Daisy extraction: layered kernel thresholds, heavy-level selection, plucking.

build_daisy_sequence splits a collection of small sets into l levels.  Level i
puts every element whose residual degree exceeds c * n**(i/l) into a kernel
K_i, collects the residual sets with at most i elements outside K_i, and
removes them before the next level.  The levels partition the input, every
level's outside-kernel degrees are bounded by the previous level's threshold,
and |K_i| stays below l * n**(1 - i/l) whenever c >= |collection|/n.

pick_heavy_level then finds a level carrying at least 1/l of the query
weight (one exists by pigeonhole), and pluck_simple_daisy greedily thins a
t-daisy down to pairwise-disjoint petals while keeping a guaranteed fraction
of the covered elements.

All threshold comparisons are exact integer arithmetic; see exact.py.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .exact import PowerBound, floor_power_bound
from .set_system import (
    ContractError,
    DaisyCertificate,
    SetSystem,
    WeightedSetSystem,
    covered_elements,
    verify_daisy,
)


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
    """A level holding >= 1/l of the weight, packaged as a daisy certificate."""

    level: int
    members: tuple[int, ...]
    kernel: frozenset[int]
    petal_bound: int
    degree_bound: PowerBound
    density: Fraction

    def certificate(self) -> DaisyCertificate:
        return DaisyCertificate(
            member_indices=frozenset(self.members),
            kernel=self.kernel,
            petal_bound=self.petal_bound,
            degree_bound=self.degree_bound,
        )

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "members": list(self.members),
            "kernel": sorted(self.kernel),
            "petal_bound": self.petal_bound,
            "degree_bound": self.degree_bound.to_json(),
            "density": f"{self.density.numerator}/{self.density.denominator}",
        }


def _threshold(c: Fraction | PowerBound, n: int, num: int, den: int) -> PowerBound:
    """The exact bound c * n**(num/den)."""
    if isinstance(c, PowerBound):
        if c.base != n:
            raise ValueError("scale parameter uses a different base than the universe")
        return c.scale_exponent(Fraction(num, den))
    return PowerBound(Fraction(c), n, Fraction(num, den))


def build_daisy_sequence(
    system: SetSystem, ell: int, c: Fraction | PowerBound
) -> tuple[DaisyLevel, ...]:
    """Run the level construction on a system whose sets have size <= ell.

    Residual collection T_1 is the whole system; at level i the kernel is
    K_i = {j : deg over T_i of j > c * n**(i/ell)}, the members are the
    residual sets with at most i elements outside K_i, and T_{i+1} drops
    them.  The ell member tuples always partition the input.
    """
    if ell < 1:
        raise ValueError(f"level count must be >= 1, got {ell}")
    if isinstance(c, PowerBound):
        if c.cmp(0) <= 0:
            raise ValueError("scale parameter must be positive")
    elif c <= 0:
        raise ValueError(f"scale parameter must be positive, got {c}")
    for idx, members in enumerate(system.sets):
        if len(members) > ell:
            raise ValueError(f"set {idx} has {len(members)} > {ell} elements")

    n = system.universe_size
    sets = system.sets
    residual = list(range(len(sets)))
    levels = []
    for i in range(1, ell + 1):
        threshold = _threshold(c, n, i, ell)
        # "deg > threshold" == "deg > floor(threshold)" for integer degrees.
        cap = floor_power_bound(threshold)

        degrees = Counter()
        for idx in residual:
            degrees.update(sets[idx])
        kernel = {e for e, d in degrees.items() if d > cap}

        members = []
        survivors = []
        for idx in residual:
            outside = 0
            for e in sets[idx]:
                if e not in kernel:
                    outside += 1
            if outside <= i:
                members.append(idx)
            else:
                survivors.append(idx)
        residual = survivors
        levels.append(DaisyLevel(i, tuple(members), frozenset(kernel), threshold))

    assert not residual, "level ell must absorb every residual set"
    return tuple(levels)


def partition_check(levels: tuple[DaisyLevel, ...], size: int) -> tuple[bool, int]:
    """(whether the levels' member lists partition range(size), how many
    members they list in all)."""
    listed = [m for level in levels for m in level.members]
    return len(listed) == size and set(listed) == set(range(size)), len(listed)


def pick_heavy_level(levels: tuple[DaisyLevel, ...], weighted: WeightedSetSystem) -> HeavyDaisy:
    """Select the smallest level with weight >= 1/l; it exists by pigeonhole.

    Requires the levels to come from build_daisy_sequence over the weighted
    system's support (checked: the member lists must partition the indices).
    """
    if not levels:
        raise ContractError("empty level sequence")
    ell = len(levels)
    if not partition_check(levels, len(weighted.system.sets))[0]:
        raise ContractError("levels do not partition the weighted system's support")

    masses = weighted.masses
    total = weighted.total
    for level in levels:
        mass = sum(masses[idx] for idx in level.members)
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
    degree_bound: Fraction | PowerBound,
) -> tuple[int, ...]:
    """Thin a valid t-daisy to members with pairwise-disjoint petals.

    Walks the covered elements outside the kernel in ascending order; at each
    element still covered by a remaining petal, keeps the lexicographically
    smallest containing set and discards every set whose petal meets the kept
    petal.  The survivors form a 1-daisy with the same kernel, of size at
    least (covered - |kernel|) when petal_bound == 1 and at least
    (covered - |kernel|) / (t * s**2) otherwise.
    """
    member_tuple = system.check_scope(members)
    cert = DaisyCertificate(frozenset(member_tuple), kernel, petal_bound, degree_bound)
    report = verify_daisy(system, cert)
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
    return {
        "n": system.universe_size,
        "set_count": len(system.sets),
        "levels": [lvl.to_json() for lvl in levels],
        "heavy": heavy.to_json(),
        "covered_by_heavy": len(covered_elements(system, heavy.members)),
        "verification": verify_daisy(system, heavy.certificate()).to_json(),
    }
