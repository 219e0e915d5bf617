"""Weighted set systems over a universe [n], petal degrees, and daisy verification.

A *daisy* with kernel K and degree bound t is a collection of sets in which
every element outside K lies in at most t petals (petal = set minus kernel);
t = 1 means the petals are pairwise disjoint ("simple daisy").  These systems
carry the query distributions of non-adaptive local decoders, so:

- set identity is positional (index into the stored list) and duplicates are
  allowed with multiplicity, giving multiset semantics;
- weights are exact rationals kept internally as integer masses over their
  least common denominator (exact.integer_masses), so weight sums, the
  sum-to-1 and positivity checks and the 1/l pigeonhole bound are integer
  arithmetic and never suffer from rounding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .exact import PowerBound, format_fraction, integer_masses, parse_fraction


class ContractError(RuntimeError):
    """A violated precondition that callers promised to uphold."""


@dataclass(frozen=True)
class SetSystem:
    """An ordered collection of nonempty subsets of [0, universe_size)."""

    universe_size: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.universe_size
        if n < 1:
            raise ValueError(f"universe size must be positive, got {n}")
        for idx, members in enumerate(self.sets):
            if len(members) == 0:
                raise ValueError(f"set {idx} is empty")
            prev = -1
            for e in members:
                if e <= prev:
                    raise ValueError(f"set {idx} is not strictly sorted: {members}")
                prev = e
            if members[0] < 0 or members[-1] >= n:
                raise ValueError(f"set {idx} has elements outside [0, {n})")

    def __len__(self) -> int:
        return len(self.sets)

    def check_scope(self, scope: Iterable[int]) -> tuple[int, ...]:
        """Validate a set-index subset, returning it sorted."""
        out = tuple(sorted(set(scope)))
        if out and (out[0] < 0 or out[-1] >= len(self.sets)):
            raise ValueError(f"set index out of range [0, {len(self.sets)})")
        return out


@dataclass(frozen=True)
class WeightedSetSystem:
    """A SetSystem plus one positive rational weight per set, summing to 1.

    Weights are stored as integer masses with a shared total so that weight
    sums reduce to integer sums.
    """

    system: SetSystem
    masses: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        if len(self.masses) != len(self.system.sets):
            raise ValueError("one weight per set required")
        if any(m <= 0 for m in self.masses):
            raise ValueError("weights must be positive")
        if sum(self.masses) != self.total:
            raise ValueError("weights must sum to exactly 1")

    @classmethod
    def from_masses(cls, system: SetSystem, masses: Sequence[int]) -> "WeightedSetSystem":
        return cls(system, tuple(masses), sum(masses))

    @classmethod
    def from_weights(cls, system: SetSystem, weights: Sequence[Fraction]) -> "WeightedSetSystem":
        masses, common = integer_masses([Fraction(w) for w in weights])
        if sum(masses) != common:
            raise ValueError("weights must sum to exactly 1")
        return cls(system, tuple(masses), common)

    @classmethod
    def uniform(cls, system: SetSystem) -> "WeightedSetSystem":
        count = len(system.sets)
        if count == 0:
            raise ValueError("cannot weight an empty collection")
        return cls(system, (1,) * count, count)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(m, self.total) for m in self.masses)


@dataclass(frozen=True)
class DaisyCertificate:
    """A claimed (t, s)-daisy: members of a parent system, kernel, bounds.

    degree_bound may be an exact PowerBound since level thresholds of the
    form c * n**(i/l) are irrational in general.
    """

    member_indices: frozenset[int]
    kernel: frozenset[int]
    petal_bound: int
    degree_bound: Fraction | PowerBound


@dataclass(frozen=True)
class DaisyReport:
    """Outcome of verify_daisy: empty iff the certificate is a valid daisy."""

    degree_violations: tuple[tuple[int, int], ...] = field(default=())
    petal_violations: tuple[tuple[int, int], ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.degree_violations and not self.petal_violations

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "degree_violations": [list(v) for v in self.degree_violations],
            "petal_violations": [list(v) for v in self.petal_violations],
        }


def covered_elements(system: SetSystem, scope: Iterable[int]) -> frozenset[int]:
    """Union of the selected sets."""
    covered: set[int] = set()
    for idx in system.check_scope(scope):
        covered.update(system.sets[idx])
    return frozenset(covered)


def petal_degrees(system: SetSystem, members: Iterable[int], kernel: frozenset[int]) -> Counter:
    """How many member petals (set minus kernel) contain each outside element."""
    sets = system.sets
    return Counter([e for idx in members for e in sets[idx] if e not in kernel])


def verify_daisy(system: SetSystem, cert: DaisyCertificate) -> DaisyReport:
    """Check a daisy certificate, reporting every violating element and member.

    The report lists each element outside the kernel whose petal degree
    exceeds degree_bound, and each member whose petal exceeds petal_bound.
    A simple daisy is the degree_bound = 1 case.
    """
    members = system.check_scope(cert.member_indices)
    for e in cert.kernel:
        if e < 0 or e >= system.universe_size:
            raise ValueError(f"kernel element {e} outside universe")

    kernel = cert.kernel
    bound = cert.degree_bound
    counts = petal_degrees(system, members, kernel)
    if isinstance(bound, PowerBound):
        degree_bad = tuple(sorted((e, d) for e, d in counts.items() if bound.exceeded_by(d)))
    else:
        degree_bad = tuple(sorted((e, d) for e, d in counts.items() if d > bound))

    petal_bad = []
    for idx in members:
        size = sum(1 for e in system.sets[idx] if e not in kernel)
        if size > cert.petal_bound:
            petal_bad.append((idx, size))
    return DaisyReport(degree_bad, tuple(petal_bad))


def system_to_json(obj: SetSystem | WeightedSetSystem) -> dict:
    """Lossless JSON form: {"n":..., "sets":[[...]...], "weights":["a/b",...]}.

    The weights field is omitted for a bare SetSystem (readers treat a
    missing field as uniform).
    """
    if isinstance(obj, WeightedSetSystem):
        doc = system_to_json(obj.system)
        doc["weights"] = [format_fraction(w) for w in obj.weights]
        return doc
    return {"n": obj.universe_size, "sets": [list(s) for s in obj.sets]}


def system_from_json(doc: dict) -> WeightedSetSystem:
    """Inverse of system_to_json; uniform weights when the field is absent.
    A missing or ill-typed field raises ValueError naming it."""

    def read(name, convert):
        if not isinstance(doc, dict) or name not in doc:
            raise ValueError(f"set-system JSON has no field {name!r}")
        try:
            return convert(doc[name])
        except (TypeError, ValueError, AttributeError) as err:
            raise ValueError(f"set-system JSON field {name!r} is ill-typed: {err}") from None

    system = SetSystem(
        read("n", int), read("sets", lambda v: tuple(tuple(sorted(int(e) for e in s)) for s in v))
    )
    if "weights" in doc:
        weights = read("weights", lambda v: [parse_fraction(w) for w in v])
        return WeightedSetSystem.from_weights(system, weights)
    return WeightedSetSystem.uniform(system)
