"""Weighted set systems over a universe [n], petal degrees, and daisy verification.

A *daisy* is passed as its parts (members, kernel K, petal_bound s,
degree_cap t): every petal (set minus K) has at most s elements and every
element outside K lies in at most t petals; t = 1 is a "simple daisy".  The
cap t is an integer, as degrees are: "degree > c * n**(i/l)" is exactly
"degree > floor(c * n**(i/l))".  These systems model the query distributions
of non-adaptive local decoders: a decoder index's view list
(decoders.ExplicitViews) is a WeightedSetSystem with a truth table per set.
SetSystem checks the sets and WeightedSetSystem the weights, once, when a
system is made; system_from_json makes one.  So:

- set identity is positional (index into the stored list) and duplicates are
  allowed with multiplicity, giving multiset semantics;
- a set may be empty (a view that queries nothing), but not in the input
  that system_from_json reads;
- weights are exact rationals kept internally as integer masses over their
  least common denominator (exact.integer_masses), so weight sums, the
  sum-to-1 and positivity checks and the 1/l pigeonhole bound are integer
  arithmetic and never suffer from rounding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from operator import itemgetter, lt
from typing import Iterable, Sequence

from .exact import integer_masses, parse_fraction


class ContractError(RuntimeError):
    """A violated precondition that callers promised to uphold."""


def rows_increasing(rows: Sequence[tuple[int, ...]]) -> bool:
    """Whether every row is strictly increasing, checked a column at a time
    over the rows of each length."""
    groups = (rows,)
    if len(set(map(len, rows))) > 1:
        groups = (tuple(group) for _, group in groupby(sorted(rows, key=len), len))
    for group in groups:
        columns = tuple(zip(*group))
        if not all(all(map(lt, a, b)) for a, b in zip(columns, columns[1:])):
            return False
    return True


@dataclass(frozen=True, slots=True)
class SetSystem:
    """An ordered collection of subsets of [0, universe_size), each a strictly
    increasing tuple; a set may be empty (a view that queries nothing)."""

    universe_size: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n, sets = self.universe_size, self.sets
        if n < 1:
            raise ValueError(f"universe size must be positive, got {n}")
        queried = sets if all(sets) else tuple(filter(None, sets))
        if not queried or (
            rows_increasing(queried)
            and min(map(itemgetter(0), queried)) >= 0 and max(map(itemgetter(-1), queried)) < n
        ):
            return
        for idx, members in enumerate(sets):  # name the first bad set
            for a, b in zip(members, members[1:]):
                if a >= b:
                    detail = f"repeats element {a}" if a == b else f"is not strictly sorted: {members}"
                    raise ValueError(f"set {idx} {detail}")
            if members and (members[0] < 0 or members[-1] >= n):
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
class WeightedSetSystem(SetSystem):
    """A SetSystem plus one positive rational weight per set, summing to 1.

    Weights are stored as integer masses with a shared total (masses[j] /
    total is set j's weight), so weight sums reduce to integer sums.
    """

    __slots__ = ("masses", "total")
    masses: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.masses) != len(self.sets):
            raise ValueError("one weight per set required")
        if sum(self.masses) != self.total:
            raise ValueError("weights must sum to exactly 1")
        if self.masses and min(self.masses) <= 0:
            raise ValueError("weights must be positive")

    @classmethod
    def from_weights(
        cls, universe_size: int, sets: tuple[tuple[int, ...], ...], weights: Sequence[Fraction]
    ) -> "WeightedSetSystem":
        masses, common = integer_masses([Fraction(w) for w in weights])
        return cls(universe_size, sets, tuple(masses), common)

    @classmethod
    def uniform(cls, universe_size: int, sets: tuple[tuple[int, ...], ...]) -> "WeightedSetSystem":
        if not sets:
            raise ValueError("cannot weight an empty collection")
        return cls(universe_size, sets, (1,) * len(sets), len(sets))


@dataclass(frozen=True)
class DaisyReport:
    """Outcome of verify_daisy: empty iff the parts form a valid daisy."""

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


def verify_daisy(
    system: SetSystem, members: Iterable[int], kernel: frozenset[int], petal_bound: int,
    degree_cap: int,
) -> DaisyReport:
    """Check a claimed daisy, reporting every violating element and member.

    The report lists each element outside the kernel whose petal degree
    exceeds degree_cap, and each member whose petal exceeds petal_bound.
    A simple daisy is the degree_cap = 1 case.
    """
    members = system.check_scope(members)
    for e in kernel:
        if e < 0 or e >= system.universe_size:
            raise ValueError(f"kernel element {e} outside universe")

    counts = petal_degrees(system, members, kernel)
    degree_bad = tuple(sorted((e, d) for e, d in counts.items() if d > degree_cap))

    petal_bad = []
    for idx in members:
        size = sum(1 for e in system.sets[idx] if e not in kernel)
        if size > petal_bound:
            petal_bad.append((idx, size))
    return DaisyReport(degree_bad, tuple(petal_bad))


def _expect(value, kind: type):
    if type(value) is not kind:  # exactly: JSON true loads as a bool, a subclass of int
        raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
    return value


def system_from_json(doc: dict) -> WeightedSetSystem:
    """Read {"n":..., "sets":[[...]...], "weights":["a/b",...]}, with uniform
    weights when the field is absent.  n and elements must be JSON integers
    (no bools), sets lists of lists and weights a list of integers or "a/b"
    strings; ValueError names a bad field."""

    def read(name, convert):
        if not isinstance(doc, dict) or name not in doc:
            raise ValueError(f"set-system JSON has no field {name!r}")
        try:
            return convert(doc[name])
        except (TypeError, ValueError, OverflowError) as err:
            raise ValueError(f"set-system JSON field {name!r} is ill-typed: {err}") from None

    n = read("n", lambda v: _expect(v, int))
    sets = read("sets", lambda v: tuple(
        tuple(sorted(_expect(e, int) for e in _expect(s, list))) for s in _expect(v, list)
    ))
    if "weights" in doc:
        weights = read("weights", lambda v: [
            parse_fraction(w if type(w) is str else _expect(w, int), "a weight") for w in _expect(v, list)
        ])
        system = WeightedSetSystem.from_weights(n, sets, weights)
    else:
        system = WeightedSetSystem.uniform(n, sets)
    if () in sets:  # a view list may hold an empty row, an input system may not
        raise ValueError(f"set {sets.index(())} is empty")
    return system
