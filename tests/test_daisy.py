import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rldc.daisy import build_daisy_sequence, pick_heavy_level, pluck_simple_daisy
from rldc.exact import PowerBound, floor_power_bound
from rldc.global_decoder import default_extraction_scale
from rldc.harness import audit_daisy_levels
from rldc.set_system import (
    ContractError,
    DaisyCertificate,
    SetSystem,
    WeightedSetSystem,
    covered_elements,
    petal_degrees,
    verify_daisy,
)


def test_disjoint_pairs_sequence():
    system = SetSystem(4, ((0, 1), (2, 3)))
    levels = build_daisy_sequence(system, 2, Fraction(1, 2))
    assert levels[0].members == () and levels[0].kernel == frozenset()
    assert levels[1].members == (0, 1) and levels[1].kernel == frozenset()


def test_star_sequence_pulls_center_into_kernel():
    # deg(0) = 7 > (7/8) * sqrt(8): the hub lands in K_1, petals are singletons.
    system = SetSystem(8, tuple((0, j) for j in range(1, 8)))
    levels = build_daisy_sequence(system, 2, Fraction(7, 8))
    assert levels[0].kernel == frozenset({0})
    assert levels[0].members == tuple(range(7))
    assert levels[1].members == ()
    for idx in levels[0].members:
        assert len(set(system.sets[idx]) - levels[0].kernel) == 1


def test_single_level_singletons():
    system = SetSystem(5, tuple((j,) for j in range(5)))
    levels = build_daisy_sequence(system, 1, Fraction(1))
    assert len(levels) == 1
    assert levels[0].kernel == frozenset()
    assert levels[0].members == tuple(range(5))


def test_oversized_set_rejected():
    system = SetSystem(4, ((0, 1, 2),))
    with pytest.raises(ValueError):
        build_daisy_sequence(system, 2, Fraction(1))


def test_strict_threshold_boundary():
    # Threshold (1/2) * 4**(1/2) == 1 exactly: degree 1 stays out, degree 2 goes in.
    system = SetSystem(4, ((0, 1), (0, 2)))
    levels = build_daisy_sequence(system, 2, Fraction(1, 2))
    assert levels[0].kernel == frozenset({0})
    assert levels[0].members == (0, 1)


def test_pick_heavy_level_examples():
    # disjoint pairs, uniform weights: densities (0, 1) -> s = 2
    system = SetSystem(4, ((0, 1), (2, 3)))
    levels = build_daisy_sequence(system, 2, Fraction(1, 2))
    heavy = pick_heavy_level(levels, WeightedSetSystem.uniform(system))
    assert heavy.level == 2 and heavy.density == 1
    assert heavy.petal_bound == 2

    # densities (3/4, 1/4): smallest qualifying level wins -> s = 1
    system = SetSystem(8, ((0,), (1,), (2,), (3, 4)))
    levels = build_daisy_sequence(system, 2, Fraction(1, 2))
    assert levels[0].members == (0, 1, 2) and levels[1].members == (3,)
    heavy = pick_heavy_level(levels, WeightedSetSystem.uniform(system))
    assert heavy.level == 1 and heavy.density == Fraction(3, 4)

    # single level carries all weight
    system = SetSystem(3, ((0,), (1,)))
    levels = build_daisy_sequence(system, 1, Fraction(2, 3))
    heavy = pick_heavy_level(levels, WeightedSetSystem.uniform(system))
    assert heavy.level == 1 and heavy.density == 1


def test_pick_heavy_level_contract():
    system = SetSystem(4, ((0, 1), (2, 3)))
    levels = build_daisy_sequence(system, 2, Fraction(1, 2))
    other = WeightedSetSystem.uniform(SetSystem(4, ((0, 1),)))
    with pytest.raises(ContractError):
        pick_heavy_level(levels, other)


def test_heavy_daisy_certificate_verifies():
    system = SetSystem(8, tuple((0, j) for j in range(1, 8)))
    levels = build_daisy_sequence(system, 2, Fraction(7, 8))
    heavy = pick_heavy_level(levels, WeightedSetSystem.uniform(system))
    assert heavy.kernel == frozenset({0})
    assert isinstance(heavy.degree_bound, PowerBound)
    assert verify_daisy(system, heavy.certificate()).ok


def test_pluck_disjoint_unchanged():
    system = SetSystem(4, ((0, 1), (2, 3)))
    chosen = pluck_simple_daisy(system, (0, 1), frozenset(), 2, Fraction(1))
    assert chosen == (0, 1)


def test_pluck_star():
    system = SetSystem(8, tuple((0, j) for j in range(1, 8)))
    chosen = pluck_simple_daisy(system, tuple(range(7)), frozenset({0}), 1, Fraction(1))
    assert chosen == tuple(range(7))
    covered = len(covered_elements(system, tuple(range(7))))
    assert len(chosen) >= covered - 1


def test_pluck_overlapping_members():
    system = SetSystem(5, ((0, 1), (1, 2), (3, 4)))
    members = (0, 1, 2)
    chosen = pluck_simple_daisy(system, members, frozenset(), 2, Fraction(2))
    assert 2 in chosen
    assert sum(1 for idx in (0, 1) if idx in chosen) == 1

    # Brute-force oracle: every subset with pairwise-disjoint petals.
    def disjoint(subset):
        petals = [set(system.sets[i]) for i in subset]
        return all(a.isdisjoint(b) for a, b in itertools.combinations(petals, 2))

    packings = [
        sub
        for size in range(len(members), 0, -1)
        for sub in itertools.combinations(members, size)
        if disjoint(sub)
    ]
    best = max(len(p) for p in packings)
    assert disjoint(chosen)
    assert len(chosen) == best == 2
    # covered = 5, kernel empty, t = 2, s = 2: need >= (5 - 0) / 8
    assert len(chosen) * 2 * 2 * 2 >= 5


def test_pluck_rejects_invalid_daisy():
    system = SetSystem(3, ((0, 1), (0, 2)))
    with pytest.raises(ContractError):
        pluck_simple_daisy(system, (0, 1), frozenset(), 2, Fraction(1))


def test_pluck_skips_empty_petals():
    # A member hiding entirely inside the kernel contributes no petal and is
    # never selected, but disjointness still holds.
    system = SetSystem(4, ((0,), (0, 1), (0, 2)))
    chosen = pluck_simple_daisy(system, (0, 1, 2), frozenset({0}), 1, Fraction(1))
    assert chosen == (1, 2)


@pytest.mark.parametrize("n,ell", [(64, 2), (64, 3), (64, 4), (256, 3)])
def test_sequence_guarantees_random_systems(n, ell):
    rng = random.Random(hash((n, ell)) & 0xFFFF)
    for _ in range(40):
        sets = [tuple(sorted(rng.sample(range(n), ell))) for _ in range(n)]
        system = SetSystem(n, tuple(sets))
        levels = build_daisy_sequence(system, ell, Fraction(1))

        # partition
        seen = list(itertools.chain.from_iterable(lvl.members for lvl in levels))
        assert sorted(seen) == list(range(n))

        for lvl in levels:
            i = lvl.level_index
            # kernel bound, exact
            bound = PowerBound(Fraction(ell), n, Fraction(ell - i, ell))
            assert bound.cmp(len(lvl.kernel)) > 0
            # degree bound via the certificate of the level
            cert = DaisyCertificate(
                frozenset(lvl.members), lvl.kernel, i,
                levels[max(1, i - 1) - 1].threshold,
            )
            assert verify_daisy(system, cert).ok

        # heavy level + pluck output is a simple daisy inside the members
        weighted = WeightedSetSystem.from_masses(
            system, [rng.randint(1, 999) for _ in range(n)]
        )
        heavy = pick_heavy_level(levels, weighted)
        assert heavy.density >= Fraction(1, ell)
        chosen = pluck_simple_daisy(
            system, heavy.members, heavy.kernel, heavy.petal_bound, heavy.degree_bound
        )
        assert set(chosen) <= set(heavy.members)
        assert verify_daisy(
            system,
            DaisyCertificate(frozenset(chosen), heavy.kernel, heavy.petal_bound, Fraction(1)),
        ).ok


def test_ell_one_edge_config():
    rng = random.Random(1)
    n = 32
    sets = [(rng.randrange(n),) for _ in range(n)]
    system = SetSystem(n, tuple(sets))
    levels = build_daisy_sequence(system, 1, Fraction(1))
    heavy = pick_heavy_level(levels, WeightedSetSystem.uniform(system))
    assert heavy.level == 1
    chosen = pluck_simple_daisy(
        system, heavy.members, heavy.kernel, heavy.petal_bound, heavy.degree_bound
    )
    assert verify_daisy(
        system, DaisyCertificate(frozenset(chosen), heavy.kernel, 1, Fraction(1))
    ).ok


def per_set_levels(system, ell, c):
    """The level construction with one Counter.update per residual set, as
    build_daisy_sequence counted degrees before: (members, kernel, threshold)
    per level."""
    n, sets = system.universe_size, system.sets
    residual = list(range(len(sets)))
    out = []
    for i in range(1, ell + 1):
        if isinstance(c, PowerBound):
            threshold = c.scale_exponent(Fraction(i, ell))
        else:
            threshold = PowerBound(c, n, Fraction(i, ell))
        cap = floor_power_bound(threshold)
        degrees = Counter()
        for idx in residual:
            degrees.update(sets[idx])
        kernel = {e for e, d in degrees.items() if d > cap}
        members = [idx for idx in residual if sum(e not in kernel for e in sets[idx]) <= i]
        residual = [idx for idx in residual if idx not in members]
        out.append((tuple(members), frozenset(kernel), threshold))
    return out


def per_element_petal_degrees(system, members, kernel):
    """petal_degrees as one `counts[e] += 1` per outside element."""
    counts = Counter()
    for idx in members:
        for e in system.sets[idx]:
            if e not in kernel:
                counts[e] += 1
    return counts


@st.composite
def leveled_systems(draw):
    """A small system of sets of size <= ell and a scale c >= |T|/n: either
    the extraction default or |T|/n plus a nonnegative rational."""
    n = draw(st.integers(1, 12))
    ell = draw(st.integers(1, 4))
    element_sets = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(ell, n))
    sets = draw(st.lists(element_sets, min_size=1, max_size=24))
    system = SetSystem(n, tuple(tuple(sorted(s)) for s in sets))
    if draw(st.booleans()):
        c = default_extraction_scale(len(sets), n, ell)
    else:
        c = Fraction(len(sets), n) + draw(st.fractions(min_value=0, max_value=3, max_denominator=8))
    return system, ell, c


@settings(max_examples=300, deadline=None)
@given(leveled_systems())
def test_levels_match_per_set_counting(case):
    system, ell, c = case
    levels = build_daisy_sequence(system, ell, c)
    assert [(lvl.members, lvl.kernel, lvl.threshold) for lvl in levels] == per_set_levels(
        system, ell, c
    )
    assert audit_daisy_levels(system, ell, levels) == {
        "partition": [], "coresub": [], "external": []
    }
    # same counts in the same first-occurrence order, so the audit reports
    # external violations in the same order
    for lvl in levels:
        for kernel in (lvl.kernel, frozenset()):
            assert list(petal_degrees(system, lvl.members, kernel).items()) == list(
                per_element_petal_degrees(system, lvl.members, kernel).items()
            )
