import json
import random
from fractions import Fraction

import pytest

from rldc.set_system import (
    DaisyCertificate,
    SetSystem,
    WeightedSetSystem,
    covered_elements,
    petal_degrees,
    system_from_json,
    system_to_json,
    verify_daisy,
)


@pytest.fixture
def small():
    return SetSystem(3, ((0, 1), (1, 2)))


def test_covered_elements_examples(small):
    assert covered_elements(small, [0, 1]) == frozenset({0, 1, 2})
    assert covered_elements(small, [0]) == frozenset({0, 1})
    assert covered_elements(small, []) == frozenset()
    with pytest.raises(ValueError):
        covered_elements(small, [5])


def test_weight_complement_is_exact():
    rng = random.Random(11)
    for _ in range(50):
        count = rng.randint(1, 40)
        system = SetSystem(16, tuple((rng.randrange(16),) for _ in range(count)))
        w = WeightedSetSystem.from_masses(
            system, [rng.randint(1, 999) for _ in range(count)]
        )
        scope = [i for i in range(count) if rng.random() < 0.5]
        rest = [i for i in range(count) if i not in scope]
        assert sum(w.weights[i] for i in scope) + sum(w.weights[i] for i in rest) == 1


def test_handshake_identity():
    # Petal degrees with an empty kernel, summed over all elements, equal the
    # sum of set sizes over the members.
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(4, 16)
        sets = tuple(
            tuple(sorted(rng.sample(range(n), rng.randint(1, min(4, n)))))
            for _ in range(rng.randint(1, 20))
        )
        system = SetSystem(n, sets)
        scope = [i for i in range(len(sets)) if rng.random() < 0.6]
        total = sum(petal_degrees(system, scope, frozenset()).values())
        assert total == sum(len(system.sets[i]) for i in scope)


def test_weights_must_sum_to_one():
    system = SetSystem(2, ((0,), (1,)))
    with pytest.raises(ValueError):
        WeightedSetSystem.from_weights(system, [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ValueError):
        WeightedSetSystem.from_masses(system, [1, 0])


def test_multiset_semantics_allows_duplicates():
    system = SetSystem(2, ((0, 1), (0, 1), (0, 1)))
    assert petal_degrees(system, range(3), frozenset())[0] == 3
    w = WeightedSetSystem.uniform(system)
    assert w.weights[0] + w.weights[2] == Fraction(2, 3)


def test_set_validation():
    with pytest.raises(ValueError):
        SetSystem(2, ((),))  # empty set
    with pytest.raises(ValueError):
        SetSystem(2, ((0, 2),))  # out of range
    with pytest.raises(ValueError):
        SetSystem(2, ((1, 0),))  # unsorted
    with pytest.raises(ValueError):
        SetSystem(0, ())


def test_verify_daisy_examples():
    disjoint = SetSystem(4, ((0, 1), (2, 3)))
    report = verify_daisy(
        disjoint, DaisyCertificate(frozenset({0, 1}), frozenset(), 2, Fraction(1))
    )
    assert report.ok

    overlapping = SetSystem(3, ((0, 1), (0, 2)))
    report = verify_daisy(
        overlapping, DaisyCertificate(frozenset({0, 1}), frozenset(), 2, Fraction(1))
    )
    assert not report.ok
    assert report.degree_violations == ((0, 2),)

    report = verify_daisy(
        overlapping, DaisyCertificate(frozenset({0, 1}), frozenset({0}), 1, Fraction(1))
    )
    assert report.ok  # kernel absorbs the intersection


def test_verify_daisy_petal_bound():
    system = SetSystem(4, ((0, 1, 2), (3,)))
    report = verify_daisy(
        system, DaisyCertificate(frozenset({0, 1}), frozenset({0}), 1, Fraction(1))
    )
    assert report.petal_violations == ((0, 2),)
    assert report.degree_violations == ()


def test_verify_daisy_matches_brute_force():
    # Independent recomputation of every petal degree and petal size.
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(2, 16)
        sets = tuple(
            tuple(sorted(rng.sample(range(n), rng.randint(1, min(5, n)))))
            for _ in range(rng.randint(1, 12))
        )
        system = SetSystem(n, sets)
        members = frozenset(i for i in range(len(sets)) if rng.random() < 0.7)
        kernel = frozenset(u for u in range(n) if rng.random() < 0.25)
        s = rng.randint(0, 4)
        t = Fraction(rng.randint(0, 3))
        report = verify_daisy(system, DaisyCertificate(members, kernel, s, t))

        brute_degree = []
        for u in range(n):
            if u in kernel:
                continue
            d = sum(1 for i in members if u in set(system.sets[i]) - kernel)
            if d > t:
                brute_degree.append((u, d))
        brute_petal = []
        for i in sorted(members):
            size = len(set(system.sets[i]) - kernel)
            if size > s:
                brute_petal.append((i, size))
        assert list(report.degree_violations) == sorted(brute_degree)
        assert list(report.petal_violations) == brute_petal
        assert report.ok == (not brute_degree and not brute_petal)


def test_json_round_trip():
    system = SetSystem(5, ((0, 2), (1, 3, 4), (0,)))
    w = WeightedSetSystem.from_weights(
        system, [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]
    )
    doc = json.loads(json.dumps(system_to_json(w)))
    back = system_from_json(doc)
    assert back.system == system
    assert back.weights == w.weights

    bare = json.loads(json.dumps(system_to_json(system)))
    assert "weights" not in bare
    uniform = system_from_json(bare)
    assert uniform.weights == (Fraction(1, 3),) * 3


def test_json_rejects_duplicate_elements():
    with pytest.raises(ValueError):
        system_from_json({"n": 3, "sets": [[0, 0, 1]]})
