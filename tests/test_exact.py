import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rldc.decoders import AdaptiveDecoder, ExplicitViews, LocalView
from rldc.exact import (
    PowerBound,
    floor_power_bound,
    format_fraction,
    integer_masses,
    parse_fraction,
)
from rldc.set_system import SetSystem, WeightedSetSystem


def test_fraction_round_trip():
    for f in (Fraction(1, 2), Fraction(7, 8), Fraction(3), Fraction(0, 5)):
        assert parse_fraction(format_fraction(f)) == f
    assert parse_fraction("2/4") == Fraction(1, 2)
    assert parse_fraction("5") == 5


def test_exact_boundary_equality():
    # (1/2) * 1024**(1/2) == 16 exactly
    b = PowerBound(Fraction(1, 2), 1024, Fraction(1, 2))
    assert b.cmp(16) == 0
    assert b.cmp(Fraction(16)) == 0
    assert not b.cmp(16) < 0  # strict >
    assert b.cmp(17) < 0


def test_irrational_threshold_ordering():
    # 8**(1/2) = 2.828...: 2 below, 3 above
    b = PowerBound(Fraction(1), 8, Fraction(1, 2))
    assert b.cmp(2) > 0
    assert b.cmp(3) < 0
    assert not b.cmp(2) < 0
    assert b.cmp(3) < 0


def test_negative_exponent():
    # 1026**(-1/3) ~ 0.0992: bigger than 64/1026, smaller than 1/2
    b = PowerBound(Fraction(1), 1026, Fraction(-1, 3))
    assert b.cmp(Fraction(64, 1026)) > 0
    assert b.cmp(Fraction(1, 2)) < 0
    assert b.cmp(0) > 0
    assert b.cmp(-5) > 0


def test_scale_exponent():
    c = PowerBound(Fraction(1), 1026, Fraction(-1, 3))
    t1 = c.scale_exponent(Fraction(1, 3))
    assert t1.cmp(1) == 0  # n**(-1/3) * n**(1/3) == 1


def test_validation():
    with pytest.raises(ValueError):
        PowerBound(Fraction(0), 4, Fraction(1, 2))
    with pytest.raises(ValueError):
        PowerBound(Fraction(1), 0, Fraction(1, 2))


def test_json_round_trip():
    b = PowerBound(Fraction(7, 8), 256, Fraction(2, 3))
    doc = b.to_json()
    assert PowerBound(parse_fraction(doc["coeff"]), doc["base"], parse_fraction(doc["exponent"])) == b


def test_cmp_against_decimal_oracle():
    # High-precision decimal arithmetic as an independent comparison path;
    # ambiguous near-ties are resolved by the constructed exact cases above.
    getcontext().prec = 60
    rng = random.Random(20240817)
    for _ in range(500):
        a = rng.randint(1, 50)
        b = rng.randint(1, 50)
        base = rng.randint(2, 2000)
        p = rng.randint(-6, 6)
        q = rng.randint(1, 6)
        v = Fraction(rng.randint(1, 5000), rng.randint(1, 50))
        bound = PowerBound(Fraction(a, b), base, Fraction(p, q))
        approx = (
            Decimal(a) / Decimal(b) * (Decimal(base) ** (Decimal(p) / Decimal(q)))
        )
        target = Decimal(v.numerator) / Decimal(v.denominator)
        if abs(approx - target) > Decimal("1e-40") * max(approx, target):
            expected = 1 if approx > target else -1
            assert bound.cmp(v) == expected, (bound, v)


def test_floor_power_bound():
    assert floor_power_bound(PowerBound(Fraction(1), 8, Fraction(1, 2))) == 2
    assert floor_power_bound(PowerBound(Fraction(1, 2), 1024, Fraction(1, 2))) == 16
    assert floor_power_bound(PowerBound(Fraction(7, 8), 8, Fraction(1, 2))) == 2
    assert floor_power_bound(PowerBound(Fraction(1), 1026, Fraction(-1, 3))) == 0
    assert floor_power_bound(PowerBound(Fraction(5), 7, Fraction(0))) == 5

    rng = random.Random(7)
    for _ in range(300):
        bound = PowerBound(
            Fraction(rng.randint(1, 40), rng.randint(1, 40)),
            rng.randint(2, 1500),
            Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
        )
        m = floor_power_bound(bound)
        # Defining property, checked through the exact comparator.
        assert bound.cmp(m) >= 0
        assert bound.cmp(m + 1) < 0


def fraction_sum_masses(weights):
    """What WeightedSetSystem.from_weights built before integer_masses:
    Fraction copies, their lcm, and masses over it."""
    fracs = [Fraction(w) for w in weights]
    common = math.lcm(*(f.denominator for f in fracs)) if fracs else 1
    return [f.numerator * (common // f.denominator) for f in fracs], common


weight = st.one_of(
    st.integers(-2, 3), st.fractions(min_value=-1, max_value=2, max_denominator=12)
)


@st.composite
def weight_lists(draw):
    """Ints and Fractions, zero and negatives included; half the lists are
    completed so that they sum to exactly 1 (the last weight may be <= 0)."""
    weights = draw(st.lists(weight, min_size=1, max_size=8))
    if draw(st.booleans()):
        weights[-1] = 1 - sum(weights[:-1])
    return weights


def rejection(build) -> str | None:
    try:
        build()
    except ValueError as err:
        return str(err)
    return None


@settings(max_examples=500, deadline=None)
@given(weight_lists())
def test_integer_masses_decide_like_fraction_sums(weights):
    total = sum(Fraction(w) for w in weights)
    masses, common = integer_masses(weights)
    assert (masses, common) == fraction_sum_masses(weights)
    assert Fraction(sum(masses), common) == total

    # the sum is checked before positivity, as with Fraction sums
    if total != 1:
        sum_error = "must sum to"
    elif any(w <= 0 for w in weights):
        sum_error = "must be positive"
    else:
        sum_error = None
    count = len(weights)
    views = [(w, LocalView((j,), (0, 1))) for j, w in enumerate(weights)]
    trees = (tuple((w, 0) for w in weights),)
    system = SetSystem(count, tuple((j,) for j in range(count)))
    for build in (
        lambda: ExplicitViews(views),
        lambda: AdaptiveDecoder(1, count, 1, trees),
        lambda: WeightedSetSystem.from_weights(system, weights),
    ):
        error = rejection(build)
        assert (error is None) == (sum_error is None)
        if error is not None:
            assert sum_error in error
    if total != 1:
        assert rejection(lambda: ExplicitViews(views)) == f"view weights must sum to 1, got {total}"
    if sum_error is None:
        weighted = WeightedSetSystem.from_weights(system, weights)
        assert (list(weighted.masses), weighted.total) == fraction_sum_masses(weights)
        assert weighted.weights == tuple(Fraction(w) for w in weights)
