"""Exact arithmetic for threshold comparisons.

Degree thresholds and kernel-size bounds take the form c * n**(p/q) with
rational c, which is irrational whenever q does not divide p.  Comparing an
integer degree (or a rational weight) against such a bound with floats can
flip the outcome at boundary cases, so every comparison here is reduced to
arbitrary-precision integer arithmetic:

    v  >  (a/b) * n**(p/q)    <=>    (v*b)**q  >  a**q * n**p      (p >= 0)
                              <=>    (v*b)**q * n**(-p) > a**q     (p < 0)

which is valid because all quantities are nonnegative and x -> x**q is
monotone for q >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


def parse_fraction(text: str | int | Fraction) -> Fraction:
    """Parse "a/b" or "a" (or pass through ints/Fractions) into a Fraction.
    Malformed text, a zero denominator included, raises ValueError."""
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_fraction(value: Fraction) -> str:
    """Canonical "a/b" form, losslessly round-trippable by parse_fraction."""
    return f"{value.numerator}/{value.denominator}"


def integer_masses(weights: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """Exact weights as integer masses over their least common denominator.

    Returns (masses, common) with weights[j] == masses[j] / common, so a
    weight sum is the integer sum(masses) and a sign is a mass's sign.  Reads
    only .numerator and .denominator: ints and Fractions are not copied.
    """
    common = math.lcm(*{w.denominator for w in weights})
    return [w.numerator * (common // w.denominator) for w in weights], common


@dataclass(frozen=True)
class PowerBound:
    """The exact positive value ``coeff * base ** exponent``.

    `cmp` compares it exactly against ints and Fractions.  Used for daisy
    degree thresholds (c * n**(i/l)) and kernel-size bounds (l * n**(1 - i/l)).
    """

    coeff: Fraction
    base: int
    exponent: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.coeff, Fraction):
            object.__setattr__(self, "coeff", Fraction(self.coeff))
        if not isinstance(self.exponent, Fraction):
            object.__setattr__(self, "exponent", Fraction(self.exponent))
        if self.coeff <= 0:
            raise ValueError(f"coefficient must be positive, got {self.coeff}")
        if self.base < 1:
            raise ValueError(f"base must be >= 1, got {self.base}")

    def scale_exponent(self, delta: Fraction) -> "PowerBound":
        """The bound multiplied by base**delta."""
        return PowerBound(self.coeff, self.base, self.exponent + delta)

    def cmp(self, other: "int | Fraction") -> int:
        """Sign of (self - other): -1, 0, or +1. Exact."""
        value = Fraction(other)
        if value <= 0:
            return 1  # the bound is strictly positive
        return _cmp_power_vs_fraction(self.base, self.exponent, value / self.coeff)

    def __float__(self) -> float:
        return float(self.coeff) * self.base ** float(self.exponent)

    def to_json(self) -> dict:
        return {
            "coeff": format_fraction(self.coeff),
            "base": self.base,
            "exponent": format_fraction(self.exponent),
            "approx": float(self),
        }


def _cmp_power_vs_fraction(base: int, exponent: Fraction, value: Fraction) -> int:
    """Sign of (base**exponent - value) for positive value, via integer powers."""
    p, q = exponent.numerator, exponent.denominator
    u, v = value.numerator, value.denominator
    # base^(p/q) vs u/v  <=>  base^p * v^q  vs  u^q
    if p >= 0:
        lhs = pow(base, p) * pow(v, q)
        rhs = pow(u, q)
    else:
        lhs = pow(v, q)
        rhs = pow(u, q) * pow(base, -p)
    return (lhs > rhs) - (lhs < rhs)


def floor_power_bound(bound: PowerBound) -> int:
    """Exact floor of the bound's value, by binary search over integers.

    Lets hot loops replace "integer degree d > bound" with "d > floor(bound)"
    (equivalent for integer d whether or not the bound is itself an integer).
    """
    a, b = bound.coeff.numerator, bound.coeff.denominator
    p, q = bound.exponent.numerator, bound.exponent.denominator
    rhs = pow(a, q) * pow(bound.base, max(p, 0))
    scale = pow(b, q) * pow(bound.base, max(-p, 0))

    def fits(m: int) -> bool:  # m <= bound
        return pow(m, q) * scale <= rhs

    hi = 1
    while fits(hi):
        hi *= 2
    lo = hi // 2 if hi > 1 else 0
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo
