"""Directed-rounding interval arithmetic for certifying divisor bounds.

Every operation computes with double precision and then widens each endpoint
by one ulp outward, which makes the enclosure sound under IEEE-754 correctly
rounded +, -, *, / and sqrt.  This is deliberately minimal: enough to certify
a finite inequality at a given mass, not a general interval library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_INF = math.inf


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    def __add__(self, other: "Interval") -> "Interval":
        other = _coerce(other)
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other: "Interval") -> "Interval":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "Interval":
        other = _coerce(other)
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Interval(_down(min(products)), _up(max(products)))

    __rmul__ = __mul__

    def sqrt(self) -> "Interval":
        if self.lo < 0:
            raise ValueError("sqrt of an interval reaching below zero")
        return Interval(_down(math.sqrt(self.lo)), _up(math.sqrt(self.hi)))

    def abs_upper(self) -> float:
        return max(abs(self.lo), abs(self.hi))

    def __contains__(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.point(float(x))


def interval_frequency(s: int, m: float) -> Interval:
    """Certified enclosure of sqrt(s^2 + m); s^2 is exact in double precision."""
    return (Interval.point(float(s * s)) + Interval.point(m)).sqrt()
