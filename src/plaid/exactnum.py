"""Exact number types used throughout the package.

Everything downstream (grid values, classifying-map coordinates, Diophantine
bounds) must be computed without floating point.  Rational values use
``fractions.Fraction``.  Quadratic irrationals (a + b*sqrt(d))/c are
represented exactly by :class:`QuadRat`; continued-fraction targets carry a
certified bracketing interval instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, sqrt


class PrecisionError(ValueError):
    """A comparison fell inside the uncertified part of a CF prefix."""


def _is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def _sign_a_plus_b_sqrt_d(a: int, b: int, d: int) -> int:
    """Sign of a + b*sqrt(d), exactly (d >= 0)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: compare a^2 with b^2 d
    lhs, rhs = a * a, b * b * d
    if lhs == rhs:
        return 0
    bigger_abs_is_a = lhs > rhs
    return (1 if a > 0 else -1) if bigger_abs_is_a else (1 if b > 0 else -1)


class QuadRat:
    """An element (a + b*sqrt(d)) / c of a real quadratic field, exact.

    d is a fixed positive non-square per instance; values with b == 0 are
    plain rationals and interoperate with int/Fraction regardless of d.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int = 1, d: int = 0):
        if c == 0:
            raise ZeroDivisionError("quadratic number with zero denominator")
        if b != 0:
            if d <= 0:
                raise ValueError("sqrt argument must be positive")
            if _is_square(d):
                # fold the rational square root into the rational part
                a, b = a + b * isqrt(d), 0
                d = 0
        if b == 0:
            d = 0
        if c < 0:
            a, b, c = -a, -b, -c
        g = gcd(gcd(abs(a), abs(b)), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        self.a, self.b, self.c, self.d = a, b, c, d

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_rational(cls, x) -> "QuadRat":
        fr = Fraction(x)
        return cls(fr.numerator, 0, fr.denominator)

    def _coerce(self, other) -> "QuadRat | None":
        if isinstance(other, QuadRat):
            if self.d and other.d and self.d != other.d:
                return None
            return other
        if isinstance(other, (int, Fraction)):
            return QuadRat.from_rational(other)
        return None

    # -- predicates -----------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.d or o.d
        return QuadRat(self.a * o.c + o.a * self.c, self.b * o.c + o.b * self.c,
                       self.c * o.c, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadRat(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.d or o.d
        a = self.a * o.a + self.b * o.b * d
        b = self.a * o.b + self.b * o.a
        return QuadRat(a, b, self.c * o.c, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.d or o.d
        # 1/((a+b sqrt d)/c) = c(a - b sqrt d)/(a^2 - b^2 d)
        norm = o.a * o.a - o.b * o.b * d
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic number")
        inv = QuadRat(o.c * o.a, -o.c * o.b, norm, d)
        return self * inv

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- comparisons ----------------------------------------------------------

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare {self!r} with {other!r}")
        d = self.d or o.d
        a = self.a * o.c - o.a * self.c
        b = self.b * o.c - o.b * self.c
        return _sign_a_plus_b_sqrt_d(a, b, d)

    def __eq__(self, other):
        try:
            return self._cmp(other) == 0
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        if self.is_rational:
            return hash(Fraction(self.a, self.c))
        return hash((self.a, self.b, self.c, self.d))

    def __abs__(self):
        return -self if self < 0 else self

    # -- floor (exact) ----------------------------------------------------------

    def __floor__(self) -> int:
        a, b, c, d = self.a, self.b, self.c, self.d
        if b == 0:
            return a // c
        if b > 0:
            seed = (a + isqrt(b * b * d)) // c
        else:
            seed = (a - isqrt(b * b * d) - 1) // c
        n = seed
        while self._cmp(n) < 0:
            n -= 1
        while self._cmp(n + 1) >= 0:
            n += 1
        return n

    def __float__(self) -> float:
        return (self.a + self.b * sqrt(self.d)) / self.c if self.b else self.a / self.c

    def __repr__(self):
        if self.b == 0:
            return f"{Fraction(self.a, self.c)}"
        return f"({self.a}{self.b:+}*sqrt({self.d}))/{self.c}"


def floor_exact(x) -> int:
    if isinstance(x, int):
        return x
    if isinstance(x, QuadRat):
        return x.__floor__()
    fr = Fraction(x)
    return fr.numerator // fr.denominator


def mod_interval(x, period, lo):
    """Reduce x into [lo, lo + period) by subtracting multiples of period."""
    k = floor_exact((x - lo) / Fraction(period))
    return x - k * period


_QUAD_RE = re.compile(r"^quad:\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(\d+)\s*\)$")
_CF_RE = re.compile(r"^cf:\[\s*(\d+)\s*(?:;\s*([\d\s,]+))?\]$")


def parse_irrational(spec: str):
    """Parse 'quad:(a,b,c,d)' or 'cf:[a0;a1,a2,...]' target specs."""
    m = _QUAD_RE.match(spec.strip())
    if m:
        a, b, c, d = map(int, m.groups())
        return QuadraticTarget(QuadRat(a, b, c, d))
    m = _CF_RE.match(spec.strip())
    if m:
        a0 = int(m.group(1))
        rest = [int(t) for t in m.group(2).replace(",", " ").split()] if m.group(2) else []
        return CFTarget([a0] + rest)
    raise ValueError(f"cannot parse irrational spec: {spec!r}")


@dataclass
class QuadraticTarget:
    """An exactly represented quadratic irrational A in (0, 1)."""

    value: QuadRat

    def __post_init__(self):
        if self.value.is_rational:
            raise ValueError("target must be irrational; use a rational parameter instead")
        if not (0 < self.value < 1):
            raise ValueError("target must lie in (0, 1)")

    def cmp_fraction(self, fr: Fraction) -> int:
        return self.value._cmp(fr)

    def big_p(self) -> QuadRat:
        """P = 2A/(1+A), exact in the same field."""
        return (self.value * 2) / (self.value + 1)

    def abs_diff(self, fr: Fraction) -> QuadRat:
        return abs(self.value - fr)


class CFTarget:
    """A target known only through a continued-fraction prefix.

    Comparisons are certified when the queried rational lies outside the open
    bracketing interval of the last two convergents; otherwise
    :class:`PrecisionError` is raised.
    """

    def __init__(self, coeffs: list[int]):
        if len(coeffs) < 2 or coeffs[0] != 0:
            raise ValueError("target in (0,1) needs cf:[0;a1,a2,...]")
        if any(a <= 0 for a in coeffs[1:]):
            raise ValueError("partial quotients must be positive")
        h0, h1 = 1, coeffs[0]
        k0, k1 = 0, 1
        for a in coeffs[1:]:
            h0, h1 = h1, a * h1 + h0
            k0, k1 = k1, a * k1 + k0
        self.lo, self.hi = sorted((Fraction(h0, k0), Fraction(h1, k1)))

    def cmp_fraction(self, fr: Fraction) -> int:
        # the target lies strictly between the last two convergents
        if fr <= self.lo:
            return 1
        if fr >= self.hi:
            return -1
        raise PrecisionError(
            f"comparison of {fr} falls inside the certified bracket "
            f"({self.lo}, {self.hi}); supply more continued-fraction terms")
