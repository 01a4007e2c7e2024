"""Scaled line invariants, the light test, and its exact oracle.

The invariants of the grid lines are stored as omega-scaled integers so every
comparison is integer arithmetic:

* capacity lines (horizontal y = n, vertical x = n):
  ``C = [4*p*n] mod 2*omega`` normalized into (-omega, omega); even.
* slanting lines of negative slope through (0, j) (one of slope -P and one
  of slope -Q per integer j): ``M = [2*p*j + omega] mod 2*omega`` normalized
  into (-omega, omega]; odd.  M == +omega marks an inert line (mass omega,
  no sign).  The positive-slope mirror lines carry the same mass with the
  opposite sign.

A point z where an H/V line meets a negative-slope line is *light* when
|M| < |C| and M*C > 0, evaluated for some negative-slope line through z.
Intersections with the positive-slope families never witness lightness;
they only enter the sign bookkeeping of the vertical-compatibility check.

``f_value`` derives the scaled values from P and Q at an exact point, and
``classify_point`` classifies one exact point with it: the independent oracle
of the edge kernel ``tiling._edge_counts``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numtheory import EvenRational


def cap_scaled(r: EvenRational, n: int) -> int:
    """omega * F_cap of the H or V line at integer coordinate n; in (-omega, omega)."""
    om = r.omega
    v = (4 * r.p * n) % (2 * om)
    return v - 2 * om if v > om else v


def mass_scaled(r: EvenRational, j: int) -> int:
    """omega * F of the negative-slope lines through (0, j); in (-omega, omega]."""
    om = r.omega
    v = (2 * r.p * j + om) % (2 * om)
    return v - 2 * om if v > om else v


def is_light_value(C: int, M: int, omega: int) -> bool:
    """Eq.-style light test on scaled values (inert witnesses never light)."""
    return M != omega and abs(M) < abs(C) and M * C > 0


def f_value(family: str, r: EvenRational, point) -> int:
    """omega-scaled value of the family's adapted function at an exact point.

    The families are H, V and the slanting P-, P+, Q-, Q+.  The value must
    land on the (1/omega)-grid (it does at every point of a line of the
    family); otherwise a precision error is raised so the caller can
    pre-clear denominators.
    """
    x, y = Fraction(point[0]), Fraction(point[1])
    om = r.omega
    P, Q = r.big_p, r.big_q
    if family == "H":
        raw = 2 * P * y
    elif family == "V":
        raw = 2 * P * x
    elif family in ("P-", "P+"):
        raw = (-P if family == "P+" else P) * y + P * P * x + 1
    elif family in ("Q-", "Q+"):
        raw = (-P if family == "Q+" else P) * y + P * Q * x + 1
    else:
        raise ValueError(f"unknown family {family!r}")
    scaled = raw * om
    if scaled.denominator != 1:
        raise ValueError(f"F_{family}{point} = {raw} does not lie on the 1/omega grid")
    v = int(scaled) % (2 * om)
    v = v - 2 * om if v > om else v
    if family in ("H", "V"):
        return v  # even, in (-omega, omega)
    return v if v != -om else om  # odd, in (-omega, omega]; +omega marks inert


# ---------------------------------------------------------------------------
# Intersection points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntersectionPoint:
    x: Fraction
    y: Fraction
    shade: str  # 'light' | 'dark'
    point_type: str  # 'P' | 'Q' | 'both'
    double_counted: bool


def classify_point(r: EvenRational, x, y, axis: str | None = None) -> IntersectionPoint:
    """Classify the crossing of an H or V line with the slanting lines at (x, y).

    Every negative-slope line through the point is found exactly, and the
    point is light when ``f_value`` of the H or V line and of one of them
    pass ``is_light_value``, so triple points (block corners, horizontal
    midpoints) are classified once.  A light point at a half-integer x of a
    horizontal line is double counted.  ``axis`` ('H' or 'V') names the
    capacity line; by default it is H where y is an integer.  Raises if the
    point is not an intersection of an H/V line with a slanting line.
    """
    x, y = Fraction(x), Fraction(y)
    slants = [fam for fam, slope in (("P-", r.big_p), ("Q-", r.big_q))
              if (y + slope * x).denominator == 1]
    if not slants:
        raise ValueError(f"({x}, {y}) lies on no slanting grid line")
    on_h = y.denominator == 1 if axis is None else axis == "H"
    if on_h and y.denominator != 1:
        raise ValueError(f"({x}, {y}) is not on a horizontal grid line")
    if not on_h and x.denominator != 1:
        raise ValueError(f"({x}, {y}) is not on a vertical grid line")
    C = f_value("H" if on_h else "V", r, (x, y))
    light = any(is_light_value(C, f_value(fam, r, (x, y)), r.omega) for fam in slants)
    point_type = "both" if len(slants) == 2 else slants[0][0]
    return IntersectionPoint(x, y, "light" if light else "dark", point_type,
                             light and on_h and x.denominator == 2)


def vertical_partner_intercept(x0: int, j: int, primary: str) -> tuple[str, int]:
    """Partner positive-slope line at a vertical intersection point.

    The crossing of the V line x = x0 with P-(j) also lies on Q+(j - 2*x0);
    the crossing with Q-(j) also lies on P+(j - 2*x0).
    """
    if primary == "P-":
        return "Q+", j - 2 * x0
    if primary == "Q-":
        return "P+", j - 2 * x0
    raise ValueError("primary must be 'P-' or 'Q-'")


def vertical_lemma_check(r: EvenRational, x0: int, j: int, primary: str = "P-") -> bool:
    """Check sign-criterion consistency at one vertical intersection point.

    The point is the crossing of the V line x = x0 with the negative-slope
    line through (0, j).  Returns True when the light/dark classification via
    the scaled-value inequality agrees with the three-equal-signs criterion,
    and the adapted-function identity F(P-) + F(Q+) = F(V) holds.  For inert
    points the two-branch dichotomy is validated instead.
    """
    om = r.omega
    C = cap_scaled(r, x0)
    M = mass_scaled(r, j)
    _, partner_j = vertical_partner_intercept(x0, j, primary)
    Mp = mass_scaled(r, partner_j)
    # adapted-function identity: F(negative line) + F(partner) = F(V) mod 2
    if (M - Mp) % (2 * om) != C % (2 * om):
        return False
    if M == om or Mp == om:  # inert point: the dichotomy
        if x0 % om == 0:
            return M == om and Mp == om
        other = -Mp if Mp != om else M  # sign of the non-inert slanting line
        if M == om and Mp == om:
            return False
        return other * C < 0
    light_ineq = is_light_value(C, M, om)
    partner_sign = -((Mp > 0) - (Mp < 0))  # sign of the positive-slope partner line
    same_signs = C != 0 and (M > 0) == (C > 0) and (partner_sign > 0) == (C > 0)
    if light_ineq != same_signs:
        return False
    # the partner's own light test must agree as well
    light_via_partner = is_light_value(C, -Mp, om)
    return light_via_partner == light_ineq
