"""The three alignment predicates, the tile comparison, and bound audits.

The matching machinery compares the model at two parameters over a pair of
rectangles equivalent under a vertical translation by ``xi``.  The signs of
the scaled capacities and masses are compared directly; *special* indices
(slanting lines that are inert for the smaller parameter) carry no sign and
are handled by the harmlessness check instead.  ``tiles_equal`` is the one
comparison of the two tilings, and the ground truth the predicates predict.

``psi_xi_audit`` replays the proof inequalities for the even-predecessor
cases; the direct sign comparison stays the ground truth and is always
evaluated alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .grid import cap_scaled, is_light_value, mass_scaled
from .numtheory import (EvenRational, core_predecessor, even_predecessor,
                        kappa, pair_kind, tune)
from .tiling import build_tiling, h_edges_good


@dataclass(frozen=True)
class Rect:
    x0: int
    x1: int
    y0: int
    y1: int

    @property
    def width(self) -> int:
        return self.x1 - self.x0


def box_r(r: EvenRational) -> Rect:
    """[0, w] x [0, omega] with w = min(tau, omega - 2*tau)."""
    t = tune(r).tau
    return Rect(0, min(t, r.omega - 2 * t), 0, r.omega)


@dataclass(frozen=True)
class RectanglePair:
    """Rectangles sigma (parameter r) = sigma_prime (parameter r') + (0, xi)."""

    sigma_prime: Rect
    xi: int

    @property
    def sigma(self) -> Rect:
        sp = self.sigma_prime
        return Rect(sp.x0, sp.x1, sp.y0 + self.xi, sp.y1 + self.xi)


def _intercepts(rect: Rect) -> range:
    """Slanting intercepts feeding the rectangle: the slopes lie in (-2, 2),
    so the range reaches 2*width beyond it vertically."""
    w = rect.width
    return range(rect.y0 - 2 * w + 1, rect.y1 + 2 * w)


def special_indices(r_small: EvenRational, sigma_prime: Rect) -> list[int]:
    """Intercepts feeding sigma' that are inert for the small parameter
    (j = 0 mod omega'): they carry no sign, and the harmlessness check
    handles them instead."""
    return [j for j in _intercepts(sigma_prime) if j % r_small.omega == 0]


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def arithmetic_alignment(r_small: EvenRational, r_big: EvenRational,
                         pair: RectanglePair) -> bool:
    """Equal signs on both sides of the pair.

    The V lines of sigma' have the same capacity signs for both parameters,
    and every non-special intercept j feeding sigma' has the mass sign for
    r' that j + xi has for r.  The rectangle must keep clear of the vertical
    block boundaries of both parameters (the capacity-0 lines at multiples of
    omega), except for a left edge on the y-axis itself.
    """
    sp = pair.sigma_prime
    xs = range(max(sp.x0, 1), sp.x1 + 1)
    if any(x % r.omega == 0 for r in (r_small, r_big) for x in xs):
        raise ValueError("rectangle touches an interior block boundary")
    om = r_small.omega
    return (all(_sign(cap_scaled(r_small, x)) == _sign(cap_scaled(r_big, x))
                for x in xs)
            and all(_sign(mass_scaled(r_small, j))
                    == _sign(mass_scaled(r_big, j + pair.xi))
                    for j in _intercepts(sp) if j % om != 0))


# ---------------------------------------------------------------------------
# Geometric alignment
# ---------------------------------------------------------------------------

def _vertical_points(r: EvenRational, rect: Rect):
    """Vertical intersection points in the closed rectangle.

    Yields (x, intercept_j, family, y) with family the negative-slope line
    through the point; every vertical point lies on exactly one of each sign
    pair, so the two families cover all of them.
    """
    om = r.omega
    for x in range(max(rect.x0, 1), rect.x1 + 1):
        if x % om == 0:
            continue
        for fam, slope in (("P-", 2 * r.p), ("Q-", 2 * r.q)):
            # y = j - slope*x/om in [y0, y1]
            jlo = -((-(rect.y0 * om + slope * x)) // om)
            jhi = (rect.y1 * om + slope * x) // om
            for j in range(jlo, jhi + 1):
                yield x, j, fam, Fraction(j * om - slope * x, om)


def geometric_alignment(r_small: EvenRational, r_big: EvenRational,
                        pair: RectanglePair, norm_bound: Fraction) -> bool:
    """Corresponding vertical points land in the same unit vertical segment.

    Also verifies the slope-difference displacement bound ``norm_bound``
    (2*tau'/(omega*omega') for even pairs, 4*kappa*tau_hat/(omega*omega_hat)
    for core pairs).
    """
    om_s, om_b = r_small.omega, r_big.omega
    xi = pair.xi
    for x, j, fam, y_small in _vertical_points(r_small, pair.sigma_prime):
        slope = 2 * (r_big.p if fam == "P-" else r_big.q)
        y_big = Fraction((j + xi) * om_b - slope * x, om_b)
        shifted = y_small + xi
        if abs(y_big - shifted) > norm_bound:
            return False
        # same unit vertical segment: equal floors, neither at an endpoint
        if y_big.denominator == 1 or shifted.denominator == 1:
            return False
        if (y_big.numerator // y_big.denominator
                != shifted.numerator // shifted.denominator):
            return False
    return True


# ---------------------------------------------------------------------------
# Matching criterion
# ---------------------------------------------------------------------------

@dataclass
class MatchReport:
    pair: tuple[str, str]
    xi: int
    weak_horizontal: bool
    geometric: bool
    arithmetic: bool
    specials_harmless: bool
    tiles_equal: bool
    exceptions: list = field(default_factory=list)

    @property
    def predicates_hold(self) -> bool:
        return (self.weak_horizontal and self.geometric and self.arithmetic
                and self.specials_harmless)

    @property
    def consistent(self) -> bool:
        """The criterion is sound: predicates imply tile equality."""
        return self.tiles_equal or not self.predicates_hold


def tiles_equal(r_small: EvenRational, r_big: EvenRational,
                pair: RectanglePair) -> bool:
    """The tiles of r' over sigma' equal those of r over sigma, square for
    square: the ground truth that the predicates predict."""
    sp, s = pair.sigma_prime, pair.sigma
    small = build_tiling(r_small, sp.x0, sp.x1, sp.y0, sp.y1)
    big = build_tiling(r_big, s.x0, s.x1, s.y0, s.y1)
    return bool(np.array_equal(small.tiles, big.tiles))


def special_index_harmless(r_big: EvenRational, sigma: Rect, j_big: int) -> bool:
    """All points of S_j (big parameter) on the special intercept are dark."""
    om = r_big.omega
    for x in range(max(sigma.x0, 1), sigma.x1 + 1):
        if x % om == 0:
            continue
        C = cap_scaled(r_big, x)
        for slope in (2 * r_big.p, 2 * r_big.q):
            for j_eff, ysign in ((j_big, -1), (j_big, +1)):
                y = Fraction(j_eff * om + ysign * slope * x, om)
                if not (sigma.y0 <= y <= sigma.y1):
                    continue
                # shade of the point via its negative-slope line
                j_neg = j_eff if ysign < 0 else j_eff + 2 * x
                if is_light_value(C, mass_scaled(r_big, j_neg), om):
                    return False
    return True


def matching(r_small: EvenRational, r_big: EvenRational, pair: RectanglePair,
             h_lines: tuple[int, int] | None = None,
             norm_bound: Fraction | None = None) -> MatchReport:
    """Evaluate the three matching predicates and compare tiles directly.

    ``h_lines`` supplies the designated horizontal line pair (small-side y,
    big-side y) for weak horizontal alignment; the bottom edges of the
    rectangles are used when omitted.
    """
    sp, s = pair.sigma_prime, pair.sigma
    if h_lines is None:
        h_lines = (sp.y0, s.y0)
    if norm_bound is None:
        norm_bound = Fraction(2 * tune(r_small).tau, r_small.omega * r_big.omega)

    wha = np.array_equal(h_edges_good(r_small, h_lines[0], sp.x0, sp.x1),
                         h_edges_good(r_big, h_lines[1], s.x0, s.x1))
    geo = geometric_alignment(r_small, r_big, pair, norm_bound)
    arith = arithmetic_alignment(r_small, r_big, pair)
    harmless = all(special_index_harmless(r_big, s, j + pair.xi)
                   for j in special_indices(r_small, sp))
    equal = tiles_equal(r_small, r_big, pair)

    rep = MatchReport((str(r_small), str(r_big)), pair.xi, wha, geo, arith,
                      harmless, equal)
    if rep.predicates_hold and not equal:
        rep.exceptions.append("predicates hold but tiles differ")
    return rep


# ---------------------------------------------------------------------------
# Proof-inequality audits (even-predecessor cases)
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    pair: tuple[str, str]
    case: int
    checks: dict[str, bool] = field(default_factory=dict)
    exceptions: list = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(self.checks.values())


def classify_case(r_prev: EvenRational, r: EvenRational) -> int:
    """Case 1..4 of the even-predecessor bound analysis."""
    if even_predecessor(r) != r_prev or kappa(r).kappa != 0:
        raise ValueError(f"{r_prev} is not the even predecessor of {r} with kappa=0")
    narrow = box_r(r_prev).x1 == tune(r_prev).tau  # width branch: W' = tau'
    if pair_kind(r) == "weak":
        return 1 if narrow else 2
    return 3 if narrow else 4


def sigma_dimensions(r_prev: EvenRational, r: EvenRational) -> tuple[int, int]:
    """(W', H') of the comparison rectangle for an even-predecessor pair."""
    w, omp = box_r(r_prev).x1, r_prev.omega
    h = omp if pair_kind(r) == "strong" else omp - w
    return w, h


def psi_xi_audit(r_prev: EvenRational, r: EvenRational) -> BoundReport:
    """Verify the capacity and mass bound inequalities for an even pair.

    Capacity side: Psi(i) = 4i/omega must stay below l_i + 2*lambda.  Mass
    side: Xi(j) = 2|j|/omega below l_j + lambda, with the case-specific
    exceptional indices where the margin l_j is 1.  Ground-truth sign
    equality is asserted independently of the inequalities.
    """
    case = classify_case(r_prev, r)
    rep = BoundReport((str(r_prev), str(r)), case)
    om, omp = r.omega, r_prev.omega
    tp = tune(r_prev).tau
    lam = Fraction(omp, om)
    W, H = sigma_dimensions(r_prev, r)

    # capacities: Psi(i) = 4i/omega, l = 1 suffices throughout
    cap_ok = True
    psi_ok = True
    for i in range(1, W + 1):
        Ci, Cpi = cap_scaled(r, i), cap_scaled(r_prev, i)
        li = min(abs(Cpi), omp - abs(Cpi))
        if Fraction(4 * i, om) >= li + 2 * lam:
            psi_ok = False
            rep.exceptions.append(("capacity", i))
        if (Ci > 0) != (Cpi > 0):
            cap_ok = False
    rep.checks["capacity_signs"] = cap_ok
    rep.checks["psi_bound"] = psi_ok
    rep.checks["psi_global"] = Fraction(4 * W, om) < 1 + 2 * lam

    # masses over the extended index range
    sigma = Rect(0, W, 0, H)
    mass_ok = True
    xi_ok = True
    exceptional = []
    for j in _intercepts(sigma):
        Mj = mass_scaled(r, j)
        Mpj = mass_scaled(r_prev, j)
        if j % omp == 0:
            continue  # special: harmlessness handles it
        lj = min(abs(Mpj), omp - abs(Mpj))
        if Fraction(2 * abs(j), om) >= lj + lam:
            xi_ok = False
            exceptional.append(j)
        if (Mj > 0) != (Mpj > 0):
            mass_ok = False
    rep.checks["mass_signs"] = mass_ok
    if case in (1, 3):
        rep.checks["xi_bound_all"] = xi_ok
    else:
        # cases 2 and 4: margin-1 indices are confined to the stated set and
        # still satisfy the 1 + lambda inequality
        allowed = {-tp, tp, omp - tp, omp + tp}
        rep.checks["xi_exceptional_set"] = all(
            abs(mass_scaled(r_prev, j)) in (1, omp - 1) for j in exceptional)
        ones = [j for j in exceptional if abs(mass_scaled(r_prev, j)) == 1]
        rep.checks["xi_unit_indices"] = all(j in allowed for j in ones)
        rep.checks["xi_unit_bound"] = all(
            Fraction(2 * abs(j), om) < 1 + lam for j in ones)
        rep.checks["xi_global2"] = Fraction(2 * (H + 2 * W - 1), om) < 2
        if exceptional:
            rep.exceptions.append(("mass-exceptional", exceptional))

    # special indices harmless on the actual rectangles
    harmless = all(special_index_harmless(r, sigma, j)
                   for j in special_indices(r_prev, sigma))
    rep.checks["specials_harmless"] = harmless
    return rep


def core_mass_audit(r_hat: EvenRational, r: EvenRational) -> BoundReport:
    """Replay the core-pair bound machinery: slope gap, mass-step rule,
    central/peripheral sign agreement, and the low-capacity barrier fact."""
    k = kappa(r).kappa
    if k < 1 or core_predecessor(r) != r_hat:
        raise ValueError(f"{r_hat} is not the core predecessor of {r}")
    rep = BoundReport((str(r_hat), str(r)), 0)
    om, omh = r.omega, r_hat.omega
    xi = (om - omh) // 2
    th = tune(r_hat).tau

    # exact slope gap and the mass step across one small period
    rep.checks["slope_gap"] = (
        abs(r.big_p - r_hat.big_p) == Fraction(4 * k, om * omh))
    step = (2 * r.p * omh) % (2 * om)
    step = step - 2 * om if step > om else step
    rep.checks["gap_step"] = abs(step) == 4 * k  # [P*omega_hat] = +-4k/omega

    # capacity side: Psi(i) = 8k i / omega < 4 over the box width
    rep.checks["psi_capacity"] = Fraction(8 * k * th, om) < 4
    cap_ok = True
    for i in range(1, th + 1):
        if (cap_scaled(r, i) > 0) != (cap_scaled(r_hat, i) > 0):
            cap_ok = False
            rep.exceptions.append(("capacity", i))
    rep.checks["capacity_signs"] = cap_ok
    rep.checks["barrier_capacity"] = abs(cap_scaled(r, th)) == 4 * k + 2

    # mass side: central indices agree except at the two protected mass
    # levels; peripheral terms differ from central ones by the 4k step
    central_ok = True
    protected_ok = True
    for i in range(1, omh):
        mh = mass_scaled(r_hat, i)
        m = mass_scaled(r, i + xi)
        if abs(mh) in (1, omh - 2):
            if (m > 0) != (mh > 0):
                protected_ok = False
            continue
        if (m > 0) != (mh > 0):
            central_ok = False
            rep.exceptions.append(("central", i))
    rep.checks["central_signs"] = central_ok
    rep.checks["protected_signs"] = protected_ok
    peripheral_ok = True
    for i in range(1, omh):
        m_i = mass_scaled(r, i + xi)
        m_j = mass_scaled(r, i + xi + omh)
        if m_j == om or m_i == om:
            continue
        if abs(m_j - m_i) != 4 * k and abs(abs(m_j - m_i) - 2 * om) != 4 * k:
            peripheral_ok = False
            rep.exceptions.append(("peripheral", i))
    rep.checks["peripheral_step"] = peripheral_ok
    return rep
