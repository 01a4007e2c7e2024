"""Boxes, the box lemma, the three copy lemmas, and tree realizations.

The box R of a parameter spans the full height of the first block and is cut
off by whichever vertical line of capacity at most 4 is closest to the
y-axis, i.e. at width min(tau, omega - 2*tau).  Copying is verified two
ways: tile-exact rectangle comparisons (the lemma statements) and traced-arc
containment (the theorem statement), with the vertical-translation branch
(bottom-line or top-line match) observed rather than predicted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .alignment import (BoundReport, MatchReport, Rect, RectanglePair, box_r,
                        classify_case, matching, psi_xi_audit,
                        sigma_dimensions, tiles_equal)
from .grid import cap_scaled, mass_scaled
from .numtheory import (EvenRational, core_predecessor, even_predecessor,
                        kappa, pair_kind, predecessor, predecessor_chain, tune)
from .tiling import PlaidPolygon, big_polygon, build_tiling, v_edges_good


def box_width_by_scan(r: EvenRational) -> int:
    """Oracle for the box width: scan V lines for capacity <= 4."""
    for x in range(1, r.omega):
        if abs(cap_scaled(r, x)) <= 4:
            return x
    raise AssertionError(f"no low-capacity vertical line for {r}")


def capacity_two_lines(r: EvenRational) -> tuple[int, int]:
    """(bottom, top) horizontal capacity-2 lines of the first block."""
    t = tune(r).tau
    return t, r.omega - t


def sigma_weak_strong(r_prev: EvenRational, r: EvenRational) -> RectanglePair:
    """Comparison rectangles for an even-predecessor pair with kappa = 0."""
    if kappa(r).kappa != 0:
        raise ValueError(f"{r} has kappa >= 1; use sigma_core")
    if even_predecessor(r) != r_prev:
        raise ValueError(f"{r_prev} is not the even predecessor of {r}")
    # strong: the box of r_prev; weak: clipped below its top low-capacity
    # horizontal line
    w, h = sigma_dimensions(r_prev, r)
    return RectanglePair(Rect(0, w, 0, h), 0)


def sigma_core(r_hat: EvenRational, r: EvenRational) -> RectanglePair:
    """Comparison rectangles for a core pair, shifted by (omega - omega_hat)/2."""
    k = kappa(r).kappa
    if k == 0:
        raise ValueError(f"{r} has kappa = 0; use sigma_weak_strong")
    if core_predecessor(r) != r_hat:
        raise ValueError(f"{r_hat} is not the core predecessor of {r}")
    xi = (r.omega - r_hat.omega) // 2
    # the translation carries the low-mass anchor points onto each other, as
    # tau_hat = tau - kappa*omega' = tau - xi (see ``core_predecessor``); the
    # top anchors follow, as omega_hat - tau_hat + xi = omega - (tau_hat + xi)
    return RectanglePair(box_r(r_hat), xi)


def comparison_pair(r_small: EvenRational, r: EvenRational) -> RectanglePair:
    """The comparison rectangles of a predecessor pair: ``sigma_core`` when
    kappa >= 1, else ``sigma_weak_strong``."""
    if kappa(r).kappa >= 1:
        return sigma_core(r_small, r)
    return sigma_weak_strong(r_small, r)


def verify_copy(r: EvenRational) -> bool:
    """Tile-exact copy of the predecessor's comparison rectangle in r (p > 1)."""
    r_small = predecessor(r)
    return tiles_equal(r_small, r, comparison_pair(r_small, r))


def align(r_small: EvenRational, r: EvenRational
          ) -> tuple[str, MatchReport, BoundReport | None]:
    """(case, matching report, bound audit) of a predecessor pair.

    A core pair compares its capacity-2 anchor lines under the shift, within
    the displacement bound 4*kappa*tau_hat/(omega*omega_hat), and carries no
    audit; an even pair is case 1-4 of the bound analysis, audited by
    ``psi_xi_audit``.
    """
    pair = comparison_pair(r_small, r)
    k = kappa(r).kappa
    if k >= 1:
        th = tune(r_small).tau
        bound = Fraction(4 * k * th, r.omega * r_small.omega)
        rep = matching(r_small, r, pair, h_lines=(th, tune(r).tau),
                       norm_bound=bound)
        return "core", rep, None
    rep = matching(r_small, r, pair)
    return f"case-{classify_case(r_small, r)}", rep, psi_xi_audit(r_small, r)


# ---------------------------------------------------------------------------
# Box lemma
# ---------------------------------------------------------------------------

@dataclass
class BoxReport:
    r: EvenRational
    width: int
    crossings: int
    single_arc: bool
    barrier: dict | None = None

    @property
    def ok(self) -> bool:
        barrier_ok = self.barrier is None or (
            self.barrier["capacity_ok"] and self.barrier["uncrossed"])
        return self.crossings == 2 and self.single_arc and barrier_ok


def verify_box_lemma(r: EvenRational, gamma: PlaidPolygon | None = None) -> BoxReport:
    """The big polygon meets the box in one arc ending on the right edge."""
    if gamma is None:
        gamma = big_polygon(r)
    w = box_r(r).x1
    crossings = gamma.crossings_of_vertical(w)
    inside = [a < w for a, _ in gamma.squares]
    runs = sum(1 for i in range(len(inside))
               if inside[i] and not inside[i - 1])
    single_arc = (runs == 1) and any(inside)
    rep = BoxReport(r, w, crossings, single_arc)
    k = kappa(r).kappa
    if k >= 1 and r.p > 1:
        r_hat = core_predecessor(r)
        th = tune(r_hat).tau
        bh, tH = capacity_two_lines(r)
        # a crossing needs a good edge, so checking edge goodness covers
        # every plaid polygon at once
        uncrossed = not v_edges_good(r, th, bh, tH).any()
        rep.barrier = {
            "x": th,
            "capacity": abs(cap_scaled(r, th)),
            "capacity_ok": abs(cap_scaled(r, th)) == 4 * k + 2,
            "uncrossed": uncrossed,
        }
    return rep


# ---------------------------------------------------------------------------
# Mass window facts for core pairs
# ---------------------------------------------------------------------------

@dataclass
class Omni2Report:
    r: EvenRational
    statements: dict[str, bool] = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(self.statements.values())


def omni2_check(r: EvenRational) -> Omni2Report:
    """Mass facts on the central vertical window for a core pair."""
    k = kappa(r).kappa
    rep = Omni2Report(r)
    if k == 0:
        return rep  # vacuous
    r_hat = core_predecessor(r)
    om, omh = r.omega, r_hat.omega
    xi = (om - omh) // 2
    # statement 1: inside the window of height omega_hat centered at omega/2,
    # every point of mass below 4*kappa+2 has mass exactly 1
    lo, hi = (om - omh) // 2, (om + omh) // 2
    s1 = True
    for y in range(lo, hi + 1):
        m = abs(mass_scaled(r, y))
        if m < 4 * k + 2 and m != 1:
            s1 = False
    rep.statements["s1"] = s1
    # statement 2: the shift carries mass-1 points to mass-1 points with the
    # same sign.  statement 3 (the form the sign-change argument consumes):
    # at mass-(omega_hat - 2) intercepts the shifted sign agrees, and at the
    # shared intercept h = omega - 2*tau both parameters see their top mass
    # value omega - 2 with equal signs.
    s2 = s3 = True
    for y in range(0, omh + 1):
        mh = mass_scaled(r_hat, y)
        m = mass_scaled(r, y + xi)
        if abs(mh) == 1 and (abs(m) != 1 or (m > 0) != (mh > 0)):
            s2 = False
        if abs(mh) == omh - 2 and (m > 0) != (mh > 0):
            s3 = False
    h = om - 2 * tune(r).tau
    mh_h, m_h = mass_scaled(r_hat, h), mass_scaled(r, h)
    if abs(mh_h) != omh - 2 or abs(m_h) != om - 2 or (mh_h > 0) != (m_h > 0):
        s3 = False
    rep.statements["s2"] = s2
    rep.statements["s3"] = s3
    # byproduct: (0, tau) and (0, tau + omega_hat) carry the same sign
    t = tune(r).tau
    rep.statements["byproduct"] = (
        mass_scaled(r, t) * mass_scaled(r, t + omh) > 0)
    return rep


# ---------------------------------------------------------------------------
# Copy theorem
# ---------------------------------------------------------------------------

@dataclass
class CopyReport:
    pair: tuple[str, str]
    translation: int | None
    branch: str | None  # 'BH' (bottom line maps) or 'TH' (top line maps)
    below_midline: bool
    linematch: bool

    @property
    def ok(self) -> bool:
        return self.translation is not None and self.below_midline and self.linematch


def translation_candidates(r0: EvenRational, r1: EvenRational) -> dict[str, int]:
    """Vertical translations mapping a capacity-2 line of r0 onto BH of r1."""
    t0, t1 = tune(r0).tau, tune(r1).tau
    return {"BH": t1 - t0, "TH": t1 - (r0.omega - t0)}


def connecting_chain(r0: EvenRational, r1: EvenRational) -> list[EvenRational]:
    """The descent terms from r1 down to r0; errors if r0 is not an ancestor."""
    chain = predecessor_chain(r1).terms
    if r0 not in chain:
        raise ValueError(f"{r0} does not appear in the descent of {r1}")
    i = chain.index(r0)
    return list(chain[i:])


def verify_copy_theorem(r0: EvenRational, r1: EvenRational,
                        gamma0: PlaidPolygon | None = None,
                        gamma1: PlaidPolygon | None = None) -> CopyReport:
    """Find the vertical translation carrying the small arc into the big one.

    Containment is vertex-set containment of traced square centers restricted
    to the small parameter's box.  The branch (which capacity-2 line maps to
    the bottom one) is observed, never predicted; each candidate translation
    carries its capacity-2 line onto the bottom one of r1 by definition.
    """
    chain = connecting_chain(r0, r1)
    if gamma0 is None:
        gamma0 = big_polygon(r0)
    if gamma1 is None:
        gamma1 = big_polygon(r1)
    box0 = box_r(r0)
    arc0 = [(a, b) for a, b in gamma0.squares if a < box0.x1]
    centers1 = gamma1.center_set()
    rep = CopyReport((str(r0), str(r1)), None, None, False, False)
    # BH comes first among the candidates, so it is the pick when both work
    for branch, t in translation_candidates(r0, r1).items():
        if t >= 0 and all((a, b + t) in centers1 for a, b in arc0):
            rep.branch, rep.translation = branch, t
            rep.below_midline = 2 * (t + r0.omega) <= r1.omega
            rep.linematch = not _linematch_failure(chain)
            break
    return rep


def _linematch_failure(chain: list[EvenRational]) -> str:
    """The first inductive box/line containment the descent chain breaks.

    Chains between consecutive approximating terms start with a strong or
    core step; the tail consists of even-predecessor links, weak throughout
    for strong routes and weak after at most one strong link for core
    routes.  Checked: the links are of those kinds, the bottom capacity-2
    lines chain up to the final one, box widths never decrease, and the
    image of the first box stays in the lower half of every later block.
    A link of kind weak or strong descends by the even predecessor, so the
    tail links are even steps.  Returns "" when every containment holds;
    chains of other shapes (possible for ad-hoc pairs) are not constrained.
    """
    if len(chain) < 2:
        return ""
    kinds = [pair_kind(s) for s in chain[1:]]
    if kinds[0] not in ("strong", "core"):
        return ""  # not a canonical approximating-pair chain
    widths = [box_r(s).x1 for s in chain[1:]]
    if any(w0 > w1 for w0, w1 in zip(widths, widths[1:])):
        return "box widths decrease"
    bh = [capacity_two_lines(s)[0] for s in chain]
    th = [capacity_two_lines(s)[1] for s in chain]
    if kinds[0] == "strong":
        if any(k != "weak" for k in kinds[1:]):
            return "strong route: a tail link is not weak"
        if th[0] != bh[1]:
            return "strong route: the top line misses the bottom line"
        if any(b != bh[1] for b in bh[2:]):
            return "strong route: a weak link moves the bottom line"
        if any(2 * chain[0].omega > s.omega for s in chain[1:]):
            return "strong route: the first box leaves the lower half"
        return ""
    if any(k != "weak" for k in kinds[2:]) or (
            len(kinds) > 1 and kinds[1] not in ("strong", "weak")):
        return "core route: a tail link is of the wrong kind"
    xi = (chain[1].omega - chain[0].omega) // 2
    if tune(chain[0]).tau + xi != tune(chain[1]).tau:
        return "core route: the shift misses the anchor lines"
    if len(chain) > 2:
        joint = th[1] if kinds[1] == "strong" else bh[1]
        if joint != bh[2] or any(b != bh[2] for b in bh[3:]):
            return "core route: a link moves the bottom line"
    if any(2 * (xi + chain[0].omega) > s.omega for s in chain[2:]):
        return "core route: the shifted box leaves the lower half"
    return ""


# ---------------------------------------------------------------------------
# Column probes: cheap branch discrimination
# ---------------------------------------------------------------------------

# rows per kernel call: its int64 temporaries stay near 0.6 MB at any omega,
# and a column that differs early stops there
_COLUMN_ROWS = 1 << 13


def observed_branch(r0: EvenRational, r1: EvenRational) -> tuple[str, int]:
    """Which translation candidate copies the first column exactly.

    The copy theorem forces the tiles of the big parameter to reproduce the
    small parameter's first column inside the translated box, so matching the
    column tiles identifies the realized branch without tiling whole blocks.
    The columns come from the dense edge kernel, so omega >= 2**31 raises
    its OverflowError.
    """
    om0 = r0.omega
    # BH comes first among the candidates, so it is the pick when both work
    for branch, t in translation_candidates(r0, r1).items():
        if t < 0 or t + om0 > r1.omega:
            continue
        if all(np.array_equal(build_tiling(r0, 0, 1, y, y + n).tiles,
                              build_tiling(r1, 0, 1, t + y, t + y + n).tiles)
               for y in range(0, om0, _COLUMN_ROWS)
               for n in [min(_COLUMN_ROWS, om0 - y)]):
            return branch, t
    raise AssertionError(f"no translation copies the first column of {r0} into {r1}")


# ---------------------------------------------------------------------------
# Tree realizations
# ---------------------------------------------------------------------------

@dataclass
class TreeRealization:
    """The binary tree of a chain's boxes, realized by nested translates.

    The box of term k+1 holds two copies of the box of term k, at heights
    t_k and t_k + d_k above its own base.  Every box of one level holds its
    children at these same offsets, so the tree is checked once per level.
    """
    terms: list[EvenRational]
    depth: int
    translations: list[int]  # d_k between sibling subtrees, one per level
    branches: list[str]
    etas: list[int]

    @property
    def vertices(self) -> int:
        return 2 ** self.depth - 1


def eta(r: EvenRational) -> int:
    """Distance between the two capacity-2 horizontal lines."""
    return r.omega - 2 * tune(r).tau


def chain_translations(terms: list[EvenRational]) -> list[tuple[str, int, int]]:
    """(branch, t, d) for each pair of consecutive approximating terms.

    t is the observed translation of the first column (`observed_branch`)
    and d = omega_1 - omega_0 - 2t the translation length between the two
    sibling copies, checked to be a positive eta_k -+ eta_(k-1).
    """
    steps = []
    for r0, r1 in zip(terms, terms[1:]):
        branch, t = observed_branch(r0, r1)
        d = r1.omega - r0.omega - 2 * t
        etas_pair = {eta(r1) - eta(r0), eta(r1) + eta(r0)}
        if d not in etas_pair or d <= 0:
            raise AssertionError(
                f"translation length {d} is not a positive eta_k -+ eta_(k-1) {etas_pair}")
        steps.append((branch, t, d))
    return steps


def realize_tree(terms: list[EvenRational], depth: int) -> TreeRealization:
    """Nest translated boxes realizing the binary tree of the chain.

    ``terms`` are consecutive approximating terms (smallest first).  Per
    level: the child box is narrower than its parent by at least one, and
    the siblings are disjoint.  ``observed_branch`` returns t_k >= 0, and
    the upper copy ends at omega_(k+1) - t_k as d_k = omega_(k+1) - omega_k
    - 2 t_k, so both copies lie in the parent with slack 2 t_k + d_k > 0.
    The curves are traced: each child's arc lies in its parent's at offset
    t_k, and the first term's arc crosses (1/2, tau_0).  Offset t_k + d_k
    follows: ``big_polygon`` asserts each curve symmetric under
    b -> omega - 1 - b with its own omega, and the two maps carry the copy
    at t_k onto omega_(k+1) - omega_k - t_k = t_k + d_k.
    """
    if depth < 1 or len(terms) < depth:
        raise ValueError(f"need at least depth={depth} chain terms, have {len(terms)}")
    terms = list(terms[:depth])
    steps = chain_translations(terms)
    arcs = [frozenset((a, b) for a, b in big_polygon(s).squares
                      if a < box_r(s).x1) for s in terms]
    for k, (_, t, d) in enumerate(steps):
        small, big = terms[k], terms[k + 1]
        if box_r(small).x1 >= box_r(big).x1:
            raise AssertionError(f"the box of {small} lacks unit slack in {big}")
        if d <= small.omega:
            raise AssertionError(f"the sibling copies of {small} in {big} overlap")
        if not all((a, b + t) in arcs[k + 1] for a, b in arcs[k]):
            raise AssertionError(f"the arc of {small} leaves the arc of {big}")
    tau = tune(terms[0]).tau
    if not {(0, tau - 1), (0, tau)} <= arcs[0]:
        raise AssertionError(f"the arc of {terms[0]} misses (1/2, {tau})")
    return TreeRealization(terms, depth, [d for _, _, d in steps],
                           [branch for branch, _, _ in steps],
                           [eta(s) for s in terms])
