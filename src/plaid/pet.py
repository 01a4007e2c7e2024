"""The classifying space, curve-following dynamics, and limit experiments.

Points of the classifying space carry coordinates (P, T, U1, U2) with T in
[-2, 2) and U1, U2 in [-1, 1), reduced modulo the lattice generated by
(0, 4, 2P, 2P), (0, 0, 2, 0) and (0, 0, 0, 2).  All coordinates are exact:
Fractions for rational parameters, quadratic field elements otherwise.

For rational parameters the region labels of the (out-of-scope) exact
partition are recovered from the plaid tiles themselves; orbits follow the
directed connectors of the scalar oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .copying import chain_translations
from .exactnum import QuadraticTarget, floor_exact, mod_interval
from .numtheory import EvenRational, approximating_sequence, tune
from .tiling import EDGE_NAMES, TILE_NAMES, build_tiling, scalar_oracle, walk


@dataclass(frozen=True)
class PetPoint:
    P: object  # Fraction or QuadRat
    T: object
    U1: object
    U2: object

    def coords(self):
        return (self.T, self.U1, self.U2)


def reduce_point(P, T, U1, U2) -> PetPoint:
    """Reduce into the fundamental domain [-2,2) x [-1,1)^2."""
    k = floor_exact((T + 2) / Fraction(4))
    T = T - 4 * k
    U1 = U1 - 2 * P * k
    U2 = U2 - 2 * P * k
    U1 = mod_interval(U1, 2, -1)
    U2 = mod_interval(U2, 2, -1)
    return PetPoint(P, T, U1, U2)


def classify(P, x, y) -> PetPoint:
    """The classifying map (P, 2Px + 2y, 2Px, 2Px + 2Py) mod the lattice."""
    return reduce_point(P, *classify_raw(P, x, y))


def classify_raw(P, x, y):
    """Unreduced classifying coordinates (T, U1, U2)."""
    two_px = 2 * P * x
    return (two_px + 2 * y, two_px, two_px + 2 * P * y)


def follow(direction: str, pt: PetPoint) -> PetPoint:
    """The curve-following translations, one per exit direction.

    Conjugate to the unit shifts of the plane through the classifying map:
    following an S-exit lands on the image of the square one step south, etc.
    The empty-tile map is the identity.
    """
    P, T, U1, U2 = pt.P, pt.T, pt.U1, pt.U2
    if direction == "S":
        return reduce_point(P, T - 2, U1, U2 - 2 * P)
    if direction == "N":
        return reduce_point(P, T + 2, U1, U2 + 2 * P)
    if direction == "E":
        return reduce_point(P, T + 2 * P, U1 + 2 * P, U2 + 2 * P)
    if direction == "W":
        return reduce_point(P, T - 2 * P, U1 - 2 * P, U2 - 2 * P)
    if direction == "empty":
        return pt
    raise ValueError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# Orbits at rational parameters
# ---------------------------------------------------------------------------

@dataclass
class OrbitResult:
    start: tuple[int, int]
    steps: list[dict]
    closed: bool
    period: int | None
    truncated: bool = False
    reason: str | None = None

    def squares(self) -> list[tuple[int, int]]:
        return [self.start] + [s["square"] for s in self.steps]


def _reduce_scaled(om: int, p: int, T: int, U1: int, U2: int):
    """`reduce_point` on the integers om * (T, U1, U2) at P = 2p/om."""
    k = (T + 2 * om) // (4 * om)
    shift = 4 * p * k
    return (T - 4 * om * k, (U1 - shift + om) % (2 * om) - om,
            (U2 - shift + om) % (2 * om) - om)


def _center_scaled(om: int, p: int, a: int, b: int):
    """om * classify(P, a + 1/2, b + 1/2) at P = 2p/om."""
    u1 = 2 * p * (2 * a + 1)
    return _reduce_scaled(om, p, u1 + (2 * b + 1) * om, u1,
                          u1 + 2 * p * (2 * b + 1))


def orbit(r: EvenRational, c0: tuple[int, int],
          max_steps: int | None = None) -> OrbitResult:
    """Follow the directed connectors from the square c0.

    The connectors come from ``scalar_oracle(r)``, built once per orbit, so
    orbits stay independent of the dense tiles.  Only the rational,
    zero-offset case has decidable region labels (the plaid tiles
    themselves), and it is the only one followed here.  The classifying map
    conjugates each unit step to `follow` of its direction on every point,
    whatever the tiles, so the walk holds no classifying state.  At most
    ``max_steps`` steps are taken (default 4 omega**2); a value below 1
    raises ``ValueError``.
    """
    if max_steps is not None and max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    bits_at = scalar_oracle(r)
    bits = bits_at(*c0)
    if bits == 0:
        # empty tile: the identity map fixes the point
        return OrbitResult(c0, [], True, 0)
    if max_steps is None:
        max_steps = 4 * r.omega ** 2
    steps = []
    connectors = walk(bits_at, c0, bits & -bits)
    for _, (edge, square) in zip(range(max_steps), connectors):
        steps.append({"dir": EDGE_NAMES[edge], "square": square})
        if square == c0:
            return OrbitResult(c0, steps, True, len(steps))
    return OrbitResult(c0, steps, False, None, truncated=True,
                       reason="max_steps reached")


# ---------------------------------------------------------------------------
# Fiber reconstruction at rational parameters
# ---------------------------------------------------------------------------

@dataclass
class FiberGridReport:
    parameter: EvenRational
    t_value: object
    points: dict  # (U1, U2) -> label
    u1_cells: list  # 4 circular coordinate arcs [first, last] when grid_ok
    u2_cells: list
    grid_ok: bool
    labels: list  # 4x4 label matrix (row = U2 cell, col = U1 cell)
    reason: str | None = None


def _forced_cuts(coords, points, axis):
    """Gaps (i, i+1 mod n) where adjacent coordinate lines must be separated."""
    n = len(coords)
    cuts = set()
    by_axis: dict = {}
    for (u, v), label in points.items():
        c, o = (u, v) if axis == 0 else (v, u)
        by_axis.setdefault(c, {})[o] = label
    for i in range(n):
        a, b = coords[i], coords[(i + 1) % n]
        ra, rb = by_axis[a], by_axis[b]
        if any(ra[o] != rb[o] for o in ra.keys() & rb.keys()):
            cuts.add(i)
    return cuts


def _padded(cuts, n):
    """The forced gaps plus the lowest free ones, four gaps in all (every gap
    when there are fewer than four)."""
    free = [i for i in range(n) if i not in cuts]
    return cuts | set(free[:4 - len(cuts)])


def _consistent(points, coords1, coords2, cuts1, cuts2):
    """Do the cut choices make every resulting cell single-labeled?"""

    def group_index(coords, cuts):
        if not cuts:
            return {c: 0 for c in coords}
        idx, g = {}, 0
        start = min(cuts)
        order = list(range(start + 1, len(coords))) + list(range(0, start + 1))
        for i in order:
            idx[coords[i]] = g
            if i in cuts:
                g += 1
        return idx

    g1 = group_index(coords1, cuts1)
    g2 = group_index(coords2, cuts2)
    cell_label: dict = {}
    for (u, v), label in points.items():
        key = (g1[u], g2[v])
        if cell_label.setdefault(key, label) != label:
            return None
    return g1, g2, cell_label


def reconstruct_fiber_grid(r: EvenRational, t_value) -> FiberGridReport:
    """Read the tile centres landing on one (U1, U2) fiber and recover the
    4 x 4 rectangle structure of the region partition there.

    The fiber is a torus, so cells are circular arcs of its coordinates.  The
    centres of one period, rows 0..2 omega - 1 of omega^2 columns, land on
    every fiber as a full omega x omega grid.  Adjacent coordinate lines with
    conflicting labels force a wall between them; the forced walls, padded
    to four per axis with the lowest free gaps, are the cuts, and the
    reconstruction succeeds when every resulting cell is single-labeled.

    Every centre has omega * T odd (omega is odd and omega * T = 2p(2a + 1) +
    omega(2b + 1)), so ``t_value`` must make omega * T an odd integer in
    [-2 omega, 2 omega); any other T holds no centre and raises ValueError.
    The centres read below reach every such T.
    """
    t_value = Fraction(t_value)
    om, p = r.omega, r.p
    t_scaled = om * t_value
    if (t_scaled.denominator != 1 or t_scaled % 2 != 1
            or not -2 * om <= t_scaled < 2 * om):
        raise ValueError(f"fiber T = {t_value} holds no square centre of {r}: "
                         f"omega*T must be an odd integer in [{-2 * om}, {2 * om})")
    bits_at = scalar_oracle(r)
    points: dict[tuple, str] = {}
    # the centres of rows 0..2*omega-1, held as the integers omega * (T, U1,
    # U2); their reduced image has the period lattice omega^2 Z x 2 omega Z
    # and no smaller one, so each centre read is a distinct point and every
    # point of the fiber is read
    for a in range(om * om):
        for b in range(2 * om):
            T, U1, U2 = _center_scaled(om, p, a, b)
            if T == t_scaled:
                points[Fraction(U1, om), Fraction(U2, om)] = (
                    TILE_NAMES[bits_at(a, b)] or "empty")
    u1s = sorted({u for u, _ in points})
    u2s = sorted({v for _, v in points})
    forced1 = _forced_cuts(u1s, points, 0)
    forced2 = _forced_cuts(u2s, points, 1)
    if len(forced1) > 4 or len(forced2) > 4:
        return FiberGridReport(r, t_value, points, [], [], False, [],
                               reason=f"{len(forced1)}x{len(forced2)} walls forced")

    # on the full grid, neighbouring lines with no forced wall between them
    # carry equal labels at every coordinate of the other axis, so once an
    # axis has two cuts or more, each of its cells holds one label
    res = _consistent(points, u1s, u2s, _padded(forced1, len(u1s)),
                      _padded(forced2, len(u2s)))
    if res is None:
        return FiberGridReport(r, t_value, points, [], [], False, [],
                               reason="no consistent 4x4 cut completion")
    g1, g2, cell_label = res

    def arcs(coords, idx):
        groups: dict[int, list] = {}
        for c in coords:
            groups.setdefault(idx[c], []).append(c)
        return [[min(g), max(g)] for _, g in sorted(groups.items())]

    n1, n2 = len(set(g1.values())), len(set(g2.values()))
    labels = [[cell_label[i, j] for i in range(n1)] for j in range(n2)]
    return FiberGridReport(r, t_value, points, arcs(u1s, g1), arcs(u2s, g2),
                           True, labels)


# ---------------------------------------------------------------------------
# Finite geometric-limit experiments
# ---------------------------------------------------------------------------

@dataclass
class LimitReport:
    prefix: tuple[int, ...]
    window: int
    depths: list[int]
    stable_from: int | None
    anchors: list[int]
    deltas: list  # [P d_k]_2 values along the chain
    cluster: set  # developed partial-sum spread


def window_tiles(r: EvenRational, cx: int, cy: int, w: int) -> np.ndarray:
    """Edge bitmasks of the squares (cx + da, cy + db) for da, db in [-w, w),
    indexed [da + w, db + w]."""
    return build_tiling(r, cx - w, cx + w, cy - w, cy + w).tiles


def limit_experiment(target: QuadraticTarget, epsilon_prefix: tuple[int, ...],
                     window: int = 10, depth: int | None = None) -> LimitReport:
    """Translated-window stabilization along the approximating chain.

    Builds the tilings of successive approximating terms, re-centered at the
    prefix-selected anchor height, and reports from which chain depth onward
    the window tiling stops changing.
    """
    if not isinstance(target, QuadraticTarget):
        raise ValueError("translation-length decay needs an exact quadratic "
                         "target (quad:(a,b,c,d))")
    if any(e not in (0, 1) for e in epsilon_prefix):
        raise ValueError(f"prefix digits must be 0 or 1, got {epsilon_prefix}")
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    if depth is None:
        depth = len(epsilon_prefix) + 4
    elif depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    # grow q_max until the chain supplies enough approximating terms; the
    # terms kept come from q_max <= 2**26, so omega < 2**27 stays far inside
    # the dense kernel's int64 range
    q_max = 64
    terms = []
    while len(terms) < depth + 1:
        chain = approximating_sequence(target, q_max)
        terms = chain.approximating_terms(include_target=False)
        q_max *= 4
        if q_max > 10 ** 9:
            raise ValueError("chain depth unreachable for this target")
    terms = terms[:depth + 1]
    P = target.big_p()
    steps = chain_translations(terms)
    shifts = [t for _, t, _ in steps]
    ds = [d for _, _, d in steps]
    deltas = [mod_interval(P * d, 2, -1) for d in ds]
    # the bottom-path anchor of the nested realization sits at the composed
    # child shifts above the first term's low anchor; the binary prefix picks
    # sibling branches, each adding its translation length
    anchors, windows, depths = [], [], []
    for n in range(1, len(terms)):
        y = (tune(terms[0]).tau + sum(shifts[:n])
             + sum(e * d for e, d in zip(epsilon_prefix, ds[:n])))
        anchors.append(y)
        windows.append(window_tiles(terms[n], 0, y, window))
        depths.append(n)
    stable_from = None
    for i in range(len(windows)):
        if all(np.array_equal(windows[j], windows[i]) for j in range(i, len(windows))):
            stable_from = depths[i]
            break
    # developed binary cluster of the partial sums of the deltas
    cluster = {P * 0}
    for d in deltas[:12]:
        cluster |= {s + d for s in cluster}
    return LimitReport(tuple(epsilon_prefix), window, depths, stable_from,
                       anchors, deltas, cluster)
