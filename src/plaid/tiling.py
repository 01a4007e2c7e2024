"""Tile assembly, loop tracing and the big polygon.

A unit square's edge is *good* when the closed edge carries exactly one
light point, where a light point at the midpoint of a horizontal edge counts
twice and a light point at a lattice corner (these occur only on the columns
x = 0 mod omega) counts once toward each of the two horizontal edges meeting
it.  Coherence (every square has 0 or 2 good edges) is inherited from the
underlying model and re-checked here; a violation is a hard failure.

Every edge carries exactly two crossings with negative-slope lines, and both
capacities and masses repeat with period omega, so one kernel counts all
edges of a rectangle from the period table L[line mod omega, intercept mod
omega].  A vertical edge reads two cyclic windows of one row of L; a
horizontal edge reads its P and Q crossings, a corner going to the edge on
its right for P and on its left for Q.  The kernel reduces every coordinate
mod omega before it multiplies, so its int64 products stay below
2 * omega**2.

When L is no larger than the output, each line is copied from contiguous row
windows instead of entry by entry.  The rows of L hold two periods, so the
two windows of a vertical line are slices of its row, all taken through one
strided view.  The sheared table D[t, y] = L[y, y + t] turns every
horizontal line into a column of D, so a horizontal edge adds two rows of D.
Every line repeats with period omega in y, so a taller rectangle reads one
period and repeats it.  Smaller rectangles evaluate L entry by entry.  Both
paths work on whole lines, _BLOCK elements at a time.  The tests pit the
kernel against two oracles, neither of which shares a formula with it:
``grid.classify_point``, and the scalar ``scalar_oracle(r)``.

``scalar_oracle(r)`` returns ``bits_at(a, b)``, a closure over the constants
of r that enumerates the crossings of each edge of one square and tests them
for lightness inline.  The PET orbits and the fiber reconstruction build it
once and read every square from it; ``tile_bits_at`` is one call of it.  Its
edges come from the closures ``_scalar_edges(r)``, which
``checks.check_pet`` reads directly, once per edge of the first block.

One connector walk, ``walk``, steps from square to square across good
edges; loop tracing, the big polygon and the PET orbits all use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .numtheory import EvenRational, tune

# edge bits
N, E, S, W = 1, 2, 4, 8
EDGE_NAMES = {N: "N", E: "E", S: "S", W: "W"}
_STEP = {N: (0, 1), S: (0, -1), E: (1, 0), W: (-1, 0)}
_OPPOSITE = {N: S, S: N, E: W, W: E}

TILE_NAMES = {0: ""}
for _a in (N, E, S, W):
    for _b in (N, E, S, W):
        if _a < _b:
            TILE_NAMES[_a | _b] = EDGE_NAMES[_a] + EDGE_NAMES[_b]


class CoherenceError(AssertionError):
    """A unit square with an odd number of good edges: model violation."""


_BLOCK = 1 << 18  # elements per block of lines: _light holds four int64 arrays of 2 MB at most
_MAX_OMEGA = 1 << 31  # keeps the kernel's products, all below 2 * omega**2, in int64


def _light(r: EvenRational, n: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``is_light_value`` on the capacity lines at residues 0 <= n < omega,
    against the negative-slope lines through (0, j) for 0 <= j < 2*omega.

    With c = 4pn mod 2*omega and m = 2pj + omega mod 2*omega, the light test
    M*C > 0, |M| < |C| reads 0 < m < c for C > 0 and c < m < 2*omega for
    C < 0, and no m passes for C = 0.  Both are reduced in place, so beside
    j the test holds three int64 arrays: the bounds, of the shape of n, and
    m, of the shape of j."""
    om = r.omega
    lo = np.multiply(n, 4 * r.p)
    lo %= 2 * om
    hi = np.where(lo < om, lo, 2 * om)
    lo[lo < om] = 0
    m = np.multiply(j, 2 * r.p)
    m += om
    m %= 2 * om
    return (m > lo) & (m < hi)


def _pair_counts(r: EvenRational, n, s1, s2, c1, c2) -> np.ndarray:
    """out[i, e] = L[n_i, s1_i + c1_e] + L[n_i, s2_i + c2_e] for arguments in
    [0, omega), evaluated entry by entry, one block of lines at a time."""
    out = np.empty((n.size, c1.size), dtype=np.int8)
    step = max(1, _BLOCK // max(1, c1.size))
    for i in range(0, n.size, step):
        blk = slice(i, i + step)
        lit = [_light(r, n[blk, None], s[blk, None] + c) for s, c in ((s1, c1), (s2, c2))]
        np.add(*lit, out=out[blk], dtype=np.int8)
    return out


def _row_sums(table: np.ndarray, i1, i2, length: int) -> np.ndarray:
    """out[k, b] = table[i1_k, c] + table[i2_k, c] in int8, c = b mod the
    width of ``table``, for 0 <= b < length; one block of rows at a time."""
    lines, width = i1.size, table.shape[1]
    out = np.empty((lines, length), dtype=np.int8)
    step = max(1, _BLOCK // max(1, width))
    for i in range(0, lines, step):
        blk = slice(i, i + step)
        np.add(table[i1[blk]], table[i2[blk]], out=out[blk, :width])
    if width < length:
        reps, rest = divmod(length, width)
        out[:, width:reps * width].reshape(lines, reps - 1, width)[...] = out[:, None, :width]
        out[:, reps * width:] = out[:, :rest]
    return out


def _vertical_witnesses(r: EvenRational, x0: int, x1: int):
    """Residue n of each vertical line x0 <= x <= x1, and the intercepts
    b + f + 1 and b - f + 2x of its two witnesses at b = 0, mod omega, where
    f = floor(2px/omega)."""
    om, p = r.omega, r.p
    k, n = np.divmod(np.arange(x0, x1 + 1, dtype=np.int64), om)
    f = 2 * p * (k % om) + 2 * p * n // om
    return n, (f + 1) % om, (2 * n - f) % om


def _horizontal_witnesses(r: EvenRational, x0: int, x1: int):
    """Intercept offsets t1, t2 mod omega of the two crossings of each edge
    [a, a+1], x0 <= a < x1.

    Edge a holds the P crossings omega*t/(2p) in [a, a+1) and the Q crossings
    omega*t/(2q) in (a, a+1] with the lines through (0, y + t), two in all,
    so a midpoint counts twice and a corner once on each side.  Offsets are
    taken from the block of x0, so that every product stays below
    2 * omega**2.  Of the two lines through a double point x = omega*u/2 on
    line y one is read, as they agree: with q = omega - p, the masses
    M_P = 2p(y + pu) + omega and M_Q = 2p(y + qu) + omega = 2p(y - pu) +
    omega mod 2*omega add up to C(y) = 4py, and M -> C - M maps the light
    set (0 < M < C, or C < M < 0, and nothing when C = 0) onto itself."""
    om, p, q = r.omega, r.p, r.q
    k0, r0 = divmod(x0, om)
    m, rho = np.divmod(np.arange(r0, r0 + x1 - x0 + 1, dtype=np.int64), om)
    tp = 2 * p * m - (-2 * p * rho) // om + 2 * p * k0 % om
    tq = 2 * q * m + 2 * q * rho // om + 1 + 2 * q * k0 % om
    has_p = np.diff(tp) == 1
    tp, tq = tp[:-1] % om, tq[:-1] % om
    return np.where(has_p, tp, tq), np.where(has_p, tq, (tq + 1) % om)


def _edge_counts(r: EvenRational, x0: int, x1: int, y0: int, y1: int):
    """Light-point counts of all unit edges of the rectangle [x0, x1] x [y0, y1].

    Returns int8 arrays (h, v): h[a - x0, y - y0] counts the horizontal edge
    [a, a+1] x {y}, v[x - x0, b - y0] the vertical edge {x} x [b, b+1].
    """
    om = r.omega
    if om >= _MAX_OMEGA:
        raise OverflowError(f"omega = {om} is too large for the int64 edge kernel")
    w, h = x1 - x0, y1 - y0
    n, s1, s2 = _vertical_witnesses(r, x0, x1)
    t1, t2 = _horizontal_witnesses(r, x0, x1)
    if 2 * om * om <= (w + 1) * h + w * (h + 1):  # the table is no larger than its output
        # one period of each line, copied from windows of omega entries of
        # L, whose rows hold two periods so that every window is contiguous
        L = _light(r, np.arange(om)[:, None], np.arange(om)).view(np.int8)
        L = np.concatenate((L, L), axis=1).ravel()
        windows = as_strided(L, (L.size - om + 1, om), L.strides * 2, writeable=False)
        row = n * (2 * om)
        v = _row_sums(windows[:, :min(h, om)], row + (s1 + y0) % om,
                      row + (s2 + y0) % om, h)
        # the sheared table D[t, i] = L[y_i, y_i + t] for the lines
        # y_i = y0 + i of one period: column i is the window of row y_i at
        # y_i, and rows t1_a + t2_a of D give edge a in (x, y) layout
        ys = (y0 + np.arange(min(h + 1, om), dtype=np.int64)) % om
        D = np.ascontiguousarray(windows[ys * (2 * om + 1)].T)
        hc = _row_sums(D, t1, t2, h + 1)
    else:
        col = (y0 % om + np.arange(h, dtype=np.int64)) % om
        v = _pair_counts(r, n, s1, s2, col, col)
        ys = np.arange(y0, y1 + 1, dtype=np.int64) % om
        hc = np.ascontiguousarray(_pair_counts(r, ys, ys, ys, t1, t2).T)
    return hc, v


def v_edges_good(r: EvenRational, x0: int, b0: int, b1: int) -> np.ndarray:
    """Goodness of the vertical edges x = x0, y in [b, b+1] for b0 <= b < b1."""
    return _edge_counts(r, x0, x0, b0, b1)[1][0] == 1


def h_edges_count(r: EvenRational, y0: int, a0: int, a1: int) -> np.ndarray:
    """Light-point counts of horizontal edges [a, a+1] x {y0} for a0 <= a < a1.

    Midpoint light points contribute 2, corner light points contribute 1 to
    each of the two incident edges.
    """
    return _edge_counts(r, a0, a1, y0, y0)[0][:, 0]


def h_edges_good(r: EvenRational, y0: int, a0: int, a1: int) -> np.ndarray:
    return h_edges_count(r, y0, a0, a1) == 1


@dataclass
class PlaidTiling:
    """Dense tile map over an integer rectangle [x0, x1] x [y0, y1]."""

    parameter: EvenRational
    x0: int
    y0: int
    tiles: np.ndarray  # uint8 edge bitmasks, shape (x1-x0, y1-y0)

    @property
    def shape(self) -> tuple[int, int]:
        return self.tiles.shape

    def tile_bits(self, a: int, b: int) -> int:
        return int(self.tiles[a - self.x0, b - self.y0])

    def tile_name(self, a: int, b: int) -> str:
        return TILE_NAMES[self.tile_bits(a, b)]

    def nonempty_squares(self) -> list[tuple[int, int]]:
        xs, ys = np.nonzero(self.tiles)
        return [(int(a) + self.x0, int(b) + self.y0) for a, b in zip(xs, ys)]


def _scalar_edges(r: EvenRational):
    """The scalar edge oracle of r: ``(h_count, v_good)``.

    ``h_count(y, a)`` is the light-point count of the horizontal edge
    [a, a+1] x {y}, ``v_good(x, b)`` the goodness of the vertical edge
    {x} x [b, b+1].  Both close over the constants of r and enumerate the
    crossings of the one edge they are asked about.  With C the scaled
    capacity of the edge's line and M the scaled mass of a negative-slope
    line, in (-omega, omega) and (-omega, omega], the crossing is light when
    0 < M < C or C < M < 0; an inert line (M = omega) never passes.
    """
    om, p, q = r.omega, r.p, r.q
    om2, p2, q2, p4 = 2 * om, 2 * p, 2 * q, 4 * p
    pp2 = p * p2

    def h_count(y: int, a: int) -> int:
        C = p4 * y % om2
        if C > om:
            C -= om2
        if C == 0:
            return 0
        base = p2 * y + om  # M of the line through (0, y + t) is base + 2pt, reduced
        cnt = 0
        # P crossings omega*t/(2p) in [a, a+1], double points left out
        for t in range(-(-p2 * a // om), p2 * (a + 1) // om + 1):
            if t % p:
                M = (base + p2 * t) % om2
                if M > om:
                    M -= om2
                if 0 < M < C or C < M < 0:
                    cnt += 1
        # Q crossings omega*t/(2q) in [a, a+1], double points left out
        for t in range(-(-q2 * a // om), q2 * (a + 1) // om + 1):
            if t % q:
                M = (base + p2 * t) % om2
                if M > om:
                    M -= om2
                if 0 < M < C or C < M < 0:
                    cnt += 1
        # double points omega*u/2: a midpoint counts twice, a corner once
        # toward each of the two edges meeting it
        for u in range(-(-2 * a // om), 2 * (a + 1) // om + 1):
            M = (base + pp2 * u) % om2
            if M > om:
                M -= om2
            if 0 < M < C or C < M < 0:
                cnt += 2 if u % 2 else 1
        return cnt

    def v_good(x: int, b: int) -> bool:
        if x % om == 0:
            return False
        C = p4 * x % om2
        if C > om:
            C -= om2
        f = p2 * x // om
        cnt = 0
        # the witnesses through (0, b + f + 1) and (0, b - f + 2x)
        for j in (b + f + 1, b - f + 2 * x):
            M = (p2 * j + om) % om2
            if M > om:
                M -= om2
            if 0 < M < C or C < M < 0:
                cnt += 1
        return cnt == 1

    return h_count, v_good


def scalar_oracle(r: EvenRational):
    """``bits_at(a, b)``: the edge bitmask of the square [a, a+1] x [b, b+1],
    read from ``_scalar_edges(r)`` one edge at a time.

    The independent scalar oracle of the dense tiles; it shares no formula
    with the edge kernel.  Raises ``CoherenceError`` on a square with neither
    0 nor 2 good edges.
    """
    h_count, v_good = _scalar_edges(r)

    def bits_at(a: int, b: int) -> int:
        bits = 0
        if h_count(b + 1, a) == 1:
            bits |= N
        if h_count(b, a) == 1:
            bits |= S
        if v_good(a, b):
            bits |= W
        if v_good(a + 1, b):
            bits |= E
        n = bits.bit_count()
        if n not in (0, 2):
            raise CoherenceError(f"square ({a},{b}) of {r} has {n} good edges")
        return bits
    return bits_at


def tile_bits_at(r: EvenRational, a: int, b: int) -> int:
    """Edge bitmask of the square [a, a+1] x [b, b+1]; one call of
    ``scalar_oracle(r)``."""
    return scalar_oracle(r)(a, b)


def build_tiling(r: EvenRational, x0: int, x1: int, y0: int, y1: int) -> PlaidTiling:
    """Tiles for all unit squares [a, a+1] x [b, b+1], a in [x0, x1), b in [y0, y1)."""
    hgood, vgood = (c == 1 for c in _edge_counts(r, x0, x1, y0, y1))
    tiles = (hgood[:, 1:] * np.uint8(N) | hgood[:, :-1] * np.uint8(S)
             | vgood[1:] * np.uint8(E) | vgood[:-1] * np.uint8(W))
    degree = (hgood[:, 1:].astype(np.int8) + hgood[:, :-1]
              + vgood[1:, :] + vgood[:-1, :])
    bad = (degree != 0) & (degree != 2)
    if bad.any():
        a, b = np.argwhere(bad)[0]
        raise CoherenceError(
            f"square ({a + x0},{b + y0}) of {r} has {int(degree[a, b])} good edges")
    return PlaidTiling(r, x0, y0, tiles)


def first_block_tiling(r: EvenRational) -> PlaidTiling:
    return build_tiling(r, 0, r.omega, 0, r.omega)


# ---------------------------------------------------------------------------
# Loop tracing
# ---------------------------------------------------------------------------

@dataclass
class PlaidPolygon:
    """A closed loop of connectors, stored as the cyclic list of square centers."""

    parameter: EvenRational
    squares: list[tuple[int, int]]  # cyclic; consecutive squares share a good edge
    closed: bool = True

    def __len__(self):
        return len(self.squares)

    def center_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.squares)

    def x_extent(self) -> tuple[Fraction, Fraction]:
        """Exact x-range of the drawn curve.

        The curve runs through the square centers; an edge it crosses lies
        strictly between two of them, so the centers alone set the range.
        """
        xs = [a for a, _ in self.squares]
        return Fraction(2 * min(xs) + 1, 2), Fraction(2 * max(xs) + 1, 2)

    def x_diameter(self) -> Fraction:
        lo, hi = self.x_extent()
        return hi - lo

    def _edges(self):
        n = len(self.squares)
        for i in range(n if self.closed else n - 1):
            yield self.squares[i], self.squares[(i + 1) % n]

    def anchors(self, column: int = 0) -> list[tuple[Fraction, int]]:
        """Points (column + 1/2, m) where the loop crosses a horizontal edge."""
        out = set()
        for (a1, b1), (a2, b2) in self._edges():
            if a1 == a2 == column and b1 != b2:
                out.add((Fraction(2 * column + 1, 2), max(b1, b2)))
        return sorted(out, key=lambda t: t[1])

    def crossings_of_vertical(self, x: int) -> int:
        return sum(1 for (a1, _), (a2, _) in self._edges() if {a1, a2} == {x - 1, x})


def walk(bits_at, square: tuple[int, int], exit_edge: int):
    """Follow the connectors from ``square``, leaving it through ``exit_edge``.

    ``bits_at(a, b)`` gives the edge bits of a square, or None outside the
    region.  Yields ``(edge crossed, square entered)`` per step, the return
    to ``square`` included, and stops there or on leaving the region.
    """
    start = a, b = square
    while True:
        da, db = _STEP[exit_edge]
        a, b = a + da, b + db
        bits = bits_at(a, b)
        if bits is None:
            return
        entry = _OPPOSITE[exit_edge]
        if not bits & entry:
            raise CoherenceError(f"connector mismatch entering ({a},{b})")
        yield exit_edge, (a, b)
        if (a, b) == start:
            return
        exit_edge = bits & ~entry
        if exit_edge not in _STEP:
            raise CoherenceError(f"square ({a},{b}) lacks a unique exit")


def _region_bits(tiling: PlaidTiling):
    """``bits_at`` for ``walk`` over the tiling's region, in global coordinates."""
    cols, (w, h) = tiling.tiles.tolist(), tiling.shape

    def bits_at(a: int, b: int) -> int | None:
        i, j = a - tiling.x0, b - tiling.y0
        return cols[i][j] if 0 <= i < w and 0 <= j < h else None
    return bits_at


def _polygon_through(r: EvenRational, bits_at, start: tuple[int, int]) -> PlaidPolygon:
    """The loop or open path through the nonempty square ``start``.

    The walk leaves ``start`` through its least good edge in N < E < S < W
    order; an open path is completed backwards through the other one.
    """
    bits = bits_at(*start)
    first = bits & -bits
    path = [sq for _, sq in walk(bits_at, start, first)]
    if path and path[-1] == start:
        return PlaidPolygon(r, [start] + path[:-1])
    back = [sq for _, sq in walk(bits_at, start, bits & ~first)]
    return PlaidPolygon(r, back[::-1] + [start] + path, closed=False)


def trace_polygons(tiling: PlaidTiling) -> list[PlaidPolygon]:
    """All loops in the region, traced deterministically.

    Tracing starts from the lexicographically least untraced square, leaving
    through the least good edge in N < E < S < W order.  Paths that reach the
    region boundary are returned with ``closed=False``.
    """
    bits_at = _region_bits(tiling)
    seen, loops = set(), []
    for start in tiling.nonempty_squares():
        if start not in seen:
            loops.append(_polygon_through(tiling.parameter, bits_at, start))
            seen.update(loops[-1].squares)
    return loops


def big_polygon(r: EvenRational) -> PlaidPolygon:
    """The distinguished loop through the positive capacity-2 horizontal line.

    It crosses that line at (1/2, y_plus), the S edge of the square
    (0, y_plus), and is listed as ``trace_polygons`` lists it: from its least
    square.  Asserts the x-diameter bound omega^2/(2q) - 1 and the bilateral
    symmetry about the horizontal midline of the first block.
    """
    t = tune(r)
    y_plus = t.tau if t.sign_choice > 0 else r.omega - t.tau
    bits_at = _region_bits(first_block_tiling(r))
    if not bits_at(0, y_plus) & S:
        raise AssertionError(f"no loop crosses (1/2, {y_plus}) for {r}")
    # The least square (0, b) has no good W edge (x = 0) and no S neighbour
    # on the loop, so trace_polygons leaves it through N.  The walk from
    # (0, y_plus) leaves through N or E, so it entered through S.  Both
    # walks step upwards in column 0, the least x of the loop, and so run
    # clockwise: rotating the first walk gives trace_polygons' list.
    loop = _polygon_through(r, bits_at, (0, y_plus)).squares
    i = loop.index(min(loop))
    target = PlaidPolygon(r, loop[i:] + loop[:i])
    if target.x_diameter() < Fraction(r.omega ** 2, 2 * r.q) - 1:
        raise AssertionError(f"big polygon of {r} is too narrow")
    mirrored = frozenset((a, r.omega - 1 - b) for a, b in target.squares)
    if mirrored != target.center_set():
        raise AssertionError(f"big polygon of {r} is not bilaterally symmetric")
    return target
