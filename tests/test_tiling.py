import random
from fractions import Fraction
from math import ceil, floor, gcd

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plaid.checks import even_rationals
from plaid.grid import cap_scaled, classify_point, is_light_value, mass_scaled
from plaid.numtheory import EvenRational, tune
from plaid.pet import window_tiles
from plaid.tiling import (E, N, S, W, TILE_NAMES, CoherenceError, _edge_counts,
                          _scalar_edges, big_polygon, build_tiling,
                          first_block_tiling, h_edges_count, h_edges_good,
                          scalar_oracle, tile_bits_at, trace_polygons,
                          v_edges_good, walk)


def test_boundary_edges_never_good():
    for r in (EvenRational(1, 2), EvenRational(5, 12)):
        om = r.omega
        assert not h_edges_good(r, 0, 0, om).any()
        assert not h_edges_good(r, om, 0, om).any()
        assert not v_edges_good(r, 0, 0, om).any()
        assert not v_edges_good(r, om, 0, om).any()


def test_first_block_census_1_2():
    # full 3x3 census: every square has 0 or 2 good edges and the two loops
    # known for the smallest parameter appear
    r = EvenRational(1, 2)
    tiling = first_block_tiling(r)
    degrees = {(a, b): bin(tile_bits_at(r, a, b)).count("1")
               for a in range(3) for b in range(3)}
    assert set(degrees.values()) <= {0, 2}
    loops = trace_polygons(tiling)
    assert all(loop.closed for loop in loops)
    assert sum(len(loop) for loop in loops) == int(np.count_nonzero(tiling.tiles))


def test_tile_names_of_single_squares():
    r = EvenRational(1, 2)
    assert TILE_NAMES[tile_bits_at(r, 0, 0)] == "NE"
    assert len(TILE_NAMES[tile_bits_at(r, 1, 1)]) in (0, 2)


def test_double_counted_midpoint_blocks_edge():
    # an edge whose midpoint is a light triple point counts it twice, so the
    # edge is not good
    found = 0
    for r in even_rationals(20):
        om = r.omega
        for y0 in range(1, om):
            for u in range(1, 2 * om, 2):
                a0 = (om * u - 1) // 2
                cnt = int(h_edges_count(r, y0, a0, a0 + 1)[0])
                lit = is_light_value(cap_scaled(r, y0),
                                     mass_scaled(r, y0 + r.p * u), om)
                if lit:
                    assert cnt >= 2
                    found += 1
    assert found


def test_scalar_and_vector_paths_agree():
    rng = random.Random(3)
    for r in (EvenRational(5, 12), EvenRational(7, 18), EvenRational(4, 11)):
        om = r.omega
        tiling = build_tiling(r, 0, 2 * om, 0, om)
        bits_at = scalar_oracle(r)
        for _ in range(200):
            a, b = rng.randrange(2 * om), rng.randrange(om)
            assert bits_at(a, b) == tiling.tile_bits(a, b)


def test_coherence_small_sweep():
    for r in even_rationals(25):
        build_tiling(r, 0, r.omega ** 2, 0, r.omega)


def test_reflection_symmetries():
    # the good-edge set is invariant under reflection through the y-axis and
    # through the horizontal midlines of the blocks
    for r in even_rationals(15):
        om = r.omega
        w = om * om
        hg = np.vstack([h_edges_good(r, y, -w, w) for y in range(om + 1)])
        vg = np.vstack([v_edges_good(r, x, 0, om) for x in range(-w, w + 1)])
        # y-axis mirror: edge [a, a+1] -> [-a-1, -a]; vertical line x -> -x
        assert np.array_equal(hg, hg[:, ::-1])
        assert np.array_equal(vg, vg[::-1, :])
        # horizontal midline: y -> omega - y fixes goodness row-wise
        assert np.array_equal(hg, hg[::-1, :])


def test_tiles_L_periodic():
    r = EvenRational(2, 5)
    om = r.omega
    bits_at = scalar_oracle(r)
    for a in range(om):
        for b in range(om):
            bits = bits_at(a, b)
            assert bits == bits_at(a + om * om, b)
            assert bits == bits_at(a, b + om)


def test_trace_deterministic_and_partition():
    r = EvenRational(5, 12)
    tiling = first_block_tiling(r)
    loops1 = trace_polygons(tiling)
    loops2 = trace_polygons(first_block_tiling(r))
    assert [lp.squares for lp in loops1] == [lp.squares for lp in loops2]
    seen = set()
    for loop in loops1:
        assert loop.closed
        for sq in loop.squares:
            assert sq not in seen
            seen.add(sq)
    assert len(seen) == int(np.count_nonzero(tiling.tiles))


def test_truncated_path_reported():
    r = EvenRational(5, 12)
    tiling = build_tiling(r, 0, 6, 0, 17)  # narrower than the block
    loops = trace_polygons(tiling)
    assert any(not loop.closed for loop in loops)


def test_big_polygon_examples():
    g = big_polygon(EvenRational(5, 12))
    assert g.x_diameter() >= Fraction(289, 24) - 1
    g = big_polygon(EvenRational(1, 2))
    assert g.anchors()[0][0] == Fraction(1, 2)
    mirrored = {(a, 3 - 1 - b) for a, b in g.squares}
    assert mirrored == set(g.squares)
    # the paper's two example parameters
    big_polygon(EvenRational(5, 18))
    big_polygon(EvenRational(14, 31))


def test_big_polygon_anchor_cluster_12_29():
    g = big_polygon(EvenRational(12, 29))
    assert len(g.anchors()) == 16  # nested binary cluster, 2^4 points


def test_big_polygon_is_the_first_block_loop_through_y_plus():
    for r in even_rationals(61):
        t = tune(r)
        y_plus = t.tau if t.sign_choice > 0 else r.omega - t.tau
        loop = next(lp for lp in trace_polygons(first_block_tiling(r))
                    if (0, y_plus) in lp.squares)
        assert loop.closed
        assert big_polygon(r).squares == loop.squares, r


def test_capacity_crossing_bounds():
    # a loop crosses any capacity-2k vertical line at most 2k times; the
    # capacity-2 lines exactly 0 or 2 times
    for r in even_rationals(20):
        om = r.omega
        tiling = first_block_tiling(r)
        loops = trace_polygons(tiling)
        for x in range(1, om):
            k = abs(cap_scaled(r, x))
            for loop in loops:
                n = loop.crossings_of_vertical(x)
                assert n <= k
                if k == 2:
                    assert n in (0, 2)


def test_empty_region_is_fine():
    r = EvenRational(1, 2)
    tiling = build_tiling(r, 0, 0, 0, 0)
    assert tiling.tiles.size == 0
    assert trace_polygons(tiling) == []


def test_far_tiles_do_not_wrap_int64():
    # at omega = 3,000,017 a product 2*p*j with j near omega**2 leaves int64;
    # the dense path must reduce intercepts mod omega before multiplying
    r = EvenRational(1500001, 1500016)
    om = r.omega
    tiling = build_tiling(r, om * om - 4, om * om + 4, 0, 6)
    assert tiling.tiles.any()
    bits_at = scalar_oracle(r)
    for a in range(om * om - 4, om * om + 4):
        for b in range(6):
            assert tiling.tile_bits(a, b) == bits_at(a, b)


def test_dense_path_refuses_omega_beyond_int64():
    with pytest.raises(OverflowError):
        build_tiling(EvenRational(2 ** 30, 2 ** 30 + 1), 0, 1, 0, 1)


@st.composite
def even_rational(draw, max_omega):
    om = 2 * draw(st.integers(1, (max_omega - 1) // 2)) + 1
    p = draw(st.integers(1, om // 2))
    assume(gcd(p, om) == 1)
    return EvenRational(p, om - p)


ORIGINS = st.integers(-10 ** 12, 10 ** 12) | st.integers(-2000, 2000)


# The edge kernel reads one of the two lines through a double point
# (omega*u/2, y): the P line through (0, y + pu) and the Q line through
# (0, y + qu) always give the same light verdict, because their masses add
# up to the capacity of line y mod 2*omega.

def assert_double_point_lines_agree(r, y, u):
    om = r.omega
    C = cap_scaled(r, y)
    m_p, m_q = mass_scaled(r, y + r.p * u), mass_scaled(r, y + r.q * u)
    assert (m_p + m_q - C) % (2 * om) == 0, (str(r), y, u)
    assert is_light_value(C, m_p, om) == is_light_value(C, m_q, om), (str(r), y, u)


def test_double_point_lines_agree_on_every_small_parameter():
    # capacities and masses repeat with period omega in y and in u
    pairs = 0
    for r in even_rationals(61):
        for y in range(r.omega):
            for u in range(r.omega):
                assert_double_point_lines_agree(r, y, u)
        pairs += r.omega ** 2
    assert pairs == 768666  # 394 parameters, omega 3..61


@settings(max_examples=300, deadline=None)
@given(r=even_rational(10 ** 12), y=ORIGINS, u=ORIGINS)
def test_double_point_lines_agree_far_beyond_desk_scale(r, y, u):
    assert_double_point_lines_agree(r, y, u)


# The reference for scalar_oracle: the same enumeration of each edge's
# crossings, with every capacity, mass and light test taken from plaid.grid.

def reference_v_good(r, x0, b):
    om = r.omega
    if x0 % om == 0:
        return False
    C = cap_scaled(r, x0)
    f = (2 * r.p * x0) // om
    cnt = int(is_light_value(C, mass_scaled(r, b + f + 1), om))
    cnt += int(is_light_value(C, mass_scaled(r, (b - f) + 2 * x0), om))
    return cnt == 1


def reference_h_count(r, y0, a):
    om, p, q = r.omega, r.p, r.q
    C = cap_scaled(r, y0)
    if C == 0:
        return 0
    cnt = 0
    for den, step in ((2 * p, p), (2 * q, q)):
        tlo = -((-den * a) // om)
        thi = (den * (a + 1)) // om
        for t in range(tlo, thi + 1):
            if t % step == 0:
                continue  # shared double points handled below
            if is_light_value(C, mass_scaled(r, y0 + t), om):
                cnt += 1
    ulo = -((-2 * a) // om)
    uhi = (2 * (a + 1)) // om
    for u in range(ulo, uhi + 1):
        if not is_light_value(C, mass_scaled(r, y0 + p * u), om):
            continue
        cnt += 2 if u % 2 else 1  # midpoint twice; corner once per incident edge
    return cnt


def reference_bits_at(r, a, b):
    bits = 0
    if reference_h_count(r, b + 1, a) == 1:
        bits |= N
    if reference_h_count(r, b, a) == 1:
        bits |= S
    if reference_v_good(r, a, b):
        bits |= W
    if reference_v_good(r, a + 1, b):
        bits |= E
    n = bin(bits).count("1")
    if n not in (0, 2):
        raise CoherenceError(f"square ({a},{b}) of {r} has {n} good edges")
    return bits


def assert_matches_reference(r, squares):
    bits_at, (h_count, _) = scalar_oracle(r), _scalar_edges(r)
    for a, b in squares:
        assert bits_at(a, b) == reference_bits_at(r, a, b), (a, b)
        for y in (b, b + 1):
            assert h_count(y, a) == reference_h_count(r, y, a), (a, y)


@settings(max_examples=100, deadline=None)
@given(r=even_rational(10 ** 6) | even_rational(80), x0=ORIGINS, y0=ORIGINS,
       w=st.integers(1, 4), h=st.integers(1, 4))
def test_scalar_oracle_matches_grid_reference(r, x0, y0, w, h):
    assert_matches_reference(r, [(a, b) for a in range(x0, x0 + w)
                                 for b in range(y0, y0 + h)])


def test_scalar_oracle_matches_grid_reference_on_a_first_block():
    r = EvenRational(12, 29)
    assert_matches_reference(r, [(a, b) for a in range(r.omega) for b in range(r.omega)])


def assert_matches_scalar_oracle(r, x0, x1, y0, y1, squares):
    tiling = build_tiling(r, x0, x1, y0, y1)
    bits_at, (h_count, _) = scalar_oracle(r), _scalar_edges(r)
    for a, b in squares:
        assert tiling.tile_bits(a, b) == bits_at(a, b), (a, b)
    for y in {y0, y1}:
        assert (h_edges_count(r, y, x0, x1).tolist()
                == [h_count(y, a) for a in range(x0, x1)]), y


@settings(max_examples=40, deadline=None)
@given(r=even_rational(45), x0=ORIGINS, y0=ORIGINS, data=st.data())
def test_wide_rectangles_match_scalar_oracle(r, x0, y0, data):
    # up to omega^2 + 2 columns and two periods high: most read the period table
    om = r.omega
    w = data.draw(st.integers(1, om * om + 2), label="width")
    h = data.draw(st.integers(1, 2 * om + 1), label="height")
    squares = data.draw(st.lists(st.tuples(st.integers(x0, x0 + w - 1),
                                           st.integers(y0, y0 + h - 1)),
                                 min_size=1, max_size=30), label="squares")
    assert_matches_scalar_oracle(r, x0, x0 + w, y0, y0 + h, squares)


def reads_table(r, w, h):
    """The kernel's own rule: the period table is read when it is no larger
    than the output of a w x h rectangle."""
    return 2 * r.omega ** 2 <= (w + 1) * h + w * (h + 1)


@settings(max_examples=40, deadline=None)
@given(r=even_rational(15), x0=ORIGINS, y0=ORIGINS, data=st.data())
def test_table_path_matches_entry_path(r, x0, y0, data):
    # each line of a rectangle that reads the table, read again alone or on a
    # short sub-range, which evaluates L entry by entry
    om = r.omega
    h = data.draw(st.integers(1, 2 * om * om - 1), label="height")
    w_min = max(0, -(-(2 * om * om - h) // (2 * h + 1)))
    w = data.draw(st.integers(w_min, w_min + 40), label="width")
    x1, y1 = x0 + w, y0 + h
    assert reads_table(r, w, h) and not reads_table(r, 0, h)
    hc, vc = _edge_counts(r, x0, x1, y0, y1)
    assert (hc.dtype, hc.shape, vc.dtype, vc.shape) == (np.int8, (w, h + 1), np.int8, (w + 1, h))
    for x in range(x0, x1 + 1):
        assert np.array_equal(vc[x - x0], _edge_counts(r, x, x, y0, y1)[1][0]), x
    if w == 0:
        return
    for y in range(y0, y1 + 1):
        a = data.draw(st.integers(x0, x1 - 1), label="a")
        b = data.draw(st.integers(a + 1, min(x1, a + 2 * om * om - 1)), label="b")
        assert not reads_table(r, b - a, 0)
        assert np.array_equal(hc[a - x0:b - x0, y - y0], h_edges_count(r, y, a, b)), y


@settings(max_examples=60, deadline=None)
@given(r=even_rational(15), x0=ORIGINS, y0=ORIGINS, w=st.integers(1, 2), data=st.data())
def test_tall_table_path_rectangles_match_scalar_oracle(r, x0, y0, w, data):
    # up to 3 * omega^2 high, so every line repeats its period many times
    om = r.omega
    h = data.draw(st.integers(-(-(2 * om * om - w) // (2 * w + 1)), 3 * om * om), label="height")
    assert reads_table(r, w, h)
    squares = [(a, b) for a in range(x0, x0 + w) for b in range(y0, y0 + h)]
    assert_matches_scalar_oracle(r, x0, x0 + w, y0, y0 + h, squares)


@settings(max_examples=40, deadline=None)
@given(r=even_rational(10 ** 6), x0=ORIGINS, y0=ORIGINS,
       w=st.integers(0, 6), h=st.integers(0, 6))
def test_thin_rectangles_match_scalar_oracle(r, x0, y0, w, h):
    # thin rectangles at large omega evaluate the light test directly
    squares = [(a, b) for a in range(x0, x0 + w) for b in range(y0, y0 + h)]
    assert_matches_scalar_oracle(r, x0, x0 + w, y0, y0 + h, squares)


@settings(max_examples=60, deadline=None)
@given(r=even_rational(10 ** 6), k=st.integers(-10 ** 6, 10 ** 6),
       dx=st.just(0) | ORIGINS, y0=ORIGINS, h=st.integers(0, 300),
       cx=ORIGINS, cy=ORIGINS, w=st.integers(0, 6))
@example(r=EvenRational(5, 12), k=0, dx=0, y0=0, h=17, cx=8, cy=8, w=5)
def test_column_and_window_probes_match_scalar_oracle(r, k, dx, y0, h, cx, cy, w):
    # observed_branch reads single columns, x = 0 mod omega among them, and
    # limit_experiment square windows, both through build_tiling
    x = k * r.omega + dx
    bits_at = scalar_oracle(r)
    assert (build_tiling(r, x, x + 1, y0, y0 + h).tiles[0].tolist()
            == [bits_at(x, b) for b in range(y0, y0 + h)])
    assert (window_tiles(r, cx, cy, w).tolist()
            == [[bits_at(cx + da, cy + db) for db in range(-w, w)]
                for da in range(-w, w)])


def exact_count(r, points, axis):
    """Light points of one closed edge by the exact oracle: 2 for a double
    counted point, 1 for any other light point, 0 for a dark one."""
    total = 0
    for x, y in points:
        pt = classify_point(r, x, y, axis)
        total += 2 if pt.double_counted else int(pt.shade == "light")
    return total


def h_edge_points(r, a, y):
    """Crossings of [a, a+1] x {y} with the lines y = j - (s/omega) x:
    x = omega * (j - y) / s."""
    om = r.omega
    return {(Fraction(om * t, s), y) for s in (2 * r.p, 2 * r.q)
            for t in range(ceil(Fraction(s * a, om)), floor(Fraction(s * (a + 1), om)) + 1)}


def v_edge_points(r, x, b):
    """Crossings of {x} x [b, b+1] with the lines y = j - (s/omega) x."""
    om = r.omega
    return {(x, j - Fraction(s * x, om)) for s in (2 * r.p, 2 * r.q)
            for j in range(ceil(b + Fraction(s * x, om)),
                           floor(b + 1 + Fraction(s * x, om)) + 1)}


@settings(max_examples=60, deadline=None)
@given(r=even_rational(10 ** 6), x0=ORIGINS, y0=ORIGINS,
       w=st.integers(0, 5), h=st.integers(0, 5))
@example(r=EvenRational(2, 5), x0=-1, y0=0, w=5, h=5)  # light corner and midpoint
def test_edge_counts_match_exact_oracle(r, x0, y0, w, h):
    # classify_point finds each crossing and decides it from f_value alone,
    # so it shares no formula with the kernel
    hc, vc = _edge_counts(r, x0, x0 + w, y0, y0 + h)
    assert hc.tolist() == [[exact_count(r, h_edge_points(r, a, y), "H")
                            for y in range(y0, y0 + h + 1)] for a in range(x0, x0 + w)]
    assert vc.tolist() == [[exact_count(r, v_edge_points(r, x, b), "V")
                            for b in range(y0, y0 + h)] for x in range(x0, x0 + w + 1)]


_DIRS = {N: (0, 1), E: (1, 0), S: (0, -1), W: (-1, 0)}


def assert_traced(tiling, loops):
    """Every nonempty square lies on exactly one path, consecutive squares
    share a good edge, open paths end on the region boundary, and each
    path's x_extent spans its drawn curve."""
    (w, h), x0, y0 = tiling.shape, tiling.x0, tiling.y0

    def links(square):
        a, b = square
        return [(a + da, b + db) for e, (da, db) in _DIRS.items()
                if tiling.tile_bits(a, b) & e]

    def inside(a, b):
        return x0 <= a < x0 + w and y0 <= b < y0 + h

    assert sorted(sq for lp in loops for sq in lp.squares) == tiling.nonempty_squares()
    for lp in loops:
        sq = lp.squares
        steps = list(zip(sq, sq[1:] + sq[:1] if lp.closed else sq[1:]))
        for s, t in steps:
            assert t in links(s) and s in links(t)
        # the drawn curve: the centers and the vertical edges it crosses
        xs = [Fraction(2 * a + 1, 2) for a, _ in sq]
        xs += [Fraction(max(s[0], t[0])) for s, t in steps if s[0] != t[0]]
        assert lp.x_extent() == (min(xs), max(xs))
        if not lp.closed:
            for end, nxt in ((sq[0], sq[1:2]), (sq[-1], sq[-2:-1])):
                assert all(not inside(*n) for n in links(end) if n not in nxt)


@pytest.mark.parametrize("region, expected", [
    ((1, 4, 0, 3), [([(1, 0), (2, 0), (3, 0)], False), ([(1, 2)], False)]),
    ((4, 7, 4, 7), [([(6, 4), (5, 4), (4, 4), (4, 5), (4, 6)], False),
                    ([(5, 5), (5, 6), (6, 6), (6, 5)], True)]),
])
def test_offset_region_tracing_2_5(region, expected):
    tiling = build_tiling(EvenRational(2, 5), *region)
    loops = trace_polygons(tiling)
    assert [(lp.squares, lp.closed) for lp in loops] == expected
    assert_traced(tiling, loops)


@settings(max_examples=60, deadline=None)
@given(r=even_rational(31), x0=ORIGINS, y0=ORIGINS,
       w=st.integers(0, 64), h=st.integers(0, 32))
def test_offset_regions_trace_every_square_once(r, x0, y0, w, h):
    tiling = build_tiling(r, x0, x0 + w, y0, y0 + h)
    assert_traced(tiling, trace_polygons(tiling))


def test_connector_mismatch_names_the_global_square():
    tiling = build_tiling(EvenRational(2, 5), 4, 7, 4, 7)
    tiling.tiles[1, 1] = 0  # square (5, 5) drops out of its closed loop
    with pytest.raises(CoherenceError, match=r"entering \(5,5\)"):
        trace_polygons(tiling)


def test_walk_rejects_a_square_without_a_unique_exit():
    # entered through W, the square (1, 0) offers both N and E as exits
    bits = {(1, 0): W | N | E}
    with pytest.raises(CoherenceError, match=r"\(1,0\) lacks a unique exit"):
        list(walk(lambda a, b: bits.get((a, b)), (0, 0), E))
