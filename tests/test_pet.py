import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plaid import pet
from plaid.checks import even_rationals
from plaid.exactnum import QuadRat, QuadraticTarget
from plaid.numtheory import EvenRational, approximating_sequence, tune
from plaid.pet import (OrbitResult, _center_scaled, _reduce_scaled, classify,
                       classify_raw, follow, limit_experiment, orbit,
                       reconstruct_fiber_grid, reduce_point)
from plaid.tiling import (_MAX_OMEGA, EDGE_NAMES, big_polygon,
                          first_block_tiling, scalar_oracle, trace_polygons,
                          walk)


GOLDEN = QuadraticTarget(QuadRat(-1, 1, 2, 5))


def test_classify_examples():
    P = Fraction(10, 17)
    pt = classify(P, 0, 0)
    assert pt.coords() == (0, 0, 0)
    # the half-integer center display: (P, P+1, P, 2P) before reduction
    raw = classify_raw(P, Fraction(1, 2), Fraction(1, 2))
    assert raw == (P + 1, P, 2 * P)
    assert classify(P, Fraction(1, 2), Fraction(1, 2)) == reduce_point(
        P, P + 1, P, 2 * P)


def test_reduction_idempotent_and_generator_invariant():
    rng = random.Random(5)
    P = Fraction(4, 7)
    for _ in range(200):
        T = Fraction(rng.randint(-200, 200), rng.randint(1, 9))
        U1 = Fraction(rng.randint(-200, 200), rng.randint(1, 9))
        U2 = Fraction(rng.randint(-200, 200), rng.randint(1, 9))
        pt = reduce_point(P, T, U1, U2)
        assert -2 <= pt.T < 2 and -1 <= pt.U1 < 1 and -1 <= pt.U2 < 1
        assert reduce_point(P, *pt.coords()) == pt
        assert reduce_point(P, T + 4, U1 + 2 * P, U2 + 2 * P) == pt
        assert reduce_point(P, T, U1 + 2, U2 - 2) == pt


def test_conjugacy_identities():
    # translation dynamics conjugate the four unit shifts, exactly
    rng = random.Random(9)
    P = Fraction(10, 17)
    shifts = {"S": (0, -1), "N": (0, 1), "E": (1, 0), "W": (-1, 0)}
    for _ in range(100):
        x = Fraction(rng.randint(-300, 300), rng.choice((1, 2, 17)))
        y = Fraction(rng.randint(-300, 300), rng.choice((1, 2, 17)))
        pt = classify(P, x, y)
        for d, (dx, dy) in shifts.items():
            assert follow(d, pt) == classify(P, x + dx, y + dy)
        assert follow("N", follow("S", pt)) == pt
        assert follow("W", follow("E", pt)) == pt


def test_conjugacy_quadratic_parameter():
    P = GOLDEN.big_p()
    pt = classify(P, Fraction(1, 2), Fraction(5, 2))
    assert follow("S", pt) == classify(P, Fraction(1, 2), Fraction(3, 2))
    assert follow("E", pt) == classify(P, Fraction(3, 2), Fraction(5, 2))


@cache
def _fraction_center(P, a, b):
    return classify(P, Fraction(2 * a + 1, 2), Fraction(2 * b + 1, 2))


_oracle = cache(scalar_oracle)
_cached_follow = cache(follow)


def _fraction_orbit(r, c0, max_steps=None):
    """The orbit with its classifying state held as Fractions and checked
    against the classifying map at every step: the reference for the steps
    of `orbit`.  The classifying map and the translations are pure and
    cached across calls, since the orbits from the squares of one loop
    repeat the same steps; the scalar oracle is built once per parameter."""
    P = r.big_p
    bits_at = _oracle(r)
    a0, b0 = c0
    bits = bits_at(a0, b0)
    pt = _fraction_center(P, a0, b0)
    if bits == 0:
        assert _cached_follow("empty", pt) == pt
        return OrbitResult(c0, [], True, 0)
    if max_steps is None:
        max_steps = 4 * r.omega ** 2
    steps = []
    connectors = walk(bits_at, c0, bits & -bits)
    for _, (edge, (a, b)) in zip(range(max_steps), connectors):
        pt = _cached_follow(EDGE_NAMES[edge], pt)
        assert pt == _fraction_center(P, a, b), (a, b)
        steps.append({"dir": EDGE_NAMES[edge], "square": (a, b)})
        if (a, b) == (a0, b0):
            return OrbitResult(c0, steps, True, len(steps))
    return OrbitResult(c0, steps, False, None, truncated=True,
                       reason="max_steps reached")


def scaled(om, pt):
    return tuple(om * c for c in pt.coords())


@settings(max_examples=200, deadline=None)
@given(om=st.integers(1, 10 ** 6), data=st.data(),
       a=st.integers(-10 ** 12, 10 ** 12), b=st.integers(-10 ** 12, 10 ** 12),
       state=st.tuples(*[st.integers(-10 ** 18, 10 ** 18)] * 3))
def test_scaled_state_matches_fraction_maps(om, data, a, b, state):
    # at P = 2p/om the integer state is om times the Fraction state: the
    # center of every square, and any reduction
    p = data.draw(st.integers(1, max(1, om - 1)))
    P = Fraction(2 * p, om)
    pt = classify(P, Fraction(2 * a + 1, 2), Fraction(2 * b + 1, 2))
    assert _center_scaled(om, p, a, b) == scaled(om, pt)
    assert (_reduce_scaled(om, p, *state)
            == scaled(om, reduce_point(P, *(Fraction(c, om) for c in state))))


def test_orbit_matches_fraction_orbit_on_every_square():
    for r in even_rationals(15):
        for a in range(r.omega):
            for b in range(r.omega):
                for max_steps in (None, 0, 3):
                    assert (orbit(r, (a, b), max_steps)
                            == _fraction_orbit(r, (a, b), max_steps)), (r, a, b)


def test_orbit_examples():
    r = EvenRational(1, 2)
    tiling = first_block_tiling(r)
    loops = trace_polygons(tiling)
    big = max(loops, key=len)
    res = orbit(r, big.squares[0])
    assert res.closed and res.period == len(big)
    assert set(res.squares()) == big.center_set()
    # empty square: fixed point of the identity piece
    empties = [(a, b) for a in range(3) for b in range(3)
               if not tiling.tile_bits(a, b)]
    res = orbit(r, empties[0])
    assert res.closed and res.period == 0


def test_orbit_5_12_reproduces_big_polygon():
    r = EvenRational(5, 12)
    g = big_polygon(r)
    t = tune(r)
    y_plus = t.tau if t.sign_choice > 0 else r.omega - t.tau
    res = orbit(r, (0, y_plus))
    assert res.closed and res.period == len(g)
    assert set(res.squares()) == g.center_set()


def test_orbit_max_steps_truncates():
    r = EvenRational(5, 12)
    res = orbit(r, (0, 5), max_steps=3)
    assert [s["dir"] for s in res.steps] == ["N", "E", "E"]
    assert res.squares() == [(0, 5), (0, 6), (1, 6), (2, 6)]
    assert res.truncated and not res.closed and res.period is None
    assert res.reason == "max_steps reached"
    period = orbit(r, (0, 5)).period
    assert orbit(r, (0, 5), max_steps=period).closed
    assert orbit(r, (0, 5), max_steps=period - 1).truncated


def test_fiber_grid_2_5():
    r = EvenRational(2, 5)
    rep = reconstruct_fiber_grid(r, r.big_p + 1)
    assert rep.grid_ok
    assert len(rep.u1_cells) == 4 and len(rep.u2_cells) == 4
    labels = [l for row in rep.labels for l in row]
    assert "empty" in labels
    # walls sit at exact rational coordinates (cell bounds are Fractions)
    for lo, hi in rep.u1_cells + rep.u2_cells:
        assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    # empty cells form a diagonal-adjacent pattern: one per row and column
    grid = rep.labels
    empty_cols = sorted(i for row in grid for i, l in enumerate(row)
                        if l == "empty")
    assert len(set(empty_cols)) >= 2


def test_fiber_grid_other_parameters():
    for pq, t_shift in (((1, 2), 1), ((3, 8), 1), ((2, 5), -1)):
        r = EvenRational(*pq)
        rep = reconstruct_fiber_grid(r, r.big_p + t_shift)
        assert rep.grid_ok, (pq, rep.reason)


def test_fiber_t_values_are_exactly_the_odd_scaled_ones():
    # the omega^2 x omega centres that reconstruct_fiber_grid reads reach
    # every odd omega*T in [-2 omega, 2 omega), and no other T
    for r in even_rationals(15):
        om, p = r.omega, r.p
        reached = {_center_scaled(om, p, a, b)[0]
                   for a in range(om * om) for b in range(om)}
        assert reached == set(range(1 - 2 * om, 2 * om, 2)), r


def test_center_scaled_is_injective_on_one_period():
    # the classifying map's period lattice is omega^2 Z x 2 omega Z, so the
    # omega^2 x omega centres that reconstruct_fiber_grid reads are
    # distinct points
    for r in even_rationals(15):
        om, p = r.omega, r.p
        period = [(a, b) for a in range(om * om) for b in range(2 * om)]
        centres = {_center_scaled(om, p, a, b) for a, b in period}
        assert len(centres) == len(period), r
        for a, b in period:
            assert (_center_scaled(om, p, a + om * om, b)
                    == _center_scaled(om, p, a, b + 2 * om)
                    == _center_scaled(om, p, a, b)), (r, a, b)


def test_fiber_rejects_t_without_centres():
    # at 2/5 (omega 7) a centre has 7*T odd in [-14, 14)
    r = EvenRational(2, 5)
    for t in (r.big_p, Fraction(1, 3), Fraction(7, 5), Fraction(15, 7),
              Fraction(-15, 7), Fraction(2)):
        with pytest.raises(ValueError, match="holds no square centre"):
            reconstruct_fiber_grid(r, t)
    # the ends of the range: -13/7 holds centres, 13/7 too
    assert reconstruct_fiber_grid(r, Fraction(-13, 7)).points
    assert reconstruct_fiber_grid(r, Fraction(13, 7)).points


def test_limit_experiment_prefixes_differ():
    rep0 = limit_experiment(GOLDEN, (0, 0), window=4, depth=4)
    rep1 = limit_experiment(GOLDEN, (1, 0), window=4, depth=4)
    assert rep0.stable_from is not None
    assert rep1.stable_from is not None
    assert rep0.anchors != rep1.anchors
    # deltas shrink along the chain
    mags = [abs(d) for d in rep0.deltas]
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_limit_experiment_terms_stay_below_int64_guard(monkeypatch):
    # the probes raise at omega >= 2**31; every chain whose terms the
    # experiment can keep comes from q_max <= 64 * 4**10 = 2**26, and its
    # terms have p < q <= q_max, so omega < 2**27
    seen = []

    def recording(target, q_max):
        chain = approximating_sequence(target, q_max)
        seen.append((q_max, max(t.omega for t in chain.terms)))
        return chain

    monkeypatch.setattr(pet, "approximating_sequence", recording)
    with pytest.raises(ValueError, match="unreachable"):
        limit_experiment(GOLDEN, (), depth=10 ** 3)
    kept = seen[:-1]  # the raise drops the last chain
    assert kept[-1][0] == 2 ** 26
    assert all(om < 2 * q_max for q_max, om in seen)
    assert max(om for _, om in kept) < 2 ** 27 < _MAX_OMEGA


def test_limit_experiment_empty_prefix_baseline():
    # no branch choices: the window tracks the bottom anchor itself
    rep = limit_experiment(GOLDEN, (), window=4, depth=3)
    assert rep.stable_from is not None
    assert len(set(rep.anchors)) == 1
    assert 2 ** min(len(rep.deltas), 12) == len(rep.cluster)
