from fractions import Fraction

import pytest

from plaid.checks import even_rationals
from plaid.grid import (cap_scaled, classify_point, f_value, mass_scaled,
                        vertical_lemma_check, vertical_partner_intercept)
from plaid.numtheory import EvenRational, tune


R512 = EvenRational(5, 12)


def test_f_value_examples():
    # capacity of the vertical line x = 5 at parameter 5/12
    assert f_value("V", R512, (5, 0)) == -2
    # mass of the slanting lines through (0, 5)
    assert f_value("P-", R512, (0, 5)) == -1
    assert f_value("Q-", R512, (0, 5)) == -1
    # block boundaries carry value 0
    for k in (0, 1, -2):
        assert f_value("H", R512, (0, 17 * k)) == 0


def test_f_value_precision_error():
    with pytest.raises(ValueError):
        f_value("H", R512, (0, Fraction(1, 3)))


def test_f_value_matches_scaled_tables():
    for r in (R512, EvenRational(2, 5), EvenRational(7, 18)):
        for n in range(-3, 2 * r.omega):
            assert f_value("V", r, (n, 0)) == cap_scaled(r, n)
            assert f_value("H", r, (0, n)) == cap_scaled(r, n)
            assert f_value("P-", r, (0, n)) == mass_scaled(r, n)
            m = mass_scaled(r, n)
            assert f_value("P+", r, (0, n)) == (m if m == r.omega else -m)


def test_capacity_mass_parity_and_range():
    for r in even_rationals(200):
        om = r.omega
        for n in range(om):
            c = cap_scaled(r, n)
            assert c % 2 == 0 and -om < c < om
            m = mass_scaled(r, n)
            assert m % 2 == 1 and -om < m <= om
            assert (abs(m) == om) == (n % om == 0)
        # anchors: capacity 2k at +-k*tau, mass m at intercepts +-m*tau (odd m)
        t = tune(r).tau
        for k in range((om + 1) // 2):
            assert abs(cap_scaled(r, k * t % om)) == abs(cap_scaled(r, -k * t % om)) == 2 * k
        for m in range(1, om, 2):
            assert abs(mass_scaled(r, m * t % om)) == abs(mass_scaled(r, -m * t % om)) == m


def test_classify_point_examples():
    # the corner point (0, tau) on the positive capacity-2 horizontal line
    t = tune(R512)
    y_plus = t.tau if t.sign_choice > 0 else 17 - t.tau
    pt = classify_point(R512, 0, y_plus)
    assert pt.shade == "light"
    assert pt.point_type == "both"  # y-axis corners lie on a P- and a Q- line
    assert not pt.double_counted
    # block-boundary horizontal line: capacity 0, everything dark
    pt = classify_point(R512, Fraction(17, 10), 0)
    assert pt.shade == "dark"


def test_classify_point_rejects_non_intersections():
    with pytest.raises(ValueError):
        classify_point(R512, Fraction(1, 3), 1)


def test_light_midpoints_are_double_counted():
    # midpoint light points are triple intersections and count twice
    found = 0
    for r in even_rationals(20):
        om = r.omega
        for y0 in range(om):
            for u in range(1, 2 * om, 2):
                x = Fraction(om * u, 2)
                pt = classify_point(r, x, y0)
                assert pt.point_type == "both"
                if pt.shade == "light":
                    assert pt.double_counted
                    found += 1
    assert found > 20


def test_vertical_lemma_exhaustive():
    # sign criterion, partner identity and inert dichotomy at all vertical
    # intersections (one period of intercepts suffices)
    for r in even_rationals(40):
        om = r.omega
        for x0 in range(1, om):
            for j in range(om):
                assert vertical_lemma_check(r, x0, j, "P-")
                assert vertical_lemma_check(r, x0, j, "Q-")


def test_vertical_lemma_inert_boundary_branch():
    # a block corner sits on two inert slanting lines at once
    for r in (R512, EvenRational(2, 5)):
        om = r.omega
        assert vertical_lemma_check(r, om, om, "P-")
        assert vertical_lemma_check(r, om, om, "Q-")


def test_vertical_partner_identity_key():
    # F(P-) + F(Q+) = F(V) as scaled values mod 2*omega, exhaustively
    for r in even_rationals(80):
        om = r.omega
        for x0 in range(1, om):
            C = cap_scaled(r, x0)
            for j in range(om):
                _, pj = vertical_partner_intercept(x0, j, "P-")
                assert (mass_scaled(r, j) - mass_scaled(r, pj)) % (2 * om) \
                    == C % (2 * om)


def test_lattice_invariance():
    # all adapted functions are invariant under (omega^2, 0) and (0, omega)
    r = EvenRational(2, 5)
    om = r.omega
    pts = [(Fraction(1, 2), 3), (2, Fraction(9, 7)), (0, 1)]
    for fam in ("H", "V", "P-", "Q-", "P+", "Q+"):
        for x, y in pts:
            try:
                base = f_value(fam, r, (x, y))
            except ValueError:
                continue
            assert f_value(fam, r, (x + om * om, y)) == base
            assert f_value(fam, r, (x, y + om)) == base
