from fractions import Fraction

import pytest

from plaid.alignment import (Rect, RectanglePair, arithmetic_alignment,
                             classify_case, core_mass_audit,
                             geometric_alignment, matching, psi_xi_audit,
                             sigma_dimensions, special_indices)
from plaid.grid import cap_scaled, mass_scaled
from plaid.checks import even_rationals
from plaid.copying import (core_predecessor, even_predecessor, sigma_core,
                           sigma_weak_strong)
from plaid.numtheory import EvenRational, kappa, tune


R512 = EvenRational(5, 12)
R25 = EvenRational(2, 5)


def test_arithmetic_alignment_block_boundary():
    assert cap_scaled(R512, 5) == -2  # [4*5*5] mod 34 normalized
    # a left edge on the y-axis is allowed; a V line at a multiple of either
    # omega is not, whichever parameter is the small one
    assert arithmetic_alignment(R512, R512, RectanglePair(Rect(0, 5, 0, 17), 0))
    for a, b in ((R25, R512), (R512, R25)):
        with pytest.raises(ValueError, match="interior block boundary"):
            arithmetic_alignment(a, b, RectanglePair(Rect(0, 7, 0, 7), 0))


def test_special_indices_and_anchor():
    t = tune(R512).tau
    assert abs(mass_scaled(R512, t)) == 1  # the tune intercept has mass 1
    # intercepts -9..26 feed [0, 5] x [0, 17]: slopes lie in (-2, 2)
    assert special_indices(R512, Rect(0, 5, 0, 17)) == [0, 17]
    assert special_indices(R25, Rect(0, 5, 0, 17)) == [-7, 0, 7, 14, 21]


def test_arithmetic_alignment_identity_and_shift():
    assert arithmetic_alignment(R25, R25, RectanglePair(Rect(0, 2, 0, 7), 0))
    # the (2/5, 5/12) strong pair aligns at shift 0
    pair = sigma_weak_strong(R25, R512)
    assert arithmetic_alignment(R25, R512, pair)
    # deliberately shifting the masses misaligns them
    assert not arithmetic_alignment(R25, R512,
                                    RectanglePair(pair.sigma_prime, 1))


def test_arithmetic_alignment_compares_every_non_special_sign(monkeypatch):
    # flip the sign of one mass of the big side: an ordinary intercept
    # breaks the alignment, a special one is skipped
    pair = sigma_weak_strong(R25, R512)
    for j, expect in ((3, False), (0, True)):
        def flipped(r, i, j=j):
            m = mass_scaled(r, i)
            return -m if (r, i) == (R512, j) else m
        monkeypatch.setattr("plaid.alignment.mass_scaled", flipped)
        assert arithmetic_alignment(R25, R512, pair) is expect, j


def test_geometric_alignment_pairs():
    pair = sigma_weak_strong(R25, R512)
    bound = Fraction(2 * tune(R25).tau, 7 * 17)
    assert geometric_alignment(R25, R512, pair, bound)
    r = EvenRational(7, 18)
    hat = EvenRational(3, 8)
    pair = sigma_core(hat, r)
    assert pair.xi == 7
    bound = Fraction(4 * 1 * tune(hat).tau, 25 * 11)
    assert geometric_alignment(hat, r, pair, bound)
    # identity pair: trivial
    pair0 = RectanglePair(Rect(0, 2, 0, 7), 0)
    assert geometric_alignment(R25, R25, pair0, Fraction(0))


def test_matching_positive_cases():
    rep = matching(R25, R512, sigma_weak_strong(R25, R512))
    assert rep.predicates_hold and rep.tiles_equal and rep.consistent
    hat, r = EvenRational(3, 8), EvenRational(7, 18)
    pair = sigma_core(hat, r)
    bound = Fraction(4 * tune(hat).tau, 25 * 11)
    rep = matching(hat, r, pair, h_lines=(tune(hat).tau, tune(r).tau),
                   norm_bound=bound)
    assert rep.predicates_hold and rep.tiles_equal


def test_matching_negative_control():
    # an unrelated pair on matched rectangles: some predicate must fail, and
    # the report stays consistent (predicates imply tile equality)
    a, b = EvenRational(2, 7), EvenRational(5, 12)
    rep = matching(a, b, RectanglePair(Rect(0, 2, 0, 9), 0))
    assert not rep.predicates_hold
    assert rep.consistent


def test_case_classification_and_dimensions():
    assert classify_case(R25, R512) == 3
    w, h = sigma_dimensions(R25, R512)
    assert (w, h) == (2, 7)  # strong: the full box of 2/5
    # a weak pair: 5/12 <- 7/17? use chain: weak pairs have tau < omega/4
    weak_pairs = []
    for r in even_rationals(60, start=5):
        if r.p > 1 and kappa(r).kappa == 0 and 4 * tune(r).tau < r.omega:
            weak_pairs.append((even_predecessor(r), r))
    assert weak_pairs
    for prev, r in weak_pairs[:8]:
        case = classify_case(prev, r)
        assert case in (1, 2)
        w, h = sigma_dimensions(prev, r)
        tp, omp = tune(prev).tau, prev.omega
        assert w == min(tp, omp - 2 * tp)
        assert h == omp - w


def test_psi_xi_audit_examples():
    rep = psi_xi_audit(R25, R512)
    assert rep.case == 3 and rep.all_ok
    rep = psi_xi_audit(R512, EvenRational(12, 29))
    assert rep.case == 3 and rep.all_ok
    # lambda < 1/2 for strong pairs
    assert 2 * R25.omega < R512.omega


def test_psi_xi_audit_sweep():
    cases = set()
    for r in even_rationals(90, start=5):
        if r.p == 1 or kappa(r).kappa != 0:
            continue
        prev = even_predecessor(r)
        if prev.p < 1 or prev.is_zero:
            continue
        rep = psi_xi_audit(prev, r)
        cases.add(rep.case)
        assert rep.checks["capacity_signs"], (str(prev), str(r))
        assert rep.checks["mass_signs"], (str(prev), str(r))
        assert rep.checks["psi_global"], (str(prev), str(r))
        assert rep.checks["specials_harmless"], (str(prev), str(r))
        if rep.case in (2, 4):
            assert rep.checks["xi_unit_indices"], (str(prev), str(r))
            assert rep.checks["xi_unit_bound"], (str(prev), str(r))
            assert rep.checks["xi_global2"], (str(prev), str(r))
    assert cases == {1, 2, 3, 4}


def test_core_mass_audit_examples():
    hat, r = EvenRational(3, 8), EvenRational(7, 18)
    rep = core_mass_audit(hat, r)
    assert rep.all_ok
    # exact slope gap of the core estimate
    assert abs(r.big_p - hat.big_p) == Fraction(4, 25 * 11)


def test_core_mass_audit_sweep():
    # central-index sign agreement, peripheral mass step, barrier capacity
    # for every core pair with omega <= 200
    n = 0
    for r in even_rationals(200, start=5):
        if r.p > 1 and kappa(r).kappa >= 1:
            rep = core_mass_audit(core_predecessor(r), r)
            assert rep.all_ok, (str(r), rep.checks)
            n += 1
    assert n > 500


def test_alignment_predicates_all_even_pairs():
    # arithmetic + geometric alignment on the comparison rectangles for
    # every even-predecessor pair with kappa = 0, omega <= 200
    n = 0
    for r in even_rationals(200, start=5):
        if r.p == 1 or kappa(r).kappa != 0:
            continue
        prev = even_predecessor(r)
        pair = sigma_weak_strong(prev, r)
        assert arithmetic_alignment(prev, r, pair), (str(prev), str(r))
        bound = Fraction(2 * tune(prev).tau, prev.omega * r.omega)
        assert geometric_alignment(prev, r, pair, bound), (str(prev), str(r))
        n += 1
    assert n > 1000
