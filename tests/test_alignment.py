from fractions import Fraction

from plaid.alignment import (Rect, RectanglePair, arithmetic_alignment,
                             capacity_sequence, classify_case, core_mass_audit,
                             geometric_alignment, mass_sequence, matching,
                             psi_xi_audit, sequences, sigma_dimensions)
from plaid.checks import even_rationals
from plaid.copying import (core_predecessor, even_predecessor, sigma_core,
                           sigma_weak_strong)
from plaid.numtheory import EvenRational, kappa, tune


R512 = EvenRational(5, 12)
R25 = EvenRational(2, 5)


def test_capacity_sequence_example():
    seq = capacity_sequence(R512, Rect(0, 5, 0, 17))
    assert seq.lo == 1 and seq.hi == 5
    assert seq.values[5] == -2  # [4*5*5] mod 34 normalized


def test_mass_sequence_specials_and_anchor():
    t = tune(R512).tau
    seq = mass_sequence(R512, Rect(0, 5, 0, 17))
    assert abs(seq.values[t]) == 1  # the tune intercept has mass 1
    assert all(j % 17 == 0 for j in seq.specials)
    assert 0 in seq.specials


def test_arithmetic_alignment_identity_and_shift():
    cap, mass = sequences(R25, Rect(0, 2, 0, 7))
    assert arithmetic_alignment(cap, cap, 0)
    assert arithmetic_alignment(mass, mass, 0)
    # the (2/5, 5/12) strong pair aligns at shift 0
    pair = sigma_weak_strong(R25, R512)
    sp = pair.sigma_prime
    cap_s, mass_s = sequences(R25, sp)
    cap_b, mass_b = sequences(R512, sp, special_mod=7)
    assert arithmetic_alignment(cap_s, cap_b, 0)
    assert arithmetic_alignment(mass_s, mass_b, 0)
    # deliberately shifting the same data misaligns it
    big_rect = Rect(sp.x0, sp.x1, sp.y0 - 2, sp.y1 + 2)
    mass_b_wide = mass_sequence(R512, big_rect, special_mod=7)
    assert not arithmetic_alignment(mass_s, mass_b_wide, 1)


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
        sp = pair.sigma_prime
        cap_s, mass_s = sequences(prev, sp)
        cap_b, mass_b = sequences(r, sp, special_mod=prev.omega)
        assert arithmetic_alignment(cap_s, cap_b, 0), (str(prev), str(r))
        assert arithmetic_alignment(mass_s, mass_b, 0), (str(prev), str(r))
        bound = Fraction(2 * tune(prev).tau, prev.omega * r.omega)
        assert geometric_alignment(prev, r, pair, bound), (str(prev), str(r))
        n += 1
    assert n > 1000
