from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from plaid.checks import even_rationals
from plaid.exactnum import QuadRat, QuadraticTarget
from plaid.numtheory import (ZERO, EvenRational, approximating_sequence,
                             core_predecessor, diophantine_check,
                             even_predecessor, kappa, main_identity,
                             pair_kind, predecessor, predecessor_chain,
                             stern_brocot_path, theta, tune, verify_omnibus)


def brute_tune(r):
    """Independent oracle: scan every candidate in (0, omega/2)."""
    om = r.omega
    hits = [(t, s) for t in range(1, (om + 1) // 2)
            for s in (1, -1) if (2 * r.p * t - s) % om == 0]
    assert len(hits) == 1
    return hits[0]


def brute_even_predecessor(r):
    """Oracle: the unique even rational Farey-related to r with smaller omega.

    Scans every denominator below q and solves the Farey relation for the
    numerator, so it shares nothing with the tune-based construction.
    """
    hits = []
    for q in range(1, r.q + 1):
        for s in (1, -1):
            if (q * r.p + s) % r.q:
                continue
            p = (q * r.p + s) // r.q
            if 0 <= p <= q and gcd(p, q) == 1 and p * q % 2 == 0 \
                    and p + q < r.omega and abs(p * r.q - q * r.p) == 1:
                if EvenRational(p, q) not in hits:
                    hits.append(EvenRational(p, q))
    assert len(hits) == 1, (str(r), hits)
    return hits[0]


def test_validation():
    with pytest.raises(ValueError):
        EvenRational(3, 5)  # odd rational
    with pytest.raises(ValueError):
        EvenRational(2, 4)  # not reduced
    with pytest.raises(ValueError):
        EvenRational(5, 3)  # not in (0, 1)
    assert EvenRational.parse("5/12").omega == 17


def test_tune_examples():
    assert tune(EvenRational(1, 2)).tau == 1
    assert tune(EvenRational(5, 12)).tau == 5
    assert tune(EvenRational(12, 29)).tau == 12


def test_tune_against_oracle():
    for r in even_rationals(120):
        t = tune(r)
        bt, bs = brute_tune(r)
        assert (t.tau, t.sign_choice) == (bt, bs)


def test_kappa_examples():
    assert kappa(EvenRational(5, 12)).kappa == 0
    assert kappa(EvenRational(7, 18)).kappa == 1
    assert kappa(EvenRational(1, 2)).kappa == 1  # left-inclusive bracketing


def test_kappa_bracket_property():
    for r in even_rationals(160):
        k = kappa(r).kappa
        t, om = tune(r).tau, r.omega
        assert Fraction(k, 2 * k + 1) <= Fraction(t, om) < Fraction(k + 1, 2 * k + 3)
        if Fraction(k, 2 * k + 1) == Fraction(t, om):
            assert r.p == 1  # left equality only for 1/2n


def test_theta_values():
    assert theta(EvenRational(12, 29)) == 7   # 288 = 7*41 + 1
    assert theta(EvenRational(5, 12)) == 3    # 50 = 3*17 - 1
    assert theta(EvenRational(7, 18)) == 5    # 126 = 5*25 + 1


@st.composite
def even_rational(draw, max_omega):
    om = 2 * draw(st.integers(1, (max_omega - 1) // 2)) + 1
    p = draw(st.integers(1, om // 2))
    assume(gcd(p, om) == 1)
    return EvenRational(p, om - p)


@settings(max_examples=300, deadline=None)
@given(r=even_rational(10 ** 12))
def test_theta_and_even_predecessor_identities(r):
    # theta and even_predecessor state these identities without checking them
    t = tune(r)
    th = theta(r)
    assert th % 2 == 1 and 2 * r.p * t.tau == th * r.omega + t.sign_choice
    prev = even_predecessor(r)
    assert prev.omega == r.omega - 2 * t.tau
    assert prev.p * r.q - prev.q * r.p == t.sign_choice


def test_approximating_sequence_minimal_qmax():
    ch = approximating_sequence(GOLDEN, 2)
    assert [str(t) for t in ch.terms] == ["0/1", "1/2"]
    with pytest.raises(ValueError):
        approximating_sequence(GOLDEN, 1)


def test_even_predecessor_examples():
    assert even_predecessor(EvenRational(12, 29)) == EvenRational(5, 12)
    assert even_predecessor(EvenRational(5, 12)) == EvenRational(2, 5)
    assert even_predecessor(EvenRational(7, 18)) == EvenRational(2, 5)
    assert even_predecessor(EvenRational(1, 4)) == ZERO


def test_even_predecessor_against_oracle():
    # uniqueness and correctness of the Farey descent, omega <= 120
    for r in even_rationals(120):
        assert even_predecessor(r) == brute_even_predecessor(r)


def test_omega_drop_identity():
    # the tests' shared parameter enumerator, pinned by its counts
    assert sum(1 for _ in even_rationals(121)) == 1510
    assert sum(1 for _ in even_rationals(401)) == 16382
    # omega' = omega - 2*tau for every even-predecessor step
    for r in even_rationals(500):
        assert even_predecessor(r).omega == r.omega - 2 * tune(r).tau


def test_strong_iff_omega_halves():
    # 2*omega' < omega exactly when tau > omega/4
    for r in even_rationals(500):
        omp = even_predecessor(r).omega
        assert (2 * omp < r.omega) == (4 * tune(r).tau > r.omega)


def test_core_predecessor_examples():
    assert core_predecessor(EvenRational(7, 18)) == EvenRational(3, 8)
    assert core_predecessor(EvenRational(5, 12)) == EvenRational(5, 12)
    assert core_predecessor(EvenRational(2, 5)) == EvenRational(2, 5)


def test_chain_examples():
    ch = predecessor_chain(EvenRational(12, 29))
    assert [str(t) for t in ch.terms] == ["0/1", "1/2", "2/5", "5/12", "12/29"]
    assert ch.kinds == ("unit", "strong", "strong", "strong")
    ch = predecessor_chain(EvenRational(7, 18))
    assert [str(t) for t in ch.terms] == ["0/1", "1/2", "2/5", "3/8", "7/18"]
    assert ch.kinds[-1] == "core"
    ch = predecessor_chain(EvenRational(1, 2))
    assert [str(t) for t in ch.terms] == ["0/1", "1/2"]


def test_chain_terminates_and_no_double_core():
    for r in even_rationals(200):
        ch = predecessor_chain(r)
        assert len(ch.terms) <= r.omega + 1
        assert ch.terms[0] == ZERO
        for a, b in zip(ch.kinds, ch.kinds[1:]):
            assert not (a == b == "core")


def test_core_terms_followed_by_shared_even_predecessor():
    # a core step r_hat < r is immediately preceded by even_predecessor(r)
    for r in even_rationals(200):
        ch = predecessor_chain(r)
        for k, kind in enumerate(ch.kinds):
            if kind == "core":
                r_k = ch.terms[k + 1]
                assert ch.terms[k] == core_predecessor(r_k)
                if k >= 1:
                    assert ch.terms[k - 1] == even_predecessor(r_k)
                    assert ch.terms[k - 1] == even_predecessor(ch.terms[k])


def test_omnibus_examples():
    rep = verify_omnibus(EvenRational(7, 18))
    assert rep.all_ok
    assert rep.details["s2"] == "tau-tau'=kappa*omega'"  # 9 - 2 == 1 * 7
    rep = verify_omnibus(EvenRational(5, 12))
    assert rep.all_ok  # tau > omega/4 branch: tau' = omega' - tau = 2
    assert tune(EvenRational(2, 5)).tau == 2
    rep = verify_omnibus(EvenRational(12, 29))
    assert rep.all_ok
    with pytest.raises(ValueError):
        verify_omnibus(EvenRational(1, 2))


def test_statement8_reported_separately():
    seen = 0
    for r in even_rationals(160):
        if r.p <= 1:
            continue
        rep = verify_omnibus(r)
        if rep.statement8 is not None:
            assert rep.statement8 is True
            seen += 1
    assert seen > 10


def test_main_identity_examples():
    r = EvenRational(7, 18)  # 3*7 + 2*2 == 25
    assert main_identity(r)
    assert main_identity(EvenRational(5, 12))  # vacuous


GOLDEN = QuadraticTarget(QuadRat(-1, 1, 2, 5))


def test_stern_brocot_walk():
    path = stern_brocot_path(GOLDEN, 50)
    assert [str(t) for t in path[:4]] == ["1/2", "2/3", "5/8", "8/13"]
    assert stern_brocot_path(GOLDEN, 2)[-1] == EvenRational(1, 2)


def test_approximating_sequence_prefix_stability():
    prev = None
    for q_max in (5, 13, 34, 89, 233, 610):
        ch = approximating_sequence(GOLDEN, q_max)
        terms = ch.approximating_terms(include_target=False)
        if prev is not None:
            assert terms[:len(prev)] == prev
        prev = terms
    assert [str(t) for t in prev[:3]] == ["2/3", "8/13", "34/55"]


def test_diophantine_bounds_golden():
    ch = approximating_sequence(GOLDEN, 1000)
    rep = diophantine_check(GOLDEN, ch)
    assert rep.all_ok
    covered = [e for e in rep.entries if e["covered"]]
    assert len(covered) >= 4
    uncovered = [e for e in rep.entries if not e["covered"]]
    assert all(e["bound_ok"] is None for e in uncovered)


def test_perturbed_rational_target_prefix():
    # a target just above 2/5 starts its walk 1/2, then descends to 2/5, and
    # the resulting chain prefix is [0/1, 1/2, 2/5]
    a = QuadRat(2, 0, 5) + QuadRat(0, 1, 10 ** 6, 2)
    t = QuadraticTarget(a)
    path = stern_brocot_path(t, 5)
    assert EvenRational(2, 5) in path and EvenRational(1, 2) in path
    chain = approximating_sequence(t, 5)
    assert [str(x) for x in chain.terms] == ["0/1", "1/2", "2/5"]


def test_predecessor_dispatch():
    assert predecessor(EvenRational(1, 8)) == ZERO
    assert predecessor(EvenRational(5, 12)) == EvenRational(2, 5)
    assert predecessor(EvenRational(7, 18)) == EvenRational(3, 8)
    assert pair_kind(EvenRational(2, 5)) == "strong"
