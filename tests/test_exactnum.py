import random
from fractions import Fraction
from math import floor, sqrt

import pytest

from plaid.exactnum import (CFTarget, PrecisionError, QuadRat, QuadraticTarget,
                            mod_interval, parse_irrational)


GOLDEN = QuadRat(-1, 1, 2, 5)  # (sqrt(5) - 1) / 2


def test_basic_arithmetic():
    a = QuadRat(1, 2, 3, 5)
    b = QuadRat(2, -1, 4, 5)
    assert (a + b) - b == a
    assert a * b / b == a
    assert a - a == 0
    assert (a / a) == 1


def test_square_radicand_folds_to_rational():
    x = QuadRat(1, 3, 2, 4)  # (1 + 3*2)/2
    assert x.is_rational and x == QuadRat.from_rational(Fraction(7, 2))


def test_comparisons_against_float_reference():
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9)
        d = rng.choice([2, 3, 5, 7])
        x = QuadRat(a, b, c, d)
        approx = (a + b * sqrt(d)) / c
        fr = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        if abs(approx - float(fr)) > 1e-6:
            assert (x < fr) == (approx < float(fr))


def test_floor_exact():
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = rng.randint(-50, 50), rng.randint(-20, 20), rng.randint(1, 12)
        d = rng.choice([2, 3, 5, 6, 7, 10])
        x = QuadRat(a, b, c, d)
        n = x.__floor__()
        assert n <= x < n + 1
        assert n == floor((a + b * sqrt(d)) / c)


def test_mod2_interval():
    assert mod_interval(Fraction(7, 2), 2, -1) == Fraction(-1, 2)
    assert mod_interval(Fraction(-1), 2, -1) == -1
    assert mod_interval(Fraction(1), 2, -1) == -1  # right-open interval
    x = GOLDEN * 16
    r = mod_interval(x, 2, -1)
    assert -1 <= r < 1 and ((x - r) / 2).is_rational


def test_mod_interval_fractions():
    assert mod_interval(Fraction(9, 4), 2, -1) == Fraction(1, 4)
    assert mod_interval(Fraction(-9, 4), 4, -2) == Fraction(7, 4)


def test_parse_specs():
    t = parse_irrational("quad:(-1,1,2,5)")
    assert isinstance(t, QuadraticTarget)
    assert 0 < t.value < 1
    c = parse_irrational("cf:[0;1,1,1,1,1,1,1,1]")
    assert isinstance(c, CFTarget)


def test_quadratic_target_validation():
    with pytest.raises(ValueError):
        QuadraticTarget(QuadRat(3, 0, 2))  # rational
    with pytest.raises(ValueError):
        QuadraticTarget(QuadRat(1, 1, 1, 2))  # > 1


def test_golden_target_comparisons():
    t = QuadraticTarget(GOLDEN)
    assert t.cmp_fraction(Fraction(1, 2)) > 0
    assert t.cmp_fraction(Fraction(2, 3)) < 0
    assert t.cmp_fraction(Fraction(8, 13)) > 0
    d = t.abs_diff(Fraction(2, 3))
    assert 0 < d < Fraction(1, 12)


def test_cf_target_certified_window():
    t = CFTarget([0, 1, 1, 1, 1, 1])  # golden prefix: bracket (3/5, 5/8)
    assert t.lo == Fraction(3, 5) and t.hi == Fraction(5, 8)
    assert t.cmp_fraction(Fraction(1, 2)) > 0
    assert t.cmp_fraction(Fraction(3, 4)) < 0
    assert t.cmp_fraction(Fraction(3, 5)) > 0
    assert t.cmp_fraction(Fraction(5, 8)) < 0
    with pytest.raises(PrecisionError):
        t.cmp_fraction(Fraction(61, 100))  # inside the open bracket
