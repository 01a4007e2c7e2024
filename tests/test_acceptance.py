"""Acceptance criteria, one test per criterion, each at its stated scale.

Every check is exact (integer or exact-field arithmetic; tolerance zero).
Each test prints a single summary line; run pytest with -s to see them
inline, or -v for the per-test verdicts.
"""

import random
from fractions import Fraction

from plaid.checks import (check_coherence, check_copy, check_hier,
                          check_main, check_omnibus, check_pet, even_rationals)
from plaid.copying import (eta, observed_branch, verify_box_lemma,
                           verify_copy_theorem)
from plaid.exactnum import QuadRat, QuadraticTarget, floor_exact, mod_interval
from plaid.numtheory import (EvenRational, approximating_sequence,
                             diophantine_check, predecessor_chain)
from plaid.pet import classify, follow, limit_experiment
from plaid.tiling import big_polygon

GOLDEN = QuadraticTarget(QuadRat(-1, 1, 2, 5))  # (sqrt(5) - 1) / 2

_big_polygon_cache = {}


def cached_big_polygon(r):
    if r not in _big_polygon_cache:
        _big_polygon_cache[r] = big_polygon(r)
    return _big_polygon_cache[r]


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""), flush=True)
    assert ok, f"{name}: {detail}"


def sweep(check, max_omega, start=3):
    bad = []
    for r in even_rationals(max_omega, start=start):
        ok, detail = check(r)
        if not ok:
            bad.append((str(r), detail))
    return bad


def test_criterion_01_coherence():
    """Every unit square of the fundamental domain has 0 or 2 good edges."""
    bad = sweep(check_coherence, 60)
    report("1 coherence (omega<=60)", not bad, "; ".join(map(str, bad[:3])))


def test_criterion_02_hier():
    """Every capacity-k line carries exactly k light points per block."""
    bad = sweep(check_hier, 80)
    report("2 light-count hierarchy (omega<=80)", not bad,
           "; ".join(map(str, bad[:3])))


def test_criterion_03_first():
    """Big polygon: x-diameter bound and bilateral symmetry, omega <= 80."""
    bad = []
    for r in even_rationals(80):
        try:
            cached_big_polygon(r)
        except AssertionError as exc:
            bad.append((str(r), str(exc)))
    report("3 big polygon (omega<=80)", not bad, "; ".join(map(str, bad[:3])))


def test_criterion_04_omnibus():
    """The seven predecessor identities for every p > 1, omega <= 500."""
    bad = sweep(check_omnibus, 500)
    report("4 predecessor identities (omega<=500)", not bad,
           "; ".join(map(str, bad[:3])))


def test_criterion_05_main_and_barrier():
    """(2k+1)(omega-2tau) + 2tau_hat = omega and barrier capacity 4k+2."""
    bad = sweep(check_main, 300)
    report("5 height identity + barrier capacity (omega<=300)", not bad,
           "; ".join(map(str, bad[:3])))


def test_criterion_06_box_lemma():
    """Gamma meets its box in a single arc with two right-edge crossings."""
    bad = []
    for r in even_rationals(60):
        rep = verify_box_lemma(r, cached_big_polygon(r))
        if not rep.ok:
            bad.append((str(r), f"crossings={rep.crossings}"))
    report("6 box lemma (omega<=60)", not bad, "; ".join(map(str, bad[:3])))


def test_criterion_07_copy_lemmas():
    """Tile-exact copying for every predecessor pair with omega <= 120."""
    bad = sweep(check_copy, 120)
    report("7 weak/strong/core copy lemmas (omega<=120)", not bad,
           "; ".join(map(str, bad[:3])))


def test_criterion_08_copy_theorem():
    """Arc containment with the line-mapping clause for chain pairs, omega <= 120."""
    bad = []
    pairs = set()
    for r in even_rationals(120):
        chain = predecessor_chain(r)
        terms = chain.approximating_terms()
        for a, b in zip(terms, terms[1:]):
            if not a.is_zero:
                pairs.add((a, b))
    figure_chain = [EvenRational(1, 2), EvenRational(2, 5),
                    EvenRational(5, 12), EvenRational(12, 29)]
    for a, b in zip(figure_chain, figure_chain[1:]):
        assert (a, b) in pairs
    for a, b in sorted(pairs, key=lambda ab: (ab[1].omega, ab[1].p, ab[0].omega)):
        rep = verify_copy_theorem(a, b, cached_big_polygon(a),
                                  cached_big_polygon(b))
        if not rep.ok:
            bad.append((f"{a}->{b}", rep.branch))
    report("8 copy theorem (chain pairs, omega<=120)", not bad,
           f"{len(pairs)} pairs" if not bad else "; ".join(map(str, bad[:3])))


def test_criterion_09_pet_consistency():
    """Dense and scalar first-block tiles agree (omega <= 40); conjugacies on
    10^4 points."""
    bad = sweep(check_pet, 40)
    rng = random.Random(20260810)
    shifts = {"S": (0, -1), "N": (0, 1), "E": (1, 0), "W": (-1, 0)}
    params = [Fraction(2 * p, p + q) for p, q in
              ((1, 2), (5, 12), (7, 18), (12, 29))] + [GOLDEN.big_p()]
    checked = 0
    for i in range(10_000):
        P = params[i % len(params)]
        x = Fraction(rng.randint(-10 ** 6, 10 ** 6),
                     rng.choice((1, 2, 3, 17, 41)))
        y = Fraction(rng.randint(-10 ** 6, 10 ** 6),
                     rng.choice((1, 2, 5, 25)))
        pt = classify(P, x, y)
        d = rng.choice("SNEW")
        dx, dy = shifts[d]
        if follow(d, pt) != classify(P, x + dx, y + dy):
            bad.append((str(P), str((x, y)), d))
            break
        checked += 1
    report("9 PET consistency (omega<=40; 10^4 conjugacy points)",
           not bad and checked == 10_000, "; ".join(map(str, bad[:3])))


def test_criterion_10_geodesic():
    """Developed half-integer column images are collinear of slope -1."""
    bad = []
    rationals = [EvenRational(*pq).big_p for pq in
                 ((1, 2), (2, 5), (5, 12), (3, 8), (7, 18), (12, 29),
                  (5, 18), (14, 31), (4, 11), (9, 16))]
    quadratics = [GOLDEN.big_p(), (QuadRat(0, 1, 2, 2) * 2) / (QuadRat(0, 1, 2, 2) + 1)]
    half = Fraction(1, 2)
    for P in rationals + quadratics:
        sums = {0: None, 1: None}  # one developed line per parity class
        for m in range(-1000, 1001):
            x, y = half, m + half
            T = 2 * P * x + 2 * y
            U1 = 2 * P * x
            U2 = 2 * P * x + 2 * P * y
            k = floor_exact((T + 2) / 4 if isinstance(T, QuadRat)
                            else Fraction(T + 2, 4))
            u1d, u2d = U1 - 2 * P * k, U2 - 2 * P * k
            s = u1d + u2d  # slope -1 collinearity: the sum is constant
            parity = m % 2
            if sums[parity] is None:
                sums[parity] = s
            elif sums[parity] != s:
                bad.append((str(P), m))
                break
    report("10 geodesic development, |m| <= 1000", not bad,
           "; ".join(map(str, bad[:2])))


def _golden_terms(depth):
    q_max = 10
    while True:
        chain = approximating_sequence(GOLDEN, q_max)
        terms = chain.approximating_terms(include_target=False)
        if len(terms) >= depth + 1:
            return terms[:depth + 1], chain
        q_max *= 4


def test_criterion_11_adapt_and_diophantine():
    """Translation-length decay along a golden chain of depth >= 8."""
    depth = 8
    terms, chain = _golden_terms(depth)
    P = GOLDEN.big_p()
    deltas, ds = [], []
    for r0, r1 in zip(terms, terms[1:]):
        branch, t = observed_branch(r0, r1)
        d = r1.omega - r0.omega - 2 * t
        assert d in (eta(r1) - eta(r0), eta(r1) + eta(r0))
        ds.append(d)
        deltas.append(abs(mod_interval(P * d, 2, -1)))
    # exact bound from the approximation estimates: |[P d_k]_2| < 196/omega
    # with omega the smaller term of the pair
    bound_ok = all(delta * r0.omega < 196
                   for delta, r0 in zip(deltas, terms))
    monotone = all(a > b for a, b in zip(deltas, deltas[1:]))
    constants = [f"{float(d) * r.omega:.2f}" for d, r in zip(deltas, terms)]
    dio = diophantine_check(GOLDEN, chain)
    report("11 translation-length decay + Diophantine bound (depth 8)",
           bound_ok and monotone and dio.all_ok,
           f"|[P d]|*omega = {constants}")


def test_criterion_12_limit_stabilization():
    """Window-10 tilings recentred along the chain stabilize, 4 prefixes."""
    bad = []
    thresholds = {}
    for prefix in ((0,), (1,), (0, 1), (1, 1)):
        rep = limit_experiment(GOLDEN, prefix, window=10, depth=7)
        if rep.stable_from is None:
            bad.append(prefix)
        thresholds[prefix] = rep.stable_from
    report("12 limit stabilization (window 10, 4 prefixes)", not bad,
           f"thresholds={thresholds}")
