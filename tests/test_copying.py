from itertools import combinations
from types import SimpleNamespace

import pytest

from plaid import copying
from plaid.alignment import Rect
from plaid.checks import even_rationals
from plaid.copying import (align, box_r, box_width_by_scan,
                           capacity_two_lines, chain_translations,
                           comparison_pair, connecting_chain, eta,
                           even_predecessor, observed_branch, omni2_check,
                           realize_tree, sigma_core, sigma_weak_strong,
                           translation_candidates, verify_box_lemma,
                           verify_copy, verify_copy_theorem)
from plaid.exactnum import QuadRat, QuadraticTarget
from plaid.numtheory import (EvenRational, kappa, main_identity,
                             predecessor_chain, tune)
from plaid.pet import limit_experiment
from plaid.tiling import big_polygon


def ER(p, q):
    return EvenRational(p, q)


def test_box_r_examples():
    assert box_r(ER(5, 12)) == Rect(0, 5, 0, 17)
    assert box_r(ER(7, 18)).x1 == 7  # min(9, 25 - 18)
    assert box_r(ER(1, 2)) == Rect(0, 1, 0, 3)


def test_box_width_matches_capacity_scan():
    for r in even_rationals(100):
        assert box_r(r).x1 == box_width_by_scan(r)


def test_sigma_weak_strong_examples():
    pair = sigma_weak_strong(ER(2, 5), ER(5, 12))
    assert pair.sigma_prime == Rect(0, 2, 0, 7) and pair.xi == 0
    pair = sigma_weak_strong(ER(5, 12), ER(12, 29))
    assert pair.sigma_prime == Rect(0, 5, 0, 17)
    # a weak pair gets its top clipped
    weak = next(r for r in even_rationals(40, start=5)
                if r.p > 1 and kappa(r).kappa == 0
                and 4 * tune(r).tau < r.omega)
    prev = even_predecessor(weak)
    pair = sigma_weak_strong(prev, weak)
    tp, omp = tune(prev).tau, prev.omega
    assert pair.sigma_prime.y1 == omp - min(tp, omp - 2 * tp) < omp
    with pytest.raises(ValueError):
        sigma_weak_strong(ER(3, 8), ER(7, 18))  # core regime


def test_sigma_core_examples():
    pair = sigma_core(ER(3, 8), ER(7, 18))
    assert pair.xi == 7
    assert pair.sigma_prime == Rect(0, 2, 0, 11)
    assert pair.sigma == Rect(0, 2, 7, 18)
    # nocross: the shifted box fits inside the big parameter's box
    assert pair.sigma_prime.width <= box_r(ER(7, 18)).x1
    with pytest.raises(ValueError):
        sigma_core(ER(2, 5), ER(5, 12))  # kappa = 0 regime


def test_box_lemma_examples():
    for pq in ((1, 2), (5, 12), (7, 18), (12, 29), (1, 8)):
        rep = verify_box_lemma(ER(*pq))
        assert rep.ok, (pq, rep)
        assert rep.crossings == 2
    rep = verify_box_lemma(ER(7, 18))
    assert rep.barrier["x"] == 2 and rep.barrier["capacity"] == 6


def test_copy_lemma_examples():
    assert verify_copy(ER(5, 12))
    assert verify_copy(ER(12, 29))
    assert verify_copy(ER(7, 18))


def test_comparison_pair_and_align_choose_the_regime():
    assert comparison_pair(ER(2, 5), ER(5, 12)) == sigma_weak_strong(ER(2, 5), ER(5, 12))
    assert comparison_pair(ER(3, 8), ER(7, 18)) == sigma_core(ER(3, 8), ER(7, 18))
    case, rep, audit = align(ER(2, 5), ER(5, 12))
    assert case == "case-3" and audit.all_ok and rep.predicates_hold
    case, rep, audit = align(ER(3, 8), ER(7, 18))
    assert (case, rep.xi, audit) == ("core", 7, None) and rep.tiles_equal
    with pytest.raises(ValueError):
        align(ER(2, 5), ER(7, 18))  # not the core predecessor


def test_main_identity_scope():
    assert main_identity(ER(7, 18))   # 3*7 + 2*2 == 25
    assert main_identity(ER(5, 12))   # vacuous, kappa = 0
    assert main_identity(ER(1, 2))    # out of scope, p = 1


def test_omni2_examples():
    rep = omni2_check(ER(7, 18))
    assert rep.all_ok
    assert rep.statements["byproduct"]
    assert omni2_check(ER(5, 12)).statements == {}  # vacuous for kappa = 0


def test_omni2_sweep():
    for r in even_rationals(150, start=5):
        if r.p > 1 and kappa(r).kappa >= 1:
            rep = omni2_check(r)
            assert rep.all_ok, (str(r), rep.statements)


def test_copy_theorem_figure_chain():
    # the 1/2 -> 2/5 -> 5/12 -> 12/29 chain of strong pairs
    ch = predecessor_chain(ER(12, 29))
    terms = ch.approximating_terms()
    assert [str(t) for t in terms] == ["1/2", "2/5", "5/12", "12/29"]
    for a, b in zip(terms, terms[1:]):
        rep = verify_copy_theorem(a, b)
        assert rep.ok, (str(a), str(b), rep)
        assert rep.branch == "TH" and rep.translation == 0


def test_copy_theorem_core_route():
    # consecutive approximating pair through a core step: 2/3 -> 9/16
    rep = verify_copy_theorem(ER(2, 3), ER(9, 16))
    assert rep.ok
    assert rep.translation == 3 and rep.branch == "TH"
    # ad-hoc chain-related pair (2/5, 7/18): the bottom line maps, but the
    # midline clause fails for the centered core shift
    rep = verify_copy_theorem(ER(2, 5), ER(7, 18))
    assert (rep.translation, rep.branch) == (7, "BH") and not rep.below_midline
    rep2 = verify_copy_theorem(ER(1, 2), ER(3, 8))
    assert rep2.ok


def test_connecting_chain_errors():
    with pytest.raises(ValueError):
        connecting_chain(ER(2, 7), ER(5, 12))


def test_observed_branch_matches_full_verification():
    for r in even_rationals(60, start=5):
        ch = predecessor_chain(r)
        terms = ch.approximating_terms()
        for a, b in zip(terms, terms[1:]):
            branch, t = observed_branch(a, b)
            rep = verify_copy_theorem(a, b)
            assert rep.ok
            assert (branch, t) == (rep.branch, rep.translation), (str(a), str(b))


def test_realize_tree_chain_12_29():
    terms = predecessor_chain(ER(12, 29)).approximating_terms()
    real = realize_tree(terms, 3)
    assert real.vertices == 7
    assert real.etas == [1, 3, 7]
    assert real.translations == [4, 10]  # eta sums: TH branches
    real4 = realize_tree(terms, 4)
    assert real4.vertices == 15
    assert real4.translations == [4, 10, 24]
    assert [eta(t) for t in terms] == [1, 3, 7, 17]


def test_realize_tree_depth_one_and_errors():
    terms = predecessor_chain(ER(12, 29)).approximating_terms()
    real = realize_tree(terms, 1)
    assert real.vertices == 1 and real.translations == []
    with pytest.raises(ValueError):
        realize_tree(terms[:2], 3)


def _candidate(branch):
    """An ``observed_branch`` that always reports the given candidate."""
    return lambda r0, r1: (branch, translation_candidates(r0, r1)[branch])


def _polygon_without(term, lost):
    """A ``big_polygon`` whose polygon of ``term`` loses the squares ``lost``
    picks out."""
    def polygon(s):
        squares = big_polygon(s).squares
        return SimpleNamespace(squares=[sq for sq in squares
                                        if s != term or not lost(sq)])
    return polygon


@pytest.mark.parametrize("terms,name,fake,message", [
    # every box two wide: the child is as wide as its parent
    (("1/2", "2/5", "5/12"), "box_r", lambda s: Rect(0, 2, 0, s.omega),
     "lacks unit slack"),
    # BH from 1/2 into 2/5 gives t = 1, d = 2 < omega = 3
    (("1/2", "2/5", "5/12"), "observed_branch", _candidate("BH"), "overlap"),
    (("1/2", "2/5", "5/12"), "big_polygon",
     _polygon_without(ER(5, 12), lambda sq: sq[0] == 0), "leaves the arc"),
    # the arcs are checked at every omega: this chain reaches omega = 239
    (("1/2", "2/5", "5/12", "12/29", "29/70", "70/169"), "big_polygon",
     _polygon_without(ER(70, 169), lambda sq: sq[0] == 0), "leaves the arc"),
    # (0, 1) is one of the two squares on either side of (1/2, tau_0 = 1)
    (("1/2", "2/5", "5/12"), "big_polygon",
     _polygon_without(ER(1, 2), lambda sq: sq == (0, 1)), "misses"),
], ids=["width", "overlap", "arc", "arc-omega-239", "anchor"])
def test_realize_tree_checks_every_level(monkeypatch, terms, name, fake,
                                         message):
    terms = [EvenRational.parse(t) for t in terms]
    monkeypatch.setattr(copying, name, fake)
    with pytest.raises(AssertionError, match=message):
        realize_tree(terms, len(terms))


@pytest.mark.parametrize("chain,failure", [
    (("1/2", "2/5", "1/8"), "box widths decrease"),
    (("1/2", "2/5", "2/9"), "strong route: a tail link is not weak"),
    (("1/2", "2/9"), "strong route: the top line misses the bottom line"),
    (("1/2", "2/5", "2/11"), "strong route: a weak link moves the bottom line"),
    (("1/6", "5/8"), "strong route: the first box leaves the lower half"),
    (("1/2", "4/7", "4/9"), "core route: a tail link is of the wrong kind"),
    (("1/2", "4/7"), "core route: the shift misses the anchor lines"),
    (("2/3", "4/7", "2/11"), "core route: a link moves the bottom line"),
    (("2/5", "4/7", "2/15"), "core route: the shifted box leaves the lower half"),
], ids=["widths", "strong-kinds", "strong-joint", "strong-bottom",
        "strong-half", "core-kinds", "core-shift", "core-bottom", "core-half"])
def test_linematch_names_the_broken_condition(chain, failure):
    # crafted chains, each breaking one condition first; descent chains
    # between approximating terms break none (criterion 8)
    assert copying._linematch_failure(
        [EvenRational.parse(s) for s in chain]) == failure


def test_chain_translations_check_every_length(monkeypatch):
    terms = predecessor_chain(ER(12, 29)).approximating_terms()
    # a translation one row off gives a length that is no eta_k -+ eta_(k-1),
    # in the tree realization and in the limit experiment alike
    true_branch = copying.observed_branch

    def one_row_off(r0, r1):
        branch, t = true_branch(r0, r1)
        return branch, t + 1

    monkeypatch.setattr(copying, "observed_branch", one_row_off)
    with pytest.raises(AssertionError, match="translation length"):
        realize_tree(terms, 3)
    with pytest.raises(AssertionError, match="translation length"):
        limit_experiment(QuadraticTarget(QuadRat(-1, 1, 2, 5)), (0,),
                         window=2, depth=3)


def test_anchor_clusters_realized_on_traced_polygons():
    # the composed copy translations predict a binary cluster of column-0
    # crossing heights; every predicted anchor (and its mirror) must appear
    # on the traced polygon of the chain's last approximating term
    gammas = {}
    checked = 0
    for r in even_rationals(60):
        terms = predecessor_chain(r).approximating_terms()
        if len(terms) < 2:
            continue
        steps = chain_translations(terms)
        ts = [t for _, t, _ in steps]
        ds = [d for _, _, d in steps]
        base = tune(terms[0]).tau + sum(ts)
        pred = set()
        for k in range(len(ds) + 1):
            for S in combinations(range(len(ds)), k):
                pred.add(base + sum(ds[i] for i in S))
        target = terms[-1]
        pred |= {target.omega - y for y in pred}
        if target not in gammas:
            gammas[target] = {y for _, y in big_polygon(target).anchors()}
        assert pred <= gammas[target], (str(r), str(target))
        checked += 1
    assert checked > 200


def test_observed_branch_raises_beyond_the_int64_guard():
    # the columns come from the dense kernel, which refuses omega >= 2**31
    small, huge, huger = ER(1, 2), ER(2, 2 ** 31 + 1), ER(4, 2 ** 32 + 1)
    for r0, r1 in ((small, huge), (huge, huger)):
        # some candidate fits, so the probe reaches the kernel
        assert any(0 <= t <= r1.omega - r0.omega
                   for t in translation_candidates(r0, r1).values())
        with pytest.raises(OverflowError, match="int64"):
            observed_branch(r0, r1)


def test_translation_candidates():
    cands = translation_candidates(ER(5, 12), ER(12, 29))
    assert cands == {"BH": 12 - 5, "TH": 12 - (17 - 5)}


def test_capacity_two_lines():
    assert capacity_two_lines(ER(5, 12)) == (5, 12)
    assert capacity_two_lines(ER(7, 18)) == (9, 16)
