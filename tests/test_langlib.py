"""Tests for the built-in filtration languages and their closed forms."""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from equihilb.automata import Alphabet, Dfa, dp_count, language_agrees
from equihilb.exactalg import (
    MPoly,
    RatFun,
    rat_equal,
    ratfun_to_text,
    series_expand,
    table_mismatches,
)
from equihilb.langlib import (
    FiltrationLanguage,
    lang_poly_ring,
    lang_window_squares,
    lang_gap,
    lang_segre,
    lang_concat,
    builtin_single,
    builtin_pair,
    ideal_gap_series,
)
import productref
from polytext import parse_ratfun
from productref import TSS, segre_counts, tensor_counts

TS = ("t", "s")


def ws_closed_text(c):
    ramp = " + ".join("%d*s^%d" % (c - e, e) for e in range(c)) or "0"
    geom = " + ".join("s^%d" % i for i in range(1, c + 1)) or "0"
    return "(1 + t*(%s))/(1 - t - s - t*(%s))" % (ramp, geom)


def test_poly_ring_closed_forms():
    for c in (1, 2, 3):
        lang = lang_poly_ring(c)
        want = parse_ratfun(TS, "1/((1 - t)^%d - s)" % c)
        assert rat_equal(lang.transfer(), want)
        refs = dict(lang.reference_series)
        assert rat_equal(lang.transfer(), refs["closed form"])
    with pytest.raises(ValueError):
        lang_poly_ring(0)


def test_window_squares_closed_forms():
    for c in range(4):
        lang = lang_window_squares(c)
        want = parse_ratfun(TS, ws_closed_text(c))
        assert rat_equal(lang.transfer(), want)
        refs = dict(lang.reference_series)
        assert rat_equal(lang.transfer(), refs["closed form"])
    with pytest.raises(ValueError):
        lang_window_squares(-1)


def test_window_squares_alt_forms_diverge():
    # the short alt closed form matches neither the automaton nor its
    # narrowed variant, for any window width
    for c in range(4):
        lang = lang_window_squares(c)
        alt_ref = dict(lang.reference_series)["alt closed form"]
        assert not rat_equal(lang.transfer(), alt_ref)
        assert not rat_equal(lang.alt_series(), alt_ref)
        assert lang.notes
    # the narrowed automaton only agrees with the full one for c <= 1
    for c, same in ((0, True), (1, True), (2, False), (3, False)):
        lang = lang_window_squares(c)
        assert rat_equal(lang.alt_series(), lang.transfer()) == same


def test_gap_closed_form():
    lang = lang_gap()
    want = parse_ratfun(
        TS, "(t*s + 1)/(1 - 2*t - s + t^2 + t*s - t^2*s - t*s^2)")
    assert rat_equal(lang.transfer(), want)
    assert rat_equal(lang.transfer(), dict(lang.reference_series)["closed form"])
    assert lang.alt_dfa is None and lang.alt_series() is None


def test_series_is_offset_times_transfer():
    for lang in (lang_poly_ring(2), lang_window_squares(1), lang_gap()):
        assert lang.offset() == RatFun(MPoly.var(TS, "s"))
        assert rat_equal(lang.series(), lang.offset() * lang.transfer())
        tab = series_expand(lang.series(), (4, 4))
        for d in range(5):
            assert tab.get((d, 0)) == 0  # no constant slice in n


def test_gap_series_cells():
    tab = series_expand(lang_gap().series(), (6, 6))
    for d in range(7):
        assert tab.get((d, 1)) == d + 1
    assert tab.get((2, 2)) == 9


def test_window_squares_regex_matches_dfa():
    # closed regex {tau, a0, a1 tau, ..., ac tau^c}* {eps, a0, ..., ac} tau*,
    # one character per letter: tau is "t" and ai is the i-th capital
    for c in range(4):
        lang = lang_window_squares(c)
        caps = [chr(ord("A") + i) for i in range(c + 1)]
        block = "|".join(["t"] + [a + "t" * i for i, a in enumerate(caps)])
        regex = re.compile("(?:%s)*[%s]?t*" % (block, "".join(caps)))
        char = {"tau": "t"}
        char.update(("a%d" % i, a) for i, a in enumerate(caps))

        def pred(word):
            return regex.fullmatch("".join(char[sym] for sym in word)) is not None

        ok, bad, checked = language_agrees(lang.dfa, pred, 7)
        assert ok, (c, bad)
        assert checked > 200


def test_predicates_agree_with_automata():
    for lang in (lang_poly_ring(1), lang_poly_ring(3), lang_window_squares(0),
                 lang_window_squares(3), lang_gap()):
        ok, bad, checked = lang.check(7)
        assert ok, (lang.name, bad)
        assert checked > 100


def test_segre_identity():
    a = lang_poly_ring(1)
    b = lang_poly_ring(1, tau="tau2", alpha="b")
    seg = lang_segre(a, b)
    assert seg.vars == TSS and seg.offset() == RatFun(MPoly.monomial(TSS, (0, 1, 1)))
    pair_tab = dp_count(seg.dfa, 4, (4, 4))
    want = segre_counts(dp_count(a.dfa, 4, (4,)), dp_count(b.dfa, 4, (4,)))
    assert not table_mismatches(pair_tab, want)
    # raw word counts index taus; the offset series indexes algebra slices
    assert pair_tab.get((2, 1, 1)) == 9
    assert series_expand(seg.series(), (2, 2, 2)).get((2, 2, 2)) == 9
    ok, bad, _ = seg.check(5)
    assert ok, bad


def test_segre_mixed_factors():
    a = lang_window_squares(1)
    b = lang_poly_ring(2, tau="tau2", alpha="b")
    seg = lang_segre(a, b)
    pair_tab = dp_count(seg.dfa, 4, (4, 4))
    want = segre_counts(dp_count(a.dfa, 4, (4,)), dp_count(b.dfa, 4, (4,)))
    assert not table_mismatches(pair_tab, want)
    ok, bad, _ = seg.check(5)
    assert ok, bad


def test_concat_identity():
    a = lang_window_squares(1)
    b = lang_poly_ring(1, tau="tau2", alpha="b")
    cat = lang_concat(a, b)
    pair_tab = dp_count(cat.dfa, 4, (4, 4))
    want = tensor_counts(dp_count(a.dfa, 4, (4,)), dp_count(b.dfa, 4, (4,)))
    for d in range(5):
        for m in range(5):
            for n in range(5):
                assert pair_tab.get((d, m, n)) == want.get((d, m, n))
    ok, bad, _ = cat.check(5)
    assert ok, bad


def test_pair_alphabets_must_be_disjoint():
    a = lang_poly_ring(1)
    b = lang_poly_ring(1)
    with pytest.raises(ValueError):
        lang_segre(a, b)
    with pytest.raises(ValueError):
        lang_concat(a, b)


def test_builtin_single():
    assert builtin_single("gap").name == "gap"
    assert builtin_single("poly-ring").name == "poly-ring(2)"
    assert builtin_single("window-squares").name == "window-squares(2)"
    assert builtin_single("poly-ring", 3).name == "poly-ring(3)"
    with pytest.raises(ValueError):
        builtin_single("nope")


def test_builtin_pair():
    seg = builtin_pair("segre", "poly-ring", 1, "poly-ring", 1)
    assert isinstance(seg, FiltrationLanguage)
    assert seg.vars == TSS and seg.offset() == RatFun(MPoly.monomial(TSS, (0, 1, 1)))
    # second factor letters are renamed, so the union alphabet is disjoint
    assert "tau2" in seg.alphabet.names
    cat = builtin_pair("concat", "window-squares", 1, "poly-ring", 1)
    assert "b1" in cat.alphabet.names
    with pytest.raises(ValueError):
        builtin_pair("twist", "poly-ring", 1, "poly-ring", 1)


def fingerprint(lang):
    # the series is a function of these: the letter axes, which fix the
    # weights and the offset, and the automaton
    axes = [(n, lang.alphabet.axis[n]) for n in lang.alphabet.names]
    return lang.name, axes, lang.vars, lang.dfa.to_dot("x")


SINGLES = [("gap", None, lang_gap)] + [
    (kind, c, make)
    for kind, make in (("poly-ring", lang_poly_ring), ("window-squares", lang_window_squares))
    for c in (1, 2, 3)
]


def test_builtins_match_their_constructors():
    # builtin_pair builds each factor through builtin_single, the second
    # one with renamed letters; both must give the languages the
    # constructors give, down to the DOT text
    for kind, c, make in SINGLES:
        lang, want = builtin_single(kind, c), make(*(() if c is None else (c,)))
        assert fingerprint(lang) == fingerprint(want)
        assert ratfun_to_text(lang.series()) == ratfun_to_text(want.series())
    for (ka, ca, make_a), (kb, cb, make_b) in itertools.product(SINGLES[:5], repeat=2):
        a = make_a(*(() if ca is None else (ca,)))
        b = make_b(*(() if cb is None else (cb,)), tau="tau2", alpha="b")
        for op, pair in (("segre", lang_segre), ("concat", lang_concat)):
            assert fingerprint(builtin_pair(op, ka, ca, kb, cb)) == fingerprint(pair(a, b))


PAIR_SINGLES = [("poly-ring", c) for c in (1, 2, 3)] + [
    ("window-squares", c) for c in (0, 1, 2, 3)] + [("gap", None)]


def test_segre_matches_the_reference_construction():
    # the direct product against preimages, intersection and the 2-state
    # block automaton, on all 64 ordered pairs of built-in factors
    for (ka, ca), (kb, cb) in itertools.product(PAIR_SINGLES, repeat=2):
        seg = builtin_pair("segre", ka, ca, kb, cb)
        ref = productref.segre_dfa(builtin_single(ka, ca),
                                   builtin_single(kb, cb, tau="tau2", alpha="b"))
        assert (seg.alphabet.names, seg.alphabet.axis) == (ref.alphabet.names, ref.alphabet.axis)
        assert same_dfa(seg.dfa, ref), (ka, ca, kb, cb)


def test_shipped_forms_print_as_before():
    closed = dict(lang_gap().reference_series)["closed form"]
    assert ratfun_to_text(closed) == (
        "(-1 - t*s)/(-1 + s + 2*t - t*s - t^2 + t*s^2 + t^2*s)")
    assert ratfun_to_text(ideal_gap_series()[1]) == (
        "(s - t*s - s^3 + t^2*s + t*s^3 - t*s^4)/(1 - 3*s - 3*t + 3*s^2 + 6*t*s"
        " + 2*t^2 - s^3 - 5*t*s^2 - 4*t^2*s - t^3 + 3*t*s^3 + 4*t^2*s^2 + t^3*s"
        " - t*s^4 - t^2*s^3)")


def test_ideal_gap_series():
    computed, stated = ideal_gap_series()
    # the two published forms of the complement series disagree
    assert not rat_equal(computed, stated)
    tab = series_expand(computed, (4, 4))
    cells = {k: tab[k] for k in tab.keys_sorted()}
    assert cells == {(2, 2): 1, (2, 3): 2, (2, 4): 3,
                     (3, 2): 3, (3, 3): 9, (3, 4): 19,
                     (4, 2): 6, (4, 3): 26, (4, 4): 72}
    # the stated form even has a nonzero t^0 slice, which no ideal has
    stab = series_expand(stated, (4, 4))
    assert [stab.get((0, n)) for n in range(1, 5)] == [1, 3, 5, 7]


@st.composite
def random_language(draw, alphabet):
    r = draw(st.integers(1, 4))
    targets = st.none() | st.integers(0, r - 1)
    trans = {}
    for q in range(r):
        for sym in alphabet.names:
            q2 = draw(targets)
            if q2 is not None:
                trans[(q, sym)] = q2
    accepts = draw(st.frozensets(st.integers(0, r - 1)))
    dfa = Dfa(alphabet, r, 0, accepts, trans)
    return FiltrationLanguage("random", dfa, None)


FIRST = Alphabet([("tau", 1), ("a", 0), ("b", 0)])
SECOND = Alphabet([("tau2", 1), ("c", 0), ("d", 0)])


def same_dfa(d1, d2):
    return (d1.r, d1.start, d1.accepts, d1.trans) == (d2.r, d2.start, d2.accepts, d2.trans)


def nonzero(tab, dmax):
    return {k: v for k, v in tab.data.items() if v and k[0] <= dmax}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_language(FIRST), random_language(SECOND))
def test_pair_counts_random_factors(a, b):
    # b's start state rejects in 90 of the 150 examples, so both sides of
    # the concat rule "a's accepting states accept iff b accepts the empty
    # word" are exercised
    ta, tb = dp_count(a.dfa, 3, (3,)), dp_count(b.dfa, 3, (3,))
    seg = dp_count(lang_segre(a, b).dfa, 3, (3, 3))
    assert nonzero(seg, 3) == nonzero(segre_counts(ta, tb), 3)
    cat = dp_count(lang_concat(a, b).dfa, 3, (3, 3))
    assert nonzero(cat, 3) == nonzero(tensor_counts(ta, tb), 3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_language(FIRST), random_language(SECOND))
def test_segre_matches_the_reference_on_random_factors(a, b):
    # partial factors with dead and unreachable states and rejecting starts
    assert same_dfa(lang_segre(a, b).dfa, productref.segre_dfa(a, b))
