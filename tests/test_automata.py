"""Tests for alphabets, automata and word counting."""

import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from equihilb.automata import (
    Alphabet,
    Dfa,
    minimize,
    dp_count,
    enumerate_words,
    language_agrees,
)
from equihilb.langlib import builtin_pair, builtin_single, lang_poly_ring
import productref
from productref import hom_preimage, intersect, two_pass_minimize

AB = Alphabet([("tau", 1), ("a", 0), ("b", 0)])
# (a tau)*
A_TAU = Dfa(AB, 2, 0, frozenset({0}), {(0, "a"): 1, (1, "tau"): 0})
# (a|b|tau)*
ANY = Dfa(AB, 1, 0, frozenset({0}), {(0, sym): 0 for sym in AB.names})
AB2 = Alphabet([("tau", 1), ("sig", 2), ("a", 0), ("b", 0)])


def all_words(names, maxlen):
    for length in range(maxlen + 1):
        yield from itertools.product(names, repeat=length)


def accepts(dfa, word):
    q = dfa.start
    for sym in word:
        q = dfa.trans.get((q, sym))
        if q is None:
            return False
    return q in dfa.accepts


def same_dfa(d1, d2):
    return (d1.r, d1.start, d1.accepts, d1.trans) == (d2.r, d2.start, d2.accepts, d2.trans)


def test_alphabet_kinds():
    assert AB.names == ("tau", "a", "b")
    assert AB.axis == {"tau": 1, "a": 0, "b": 0}
    assert AB.sizes == 1 and AB2.sizes == 2
    assert AB.on(0) == ("a", "b")
    assert AB.on(1) == ("tau",)
    assert AB2.on(2) == ("sig",)
    with pytest.raises(ValueError):
        Alphabet([("x", 0), ("x", 0)])
    # size classes are 1..k: class 2 without class 1 is rejected
    with pytest.raises(ValueError, match="1..k"):
        Alphabet([("x", 2)])
    with pytest.raises(ValueError, match="negative"):
        Alphabet([("x", -1), ("y", 1)])


def test_minimize_collapses():
    # a* written with three states, as a*|(aa)* unfolds
    dfa = minimize(Dfa(AB, 3, 0, frozenset({0, 1, 2}),
                       {(0, "a"): 1, (1, "a"): 2, (2, "a"): 1}))
    assert dfa.r == 1
    assert dfa.accepts == frozenset({0})
    again = minimize(dfa)
    assert again.r == dfa.r and again.accepts == dfa.accepts


def test_minimize_empty_language():
    dead = Dfa(AB, 2, 0, frozenset(), {(0, "a"): 1, (1, "b"): 0})
    m = minimize(dead)
    assert m.r == 1 and m.accepts == frozenset() and not m.trans
    assert not accepts(m, ()) and not accepts(m, ("a",))


def test_renumbered_canonical():
    # same machine written with two different state numberings
    d1 = Dfa(AB, 3, 0, frozenset({2}), {(0, "a"): 1, (1, "b"): 2, (2, "tau"): 2})
    d2 = Dfa(AB, 3, 2, frozenset({0}), {(2, "a"): 1, (1, "b"): 0, (0, "tau"): 0})
    r1, r2 = minimize(d1), minimize(d2)
    assert r1.start == r2.start == 0
    assert r1.trans == r2.trans == {(0, "a"): 1, (1, "b"): 2, (2, "tau"): 2}
    assert r1.accepts == r2.accepts == frozenset({2})


def test_intersect_is_conjunction():
    # L1: no "bb" factor; L2: even number of tau
    d1 = Dfa(AB, 2, 0, frozenset({0, 1}),
             {(0, "tau"): 0, (0, "a"): 0, (0, "b"): 1, (1, "tau"): 0, (1, "a"): 0})
    d2 = Dfa(AB, 2, 0, frozenset({0}),
             {(0, "tau"): 1, (1, "tau"): 0,
              (0, "a"): 0, (1, "a"): 1, (0, "b"): 0, (1, "b"): 1})
    both = minimize(intersect(d1, d2))
    for w in all_words(AB.names, 5):
        want = accepts(d1, w) and accepts(d2, w)
        assert accepts(both, w) == want, w


def test_hom_preimage():
    hom = {"tau": ["a", "tau"], "a": [], "b": ["a", "tau", "a", "tau"]}
    pre = hom_preimage(A_TAU, AB, hom)
    for w in all_words(AB.names, 4):
        image = [c for sym in w for c in hom[sym]]
        assert accepts(pre, w) == accepts(A_TAU, image), w


def test_dp_count_matches_enumeration():
    # ((a|b) tau)*
    dfa = Dfa(AB, 2, 0, frozenset({0}), {(0, "a"): 1, (0, "b"): 1, (1, "tau"): 0})
    tab = dp_count(dfa, 4, (4,))
    for d in range(5):
        for m in range(5):
            words = enumerate_words(dfa, (d, m))
            assert tab.get((d, m)) == len(words)
            assert words == sorted(words)
    # (content tau)^m words: d must equal m, 2^m letter choices
    for m in range(5):
        assert tab.get((m, m)) == 2 ** m


def test_dp_count_random_dfas():
    rng = random.Random(31)
    for _ in range(12):
        r = rng.randint(2, 4)
        trans = {}
        for q in range(r):
            for sym in AB.names:
                if rng.random() < 0.7:
                    trans[(q, sym)] = rng.randrange(r)
        dfa = Dfa(AB, r, 0, frozenset(rng.sample(range(r), rng.randint(1, r))), trans)
        tab = dp_count(dfa, 6, (6,))
        brute = {}
        for w in all_words(AB.names, 6):
            if accepts(dfa, w):
                d = sum(1 for c in w if c != "tau")
                m = len(w) - d
                brute[(d, m)] = brute.get((d, m), 0) + 1
        for d in range(7):
            for m in range(7):
                if d + m <= 6:
                    assert tab.get((d, m)) == brute.get((d, m), 0)


def test_enumerate_words_exact_profile():
    words = enumerate_words(ANY, (2, 1))
    assert len(words) == 12  # 4 letter patterns x 3 tau positions
    assert ("a", "a", "tau") in words
    assert all(w.count("tau") == 1 and len(w) == 3 for w in words)
    # a negative entry leaves no word, however large the other entries
    assert enumerate_words(ANY, (3, -1)) == []
    assert enumerate_words(ANY, (-1, 0)) == []
    assert enumerate_words(ANY, (0, 0)) == [()]
    # one word of 1,200 letters: the walk holds no Python frame per letter
    assert enumerate_words(lang_poly_ring(1).dfa, (0, 1200)) == [("tau",) * 1200]
    with pytest.raises(ValueError):
        enumerate_words(ANY, (1, 1, 1))


def test_language_agrees_ok_and_counterexample():
    ok, bad, checked = language_agrees(ANY, lambda w: accepts(ANY, w), 5)
    assert ok and bad is None and checked > 100

    flip = ("a", "b", "tau")

    def pred(w):
        w = tuple(w)
        return accepts(ANY, w) != (w == flip)

    ok, bad, _ = language_agrees(ANY, pred, 5)
    assert not ok and bad == flip


def test_language_agrees_prefix_closure():
    # words of length exactly 2: agrees with its own dfa, but is not
    # prefix closed, which is reported
    trans = {(q, sym): q + 1 for q in (0, 1) for sym in AB.names}
    two = Dfa(AB, 3, 0, frozenset({2}), trans)

    def pred(w):
        return len(w) == 2

    ok, bad, _ = language_agrees(two, pred, 4)
    assert not ok and len(bad) == 2


def test_language_agrees_walk_holds_no_frame_per_letter():
    # one state, one letter: a single path of 1,100 letters, deeper than
    # Python's default recursion limit
    one = Alphabet([("tau", 1)])
    loop = Dfa(one, 1, 0, frozenset({0}), {(0, "tau"): 0})
    assert language_agrees(loop, lambda w: True, 1100) == (True, None, 1100)
    assert language_agrees(loop, lambda w: len(w) < 1100, 1100) == (False, ("tau",) * 1100, 1100)


def test_to_dot_deterministic():
    dot = A_TAU.to_dot("machine")
    assert dot == A_TAU.to_dot("machine")
    assert dot.startswith("digraph machine {")
    assert "doublecircle" in dot
    assert '-> 0 [label="a"' in dot or '[label="a"]' in dot


@st.composite
def partial_dfas(draw, alphabet=AB, any_start=False, max_states=4):
    r = draw(st.integers(1, max_states))
    targets = st.none() | st.integers(0, r - 1)
    trans = {}
    for q in range(r):
        for sym in alphabet.names:
            q2 = draw(targets)
            if q2 is not None:
                trans[(q, sym)] = q2
    accepts = draw(st.frozensets(st.integers(0, r - 1)))
    start = draw(st.integers(0, r - 1)) if any_start else 0
    return Dfa(alphabet, r, start, accepts, trans)


WORDS = list(all_words(AB.names, 5))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(partial_dfas(), st.randoms(use_true_random=False))
def test_minimize_keeps_the_language_and_is_canonical(dfa, rng):
    m = minimize(dfa)
    assert m.r <= dfa.r
    for w in WORDS:
        assert accepts(m, w) == accepts(dfa, w), w
    assert same_dfa(minimize(m), m)
    # renaming the states does not change the minimized machine
    perm = list(range(dfa.r))
    rng.shuffle(perm)
    renamed = Dfa(AB, dfa.r, perm[dfa.start], {perm[q] for q in dfa.accepts},
                  {(perm[p], sym): perm[q] for (p, sym), q in dfa.trans.items()})
    assert same_dfa(minimize(renamed), m)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(partial_dfas(any_start=True, max_states=6))
def test_minimize_matches_the_two_pass_reference(dfa):
    m = minimize(dfa)
    assert same_dfa(m, two_pass_minimize(dfa))
    assert same_dfa(minimize(m), m)


@st.composite
def agrees_cases(draw):
    """(dfa, predicate, maxlen) over AB.  The predicate is "closed", the
    language of the DFA made to accept at every state, so prefix closed and
    agreeing; "own", the DFA's language, which may not be prefix closed;
    "flip", which differs from the DFA on one word; or "other", which
    differs on any number."""
    dfa = draw(partial_dfas(any_start=True))
    other = draw(partial_dfas(any_start=True))
    pick = draw(st.sampled_from(["closed", "own", "flip", "other"]))
    flip = draw(st.lists(st.sampled_from(AB.names), min_size=1, max_size=4))
    if pick == "closed":
        dfa = Dfa(dfa.alphabet, dfa.r, dfa.start, range(dfa.r), dfa.trans)
    lang = other if pick == "other" else dfa

    def pred(w):
        return accepts(lang, w) != (pick == "flip" and list(w) == flip)

    return dfa, pred, draw(st.integers(0, 4))


# the languages of the benchmark's recheck agrees jobs
RECHECK_AGREES = [
    builtin_single("poly-ring", 3),
    builtin_single("window-squares", 3),
    builtin_single("gap", None),
    builtin_pair("segre", "window-squares", 1, "poly-ring", 1),
    builtin_pair("concat", "gap", None, "poly-ring", 1),
]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(agrees_cases())
@example((RECHECK_AGREES[0].dfa, RECHECK_AGREES[0].predicate, 8))
@example((RECHECK_AGREES[1].dfa, RECHECK_AGREES[1].predicate, 8))
@example((RECHECK_AGREES[2].dfa, RECHECK_AGREES[2].predicate, 8))
@example((RECHECK_AGREES[3].dfa, RECHECK_AGREES[3].predicate, 8))
@example((RECHECK_AGREES[4].dfa, RECHECK_AGREES[4].predicate, 8))
def test_language_agrees_matches_the_recursive_reference(case):
    """The walk gives the reference's (ok, counterexample, words checked) on
    random partial DFAs and on the built-in languages at length 8.  The walk
    hands the predicate its one live word list, the reference a fresh list
    per word; a predicate must neither keep nor change the list it gets."""
    dfa, pred, maxlen = case
    assert language_agrees(dfa, pred, maxlen) == productref.language_agrees(dfa, pred, maxlen)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(partial_dfas(), partial_dfas())
def test_intersect_random_partial_dfas(d1, d2):
    both = intersect(d1, d2)
    for w in WORDS:
        assert accepts(both, w) == (accepts(d1, w) and accepts(d2, w)), w


@settings(max_examples=60, deadline=None, derandomize=True)
@given(partial_dfas(), st.fixed_dictionaries(
    {sym: st.lists(st.sampled_from(AB.names), max_size=2) for sym in AB.names}))
def test_hom_preimage_random_partial_dfas(dfa, hom):
    pre = hom_preimage(dfa, AB, hom)
    for w in WORDS:
        image = [c for sym in w for c in hom[sym]]
        assert accepts(pre, w) == accepts(dfa, image), w


def frontier_count(dfa, dmax, size_bounds):
    """Reference: the frontier sweep dp_count ran before its flat-box
    kernel, one dict of (state, profile) counts per word length."""
    bounds = (dmax,) + tuple(size_bounds)
    deltas = {}
    for sym in dfa.alphabet.names:
        delta = [0] * len(bounds)
        delta[dfa.alphabet.axis[sym]] = 1
        deltas[sym] = tuple(delta)
    out = {}
    frontier = {(dfa.start, (0,) * len(bounds)): 1}
    while frontier:
        for (q, prof), cnt in frontier.items():
            if q in dfa.accepts:
                out[prof] = out.get(prof, 0) + cnt
        nxt = {}
        for (q, prof), cnt in frontier.items():
            for sym, delta in deltas.items():
                q2 = dfa.trans.get((q, sym))
                if q2 is None:
                    continue
                p2 = tuple(a + b for a, b in zip(prof, delta))
                if any(a > b for a, b in zip(p2, bounds)):
                    continue
                nxt[(q2, p2)] = nxt.get((q2, p2), 0) + cnt
        frontier = nxt
    return out


@st.composite
def counted_dfas(draw):
    """A partial DFA over one or two count classes, with any start state,
    and a box of bounds 0..5 on each axis."""
    alphabet = draw(st.sampled_from([AB, AB2]))
    dfa = draw(partial_dfas(alphabet, any_start=True))
    axes = 1 + alphabet.sizes
    return dfa, draw(st.tuples(*[st.integers(0, 5)] * axes))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(counted_dfas())
# the start state 1 does not accept, and state 2 is unreachable
@example((Dfa(AB, 3, 1, {0}, {(1, "a"): 0, (0, "tau"): 1, (0, "b"): 0, (2, "a"): 1}),
          (3, 5)))
# no accepting state
@example((Dfa(AB2, 2, 0, (), {(0, "a"): 1, (1, "sig"): 0, (1, "tau"): 1}), (2, 4, 3)))
# the unreachable state 2 accepts
@example((Dfa(AB2, 3, 0, {0, 2}, {(0, "a"): 1, (0, "b"): 1, (1, "tau"): 0,
                                   (1, "sig"): 0, (2, "sig"): 0}), (2, 4, 3)))
def test_dp_count_matches_the_frontier_sweep(case):
    dfa, bounds = case
    tab = dp_count(dfa, bounds[0], bounds[1:])
    assert tab.bounds == bounds and tab.axes == ("d", "m", "n")[: len(bounds)]
    assert tab.data == frontier_count(dfa, bounds[0], bounds[1:])
