"""Tests for transfer-matrix generating functions."""

from hypothesis import given, settings, strategies as st

from equihilb.automata import Alphabet, Dfa
from equihilb.exactalg import MPoly, RatFun, rat_equal
from equihilb.genfun import WeightFn, transfer_matrix, transfer_series, series_check
from polytext import parse_ratfun
from productref import TSS

TS = ("t", "s")
AB = Alphabet([("tau", 1), ("a", 0)])
AB2 = Alphabet([("tau", 1), ("sig", 2), ("a", 0)])


def test_weightfn_standard():
    # the alphabet's size classes decide the variables: s for one, s1, s2 for two
    w = WeightFn(AB)
    assert w.vars == TS
    assert w.monomial("a") == MPoly.var(TS, "t")
    assert w.monomial("tau") == MPoly.var(TS, "s")
    w2 = WeightFn(AB2)
    assert w2.vars == TSS
    assert [w2.monomial(n) for n in ("a", "tau", "sig")] == [
        MPoly.var(TSS, x) for x in ("t", "s1", "s2")]


def test_transfer_one_state_free_monoid():
    dfa = Dfa(AB, 1, 0, frozenset({0}), {(0, "tau"): 0, (0, "a"): 0})
    w = WeightFn(AB)
    f = transfer_series(dfa, w)
    assert rat_equal(f, parse_ratfun(TS, "1/(1 - t - s)"))


def test_transfer_matrix_entries():
    # two states, a: 0->1, tau: 1->0
    dfa = Dfa(AB, 2, 0, frozenset({0}), {(0, "a"): 1, (1, "tau"): 0})
    w = WeightFn(AB)
    mat = transfer_matrix(dfa, w)
    one = MPoly.const(TS, 1)
    t = MPoly.var(TS, "t")
    s = MPoly.var(TS, "s")
    assert mat[0][0] == one and mat[1][1] == one
    assert mat[1][0] == -t  # a sends 0 to 1, so column 0, row 1
    assert mat[0][1] == -s
    f = transfer_series(dfa, w)
    assert rat_equal(f, parse_ratfun(TS, "1/(1 - t*s)"))


def test_transfer_two_accepting_states():
    # (a tau)* plus its odd prefixes: every state accepting
    dfa = Dfa(AB, 2, 0, frozenset({0, 1}), {(0, "a"): 1, (1, "tau"): 0})
    w = WeightFn(AB)
    f = transfer_series(dfa, w)
    assert rat_equal(f, parse_ratfun(TS, "(1 + t)/(1 - t*s)"))


def test_transfer_ignores_unreachable_garbage():
    dfa = Dfa(AB, 3, 0, frozenset({0}), {(0, "tau"): 0, (0, "a"): 0, (2, "a"): 1})
    w = WeightFn(AB)
    f = transfer_series(dfa, w)
    assert rat_equal(f, parse_ratfun(TS, "1/(1 - t - s)"))


def test_series_check_agrees_with_counting():
    dfa = Dfa(AB, 2, 0, frozenset({0}), {(0, "a"): 1, (1, "tau"): 0, (0, "tau"): 0})
    w = WeightFn(AB)
    ok, bad = series_check(dfa, w, 6, (6,))
    assert ok and not bad


def test_series_check_two_count_classes():
    dfa = Dfa(AB2, 1, 0, frozenset({0}),
              {(0, "tau"): 0, (0, "sig"): 0, (0, "a"): 0})
    w = WeightFn(AB2)
    f = transfer_series(dfa, w)
    assert rat_equal(f, parse_ratfun(TSS, "1/(1 - t - s1 - s2)"))
    ok, bad = series_check(dfa, w, 4, (4, 4))
    assert ok and not bad


@st.composite
def small_dfas(draw):
    letters = [("tau", 1), ("a", 0), ("b", 0)]
    alphabet = Alphabet(letters[: draw(st.integers(2, 3))])
    r = draw(st.integers(1, 4))
    targets = st.none() | st.integers(0, r - 1)
    trans = {}
    for q in range(r):
        for sym in alphabet.names:
            q2 = draw(targets)
            if q2 is not None:
                trans[(q, sym)] = q2
    accepts = draw(st.frozensets(st.integers(0, r - 1)))
    return Dfa(alphabet, r, 0, accepts, trans)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_dfas())
def test_series_check_random_partial_dfas(dfa):
    ok, bad = series_check(dfa, WeightFn(dfa.alphabet), 5, (5,))
    assert ok, bad
