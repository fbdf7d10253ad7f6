"""Tests for toric presentations, kernel elements and fiber graphs."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from equihilb.monoracle import mono_freeze, mono_str, multiset
from equihilb.toric import (
    Binomial,
    GenElement,
    g2,
    binomial_str,
    window_edges,
    presentation_image,
    kernel_test,
    apply_move,
    build_gen_family,
    quadric_family,
    edge_multisets,
    image_targets,
    enumerate_fiber,
    shifts_in_window,
    fiber_report,
    reduce_binomial,
    gen_degree_stats,
    minimal_generator_degrees,
)


def test_binomial_basics():
    b = Binomial({(1, 2): 1, (3, 4): 1}, {(1, 2): 1, (2, 4): 1})
    # common factors cancel
    assert b.u == {(3, 4): 1} and b.v == {(2, 4): 1}
    assert Binomial({(1, 2): 1}, {(1, 2): 1}).is_zero()
    g = g2()
    assert g.shifted(1).shifted(-1) == g
    # equality ignores the sign, so x^u - x^v and x^v - x^u are one binomial
    assert Binomial(dict(g.v), dict(g.u)) == g
    assert hash(g) == hash(Binomial(dict(g.u), dict(g.v)))


def test_string_forms():
    assert mono_str({(1, 2): 2, (3, 4): 1}) == "x[1,2]^2*x[3,4]"
    assert mono_str({}) == "1"
    assert binomial_str(g2()) == "x[1,2]*x[3,4] - x[1,3]*x[2,4]"
    assert binomial_str(Binomial({(1, 2): 1}, {(1, 2): 1})) == "0"


def test_presentation_image():
    assert presentation_image({(1, 2): 1, (3, 4): 1}) == {1: 1, 2: 1, 3: 1, 4: 1}
    # diagonal edges square their variable
    assert presentation_image({(2, 2): 3}) == {2: 6}


def test_kernel_test():
    assert kernel_test(g2())
    assert not kernel_test(Binomial({(1, 2): 1}, {(1, 3): 1}))
    rng = random.Random(47)
    # images of both sides agree exactly when the kernel test passes
    for _ in range(40):
        edges = [(i, j) for i in range(1, 5) for j in range(i, 6)]
        u = {e: 1 for e in rng.sample(edges, 2)}
        v = {e: 1 for e in rng.sample(edges, 2)}
        want = presentation_image(u) == presentation_image(v)
        assert kernel_test(Binomial(u, v)) == want


def test_window_edges_and_validity():
    assert window_edges("gap", None, 2) == [(1, 2), (1, 3), (2, 3), (2, 4)]
    assert window_edges("window-squares", 1, 2) == [(1, 1), (1, 2), (2, 2), (2, 3)]
    gap3 = window_edges("gap", None, 3)
    assert (1, 2) in gap3 and (3, 5) in gap3
    assert (1, 4) not in gap3  # too wide
    assert (3, 3) not in gap3  # no diagonals in gap
    assert (4, 5) not in gap3  # starts past the window
    squares3 = window_edges("window-squares", 1, 3)
    assert (1, 1) in squares3 and (1, 3) not in squares3
    with pytest.raises(ValueError):
        window_edges("nope", None, 3)


def test_base_element():
    base = GenElement.base()
    assert base.label() == "g()"
    assert base.w == {(1, 2): 1, (1, 3): -1, (2, 3): -1, (3, 5): 2,
                      (5, 6): -1, (5, 7): -1, (6, 7): 1}
    assert base.degree() == 4
    assert base.span() == 7
    assert base.structure_check()
    assert kernel_test(base.binomial())


def test_child_steps():
    base = GenElement.base()
    e1 = base.child(1)
    assert e1.label() == "g(1)"
    assert e1.w == {(1, 2): 1, (1, 3): -1, (2, 3): -1, (3, 5): 2,
                    (5, 7): -2, (7, 8): 1, (7, 9): 1, (8, 9): -1}
    assert (e1.degree(), e1.span()) == (5, 9)
    e2 = base.child(2)
    assert e2.w == {(1, 2): 1, (1, 3): -1, (2, 3): -1, (3, 5): 2, (5, 6): -2,
                    (6, 8): 2, (8, 9): -1, (8, 10): -1, (9, 10): 1}
    e11 = e1.child(1)
    assert e11.w == {(1, 2): 1, (1, 3): -1, (2, 3): -1, (3, 5): 2, (5, 7): -2,
                     (7, 9): 2, (9, 10): -1, (9, 11): -1, (10, 11): 1}
    assert (e2.degree(), e11.degree()) == (6, 6)
    with pytest.raises(ValueError):
        base.child(3)


def test_family_census_is_fibonacci():
    fam = build_gen_family(max_degree=15)
    census = Counter(e.degree() for e in fam)
    assert [census.get(d, 0) for d in range(4, 16)] == \
        [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    span_fam = build_gen_family(max_span=11)
    assert {e.label() for e in span_fam} >= {"g()", "g(1)", "g(2)", "g(1,1)"}


def test_family_kernel_and_structure():
    for e in build_gen_family(max_degree=12):
        assert kernel_test(e.binomial()), e.label()
        assert e.structure_check(), e.label()


def test_quadric_family():
    q = quadric_family(1, 3)
    assert [binomial_str(b) for b in q] == [
        "x[1,1]*x[2,2] - x[1,2]^2",
        "x[2,2]*x[3,3] - x[2,3]^2",
    ]
    q2 = quadric_family(2, 2)
    assert [binomial_str(b) for b in q2] == [
        "x[1,1]*x[2,2] - x[1,2]^2",
        "x[1,1]*x[2,3] - x[1,2]*x[1,3]",
        "x[1,2]*x[2,3] - x[1,3]*x[2,2]",
    ]
    for b in quadric_family(3, 4):
        assert kernel_test(b)
    assert quadric_family(0, 4) == []


def _square_edge(c, n, e):
    """The window-squares edge rule, written out: 1 <= i <= n, 0 <= j - i <= c."""
    i, j = e
    return 1 <= i <= n and 0 <= j - i <= c


def _quadrics_by_index_ranges(c, n):
    """Kernel quadrics x[i,j]*x[k,l] - x[i,k]*x[j,l] from explicit index ranges."""
    out = set()
    for i in range(1, n + 1):
        for j in range(i, i + c):
            for k in range(j + 1, i + c + 1):
                for ell in range(max(i + 1, j - c, k - c), min(j + c, k + c) + 1):
                    e1, e2 = (i, j), (min(k, ell), max(k, ell))
                    e3, e4 = (i, k), (min(j, ell), max(j, ell))
                    if all(_square_edge(c, n, e) for e in (e1, e2, e3, e4)):
                        b = Binomial(multiset((e1, e2)), multiset((e3, e4)))
                        if not b.is_zero():
                            out.add(b)
    return sorted(out, key=Binomial.key)


def test_quadric_family_matches_index_ranges():
    for c in range(5):
        for n in range(9):
            assert quadric_family(c, n) == _quadrics_by_index_ranges(c, n), (c, n)


def test_enumerate_fiber():
    fib = enumerate_fiber("gap", None, 3, {1: 1, 2: 2, 3: 2, 4: 1})
    assert fib == [(((1, 2), 1), ((2, 3), 1), ((3, 4), 1)),
                   (((1, 3), 1), ((2, 3), 1), ((2, 4), 1))]
    assert enumerate_fiber("gap", None, 3, {1: 1, 2: 1, 3: 1, 4: 1}) == \
        [(((1, 2), 1), ((3, 4), 1)), (((1, 3), 1), ((2, 4), 1))]
    # the wide edge (3,4) does not fit at n=2, the crossing pair still does
    assert enumerate_fiber("gap", None, 2, {1: 1, 2: 1, 3: 1, 4: 1}) == \
        [(((1, 3), 1), ((2, 4), 1))]
    assert enumerate_fiber("gap", None, 3, {1: 1}) == []


KINDS = st.sampled_from([("gap", None)] + [("window-squares", c) for c in range(3)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(KINDS, st.integers(1, 5), st.integers(1, 4))
def test_edge_multisets_grouped_by_image_are_the_fibers(kind_c, n, d):
    kind, c = kind_c
    groups = {}
    for m, img in edge_multisets(kind, c, n, d):
        assert sum(m.values()) == d and img == presentation_image(m)
        groups.setdefault(mono_freeze(img), []).append(mono_freeze(m))
    targets = image_targets(kind, c, n, d)
    assert [mono_freeze(t) for t in targets] == list(groups)
    for t in targets:
        assert list(t) == sorted(t)
        assert enumerate_fiber(kind, c, n, t) == sorted(groups[mono_freeze(t)])


@st.composite
def moves_on_monomials(draw):
    kind, c = draw(KINDS)
    edges = st.lists(st.sampled_from(window_edges(kind, c, draw(st.integers(1, 5)))),
                     min_size=2, max_size=4)
    u_edges = draw(edges)
    u = multiset(u_edges)
    if draw(st.booleans()):
        fiber = enumerate_fiber(kind, c, max(i for i, _ in u_edges), presentation_image(u))
        v = dict(draw(st.sampled_from([f for f in fiber if dict(f) != u] or fiber)))
    else:
        v = multiset(draw(edges))
    m = multiset(draw(edges) + (u_edges if draw(st.booleans()) else []))
    return m, u, v


@settings(max_examples=100, deadline=None, derandomize=True)
@given(moves_on_monomials())
def test_apply_move_round_trips_and_kernel_moves_keep_the_image(muv):
    m, u, v = muv
    moved = apply_move(m, u, v)
    if moved is None:
        assert any(m.get(e, 0) < k for e, k in u.items())
        return
    assert apply_move(moved, v, u) == m
    assert all(k > 0 for k in moved.values())
    if kernel_test(Binomial(u, v)):
        assert presentation_image(moved) == presentation_image(m)


def test_shifts_in_window():
    shifts = shifts_in_window(g2(), "gap", None, 5)
    assert [(k, binomial_str(b)) for k, b in shifts] == [
        (0, "x[1,2]*x[3,4] - x[1,3]*x[2,4]"),
        (1, "x[2,3]*x[4,5] - x[2,4]*x[3,5]"),
        (2, "x[3,4]*x[5,6] - x[3,5]*x[4,6]"),
    ]
    assert len(shifts_in_window(g2(), "gap", None, 3)) == 1


def test_shifts_in_window_matches_brute_force_for_squares():
    moves = [g2()] + quadric_family(3, 5)
    for c in range(4):
        for n in range(1, 7):
            for b in moves:
                want = []
                for k in range(-10, 11):
                    s = b.shifted(k)
                    if all(_square_edge(c, n, e) for e in list(s.u) + list(s.v)):
                        want.append((k, s))
                assert shifts_in_window(b, "window-squares", c, n) == want, (c, n, b)


def test_fiber_report_base_element():
    base = GenElement.base()
    target = presentation_image(dict(base.binomial().u))
    moves = [(e.label(), e.binomial()) for e in build_gen_family(max_degree=6)]
    rep = fiber_report("gap", None, 7, target, moves)
    assert rep["fiber_size"] == 2
    assert rep["connected"]
    assert rep["moves_used"] == ["g()+0"]
    # without the degree-4 element the two presentations never meet
    rest = [mv for mv in moves if mv[0] != "g()"]
    rep2 = fiber_report("gap", None, 7, target, rest)
    assert rep2["fiber_size"] == 2
    assert not rep2["connected"]
    assert len(rep2["components"]) == 2


def test_fiber_report_quadrics():
    fam = quadric_family(1, 4)
    moves = [(binomial_str(b), b) for b in fam]
    rep = fiber_report("window-squares", 1, 4, {1: 2, 2: 2}, moves,
                       use_shifts=False)
    assert rep["fiber_size"] == 2  # (1,1)(2,2) and (1,2)^2
    assert rep["connected"]


def gap_string_monomials(n, dmax):
    from equihilb.monoracle import GeneratorFamily
    fam = GeneratorFamily("gap")
    for d in range(1, dmax + 1):
        for w in fam.normal_strings(n, d):
            yield multiset(w)


def test_gap_fibers_connected_small():
    moves = [("g2", g2())] + \
        [(e.label(), e.binomial()) for e in build_gen_family(max_degree=4)]
    for n in (2, 3, 4):
        seen = set()
        for string in gap_string_monomials(n, 3):
            target = presentation_image(string)
            key = tuple(sorted(target.items()))
            if key in seen:
                continue
            seen.add(key)
            rep = fiber_report("gap", None, n, target, moves)
            assert rep["connected"], (n, target)


def test_reduce_binomial():
    fam6 = [(e.label(), e.binomial()) for e in build_gen_family(max_degree=6)]
    base = GenElement.base().binomial()
    assert reduce_binomial(base, fam6).is_zero()
    # the quadric alone cannot touch the degree-4 element
    assert reduce_binomial(base, [("g2", g2())]) == base
    with pytest.raises(ValueError):
        reduce_binomial(Binomial({(1, 2): 1}, {(1, 3): 1}), fam6)


def test_reduce_window_squares_kernel_by_quadrics():
    from equihilb.monoracle import GeneratorFamily
    fam = GeneratorFamily("window-squares", 1)
    moves = [(binomial_str(b), b) for b in quadric_family(1, 4)]
    checked = 0
    for d in (2, 3):
        for frozen in fam.enumerate_monomials(4, d, "string-bounded"):
            fiber = enumerate_fiber("window-squares", 1, 4, dict(frozen))
            first = dict(fiber[0])
            for other in fiber[1:]:
                h = Binomial(first, dict(other))
                assert kernel_test(h)
                assert reduce_binomial(h, moves).is_zero()
                checked += 1
    assert checked > 3


def test_minimal_generator_degrees():
    assert minimal_generator_degrees("gap", None, 6, 4) == {2: 4, 3: 0, 4: 1}
    assert minimal_generator_degrees("gap", None, 7, 4) == {2: 5, 3: 0, 4: 2}
    assert minimal_generator_degrees("window-squares", 1, 4, 3) == {2: 3, 3: 0}


def _pairwise_generator_count(kind, c, n, d):
    """Minimal generators of degree d: per fiber, components - 1, with two
    edge multisets adjacent when their supports meet (checked pair by pair)."""
    fibers = {}
    for m, img in edge_multisets(kind, c, n, d):
        fibers.setdefault(mono_freeze(img), []).append(set(m))
    total = 0
    for group in fibers.values():
        comp = list(range(len(group)))
        for a, b in itertools.combinations(range(len(group)), 2):
            if group[a] & group[b] and comp[a] != comp[b]:
                old = comp[b]
                comp = [comp[a] if x == old else x for x in comp]
        total += len(set(comp)) - 1
    return total


def test_minimal_generator_degrees_match_pairwise_supports():
    grid = [("gap", None, 5)] + [("window-squares", c, 3) for c in range(4)]
    for kind, c, top in grid:
        for n in range(9):
            want = {d: _pairwise_generator_count(kind, c, n, d) for d in range(2, top + 1)}
            for dmax in range(2, top + 1):
                got = minimal_generator_degrees(kind, c, n, dmax)
                assert got == {d: want[d] for d in range(2, dmax + 1)}, (kind, c, n, dmax)


def test_gen_degree_stats():
    rows = gen_degree_stats(6, 15)
    assert [r["computed"] for r in rows] == [4, 4, 5, 6, 6, 7, 8, 8, 9, 10]
    assert [r["formula"] for r in rows] == [4, 4, 5, 6, 6, 7, 8, 8, 9, 10]
    assert [r["formula"] for r in gen_degree_stats(0, 5)] == [0, 0, 0, 2, 2, 2]
    for r in rows:
        assert r["equal"] == (r["computed"] == r["formula"])
