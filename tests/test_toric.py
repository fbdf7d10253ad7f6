"""Tests for toric presentations, kernel elements and fiber graphs."""

import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from equihilb.monoracle import edge_spans, mono_freeze, mono_str, multiset
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
    shifts_within,
    move_sides,
    fiber_report,
    reduce_binomial,
    gen_degree_stats,
    minimal_generator_degrees,
)
import productref
from productref import shifts_in_window

GAP = edge_spans("gap", None)


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
    assert GAP == (1, 2) and tuple(edge_spans("window-squares", 2)) == (0, 1, 2)
    assert window_edges(GAP, 2) == [(1, 2), (1, 3), (2, 3), (2, 4)]
    assert window_edges((0, 1), 2) == [(1, 1), (1, 2), (2, 2), (2, 3)]
    gap3 = window_edges(GAP, 3)
    assert (1, 2) in gap3 and (3, 5) in gap3
    assert (1, 4) not in gap3  # too wide
    assert (3, 3) not in gap3  # no diagonals in gap
    assert (4, 5) not in gap3  # starts past the window
    squares3 = window_edges((0, 1), 3)
    assert (1, 1) in squares3 and (1, 3) not in squares3
    with pytest.raises(ValueError, match="unknown map kind 'nope'"):
        edge_spans("nope", None)


def test_base_element():
    base = GenElement.of(())
    assert base.label() == "g()"
    assert base.w == {(1, 2): 1, (1, 3): -1, (2, 3): -1, (3, 5): 2,
                      (5, 6): -1, (5, 7): -1, (6, 7): 1}
    assert base.degree() == 4
    assert base.span() == 7
    assert base.structure_check()
    assert kernel_test(base.binomial())


def test_child_steps():
    e1 = GenElement.of((1,))
    assert e1.label() == "g(1)"
    assert e1.w == {(1, 2): 1, (1, 3): -1, (2, 3): -1, (3, 5): 2,
                    (5, 7): -2, (7, 8): 1, (7, 9): 1, (8, 9): -1}
    assert (e1.degree(), e1.span()) == (5, 9)
    e2 = GenElement.of((2,))
    assert e2.w == {(1, 2): 1, (1, 3): -1, (2, 3): -1, (3, 5): 2, (5, 6): -2,
                    (6, 8): 2, (8, 9): -1, (8, 10): -1, (9, 10): 1}
    e11 = GenElement.of((1, 1))
    assert e11.w == {(1, 2): 1, (1, 3): -1, (2, 3): -1, (3, 5): 2, (5, 7): -2,
                     (7, 9): 2, (9, 10): -1, (9, 11): -1, (10, 11): 1}
    assert (e2.degree(), e11.degree()) == (6, 6)
    with pytest.raises(ValueError):
        GenElement.of((3,))


def test_family_matches_the_recursion():
    # g(s) is written down from its steps; the recursion rewrites its parent's
    # top triangle, and both must give every element the same weights
    ref = {g.s: g for g in productref.recursive_gen_family(max_span=30)}
    fam = build_gen_family(max_span=30)
    assert len(fam) == len(ref) == 1080
    for g in fam:
        assert (g.s, g.w, g.label()) == (ref[g.s].s, ref[g.s].w, ref[g.s].label())
    with pytest.raises(ValueError, match="step must be 1 or 2"):
        GenElement.of((1, 0))


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


@pytest.mark.parametrize("edit", [
    {(1, 2): 2},  # bottom-triangle weight
    {(8, 9): -2},  # top-triangle weight other than 1 or -1
    {(9, 10): -1},  # top-triangle sign
    {(3, 5): 0},  # the chain no longer starts at (3, 5)
    {(5, 6): 2},  # chain weights stop alternating
    {(6, 7): 2, (6, 8): -2},  # span-1 chain edges (5, 6), (6, 7) meet
    {(5, 6): 0, (5, 8): -2},  # a chain edge of span 3
])
def test_structure_check_rejects_a_corrupted_element(edit):
    # g(2): bottom triangle, chain (3,5) (5,6) (6,8), top triangle at k = 10
    good = GenElement.of((2,))
    assert good.structure_check()
    bad = GenElement(good.s, {e: w for e, w in {**good.w, **edit}.items() if w})
    assert not bad.structure_check()


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
    fib = enumerate_fiber(GAP, 3, {1: 1, 2: 2, 3: 2, 4: 1})
    assert fib == [(((1, 2), 1), ((2, 3), 1), ((3, 4), 1)),
                   (((1, 3), 1), ((2, 3), 1), ((2, 4), 1))]
    assert enumerate_fiber(GAP, 3, {1: 1, 2: 1, 3: 1, 4: 1}) == \
        [(((1, 2), 1), ((3, 4), 1)), (((1, 3), 1), ((2, 4), 1))]
    # the wide edge (3,4) does not fit at n=2, the crossing pair still does
    assert enumerate_fiber(GAP, 2, {1: 1, 2: 1, 3: 1, 4: 1}) == \
        [(((1, 3), 1), ((2, 4), 1))]
    assert enumerate_fiber(GAP, 3, {1: 1}) == []
    # vertex 0 lies in no window: x0 would give the edges x[0,1] and x[0,0]
    with pytest.raises(ValueError, match="x0 needs an index of at least 1"):
        enumerate_fiber(GAP, 3, {0: 1, 1: 1})
    with pytest.raises(ValueError, match="x0 needs an index of at least 1"):
        enumerate_fiber((0, 1), 3, {0: 2})
    # a zero exponent names no variable
    assert enumerate_fiber((0, 1), 3, {0: 0, 1: 2}) == [(((1, 1), 1),)]


def test_enumerate_fiber_deep_targets_and_bad_exponents():
    # one edge per step of the walk, with no recursion to run out of
    assert enumerate_fiber(GAP, 1, {1: 1100, 2: 1100}) == [(((1, 2), 1100),)]
    with pytest.raises(ValueError, match="exponent of x1 must be an int >= 0, got -1"):
        enumerate_fiber(GAP, 3, {1: -1, 2: 1})
    with pytest.raises(ValueError, match="exponent of x1 must be an int >= 0, got 1.0"):
        enumerate_fiber(GAP, 3, {1: 1.0, 2: 1})


@pytest.mark.parametrize("c", [None, -1, 1.5, "2"])
def test_window_squares_rejects_a_bad_c(c):
    with pytest.raises(ValueError, match="c=%r" % (c,)):
        minimal_generator_degrees("window-squares", c, 3, 3)
    with pytest.raises(ValueError, match="c=%r" % (c,)):
        fiber_report("window-squares", c, 3, {1: 1, 2: 1}, [])
    with pytest.raises(ValueError, match="c=%r" % (c,)):
        quadric_family(c, 3)


SPANS = st.sampled_from([GAP] + [edge_spans("window-squares", c) for c in range(3)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SPANS, st.integers(1, 5), st.integers(1, 4))
def test_edge_multisets_grouped_by_image_are_the_fibers(spans, n, d):
    groups = {}
    for m, img in edge_multisets(spans, n, d):
        assert sum(m.values()) == d and img == presentation_image(m)
        groups.setdefault(mono_freeze(img), []).append(mono_freeze(m))
    targets = image_targets(spans, n, d)
    assert [mono_freeze(t) for t in targets] == list(groups)
    for t in targets:
        assert list(t) == sorted(t)
        assert enumerate_fiber(spans, n, t) == sorted(groups[mono_freeze(t)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from([GAP] + [edge_spans("window-squares", c) for c in range(6)]),
       st.integers(0, 6), st.integers(2, 4))
def test_packed_keys_and_start_vertices_follow_the_images(spans, n, d):
    by_key, by_image, starts = {}, {}, []
    for m, img in edge_multisets(spans, n, d):
        frozen = mono_freeze(m)
        by_key.setdefault(sum(e * (2 * d + 1) ** v for v, e in img.items()), []).append(frozen)
        by_image.setdefault(mono_freeze(img), []).append(frozen)
        first = next(iter(m))
        # the first edge of the stream's multiset is its least edge, and its
        # start is the image's least vertex
        assert first == min(m) and first[0] == min(img)
        starts.append(first[0])
    # the packed key splits the multisets exactly as the image does
    assert list(by_key.values()) == list(by_image.values())
    # start vertices never go back, so each image lies in one contiguous block
    assert starts == sorted(starts)


@st.composite
def moves_on_monomials(draw):
    spans = draw(SPANS)
    edges = st.lists(st.sampled_from(window_edges(spans, draw(st.integers(1, 5)))),
                     min_size=2, max_size=4)
    u_edges = draw(edges)
    u = multiset(u_edges)
    if draw(st.booleans()):
        fiber = enumerate_fiber(spans, max(i for i, _ in u_edges), presentation_image(u))
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


def test_shifts_within():
    shifts = shifts_within(g2(), 1, 6)
    assert [(k, binomial_str(b)) for k, b in shifts] == [
        (0, "x[1,2]*x[3,4] - x[1,3]*x[2,4]"),
        (1, "x[2,3]*x[4,5] - x[2,4]*x[3,5]"),
        (2, "x[3,4]*x[5,6] - x[3,5]*x[4,6]"),
    ]
    # an exact fit takes the one shift that fills the span
    assert [(k, binomial_str(b)) for k, b in shifts_within(g2(), 3, 6)] == [
        (2, "x[3,4]*x[5,6] - x[3,5]*x[4,6]")]
    assert shifts_within(g2(), 1, 3) == []
    assert shifts_within(g2(), 1, 0) == []


def test_shifts_within_the_target_act_as_the_window_valid_shifts():
    # a shift acts only where one side divides a fiber element, and both
    # sides of a kernel move share their vertices, so the target's vertex
    # span loses none of the window-valid shifts that act
    gens = [g2()] + [g.binomial() for g in build_gen_family(max_degree=4)]
    grid = [(GAP, n, d, gens) for n in range(1, 7) for d in range(1, 5)]
    grid += [(edge_spans("window-squares", c), n, d, gens + quadric_family(c, n))
             for c in range(3) for n in range(1, 6) for d in range(1, 4)]
    checked = 0
    for spans, n, d, moves in grid:
        window_valid = [dict(shifts_in_window(b, spans, n)) for b in moves]
        for target in image_targets(spans, n, d):
            fiber = enumerate_fiber(spans, n, target)
            members = set(fiber)
            elements = [dict(f) for f in fiber]
            for b, old in zip(moves, window_valid):
                new = dict(shifts_within(b, min(target), max(target)))
                # the offsets whose shift moves some fiber element to another
                acting = [k for k, s in sorted({**old, **new}.items())
                          if any(g is not None and mono_freeze(g) in members
                                 for f in elements for u, v in ((s.u, s.v), (s.v, s.u))
                                 for g in [apply_move(f, u, v)])]
                assert [k for k in acting if k in new] == [k for k in acting if k in old], (
                    spans, n, target, b)
                checked += bool(acting)
    assert checked > 1000


def test_fiber_report_base_element():
    base = GenElement.of(())
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


# the kernel family up to degree 5 (g2, g(), g(1)) as labelled moves
GENS = [("g2", g2())] + [(g.label(), g.binomial()) for g in build_gen_family(max_degree=5)]


@st.composite
def move_cases(draw):
    """A small gap or window-squares (c <= 2) target, a list of moves from
    the kernel family and the map's quadrics (all in order, all in any
    order, or some with repeats), shifts on or off, and a kernel
    binomial between two members of the target's fiber (None for a fiber
    of one)."""
    kind, c = draw(st.sampled_from([("gap", None)] + [("window-squares", c) for c in range(3)]))
    n = draw(st.integers(1, 5))
    target = draw(st.sampled_from(image_targets(edge_spans(kind, c), n, draw(st.integers(1, 4)))))
    pool = GENS
    if kind != "gap":
        pool = pool + [("q%d" % i, b) for i, b in enumerate(quadric_family(c, n))]
    moves = draw(st.just(pool) | st.permutations(pool) | st.lists(st.sampled_from(pool), max_size=8))
    fiber = enumerate_fiber(edge_spans(kind, c), n, target)
    h = None
    if len(fiber) > 1:
        i, j = draw(st.lists(st.integers(0, len(fiber) - 1), min_size=2, max_size=2, unique=True))
        h = Binomial(dict(fiber[i]), dict(fiber[j]))
    return kind, c, n, target, moves, draw(st.booleans()), h


BASE_TARGET = presentation_image(dict(GenElement.of(()).binomial().u))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(move_cases())
@example(("gap", None, 7, BASE_TARGET, GENS, True, GenElement.of(()).binomial()))
@example(("window-squares", 2, 5, {1: 1, 2: 1, 3: 2, 4: 1, 5: 1},
          [("q%d" % i, b) for i, b in enumerate(quadric_family(2, 5))], False, None))
def test_move_sides_keep_the_reports_and_the_reductions(case):
    """fiber_report and reduce_binomial, which read their moves from
    move_sides, give what the nested move, shift and direction loops of
    the reference give: the same report, moves_used included, and the same
    remainder, side for side."""
    kind, c, n, target, moves, use_shifts, h = case
    assert (fiber_report(kind, c, n, target, moves, use_shifts=use_shifts)
            == productref.fiber_report(kind, c, n, target, moves, use_shifts=use_shifts))
    if h is not None:
        got, want = reduce_binomial(h, moves), productref.reduce_binomial(h, moves)
        assert (got.u, got.v) == (want.u, want.v)


def test_move_sides_order():
    b = Binomial({(1, 2): 1, (3, 4): 1}, {(1, 3): 1, (2, 4): 1})
    assert list(move_sides([("a", b)], None)) == [("a", b.u, b.v), ("a", b.v, b.u)]
    shifted = [(label, u) for label, u, _ in move_sides([("a", b), ("b", b)], (2, 6))]
    assert shifted == [("a+1", b.shifted(1).u), ("a+1", b.shifted(1).v),
                       ("a+2", b.shifted(2).u), ("a+2", b.shifted(2).v),
                       ("b+1", b.shifted(1).u), ("b+1", b.shifted(1).v),
                       ("b+2", b.shifted(2).u), ("b+2", b.shifted(2).v)]
    assert list(move_sides([("a", b)], (1, 3))) == []


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
    base = GenElement.of(()).binomial()
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
            fiber = enumerate_fiber(fam.letters, 4, dict(frozen))
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
    # the windows the benchmark's recheck workload counts
    assert minimal_generator_degrees("gap", None, 8, 5) == {2: 6, 3: 0, 4: 3, 5: 1}
    assert minimal_generator_degrees("gap", None, 9, 6) == {2: 7, 3: 0, 4: 4, 5: 2, 6: 1}


def _pairwise_generator_count(kind, c, n, d):
    """Minimal generators of degree d: per fiber, components - 1, with two
    edge multisets adjacent when their supports meet (checked pair by pair)."""
    fibers = {}
    for m, img in edge_multisets(edge_spans(kind, c), n, d):
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
    # window-squares(5) at degree 2 has edges wider than 2 * dmax
    grid = [("gap", None, 5)] + [("window-squares", c, 3) for c in range(4)] + \
        [("window-squares", 5, 2)]
    for kind, c, top in grid:
        for n in range(9):
            want = {d: _pairwise_generator_count(kind, c, n, d) for d in range(2, top + 1)}
            for dmax in range(2, top + 1):
                got = minimal_generator_degrees(kind, c, n, dmax)
                assert got == {d: want[d] for d in range(2, dmax + 1)}, (kind, c, n, dmax)


def test_minimal_generator_degrees_memory():
    tracemalloc.start()
    try:
        got = minimal_generator_degrees("gap", None, 8, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == {2: 6, 3: 0, 4: 3, 5: 1}
    # only the fibers of one start vertex are alive at a time, each held as
    # edge bitmasks: about 0.46 MB, against 1.02 MB when a fiber that has
    # met a second multiset keeps a union-find dict of its edges
    assert peak < 700_000, peak


def test_gen_degree_stats():
    rows = gen_degree_stats(6, 15)
    assert [r["computed"] for r in rows] == [4, 4, 5, 6, 6, 7, 8, 8, 9, 10]
    assert [r["formula"] for r in rows] == [4, 4, 5, 6, 6, 7, 8, 8, 9, 10]
    assert [r["formula"] for r in gen_degree_stats(0, 5)] == [0, 0, 0, 2, 2, 2]
    for r in rows:
        assert r["equal"] == (r["computed"] == r["formula"])
