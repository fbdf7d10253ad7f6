"""Tests for the exact polynomial / rational-function layer."""

import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from equihilb.exactalg import (
    MPoly,
    RatFun,
    CountTable,
    bareiss_minors,
    divexact,
    rat_equal,
    series_expand,
    table_mismatches,
    poly_to_text,
    ratfun_to_text,
)
from polytext import parse_poly, parse_ratfun
from productref import TSS

TS = ("t", "s")


def rand_poly(rng, vs=TS, max_terms=4, max_exp=3, max_coeff=5):
    p = MPoly.zero(vs)
    for _ in range(rng.randint(1, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in vs)
        c = rng.randint(-max_coeff, max_coeff)
        p = p + c * MPoly.monomial(vs, exp)
    return p


SYM = sympy.symbols(TS)


def to_sympy(p):
    return sympy.Add(*[c * sympy.Mul(*[x**k for x, k in zip(SYM, e)])
                       for e, c in p.terms.items()])


small_polys = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)), max_size=3
).map(lambda ts: sum((c * MPoly.monomial(TS, (i, j)) for i, j, c in ts), MPoly.zero(TS)))


def test_mpoly_construction():
    one = MPoly.const(TS, 1)
    t = MPoly.var(TS, "t")
    s = MPoly.var(TS, "s")
    assert MPoly.zero(TS).is_zero()
    assert not one.is_zero()
    assert t * t == MPoly.var(TS, "t") ** 2
    assert t + s == s + t
    assert (t - t).is_zero()
    assert 3 * MPoly.monomial(TS, (2, 1)) == 3 * t * t * s
    # int coercion on either side
    assert 2 * t == t + t
    assert t + 0 == t
    assert 1 - t == MPoly.const(TS, 1) - t


def test_mpoly_degree_leading_const():
    p = parse_poly(TS, "1 - 2*t + t^2*s")
    assert p.degree() == 3
    assert p.leading() == (2, 1)
    assert p.constant_term() == 1
    assert MPoly.zero(TS).constant_term() == 0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_polys, small_polys, small_polys)
def test_mpoly_ring_laws(a, b, c):
    sa, sb = to_sympy(a), to_sympy(b)
    assert sympy.expand(to_sympy(a + b) - (sa + sb)) == 0
    assert sympy.expand(to_sympy(a - b) - (sa - sb)) == 0
    assert sympy.expand(to_sympy(a * b) - sa * sb) == 0
    assert sympy.expand(to_sympy(a**3) - sa**3) == 0
    assert a + (b + c) == (a + b) + c
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - b) + b == a
    assert a * (b * c) == (a * b) * c
    assert -(-a) == a
    assert a**0 == MPoly.const(TS, 1)


def evaluate(p, point):
    total = Fraction(0)
    for e, c in p.terms.items():
        total += c * math.prod(Fraction(point[x]) ** k for x, k in zip(p.vars, e))
    return total


def test_mpoly_evaluate_is_ring_hom():
    rng = random.Random(11)
    for _ in range(40):
        a = rand_poly(rng)
        b = rand_poly(rng)
        pt = {"t": Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
              "s": Fraction(rng.randint(-4, 4), rng.randint(1, 5))}
        assert evaluate(a + b, pt) == evaluate(a, pt) + evaluate(b, pt)
        assert evaluate(a * b, pt) == evaluate(a, pt) * evaluate(b, pt)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(small_polys, small_polys.filter(lambda b: not b.is_zero()))
def test_divexact(a, b):
    assert divexact(a * b, b) == a


def test_divexact_inexact_raises():
    t = MPoly.var(TS, "t")
    with pytest.raises(ArithmeticError):
        divexact(t, t + MPoly.const(TS, 1))
    with pytest.raises(ArithmeticError):
        divexact(MPoly.const(TS, 1) + t * t, t)


def test_mixed_variable_sets_raise():
    t, t2 = MPoly.var(TS, "t"), MPoly.var(TSS, "t")
    with pytest.raises(ValueError, match="mixed variable sets"):
        t + t2
    with pytest.raises(ValueError, match="mixed variable sets"):
        t * t2
    with pytest.raises(ValueError, match="mixed variable sets"):
        RatFun(t, MPoly.const(TSS, 1))


def test_ratfun_canonical_form():
    # integer content is divided out, no polynomial gcd is taken
    r = RatFun(parse_poly(TS, "2*t"), parse_poly(TS, "-4 + 4*t"))
    assert r.num == parse_poly(TS, "t")
    assert r.den == parse_poly(TS, "-2 + 2*t")
    # lex-leading denominator coefficient is made positive
    q = RatFun(parse_poly(TS, "t"), parse_poly(TS, "1 - t"))
    assert q.den == parse_poly(TS, "-1 + t")
    assert q.num == parse_poly(TS, "-t")
    # zero numerator collapses the denominator to 1
    z = RatFun(MPoly.zero(TS), parse_poly(TS, "3 - 3*t"))
    assert z.num.is_zero()
    assert z.den == MPoly.const(TS, 1)
    with pytest.raises(ZeroDivisionError):
        RatFun(parse_poly(TS, "t"), MPoly.zero(TS))


def test_ratfun_equality_cross_multiplies():
    t = parse_poly(TS, "t")
    s = parse_poly(TS, "s")
    one_m_t = parse_poly(TS, "1 - t")
    # unreduced forms compare equal without cancellation
    assert RatFun(t * s, s * one_m_t) == RatFun(t, one_m_t)
    assert rat_equal(RatFun(t * s, s * one_m_t), RatFun(t, one_m_t))
    assert RatFun(t, one_m_t) != RatFun(s, one_m_t)
    assert rat_equal(RatFun(t, t), RatFun(s, s))


def test_ratfun_field_laws():
    rng = random.Random(17)
    checked = 0
    for _ in range(30):
        na, da = rand_poly(rng), rand_poly(rng)
        nb, db = rand_poly(rng), rand_poly(rng)
        if da.is_zero() or db.is_zero():
            continue
        a = RatFun(na, da)
        b = RatFun(nb, db)
        assert a + b == b + a
        assert a - a == RatFun(MPoly.zero(TS))
        assert a * b == b * a
        assert (a + b) - b == a
        if not b.num.is_zero():
            assert a * RatFun(b.den, b.num) * b == a
        checked += 1
    assert checked > 20


def test_series_expand_geometric():
    f = parse_ratfun(TS, "1/(1 - t - s)")
    tab = series_expand(f, (6, 6))
    for d in range(7):
        for n in range(7):
            assert tab[(d, n)] == math.comb(d + n, d)


def test_series_expand_double_variable():
    # s/((1-t)^2 - s) expands to sum_{n>=1} s^n/(1-t)^(2n)
    f = parse_ratfun(TS, "s/((1 - t)^2 - s)")
    tab = series_expand(f, (6, 6))
    for d in range(7):
        assert tab[(d, 0)] == 0
        for n in range(1, 7):
            assert tab[(d, n)] == math.comb(2 * n + d - 1, d)


def test_series_expand_axes_and_unit():
    f = parse_ratfun(TS, "1/(1 - t*s)")
    tab = series_expand(f, (3, 3), axes=("d", "n"))
    assert tab.axes == ("d", "n")
    assert tab[(2, 2)] == 1 and tab[(2, 1)] == 0


def fraction_expand(f, bounds):
    """Reference: the Fraction recurrence series_expand ran before its
    integer kernel, cell by cell with a bounds test per denominator term."""
    c0 = f.den.constant_term()
    dterms = {e: c for e, c in f.den.terms.items() if any(e)}
    table = {}
    for e in itertools.product(*[range(b + 1) for b in bounds]):
        acc = Fraction(f.num.terms.get(e, 0))
        for ed, cd in dterms.items():
            prev = tuple(a - b for a, b in zip(e, ed))
            if any(x < 0 for x in prev):
                continue
            acc -= cd * table[prev]
        table[e] = acc / c0
    return {e: v for e, v in table.items() if v}


@st.composite
def unit_series(draw):
    """A numerator over a denominator with constant term +1 or -1, over TS
    or TSS, in a box whose bounds may be 0 or below the exponents of some
    denominator terms."""
    vs = draw(st.sampled_from([TS, TSS]))
    exps = st.tuples(*[st.integers(0, 4)] * len(vs))
    num = draw(st.dictionaries(exps, st.integers(-4, 4), max_size=4))
    den = draw(st.dictionaries(exps.filter(any), st.integers(-3, 3), max_size=4))
    den[(0,) * len(vs)] = draw(st.sampled_from([1, -1]))
    bounds = draw(st.tuples(*[st.integers(0, 5)] * len(vs)))
    return RatFun(MPoly(vs, num), MPoly(vs, den)), bounds


@settings(max_examples=120, deadline=None, derandomize=True)
@given(unit_series())
# t^6*s and s^3 lie outside the box on one axis each; the constant term is -1
@example((parse_ratfun(TS, "(1 + s^3)/(-1 + t + s^3 + t^6*s)"), (5, 2)))
@example((parse_ratfun(TS, "(1 - t)/(1 - t - s)"), (0, 3)))
@example((parse_ratfun(TSS, "(t - s2)/(1 - t*s1 - s2^4 + t^3*s1^5 - s1*s2)"), (2, 4, 3)))
def test_series_expand_matches_the_fraction_recurrence(case):
    f, bounds = case
    assert f.den.constant_term() in (1, -1)
    tab = series_expand(f, bounds)
    assert tab.bounds == bounds and tab.axes == f.vars
    assert tab.data == fraction_expand(f, bounds)
    assert all(type(v) is int for v in tab.data.values())
    # an unreduced form with constant term 2 keeps the same coefficients
    two = MPoly(f.vars, {(0,) * len(f.vars): 2, (1,) + (0,) * (len(f.vars) - 1): -1})
    assert series_expand(RatFun(f.num * two, f.den * two), bounds) == tab


def test_series_expand_needs_integer_coefficients():
    with pytest.raises(ArithmeticError, match=r"coefficient at \(0, 0\)"):
        series_expand(parse_ratfun(TS, "1/(2 - t)"), (3, 3))
    with pytest.raises(ArithmeticError, match=r"coefficient at \(1, 0\)"):
        series_expand(parse_ratfun(TS, "(2 - 2*s + t)/(2 - 2*s)"), (3, 3))
    # an unreduced form, built with MPoly since the text reader would cancel it
    two_minus_t = 2 - MPoly.var(TS, "t")
    tab = series_expand(RatFun(two_minus_t, two_minus_t), (3, 3))
    assert tab.data == {(0, 0): 1}
    with pytest.raises(ArithmeticError, match="vanishes at the origin"):
        series_expand(parse_ratfun(TS, "1/(t - s)"), (3, 3))


@st.composite
def square_matrices(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    return [[draw(small_polys) for _ in range(n)] for _ in range(n)]


def cofactor_det(mat):
    if not mat:
        return MPoly.const(TS, 1)
    total = MPoly.zero(TS)
    for j, x in enumerate(mat[0]):
        if not x.is_zero():
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            total = total + (-1) ** j * x * cofactor_det(minor)
    return total


@settings(max_examples=40, deadline=None, derandomize=True)
@given(square_matrices())
def test_bareiss_minors_match_sympy_and_cofactors(mat):
    n = len(mat)
    sm = sympy.Matrix([[to_sympy(x) for x in row] for row in mat])
    dets = [sympy.expand(sm[:k, :k].det(method="domain-ge")) for k in range(1, n + 1)]
    if any(d == 0 for d in dets[:-1]):
        with pytest.raises(ArithmeticError):
            bareiss_minors(mat)
        return
    minors = bareiss_minors(mat)
    assert len(minors) == n
    for got, want in zip(minors, dets):
        assert sympy.expand(to_sympy(got) - want) == 0
    assert minors[-1] == cofactor_det(mat)


def test_bareiss_minors_zero_pivot_raises():
    t = parse_poly(TS, "t")
    one, zero = MPoly.const(TS, 1), MPoly.zero(TS)
    with pytest.raises(ArithmeticError):
        bareiss_minors([[zero, one], [one, zero]])
    with pytest.raises(ArithmeticError):
        bareiss_minors([[t, t, one], [t, t, zero], [one, zero, one]])
    # the last minor is never divided by, so it may vanish
    assert bareiss_minors([[one, t], [one, t]]) == [one, zero]
    assert bareiss_minors([]) == []


def test_parse_poly_roundtrip():
    rng = random.Random(23)
    for _ in range(40):
        p = rand_poly(rng)
        assert parse_poly(TS, poly_to_text(p)) == p
    assert parse_poly(TS, "(1 - t)^2") == parse_poly(TS, "1 - 2*t + t^2")
    assert parse_poly(TS, "2*-(t - s)*(1 + t)^2") == parse_poly(TS, "2*(s - t)*(1 + 2*t + t^2)")
    with pytest.raises(ValueError, match="not an integer polynomial"):
        parse_poly(TS, "2.5*t")


def test_parse_ratfun_roundtrip():
    f = parse_ratfun(TS, "(t*s + 1)/(1 - 2*t - s + t^2 + t*s - t^2*s - t*s^2)")
    assert rat_equal(parse_ratfun(TS, ratfun_to_text(f)), f)
    g = parse_ratfun(TS, "1 - t")
    assert g.den == MPoly.const(TS, 1)


def test_count_table_basic():
    tab = CountTable(("d", "n"), (2, 2))
    tab.set((1, 1), 5)
    assert tab[(1, 1)] == 5
    assert tab.get((0, 0)) == 0
    # only nonzero cells are stored
    assert tab.keys_sorted() == [(1, 1)]
    csv = tab.to_csv()
    assert csv.splitlines()[0] == "d,n,count"
    assert "1,1,5" in csv.splitlines()


def test_table_mismatches():
    a = CountTable(("d", "n"), (2, 2))
    b = CountTable(("d", "n"), (2, 2))
    a.set((1, 1), 3)
    b.set((1, 1), 4)
    b.set((2, 0), 7)
    bad = table_mismatches(a, b)
    assert ((1, 1), 3, 4) in bad
    assert ((2, 0), 0, 7) in bad
    assert len(bad) == 2
