"""Transfer-matrix generating functions for weighted automata.

The series of a partial DFA with start vector e and accepting indicator u is
u^T (I - A)^{-1} e, where A = sum_a w(a) M_a and M_a(i,j) = 1 iff j --a--> i.
By Cramer's rule it is one ratio of determinants,

    u^T (I - A)^{-1} e = -det([[I - A, e], [u^T, 0]]) / det(I - A),

and both are leading principal minors of the bordered matrix, so a single
fraction-free elimination gives the series.  Every WeightFn weight is a
single variable, so every leading principal minor of I - A has constant
term 1 and the elimination needs no pivoting.

The denominator's constant term is therefore +-1, so series_check can expand
the series by exactalg.series_expand in integers and compare it cell by cell
with automata.dp_count, which counts the accepted words directly.
"""

from .exactalg import TS, MPoly, RatFun, bareiss_minors, series_expand, table_mismatches
from .automata import dp_count, minimize


class WeightFn:
    """Letter weights fixed by the alphabet: a content letter weighs t and a
    class-k letter the k-th size variable, s when there is one class and
    s1, s2, ... otherwise."""

    __slots__ = ("alphabet", "vars")

    def __init__(self, alphabet):
        self.alphabet = alphabet
        k = alphabet.sizes
        self.vars = TS if k == 1 else ("t",) + tuple("s%d" % i for i in range(1, k + 1))

    def monomial(self, name):
        return MPoly.var(self.vars, self.vars[self.alphabet.axis[name]])


def transfer_matrix(dfa, weights):
    """I - sum_a w(a) M_a as a dense MPoly matrix in DFA state order."""
    vs = weights.vars
    r = dfa.r
    mat = [[MPoly.zero(vs) for _ in range(r)] for _ in range(r)]
    for i in range(r):
        mat[i][i] = MPoly.const(vs, 1)
    for (j, sym), i in dfa.trans.items():
        mat[i][j] = mat[i][j] - weights.monomial(sym)
    return mat


def transfer_series(dfa, weights):
    """Exact generating function of accepted words, one variable per weight axis.

    Computed on the minimized automaton as the bordered-determinant ratio.
    """
    dfa = minimize(dfa)
    vs = weights.vars
    one, zero = MPoly.const(vs, 1), MPoly.zero(vs)
    mat = transfer_matrix(dfa, weights)
    for q, row in enumerate(mat):
        row.append(one if q == dfa.start else zero)
    mat.append([one if q in dfa.accepts else zero for q in range(dfa.r)] + [zero])
    minors = bareiss_minors(mat)
    return RatFun(-minors[-1], minors[-2])


def series_check(dfa, weights, dmax, size_bounds):
    """Expand the transfer series and compare against direct word counting."""
    f = transfer_series(dfa, weights)
    bounds = (dmax,) + tuple(size_bounds)
    expanded = series_expand(f, bounds)
    counted = dp_count(dfa, dmax, size_bounds)
    bad = table_mismatches(expanded, counted)
    return not bad, bad
