"""Test-side reader of polynomial and rational-function text, built on sympy.

The program builds its closed forms with MPoly arithmetic and only prints
text; the tests read the forms they compare against with these two calls.
sympy cancels equal factors while it reads, so a test that needs an
unreduced form builds it with MPoly arithmetic instead.
"""

import sympy

from equihilb.exactalg import MPoly, RatFun


def _read(vars, text):
    syms = sympy.symbols(vars)
    return syms, sympy.sympify(text, locals=dict(zip(vars, syms)))


def _mpoly(vars, syms, expr):
    terms = sympy.Poly(expr, *syms).terms()
    if not all(c.is_integer for _, c in terms):
        raise ValueError("not an integer polynomial in %s: %s" % (", ".join(vars), expr))
    return MPoly(vars, {e: int(c) for e, c in terms})


def parse_poly(vars, text):
    """MPoly over vars from text such as '(1 - t)^2 - s'."""
    syms, expr = _read(vars, text)
    return _mpoly(vars, syms, expr)


def parse_ratfun(vars, text):
    """RatFun over vars from '(num)/(den)' or a bare polynomial."""
    syms, expr = _read(vars, text)
    num, den = sympy.fraction(sympy.together(expr))
    return RatFun(_mpoly(vars, syms, num), _mpoly(vars, syms, den))
