"""Exact integer polynomial / rational function arithmetic.

MPoly is a sparse exponent-dict polynomial over a fixed variable set, a
tuple of variable names shared by all polys that interoperate.
RatFun is a quotient of MPolys that is never gcd-reduced; equality is
cross multiplication and canonicalization only strips integer content
and fixes the denominator's leading sign.
"""

import itertools
import math
import operator


TS = ("t", "s")


class MPoly:
    """Multivariate polynomial with integer coefficients, sparse dict storage."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = vars
        self.terms = {e: c for e, c in terms.items() if c} if terms else {}

    @classmethod
    def zero(cls, vars):
        return cls(vars)

    @classmethod
    def const(cls, vars, c):
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def var(cls, vars, name):
        e = [0] * len(vars)
        e[vars.index(name)] = 1
        return cls(vars, {tuple(e): 1})

    @classmethod
    def monomial(cls, vars, exp):
        return cls(vars, {tuple(exp): 1})

    def is_zero(self):
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), 0)

    def _chk(self, other):
        if self.vars != other.vars:
            raise ValueError("mixed variable sets")

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __add__(self, other):
        if isinstance(other, int):
            other = MPoly.const(self.vars, other)
        self._chk(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return MPoly(self.vars, t)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = MPoly.const(self.vars, other)
        self._chk(other)
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, 0) + c1 * c2
        return MPoly(self.vars, t)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = MPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def leading(self):
        # lex-largest exponent tuple; used for canonical signs and divexact
        return max(self.terms)

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __repr__(self):
        return "MPoly(%s)" % poly_to_text(self)

    def __str__(self):
        return poly_to_text(self)


def divexact(a, b):
    """Divide a by b, both MPoly, requiring the division to be exact."""
    if b.is_zero():
        raise ZeroDivisionError("divexact by zero")
    if a.is_zero():
        return MPoly.zero(a.vars)
    rem = dict(a.terms)
    q = {}
    eb = b.leading()
    cb = b.terms[eb]
    while rem:
        er = max(rem)
        cr = rem[er]
        eq = tuple(x - y for x, y in zip(er, eb))
        if any(x < 0 for x in eq) or cr % cb:
            raise ArithmeticError("inexact division")
        cq = cr // cb
        q[eq] = q.get(eq, 0) + cq
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(eq, e2))
            rem[e] = rem.get(e, 0) - cq * c2
            if not rem[e]:
                del rem[e]
    return MPoly(a.vars, q)


class RatFun:
    """Quotient of two MPolys.  Never reduced by polynomial gcd; equality is
    cross multiplication.  Canonical form: joint integer content 1, leading
    denominator coefficient positive, zero stored as 0/1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = MPoly.const(num.vars, 1)
        if num.vars != den.vars:
            raise ValueError("mixed variable sets")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = MPoly.const(num.vars, 1)
        else:
            g = math.gcd(*num.terms.values(), *den.terms.values())
            if den.terms[den.leading()] < 0:
                g = -g
            if g != 1:
                num = MPoly(num.vars, {e: c // g for e, c in num.terms.items()})
                den = MPoly(den.vars, {e: c // g for e, c in den.terms.items()})
        self.num = num
        self.den = den

    @property
    def vars(self):
        return self.num.vars

    def __add__(self, other):
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatFun(self.num * other.num, self.den * other.den)

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __repr__(self):
        return "RatFun(%s)" % ratfun_to_text(self)

    def __str__(self):
        return ratfun_to_text(self)


def rat_equal(a, b):
    return a == b


class CountTable:
    """Dense-by-intent integer table keyed by exponent/profile tuples."""

    __slots__ = ("axes", "bounds", "data")

    def __init__(self, axes, bounds, data=None):
        self.axes = tuple(axes)
        self.bounds = tuple(bounds)
        self.data = dict(data) if data else {}

    def get(self, key):
        return self.data.get(tuple(key), 0)

    __getitem__ = get

    def set(self, key, value):
        key = tuple(key)
        if value:
            self.data[key] = value
        elif key in self.data:
            del self.data[key]

    def keys_sorted(self):
        return sorted(self.data)

    def __eq__(self, other):
        if not isinstance(other, CountTable):
            return NotImplemented
        return self.bounds == other.bounds and self.data == other.data

    def __repr__(self):
        return "CountTable(axes=%r, bounds=%r, %d nonzero)" % (
            self.axes,
            self.bounds,
            len(self.data),
        )

    def to_csv(self):
        lines = [",".join(self.axes + ("count",))]
        for k in sorted(self.data):
            lines.append(",".join(str(x) for x in k) + "," + str(self.data[k]))
        return "\n".join(lines) + "\n"


def table_mismatches(a, b):
    """Cells where two tables differ, over the union of their supports."""
    out = []
    for k in sorted(set(a.data) | set(b.data)):
        if a.data.get(k, 0) != b.data.get(k, 0):
            out.append((k, a.data.get(k, 0), b.data.get(k, 0)))
    return out


def flat_box(bounds, pads):
    """Row-major layout of the box 0 <= e <= bounds in one flat list, with
    pads[i] cells of zeros below 0 on axis i.  From a box cell, a look-back
    by any off with 0 <= off <= pads is a valid index, and it lands on a pad
    cell exactly when it leaves the box, so it needs no bounds test.

    Returns (strides, origin, size, rows): the cell e sits at index
    origin + sum(e_i * strides_i); size is the list length; rows lists
    (prefix, start) for each run of cells along the last axis, in row-major
    order, where start is the index of prefix + (0,).
    """
    extents = [b + 1 + p for b, p in zip(bounds, pads)]
    strides = [1] * len(bounds)
    for i in range(len(bounds) - 1, 0, -1):
        strides[i - 1] = strides[i] * extents[i]
    origin = _dot(pads, strides)
    rows = [
        (pre, origin + _dot(pre, strides))
        for pre in itertools.product(*[range(b + 1) for b in bounds[:-1]])
    ]
    return strides, origin, strides[0] * extents[0], rows


def _dot(a, b):
    return sum(map(operator.mul, a, b))


def series_expand(f, bounds, axes=None):
    """Taylor coefficients of RatFun f in the box exp <= bounds (componentwise).

    Computed in integers by the recurrence c0*S[e] = N[e] - sum D[e']*S[e-e']
    over the nonconstant denominator terms e' inside the box, where c0 is the
    denominator's constant term, on the flat zero-padded box of flat_box.
    Every coefficient must be an integer: that holds for every transfer
    series (c0 = +-1) and for any form, reduced or not, whose series has
    integer coefficients.  Raises ArithmeticError when c0 is 0 or a
    coefficient is not an integer, naming the first such cell.
    """
    vs = f.vars
    if len(bounds) != len(vs):
        raise ValueError("bounds arity mismatch")
    c0 = f.den.constant_term()
    if c0 == 0:
        raise ArithmeticError("denominator vanishes at the origin")

    def inside(e):
        return all(x <= b for x, b in zip(e, bounds))

    dterms = [(e, c) for e, c in f.den.terms.items() if any(e) and inside(e)]
    pads = [max([e[i] for e, _ in dterms], default=0) for i in range(len(bounds))]
    strides, origin, size, rows = flat_box(bounds, pads)
    offs = [(c, _dot(e, strides)) for e, c in dterms]
    cells = [0] * size
    for e, c in f.num.terms.items():
        if inside(e):
            cells[origin + _dot(e, strides)] = c
    data = {}
    last = bounds[-1] + 1
    for pre, start in rows:
        for k in range(start, start + last):
            acc = cells[k]
            for c, off in offs:
                acc -= c * cells[k - off]
            val, rem = divmod(acc, c0)
            if rem:
                raise ArithmeticError(
                    "series coefficient at %r is not an integer" % (pre + (k - start,),)
                )
            cells[k] = val
            if val:
                data[pre + (k - start,)] = val
    return CountTable(tuple(axes) if axes else vs, bounds, data)


def bareiss_minors(mat):
    """Leading principal minors of a square MPoly matrix.

    One fraction-free Bareiss elimination without pivoting: after step k the
    trailing entries are minors bordered on rows and columns 0..k, and each
    division by the previous pivot is exact.  Only the minors before the last
    are divided by; a zero among them raises ArithmeticError.
    """
    a = [list(row) for row in mat]
    n = len(a)
    prev = None
    for k in range(n - 1):
        piv = a[k][k]
        if piv.is_zero():
            raise ArithmeticError("zero leading minor of order %d" % (k + 1))
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                x = piv * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = x if prev is None else divexact(x, prev)
        prev = piv
    return [a[k][k] for k in range(n)]


# ---------------------------------------------------------------------------
# text output: integer coefficients, + - * ^, named variables


def _exp_key(e):
    return (sum(e), e)


def poly_to_text(p):
    if p.is_zero():
        return "0"
    bits = []
    for e in sorted(p.terms, key=_exp_key):
        c = p.terms[e]
        factors = []
        for name, k in zip(p.vars, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append("%s^%d" % (name, k))
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = str(abs(c)) + "*" + "*".join(factors)
        if not bits:
            bits.append(("-" if c < 0 else "") + body)
        else:
            bits.append(("- " if c < 0 else "+ ") + body)
    return " ".join(bits)


def ratfun_to_text(f):
    if f.den == MPoly.const(f.vars, 1):
        return poly_to_text(f.num)
    return "(%s)/(%s)" % (poly_to_text(f.num), poly_to_text(f.den))
