"""Checks of every job's output, made apart from the timed process.

Each check compares an output with a computation that shares no code with
the path being timed, or with a property the method must have:

- series texts are parsed here and must generate the independent counts in
  a box (D * C == N, coefficient by coefficient); a single language's
  series must equal its hand-derived closed form, a concatenation's the
  product of its factors' forms, and a Segre product's the pointwise
  product in degree of its factors' forms (tested at random points);
- poly-ring counts are math.comb(c*n + d - 1, d); window-squares and gap
  counts come from their hand-derived closed forms, expanded here, and
  additionally from the string-bounded oracle (window-squares) and from
  dp_count word counts (gap);
- Segre counts are the factor counts multiplied pointwise (the paper's
  theorem), concatenation counts their convolution in degree;
- fiber sweeps must give connected fibers of the independently counted
  size whose elements all map to the target; the minimal generator
  degrees must top out at floor(2n/3), and for n = 7..9 equal the pinned
  counts of every degree.

`check(job, out)` returns a list of problems; an empty list means correct.
"""

import itertools
import math
import random
import re

from jobs import fiber_sizes

TS = ("t", "s")
TSS = ("t", "s1", "s2")


# ---------------------------------------------------------------------------
# polynomials as {exponent tuple: int}


def p_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + sign * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def p_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def p_const(nvars, c):
    return {(0,) * nvars: c} if c else {}


def p_var(names, name, k=1):
    return {tuple(k if v == name else 0 for v in names): 1}


_TERM = re.compile(r"(\d+)?(?:\*?([a-z]\w*(?:\^\d+)?(?:\*[a-z]\w*(?:\^\d+)?)*))?$")


def parse_poly(text, names):
    """A sum of terms 'c*x^k*y', each sign written as ' + ' or ' - '."""
    out = {}
    text = text.strip()
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    for i, part in enumerate(re.split(r" ([+-]) ", text)):
        if i % 2:
            sign = 1 if part == "+" else -1
            continue
        m = _TERM.match(part)
        if not part or not m:
            raise ValueError("bad term %r" % part)
        coeff = int(m.group(1) or 1)
        exp = [0] * len(names)
        for factor in (m.group(2) or "").split("*") if m.group(2) else []:
            name, _, k = factor.partition("^")
            if name not in names:
                raise ValueError("unknown variable %r" % name)
            exp[names.index(name)] += int(k or 1)
        e = tuple(exp)
        out[e] = out.get(e, 0) + sign * coeff
    return {e: c for e, c in out.items() if c}


def parse_ratfun(text, names):
    """'(num)/(den)' or a bare polynomial, as (num, den)."""
    m = re.fullmatch(r"\((.*)\)/\((.*)\)", text.strip())
    if m:
        return parse_poly(m.group(1), names), parse_poly(m.group(2), names)
    return parse_poly(text, names), p_const(len(names), 1)


# Identities of polynomials are tested by evaluation at fixed random points
# modulo the prime 2^61 - 1: two different polynomials of degree k agree at
# one point with probability at most k / P, so at three points never in
# practice, and a check costs one pass over the terms.
P = (1 << 61) - 1
_RNG = random.Random(20220218)
POINTS = {n: [tuple(_RNG.randrange(2, P) for _ in range(n)) for _ in range(3)] for n in (1, 2, 3)}


def p_eval(p, point):
    total = 0
    for e, c in p.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term = term * pow(x, k, P) % P
        total += term
    return total % P


def rat_same(a, b):
    """a[0]/a[1] == b[0]/b[1], by evaluating a0*b1 - b0*a1 at random points."""
    nvars = len(next(iter(a[1])))
    return all(
        p_eval(a[0], x) * p_eval(b[1], x) % P == p_eval(b[0], x) * p_eval(a[1], x) % P
        for x in POINTS[nvars]
    )


def t_rows(p, sizes):
    """p with its size variables set to numbers: coefficients by t-degree."""
    rows = [0] * (1 + max(e[0] for e in p))
    for e, c in p.items():
        term = c
        for x, k in zip(sizes, e[1:]):
            term = term * pow(x, k, P) % P
        rows[e[0]] = (rows[e[0]] + term) % P
    return rows


def t_series(num, den, sizes, order):
    """Coefficients of t^0..t^order of num/den with the sizes set."""
    n, d = t_rows(num, sizes), t_rows(den, sizes)
    inv = pow(d[0], P - 2, P)
    out = []
    for k in range(order + 1):
        acc = n[k] if k < len(n) else 0
        for j in range(1, min(k, len(d) - 1) + 1):
            acc -= d[j] * out[k - j]
        out.append(acc * inv % P)
    return out


def segre_differs(num, den, fa, fb):
    """First t-degree where den * F - num is not zero, None if none is.

    F = sum_d t^d A_d(s1) B_d(s2) is the Segre product of the factor
    series A and B: counts multiply pointwise in degree.  Each t-coefficient
    of den * F - num is a rational function of (s1, s2), tested at random
    points.  If num/den were not F, the first nonzero coefficient would
    come before the sum of the t-degrees of num, den and the Hadamard
    product's denominator (at most the product of the factors' t-degrees).
    """
    deg = lambda p: max(e[0] for e in p)
    order = deg(num) + deg(den) + (deg(fa[1]) + 1) * (deg(fb[1]) + 1) + 2
    for u, v, _ in POINTS[3]:
        a, b = t_series(*fa, (u,), order), t_series(*fb, (v,), order)
        n, d = t_rows(num, (u, v)), t_rows(den, (u, v))
        for e in range(order + 1):
            acc = sum(d[k] * a[e - k] * b[e - k] for k in range(min(e, len(d) - 1) + 1))
            if (acc - (n[e] if e < len(n) else 0)) % P:
                return e
    return None


def generates(num, den, counts, bounds):
    """Cells e of the box where (den * counts)[e] != num[e]."""
    dterms = [(e, c) for e, c in den.items() if all(x <= b for x, b in zip(e, bounds))]
    bad = []
    for e in itertools.product(*[range(b + 1) for b in bounds]):
        acc = 0
        for ed, cd in dterms:
            prev = tuple(x - y for x, y in zip(e, ed))
            if min(prev) >= 0:
                acc += cd * counts.get(prev, 0)
        if acc != num.get(e, 0):
            bad.append(e)
    return bad


def expand(num, den, bounds):
    """Power-series coefficients of num/den in the box (den(0) = +-1)."""
    zero = (0,) * len(bounds)
    c0 = den[zero]
    rest = [(e, c) for e, c in den.items() if e != zero and all(x <= b for x, b in zip(e, bounds))]
    out = {}
    for e in itertools.product(*[range(b + 1) for b in bounds]):
        acc = num.get(e, 0)
        for ed, cd in rest:
            prev = tuple(x - y for x, y in zip(e, ed))
            if min(prev) >= 0:
                acc -= cd * out.get(prev, 0)
        out[e] = acc // c0
    return out


# ---------------------------------------------------------------------------
# hand-derived closed forms and independent counts


def closed_form(kind, c):
    """Series s * F with F the hand-derived transfer series of the family."""
    t, s = p_var(TS, "t"), p_var(TS, "s")
    one = p_const(2, 1)
    if kind == "poly-ring":
        den = p_const(2, 1)
        for _ in range(c):
            den = p_mul(den, p_add(one, t, -1))
        return s, p_add(den, s, -1)
    if kind == "window-squares":
        ramp = {(0, e): c - e for e in range(c)}
        geom = {(0, i): 1 for i in range(1, c + 1)}
        num = p_mul(s, p_add(one, p_mul(t, ramp)))
        den = p_add(p_add(p_add(one, t, -1), s, -1), p_mul(t, geom), -1)
        return num, den
    # gap: (1 + t s) / (1 - 2t - s + t^2 + t s - t^2 s - t s^2)
    num = p_mul(s, {(0, 0): 1, (1, 1): 1})
    den = {(0, 0): 1, (1, 0): -2, (0, 1): -1, (2, 0): 1, (1, 1): 1, (2, 1): -1, (1, 2): -1}
    return num, den


def single_counts(kind, c, bounds):
    """Algebra dimension at (d, n) for every cell of the box (0 at n = 0)."""
    if kind == "poly-ring":
        return {
            (d, n): math.comb(c * n + d - 1, d) if n else 0
            for d in range(bounds[0] + 1)
            for n in range(bounds[1] + 1)
        }
    return expand(*closed_form(kind, c), bounds)


def lang_counts(spec, bounds):
    if "pair" not in spec:
        return single_counts(spec["kind"], spec["c"], bounds)
    dmax, mmax, nmax = bounds
    a = single_counts(spec["a"]["kind"], spec["a"]["c"], (dmax, mmax))
    b = single_counts(spec["b"]["kind"], spec["b"]["c"], (dmax, nmax))
    out = {}
    for d, m, n in itertools.product(range(dmax + 1), range(mmax + 1), range(nmax + 1)):
        if spec["pair"] == "segre":
            out[(d, m, n)] = a[(d, m)] * b[(d, n)]
        else:
            out[(d, m, n)] = sum(a[(d1, m)] * b[(d - d1, n)] for d1 in range(d + 1))
    return out


def _program_counts(spec, bounds):
    """Second sources for single languages: the string-bounded oracle for
    window-squares and dp_count word counts for gap; None otherwise."""
    if "pair" in spec or spec["kind"] == "poly-ring":
        return None
    from equihilb import automata, langlib, monoracle

    dmax, nmax = bounds
    if spec["kind"] == "window-squares":
        fam = monoracle.GeneratorFamily("window-squares", spec["c"])
        table = monoracle.hilbert_counts(fam, nmax, dmax, monoracle.STRING_BOUNDED)
        return {(d, n): table.get((d, n)) for d in range(dmax + 1) for n in range(1, nmax + 1)}
    words = automata.dp_count(langlib.lang_gap().dfa, dmax, (nmax - 1,))
    return {(d, n): words.get((d, n - 1)) for d in range(dmax + 1) for n in range(1, nmax + 1)}


def _mismatch(got, want, what):
    keys = sorted(set(got) | set(want))
    bad = [k for k in keys if got.get(k, 0) != want.get(k, 0)]
    if bad:
        k = bad[0]
        return ["%s: %d cells differ, first %r: %r vs %r"
                % (what, len(bad), k, got.get(k, 0), want.get(k, 0))]
    return []


def _names(spec):
    return TSS if "pair" in spec else TS


# ---------------------------------------------------------------------------
# per-op checks


def _embed(p, axis):
    """A (t, s) polynomial as one in (t, s1, s2), s sent to s1 or s2."""
    return {(e[0], e[1], 0) if axis == 1 else (e[0], 0, e[1]): c for e, c in p.items()}


def exact_form(spec):
    """The series as an exact closed form, where one is known: the
    hand-derived form of a single language, and for a concatenation the
    product of its factors' forms (counts convolve in degree).  None for a
    Segre product, whose counts multiply pointwise in degree."""
    if "pair" not in spec:
        return closed_form(spec["kind"], spec["c"])
    if spec["pair"] != "concat":
        return None
    (na, da), (nb, db) = (closed_form(spec[k]["kind"], spec[k]["c"]) for k in ("a", "b"))
    return p_mul(_embed(na, 1), _embed(nb, 2)), p_mul(_embed(da, 1), _embed(db, 2))


def check_series(job, out):
    spec = job["lang"]
    names = _names(spec)
    try:
        num, den = parse_ratfun(out["series"], names)
    except ValueError as exc:
        return ["series text does not parse: %s" % exc]
    problems = []
    exact = exact_form(spec)
    if exact is None:
        fa, fb = (closed_form(spec[k]["kind"], spec[k]["c"]) for k in ("a", "b"))
        e = segre_differs(num, den, fa, fb)
        if e is not None:
            problems.append("series is not the Segre product of its factors (t-degree %d)" % e)
    elif not rat_same((num, den), exact):
        problems.append("series differs from its exact closed form")
    bounds = (5, 5) if names == TS else (4, 3, 3)
    counts = lang_counts(spec, bounds)
    bad = generates(num, den, counts, bounds)
    if bad:
        problems.append("series does not generate the counts, first at %r" % (bad[0],))
    if "pair" not in spec:
        second = _program_counts(spec, (4, 4))
        if second is not None:
            first = {k: counts[k] for k in second}
            problems += _mismatch(first, second, "closed form vs second count source")
    offset = p_var(names, "s") if names == TS else p_mul(p_var(names, "s1"), p_var(names, "s2"))
    for label, text, verdict in out["forms"]:
        ref_num, ref_den = parse_ratfun(text, names)
        truth = rat_same((num, den), (p_mul(offset, ref_num), ref_den))
        if verdict is not truth:
            problems.append("verdict for %r is %r, should be %r" % (label, verdict, truth))
    return problems


def _table(out):
    return {tuple(int(x) for x in k.split(",")): v for k, v in out.items()}


def check_expand(job, out):
    bounds = tuple(job["bounds"])
    want = {k: v for k, v in lang_counts(job["lang"], bounds).items() if v}
    problems = check_series(job, out)
    problems += _mismatch(_table(out["table"]), want, "expansion vs independent counts")
    if job["lang"].get("kind") == "gap":
        words = _program_counts(job["lang"], bounds)
        problems += _mismatch(words, {k: want.get(k, 0) for k in words}, "dp_count vs closed form")
    return problems


def check_series_check(job, out):
    if out["ok"] is not True or out["bad"]:
        return ["series_check reports mismatches: %r" % (out["bad"][:2],)]
    return []


def check_compare(job, out):
    kind, c, dmax, nmax = job["kind"], job["c"], job["dmax"], job["nmax"]
    want = single_counts(kind, c, (dmax, nmax))
    problems = []
    cells = {(r["d"], r["n"]): r for r in out["cells"]}
    expected_cells = set(itertools.product(range(dmax + 1), range(1, nmax + 1)))
    if set(cells) != expected_cells:
        problems.append("report covers the wrong cells")
    for key, r in sorted(cells.items()):
        if not (r["language"] == r["oracle"] == want.get(key) and r["equal"] is True):
            problems.append("cell %r: language %r oracle %r independent %r"
                            % (key, r["language"], r["oracle"], want.get(key)))
            break
    if out["all_equal"] is not True:
        problems.append("all_equal is %r" % out["all_equal"])
    return problems


def check_word_maps(job, out):
    n, d = job["n"], job["d"]
    want = single_counts(job["kind"], job["c"], (d, n))[(d, n)]
    counts = (out["word_count"], out["distinct_images"], out["monomial_count"])
    if counts != (want, want, want) or out["bijective"] is not True or out["collision"]:
        return ["word map at n=%d d=%d: %r, want %d each and a bijection" % (n, d, counts, want)]
    return []


def check_agrees(job, out):
    if out["ok"] is not True or out["cex"] is not None or out["checked"] < 1:
        return ["automaton and predicate disagree at %r" % (out["cex"],)]
    return []


_EDGE = re.compile(r"x\[(\d+),(\d+)\](?:\^(\d+))?$")
_VAR = re.compile(r"x(\d+)(?:\^(\d+))?$")


def _edge_image(text):
    img = {}
    for part in text.split("*"):
        m = _EDGE.match(part)
        i, j, k = int(m.group(1)), int(m.group(2)), int(m.group(3) or 1)
        img[i] = img.get(i, 0) + k
        img[j] = img.get(j, 0) + k
    return tuple(sorted(img.items()))


def _x_monomial(text):
    out = {}
    for part in text.split("*"):
        m = _VAR.match(part)
        out[int(m.group(1))] = out.get(int(m.group(1)), 0) + int(m.group(2) or 1)
    return tuple(sorted(out.items()))


def check_fibers(job, out):
    sizes = fiber_sizes(job["kind"], job["c"], job["n"], job["degree"])
    targets = [tuple(map(tuple, t)) for t in job["targets"]]
    if [_x_monomial(r["target"]) for r in out] != targets:
        return ["reports do not follow the target list"]
    for target, r in zip(targets, out):
        elems = [e for comp in r["components"] for e in comp]
        if not (r["connected"] is True and len(r["components"]) == 1):
            return ["fiber over %s is split into %d components" % (r["target"], len(r["components"]))]
        if r["fiber_size"] != sizes[target] or len(set(elems)) != sizes[target]:
            return ["fiber over %s has %d elements (%d listed), independent count %d"
                    % (r["target"], r["fiber_size"], len(set(elems)), sizes[target])]
        if any(_edge_image(e) != target for e in elems):
            return ["fiber over %s holds an element of another image" % r["target"]]
    return []


# Minimal generator counts per degree of the gap kernel, pinned once and
# confirmed by a separate component count (breadth-first search over the
# edge multisets of each fiber, adjacent when they share an edge).
MINGEN = {
    7: {2: 5, 3: 0, 4: 2, 5: 0},
    8: {2: 6, 3: 0, 4: 3, 5: 1},
    9: {2: 7, 3: 0, 4: 4, 5: 2, 6: 1},
}


def check_mingen(job, out):
    n, dmax = job["n"], job["dmax"]
    counts = {int(d): k for d, k in out.items()}
    top = max((d for d, k in counts.items() if k), default=None)
    problems = []
    if sorted(counts) != list(range(2, dmax + 1)):
        problems.append("degrees %r, want 2..%d" % (sorted(counts), dmax))
    if top != 2 * n // 3:
        problems.append("top generator degree %r, want floor(2n/3) = %d" % (top, 2 * n // 3))
    if counts.get(2) != n - 2 or counts.get(3) != 0:
        problems.append("%r quadrics and %r cubics, want %d and 0"
                        % (counts.get(2), counts.get(3), n - 2))
    if n in MINGEN and counts != MINGEN[n]:
        problems.append("generator counts %r, want %r" % (counts, MINGEN[n]))
    return problems


CHECKS = {
    "series": check_series,
    "expand": check_expand,
    "series_check": check_series_check,
    "compare": check_compare,
    "word_maps": check_word_maps,
    "agrees": check_agrees,
    "fibers": check_fibers,
    "mingen": check_mingen,
}


def check(job, out):
    return CHECKS[job["op"]](job, out)
