"""Toric side of the window presentations.

Edge variables x[i,j] map to x_i*x_j (`monoracle.presentation_image`), and
a binomial lies in the kernel iff both sides have equal images.  A fiber,
the edge monomials of one image, gives the kernel quadrics and the minimal
generators.  Includes the recursive kernel family for the gap map, fiber
enumeration, fiber-graph connectivity and degree-reducing reduction.
"""

import itertools

from .monoracle import (
    edge_spans,
    mono_freeze,
    mono_str,
    multiset,
    presentation_image,
    window_edges,
)


class Binomial:
    """x^u - x^v over edge variables, stored with disjoint supports."""

    __slots__ = ("u", "v")

    def __init__(self, u, v):
        diff = dict(u)
        for e, k in v.items():
            diff[e] = diff.get(e, 0) - k
        self.u = {e: k for e, k in diff.items() if k > 0}
        self.v = {e: -k for e, k in diff.items() if k < 0}

    def is_zero(self):
        return not self.u and not self.v

    def degree(self):
        return max(sum(self.u.values()), sum(self.v.values()))

    def shifted(self, k):
        return Binomial(
            {(i + k, j + k): e for (i, j), e in self.u.items()},
            {(i + k, j + k): e for (i, j), e in self.v.items()},
        )

    def min_vertex(self):
        verts = [i for (i, j) in self.u] + [i for (i, j) in self.v]
        return min(verts) if verts else 1

    def max_vertex(self):
        verts = [j for (i, j) in self.u] + [j for (i, j) in self.v]
        return max(verts) if verts else 1

    def key(self):
        a = tuple(sorted(self.u.items()))
        b = tuple(sorted(self.v.items()))
        return (a, b) if a <= b else (b, a)

    def __eq__(self, other):
        return isinstance(other, Binomial) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Binomial(%s)" % binomial_str(self)


def binomial_str(b):
    if b.is_zero():
        return "0"
    return "%s - %s" % (mono_str(b.u), mono_str(b.v))


def kernel_test(b):
    return presentation_image(b.u) == presentation_image(b.v)


def apply_move(mono, u, v):
    """mono * x^v / x^u as a dict, or None when x^u does not divide mono."""
    for e, k in u.items():
        if mono.get(e, 0) < k:
            return None
    out = dict(mono)
    for e, k in u.items():
        out[e] -= k
        if not out[e]:
            del out[e]
    for e, k in v.items():
        out[e] = out.get(e, 0) + k
    return out


def g2():
    return Binomial({(1, 2): 1, (3, 4): 1}, {(1, 3): 1, (2, 4): 1})


class GenElement:
    """One member of the recursive kernel family for the gap map, reached from
    the base element by a sequence of 1- and 2-steps."""

    __slots__ = ("s", "w")

    def __init__(self, s, w):
        self.s = tuple(s)
        self.w = dict(w)

    @classmethod
    def base(cls):
        return cls(
            (),
            {
                (1, 2): 1,
                (1, 3): -1,
                (2, 3): -1,
                (3, 5): 2,
                (5, 6): -1,
                (5, 7): -1,
                (6, 7): 1,
            },
        )

    def label(self):
        return "g(%s)" % ",".join(str(x) for x in self.s)

    def span(self):
        return max(j for (i, j) in self.w)

    def degree(self):
        return sum(w for w in self.w.values() if w > 0)

    def binomial(self):
        return Binomial(self.w, {})

    def child(self, step):
        """Append a 1-step (span +2) or 2-step (span +3) to the sequence."""
        k = self.span()
        new = {}
        for (i, j), w in self.w.items():
            if i <= k - 4 and j <= k - 2:
                new[(i, j)] = new.get((i, j), 0) + w
        if step == 1:
            w = self.w.get((k - 2, k))
            if w:
                new[(k - 2, k)] = new.get((k - 2, k), 0) + 2 * w
            for (i, j), w in self.w.items():
                if i + 2 >= k and j + 2 >= k + 1:
                    new[(i + 2, j + 2)] = new.get((i + 2, j + 2), 0) - w
        elif step == 2:
            w = self.w.get((k - 2, k - 1))
            if w:
                new[(k - 2, k - 1)] = new.get((k - 2, k - 1), 0) + 2 * w
                new[(k - 1, k + 1)] = new.get((k - 1, k + 1), 0) - 2 * w
            for (i, j), w in self.w.items():
                if i + 3 >= k + 1 and j + 3 >= k + 2:
                    new[(i + 3, j + 3)] = new.get((i + 3, j + 3), 0) + w
        else:
            raise ValueError("step must be 1 or 2")
        return GenElement(self.s + (step,), {e: w for e, w in new.items() if w})

    def structure_check(self):
        """Bottom triangle, alternating doubled chain, top triangle."""
        k = self.span()
        w = self.w
        bottom = [(1, 2), (1, 3), (2, 3)]
        top = [(k - 2, k - 1), (k - 2, k), (k - 1, k)]
        if w.get((1, 2)) != 1 or w.get((1, 3)) != -1 or w.get((2, 3)) != -1:
            return False
        eps = w.get((k - 2, k - 1))
        if eps not in (1, -1):
            return False
        if w.get((k - 2, k)) != eps or w.get((k - 1, k)) != -eps:
            return False
        middle = sorted(e for e in w if e not in bottom and e not in top)
        if not middle or middle[0] != (3, 5) or middle[-1] != (k - 4, k - 2):
            return False
        sign = 1
        prev = None
        for e in middle:
            if w[e] != 2 * sign:
                return False
            # no span-1 chain edge starts where another ends
            if prev is not None and prev[1] == e[0] and prev[1] - prev[0] == 1 == e[1] - e[0]:
                return False
            prev = e
            sign = -sign
        if any(j - i not in edge_spans("gap", None) for i, j in w):
            return False
        return kernel_test(self.binomial())


def build_gen_family(max_degree=None, max_span=None):
    """The recursive elements from g() on, by degree, within the degree/span budget; not g2."""
    base = GenElement.base()
    out = []
    frontier = [base]
    while frontier:
        nxt = []
        for g in frontier:
            if max_degree is not None and g.degree() > max_degree:
                continue
            if max_span is not None and g.span() > max_span:
                continue
            out.append(g)
            nxt.append(g.child(1))
            nxt.append(g.child(2))
        frontier = nxt
    out.sort(key=lambda g: (g.degree(), g.s))
    return out


def quadric_family(c, n):
    """Kernel quadrics of the square map with bandwidth c in window n: each
    pair of distinct edge monomials in one degree-2 fiber."""
    fibers = {}
    for m, img in edge_multisets(edge_spans("window-squares", c), n, 2):
        fibers.setdefault(mono_freeze(img), []).append(m)
    return sorted((Binomial(u, v) for group in fibers.values()
                   for u, v in itertools.combinations(group, 2)), key=Binomial.key)


def edge_multisets(spans, n, d):
    """Every degree-d multiset of window edges, with its x-monomial image."""
    for combo in itertools.combinations_with_replacement(window_edges(spans, n), d):
        m = multiset(combo)
        yield m, presentation_image(m)


def image_targets(spans, n, d):
    """The distinct images of degree-d window edge multisets, in first-seen
    order, as sorted dicts."""
    seen = {}
    for _, img in edge_multisets(spans, n, d):
        seen.setdefault(mono_freeze(img), None)
    return [dict(key) for key in seen]


def enumerate_fiber(spans, n, target):
    """All window edge-monomials with the given x-monomial image.

    A depth-first walk over a stack of (uncovered, edges so far) states; a
    step covers the least uncovered vertex a with an edge (a, a + span) no
    smaller than the edge before it.
    """
    for k, e in target.items():
        if not isinstance(e, int) or e < 0:
            raise ValueError("target exponent of x%s must be an int >= 0, got %r" % (k, e))
    rem = {k: e for k, e in target.items() if e}
    if rem and min(rem) < 1:
        raise ValueError("target variable x%d needs an index of at least 1" % min(rem))
    out = set()
    stack = [(rem, (0, 0), {})]
    while stack:
        rem, floor, acc = stack.pop()
        if not rem:
            out.add(mono_freeze(acc))
            continue
        a = min(rem)
        if a > n:
            continue
        for sp in spans:
            e = (a, a + sp)
            if e >= floor:
                rest = apply_move(rem, multiset(e), {})
                if rest is not None:
                    stack.append((rest, e, {**acc, e: acc.get(e, 0) + 1}))
    return sorted(out)


def shifts_within(b, lo, hi):
    """The (offset, shifted binomial) pairs of b whose vertices lie in lo..hi."""
    return [(k, b.shifted(k)) for k in range(lo - b.min_vertex(), hi - b.max_vertex() + 1)]


def move_sides(moves, span):
    """(label, u, v) for each move, each of its shifts within the vertex span
    (lo, hi) unless span is None (the offset appended to the label), and both
    directions: x^u becomes x^v."""
    for label, b in moves:
        shifts = [(label, b)] if span is None else [
            ("%s%+d" % (label, k), s) for k, s in shifts_within(b, *span)]
        for name, s in shifts:
            yield name, s.u, s.v
            yield name, s.v, s.u


def _root(parent, x):
    """Union-find root of x, halving the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def fiber_report(kind, c, n, target, moves, use_shifts=True):
    """Connectivity of the fiber graph over the given target under the moves.

    moves: list of (label, Binomial).  With use_shifts every shift of each
    move within the target's vertex span is applied, its label getting the
    offset appended; a shift acts only where one side divides a fiber
    element, and both sides of a kernel move share their vertices.
    """
    fiber = enumerate_fiber(edge_spans(kind, c), n, target)
    index = {f: i for i, f in enumerate(fiber)}
    span = (min(target, default=1), max(target, default=0)) if use_shifts else None
    sides = list(move_sides(moves, span))
    parent = list(range(len(fiber)))
    used = set()
    for a, f in enumerate(fiber):
        fd = dict(f)
        for label, u, v in sides:
            g = apply_move(fd, u, v)
            other = None if g is None else index.get(mono_freeze(g))
            if other is None:
                continue
            ra, rb = _root(parent, a), _root(parent, other)
            if ra != rb:
                parent[ra] = rb
                used.add(label)
    comps = {}
    for a, f in enumerate(fiber):
        comps.setdefault(_root(parent, a), []).append(f)
    components = sorted(sorted(mono_str(dict(f)) for f in comp) for comp in comps.values())
    return {
        "target": mono_str(target),
        "fiber_size": len(fiber),
        "components": components,
        "connected": len(components) <= 1,
        "moves_used": sorted(used),
    }


def reduce_binomial(h, moves):
    """Degree-reducing reduction of a kernel binomial by the given moves.

    Applies a move (or any shift) only when it strictly lowers the degree
    after cancelling; returns the zero binomial or the remainder.
    """
    if not kernel_test(h):
        raise ValueError("input binomial is not in the kernel")
    while not h.is_zero():
        lower = _first_reduction(h, moves)
        if lower is None:
            return h
        h = lower
    return h


def _first_reduction(h, moves):
    """h after the first move or shift that shares an edge with the other
    side once applied, so that cancelling lowers the degree; else None.
    Kernel moves act on h only through shifts within h's vertex span."""
    for _, u, v in move_sides(moves, (h.min_vertex(), h.max_vertex())):
        for a, other in ((h.u, h.v), (h.v, h.u)):
            cand = apply_move(a, u, v)
            if cand is not None and not cand.keys().isdisjoint(other):
                return Binomial(cand, dict(other))
    return None


def gen_degree_stats(nmin, nmax):
    """Max degree of the kernel family fitting window n vs the closed formula.

    Window n holds the edges x[i,j] with i <= n (see window_edges), so an
    element fits iff its span is at most n + 1.  The quadric g2 has span 4
    and degree 2; the base element has span 7 and degree 4; a 1-step adds
    2 to the span and 1 to the degree, a 2-step adds 3 and 2.  Spending the
    n - 6 spare span units on 2-steps (one 1-step for a remainder of 2)
    gives the closed form: 0 for n <= 2, 2 for 3 <= n <= 5, floor(2n/3)
    from n = 6 on.
    """
    sized = [(g.span(), g.degree()) for g in build_gen_family(max_span=nmax + 1)]
    rows = []
    for n in range(nmin, nmax + 1):
        computed = max([deg for span, deg in sized if span <= n + 1], default=0)
        if n >= 3:
            computed = max(computed, g2().degree())
        if n < 3:
            formula = 0
        elif n < 6:
            formula = 2
        else:
            formula = 2 * n // 3
        rows.append(
            {"n": n, "computed": computed, "formula": formula, "equal": computed == formula}
        )
    return rows


def minimal_generator_degrees(kind, c, n, dmax):
    """Count minimal generators of the window kernel per degree via fibers.

    A fiber contributes (components - 1) minimal generators in its degree,
    components taken under the share-a-variable adjacency.  Two multisets
    are linked by a chain of shared edges exactly when their edges are
    joined, so a fiber's components are its edge components.

    An image's least vertex is the start of its multisets' first edge, and
    the multisets come in lex order, so the fibers of one start vertex are
    dropped when its block ends.  A fiber is keyed by its packed image and
    holds its components as disjoint bitmasks of window edges, one int until
    it splits and then a list; a multiset that meets k of them joins them,
    so the count gains 1 - k.
    """
    spans = edge_spans(kind, c)
    top = n + max(spans, default=0)
    bit = {e: 1 << k for k, e in enumerate(window_edges(spans, n))}
    out = {}
    for d in range(2, dmax + 1):
        # exponents of a degree-d image are at most 2d, so base 2d + 1 packs it
        powers = [(2 * d + 1) ** v for v in range(top + 1)]
        surplus = 0
        start = None
        for m, img in edge_multisets(spans, n, d):
            i = next(iter(m))[0]
            if i != start:
                start, fibers = i, {}
            key = sum([e * powers[v] for v, e in img.items()])
            mask = sum(map(bit.__getitem__, m))
            comps = fibers.get(key, 0)
            if type(comps) is int:
                if not comps or comps & mask:
                    fibers[key] = comps | mask
                    continue
                comps = [comps]
            # the components are disjoint, so those met sum to their union
            rest = [x for x in comps if not x & mask]
            fibers[key] = rest + [sum(comps) - sum(rest) | mask]
            surplus += len(rest) + 1 - len(comps)
        out[d] = surplus
    return out
