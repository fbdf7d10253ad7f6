"""Brute-force monomial algebra oracle.

Enumerates window-algebra monomials directly from generators or from
canonical string presentations, independent of the automata pipeline, so
the two can be compared cell by cell.
"""

import itertools

from .exactalg import CountTable
from .automata import dp_count, enumerate_words

ALGEBRA = "algebra"
STRING_BOUNDED = "string-bounded"
CONVENTIONS = (ALGEBRA, STRING_BOUNDED)


def edge_spans(kind, c):
    """Index distances j - i of the window edges (i, j) of a map kind."""
    if kind == "gap":
        return (1, 2)
    if kind == "window-squares":
        if not isinstance(c, int) or c < 0:
            raise ValueError("window-squares needs an int c >= 0, got c=%r" % (c,))
        return range(c + 1)
    raise ValueError("unknown map kind %r" % kind)


def poly_ring_rows(c):
    """Rows 1..c of the poly-ring variable grid x[i,j]; c must be an int >= 1."""
    if not isinstance(c, int) or c < 1:
        raise ValueError("need c >= 1")
    return range(1, c + 1)


def window_edges(kind, c, n):
    """The edges (i, j) of window n, i <= n, in (i, j) order."""
    spans = edge_spans(kind, c)
    return [(i, i + sp) for i in range(1, n + 1) for sp in spans]


def multiset(items):
    """Counts of the items, as a plain dict."""
    out = {}
    for x in items:
        out[x] = out.get(x, 0) + 1
    return out


def presentation_image(mono):
    """x-monomial image of an edge monomial; diagonal edges square."""
    out = {}
    for (i, j), e in mono.items():
        out[i] = out.get(i, 0) + e
        out[j] = out.get(j, 0) + e
    return out


def mono_freeze(m):
    return tuple(sorted(m.items()))


def mono_str(m):
    bits = []
    for k in sorted(m):
        name = "x%s" % (k,) if not isinstance(k, tuple) else "x[%s]" % ",".join(map(str, k))
        bits.append(name if m[k] == 1 else "%s^%d" % (name, m[k]))
    return "*".join(bits) if bits else "1"


class GeneratorFamily:
    """Window-indexed generator sets for the built-in algebra filtrations."""

    def __init__(self, kind, c=None):
        if kind == "gap":
            c = None
        elif kind == "window-squares":
            edge_spans(kind, c)
        elif kind == "poly-ring":
            poly_ring_rows(c)
        else:
            raise ValueError("unknown family %r" % kind)
        self.kind = kind
        self.c = c

    def __repr__(self):
        if self.c is None:
            return "GeneratorFamily(%s)" % self.kind
        return "GeneratorFamily(%s, c=%d)" % (self.kind, self.c)

    def generators(self, n):
        """Generators of the window-n algebra, as monomial dicts."""
        if self.kind == "poly-ring":
            return [{(i, j): 1} for i in range(1, self.c + 1) for j in range(1, n + 1)]
        return [presentation_image({e: 1}) for e in window_edges(self.kind, self.c, n)]

    def normal_strings(self, n, d):
        """Canonical presentations of [Mon(A_n)]_d, string-bounded convention.

        Pairs (a, a + span) with a <= n.  For window-squares the flat string
        is sorted: the next a is at least the previous b.  For gap the pairs
        are sorted, and after (a, a + 2) neither (a, a + 1) nor (a + 1, a + 3)
        may follow.
        """
        if self.kind == "poly-ring":
            raise ValueError("poly-ring has no pair strings")
        spans = edge_spans(self.kind, self.c)
        gap = self.kind == "gap"
        out = []
        cur = []

        def rec(pa, pb):
            if len(cur) == d:
                out.append(tuple(cur))
                return
            for a in range(pa if gap else pb, n + 1):
                for j in spans:
                    if gap and pb - pa == 2 and (a, j) in ((pa, 1), (pa + 1, 2)):
                        continue
                    cur.append((a, a + j))
                    rec(a, a + j)
                    cur.pop()

        rec(1, 1)
        return out

    def enumerate_monomials(self, n, d, conv):
        """Set of frozen monomials of internal degree d in the window-n algebra."""
        if conv not in CONVENTIONS:
            raise ValueError("unknown convention %r" % conv)
        if self.kind == "poly-ring" or conv == ALGEBRA:
            gens = [mono_freeze(g) for g in self.generators(n)]
            out = set()
            for combo in itertools.combinations_with_replacement(range(len(gens)), d):
                m = {}
                for gi in combo:
                    for k, e in gens[gi]:
                        m[k] = m.get(k, 0) + e
                out.add(mono_freeze(m))
            return out
        return {
            mono_freeze(presentation_image(multiset(pairs)))
            for pairs in self.normal_strings(n, d)
        }


def hilbert_counts(family, nmax, dmax, conv):
    """CountTable of algebra dimensions, axes (d, n), windows 1..nmax."""
    out = CountTable(("d", "n"), (dmax, nmax))
    for n in range(1, nmax + 1):
        for d in range(dmax + 1):
            out.set((d, n), len(family.enumerate_monomials(n, d, conv)))
    return out


def word_to_monomial(kind, word, tau, alpha_index):
    """Monomial image of an accepted word; letters become window generators,
    every size letter shifts what follows one step to the right."""
    keys = []
    k = 0
    for sym in word:
        if sym == tau:
            k += 1
        else:
            i = alpha_index[sym]
            keys.append((i, k + 1) if kind == "poly-ring" else (k + 1, k + 1 + i))
    m = multiset(keys)
    return m if kind == "poly-ring" else presentation_image(m)


def _letter_indices(lang):
    tau = lang.alphabet.on(1)[0]
    idx = {}
    for name in lang.alphabet.on(0):
        digits = "".join(ch for ch in name if ch.isdigit())
        idx[name] = int(digits)
    return tau, idx


def word_monomial_maps(lang, family, n, d, conv=STRING_BOUNDED):
    """Compare the word -> monomial map against the enumerated monomial set.

    "collision" is the first pair of words sharing an image, with that image,
    as (word_a, word_b, frozen monomial); None when the map is injective.
    """
    tau, idx = _letter_indices(lang)
    words = enumerate_words(lang.dfa, (d, n - 1))
    first_word = {}
    collision = None
    for w in words:
        img = mono_freeze(word_to_monomial(family.kind, w, tau, idx))
        if collision is None and img in first_word:
            collision = (first_word[img], w, img)
        first_word.setdefault(img, w)
    image_set = set(first_word)
    target = family.enumerate_monomials(n, d, conv)
    return {
        "word_count": len(words),
        "distinct_images": len(image_set),
        "monomial_count": len(target),
        "collision": collision,
        "injective": len(image_set) == len(words),
        "surjective": image_set >= target,
        "inside": image_set <= target,
        "bijective": len(image_set) == len(words) and image_set == target,
        "missing": sorted(target - image_set),
        "extra": sorted(image_set - target),
    }


def compare_report(lang, family, nmax, dmax, conv):
    """Language counts vs oracle counts on windows 1..nmax, degrees 0..dmax."""
    table = dp_count(lang.dfa, dmax, (nmax - 1,))
    oracle = hilbert_counts(family, nmax, dmax, conv)
    rows = []
    for d in range(dmax + 1):
        for n in range(1, nmax + 1):
            lhs = table[(d, n - 1)]
            rhs = oracle[(d, n)]
            rows.append({"d": d, "n": n, "language": lhs, "oracle": rhs, "equal": lhs == rhs})
    all_equal = all(row["equal"] for row in rows)
    return {"family": repr(family), "convention": conv, "all_equal": all_equal, "cells": rows}


def segre_counts(table_a, table_b):
    """Pointwise products: cell (d, m, n) from (d, m) and (d, n)."""
    dmax = table_a.bounds[0]
    out = CountTable(("d", "m", "n"), (dmax, table_a.bounds[1], table_b.bounds[1]))
    for (d, m), va in table_a.data.items():
        for (d2, n), vb in table_b.data.items():
            if d2 == d:
                out.set((d, m, n), va * vb)
    return out


def tensor_counts(table_a, table_b):
    """Degree convolutions: cell (d, m, n) sums (d1, m) * (d2, n), d1+d2=d."""
    dmax = table_a.bounds[0] + table_b.bounds[0]
    out = CountTable(("d", "m", "n"), (dmax, table_a.bounds[1], table_b.bounds[1]))
    for (d1, m), va in table_a.data.items():
        for (d2, n), vb in table_b.data.items():
            key = (d1 + d2, m, n)
            out.set(key, out.get(key) + va * vb)
    return out
