"""Brute-force monomial algebra oracle.

Enumerates window-algebra monomials directly from generators or from
canonical string presentations, independent of the automata pipeline, so
the two can be compared cell by cell.
"""

import itertools

from .exactalg import CountTable
from .automata import Alphabet, Dfa, dp_count, enumerate_words

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


def window_edges(spans, n):
    """The edges (i, i + span) of window n, i <= n; (i, j) order for ascending spans."""
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
        """letters: the edge spans, or for poly-ring the grid rows, that the
        content letters of the family's language stand for, in order."""
        if kind == "poly-ring":
            self.letters = poly_ring_rows(c)
        elif kind in ("gap", "window-squares"):
            self.letters = edge_spans(kind, c)
        else:
            raise ValueError("unknown family %r" % kind)
        self.kind = kind
        self.c = None if kind == "gap" else c

    def __repr__(self):
        if self.c is None:
            return "GeneratorFamily(%s)" % self.kind
        return "GeneratorFamily(%s, c=%d)" % (self.kind, self.c)

    def variables(self, value, k):
        """The variables, with repeats, of the generator for a letter value at position k."""
        return ((value, k),) if self.kind == "poly-ring" else (k, k + value)

    def generators(self, n):
        """Generators of the window-n algebra, as monomial dicts."""
        return [multiset(self.variables(v, k)) for k in range(1, n + 1) for v in self.letters]

    def normal_strings(self, n, d):
        """Canonical presentations of [Mon(A_n)]_d, string-bounded convention.

        Pairs (a, a + span) with a <= n.  For window-squares the flat string
        is sorted: the next a is at least the previous b.  For gap the pairs
        are sorted, and after (a, a + 2) neither (a, a + 1) nor (a + 1, a + 3)
        may follow.  They are the degree-d words, sorted by enumerate_words, of
        an all-accepting automaton on the pairs in window_edges order whose
        state is the last pair read; state 0 stands for (1, 1).
        """
        if self.kind == "poly-ring":
            raise ValueError("poly-ring has no pair strings")
        gap = self.kind == "gap"
        pairs = window_edges(self.letters, n)
        trans = {(q, p): r for q, (pa, pb) in enumerate([(1, 1)] + pairs)
                 for r, p in enumerate(pairs, 1) if p[0] >= (pa if gap else pb)
                 and not (gap and pb - pa == 2 and p in ((pa, pa + 1), (pa + 1, pa + 3)))}
        states = range(len(pairs) + 1)
        follow = Dfa(Alphabet((p, 0) for p in pairs), len(states), 0, states, trans)
        return enumerate_words(follow, (d,))

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
            mono_freeze(multiset(itertools.chain.from_iterable(pairs)))
            for pairs in self.normal_strings(n, d)
        }


def hilbert_counts(family, nmax, dmax, conv):
    """CountTable of algebra dimensions, axes (d, n), windows 1..nmax."""
    out = CountTable(("d", "n"), (dmax, nmax))
    for n in range(1, nmax + 1):
        for d in range(dmax + 1):
            out.set((d, n), len(family.enumerate_monomials(n, d, conv)))
    return out


def word_to_monomial(family, word, tau, values):
    """Monomial image of an accepted word: each content letter is the family's
    generator for its value, and each size letter moves the position on."""
    keys = []
    k = 1
    for sym in word:
        if sym == tau:
            k += 1
        else:
            keys.extend(family.variables(values[sym], k))
    return multiset(keys)


def _check_pairing(lang, family):
    """Refuse a language that is not a built-in single built for the family."""
    if lang.family != (family.kind, family.c):
        raise ValueError("language %s (built for %r) does not pair with %r"
                         % (lang.name, lang.family, family))


def word_monomial_maps(lang, family, n, d, conv=STRING_BOUNDED):
    """Compare the word -> monomial map against the enumerated monomial set.

    "collision" is the first pair of words sharing an image, with that image,
    as (word_a, word_b, frozen monomial); None when the map is injective.
    Raises ValueError unless lang is a built-in single language built for
    the family's (kind, c).
    """
    _check_pairing(lang, family)
    tau = lang.alphabet.on(1)[0]
    # the language names its content letters in the order of the values they
    # stand for, so they pair with the family's letters by position
    values = dict(zip(lang.alphabet.on(0), family.letters, strict=True))
    words = enumerate_words(lang.dfa, (d, n - 1))
    first_word = {}
    collision = None
    for w in words:
        img = mono_freeze(word_to_monomial(family, w, tau, values))
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
        "bijective": len(image_set) == len(words) and image_set == target,
        "missing": sorted(target - image_set),
        "extra": sorted(image_set - target),
    }


def compare_report(lang, family, nmax, dmax, conv):
    """Language counts vs oracle counts on windows 1..nmax, degrees 0..dmax."""
    _check_pairing(lang, family)
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

