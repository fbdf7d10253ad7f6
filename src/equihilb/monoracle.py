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


def mono_mul(a, b):
    out = dict(a)
    for k, e in b.items():
        out[k] = out.get(k, 0) + e
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
        elif kind in ("window-squares", "poly-ring"):
            if c is None:
                raise ValueError("%s needs c" % kind)
            if kind == "poly-ring" and c < 1:
                raise ValueError("need c >= 1")
            if kind == "window-squares" and c < 0:
                raise ValueError("need c >= 0")
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
        out = []
        if self.kind == "window-squares":
            for i in range(1, n + 1):
                for j in range(self.c + 1):
                    out.append({i: 1, i + j: 1} if j else {i: 2})
        elif self.kind == "gap":
            for i in range(1, n + 1):
                out.append({i: 1, i + 1: 1})
                out.append({i: 1, i + 2: 1})
        else:
            for i in range(1, self.c + 1):
                for j in range(1, n + 1):
                    out.append({(i, j): 1})
        return out

    def normal_strings(self, n, d):
        """Canonical presentations of [Mon(A_n)]_d, string-bounded convention."""
        if self.kind == "poly-ring":
            raise ValueError("poly-ring has no pair strings")
        out = []
        cur = []
        if self.kind == "window-squares":
            # pairs (a,b), sorted flat string: next a >= previous b; a <= n
            def rec(prev_b):
                if len(cur) == d:
                    out.append(tuple(cur))
                    return
                for a in range(prev_b, n + 1):
                    for b in range(a, a + self.c + 1):
                        cur.append((a, b))
                        rec(b)
                        cur.pop()

            rec(1)
        else:

            def rec(prev):
                if len(cur) == d:
                    out.append(tuple(cur))
                    return
                lo = prev[0] if prev else 1
                for a in range(lo, n + 1):
                    for j in (1, 2):
                        if prev:
                            pa, pb = prev
                            pj = pb - pa
                            if a == pa and pj > j:
                                continue
                            if a == pa + 1 and pj == 2 and j == 2:
                                continue
                        cur.append((a, a + j))
                        rec((a, a + j))
                        cur.pop()

            rec(None)
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
        out = set()
        for pairs in self.normal_strings(n, d):
            m = {}
            for a, b in pairs:
                m[a] = m.get(a, 0) + 1
                m[b] = m.get(b, 0) + 1
            out.add(mono_freeze(m))
        return out

    def normal_form(self, m):
        """Canonical string presentation of a monomial of the limit algebra,
        or None when the monomial is not a member."""
        m = dict(m)
        if self.kind == "poly-ring":
            return tuple(sorted(m.items()))  # free algebra: the monomial itself
        if sum(m.values()) % 2:
            return None
        if self.kind == "window-squares":
            flat = []
            for k in sorted(m):
                flat.extend([k] * m[k])
            pairs = [(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]
            for a, b in pairs:
                if b - a > self.c:
                    return None
            return tuple(pairs)
        pairs = _gap_factor(m)
        if pairs is None:
            return None
        return _gap_rewrite(pairs)

    def is_member(self, m):
        return self.normal_form(m) is not None


def _gap_factor(m):
    """Some factorization of m into pairs (i, i+1) or (i, i+2), else None."""
    rem = dict(m)

    def rec(acc):
        if not rem:
            return list(acc)
        a = min(rem)
        for j in (1, 2):
            b = a + j
            if not rem.get(b, 0):
                continue
            for k in (a, b):
                rem[k] -= 1
                if not rem[k]:
                    del rem[k]
            got = rec(acc + [(a, b)])
            if got is not None:
                return got
            for k in (a, b):
                rem[k] = rem.get(k, 0) + 1
        return None

    return rec([])


def _gap_rewrite(pairs):
    """Sort a pair factorization and rewrite adjacent-gap-2 clashes until the
    canonical conditions hold; each rewrite trades two gap-2 pairs away."""
    pairs = sorted(pairs)
    while True:
        groups = []
        for p in pairs:
            if groups and groups[-1][0] == p:
                groups[-1][1] += 1
            else:
                groups.append([p, 1])
        hit = None
        for gi in range(len(groups) - 1):
            (a1, b1), e1 = groups[gi]
            (a2, b2), e2 = groups[gi + 1]
            if b1 - a1 == 2 and b2 - a2 == 2 and a2 == a1 + 1:
                hit = (gi, a1, e1, e2)
                break
        if hit is None:
            return tuple(pairs)
        gi, i, e1, e2 = hit
        lo = min(e1, e2)
        repl = [((i, i + 1), lo)]
        if e1 >= e2:
            if e1 > e2:
                repl.append(((i, i + 2), e1 - e2))
        else:
            repl.append(((i + 1, i + 3), e2 - e1))
        repl.append(((i + 2, i + 3), lo))
        groups[gi : gi + 2] = [[p, e] for p, e in repl]
        pairs = sorted(
            itertools.chain.from_iterable([p] * e for p, e in groups)
        )


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
    m = {}
    k = 0
    for sym in word:
        if sym == tau:
            k += 1
        else:
            i = alpha_index[sym]
            if kind == "poly-ring":
                key = (i, k + 1)
                m[key] = m.get(key, 0) + 1
            else:
                for key in (k + 1, k + 1 + i):
                    m[key] = m.get(key, 0) + 1
    return m


def _letter_indices(lang):
    tau = lang.alphabet.count_names()[0]
    idx = {}
    for name in lang.alphabet.content_names():
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
    rows = []
    ok = True
    for d in range(dmax + 1):
        for n in range(1, nmax + 1):
            lhs = table[(d, n - 1)]
            rhs = len(family.enumerate_monomials(n, d, conv))
            eq = lhs == rhs
            ok = ok and eq
            rows.append({"d": d, "n": n, "language": lhs, "oracle": rhs, "equal": eq})
    return {"family": repr(family), "convention": conv, "all_equal": ok, "cells": rows}


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
