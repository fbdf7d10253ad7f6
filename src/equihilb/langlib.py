"""Built-in counted languages for algebra filtrations.

Each language bundles a definitional membership predicate and a hand-coded
or constructed partial DFA.  Its alphabet fixes the letter weights and the
size-variable offset relating word counts to algebra dimensions (window n
counts words with n-1 letters of the size class).
"""

from .exactalg import TS, MPoly, RatFun
from .automata import Alphabet, Dfa, language_agrees, minimize
from .genfun import WeightFn, transfer_series
from .monoracle import edge_spans, poly_ring_rows


class FiltrationLanguage:
    """A language of weighted words standing for a filtration of algebras."""

    def __init__(
        self,
        name,
        dfa,
        predicate,
        alt_dfa=None,
        reference_series=(),
        notes="",
        family=None,
    ):
        self.name = name
        self.alphabet = dfa.alphabet
        self.dfa = dfa
        self.predicate = predicate
        self.alt_dfa = alt_dfa
        self.reference_series = list(reference_series)
        self.notes = notes
        # (kind, c) of the GeneratorFamily a built-in single language stands
        # for; pair languages have none
        self.family = family
        self.weights = WeightFn(self.alphabet)
        self.vars = self.weights.vars
        self._transfer = None

    def check(self, maxlen):
        return language_agrees(self.dfa, self.predicate, maxlen)

    def transfer(self):
        if self._transfer is None:
            self._transfer = transfer_series(self.dfa, self.weights)
        return self._transfer

    def offset(self):
        """s^1 on each size axis: window n counts words with n-1 size letters."""
        return RatFun(MPoly.monomial(self.vars, (0,) + (1,) * self.alphabet.sizes))

    def series(self):
        """Equivariant Hilbert series: size-offset times the transfer series."""
        return self.offset() * self.transfer()

    def alt_series(self):
        if self.alt_dfa is None:
            return None
        return transfer_series(self.alt_dfa, self.weights)

    def __repr__(self):
        return "FiltrationLanguage(%s)" % self.name


def _single_alphabet(tau, alphas):
    return Alphabet([(tau, 1)] + [(a, 0) for a in alphas])


def lang_poly_ring(c, tau="tau", alpha="a"):
    """Words over tau and a1..ac where adjacent content letters never descend.

    Counts monomials of free polynomial rings on a c x n variable grid.
    """
    # letter ai stands for grid row i; poly_ring_rows also checks c
    alphas = ["%s%d" % (alpha, i) for i in poly_ring_rows(c)]
    alphabet = _single_alphabet(tau, alphas)
    idx = {a: i + 1 for i, a in enumerate(alphas)}
    # state 0: fresh after tau, so any a_i may follow; state i: just read a_i
    trans = {}
    for i in range(c + 1):
        trans[(i, tau)] = 0
        trans.update({(i, b): idx[b] for b in alphas if idx[b] >= i})
    dfa = Dfa(alphabet, c + 1, 0, set(range(c + 1)), trans, [str(q + 1) for q in range(c + 1)])

    def predicate(word):
        prev = None
        for sym in word:
            if sym == tau:
                prev = None
            else:
                i = idx[sym]
                if prev is not None and prev > i:
                    return False
                prev = i
        return True

    t = MPoly.var(TS, "t")
    s = MPoly.var(TS, "s")
    closed = RatFun(MPoly.const(TS, 1), (1 - t) ** c - s)
    return FiltrationLanguage(
        "poly-ring(%d)" % c,
        dfa,
        predicate,
        reference_series=[("closed form", closed)],
        family=("poly-ring", c),
    )


def lang_window_squares(c, tau="tau", alpha="a"):
    """Words over tau and a0..ac where each ai owes i taus before the next aj.

    Counts monomials of the algebras generated by x_i*x_{i+j}, 0 <= j <= c.
    """
    # letter ai stands for the edge span i; edge_spans also checks c
    alphas = ["%s%d" % (alpha, i) for i in edge_spans("window-squares", c)]
    alphabet = _single_alphabet(tau, alphas)
    states = [(i, j) for i in range(c + 1) for j in range(i + 1)]
    idx = {st: q for q, st in enumerate(states)}
    trans = {}
    for (i, j) in states:
        if i == j:
            trans[(idx[(i, j)], tau)] = idx[(i, j)]
            for k in range(c + 1):
                trans[(idx[(i, j)], alphas[k])] = idx[(k, 0)]
        else:
            trans[(idx[(i, j)], tau)] = idx[(i, j + 1)]
    names = ["%d%d" % st for st in states]
    dfa = Dfa(alphabet, len(states), idx[(0, 0)], set(range(len(states))), trans, names)
    narrow = {idx[(i, 0)] for i in range(c + 1)} | {idx[(i, i)] for i in range(c + 1)}
    alt_dfa = Dfa(alphabet, len(states), idx[(0, 0)], narrow, trans, names)
    aidx = {a: i for i, a in enumerate(alphas)}

    def predicate(word):
        owed = None
        run = 0
        for sym in word:
            if sym == tau:
                run += 1
            else:
                if owed is not None and run < owed:
                    return False
                owed = aidx[sym]
                run = 0
        return True

    t = MPoly.var(TS, "t")
    s = MPoly.var(TS, "s")
    geom = MPoly.zero(TS)
    for i in range(1, c + 1):
        geom = geom + s**i
    ramp = MPoly.zero(TS)
    for e in range(c):
        ramp = ramp + (c - e) * s**e
    closed = RatFun(1 + t * ramp, 1 - t - s - t * geom)
    alt_closed = RatFun(c * t + 1, 1 - s - t * geom)
    return FiltrationLanguage(
        "window-squares(%d)" % c,
        dfa,
        predicate,
        alt_dfa=alt_dfa,
        reference_series=[("closed form", closed), ("alt closed form", alt_closed)],
        notes=(
            "alt_dfa restricts acceptance to states (i,0) and (i,i); it rejects "
            "words ending inside a tau run.  The alt closed form drops the lone "
            "-t denominator term; its tau-free slice stops at degree one."
        ),
        family=("window-squares", c),
    )


def lang_gap(tau="tau", alpha="a"):
    """Words over tau, a1, a2: no descent without tau between, and a2 followed
    by exactly one tau forces the next letter toward a1.

    Counts monomials of the algebras generated by x_i*x_{i+1} and x_i*x_{i+2}.
    """
    # letter ai stands for the edge span i
    a1, a2 = ["%s%d" % (alpha, i) for i in edge_spans("gap", None)]
    alphabet = _single_alphabet(tau, [a1, a2])
    trans = {
        (0, tau): 0,
        (0, a1): 0,
        (0, a2): 1,
        (1, a2): 1,
        (1, tau): 2,
        (2, a1): 0,
        (2, tau): 0,
    }
    dfa = Dfa(alphabet, 3, 0, {0, 1, 2}, trans, ["1", "2", "3"])

    def predicate(word):
        ks = [0]
        idxs = []
        for sym in word:
            if sym == tau:
                ks[-1] += 1
            else:
                idxs.append(1 if sym == a1 else 2)
                ks.append(0)
        d = len(idxs)
        for v in range(1, d):
            if ks[v] == 0 and idxs[v - 1] > idxs[v]:
                return False
        for v in range(d - 1):
            if idxs[v] == 2 and ks[v + 1] == 1 and idxs[v + 1] != 1:
                return False
        return True

    t, s = MPoly.var(TS, "t"), MPoly.var(TS, "s")
    closed = RatFun(t * s + 1, 1 - 2 * t - s + t**2 + t * s - t**2 * s - t * s**2)
    return FiltrationLanguage(
        "gap",
        dfa,
        predicate,
        reference_series=[("closed form", closed)],
        family=("gap", None),
    )


def _reclass(alphabet, cls):
    return [(n, cls if alphabet.axis[n] else 0) for n in alphabet.names]


def _check_pair(a, b):
    if set(a.alphabet.names) & set(b.alphabet.names):
        raise ValueError("pair languages must use disjoint letter names")
    for lang in (a, b):
        if lang.alphabet.sizes != 1:
            raise ValueError("pair factors must be single-class languages")


def lang_segre(a, b):
    """Interleaved product language whose counts multiply the factor counts.

    Letters: a's tau letters (class 1), b's tau letters (class 2), and one
    fused content letter g(x,y) per content pair; blocks are tau1* tau2* g.
    """
    _check_pair(a, b)
    taus_a, taus_b = a.alphabet.on(1), b.alphabet.on(1)
    gammas = {
        "g(%s,%s)" % (x, y): (x, y) for x in a.alphabet.on(0) for y in b.alphabet.on(0)
    }
    alphabet = Alphabet(
        [(n, 1) for n in taus_a] + [(n, 2) for n in taus_b] + [(g, 0) for g in gammas]
    )
    # a state (p, q, flag) pairs a state of each factor; flag records a
    # tau_b read since the last fused letter, so no tau_a may follow yet
    ta, tb = a.dfa.trans, b.dfa.trans
    order = [(a.dfa.start, b.dfa.start, 0)]
    index = {order[0]: 0}
    trans = {}
    # order grows as the search reaches new states
    for src, (p, q, flag) in enumerate(order):
        moves = [] if flag else [(n, ta.get((p, n)), q, 0) for n in taus_a]
        moves += [(n, p, tb.get((q, n)), 1) for n in taus_b]
        moves += [(g, ta.get((p, x)), tb.get((q, y)), 0) for g, (x, y) in gammas.items()]
        for sym, p2, q2, flag2 in moves:
            if p2 is None or q2 is None:
                continue
            tgt = (p2, q2, flag2)
            if tgt not in index:
                index[tgt] = len(order)
                order.append(tgt)
            trans[(src, sym)] = index[tgt]
    accepts = {
        i for i, (p, q, _) in enumerate(order) if p in a.dfa.accepts and q in b.dfa.accepts
    }
    dfa = minimize(Dfa(alphabet, len(order), 0, accepts, trans))

    set_a, set_b = set(taus_a), set(taus_b)

    def predicate(word):
        flag = False
        for sym in word:
            if sym in set_a and flag:
                return False
            if sym not in set_a:
                flag = sym in set_b
        proj_a = [gammas[sym][0] if sym in gammas else sym for sym in word if sym not in set_b]
        proj_b = [gammas[sym][1] if sym in gammas else sym for sym in word if sym not in set_a]
        return a.predicate(proj_a) and b.predicate(proj_b)

    return FiltrationLanguage(
        "segre(%s, %s)" % (a.name, b.name),
        dfa,
        predicate,
    )


def lang_concat(a, b):
    """Words of a followed by words of b; counts convolve over content degree."""
    _check_pair(a, b)
    alphabet = Alphabet(_reclass(a.alphabet, 1) + _reclass(b.alphabet, 2))
    # the letter sets are disjoint, so every accepting state of a can also
    # take b's first step without making the machine nondeterministic
    off = a.dfa.r
    first = {sym: off + q for (p, sym), q in b.dfa.trans.items() if p == b.dfa.start}
    trans = dict(a.dfa.trans)
    trans.update({(off + p, sym): off + q for (p, sym), q in b.dfa.trans.items()})
    for p in a.dfa.accepts:
        trans.update({(p, sym): q for sym, q in first.items()})
    accepts = {off + q for q in b.dfa.accepts}
    if b.dfa.start in b.dfa.accepts:
        accepts |= a.dfa.accepts
    dfa = minimize(Dfa(alphabet, off + b.dfa.r, a.dfa.start, accepts, trans))

    set_a = set(a.alphabet.names)

    def predicate(word):
        cut = len(word)
        for i, sym in enumerate(word):
            if sym not in set_a:
                cut = i
                break
        head, tail = list(word[:cut]), list(word[cut:])
        if any(sym in set_a for sym in tail):
            return False
        return a.predicate(head) and b.predicate(tail)

    return FiltrationLanguage(
        "concat(%s, %s)" % (a.name, b.name),
        dfa,
        predicate,
    )


def ideal_gap_series():
    """Series of the presentation-ideal filtration for the gap family.

    Returns (computed, stated): computed is ambient minus algebra via the
    identity sum_n dim K[2 x n grid]_d t^d s^n = s/((1-t)^2 - s); stated is
    the closed form shipped with the gap family for comparison.
    """
    gap = lang_gap()
    t, s = MPoly.var(TS, "t"), MPoly.var(TS, "s")
    ambient = RatFun(s, (1 - t) ** 2 - s)
    computed = ambient - gap.series()
    stated = RatFun(
        t * s**4 - t * s**3 - t**2 * s + s**3 + t * s - s,
        t**2 * s**3 + t * s**4 - t**3 * s - 4 * t**2 * s**2 - 3 * t * s**3 + t**3
        + 4 * t**2 * s + 5 * t * s**2 + s**3 - 2 * t**2 - 6 * t * s - 3 * s**2
        + 3 * t + 3 * s - 1,
    )
    return computed, stated


def builtin_single(kind, c=None, tau="tau", alpha="a"):
    if kind == "poly-ring":
        return lang_poly_ring(2 if c is None else c, tau=tau, alpha=alpha)
    if kind == "window-squares":
        return lang_window_squares(2 if c is None else c, tau=tau, alpha=alpha)
    if kind == "gap":
        return lang_gap(tau=tau, alpha=alpha)
    raise ValueError("unknown language %r" % kind)


def builtin_pair(op, kind_a, c_a, kind_b, c_b):
    if op not in ("segre", "concat"):
        raise ValueError("unknown pair op %r" % op)
    a = builtin_single(kind_a, c_a)
    b = builtin_single(kind_b, c_b, tau="tau2", alpha="b")
    return (lang_segre if op == "segre" else lang_concat)(a, b)
