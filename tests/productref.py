"""Test-side references for the Segre automaton and for minimization.

`langlib.lang_segre` builds its automaton as one reachable product of the
two factors.  This module keeps the three-stage build it replaced, from
closure under inverse homomorphism and intersection (Hopcroft & Ullman,
1979, section 3.2): the homomorphic preimage of each factor, their
intersection, and the intersection with a 2-state automaton for the block
shape tau1* tau2* g.

`automata.minimize` numbers the blocks of its Moore refinement by one
breadth-first search.  `two_pass_minimize` keeps the two passes it
replaced: an automaton on the blocks in arbitrary order, then a canonical
renumbered copy of it.
"""

from equihilb.automata import Alphabet, Dfa, minimize


def intersect(a, b):
    """Reachable product automaton; both inputs over the same alphabet.

    Pairs from which no accepting pair is reachable stay until minimize.
    """
    if (a.alphabet.names, a.alphabet.axis) != (b.alphabet.names, b.alphabet.axis):
        raise ValueError("alphabet mismatch")
    start = (a.start, b.start)
    states = {start: 0}
    order = [start]
    trans = {}
    i = 0
    while i < len(order):
        p1, p2 = order[i]
        i += 1
        for sym in a.alphabet.names:
            q1 = a.trans.get((p1, sym))
            q2 = b.trans.get((p2, sym))
            if q1 is None or q2 is None:
                continue
            tgt = (q1, q2)
            if tgt not in states:
                states[tgt] = len(order)
                order.append(tgt)
            trans[(states[(p1, p2)], sym)] = states[tgt]
    accepts = {
        states[(q1, q2)]
        for (q1, q2) in order
        if q1 in a.accepts and q2 in b.accepts
    }
    return Dfa(a.alphabet, len(order), 0, accepts, trans)


def hom_preimage(dfa, alphabet, hom):
    """DFA for h^{-1}(L(dfa)): same states, letter c acts like the word h(c).

    hom maps each symbol of the new alphabet to a list of dfa-alphabet
    symbols (possibly empty for letters erased by h).
    """
    trans = {}
    for q in range(dfa.r):
        for c in alphabet.names:
            q2 = q
            for sym in hom[c]:
                q2 = dfa.trans.get((q2, sym))
                if q2 is None:
                    break
            if q2 is not None:
                trans[(q, c)] = q2
    return Dfa(alphabet, dfa.r, dfa.start, dfa.accepts, trans)


def segre_dfa(a, b):
    """Minimized Segre automaton of single-class languages a and b: a's tau
    letters (class 1), b's tau letters (class 2), then one content letter
    g(x,y) per content pair."""
    taus_a, taus_b = a.alphabet.on(1), b.alphabet.on(1)
    fused = {
        "g(%s,%s)" % (x, y): (x, y) for x in a.alphabet.on(0) for y in b.alphabet.on(0)
    }
    alphabet = Alphabet(
        [(n, 1) for n in taus_a] + [(n, 2) for n in taus_b] + [(g, 0) for g in fused]
    )
    hom_a = {n: (n,) for n in taus_a}
    hom_a.update({n: () for n in taus_b})
    hom_a.update({g: (xy[0],) for g, xy in fused.items()})
    hom_b = {n: () for n in taus_a}
    hom_b.update({n: (n,) for n in taus_b})
    hom_b.update({g: (xy[1],) for g, xy in fused.items()})
    pre_a = hom_preimage(a.dfa, alphabet, hom_a)
    pre_b = hom_preimage(b.dfa, alphabet, hom_b)
    # blocks tau_a* tau_b* g: state 1 has read a tau_b since the last g
    blocks = {(0, n): 0 for n in taus_a}
    for q in (0, 1):
        blocks.update({(q, n): 1 for n in taus_b})
        blocks.update({(q, g): 0 for g in fused})
    block_dfa = Dfa(alphabet, 2, 0, {0, 1}, blocks)
    return minimize(intersect(intersect(pre_a, pre_b), block_dfa))


def renumbered(dfa):
    """Canonical copy: states renumbered by BFS from start, alphabet order."""
    order = [dfa.start]
    seen = {dfa.start}
    i = 0
    while i < len(order):
        q = order[i]
        i += 1
        for sym in dfa.alphabet.names:
            q2 = dfa.trans.get((q, sym))
            if q2 is not None and q2 not in seen:
                seen.add(q2)
                order.append(q2)
    remap = {q: j for j, q in enumerate(order)}
    trans = {
        (remap[p], sym): remap[q]
        for (p, sym), q in dfa.trans.items()
        if p in remap and q in remap
    }
    accepts = {remap[q] for q in dfa.accepts if q in remap}
    return Dfa(dfa.alphabet, len(order), 0, accepts, trans)


def two_pass_minimize(dfa):
    """Moore partition refinement with an implicit reject sink, then an
    automaton on the live blocks, then its renumbered copy."""
    SINK = dfa.r
    block = {}
    for q in range(dfa.r):
        block[q] = 1 if q in dfa.accepts else 0
    block[SINK] = 0
    while True:
        sigs = {}
        for q in list(block):
            sig = (block[q],)
            for sym in dfa.alphabet.names:
                if q == SINK:
                    t = SINK
                else:
                    t = dfa.trans.get((q, sym), SINK)
                sig += (block[t],)
            sigs[q] = sig
        relabel = {}
        newblock = {}
        for q in sorted(block):
            if sigs[q] not in relabel:
                relabel[sigs[q]] = len(relabel)
            newblock[q] = relabel[sigs[q]]
        if newblock == block:
            break
        block = newblock
    sink_block = block[SINK]
    reps = {}
    for q in range(dfa.r):
        if block[q] != sink_block and block[q] not in reps:
            reps[block[q]] = q
    if block[dfa.start] == sink_block:
        return Dfa(dfa.alphabet, 1, 0, set(), {})
    trans = {}
    for b, q in reps.items():
        for sym in dfa.alphabet.names:
            t = dfa.trans.get((q, sym), SINK)
            if t != SINK and block[t] != sink_block:
                trans[(b, sym)] = block[t]
    accepts = {b for b, q in reps.items() if q in dfa.accepts}
    return renumbered(Dfa(dfa.alphabet, len(reps), block[dfa.start], accepts, trans))
