"""Finite automata over counted alphabets.

Every letter counts on one axis of a word's profile: axis 0 is the content
degree and axis k >= 1 is size class k.  DFAs are partial: a missing
transition rejects.
"""

import collections

from .exactalg import CountTable, flat_box


class Alphabet:
    """Fixed-order letters, each counted on one axis; size classes are 1..sizes."""

    __slots__ = ("names", "axis", "sizes")

    def __init__(self, letters):
        # letters: iterable of (name, axis)
        letters = list(letters)
        self.names = tuple(name for name, _ in letters)
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate symbol names")
        self.axis = dict(letters)
        classes = sorted(set(self.axis.values()) - {0})
        if classes and classes[0] < 0:
            raise ValueError("negative axis %d" % classes[0])
        if classes != list(range(1, len(classes) + 1)):
            raise ValueError("size classes must be 1..k, got %r" % (classes,))
        self.sizes = len(classes)

    def on(self, axis):
        """The letters counted on axis, in alphabet order."""
        return tuple(n for n in self.names if self.axis[n] == axis)

    def __repr__(self):
        return "Alphabet(%r)" % (self.names,)


class Dfa:
    """Partial deterministic automaton; missing transition means reject."""

    __slots__ = ("alphabet", "r", "start", "accepts", "trans", "state_names")

    def __init__(self, alphabet, r, start, accepts, trans, state_names=None):
        self.alphabet = alphabet
        self.r = r
        self.start = start
        self.accepts = frozenset(accepts)
        self.trans = dict(trans)
        self.state_names = list(state_names) if state_names else None

    def to_dot(self, title="dfa"):
        lines = ["digraph %s {" % title, "  rankdir=LR;", '  __start [shape=none, label=""];']
        for q in range(self.r):
            shape = "doublecircle" if q in self.accepts else "circle"
            name = self.state_names[q] if self.state_names else q
            lines.append('  %d [shape=%s, label="%s"];' % (q, shape, name))
        lines.append("  __start -> %d;" % self.start)
        for q in range(self.r):
            for sym in self.alphabet.names:
                q2 = self.trans.get((q, sym))
                if q2 is not None:
                    lines.append('  %d -> %d [label="%s"];' % (q, q2, sym))
        lines.append("}")
        return "\n".join(lines) + "\n"


def minimize(dfa):
    """Moore partition refinement with an implicit reject sink.

    Dead states fall into the sink's block and unreachable ones are dropped,
    so every state of the result is reachable and can still accept, except
    the lone start state of an empty language.  States are numbered
    canonically, by breadth-first search from the start state with letters
    in alphabet order, so equal languages give equal automata.
    """
    SINK = dfa.r
    names = dfa.alphabet.names
    block = {}
    for q in range(dfa.r):
        block[q] = 1 if q in dfa.accepts else 0
    block[SINK] = 0
    while True:
        # SINK is no state of dfa, so its moves fall back to SINK
        sigs = {q: (block[q],) + tuple(block[dfa.trans.get((q, sym), SINK)] for sym in names)
                for q in block}
        relabel = {}
        newblock = {}
        for q in sorted(block):
            newblock[q] = relabel.setdefault(sigs[q], len(relabel))
        if newblock == block:
            break
        block = newblock
    sink_block = block[SINK]
    if block[dfa.start] == sink_block:
        return Dfa(dfa.alphabet, 1, 0, set(), {})
    # the BFS walks blocks; any state of a block stands for it
    rep = {block[q]: q for q in range(dfa.r)}
    order = [block[dfa.start]]
    num = {order[0]: 0}
    trans = {}
    for i, b in enumerate(order):
        for sym in names:
            t = block[dfa.trans.get((rep[b], sym), SINK)]
            if t == sink_block:
                continue
            if t not in num:
                num[t] = len(order)
                order.append(t)
            trans[(i, sym)] = num[t]
    accepts = {i for i, b in enumerate(order) if rep[b] in dfa.accepts}
    return Dfa(dfa.alphabet, len(order), 0, accepts, trans)


def dp_count(dfa, dmax, size_bounds):
    """Accepted-word counts by profile (d, m) or (d, m, n); d is content degree.

    N_q[k], the number of words of profile k leading from the start state to
    q, obeys the pull recurrence

        N_q[k] = [k = 0 and q = start] + sum_{(p, sym) -> q} N_p[k - e_axis(sym)],

    and cell k of the table is the sum of N_q[k] over accepting q.  Each N_q
    is one flat list on the box of exactalg.flat_box, padded by 1 on every
    axis; every letter adds the unit vector of its axis, so row-major order
    evaluates each cell after the cells it reads.
    """
    if len(size_bounds) != dfa.alphabet.sizes:
        raise ValueError("size bound arity mismatch")
    bounds = (dmax,) + tuple(size_bounds)
    strides, origin, size, rows = flat_box(bounds, (1,) * len(bounds))
    counts = [[0] * size for _ in range(dfa.r)]
    if min(bounds) >= 0:  # the empty word, when the box holds its profile
        counts[dfa.start][origin] = 1
    # letters of one axis between the same two states pull the same cell
    arrows = {}
    for (p, sym), q in dfa.trans.items():
        off = strides[dfa.alphabet.axis[sym]]
        arrows.setdefault(q, collections.Counter())[(p, off)] += 1
    pulls = [
        (counts[q], [(c, counts[p], off) for (p, off), c in ins.items()])
        for q, ins in arrows.items()
    ]
    accepted = [counts[q] for q in sorted(dfa.accepts)]
    data = {}
    last = bounds[-1] + 1
    for pre, start in rows:
        for k in range(start, start + last):
            for cur, ins in pulls:
                acc = cur[k]
                for c, prev, off in ins:
                    acc += c * prev[k - off]
                cur[k] = acc
            val = sum(cur[k] for cur in accepted)
            if val:
                data[pre + (k - start,)] = val
    return CountTable(("d", "m", "n")[: len(bounds)], bounds, data)


def enumerate_words(dfa, profile):
    """All accepted words with the exact profile (d, m[, n]), lexicographic.

    A depth-first walk with one iterator per letter of the current prefix,
    each over its state's moves in alphabet order.
    """
    if len(profile) != 1 + dfa.alphabet.sizes:
        raise ValueError("profile arity mismatch")
    if min(profile) < 0:
        return []
    if not any(profile):
        return [()] if dfa.start in dfa.accepts else []
    axis = dfa.alphabet.axis
    moves = [
        [(sym, axis[sym], dfa.trans[(q, sym)])
         for sym in dfa.alphabet.names if (q, sym) in dfa.trans]
        for q in range(dfa.r)
    ]
    remaining = list(profile)
    left = sum(profile)
    out = []
    word = []
    stack = [iter(moves[dfa.start])]
    while stack:
        for sym, k, q in stack[-1]:
            if not remaining[k]:
                continue
            if left == 1:
                if q in dfa.accepts:
                    out.append(tuple(word) + (sym,))
                continue
            remaining[k] -= 1
            left -= 1
            word.append(sym)
            stack.append(iter(moves[q]))
            break
        else:
            stack.pop()
            if word:
                remaining[axis[word.pop()]] += 1
                left += 1
    return out


def language_agrees(dfa, predicate, maxlen):
    """Check dfa vs predicate on all words up to maxlen.

    Prunes subtrees where the DFA has no transition, where the predicate
    must be false too; sound for prefix-closed predicates, which is also
    checked along the way.  Returns (ok, first_counterexample_or_None,
    words_checked).  A depth-first walk over one growing word, with one
    iterator per letter of it, each over its state's (letter, next state)
    row in alphabet order.  The predicate receives that live word list: it
    must neither keep nor change it.
    """
    root_pred = bool(predicate([]))
    if (dfa.start in dfa.accepts) != root_pred:
        return False, (), 1
    rows = [[(sym, dfa.trans.get((q, sym))) for sym in dfa.alphabet.names] for q in range(dfa.r)]
    checked = 0
    word = []
    # (predicate holds, moves left) per prefix of word
    stack = [(root_pred, iter(rows[dfa.start]))] if maxlen > 0 else []
    while stack:
        pred_here, moves = stack[-1]
        for sym, q in moves:
            word.append(sym)
            in_pred = bool(predicate(word))
            checked += 1
            # the second test fails a predicate that is not prefix closed
            if (q in dfa.accepts) != in_pred or (in_pred and not pred_here):
                return False, tuple(word), checked
            if q is not None and len(word) < maxlen:
                stack.append((in_pred, iter(rows[q])))
                break
            word.pop()
        else:
            stack.pop()
            if word:
                word.pop()
    return True, None, checked
