"""Per-layer spans taken from outside the program.

The tracer wraps public functions of the equihilb modules.  A wrapper opens
a span only at a layer boundary: a call from the same layer runs inside its
caller's span, so a span's self time (its duration minus that of its child
spans) is time spent in that layer's own code.  Counters run on every call
and read only what the program passes and returns; a counter on a helper
can ask which traced call it runs under (`scope`), so that only the helper
calls of one function are counted.  Spans stay in memory and are written
out once, at the end of the run.
"""

import math
import sys
import time


def _den_sizes(tr, args, result, outer):
    num, den = result.num, result.den
    tr.counts["genfun.den_terms"] += len(den.terms)
    tr.counts["genfun.den_degree"] += den.degree()
    coeffs = list(num.terms.values()) + list(den.terms.values())
    tr.counts["genfun.coeff_bits"] += max(abs(c).bit_length() for c in coeffs)


def _dfa_states(tr, args, result, outer):
    if outer:
        tr.counts["langlib.dfa_states"] += result.dfa.r


def _expand_cells(tr, args, result, outer):
    tr.counts["exactalg.expand_cells"] += math.prod(b + 1 for b in args[1])


def _words_checked(tr, args, result, outer):
    tr.counts["automata.words_checked"] += result[2]


def _words_enumerated(tr, args, result, outer):
    tr.counts["automata.words_enumerated"] += len(result)


def _monomials(tr, args, result, outer):
    tr.counts["monoracle.monomials"] += len(result)


def _oracle_freeze(tr, args, result, outer):
    if tr.scope == "GeneratorFamily.enumerate_monomials":
        tr.counts["monoracle.frozen"] += 1


def _fibers(tr, args, result, outer):
    tr.counts["toric.fibers"] += 1
    tr.counts["toric.fiber_elements"] += result["fiber_size"]


def _edge_image(tr, args, result, outer):
    if tr.scope == "minimal_generator_degrees":
        tr.counts["toric.mingen_multisets"] += 1
        tr.mingen_images.add(tuple(sorted(result.items())))


def _mingen(tr, args, result, outer):
    tr.counts["toric.mingen_images"] += len(tr.mingen_images)
    tr.mingen_images.clear()


class Tracer:
    """Spans and counters for the traced passes of one run."""

    # (module, attribute, layer, metric of a span opened there, counter)
    POINTS = [
        ("langlib", name, "langlib", "langlib.build_s", _dfa_states)
        for name in ("lang_poly_ring", "lang_window_squares", "lang_gap", "lang_segre",
                     "lang_concat", "builtin_single", "builtin_pair")
    ] + [
        ("genfun", "transfer_series", "genfun", "genfun.transfer_s", _den_sizes),
        ("genfun", "series_check", "genfun", "genfun.transfer_s", None),
        ("exactalg", "rat_equal", "exactalg", "exactalg.rat_equal_s", None),
        ("exactalg", "ratfun_to_text", "exactalg", "exactalg.render_s", None),
        ("exactalg", "series_expand", "exactalg", "exactalg.expand_s", _expand_cells),
        ("automata", "dp_count", "automata", "automata.dp_count_s", None),
        ("automata", "enumerate_words", "automata", "automata.enumerate_words_s", _words_enumerated),
        ("automata", "language_agrees", "automata", "automata.language_agrees_s", _words_checked),
        ("monoracle", "compare_report", "monoracle", "monoracle.compare_s", None),
        ("monoracle", "word_monomial_maps", "monoracle", "monoracle.word_maps_s", None),
        ("monoracle", "GeneratorFamily.enumerate_monomials", "monoracle", None, _monomials),
        ("monoracle", "mono_freeze", "monoracle", None, _oracle_freeze),
        ("toric", "fiber_report", "toric", "toric.fiber_report_s", _fibers),
        ("toric", "minimal_generator_degrees", "toric", "toric.mingen_s", _mingen),
        ("toric", "presentation_image", "toric", None, _edge_image),
    ]

    TIMES = sorted({p[3] for p in POINTS if p[3]}) + ["bench.unspanned_s"]
    COUNTS = [
        "langlib.dfa_states", "genfun.den_terms", "genfun.den_degree", "genfun.coeff_bits",
        "exactalg.expand_cells", "automata.words_checked", "automata.words_enumerated",
        "monoracle.monomials", "monoracle.frozen", "toric.fibers", "toric.fiber_elements",
        "toric.mingen_images", "toric.mingen_multisets", "trace.spans",
    ]

    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []  # (id, name, start, end, parent id, pass, job)
        self.stack = []  # open spans: [id, layer, child seconds]
        self.scope = None  # name of the innermost traced call running
        self.where = (None, None)
        self.patched = []
        self.begin_pass(None)

    def begin_pass(self, index):
        self.pass_index = index
        self.times = dict.fromkeys(self.TIMES, 0.0)
        self.counts = dict.fromkeys(self.COUNTS, 0)
        self.mingen_images = set()

    def install(self):
        """Swap each traced function for its wrapper: every binding of a
        function that opens spans, only the defining module's binding of a
        counted helper (its callers there are the ones counted)."""
        mods = {k: v for k, v in sys.modules.items() if k.startswith("equihilb")}
        for modname, attr, layer, metric, count in self.POINTS:
            owner = mods["equihilb." + modname]
            if "." in attr:
                cls, name = attr.split(".")
                owner = getattr(owner, cls)
                orig = owner.__dict__[name]
                targets = [(owner, name)]
            else:
                orig = getattr(owner, attr)
                scan = mods.values() if metric else [owner]
                targets = [(mod, name) for mod in scan
                           for name, value in vars(mod).items() if value is orig]
            wrapped = self._wrap(orig, attr, layer, metric, count)
            for mod, name in targets:
                setattr(mod, name, wrapped)
                self.patched.append((mod, name, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self.patched):
            setattr(owner, name, orig)
        self.patched = []

    def _wrap(self, orig, name, layer, metric, count):
        tr = self

        def traced(*args, **kwargs):
            stack = tr.stack
            outer = metric is not None and not (stack and stack[-1][1] == layer)
            caller, tr.scope = tr.scope, name
            if not outer:
                try:
                    result = orig(*args, **kwargs)
                finally:
                    tr.scope = caller
            else:
                parent = stack[-1] if stack else None
                frame = [len(tr.spans), layer, 0.0]
                tr.spans.append(None)
                stack.append(frame)
                start = tr.clock()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    end = tr.clock()
                    tr.scope = caller
                    stack.pop()
                    if parent is not None:
                        parent[2] += end - start
                    tr.times[metric] += end - start - frame[2]
                    tr.counts["trace.spans"] += 1
                    tr.spans[frame[0]] = (frame[0], name, start, end,
                                          parent[0] if parent else None) + tr.where
            if count is not None:
                count(tr, args, result, outer)
            return result

        traced.__wrapped__ = orig
        return traced

    def run_job(self, job_id, fn, *args):
        """Run one job under a root span; its self time is the job's time
        outside every traced call."""
        self.where = (self.pass_index, job_id)
        frame = [len(self.spans), "bench", 0.0]
        self.spans.append(None)
        self.stack.append(frame)
        start = self.clock()
        try:
            return fn(*args)
        finally:
            end = self.clock()
            self.stack.pop()
            self.times["bench.unspanned_s"] += end - start - frame[2]
            self.spans[frame[0]] = (frame[0], "job", start, end, None) + self.where
            self.where = (None, None)

    def end_pass(self):
        """Per-layer figures of the pass just traced."""
        out = dict(self.times)
        out.update(self.counts)
        return out
