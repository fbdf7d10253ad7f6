"""Job lists of the three workloads, and the calls that run one job.

A job is a JSON-able dict with an "id", an "op" and the op's inputs.
`make_jobs` imports nothing from equihilb, so the checking process rebuilds
the same list from the seed.  `run_job` calls equihilb through module
attributes at call time, so the tracer's wrappers see every call.

Each workload is a list of size classes.  A class is a pool of instances of
about the same cost and the number drawn from it; the seed picks the
instances and the job order, never the make-up of the workload.  Classes
with one instance hold the jobs whose cost dominates a pass, so a seed
cannot move `max_job_s`.
"""

import itertools
import random


def single(kind, c=None):
    return {"kind": kind, "c": c}


def pair(op, a, b):
    return {"pair": op, "a": a, "b": b}


GAP = single("gap")


def ws(c):
    return single("window-squares", c)


def pr(c):
    return single("poly-ring", c)


def lang_name(spec):
    if "pair" in spec:
        return "%s(%s,%s)" % (spec["pair"], lang_name(spec["a"]), lang_name(spec["b"]))
    if spec["c"] is None:
        return spec["kind"]
    return "%s(%d)" % (spec["kind"], spec["c"])


def cli_selector(spec):
    """`equihilb series` arguments that build the same language."""
    if "pair" not in spec:
        return [spec["kind"]] + ([] if spec["c"] is None else ["--c", str(spec["c"])])
    args = [spec["pair"]]
    for side in ("a", "b"):
        f = spec[side]
        args += ["--" + side, f["kind"], "--%s-c" % side, str(f["c"] or 1)]
    return args


def series_job(lang):
    return {"id": "series %s" % lang_name(lang), "op": "series", "lang": lang}


def expand_job(lang, bounds):
    return {
        "id": "expand %s %s" % (lang_name(lang), ",".join(map(str, bounds))),
        "op": "expand",
        "lang": lang,
        "bounds": list(bounds),
    }


def check_job(lang, bounds):
    return {
        "id": "series_check %s %s" % (lang_name(lang), ",".join(map(str, bounds))),
        "op": "series_check",
        "lang": lang,
        "bounds": list(bounds),
    }


def compare_job(kind, c, dmax, nmax, conv):
    return {
        "id": "compare %s(%d) %s %d,%d" % (kind, c, conv, dmax, nmax),
        "op": "compare",
        "kind": kind,
        "c": c,
        "dmax": dmax,
        "nmax": nmax,
        "conv": conv,
    }


def word_maps_job(kind, c, n, d):
    return {
        "id": "word_maps %s(%d) n=%d d=%d" % (kind, c, n, d),
        "op": "word_maps",
        "kind": kind,
        "c": c,
        "n": n,
        "d": d,
    }


def agrees_job(lang, maxlen):
    return {
        "id": "agrees %s %d" % (lang_name(lang), maxlen),
        "op": "agrees",
        "lang": lang,
        "maxlen": maxlen,
    }


def window_edges(kind, c, n):
    spans = (1, 2) if kind == "gap" else range(c + 1)
    return [(i, i + sp) for i in range(1, n + 1) for sp in spans]


def fiber_sizes(kind, c, n, degree):
    """Number of window edge multisets of the degree over each x-monomial
    image; the keys are every image of the degree."""
    sizes = {}
    for combo in itertools.combinations_with_replacement(window_edges(kind, c, n), degree):
        img = {}
        for i, j in combo:
            img[i] = img.get(i, 0) + 1
            img[j] = img.get(j, 0) + 1
        key = tuple(sorted(img.items()))
        sizes[key] = sizes.get(key, 0) + 1
    return sizes


def fibers_job(kind, c, n, degree, moves, rng):
    """A sweep over every target of one degree, in seed order."""
    targets = [list(map(list, t)) for t in sorted(fiber_sizes(kind, c, n, degree))]
    rng.shuffle(targets)
    name = "gap" if kind == "gap" else "%s(%d)" % (kind, c)
    return {
        "id": "fibers %s n=%d degree=%d %s" % (name, n, degree, moves),
        "op": "fibers",
        "kind": kind,
        "c": c,
        "n": n,
        "degree": degree,
        "moves": moves,
        "targets": targets,
    }


def mingen_job(n):
    return {"id": "mingen gap n=%d" % n, "op": "mingen", "n": n, "dmax": (2 * n + 1) // 3}


SB, ALG = "string-bounded", "algebra"


def _solve(rng):
    fixed = series_job(ws(3))
    fixed["cli"] = ["series"] + cli_selector(ws(3))
    return [
        ([series_job(ws(4))], 1),
        ([fixed], 1),
        ([series_job(GAP)], 1),
        ([series_job(pair("concat", GAP, GAP))], 1),
        ([series_job(pr(c)) for c in (2, 3, 4)], 1),
        (
            [
                series_job(pair("segre", GAP, pr(1))),
                series_job(pair("segre", pr(2), pr(2))),
                series_job(pair("segre", ws(1), pr(2))),
            ],
            2,
        ),
        (
            [
                series_job(pair("segre", pr(1), GAP)),
                series_job(pair("segre", pr(2), pr(1))),
                series_job(pair("segre", ws(1), pr(1))),
                series_job(pair("concat", GAP, pr(1))),
                series_job(pair("concat", pr(1), GAP)),
                series_job(pair("concat", pr(2), pr(2))),
                series_job(pair("concat", ws(1), ws(1))),
                series_job(pair("concat", ws(1), pr(1))),
            ],
            3,
        ),
    ]


def _expand(rng):
    fixed = expand_job(pair("segre", pr(1), pr(1)), (10, 10, 10))
    fixed["cli"] = ["series"] + cli_selector(fixed["lang"]) + [
        "--expand", "10,10,10", "--unsafe", "--format", "csv"]
    return [
        ([expand_job(GAP, (60, 60))], 1),
        ([check_job(ws(2), (36, 36))], 1),
        ([expand_job(ws(1), (60, 60))], 1),
        ([fixed], 1),
        ([expand_job(pr(1), (72, 72)), expand_job(pr(2), (44, 44)), expand_job(pr(3), (31, 31))], 1),
        (
            [
                expand_job(pair("segre", ws(1), pr(1)), (7, 7, 7)),
                expand_job(pair("segre", pr(1), GAP), (6, 6, 6)),
                expand_job(pair("concat", ws(1), ws(1)), (7, 7, 7)),
                expand_job(pair("concat", pr(1), pr(1)), (12, 12, 12)),
            ],
            2,
        ),
        (
            [
                check_job(pair("segre", pr(1), pr(1)), (9, 9, 9)),
                check_job(pair("concat", pr(1), pr(1)), (8, 8, 8)),
                check_job(pair("concat", ws(1), pr(1)), (6, 6, 6)),
            ],
            1,
        ),
    ]


def _recheck(rng):
    fixed = compare_job("window-squares", 1, 6, 6, SB)
    fixed["cli"] = ["compare", "window-squares", "--c", "1", "--conv", SB,
                    "--dmax", "6", "--nmax", "6", "--format", "json"]
    return [
        ([fixed], 1),
        ([compare_job("window-squares", 2, 5, 5, SB)], 1),
        ([compare_job("poly-ring", 1, 6, 6, ALG), compare_job("poly-ring", 2, 5, 5, ALG),
          compare_job("poly-ring", 3, 4, 4, ALG)], 1),
        ([word_maps_job("window-squares", 1, 6, 6), word_maps_job("window-squares", 2, 6, 5),
          word_maps_job("window-squares", 3, 5, 6)], 2),
        ([word_maps_job("poly-ring", 2, 6, 5), word_maps_job("poly-ring", 3, 4, 5)], 1),
        ([agrees_job(pr(3), 10)], 1),
        ([agrees_job(ws(3), 10), agrees_job(GAP, 10), agrees_job(pair("segre", ws(1), pr(1)), 8),
          agrees_job(pair("concat", GAP, pr(1)), 8)], 2),
        ([fibers_job("gap", None, 6, 4, "gens", rng)], 1),
        ([fibers_job("window-squares", 2, 5, 4, "quadrics", rng)], 1),
        ([fibers_job("window-squares", 1, 6, 4, "quadrics", rng)], 1),
        ([mingen_job(7)], 1),
        ([mingen_job(8)], 1),
        ([mingen_job(9)], 1),
    ]


WORKLOADS = {"solve": _solve, "expand": _expand, "recheck": _recheck}


def make_jobs(workload, seed):
    """The pass's job list: one draw per size class, in seed order."""
    rng = random.Random("%s:%d" % (workload, seed))
    jobs = []
    for pool, k in WORKLOADS[workload](rng):
        jobs.extend(rng.sample(pool, k))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# running a job (imports equihilb lazily, so make_jobs stays import-free)


def _build(spec):
    from equihilb import langlib

    if "pair" in spec:
        a, b = spec["a"], spec["b"]
        return langlib.builtin_pair(spec["pair"], a["kind"], a["c"], b["kind"], b["c"])
    return langlib.builtin_single(spec["kind"], spec["c"])


def _family(kind, c):
    from equihilb import monoracle

    return monoracle.GeneratorFamily(kind, None if kind == "gap" else c)


def _series_summary(lang):
    # what `equihilb series SELECTOR` computes and prints
    from equihilb import exactalg

    ser = lang.series()
    forms = []
    for label, ref in lang.reference_series:
        eq = exactalg.rat_equal(lang.transfer(), ref)
        forms.append([label, exactalg.ratfun_to_text(ref), eq])
    alt = lang.alt_series()
    if alt is not None:
        eq = exactalg.rat_equal(lang.transfer(), alt)
        forms.append(["alt automaton", exactalg.ratfun_to_text(alt), eq])
    return ser, {"series": exactalg.ratfun_to_text(ser), "forms": forms}


def _series(job):
    return _series_summary(_build(job["lang"]))[1]


def _expand_table(job):
    # what `equihilb series SELECTOR --expand B` computes: the series
    # summary, then the coefficient table of the same series
    from equihilb import exactalg

    ser, summary = _series_summary(_build(job["lang"]))
    bounds = tuple(job["bounds"])
    axes = ("d", "n") if len(bounds) == 2 else ("d", "m", "n")
    return summary, exactalg.series_expand(ser, bounds, axes=axes)


def _series_check(job):
    from equihilb import genfun

    lang = _build(job["lang"])
    b = job["bounds"]
    return genfun.series_check(lang.dfa, lang.weights, b[0], tuple(b[1:]))


def _compare(job):
    from equihilb import langlib, monoracle

    lang = langlib.builtin_single(job["kind"], job["c"])
    fam = _family(job["kind"], job["c"])
    return monoracle.compare_report(lang, fam, job["nmax"], job["dmax"], job["conv"])


def _word_maps(job):
    from equihilb import langlib, monoracle

    lang = langlib.builtin_single(job["kind"], job["c"])
    fam = _family(job["kind"], job["c"])
    return monoracle.word_monomial_maps(lang, fam, job["n"], job["d"])


def _agrees(job):
    from equihilb import automata

    lang = _build(job["lang"])
    return automata.language_agrees(lang.dfa, lang.predicate, job["maxlen"])


def _fibers(job):
    # `equihilb toric fibers --degree D`, with the target list as input
    from equihilb import toric

    kind, c, n = job["kind"], job["c"], job["n"]
    if job["moves"] == "gens":
        moves = [("g2", toric.g2())]
        moves += [(g.label(), g.binomial()) for g in toric.build_gen_family(max_degree=job["degree"])]
    else:
        moves = [("q%d" % i, b) for i, b in enumerate(toric.quadric_family(c, n))]
    use_shifts = job["moves"] == "gens"
    return [
        toric.fiber_report(kind, c, n, dict(t), moves, use_shifts=use_shifts)
        for t in job["targets"]
    ]


def _mingen(job):
    from equihilb import toric

    return toric.minimal_generator_degrees("gap", None, job["n"], job["dmax"])


RUNNERS = {
    "series": _series,
    "expand": _expand_table,
    "series_check": _series_check,
    "compare": _compare,
    "word_maps": _word_maps,
    "agrees": _agrees,
    "fibers": _fibers,
    "mingen": _mingen,
}


def run_job(job):
    """Run one job; the result is the program's own return value."""
    return RUNNERS[job["op"]](job)


def to_json(job, raw):
    """The job's result as plain JSON data (outside the timed region)."""
    op = job["op"]
    if op == "expand":
        summary, table = raw
        return dict(summary, table={",".join(map(str, k)): v for k, v in table.data.items()})
    if op == "series_check":
        ok, bad = raw
        return {"ok": ok, "bad": [list(map(repr, b)) for b in bad]}
    if op == "word_maps":
        keep = ("word_count", "distinct_images", "monomial_count", "collision", "bijective")
        out = {k: raw[k] for k in keep}
        out["collision"] = None if raw["collision"] is None else repr(raw["collision"])
        return out
    if op == "agrees":
        ok, cex, checked = raw
        return {"ok": ok, "cex": None if cex is None else list(cex), "checked": checked}
    if op == "mingen":
        return {str(d): k for d, k in raw.items()}
    return raw
