"""The benchmark's checks accept real outputs and reject corrupted ones.

Run with `PYTHONPATH=src python -m pytest bench`.  Each test runs a small
job through the same code the workload process uses, then changes one
coefficient, drops one term or splits one fiber, and requires the check to
fail.
"""

import copy
import math
import re
import sys

import checks
import jobs as joblist
from tracer import Tracer


def output(job):
    return joblist.to_json(job, joblist.run_job(job))


def change_coefficient(text):
    """Add 1 to the first written coefficient (or give the first bare
    monomial the coefficient 2)."""
    m = re.search(r"(?<=[ (-])(\d+)\*", text)
    if m:
        return text[: m.start()] + str(int(m.group(1)) + 1) + text[m.start() + len(m.group(1)):]
    return re.sub(r"([+-] )([a-z])", r"\g<1>2*\2", text, count=1)


def drop_term(text):
    """Remove the last term of the numerator."""
    num, sep, den = text.partition(")/(")
    head, _, _ = num.rpartition(" ")
    head, _, _ = head.rpartition(" ")
    return head + sep + den


def test_series_checks_reject_corruption():
    for lang in (joblist.GAP, joblist.ws(2), joblist.pair("segre", joblist.pr(1), joblist.pr(1)),
                 joblist.pair("concat", joblist.GAP, joblist.pr(1))):
        job = joblist.series_job(lang)
        out = output(job)
        assert checks.check(job, out) == [], job["id"]
        for corrupt in (change_coefficient, drop_term):
            bad = dict(out, series=corrupt(out["series"]))
            assert bad["series"] != out["series"]
            assert checks.check(job, bad), (job["id"], corrupt.__name__)
        if out["forms"]:
            flipped = copy.deepcopy(out)
            flipped["forms"][0][2] = not flipped["forms"][0][2]
            assert checks.check(job, flipped)


def test_expand_checks_reject_corruption():
    for job in (joblist.expand_job(joblist.GAP, (12, 12)),
                joblist.expand_job(joblist.pair("segre", joblist.ws(1), joblist.pr(1)), (4, 4, 4)),
                joblist.expand_job(joblist.pair("concat", joblist.pr(1), joblist.GAP), (4, 4, 4))):
        out = output(job)
        assert checks.check(job, out) == [], job["id"]
        table = out["table"]
        key = sorted(table)[len(table) // 2]
        assert checks.check(job, dict(out, table=dict(table, **{key: table[key] + 1})))
        assert checks.check(job, dict(out, table={k: v for k, v in table.items() if k != key}))
        assert checks.check(job, dict(out, series=change_coefficient(out["series"])))
    job = joblist.check_job(joblist.ws(1), (6, 6))
    out = output(job)
    assert checks.check(job, out) == []
    assert checks.check(job, dict(out, ok=False))


def test_recheck_checks_reject_corruption():
    job = joblist.compare_job("window-squares", 1, 3, 3, "string-bounded")
    out = output(job)
    assert checks.check(job, out) == []
    bad = copy.deepcopy(out)
    bad["cells"][-1]["oracle"] += 1
    assert checks.check(job, bad)

    job = joblist.word_maps_job("window-squares", 2, 3, 3)
    out = output(job)
    assert checks.check(job, out) == []
    assert checks.check(job, dict(out, word_count=out["word_count"] + 1))

    job = joblist.agrees_job(joblist.GAP, 6)
    out = output(job)
    assert checks.check(job, out) == []
    assert checks.check(job, dict(out, ok=False))

    import random

    job = joblist.fibers_job("gap", None, 5, 3, "gens", random.Random(0))
    out = output(job)
    assert checks.check(job, out) == []
    i = next(i for i, r in enumerate(out) if r["fiber_size"] >= 2)
    split = copy.deepcopy(out)
    comp = split[i]["components"][0]
    split[i]["components"] = [comp[:1], comp[1:]]
    split[i]["connected"] = False
    assert checks.check(job, split)
    dropped = copy.deepcopy(out)
    dropped[i]["components"][0] = comp[1:]
    assert checks.check(job, dropped)

    job = joblist.mingen_job(7)
    out = output(job)
    assert out == {"2": 5, "3": 0, "4": 2, "5": 0}
    assert checks.check(job, out) == []
    assert checks.check(job, dict(out, **{"4": 0}))
    assert checks.check(job, dict(out, **{"4": 3}))


def test_job_lists_keep_their_make_up():
    for workload in joblist.WORKLOADS:
        a, b = joblist.make_jobs(workload, 1), joblist.make_jobs(workload, 2)
        assert a == joblist.make_jobs(workload, 1)
        assert len(a) == len(b) and len({j["id"] for j in a}) == len(a)
        assert [j for j in a if "cli" in j] and [j for j in b if "cli" in j]


def test_tracer_restores_the_program_and_counts():
    from equihilb import genfun, langlib

    before = (langlib.transfer_series, genfun.transfer_series)
    tr = Tracer()
    tr.install()
    tr.begin_pass(0)
    try:
        job = joblist.series_job(joblist.ws(2))
        tr.run_job(job["id"], joblist.run_job, job)
    finally:
        tr.uninstall()
    layers = tr.end_pass()
    assert (langlib.transfer_series, genfun.transfer_series) == before
    assert all(v >= 0 for v in layers.values())
    assert layers["genfun.transfer_s"] > 0 and layers["exactalg.rat_equal_s"] > 0
    assert layers["genfun.den_terms"] > 0 and layers["langlib.dfa_states"] == 6
    assert all(s is not None for s in tr.spans)
    assert "equihilb" in sys.modules


def test_tracer_counts_the_program_enumeration():
    from equihilb import monoracle, toric

    tr = Tracer()
    tr.install()
    tr.begin_pass(0)
    try:
        for job in (joblist.mingen_job(7), joblist.compare_job("poly-ring", 2, 2, 2, "algebra")):
            tr.run_job(job["id"], joblist.run_job, job)
    finally:
        tr.uninstall()
    layers = tr.end_pass()
    assert toric.presentation_image.__name__ == "presentation_image"
    assert monoracle.mono_freeze.__name__ == "mono_freeze"
    # gap, window 7: 14 edges, edge multisets of degrees 2..5
    assert layers["toric.mingen_multisets"] == sum(math.comb(14 + d - 1, d) for d in range(2, 6))
    assert 0 < layers["toric.mingen_images"] < layers["toric.mingen_multisets"]
    # poly-ring(2), windows 1..2, degrees 0..2: every multiset, and the generator list
    # of each call, is frozen once
    cells = [(n, d) for d in range(3) for n in (1, 2)]
    assert layers["monoracle.monomials"] == sum(math.comb(2 * n + d - 1, d) for n, d in cells)
    assert layers["monoracle.frozen"] == layers["monoracle.monomials"] + sum(2 * n for n, _ in cells)
