"""Acceptance gate: one test per shipped claim, timed, with a one-line
verdict each (see the terminal summary section)."""

import math
import time

from click.testing import CliRunner

from conftest import record_criterion
from equihilb.automata import dp_count
from equihilb.cli import main as cli_main
from equihilb.exactalg import (
    MPoly,
    RatFun,
    rat_equal,
    series_expand,
    table_mismatches,
)
from equihilb.genfun import series_check, transfer_series
from equihilb.langlib import (
    builtin_pair,
    builtin_single,
    ideal_gap_series,
    lang_gap,
    lang_poly_ring,
    lang_window_squares,
)
from equihilb.monoracle import (
    STRING_BOUNDED,
    GeneratorFamily,
    edge_spans,
    hilbert_counts,
    mono_str,
    word_monomial_maps,
)
from equihilb.toric import (
    GenElement,
    build_gen_family,
    fiber_report,
    g2,
    gen_degree_stats,
    image_targets,
    kernel_test,
    minimal_generator_degrees,
    presentation_image,
    quadric_family,
)
from polytext import parse_ratfun
from productref import segre_counts, tensor_counts

TS = ("t", "s")


def all_singles():
    return (
        [lang_poly_ring(c) for c in (1, 2, 3)]
        + [lang_window_squares(c) for c in range(4)]
        + [lang_gap()]
    )


def all_pairs():
    return [
        builtin_pair("segre", "poly-ring", 1, "poly-ring", 1),
        builtin_pair("concat", "window-squares", 1, "poly-ring", 1),
    ]


def test_criterion_01_transfer_golden():
    desc = "transfer-matrix golden forms for poly-ring(2) and gap"
    t0 = time.perf_counter()
    pr = lang_poly_ring(2)
    ta = time.perf_counter()
    f_pr = transfer_series(pr.dfa, pr.weights)
    ta = time.perf_counter() - ta
    ok_pr = rat_equal(f_pr, parse_ratfun(TS, "1/((1 - t)^2 - s)"))
    g = lang_gap()
    tb = time.perf_counter()
    f_gap = transfer_series(g.dfa, g.weights)
    tb = time.perf_counter() - tb
    ok_gap = rat_equal(
        f_gap,
        parse_ratfun(TS, "(t*s + 1)/(-t^2*s - t*s^2 + t^2 + t*s - 2*t - s + 1)"))
    ok = ok_pr and ok_gap and ta < 1.0 and tb < 1.0
    detail = "poly-ring %.3fs, gap %.3fs" % (ta, tb)
    record_criterion(1, desc, ok, time.perf_counter() - t0, detail)
    assert ok, detail


def test_criterion_02_series_dp_consistency():
    desc = "series_expand(transfer) equals dp_count for every built-in"
    t0 = time.perf_counter()
    bad = []
    for lang in all_singles():
        okay, mism = series_check(lang.dfa, lang.weights, 8, (8,))
        if not okay:
            bad.append((lang.name, mism[:2]))
    for lang in all_pairs():
        okay, mism = series_check(lang.dfa, lang.weights, 6, (6, 6))
        if not okay:
            bad.append((lang.name, mism[:2]))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    detail = "9 languages, singles to (8,8), pairs to (6,6,6)"
    if bad:
        detail = "mismatches: %r" % bad[:3]
    record_criterion(2, desc, ok, elapsed, detail)
    assert ok, detail


def test_criterion_03_predicate_agreement():
    desc = "automata agree with definitional predicates, words length <= 10"
    t0 = time.perf_counter()
    bad = []
    total = 0
    for lang in all_singles() + all_pairs():
        okay, cex, checked = lang.check(10)
        total += checked
        if not okay:
            bad.append((lang.name, cex))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120.0
    detail = "%d words checked" % total if not bad else "counterexamples: %r" % bad
    record_criterion(3, desc, ok, elapsed, detail)
    assert ok, detail


def test_criterion_04_segre_identity():
    desc = "Segre pair counts are pointwise products of factor counts"
    t0 = time.perf_counter()
    pairs = [
        ("poly-ring", 1, "poly-ring", 1),
        ("window-squares", 1, "poly-ring", 2),
    ]
    bad = []
    for kind_a, c_a, kind_b, c_b in pairs:
        seg = builtin_pair("segre", kind_a, c_a, kind_b, c_b)
        fa = builtin_single(kind_a, c_a)
        fb = builtin_single(kind_b, c_b)
        got = dp_count(seg.dfa, 5, (5, 5))
        want = segre_counts(dp_count(fa.dfa, 5, (5,)), dp_count(fb.dfa, 5, (5,)))
        mism = table_mismatches(got, want)
        if mism:
            bad.append((seg.name, mism[:2]))
    elapsed = time.perf_counter() - t0
    ok = not bad
    detail = "two factor pairs, all (d,m,n) <= (5,5,5)"
    if bad:
        detail = "mismatches: %r" % bad
    record_criterion(4, desc, ok, elapsed, detail)
    assert ok, detail


def test_criterion_05_concat_convolution():
    desc = "concatenation pair counts are degree convolutions"
    t0 = time.perf_counter()
    pairs = [
        ("window-squares", 1, "poly-ring", 1),
        ("poly-ring", 2, "gap", None),
    ]
    bad = []
    for kind_a, c_a, kind_b, c_b in pairs:
        cat = builtin_pair("concat", kind_a, c_a, kind_b, c_b)
        fa = builtin_single(kind_a, c_a)
        fb = builtin_single(kind_b, c_b)
        got = dp_count(cat.dfa, 5, (5, 5))
        want = tensor_counts(dp_count(fa.dfa, 5, (5,)), dp_count(fb.dfa, 5, (5,)))
        for d in range(6):
            for m in range(6):
                for n in range(6):
                    if got.get((d, m, n)) != want.get((d, m, n)):
                        bad.append((cat.name, (d, m, n)))
    elapsed = time.perf_counter() - t0
    ok = not bad
    detail = "two pairs, all (d,m,n) <= (5,5,5)"
    if bad:
        detail = "mismatches: %r" % bad[:4]
    record_criterion(5, desc, ok, elapsed, detail)
    assert ok, detail


def test_criterion_06_poly_ring_dimensions():
    desc = "poly-ring series coefficients are binomials C(cn+d-1, d)"
    t0 = time.perf_counter()
    bad = []
    for c in (1, 2, 3):
        tab = series_expand(lang_poly_ring(c).series(), (8, 8))
        for d in range(9):
            if tab.get((d, 0)) != 0:
                bad.append((c, d, 0))
            for n in range(1, 9):
                if tab.get((d, n)) != math.comb(c * n + d - 1, d):
                    bad.append((c, d, n))
    elapsed = time.perf_counter() - t0
    ok = not bad
    detail = "c <= 3, (d,n) <= (8,8)" if not bad else "bad cells: %r" % bad[:4]
    record_criterion(6, desc, ok, elapsed, detail)
    assert ok, detail


def test_criterion_07_gap_series_cross_check():
    desc = "gap closed series matches dp counts shifted by one in n"
    t0 = time.perf_counter()
    closed = parse_ratfun(
        TS, "(t*s^2 + s)/(-t^2*s - t*s^2 + t^2 + t*s - 2*t - s + 1)")
    tab = series_expand(closed, (8, 8), axes=("d", "n"))
    words = dp_count(lang_gap().dfa, 8, (8,))
    bad = []
    for d in range(9):
        if tab.get((d, 0)) != 0:
            bad.append((d, 0))
        for n in range(1, 9):
            if tab.get((d, n)) != words.get((d, n - 1)):
                bad.append((d, n))
    spots = all(tab.get((d, 1)) == d + 1 for d in range(9)) \
        and tab.get((2, 2)) == 9
    elapsed = time.perf_counter() - t0
    ok = not bad and spots
    detail = "(d,n) <= (8,8); spot rows (d,1)=d+1 and (2,2)=9"
    if not ok:
        detail = "bad cells %r, spots %s" % (bad[:4], spots)
    record_criterion(7, desc, ok, elapsed, detail)
    assert ok, detail


def test_criterion_08_string_bounded_bijection():
    desc = "string-bounded oracle counts and word maps match the languages"
    t0 = time.perf_counter()
    langs = [(lang_window_squares(c), GeneratorFamily("window-squares", c))
             for c in range(4)]
    langs.append((lang_gap(), GeneratorFamily("gap")))
    count_bad = []
    bij_bad = []
    for lang, fam in langs:
        from_series = series_expand(lang.series(), (6, 6))
        counted = hilbert_counts(fam, 6, 6, STRING_BOUNDED)
        for d in range(7):
            for n in range(1, 7):
                if from_series.get((d, n)) != counted.get((d, n)):
                    count_bad.append(
                        (lang.name, d, n,
                         from_series.get((d, n)), counted.get((d, n))))
        for n in range(1, 7):
            for d in range(7):
                maps = word_monomial_maps(lang, fam, n, d)
                if not maps["bijective"]:
                    bij_bad.append((lang.name, d, n, maps["collision"]))
    elapsed = time.perf_counter() - t0
    ok = not count_bad and not bij_bad and elapsed < 120.0
    if ok:
        detail = "window-squares c <= 3 and gap, all (d,n) <= (6,6)"
    else:
        diverging = sorted({row[0] for row in count_bad + bij_bad})
        passing = [lang.name for lang, _ in langs
                   if lang.name not in diverging]
        parts = ["diverging: %s" % ", ".join(diverging)] if diverging else []
        if count_bad:
            parts.append("first count cell %s d=%s n=%s language=%s oracle=%s"
                         % count_bad[0])
        collisions = [row for row in bij_bad if row[3] is not None]
        if collisions:
            name, d, n, (word_a, word_b, image) = collisions[0]
            parts.append("first collision %s d=%s n=%s: [%s] and [%s] both "
                         "give %s" % (name, d, n, " ".join(word_a),
                                      " ".join(word_b), mono_str(dict(image))))
        elif bij_bad:
            parts.append("first map cell %s d=%s n=%s" % bij_bad[0][:3])
        parts.append("%d count cells and %d map cells differ"
                     % (len(count_bad), len(bij_bad)))
        if passing:
            parts.append("passing: %s" % ", ".join(passing))
        parts.append("%.1fs" % elapsed)
        detail = "; ".join(parts)
    record_criterion(8, desc, ok, elapsed, detail)
    assert ok, detail


def test_criterion_09_discrepancy_surfacing():
    desc = "compare command reports algebra-convention discrepancies, exit 0"
    t0 = time.perf_counter()
    runner = CliRunner()
    res_gap = runner.invoke(cli_main, [
        "compare", "gap", "--conv", "algebra", "--dmax", "2", "--nmax", "2"])
    ok_gap = (res_gap.exit_code == 0
              and "d=2 n=2 language=9 oracle=10 MISMATCH" in res_gap.output)
    res_ws = runner.invoke(cli_main, [
        "compare", "window-squares", "--c", "1", "--conv", "algebra",
        "--dmax", "2", "--nmax", "1"])
    ok_ws = (res_ws.exit_code == 0
             and "d=2 n=1 language=2 oracle=3 MISMATCH" in res_ws.output)
    elapsed = time.perf_counter() - t0
    ok = ok_gap and ok_ws
    detail = "gap (2,2) 10 vs 9 and window-squares(1) (2,1) 3 vs 2 reported"
    if not ok:
        detail = "gap ok=%s ws ok=%s" % (ok_gap, ok_ws)
    record_criterion(9, desc, ok, elapsed, detail)
    assert ok, detail


def test_criterion_10_generator_family():
    desc = "kernel family census is Fibonacci and every element checks out"
    t0 = time.perf_counter()
    fam = build_gen_family(max_degree=15)
    census = {}
    for e in fam:
        census[e.degree()] = census.get(e.degree(), 0) + 1
    fib_ok = [census.get(d, 0) for d in range(4, 16)] == \
        [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]
    checks_ok = all(kernel_test(e.binomial()) and e.structure_check()
                    for e in fam)
    elapsed = time.perf_counter() - t0
    ok = fib_ok and checks_ok and elapsed < 30.0
    detail = "%d elements, degrees 4..15" % len(fam)
    if not ok:
        detail = "census ok=%s checks ok=%s" % (fib_ok, checks_ok)
    record_criterion(10, desc, ok, elapsed, detail)
    assert ok, detail


def test_criterion_11_fiber_connectivity():
    desc = "fibers connect under the stated move sets"
    t0 = time.perf_counter()
    gap_moves = [("g2", g2())] + \
        [(e.label(), e.binomial()) for e in build_gen_family(max_degree=4)]
    disconnected = []
    fibers = 0
    for n in range(2, 7):
        for degree in range(1, 5):
            for target in image_targets(edge_spans("gap", None), n, degree):
                rep = fiber_report("gap", None, n, target, gap_moves)
                fibers += 1
                if not rep["connected"]:
                    disconnected.append(("gap", n, target))
    for c in (0, 1, 2):
        for n in range(2, 7):
            moves = [("q%d" % i, b)
                     for i, b in enumerate(quadric_family(c, n))]
            for degree in range(1, 5):
                for target in image_targets(edge_spans("window-squares", c), n, degree):
                    rep = fiber_report("window-squares", c, n, target, moves,
                                       use_shifts=False)
                    fibers += 1
                    if not rep["connected"]:
                        disconnected.append(("ws%d" % c, n, target))
    base = GenElement.of(())
    btarget = presentation_image(dict(base.binomial().u))
    with_base = fiber_report("gap", None, 7, btarget, gap_moves)
    without = fiber_report(
        "gap", None, 7, btarget,
        [(lbl, b) for lbl, b in gap_moves if lbl != "g()"])
    exclusion_ok = (with_base["connected"] and with_base["fiber_size"] == 2
                    and not without["connected"]
                    and len(without["components"]) == 2)
    elapsed = time.perf_counter() - t0
    ok = not disconnected and exclusion_ok and elapsed < 300.0
    detail = "%d fibers connected; base-element fiber splits without g()" % fibers
    if not ok:
        detail = "disconnected %r, exclusion ok=%s" % (
            disconnected[:3], exclusion_ok)
    record_criterion(11, desc, ok, elapsed, detail)
    assert ok, detail


def test_criterion_12_degree_formula():
    desc = "max generator degree per window matches floor(2n/3) and fibers"
    t0 = time.perf_counter()
    rows = gen_degree_stats(6, 15)
    bad = [r for r in rows
           if not r["computed"] == r["formula"] == 2 * r["n"] // 3]
    # Independent certificate: fiber-graph counts of minimal generators,
    # taken up to the degree the former (2n+1)//3 formula predicted.
    fiber_bad = []
    for n in range(6, 10):
        counts = minimal_generator_degrees("gap", None, n, (2 * n + 1) // 3)
        top = max(d for d, k in counts.items() if k)
        if top != 2 * n // 3 or (n == 7 and counts.get(5) != 0):
            fiber_bad.append((n, counts))
    elapsed = time.perf_counter() - t0
    ok = not bad and not fiber_bad
    if ok:
        detail = ("n = 6..15 family agrees with floor(2n/3); fiber counts "
                  "agree on n = 6..9, none of degree 5 at n = 7")
    else:
        detail = ("formula disagrees at n in %r: computed %s vs formula %s; "
                  "fiber certificate disagrees at %r"
                  % ([r["n"] for r in bad],
                     [r["computed"] for r in bad],
                     [r["formula"] for r in bad], fiber_bad))
    record_criterion(12, desc, ok, elapsed, detail)
    assert ok, detail


def test_criterion_13_ideal_series_identity():
    desc = "complement-series identity computes; stated form compared and reported"
    t0 = time.perf_counter()
    amb = parse_ratfun(TS, "((1 - t)^2)/((1 - t)^2 - s)")
    computed_here = amb - RatFun(MPoly.const(TS, 1)) - lang_gap().series()
    computed, stated = ideal_gap_series()
    identity_ok = rat_equal(computed_here, computed)
    eq = rat_equal(computed, stated)
    res = CliRunner().invoke(cli_main, ["series", "ideal-gap"])
    reported_ok = res.exit_code == 0 and (
        eq or "MISMATCH" in res.output)
    elapsed = time.perf_counter() - t0
    ok = identity_ok and reported_ok
    detail = ("rat_equal vs stated form: %s%s" %
              (eq, "" if eq else "; mismatch reported by the tool, exit 0"))
    if not ok:
        detail = "identity ok=%s reported ok=%s" % (identity_ok, reported_ok)
    record_criterion(13, desc, ok, elapsed, detail)
    assert ok, detail
