"""Tests for the brute-force monomial oracle."""

import re
import tracemalloc

import pytest

from equihilb.exactalg import CountTable, series_expand
from equihilb.langlib import builtin_single, lang_gap, lang_poly_ring, lang_window_squares
from equihilb.monoracle import (
    ALGEBRA,
    STRING_BOUNDED,
    CONVENTIONS,
    GeneratorFamily,
    hilbert_counts,
    word_to_monomial,
    word_monomial_maps,
    compare_report,
    mono_freeze,
    mono_str,
)
import productref
from productref import segre_counts, tensor_counts


def string_product(string):
    out = {}
    for i, j in string:
        out[i] = out.get(i, 0) + 1
        out[j] = out.get(j, 0) + 1
    return out


def test_conventions():
    assert CONVENTIONS == (ALGEBRA, STRING_BOUNDED)
    with pytest.raises(ValueError):
        GeneratorFamily("nope")


def test_gap_generators():
    fam = GeneratorFamily("gap")
    assert fam.generators(2) == [{1: 1, 2: 1}, {1: 1, 3: 1},
                                 {2: 1, 3: 1}, {2: 1, 4: 1}]
    assert len(fam.generators(4)) == 8
    for g in fam.generators(5):
        assert sum(g.values()) == 2


def test_window_squares_generators():
    fam = GeneratorFamily("window-squares", 1)
    assert fam.generators(2) == [{1: 2}, {1: 1, 2: 1}, {2: 2}, {2: 1, 3: 1}]
    fam0 = GeneratorFamily("window-squares", 0)
    assert fam0.generators(3) == [{1: 2}, {2: 2}, {3: 2}]


def test_poly_ring_generators():
    fam = GeneratorFamily("poly-ring", 2)
    assert fam.generators(2) == [{(1, 1): 1}, {(2, 1): 1},
                                 {(1, 2): 1}, {(2, 2): 1}]


def test_conventions_differ_on_gap():
    fam = GeneratorFamily("gap")
    algebra = fam.enumerate_monomials(2, 2, ALGEBRA)
    bounded = fam.enumerate_monomials(2, 2, STRING_BOUNDED)
    assert len(algebra) == 10 and len(bounded) == 9
    # x1x2x3x4 factors only through the width-4 generator pair (1,2)(3,4),
    # so it is in the algebra at n=2 but not reachable inside the window
    assert algebra - bounded == {mono_freeze({1: 1, 2: 1, 3: 1, 4: 1})}


def test_conventions_differ_on_window_squares():
    fam = GeneratorFamily("window-squares", 1)
    assert len(fam.enumerate_monomials(1, 2, ALGEBRA)) == 3
    assert len(fam.enumerate_monomials(1, 2, STRING_BOUNDED)) == 2
    assert len(fam.enumerate_monomials(2, 2, STRING_BOUNDED)) == 8


def test_hilbert_counts_window_squares_match_language():
    lang = lang_window_squares(1)
    fam = GeneratorFamily("window-squares", 1)
    from_series = series_expand(lang.series(), (5, 5))
    tab = hilbert_counts(fam, 5, 5, STRING_BOUNDED)
    for d in range(6):
        for n in range(1, 6):
            assert tab.get((d, n)) == from_series.get((d, n)), (d, n)
    # the window-free convention sees one extra square at the boundary
    alg = hilbert_counts(fam, 5, 5, ALGEBRA)
    assert alg.get((2, 1)) == 3 and from_series.get((2, 1)) == 2


def test_hilbert_counts_poly_ring_match_language():
    lang = lang_poly_ring(2)
    fam = GeneratorFamily("poly-ring", 2)
    from_series = series_expand(lang.series(), (4, 4))
    tab = hilbert_counts(fam, 4, 4, ALGEBRA)
    for d in range(5):
        for n in range(1, 5):
            assert tab.get((d, n)) == from_series.get((d, n))


def test_gap_counts_diverge_from_language():
    lang = lang_gap()
    fam = GeneratorFamily("gap")
    from_series = series_expand(lang.series(), (3, 3))
    assert from_series.get((3, 3)) == 47
    assert len(fam.normal_strings(3, 3)) == 47
    assert len(fam.enumerate_monomials(3, 3, STRING_BOUNDED)) == 46
    assert len(fam.enumerate_monomials(3, 3, ALGEBRA)) == 50
    assert hilbert_counts(fam, 2, 2, ALGEBRA).get((2, 2)) == 10


def test_normal_strings_match_the_recursive_reference():
    for kind, cs in (("gap", [None]), ("window-squares", [0, 1, 2, 3])):
        for c in cs:
            fam = GeneratorFamily(kind, c)
            for n in range(0, 7):
                for d in range(0, 6):
                    assert fam.normal_strings(n, d) == productref.normal_strings(fam, n, d), (
                        kind, c, n, d)
    assert GeneratorFamily("gap").normal_strings(3, -1) == []


def test_normal_strings_walk_holds_no_frame_per_pair():
    # 1,100 pairs run deeper than Python's default recursion limit
    assert GeneratorFamily("window-squares", 0).normal_strings(1, 1100) == [((1, 1),) * 1100]


def test_two_strings_same_monomial():
    fam = GeneratorFamily("gap")
    target = mono_freeze({1: 1, 2: 2, 3: 2, 4: 1})
    hits = [w for w in fam.normal_strings(3, 3)
            if mono_freeze(string_product(w)) == target]
    assert hits == [((1, 2), (2, 3), (3, 4)), ((1, 3), (2, 3), (2, 4))]


def test_word_monomial_maps_window_squares_bijective():
    for c in (0, 1, 2):
        lang = lang_window_squares(c)
        fam = GeneratorFamily("window-squares", c)
        for n in (1, 3):
            for d in (2, 4):
                maps = word_monomial_maps(lang, fam, n, d)
                assert maps["bijective"], (c, n, d, maps)
                assert maps["collision"] is None
    # content letters pair with the family's letters by alphabet order, not
    # by the digits in their names: "a20" stands for span 0, "x12" for row 2
    renamed = [(lang_window_squares(1, alpha="a2"), GeneratorFamily("window-squares", 1),
                STRING_BOUNDED),
               (lang_poly_ring(2, alpha="x1"), GeneratorFamily("poly-ring", 2), ALGEBRA)]
    for lang, fam, conv in renamed:
        maps = word_monomial_maps(lang, fam, 3, 2, conv)
        assert maps["bijective"], (lang, fam, maps)
        assert maps["extra"] == [] and maps["missing"] == []
    # a language and a family of different c have different letter counts;
    # different kinds may share a letter count and are refused all the same
    for lang, fam, conv in [
            (lang_window_squares(1), GeneratorFamily("window-squares", 2), STRING_BOUNDED),
            (lang_poly_ring(3), GeneratorFamily("poly-ring", 2), STRING_BOUNDED),
            (lang_window_squares(1), GeneratorFamily("gap"), STRING_BOUNDED),
            (lang_poly_ring(2), GeneratorFamily("gap"), STRING_BOUNDED),
            (lang_gap(), GeneratorFamily("poly-ring", 2), ALGEBRA)]:
        with pytest.raises(ValueError, match=r"language %s .* GeneratorFamily" % re.escape(lang.name)):
            word_monomial_maps(lang, fam, 3, 2, conv)


def test_word_monomial_maps_gap_collision():
    maps = word_monomial_maps(lang_gap(), GeneratorFamily("gap"), 3, 3)
    assert maps["word_count"] == 47
    assert maps["distinct_images"] == 46
    assert maps["monomial_count"] == 46
    # not injective, yet onto the oracle's monomials and inside them
    assert maps["distinct_images"] < maps["word_count"]
    assert not maps["bijective"]
    assert maps["missing"] == [] and maps["extra"] == []
    word_a, word_b, image = maps["collision"]
    assert word_a != word_b
    assert mono_str(dict(image)) == "x1*x2^2*x3^2*x4"
    for w in (word_a, word_b):
        assert mono_freeze(word_to_monomial(GeneratorFamily("gap"), w, "tau",
                                            {"a1": 1, "a2": 2})) == image


def test_word_to_monomial():
    mono = word_to_monomial(GeneratorFamily("gap"), ("a1", "a2", "tau", "a1"), "tau",
                            {"a1": 1, "a2": 2})
    assert mono == {1: 2, 2: 2, 3: 2}
    sq = word_to_monomial(GeneratorFamily("window-squares", 1), ("a0", "tau", "a1"), "tau",
                          {"a0": 0, "a1": 1})
    assert sq == {1: 2, 2: 1, 3: 1}


SINGLES = [("poly-ring", c) for c in (1, 2, 3)] + [
    ("window-squares", c) for c in (0, 1, 2, 3)] + [("gap", None)]


def test_one_letter_words_map_onto_the_generators():
    # the word tau^(k-1) a stands for the generator of letter a at position k
    for kind, c in SINGLES:
        lang, fam = builtin_single(kind, c), GeneratorFamily(kind, c)
        tau = lang.alphabet.on(1)[0]
        values = dict(zip(lang.alphabet.on(0), fam.letters, strict=True))
        for n in range(5):
            images = [word_to_monomial(fam, (tau,) * (k - 1) + (a,), tau, values)
                      for k in range(1, n + 1) for a in lang.alphabet.on(0)]
            assert images == fam.generators(n), (kind, c, n)


def test_word_monomial_maps_match_the_reference():
    # the poly-ring oracle has one convention, whatever conv says
    collided, missed = set(), set()
    for kind, c in SINGLES:
        lang, fam = builtin_single(kind, c), GeneratorFamily(kind, c)
        for conv in (ALGEBRA,) if kind == "poly-ring" else CONVENTIONS:
            for n in range(5):
                for d in range(5):
                    cell = (kind, c, conv, n, d)
                    maps = word_monomial_maps(lang, fam, n, d, conv)
                    want = productref.word_monomial_maps(lang, fam, n, d, conv)
                    assert list(maps.items()) == list(want.items()), cell
                    if maps["collision"] is not None:
                        collided.add(cell)
                    if maps["missing"]:
                        missed.add(cell)
    assert ("gap", None, STRING_BOUNDED, 3, 3) in collided
    assert {("gap", None, ALGEBRA, 2, 2), ("window-squares", 1, ALGEBRA, 1, 2),
            ("window-squares", 2, ALGEBRA, 1, 2)} <= missed

    # a paired language's words land inside its oracle's monomials, so only
    # an oracle with every other monomial dropped leaves images outside them
    class Thinned(GeneratorFamily):
        def enumerate_monomials(self, n, d, conv):
            return set(sorted(super().enumerate_monomials(n, d, conv))[::2])

    for kind, c in (("gap", None), ("window-squares", 1)):
        lang, fam = builtin_single(kind, c), Thinned(kind, c)
        for conv in CONVENTIONS:
            maps = word_monomial_maps(lang, fam, 3, 3, conv)
            assert maps["extra"]
            assert maps == productref.word_monomial_maps(lang, fam, 3, 3, conv)


def test_word_monomial_maps_memory():
    lang, fam = lang_window_squares(1), GeneratorFamily("window-squares", 1)
    tracemalloc.start()
    try:
        maps = word_monomial_maps(lang, fam, 6, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert maps["bijective"] and maps["word_count"] == 5336
    # each image is held once, as the oracle's own monomial: about 3.6 MB,
    # against 5.8 MB with a first-word dict and a set of the images
    assert peak < 4_500_000, peak


def test_compare_report():
    rep = compare_report(lang_gap(), GeneratorFamily("gap"), 2, 2, ALGEBRA)
    assert rep["convention"] == ALGEBRA
    assert not rep["all_equal"]
    bad = [c for c in rep["cells"] if not c["equal"]]
    assert bad == [{"d": 2, "n": 2, "language": 9, "oracle": 10, "equal": False}]
    rep2 = compare_report(lang_window_squares(1),
                          GeneratorFamily("window-squares", 1), 3, 3,
                          STRING_BOUNDED)
    assert rep2["all_equal"]
    # a language built for another family is refused, not reported unequal
    for lang, fam, conv in [
            (lang_window_squares(1), GeneratorFamily("gap"), STRING_BOUNDED),
            (lang_poly_ring(2), GeneratorFamily("gap"), STRING_BOUNDED),
            (lang_gap(), GeneratorFamily("poly-ring", 2), ALGEBRA),
            (lang_window_squares(1), GeneratorFamily("window-squares", 2), STRING_BOUNDED)]:
        message = r"language %s .* GeneratorFamily" % re.escape(lang.name)
        with pytest.raises(ValueError, match=message):
            compare_report(lang, fam, 3, 2, conv)


def test_segre_and_tensor_counts():
    a = CountTable(("d", "m"), (2, 2))
    b = CountTable(("d", "n"), (2, 2))
    a.set((0, 0), 1)
    a.set((1, 1), 2)
    a.set((2, 1), 3)
    b.set((1, 2), 5)
    b.set((2, 1), 7)
    seg = segre_counts(a, b)
    assert seg.get((1, 1, 2)) == 10
    assert seg.get((2, 1, 1)) == 21
    assert seg.get((0, 0, 1)) == 0
    ten = tensor_counts(a, b)
    assert ten.get((1, 0, 2)) == 5  # (0,0)*(1,2)
    assert ten.get((2, 1, 2)) == 10  # (1,1)*(1,2)
    assert ten.get((3, 1, 1)) == 14  # (1,1)*(2,1)
    assert ten.get((4, 1, 1)) == 21


def test_single_builders_reject_a_bad_c():
    # a c that is not an int in range is a ValueError, not a TypeError
    # from deep inside the builder
    calls = [(lang_window_squares, None), (lang_window_squares, 1.5),
             (lang_poly_ring, None), (lang_poly_ring, 1.5)]
    calls += [(lambda c: GeneratorFamily("poly-ring", c), c) for c in (1.5, "2")]
    for build, c in calls:
        with pytest.raises(ValueError, match="c >= "):
            build(c)


def test_mono_freeze_str():
    m = {2: 1, 1: 3}
    assert dict(mono_freeze(m)) == m
    assert mono_str(m) == "x1^3*x2"
    assert mono_str({}) == "1"
