"""Tests for the brute-force monomial oracle."""

import pytest

from equihilb.exactalg import CountTable, series_expand
from equihilb.langlib import lang_gap, lang_poly_ring, lang_window_squares
from equihilb.monoracle import (
    ALGEBRA,
    STRING_BOUNDED,
    CONVENTIONS,
    GeneratorFamily,
    hilbert_counts,
    word_to_monomial,
    word_monomial_maps,
    compare_report,
    segre_counts,
    tensor_counts,
    mono_freeze,
    mono_str,
)


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
    assert fam.generators(2) == [{(1, 1): 1}, {(1, 2): 1},
                                 {(2, 1): 1}, {(2, 2): 1}]


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


def test_word_monomial_maps_gap_collision():
    maps = word_monomial_maps(lang_gap(), GeneratorFamily("gap"), 3, 3)
    assert maps["word_count"] == 47
    assert maps["distinct_images"] == 46
    assert maps["monomial_count"] == 46
    assert not maps["injective"]
    assert maps["surjective"] and maps["inside"]
    assert not maps["bijective"]
    assert maps["missing"] == [] and maps["extra"] == []
    word_a, word_b, image = maps["collision"]
    assert word_a != word_b
    assert mono_str(dict(image)) == "x1*x2^2*x3^2*x4"
    for w in (word_a, word_b):
        assert mono_freeze(word_to_monomial("gap", w, "tau", {"a1": 1, "a2": 2})) == image


def test_word_to_monomial():
    mono = word_to_monomial("gap", ("a1", "a2", "tau", "a1"), "tau",
                            {"a1": 1, "a2": 2})
    assert mono == {1: 2, 2: 2, 3: 2}
    sq = word_to_monomial("window-squares", ("a0", "tau", "a1"), "tau",
                          {"a0": 0, "a1": 1})
    assert sq == {1: 2, 2: 1, 3: 1}


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
