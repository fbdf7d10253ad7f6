"""Equivariant Hilbert series of shift-invariant monomial algebra filtrations."""

from .exactalg import (
    CountTable,
    MPoly,
    RatFun,
    TS,
    TSS,
    VarSet,
    rat_equal,
    series_expand,
)
from .automata import Alphabet, Dfa, dp_count, enumerate_words
from .genfun import WeightFn, series_check, transfer_matrix, transfer_series
from .langlib import (
    FiltrationLanguage,
    ideal_gap_series,
    lang_concat,
    lang_gap,
    lang_poly_ring,
    lang_segre,
    lang_window_squares,
)
from .monoracle import (
    ALGEBRA,
    STRING_BOUNDED,
    GeneratorFamily,
    compare_report,
    hilbert_counts,
    segre_counts,
    tensor_counts,
    word_monomial_maps,
)
from .toric import (
    Binomial,
    GenElement,
    build_gen_family,
    fiber_report,
    g2,
    gen_degree_stats,
    kernel_test,
    minimal_generator_degrees,
    quadric_family,
    reduce_binomial,
)

__version__ = "0.1.0"
