"""Tests for the command-line interface."""

import json
import shlex
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from equihilb import cli
from equihilb.cli import main
from equihilb.toric import GenElement, g2, shifts_within


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_series_gap_text():
    res = run("series", "gap")
    assert res.exit_code == 0
    assert "gap:" in res.output
    assert "closed form (transfer):" in res.output
    assert "[agrees]" in res.output
    assert "DIFFERS" not in res.output


def test_series_poly_ring_expand_csv():
    res = run("series", "poly-ring", "--c", "1", "--expand", "3,3",
              "--format", "csv")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "d,n,count"
    assert "2,2,3" in lines  # dim K[x1,x2] in degree 2
    assert "0,1,1" in lines


def test_series_window_squares_flags_alt():
    res = run("series", "window-squares", "--c", "2")
    assert res.exit_code == 0
    assert "closed form (transfer):" in res.output
    assert res.output.count("[agrees]") == 1
    assert "alt closed form" in res.output
    assert "alt automaton" in res.output
    assert res.output.count("[DIFFERS]") == 2
    assert "note:" in res.output
    # each differing form is followed by its first differing coefficient
    lines = res.output.splitlines()
    for label, witness in (
            ("alt closed form", "first difference at t^1 s^0: transfer 3 against form 2"),
            ("alt automaton", "first difference at t^1 s^1: transfer 6 against form 5")):
        at = next(i for i, line in enumerate(lines) if line.startswith("  %s " % label))
        assert lines[at + 1] == "    " + witness
    data = json.loads(run("series", "window-squares", "--c", "2", "--format", "json").output)
    results = data["results"]
    assert results["alt closed form"]["witness"] == (
        "first difference at t^1 s^0: transfer 3 against form 2")
    assert results["alt automaton"]["witness"] == (
        "first difference at t^1 s^1: transfer 6 against form 5")
    assert "witness" not in results["closed form"]


def test_series_ideal_gap_reports_mismatch():
    res = run("series", "ideal-gap")
    assert res.exit_code == 0
    assert "rat_equal: False" in res.output
    assert "MISMATCH" in res.output
    witness = "first difference at t^0 s^1: computed 0 against stated 1"
    assert res.output.splitlines()[-1] == "    " + witness
    data = json.loads(run("series", "ideal-gap", "--format", "json").output)
    assert data["results"]["equal"] is False
    assert data["results"]["witness"] == witness


def test_series_ideal_gap_rejects_table_options():
    res = run("series", "ideal-gap", "--format", "csv")
    assert res.exit_code == 2
    assert "csv output needs --expand" in res.output
    res = run("series", "ideal-gap", "--expand", "3,3")
    assert res.exit_code == 2
    assert "ideal-gap takes no --expand" in res.output
    # the language options build nothing here, so giving one is an error
    # that names it, even at its default value
    for args in (["--c", "99", "--checked", "--a", "nope"], ["--checked"], ["--a", "gap"],
                 ["--a-c", "1"], ["--b", "poly-ring"], ["--b-c", "2"]):
        res = run("series", "ideal-gap", *args)
        assert res.exit_code == 2
        assert res.output.splitlines()[-1] == "Error: ideal-gap takes no %s" % args[0]


def test_series_checked_pair():
    res = run("series", "segre", "--a", "gap", "--b", "window-squares", "--b-c", "1",
              "--checked")
    assert res.exit_code == 0
    assert res.output.startswith("segre(gap, window-squares(1)):")


def test_series_checked_pair_reports_mismatch(monkeypatch):
    real = cli.builtin_pair

    def wrong_predicate(*args):
        lang = real(*args)
        lang.predicate = lambda word: len(word) < 3
        return lang

    monkeypatch.setattr(cli, "builtin_pair", wrong_predicate)
    res = run("series", "segre", "--checked")
    assert res.exit_code == 1
    assert "automaton/predicate mismatch" in res.output


def test_series_segre_json():
    res = run("series", "segre", "--expand", "2,2,2", "--format", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["results"]["table"]["2,2,2"] == 9


def test_series_unknown_selector():
    res = run("series", "mystery")
    assert res.exit_code == 2
    assert "unknown selector" in res.output


def test_series_expand_cap():
    res = run("series", "gap", "--expand", "12,12")
    assert res.exit_code == 2
    assert "--unsafe" in res.output
    res = run("series", "gap", "--expand", "12,2", "--unsafe")
    assert res.exit_code == 0


def test_series_size_inputs_are_bounded():
    for args in (["poly-ring", "--c", "0"], ["window-squares", "--c", "-1"],
                 ["segre", "--a", "poly-ring", "--a-c", "0"],
                 ["segre", "--a", "mystery"]):
        res = run("series", *args)
        assert res.exit_code == 2, args
    for args in (["window-squares", "--c", "12"], ["segre", "--a-c", "11"],
                 ["concat", "--b", "window-squares", "--b-c", "11"]):
        res = run("series", *args)
        assert res.exit_code == 2, args
        assert "--unsafe" in res.output
    res = run("series", "poly-ring", "--c", "11", "--unsafe")
    assert res.exit_code == 0
    assert "[agrees]" in res.output


def test_series_window_squares_7_denominator():
    res = run("series", "window-squares", "--c", "7")
    assert res.exit_code == 0
    series = res.output.splitlines()[1]
    den = "1 - s - t - t*s - t*s^2 - t*s^3 - t*s^4 - t*s^5 - t*s^6 - t*s^7"
    flipped = "-1 + s + t + t*s + t*s^2 + t*s^3 + t*s^4 + t*s^5 + t*s^6 + t*s^7"
    assert series.endswith("/(%s)" % den) or series.endswith("/(%s)" % flipped)


def test_export_and_compare_reject_bad_size():
    res = run("export", "poly-ring", "--c", "0")
    assert res.exit_code == 2
    assert "need c >= 1" in res.output
    res = run("compare", "window-squares", "--c", "-1")
    assert res.exit_code == 2
    res = run("compare", "window-squares", "--c", "11", "--dmax", "1", "--nmax", "1")
    assert res.exit_code == 2
    assert "--unsafe" in res.output


def test_compare_gap_algebra_flags_cell():
    res = run("compare", "gap", "--conv", "algebra", "--dmax", "2", "--nmax", "2")
    assert res.exit_code == 0
    assert "d=2 n=2 language=9 oracle=10 MISMATCH" in res.output
    assert "all cells equal: False" in res.output


def test_compare_window_squares_algebra_flags_cell():
    res = run("compare", "window-squares", "--c", "1", "--conv", "algebra",
              "--dmax", "2", "--nmax", "1")
    assert res.exit_code == 0
    assert "d=2 n=1 language=2 oracle=3 MISMATCH" in res.output


def test_compare_prints_witness():
    res = run("compare", "gap", "--conv", "string-bounded", "--dmax", "3", "--nmax", "3")
    assert res.exit_code == 0
    assert res.output.splitlines()[-1] == (
        "witness d=3 n=3: [a1 tau a1 tau a1] and [a2 tau a1 a2 tau] both give x1*x2^2*x3^2*x4")
    res = run("compare", "gap", "--conv", "algebra", "--dmax", "2", "--nmax", "2",
              "--format", "json")
    data = json.loads(res.output)
    assert data["witness"] == "witness d=2 n=2: no word gives x1*x2*x3*x4"
    assert set(data["results"]) == {"family", "convention", "all_equal", "cells"}
    res = run("compare", "window-squares", "--c", "1", "--format", "json")
    assert json.loads(res.output)["witness"] is None


def test_compare_builds_the_witness_only_where_it_prints(monkeypatch):
    # csv never prints the witness, so it must not map the words of the
    # first unequal cell for one
    calls = []
    maps = cli.word_monomial_maps

    def counted(lang, fam, n, d, conv):
        calls.append((n, d))
        return maps(lang, fam, n, d, conv)

    monkeypatch.setattr(cli, "word_monomial_maps", counted)
    args = ("compare", "gap", "--dmax", "3", "--nmax", "3")
    witness = ("witness d=3 n=3: [a1 tau a1 tau a1] and [a2 tau a1 a2 tau]"
               " both give x1*x2^2*x3^2*x4")
    res = run(*args, "--format", "csv")
    assert res.exit_code == 0 and "witness" not in res.output
    assert res.output.splitlines()[-1] == "3,3,47,46,False"
    assert calls == []
    res = run(*args)
    assert res.exit_code == 0 and res.output.splitlines()[-1] == witness
    assert calls == [(3, 3)]
    res = run(*args, "--format", "json")
    assert res.exit_code == 0 and json.loads(res.output)["witness"] == witness
    assert calls == [(3, 3), (3, 3)]


def test_compare_strict_exit_codes():
    res = run("compare", "gap", "--conv", "algebra", "--dmax", "2",
              "--nmax", "2", "--strict")
    assert res.exit_code == 1
    res = run("compare", "window-squares", "--c", "1", "--conv",
              "string-bounded", "--dmax", "3", "--nmax", "3", "--strict")
    assert res.exit_code == 0
    assert "all cells equal: True" in res.output


def test_compare_cap_and_unsafe():
    res = run("compare", "gap", "--dmax", "11", "--nmax", "2")
    assert res.exit_code == 2
    res = run("compare", "window-squares", "--c", "0", "--dmax", "11",
              "--nmax", "2", "--unsafe")
    assert res.exit_code == 0


def test_compare_multiset_cap(monkeypatch):
    # every input at or under its cap, but the oracle's largest cell would
    # enumerate C(G + dmax - 1, dmax) multisets of the G window generators
    for args, msg in (
        (("gap", "--conv", "algebra"), "20 generators give 20030010 generator multisets"),
        (("window-squares", "--c", "3", "--conv", "string-bounded"),
         "40 generators give 8217822536 generator multisets"),
    ):
        res = run("compare", *args, "--dmax", "10", "--nmax", "10")
        assert res.exit_code == 2
        assert msg in res.output and "safety cap 100000; pass --unsafe" in res.output
    # the README command needs 12,376 and runs
    res = run("compare", "window-squares", "--c", "1", "--conv", "string-bounded",
              "--dmax", "6", "--nmax", "6", "--strict")
    assert res.exit_code == 0
    assert "all cells equal: True" in res.output
    # both sides of the cap, with a stub in place of the oracle: 12 generators
    # give 167,960 multisets of degree 9 and 75,582 of degree 8
    calls = []

    def stub(lang, fam, nmax, dmax, conv):
        calls.append((nmax, dmax))
        return {"family": repr(fam), "convention": conv, "all_equal": True, "cells": []}

    monkeypatch.setattr(cli, "compare_report", stub)
    res = run("compare", "poly-ring", "--c", "2", "--dmax", "9", "--nmax", "6")
    assert res.exit_code == 2
    assert "12 generators give 167960 generator multisets of degree 9" in res.output
    for args in (("--dmax", "8"), ("--dmax", "9", "--unsafe")):
        res = run("compare", "poly-ring", "--c", "2", "--nmax", "6", *args)
        assert res.exit_code == 0
    assert calls == [(6, 8), (6, 9)]


def test_compare_csv():
    res = run("compare", "gap", "--conv", "algebra", "--dmax", "2",
              "--nmax", "2", "--format", "csv")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert lines[0] == "d,n,language,oracle,equal"
    assert "2,2,9,10,False" in lines


def test_toric_gens():
    res = run("toric", "gens", "--dmax", "8")
    assert res.exit_code == 0
    assert "g2" in res.output and "g()" in res.output and "g(1)" in res.output
    assert "census by degree: {2: 1, 4: 1, 5: 1, 6: 2, 7: 3, 8: 5}" in res.output
    assert "all kernel+structure checks: True" in res.output
    res = run("toric", "gens", "--dmax", "11")
    assert res.exit_code == 2
    assert "--unsafe" in res.output
    res = run("toric", "gens", "--dmax", "11", "--unsafe")
    assert res.exit_code == 0
    assert "all kernel+structure checks: True" in res.output


def test_toric_fibers_target():
    res = run("toric", "fibers", "--map", "gap", "--n", "3",
              "--target", "x1*x2*x3*x4")
    assert res.exit_code == 0
    assert "fiber 2, components 1" in res.output
    assert "0 disconnected fiber(s)" in res.output


def test_toric_fibers_target_drops_zero_exponents():
    # x1^0 names no factor: the target, and so its vertex span, starts at x2
    assert cli.parse_x_monomial("x1^0*x2^2", 4) == {2: 2}
    for target, shown in (("x1^0*x2^2", "x2^2"), ("x1^0", "1")):
        res = run("toric", "fibers", "--map", "window-squares", "--c", "1", "--n", "3",
                  "--target", target, "--format", "json")
        assert res.exit_code == 0
        assert json.loads(res.output)["results"]["target"] == shown


def test_toric_fibers_exclusion_disconnects():
    base_target = "x1*x2*x3^2*x5^2*x6*x7"
    res = run("toric", "fibers", "--map", "gap", "--n", "7",
              "--target", base_target)
    assert res.exit_code == 0
    assert "fiber 2, components 1" in res.output
    res = run("toric", "fibers", "--map", "gap", "--n", "7",
              "--target", base_target, "--exclude", "g()")
    assert res.exit_code == 0
    assert "DISCONNECTED" in res.output
    assert "1 disconnected fiber(s)" in res.output


def test_toric_fibers_degree_sweep():
    res = run("toric", "fibers", "--map", "window-squares", "--c", "1",
              "--n", "4", "--degree", "2")
    assert res.exit_code == 0
    assert "0 disconnected fiber(s)" in res.output
    for c, msg in (("-1", "must not be negative"), ("11", "--unsafe")):
        res = run("toric", "fibers", "--map", "window-squares", "--c", c,
                  "--n", "4", "--degree", "2")
        assert res.exit_code == 2
        assert msg in res.output


def test_toric_fibers_target_moves_reach_its_degree():
    # the image of g(1,2,2,2), of edge degree 11: its fiber is connected
    # only by a move of degree 11, past the safety cap 10
    target = "x1*x2*x3^2*x5^2*x7^2*x8^2*x10^2*x11^2*x13^2*x14^2*x16^2*x17*x18"
    res = run("toric", "fibers", "--map", "gap", "--n", "17", "--unsafe", "--target", target)
    assert res.exit_code == 0
    assert "fiber 2, components 1" in res.output
    assert "0 disconnected fiber(s)" in res.output


def test_toric_fibers_target_degree_is_capped():
    # x-degree 48 is edge degree 24, far past the safety cap
    target = "*".join("x%d^4" % v for v in range(1, 13))
    res = run("toric", "fibers", "--map", "window-squares", "--c", "10",
              "--n", "10", "--target", target)
    assert res.exit_code == 2
    assert "target degree=24" in res.output and "--unsafe" in res.output
    # every input at or under its cap, but 110 window edges make about 10^14
    # edge multisets of degree 10
    target = "*".join("x%d^2" % v for v in range(1, 11))
    res = run("toric", "fibers", "--map", "window-squares", "--c", "10",
              "--n", "10", "--target", target)
    assert res.exit_code == 2
    assert "106395830418878 edge multisets" in res.output and "--unsafe" in res.output


def test_toric_reduce():
    res = run("toric", "reduce", "--binomial",
              "x[1,1]*x[2,2] - x[1,2]^2", "--c", "1", "--n", "4")
    assert res.exit_code == 0
    assert "reduced to zero: True" in res.output
    # the gens move set grows like Fibonacci in the binomial's degree
    res = run("toric", "reduce", "--moves", "gens", "--binomial",
              "x[1,2]^15*x[3,4]^15 - x[1,3]^15*x[2,4]^15")
    assert res.exit_code == 2
    assert "binomial degree=30" in res.output and "--unsafe" in res.output
    res = run("toric", "reduce", "--binomial", "x[1,2] - x[1,3]")
    assert res.exit_code == 2
    assert "not a kernel binomial" in res.output
    # no move set, no window: any edge x[i,j] with 1 <= i <= j may appear
    res = run("toric", "reduce", "--moves", "none", "--binomial",
              "x[1,1]*x[2,2] - x[1,2]^2")
    assert res.exit_code == 0
    assert "reduced to zero: False" in res.output
    # --n is the window the quadrics come from, and each move acts through
    # its shifts along h: window 1 of window-squares(1) has no quadric, the
    # quadric of window 2 reduces its shift by 4, and the gens, which no
    # window bounds, reduce g2 shifted by 10
    for args, zero in ((["x[1,1]*x[2,2] - x[1,2]^2", "--c", "1", "--n", "1"], False),
                       (["x[5,5]*x[6,6] - x[5,6]^2", "--c", "1", "--n", "2"], True),
                       (["x[11,12]*x[13,14] - x[11,13]*x[12,14]", "--moves", "gens"], True)):
        res = run("toric", "reduce", "--binomial", *args)
        assert res.exit_code == 0
        assert "reduced to zero: %s" % zero in res.output


def test_options_a_family_reads_are_taken():
    for args in (["toric", "fibers", "--map", "gap", "--moves", "quadrics", "--c", "1",
                  "--n", "4", "--degree", "2"],
                 ["toric", "fibers", "--map", "window-squares", "--moves", "gens", "--c", "1",
                  "--n", "3", "--degree", "2"],
                 ["series", "segre", "--a", "window-squares", "--a-c", "1", "--b", "poly-ring"],
                 ["compare", "poly-ring", "--c", "1", "--dmax", "2", "--nmax", "2"]):
        assert run(*args).exit_code == 0, args


def test_toric_reduce_caps_the_move_placements(monkeypatch):
    # g2 and g2 shifted by 10 span x1..x14: g2 has 11 shifts within it and
    # g() 8, as shifts_within counts them
    text = "x[1,2]*x[3,4]*x[11,12]*x[13,14] - x[1,3]*x[2,4]*x[11,13]*x[12,14]"
    moves = [g2(), GenElement.of(()).binomial()]
    assert sum(len(shifts_within(b, 1, 14)) for b in moves) == 19
    for cap, unsafe, code in ((19, [], 0), (18, [], 2), (18, ["--unsafe"], 0)):
        monkeypatch.setattr(cli, "REDUCE_PLACEMENTS_CAP", cap)
        res = run("toric", "reduce", "--moves", "gens", "--binomial", text, *unsafe)
        assert res.exit_code == code
        if code:
            assert res.output.splitlines()[-1] == (
                "Error: 2 moves give 19 placements on x1..x14, over the safety cap 18;"
                " pass --unsafe to override")
        else:
            assert "reduced to zero: True" in res.output


def test_toric_inputs_name_real_variables():
    # x[2,1] would pass for x[1,2], and a zero index names no variable
    for text, bad in (("x[2,1] - x[1,2]", "'x[2,1]'"),
                      ("x[0,0]*x[1,1] - x[0,1]^2", "'x[0,0]'")):
        res = run("toric", "reduce", "--binomial", text, "--c", "1", "--n", "4")
        assert res.exit_code == 2
        assert bad in res.output and "1 <= i <= j" in res.output
    res = run("toric", "fibers", "--map", "gap", "--n", "3", "--target", "x0*x1")
    assert res.exit_code == 2
    assert "'x0'" in res.output and "at least 1" in res.output


@pytest.mark.parametrize("command, message", [
    ("series gap --expand 3,x", "bad --expand '3,x'"),
    ("series gap --expand 3", "--expand needs 2 bounds for gap"),
    ("series gap --format csv", "csv output needs --expand"),
    ("toric fibers --map gap --n 3", "need --target or --degree"),
    ("toric fibers --map gap --n 5 --degree 3 --target x1*x2",
     "--target and --degree cannot both be given"),
    ("toric reduce --moves nope --binomial 'x[1,2]*x[3,4] - x[1,3]*x[2,4]'",
     "unknown move set 'nope'"),
    ("toric reduce --binomial 'x[1,2]'", "binomial must look like 'mono - mono'"),
    ("toric reduce --binomial 'x[1,2]*y1 - x[1,2]'", "bad edge monomial 'y1'"),
    ("toric fibers --map gap --n 3 --target 'x[1,2]'", "bad x-monomial 'x[1,2]'"),
    ("compare gap --nmax 0 --strict", "--nmax=0 must be at least 1: windows start at 1"),
    ("compare gap --nmax -2", "--nmax=-2 must be at least 1: windows start at 1"),
    ("toric fibers --map gap --n 0 --degree 2", "--n=0 must be at least 1: windows start at 1"),
    ("toric fibers --map gap --n 0 --target x1*x2", "--n=0 must be at least 1: windows start at 1"),
    ("toric reduce --binomial 'x[1,1]*x[2,2] - x[1,2]^2' --c 1 --n 0",
     "--n=0 must be at least 1: windows start at 1"),
    # every toric variable lies in the window: the gap edges of window 3
    # reach x5; a reduced binomial takes only edges of its moves' map, and
    # the quadrics, which shift along it, need it to fit in the n + c
    # vertices of window n
    ("toric fibers --map gap --n 3 --target x1*x100000",
     "x-variable 'x100000' needs an index of at least 1 and at most 5"),
    ("toric reduce --binomial 'x[1,100000]*x[2,3] - x[1,3]*x[2,100000]' --c 1 --n 4",
     "edge variable 'x[1,100000]' needs 1 <= i <= j in x[i,j] and j - i in [0, 1]"),
    ("toric reduce --moves gens --binomial 'x[1,1]*x[2,2] - x[1,2]^2'",
     "edge variable 'x[1,1]' needs 1 <= i <= j in x[i,j] and j - i in [1, 2]"),
    ("toric reduce --binomial 'x[1,1]*x[2,2]*x[99999,99999]*x[100000,100000]"
     " - x[1,2]^2*x[99999,100000]^2' --c 1 --n 4",
     "binomial on x1..x100000 exceeds the 5 vertices of window 4"),

    # an option the selector, map or move set never reads is refused, even
    # at its default
    ("compare gap --c 5 --dmax 3 --nmax 3 --format json", "gap takes no --c"),
    ("compare gap --c 2", "gap takes no --c"),
    ("series gap --c 7", "gap takes no --c"),
    ("export segre --c 4", "segre takes no --c"),
    ("series concat --c 2", "concat takes no --c"),
    ("series poly-ring --a-c 5", "poly-ring takes no --a-c"),
    ("series window-squares --a gap", "window-squares takes no --a"),
    ("export gap --b poly-ring", "gap takes no --b"),
    ("series gap --b-c 1", "gap takes no --b-c"),
    ("toric fibers --map gap --c 9 --n 3 --degree 2 --format json",
     "map gap with move set gens takes no --c"),
    ("toric fibers --map gap --moves none --c 1 --n 3 --degree 2",
     "map gap with move set none takes no --c"),
    ("toric reduce --moves gens --c 9 --binomial 'x[1,2]*x[3,4] - x[1,3]*x[2,4]'",
     "move set gens takes no --c"),
    ("toric reduce --moves none --c 2 --binomial 'x[1,2]*x[3,4] - x[1,3]*x[2,4]'",
     "move set none takes no --c"),
    # only the quadrics come from a window
    ("toric reduce --moves gens --n 4 --binomial 'x[1,2]*x[3,4] - x[1,3]*x[2,4]'",
     "move set gens takes no --n"),
    ("toric reduce --moves none --n 8 --binomial 'x[1,2]*x[3,4] - x[1,3]*x[2,4]'",
     "move set none takes no --n"),
    # a pair reads a factor's size only when that factor reads c
    ("series segre --a gap --a-c 5", "segre takes no --a-c"),
    ("export concat --b gap --b-c 3", "concat takes no --b-c"),
    ("series concat --a segre --a-c 2", "unknown language 'segre'"),
    # each move is tried at every shift within the binomial's vertex span
    ("toric reduce --moves gens --binomial 'x[1,2]*x[3,4]*x[99997,99998]*x[99999,100000]"
     " - x[1,3]*x[2,4]*x[99997,99999]*x[99998,100000]'",
     "2 moves give 199991 placements on x1..x100000, over the safety cap 100000;"
     " pass --unsafe to override"),
])
def test_malformed_input_is_a_usage_error(command, message):
    res = run(*shlex.split(command))
    assert res.exit_code == 2
    assert "Error: %s" % message in res.output


NEGATIVE = "must not be negative"
WINDOW = "must be at least 1: windows start at 1"


SIZE_CASES = [
    ("series poly-ring --c -1", "--c", NEGATIVE),
    ("series segre --a-c -1", "--a-c", NEGATIVE),
    ("series concat --b-c -1", "--b-c", NEGATIVE),
    ("series gap --expand 2,-1", "--expand", NEGATIVE),
    ("export window-squares --c -1", "--c", NEGATIVE),
    ("export segre --a-c -1", "--a-c", NEGATIVE),
    ("export concat --b-c -1", "--b-c", NEGATIVE),
    ("compare window-squares --c -1", "--c", NEGATIVE),
    ("compare gap --dmax -1", "--dmax", NEGATIVE),
    ("compare gap --nmax -1", "--nmax", WINDOW),
    ("toric gens --dmax -1", "--dmax", NEGATIVE),
    ("toric fibers --map window-squares --c -1 --n 3 --degree 2", "--c", NEGATIVE),
    ("toric fibers --map gap --n -1 --degree 2", "--n", WINDOW),
    ("toric fibers --map gap --n 3 --degree -1", "--degree", NEGATIVE),
    ("toric reduce --binomial 'x[1,1]*x[2,2] - x[1,2]^2' --c -1", "--c", NEGATIVE),
    ("toric reduce --binomial 'x[1,1]*x[2,2] - x[1,2]^2' --n -1", "--n", WINDOW),
    # degree-stats sweeps from window 0, and keeps its own limits
    ("toric degree-stats --nmin -1", "--nmin", NEGATIVE),
    ("toric degree-stats --nmax -1", "--nmax", NEGATIVE),
]


def int_options(group, path=""):
    """(command path, option) for every int option of the group's commands."""
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from int_options(command, path + name + " ")
        else:
            yield from ((path + name, p.opts[0]) for p in command.params if p.type is click.INT)


@pytest.mark.parametrize("command, option, rule", SIZE_CASES)
def test_every_size_option_refuses_minus_one(command, option, rule):
    res = run(*shlex.split(command))
    assert res.exit_code == 2
    assert res.output.splitlines()[-1] == "Error: %s=-1 %s" % (option, rule)
    # a size option added later needs a case here
    assert [(path, flag) for path, flag in int_options(main) if not any(
        case.startswith(path + " ") and o == flag for case, o, _ in SIZE_CASES)] == []


def test_json_params_hold_the_options_read():
    gens = "x[1,2]*x[3,4] - x[1,3]*x[2,4]"
    fibers = {"map": "gap", "n": 4, "degree": 2, "target": None, "exclude": []}
    for args, params in (
            (["series", "segre", "--a", "gap", "--b", "window-squares", "--b-c", "2"],
             {"selector": "segre", "a": "gap", "b": "window-squares", "b_c": 2}),
            (["series", "gap"], {"selector": "gap"}),
            (["compare", "gap", "--dmax", "2", "--nmax", "2"],
             {"family": "gap", "conv": "string-bounded", "dmax": 2, "nmax": 2}),
            (["compare", "poly-ring", "--c", "1", "--dmax", "2", "--nmax", "2"],
             {"family": "poly-ring", "c": 1, "conv": "string-bounded", "dmax": 2, "nmax": 2}),
            (["toric", "fibers", "--map", "gap", "--n", "4", "--degree", "2"],
             {**fibers, "moves": "gens"}),
            (["toric", "fibers", "--map", "gap", "--moves", "none", "--n", "4", "--degree", "2"],
             {**fibers, "moves": "none"}),
            (["toric", "fibers", "--map", "gap", "--moves", "quadrics", "--c", "1", "--n", "4",
              "--degree", "2"], {**fibers, "moves": "quadrics", "c": 1}),
            (["toric", "reduce", "--moves", "gens", "--binomial", gens],
             {"binomial": gens, "moves": "gens"}),
            (["toric", "reduce", "--moves", "none", "--binomial", gens],
             {"binomial": gens, "moves": "none"}),
            (["toric", "reduce", "--binomial", "x[1,1]*x[2,2] - x[1,2]^2", "--c", "1"],
             {"binomial": "x[1,1]*x[2,2] - x[1,2]^2", "moves": "quadrics", "c": 1, "n": 8})):
        res = run(*args, "--format", "json")
        assert res.exit_code == 0, args
        assert json.loads(res.output)["params"] == params, args


def test_toric_degree_stats():
    res = run("toric", "degree-stats", "--nmin", "6", "--nmax", "13")
    assert res.exit_code == 0
    assert "n=7   computed=4   formula=4   ok" in res.output
    assert "n=13  computed=8   formula=8   ok" in res.output
    assert "MISMATCH" not in res.output
    assert "formula disagrees" not in res.output


def test_toric_degree_stats_is_bounded(monkeypatch):
    for args, msg in ((("--nmax", "50"), "--nmax=50 exceeds the limit 40"),
                      (("--nmax", "41"), "--nmax=41 exceeds the limit 40"),
                      (("--nmin", "-1"), "--nmin=-1 must not be negative"),
                      (("--nmin", "-3", "--nmax", "-1"), "must not be negative")):
        res = run("toric", "degree-stats", *args)
        assert res.exit_code == 2
        assert msg in res.output
    for nmin, nmax in (("41", "40"), ("5", "2")):
        res = run("toric", "degree-stats", "--nmin", nmin, "--nmax", nmax)
        assert res.exit_code == 2
        assert "--nmin=%s is greater than --nmax=%s" % (nmin, nmax) in res.output
    res = run("toric", "degree-stats", "--nmin", "5", "--nmax", "5")
    assert res.exit_code == 0
    assert "n=5   computed=2   formula=2   ok" in res.output
    # the limit itself is allowed; a stub stands in for the 1.0 s computation
    calls = []
    monkeypatch.setattr(cli, "gen_degree_stats", lambda *args: calls.append(args) or [])
    res = run("toric", "degree-stats", "--nmin", "40", "--nmax", "40")
    assert res.exit_code == 0
    assert calls == [(40, 40)]


@pytest.mark.parametrize("args", [
    ("series", "ideal-gap"),
    ("series", "gap", "--expand", "2,2"),
    ("compare", "gap", "--dmax", "3", "--nmax", "3"),
    ("toric", "gens", "--dmax", "5"),
    ("toric", "fibers", "--map", "gap", "--n", "4", "--degree", "2"),
    ("toric", "reduce", "--binomial", "x[1,1]*x[2,2] - x[1,2]^2", "--c", "1", "--n", "4"),
    ("toric", "degree-stats", "--nmin", "6", "--nmax", "8"),
])
def test_json_envelope(args):
    res = run(*args, "--format", "json")
    assert res.exit_code == 0
    data = json.loads(res.output)
    extra = {"witness"} if args[0] == "compare" else set()
    assert set(data) == {"command", "params", "results"} | extra
    assert data["command"] == (" ".join(args[:2]) if args[0] == "toric" else args[0])


def test_export_dot():
    res = run("export", "gap")
    assert res.exit_code == 0
    assert res.output.startswith("digraph gap {")
    assert "doublecircle" in res.output
    assert res.output == run("export", "gap").output
    res = run("export", "window-squares", "--c", "2", "--what", "alt-dfa")
    assert res.exit_code == 0
    assert res.output.startswith("digraph")
    res = run("export", "gap", "--what", "alt-dfa")
    assert res.exit_code == 2
    assert "has no alt-dfa" in res.output


def test_export_caps_sizes():
    # export takes no --unsafe, so the cap holds and the message offers none
    for args in (["poly-ring", "--c", "3000"],
                 ["segre", "--a", "poly-ring", "--a-c", "60", "--b", "poly-ring", "--b-c", "60"],
                 ["concat", "--b-c", "11"]):
        res = run("export", *args)
        assert res.exit_code == 2, args
        assert "exceeds the safety cap 10" in res.output
        assert "--unsafe" not in res.output
    assert run("export", "poly-ring", "--c", "10").exit_code == 0


def readme_commands():
    """The argument lists of the README's command-line block, without any
    output redirect."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == ["equihilb"]:
            yield words[1:words.index(">")] if ">" in words else words[1:]


def test_readme_commands_run():
    commands = list(readme_commands())
    assert len(commands) == 12
    for args in commands:
        res = run(*args)
        assert res.exit_code == 0, (args, res.output)
