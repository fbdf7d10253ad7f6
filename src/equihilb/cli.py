"""Command line interface: series, compare, toric, export."""

import collections
import json
import math
import re
import sys

from .exactalg import rat_equal, ratfun_to_text, series_expand
from .langlib import (
    builtin_pair,
    builtin_single,
    ideal_gap_series,
)
from .monoracle import (
    CONVENTIONS,
    GeneratorFamily,
    compare_report,
    edge_spans,
    mono_str,
    window_edges,
    word_monomial_maps,
)
from .toric import (
    Binomial,
    build_gen_family,
    binomial_str,
    fiber_report,
    g2,
    gen_degree_stats,
    image_targets,
    kernel_test,
    quadric_family,
    reduce_binomial,
)

# click loads after the package modules, so it reuses memory that loading
# them leaves free; the other order peaks up to 1 MB higher
import click  # noqa: E402
from click.core import ParameterSource  # noqa: E402

SAFE_CAP = 10
# toric degree-stats builds the kernel family once, up to span nmax + 1, and
# it grows exponentially: 23,832 elements and about 1.4 s at span 41
DEGREE_STATS_MAX = 40
# toric fibers enumerates the window's edge multisets of the target degree;
# inputs each under SAFE_CAP can still make about 10^14 of them
FIBER_MULTISETS_CAP = 10_000
# compare's oracle enumerates the generator multisets of degree dmax in
# window nmax; dmax = nmax = 10 makes about 2 * 10^7 of them for gap
COMPARE_MULTISETS_CAP = 100_000
SINGLES = ("poly-ring", "window-squares", "gap")
PAIRS = ("segre", "concat")


def _cap(ctx, value, what):
    if value is None:
        return value
    if value < 0:
        raise click.UsageError("%s=%d must not be negative" % (what, value))
    if value > SAFE_CAP and not ctx.params.get("unsafe"):
        hint = "; pass --unsafe to override" if "unsafe" in ctx.params else ""
        raise click.UsageError(
            "%s=%d exceeds the safety cap %d%s" % (what, value, SAFE_CAP, hint)
        )
    return value


def _cap_sizes(ctx, c, a_c, b_c):
    for value, what in ((c, "--c"), (a_c, "--a-c"), (b_c, "--b-c")):
        _cap(ctx, value, what)


def _cap_multisets(ctx, items, noun, degree, cap):
    """Refuse, unless --unsafe, over cap multisets of the degree drawn from
    items things, each a noun; the multisets take the noun's last word."""
    multisets = math.comb(max(items + degree - 1, 0), degree)
    if multisets > cap and not ctx.params["unsafe"]:
        raise click.UsageError(
            "%d %ss give %d %s multisets of degree %d, over the"
            " safety cap %d; pass --unsafe to override"
            % (items, noun, multisets, noun.split()[-1], degree, cap)
        )


def _emit(fmt, command, params, results, lines, **extra):
    """Print the text lines, or for json one object: the command, its params,
    its results and any extra keys."""
    if fmt == "json":
        envelope = {"command": command, "params": params, "results": results, **extra}
        click.echo(json.dumps(envelope, indent=2, sort_keys=True))
    else:
        for line in lines:
            click.echo(line)


@click.group()
def main():
    """Equivariant Hilbert series of shift-invariant monomial algebras."""


def _build_language(selector, c, a, a_c, b, b_c, checked):
    if selector not in SINGLES + PAIRS:
        raise click.UsageError("unknown selector %r" % selector)
    try:
        if selector in PAIRS:
            lang = builtin_pair(selector, a, a_c, b, b_c)
        else:
            lang = builtin_single(selector, c)
    except ValueError as e:
        raise click.UsageError(str(e))
    if checked:
        ok, bad, _ = lang.check(6)
        if not ok:
            raise click.ClickException("automaton/predicate mismatch at %r" % (bad,))
    return lang


@main.command()
@click.argument("selector")
@click.option("--c", type=int, default=None, help="bandwidth for poly-ring / window-squares")
@click.option("--a", default="poly-ring", help="first factor for segre/concat")
@click.option("--a-c", type=int, default=1)
@click.option("--b", default="poly-ring", help="second factor for segre/concat")
@click.option("--b-c", type=int, default=1)
@click.option("--expand", default=None, help="comma-separated coefficient bounds")
@click.option("--checked", is_flag=True, help="verify predicate against automaton first")
@click.option("--unsafe", is_flag=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
@click.pass_context
def series(ctx, selector, c, a, a_c, b, b_c, expand, checked, unsafe, fmt):
    """Print the equivariant Hilbert series of a built-in language."""
    if selector == "ideal-gap":
        for name in ("c", "a", "a_c", "b", "b_c", "expand", "checked"):
            if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
                raise click.UsageError("ideal-gap takes no --%s" % name.replace("_", "-"))
        if fmt == "csv":
            raise click.UsageError("csv output needs --expand, which ideal-gap does not take")
        computed, stated = ideal_gap_series()
        eq = rat_equal(computed, stated)
        lines = [
            "ideal-gap (ambient minus algebra):",
            "  computed: %s" % ratfun_to_text(computed),
            "  stated:   %s" % ratfun_to_text(stated),
            "  rat_equal: %s" % eq,
        ]
        if not eq:
            lines.append("  MISMATCH between computed identity and stated form")
        results = {
            "computed": ratfun_to_text(computed), "stated": ratfun_to_text(stated), "equal": eq
        }
        _emit(fmt, "series", {"selector": selector}, results, lines)
        return
    _cap_sizes(ctx, c, a_c, b_c)
    lang = _build_language(selector, c, a, a_c, b, b_c, checked)
    ser = lang.series()
    results = {"series": ratfun_to_text(ser)}
    lines = ["%s:" % lang.name, "  series: %s" % ratfun_to_text(ser)]
    forms = list(lang.reference_series)
    alt = lang.alt_series()
    if alt is not None:
        forms.append(("alt automaton", alt))
    for label, ref in forms:
        eq = rat_equal(lang.transfer(), ref)
        results[label] = {"value": ratfun_to_text(ref), "matches_transfer": eq}
        lines.append("  %s (transfer): %s  [%s]" % (label, ratfun_to_text(ref), "agrees" if eq else "DIFFERS"))
    if lang.notes:
        lines.append("  note: %s" % lang.notes)
    if expand:
        try:
            bounds = tuple(int(x) for x in expand.split(","))
        except ValueError:
            raise click.UsageError("bad --expand %r" % expand)
        if len(bounds) != len(lang.vars):
            raise click.UsageError(
                "--expand needs %d bounds for %s" % (len(lang.vars), lang.name)
            )
        for bound in bounds:
            _cap(ctx, bound, "--expand")
        axes = ("d", "n") if len(bounds) == 2 else ("d", "m", "n")
        table = series_expand(ser, bounds, axes=axes)
        results["table"] = {
            ",".join(map(str, k)): v for k, v in sorted(table.data.items())
        }
        if fmt == "csv":
            click.echo(table.to_csv(), nl=False)
            return
        lines.append("  coefficients (bounds %s):" % (bounds,))
        for k in table.keys_sorted():
            lines.append("    %s: %d" % (",".join(map(str, k)), table[k]))
    elif fmt == "csv":
        raise click.UsageError("csv output needs --expand")
    _emit(fmt, "series", {"selector": selector, "c": c}, results, lines)


def _witness(lang, fam, report, conv):
    """One line on the first unequal cell: a colliding word pair, else the
    first oracle monomial no word gives, else the first word image the
    oracle lacks; None when every cell is equal."""
    cell = next((c for c in report["cells"] if not c["equal"]), None)
    if cell is None:
        return None
    maps = word_monomial_maps(lang, fam, cell["n"], cell["d"], conv)
    if maps["collision"] is not None:
        word_a, word_b, image = maps["collision"]
        what = "[%s] and [%s] both give %s" % (
            " ".join(word_a), " ".join(word_b), mono_str(dict(image)))
    elif maps["missing"]:
        what = "no word gives %s" % mono_str(dict(maps["missing"][0]))
    else:
        what = "no oracle monomial is %s" % mono_str(dict(maps["extra"][0]))
    return "witness d=%d n=%d: %s" % (cell["d"], cell["n"], what)


@main.command()
@click.argument("family", type=click.Choice(SINGLES))
@click.option("--c", type=int, default=None)
@click.option("--conv", type=click.Choice(CONVENTIONS), default="string-bounded")
@click.option("--dmax", type=int, default=4)
@click.option("--nmax", type=int, default=4)
@click.option("--strict", is_flag=True, help="exit 1 on any mismatch")
@click.option("--unsafe", is_flag=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
@click.pass_context
def compare(ctx, family, c, conv, dmax, nmax, strict, unsafe, fmt):
    """Compare language counts against the brute-force monomial oracle."""
    _cap(ctx, c, "--c")
    _cap(ctx, dmax, "--dmax")
    _cap(ctx, nmax, "--nmax")
    lang = _build_language(family, c, None, None, None, None, False)
    fam = GeneratorFamily(family, 2 if c is None else c)
    _cap_multisets(ctx, len(fam.generators(nmax)), "generator", dmax, COMPARE_MULTISETS_CAP)
    report = compare_report(lang, fam, nmax, dmax, conv)
    lines = ["%s vs %r, convention %s:" % (lang.name, fam, conv)]
    for cell in report["cells"]:
        mark = "ok" if cell["equal"] else "MISMATCH"
        lines.append(
            "  d=%d n=%d language=%d oracle=%d %s"
            % (cell["d"], cell["n"], cell["language"], cell["oracle"], mark)
        )
    lines.append("all cells equal: %s" % report["all_equal"])
    if fmt == "csv":
        rows = ["d,n,language,oracle,equal"]
        for cell in report["cells"]:
            rows.append(
                "%d,%d,%d,%d,%s"
                % (cell["d"], cell["n"], cell["language"], cell["oracle"], cell["equal"])
            )
        click.echo("\n".join(rows))
    else:
        witness = _witness(lang, fam, report, conv)
        if witness is not None:
            lines.append(witness)
        params = {"family": family, "c": c, "conv": conv, "dmax": dmax, "nmax": nmax}
        _emit(fmt, "compare", params, report, lines, witness=witness)
    if strict and not report["all_equal"]:
        ctx.exit(1)


@main.group()
def toric():
    """Kernel families, fiber graphs, and binomial reduction."""


@toric.command()
@click.option("--dmax", type=int, default=8)
@click.option("--unsafe", is_flag=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.pass_context
def gens(ctx, dmax, unsafe, fmt):
    """List the kernel generator family up to a degree."""
    _cap(ctx, dmax, "--dmax")
    items = [("g2", g2(), True)] + [
        (g.label(), g.binomial(), g.structure_check()) for g in build_gen_family(max_degree=dmax)
    ]
    rows = [
        {
            "label": label,
            "degree": b.degree(),
            "span": b.max_vertex(),
            "binomial": binomial_str(b),
            "kernel": kernel_test(b),
            "structure": ok,
        }
        for label, b, ok in items
    ]
    census = collections.Counter(r["degree"] for r in rows)
    ok_all = all(r["kernel"] and r["structure"] for r in rows)
    lines = ["%-12s deg=%-2d span=%-2d %s" % (r["label"], r["degree"], r["span"], r["binomial"])
             for r in rows]
    lines.append("census by degree: %s" % {d: census[d] for d in sorted(census)})
    lines.append("all kernel+structure checks: %s" % ok_all)
    results = {"elements": rows, "census": {str(d): census[d] for d in sorted(census)}}
    _emit(fmt, "toric gens", {"dmax": dmax}, results, lines)


MONO_RE = re.compile(r"x\[(\d+),(\d+)\](?:\^(\d+))?|x(\d+)(?:\^(\d+))?")


def parse_edge_monomial(text):
    out = {}
    text = text.strip()
    if text == "1":
        return out
    for part in text.split("*"):
        part = part.strip()
        m = MONO_RE.fullmatch(part)
        if not m or m.group(4) is not None:
            raise click.UsageError("bad edge monomial %r" % part)
        e = (int(m.group(1)), int(m.group(2)))
        if not 1 <= e[0] <= e[1]:
            raise click.UsageError("edge variable %r needs 1 <= i <= j in x[i,j]" % part)
        out[e] = out.get(e, 0) + int(m.group(3) or 1)
    return out


def parse_x_monomial(text):
    out = {}
    for part in text.strip().split("*"):
        part = part.strip()
        m = MONO_RE.fullmatch(part)
        if not m or m.group(4) is None:
            raise click.UsageError("bad x-monomial %r" % part)
        v = int(m.group(4))
        if v < 1:
            raise click.UsageError("x-variable %r needs an index of at least 1" % part)
        out[v] = out.get(v, 0) + int(m.group(5) or 1)
    return {v: e for v, e in out.items() if e}


def parse_binomial(text):
    depth_split = text.split(" - ")
    if len(depth_split) != 2:
        raise click.UsageError("binomial must look like 'mono - mono'")
    return Binomial(parse_edge_monomial(depth_split[0]), parse_edge_monomial(depth_split[1]))


def _move_set(name, c, n, degree):
    if name == "none":
        return []
    if name == "quadrics":
        return [("q%d" % i, b) for i, b in enumerate(quadric_family(c, n))]
    if name == "gens":
        fam = build_gen_family(max_degree=degree)
        return [("g2", g2())] + [(g.label(), g.binomial()) for g in fam]
    raise click.UsageError("unknown move set %r" % name)


@toric.command()
@click.option("--map", "kind", type=click.Choice(["gap", "window-squares"]), default="gap")
@click.option("--c", type=int, default=2)
@click.option("--n", type=int, required=True)
@click.option("--degree", type=int, default=None, help="scan all targets of this degree")
@click.option("--target", default=None, help="explicit x-monomial target")
@click.option("--moves", default=None, help="gens | quadrics | none")
@click.option("--exclude", multiple=True, help="move labels to drop, e.g. g()")
@click.option("--unsafe", is_flag=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.pass_context
def fibers(ctx, kind, c, n, degree, target, moves, exclude, unsafe, fmt):
    """Fiber-graph connectivity reports."""
    _cap(ctx, c, "--c")
    _cap(ctx, n, "--n")
    _cap(ctx, degree, "--degree")
    if moves is None:
        moves = "gens" if kind == "gap" else "quadrics"
    if target is None and degree is None:
        raise click.UsageError("need --target or --degree")
    edge_degree = degree
    if target is not None:
        tgt = parse_x_monomial(target)
        edge_degree = _cap(ctx, (sum(tgt.values()) + 1) // 2, "target degree")
    spans = edge_spans(kind, c)
    _cap_multisets(
        ctx, len(window_edges(spans, n)), "window edge", edge_degree, FIBER_MULTISETS_CAP
    )
    move_list = _move_set(moves, c, n, edge_degree)
    if exclude:
        move_list = [(lbl, b) for lbl, b in move_list if lbl not in exclude]
    targets = [tgt] if target is not None else image_targets(spans, n, degree)
    reports = [fiber_report(kind, c, n, t, move_list, use_shifts=moves == "gens") for t in targets]
    disconnected = sum(not rep["connected"] for rep in reports)
    lines = []
    for rep in reports:
        if target is not None or not rep["connected"]:
            lines.append(
                "target %s: fiber %d, components %d%s"
                % (
                    rep["target"],
                    rep["fiber_size"],
                    len(rep["components"]),
                    "" if rep["connected"] else "  DISCONNECTED",
                )
            )
            for comp in rep["components"]:
                lines.append("    [%s]" % ", ".join(comp))
    lines.append(
        "%d target(s), %d disconnected fiber(s)" % (len(targets), disconnected)
    )
    params = {"map": kind, "c": c, "n": n, "degree": degree, "target": target,
              "moves": moves, "exclude": list(exclude)}
    _emit(fmt, "toric fibers", params, reports if target is None else reports[0], lines)


@toric.command()
@click.option("--binomial", "binomial_text", required=True)
@click.option("--moves", default="quadrics")
@click.option("--c", type=int, default=2)
@click.option("--n", type=int, default=8)
@click.option("--unsafe", is_flag=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.pass_context
def reduce(ctx, binomial_text, moves, c, n, unsafe, fmt):
    """Reduce a kernel binomial by a move set; report zero or the remainder."""
    _cap(ctx, c, "--c")
    _cap(ctx, n, "--n")
    h = parse_binomial(binomial_text)
    if not kernel_test(h):
        raise click.UsageError("not a kernel binomial: %s" % binomial_str(h))
    move_list = _move_set(moves, c, n, _cap(ctx, h.degree(), "binomial degree"))
    out = reduce_binomial(h, move_list)
    lines = [
        "input:     %s" % binomial_str(h),
        "remainder: %s" % binomial_str(out),
        "reduced to zero: %s" % out.is_zero(),
    ]
    params = {"binomial": binomial_text, "moves": moves, "c": c, "n": n}
    results = {"remainder": binomial_str(out), "zero": out.is_zero()}
    _emit(fmt, "toric reduce", params, results, lines)


@toric.command("degree-stats")
@click.option("--nmin", type=int, default=6)
@click.option("--nmax", type=int, default=15)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def degree_stats(nmin, nmax, fmt):
    """Max fitting degree of the kernel family vs the closed formula."""
    for value, what in ((nmin, "--nmin"), (nmax, "--nmax")):
        if value < 0:
            raise click.UsageError("%s=%d must not be negative" % (what, value))
    if nmin > nmax:
        raise click.UsageError("--nmin=%d is greater than --nmax=%d" % (nmin, nmax))
    if nmax > DEGREE_STATS_MAX:
        raise click.UsageError(
            "--nmax=%d exceeds the limit %d; the kernel family grows "
            "exponentially with the window" % (nmax, DEGREE_STATS_MAX)
        )
    rows = gen_degree_stats(nmin, nmax)
    lines = []
    for r in rows:
        lines.append(
            "n=%-3d computed=%-3d formula=%-3d %s"
            % (r["n"], r["computed"], r["formula"], "ok" if r["equal"] else "MISMATCH")
        )
    bad = [r["n"] for r in rows if not r["equal"]]
    if bad:
        lines.append("formula disagrees at n in %s" % bad)
    _emit(fmt, "toric degree-stats", {"nmin": nmin, "nmax": nmax}, rows, lines)


@main.command()
@click.argument("selector")
@click.option("--c", type=int, default=None)
@click.option("--a", default="poly-ring")
@click.option("--a-c", type=int, default=1)
@click.option("--b", default="poly-ring")
@click.option("--b-c", type=int, default=1)
@click.option("--what", type=click.Choice(["dfa", "alt-dfa"]), default="dfa")
@click.pass_context
def export(ctx, selector, c, a, a_c, b, b_c, what):
    """Emit the automaton of a built-in language as DOT."""
    _cap_sizes(ctx, c, a_c, b_c)
    lang = _build_language(selector, c, a, a_c, b, b_c, False)
    dfa = lang.dfa if what == "dfa" else lang.alt_dfa
    if dfa is None:
        raise click.UsageError("%s has no %s" % (lang.name, what))
    title = re.sub(r"[^A-Za-z0-9_]", "_", lang.name)
    click.echo(dfa.to_dot(title), nl=False)


if __name__ == "__main__":
    sys.exit(main())
