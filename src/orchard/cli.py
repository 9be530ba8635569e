"""Command-line interface: generators, counters, fitting, experiments,
group checks and SVG plots.

Exit codes: 0 success, 2 parse/usage error, 3 internal invariant
violation (the message names the violated invariant) or internal
error.  Counts print as exact integers, tables as CSV on stdout;
rationals serialize as reduced "p/q" strings since JSON numbers cannot
carry big integers.

This module holds the parser, run, the points-file reader, the curve
and point parsers and the count, directions, bound, tenpoint and
cantilever commands; the other commands live in orchard.commands, which
only a call of one of them loads.
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import sys

from . import _EXPORTS
from .projective import ProjPoint, mk_point
from .richlines import (InvariantViolation, PointSet, direction_count,
                        green_tao_bound, k_rich_count, spanned_lines,
                        tripartite_count)

# Every name of the package's export table, and each name below that it
# does not export, is imported from its module on first use by
# __getattr__, so that a call loads only the modules its subcommand runs.  Code here calls these
# names, and the ones a tracer replaces, as _cli.<name>: a bare lazy
# name would not reach __getattr__, and a name replaced on this module
# (by a test or a tracer) is then the one called.
_LAZY = {**_EXPORTS, "describe_lattice_witness": "tenpoint",
         "group_check_cases": "descriptions", "render_pointset": "svg",
         **dict.fromkeys(("pointset_to_doc", "cmd_generate", "cmd_fit_cubic",
                          "cmd_group_check", "cmd_conic", "cmd_experiment",
                          "cmd_plot"), "commands")}
_cli = sys.modules[__name__]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


# --- points file -------------------------------------------------------------

# an ASCII integer or "p/q": parsed by int(), without Fraction's own
# string parser, which spends several times as long on a token
_INT_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _match(token):
    """token's _INT_RATIO match; None if it does not match or is no str."""
    return _INT_RATIO.fullmatch(token) if type(token) is str else None


def _ratio(token: str, m: re.Match) -> tuple[int, int]:
    """The numerator and denominator of a token that m, its _INT_RATIO
    match, read; a zero denominator is refused as ValueError."""
    p, q = int(m[1]), int(m[2] or 1)
    if not q:
        raise ValueError(f"{token!r} has a zero denominator")
    return p, q


def _rational(token: str) -> Fraction:
    """Fraction(token), with a zero denominator refused as ValueError."""
    from fractions import Fraction  # a count call builds no Fraction
    m = _match(token)
    if m:
        return Fraction(*_ratio(token, m))
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"{token!r} has a zero denominator") from None


def _exact(v, parse):
    """parse(v) for a JSON integer or string coordinate.  JSON floats are
    refused: they are inexact (0.1 is not 1/10)."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"coordinate {v!r} must be an integer or a string "
                         f"such as \"-3/4\"")
    return parse(v)


def pointset_from_doc(doc) -> PointSet:
    """Read the points-file schema {"points": [{"x": X, "y": Y} or
    {"h": [X, Y, Z]}, ...], "labels": [1|2|3, ...]}; a document that
    breaks it raises ValueError."""
    if not isinstance(doc, dict) or not isinstance(doc.get("points"), list):
        raise ValueError("points file needs a 'points' list")
    pts = []
    for entry in doc["points"]:
        if not isinstance(entry, dict):
            raise ValueError(f"point entry {entry!r} is not an object")
        if "h" in entry:
            h = entry["h"]
            if not isinstance(h, list) or len(h) != 3:
                raise ValueError("homogeneous entry needs three integers")
            pts.append(ProjPoint(tuple(_exact(v, int) for v in h)))
        elif "x" in entry and "y" in entry:
            x, y = entry["x"], entry["y"]
            mx, my = _match(x), _match(y)
            if mx and my:       # (p1/q1, p2/q2) is (p1 q2 : p2 q1 : q1 q2)
                (p1, q1), (p2, q2) = _ratio(x, mx), _ratio(y, my)
                pts.append(ProjPoint((p1 * q2, p2 * q1, q1 * q2)))
            else:
                pts.append(mk_point(_exact(x, _rational), _exact(y, _rational)))
        else:
            raise ValueError(f"point entry {entry!r} needs 'x' and 'y', or 'h'")
    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ValueError("'labels' must be a list of integers")
    return PointSet(pts, labels)


def _load_pointset(path: str) -> PointSet:
    import json     # only a call that reads or writes a points file loads it
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("points file is nested too deeply") from None
    return pointset_from_doc(doc)


# --- subcommands ---------------------------------------------------------------

def cmd_count(args) -> int:
    if args.tripartite is not None and (args.k is not None or args.exactly):
        raise ValueError("--k and --exactly do not apply to --tripartite")
    ps = _cli._load_pointset(args.infile)
    if args.tripartite is not None:
        if not re.fullmatch(r"[123](,?[123]){2}", args.tripartite):
            raise ValueError(f"--tripartite {args.tripartite!r}: a pattern "
                             "is three labels 1-3 with optional commas, "
                             "e.g. 1,2,3 or 112")
        pattern = [int(t) for t in args.tripartite.replace(",", "")]
        print(_cli.tripartite_count(ps, pattern, workers=args.workers))
        return 0
    table = _cli.spanned_lines(ps, workers=args.workers)
    k = 3 if args.k is None else args.k
    print(_cli.k_rich_count(table, k, exactly=args.exactly))
    return 0


def cmd_directions(args) -> int:
    print(direction_count(_cli._load_pointset(args.infile)))
    return 0


def cmd_bound(args) -> int:
    print(green_tao_bound(args.n))
    return 0


def _parse_curve(spec: str):
    if spec == "cuspidal":
        return ("cuspidal", _cli.CuspidalCubic())
    if spec.startswith("weierstrass:"):
        a, b = map(_rational, _split(spec.split(":", 1)[1], ",", 2,
                                     "curve coefficients"))
        return ("weierstrass", _cli.WeierstrassCurve(a, b))
    raise ValueError(f"unknown curve {spec!r}")


def _split(token: str, sep: str, count: int, what: str) -> list[str]:
    parts = token.split(sep)
    if len(parts) != count:
        raise ValueError(f"{what} {token!r} needs exactly {count} "
                         f"{sep!r}-separated entries")
    return parts


def _parse_point(token: str) -> ProjPoint:
    return mk_point(*map(_rational, _split(token, ":", 2, "point")))


def _tenpoint_common(args) -> int:
    kind, curve = _parse_curve(args.curve)
    base = _split(args.base, ",", 3, "--base")
    if kind == "cuspidal":
        cfg = _cli.build_tenpoint_cuspidal(*map(_rational, base),
                                           _rational(args.delta))
    else:
        cfg = _cli.build_tenpoint_weierstrass(curve,
                                              *map(_parse_point, base),
                                              _parse_point(args.delta))
    obj = cfg
    if args.extend is not None:
        obj = _cli.extend_cantilever(cfg, args.extend)
    if not _cli.verify_lattice(obj):
        witness = _cli.describe_lattice_witness(_cli.lattice_witness(obj))
        raise InvariantViolation(f"ten-point lattice: {witness}")
    for p in obj.points():
        if not curve.form.contains(p):
            raise InvariantViolation(f"curve membership: {p} left the curve")
    # the whole table is formatted before one write, so an error while
    # formatting it leaves stdout empty, as a refused call does
    table = ["name,X,Y,Z\n"]
    amap, bmap, cmap = obj.lattice_points()
    for fam, mp in (("A", amap), ("B", bmap), ("C", cmap)):
        for i in sorted(mp):
            x, y, z = mp[i].h
            table.append(f"{fam}{i},{x},{y},{z}\n")
    sys.stdout.write("".join(table))
    return 0


# --- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="orchard",
        description="Exact triple-line geometry: generators, counts, "
                    "cubic fitting, group checks, experiments, plots.")
    # each command is named by a string that run looks up on the running
    # CLI module, so that one of orchard.commands loads only when it is
    # run; it finds that module as args.cli
    top.set_defaults(cli=_cli)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a configuration as JSON")
    p.add_argument("--example", required=True,
                   choices=["parallel-aps", "triangle-ratios", "ngon",
                            "cubic-power", "parabola-ap", "grid"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dense-middle", action="store_true",
                   help="double density on the middle row (parallel-aps)")
    p.add_argument("--out")
    p.set_defaults(func="cmd_generate")

    p = sub.add_parser("count", help="k-rich or tripartite line counts")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, help="line richness (default 3)")
    p.add_argument("--exactly", action="store_true")
    p.add_argument("--tripartite", help="label pattern, e.g. 1,2,3 or 112")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func="cmd_count")

    p = sub.add_parser("directions", help="distinct directions of all joins")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func="cmd_directions")

    p = sub.add_parser("bound", help="exact 3-rich maximum for n points")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func="cmd_bound")

    p = sub.add_parser("fit-cubic", help="exact cubics through the points")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--indices", help="comma list of point indices to use")
    p.set_defaults(func="cmd_fit_cubic")

    p = sub.add_parser("group-check",
                       help="verify a collinearity group description")
    p.add_argument("--config", required=True,
                   choices=["example1", "example4", "triangle",
                            "parabola-inf", "hyperbola-inf"])
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func="cmd_group_check")

    for name in ("tenpoint", "cantilever"):
        p = sub.add_parser(name, help="build and verify a ten point "
                                      "configuration (optionally extended)")
        p.add_argument("--curve", required=True,
                       help="cuspidal or weierstrass:a,b")
        p.add_argument("--base", required=True,
                       help="cuspidal: p,q,r parameters; weierstrass: "
                            "x1:y1,x2:y2,x3:y3")
        p.add_argument("--delta", required=True,
                       help="cuspidal: rational step; weierstrass: x:y point")
        p.add_argument("--extend", type=int, required=name == "cantilever")
        p.set_defaults(func="_tenpoint_common")

    p = sub.add_parser("conic", help="parabola secant/involution utilities")
    p.add_argument("--mode", required=True,
                   choices=["collinear", "involution", "image-count", "reps"])
    p.add_argument("--external", help="a,b")
    p.add_argument("--externals", help="a1,b1;a2,b2;a3,b3")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--xs", help="comma list of rationals")
    p.set_defaults(func="cmd_conic")

    p = sub.add_parser("experiment", help="dichotomy/quadruple/directions CSV")
    p.add_argument("--kind", required=True,
                   choices=["dichotomy", "quadruple", "directions"])
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func="cmd_experiment")

    p = sub.add_parser("plot", help="render a points file as SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mark-triple-lines", action="store_true")
    p.set_defaults(func="cmd_plot")

    return top


def run(argv: list[str]) -> int:
    """Run one call; return its exit code.  The call's int <-> str
    conversions take integers of any size: CPython's digit limit is
    lifted for the call and restored after it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return getattr(_cli, args.func)(args)
    except SystemExit as exc:       # from the parser: --help, a usage error
        return 0 if exc.code in (0, None) else 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.set_int_max_str_digits(limit)


def main() -> None:
    """Run the call, flush its output and end the process at once:
    interpreter teardown (about 10 ms a call) would only free memory that
    the exit frees anyway.  A flush that fails (a full disk) exits 2,
    like any OSError of the call."""
    code = run(sys.argv[1:])
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError as exc:
        try:
            print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:
            pass
        code = 2
    os._exit(code)


if __name__ == "__main__":
    main()
