"""Command-line interface: generators, counters, fitting, experiments,
group checks and SVG plots.

Exit codes: 0 success, 2 parse/usage error, 3 internal invariant
violation (the message names the violated invariant) or internal
error.  Counts print as exact integers, tables as CSV on stdout;
rationals serialize as reduced "p/q" strings since JSON numbers cannot
carry big integers.

This module holds the command table, the reader of argv in its
documented form (the command, then each option as --flag value or
--flag=value and each switch as its bare flag), run, the points-file
reader, the curve and point parsers and the count, directions, bound,
tenpoint and cantilever commands.  The other commands, the help and
usage text and the argparse parser that reads any other argv from the
same table live in orchard.commands, which only a call of one of them,
--help, a usage error or another form of argv loads.
"""

from __future__ import annotations

import importlib
import os
import re
import sys
from types import SimpleNamespace

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
                          "cmd_plot", "usage_error", "parse_with_argparse"),
                         "commands")}
_cli = sys.modules[__name__]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


# --- points file -------------------------------------------------------------

def _exact(v):
    """v, if it is a JSON integer or string coordinate.  JSON floats are
    refused: they are inexact (0.1 is not 1/10)."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError(f"coordinate {v!r} must be an integer or a string "
                         f"such as \"-3/4\"")
    return v


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
            pts.append(ProjPoint(tuple(int(_exact(v)) for v in h)))
        elif "x" in entry and "y" in entry:
            x, y = entry["x"], entry["y"]
            if type(x) is not str or type(y) is not str:
                # the JSON type rule, in file order: x is checked and read
                # before y is checked
                mk_point(_exact(x), 0)
                _exact(y)
            pts.append(mk_point(x, y))
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
        return ("weierstrass", _cli.WeierstrassCurve(*_split(
            spec.split(":", 1)[1], ",", 2, "curve coefficients")))
    raise ValueError(f"unknown curve {spec!r}")


def _split(token: str, sep: str, count: int, what: str) -> list[str]:
    parts = token.split(sep)
    if len(parts) != count:
        raise ValueError(f"{what} {token!r} needs exactly {count} "
                         f"{sep!r}-separated entries")
    return parts


def _parse_point(token: str) -> ProjPoint:
    return mk_point(*_split(token, ":", 2, "point"))


def _tenpoint_common(args) -> int:
    kind, curve = _parse_curve(args.curve)
    base = _split(args.base, ",", 3, "--base")
    if kind == "cuspidal":
        cfg = _cli.build_tenpoint_cuspidal(*base, args.delta)
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
        if not curve.contains(p):
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


# --- command table and reader --------------------------------------------------

# Each command: its help, the name of the function that runs it (run looks
# it up on the running CLI module, so that one of orchard.commands loads
# only when it runs) and its options, each (flag, type, default,
# required, help).  A type is int, str, a tuple of the allowed values, or
# bool for a switch, which takes no value.
_TENPOINT = [
    ("--curve", str, None, True, "cuspidal or weierstrass:a,b"),
    ("--base", str, None, True,
     "cuspidal: p,q,r parameters; weierstrass: x1:y1,x2:y2,x3:y3"),
    ("--delta", str, None, True,
     "cuspidal: rational step; weierstrass: x:y point")]
_COMMANDS = {
    "generate": dict(
        help="emit a configuration as JSON", func="cmd_generate", options=[
            ("--example", ("parallel-aps", "triangle-ratios", "ngon",
                           "cubic-power", "parabola-ap", "grid"),
             None, True, ""),
            ("--n", int, None, True, ""),
            ("--dense-middle", bool, False, False,
             "double density on the middle row (parallel-aps)"),
            ("--out", str, None, False, "")]),
    "count": dict(
        help="k-rich or tripartite line counts", func="cmd_count", options=[
            ("--in", str, None, True, ""),
            ("--k", int, None, False, "line richness (default 3)"),
            ("--exactly", bool, False, False, ""),
            ("--tripartite", str, None, False,
             "label pattern, e.g. 1,2,3 or 112"),
            ("--workers", int, 1, False, "")]),
    "directions": dict(
        help="distinct directions of all joins", func="cmd_directions",
        options=[("--in", str, None, True, "")]),
    "bound": dict(
        help="exact 3-rich maximum for n points", func="cmd_bound",
        options=[("--n", int, None, True, "")]),
    "fit-cubic": dict(
        help="exact cubics through the points", func="cmd_fit_cubic",
        options=[("--in", str, None, True, ""),
                 ("--indices", str, None, False,
                  "comma list of point indices to use")]),
    "group-check": dict(
        help="verify a collinearity group description",
        func="cmd_group_check", options=[
            ("--config", ("example1", "example4", "triangle",
                          "parabola-inf", "hyperbola-inf"), None, True, ""),
            ("--n", int, 6, False, ""),
            ("--trials", int, 2000, False, ""),
            ("--seed", int, 1, False, "")]),
    "tenpoint": dict(
        help="build and verify a ten point configuration (optionally "
             "extended)", func="_tenpoint_common",
        options=[*_TENPOINT, ("--extend", int, None, False, "")]),
    "cantilever": dict(
        help="build and verify a ten point configuration extended by "
             "--extend", func="_tenpoint_common",
        options=[*_TENPOINT, ("--extend", int, None, True, "")]),
    "conic": dict(
        help="parabola secant/involution utilities", func="cmd_conic",
        options=[
            ("--mode", ("collinear", "involution", "image-count", "reps"),
             None, True, ""),
            ("--external", str, None, False, "a,b"),
            ("--externals", str, None, False, "a1,b1;a2,b2;a3,b3"),
            ("--x", str, None, False, ""),
            ("--y", str, None, False, ""),
            ("--xs", str, None, False, "comma list of rationals")]),
    "experiment": dict(
        help="dichotomy/quadruple/directions CSV", func="cmd_experiment",
        options=[
            ("--kind", ("dichotomy", "quadruple", "directions"), None, True,
             ""),
            ("--degree", int, None, True, ""),
            ("--n", int, None, True, "")]),
    "plot": dict(
        help="render a points file as SVG", func="cmd_plot", options=[
            ("--in", str, None, True, ""),
            ("--out", str, None, True, ""),
            ("--mark-triple-lines", bool, False, False, "")]),
}


def _dest(flag: str) -> str:
    name = flag[2:].replace("-", "_")
    return "infile" if name == "in" else name


def _read(command: str, argv: list[str]):
    """The option values of command's argv if it is in the documented
    form, else None: each option its exact flag, as --flag=value or
    followed by a value that does not start with "-", a switch its bare
    flag, the last of a repeated option kept, every required option
    given, each value an int where the type is int and one of the
    choices where there are choices."""
    options = {option[0]: option for option in _COMMANDS[command]["options"]}
    values = {_dest(flag): option[2] for flag, option in options.items()}
    seen = set()
    tokens = iter(argv)
    for token in tokens:
        flag, eq, value = token.partition("=")
        typ = options[flag][1] if flag in options else None
        if typ is None or (typ is bool and eq):
            return None
        if typ is bool:
            value = True
        elif not eq:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
        if typ is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif type(typ) is tuple and value not in typ:
            return None
        values[_dest(flag)] = value
        seen.add(flag)
    if any(option[3] and flag not in seen for flag, option in options.items()):
        return None
    return values


def parse_args(argv: list[str]):
    """The command, its function's name, the running CLI module and each
    option's value (or default) as attributes.  An argv in the
    documented form (_read) is read here; argparse reads any other, from
    the same table (orchard.commands.parse_with_argparse), so --help
    exits 0 and a usage error 2 (SystemExit) by argparse's rules."""
    values = None
    if argv and argv[0] in _COMMANDS:
        values = _read(argv[0], argv[1:])
    elif argv and not argv[0].startswith("-"):
        # argparse would add the list of commands to this message
        _cli.usage_error(_cli, None, f"argument command: invalid choice: "
                                     f"{argv[0]!r}")
    if values is None:
        return _cli.parse_with_argparse(_cli, argv)
    return SimpleNamespace(command=argv[0], cli=_cli,
                           func=_COMMANDS[argv[0]]["func"], **values)


def build_parser():
    """The parser of an orchard call: this module, whose parse_args
    reads argv against _COMMANDS."""
    return _cli


def _fail(code: int, message: str) -> int:
    """Print message to stderr and return code.  A stderr that cannot be
    written (a full disk) loses the message but not the exit code."""
    try:
        print(message, file=sys.stderr, flush=True)
    except OSError:
        pass
    return code


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
        return _fail(2, f"error: {exc}")
    except InvariantViolation as exc:
        return _fail(3, f"invariant violation: {exc}")
    except Exception as exc:
        return _fail(3, f"internal error: {type(exc).__name__}: {exc}")
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
        code = _fail(2, f"error: {exc}")
    os._exit(code)


if __name__ == "__main__":
    main()
