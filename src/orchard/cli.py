"""Command-line interface: generators, counters, fitting, experiments,
group checks and SVG plots.

Exit codes: 0 success, 2 parse/usage error, 3 internal invariant
violation (the message names the violated invariant) or internal
error.  Counts print as exact integers, tables as CSV on stdout;
rationals serialize as reduced "p/q" strings since JSON numbers cannot
carry big integers.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import re
import sys
from fractions import Fraction

from . import _EXPORTS
from .projective import (DegenerateError, ProjPoint, join, meet, mk_point,
                         point_from_rationals, triangle_sides)
from .richlines import (InvariantViolation, PointSet, direction_count,
                        green_tao_bound, k_rich_count, spanned_lines,
                        tripartite_count)

# Every name of the package's export table, and two names that it does
# not export, is imported from its module on first use by __getattr__,
# so that a call loads only the modules its subcommand runs.  Code here
# calls these names, and the ones a tracer replaces, as _cli.<name>: a
# bare lazy name would not reach __getattr__, and a name replaced on
# this module (by a test or a tracer) is then the one called.
_LAZY = {**_EXPORTS, "describe_lattice_witness": "tenpoint",
         "render_pointset": "svg"}
_cli = sys.modules[__name__]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


# --- points file -------------------------------------------------------------

def pointset_to_doc(ps: PointSet) -> dict:
    pts = []
    for p in ps.points:
        if p.at_infinity:
            pts.append({"h": [str(v) for v in p.h]})
        else:
            x, y = p.affine()
            pts.append({"x": str(x), "y": str(y)})
    doc = {"points": pts}
    if ps.labels is not None:
        doc["labels"] = list(ps.labels)
    return doc


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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("points file is nested too deeply") from None
    return pointset_from_doc(doc)


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands ---------------------------------------------------------------

def cmd_generate(args) -> int:
    if args.example == "ngon":
        cfg = _cli.gen_ngon_directions(args.n)
        doc = {"kind": "ngon", "n": cfg.n,
               "direction_classes": cfg.direction_class_count,
               "chords": cfg.chord_count}
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
        return 0
    builders = {
        "parallel-aps": lambda n: _cli.gen_parallel_aps(n,
                                                        args.dense_middle),
        "triangle-ratios": _cli.gen_triangle_ratios,
        "cubic-power": _cli.gen_cubic_power,
        "parabola-ap": _cli.gen_parabola_ap,
        "grid": _cli.gen_grid,
    }
    ps = builders[args.example](args.n)
    _emit(json.dumps(pointset_to_doc(ps), indent=2) + "\n", args.out)
    return 0


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


def cmd_fit_cubic(args) -> int:
    ps = _cli._load_pointset(args.infile)
    pts = list(ps.points)
    if args.indices:
        idx = [int(i) for i in args.indices.split(",")]
        if not all(0 <= i < len(pts) for i in idx):
            raise ValueError(f"--indices must lie in 0..{len(pts) - 1}")
        pts = [pts[i] for i in idx]
    basis = _cli.fit_cubics(pts)
    print("coefficients(X^3,X^2Y,X^2Z,XY^2,XYZ,XZ^2,Y^3,Y^2Z,YZ^2,Z^3)")
    for f in basis:
        print(",".join(str(c) for c in f.coefficients))
    if not basis:
        print("none")
    return 0


def _random_fraction(rng: random.Random, span: int = 12) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 6))


def _nonzero(rng: random.Random) -> Fraction:
    while True:
        f = _random_fraction(rng)
        if f not in (0, -1):
            return f


_TRIANGLE = (mk_point(0, 0), mk_point(4, 0), mk_point(1, 3))


def _triangle_cases(trials: int, rng: random.Random):
    """One point per side of _TRIANGLE, for each trial that is not
    degenerate: at random ratios on even trials, cut by a random line
    (so collinear) on odd ones."""
    sides = triangle_sides(*_TRIANGLE)
    for t in range(trials):
        if t % 2 == 0:
            xs = [_cli.ratio_point(a, b, _nonzero(rng)) for a, b in sides]
        else:
            q1 = mk_point(_random_fraction(rng), _random_fraction(rng))
            q2 = mk_point(_random_fraction(rng) + 20, _random_fraction(rng))
            line = join(q1, q2)
            try:
                xs = [meet(line, join(a, b)) for a, b in sides]
            except DegenerateError:
                continue
            if any(x in _TRIANGLE for x in xs):
                continue
        yield PointSet(xs)


def _conic_cases(parabola: bool, trials: int, rng: random.Random):
    """Two points of y = x^2 (or xy = 1) and a direction, for each trial
    that is not degenerate: the chord's direction on even trials, a
    perturbed one on odd trials."""
    for t in range(trials):
        p = _nonzero(rng)
        q = _nonzero(rng)
        if p == q:
            continue
        if parabola:
            pt1, pt2 = mk_point(p, p * p), mk_point(q, q * q)
            s = p + q if t % 2 == 0 else p + q + _nonzero(rng)
        else:
            pt1, pt2 = mk_point(p, 1 / p), mk_point(q, 1 / q)
            s = -1 / (p * q) if t % 2 == 0 else -1 / (p * q) * _nonzero(rng)
        if s != 0:
            yield PointSet((pt1, pt2, point_from_rationals(1, s, 0)))


def cmd_group_check(args) -> int:
    name = args.config
    exhaustive = name in ("example1", "example4")
    if not exhaustive and args.trials < 1:
        raise ValueError(f"--trials must be at least 1, not {args.trials}")
    rng = random.Random(args.seed)
    if name == "example1":
        desc = _cli.parallel_lines_description()
        cases = [_cli.gen_parallel_aps(args.n)]
    elif name == "example4":
        desc = _cli.cuspidal_description()
        cases = [_cli.gen_cubic_power(args.n)]
    elif name == "triangle":
        desc = _cli.triangle_description(*_TRIANGLE)
        cases = _triangle_cases(args.trials, rng)
    elif name == "parabola-inf":
        desc = _cli.parabola_infinity_description()
        cases = _conic_cases(True, args.trials, rng)
    else:
        desc = _cli.hyperbola_infinity_description()
        cases = _conic_cases(False, args.trials, rng)
    witnesses = [w for w in (_cli.description_witness(ps, desc)
                             for ps in cases) if w is not None]
    if exhaustive:
        label, fail = f"{name} n={args.n} exhaustive", "FAIL"
    else:
        label = f"{name} {args.trials} trials"
        fail = f"FAIL ({len(witnesses)} failures)"
    print(f"{label}: {fail if witnesses else 'PASS'}")
    if witnesses:
        raise InvariantViolation(f"group description {name} failed: "
                                 f"{witnesses[0]}")
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
    print("name,X,Y,Z")
    amap, bmap, cmap = obj.lattice_points()
    for fam, mp in (("A", amap), ("B", bmap), ("C", cmap)):
        for i in sorted(mp):
            x, y, z = mp[i].h
            print(f"{fam}{i},{x},{y},{z}")
    return 0


_CONIC_NEEDS = {"collinear": ("external", "x", "y"),
               "involution": ("external", "x"),
               "image-count": ("external", "xs"),
               "reps": ("externals",)}


def cmd_conic(args) -> int:
    missing = [f"--{name}" for name in _CONIC_NEEDS[args.mode]
               if getattr(args, name) is None]
    if missing:
        raise ValueError(f"conic --mode {args.mode} needs "
                         f"{', '.join(missing)}")
    if args.mode == "collinear":
        e = _parse_external(args.external)
        print(str(_cli.parabola_collinear(_rational(args.x),
                                          _rational(args.y), e)).lower())
    elif args.mode == "involution":
        e = _parse_external(args.external)
        print(_cli.involution_value(e, _rational(args.x)))
    elif args.mode == "image-count":
        e = _parse_external(args.external)
        xs = [_rational(v) for v in args.xs.split(",")]
        print(_cli.image_count(e, xs))
    else:
        es = map(_parse_external, _split(args.externals, ";", 3,
                                         "--externals"))
        print(str(_cli.reps_collinear(*es)).lower())
    return 0


def _parse_external(token: str) -> ExternalPoint:
    return _cli.ExternalPoint(*map(_rational,
                                   _split(token, ",", 2, "external point")))


def cmd_experiment(args) -> int:
    d, n = args.degree, args.n
    if args.kind == "dichotomy":
        rows = _cli.dichotomy_experiment([d], [n])
        print("degree,n,count,count_per_n2")
        for r in rows:
            print(f"{r.degree},{r.n},{r.count},{r.ratio_n2}")
        print("# evidence at desk scale, not a verification", file=sys.stderr)
    elif args.kind == "quadruple":
        count = _cli.quadruple_experiment(_cli.graph_power(d),
                                          range(-n, n + 1))
        print("degree,n,count")
        print(f"{d},{n},{count}")
    else:
        count = _cli.few_directions_experiment(_cli.graph_power(d),
                                               range(1, n + 1))
        print("degree,n,count")
        print(f"{d},{n},{count}")
    return 0


def cmd_plot(args) -> int:
    ps = _cli._load_pointset(args.infile)
    svg = _cli.render_pointset(ps, mark_triple_lines=args.mark_triple_lines)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


# --- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="orchard",
        description="Exact triple-line geometry: generators, counts, "
                    "cubic fitting, group checks, experiments, plots.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a configuration as JSON")
    p.add_argument("--example", required=True,
                   choices=["parallel-aps", "triangle-ratios", "ngon",
                            "cubic-power", "parabola-ap", "grid"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dense-middle", action="store_true",
                   help="double density on the middle row (parallel-aps)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("count", help="k-rich or tripartite line counts")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, help="line richness (default 3)")
    p.add_argument("--exactly", action="store_true")
    p.add_argument("--tripartite", help="label pattern, e.g. 1,2,3 or 112")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("directions", help="distinct directions of all joins")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_directions)

    p = sub.add_parser("bound", help="exact 3-rich maximum for n points")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("fit-cubic", help="exact cubics through the points")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--indices", help="comma list of point indices to use")
    p.set_defaults(func=cmd_fit_cubic)

    p = sub.add_parser("group-check",
                       help="verify a collinearity group description")
    p.add_argument("--config", required=True,
                   choices=["example1", "example4", "triangle",
                            "parabola-inf", "hyperbola-inf"])
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_group_check)

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
        p.set_defaults(func=_tenpoint_common)

    p = sub.add_parser("conic", help="parabola secant/involution utilities")
    p.add_argument("--mode", required=True,
                   choices=["collinear", "involution", "image-count", "reps"])
    p.add_argument("--external", help="a,b")
    p.add_argument("--externals", help="a1,b1;a2,b2;a3,b3")
    p.add_argument("--x")
    p.add_argument("--y")
    p.add_argument("--xs", help="comma list of rationals")
    p.set_defaults(func=cmd_conic)

    p = sub.add_parser("experiment", help="dichotomy/quadruple/directions CSV")
    p.add_argument("--kind", required=True,
                   choices=["dichotomy", "quadruple", "directions"])
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("plot", help="render a points file as SVG")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mark-triple-lines", action="store_true")
    p.set_defaults(func=cmd_plot)

    return top


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
