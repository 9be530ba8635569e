"""The CLI subcommands that a count call never runs: generate, fit-cubic,
group-check, conic, experiment and plot, with the points-file writer and
the argparse parser built from orchard.cli's command table, which reads
every argv that is not in the documented form that orchard.cli reads
itself and prints argparse's own help and usage errors.

orchard.cli names these commands in its command table and loads this
module on the first use of one of them, so that a count, directions, bound,
tenpoint or cantilever call does not compile them.  Each command finds
the running CLI module as args.cli (orchard.cli, or __main__ under
`python -m orchard.cli`) and calls the library and the CLI's parsers
through it, so that a name a test or a tracer replaces on that module is
the one called.  This module never imports orchard.cli: under
`python -m` that import would compile and run the CLI a second time.
"""

from __future__ import annotations

import re
import sys

from .richlines import InvariantViolation, PointSet


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


def _emit(text: str, out: str | None):
    """Write text to the file out, or to stdout if out is None or "-"."""
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    import json
    _cli = args.cli
    if args.dense_middle and args.example != "parallel-aps":
        raise ValueError("--dense-middle needs --example parallel-aps")
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


def cmd_fit_cubic(args) -> int:
    _cli = args.cli
    ps = _cli._load_pointset(args.infile)
    pts = list(ps.points)
    if args.indices is not None:
        tokens = args.indices.split(",")
        if not all(re.fullmatch(r"-?[0-9]+", t) for t in tokens):
            raise ValueError(f"--indices {args.indices!r}: a comma list of "
                             "ASCII decimal integers, e.g. 0,1,2")
        idx = [int(t) for t in tokens]
        if not all(0 <= i < len(pts) for i in idx):
            raise ValueError(f"--indices must lie in 0..{len(pts) - 1}")
        if len(set(idx)) != len(idx):
            raise ValueError(f"--indices {args.indices!r} names a point "
                             "twice")
        pts = [pts[i] for i in idx]
    basis = _cli.fit_cubics(pts)
    rows = [",".join(map(str, f.coefficients)) for f in basis] or ["none"]
    sys.stdout.write("coefficients(X^3,X^2Y,X^2Z,XY^2,XYZ,XZ^2,Y^3,Y^2Z,YZ^2,"
                     "Z^3)\n" + "".join(row + "\n" for row in rows))
    return 0


def cmd_group_check(args) -> int:
    _cli = args.cli
    name = args.config
    exhaustive = name in ("example1", "example4")
    if not exhaustive and args.trials < 1:
        raise ValueError(f"--trials must be at least 1, not {args.trials}")
    desc, cases = _cli.group_check_cases(name, args.n, args.trials, args.seed)
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


_CONIC_NEEDS = {"collinear": ("external", "x", "y"),
               "involution": ("external", "x"),
               "image-count": ("external", "xs"),
               "reps": ("externals",)}


def cmd_conic(args) -> int:
    _cli = args.cli
    missing = [f"--{name}" for name in _CONIC_NEEDS[args.mode]
               if getattr(args, name) is None]
    if missing:
        raise ValueError(f"conic --mode {args.mode} needs "
                         f"{', '.join(missing)}")
    if args.mode == "collinear":
        e = _parse_external(_cli, args.external)
        print(str(_cli.parabola_collinear(args.x, args.y, e)).lower())
    elif args.mode == "involution":
        e = _parse_external(_cli, args.external)
        print(_cli.involution_value(e, args.x))
    elif args.mode == "image-count":
        e = _parse_external(_cli, args.external)
        print(_cli.image_count(e, args.xs.split(",")))
    else:
        es = [_parse_external(_cli, token) for token in
              _cli._split(args.externals, ";", 3, "--externals")]
        print(str(_cli.reps_collinear(*es)).lower())
    return 0


def _parse_external(_cli, token: str):
    return _cli.ExternalPoint(*_cli._split(token, ",", 2, "external point"))


def cmd_experiment(args) -> int:
    _cli = args.cli
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
    _cli = args.cli
    ps = _cli._load_pointset(args.infile)
    _emit(_cli.render_pointset(ps, mark_triple_lines=args.mark_triple_lines),
          args.out)
    return 0


# --- argparse -----------------------------------------------------------------

def parse_with_argparse(cli, argv: list[str]):
    """argv read by argparse from cli's command table: the reader of
    every argv that cli.parse_args does not read itself, whose --help
    and usage errors are argparse's own."""
    import argparse     # only --help, a usage error or another form loads it

    top = argparse.ArgumentParser(
        prog="orchard",
        description="Exact triple-line geometry: generators, counts, cubic "
                    "fitting, group checks, experiments, plots.")
    top.set_defaults(cli=cli)
    sub = top.add_subparsers(dest="command", required=True)
    for name, spec in cli._COMMANDS.items():
        p = sub.add_parser(name, help=spec["help"], description=spec["help"])
        p.set_defaults(func=spec["func"])
        for flag, typ, default, required, text in spec["options"]:
            kind = (dict(action="store_true") if typ is bool
                    else dict(choices=typ) if type(typ) is tuple
                    else dict(type=typ))
            p.add_argument(flag, dest=cli._dest(flag), default=default,
                           required=required, help=text or None, **kind)
    return top.parse_args(argv)
