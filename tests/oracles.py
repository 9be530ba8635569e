"""Independent brute-force oracles for the test suite.

Everything here is deliberately O(n^3) triple enumeration over the
collinearity determinant, with none of the library's row-enumeration
shortcuts, so that agreement is meaningful:

- brute_triple_lines, brute_multiplicities, brute_tripartite and
  brute_directions check the rich-line counts;
- brute_lattice checks the index law "A_i, B_j, C_k collinear iff
  i + k = j" of a ten point configuration or cantilever;
- brute_group_description checks a group description: distinct
  cross-piece triples are collinear iff their values combine to the
  identity;
- brute_law_witness names the first triple on which such a law fails;
- apply_transform moves points by a projective map, for the tests of
  invariance under such maps;
- InlineContext stands in for a multiprocessing context, so that a
  multi-worker call starts no process;
- replaced copies a frozen value with some fields changed;
- build_parser is the CLI's argparse parser as it was before the CLI
  read its own command table, kept verbatim as the reference that the
  table's parser is held to.
"""

import argparse
from fractions import Fraction
from itertools import combinations

import orchard.cli as _cli
from orchard import ProjLine, collinear, join, meet, point_from_rationals


def brute_triple_lines(points):
    """Canonical keys of all lines through >= 3 of the points."""
    lines = set()
    for a, b, c in combinations(points, 3):
        if collinear(a, b, c):
            lines.add(join(a, b).l)
    return lines


def brute_multiplicities(points):
    """line key -> exact incidence count, via per-line point scans."""
    out = {}
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            key = join(points[i], points[j]).l
            if key not in out:
                out[key] = sum(
                    1 for p in points
                    if key[0] * p.h[0] + key[1] * p.h[1] + key[2] * p.h[2] == 0)
    return out


def brute_tripartite(points, labels, pattern):
    """Distinct lines carrying a collinear triple whose labels form
    exactly the given multiset."""
    want = sorted(pattern)
    lines = set()
    idx = range(len(points))
    for i, j, k in combinations(idx, 3):
        if sorted((labels[i], labels[j], labels[k])) != want:
            continue
        if collinear(points[i], points[j], points[k]):
            lines.add(join(points[i], points[j]).l)
    return len(lines)


def brute_directions(points):
    """Distinct points at infinity of all joins."""
    at_infinity = ProjLine((0, 0, 1))
    dirs = set()
    for a, b in combinations(points, 2):
        dirs.add(meet(join(a, b), at_infinity).h)
    return len(dirs)


def brute_lattice(obj):
    """A_i, B_j, C_k collinear iff i + k = j, over all stored indices;
    triples in which two of the points coincide are skipped."""
    amap, bmap, cmap = obj.lattice_points()
    for i, ai in amap.items():
        for j, bj in bmap.items():
            for k, ck in cmap.items():
                if ai == bj or ai == ck or bj == ck:
                    continue
                if collinear(ai, bj, ck) != (i + k == j):
                    return False
    return True


def brute_group_description(ps, desc):
    """Distinct cross-piece triples are collinear exactly when their
    group values combine to the identity."""
    parts = {1: [], 2: [], 3: []}
    for p in ps.points:
        for i in desc.assign(p):
            parts[i].append((p, desc.value(i, p)))
    additive = desc.operation == "additive"
    for pt1, v1 in parts[1]:
        for pt2, v2 in parts[2]:
            if pt2 == pt1:
                continue
            for pt3, v3 in parts[3]:
                if pt3 == pt1 or pt3 == pt2:
                    continue
                if additive:
                    alg = (v1 + v2 + v3) == 0
                else:
                    alg = (v1 * v2 * v3) == 1
                if alg != collinear(pt1, pt2, pt3):
                    return False
    return True


def brute_law_witness(points, roles, operation):
    """(indices, values, collinear) of the first triple of distinct
    points, one role per piece, on which the collinearity determinant
    and the group law disagree, or None.

    roles[i] lists the (piece, value) pairs of points[i]; a role's rank
    is its position when the points are taken in order, each with its
    roles in list order.  A collinear witness comes first: the one on
    the line whose two lowest point indices are least, then least by
    the ranks of its piece 1, 2, 3 roles.  Else the non-collinear
    witness least by those ranks.
    """
    parts = {1: [], 2: [], 3: []}
    for i, rs in enumerate(roles):
        for piece, v in rs:
            parts[piece].append((i, v))
    additive = operation == "additive"
    on_line, off_line = [], []
    for i1, v1 in parts[1]:
        for i2, v2 in parts[2]:
            for i3, v3 in parts[3]:
                if len({i1, i2, i3}) < 3:
                    continue
                law = (v1 + v2 + v3 == 0 if additive else v1 * v2 * v3 == 1)
                on = collinear(points[i1], points[i2], points[i3])
                if on == law:
                    continue
                found = ((i1, i2, i3), (v1, v2, v3), on)
                if on:
                    line = [i for i, p in enumerate(points)
                            if collinear(points[i1], points[i2], p)]
                    on_line.append((line[:2], found))
                else:
                    off_line.append(found)
    if on_line:
        return min(on_line, key=lambda t: t[0])[1]
    return off_line[0] if off_line else None


def apply_transform(m, p):
    """Image of the point p under the projective map with the invertible
    3x3 rational matrix m."""
    rows = [[Fraction(e) for e in row] for row in m]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("transform matrix must be 3x3")
    (a, b, c), (d, e, f), (g, h, i) = rows
    if a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g) == 0:
        raise ValueError("singular transform matrix")
    return point_from_rationals(*(sum(r * v for r, v in zip(row, p.h))
                                  for row in rows))


class InlineContext:
    """A stand-in for multiprocessing.get_context("fork"): its pool runs
    imap lazily in this process and starts no process.  sizes records
    the number of processes that each pool was asked for, and exits
    counts the pools whose with block was left."""

    def __init__(self):
        self.sizes = []
        self.exits = 0

    def Pool(self, processes):
        self.sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.exits += 1
        return False

    def imap(self, fn, args, chunksize=1):
        return map(fn, args)


def replaced(obj, **changes):
    """obj's class called again on obj's fields, in __slots__ order,
    with the named ones changed (dataclasses.replace for orchard's
    frozen values)."""
    names = obj.__slots__[:len(obj._fields())]
    unknown = set(changes) - set(names)
    if unknown:
        raise TypeError(f"{type(obj).__name__} has no fields {sorted(unknown)}")
    return type(obj)(*[changes.get(name, value)
                       for name, value in zip(names, obj._fields())])


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
