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
- replaced copies a frozen value with some fields changed.
"""

from fractions import Fraction
from itertools import combinations

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
    starmap in this process, starts no process, and records in sizes the
    number of processes that each pool was asked for."""

    def __init__(self):
        self.sizes = []

    def Pool(self, processes):
        self.sizes.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, args):
        return [fn(*a) for a in args]


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
