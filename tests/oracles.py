"""Independent brute-force oracles for the test suite.

Everything here is deliberately O(n^3) triple enumeration over the
collinearity determinant, with none of the library's row-enumeration
shortcuts, so that agreement is meaningful.
"""

from itertools import combinations

from orchard import collinear, join


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
    from orchard import meet, LINE_AT_INFINITY
    dirs = set()
    for a, b in combinations(points, 2):
        dirs.add(meet(join(a, b), LINE_AT_INFINITY).h)
    return len(dirs)
