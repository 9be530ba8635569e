"""Generators for the classic near-optimal triple-line configurations.

Everything here is exact.  The regular n-gon, whose vertices are
irrational, is represented combinatorially: chord {i,j} is parallel to
chord {k,l} iff i+j = k+l mod n.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .projective import (DegenerateError, ProjPoint, Rat, _Frozen, _int_arg,
                         collinear, mk_point, point_from_rationals,
                         triangle_sides)
from .richlines import PointSet

DEFAULT_TRIANGLE = (mk_point(0, 0), mk_point(1, 0), mk_point(0, 1))


def gen_parallel_aps(n: int, dense_middle: bool = False) -> PointSet:
    """Three copies of 0..n-1 on the rows y = 0, 1, 2, labelled by row.

    dense_middle doubles the middle row's density (a slightly better
    configuration; no exact count is asserted for it anywhere).
    """
    if _int_arg(n, "gen_parallel_aps: n") < 1:
        raise ValueError("gen_parallel_aps needs n >= 1")
    points, labels = [], []
    for i in range(n):
        points.append(mk_point(i, 0))
        labels.append(1)
    if dense_middle:
        for i in range(2 * n):
            points.append(mk_point(Fraction(i, 2), 1))
            labels.append(2)
    else:
        for i in range(n):
            points.append(mk_point(i, 1))
            labels.append(2)
    for i in range(n):
        points.append(mk_point(i, 2))
        labels.append(3)
    return PointSet(tuple(points), tuple(labels))


def parallel_aps_closed_form(n: int) -> int:
    """Lines meeting all three rows: pairs (x1, x3) with x1 + x3 even."""
    if _int_arg(n, "parallel_aps_closed_form: n") < 1:
        raise ValueError("parallel_aps_closed_form needs n >= 1")
    return ((n + 1) // 2) ** 2 + (n // 2) ** 2


def ratio_point(a: ProjPoint, b: ProjPoint, t: Rat) -> ProjPoint:
    """The point X on line AB with signed ratio AX/XB = t (t = -1 gives
    the point at infinity of the line)."""
    if a == b:
        raise DegenerateError("ratio_point: base points coincide")
    if a.h[2] == 0 or b.h[2] == 0:
        raise ValueError("ratio_point: base points must be affine")
    ft = Fraction(t)
    coords = [a.h[k] * b.h[2] + ft * b.h[k] * a.h[2] for k in range(3)]
    return point_from_rationals(*coords)


def triangle_ratio_set(n: int) -> list[Fraction]:
    """{+-1, +-2^{+-1}, ..., +-2^{+-(n-1)}}, 4n-2 values."""
    if n < 1:
        raise ValueError("triangle_ratio_set needs n >= 1")
    vals = []
    for k in range(-(n - 1), n):
        vals.append(Fraction(2) ** k)
        vals.append(-(Fraction(2) ** k))
    return sorted(set(vals))


def gen_triangle_ratios(n: int,
                        p1: ProjPoint = DEFAULT_TRIANGLE[0],
                        p2: ProjPoint = DEFAULT_TRIANGLE[1],
                        p3: ProjPoint = DEFAULT_TRIANGLE[2]) -> PointSet:
    """Geometric-progression ratio sets on the three sides of a triangle.

    Side i joins the vertices other than P_i; its points are the X with
    AX/XB in the ratio set, A and B as in triangle_sides.
    Ratio -1 is the side's point at infinity.  Each side gets 4n-2
    points, labelled i.
    """
    if collinear(p1, p2, p3):
        raise DegenerateError("gen_triangle_ratios: collinear vertices")
    ratios = triangle_ratio_set(n)
    points, labels = [], []
    for i, (a, b) in enumerate(triangle_sides(p1, p2, p3), 1):
        for t in ratios:
            points.append(ratio_point(a, b, t))
            labels.append(i)
    return PointSet(tuple(points), tuple(labels))


class NgonConfig(_Frozen):
    """Regular n-gon chords, combinatorially: parallel iff same class."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 3:
            raise ValueError("NgonConfig needs n >= 3")
        super().__init__(n)

    def direction_class(self, i: int, j: int) -> int:
        if i == j or not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError("chord needs two distinct vertex indices")
        return (i + j) % self.n

    @property
    def direction_class_count(self) -> int:
        return self.n

    @property
    def chord_count(self) -> int:
        return comb(self.n, 2)


def gen_ngon_directions(n: int) -> NgonConfig:
    return NgonConfig(n)


def gen_cubic_power(n: int) -> PointSet:
    """(i, i^3) for i = -n..n: 2n+1 points on y = x^3."""
    if n < 1:
        raise ValueError("gen_cubic_power needs n >= 1")
    return PointSet(tuple(mk_point(i, i ** 3) for i in range(-n, n + 1)))


def gen_parabola_ap(n: int) -> PointSet:
    """(i, i^2) for i = 1..n on the parabola."""
    if n < 2:
        raise ValueError("gen_parabola_ap needs n >= 2")
    return PointSet(tuple(mk_point(i, i * i) for i in range(1, n + 1)))


def gen_grid(k: int) -> PointSet:
    """The k x k integer grid [0,k)^2."""
    if _int_arg(k, "gen_grid: k") < 2:
        raise ValueError("gen_grid needs k >= 2")
    return PointSet(tuple(mk_point(x, y) for x in range(k) for y in range(k)))
