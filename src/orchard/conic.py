"""Parabola secants through an external point, and their involutions.

A point E = (a, b) off the parabola y = x^2 pairs parabola points by
collinearity: (x, x^2), (y, y^2), E are collinear iff
xy - ax - ay + b = 0, i.e. y = (ax - b)/(x - a).  That map is an exact
involution of the x-axis with a pole at x = a.  The module also holds
the 4-vector representatives (a, -b, 1, -a) whose affine dependence is
equivalent to plane collinearity of the external points.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .exact import Rat, _Frozen, _fraction


class ExternalPoint(_Frozen):
    __slots__ = ("a", "b")

    def __init__(self, a: Rat, b: Rat):
        a, b = _fraction(a), _fraction(b)
        if b == a * a:
            raise ValueError(f"({a}, {b}) lies on the parabola")
        super().__init__(a, b)

    def rep4(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, -self.b, Fraction(1), -self.a)


def parabola_collinear(x: Rat, y: Rat, e: ExternalPoint) -> bool:
    """True iff (x, x^2), (y, y^2) and E are collinear (x != y)."""
    fx, fy = _fraction(x), _fraction(y)
    if fx == fy:
        raise ValueError("parabola_collinear needs distinct parabola points")
    return fx * fy - e.a * fx - e.a * fy + e.b == 0


def involution_value(e: ExternalPoint, x: Rat) -> Fraction:
    """The unique y with (x,x^2), (y,y^2), E collinear; pole at x = a."""
    fx = _fraction(x)
    if fx == e.a:
        raise ValueError(f"involution has a pole at x = {e.a}")
    return (e.a * fx - e.b) / (fx - e.a)


def image_count(e: ExternalPoint, xs: Iterable[Rat]) -> int:
    """How many x in X the involution of E maps back into X.

    Fixed points are excluded (a collinear triple needs two distinct
    parabola points), as is the pole x = a.
    """
    xset = {_fraction(x) for x in xs}
    count = 0
    for x in xset:
        if x == e.a:
            continue
        y = involution_value(e, x)
        if y != x and y in xset:
            count += 1
    return count


def reps_collinear(e1: ExternalPoint, e2: ExternalPoint,
                   e3: ExternalPoint) -> bool:
    """Affine dependence of the three 4-vector representatives.

    The 1 in the third coordinate forces affine (not merely linear)
    combinations, so this is rank <= 1 of the two difference vectors.
    """
    if len({(e.a, e.b) for e in (e1, e2, e3)}) != 3:
        raise ValueError("reps_collinear needs three distinct points")
    r1, r2, r3 = e1.rep4(), e2.rep4(), e3.rep4()
    u = [r2[i] - r1[i] for i in range(4)]
    v = [r3[i] - r1[i] for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            if u[i] * v[j] - u[j] * v[i] != 0:
                return False
    return True
