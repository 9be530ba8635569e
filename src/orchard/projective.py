"""Exact projective plane over the rationals.

Points and lines are homogeneous integer triples in a canonical form
(gcd 1, first nonzero coordinate positive), so projective equality is
plain tuple equality and both types can key dictionaries directly.
All predicates are computed in arbitrary-precision integer arithmetic;
there is no epsilon anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence, Union

Rat = Union[int, Fraction]


class DegenerateError(ValueError):
    """Raised when an operation's inputs are geometrically degenerate."""


def canonical(cs: Sequence[int]) -> tuple[int, ...]:
    """An integer vector divided by its gcd, with its first nonzero
    entry made positive: proportional vectors map to the same tuple."""
    g = gcd(*cs)
    if not g:
        raise ValueError("the zero vector has no canonical form")
    for c in cs:
        if c:
            if c < 0:
                g = -g
            break
    return tuple([c // g for c in cs])


def integral(rs: Sequence[Rat]) -> list[int]:
    """The rationals rs times the lcm of their denominators."""
    fs = [Fraction(r) for r in rs]
    m = lcm(*(f.denominator for f in fs))
    return [f.numerator * (m // f.denominator) for f in fs]


def _triple(v: Sequence[int]) -> tuple[int, int, int]:
    if len(v) != 3:
        raise ValueError(f"{v!r} is not a homogeneous triple")
    return canonical(v)


@dataclass(frozen=True)
class ProjPoint:
    """A point of the real projective plane, canonical (X, Y, Z)."""

    h: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "h", _triple(self.h))

    @property
    def at_infinity(self) -> bool:
        return self.h[2] == 0

    def affine(self) -> tuple[Fraction, Fraction]:
        x, y, z = self.h
        if z == 0:
            raise ValueError(f"{self} is at infinity, no affine coordinates")
        return Fraction(x, z), Fraction(y, z)

    def __repr__(self):
        return f"ProjPoint{self.h}"


@dataclass(frozen=True)
class ProjLine:
    """A line aX + bY + cZ = 0, canonical (a, b, c)."""

    l: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "l", _triple(self.l))

    def __repr__(self):
        return f"ProjLine{self.l}"


LINE_AT_INFINITY = ProjLine((0, 0, 1))


def mk_point(x: Rat, y: Rat) -> ProjPoint:
    """Affine point (x, y) as a canonical projective point."""
    fx, fy = Fraction(x), Fraction(y)
    return ProjPoint((fx.numerator * fy.denominator,
                      fy.numerator * fx.denominator,
                      fx.denominator * fy.denominator))


def point_from_rationals(hx: Rat, hy: Rat, hz: Rat) -> ProjPoint:
    """Homogeneous rational triple (cleared and canonicalized)."""
    return ProjPoint(integral((hx, hy, hz)))


def direction_point(slope: Rat | None) -> ProjPoint:
    """Point at infinity of all lines with the given slope (None = vertical)."""
    if slope is None:
        return ProjPoint((0, 1, 0))
    s = Fraction(slope)
    return ProjPoint((s.denominator, s.numerator, 0))


def _cross(u: Sequence[int], v: Sequence[int]) -> tuple[int, int, int]:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _dot(u: Sequence[Rat], v: Sequence[Rat]) -> Rat:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def collinear(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> bool:
    """True iff det[p; q; r] = p . (q x r) = 0 over the integers."""
    return _dot(p.h, _cross(q.h, r.h)) == 0


def join(p: ProjPoint, q: ProjPoint) -> ProjLine:
    """The unique line through two distinct points."""
    if p == q:
        raise DegenerateError(f"degenerate join: {p} = {q}")
    return ProjLine(_cross(p.h, q.h))


def meet(l: ProjLine, m: ProjLine) -> ProjPoint:
    """The unique common point of two distinct lines (possibly at infinity)."""
    if l == m:
        raise DegenerateError(f"degenerate meet: {l} = {m}")
    return ProjPoint(_cross(l.l, m.l))


def incident(p: ProjPoint, l: ProjLine) -> bool:
    return _dot(p.h, l.l) == 0


def apply_transform(m: Sequence[Sequence[Rat]], p: ProjPoint) -> ProjPoint:
    """Image of p under the projective map with matrix m (must be invertible)."""
    rows = [[Fraction(e) for e in row] for row in m]
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError("transform matrix must be 3x3")
    if _dot(rows[0], _cross(rows[1], rows[2])) == 0:
        raise ValueError("singular transform matrix")
    return point_from_rationals(*(_dot(row, p.h) for row in rows))


def triangle_sides(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint
                   ) -> tuple[tuple[ProjPoint, ProjPoint], ...]:
    """The sides 1, 2, 3 of the triangle P1P2P3 as (A, B) vertex pairs:
    side i runs from P_{i-1} to P_{i+1} (indices mod 3), opposite P_i."""
    return ((p3, p2), (p1, p3), (p2, p1))


def signed_ratio(x: ProjPoint, a: ProjPoint, b: ProjPoint) -> Fraction:
    """Signed affine ratio AX/XB of a point X on the line AB.

    A and B must be distinct affine points; X may be the point at
    infinity of the line (ratio -1).  X = B is rejected: the ratio has
    a pole there and no construction here evaluates it.
    """
    if a == b:
        raise DegenerateError("signed_ratio: base points coincide")
    if a.h[2] == 0 or b.h[2] == 0:
        raise ValueError("signed_ratio: base points must be affine")
    if x == b:
        raise DegenerateError("signed_ratio: pole at X = B")
    if not incident(x, join(a, b)):
        raise ValueError("signed_ratio: X not on line AB")
    if x.at_infinity:
        return Fraction(-1)
    # along an affine coordinate in which A and B differ
    pa, pb, px = a.affine(), b.affine(), x.affine()
    k = 0 if pa[0] != pb[0] else 1
    return (px[k] - pa[k]) / (pb[k] - px[k])
