"""Exact projective plane over the rationals.

Points and lines are homogeneous integer triples in a canonical form
(gcd 1, first nonzero coordinate positive), so projective equality is
plain tuple equality and both types can key dictionaries directly.
All predicates are computed in arbitrary-precision integer arithmetic;
there is no epsilon anywhere in this module.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

# the exact kernel, re-exported: orchard.projective.canonical and the rest
from .exact import (Rat, _Frozen, _cross, _fraction, _int_arg, _ratio,
                    _triple, canonical, integral)

if TYPE_CHECKING:
    from fractions import Fraction


class DegenerateError(ValueError):
    """Raised when an operation's inputs are geometrically degenerate."""


class ProjPoint(_Frozen):
    """A point of the real projective plane, canonical (X, Y, Z)."""

    __slots__ = ("h",)
    h: tuple[int, int, int]

    def __init__(self, h: Sequence[int]):
        object.__setattr__(self, "h", _triple(h))

    def _fields(self):     # hashed in bulk: 3x the speed of the generic one
        return (self.h,)

    @property
    def at_infinity(self) -> bool:
        return self.h[2] == 0

    def affine(self) -> tuple[Fraction, Fraction]:
        from fractions import Fraction
        x, y, z = self.h
        if z == 0:
            raise ValueError(f"{self} is at infinity, no affine coordinates")
        return Fraction(x, z), Fraction(y, z)

    def __repr__(self):
        return f"ProjPoint{self.h}"


class ProjLine(_Frozen):
    """A line aX + bY + cZ = 0, canonical (a, b, c)."""

    __slots__ = ("l",)
    l: tuple[int, int, int]

    def __init__(self, l: Sequence[int]):
        super().__init__(_triple(l))

    def __repr__(self):
        return f"ProjLine{self.l}"


def mk_point(x: Rat, y: Rat) -> ProjPoint:
    """Affine point (x, y) as a canonical projective point."""
    (p1, q1), (p2, q2) = _ratio(x), _ratio(y)
    return ProjPoint((p1 * q2, p2 * q1, q1 * q2))


def point_from_rationals(hx: Rat, hy: Rat, hz: Rat) -> ProjPoint:
    """Homogeneous rational triple (cleared and canonicalized)."""
    return ProjPoint(integral((hx, hy, hz)))


def direction_point(slope: Rat | None) -> ProjPoint:
    """Point at infinity of all lines with the given slope (None = vertical)."""
    if slope is None:
        return ProjPoint((0, 1, 0))
    p, q = _ratio(slope)
    return ProjPoint((q, p, 0))


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
        from fractions import Fraction
        return Fraction(-1)
    # along an affine coordinate in which A and B differ
    pa, pb, px = a.affine(), b.affine(), x.affine()
    k = 0 if pa[0] != pb[0] else 1
    return (px[k] - pa[k]) / (pb[k] - px[k])
