"""Exact projective plane over the rationals.

Points and lines are homogeneous integer triples in a canonical form
(gcd 1, first nonzero coordinate positive), so projective equality is
plain tuple equality and both types can key dictionaries directly.
All predicates are computed in arbitrary-precision integer arithmetic;
there is no epsilon anywhere in this module.
"""

from __future__ import annotations

import re
from math import gcd, lcm
from typing import TYPE_CHECKING, Sequence, Union

if TYPE_CHECKING:
    from fractions import Fraction

# fractions (which loads decimal and numbers) is imported only in the
# functions that build or test a Fraction: a count call builds none
Rat = Union[int, "Fraction"]


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


# an ASCII integer or "p/q": read by int(), without Fraction's own
# string parser, which spends several times as long on a token
_INT_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _ratio(x) -> tuple[int, int]:
    """An exact rational x as integers (p, q), q > 0, with x = p/q: x is
    an int (a bool too), a Fraction or another rational, or a string
    that Fraction reads.  A float is refused: it is a binary fraction,
    not the decimal it prints as (0.1 is 3602879701896397 / 2**55); so is
    a string with a zero denominator.  Both raise ValueError."""
    if type(x) is str:
        m = _INT_RATIO.fullmatch(x)
        if m:
            p, q = int(m[1]), int(m[2] or 1)
            if q:
                return p, q
    elif isinstance(x, float):
        raise ValueError(f"{x!r} is a float, not an exact rational")
    elif hasattr(x, "denominator"):
        return x.numerator, x.denominator
    from fractions import Fraction  # any other string (or p/0), a Decimal
    try:
        f = Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"{x!r} has a zero denominator") from None
    return f.numerator, f.denominator


def _fraction(x) -> Fraction:
    """The exact rational x (as _ratio reads it) as a Fraction."""
    from fractions import Fraction
    return Fraction(*_ratio(x))


def _int_arg(value, name: str) -> int:
    """value, if it is an int and not a bool; else ValueError naming the
    argument (a count or a size given as 2.5 or True)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, not {value!r}")
    return value


def integral(rs: Sequence[Rat]) -> list[int]:
    """The rationals rs times the lcm of their denominators."""
    pqs = [_ratio(r) for r in rs]
    m = lcm(*(q for _, q in pqs))
    return [p * (m // q) for p, q in pqs]


def _triple(v: Sequence[int]) -> tuple[int, int, int]:
    """canonical(v), for three integers v only."""
    if len(v) == 3:
        try:
            return canonical(v)
        except TypeError:           # gcd refuses a float or a Fraction
            pass
    raise ValueError(f"{v!r} is not a homogeneous triple of integers")


class _Frozen:
    """An immutable value whose fields are the names in __slots__, in
    order.  __init__ takes them by position; a subclass that converts or
    checks a value overrides it and passes the results on.  Equal to,
    and hashed like, an object of the same class with equal _fields();
    repr'd as Name(field=value, ...); pickled and copied by calling the
    class again on its _fields().  A subclass whose last slots are
    derived overrides _fields to leave them out of all of these."""

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{self.__class__.__name__} takes "
                            f"{len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        pairs = zip(self.__slots__, self._fields())
        return (f"{self.__class__.__name__}("
                f"{', '.join(f'{name}={value!r}' for name, value in pairs)})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


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
