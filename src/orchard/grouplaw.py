"""Abelian-group descriptions of collinearity on (degenerate) cubics.

Each description assigns to the points of three curve pieces values in
an abelian group so that three distinct points, one per piece, are
collinear exactly when their values combine to the identity.  Shipped
families: the cuspidal cubic y = x^3, Weierstrass curves, three
parallel lines, triangle sides (signed-ratio products), and a conic
plus the line at infinity (parabola and hyperbola variants).

Each description is the only definition of its law:
menelaus_params and conic_line_params look one triple up through it,
and description_witness is the one judge of it.
All values are exact rationals; verification always runs against exact
integer collinearity (the member lists of the rich lines), never
against the law itself.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import product
from math import isqrt
from typing import Optional, Sequence

from .cubics import CubicForm, cuspidal_form, weierstrass_form
from .projective import (DegenerateError, ProjPoint, Rat, _Frozen, _fraction,
                         collinear, incident, join, mk_point, signed_ratio,
                         triangle_sides)
from .richlines import PointSet, _rich_lines

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
# operation -> (identity, combine, inverse, the sign that combines)
_LAWS = {ADDITIVE: (0, operator.add, operator.neg, " + "),
         MULTIPLICATIVE: (1, operator.mul, lambda v: 1 / Fraction(v), " * ")}


class GroupElement(_Frozen):
    __slots__ = ("value", "operation")

    def __init__(self, value: Rat, operation: str):
        value = value if isinstance(value, Fraction) else _fraction(value)
        if operation not in _LAWS:
            raise ValueError(f"unknown group operation {operation!r}")
        if operation == MULTIPLICATIVE and value == 0:
            raise ValueError("multiplicative group element cannot be 0")
        super().__init__(value, operation)

    @property
    def is_identity(self) -> bool:
        return self.value == _LAWS[self.operation][0]

    def combine(self, other: "GroupElement") -> "GroupElement":
        if self.operation != other.operation:
            raise ValueError("mixed group operations")
        return GroupElement(_LAWS[self.operation][1](self.value, other.value),
                            self.operation)


# --- cuspidal cubic y = x^3 -------------------------------------------------

def cuspidal_third(p: Rat, q: Rat) -> Fraction:
    """Parameter of the third intersection of the chord through the
    curve points with parameters p and q on y = x^3."""
    fp, fq = _fraction(p), _fraction(q)
    if fp == fq:
        raise DegenerateError("cuspidal_third: tangent case p = q excluded")
    return -fp - fq


class CuspidalCubic:
    """y = x^3 with its additive parametrization by x.  form is its one
    equation; the parametrization covers the affine points only, so
    contains leaves out (0:1:0), the form's one point at infinity."""

    form = cuspidal_form()

    def lift(self, t: Rat) -> ProjPoint:
        ft = _fraction(t)
        return mk_point(ft, ft ** 3)

    def contains(self, p: ProjPoint) -> bool:
        return p.h[2] != 0 and self.form.contains(p)

    def param(self, p: ProjPoint) -> Fraction:
        if not self.contains(p):
            raise ValueError(f"{p} is not an affine point of y = x^3")
        return p.affine()[0]

    def third(self, p: ProjPoint, q: ProjPoint) -> ProjPoint:
        return self.lift(cuspidal_third(self.param(p), self.param(q)))


# --- Weierstrass curves y^2 = x^3 + ax + b ----------------------------------

WEIERSTRASS_IDENTITY = ProjPoint((0, 1, 0))


class WeierstrassCurve(_Frozen):
    """y^2 = x^3 + ax + b; form is its one equation, whose only point at
    infinity, (0:1:0), is the group's identity.  form is derived from a
    and b, so == and repr leave it out.  A singular curve (4a^3 + 27b^2
    = 0) has no group law on all its points and is refused."""

    __slots__ = ("a", "b", "form")

    def __init__(self, a: Rat, b: Rat):
        a, b = _fraction(a), _fraction(b)
        if 4 * a ** 3 + 27 * b ** 2 == 0:
            raise ValueError(f"y^2 = x^3 + {a}x + {b} is singular")
        super().__init__(a, b, weierstrass_form(a, b))

    def _fields(self):
        return self.a, self.b

    def contains(self, p: ProjPoint) -> bool:
        return self.form.contains(p)

    def lift(self, x: Rat) -> list[ProjPoint]:
        """The 0, 1 or 2 rational points of the curve above x: (x, y)
        then (x, -y) for the exact rational square root y of the right
        side, if it has one."""
        fx = _fraction(x)
        y2 = fx ** 3 + self.a * fx + self.b
        n, d = isqrt(max(y2.numerator, 0)), isqrt(y2.denominator)
        if n * n != y2.numerator or d * d != y2.denominator:
            return []
        y = Fraction(n, d)
        return [mk_point(fx, y)] + ([mk_point(fx, -y)] if y else [])

    def _require(self, p: ProjPoint):
        if not self.contains(p):
            raise ValueError(f"{p} is not on y^2 = x^3 + {self.a}x + {self.b}")

    def neg(self, p: ProjPoint) -> ProjPoint:
        self._require(p)
        if p == WEIERSTRASS_IDENTITY:
            return p
        x, y = p.affine()
        return mk_point(x, -y)

    def third(self, p: ProjPoint, q: ProjPoint) -> ProjPoint:
        """Third intersection of the chord (tangent if p = q)."""
        self._require(p)
        self._require(q)
        if p == WEIERSTRASS_IDENTITY and q == WEIERSTRASS_IDENTITY:
            return WEIERSTRASS_IDENTITY     # inflection at infinity
        if p == WEIERSTRASS_IDENTITY:
            return self.neg(q)
        if q == WEIERSTRASS_IDENTITY:
            return self.neg(p)
        x1, y1 = p.affine()
        x2, y2 = q.affine()
        if x1 == x2 and y1 == -y2:
            return WEIERSTRASS_IDENTITY     # vertical chord or tangent
        if p == q:
            m = (3 * x1 * x1 + self.a) / (2 * y1)
        else:
            m = (y2 - y1) / (x2 - x1)
        x3 = m * m - x1 - x2
        y3 = y1 + m * (x3 - x1)
        return mk_point(x3, y3)

    def add(self, p: ProjPoint, q: ProjPoint) -> ProjPoint:
        return self.neg(self.third(p, q))


# --- descriptions ----------------------------------------------------------

def _slope_of_direction(d: ProjPoint) -> Fraction:
    dx, dy, dz = d.h
    if dz != 0:
        raise ValueError(f"{d} is not a point at infinity")
    if dx == 0:
        raise ValueError("vertical direction has no finite slope")
    return Fraction(dy, dx)


def _conic_value(i: int, p: ProjPoint) -> Fraction:
    """x on the conic (pieces 1, 2); minus the slope at infinity (piece 3)."""
    return -_slope_of_direction(p) if i == 3 else p.affine()[0]


class GroupDescription(_Frozen):
    """A parametrization bundle realizing collinearity as a group law:
    assign(p) gives the piece indices (a subset of 1, 2, 3) that p
    belongs to and raises off the pieces; value(piece, p) is the exact
    group value of p on that piece."""

    __slots__ = ("kind", "operation", "assign", "value")

    def element(self, piece: int, p: ProjPoint) -> GroupElement:
        return GroupElement(self.value(piece, p), self.operation)


def cuspidal_description() -> GroupDescription:
    curve = CuspidalCubic()

    def assign(p):
        if not curve.contains(p):
            raise ValueError(f"{p} not on y = x^3")
        return (1, 2, 3)

    return GroupDescription("cuspidal-cubic", ADDITIVE, assign,
                            lambda i, p: curve.param(p))


def parallel_lines_description() -> GroupDescription:
    def assign(p):
        if not p.at_infinity:
            x, y = p.affine()
            if y in (0, 1, 2):
                return (int(y) + 1,)
        raise ValueError(f"{p} not on the rows y = 0, 1, 2")

    def value(i, p):
        x, y = p.affine()
        if int(y) + 1 != i:
            raise ValueError(f"{p} not on row {i}")
        return x if i != 2 else -2 * x

    return GroupDescription("three-parallel-lines", ADDITIVE, assign, value)


def triangle_description(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint
                         ) -> GroupDescription:
    if collinear(p1, p2, p3):
        raise DegenerateError("triangle_description: collinear vertices")
    ends = dict(enumerate(triangle_sides(p1, p2, p3), 1))
    sides = {i: join(*ends[i]) for i in (1, 2, 3)}

    def assign(p):
        if p in (p1, p2, p3):
            raise ValueError("vertices are singular points of the side cubic")
        on = tuple(i for i in (1, 2, 3) if incident(p, sides[i]))
        if not on:
            raise ValueError(f"{p} not on any triangle side")
        return on

    def value(i, p):
        return -signed_ratio(p, *ends[i])

    return GroupDescription("triangle-menelaus", MULTIPLICATIVE, assign, value)


def parabola_infinity_description() -> GroupDescription:
    def assign(p):
        if p.at_infinity:
            _slope_of_direction(p)   # vertical tangent direction excluded
            return (3,)
        x, y = p.affine()
        if y == x * x:
            return (1, 2)
        raise ValueError(f"{p} not on y = x^2 or the line at infinity")

    return GroupDescription("parabola-plus-infinity", ADDITIVE, assign,
                            _conic_value)


def hyperbola_infinity_description() -> GroupDescription:
    def assign(p):
        if p.at_infinity:
            s = _slope_of_direction(p)
            if s == 0:
                raise ValueError("asymptotic direction excluded")
            return (3,)
        x, y = p.affine()
        if x * y == 1:
            return (1, 2)
        raise ValueError(f"{p} not on xy = 1 or the line at infinity")

    return GroupDescription("hyperbola-plus-infinity", MULTIPLICATIVE,
                            assign, _conic_value)


# --- one triple's parameters, looked up through its description --------------

def _piece_element(desc: GroupDescription, k: int,
                   p: ProjPoint) -> GroupElement:
    if k not in desc.assign(p):
        raise ValueError(f"{p} is not on piece {k} of {desc.kind}")
    return desc.element(k, p)


def menelaus_params(p1: ProjPoint, p2: ProjPoint, p3: ProjPoint,
                    x1: ProjPoint, x2: ProjPoint, x3: ProjPoint
                    ) -> tuple[tuple[GroupElement, GroupElement, GroupElement], bool]:
    """Multiplicative side parameters of three points on a triangle's sides.

    u_i is the signed ratio of distances from X_i to the two vertices
    on its side, oriented so that X_1, X_2, X_3 are collinear exactly
    when u_1 u_2 u_3 = 1 (a convention locked by the determinant
    oracle in the test suite).
    """
    desc = triangle_description(p1, p2, p3)
    us = tuple(_piece_element(desc, k, x)
               for k, x in enumerate((x1, x2, x3), 1))
    return us, us[0].combine(us[1]).combine(us[2]).is_identity


def conic_line_params(variant: str, p: ProjPoint, q: ProjPoint, d: ProjPoint
                      ) -> tuple[GroupElement, GroupElement, GroupElement]:
    """Parameters for two conic points plus a direction.

    parabola: points (p, p^2), (q, q^2) and slope s map to p, q, -s in
    the additive group (chord slope is p + q).
    hyperbola: points (p, 1/p), (q, 1/q) and slope s map to p, q, -s in
    the multiplicative group (chord slope is -1/(pq)).
    """
    descs = {"parabola": parabola_infinity_description,
             "hyperbola": hyperbola_infinity_description}
    if variant not in descs:
        raise ValueError(f"unknown conic variant {variant!r}")
    desc = descs[variant]()
    e1, e2 = _piece_element(desc, 1, p), _piece_element(desc, 2, q)
    if p == q:
        raise DegenerateError("conic_line_params: equal conic points")
    return e1, e2, _piece_element(desc, 3, d)


# --- exhaustive verification -----------------------------------------------

class LawWitness(_Frozen):
    """Three distinct points, one on each of pieces 1, 2, 3, on which
    collinearity and the group law disagree.

    Each tuple is ordered by piece: indices are positions in the point
    list that was checked, values the points' group values on pieces
    1, 2, 3.  collinear is the exact collinearity verdict; the law's
    verdict is its negation.
    """

    __slots__ = ("indices", "points", "values", "operation", "collinear")

    def __str__(self) -> str:
        identity, _, _, op = _LAWS[self.operation]
        where = ", ".join(f"point {i} {p.h} on piece {piece}"
                          for piece, (i, p)
                          in enumerate(zip(self.indices, self.points), 1))
        combined = op.join(f"({v})" for v in self.values)
        if self.collinear:
            return f"{where} collinear but {combined} != {identity}"
        return f"{where} not collinear but {combined} == {identity}"


def _law_witness(points: Sequence[ProjPoint],
                 roles: Sequence[Sequence[tuple[int, Fraction]]],
                 operation: str) -> Optional[LawWitness]:
    """The first triple of distinct points, one role per piece, that
    breaks "collinear iff the values combine to the identity", or None.

    points are distinct; roles[i] lists the (piece, value) pairs of
    points[i].  Three distinct points are collinear exactly when one of
    the lines through >= 3 points, which the row enumeration streams
    with all their members, holds all three.  Collinear => law visits
    the role triples of each line as it goes by, and keeps only the
    line's number at its points.  Law => collinear: each (piece 1, piece
    2) role pair looks up the piece-3 value the law requires, and each
    candidate by the line numbers kept.  O(n^2) joins, no determinant.
    Roles rank by point, then by list order: a collinear witness comes
    first, on the line with the least two lowest members, least by the
    ranks of its roles; else the non-collinear one least by those ranks.
    """
    identity, combine, inverse, _ = _LAWS[operation]

    def split(idxs):
        parts: dict[int, list[tuple[int, Fraction]]] = {1: [], 2: [], 3: []}
        for i in idxs:
            for piece, v in roles[i]:
                parts[piece].append((i, v))
        return parts

    def witness(r1, r2, r3, on_line):
        idx = (r1[0], r2[0], r3[0])
        return LawWitness(idx, tuple(points[i] for i in idx),
                          (r1[1], r2[1], r3[1]), operation, on_line)

    # through[i]: the numbers of the streamed lines through point i
    through: list[set[int]] = [set() for _ in points]
    for n, members in enumerate(_rich_lines([p.h for p in points])):
        on = split(members)
        for r1, r2, r3 in product(on[1], on[2], on[3]):
            if len({r1[0], r2[0], r3[0]}) < 3:
                continue
            if combine(combine(r1[1], r2[1]), r3[1]) != identity:
                return witness(r1, r2, r3, True)
        for i in members:
            through[i].add(n)

    parts = split(range(len(points)))
    third: dict[Fraction, list[int]] = {}
    for i, v in parts[3]:
        third.setdefault(v, []).append(i)
    for r1, r2 in product(parts[1], parts[2]):
        (i1, v1), (i2, v2) = r1, r2
        if i1 == i2:
            continue
        try:
            need = inverse(combine(v1, v2))
        except ZeroDivisionError:       # 0 has no multiplicative inverse
            continue
        for i3 in third.get(need, ()):
            if (i3 not in (i1, i2)
                    and not through[i1] & through[i2] & through[i3]):
                return witness(r1, r2, (i3, need), False)
    return None


def description_witness(ps: PointSet,
                        desc: GroupDescription) -> Optional[LawWitness]:
    """The first cross-piece triple of distinct points of ps on which
    collinearity and the description's group law disagree, or None."""
    roles = [[(i, desc.value(i, p)) for i in desc.assign(p)]
             for p in ps.points]
    return _law_witness(ps.points, roles, desc.operation)


def verify_group_description(ps: PointSet, desc: GroupDescription) -> bool:
    """Distinct cross-piece triples are collinear exactly when their
    group values combine to the identity.

    Exhaustive: O(n^2) joins, then the member lists of the rich lines
    decide every triple (_law_witness).
    """
    return description_witness(ps, desc) is None

