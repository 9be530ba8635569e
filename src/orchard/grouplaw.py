"""Collinearity as a group law on cubics: the curves, exact group
elements, and the one exhaustive check of a law.

CuspidalCubic (y = x^3, parametrized by x, where three distinct points
are collinear exactly when their parameters sum to 0) and
WeierstrassCurve (y^2 = x^3 + ax + b with its chord-tangent group) each
hold their one equation as a CubicForm.  _law_witness checks a law on a
point list with given (piece, value) roles and names the first triple
on which collinearity and the law disagree (LawWitness); the ten point
lattice (orchard.tenpoint) and the group descriptions of degenerate
cubics (orchard.descriptions) are checked through it.  All values are
exact rationals; verification always runs against exact integer
collinearity (the member lists of the rich lines), never against the
law itself.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import product
from math import isqrt
from typing import Optional, Sequence

from .cubics import cuspidal_form, weierstrass_form
from .projective import (DegenerateError, ProjPoint, Rat, _Frozen, _fraction,
                         mk_point)
from .richlines import _rich_lines

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
