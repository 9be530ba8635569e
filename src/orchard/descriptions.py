"""Abelian-group descriptions of collinearity on degenerate cubics.

Each description assigns to the points of three curve pieces values in
an abelian group so that three distinct points, one per piece, are
collinear exactly when their values combine to the identity.  Shipped
families: the cuspidal cubic y = x^3, three parallel lines, triangle
sides (signed-ratio products), and a conic plus the line at infinity
(parabola and hyperbola variants).

Each description is the only definition of its law:
menelaus_params and conic_line_params look one triple up through it,
and description_witness, on the checker of orchard.grouplaw, is the
one judge of it.  group_check_cases gives the cases that `orchard
group-check` runs through it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Optional

from .generators import gen_cubic_power, gen_parallel_aps, ratio_point
from .grouplaw import (ADDITIVE, MULTIPLICATIVE, CuspidalCubic, GroupElement,
                       LawWitness, _law_witness)
from .projective import (DegenerateError, ProjPoint, _Frozen, collinear,
                         incident, join, meet, mk_point, point_from_rationals,
                         signed_ratio, triangle_sides)
from .richlines import PointSet


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


# --- exhaustive verification -------------------------------------------------

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


# --- the cases of `orchard group-check` ---------------------------------------

def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.randint(1, 6))


def _nonzero(rng: random.Random) -> Fraction:
    while True:
        f = _random_fraction(rng)
        if f not in (0, -1):
            return f


_TRIANGLE = (mk_point(0, 0), mk_point(4, 0), mk_point(1, 3))


def _triangle_cases(trials: int, rng: random.Random):
    """One point per side of _TRIANGLE, for each trial that is not
    degenerate: at random ratios on even trials, cut by a random line
    (so collinear) on odd ones."""
    sides = triangle_sides(*_TRIANGLE)
    for t in range(trials):
        if t % 2 == 0:
            xs = [ratio_point(a, b, _nonzero(rng)) for a, b in sides]
        else:
            q1 = mk_point(_random_fraction(rng), _random_fraction(rng))
            q2 = mk_point(_random_fraction(rng) + 20, _random_fraction(rng))
            line = join(q1, q2)
            try:
                xs = [meet(line, join(a, b)) for a, b in sides]
            except DegenerateError:
                continue
            if any(x in _TRIANGLE for x in xs):
                continue
        yield PointSet(xs)


def _conic_cases(parabola: bool, trials: int, rng: random.Random):
    """Two points of y = x^2 (or xy = 1) and a direction, for each trial
    that is not degenerate: the chord's direction on even trials, a
    perturbed one on odd trials."""
    for t in range(trials):
        p = _nonzero(rng)
        q = _nonzero(rng)
        if p == q:
            continue
        if parabola:
            pt1, pt2 = mk_point(p, p * p), mk_point(q, q * q)
            s = p + q if t % 2 == 0 else p + q + _nonzero(rng)
        else:
            pt1, pt2 = mk_point(p, 1 / p), mk_point(q, 1 / q)
            s = -1 / (p * q) if t % 2 == 0 else -1 / (p * q) * _nonzero(rng)
        if s != 0:
            yield PointSet((pt1, pt2, point_from_rationals(1, s, 0)))


def group_check_cases(config: str, n: int, trials: int, seed: int
                      ) -> tuple[GroupDescription, Iterable[PointSet]]:
    """The description that `orchard group-check --config config` checks
    and its cases: the n-point example1 or example4 set, exhaustively;
    else trials sampled triples, from a generator seeded with seed."""
    rng = random.Random(seed)
    if config == "example1":
        return parallel_lines_description(), [gen_parallel_aps(n)]
    if config == "example4":
        return cuspidal_description(), [gen_cubic_power(n)]
    if config == "triangle":
        return triangle_description(*_TRIANGLE), _triangle_cases(trials, rng)
    if config == "parabola-inf":
        return (parabola_infinity_description(),
                _conic_cases(True, trials, rng))
    return hyperbola_infinity_description(), _conic_cases(False, trials, rng)
