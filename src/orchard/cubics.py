"""Ternary cubic forms.

A form is ten integers over the monomial basis
X^3, X^2Y, X^2Z, XY^2, XYZ, XZ^2, Y^3, Y^2Z, YZ^2, Z^3,
gcd-reduced with the first nonzero coefficient positive, so that
proportional forms compare equal.  Fitting cubics through points and
peeling line factors off them is orchard.fitting.
"""

from __future__ import annotations

from typing import Sequence

from .projective import ProjPoint, Rat, _Frozen, canonical, integral

MONOMIALS = ((3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
             (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3))


class CubicForm(_Frozen):
    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Sequence[Rat]):
        cs = tuple(coefficients)
        if len(cs) != 10:
            raise ValueError("a cubic form has 10 coefficients")
        super().__init__(canonical(integral(cs)))

    def evaluate(self, p: ProjPoint) -> int:
        x, y, z = p.h
        return sum(c * x ** i * y ** j * z ** k for c, (i, j, k)
                   in zip(self.coefficients, MONOMIALS) if c)

    def contains(self, p: ProjPoint) -> bool:
        return self.evaluate(p) == 0


def cuspidal_form() -> CubicForm:
    """y = x^3 homogenized: X^3 - YZ^2."""
    return CubicForm((1, 0, 0, 0, 0, 0, 0, 0, -1, 0))


def weierstrass_form(a: Rat, b: Rat) -> CubicForm:
    """y^2 = x^3 + ax + b homogenized: -X^3 - aXZ^2 + Y^2Z - bZ^3."""
    return CubicForm((-1, 0, 0, 0, 0, -a, 0, 1, 0, -b))
