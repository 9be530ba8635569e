"""Ternary cubic forms with exact rational linear algebra.

A form is ten integers over the monomial basis
X^3, X^2Y, X^2Z, XY^2, XYZ, XZ^2, Y^3, Y^2Z, YZ^2, Z^3,
gcd-reduced with the first nonzero coefficient positive, so that
proportional forms compare equal.  Fitting a cubic through points is an
exact nullspace computation; no ranks are estimated numerically.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .projective import (ProjLine, ProjPoint, Rat, _Frozen, canonical,
                         integral)

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


def monomial_row(p: ProjPoint) -> list[int]:
    x, y, z = p.h
    return [x ** i * y ** j * z ** k for (i, j, k) in MONOMIALS]


def _nullspace_basis(rows: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """Primitive integer basis of the nullspace of a matrix with 10 columns.

    Incremental rational row reduction; stops as soon as the rank hits
    10.  Basis vectors follow the free-column order of the reduced
    echelon form, each scaled to a canonical integer vector.
    """
    ncols = 10
    pivots: dict[int, list[Fraction]] = {}   # pivot column -> reduced row
    for raw in rows:
        row = [Fraction(v) for v in raw]
        for col, prow in pivots.items():
            if row[col]:
                f = row[col]
                row = [a - f * b for a, b in zip(row, prow)]
        lead = next((c for c in range(ncols) if row[c]), None)
        if lead is None:
            continue
        inv = row[lead]
        row = [a / inv for a in row]
        for prow in pivots.values():
            if prow[lead]:
                f = prow[lead]
                prow[:] = [a - f * b for a, b in zip(prow, row)]
        pivots[lead] = row
        if len(pivots) == ncols:
            return []
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for col, prow in pivots.items():
            vec[col] = -prow[fc]
        basis.append(canonical(integral(vec)))
    return basis


def fit_cubics(points: Sequence[ProjPoint]) -> list[CubicForm]:
    """Basis of all cubics vanishing on the given points (empty if none)."""
    if not points:
        raise ValueError("fit_cubics needs at least one point")
    return [CubicForm(b) for b in
            _nullspace_basis(monomial_row(p) for p in points)]


# --- divisibility by linear forms -----------------------------------------

def _degree_monomials(d: int) -> list[tuple[int, int, int]]:
    """Exponent triples of degree d, in the order of MONOMIALS."""
    return [(i, j, d - i - j) for i in range(d, -1, -1)
            for j in range(d - i, -1, -1)]


def _shift(e: tuple[int, ...], var: int, by: int) -> tuple[int, ...]:
    return tuple(x + by if v == var else x for v, x in enumerate(e))


def divide_by_line(coeffs: Sequence[Rat], degree: int,
                   line: ProjLine) -> Optional[list[Fraction]]:
    """Quotient coefficients of a degree-d form by a linear form, or None.

    The form is one {exponent triple: coefficient} map, divided with
    the highest power of v (the first variable with a nonzero line
    coefficient) first: a term c*m with v | m puts q = c / l_v on m / v
    in the quotient and subtracts q * (m / v) * L, which clears it.  The
    terms free of v that remain must be exactly zero.  Coefficients and
    quotient follow the degree's monomial list (MONOMIALS for degree 3);
    a list of another length raises ValueError.
    """
    monos = _degree_monomials(degree)
    if len(coeffs) != len(monos):
        raise ValueError(f"a degree-{degree} form has {len(monos)} "
                         f"coefficients, not {len(coeffs)}")
    la = line.l
    var = next(v for v in range(3) if la[v])
    rem = {e: Fraction(c) for e, c in zip(monos, coeffs)}
    quot: dict[tuple[int, int, int], Fraction] = {}
    for e in sorted(monos, key=lambda e: -e[var]):
        c = rem[e]
        if not c:
            continue
        if not e[var]:
            return None
        base = _shift(e, var, -1)
        quot[base] = q = c / la[var]
        for v in range(3):
            rem[_shift(base, v, 1)] -= q * la[v]
    return [quot.get(e, Fraction(0)) for e in _degree_monomials(degree - 1)]


class CubicClassification(_Frozen):
    # kind is three-lines | line-plus-conic | no-candidate-factor, and
    # line_factors the ProjLines peeled off
    __slots__ = ("kind", "line_factors")


def classify_with_candidates(f: CubicForm,
                             candidate_lines: Sequence[ProjLine]
                             ) -> CubicClassification:
    """Peel candidate line factors off a cubic and classify what remains.

    Never claims irreducibility: a cubic none of whose candidate lines
    divide is reported as no-candidate-factor, nothing more.
    """
    coeffs: list[Rat] = list(f.coefficients)
    degree = 3
    factors: list[ProjLine] = []
    progress = True
    while degree > 1 and progress:
        progress = False
        for line in candidate_lines:
            q = divide_by_line(coeffs, degree, line)
            if q is not None:
                coeffs = q
                degree -= 1
                factors.append(line)
                progress = True
                break
    if degree == 1:
        return CubicClassification("three-lines", tuple(factors))
    if degree == 2:
        return CubicClassification("line-plus-conic", tuple(factors))
    return CubicClassification("no-candidate-factor", ())


def cuspidal_form() -> CubicForm:
    """y = x^3 homogenized: X^3 - YZ^2."""
    return CubicForm((1, 0, 0, 0, 0, 0, 0, 0, -1, 0))


def weierstrass_form(a: Rat, b: Rat) -> CubicForm:
    """y^2 = x^3 + ax + b homogenized: -X^3 - aXZ^2 + Y^2Z - bZ^3."""
    return CubicForm((-1, 0, 0, 0, 0, -a, 0, 1, 0, -b))
