"""Ternary cubic forms with exact rational linear algebra.

A form is ten integers over the monomial basis
X^3, X^2Y, X^2Z, XY^2, XYZ, XZ^2, Y^3, Y^2Z, YZ^2, Z^3,
gcd-reduced with the first nonzero coefficient positive, so that
proportional forms compare equal.  Fitting a cubic through points is an
exact nullspace computation; no ranks are estimated numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .projective import ProjLine, ProjPoint, Rat

MONOMIALS = ((3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
             (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3))

_NAMES = ("X^3", "X^2*Y", "X^2*Z", "X*Y^2", "X*Y*Z",
          "X*Z^2", "Y^3", "Y^2*Z", "Y*Z^2", "Z^3")


def _canonical_coeffs(cs: Sequence[int]) -> tuple[int, ...]:
    if all(c == 0 for c in cs):
        raise ValueError("zero cubic form")
    g = 0
    for c in cs:
        g = gcd(g, c)
    lead = next(c for c in cs if c != 0)
    if lead < 0:
        g = -g
    return tuple(c // g for c in cs)


@dataclass(frozen=True)
class CubicForm:
    coefficients: tuple[int, ...]

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coefficients)
        if len(cs) != 10:
            raise ValueError("a cubic form has 10 coefficients")
        object.__setattr__(self, "coefficients", _canonical_coeffs(cs))

    @classmethod
    def from_rationals(cls, cs: Sequence[Rat]) -> "CubicForm":
        fs = [Fraction(c) for c in cs]
        m = 1
        for f in fs:
            m = m * f.denominator // gcd(m, f.denominator)
        return cls(tuple(int(f * m) for f in fs))

    def evaluate(self, p: ProjPoint) -> int:
        x, y, z = p.h
        c = self.coefficients
        return (c[0] * x * x * x + c[1] * x * x * y + c[2] * x * x * z
                + c[3] * x * y * y + c[4] * x * y * z + c[5] * x * z * z
                + c[6] * y * y * y + c[7] * y * y * z + c[8] * y * z * z
                + c[9] * z * z * z)

    def contains(self, p: ProjPoint) -> bool:
        return self.evaluate(p) == 0

    def __str__(self):
        parts = []
        for c, name in zip(self.coefficients, _NAMES):
            if c:
                sign = "+" if c > 0 else "-"
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                parts.append(f"{sign} {mag}{name}")
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]


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
        m = 1
        for v in vec:
            m = m * v.denominator // gcd(m, v.denominator)
        basis.append(_canonical_coeffs([int(v * m) for v in vec]))
    return basis


def fit_cubics(points: Sequence[ProjPoint]) -> list[CubicForm]:
    """Basis of all cubics vanishing on the given points (empty if none)."""
    if not points:
        raise ValueError("fit_cubics needs at least one point")
    return [CubicForm(b) for b in
            _nullspace_basis(monomial_row(p) for p in points)]


def on_common_cubic(points: Sequence[ProjPoint]) -> Optional[CubicForm]:
    """Some cubic through all the points, or None if no nonzero one exists."""
    basis = fit_cubics(points)
    return basis[0] if basis else None


# --- divisibility by linear forms -----------------------------------------

def _as_xdict(coeffs: Sequence[Rat], degree: int, var: int) -> dict:
    """Form of the given degree as {power of chosen var: residual form}."""
    monos = _degree_monomials(degree)
    out: dict[int, dict] = {}
    for (e, c) in zip(monos, coeffs):
        if c:
            rest = tuple(e[v] for v in range(3) if v != var)
            out.setdefault(e[var], {})[rest] = Fraction(c)
    return out


def _degree_monomials(d: int) -> list[tuple[int, int, int]]:
    if d == 3:
        return list(MONOMIALS)
    return [(i, j, d - i - j) for i in range(d, -1, -1)
            for j in range(d - i, -1, -1)]


def divide_by_line(coeffs: Sequence[Rat], degree: int,
                   line: ProjLine) -> Optional[list[Fraction]]:
    """Quotient coefficients of a degree-d form by a linear form, or None.

    Treats the form as a polynomial in the variable with nonzero line
    coefficient and performs synthetic division; exact zero remainder
    is required.  Quotient is over the degree-(d-1) monomial list.
    """
    la = line.l
    var = next(v for v in range(3) if la[v])
    others = [v for v in range(3) if v != var]
    fdict = _as_xdict(coeffs, degree, var)
    lead = Fraction(la[var])
    tail = {others[0]: Fraction(la[others[0]]),
            others[1]: Fraction(la[others[1]])}

    # rem maps (power of var, rest-exponents) -> coefficient
    rem: dict[tuple, Fraction] = {}
    for p, d in fdict.items():
        for rest, c in d.items():
            rem[(p, rest)] = c
    quot: dict[tuple, Fraction] = {}
    for p in range(degree, 0, -1):
        terms = [(key, c) for key, c in rem.items() if key[0] == p and c]
        for (p0, rest), c in terms:
            q = c / lead
            qkey = (p0 - 1, rest)
            quot[qkey] = quot.get(qkey, Fraction(0)) + q
            del rem[(p0, rest)]
            # subtract q * var^{p-1} * (tail part of the line)
            for idx, v in enumerate(others):
                if tail[v]:
                    nrest = list(rest)
                    nrest[idx] += 1
                    rkey = (p0 - 1, tuple(nrest))
                    rem[rkey] = rem.get(rkey, Fraction(0)) - q * tail[v]
    if any(rem.values()):
        return None
    out = []
    for e in _degree_monomials(degree - 1):
        rest = tuple(e[v] for v in range(3) if v != var)
        out.append(quot.get((e[var], rest), Fraction(0)))
    return out


def line_divides(f: CubicForm, line: ProjLine) -> bool:
    return divide_by_line(f.coefficients, 3, line) is not None


def cubic_from_lines(l1: ProjLine, l2: ProjLine, l3: ProjLine) -> CubicForm:
    """The degenerate cubic that is the product of three lines."""
    cs = [0] * 10
    for a in range(3):
        for b in range(3):
            for c in range(3):
                e = [0, 0, 0]
                e[a] += 1
                e[b] += 1
                e[c] += 1
                cs[MONOMIALS.index(tuple(e))] += l1.l[a] * l2.l[b] * l3.l[c]
    return CubicForm(tuple(cs))


@dataclass(frozen=True)
class CubicClassification:
    kind: str                      # three-lines | line-plus-conic | no-candidate-factor
    line_factors: tuple[ProjLine, ...]
    residual_degree: int


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
        return CubicClassification("three-lines", tuple(factors), 1)
    if degree == 2:
        return CubicClassification("line-plus-conic", tuple(factors), 2)
    return CubicClassification("no-candidate-factor", (), 3)


def cuspidal_form() -> CubicForm:
    """y = x^3 homogenized: X^3 - YZ^2."""
    return CubicForm((1, 0, 0, 0, 0, 0, 0, 0, -1, 0))


def weierstrass_form(a: Rat, b: Rat) -> CubicForm:
    """y^2 = x^3 + ax + b homogenized: -X^3 - aXZ^2 + Y^2Z - bZ^3."""
    a, b = Fraction(a), Fraction(b)
    return CubicForm.from_rationals((-1, 0, 0, 0, 0, -a, 0, 1, 0, -b))
