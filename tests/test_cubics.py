import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from orchard import (CubicForm, ProjLine, ProjPoint, classify_with_candidates,
                     cuspidal_form, fit_cubics, gen_cubic_power, gen_grid,
                     join, mk_point, weierstrass_form)
from orchard.cubics import MONOMIALS
from orchard.fitting import divide_by_line

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=6)


def monomials(d):
    """Exponent triples of degree d: X first, then Y, then Z."""
    return [(i, j, d - i - j) for i in range(d, -1, -1)
            for j in range(d - i, -1, -1)]


def times_line(l, q, d):
    """Coefficients of L * q, q of degree d - 1, multiplied out term by
    term over the degree-d monomials."""
    out = dict.fromkeys(monomials(d), F(0))
    for (i, j, k), c in zip(monomials(d - 1), q):
        out[(i + 1, j, k)] += l[0] * c
        out[(i, j + 1, k)] += l[1] * c
        out[(i, j, k + 1)] += l[2] * c
    return list(out.values())


def lines_cubic(l1, l2, l3):
    """The cubic that is the product of three lines."""
    return CubicForm(times_line(l1.l, times_line(l2.l, l3.l, 2), 3))


ROWS = [ProjLine((0, 1, 0)), ProjLine((0, 1, -1)), ProjLine((0, 1, -2))]


def test_canonical_coefficients():
    f = CubicForm((2, 0, 0, 0, 0, 0, 0, 0, -2, 0))
    assert f == cuspidal_form()
    g = CubicForm((-3, 0, 0, 0, 0, 0, 0, 0, 3, 0))
    assert g == cuspidal_form()
    with pytest.raises(ValueError):
        CubicForm((0,) * 10)
    # rational coefficients are scaled exactly, not truncated
    assert CubicForm((F(3, 2), 0, 0, 0, 0, 0, 0, 0, -1, 0)) == \
        CubicForm((3, 0, 0, 0, 0, 0, 0, 0, -2, 0)) != cuspidal_form()
    assert weierstrass_form(F(1, 2), F(-1, 3)).coefficients == \
        (6, 0, 0, 0, 0, 3, 0, -6, 0, -2)


def test_contains():
    f = cuspidal_form()
    assert f.contains(mk_point(2, 8))
    assert not f.contains(mk_point(1, 2))
    rows = lines_cubic(*ROWS)
    from orchard import gen_parallel_aps
    assert all(rows.contains(p) for p in gen_parallel_aps(4).points)


@given(rationals, rationals,
       st.integers(min_value=-7, max_value=7).filter(lambda v: v != 0))
def test_homogeneity(x, y, lam):
    f = weierstrass_form(3, -2)
    p = mk_point(x, y)
    scaled = ProjPoint(tuple(lam * v for v in p.h))
    assert (f.evaluate(p) == 0) == (f.evaluate(scaled) == 0)
    # F(lam*P) = lam^3 F(P) on raw (non-canonical) coordinates
    raw = p.h
    val = f.evaluate(p)
    c = f.coefficients
    x0, y0, z0 = (lam * v for v in raw)
    vs = (c[0] * x0 ** 3 + c[1] * x0 ** 2 * y0 + c[2] * x0 ** 2 * z0
          + c[3] * x0 * y0 ** 2 + c[4] * x0 * y0 * z0 + c[5] * x0 * z0 ** 2
          + c[6] * y0 ** 3 + c[7] * y0 ** 2 * z0 + c[8] * y0 * z0 ** 2
          + c[9] * z0 ** 3)
    assert vs == lam ** 3 * val


def test_fit_nine_points_always_possible():
    rng = random.Random(1)
    for _ in range(5):
        pts = {mk_point(F(rng.randint(-30, 30), rng.randint(1, 5)),
                        F(rng.randint(-30, 30), rng.randint(1, 5)))
               for _ in range(9)}
        assert fit_cubics(sorted(pts, key=lambda p: p.h))


def test_fit_dimensions():
    rng = random.Random(7)
    gen = lambda: mk_point(F(rng.randint(-40, 40), rng.randint(1, 7)),
                           F(rng.randint(-40, 40), rng.randint(1, 7)))
    eight = [gen() for _ in range(8)]
    assert len(fit_cubics(eight)) == 2
    ten = [gen() for _ in range(10)]
    assert fit_cubics(ten) == []


def test_fit_recovers_cuspidal_cubic():
    pts = list(gen_cubic_power(5).points)[:10]
    basis = fit_cubics(pts)
    assert len(basis) == 1 and basis[0] == cuspidal_form()


def test_grid_plus_row_point_lies_on_rows_cubic():
    pts = list(gen_grid(3).points) + [mk_point(3, 0)]
    assert fit_cubics(pts) == [lines_cubic(*ROWS)]


def test_nine_grid_points_have_two_dim_space():
    # the 3x3 grid is cut out by the row and column cubics
    basis = fit_cubics(list(gen_grid(3).points))
    assert len(basis) == 2
    cols = lines_cubic(ProjLine((1, 0, 0)), ProjLine((1, 0, -1)),
                       ProjLine((1, 0, -2)))
    for f in (lines_cubic(*ROWS), cols):
        assert all(f.contains(p) for p in gen_grid(3).points)


def divides(f, line):
    return divide_by_line(f.coefficients, 3, line) is not None


def test_line_divides():
    rows = lines_cubic(*ROWS)
    assert divides(rows, ProjLine((0, 1, -1)))
    assert not divides(rows, ProjLine((1, 0, 0)))
    assert not divides(cuspidal_form(), ProjLine((0, 1, -1)))
    z_conic = CubicForm((0, 0, 1, 0, 0, 0, 0, 1, 0, -1))   # Z(X^2+Y^2-Z^2)
    assert divides(z_conic, ProjLine((0, 0, 1)))


def test_line_divides_implies_containment():
    rng = random.Random(3)
    line = ProjLine((2, -3, 1))
    q1 = CubicForm((1, 1, 0, 0, 1, 0, 2, 0, 0, 1))
    # build a cubic with the line as an explicit factor
    f = lines_cubic(line, ProjLine((1, 1, 1)), ProjLine((1, -1, 2)))
    assert divides(f, line)
    for _ in range(20):
        x = F(rng.randint(-20, 20), rng.randint(1, 5))
        # point of the line with this x
        a, b, c = line.l
        p = mk_point(x, F(-(a * x + c), b))
        assert f.contains(p)
    assert not divides(q1, line)


def test_classification():
    cls = classify_with_candidates(lines_cubic(*ROWS), ROWS)
    assert cls.kind == "three-lines"
    assert len(cls.line_factors) == 2       # third factor is the cofactor
    z_conic = CubicForm((0, 0, 1, 0, 0, 0, 0, 1, 0, -1))
    cls = classify_with_candidates(z_conic, [ProjLine((0, 0, 1))])
    assert cls.kind == "line-plus-conic"
    grid = gen_grid(3).points
    grid_lines = [ProjLine(l) for l in
                  sorted({join(p, q).l for p, q in combinations(grid, 2)})]
    assert len(grid_lines) == 20
    cls = classify_with_candidates(cuspidal_form(), grid_lines)
    assert cls.kind == "no-candidate-factor"


def test_double_line_factor():
    l = ProjLine((1, -1, 0))
    f = lines_cubic(l, l, ProjLine((0, 0, 1)))
    cls = classify_with_candidates(f, [l, ProjLine((1, 1, 1))])
    assert cls.kind == "three-lines"


def test_weierstrass_form_membership():
    f = weierstrass_form(0, 17)
    assert f.contains(mk_point(-2, 3))
    assert f.contains(mk_point(2, 5))
    assert f.contains(ProjPoint((0, 1, 0)))
    assert not f.contains(mk_point(0, 0))
    g = weierstrass_form(F(1, 2), F(3, 16))
    assert g.contains(mk_point(F(1, 2), F(3, 4)))   # 9/16 = 1/8 + 1/4 + 3/16


lines = (st.tuples(*[st.integers(-6, 6)] * 3).filter(any).map(ProjLine))


@given(st.integers(1, 3), lines, st.data())
def test_divide_by_line_inverts_multiplication(d, line, data):
    assert monomials(3) == list(MONOMIALS)
    n = len(monomials(d - 1))
    q = data.draw(st.lists(rationals, min_size=n, max_size=n))
    f = times_line(line.l, q, d)
    assert divide_by_line(f, d, line) == q
    # L cannot divide f + c*m for a monomial m free of v, the first
    # variable with a nonzero coefficient in L
    v = next(i for i in range(3) if line.l[i])
    free = [e for e in monomials(d) if e[v] == 0]
    at = monomials(d).index(data.draw(st.sampled_from(free)))
    f[at] += data.draw(rationals.filter(bool))
    assert divide_by_line(f, d, line) is None


def test_divide_by_line_rejects_wrong_length():
    with pytest.raises(ValueError):
        divide_by_line([1, 0, 0], 3, ProjLine((1, 0, 0)))
    line = ProjLine((1, -1, 0))
    f = list(lines_cubic(line, line, ProjLine((0, 0, 1))).coefficients)
    assert divide_by_line(f, 3, line) is not None
    with pytest.raises(ValueError):
        divide_by_line(f + [1], 3, line)
    with pytest.raises(ValueError):
        divide_by_line(f[:6], 3, line)
