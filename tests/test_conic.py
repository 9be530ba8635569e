import random
from fractions import Fraction as F

import pytest
from hypothesis import given, assume
import hypothesis.strategies as st

from orchard import (ExternalPoint, collinear, image_count, involution_value,
                     mk_point, parabola_collinear, reps_collinear)

rationals = st.fractions(min_value=-15, max_value=15, max_denominator=6)


def test_external_point_validation():
    with pytest.raises(ValueError):
        ExternalPoint(2, 4)           # on the parabola
    ExternalPoint(1, 0)               # 0 != 1, fine


def test_parabola_collinear_examples():
    e = ExternalPoint(0, -1)
    assert parabola_collinear(2, F(1, 2), e)
    assert not parabola_collinear(2, 1, e)
    e2 = ExternalPoint(1, 0)
    assert parabola_collinear(3, F(3, 2), e2)
    with pytest.raises(ValueError):
        parabola_collinear(2, 2, e)


def test_involution_examples():
    e = ExternalPoint(0, -1)
    assert involution_value(e, 2) == F(1, 2)
    assert involution_value(e, involution_value(e, 2)) == 2
    assert involution_value(ExternalPoint(1, 0), 3) == F(3, 2)
    with pytest.raises(ValueError):
        involution_value(e, 0)        # pole at x = a


def test_image_count_examples():
    e = ExternalPoint(0, -1)
    assert image_count(e, [2, F(1, 2), 3, F(1, 3)]) == 4
    assert image_count(e, [1, 2, 3]) == 0     # 1 is a fixed point
    assert image_count(e, []) == 0


def test_reps_collinear_examples():
    assert reps_collinear(ExternalPoint(0, 1), ExternalPoint(1, 2),
                          ExternalPoint(2, 3))
    assert not reps_collinear(ExternalPoint(0, 1), ExternalPoint(1, 0),
                              ExternalPoint(F(1, 2), 1))
    with pytest.raises(ValueError):
        reps_collinear(ExternalPoint(0, 1), ExternalPoint(0, 1),
                       ExternalPoint(1, 2))


@given(rationals, rationals, rationals)
def test_collinear_formula_matches_determinant(x, y, a):
    assume(x != y)
    b = a * a + 1                     # always off the parabola
    e = ExternalPoint(a, b)
    oracle = collinear(mk_point(x, x * x), mk_point(y, y * y), mk_point(a, b))
    assert parabola_collinear(x, y, e) == oracle


@given(rationals, rationals, rationals)
def test_collinear_symmetric_in_conic_points(x, y, a):
    assume(x != y)
    e = ExternalPoint(a, a * a + 2)
    assert parabola_collinear(x, y, e) == parabola_collinear(y, x, e)


@given(rationals, rationals)
def test_involution_is_involution(a, x):
    e = ExternalPoint(a, a * a - 3)
    assume(x != a)
    y = involution_value(e, x)
    assume(y != a)
    assert involution_value(e, y) == x


def test_reps_equivalence_randomized():
    rng = random.Random(9)
    for trial in range(400):
        a1, a2 = F(rng.randint(-20, 20), 3), F(rng.randint(-20, 20), 3)
        b1, b2 = F(rng.randint(-20, 20), 3), F(rng.randint(-20, 20), 3)
        if trial % 2 == 0:
            lam = F(rng.randint(-10, 10), rng.randint(1, 4))
            a3 = lam * a1 + (1 - lam) * a2
            b3 = lam * b1 + (1 - lam) * b2
        else:
            a3 = F(rng.randint(-20, 20), 3)
            b3 = F(rng.randint(-20, 20), 3)
        try:
            es = [ExternalPoint(a, b) for a, b in
                  ((a1, b1), (a2, b2), (a3, b3))]
        except ValueError:
            continue
        if len({(e.a, e.b) for e in es}) != 3:
            continue
        planar = collinear(mk_point(a1, b1), mk_point(a2, b2),
                           mk_point(a3, b3))
        assert reps_collinear(*es) == planar
