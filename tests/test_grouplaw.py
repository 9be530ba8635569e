import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, assume
import hypothesis.strategies as st

from orchard import (CuspidalCubic, DegenerateError, GroupDescription,
                     GroupElement, ProjPoint, WeierstrassCurve,
                     WEIERSTRASS_IDENTITY, collinear, conic_line_params,
                     cuspidal_description, cuspidal_form, cuspidal_third,
                     description_witness, direction_point,
                     gen_cubic_power, gen_parallel_aps, gen_triangle_ratios,
                     menelaus_params, mk_point, parallel_lines_description,
                     PointSet, ratio_point,
                     triangle_description, verify_group_description,
                     weierstrass_form)

from orchard.grouplaw import _law_witness
from oracles import brute_group_description, brute_law_witness

rationals = st.fractions(min_value=-12, max_value=12, max_denominator=6)

CURVE = WeierstrassCurve(0, 17)
GENS = [mk_point(-2, 3), mk_point(-1, 4), mk_point(2, 5), mk_point(4, 9),
        mk_point(8, 23)]


def test_group_element_rules():
    with pytest.raises(ValueError):
        GroupElement(0, "multiplicative")
    a = GroupElement(F(2, 3), "multiplicative")
    assert a.combine(GroupElement(F(3, 2), "multiplicative")).is_identity
    b = GroupElement(-4, "additive")
    assert b.combine(GroupElement(4, "additive")).is_identity
    with pytest.raises(ValueError):
        a.combine(b)


def test_cuspidal_third_values():
    assert cuspidal_third(1, -3) == 2
    assert cuspidal_third(F(5), 0) == -5
    assert cuspidal_third(F(1, 2), F(1, 3)) == F(-5, 6)
    with pytest.raises(DegenerateError):
        cuspidal_third(2, 2)


@given(rationals, rationals)
def test_cuspidal_third_collinear_and_involutive(p, q):
    assume(p != q)
    r = cuspidal_third(p, q)
    c = CuspidalCubic()
    assume(r not in (p, q))
    assert collinear(c.lift(p), c.lift(q), c.lift(r))
    assert cuspidal_third(p, r) == q


def test_weierstrass_third_examples():
    assert CURVE.third(mk_point(-2, 3), mk_point(-1, 4)) == mk_point(4, 9)
    assert (CURVE.third(mk_point(-2, 3), mk_point(-2, -3))
            == WEIERSTRASS_IDENTITY)
    t = CURVE.third(mk_point(2, 5), mk_point(2, 5))
    assert CURVE.contains(t)
    assert CURVE.add(mk_point(-2, 3), mk_point(-1, 4)) == mk_point(4, -9)
    with pytest.raises(ValueError):
        CURVE.third(mk_point(0, 0), mk_point(2, 5))


def test_weierstrass_identity_and_inverse():
    for p in GENS:
        assert CURVE.add(p, WEIERSTRASS_IDENTITY) == p
        assert CURVE.add(p, CURVE.neg(p)) == WEIERSTRASS_IDENTITY


def test_point_at_infinity_membership_per_caller():
    # (0:1:0) is the one point at infinity of y = x^3 and of
    # y^2 = x^3 + ax + b.  The cuspidal group law parametrises affine
    # points only; the forms and the Weierstrass group accept it.
    inf = ProjPoint((0, 1, 0))
    assert not CuspidalCubic().contains(inf)
    with pytest.raises(ValueError):
        cuspidal_description().assign(inf)
    assert cuspidal_form().contains(inf)
    assert WeierstrassCurve(0, 17).contains(inf)
    assert weierstrass_form(0, 17).contains(inf)
    for h in ((1, 0, 0), (1, 1, 0), (1, -2, 0), (3, 5, 0)):
        other = ProjPoint(h)
        assert not CuspidalCubic().contains(other)
        assert not cuspidal_form().contains(other)
        assert not WeierstrassCurve(0, 17).contains(other)
        assert not weierstrass_form(0, 17).contains(other)


def _word_values(max_len):
    vals = {}
    for length in range(1, max_len + 1):
        for word in product(GENS, repeat=length):
            acc = word[0]
            for g in word[1:]:
                acc = CURVE.add(acc, g)
            vals[tuple(p.h for p in word)] = acc
    return vals


def test_weierstrass_word_set_axioms():
    # commutativity on all generator pairs
    for p in GENS:
        for q in GENS:
            assert CURVE.add(p, q) == CURVE.add(q, p)
    # associativity: all parenthesizations of words of length <= 4 agree
    for w in product(GENS, repeat=3):
        a, b, c = w
        assert CURVE.add(CURVE.add(a, b), c) == CURVE.add(a, CURVE.add(b, c))
    for w in product(GENS, repeat=4):
        a, b, c, d = w
        left = CURVE.add(CURVE.add(CURVE.add(a, b), c), d)
        others = (
            CURVE.add(CURVE.add(a, CURVE.add(b, c)), d),
            CURVE.add(a, CURVE.add(CURVE.add(b, c), d)),
            CURVE.add(a, CURVE.add(b, CURVE.add(c, d))),
            CURVE.add(CURVE.add(a, b), CURVE.add(c, d)),
        )
        assert all(o == left for o in others)
    # chord-third closure and the defining relation P + Q + third(P,Q) = 0
    vals = list(_word_values(2).values())
    for p in vals:
        for q in vals:
            t = CURVE.third(p, q)
            assert CURVE.contains(t)
            s = CURVE.add(CURVE.add(p, q), t)
            assert s == WEIERSTRASS_IDENTITY


def test_menelaus_transversal_vs_oracle():
    p1, p2, p3 = mk_point(0, 0), mk_point(1, 0), mk_point(0, 1)
    # a transversal: y = x/2 + 1/4 meets all three side lines
    x1 = mk_point(F(1, 2), F(1, 2))
    x2 = mk_point(0, F(1, 4))
    x3 = mk_point(F(-1, 2), 0)
    (u1, u2, u3), verdict = menelaus_params(p1, p2, p3, x1, x2, x3)
    assert verdict and collinear(x1, x2, x3)
    assert u1.value * u2.value * u3.value == 1
    # all midpoints: product is -1, and indeed they are not collinear
    mids = [ratio_point(p3, p2, 1), ratio_point(p1, p3, 1),
            ratio_point(p2, p1, 1)]
    us, verdict = menelaus_params(p1, p2, p3, *mids)
    assert not verdict and not collinear(*mids)
    assert us[0].value * us[1].value * us[2].value == -1


def test_menelaus_infinity_point():
    p1, p2, p3 = mk_point(0, 0), mk_point(1, 0), mk_point(0, 1)
    # X3 at infinity on the x-axis, X1, X2 from the horizontal y = 1/3
    x3 = direction_point(0)
    x1 = mk_point(F(2, 3), F(1, 3))
    x2 = mk_point(0, F(1, 3))
    us, verdict = menelaus_params(p1, p2, p3, x1, x2, x3)
    assert us[2].value == 1
    assert verdict and collinear(x1, x2, x3)


def test_menelaus_randomized_oracle():
    rng = random.Random(42)
    p1, p2, p3 = mk_point(0, 0), mk_point(4, 0), mk_point(1, 3)
    sides = [(p3, p2), (p1, p3), (p2, p1)]
    checked = 0
    for trial in range(800):
        ts = []
        for _ in range(3):
            t = F(rng.randint(-30, 30), rng.randint(1, 8))
            if t in (0, -1):
                t = F(1, 7)
            ts.append(t)
        xs = [ratio_point(a, b, t) for (a, b), t in zip(sides, ts)]
        if any(x in (p1, p2, p3) for x in xs):
            continue
        _, verdict = menelaus_params(p1, p2, p3, *xs)
        assert verdict == collinear(*xs)
        checked += 1
    assert checked > 700


def test_menelaus_vertex_rejected():
    p1, p2, p3 = mk_point(0, 0), mk_point(1, 0), mk_point(0, 1)
    with pytest.raises(ValueError):
        menelaus_params(p1, p2, p3, p2, mk_point(0, F(1, 2)),
                        mk_point(F(1, 2), 0))


V1, V2, V3 = mk_point(0, 0), mk_point(1, 0), mk_point(0, 1)
ON_SIDES = (mk_point(F(1, 2), F(1, 2)), mk_point(0, F(1, 4)),
            mk_point(F(-1, 2), 0))


@pytest.mark.parametrize("call, error", [
    # a vertex, and a point on side 2 offered as X_1
    (lambda: menelaus_params(V1, V2, V3, V2, *ON_SIDES[1:]), ValueError),
    (lambda: menelaus_params(V1, V2, V3, ON_SIDES[1], *ON_SIDES[1:]),
     ValueError),
    (lambda: menelaus_params(V1, V2, mk_point(2, 0), *ON_SIDES),
     DegenerateError),
    (lambda: conic_line_params("parabola", mk_point(1, 2), mk_point(2, 4),
                               direction_point(3)), ValueError),
    (lambda: conic_line_params("hyperbola", mk_point(2, F(1, 2)),
                               mk_point(2, F(1, 2)), direction_point(3)),
     DegenerateError),
    (lambda: conic_line_params("hyperbola", mk_point(1, 1),
                               mk_point(2, F(1, 2)), direction_point(0)),
     ValueError),
    (lambda: conic_line_params("parabola", mk_point(1, 1), mk_point(2, 4),
                               direction_point(None)), ValueError),
    (lambda: conic_line_params("parabola", mk_point(1, 1), mk_point(2, 4),
                               mk_point(3, 9)), ValueError),
])
def test_params_reject_points_off_their_piece(call, error):
    with pytest.raises(ValueError) as info:
        call()
    assert info.type is error


def test_parallel_lines_params():
    desc = parallel_lines_description()

    def total(*xs):
        return sum(desc.value(k, mk_point(x, k - 1))
                   for k, x in enumerate(xs, 1))

    assert total(0, 1, 2) == 0
    assert collinear(mk_point(0, 0), mk_point(1, 1), mk_point(2, 2))
    assert total(0, 0, 0) == 0
    assert total(0, 1, 0) == -2


def test_conic_line_params():
    els = conic_line_params("parabola", mk_point(1, 1), mk_point(2, 4),
                            direction_point(3))
    assert sum(e.value for e in els) == 0
    els = conic_line_params("parabola", mk_point(1, 1), mk_point(-1, 1),
                            direction_point(0))
    assert sum(e.value for e in els) == 0
    els = conic_line_params("hyperbola", mk_point(1, 1),
                            mk_point(F(1, 2), 2), direction_point(-2))
    assert els[0].value * els[1].value * els[2].value == 1
    with pytest.raises(ValueError):
        conic_line_params("hyperbola", mk_point(1, 1), mk_point(2, F(1, 2)),
                          direction_point(0))
    with pytest.raises(ValueError):
        conic_line_params("parabola", mk_point(1, 1), mk_point(2, 4),
                          direction_point(None))


def test_verify_descriptions_on_examples():
    assert verify_group_description(gen_parallel_aps(6),
                                    parallel_lines_description())
    assert verify_group_description(gen_cubic_power(5),
                                    cuspidal_description())


def test_verify_detects_perturbation():
    # perturbing the parametrization at a single point breaks the iff
    base = parallel_lines_description()
    target = mk_point(1, 1)

    def bad_value(i, p):
        v = base.value(i, p)
        return v + 1 if p == target else v

    broken = GroupDescription(base.kind, base.operation, base.assign,
                              bad_value)
    ps = gen_parallel_aps(4)
    assert verify_group_description(ps, base)
    assert not verify_group_description(ps, broken)


TRIANGLE = (mk_point(0, 0), mk_point(1, 0), mk_point(0, 1))


def _perturbed(desc, target, delta):
    """desc with delta added to the value of one point on every piece."""
    def value(i, p):
        v = desc.value(i, p)
        return v + delta if p == target else v
    return GroupDescription(desc.kind, desc.operation, desc.assign, value)


def _assert_description_witness_fails(ps, desc, w):
    assert len(set(w.indices)) == 3
    assert w.points == tuple(ps.points[i] for i in w.indices)
    for piece, p, v in zip((1, 2, 3), w.points, w.values):
        assert piece in desc.assign(p) and desc.value(piece, p) == v
    v1, v2, v3 = w.values
    law = (v1 + v2 + v3 == 0 if desc.operation == "additive"
           else v1 * v2 * v3 == 1)
    assert w.collinear == collinear(*w.points) != law


def test_predicted_triple_needs_one_line_through_all_three():
    # a and c share the rich line {a, x, c}, but x is a piece-1 point, so
    # the law's triple (a, b, c) must still be found not collinear
    points = [mk_point(0, 0), mk_point(2, 0), mk_point(1, 0), mk_point(1, 1)]
    roles = [[(1, 0)], [(3, 0)], [(1, 5)], [(2, 0)]]
    w = _law_witness(points, roles, "additive")
    assert (w.indices, w.values, w.collinear) == ((0, 3, 1), (0, 0, 0), False)
    assert brute_law_witness(points, roles, "additive") == (
        w.indices, w.values, w.collinear)


MIDPOINTS = PointSet((mk_point(F(1, 2), F(1, 2)), mk_point(0, F(1, 2)),
                      mk_point(F(1, 2), 0)))     # values -1, -1, -1


@pytest.mark.parametrize("ps, desc", [
    (gen_cubic_power(6), cuspidal_description()),
    (gen_parallel_aps(8), parallel_lines_description()),
    (gen_triangle_ratios(3), triangle_description(*TRIANGLE)),
    # a piece-1 value of 0 has no multiplicative partner
    (MIDPOINTS, _perturbed(triangle_description(*TRIANGLE),
                           MIDPOINTS.points[0], 1)),
])
def test_verify_description_matches_brute(ps, desc):
    assert description_witness(ps, desc) is None
    assert verify_group_description(ps, desc) is True
    assert brute_group_description(ps, desc) is True


@pytest.mark.parametrize("ps, desc, on_line", [
    (gen_parallel_aps(5),
     _perturbed(parallel_lines_description(), mk_point(2, 1), 1), True),
    (gen_cubic_power(4),
     _perturbed(cuspidal_description(), mk_point(1, 1), F(1, 2)), True),
    (gen_triangle_ratios(3),
     _perturbed(triangle_description(*TRIANGLE),
                gen_triangle_ratios(3).points[4], F(1, 3)), True),
    # values 0, -2, 5 -> 0, -2, 2: the law now holds off any line
    (PointSet((mk_point(0, 0), mk_point(1, 1), mk_point(5, 2))),
     _perturbed(parallel_lines_description(), mk_point(5, 2), -3), False),
    # product -1 -> 1 on the three side midpoints
    (MIDPOINTS, _perturbed(triangle_description(*TRIANGLE),
                           MIDPOINTS.points[0], 2), False),
])
def test_perturbed_description_names_a_failing_witness(ps, desc, on_line):
    assert brute_group_description(ps, desc) is False
    assert verify_group_description(ps, desc) is False
    w = description_witness(ps, desc)
    _assert_description_witness_fails(ps, desc, w)
    assert w.collinear is on_line


def test_verify_rejects_off_piece_points():
    ps = PointSet((mk_point(0, 0), mk_point(1, 1), mk_point(5, 7)),
                  (1, 2, 3))
    with pytest.raises(ValueError):
        verify_group_description(ps, parallel_lines_description())


def test_triangle_description_on_example2():
    ps = gen_triangle_ratios(2)
    desc = triangle_description(mk_point(0, 0), mk_point(1, 0),
                                mk_point(0, 1))
    assert verify_group_description(ps, desc)
