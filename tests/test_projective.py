import copy
import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, assume
import hypothesis.strategies as st

from orchard import (Cantilever, CubicForm, CuspidalCubic, DegenerateError,
                     GroupDescription, GroupElement, LawWitness, NgonConfig,
                     ProjLine, ProjPoint, RichLineTable, SampledArc,
                     WeierstrassCurve, build_tenpoint_cuspidal, collinear,
                     cuspidal_third, gen_triangle_ratios, incident, join,
                     meet, mk_point, point_from_rationals, ratio_point,
                     signed_ratio, triangle_description, triangle_ratio_set,
                     weierstrass_form)
from orchard.conic import (ExternalPoint, image_count, involution_value,
                          parabola_collinear)
from orchard.fitting import CubicClassification
from orchard.curves import CurveSpec, DichotomyRow, graph_power
from orchard.projective import _Frozen, canonical, direction_point, integral
from oracles import apply_transform, replaced

LINE_AT_INFINITY = ProjLine((0, 0, 1))

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=8)
points = st.builds(mk_point, rationals, rationals)


def test_mk_point_canonical():
    assert mk_point(F(1, 2), 3).h == (1, 6, 2)
    assert mk_point(0, 0).h == (0, 0, 1)
    # first nonzero coordinate positive
    assert mk_point(-2, 3).h == (2, -3, -1)


def test_zero_triple_rejected():
    with pytest.raises(ValueError):
        ProjPoint((0, 0, 0))


def test_point_and_line_value_semantics():
    p, line = ProjPoint((-2, 4, 6)), ProjLine((-2, 4, 6))
    assert p.h == line.l == (1, -2, -3)
    assert p == ProjPoint((1, -2, -3)) == ProjPoint(h=(3, -6, -9))
    assert hash(p) == hash(ProjPoint((1, -2, -3))) == hash((p.h,))
    assert p != ProjPoint((1, -2, 3))
    # a point never equals the line with the same triple
    assert p != line and line != p and len({p, line}) == 2
    assert repr(p) == "ProjPoint(1, -2, -3)"
    assert repr(line) == "ProjLine(1, -2, -3)"
    assert repr(LINE_AT_INFINITY) == "ProjLine(0, 0, 1)"


@pytest.mark.parametrize("value", [ProjPoint((1, 2, 3)), ProjLine((1, 2, 3))])
def test_point_and_line_are_immutable(value):
    field = "h" if isinstance(value, ProjPoint) else "l"
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, (1, 0, 0))
    with pytest.raises(AttributeError, match="cannot assign to field 'z'"):
        value.z = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    assert getattr(value, field) == (1, 2, 3)


@pytest.mark.parametrize("cls", [ProjPoint, ProjLine])
@pytest.mark.parametrize("triple, message", [
    ((0, 0, 0), "the zero vector has no canonical form"),
    ((1, 2), r"\(1, 2\) is not a homogeneous triple"),
    ((1, 2, 3, 4), "is not a homogeneous triple"),
    ((1.5, 0, 1), r"\(1.5, 0, 1\) is not a homogeneous triple of integers"),
    ((F(1, 2), 0, 1), r"\(Fraction\(1, 2\), 0, 1\) is not a homogeneous")])
def test_bad_triples_rejected(cls, triple, message):
    with pytest.raises(ValueError, match=message):
        cls(triple)


@pytest.mark.parametrize("cls", [ProjPoint, ProjLine])
@pytest.mark.parametrize("triple", [(True, 0, 1), (0, False, 1),
                                    (2, 4, True)])
def test_bool_coordinates_rejected(cls, triple):
    # gcd takes a bool as an int, but a coordinate is not a bool, as in
    # the points file; mk_point reads True and False as the rationals 1, 0
    with pytest.raises(ValueError,
                       match=r"\(.*\) is not a homogeneous triple"):
        cls(triple)


@pytest.mark.parametrize("value", [mk_point(F(1, 2), -3), ProjPoint((1, 0, 0)),
                                   ProjLine((2, -4, 10**40))])
def test_point_and_line_pickle_and_deepcopy(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and type(back) is type(value)
        assert repr(back) == repr(value)
    for clone in (copy.copy(value), copy.deepcopy(value)):
        assert clone == value and hash(clone) == hash(value)
        with pytest.raises(AttributeError):
            clone.z = 1


def _fn(x):
    return x


def _piece(p):
    return (1,)


def _value(piece, p):
    return F(0)


TEN = [mk_point(i, i * i) for i in range(10)]
# every value class built on _Frozen but ProjPoint, ProjLine and
# PointSet (tested on their own), and its repr as a frozen dataclass
# printed it
FROZEN_VALUES = [
    (CubicForm((2, 0, 0, 0, 0, 0, 0, 0, -4, 0)),
     "CubicForm(coefficients=(1, 0, 0, 0, 0, 0, 0, 0, -2, 0))"),
    (CubicClassification("three-lines", (ProjLine((1, 0, 0)),
                                         ProjLine((0, 1, 0)))),
     "CubicClassification(kind='three-lines', line_factors=(ProjLine(1, 0, 0),"
     " ProjLine(0, 1, 0)))"),
    (GroupElement(2, "multiplicative"),
     "GroupElement(value=Fraction(2, 1), operation='multiplicative')"),
    (WeierstrassCurve(F(-1, 2), 3),
     "WeierstrassCurve(a=Fraction(-1, 2), b=Fraction(3, 1))"),
    (GroupDescription("cuspidal", "additive", _piece, _value),
     f"GroupDescription(kind='cuspidal', operation='additive', "
     f"assign={_piece!r}, value={_value!r})"),
    (LawWitness((0, 1, 2), tuple(TEN[:3]), (F(0), F(1), F(-1, 3)),
                "additive", True),
     "LawWitness(indices=(0, 1, 2), points=(ProjPoint(0, 0, 1), "
     "ProjPoint(1, 1, 1), ProjPoint(2, 4, 1)), values=(Fraction(0, 1), "
     "Fraction(1, 1), Fraction(-1, 3)), operation='additive', "
     "collinear=True)"),
    (Cantilever(tuple(TEN[:1]), tuple(TEN[1:3]), tuple(TEN[3:4])),
     "Cantilever(a_seq=(ProjPoint(0, 0, 1),), b_seq=(ProjPoint(1, 1, 1), "
     "ProjPoint(2, 4, 1)), c_seq=(ProjPoint(3, 9, 1),))"),
    (SampledArc(_fn, -1.0, 2.5),
     f"SampledArc(fn={_fn!r}, lo=-1.0, hi=2.5)"),
    (ExternalPoint(1, F(2, 3)),
     "ExternalPoint(a=Fraction(1, 1), b=Fraction(2, 3))"),
    (CurveSpec(2, _fn, "y=x^2"),
     f"CurveSpec(degree=2, lift_fn={_fn!r}, label='y=x^2')"),
    (DichotomyRow(3, 10, 42, F(21, 50)),
     "DichotomyRow(degree=3, n=10, count=42, ratio_n2=Fraction(21, 50))"),
    (NgonConfig(7), "NgonConfig(n=7)"),
    (RichLineTable({(0, 1, 0): 3, (1, 0, -2): 4}, 2),
     "RichLineTable(entries={(0, 1, 0): 3, (1, 0, -2): 4}, two_point=2)"),
]


@pytest.mark.parametrize("value, expected_repr", FROZEN_VALUES,
                         ids=[type(v).__name__ for v, _ in FROZEN_VALUES])
def test_frozen_value_semantics(value, expected_repr):
    cls, fields = type(value), value._fields()
    assert repr(value) == expected_repr
    # a fresh object on equal fields is equal and hashes alike; an
    # object of another class on the same fields, or the fields' tuple,
    # is not equal
    twin = replaced(value)
    assert twin is not value and twin == value
    try:
        fields_hash = hash(fields)
    except TypeError:           # an unhashable field: RichLineTable's dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(twin) == hash(value) == fields_hash
    names = cls.__slots__[:len(fields)]
    other = type("Other", (_Frozen,), {"__slots__": names})(*fields)
    assert value != other and other != value and value != fields
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    for args in (fields[:-1], fields + (fields[-1],)):
        with pytest.raises(TypeError):
            cls(*args)
    if not any(callable(f) for f in fields):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert back == value and type(back) is cls
        back = copy.deepcopy(value)
        assert back == value and type(back) is cls
        assert repr(back) == expected_repr


def test_weierstrass_curve_compares_without_its_form():
    curve, other = WeierstrassCurve(0, 17), WeierstrassCurve(0, 17)
    object.__setattr__(other, "form", weierstrass_form(1, 1))
    assert curve == other and hash(curve) == hash(other)
    assert "form" not in repr(other)
    assert copy.deepcopy(other).form == curve.form


def test_mk_point_takes_ints_fractions_and_other_rationals():
    expected = mk_point(F(-3, 4), F(5))
    assert expected.h == (3, -20, -4)
    for x, y in ((F(-3, 4), 5), ("-3/4", "5"), (F(-6, 8), F(5))):
        assert mk_point(x, y) == expected
    assert mk_point(True, False) == mk_point(1, 0)
    with pytest.raises(ValueError):
        mk_point("1/x", 0)
    with pytest.raises(ValueError, match="float"):
        mk_point(-0.75, 5.0)          # a float, even an exact one, is refused


@pytest.mark.parametrize("make", [
    lambda: mk_point(0.1, 0), lambda: mk_point(0, 0.1),
    lambda: point_from_rationals(1, 0.1, 1),
    lambda: GroupElement(0.1, "additive"),
    lambda: GroupElement(0.5, "multiplicative"),
    lambda: CubicForm((0.5, 0, 0, 0, 0, 0, 0, 0, -1, 0)),
    lambda: WeierstrassCurve(0.1, 17),
    lambda: WeierstrassCurve(0, 17).lift(0.5),
    lambda: build_tenpoint_cuspidal(-1, 0, 1, 0.1),
    lambda: CuspidalCubic().lift(0.5),
    lambda: cuspidal_third(0.5, 1),
    lambda: direction_point(0.1),
    lambda: ExternalPoint(0.5, 0.1),
    lambda: involution_value(ExternalPoint(1, 2), 0.1),
    lambda: parabola_collinear(0.5, 2, ExternalPoint(0, -1)),
    lambda: image_count(ExternalPoint(0, -1), [2, 0.5]),
    lambda: graph_power(2).lift(0.1),
    lambda: ratio_point(mk_point(0, 0), mk_point(1, 0), 0.1)])
def test_exact_constructors_refuse_floats(make):
    # mk_point(0.1, 0) was the point (3602879701896397, 0) / 2**55,
    # direction_point(0.1) the point (2**55, 3602879701896397, 0), and
    # ratio_point(..., 0.1) the point (3602879701896397, 0, 39631676720860365)
    with pytest.raises(ValueError, match="0.[15] is a float"):
        make()


@pytest.mark.parametrize("make", [
    lambda: mk_point("1/0", 0), lambda: mk_point(0, "-3/0"),
    lambda: point_from_rationals(1, "1/0", 1),
    lambda: direction_point("2/0"),
    lambda: ratio_point(mk_point(0, 0), mk_point(1, 0), "1/0"),
    lambda: GroupElement("1/0", "additive"),
    lambda: CubicForm(("1/0", 0, 0, 0, 0, 0, 0, 0, -1, 0)),
    lambda: WeierstrassCurve("1/0", 17),
    lambda: WeierstrassCurve(0, 17).lift("1/0"),
    lambda: CuspidalCubic().lift("1/0"),
    lambda: cuspidal_third("1/0", 1),
    lambda: build_tenpoint_cuspidal(-1, 0, 1, "1/0"),
    lambda: ExternalPoint("1/0", 1),
    lambda: parabola_collinear("1/0", 2, ExternalPoint(0, -1)),
    lambda: involution_value(ExternalPoint(1, 2), "1/0"),
    lambda: image_count(ExternalPoint(0, -1), [2, "1/0"]),
    lambda: graph_power(2).lift("1/0"),
    lambda: mk_point(" 1/0", 0)])       # a token that Fraction itself reads
def test_exact_constructors_refuse_a_zero_denominator(make):
    # each raised a bare ZeroDivisionError from Fraction
    with pytest.raises(ValueError, match="has a zero denominator"):
        make()


def test_collinear_cubic_parameter_sums():
    # on y = x^3 three points are collinear iff the x's sum to zero
    on_curve = lambda t: mk_point(t, t ** 3)
    assert collinear(on_curve(-3), on_curve(1), on_curve(2))
    assert not collinear(on_curve(-2), on_curve(1), on_curve(2))
    assert collinear(mk_point(0, 0), mk_point(1, 1), mk_point(2, 2))
    assert not collinear(ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0)),
                         ProjPoint((0, 0, 1)))


def test_join_meet_examples():
    assert join(mk_point(0, 0), mk_point(1, 1)).l == (1, -1, 0)
    assert join(ProjPoint((0, 0, 1)), ProjPoint((1, 1, 0))).l == (1, -1, 0)
    assert join(mk_point(1, 2), mk_point(1, 5)).l == (1, 0, -1)
    assert meet(ProjLine((0, 1, -1)), ProjLine((1, 0, -1))).h == (1, 1, 1)
    # parallels meet at infinity
    assert meet(ProjLine((0, 1, 0)), ProjLine((0, 1, -1))).h == (1, 0, 0)
    assert meet(ProjLine((1, -1, 0)), ProjLine((1, 1, -2))).h == (1, 1, 1)


def test_degenerate_join_meet():
    with pytest.raises(DegenerateError):
        join(mk_point(1, 2), mk_point(1, 2))
    with pytest.raises(DegenerateError):
        meet(ProjLine((1, 0, 0)), ProjLine((2, 0, 0)))


def test_incident():
    assert incident(mk_point(1, 1), ProjLine((1, -1, 0)))
    assert not incident(mk_point(0, 0), LINE_AT_INFINITY)
    assert incident(ProjPoint((1, 0, 0)), LINE_AT_INFINITY)


def test_apply_transform():
    p = mk_point(1, 2)
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert apply_transform(ident, p) == p
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    assert apply_transform(swap, p) == mk_point(2, 1)
    # sends the row y = 1 to the line at infinity
    to_inf = [[1, 0, 0], [0, 1, 0], [0, 1, -1]]
    for x in (-2, 0, 5):
        assert apply_transform(to_inf, mk_point(x, 1)).at_infinity
    with pytest.raises(ValueError):
        apply_transform([[1, 0, 0], [2, 0, 0], [0, 0, 1]], p)


def test_signed_ratio_examples():
    a, b = mk_point(0, 0), mk_point(3, 0)
    assert signed_ratio(mk_point(1, 0), a, b) == F(1, 2)
    assert signed_ratio(a, a, b) == 0
    mid = mk_point(F(3, 2), 0)
    assert signed_ratio(mid, a, b) == 1
    # the point at infinity of the line has ratio -1
    assert signed_ratio(ProjPoint((1, 0, 0)), a, b) == -1
    with pytest.raises(DegenerateError):
        signed_ratio(b, a, b)
    with pytest.raises(ValueError):
        signed_ratio(mk_point(1, 1), a, b)


@given(points, points, points)
def test_collinear_permutation_invariant(p, q, r):
    base = collinear(p, q, r)
    assert collinear(q, p, r) == base
    assert collinear(r, q, p) == base
    assert collinear(q, r, p) == base


@given(points, points)
def test_join_incidences(p, q):
    assume(p != q)
    l = join(p, q)
    assert incident(p, l) and incident(q, l)


@given(points, points, points)
def test_meet_of_joins_recovers_point(p, q, r):
    assume(p != q and p != r)
    assume(join(p, q) != join(p, r))
    assert meet(join(p, q), join(p, r)) == p


@given(points, points, points,
       st.lists(rationals, min_size=9, max_size=9))
def test_collinearity_preserved_by_transforms(p, q, r, entries):
    m = [entries[0:3], entries[3:6], entries[6:9]]
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    assume(det != 0)
    imgs = [apply_transform(m, x) for x in (p, q, r)]
    assert collinear(*imgs) == collinear(p, q, r)


@given(rationals, rationals, rationals, rationals)
def test_signed_ratio_definition(ax, ay, t, u):
    # X built as (A + tB)/(1+t) must have ratio t
    assume(t != -1 and t != 0)
    a = mk_point(ax, ay)
    b = mk_point(ax + u, ay + 1)     # distinct from a, same Z-chart
    x = mk_point((F(ax) + t * (F(ax) + u)) / (1 + t),
                 (F(ay) + t * (F(ay) + 1)) / (1 + t))
    assert signed_ratio(x, a, b) == t


# --- the one canonical form, denominator clearing and side order ------------

ints = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
vectors = st.one_of(st.lists(ints, min_size=3, max_size=3),
                    st.lists(ints, min_size=10, max_size=10))


@given(vectors, ints.filter(bool))
def test_canonical_is_the_primitive_positive_multiple(v, k):
    if not any(v):
        with pytest.raises(ValueError):
            canonical(v)
        return
    c = canonical(v)
    assert canonical([k * x for x in v]) == c
    assert math.gcd(*c) == 1
    assert [x for x in c if x][0] > 0
    # c is a rational multiple of v: all 2x2 minors vanish
    assert all(c[i] * v[j] == c[j] * v[i]
               for i in range(len(v)) for j in range(len(v)))


@given(st.lists(rationals, min_size=1, max_size=10))
def test_integral_is_a_positive_integer_multiple(rs):
    out = integral(rs)
    assert all(type(x) is int for x in out)
    assert all((x == 0) == (r == 0) for x, r in zip(out, rs))
    # one factor >= 1 carries rs to out
    factors = {F(x) / r for x, r in zip(out, rs) if r}
    assert len(factors) <= 1 and all(f >= 1 for f in factors)


@given(rationals, rationals, rationals, rationals, rationals)
def test_signed_ratio_inverts_ratio_point(ax, ay, bx, by, t):
    a, b = mk_point(ax, ay), mk_point(bx, by)
    assume(a != b)
    for u in (t, 0, -1):
        x = ratio_point(a, b, u)
        assert x.at_infinity == (u == -1)
        assert signed_ratio(x, a, b) == u


@given(points, points, points)
def test_generated_side_is_the_described_piece(p1, p2, p3):
    assume(not collinear(p1, p2, p3))
    desc = triangle_description(p1, p2, p3)
    ps = gen_triangle_ratios(2, p1, p2, p3)
    ratios = triangle_ratio_set(2)
    # side i runs from P_{i-1} to P_{i+1}, and carries each ratio once
    ends = {1: (p3, p2), 2: (p1, p3), 3: (p2, p1)}
    for k, (p, i) in enumerate(zip(ps.points, ps.labels)):
        assert desc.assign(p) == (i,)
        assert collinear(*ends[i], p)
        assert -desc.value(i, p) == ratios[k % len(ratios)]


@pytest.mark.parametrize("make, v", [(ProjPoint, (1, 2)),
                                     (ProjPoint, (1, 2, 3, 4)),
                                     (ProjLine, (1, 2, 3, 4)),
                                     (ProjLine, (1,))])
def test_projective_objects_need_three_coordinates(make, v):
    with pytest.raises(ValueError):
        make(v)
