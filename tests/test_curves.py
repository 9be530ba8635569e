from fractions import Fraction as F

import pytest

from orchard import (CurveSpec, InvariantViolation, WeierstrassCurve,
                     dichotomy_experiment, few_directions_experiment,
                     gen_cubic_power, graph_power, mk_point,
                     quadruple_experiment, spanned_lines, triple_line_count)
from oracles import brute_triple_lines


def row(k):
    """The horizontal line y = k as a degree-1 curve."""
    return CurveSpec(1, lambda x: [mk_point(x, k)], f"y={k}")


def test_lifting_rules():
    assert graph_power(3).lift(2) == [gen_cubic_power(2).points[4]]
    assert graph_power(2).lift(F(1, 2))[0].affine() == (F(1, 2), F(1, 4))
    assert row(1).lift(7)[0].affine() == (7, 1)
    w = WeierstrassCurve(0, 17)
    assert len(w.lift(2)) == 2            # y = +-5
    assert w.lift(0) == []                # 17 is not a rational square
    assert len(w.lift(-1)) == 2


def test_dichotomy_matches_richlines():
    [r] = dichotomy_experiment([3], [8])
    ps = gen_cubic_power(8)
    assert r.count == triple_line_count(spanned_lines(ps))
    assert r.count == len(brute_triple_lines(list(ps.points)))


def test_dichotomy_reads_sizes_once():
    rows = dichotomy_experiment([3, 4], iter([5, 6]))
    assert [(r.degree, r.n) for r in rows] == [(3, 5), (3, 6), (4, 5), (4, 6)]
    assert rows[:2] == dichotomy_experiment([3], [5, 6])


def test_dichotomy_rows():
    rows = dichotomy_experiment([3], [20, 40])
    assert [r.n for r in rows] == [20, 40]
    for r in rows:
        n, count = r.n, r.count
        assert r.ratio_n2 == F(count, n * n)
        big_n = 2 * n + 1
        assert abs(F(count) / F(big_n * big_n, 8) - 1) < F(1, 4)
    zero = dichotomy_experiment([4], [20])
    assert zero[0].count == 0


def test_dichotomy_ratio_drift():
    rows = dichotomy_experiment([3], [10, 100])
    ratios = [F(r.count) / F((2 * r.n + 1) ** 2, 8) for r in rows]
    assert abs(ratios[0] - ratios[1]) <= F(1, 10)


def test_quadruple_experiment():
    assert quadruple_experiment(graph_power(4), range(-50, 51)) == 0
    assert quadruple_experiment(graph_power(3), range(-30, 31)) == 0
    # the one line of a degree-1 curve carries all 6 lifted points
    assert quadruple_experiment(row(2), range(6)) == 1


def test_degree_bound_guard():
    # a lifting rule that puts 4 points of an allegedly irreducible
    # degree-3 curve on one line must trip the intersection bound
    fake = CurveSpec(3, lambda x: [mk_point(x, 0)], "fake")
    with pytest.raises(InvariantViolation):
        quadruple_experiment(fake, range(6))


def test_quadruple_experiment_checks_only_counted_lines():
    # three points of a "conic" on y = 0 break the degree bound, but a
    # line of 3 members is not counted, so it is not checked either
    fake = CurveSpec(2, lambda x: [mk_point(x, 0)], "fake conic")
    assert quadruple_experiment(fake, range(3)) == 0
    with pytest.raises(InvariantViolation):
        quadruple_experiment(fake, range(4))


def test_degree_bound_guard_on_degree_one():
    # a degree-1 curve is exempt only on the line through its lifted
    # points; this rule puts x < 3 on y = 0 and five more on y = 1
    step = CurveSpec(1, lambda x: [mk_point(x, 0 if x < 3 else 1)], "step")
    with pytest.raises(InvariantViolation):
        quadruple_experiment(step, range(8))


def test_few_directions():
    assert few_directions_experiment(graph_power(2), range(1, 11)) == 17
    assert few_directions_experiment(row(2), range(12)) == 1
    cubic_dirs = few_directions_experiment(graph_power(3), range(1, 41))
    assert cubic_dirs > 40 ** 1.3
