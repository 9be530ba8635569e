from fractions import Fraction as F

import pytest

from orchard import (InvariantViolation, ProjLine, TripartiteExperiment,
                     dichotomy_experiment, few_directions_experiment,
                     gen_cubic_power, graph_power, line_curve,
                     lines_product_curve, parabola, quadruple_experiment,
                     spanned_lines, triple_line_count, tripartite_curve_count,
                     weierstrass_spec)
from oracles import brute_triple_lines


def _xs(lo, hi):
    return tuple(F(i) for i in range(lo, hi + 1))


def test_lifting_rules():
    assert graph_power(3).lift(2) == [gen_cubic_power(2).points[4]]
    assert parabola().lift(F(1, 2))[0].affine() == (F(1, 2), F(1, 4))
    row = line_curve(ProjLine((0, 1, -1)))
    assert row.lift(7)[0].affine() == (7, 1)
    w = weierstrass_spec(0, 17)
    assert len(w.lift(2)) == 2            # y = +-5
    assert w.lift(0) == []                # 17 is not a rational square
    assert len(w.lift(-1)) == 2


def test_same_curve_matches_richlines():
    c = graph_power(3)
    xs = _xs(-8, 8)
    counts = tripartite_curve_count(
        TripartiteExperiment((c, c, c), (xs, xs, xs)))
    ps = gen_cubic_power(8)
    assert counts.distinct_lines == triple_line_count(spanned_lines(ps))
    assert counts.distinct_lines == len(brute_triple_lines(list(ps.points)))
    # every triple line of a cubic carries exactly one unordered triple
    assert counts.collinear_triples == counts.distinct_lines


def test_three_rows_closed_form():
    rows = tuple(line_curve(ProjLine((0, 1, -k))) for k in (0, 1, 2))
    xs = _xs(0, 5)
    counts = tripartite_curve_count(TripartiteExperiment(rows, (xs, xs, xs)))
    assert counts.distinct_lines == 18          # n^2/2 at n = 6
    assert counts.collinear_triples >= counts.distinct_lines


def test_quartic_has_no_collinear_triples():
    q = graph_power(4)
    xs = _xs(-20, 20)
    counts = tripartite_curve_count(TripartiteExperiment((q, q, q),
                                                         (xs, xs, xs)))
    assert counts.collinear_triples == 0
    assert counts.distinct_lines == 0


def test_lift_failures_reported():
    w = weierstrass_spec(0, 17)
    e = TripartiteExperiment((w, w, w), (_xs(-2, 2),) * 3)
    counts = tripartite_curve_count(e)
    failed = {x for _, x in counts.lift_failures}
    assert failed == {F(0), F(1)}      # 17 and 18 are not squares


def test_monotonicity_in_samples():
    c = graph_power(3)
    small = tripartite_curve_count(
        TripartiteExperiment((c, c, c), (_xs(-4, 4),) * 3))
    big = tripartite_curve_count(
        TripartiteExperiment((c, c, c), (_xs(-6, 6),) * 3))
    assert big.collinear_triples >= small.collinear_triples
    assert big.distinct_lines >= small.distinct_lines


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
    four = lines_product_curve([ProjLine((0, 1, 0)), ProjLine((0, 1, -1)),
                                ProjLine((0, 1, -2)), ProjLine((0, 1, -3))])
    got = quadruple_experiment(four, range(5))
    # at least the four component rows, exact value from the brute oracle
    assert got >= 4
    lifted = {p for x in range(5) for p in four.lift(F(x))}
    from itertools import combinations
    from orchard import join, incident
    brute = set()
    for a, b in combinations(sorted(lifted, key=lambda p: p.h), 2):
        l = join(a, b)
        if sum(1 for p in lifted if incident(p, l)) >= 4:
            brute.add(l.l)
    assert got == len(brute)


def test_degree_bound_guard():
    # a lifting rule that puts 4 points of an allegedly irreducible
    # degree-3 curve on one line must trip the intersection bound
    from orchard.curves import custom_curve
    from orchard import mk_point
    fake = custom_curve(lambda x: [mk_point(x, 0)], degree=3,
                        irreducible=True, label="fake")
    with pytest.raises(InvariantViolation):
        quadruple_experiment(fake, range(6))


def test_degree_bound_guard_on_degree_one():
    # a degree-1 curve is exempt only on the line through its lifted
    # points; this rule puts x < 3 on y = 0 and five more on y = 1
    from orchard.curves import custom_curve
    from orchard import mk_point
    step = custom_curve(lambda x: [mk_point(x, 0 if x < 3 else 1)],
                        degree=1, irreducible=True, label="step")
    with pytest.raises(InvariantViolation):
        quadruple_experiment(step, range(8))


def test_few_directions():
    assert few_directions_experiment(parabola(), range(1, 11)) == 17
    assert few_directions_experiment(line_curve(ProjLine((0, 1, -2))),
                                     range(12)) == 1
    cubic_dirs = few_directions_experiment(graph_power(3), range(1, 41))
    assert cubic_dirs > 40 ** 1.3
