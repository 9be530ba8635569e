import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from orchard import (InvariantViolation, PointSet, apply_transform,
                     direction_count, direction_point, gen_cubic_power,
                     gen_grid, gen_parallel_aps, green_tao_bound,
                     k_rich_count, mk_point, spanned_lines,
                     triple_line_count, tripartite_count)
from orchard.richlines import _store
from oracles import brute_multiplicities, brute_tripartite, brute_directions


def test_pointset_rejects_duplicates():
    with pytest.raises(ValueError):
        PointSet((mk_point(0, 0), mk_point(F(0), F(0))))


def test_pointset_label_validation():
    pts = (mk_point(0, 0), mk_point(1, 1))
    with pytest.raises(ValueError):
        PointSet(pts, (1,))
    with pytest.raises(ValueError):
        PointSet(pts, (1, 7))


def test_spanned_lines_grid3():
    table = spanned_lines(gen_grid(3))
    assert k_rich_count(table, 3, exactly=True) == 8
    assert k_rich_count(table, 2, exactly=True) == 12
    assert table.pair_total() == comb(9, 2)


def test_spanned_lines_collinear_and_generic():
    three = PointSet(tuple(mk_point(i, 2 * i) for i in range(3)))
    t = spanned_lines(three)
    assert k_rich_count(t, 2) == 1 and triple_line_count(t) == 1
    quad = PointSet((mk_point(0, 0), mk_point(1, 0), mk_point(0, 1),
                     mk_point(2, 3)))
    t = spanned_lines(quad)
    assert t.entries == {}
    assert k_rich_count(t, 2, exactly=True) == 6


def test_spanned_lines_vs_brute_multiplicities():
    rng = random.Random(11)
    pts = {direction_point(1)}
    while len(pts) < 26:
        pts.add(mk_point(rng.randint(-4, 4), rng.randint(-4, 4)))
    ps = PointSet(tuple(sorted(pts, key=lambda p: p.h)))
    brute = brute_multiplicities(list(ps.points))
    rich = sorted((key, m) for key, m in brute.items() if m >= 3)
    two_point = sum(1 for m in brute.values() if m == 2)
    for workers in (1, 3):
        table = spanned_lines(ps, workers=workers)
        assert table.sorted_entries() == rich
        assert k_rich_count(table, 2, exactly=True) == two_point


def test_multiworker_identical():
    rng = random.Random(5)
    pts = set()
    while len(pts) < 120:
        pts.add(mk_point(F(rng.randint(-50, 50), rng.randint(1, 9)),
                         F(rng.randint(-50, 50), rng.randint(1, 9))))
    ps = PointSet(tuple(sorted(pts, key=lambda p: p.h)))
    serial = spanned_lines(ps, workers=1)
    parallel = spanned_lines(ps, workers=3)
    assert serial.entries == parallel.entries
    assert serial.two_point == parallel.two_point
    assert serial.sorted_entries() == parallel.sorted_entries()


def test_row_sighting_must_be_suffix():
    rich = {}
    _store(rich, (0, 1, 0), [3, 5])          # a stripe missing the lowest row
    _store(rich, (0, 1, 0), [1, 3, 5])
    _store(rich, (0, 1, 0), [3, 5])
    assert rich == {(0, 1, 0): [1, 3, 5]}
    with pytest.raises(InvariantViolation):
        _store(rich, (0, 1, 0), [2, 5])


def test_k_rich_count_modes():
    ps = gen_cubic_power(2)
    table = spanned_lines(ps)
    assert k_rich_count(table, 3) == 2          # {-2,0,2} and {-1,0,1}
    assert k_rich_count(table, 2) == len(brute_multiplicities(list(ps.points)))
    with pytest.raises(ValueError):
        k_rich_count(table, 1)


def test_tripartite_against_brute():
    ps = gen_parallel_aps(3)
    assert tripartite_count(ps, (1, 2, 3)) == 5
    assert tripartite_count(ps, (1, 2, 3)) == brute_tripartite(
        list(ps.points), list(ps.labels), (1, 2, 3))


def test_tripartite_square_plus_directions():
    # square vertices (group 1) and their four chord directions (group 2):
    # every chord meets its own direction point at infinity
    pts = [mk_point(0, 0), mk_point(1, 0), mk_point(0, 1), mk_point(1, 1)]
    from orchard import direction_point
    dirs = [direction_point(s) for s in (0, 1, -1)] + [direction_point(None)]
    ps = PointSet(tuple(pts + dirs), (1, 1, 1, 1, 2, 2, 2, 2))
    assert tripartite_count(ps, (1, 1, 2)) == 6
    assert tripartite_count(ps, (1, 1, 2)) == brute_tripartite(
        list(ps.points), list(ps.labels), (1, 1, 2))


def test_tripartite_single_group_consistency():
    pts = gen_grid(3).points
    ps = PointSet(pts, tuple(1 for _ in pts))
    assert tripartite_count(ps, (1, 1, 1)) == 8
    with pytest.raises(ValueError):
        tripartite_count(ps, (1, 2, 3))       # groups 2, 3 missing
    with pytest.raises(ValueError):
        tripartite_count(gen_grid(3), (1, 1, 1))   # no labels at all


def test_direction_count_examples():
    sq = PointSet((mk_point(0, 0), mk_point(1, 0), mk_point(0, 1),
                   mk_point(1, 1)))
    assert direction_count(sq) == 4
    assert direction_count(sq) == brute_directions(list(sq.points))
    col = PointSet(tuple(mk_point(i, i) for i in range(3)))
    assert direction_count(col) == 1
    from orchard import ProjPoint
    with pytest.raises(ValueError):
        direction_count(PointSet((mk_point(0, 0), ProjPoint((1, 0, 0)))))


def test_green_tao_bound_values():
    assert green_tao_bound(12) == 19
    assert green_tao_bound(3) == 1
    assert green_tao_bound(9) == 10
    with pytest.raises(ValueError):
        green_tao_bound(2)


def test_counts_invariant_under_projective_maps():
    ps = gen_grid(4)
    m = [[2, 1, 0], [0, 1, 1], [1, 0, 3]]     # det = 2*3 - 1*(-1) = 7
    img = PointSet(tuple(apply_transform(m, p) for p in ps.points))
    t0, t1 = spanned_lines(ps), spanned_lines(img)
    assert sorted(t0.entries.values()) == sorted(t1.entries.values())
    assert t0.two_point == t1.two_point
    assert triple_line_count(t0) == triple_line_count(t1)


def test_directions_invariant_under_affine_maps():
    ps = gen_grid(4)
    m = [[2, 1, 0], [1, 1, 0], [0, 0, 1]]     # affine, det 1
    img = PointSet(tuple(apply_transform(m, p) for p in ps.points))
    assert direction_count(ps) == direction_count(img)


@settings(max_examples=40)
@given(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                min_size=2, max_size=18, unique=True))
def test_pair_count_conservation(coords):
    ps = PointSet(tuple(mk_point(x, y) for x, y in coords))
    table = spanned_lines(ps)
    assert table.pair_total() == comb(ps.n, 2)
    # every stored multiplicity is at least 3 and at most n
    assert all(3 <= m <= ps.n for m in table.entries.values())


@settings(max_examples=30)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                min_size=3, max_size=14, unique=True))
def test_triple_lines_upper_bound(coords):
    ps = PointSet(tuple(mk_point(x, y) for x, y in coords))
    count = triple_line_count(spanned_lines(ps))
    assert 6 * count <= ps.n * (ps.n - 1)
