import math
from fractions import Fraction as F
from math import comb

import pytest

from orchard import (DegenerateError, collinear, direction_count,
                     gen_cubic_power, gen_grid, gen_ngon_directions,
                     gen_parabola_ap, gen_parallel_aps, gen_triangle_ratios,
                     mk_point, parallel_aps_closed_form, ratio_point,
                     signed_ratio, spanned_lines, triangle_ratio_set,
                     triple_line_count, tripartite_count)
from oracles import brute_triple_lines, brute_tripartite


def test_parallel_aps_shape():
    ps = gen_parallel_aps(1)
    assert ps.n == 3 and triple_line_count(spanned_lines(ps)) == 1
    ps = gen_parallel_aps(4)
    assert ps.n == 12
    assert ps.labels == (1,) * 4 + (2,) * 4 + (3,) * 4


def test_parallel_aps_counts_small():
    for n in range(1, 9):
        ps = gen_parallel_aps(n)
        got = tripartite_count(ps, (1, 2, 3))
        assert got == parallel_aps_closed_form(n)
        assert got == brute_tripartite(list(ps.points), list(ps.labels),
                                       (1, 2, 3))


@pytest.mark.parametrize("n", [2.5, 2.0, F(5, 2), True])
def test_sizes_that_are_not_an_int_raise_a_named_error(n):
    # parallel_aps_closed_form(2.5) gave 2.0, a float answer from an
    # exact count; gen_grid(2.5) raised a bare TypeError from range
    with pytest.raises(ValueError, match="n must be an int"):
        parallel_aps_closed_form(n)
    with pytest.raises(ValueError, match="k must be an int"):
        gen_grid(n)
    # gen_parallel_aps(True) gave the one-column configuration
    with pytest.raises(ValueError, match="n must be an int"):
        gen_parallel_aps(n)


@pytest.mark.parametrize("n", [0, -1, -2])
def test_parallel_aps_closed_form_needs_a_point_per_row(n):
    with pytest.raises(ValueError, match="n >= 1"):
        parallel_aps_closed_form(n)
    with pytest.raises(ValueError, match="n >= 1"):
        gen_parallel_aps(n)


def test_parallel_aps_dense_middle_variant():
    ps = gen_parallel_aps(3, dense_middle=True)
    assert ps.n == 3 + 6 + 3
    # variant carries no count assertion, but must stay a valid config
    assert tripartite_count(ps, (1, 2, 3)) >= parallel_aps_closed_form(3)


def test_triangle_ratio_set():
    assert triangle_ratio_set(1) == [-1, 1]
    s = triangle_ratio_set(3)
    assert len(s) == 10
    assert F(4) in s and F(-1, 4) in s and F(1, 2) in s


def test_ratio_point():
    a, b = mk_point(0, 0), mk_point(1, 0)
    assert ratio_point(a, b, 1) == mk_point(F(1, 2), 0)
    assert ratio_point(a, b, -1).at_infinity
    for t in (F(2), F(-1, 2), F(5, 3)):
        assert signed_ratio(ratio_point(a, b, t), a, b) == t


def test_triangle_ratios_shape():
    ps = gen_triangle_ratios(1)
    assert ps.n == 6          # midpoint and infinity point per side
    by_label = {g: [p for p, l in zip(ps.points, ps.labels) if l == g]
                for g in (1, 2, 3)}
    assert all(len(v) == 2 for v in by_label.values())
    assert sum(1 for p in ps.points if p.at_infinity) == 3
    for n in (2, 3):
        assert gen_triangle_ratios(n).n == 3 * (4 * n - 2)


def test_triangle_ratios_brute_agreement():
    for n in (1, 2, 3):
        ps = gen_triangle_ratios(n)
        assert tripartite_count(ps, (1, 2, 3)) == brute_tripartite(
            list(ps.points), list(ps.labels), (1, 2, 3))


def test_triangle_ratios_rejects_collinear_vertices():
    with pytest.raises(DegenerateError):
        gen_triangle_ratios(2, mk_point(0, 0), mk_point(1, 1), mk_point(2, 2))


def test_ngon_combinatorics():
    cfg = gen_ngon_directions(4)
    assert cfg.direction_class(0, 1) != cfg.direction_class(1, 2)
    assert cfg.direction_class(0, 1) == cfg.direction_class(2, 3)
    assert gen_ngon_directions(3).chord_count == 3
    big = gen_ngon_directions(1000)
    assert big.direction_class_count == 1000
    assert big.chord_count == 499500


def test_ngon_classes_match_float_slopes():
    # same class <=> parallel chords, checked on the float rendering
    for n in (3, 4, 5, 6, 7, 8):
        cfg = gen_ngon_directions(n)
        verts = [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
                 for k in range(n)]
        angles = {}
        for i in range(n):
            for j in range(i + 1, n):
                dx = verts[j][0] - verts[i][0]
                dy = verts[j][1] - verts[i][1]
                ang = math.atan2(dy, dx) % math.pi
                cls = cfg.direction_class(i, j)
                angles.setdefault(cls, ang)
                delta = abs(angles[cls] - ang)
                assert min(delta, abs(delta - math.pi)) < 1e-9
        assert len(angles) == n


def test_cubic_power_counts():
    assert triple_line_count(spanned_lines(gen_cubic_power(1))) == 1
    assert triple_line_count(spanned_lines(gen_cubic_power(2))) == 2
    for n in (2, 4, 6):
        ps = gen_cubic_power(n)
        assert triple_line_count(spanned_lines(ps)) == len(
            brute_triple_lines(list(ps.points)))


def test_cubic_power_zero_sum_criterion():
    n = 5
    expected = 0
    for a in range(-n, n + 1):
        for b in range(a + 1, n + 1):
            c = -a - b
            if b < c <= n:
                expected += 1
    assert triple_line_count(spanned_lines(gen_cubic_power(n))) == expected


def test_parabola_ap():
    assert gen_parabola_ap(2).n == 2
    assert direction_count(gen_parabola_ap(5)) == 7
    assert triple_line_count(spanned_lines(gen_parabola_ap(3))) == 0


def test_grid_counts():
    assert triple_line_count(spanned_lines(gen_grid(2))) == 0
    assert triple_line_count(spanned_lines(gen_grid(3))) == 8
    # oracle-verified value (rows, columns, both diagonal families)
    assert triple_line_count(spanned_lines(gen_grid(4))) == 14
    assert triple_line_count(spanned_lines(gen_grid(4))) == len(
        brute_triple_lines(list(gen_grid(4).points)))


def test_generated_sets_obey_pair_bound():
    for ps in (gen_parallel_aps(5), gen_triangle_ratios(2),
               gen_cubic_power(4), gen_parabola_ap(6), gen_grid(4)):
        t = triple_line_count(spanned_lines(ps))
        assert 6 * t <= ps.n * (ps.n - 1)
