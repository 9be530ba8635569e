"""Acceptance suite: one test per acceptance criterion.

Each test ends by printing a single [PASS] line (visible with -s), so
the suite doubles as a checklist.  Expected values are either exact
closed forms or frozen outputs of the brute-force oracles in
oracles.py; tolerance bands are asserted with exact rational
arithmetic wherever the quantity itself is exact.
"""

import math
import random
import time
from fractions import Fraction as F
from itertools import product
from math import comb

from orchard import (PointSet, WeierstrassCurve, WEIERSTRASS_IDENTITY,
                     build_tenpoint_cuspidal, build_tenpoint_weierstrass,
                     collinear, conic_line_params, cuspidal_description,
                     cuspidal_form, CuspidalCubic, dichotomy_experiment,
                     direction_count, direction_point, ExternalPoint,
                     extend_cantilever, few_directions_experiment,
                     fit_cubics, gen_cubic_power, gen_grid,
                     gen_ngon_directions, gen_parabola_ap, gen_parallel_aps,
                     gen_triangle_ratios, graph_power, green_tao_bound,
                     halve_parameter_demo, involution_value, k_rich_count,
                     menelaus_params, mk_point, nine_point_check,
                     parabola_collinear, parallel_aps_closed_form,
                     parallel_lines_arcs, parallel_lines_description,
                     quadruple_experiment, ratio_point, reps_collinear,
                     spanned_lines, three_lines_multiplicative_arcs,
                     triple_line_count, tripartite_count,
                     verify_group_description, verify_lattice,
                     weierstrass_form)
from orchard.halving import middle_offset_multiplicative
from oracles import brute_tripartite, brute_triple_lines


def report(num: int, text: str):
    print(f"[PASS] criterion {num:02d}: {text}")


def test_c01_example1_counts():
    for n in (2, 4, 8, 12):
        ps = gen_parallel_aps(n)
        got = tripartite_count(ps, (1, 2, 3))
        assert got == n * n // 2
        assert got == brute_tripartite(list(ps.points), list(ps.labels),
                                       (1, 2, 3))
    t0 = time.time()
    for n in (50, 126, 200):
        ps = gen_parallel_aps(n)
        got = tripartite_count(ps, (1, 2, 3))
        assert got == n * n // 2 == parallel_aps_closed_form(n)
        big_n = 3 * n
        assert F(got) / F(big_n * big_n, 18) == 1
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(1, f"three-progressions count = n^2/2 exactly up to n=200, "
              f"ratio to N^2/18 is 1, {elapsed:.2f}s")


def test_c02_example4_counts():
    for n in range(1, 9):
        ps = gen_cubic_power(n)
        assert triple_line_count(spanned_lines(ps)) == len(
            brute_triple_lines(list(ps.points)))
    t0 = time.time()
    n = 300
    count = triple_line_count(spanned_lines(gen_cubic_power(n)))
    elapsed = time.time() - t0
    big_n = 2 * n + 1
    ratio = F(count) / F(big_n * big_n, 8)
    assert F(95, 100) <= ratio <= F(105, 100)
    assert elapsed < 30.0
    report(2, f"cubic-power |T| matches brute force to n=8; at n=300 "
              f"ratio {float(ratio):.4f} in [0.95, 1.05], {elapsed:.1f}s")


def test_c03_ngon_directions():
    t0 = time.time()
    for n in range(3, 1001):
        cfg = gen_ngon_directions(n)
        assert cfg.direction_class_count == n
        assert cfg.chord_count == comb(n, 2)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(3, f"n-gon: n direction classes and C(n,2) chords for "
              f"n <= 1000, {elapsed:.2f}s")


def test_c04_example2_counts():
    for n in (1, 2, 3, 4, 5):
        ps = gen_triangle_ratios(n)
        got = tripartite_count(ps, (1, 2, 3))
        assert got == brute_tripartite(list(ps.points), list(ps.labels),
                                       (1, 2, 3))
    counts, dist = {}, {}
    for n in (20, 40):
        ps = gen_triangle_ratios(n)
        counts[n] = tripartite_count(ps, (1, 2, 3))
        ratio = F(counts[n]) / F(ps.n * ps.n, 18)
        dist[n] = abs(ratio - 1)
    assert dist[40] <= dist[20]
    # the exact count is 4*(3(n-1)^2 + 3(n-1) + 1): sign product and
    # exponent sum of the ratio triple must cancel, so the true density
    # is N^2/12 and the N^2/18 band below cannot be met
    for n in (20, 40):
        m = n - 1
        assert counts[n] == 4 * (3 * m * m + 3 * m + 1)
    ratio40 = F(counts[40]) / F(gen_triangle_ratios(40).n ** 2, 18)
    assert F(6, 10) <= ratio40 <= F(14, 10), \
        f"ratio to N^2/18 is {float(ratio40):.4f}; the exact line count " \
        f"is 12(n-1)^2 + O(n) = N^2/12 + O(N), so this band is " \
        f"unreachable for the construction"
    report(4, "triangle-ratio count matches brute force to n=5; "
              "band check on the N^2/18 density")


def _generated_configs():
    for n in (1, 2, 3, 5, 8, 12):
        yield f"parallel-aps n={n}", gen_parallel_aps(n)
    yield "parallel-aps dense n=4", gen_parallel_aps(4, dense_middle=True)
    for n in (1, 2, 3):
        yield f"triangle-ratios n={n}", gen_triangle_ratios(n)
    for n in (1, 2, 4, 8):
        yield f"cubic-power n={n}", gen_cubic_power(n)
    for n in (2, 4, 9):
        yield f"parabola-ap n={n}", gen_parabola_ap(n)
    for k in (2, 3, 4, 6):
        yield f"grid k={k}", gen_grid(k)


def test_c05_universal_pair_bound():
    checked = 0
    for name, ps in _generated_configs():
        count = triple_line_count(spanned_lines(ps))
        assert 6 * count <= ps.n * (ps.n - 1), name
        checked += 1
    report(5, f"|T(H)| <= C(N,2)/3 on all {checked} generated configurations")


def test_c06_green_tao_advisory():
    lines = []
    for name, ps in _generated_configs():
        if ps.n < 10:
            continue
        exact3 = k_rich_count(spanned_lines(ps), 3, exactly=True)
        bound = green_tao_bound(ps.n)
        assert exact3 <= bound, f"violation reported: {name} " \
                                f"({exact3} > {bound})"
        lines.append(f"  {name}: {exact3} <= {bound}")
    # the n-gon chord structure, combinatorially: C(n,2) exactly-3-rich
    # lines (each chord plus its direction point) against the 2n bound
    for n in (10, 50, 1000):
        assert comb(n, 2) <= green_tao_bound(2 * n)
    print("\n".join(lines))
    report(6, f"exactly-3-rich counts within the floor(N(N-3)/6)+1 bound "
              f"on all {len(lines)} configurations with N >= 10")


def test_c07_group_descriptions():
    assert verify_group_description(gen_parallel_aps(6),
                                    parallel_lines_description())
    assert verify_group_description(gen_cubic_power(6),
                                    cuspidal_description())

    rng = random.Random(2024)

    def rand_fraction():
        return F(rng.randint(-24, 24), rng.randint(1, 8))

    def rand_ratio():
        while True:
            t = rand_fraction()
            if t not in (0, -1):
                return t

    # triangle sides, 10^4 exact trials, half forced collinear
    p1, p2, p3 = mk_point(0, 0), mk_point(4, 0), mk_point(1, 3)
    sides = [(p3, p2), (p1, p3), (p2, p1)]
    trials = 0
    while trials < 10_000:
        if trials % 2 == 0:
            xs = [ratio_point(a, b, rand_ratio()) for a, b in sides]
        else:
            from orchard import join, meet, DegenerateError
            q1 = mk_point(rand_fraction(), rand_fraction())
            q2 = mk_point(rand_fraction() + 50, rand_fraction() + 1)
            line = join(q1, q2)
            try:
                xs = [meet(line, join(a, b)) for a, b in sides]
            except DegenerateError:
                continue
            if any(x in (p1, p2, p3) for x in xs):
                continue
        _, verdict = menelaus_params(p1, p2, p3, *xs)
        assert verdict == collinear(*xs)
        trials += 1

    # parabola plus infinity, additive
    for trial in range(10_000):
        p, q = rand_fraction(), rand_fraction()
        if p == q:
            continue
        s = p + q if trial % 2 == 0 else p + q + 1
        pp, qq = mk_point(p, p * p), mk_point(q, q * q)
        d = direction_point(s)
        els = conic_line_params("parabola", pp, qq, d)
        assert (sum(e.value for e in els) == 0) == collinear(pp, qq, d)

    # hyperbola plus infinity, multiplicative
    for trial in range(10_000):
        p, q = rand_ratio(), rand_ratio()
        if p == q:
            continue
        s = -1 / (p * q)
        if trial % 2 == 1:
            s *= 2
        pp, qq = mk_point(p, 1 / p), mk_point(q, 1 / q)
        d = direction_point(s)
        els = conic_line_params("hyperbola", pp, qq, d)
        prod = els[0].value * els[1].value * els[2].value
        assert (prod == 1) == collinear(pp, qq, d)

    # Weierstrass group axioms on the y^2 = x^3 + 17 word set
    curve = WeierstrassCurve(0, 17)
    gens = [mk_point(-2, 3), mk_point(-1, 4), mk_point(2, 5),
            mk_point(4, 9), mk_point(8, 23)]
    for p in gens:
        for q in gens:
            assert curve.add(p, q) == curve.add(q, p)
    for a, b, c in product(gens, repeat=3):
        assert curve.add(curve.add(a, b), c) == curve.add(a, curve.add(b, c))
    for a, b, c, d in product(gens, repeat=4):
        left = curve.add(curve.add(curve.add(a, b), c), d)
        assert curve.add(curve.add(a, curve.add(b, c)), d) == left
        assert curve.add(a, curve.add(curve.add(b, c), d)) == left
        assert curve.add(a, curve.add(b, curve.add(c, d))) == left
        assert curve.add(curve.add(a, b), curve.add(c, d)) == left
    for p in gens:
        assert curve.add(p, WEIERSTRASS_IDENTITY) == p
        assert curve.add(p, curve.neg(p)) == WEIERSTRASS_IDENTITY
    report(7, "descriptions exhaustive at n=6; 3 x 10^4 random exact "
              "triples with zero failures; Weierstrass axioms exact")


def test_c08_tenpoint_cantilever():
    cfg = build_tenpoint_cuspidal(-1, 0, 1, F(1, 10))
    cant = extend_cantilever(cfg, 20)
    amap, bmap, cmap = cant.lattice_points()
    checked = skipped = 0
    for i, ai in amap.items():
        for j, bj in bmap.items():
            for k, ck in cmap.items():
                if ai == bj or ai == ck or bj == ck:
                    skipped += 1
                    continue
                assert collinear(ai, bj, ck) == (i + k == j), (i, j, k)
                checked += 1
    curve = CuspidalCubic()
    for p in cant.points():
        assert curve.contains(p)
    step = F(1, 10)
    assert all(amap[i] == curve.lift(-1 - i * step) for i in amap)
    assert all(bmap[j] == curve.lift(j * step) for j in bmap)
    assert all(cmap[k] == curve.lift(1 - k * step) for k in cmap)
    report(8, f"M=20 cantilever: {checked} index triples match i+k=j "
              f"({skipped} coincident skipped), exact membership, "
              f"meet-chain equals parametrized points")


def test_c09_nine_point_property():
    cusp = build_tenpoint_cuspidal(-1, 0, 1, F(1, 10))
    curve = WeierstrassCurve(0, 17)
    weier = build_tenpoint_weierstrass(
        curve, mk_point(-2, 3), mk_point(-1, 4), mk_point(4, 9),
        mk_point(8, 23))
    for cfg, form in ((cusp, cuspidal_form()),
                      (weier, weierstrass_form(0, 17))):
        assert nine_point_check(cfg)
        nine = [p for name, p in cfg.as_dict().items() if name != "B3"]
        basis = fit_cubics(nine)
        assert len(basis) == 1 and basis[0] == form
        ten_basis = fit_cubics(cfg.points())
        assert len(ten_basis) == 1 and ten_basis[0] == form
    report(9, "nine point and ten point fits are 1-dimensional and "
              "proportional to the generating cubic, both curves")


def test_c10_dichotomy():
    rows = dichotomy_experiment([3], [100])
    big_n = 201
    ratio = F(rows[0].count) / F(big_n * big_n, 8)
    assert F(9, 10) <= ratio <= F(11, 10)
    rows4 = dichotomy_experiment([4], [100])
    assert rows4[0].count == 0
    assert quadruple_experiment(graph_power(4), range(-50, 51)) == 0
    report(10, f"degree-3 ratio {float(ratio):.4f} in [0.9, 1.1] at n=100; "
               f"degree-4 count 0; quadruple lines on y=x^4 over "
               f"[-50,50]: 0")


def test_c11_few_directions():
    for n in (2, 10, 100, 500):
        assert direction_count(gen_parabola_ap(n)) == 2 * n - 3
    cubic_dirs = few_directions_experiment(graph_power(3), range(1, 201))
    assert cubic_dirs > 200 ** 1.3
    report(11, f"parabola has exactly 2n-3 directions up to n=500; "
               f"cubic has {cubic_dirs} > 200^1.3 ~ "
               f"{200 ** 1.3:.0f} at n=200")


def test_c12_conic_involution():
    halves = [F(k, 2) for k in range(-10, 11)]
    cases = 0
    for x in halves:
        for y in halves:
            if x == y:
                continue
            for a in range(-3, 4):
                for db in (-2, -1, 1, 2, 3):
                    b = F(a * a + db)
                    e = ExternalPoint(a, b)
                    oracle = collinear(mk_point(x, x * x),
                                       mk_point(y, y * y), mk_point(a, b))
                    assert parabola_collinear(x, y, e) == oracle
                    cases += 1
    assert cases >= 10_000
    inv_cases = 0
    for a in range(-3, 4):
        e = ExternalPoint(a, F(a * a) + 2)
        for x in halves:
            if x == e.a:
                continue
            y = involution_value(e, x)
            if y != e.a:
                assert involution_value(e, y) == x
                inv_cases += 1
    rng = random.Random(77)
    rep_cases = 0
    while rep_cases < 1000:
        a1, b1 = F(rng.randint(-30, 30), 2), F(rng.randint(-30, 30), 3)
        a2, b2 = F(rng.randint(-30, 30), 2), F(rng.randint(-30, 30), 3)
        if rep_cases % 2 == 0:
            lam = F(rng.randint(-8, 8), rng.randint(1, 3))
            a3, b3 = lam * a1 + (1 - lam) * a2, lam * b1 + (1 - lam) * b2
        else:
            a3, b3 = F(rng.randint(-30, 30), 2), F(rng.randint(-30, 30), 3)
        try:
            es = [ExternalPoint(a, b)
                  for a, b in ((a1, b1), (a2, b2), (a3, b3))]
        except ValueError:
            continue
        if len({(e.a, e.b) for e in es}) != 3:
            continue
        planar = collinear(mk_point(a1, b1), mk_point(a2, b2),
                           mk_point(a3, b3))
        assert reps_collinear(*es) == planar
        rep_cases += 1
    report(12, f"secant criterion == determinant on {cases} grid cases; "
               f"involution exact on {inv_cases}; 4-vector representatives "
               f"match plane collinearity on {rep_cases} random triples")


def test_c13_halving_demo():
    alpha, beta, gamma = three_lines_multiplicative_arcs()
    x_b = -3.0 / 5.0     # middle-arc offset 4
    p1 = halve_parameter_demo(alpha, beta, gamma, x_b, tol=1e-10,
                              max_iter=200)
    assert abs(p1[0] - (-1.0 / 3.0)) < 1e-10       # offset 2 = sqrt(4)
    assert abs(middle_offset_multiplicative(p1[0]) - 2.0) < 1e-9
    p2 = halve_parameter_demo(alpha, beta, gamma, p1[0], tol=1e-10,
                              max_iter=200)
    assert abs(p2[0] - (2.0 * math.sqrt(2.0) - 3.0)) < 2e-10   # offset 4^(1/4)
    arcs = parallel_lines_arcs()
    for target, half in ((1.0, 0.5), (-2.0, -1.0), (3.0, 1.5)):
        px, _ = halve_parameter_demo(*arcs, target)
        assert abs(px - half) < 1e-10
    report(13, "multiplicative halving recovers offset 2 from 4 within "
               "1e-10 and offset 4^(1/4) after two runs within 2e-10; "
               "additive case matches closed form")


def test_c14_performance():
    rng = random.Random(7)
    pts = set()
    while len(pts) < 2000:
        pts.add(mk_point(F(rng.randint(-999, 999), rng.randint(1, 60)),
                         F(rng.randint(-999, 999), rng.randint(1, 60))))
    ps = PointSet(tuple(sorted(pts, key=lambda p: p.h)))
    t0 = time.time()
    serial = spanned_lines(ps, workers=1)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    assert serial.pair_total() == comb(2000, 2)
    parallel = spanned_lines(ps, workers=2)
    assert serial.entries == parallel.entries
    assert serial.two_point == parallel.two_point
    report(14, f"2000-point enumeration in {elapsed:.1f}s (< 10s); "
               f"2-worker table identical to serial")
