import math
import random
from fractions import Fraction as F

import pytest

from orchard import (ConvergenceError, CuspidalCubic, DegenerateError,
                     ProjPoint, SampledArc, WeierstrassCurve,
                     build_tenpoint_cuspidal, build_tenpoint_weierstrass,
                     collinear, cuspidal_form, extend_cantilever, fit_cubics,
                     halve_parameter_demo, halving, incident, join, meet,
                     mk_point, nine_point_check, parallel_lines_arcs,
                     projective, richlines, standard_system_ok, tenpoint,
                     three_lines_multiplicative_arcs, verify_lattice,
                     weierstrass_form)
from orchard.halving import middle_offset_multiplicative
from orchard.tenpoint import describe_lattice_witness, lattice_witness
from oracles import brute_lattice, brute_law_witness, replaced

CURVE = WeierstrassCurve(0, 17)
W_BASE = (mk_point(-2, 3), mk_point(-1, 4), mk_point(4, 9))
W_DELTA = mk_point(8, 23)


def w_config():
    return build_tenpoint_weierstrass(CURVE, *W_BASE, W_DELTA)


def _with_b(cfg, j, p):
    """cfg with the point B_j replaced by p."""
    b = list(cfg.b_seq)
    b[j - 1] = p
    return replaced(cfg, b_seq=tuple(b))


def test_build_cuspidal_points():
    cfg = build_tenpoint_cuspidal(-1, 0, 1, F(1, 10))
    assert cfg.b_seq[2] == mk_point(F(3, 10), F(27, 1000))      # B3
    assert mk_point(0, 0) not in cfg.points()      # B0 is not one of them
    assert cfg.a_seq[2] == CuspidalCubic().lift(F(-12, 10))     # A2
    # A2 carries parameter a0 - 2*step (integer step needs 3 to avoid
    # parameter collisions for this base)
    cfg2 = build_tenpoint_cuspidal(-1, 0, 1, 3)
    assert cfg2.a_seq[2] == mk_point(-7, -343)


def test_defining_incidences():
    cfg = build_tenpoint_cuspidal(-1, 0, 1, F(1, 10))
    (a0, a1, a2), (b1, b2, b3, b4), (c0, c1, c2) = (cfg.a_seq, cfg.b_seq,
                                                    cfg.c_seq)
    assert incident(a1, join(b1, c0))
    assert incident(c1, join(b1, a0))
    assert incident(b2, join(a1, c1))
    assert incident(a2, join(b2, c0))
    assert incident(c2, join(b2, a0))
    assert incident(b3, join(a1, c2))
    assert incident(b4, join(a2, c2))
    # the line A2 B3 C1 is not part of the definition yet must hold
    assert collinear(a2, b3, c1)


def test_build_rejects_bad_bases():
    with pytest.raises(ValueError):
        build_tenpoint_cuspidal(-1, 0, 2, F(1, 10))   # sum nonzero
    with pytest.raises(ValueError):
        build_tenpoint_cuspidal(-1, 0, 1, 0)          # zero step
    with pytest.raises(DegenerateError):
        # step makes B2 collide with C0: b0 + 2d = c0 at d = 1/2
        build_tenpoint_cuspidal(-1, 0, 1, F(1, 2))


def test_verify_lattice_and_breakage():
    cfg = build_tenpoint_cuspidal(-1, 0, 1, F(1, 10))
    assert verify_lattice(cfg)
    broken = _with_b(cfg, 3, cfg.b_seq[3])
    # B4 in the B3 slot: the non-defining line A2 B3 C1 now fails
    assert not verify_lattice(broken)


def test_cantilever_matches_parametrized_points():
    cfg = build_tenpoint_cuspidal(-1, 0, 1, F(1, 10))
    cant = extend_cantilever(cfg, 20)
    curve = CuspidalCubic()
    step = F(1, 10)
    assert all(cant.a_seq[i] == curve.lift(-1 - i * step) for i in range(23))
    assert all(cant.b_seq[j - 1] == curve.lift(j * step)
               for j in range(1, 25))
    assert all(cant.c_seq[k] == curve.lift(1 - k * step) for k in range(23))
    assert verify_lattice(cant)
    # the sequences genuinely revisit curve points; the lattice check
    # must survive those coincidences
    assert cant.b_seq[8] == cant.c_seq[1]
    assert cant.a_seq[0] == cant.c_seq[20]


def test_cantilever_zero_extension_is_input():
    cfg = build_tenpoint_cuspidal(-1, 0, 1, F(1, 7))
    cant = extend_cantilever(cfg, 0)
    assert (len(cfg.a_seq), len(cfg.b_seq), len(cfg.c_seq)) == (3, 4, 3)
    assert cant.a_seq == cfg.a_seq
    assert cant.b_seq == cfg.b_seq
    assert cant.c_seq == cfg.c_seq


@pytest.mark.parametrize("m", [2.5, 2.0, F(5, 2), True])
def test_extension_length_that_is_not_an_int_raises_a_named_error(m):
    # 2.5 raised a bare TypeError from range
    with pytest.raises(ValueError, match="m must be an int"):
        extend_cantilever(build_tenpoint_cuspidal(-1, 0, 1, F(1, 7)), m)


def test_nine_point_check_cuspidal():
    cfg = build_tenpoint_cuspidal(-1, 0, 1, F(1, 10))
    assert nine_point_check(cfg)
    nine = [p for name, p in cfg.as_dict().items() if name != "B3"]
    basis = fit_cubics(nine)
    assert len(basis) == 1 and basis[0] == cuspidal_form()
    assert len(fit_cubics(cfg.points())) == 1


def test_nine_point_check_detects_perturbation():
    cfg = build_tenpoint_cuspidal(-1, 0, 1, F(1, 10))
    broken = _with_b(cfg, 3, mk_point(F(3, 10), F(28, 1000)))
    assert not nine_point_check(broken)


def test_nine_point_check_refuses_a_longer_cantilever():
    # the nine point property is about the ten points (M = 0) only
    cfg = build_tenpoint_cuspidal(-1, 0, 1, 3)
    with pytest.raises(ValueError, match=r"cantilever with M = 2$"):
        nine_point_check(extend_cantilever(cfg, 2))
    assert nine_point_check(extend_cantilever(cfg, 0))


def test_points_by_name():
    cfg = build_tenpoint_cuspidal(-1, 0, 1, F(1, 10))
    names = cfg.as_dict()
    assert list(names) == ["A0", "A1", "A2", "B1", "B2", "B3", "B4",
                           "C0", "C1", "C2"]
    assert list(names.values()) == cfg.points()
    assert names["B3"] == CuspidalCubic().lift(F(3, 10))
    cant = extend_cantilever(cfg, 1)
    assert list(cant.as_dict())[2:5] == ["A2", "A3", "B1"]
    assert list(cant.as_dict())[-2:] == ["C2", "C3"]


def test_weierstrass_configuration():
    cfg = w_config()
    assert verify_lattice(cfg)
    assert nine_point_check(cfg)
    basis = fit_cubics(cfg.points())
    assert len(basis) == 1 and basis[0] == weierstrass_form(0, 17)


def test_weierstrass_cantilever_membership():
    cfg = w_config()
    cant = extend_cantilever(cfg, 10)
    assert all(CURVE.contains(p) for p in cant.points())
    assert verify_lattice(cant)


def test_cantilever_builds_each_point_from_two_joins(monkeypatch):
    # A_i and C_i are built before B_{i+2}, so each of the 90 points
    # of M = 30 is the meet of the first two lines tried: 180 joins
    joins = []
    monkeypatch.setattr(tenpoint, "join",
                        lambda p, q: joins.append(1) or join(p, q))
    cant = extend_cantilever(w_config(), 30)
    assert len(joins) == 2 * 90
    # the points of the group law: A_i = A_0 - i D, B_j = B_0 + j D and
    # C_k = C_0 - k D for the step D
    minus = mk_point(8, -23)
    for seq, start, step in ((cant.a_seq, W_BASE[0], minus),
                             (cant.b_seq, CURVE.add(W_BASE[1], W_DELTA),
                              W_DELTA),
                             (cant.c_seq, W_BASE[2], minus)):
        p = start
        for q in seq:
            assert q == p
            p = CURVE.add(p, step)


def _cuspidal_cantilever():
    cant = extend_cantilever(build_tenpoint_cuspidal(-1, 0, 1, F(1, 10)), 20)
    assert cant.b_seq[8] == cant.c_seq[1]      # revisits curve points
    return cant


def _swap_b(cant, j1, j2):
    b = list(cant.b_seq)
    b[j1 - 1], b[j2 - 1] = b[j2 - 1], b[j1 - 1]
    return replaced(cant, b_seq=tuple(b))


def _b3_replaced_by_b4():
    cfg = build_tenpoint_cuspidal(-1, 0, 1, F(1, 10))
    return _with_b(cfg, 3, cfg.b_seq[3])


def _assert_lattice_witness_fails(obj, w):
    amap, bmap, cmap = obj.lattice_points()
    i, j, k = w.values[0], -w.values[1], w.values[2]
    assert w.points == (amap[i], bmap[j], cmap[k])
    assert len(set(w.points)) == 3
    assert w.collinear == collinear(*w.points) != (i + k == j)


@pytest.mark.parametrize("make", [
    _cuspidal_cantilever,
    lambda: extend_cantilever(w_config(), 10),
    lambda: build_tenpoint_cuspidal(-1, 0, 1, F(1, 10)),
])
def test_verify_lattice_matches_brute(make):
    obj = make()
    assert lattice_witness(obj) is None
    assert verify_lattice(obj) is True
    assert brute_lattice(obj) is True


def _b4_moved_off_every_line():
    cfg = build_tenpoint_cuspidal(-1, 0, 1, F(1, 10))
    return _with_b(cfg, 4, mk_point(F(1, 3), 7))


@pytest.mark.parametrize("make, on_line", [
    (lambda: _swap_b(_cuspidal_cantilever(), 3, 6), True),
    (lambda: _swap_b(extend_cantilever(w_config(), 10), 2, 9), True),
    (_b3_replaced_by_b4, True),
    (_b4_moved_off_every_line, False),
])
def test_broken_lattice_names_a_failing_witness(make, on_line):
    obj = make()
    assert brute_lattice(obj) is False
    assert verify_lattice(obj) is False
    w = lattice_witness(obj)
    _assert_lattice_witness_fails(obj, w)
    assert w.collinear is on_line
    i, j, k = w.values[0], -w.values[1], w.values[2]
    assert describe_lattice_witness(w).startswith(f"A{i}, B{j}, C{k} ")


def test_lattice_witness_builds_no_canonical_line(monkeypatch):
    objs = [_cuspidal_cantilever(), extend_cantilever(w_config(), 10),
            _swap_b(_cuspidal_cantilever(), 3, 6), _b4_moved_off_every_line()]
    calls = []
    for module in (projective, richlines):
        real = module.canonical
        monkeypatch.setattr(module, "canonical",
                            lambda h, _real=real: calls.append(h) or _real(h))
    witnesses = [lattice_witness(obj) for obj in objs]
    assert calls == []
    assert [w is None for w in witnesses] == [True, True, False, False]


@pytest.mark.parametrize("change, seed", [("value", s) for s in range(30)]
                         + [("point", s) for s in range(10)])
def test_lattice_witness_on_perturbed_roles_matches_brute(monkeypatch,
                                                          change, seed):
    # lattice_witness with one role value moved by a small step (the
    # witness is then collinear), or one point moved up by 1 (then it is
    # not): slope codes on the cuspidal cantilever, whose sequences
    # revisit points, and mod-p rows on the Weierstrass one
    rng = random.Random(seed)
    obj = (extend_cantilever(build_tenpoint_cuspidal(-1, 0, 1, F(1, 10)), 12)
           if seed % 2 else extend_cantilever(w_config(), 8))
    law_witness, seen = tenpoint._law_witness, []

    def perturbed(points, roles, operation):
        points, roles = list(points), [list(r) for r in roles]
        i = rng.randrange(len(roles))
        if change == "value":
            k = rng.randrange(len(roles[i]))
            piece, value = roles[i][k]
            roles[i][k] = (piece, value + rng.choice((-2, -1, 1, 2)))
        else:
            x, y, z = points[i].h
            points[i] = ProjPoint((x, y + z, z))
            assert len(set(points)) == len(points)
        seen.append((points, roles, operation))
        return law_witness(points, roles, operation)

    monkeypatch.setattr(tenpoint, "_law_witness", perturbed)
    w = lattice_witness(obj)
    points, roles, operation = seen[0]
    expected = brute_law_witness(points, roles, operation)
    assert (w.indices, w.values, w.collinear) == expected
    assert w.collinear is (change == "value")
    assert w.points == tuple(points[i] for i in w.indices)


def test_weierstrass_rejects_special_step():
    # delta = A0 - C0 collides A1 with C0
    bad = CURVE.add(W_BASE[0], CURVE.neg(W_BASE[2]))
    with pytest.raises(DegenerateError, match=r"coincident derived points "
                       r"\['A1', 'A2', 'C0', 'C1'\]"):
        build_tenpoint_weierstrass(CURVE, *W_BASE, bad)


def test_standard_system_check():
    arcs = parallel_lines_arcs()
    assert standard_system_ok(*arcs)
    bad = (SampledArc(lambda x: 1.0, -1, 1), SampledArc(lambda x: 0.0, -1, 1),
           SampledArc(lambda x: -1.0, -1, 1))
    assert not standard_system_ok(*bad)


def test_halving_additive():
    arcs = parallel_lines_arcs()
    px, py = halve_parameter_demo(*arcs, 1.0)
    assert abs(px - 0.5) < 1e-10 and py == 0.0
    px, _ = halve_parameter_demo(*arcs, 0.0)
    assert abs(px) < 1e-10
    px, _ = halve_parameter_demo(*arcs, -2.5)
    assert abs(px + 1.25) < 1e-10


def test_halving_multiplicative():
    alpha, beta, gamma = three_lines_multiplicative_arcs()
    x_b = -3.0 / 5.0                       # middle offset 4
    assert abs(middle_offset_multiplicative(x_b) - 4.0) < 1e-12
    p1 = halve_parameter_demo(alpha, beta, gamma, x_b)
    assert abs(p1[0] - (-1.0 / 3.0)) < 1e-10     # offset 2
    p2 = halve_parameter_demo(alpha, beta, gamma, p1[0])
    assert abs(p2[0] - (2.0 * math.sqrt(2.0) - 3.0)) < 2e-10  # offset sqrt 2


def test_halving_out_of_range():
    alpha, beta, gamma = three_lines_multiplicative_arcs()
    with pytest.raises(ConvergenceError):
        halve_parameter_demo(alpha, beta, gamma, 0.89)


def test_first_root_skips_undefined_samples():
    first_root = halving._first_root
    # g undefined left of 0.3; its first root on [-1, 1] is 0.6
    g = lambda x: None if x < 0.3 else (x - 0.6) * (x - 0.9)
    assert abs(first_root(g, -1.0, 1.0, 200) - 0.6) < 1e-13
    assert first_root(lambda x: x + 0.5, -1.0, 1.0, 200) == -0.5
    assert first_root(lambda x: x * x + 1.0, -1.0, 1.0, 200) is None
    # a root where g touches 0 between samples is not seen
    assert first_root(lambda x: x * x, -1.0, 0.999, 200) is None
    assert first_root(lambda x: None, -1.0, 1.0, 200) is None
    with pytest.raises(ConvergenceError):
        first_root(lambda x: None if 0.2 < x < 0.3 else x - 0.25,
                   -1.0, 1.0, 200)
