import copy
import itertools
import multiprocessing
import pickle
import random
import sys
from fractions import Fraction as F
from math import comb, isqrt

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from orchard import (InvariantViolation, PointSet, ProjPoint,
                     RichLineTable, WeierstrassCurve,
                     build_tenpoint_weierstrass, direction_count,
                     direction_point, extend_cantilever, gen_cubic_power,
                     gen_grid, gen_parallel_aps, green_tao_bound, join,
                     k_rich_count, mk_point, richlines, spanned_lines,
                     triple_line_count, tripartite_count)
from orchard.richlines import _drain, _store, line_members
from oracles import (InlineContext, apply_transform, brute_directions,
                     brute_multiplicities, brute_tripartite)


def test_pointset_rejects_duplicates():
    with pytest.raises(ValueError):
        PointSet((mk_point(0, 0), mk_point(F(0), F(0))))


def test_pointset_label_validation():
    pts = (mk_point(0, 0), mk_point(1, 1))
    with pytest.raises(ValueError, match="labels must cover all indices"):
        PointSet(pts, (1,))
    with pytest.raises(ValueError, match=r"labels must be in \{1, 2, 3\}"):
        PointSet(pts, (1, 7))
    with pytest.raises(ValueError, match="duplicate points rejected"):
        PointSet(pts + (mk_point(1, 1),), (1, 2, 3))


@pytest.mark.parametrize("bad", [True, 2.0, F(2), "1"])
def test_pointset_refuses_a_label_that_is_not_an_int(bad):
    # each equals a label or prints as one; the points file refuses them
    # too
    with pytest.raises(ValueError, match=r"labels must be in \{1, 2, 3\}"):
        PointSet((mk_point(0, 0), mk_point(1, 1)), (1, bad))


def test_pointset_value_semantics():
    pts = (mk_point(0, 0), ProjPoint((1, 0, 0)))
    ps = PointSet(list(pts), [1, 2])
    assert ps.points == pts and ps.labels == (1, 2) and ps.n == 2
    assert ps == PointSet(points=pts, labels=(1, 2))
    assert hash(ps) == hash(PointSet(pts, (1, 2))) == hash((pts, (1, 2)))
    assert ps != PointSet(pts) and ps != PointSet(pts, (2, 1))
    assert PointSet(pts).labels is None
    assert repr(ps) == ("PointSet(points=(ProjPoint(0, 0, 1), "
                        "ProjPoint(1, 0, 0)), labels=(1, 2))")
    with pytest.raises(AttributeError, match="cannot assign to field 'labels'"):
        ps.labels = None
    with pytest.raises(AttributeError, match="cannot delete field 'points'"):
        del ps.points
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(ps, protocol))
        assert back == ps and repr(back) == repr(ps)
    assert copy.deepcopy(ps) == ps and copy.deepcopy(PointSet(pts)) == \
        PointSet(pts)


def test_rich_line_table_value_semantics():
    table = spanned_lines(gen_grid(3))
    assert table == RichLineTable(dict(table.entries), 12)
    assert table != RichLineTable(dict(table.entries), 11)
    assert repr(RichLineTable({(0, 1, 0): 3}, 2)) == \
        "RichLineTable(entries={(0, 1, 0): 3}, two_point=2)"
    with pytest.raises(TypeError):
        hash(table)
    # both fields are given; neither can be assigned
    with pytest.raises(TypeError):
        RichLineTable()
    with pytest.raises(AttributeError, match="cannot assign to field"):
        table.two_point = 1
    assert RichLineTable({(1, 0, 0): 3}, 1).pair_total() == 4
    for back in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
        assert back == table and back.entries is not table.entries


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
        assert sorted(table.entries.items()) == rich
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
    assert list(serial.entries) == list(parallel.entries)


def test_workers_beyond_the_rows_start_no_idle_process(monkeypatch):
    ctx = InlineContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    monkeypatch.setattr(richlines, "_cores", lambda: 64)
    ps = gen_grid(3)
    serial = spanned_lines(ps)
    table = spanned_lines(ps, workers=5000)
    assert ctx.sizes == [9]                 # one process per row, not 5000
    assert table == serial and list(table.entries) == list(serial.entries)
    counts = []                             # what the pool hands back
    ctx.imap = lambda fn, args, chunksize=1: counts.extend(map(fn, args)) \
        or counts
    assert tripartite_count(gen_parallel_aps(4), (1, 2, 3), workers=50) == 8
    assert ctx.sizes == [9, 4]              # one process per group-1 row
    # each row returns one integer: its group-1 point x meets the group-3
    # points x' of 0..3 with x + x' even, so the line holds (x + x')/2
    assert counts == [2, 2, 2, 2]


@pytest.mark.parametrize("cores, sizes", [(3, [3, 3]), (1, [])])
def test_the_pool_has_at_most_one_process_a_core(monkeypatch, cores, sizes):
    # 5000 workers on 9 rows and on 4 lead rows: a pool as large as the
    # cores, and none on one core, where the rows are read in this process
    ctx = InlineContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    monkeypatch.setattr(richlines, "_cores", lambda: cores)
    ps = gen_grid(3)
    assert spanned_lines(ps, workers=5000) == spanned_lines(ps)
    assert tripartite_count(gen_parallel_aps(4), (1, 2, 3), workers=5000) == 8
    assert ctx.sizes == sizes


def test_pool_opens_at_the_first_read(monkeypatch):
    ctx = InlineContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    hs = gen_grid(3).raw()
    stream = richlines._rich_lines(hs, 2)
    assert ctx.sizes == []
    assert next(stream) == [0, 1, 2]
    assert ctx.sizes == [2]
    assert _read(stream) == ([[0, 3, 6], [0, 4, 8], [1, 4, 7], [2, 4, 6],
                              [2, 5, 8], [3, 4, 5], [6, 7, 8]], 12)
    assert ctx.sizes == [2] and ctx.exits == 1


def test_closed_stream_leaves_the_pool(monkeypatch):
    ctx = InlineContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    stream = richlines._rich_lines(gen_grid(4).raw(), 2)
    next(stream)
    assert ctx.exits == 0
    stream.close()
    assert ctx.exits == 1


def test_row_sighting_must_be_suffix():
    marks = {}
    # the rows of 3 and 5 sight the first line, and are dropped
    sightings = [[1, 3, 5, 7, 8], [3, 5, 7, 8], [5, 7, 8], [2, 4, 6]]
    assert [m for m in sightings if _store(marks, m)] == \
        [[1, 3, 5, 7, 8], [2, 4, 6]]
    with pytest.raises(InvariantViolation):
        _store(marks, [3, 5, 8])
    with pytest.raises(InvariantViolation):
        _store(marks, [5, 7, 8, 9])


@pytest.mark.parametrize("m", [3, 4, 5, 9])
def test_a_line_marks_the_pairs_a_later_row_starts_from(m):
    marks = {}
    members = list(range(10, 10 + 2 * m, 2))
    assert _store(marks, members)
    assert len(marks) == m - 3
    assert sorted(marks) == [tuple(members[k:k + 2])
                             for k in range(1, m - 2)]
    for k in range(1, m - 2):               # every later sighting is known
        assert not _store(marks, members[k:])


def test_lines_stream_row_by_row(monkeypatch):
    # a line reaches the consumer in its lowest row, before the next
    # row is built, and only lines of 4+ members stay in the marks
    built, marks_seen = [], []
    group, store = richlines._group, richlines._store

    def spy_group(i, keys):
        built.append(i)
        return group(i, keys)

    def spy_store(marks, members):
        marks_seen.append(marks)
        return store(marks, members)

    monkeypatch.setattr(richlines, "_group", spy_group)
    monkeypatch.setattr(richlines, "_store", spy_store)
    ps = gen_parallel_aps(12)
    stream = richlines._rich_lines(ps.raw())
    assert built == []
    first = next(stream)
    assert first[0] == 0 and built == [0]
    lines = [first]
    assert _drain(stream, lines.append) == 216   # C(36, 2) - 72*3 - 3*66
    assert built == list(range(ps.n))
    # the three rows of 12 points and the 72 lines x1 + x3 = 2 * x2
    assert sorted(len(m) for m in lines) == [3] * 72 + [12] * 3
    marks = marks_seen[0]
    assert all(m is marks for m in marks_seen) and len(marks) == 3 * 9
    assert all(len(m) >= 4 for m in marks.values())


def test_workers_below_one_raise_at_the_call():
    # the check does not wait for the first line to be read
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            richlines._rich_lines(gen_grid(3).raw(), workers)


def _non_suffix_sighting(monkeypatch):
    """Point 1's row sights the line {0, 1, 2, 3} of the grid's first
    column as [1, 2, 4]: the right first two members, a wrong tail."""
    group = richlines._group

    def corrupted(i, keys):
        count, rich = group(i, keys)
        return count, [[1, 2, 4] if m[:2] == [1, 2] else m for m in rich]

    monkeypatch.setattr(richlines, "_group", corrupted)
    return gen_grid(4)


@pytest.mark.parametrize("workers", [1, 2])
def test_non_suffix_sighting_raises(monkeypatch, workers):
    # the row of point 1 sights the marked line; with two workers a
    # pool process builds that row and the parent finds the sighting
    ps = _non_suffix_sighting(monkeypatch)
    with pytest.raises(InvariantViolation, match=r"\[1, 2, 4\]"):
        spanned_lines(ps, workers=workers)


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


PACKED_PATTERNS = [(1, 1, 2), (1, 2, 2), (2, 2, 2), (3, 3, 1), (1, 2, 3)]


def _mixed_labels(points, seed):
    """The points, labelled at random from {1, 2, 3} with each group used."""
    rng = random.Random(seed)
    while True:
        labels = tuple(rng.choice((1, 2, 3)) for _ in points)
        if len(set(labels)) == 3:
            return PointSet(tuple(points), labels)


@pytest.mark.parametrize("pattern", PACKED_PATTERNS)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("make", [lambda: gen_grid(5).points,
                                  lambda: _with_infinity()],
                         ids=["grid", "infinity"])
def test_packed_label_counts_match_brute(make, seed, pattern):
    ps = _mixed_labels(make(), seed)
    lines = list(richlines._rich_lines(ps.raw()))
    assert max(len(m) for m in lines) >= 4
    assert any(len({ps.labels[i] for i in m}) == 3 for m in lines)
    assert tripartite_count(ps, pattern) == brute_tripartite(
        list(ps.points), list(ps.labels), pattern)


# the lines of _long_line_set: y = 0 holds 300 points of group 1, x = 0
# holds (0, 0) of group 1, two points of group 2 and one of group 3
LONG_LINE_COUNTS = {(1, 1, 1): 1, (1, 1, 2): 0, (1, 1, 3): 0, (1, 2, 2): 1,
                    (1, 2, 3): 1, (1, 3, 3): 0, (2, 2, 2): 0, (2, 2, 3): 1,
                    (2, 3, 3): 0, (3, 3, 3): 0}


def _long_line_set(relabel):
    """300 points of one group on y = 0, more than an 8-bit field holds,
    and a mixed line x = 0; group g is renamed relabel[g - 1]."""
    pts = [mk_point(x, 0) for x in range(300)]
    pts += [mk_point(0, 1), mk_point(0, 2), mk_point(0, -1)]
    labels = [1] * 300 + [2, 2, 3]
    return PointSet(tuple(pts), tuple(relabel[g - 1] for g in labels))


@pytest.mark.parametrize("relabel", [(1, 2, 3), (2, 3, 1), (3, 1, 2)])
def test_packed_label_counts_on_a_long_line(relabel):
    # a count of 300 in a field of 8 bits would carry one into the next
    # group's field, and (1, 1, 2) would count the line y = 0
    ps = _long_line_set(relabel)
    assert sorted(len(m) for m in richlines._rich_lines(ps.raw())) == \
        [4, 300]
    for pattern, count in LONG_LINE_COUNTS.items():
        assert tripartite_count(ps, [relabel[g - 1] for g in pattern]) == \
            count


def test_packed_label_counts_with_workers():
    ps = _long_line_set((1, 2, 3))
    for pattern, count in LONG_LINE_COUNTS.items():
        assert tripartite_count(ps, pattern, workers=2) == count
    mixed = _mixed_labels(_with_infinity(), 0)
    assert [tripartite_count(mixed, p, workers=2) for p in PACKED_PATTERNS] \
        == [tripartite_count(mixed, p) for p in PACKED_PATTERNS]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("pattern", [(1, 1, 2), (2, 2, 1), (3, 3, 3),
                                     (1, 2, 3)])
@pytest.mark.parametrize("make", [lambda: gen_grid(5).points,
                                  lambda: _with_infinity()],
                         ids=["grid", "infinity"])
def test_tripartite_reads_only_the_rows_of_its_smallest_group(
        monkeypatch, make, pattern, workers):
    # every row keys its joins once, by slope code or canonical line, and
    # only the lead group's rows are keyed: the smallest group of (1, 2,
    # 3), the doubled one of (g, g, h) and (g, g, g).  Group 3 is in every
    # set, but joined only if the pattern names it; only (g, g, g) reads
    # a line stream.
    ps = _mixed_labels(make(), 1)
    ctx = InlineContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    anchors, joined, streams = [], set(), []

    def spy(keys):
        def keyed(anchor, pts, *args):
            anchors.append(anchor)
            joined.update(pts)
            return keys(anchor, pts, *args)
        return keyed
    for name in ("_slopes", "_lines"):
        monkeypatch.setattr(richlines, name, spy(getattr(richlines, name)))
    stream = richlines._stream
    monkeypatch.setattr(richlines, "_stream",
                        lambda rows: streams.append(1) or stream(rows))
    assert tripartite_count(ps, pattern, workers) == brute_tripartite(
        list(ps.points), list(ps.labels), pattern)
    group = {g: [p.h for p, h in zip(ps.points, ps.labels) if h == g]
             for g in (1, 2, 3)}
    doubled = [g for g in pattern if pattern.count(g) > 1]
    lead = doubled[0] if doubled else min(set(pattern),
                                          key=lambda g: (len(group[g]), g))
    assert sorted(anchors) == sorted(group[lead])
    assert joined <= {h for g in pattern for h in group[g]}
    assert streams == ([1] if len(set(pattern)) == 1 else [])
    assert ctx.sizes == ([] if workers == 1 else [2])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("make", [lambda: gen_grid(5).points,
                                  lambda: _with_infinity()],
                         ids=["grid", "infinity"])
def test_tripartite_in_the_mod_kernel_matches_brute(monkeypatch, make, seed,
                                                    workers):
    # labels shuffled over the points, every row keyed mod _P, none by
    # slope code
    labels = list(_mixed_labels(make(), seed).labels)
    random.Random(seed).shuffle(labels)
    ps = PointSet(make(), labels)
    monkeypatch.setattr(richlines, "_BIG_BITS", 0)
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: InlineContext())
    mod_rows = []
    mod_keys = richlines._mod_keys
    monkeypatch.setattr(richlines, "_mod_keys", lambda anchor, pts:
                        mod_rows.append(anchor) or mod_keys(anchor, pts))
    monkeypatch.setattr(richlines, "_slopes", None)
    for pattern in PACKED_PATTERNS:
        assert tripartite_count(ps, pattern, workers) == brute_tripartite(
            list(ps.points), labels, pattern)
    assert mod_rows


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


@pytest.mark.parametrize("n", [3.5, F(7, 2), True])
def test_green_tao_bound_refuses_a_non_int(n):
    # 3.5 gave 1.0, a float answer from an exact count
    with pytest.raises(ValueError, match="n must be an int"):
        green_tao_bound(n)


@pytest.mark.parametrize("k", [2.5, 3.0, F(5, 2), True])
@pytest.mark.parametrize("exactly", [False, True])
def test_k_rich_count_refuses_a_non_int(k, exactly):
    # 2.5 counted the lines of k = 3 (14 on the 4 x 4 grid), and 0 with
    # exactly=True
    with pytest.raises(ValueError, match="k must be an int"):
        k_rich_count(spanned_lines(gen_grid(4)), k, exactly=exactly)


@pytest.mark.parametrize("pattern", [(True, 2, 3), (1, 2, 3.0), (1, 1.0, 2),
                                     (F(1), 2, 3)])
def test_tripartite_pattern_entries_must_be_ints(pattern):
    # the rule PointSet applies to labels; (True, 2, 3) and (1, 2, 3.0)
    # each counted the 8 lines of (1, 2, 3)
    with pytest.raises(ValueError, match="pattern must be"):
        tripartite_count(gen_parallel_aps(4), pattern)


@pytest.mark.parametrize("workers", [1.5, 2.0, True])
def test_workers_that_are_not_an_int_raise_a_named_error(workers):
    # 1.5 reached the pool as its size, a bare TypeError
    with pytest.raises(ValueError, match="workers must be an int"):
        spanned_lines(gen_grid(3), workers=workers)


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


# --- the slope-code and mod-p keyed row kernels ----------------------------

def _read(stream):
    """The lines of a line stream, as a list, and its 2-point count."""
    lines = []
    two_point = _drain(stream, lines.append)
    return lines, two_point


def _exact(hs):
    """The serial all-exact kernel: the rows of _row with neither slope
    codes nor mod-_P keys, streamed as _rich_lines streams them."""
    return _read(richlines._stream(richlines._row(hs, None, None, None, i)
                                   for i in range(len(hs))))


def _kernels(hs, workers=1):
    """_rich_lines forced onto the slope codes, and onto mod-_P keys."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(richlines, "_BIG_BITS", 10 ** 9)
        slope = _read(richlines._rich_lines(hs, workers))
        mp.setattr(richlines, "_BIG_BITS", 0)
        modp = _read(richlines._rich_lines(hs, workers))
    return slope, modp


def _assert_stream_is_two_workers(hs):
    """The serial stream, read as a list, is the two-worker result (its
    rows built in this process)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiprocessing, "get_context",
                   lambda method: InlineContext())
        assert _read(richlines._rich_lines(hs)) == \
            _read(richlines._rich_lines(hs, workers=2))


def _assert_matches_exact(points, out):
    """out has the serial all-exact kernel's member lists, in its order
    (by first and second member), and 2-point count, and the oracle's
    lines, members and 2-point count."""
    exact = _exact([p.h for p in points])
    assert out[0] == exact[0]
    assert out[1] == exact[1]
    assert [m[:2] for m in out[0]] == sorted(m[:2] for m in out[0])
    brute = brute_multiplicities(points)
    keys = [join(points[m[0]], points[m[1]]).l for m in out[0]]
    assert sorted(keys) == sorted(k for k, m in brute.items() if m >= 3)
    for (a, b, c), members in zip(keys, out[0]):
        assert members == [i for i, p in enumerate(points)
                           if a * p.h[0] + b * p.h[1] + c * p.h[2] == 0]
    assert out[1] == sum(1 for m in brute.values() if m == 2)


def _assert_kernels_agree(points, workers=1):
    """Both keyed kernels, on any number of workers, match the serial
    all-exact one and the oracle."""
    for out in _kernels([p.h for p in points], workers):
        _assert_matches_exact(points, out)


def _with_infinity():
    rng = random.Random(3)
    pts = {direction_point(s) for s in (None, 0, 1, -1, F(1, 2))}
    while len(pts) < 24:
        pts.add(mk_point(rng.randint(-3, 3), rng.randint(-3, 3)))
    return tuple(sorted(pts, key=lambda p: p.h))


MOD_FIXTURES = {
    "grid": lambda: gen_grid(4).points,
    "parallel-aps": lambda: gen_parallel_aps(6).points,
    "cubic-power": lambda: gen_cubic_power(6).points,
    "infinity": _with_infinity,
}


# the tiny primes make zero rows and split keys; 2**61 - 1 gives keys
# of three CPython digits, _P of one
@pytest.mark.parametrize("p", [2, 3, 7, 101, 2 ** 61 - 1, richlines._P])
@pytest.mark.parametrize("fixture", sorted(MOD_FIXTURES))
def test_mod_kernel_matches_exact(monkeypatch, p, fixture):
    monkeypatch.setattr(richlines, "_P", p)
    _assert_kernels_agree(list(MOD_FIXTURES[fixture]()))


def test_small_prime_makes_zero_rows_and_collisions(monkeypatch):
    # the comparison above is only a test of the fallbacks if tiny
    # primes really produce joins that vanish mod p and mod-p classes
    # that hold more than one exact line
    seen = {"zero rows": 0, "collisions": 0}
    keys, split = richlines._mod_keys, richlines._one_line_each

    def counted_keys(anchor, pts):
        out = keys(anchor, pts)
        seen["zero rows"] += out is None
        return out

    def counted_split(*args):
        out = split(*args)
        seen["collisions"] += not out
        return out

    monkeypatch.setattr(richlines, "_mod_keys", counted_keys)
    monkeypatch.setattr(richlines, "_one_line_each", counted_split)
    for p in (3, 7):
        monkeypatch.setattr(richlines, "_P", p)
        _assert_kernels_agree(list(MOD_FIXTURES["cubic-power"]()))
    assert seen["zero rows"] > 0 and seen["collisions"] > 0


def _mapped_aps():
    """gen_parallel_aps(5) moved by an integer projective map with
    300-bit entries: 15 points on 16 rich lines, above _BIG_BITS."""
    rng = random.Random(4)
    rows = [[rng.getrandbits(300) - 2 ** 299 for _ in range(3)]
            for _ in range(3)]
    points = [apply_transform(rows, p) for p in gen_parallel_aps(5).points]
    assert richlines._coord_bits([p.h for p in points]) > richlines._BIG_BITS
    return points


# each regime of the tripartite row keys: its points and the richlines
# constants it sets
TRIPARTITE_REGIMES = {
    "slope": (lambda: gen_grid(5).points, {}),
    "infinity": (_with_infinity, {}),
    "big-bits-0": (_with_infinity, {"_BIG_BITS": 0}),
    "mapped-aps": (_mapped_aps, {}),
    "small-p": (lambda: gen_cubic_power(6).points, {"_BIG_BITS": 0, "_P": 7}),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("regime", sorted(TRIPARTITE_REGIMES))
def test_tripartite_patterns_in_every_regime(monkeypatch, regime, workers):
    make, constants = TRIPARTITE_REGIMES[regime]
    ps = _mixed_labels(make(), 2)
    for name, value in constants.items():
        monkeypatch.setattr(richlines, name, value)
    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: InlineContext())
    # how often a tripartite row fell back from its mod-_P keys
    seen = {"zero rows": 0, "splits": 0}
    keys, split = richlines._mod_keys, richlines._one_line_each
    row = richlines._tripartite_row

    def counted_row(*args):
        monkeypatch.setattr(richlines, "_mod_keys", counted_keys)
        monkeypatch.setattr(richlines, "_one_line_each", counted_split)
        try:
            return row(*args)
        finally:
            monkeypatch.setattr(richlines, "_mod_keys", keys)
            monkeypatch.setattr(richlines, "_one_line_each", split)

    def counted_keys(anchor, pts):
        out = keys(anchor, pts)
        seen["zero rows"] += out is None
        return out

    def counted_split(*args):
        out = split(*args)
        seen["splits"] += not out
        return out

    monkeypatch.setattr(richlines, "_tripartite_row", counted_row)
    for pattern in itertools.combinations_with_replacement((1, 2, 3), 3):
        assert tripartite_count(ps, pattern, workers) == brute_tripartite(
            list(ps.points), list(ps.labels), pattern), pattern
    if regime == "small-p":
        assert seen["zero rows"] > 0 and seen["splits"] > 0
    else:               # mod _P every row keeps its mod-_P keys
        assert seen == {"zero rows": 0, "splits": 0}


@st.composite
def big_point_sets(draw):
    """Affine points with 500- to 600-bit integer coordinates: random
    ones, plus runs s*P + t*Q planted on the lines through two of them."""
    big = st.integers(2 ** 500, 2 ** 600)
    signed = st.builds(lambda v, s: v * s, big, st.sampled_from((1, -1)))
    affine = st.tuples(signed, signed, st.just(1))
    points = {ProjPoint(h) for h in draw(st.lists(affine, min_size=2,
                                                  max_size=10))}
    for _ in range(draw(st.integers(1, 3))):
        (px, py, pz), (qx, qy, qz) = draw(st.lists(affine, min_size=2,
                                                   max_size=2))
        for s, t in draw(st.lists(st.tuples(st.integers(1, 9),
                                            st.integers(-9, 9)),
                                  min_size=2, max_size=6, unique=True)):
            h = (s * px + t * qx, s * py + t * qy, s * pz + t * qz)
            if any(h):
                points.add(ProjPoint(h))
    return sorted(points, key=lambda p: p.h)


@settings(max_examples=60, deadline=None)
@given(big_point_sets())
def test_mod_kernel_on_big_coordinates(points):
    assert max(abs(c) for p in points for c in p.h).bit_length() >= 500
    _assert_kernels_agree(points)
    _assert_stream_is_two_workers([p.h for p in points])


def test_mod_kernel_workers_match_serial():
    rng = random.Random(9)
    line = [tuple(rng.getrandbits(700) + 1 for _ in range(3))
            for _ in range(2)]
    pts = {ProjPoint(tuple(rng.getrandbits(700) + 1 for _ in range(3)))
           for _ in range(30)}
    pts |= {ProjPoint(tuple(s * u + v for u, v in zip(*line)))
            for s in range(1, 8)}
    ps = PointSet(tuple(sorted(pts, key=lambda p: p.h)))
    assert max(abs(c) for h in ps.raw() for c in h).bit_length() > \
        richlines._BIG_BITS
    serial = spanned_lines(ps, workers=1)
    parallel = spanned_lines(ps, workers=2)
    assert serial.entries == parallel.entries
    assert serial.two_point == parallel.two_point
    assert triple_line_count(serial) >= 1
    _assert_kernels_agree(list(ps.points), workers=2)


def _cantilever(m):
    """The Weierstrass cantilever of the lattice-verify benchmark call,
    extended by m."""
    curve = WeierstrassCurve(0, 17)
    cfg = build_tenpoint_weierstrass(curve, mk_point(-2, 3), mk_point(-1, 4),
                                     mk_point(4, 9), mk_point(8, 23))
    return extend_cantilever(cfg, m)


def _cantilever_points():
    """The distinct points of a Weierstrass cantilever, M = 6: 28
    points of up to 444 bits on 59 rich lines."""
    pts = set(_cantilever(6).points())
    assert max(abs(c) for p in pts for c in p.h).bit_length() > \
        richlines._BIG_BITS
    return PointSet(tuple(sorted(pts, key=lambda p: p.h)))


def _families(cant):
    """The points of a cantilever labelled by family: A 1, B 2, C 3."""
    return PointSet(cant.points(), [1] * len(cant.a_seq)
                    + [2] * len(cant.b_seq) + [3] * len(cant.c_seq))


def test_mod_prime_is_one_digit():
    # every residue, product factor and divisor of the mod-_P keys is
    # one digit of a CPython int; _P is the largest such prime
    def prime(q):
        return q > 1 and all(q % d for d in range(2, isqrt(q) + 1))
    digit = sys.int_info.bits_per_digit
    assert richlines._P.bit_length() <= digit and prime(richlines._P)
    assert not any(prime(q) for q in range(richlines._P + 1, 2 ** digit))


def _at_both_primes(monkeypatch, count):
    """count() with the mod-_P keys taken mod 2**61 - 1 and mod _P."""
    outs = []
    for p in (2 ** 61 - 1, richlines._P):
        monkeypatch.setattr(richlines, "_P", p)
        outs.append(count())
    return outs


def _big_counts(ps):
    """The line stream of ps and its tripartite count for each pattern."""
    return (_read(richlines._rich_lines(ps.raw())),
            [tripartite_count(ps, pattern) for pattern in
             itertools.combinations_with_replacement((1, 2, 3), 3)])


def test_both_primes_give_the_cantilever_stream_and_counts(monkeypatch):
    # the lattice-verify points, M = 30: 100 points of up to 4,714
    # bits, every row keyed mod p at either prime
    ps = _families(_cantilever(30))
    assert ps.n == 100 and richlines._coord_bits(ps.raw()) == 4714
    lines = richlines._lines
    monkeypatch.setattr(richlines, "_lines", lambda *args: pytest.fail(
        "a cantilever row fell back to canonical lines"))
    old, new = _at_both_primes(monkeypatch, lambda: _big_counts(ps))
    assert new == old
    assert len(new[0][0]) == 623 and new[0][1] == 3081
    monkeypatch.setattr(richlines, "_lines", lines)
    assert new[0] == _exact(ps.raw())


@settings(max_examples=20, deadline=None)
@given(big_point_sets(), st.integers(0, 3))
def test_both_primes_give_the_same_big_point_counts(points, seed):
    assume(len(points) >= 3)        # a point for each label
    with pytest.MonkeyPatch.context() as mp:
        old, new = _at_both_primes(
            mp, lambda: _big_counts(_mixed_labels(points, seed)))
    assert new == old


def test_a_mod_p_row_is_grouped_once(monkeypatch):
    # the row that checked its mod-_P keys (_one_line_each) is the row
    # that is streamed: one _group call for each of the 100 rows
    hs = [p.h for p in _cantilever(30).points()]
    calls, group = [], richlines._group
    monkeypatch.setattr(richlines, "_group",
                        lambda i, keys: calls.append(i) or group(i, keys))
    monkeypatch.setattr(richlines, "_lines", lambda *args: pytest.fail(
        "a cantilever row fell back to canonical lines"))
    out = _read(richlines._rich_lines(hs))
    assert calls == list(range(len(hs)))
    assert len(out[0]) == 623


@pytest.mark.parametrize("make", [lambda: gen_grid(4),
                                  lambda: gen_cubic_power(5),
                                  _cantilever_points],
                         ids=["grid", "slope", "mod-p"])
def test_workers_keep_the_serial_key_order(make):
    hs = make().raw()
    serial = _read(richlines._rich_lines(hs))
    parallel = _read(richlines._rich_lines(hs, workers=2))
    assert len(serial[0]) >= 3
    assert parallel == serial


@pytest.mark.parametrize("make", [lambda: gen_grid(5),
                                  lambda: gen_parallel_aps(5),
                                  _cantilever_points],
                         ids=["grid", "parallel-aps", "mod-p"])
def test_keyed_tables_in_serial_order(make):
    # spanned_lines and line_members key each line by its canonical
    # triple, in the order of (first member, second member)
    ps = make()
    members = line_members(ps)
    brute = brute_multiplicities(list(ps.points))
    assert list(members) == [join(ps.points[m[0]], ps.points[m[1]]).l
                             for m in members.values()]
    assert [m[:2] for m in members.values()] == sorted(
        m[:2] for m in members.values())
    assert {key: len(m) for key, m in members.items()} == {
        key: m for key, m in brute.items() if m >= 3}
    table = spanned_lines(ps)
    assert list(table.entries.items()) == [(key, len(m))
                                           for key, m in members.items()]


def test_anchors_at_infinity_take_the_exact_row(monkeypatch):
    points = _with_infinity()
    index = {p.h: i for i, p in enumerate(points)}
    rows = {"slope": [], "exact": []}

    def spy(name, keys):
        def counted(anchor, pts, *rest):
            rows[name].append(index[anchor])
            return keys(anchor, pts, *rest)
        return counted

    monkeypatch.setattr(richlines, "_slopes", spy("slope", richlines._slopes))
    monkeypatch.setattr(richlines, "_lines", spy("exact", richlines._lines))
    out = _read(richlines._rich_lines([p.h for p in points]))
    assert rows["exact"] == [i for i, p in enumerate(points) if p.at_infinity]
    assert sorted(rows["slope"] + rows["exact"]) == list(range(len(points)))
    _assert_matches_exact(points, out)


def _assert_rows_match_exact(points, a=0, lo=None):
    """Every row of the affine points (the joins from i to hs[i + 1:]),
    and with lo the tripartite row of a (the joins from a to hs[:a] +
    hs[lo:]), grouped by slope code and by key mod _P (at _P and at 7),
    has the all-exact row's count and member lists."""
    hs = [p.h for p in points]
    shift = richlines._slope_shift(richlines._coord_bits(hs))
    rows = [(hs[i], hs[i + 1:]) for i in range(len(hs))]
    if lo is not None:
        rows.append((hs[a], hs[:a] + hs[lo:]))
    for anchor, pts in rows:
        # _group(-1, ...) numbers the joins 0, 1, ... as pts
        exact = richlines._group(-1, richlines._lines(anchor, pts))
        assert richlines._group(-1, richlines._slopes(anchor, pts,
                                                      shift)) == exact
        for p in (richlines._P, 7):
            mod = [tuple(c % p for c in h) for h in [anchor] + pts]
            # numbered from 0, so the anchor, numbered -1, is last
            numbered = [*pts, anchor]
            bits = [max(map(abs, h)).bit_length() for h in numbered]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(richlines, "_P", p)
                keys, row = richlines._keys(
                    anchor, pts, (mod[0], mod[1:], numbered, bits), None)
            assert richlines._group(-1, keys) == exact
            assert row in (None, exact)


def test_pencil_keys_reach_each_anchor_branch(monkeypatch):
    # mod 7, (1, 1/7) = (7, 1, 7) is an anchor of the y branch and (1/7, 1)
    # = (1, 7, 7) one of the x branch; the others take the z branch, and
    # the horizontal joins of y = 0 have u = 0, the key _P
    points = [mk_point(0, 0), mk_point(1, 0), mk_point(2, 0), mk_point(1, 2),
              mk_point(3, 5), mk_point(1, F(1, 7)), mk_point(F(1, 7), 1),
              mk_point(F(2, 7), 3)]
    seen, keys = set(), richlines._mod_keys

    def spy(anchor, pts):
        out = keys(anchor, pts)
        if richlines._P == 7 and out is not None:
            x, y, z = anchor
            seen.add("z" if z else "y" if y else "x")
            if 7 in out:
                seen.add("u = 0")
        return out

    monkeypatch.setattr(richlines, "_mod_keys", spy)
    _assert_rows_match_exact(points)
    assert seen == {"x", "y", "z", "u = 0"}


def test_split_key_with_its_shortest_points_last_falls_back(monkeypatch):
    # mod 7 the three joins from (1000, 3) share one key, since (702, 8),
    # (2, 1) and (9, 1) agree mod 7, but they lie on two lines: the
    # check crosses the two shortest points, the last two of the class,
    # finds the anchor off their line, and the row takes canonical lines
    points = [mk_point(1000, 3), mk_point(702, 8), mk_point(2, 1),
              mk_point(9, 1)]
    hs = [p.h for p in points]
    monkeypatch.setattr(richlines, "_P", 7)
    monkeypatch.setattr(richlines, "_BIG_BITS", 0)
    hp, hb, shift = richlines._regime(hs)
    assert shift is None and hb == [10, 10, 2, 4]
    assert len(set(richlines._mod_keys(hp[0], hp[1:]))) == 1
    crossed, checks = [], []
    cross, check = richlines._cross, richlines._one_line_each
    monkeypatch.setattr(richlines, "_cross",
                        lambda p, q: crossed.append((p, q)) or cross(p, q))
    monkeypatch.setattr(richlines, "_one_line_each",
                        lambda *args: checks.append(check(*args))
                        or checks[-1])
    keys, row = richlines._keys(hs[0], hs[1:], (hp[0], hp[1:], hs, hb),
                                shift, 0)
    assert checks == [False] and crossed[0] == (hs[2], hs[3])
    assert row is None and keys == richlines._lines(hs[0], hs[1:])
    assert _read(richlines._rich_lines(hs)) == _exact(hs)
    _assert_rows_match_exact(points)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3),
                          st.integers(-4, 4), st.integers(1, 3)),
                min_size=2, max_size=16), st.data())
def test_slope_row_matches_exact_row(coords, data):
    points = list({mk_point(F(a, b), F(c, d)): None
                   for a, b, c, d in coords})
    a = data.draw(st.integers(0, len(points) - 1))
    _assert_rows_match_exact(points, a,
                             data.draw(st.integers(a + 1, len(points))))


def test_slope_row_with_one_vertical_join():
    # row 0: (0, 0) -> (0, 5) is its one vertical join, the None code;
    # the other codes are distinct, then one of them repeats
    points = [mk_point(0, 0), mk_point(0, 5), mk_point(1, 1), mk_point(1, 3),
              mk_point(2, 3)]
    hs = [p.h for p in points]
    shift = richlines._slope_shift(richlines._coord_bits(hs))
    assert richlines._slopes(hs[0], hs[1:], shift).count(None) == 1
    assert richlines._group(0, richlines._slopes(hs[0], hs[1:], shift)) == \
        (4, [])
    points.append(mk_point(2, 2))           # on the line y = x of row 0
    hs = [p.h for p in points]
    assert richlines._slopes(hs[0], hs[1:], shift).count(None) == 1
    assert richlines._group(0, richlines._slopes(hs[0], hs[1:], shift)) == \
        (4, [[0, 2, 5]])
    _assert_rows_match_exact(points)


def _egcd(a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - q * s1, t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _unimodular_third(u, v):
    """A point k with det(u, v, k) = 1 and coordinates about as big as
    those of u and v, or None when the minors of u, v share a factor."""
    line = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])
    g1, s, t = _egcd(line[0], line[1])
    g, p, q = _egcd(g1, line[2])
    if g != 1:
        return None
    k = (p * s, p * t, q)                  # line . k = 1
    # Babai rounding against the lattice spanned by u and v
    uu, uv, vv = (sum(a * b for a, b in zip(x, y))
                  for x, y in ((u, u), (u, v), (v, v)))
    ku, kv = (sum(a * b for a, b in zip(k, y)) for y in (u, v))
    det = uu * vv - uv * uv
    alpha = round(F(ku * vv - kv * uv, det))
    beta = round(F(kv * uu - ku * uv, det))
    return tuple(c - alpha * a - beta * b for c, a, b in zip(k, u, v))


@st.composite
def farey_sets(draw):
    """Rows whose anchor i = (x, y, 1) has joins to j and k with
    det(i, j, k) = 1: the slopes of i -> j and i -> k differ by exactly
    1/(dx*dx'), with |dx| near 2**(2*bits), the bound of the slope
    code.  Points s*i + t*j are planted on some lines i j, so repeated
    codes occur too.  The anchors come first, so each row holds its
    Farey pair."""
    bits = draw(st.integers(3, 40))
    big = st.integers(2 ** (bits - 1), 2 ** bits - 1)
    signed = st.builds(lambda v, s: v * s, big, st.sampled_from((1, -1)))
    anchors, others = [], []
    for _ in range(draw(st.integers(1, 3))):
        i = (draw(signed), draw(signed), 1)
        j = (draw(signed), draw(signed), draw(big))
        k = _unimodular_third(i, j)
        if k is None or not any(k):
            continue
        anchors.append(i)
        others += [j, k]
        for s, t in draw(st.lists(st.tuples(st.integers(1, 3),
                                            st.integers(1, 3)),
                                  max_size=3, unique=True)):
            others.append(tuple(s * a + t * b for a, b in zip(i, j)))
    points = {ProjPoint(h): None for h in anchors + others}
    return list(points), bits


@settings(max_examples=150, deadline=None)
@given(farey_sets())
def test_slope_kernel_on_farey_directions(data):
    points, bits = data
    hs = [p.h for p in points]
    assert richlines._coord_bits(hs) <= richlines._BIG_BITS
    if len(hs) >= 2:
        _assert_matches_exact(points, _read(richlines._rich_lines(hs)))
        _assert_stream_is_two_workers(hs)


@settings(max_examples=150, deadline=None)
@given(farey_sets())
def test_direction_count_on_farey_directions(data):
    points = [p for p in data[0] if not p.at_infinity]
    if len(points) >= 2:
        assert direction_count(PointSet(tuple(points))) == \
            brute_directions(points)


def _planted(rng, bits):
    """Ten random points with coordinates below 2**bits, and five more
    on a line, spaced evenly from (2**bits - 1, y) to a random point."""
    def coord():
        return rng.randrange(-2 ** bits + 1, 2 ** bits)
    u = (2 ** bits - 1, coord(), 1)
    step = [(c - a) // 4 for a, c in zip(u, (coord(), coord(), 1))]
    hs = [(coord(), coord(), coord() or 1) for _ in range(10)]
    hs += [tuple(a + t * d for a, d in zip(u, step)) for t in range(5)]
    return sorted({ProjPoint(h) for h in hs}, key=lambda p: p.h)


@pytest.mark.parametrize("extra, path", [(0, "_slopes"), (1, "_mod_keys")])
def test_regime_boundary_at_big_bits(monkeypatch, extra, path):
    bits = richlines._BIG_BITS + extra
    points = _planted(random.Random(bits), bits)
    hs = [p.h for p in points]
    assert richlines._coord_bits(hs) == bits
    calls, exact = [], []
    keys, lines = getattr(richlines, path), richlines._lines
    monkeypatch.setattr(richlines, path,
                        lambda *args: calls.append(1) or keys(*args))
    monkeypatch.setattr(richlines, "_lines",
                        lambda *args: exact.append(1) or lines(*args))
    out = _read(richlines._rich_lines(hs))
    # every row keyed on the path, none made canonical; the planted line
    assert len(calls) == len(hs) and not exact and out[0]
    _assert_matches_exact(points, out)

