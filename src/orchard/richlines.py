"""Lines spanned by a point set, with exact multiplicities.

The central object is the stream of the lines through three or more set
points (triple lines), each as its sorted member indices, that ends
with the number of lines through exactly two.  It is built row by row
from the O(n^2) pair space: row i groups the joins (i, j), j > i, by
line, so a line through m >= 3 points shows up complete in the row of
its lowest member and is streamed to its consumer there.  Only lines of
4+ members are remembered, to know their later sightings; 2-point lines
are counted, never stored.  No O(n^3) pass and no floating slope
buckets anywhere: a row groups its joins by exact integer slope codes,
by lines mod a prime, or by canonical lines (see _row_lines).  A line's
canonical form is built, from its first two members, only for a caller
that reads keys (spanned_lines, line_members).
"""

from __future__ import annotations

from math import comb
from typing import (Callable, Generator, Iterable, Iterator, Optional,
                    Sequence)

from .projective import ProjPoint, _cross, _Frozen, canonical


class InvariantViolation(RuntimeError):
    """An internal consistency law failed; the message names it."""


class PointSet(_Frozen):
    """Ordered distinct projective points, optionally labelled 1/2/3."""

    __slots__ = ("points", "labels")
    points: tuple[ProjPoint, ...]
    labels: Optional[tuple[int, ...]]

    def __init__(self, points: Iterable[ProjPoint],
                 labels: Optional[Iterable[int]] = None):
        points = tuple(points)
        if len(set(points)) != len(points):
            raise ValueError("PointSet: duplicate points rejected")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(points):
                raise ValueError("PointSet: labels must cover all indices")
            if any(g not in (1, 2, 3) for g in labels):
                raise ValueError("PointSet: labels must be in {1, 2, 3}")
        super().__init__(points, labels)

    @property
    def n(self) -> int:
        return len(self.points)

    def raw(self) -> list[tuple[int, int, int]]:
        return [p.h for p in self.points]


class RichLineTable:
    """The lines through >= 3 set points, and how many lines hold exactly 2.

    entries maps each canonical line triple through m >= 3 set points
    to m; two_point counts the lines that carry exactly two.
    """

    def __init__(self, entries: Optional[dict] = None, two_point: int = 0):
        self.entries = {} if entries is None else entries
        self.two_point = two_point

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.entries, self.two_point)
                    == (other.entries, other.two_point))
        return NotImplemented

    def __repr__(self):
        return (f"RichLineTable(entries={self.entries!r}, "
                f"two_point={self.two_point!r})")

    def pair_total(self) -> int:
        return self.two_point + sum(comb(m, 2) for m in self.entries.values())


# 2**61 - 1 is prime.  Big-coordinate rows key their joins by line mod _P.
_P = 2 ** 61 - 1
# An input with a coordinate of more bits than this takes the mod-_P
# keys; set from the measured crossover of the two kernels (CHANGES.md).
_BIG_BITS = 256


def _line(hs: Sequence[tuple[int, int, int]], i: int, j: int
          ) -> tuple[int, int, int]:
    """The canonical line through the points i and j of hs."""
    return canonical(_cross(hs[i], hs[j]))


def _coord_bits(hs: Sequence[tuple[int, int, int]]) -> int:
    """The bit length of the largest coordinate in absolute value."""
    return max((abs(c) for h in hs for c in h), default=0).bit_length()


def _slope_shift(bits: int) -> int:
    """The shift that makes _slopes exact on coordinates below 2**bits."""
    return 4 * bits + 2


def _slopes(hs: Sequence[tuple[int, int, int]], i: int,
            shift: int) -> list[Optional[int]]:
    """The slope codes of the joins (i, j), j > i, for an affine point i.

    The code of (i, j) is floor(dy * 2**shift / dx) for the direction
    dx = x2*z1 - x1*z2, dy = y2*z1 - y1*z2 of i -> j, and None when
    dx = 0 (the vertical line through i).  With every coordinate below
    2**bits in absolute value and shift = 4 * bits + 2 (_slope_shift),
    equal codes mean equal slopes: each of dx, dy is a difference of two
    products below 2**(2*bits), so |dx|, |dy| < D = 2**(2*bits + 1), and
    two different slopes dy/dx != dy'/dx' differ by
    |dy*dx' - dy'*dx| / |dx*dx'| > 1/D**2; scaled by 2**shift = D**2
    they differ by more than 1, and so do their floors.  Equal slopes
    have equal floors, and negating (dx, dy) leaves the code alone.  A
    line through i is fixed by its slope, so within a row a code is a
    line; across rows it is a direction.
    """
    x1, y1, z1 = hs[i]
    return [((y2 * z1 - y1 * z2) << shift) // dx
            if (dx := x2 * z1 - x1 * z2) else None
            for x2, y2, z2 in hs[i + 1:]]


Lines = list[list[int]]
RowLines = tuple[int, Lines]
# lines through >= 3 points in serial order; returns the 2-point count
LineStream = Generator[list[int], None, int]


def _slope_row(hs: Sequence[tuple[int, int, int]], i: int,
               shift: int) -> RowLines:
    """Row i, for an affine point i, grouped by slope code (_slopes).

    A row of distinct codes holds no rich line and is counted by one
    set.  Otherwise the row dict maps a code to its first j, and only a
    repeated code builds a member list.
    """
    codes = _slopes(hs, i, shift)
    count = len(set(codes))
    if count == len(codes):
        return count, []
    first: dict[Optional[int], int] = {}
    repeated: dict[Optional[int], list[int]] = {}
    for j, code in enumerate(codes, i + 1):
        f = first.setdefault(code, j)
        if f != j:
            members = repeated.get(code)
            if members is None:
                repeated[code] = [i, f, j]
            else:
                members.append(j)
    return count, sorted(repeated.values(), key=lambda m: m[1])


def _exact_row(hs: Sequence[tuple[int, int, int]], i: int) -> RowLines:
    """Row i with every join (i, j) made canonical."""
    row: dict[tuple, list[int]] = {}
    for j in range(i + 1, len(hs)):
        row.setdefault(_line(hs, i, j), []).append(j)
    return len(row), [[i, *js] for js in row.values() if len(js) > 1]


def _mod_classes(hp: Sequence[tuple[int, int, int]],
                 i: int) -> Optional[Iterable[list[int]]]:
    """The joins (i, j), j > i, grouped by their line mod _P, or None if
    one of them is (0, 0, 0) mod _P.

    hp holds the points reduced mod _P.  Each line is scaled by the
    inverse of its first nonzero entry; the row's inverses share one
    pow (Montgomery's batch inversion).
    """
    p = _P
    x1, y1, z1 = hp[i]
    lines, prefix, acc = [], [], 1
    for x2, y2, z2 in hp[i + 1:]:
        line = ((y1 * z2 - z1 * y2) % p, (z1 * x2 - x1 * z2) % p,
                (x1 * y2 - y1 * x2) % p)
        lead = line[0] or line[1] or line[2]
        if not lead:
            return None
        prefix.append(acc)
        acc = acc * lead % p
        lines.append(line)
    inv = pow(acc, -1, p)              # 1 / (product of the leads)
    keys = [None] * len(lines)
    for k in range(len(lines) - 1, -1, -1):
        a, b, c = lines[k]
        s = inv * prefix[k] % p        # 1 / lead k
        inv = inv * (a or b or c) % p
        keys[k] = (a * s % p, b * s % p, c * s % p)
    classes: dict[tuple, list[int]] = {}
    for j, key in enumerate(keys, i + 1):
        classes.setdefault(key, []).append(j)
    return classes.values()


def _class_lines(hs: Sequence[tuple[int, int, int]], i: int,
                 js: list[int]) -> Lines:
    """The joins (i, j), j in js (ascending), split by exact line, in
    order of first j.

    js is one class of _mod_classes, almost always one line: every other
    j is tested against the raw cross product of i and the first j (no
    gcd) with one dot product.  The j off it (a mod-_P collision of
    distinct lines) go round again.
    """
    lines = []
    while js:
        a, b, c = _cross(hs[i], hs[js[0]])
        on, off = [js[0]], []
        for j in js[1:]:
            x, y, z = hs[j]
            (on if a * x + b * y + c * z == 0 else off).append(j)
        lines.append(on)
        js = off
    return lines


def _mod_row(hs: Sequence[tuple[int, int, int]],
             hp: Sequence[tuple[int, int, int]], i: int) -> Optional[RowLines]:
    """Row i from its mod-_P classes (_mod_classes), or None if a join of
    the row is 0 mod _P.

    Two joins of the row on one exact line are nonzero multiples of it
    mod _P, so they share a class.  A class of one join is therefore one
    exact line, counted without its big cross product; a larger class is
    split exactly by _class_lines.
    """
    classes = _mod_classes(hp, i)
    if classes is None:
        return None
    count, rich = 0, []
    for js in classes:
        if len(js) == 1:
            count += 1
            continue
        for on in _class_lines(hs, i, js):
            count += 1
            if len(on) > 1:
                rich.append([i, *on])
    rich.sort(key=lambda m: m[1])
    return count, rich


def _row_lines(hs: Sequence[tuple[int, int, int]], stripe: int = 0,
               step: int = 1,
               hp: Optional[Sequence[tuple[int, int, int]]] = None,
               shift: Optional[int] = None) -> Iterator[RowLines]:
    """Rows stripe, stripe + step, ..., built one at a time.

    Row i groups the joins (i, j), j > i, by line: it is the number of
    distinct lines and the sorted members [i, j...] of those through
    >= 3 points (two or more joins), in order of their first j.  A row
    takes one of three paths, each giving the same row:
    - slope: with shift (see _slopes), an affine anchor keys its joins
      by an exact integer slope code, with no gcd;
    - mod-_P: with hp (hs mod _P), the joins are grouped by line mod _P
      and only a repeated class is joined exactly (_mod_row), unless a
      join is 0 mod _P;
    - exact: otherwise (no shift and no hp, an anchor at infinity, or a
      join 0 mod _P) every join is made canonical.
    """
    for i in range(stripe, len(hs), step):
        # each path keeps its row dicts local, so a row is freed before
        # the next is built (two live rows of 2,000 joins cost 0.4 MB)
        row = None
        if shift is not None and hs[i][2]:
            row = _slope_row(hs, i, shift)
        elif hp is not None:
            row = _mod_row(hs, hp, i)
        yield row or _exact_row(hs, i)


def _stream(rows: Iterable[RowLines]) -> LineStream:
    """Each line of the rows 0, 1, ... once, as soon as its row is read,
    then the number of 2-point lines: a line of m >= 3 members is
    complete in its lowest row and a row line in m - 1 rows (_store
    drops the later sightings)."""
    marks: dict[tuple[int, int], list[int]] = {}
    two_point = 0
    for count, rich in rows:
        two_point += count
        for members in rich:
            if _store(marks, members):
                two_point -= len(members) - 1
                yield members
    return two_point


def _store(marks: dict[tuple[int, int], list[int]],
           members: list[int]) -> bool:
    """True for a new line, False for a later sighting of a known one.

    Lines arrive in order of (first, second member), so a later row
    sights a complete line as a suffix m[k:] of 3+ members, found by
    its first two: a new line marks its pairs (m[k], m[k+1]), 1 <= k <=
    m - 3, so only lines of 4+ members are kept.  A sighting that is not
    a suffix raises.
    """
    old = marks.get((members[0], members[1]))
    if old is None:
        for k in range(1, len(members) - 2):
            marks[members[k], members[k + 1]] = members
        return True
    if old[len(old) - len(members):] != members:
        raise InvariantViolation(
            f"row enumeration: a line sighted with members {members}, "
            f"not a suffix of {old}")
    return False


def _drain(lines: LineStream, each: Callable[[list[int]], object]) -> int:
    """Call each on every line of the stream; return its 2-point count."""
    while True:
        try:
            members = next(lines)
        except StopIteration as end:
            return end.value
        each(members)


def _stripe(*args) -> list[RowLines]:
    """_row_lines(*args) less its later sightings: one worker's result."""
    marks: dict[tuple[int, int], list[int]] = {}
    return [(count, [m for m in rich if _store(marks, m)])
            for count, rich in _row_lines(*args)]


def _rich_lines(hs: Sequence[tuple[int, int, int]],
                workers: int = 1) -> LineStream:
    """The sorted members of each line through >= 3 points, as a stream
    that returns the number of lines through exactly 2 (_drain).

    The largest coordinate fixes the regime at the call (see _row_lines
    for the paths): up to _BIG_BITS bits an affine anchor keys its row
    by exact integer slope codes, which need no gcd (_slopes states the
    bound that makes them exact), and an anchor at infinity makes every
    join canonical; above _BIG_BITS the points are reduced mod _P once
    and the rows key their joins mod _P, which skips the gcds of
    multi-thousand-bit joins.  Every path streams the same lines in the
    same order as the all-exact _stream(_row_lines(hs)): by (first,
    second member); serially, each before the next row is built.
    workers > 1 forks min(workers, len(hs)) processes at the call, one
    per stripe of interleaved rows, and the parent streams all their
    rows, held at once, in serial order.  Fork, not spawn: a spawned
    worker starts a fresh interpreter and imports orchard (a two-worker
    pool took 0.15 s to spawn against 0.02 s to fork), and orchard
    starts no threads that a fork could leave in a broken state.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, not {workers}")
    bits = _coord_bits(hs)
    hp = shift = None
    if bits > _BIG_BITS:
        hp = [(x % _P, y % _P, z % _P) for x, y, z in hs]
    else:
        shift = _slope_shift(bits)
    stripes = min(workers, len(hs))     # no process without a row
    if stripes <= 1:
        return _stream(_row_lines(hs, 0, 1, hp, shift))
    import multiprocessing   # only a multi-worker call loads it
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(stripes) as pool:
        parts = pool.starmap(_stripe, [(hs, w, stripes, hp, shift)
                                       for w in range(stripes)])
    # row i is row i // stripes of stripe i % stripes
    return _stream(parts[i % stripes][i // stripes] for i in range(len(hs)))


def spanned_lines(ps: PointSet, workers: int = 1) -> RichLineTable:
    """The lines through >= 3 set points with their exact multiplicities,
    and the number of lines through exactly 2.

    With workers > 1 the rows are enumerated in separate processes; the
    table is identical to the single-worker result.
    """
    if ps.n < 2:
        raise ValueError("spanned_lines needs at least 2 points")
    hs = ps.raw()
    entries: dict[tuple, int] = {}

    def enter(m):
        entries[_line(hs, m[0], m[1])] = len(m)
    return RichLineTable(entries, _drain(_rich_lines(hs, workers), enter))


def k_rich_count(table: RichLineTable, k: int, exactly: bool = False) -> int:
    """Number of lines with multiplicity = k (exactly) or >= k."""
    if k < 2:
        raise ValueError("k_rich_count needs k >= 2")
    rich = sum(1 for m in table.entries.values()
               if (m == k if exactly else m >= k))
    return rich + table.two_point if k == 2 else rich


def triple_line_count(table: RichLineTable) -> int:
    """|T(H)|: lines carrying at least three set points."""
    return k_rich_count(table, 3)


def line_members(ps: PointSet) -> dict[tuple, list[int]]:
    """Sorted point indices per canonical line, for the lines through >= 3
    set points."""
    hs = ps.raw()
    return {_line(hs, m[0], m[1]): m for m in _rich_lines(hs)}


def tripartite_count(ps: PointSet, pattern: Iterable[int],
                     workers: int = 1) -> int:
    """Lines containing three distinct points matching a label pattern.

    pattern is a multiset over {1,2,3} of size 3; e.g. (1,2,3) asks for
    one point of each group, (1,1,2) for two of group 1 and one of
    group 2.  A line's label counts are one packed sum: a point of group
    g weighs 1 << (f * (g - 1)), and a field of f = n.bit_length() + 1
    bits holds any count up to n, so no field carries into the next.
    With workers > 1 the rows are enumerated in separate processes; the
    count is the single-worker one.
    """
    if ps.labels is None:
        raise ValueError("tripartite_count needs a labelled PointSet")
    pat = sorted(pattern)
    if len(pat) != 3 or any(g not in (1, 2, 3) for g in pat):
        raise ValueError("pattern must be a size-3 multiset over {1,2,3}")
    missing = set(pat) - set(ps.labels)
    if missing:
        raise ValueError(f"pattern references missing group {sorted(missing)}")
    n1, n2, n3 = (pat.count(g) for g in (1, 2, 3))
    f = ps.n.bit_length() + 1
    mask = (1 << f) - 1
    weight = [1 << (f * (g - 1)) for g in ps.labels].__getitem__
    sums = (sum(map(weight, m)) for m in _rich_lines(ps.raw(), workers))
    return sum(1 for s in sums if (s & mask) >= n1
               and (s >> f & mask) >= n2 and (s >> 2 * f) >= n3)


def direction_count(ps: PointSet) -> int:
    """Number of distinct directions (points at infinity) of all joins."""
    if ps.n < 2:
        raise ValueError("direction_count needs at least 2 points")
    hs = ps.raw()
    if any(h[2] == 0 for h in hs):
        raise ValueError("direction_count: point at infinity present")
    shift = _slope_shift(_coord_bits(hs))
    # a direction is a slope, and a slope code is exact across rows
    return len({code for i in range(len(hs))
                for code in _slopes(hs, i, shift)})


def green_tao_bound(n: int) -> int:
    """floor(n(n-3)/6) + 1, the sharp maximum of 3-rich lines."""
    if n < 3:
        raise ValueError("green_tao_bound needs n >= 3")
    return n * (n - 3) // 6 + 1

