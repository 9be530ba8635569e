"""Lines spanned by a point set, with exact multiplicities.

The central object is the stream of the lines through three or more set
points (triple lines), each as its sorted member indices.  It is built
row by row from the O(n^2) pair space: row i groups the joins (i, j),
j > i, by line, so a line through m >= 3 points shows up complete in
the row of its lowest member and is streamed to its consumer there.
Only lines of 4+ members are remembered, to know their later
sightings; 2-point lines are never stored (spanned_lines counts them
from the pairs).  No O(n^3) pass and no floating slope
buckets anywhere: a row keys its joins by exact integer slope codes,
by lines mod a prime, or by canonical lines (see _keys).  A line's
canonical form is built, from its first two members, only for a caller
that reads keys (spanned_lines, line_members).  A tripartite count
reads no line at all: each row of one label group counts its lines by
set operations on the keys of its joins (_tripartite_row).
"""

from __future__ import annotations

import os
from functools import partial
from math import comb
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, Optional,
                    Sequence)

from .exact import _cross, _Frozen, _int_arg, canonical

if TYPE_CHECKING:
    from .projective import ProjPoint

Triple = tuple[int, int, int]           # a point or a line, homogeneous
Triples = Sequence[Triple]


class InvariantViolation(RuntimeError):
    """An internal consistency law failed; the message names it."""


class PointSet(_Frozen):
    """Ordered distinct projective points, optionally labelled 1/2/3,
    kept as their canonical triples: the counts read only those (raw),
    and points, their ProjPoints, is built on its first read.  Equal,
    hashed, repr'd and pickled by (points, labels)."""

    __slots__ = ("_hs", "labels", "_points")
    labels: Optional[tuple[int, ...]]

    def __init__(self, points: Iterable[ProjPoint],
                 labels: Optional[Iterable[int]] = None):
        points = tuple(points)
        self._init(tuple([p.h for p in points]), labels, points)

    @classmethod
    def _from_triples(cls, hs: Iterable[Triple],
                      labels: Optional[Iterable[int]] = None) -> PointSet:
        """The set of the points whose canonical triples are hs."""
        ps = cls.__new__(cls)
        ps._init(tuple(hs), labels, None)
        return ps

    def _init(self, hs: tuple[Triple, ...], labels, points) -> None:
        if len(set(hs)) != len(hs):
            raise ValueError("PointSet: duplicate points rejected")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(hs):
                raise ValueError("PointSet: labels must cover all indices")
            if any(type(g) is not int or g not in (1, 2, 3) for g in labels):
                raise ValueError("PointSet: labels must be in {1, 2, 3}")
        _Frozen.__init__(self, hs, labels, points)

    @property
    def points(self) -> tuple[ProjPoint, ...]:
        if self._points is None:
            from .projective import ProjPoint
            object.__setattr__(self, "_points", tuple(map(ProjPoint,
                                                          self._hs)))
        return self._points

    def _fields(self):
        return self.points, self.labels

    def __repr__(self):
        return f"PointSet(points={self.points!r}, labels={self.labels!r})"

    @property
    def n(self) -> int:
        return len(self._hs)

    def raw(self) -> tuple[Triple, ...]:
        return self._hs


class RichLineTable(_Frozen):
    """The lines through >= 3 set points, and how many lines hold exactly 2.

    entries maps each canonical line triple through m >= 3 set points
    to m; two_point counts the lines that carry exactly two.  A table
    is not hashable: entries is a dict.
    """

    __slots__ = ("entries", "two_point")

    def pair_total(self) -> int:
        return self.two_point + sum(comb(m, 2) for m in self.entries.values())


# An input with a coordinate of more bits than this takes the mod-_P
# keys: the smallest size at which they were no slower than slope codes
# for the line stream and the tripartite count, on random and on rich
# inputs (scripts/kernel_crossover.py; the table is in CHANGES.md).
_BIG_BITS = 160


def _line(hs: Triples, i: int, j: int) -> Triple:
    """The canonical line through the points i and j of hs."""
    return canonical(_cross(hs[i], hs[j]))


def _coord_bits(hs: Triples) -> int:
    """The bit length of the largest coordinate in absolute value."""
    return max((abs(c) for h in hs for c in h), default=0).bit_length()


def _slope_shift(bits: int) -> int:
    """The shift that makes _slopes exact on coordinates below 2**bits."""
    return 4 * bits + 2


def _slopes(anchor: Triple, pts: Triples, shift: int) -> list[Optional[int]]:
    """The slope codes of the joins from an affine anchor to pts.

    The code of a join is floor(dy * 2**shift / dx) for its direction
    dx = x2*z1 - x1*z2, dy = y2*z1 - y1*z2, and None when dx = 0 (the
    vertical line through the anchor).  With every coordinate below
    2**bits in absolute value and shift = 4 * bits + 2 (_slope_shift),
    equal codes mean equal slopes: each of dx, dy is a difference of two
    products below 2**(2*bits), so |dx|, |dy| < D = 2**(2*bits + 1), and
    two different slopes dy/dx != dy'/dx' differ by
    |dy*dx' - dy'*dx| / |dx*dx'| > 1/D**2; scaled by 2**shift = D**2
    they differ by more than 1, and so do their floors.  Equal slopes
    have equal floors, and negating (dx, dy) leaves the code alone.  A
    line through the anchor is fixed by its slope, so within a row a
    code is a line; across rows it is a direction.
    """
    x1, y1, z1 = anchor
    return [((y2 * z1 - y1 * z2) << shift) // dx
            if (dx := x2 * z1 - x1 * z2) else None
            for x2, y2, z2 in pts]


def _lines(anchor: Triple, pts: Triples) -> list[Triple]:
    """The canonical lines joining the anchor to each of pts."""
    return [canonical(_cross(anchor, h)) for h in pts]


Lines = list[list[int]]


def _group(i: int, keys: Sequence) -> Lines:
    """Row i from the keys of its joins (i, j), j = i + 1, ...: [i, j...]
    for each key of two or more joins, in order of first j.  A row of
    distinct keys holds no rich line, which one set shows.  Otherwise
    the row dict maps a key to its first j, and only a repeated key
    builds a member list.
    """
    if len(set(keys)) == len(keys):
        return []
    first, repeated = {}, {}
    for j, key in enumerate(keys, i + 1):
        f = first.setdefault(key, j)
        if f != j:
            members = repeated.get(key)
            if members is None:
                repeated[key] = [i, f, j]
            else:
                members.append(j)
    return sorted(repeated.values(), key=lambda m: m[1])


def _keys(anchor: Triple, pts: Triples, mod: Optional[tuple],
          shift: Optional[int],
          i: int = -1) -> tuple[list, Optional[Lines]]:
    """One key per join from the anchor to pts, equal for two joins
    exactly when they lie on one line, and the lines _group(i, keys) if
    they were built: with shift, an affine anchor's slope codes
    (_slopes); with mod, which holds the anchor and pts mod _P and the
    points and coordinate bits by the numbers of the row (the anchor is
    i, pts[k] is i + 1 + k), their pencil keys mod _P (modp._mod_keys)
    and their lines, if each repeated key is one exact line
    (modp._one_line_each); otherwise, or on a join 0 mod _P or a split
    key, the canonical lines (_lines)."""
    if shift is not None and anchor[2]:
        return _slopes(anchor, pts, shift), None
    if mod:
        from . import modp
        anchor_p, pts_p, points, sizes = mod
        keys = modp._mod_keys(anchor_p, pts_p)
        if keys is not None:
            lines = _group(i, keys)
            if modp._one_line_each(points, sizes, lines):
                return keys, lines
    return _lines(anchor, pts), None


def _row(hs: Triples, hp: Optional[Triples], hb: Optional[list[int]],
         shift: Optional[int], i: int) -> Lines:
    """Row i: the sorted members [i, j...] of the lines through i, a later
    point and at least one more, in order of their first j; freed once
    read.  hp is hs mod _P and hb the coordinate bits of hs, or both
    None (_keys, whose mod-_P row is grouped once)."""
    keys, lines = _keys(hs[i], hs[i + 1:],
                        hp and (hp[i], hp[i + 1:], hs, hb), shift, i)
    return _group(i, keys) if lines is None else lines


def _stream(rows: Iterable[Lines]) -> Iterator[list[int]]:
    """Each line of the rows 0, 1, ... once, as soon as its row is read:
    a line of m >= 3 members is complete in its lowest row and sighted
    again in the rows of its next m - 3 (_store drops those)."""
    marks: dict[tuple[int, int], list[int]] = {}
    for rich in rows:
        for members in rich:
            if _store(marks, members):
                yield members


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


def _pooled(row: Callable[[int], object], rows: int,
            procs: int) -> Iterator:
    """row(0), ..., row(rows - 1), each as soon as it and the rows before
    it are built, by a fork pool of procs processes that opens at the
    first read, in blocks of ceil(rows / (4 * procs)) rows.  Fork, not
    spawn: a spawned worker imports orchard afresh (0.15 s for two
    workers, against 0.02 s to fork), and orchard starts no threads that
    a fork could leave in a broken state."""
    import multiprocessing   # only a multi-worker call loads it
    try:
        pool = multiprocessing.get_context("fork").Pool(procs)
    except OSError as exc:
        raise RuntimeError(f"a pool of {procs} worker processes could "
                           f"not start: {exc}") from exc
    with pool:
        yield from pool.imap(row, range(rows), -(-rows // (4 * procs)))


def _cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _each_row(row: Callable[[int], object], rows: int,
              workers: int) -> Iterator:
    """row(0), ..., row(rows - 1) in order: built in this process as they
    are read with one worker, else by a pool of min(workers, rows,
    cores) processes (_pooled), so no process is without a row or a
    core."""
    if _int_arg(workers, "workers") < 1:
        raise ValueError(f"workers must be >= 1, not {workers}")
    procs = min(workers, rows, _cores())
    return map(row, range(rows)) if procs <= 1 else _pooled(row, rows, procs)


def _regime(hs: Triples) -> tuple:
    """(hp, hb, shift) for the rows of hs: above _BIG_BITS bits of
    coordinate (hs mod _P, the coordinate bits of each point, None),
    else (None, None, the shift of exact slope codes)."""
    bits = _coord_bits(hs)
    if bits > _BIG_BITS:
        from .modp import _P    # the mod-_P kernel, loaded only here
        return ([(x % _P, y % _P, z % _P) for x, y, z in hs],
                [max(map(abs, h)).bit_length() for h in hs], None)
    return None, None, _slope_shift(bits)


def _rich_lines(hs: Triples, workers: int = 1) -> Iterator[list[int]]:
    """The sorted members of each line through >= 3 points, as a stream.

    The largest coordinate fixes the regime at the call (_regime; _keys
    has the paths): up to _BIG_BITS bits, slope codes with no gcd; above
    it, keys mod _P, which skip the gcds of multi-thousand-bit joins.
    Every path streams the lines of the all-exact rows, in their order:
    by (first, second member), each before the next row is read, with
    one worker or a pool (_each_row).
    """
    row = partial(_row, hs, *_regime(hs))
    return _stream(_each_row(row, len(hs), workers))


def spanned_lines(ps: PointSet, workers: int = 1) -> RichLineTable:
    """The lines through >= 3 set points with their exact multiplicities,
    and the number of lines through exactly 2.

    With workers > 1 the rows are enumerated in separate processes; the
    table is identical to the single-worker result.
    """
    if ps.n < 2:
        raise ValueError("spanned_lines needs at least 2 points")
    hs = ps.raw()
    entries = {_line(hs, m[0], m[1]): len(m) for m in _rich_lines(hs, workers)}
    # two points span one line, so the pairs off the rich lines are the
    # lines through exactly two
    rich_pairs = sum(comb(m, 2) for m in entries.values())
    return RichLineTable(entries, comb(ps.n, 2) - rich_pairs)


def k_rich_count(table: RichLineTable, k: int, exactly: bool = False) -> int:
    """Number of lines with multiplicity = k (exactly) or >= k."""
    if _int_arg(k, "k_rich_count: k") < 2:
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


def _tripartite_row(hs: Triples, hp: Optional[Triples],
                    hb: Optional[list[int]], shift: Optional[int],
                    lead: int, cut: Optional[int], a: int) -> int:
    """The matching lines whose lowest lead point is a: hs holds the
    lead group at [0, lead), then the others.  With cut, pattern (g, h,
    k) has blocks h = [lead, cut) and k = [cut, n); without, (g, g, h)
    has the later lead points (a, lead) and h = [lead, n).  Such a line
    holds a point of each block and no lead point before a, so the row
    is |K_1 & K_2 - E| in the key sets of the joins from a to the two
    blocks and to the earlier lead points (_keys)."""
    lo, hi = (lead, cut) if cut else (a + 1, lead)      # the first block
    pts = hs[:a] + hs[lo:]
    # numbered from 0 (_keys with i = -1), so the anchor is last
    keys = _keys(hs[a], pts, hp and (hp[a], hp[:a] + hp[lo:], [*pts, hs[a]],
                                     hb[:a] + hb[lo:] + [hb[a]]), shift)[0]
    mid = a + hi - lo
    return len(set(keys[a:mid]).intersection(keys[mid:]).difference(keys[:a]))


def tripartite_count(ps: PointSet, pattern: Iterable[int],
                     workers: int = 1) -> int:
    """Lines containing three distinct points matching a label pattern.

    pattern is a multiset over {1,2,3} of size 3; e.g. (1,2,3) asks for
    one point of each group, (1,1,2) for two of group 1 and one of
    group 2.

    (g, g, g) counts the lines of _rich_lines over the points of g.
    Otherwise only the named groups are kept: the lead first (g for (g,
    g, h); the smallest, lower label on a tie, for (g, h, k)), then the
    others, each contiguous and in set order.  Each lead row counts the
    lines whose lowest lead point it is (_tripartite_row), with no
    member list and no stored line, and the count is their sum; with
    workers > 1, min(workers, rows, cores) processes return one integer
    a row.
    """
    if ps.labels is None:
        raise ValueError("tripartite_count needs a labelled PointSet")
    pat = sorted(pattern)
    if len(pat) != 3 or any(type(g) is not int or g not in (1, 2, 3)
                            for g in pat):
        raise ValueError("pattern must be a size-3 multiset over {1,2,3}")
    sizes = {g: ps.labels.count(g) for g in pat}
    missing = [g for g in sizes if not sizes[g]]
    if missing:
        raise ValueError(f"pattern references missing group {missing}")
    # pat[1] is g in (g, g, g) and in (g, g, h) in either order
    lead = pat[1] if len(sizes) < 3 else min(sizes, key=sizes.get)
    order = sorted(sizes, key=lambda g: (g != lead, g))
    hs = [h for g in order for h, l in zip(ps.raw(), ps.labels) if l == g]
    if len(sizes) == 1:
        return sum(1 for _ in _rich_lines(hs, workers))
    cut = sizes[lead] + sizes[order[1]] if len(sizes) == 3 else None
    row = partial(_tripartite_row, hs, *_regime(hs), sizes[lead], cut)
    return sum(_each_row(row, sizes[lead], workers))


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
                for code in _slopes(hs[i], hs[i + 1:], shift)})


def green_tao_bound(n: int) -> int:
    """floor(n(n-3)/6) + 1, the sharp maximum of 3-rich lines."""
    if _int_arg(n, "green_tao_bound: n") < 3:
        raise ValueError("green_tao_bound needs n >= 3")
    return n * (n - 3) // 6 + 1

