"""Lines spanned by a point set, with exact multiplicities.

The central object is the list of the lines through three or more set
points (triple lines), each as its sorted member indices, plus the
number of lines through exactly two.  It is built row by row from the
O(n^2) pair space: row i groups the joins (i, j), j > i, by line, so a
line through m >= 3 points shows up complete, with its sorted members,
in the row of its lowest member.  2-point lines are counted, never
stored.  No O(n^3) pass and no floating slope buckets anywhere: a row
groups its joins by exact integer slope codes, by lines mod a prime, or
by canonical lines (see _row_lines).  A stored line is known by its
members; its canonical form is built, from its first two members,
only for a caller that reads keys (spanned_lines, line_members).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Optional, Sequence

from .projective import ProjPoint, _cross, canonical


class InvariantViolation(RuntimeError):
    """An internal consistency law failed; the message names it."""


@dataclass(frozen=True)
class PointSet:
    """Ordered distinct projective points, optionally labelled 1/2/3."""

    points: tuple[ProjPoint, ...]
    labels: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if len(set(self.points)) != len(self.points):
            raise ValueError("PointSet: duplicate points rejected")
        if self.labels is not None:
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != len(self.points):
                raise ValueError("PointSet: labels must cover all indices")
            if any(g not in (1, 2, 3) for g in labels):
                raise ValueError("PointSet: labels must be in {1, 2, 3}")

    @property
    def n(self) -> int:
        return len(self.points)

    def raw(self) -> list[tuple[int, int, int]]:
        return [p.h for p in self.points]


@dataclass
class RichLineTable:
    """The lines through >= 3 set points, and how many lines hold exactly 2.

    entries maps each canonical line triple through m >= 3 set points
    to m; two_point counts the lines that carry exactly two.
    """

    entries: dict = field(default_factory=dict)
    two_point: int = 0

    def sorted_entries(self) -> list[tuple[tuple[int, int, int], int]]:
        return sorted(self.entries.items())

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
               shift: Optional[int] = None) -> tuple[Lines, int]:
    """Row-anchored line enumeration over rows stripe, stripe + step, ...

    Row i groups the joins (i, j), j > i, by line.  A line with two or
    more joins in the row is a line through >= 3 points; its sorted
    members [i, j...] are stored the first time a row holds it (_store),
    in order of their first j.  Returns (lines, row_lines): the member
    lists and the number of distinct lines summed over rows.

    A row takes one of three paths, each giving the same lines:
    - slope: with shift (see _slopes), an affine anchor i keys its joins
      by an exact integer slope code, with no gcd;
    - mod-_P: with hp (the points of hs mod _P), the joins are grouped
      by line mod _P and only a repeated class is joined exactly
      (_mod_row), unless a join is 0 mod _P;
    - exact: otherwise (no shift and no hp, an anchor at infinity, or
      a join 0 mod _P) every join is made canonical.
    """
    lines: Lines = []
    marks: dict[tuple[int, int], list[int]] = {}
    row_lines = 0
    for i in range(stripe, len(hs), step):
        # each path keeps its row dicts local, so a row is freed before
        # the next is built (two live rows of 2,000 joins cost 0.4 MB)
        row = None
        if shift is not None and hs[i][2]:
            row = _slope_row(hs, i, shift)
        elif hp is not None:
            row = _mod_row(hs, hp, i)
        count, rich = row or _exact_row(hs, i)
        row_lines += count
        for members in rich:
            _store(lines, marks, members)
    return lines, row_lines


def _store(lines: Lines, marks: dict[tuple[int, int], list[int]],
           members: list[int]) -> None:
    """Append members to lines, unless they sight a stored line again.

    Lines arrive in order of (first member, second member), so a line
    is stored whole before a later row sights it as a suffix m[k:] of 3
    or more members.  The sighting is found by its first two, so a line
    marks its pairs (m[k], m[k+1]) for 1 <= k <= m - 3 only: a 3-point
    line leaves no mark.  A sighting that is not a suffix raises.
    """
    old = marks.get((members[0], members[1]))
    if old is None:
        lines.append(members)
        for k in range(1, len(members) - 2):
            marks[members[k], members[k + 1]] = members
    elif old[len(old) - len(members):] != members:
        raise InvariantViolation(
            f"row enumeration: a line sighted with members {members}, "
            f"not a suffix of {old}")


def _rich_lines(hs: Sequence[tuple[int, int, int]],
                workers: int = 1) -> tuple[Lines, int]:
    """(sorted member indices per line through >= 3 points, number of
    lines through exactly 2 points).

    A line through m >= 3 points is complete in the row of its lowest
    member and is seen in m - 1 rows, so the 2-point lines are the row
    lines left over.  The regime is fixed for the whole call by the
    largest coordinate (see _row_lines for the paths): up to _BIG_BITS
    bits an affine anchor keys its row by exact integer slope codes,
    which need no gcd (_slopes states the bound that makes them exact),
    and an anchor at infinity makes every join canonical; above
    _BIG_BITS the points are reduced mod _P once and the rows key their
    joins mod _P, which skips the gcds of multi-thousand-bit joins.
    Every path gives the same lists, in the same order, as the
    all-exact _row_lines(hs): by (first member, second member).  With
    workers > 1 the rows are split into interleaved stripes run in
    separate processes; a stripe that misses a line's lowest row stores
    a suffix of it, so the parent sorts the stripes' lines into the
    serial order and stores them again, which drops such suffixes
    (_store).  The pool forks: spawned workers start a fresh interpreter
    and import orchard (a two-worker pool took 0.15 s to spawn against
    0.02 s to fork), and orchard starts no threads that a fork could
    leave in a broken state.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, not {workers}")
    bits = _coord_bits(hs)
    hp = shift = None
    if bits > _BIG_BITS:
        hp = [(x % _P, y % _P, z % _P) for x, y, z in hs]
    else:
        shift = _slope_shift(bits)
    if workers == 1:
        lines, row_lines = _row_lines(hs, 0, 1, hp, shift)
    else:
        import multiprocessing   # only a multi-worker call loads it
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            parts = pool.starmap(_row_lines, [(hs, w, workers, hp, shift)
                                              for w in range(workers)])
        lines, marks = [], {}
        row_lines = sum(count for _, count in parts)
        for members in sorted((m for part, _ in parts for m in part),
                              key=lambda m: m[:2]):
            _store(lines, marks, members)
    return lines, row_lines - sum(len(m) - 1 for m in lines)


def spanned_lines(ps: PointSet, workers: int = 1) -> RichLineTable:
    """The lines through >= 3 set points with their exact multiplicities,
    and the number of lines through exactly 2.

    With workers > 1 the rows are enumerated in separate processes; the
    table is identical to the single-worker result.
    """
    if ps.n < 2:
        raise ValueError("spanned_lines needs at least 2 points")
    hs = ps.raw()
    lines, two_point = _rich_lines(hs, workers)
    return RichLineTable({_line(hs, m[0], m[1]): len(m) for m in lines},
                         two_point)


def k_rich_count(table: RichLineTable, k: int, exactly: bool = False) -> int:
    """Number of lines with multiplicity = k (exactly) or >= k."""
    if k < 2:
        raise ValueError("k_rich_count needs k >= 2")
    if exactly:
        rich = sum(1 for m in table.entries.values() if m == k)
    else:
        rich = sum(1 for m in table.entries.values() if m >= k)
    return rich + table.two_point if k == 2 else rich


def triple_line_count(table: RichLineTable) -> int:
    """|T(H)|: lines carrying at least three set points."""
    return k_rich_count(table, 3)


def line_members(ps: PointSet) -> dict[tuple, list[int]]:
    """Sorted point indices per canonical line, for the lines through >= 3
    set points."""
    hs = ps.raw()
    return {_line(hs, m[0], m[1]): m for m in _rich_lines(hs)[0]}


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
    present = set(ps.labels)
    missing = set(pat) - present
    if missing:
        raise ValueError(f"pattern references missing group {sorted(missing)}")
    n1, n2, n3 = (pat.count(g) for g in (1, 2, 3))
    f = ps.n.bit_length() + 1
    mask = (1 << f) - 1
    weight = [1 << (f * (g - 1)) for g in ps.labels].__getitem__
    sums = (sum(map(weight, m)) for m in _rich_lines(ps.raw(), workers)[0])
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


def green_tao_advisory(ps: PointSet) -> tuple[int, int, bool]:
    """(exactly-3-rich count, bound, within-bound?) for a point set.

    The bound is proven only for sufficiently large sets, so callers
    should report a violation rather than crash on one.
    """
    t = spanned_lines(ps)
    c = k_rich_count(t, 3, exactly=True)
    b = green_tao_bound(ps.n)
    return c, b, c <= b
