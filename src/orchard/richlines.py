"""Lines spanned by a point set, with exact multiplicities.

The central object is the table of the lines through three or more set
points (triple lines), each with the number of set points on it, plus
the number of lines through exactly two.  It is built row by row from
the O(n^2) pair space: row i groups the joins (i, j), j > i, by line, so
a line through m >= 3 points shows up complete, with its sorted members,
in the row of its lowest member.  2-point lines are counted, never
stored.  No O(n^3) pass and no floating slope buckets anywhere: a row
keys its joins by exact integer slope codes, by lines mod a prime, or
by canonical lines (see _row_lines), and every stored line is keyed
by its canonical_triple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Optional, Sequence

from .projective import ProjPoint, _cross, canonical_triple


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
    return canonical_triple(*_cross(hs[i], hs[j]))


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


RowLines = tuple[int, list[tuple[tuple, list[int]]]]


def _slope_row(hs: Sequence[tuple[int, int, int]], i: int,
               shift: int) -> RowLines:
    """Row i, for an affine point i, grouped by slope code (_slopes).

    The row dict maps a code to its first j; only a repeated code builds
    a member list, and only such a line is made canonical, from i and
    its second member.
    """
    first: dict[Optional[int], int] = {}
    repeated: dict[Optional[int], list[int]] = {}
    for j, code in enumerate(_slopes(hs, i, shift), i + 1):
        f = first.setdefault(code, j)
        if f != j:
            members = repeated.get(code)
            if members is None:
                repeated[code] = [i, f, j]
            else:
                members.append(j)
    rich = sorted(repeated.values(), key=lambda members: members[1])
    return len(first), [(_line(hs, i, m[1]), m) for m in rich]


def _exact_row(hs: Sequence[tuple[int, int, int]], i: int) -> RowLines:
    """Row i with every join (i, j) made canonical."""
    row: dict[tuple, list[int]] = {}
    for j in range(i + 1, len(hs)):
        row.setdefault(_line(hs, i, j), []).append(j)
    return len(row), [(key, [i, *js]) for key, js in row.items()
                      if len(js) > 1]


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
                 js: list[int]) -> list[tuple[tuple, list[int]]]:
    """The joins (i, j), j in js (ascending), split by exact line, in
    order of first j.

    js is one class of _mod_classes, almost always one line: its first
    join is made canonical and every other j is tested against that
    line with one dot product.  The j off it (a mod-_P collision of
    distinct lines) go round again.
    """
    lines = []
    while js:
        a, b, c = key = _line(hs, i, js[0])
        on, off = [js[0]], []
        for j in js[1:]:
            x, y, z = hs[j]
            (on if a * x + b * y + c * z == 0 else off).append(j)
        lines.append((key, on))
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
        for key, on in _class_lines(hs, i, js):
            count += 1
            if len(on) > 1:
                rich.append((key, [i, *on]))
    rich.sort(key=lambda line: line[1][1])
    return count, rich


def _row_lines(hs: Sequence[tuple[int, int, int]], stripe: int = 0,
               step: int = 1,
               hp: Optional[Sequence[tuple[int, int, int]]] = None,
               shift: Optional[int] = None) -> tuple[dict, int]:
    """Row-anchored line enumeration over rows stripe, stripe + step, ...

    Row i groups the joins (i, j), j > i, by line.  A line with two or
    more joins in the row is a line through >= 3 points; it is stored
    with the sorted members [i, j...] the first time a row holds it,
    keyed by its canonical_triple, and a row stores its lines in order
    of their first j.  Returns (rich, row_lines): the stored lines and
    the number of distinct lines summed over rows.

    A row takes one of three paths, each giving the same lines:
    - slope: with shift (see _slopes), an affine anchor i keys its joins
      by an exact integer slope code, with no gcd;
    - mod-_P: with hp (the points of hs mod _P), the joins are grouped
      by line mod _P and only a repeated class is joined exactly
      (_mod_row), unless a join is 0 mod _P;
    - exact: otherwise (no shift and no hp, an anchor at infinity, or
      a join 0 mod _P) every join is made canonical.
    """
    rich: dict[tuple, list[int]] = {}
    row_lines = 0
    for i in range(stripe, len(hs), step):
        # each path keeps its row dicts local, so a row is freed before
        # the next is built (two live rows of 2,000 joins cost 0.4 MB)
        row = None
        if shift is not None and hs[i][2]:
            row = _slope_row(hs, i, shift)
        elif hp is not None:
            row = _mod_row(hs, hp, i)
        count, lines = row or _exact_row(hs, i)
        row_lines += count
        for key, members in lines:
            _store(rich, key, members)
    return rich, row_lines


def _store(rich: dict, key: tuple, members: list[int]) -> None:
    """Keep the longest member list per line.

    Every sighting of a line lists its members from some point on, so a
    shorter sighting must be a suffix of the longer one.
    """
    old = rich.get(key)
    if old is None:
        rich[key] = members
        return
    short, long = sorted((old, members), key=len)
    if long[len(long) - len(short):] != short:
        raise InvariantViolation(
            f"row enumeration: line {key} sighted with members {short}, "
            f"not a suffix of {long}")
    rich[key] = long


def _rich_lines(hs: Sequence[tuple[int, int, int]],
                workers: int = 1) -> tuple[dict[tuple, list[int]], int]:
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
    Every path gives the same dict, in the same order, as the all-exact
    _row_lines(hs).  With workers > 1 the rows are split into
    interleaved stripes run in separate processes; the parent keeps
    the longest member list per line and restores the serial order, by
    (first member, second member).  The pool forks: spawned workers
    start a fresh interpreter and import orchard (a two-worker pool
    took 0.15 s to spawn against 0.02 s to fork), and orchard starts no
    threads that a fork could leave in a broken state.
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
        rich, row_lines = _row_lines(hs, 0, 1, hp, shift)
    else:
        import multiprocessing   # only a multi-worker call loads it
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            parts = pool.starmap(_row_lines, [(hs, w, workers, hp, shift)
                                              for w in range(workers)])
        rich = {}
        row_lines = 0
        for part, count in parts:
            row_lines += count
            for key, members in part.items():
                _store(rich, key, members)
        rich = dict(sorted(rich.items(), key=lambda kv: kv[1][:2]))
    return rich, row_lines - sum(len(m) - 1 for m in rich.values())


def spanned_lines(ps: PointSet, workers: int = 1) -> RichLineTable:
    """The lines through >= 3 set points with their exact multiplicities,
    and the number of lines through exactly 2.

    With workers > 1 the rows are enumerated in separate processes; the
    table is identical to the single-worker result.
    """
    if ps.n < 2:
        raise ValueError("spanned_lines needs at least 2 points")
    rich, two_point = _rich_lines(ps.raw(), workers)
    return RichLineTable({key: len(m) for key, m in rich.items()}, two_point)


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
    """Sorted point indices per line, for the lines through >= 3 set points."""
    return _rich_lines(ps.raw())[0]


def tripartite_count(ps: PointSet, pattern: Iterable[int]) -> int:
    """Lines containing three distinct points matching a label pattern.

    pattern is a multiset over {1,2,3} of size 3; e.g. (1,2,3) asks for
    one point of each group, (1,1,2) for two of group 1 and one of
    group 2.
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
    need = {g: pat.count(g) for g in set(pat)}
    count = 0
    for _, idxs in line_members(ps).items():
        have = {g: 0 for g in need}
        for i in idxs:
            g = ps.labels[i]
            if g in have:
                have[g] += 1
        if all(have[g] >= need[g] for g in need):
            count += 1
    return count


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
