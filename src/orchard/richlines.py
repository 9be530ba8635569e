"""Lines spanned by a point set, with exact multiplicities.

The central object is the table of the lines through three or more set
points (triple lines), each with the number of set points on it, plus
the number of lines through exactly two.  It is built row by row from
the O(n^2) pair space: row i groups the joins (i, j), j > i, by line, so
a line through m >= 3 points shows up complete, with its sorted members,
in the row of its lowest member.  2-point lines are counted, never
stored.  No O(n^3) pass and no floating slope buckets anywhere.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Optional, Sequence

from .projective import ProjPoint, canonical_triple


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


def _exact_joins(hs: Sequence[tuple[int, int, int]], i: int,
                 js: Iterable[int]) -> dict[tuple, list[int]]:
    """The joins (i, j), j in js, grouped by their canonical line, in
    order of first j."""
    x1, y1, z1 = hs[i]
    row: dict[tuple, list[int]] = {}
    for j in js:
        x2, y2, z2 = hs[j]
        row.setdefault(canonical_triple(y1 * z2 - z1 * y2,
                                        z1 * x2 - x1 * z2,
                                        x1 * y2 - y1 * x2), []).append(j)
    return row


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


def _row_lines(hs: Sequence[tuple[int, int, int]], stripe: int = 0,
               step: int = 1,
               hp: Optional[Sequence[tuple[int, int, int]]] = None
               ) -> tuple[dict, int]:
    """Row-anchored line enumeration over rows stripe, stripe + step, ...

    Row i groups the canonical joins (i, j), j > i, by line.  A line with
    two or more joins in the row is a line through >= 3 points; it is
    stored with the sorted members [i, j...] the first time a row holds
    it, and a row stores its lines in order of their first j.  Returns
    (rich, row_lines): the stored lines and the number of distinct lines
    summed over rows.

    With hp (the points of hs mod _P) a row first groups its joins by
    line mod _P.  Two joins of the row on one exact line are nonzero
    multiples of it, so they share a class unless one is 0 mod _P.  A
    class of one join is therefore one exact line, counted without its
    big cross product; only the joins of a larger class are joined
    exactly, which also splits a mod-_P collision of distinct lines.  A
    row with a join that is 0 mod _P is joined exactly throughout.
    """
    rich: dict[tuple, list[int]] = {}
    row_lines = 0
    n = len(hs)
    for i in range(stripe, n, step):
        classes = None if hp is None else _mod_classes(hp, i)
        if classes is None:
            row = _exact_joins(hs, i, range(i + 1, n))
        else:
            row = {}
            for js in classes:
                if len(js) == 1:
                    row_lines += 1
                else:
                    row.update(_exact_joins(hs, i, js))
            row = dict(sorted(row.items(), key=lambda line: line[1][0]))
        row_lines += len(row)
        for key, js in row.items():
            if len(js) > 1:
                _store(rich, key, [i, *js])
        # free this row before the next is built: two live rows of 2,000
        # points cost 0.4 MB of peak RSS and measurable time
        del row, classes
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
    largest coordinate: up to _BIG_BITS bits every join is made
    canonical; above it the points are reduced mod _P once and the rows
    key their joins mod _P (see _row_lines), which skips the gcds of
    multi-thousand-bit joins.  Both give the same dict, in the same
    order.  With workers > 1 the rows are split into interleaved stripes
    run in separate processes, and the parent keeps the longest member
    list per line.  The pool forks: spawned workers start a fresh
    interpreter and import orchard (a two-worker pool took 0.15 s to
    spawn against 0.02 s to fork), and orchard starts no threads that a
    fork could leave in a broken state.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, not {workers}")
    hp = None
    if max((abs(c) for h in hs for c in h), default=0).bit_length() > _BIG_BITS:
        hp = [(x % _P, y % _P, z % _P) for x, y, z in hs]
    if workers == 1:
        parts = [_row_lines(hs, 0, 1, hp)]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            parts = pool.starmap(_row_lines, [(hs, w, workers, hp)
                                              for w in range(workers)])
    rich: dict[tuple, list[int]] = {}
    row_lines = 0
    for part, count in parts:
        row_lines += count
        for key, members in part.items():
            _store(rich, key, members)
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
    dirs = set()
    n = len(hs)
    for i in range(n):
        x1, y1, z1 = hs[i]
        for j in range(i + 1, n):
            x2, y2, z2 = hs[j]
            dirs.add(canonical_triple(x2 * z1 - x1 * z2,
                                      y2 * z1 - y1 * z2, 0))
    return len(dirs)


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
