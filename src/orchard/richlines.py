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
from math import comb, gcd
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


def _row_lines(hs: Sequence[tuple[int, int, int]], stripe: int = 0,
               step: int = 1) -> tuple[dict, int]:
    """Row-anchored line enumeration over rows stripe, stripe + step, ...

    Row i groups the canonical joins (i, j), j > i, by line in a dict
    local to the row.  A line with two or more joins in the row is a
    line through >= 3 points; it is stored with the sorted members
    [i, j...] the first time a row holds it.  Returns (rich, row_lines):
    the stored lines and the number of distinct lines summed over rows.
    """
    rich: dict[tuple, list[int]] = {}
    row_lines = 0
    n = len(hs)
    for i in range(stripe, n, step):
        x1, y1, z1 = hs[i]
        row: dict[tuple, list[int]] = {}
        for j in range(i + 1, n):
            x2, y2, z2 = hs[j]
            row.setdefault(canonical_triple(y1 * z2 - z1 * y2,
                                            z1 * x2 - x1 * z2,
                                            x1 * y2 - y1 * x2), []).append(j)
        row_lines += len(row)
        for key, js in row.items():
            if len(js) > 1:
                _store(rich, key, [i, *js])
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
    lines left over.  With workers > 1 the rows are split into
    interleaved stripes run in separate processes, and the parent keeps
    the longest member list per line.
    """
    if workers <= 1:
        parts = [_row_lines(hs)]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            parts = pool.starmap(_row_lines,
                                 [(hs, w, workers) for w in range(workers)])
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
            dx = x2 * z1 - x1 * z2
            dy = y2 * z1 - y1 * z2
            g = gcd(dx, dy)
            if dx:
                if dx < 0:
                    g = -g
            elif dy < 0:
                g = -g
            dirs.add((dx // g, dy // g))
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
