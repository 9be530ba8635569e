"""Collinear triples across three algebraic curves, counted directly.

Sample x-values are lifted to exact rational points of each curve and
the cross-curve collinear triples are read off the member lists of the
lines through three or more of them (richlines' row enumeration).
This computes the same count a resultant elimination would, without
ever forming the eliminated surface.  The dichotomy, quadruple-line
and direction experiments for the degree-3-vs-other gap live here too;
their sub-quadratic thresholds are recorded oracle baselines, evidence
rather than verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations
from math import comb, prod
from typing import Callable, Iterable

from .projective import ProjPoint, Rat, mk_point
from .richlines import (InvariantViolation, PointSet, _line, _rich_lines,
                        direction_count)


@dataclass(frozen=True)
class CurveSpec:
    """An irreducible plane curve with an exact point-lifting rule for
    sample x-values."""

    degree: int
    lift_fn: Callable[[Fraction], list[ProjPoint]]
    label: str = ""

    def lift(self, x: Rat) -> list[ProjPoint]:
        return self.lift_fn(Fraction(x))


def graph_power(d: int) -> CurveSpec:
    """y = x^d (the parabola for d = 2, the cuspidal cubic for d = 3)."""
    if d < 1:
        raise ValueError("graph_power needs degree >= 1")
    return CurveSpec(d, lambda x: [mk_point(x, x ** d)], f"y=x^{d}")


@dataclass(frozen=True)
class TripartiteExperiment:
    curves: tuple[CurveSpec, CurveSpec, CurveSpec]
    samples: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(
            tuple(Fraction(x) for x in xs) for xs in self.samples))
        if len(self.curves) != 3 or len(self.samples) != 3:
            raise ValueError("three curves and three sample sets required")


@dataclass(frozen=True)
class TripartiteCounts:
    collinear_triples: int
    distinct_lines: int
    lift_failures: tuple[tuple[int, Fraction], ...]   # (part, x) not lifted


def _matchable(m1: int, m2: int, m3: int) -> bool:
    """Can three points with these part-masks be assigned to parts 1,2,3?"""
    return any(m1 & (1 << (p1 - 1)) and m2 & (1 << (p2 - 1))
               and m3 & (1 << (p3 - 1))
               for p1, p2, p3 in permutations((1, 2, 3)))


def _triples_for_masks(counts: dict[int, int]) -> int:
    """Triples with one point per part, from counts of points per mask."""
    return sum(prod(comb(counts[m], ms.count(m)) for m in set(ms))
               for ms in combinations_with_replacement(sorted(counts), 3)
               if _matchable(*ms))


def tripartite_curve_count(e: TripartiteExperiment) -> TripartiteCounts:
    """Exact count of collinear cross-curve point triples and of the
    distinct lines carrying at least one of them.

    A triple is three distinct lifted points assignable one-to-each
    part (points shared between parts count once).  Lines on which a
    part-curve exceeds its degree in lifted points violate the
    intersection bound and abort the experiment.
    """
    masks: dict[ProjPoint, int] = {}
    failures = []
    for part, (curve, xs) in enumerate(zip(e.curves, e.samples), start=1):
        for x in xs:
            pts = curve.lift(x)
            if not pts:
                failures.append((part, x))
            for p in pts:
                masks[p] = masks.get(p, 0) | (1 << (part - 1))
    points = sorted(masks, key=lambda p: p.h)
    hs = [p.h for p in points]
    triples = lines = 0
    for idxs in _rich_lines(hs):
        cnt: dict[int, int] = {}
        for i in idxs:
            m = masks[points[i]]
            cnt[m] = cnt.get(m, 0) + 1
        for part, curve in enumerate(e.curves):
            _check_degree_bound(curve, hs, idxs, sum(
                c for m, c in cnt.items() if m >> part & 1))
        t = _triples_for_masks(cnt)
        if t:
            triples += t
            lines += 1
    return TripartiteCounts(triples, lines, tuple(failures))


def _check_degree_bound(curve, hs, idxs, on_curve):
    """Bezout sanity: an irreducible degree-d curve distinct from the
    line through the points idxs of hs, on_curve of which lie on the
    curve, meets it in at most d points."""
    if on_curve > curve.degree:
        line_key = _line(hs, idxs[0], idxs[1])
        if not _line_is(curve, line_key):
            raise InvariantViolation(
                f"degree bound: line {line_key} carries {on_curve} points of "
                f"the irreducible degree-{curve.degree} curve {curve.label}")


def _line_is(curve: CurveSpec, line_key) -> bool:
    """Is the curve the line line_key?  True for a degree-1 curve whose
    points lifted at x = 0, 1, 2 are two or more, all on the line, such
    as the graph y = x^1."""
    if curve.degree != 1:
        return False
    pts = {p.h for x in (0, 1, 2) for p in curve.lift(Fraction(x))}
    a, b, c = line_key
    return len(pts) >= 2 and all(a * x + b * y + c * z == 0
                                 for x, y, z in pts)


@dataclass(frozen=True)
class DichotomyRow:
    degree: int
    n: int
    count: int
    ratio_n2: Fraction      # count / n^2


def dichotomy_experiment(degrees: Iterable[int],
                         sizes: Iterable[int]) -> list[DichotomyRow]:
    """Triple-line counts of {(i, i^d) : |i| <= n} per degree and size.

    Cubic rows stabilize near count/n^2 = 1/2; higher degrees stay
    sub-quadratic (degree 4 is exactly 0: no line meets y = x^4 in
    three real points).
    """
    rows = []
    for d in degrees:
        for n in sizes:
            if n < 1:
                raise ValueError(f"dichotomy_experiment needs n >= 1, not {n}")
            xs = tuple(Fraction(i) for i in range(-n, n + 1))
            curve = graph_power(d)
            counts = tripartite_curve_count(
                TripartiteExperiment((curve, curve, curve), (xs, xs, xs)))
            rows.append(DichotomyRow(d, n, counts.distinct_lines,
                                     Fraction(counts.distinct_lines, n * n)))
    return rows


def quadruple_experiment(curve: CurveSpec, xs: Iterable[Rat]) -> int:
    """Distinct lines containing at least four lifted sample points."""
    pts: set[ProjPoint] = set()
    for x in xs:
        pts.update(curve.lift(x))
    _check_sample("quadruple_experiment", pts)
    hs = sorted(p.h for p in pts)
    count = 0
    for idxs in _rich_lines(hs):
        if len(idxs) >= 4:
            _check_degree_bound(curve, hs, idxs, len(idxs))
            count += 1
    return count


def few_directions_experiment(curve: CurveSpec, xs: Iterable[Rat]) -> int:
    """Number of distinct directions spanned by the lifted sample."""
    pts: list[ProjPoint] = []
    seen = set()
    for x in xs:
        for p in curve.lift(x):
            if p not in seen:
                seen.add(p)
                pts.append(p)
    _check_sample("few_directions_experiment", pts)
    return direction_count(PointSet(tuple(pts)))


def _check_sample(name: str, pts) -> None:
    """A sample must lift to two or more points to span a line."""
    if len(pts) < 2:
        raise ValueError(f"{name} needs a sample that lifts to >= 2 points, "
                         f"not {len(pts)}")
