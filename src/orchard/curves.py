"""Collinear triples across three algebraic curves, counted directly.

Sample x-values are lifted to exact rational points of each curve and
every cross-curve triple is tested with the collinearity determinant.
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
from math import comb, isqrt
from typing import Callable, Iterable, Optional, Sequence

from .projective import ProjLine, ProjPoint, Rat, mk_point
from .richlines import (InvariantViolation, PointSet, _rich_lines,
                        direction_count)


def _rational_sqrt(f: Fraction) -> Optional[Fraction]:
    if f < 0:
        return None
    np_, dp = f.numerator, f.denominator
    rn, rd = isqrt(np_), isqrt(dp)
    if rn * rn == np_ and rd * rd == dp:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class CurveSpec:
    """A plane curve with an exact point-lifting rule for sample x-values."""

    kind: str                 # graph-power | weierstrass | line | custom
    degree: int
    lift_fn: Callable[[Fraction], list[ProjPoint]]
    irreducible: bool
    label: str = ""

    def lift(self, x: Rat) -> list[ProjPoint]:
        pts = self.lift_fn(Fraction(x))
        return pts


def graph_power(d: int) -> CurveSpec:
    """y = x^d (the parabola for d = 2, the cuspidal cubic for d = 3)."""
    if d < 1:
        raise ValueError("graph_power needs degree >= 1")
    return CurveSpec("graph-power", d,
                     lambda x: [mk_point(x, x ** d)],
                     irreducible=True, label=f"y=x^{d}")


def parabola() -> CurveSpec:
    return graph_power(2)


def line_curve(l: ProjLine) -> CurveSpec:
    a, b, c = l.l

    def lift(x: Fraction) -> list[ProjPoint]:
        if b == 0:
            return []          # vertical line: no graph over x
        return [mk_point(x, Fraction(-(a * x + c), b))]

    return CurveSpec("line", 1, lift, irreducible=True,
                     label=f"line{l.l}")


def weierstrass_spec(a: Rat, b: Rat) -> CurveSpec:
    fa, fb = Fraction(a), Fraction(b)

    def lift(x: Fraction) -> list[ProjPoint]:
        y2 = x ** 3 + fa * x + fb
        y = _rational_sqrt(y2)
        if y is None:
            return []
        if y == 0:
            return [mk_point(x, 0)]
        return [mk_point(x, y), mk_point(x, -y)]

    return CurveSpec("weierstrass", 3, lift, irreducible=True,
                     label=f"y^2=x^3+{fa}x+{fb}")


def custom_curve(lift_fn: Callable[[Fraction], list[ProjPoint]],
                 degree: int, irreducible: bool,
                 membership: Optional[Callable[[ProjPoint], bool]] = None,
                 label: str = "custom") -> CurveSpec:
    """A user-supplied curve; lifted points are validated when a
    membership predicate is given."""

    def lift(x: Fraction) -> list[ProjPoint]:
        pts = lift_fn(x)
        if membership is not None:
            for p in pts:
                if not membership(p):
                    raise InvariantViolation(
                        f"lifting rule: {p} is not on the {label} curve")
        return pts

    return CurveSpec("custom", degree, lift, irreducible, label)


def lines_product_curve(lines: Sequence[ProjLine]) -> CurveSpec:
    """The degenerate curve that is a product of graph lines."""
    specs = [line_curve(l) for l in lines]

    def lift(x: Fraction) -> list[ProjPoint]:
        out = []
        for s in specs:
            out.extend(s.lift(x))
        return out

    return CurveSpec("custom", len(lines), lift, irreducible=False,
                     label=f"{len(lines)}-lines")


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
    total = 0
    masks = sorted(counts)
    for m1, m2, m3 in combinations_with_replacement(masks, 3):
        if not _matchable(m1, m2, m3):
            continue
        if m1 == m2 == m3:
            total += comb(counts[m1], 3)
        elif m1 == m2:
            total += comb(counts[m1], 2) * counts[m3]
        elif m2 == m3:
            total += counts[m1] * comb(counts[m2], 2)
        else:
            total += counts[m1] * counts[m2] * counts[m3]
    return total


def tripartite_curve_count(e: TripartiteExperiment) -> TripartiteCounts:
    """Exact count of collinear cross-curve point triples and of the
    distinct lines carrying at least one of them.

    A triple is three distinct lifted points assignable one-to-each
    part (points shared between parts count once).  Lines on which an
    irreducible part-curve exceeds its degree in lifted points violate
    the intersection bound and abort the experiment.
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
    members, _ = _rich_lines([p.h for p in points])
    triples = 0
    lines = 0
    for key, idxs in members.items():
        cnt: dict[int, int] = {}
        for i in idxs:
            m = masks[points[i]]
            cnt[m] = cnt.get(m, 0) + 1
        _check_degree_bound(e.curves, key, cnt)
        t = _triples_for_masks(cnt)
        if t:
            triples += t
            lines += 1
    return TripartiteCounts(triples, lines, tuple(failures))


def _check_degree_bound(curves, line_key, mask_counts):
    """Bezout sanity: an irreducible degree-d curve distinct from the
    line meets it in at most d points."""
    for part in (1, 2, 3):
        curve = curves[part - 1]
        if not curve.irreducible:
            continue
        on_part = sum(c for m, c in mask_counts.items()
                      if m & (1 << (part - 1)))
        if on_part > curve.degree and not _line_is(curve, line_key):
            raise InvariantViolation(
                f"degree bound: line {line_key} carries {on_part} points of "
                f"the irreducible degree-{curve.degree} curve {curve.label}")


def _line_is(curve: CurveSpec, line_key) -> bool:
    if curve.kind != "line":
        return False
    pts = [p for x in (0, 1, 2) for p in curve.lift(Fraction(x))]
    if len(pts) < 2:
        return False
    from .projective import join
    return join(pts[0], pts[1]).l == line_key


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
    members, _ = _rich_lines(sorted(p.h for p in pts))
    count = 0
    for key, idxs in members.items():
        m = len(idxs)
        if m >= 4:
            if curve.irreducible and m > curve.degree and not _line_is(curve, key):
                raise InvariantViolation(
                    f"degree bound: line {key} carries {m} points of the "
                    f"irreducible degree-{curve.degree} curve {curve.label}")
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
    return direction_count(PointSet(tuple(pts)))
