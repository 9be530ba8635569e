"""Exact line counts on lifted curve samples: the degree dichotomy.

Sample x-values are lifted to exact rational points of a curve, and
each experiment counts the lines through k or more of them as
richlines' row enumeration streams them by.  A counted line holds its
collinear lifted points outright, so no resultant is ever formed.  Each
counted line is held to Bezout's bound.  The sub-quadratic thresholds
of the dichotomy, quadruple-line and direction experiments are
recorded oracle baselines, evidence rather than verification.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .projective import ProjPoint, Rat, _Frozen, mk_point
from .richlines import (InvariantViolation, PointSet, _line, _rich_lines,
                        direction_count)


class CurveSpec(_Frozen):
    """An irreducible plane curve of the given degree whose lift_fn lifts
    a sample x-value (a Fraction) to its exact points; label names it."""

    __slots__ = ("degree", "lift_fn", "label")

    def lift(self, x: Rat) -> list[ProjPoint]:
        return self.lift_fn(Fraction(x))


def graph_power(d: int) -> CurveSpec:
    """y = x^d (the parabola for d = 2, the cuspidal cubic for d = 3)."""
    if d < 1:
        raise ValueError("graph_power needs degree >= 1")
    return CurveSpec(d, lambda x: [mk_point(x, x ** d)], f"y=x^{d}")


def _lifted(name: str, curve: CurveSpec,
            xs: Iterable[Rat]) -> list[ProjPoint]:
    """The distinct points lifted from xs, sorted by coordinates.  A
    sample must lift to two or more points to span a line."""
    pts = sorted({p for x in xs for p in curve.lift(x)}, key=lambda p: p.h)
    if len(pts) < 2:
        raise ValueError(f"{name} needs a sample that lifts to >= 2 points, "
                         f"not {len(pts)}")
    return pts


def _rich_line_count(name: str, curve: CurveSpec, xs: Iterable[Rat],
                     k: int) -> int:
    """Lines through k or more lifted sample points, each checked
    against the degree bound as it is counted."""
    hs = [p.h for p in _lifted(name, curve, xs)]
    count = 0
    for idxs in _rich_lines(hs):
        if len(idxs) >= k:
            _check_degree_bound(curve, hs, idxs)
            count += 1
    return count


def _check_degree_bound(curve, hs, idxs):
    """Bezout sanity: an irreducible degree-d curve distinct from the
    line through the curve points idxs of hs meets it in at most d
    points."""
    if len(idxs) > curve.degree:
        line_key = _line(hs, idxs[0], idxs[1])
        if not _line_is(curve, line_key):
            raise InvariantViolation(
                f"degree bound: line {line_key} carries {len(idxs)} points "
                f"of the irreducible degree-{curve.degree} curve "
                f"{curve.label}")


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


class DichotomyRow(_Frozen):
    __slots__ = ("degree", "n", "count", "ratio_n2")    # ratio_n2 = count / n^2


def dichotomy_experiment(degrees: Iterable[int],
                         sizes: Iterable[int]) -> list[DichotomyRow]:
    """Triple-line counts of {(i, i^d) : |i| <= n} per degree and size.

    Cubic rows stabilize near count/n^2 = 1/2; higher degrees stay
    sub-quadratic (degree 4 is exactly 0: no line meets y = x^4 in
    three real points).
    """
    sizes = list(sizes)
    rows = []
    for d in degrees:
        for n in sizes:
            if n < 1:
                raise ValueError(f"dichotomy_experiment needs n >= 1, not {n}")
            count = _rich_line_count("dichotomy_experiment", graph_power(d),
                                     range(-n, n + 1), 3)
            rows.append(DichotomyRow(d, n, count, Fraction(count, n * n)))
    return rows


def quadruple_experiment(curve: CurveSpec, xs: Iterable[Rat]) -> int:
    """Distinct lines containing at least four lifted sample points."""
    return _rich_line_count("quadruple_experiment", curve, xs, 4)


def few_directions_experiment(curve: CurveSpec, xs: Iterable[Rat]) -> int:
    """Number of distinct directions spanned by the lifted sample."""
    return direction_count(PointSet(
        _lifted("few_directions_experiment", curve, xs)))
