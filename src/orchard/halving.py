"""The parameter-halving demo on continuous arcs.

The halving argument is an intermediate-value existence argument on
three arcs, so unlike the rest of the library this module works in
floating point: it is a bounded bisection by design.  The exact
ten point configurations and cantilevers live in orchard.tenpoint.
"""

from __future__ import annotations

from typing import Callable, Optional

from .exact import _Frozen


class ConvergenceError(RuntimeError):
    """The halving bisection failed to reach its tolerance."""


class SampledArc(_Frozen):
    """Graph of a continuous function on an interval containing 0."""

    __slots__ = ("fn", "lo", "hi")

    def __init__(self, fn: Callable[[float], float], lo: float, hi: float):
        if not (lo < 0.0 < hi):
            raise ValueError("arc interval must contain 0")
        super().__init__(fn, lo, hi)

    def inside(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def standard_system_ok(alpha: SampledArc, beta: SampledArc,
                       gamma: SampledArc) -> bool:
    """Check of the ordering alpha < beta < gamma at 201 even samples of
    the common interval (the constructive part of the arc assumptions)."""
    lo = max(alpha.lo, beta.lo, gamma.lo)
    hi = min(alpha.hi, beta.hi, gamma.hi)
    if not lo < 0.0 < hi:
        return False
    for t in range(201):
        x = lo + (hi - lo) * t / 200
        if not alpha.fn(x) < beta.fn(x) < gamma.fn(x):
            return False
    return True


def _first_root(g: Callable[[float], Optional[float]], lo: float,
                hi: float, iters: int) -> Optional[float]:
    """The first root of g on [lo, hi] at 257 even samples, or None.

    A sample where g is 0 is returned as it is; the first sign change
    between two samples where g is defined is bisected until g is 0,
    the bracket is narrower than 1e-14 or iters midpoints have been
    tried, and the last midpoint is returned.  Samples where g is None
    are skipped; g None at a midpoint raises ConvergenceError.  A root
    where g touches 0 without changing sign between samples is not
    seen: _first_root(lambda x: x * x, -1.0, 0.999, 200) is None.
    """
    prev = None
    for t in range(257):
        x = lo + (hi - lo) * t / 256
        gx = g(x)
        if gx is None:
            continue
        if gx == 0.0:
            return x
        if prev is not None and prev[1] * gx < 0.0:
            break
        prev = (x, gx)
    else:
        return None
    (a, ga), b = prev, x
    mid = a
    for _ in range(iters):
        mid = 0.5 * (a + b)
        gm = g(mid)
        if gm is None:
            raise ConvergenceError("construction left the arcs "
                                   "mid-bisection")
        if gm == 0.0 or b - a < 1e-14:
            break
        if ga * gm < 0.0:
            b = mid
        else:
            a, ga = mid, gm
    return mid


def _line_arc_x(p: tuple[float, float], q: tuple[float, float],
                arc: SampledArc) -> Optional[float]:
    """x-coordinate where the line pq crosses the arc, None if it
    misses the arc's interval.  A line that only touches the arc,
    without crossing it, counts as a miss (see _first_root)."""
    x1, y1 = p
    x2, y2 = q
    if x1 == x2:
        return x1 if arc.inside(x1) else None
    slope = (y2 - y1) / (x2 - x1)
    return _first_root(lambda x: arc.fn(x) - (y1 + slope * (x - x1)),
                       arc.lo, arc.hi, 100)


def halve_parameter_demo(alpha: SampledArc, beta: SampledArc,
                         gamma: SampledArc, b_x: float,
                         tol: float = 1e-10,
                         max_iter: int = 200) -> tuple[float, float]:
    """Find P on the middle arc whose constructed image B(P) is the
    given point B; by the halving identity, P carries half B's group
    offset.  Returns P = (x, beta(x)).

    The construction: A(P) is where line P-C0 crosses the lower arc,
    C(P) where line P-A0 crosses the upper arc, and B(P) where line
    A(P)-C(P) returns to the middle arc.  B(P) = B is solved for P by
    bisection to the given tolerance.
    """
    if not standard_system_ok(alpha, beta, gamma):
        raise ValueError("arc assumptions violated: not a standard system")
    if not beta.inside(b_x):
        raise ValueError("target point is outside the middle arc")
    a0 = (0.0, alpha.fn(0.0))
    c0 = (0.0, gamma.fn(0.0))

    def gap(px: float) -> Optional[float]:
        # B(P)'s x minus B's; None where the construction leaves the arcs
        pp = (px, beta.fn(px))
        ax = _line_arc_x(pp, c0, alpha)
        cx = _line_arc_x(pp, a0, gamma)
        if ax is None or cx is None:
            return None
        bx = _line_arc_x((ax, alpha.fn(ax)), (cx, gamma.fn(cx)), beta)
        return None if bx is None else bx - b_x

    root = _first_root(gap, beta.lo, beta.hi, max_iter)
    if root is None:
        raise ConvergenceError("no bracketing interval: the target is "
                               "out of the construction's range")
    final = gap(root)
    if final is None or abs(final) > tol:
        raise ConvergenceError(f"bisection did not reach tolerance {tol}")
    return root, beta.fn(root)


def parallel_lines_arcs() -> tuple[SampledArc, SampledArc, SampledArc]:
    """Arcs on y = -1, 0, 1 over [-4, 4]: the additive halving demo
    instance."""
    return (SampledArc(lambda x: -1.0, -4.0, 4.0),
            SampledArc(lambda x: 0.0, -4.0, 4.0),
            SampledArc(lambda x: 1.0, -4.0, 4.0))


def three_lines_multiplicative_arcs() -> tuple[SampledArc, SampledArc,
                                               SampledArc]:
    """Arcs on y = -1, y = x, y = 1: the multiplicative halving demo.

    Collinearity of (a,-1), (b,b), (c,1) is (a+1) * (b-1)/(b+1) *
    1/(c-1) = 1, so middle-arc offsets against B0 = (0,0) multiply; the
    offset of the point (x, x) is (1-x)/(1+x).  The upper arc's
    interval is wider than the common ordering interval so that the
    constructed C(P) stays on-arc.
    """
    return (SampledArc(lambda x: -1.0, -0.9, 0.9),
            SampledArc(lambda x: x, -0.9, 0.9),
            SampledArc(lambda x: 1.0, -1.8, 1.8))


def middle_offset_multiplicative(x: float) -> float:
    """Group offset of (x, x) on the middle arc of the demo above."""
    return (1.0 - x) / (1.0 + x)
