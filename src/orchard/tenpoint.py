"""Ten point configurations, cantilevers, and the parameter-halving demo.

A ten point configuration is grown from a collinear base triple
A0, B0, C0 and a step: successive chord-third operations on a cubic
produce A0..A2, B1..B4, C0..C2; B0 is not one of the ten points.
The index law is that A_i, B_j, C_k are collinear exactly when
i + k = j.

Cantilever extension is pure incidence: only meets and joins of the
ten points, never the curve, so curve membership of the extended
points is a genuine prediction that the tests check independently.

Everything is exact except the halving demo, which is a bounded
floating-point bisection by design (it realizes an intermediate-value
existence argument on continuous arcs).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .cubics import fit_cubics
from .grouplaw import (ADDITIVE, CuspidalCubic, LawWitness, WeierstrassCurve,
                       WEIERSTRASS_IDENTITY, _law_witness)
from .projective import (DegenerateError, ProjPoint, Rat, _Frozen, collinear,
                         join, meet)

POINT_NAMES = ("A0", "A1", "A2", "B1", "B2", "B3", "B4", "C0", "C1", "C2")


class ConvergenceError(RuntimeError):
    """The halving bisection failed to reach its tolerance."""


class TenPointConfig(_Frozen):
    __slots__ = tuple(name.lower() for name in POINT_NAMES)

    def as_dict(self) -> dict[str, ProjPoint]:
        return dict(zip(POINT_NAMES, self._fields()))

    def lattice_points(self) -> tuple[dict[int, ProjPoint],
                                      dict[int, ProjPoint],
                                      dict[int, ProjPoint]]:
        return ({0: self.a0, 1: self.a1, 2: self.a2},
                {1: self.b1, 2: self.b2, 3: self.b3, 4: self.b4},
                {0: self.c0, 1: self.c1, 2: self.c2})

    def points(self) -> list[ProjPoint]:
        return list(self._fields())


class Cantilever(_Frozen):
    # the point tuples A_0 .. A_{M+2}, B_1 .. B_{M+4} and C_0 .. C_{M+2}
    __slots__ = ("a_seq", "b_seq", "c_seq")

    def lattice_points(self):
        return ({i: p for i, p in enumerate(self.a_seq)},
                {j + 1: p for j, p in enumerate(self.b_seq)},
                {k: p for k, p in enumerate(self.c_seq)})

    def points(self) -> list[ProjPoint]:
        return list(self.a_seq) + list(self.b_seq) + list(self.c_seq)


def _derive(third: Callable[[ProjPoint, ProjPoint], ProjPoint],
            a0: ProjPoint, c0: ProjPoint, b1: ProjPoint) -> dict[str, ProjPoint]:
    a1 = third(b1, c0)
    c1 = third(b1, a0)
    b2 = third(a1, c1)
    a2 = third(b2, c0)
    c2 = third(b2, a0)
    b3 = third(a1, c2)
    b4 = third(a2, c2)
    return {"A0": a0, "A1": a1, "A2": a2, "B1": b1, "B2": b2, "B3": b3,
            "B4": b4, "C0": c0, "C1": c1, "C2": c2}


def _config_from(pts: dict[str, ProjPoint]) -> TenPointConfig:
    if len(set(pts.values())) != 10:
        dup = [n for n in POINT_NAMES
               if list(pts.values()).count(pts[n]) > 1]
        raise DegenerateError(f"coincident derived points {dup}; "
                              "the step is too special for this base")
    return TenPointConfig(*[pts[n] for n in POINT_NAMES])


def build_tenpoint_cuspidal(a0: Rat, b0: Rat, c0: Rat,
                            delta: Rat) -> TenPointConfig:
    """Configuration on y = x^3 from base parameters with a0+b0+c0 = 0."""
    fa, fb, fc, fd = (Fraction(v) for v in (a0, b0, c0, delta))
    if fa + fb + fc != 0:
        raise ValueError("base parameters must sum to zero (collinear base)")
    if len({fa, fb, fc}) != 3:
        raise ValueError("base parameters must be distinct")
    if fd == 0:
        raise ValueError("step must be nonzero")
    params = {"A0": fa, "A1": fa - fd, "A2": fa - 2 * fd,
              "B1": fb + fd, "B2": fb + 2 * fd, "B3": fb + 3 * fd,
              "B4": fb + 4 * fd,
              "C0": fc, "C1": fc - fd, "C2": fc - 2 * fd}
    if len(set(params.values())) != 10:
        raise DegenerateError("coincident parameter values; "
                              "choose a less special step")
    curve = CuspidalCubic()
    pts = _derive(curve.third, curve.lift(fa), curve.lift(fc),
                  curve.lift(fb + fd))
    return _config_from(pts)


def build_tenpoint_weierstrass(curve: WeierstrassCurve,
                               a0: ProjPoint, b0: ProjPoint, c0: ProjPoint,
                               delta: ProjPoint) -> TenPointConfig:
    """Configuration on y^2 = x^3 + ax + b from a collinear base chord."""
    for p in (a0, b0, c0, delta):
        if not curve.contains(p):
            raise ValueError(f"{p} is not on the curve")
    if len({a0, b0, c0}) != 3:
        raise ValueError("base points must be distinct")
    if not collinear(a0, b0, c0):
        raise ValueError("base points must be collinear")
    if delta == WEIERSTRASS_IDENTITY:
        raise ValueError("step must not be the identity")
    b1 = curve.add(b0, delta)
    pts = _derive(curve.third, a0, c0, b1)
    return _config_from(pts)


def lattice_witness(obj) -> Optional[LawWitness]:
    """The first A_i, B_j, C_k of three distinct points that breaks
    "collinear iff i + k = j", or None.

    A_i, B_j and C_k carry the additive values i, -j and k on pieces
    1, 2, 3.  A point that the sequences revisit (A_i = C_k whenever
    the parameter difference is an exact multiple of the step) is one
    point with several roles, and triples in which two of the points
    coincide are skipped: the index law speaks about three distinct
    points.
    """
    roles: dict[ProjPoint, list[tuple[int, int]]] = {}
    for piece, sign, mp in zip((1, 2, 3), (1, -1, 1), obj.lattice_points()):
        for idx, p in mp.items():
            roles.setdefault(p, []).append((piece, sign * idx))
    return _law_witness(list(roles), list(roles.values()), ADDITIVE)


def verify_lattice(obj) -> bool:
    """A_i, B_j, C_k collinear iff i + k = j, over all stored indices.

    Exhaustive: O(n^2) joins, then the member lists of the rich lines
    decide every triple (_law_witness).
    """
    return lattice_witness(obj) is None


def describe_lattice_witness(w: LawWitness) -> str:
    """The witness in lattice terms, e.g. "A3, B7, C4 collinear but
    3 + 4 != 7"."""
    i, j, k = w.values[0], -w.values[1], w.values[2]
    if w.collinear:
        return f"A{i}, B{j}, C{k} collinear but {i} + {k} != {j}"
    return f"A{i}, B{j}, C{k} not collinear but {i} + {k} == {j}"


def _incidence_meet(anchor_pairs, what: str) -> ProjPoint:
    """Meet of the first two distinct lines spanned by anchor pairs.

    Each pair spans a line known to pass through the sought point; the
    point sequences may revisit curve points, so coincident pairs (and
    repeated lines) are skipped rather than treated as fatal.
    """
    lines = []
    for p, q in anchor_pairs:
        if p == q:
            continue
        l = join(p, q)
        if l not in lines:
            lines.append(l)
        if len(lines) == 2:
            return meet(lines[0], lines[1])
    raise DegenerateError(f"fewer than two defining lines for {what}")


def extend_cantilever(cfg: TenPointConfig, m: int) -> Cantilever:
    """Extend to A_0..A_{m+2}, B_1..B_{m+4}, C_0..C_{m+2} using only
    meets of joins of built points.

    A new point is the meet of two distinct lines A_x B_j C_k
    (x + k = j) through it whose other two points are already built.
    Normally these are the lines anchored at indices 0 and 1, as in
    the plain recursion; but when the sequences revisit a curve point
    the anchor pair degenerates (or two candidate lines collapse into
    one), so construction proceeds as a fixpoint over all pending
    indices, building whichever points currently have two good
    defining lines.  If the fixpoint stalls, the remaining indices are
    reported.
    """
    if m < 0:
        raise ValueError("extension length must be >= 0")
    amap, bmap, cmap = cfg.lattice_points()

    def pairs_for(fam: str, idx: int):
        if fam == "A":
            return ((cmap[k], bmap[k + idx]) for k in sorted(cmap)
                    if k + idx in bmap)
        if fam == "C":
            return ((amap[x], bmap[x + idx]) for x in sorted(amap)
                    if x + idx in bmap)
        return ((amap[x], cmap[idx - x]) for x in sorted(amap)
                if idx - x in cmap)

    target = {"A": amap, "B": bmap, "C": cmap}
    pending = ([("A", i) for i in range(3, m + 3)]
               + [("C", i) for i in range(3, m + 3)]
               + [("B", j) for j in range(5, m + 5)])
    while pending:
        stuck = []
        for fam, idx in sorted(pending, key=lambda t: (t[1], t[0])):
            try:
                target[fam][idx] = _incidence_meet(pairs_for(fam, idx),
                                                   f"{fam}_{idx}")
            except DegenerateError:
                stuck.append((fam, idx))
        if len(stuck) == len(pending):
            raise DegenerateError(
                "cantilever recursion degenerate: cannot construct "
                + ", ".join(f"{f}_{i}" for f, i in sorted(stuck)))
        pending = stuck
    return Cantilever(tuple(amap[i] for i in range(m + 3)),
                      tuple(bmap[j] for j in range(1, m + 5)),
                      tuple(cmap[k] for k in range(m + 3)))


def nine_point_check(cfg: TenPointConfig) -> bool:
    """Every cubic through the nine points other than B3 passes through
    B3, and B3 is the meet of the lines C1A2 and C2A1."""
    nine = [p for n, p in cfg.as_dict().items() if n != "B3"]
    basis = fit_cubics(nine)
    if not basis or not all(f.contains(cfg.b3) for f in basis):
        return False
    return meet(join(cfg.c1, cfg.a2), join(cfg.c2, cfg.a1)) == cfg.b3


# --- continuous-arc demo ------------------------------------------------------

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
                       gamma: SampledArc, samples: int = 201) -> bool:
    """Sampled check of the ordering alpha < beta < gamma on the common
    interval (the constructive part of the arc assumptions)."""
    lo = max(alpha.lo, beta.lo, gamma.lo)
    hi = min(alpha.hi, beta.hi, gamma.hi)
    if not lo < 0.0 < hi:
        return False
    for t in range(samples):
        x = lo + (hi - lo) * t / (samples - 1)
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


def parallel_lines_arcs(span: float = 4.0) -> tuple[SampledArc, SampledArc,
                                                    SampledArc]:
    """Arcs on y = -1, 0, 1: the additive halving demo instance."""
    return (SampledArc(lambda x: -1.0, -span, span),
            SampledArc(lambda x: 0.0, -span, span),
            SampledArc(lambda x: 1.0, -span, span))


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
