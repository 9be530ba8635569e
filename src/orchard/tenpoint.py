"""Ten point configurations and their cantilever extensions.

A ten point configuration is grown from a collinear base triple
A0, B0, C0 and a step: successive chord-third operations on a cubic
produce A0..A2, B1..B4, C0..C2; B0 is not one of the ten points.
The index law is that A_i, B_j, C_k are collinear exactly when
i + k = j.  The ten points are the cantilever with M = 0.

Cantilever extension is pure incidence: only meets and joins of the
ten points, never the curve, so curve membership of the extended
points is a genuine prediction that the tests check independently.

Everything here is exact; the floating-point halving demo is
orchard.halving.
"""

from __future__ import annotations

from typing import Callable, Optional

from .cubics import fit_cubics
from .grouplaw import (ADDITIVE, CuspidalCubic, LawWitness, WeierstrassCurve,
                       WEIERSTRASS_IDENTITY, _law_witness)
from .projective import (DegenerateError, ProjPoint, Rat, _Frozen, _fraction,
                         collinear, join, meet)


class Cantilever(_Frozen):
    """The point tuples A_0 .. A_{M+2}, B_1 .. B_{M+4} and C_0 .. C_{M+2};
    with M = 0 they are the ten points of a configuration."""

    __slots__ = ("a_seq", "b_seq", "c_seq")

    def lattice_points(self) -> tuple[dict[int, ProjPoint],
                                      dict[int, ProjPoint],
                                      dict[int, ProjPoint]]:
        return (dict(enumerate(self.a_seq)), dict(enumerate(self.b_seq, 1)),
                dict(enumerate(self.c_seq)))

    def as_dict(self) -> dict[str, ProjPoint]:
        """The points by name: A0, A1, ..., then B1, ..., then C0, ..."""
        return {f"{fam}{i}": p
                for fam, mp in zip("ABC", self.lattice_points())
                for i, p in mp.items()}

    def points(self) -> list[ProjPoint]:
        return list(self.a_seq) + list(self.b_seq) + list(self.c_seq)


def _derive(third: Callable[[ProjPoint, ProjPoint], ProjPoint],
            a0: ProjPoint, c0: ProjPoint, b1: ProjPoint) -> Cantilever:
    a1 = third(b1, c0)
    c1 = third(b1, a0)
    b2 = third(a1, c1)
    a2 = third(b2, c0)
    c2 = third(b2, a0)
    b3 = third(a1, c2)
    b4 = third(a2, c2)
    cfg = Cantilever((a0, a1, a2), (b1, b2, b3, b4), (c0, c1, c2))
    pts = cfg.points()
    dup = [n for n, p in cfg.as_dict().items() if pts.count(p) > 1]
    if dup:
        raise DegenerateError(f"coincident derived points {dup}; "
                              "the step is too special for this base")
    return cfg


def build_tenpoint_cuspidal(a0: Rat, b0: Rat, c0: Rat,
                            delta: Rat) -> Cantilever:
    """Configuration on y = x^3 from base parameters with a0+b0+c0 = 0."""
    fa, fb, fc, fd = (_fraction(v) for v in (a0, b0, c0, delta))
    if fa + fb + fc != 0:
        raise ValueError("base parameters must sum to zero (collinear base)")
    if len({fa, fb, fc}) != 3:
        raise ValueError("base parameters must be distinct")
    if fd == 0:
        raise ValueError("step must be nonzero")
    params = ({fa - i * fd for i in range(3)} | {fc - k * fd for k in range(3)}
              | {fb + j * fd for j in range(1, 5)})
    if len(params) != 10:
        raise DegenerateError("coincident parameter values; "
                              "choose a less special step")
    curve = CuspidalCubic()
    return _derive(curve.third, curve.lift(fa), curve.lift(fc),
                   curve.lift(fb + fd))


def build_tenpoint_weierstrass(curve: WeierstrassCurve,
                               a0: ProjPoint, b0: ProjPoint, c0: ProjPoint,
                               delta: ProjPoint) -> Cantilever:
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
    return _derive(curve.third, a0, c0, curve.add(b0, delta))


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


def extend_cantilever(cfg: Cantilever, m: int) -> Cantilever:
    """Extend the ten points of a configuration to A_0..A_{m+2},
    B_1..B_{m+4}, C_0..C_{m+2} using only meets of joins of built
    points.

    A new point is the meet of two distinct lines A_x B_j C_k
    (x + k = j) through it whose other two points are already built.
    Normally these are the first two such lines, and the order of the
    pending points builds each on the first pass, from two joins; but
    when the sequences revisit a curve point the anchor pair
    degenerates (or two candidate lines collapse into one), so
    construction proceeds as a fixpoint over all pending indices,
    building whichever points currently have two good defining lines.
    If the fixpoint stalls, the remaining indices are reported.
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
    # A_i and C_i need B_i and B_{i+1}; B_{i+2} then meets A_2 C_i and
    # A_3 C_{i-1}
    pending = [(fam, i + 2 * (fam == "B")) for i in range(3, m + 3)
               for fam in "ACB"]
    while pending:
        stuck = []
        for fam, idx in pending:
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


def nine_point_check(cfg: Cantilever) -> bool:
    """Every cubic through the nine points other than B3 passes through
    B3, and B3 is the meet of the lines C1A2 and C2A1; for the ten
    points of a configuration only (M = 0)."""
    m = len(cfg.a_seq) - 3
    if m:
        raise ValueError("nine_point_check needs the ten points of a "
                         f"configuration (M = 0), not a cantilever with "
                         f"M = {m}")
    (a0, a1, a2), (b1, b2, b3, b4), (c0, c1, c2) = (cfg.a_seq, cfg.b_seq,
                                                    cfg.c_seq)
    basis = fit_cubics([a0, a1, a2, b1, b2, b4, c0, c1, c2])
    if not basis or not all(f.contains(b3) for f in basis):
        return False
    return meet(join(c1, a2), join(c2, a1)) == b3
