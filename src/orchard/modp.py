"""The mod-_P row kernel of orchard.richlines, for inputs with a
coordinate of more than richlines._BIG_BITS bits: each join keyed by its
line mod a prime, which skips the gcds of multi-thousand-bit joins.
Only such an input loads this module (richlines._regime).
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Optional, Sequence

from .exact import _cross

if TYPE_CHECKING:
    from .richlines import Lines, Triple, Triples

# Big-coordinate rows key their joins by line mod _P, the largest prime
# below 2**30: every residue, product factor and divisor of _mod_keys is
# one 30-bit digit of a CPython int.  A key is a point of the pencil
# P^1(F_P) through the row's anchor, so a row of m joins repeats a key by
# chance with odds near m**2 / 2**31; _one_line_each catches each such
# split key.
_P = 2 ** 30 - 35


def _mod_keys(anchor: Triple, pts: Triples) -> Optional[list[int]]:
    """One residue per join from the anchor to pts, all reduced mod _P:
    the join's line mod _P as a point of the pencil through the anchor,
    or None if the anchor or a join is 0 mod _P.

    A line through the anchor is fixed by two of its entries (u, v), the
    two beside a coordinate of the anchor that is nonzero mod _P: the
    third follows from the line's dot product with the anchor.  With
    that coordinate turned last (a cyclic turn of all three turns the
    cross product alike), u and v are the line's first two entries, and
    the key is v / u mod _P, or _P when u = 0, so joins on one exact
    line share their key.  The row's inverses share one pow
    (Montgomery's batch inversion)."""
    p = _P
    x1, y1, z1 = anchor
    if not z1:
        if y1:
            turn = itemgetter(2, 0, 1)
        elif x1:
            turn = itemgetter(1, 2, 0)
        else:
            return None
        x1, y1, z1 = turn(anchor)
        pts = map(turn, pts)
    us, vs, prefix, acc = [], [], [], 1
    for x2, y2, z2 in pts:
        u = (y1 * z2 - z1 * y2) % p
        v = (z1 * x2 - x1 * z2) % p
        if not (u or v):
            return None
        us.append(u)
        vs.append(v)
        prefix.append(acc)
        if u:
            acc = acc * u % p
    inv = pow(acc, -1, p)              # 1 / (product of the nonzero u)
    keys = [p] * len(us)
    for k in range(len(us) - 1, -1, -1):
        u = us[k]
        if u:
            keys[k] = vs[k] * inv * prefix[k] % p
            inv = inv * u % p
    return keys


def _one_line_each(points: Triples, sizes: Sequence[int],
                   classes: Lines) -> bool:
    """True if each class [i, j...] of one mod-_P key (_group(i, ...))
    lies on one exact line, with points[m] the point and sizes[m] the
    coordinate bits of member m: the raw cross product of the two
    shortest members is dotted with each other one (no gcd); a point
    off it is a collision.  The members are ordered by the sizes, read
    from the list (a sort of a few keys in C costs less per class than
    two min scans)."""
    size = sizes.__getitem__
    for members in classes:
        first, second, *rest = sorted(members, key=size)
        a, b, c = _cross(points[first], points[second])
        for m in rest:
            x, y, z = points[m]
            if a * x + b * y + c * z:
                return False
    return True
