"""Deterministic SVG rendering of point configurations.

Rendering is display-only: coordinates go through floats here and
nowhere else in the library.  Output contains no timestamps or other
run-dependent bytes, so identical inputs give identical files.
Points at infinity are drawn as arrows on the frame in their
direction, since the line at infinity itself has no place on a finite
canvas.
"""

from __future__ import annotations

from .richlines import PointSet, spanned_lines

CANVAS = 640.0
MARGIN = 60.0
LABEL_COLORS = {None: "#1f4e79", 1: "#1f4e79", 2: "#a63603", 3: "#1a7a3a"}


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _bbox(pts: list[tuple[float, float]]) -> tuple[float, float, float, float]:
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 < 1e-9:
        x0, x1 = x0 - 1.0, x1 + 1.0
    if y1 - y0 < 1e-9:
        y0, y1 = y0 - 1.0, y1 + 1.0
    return x0, y0, x1, y1


class _View:
    def __init__(self, pts: list[tuple[float, float]]):
        self.x0, self.y0, self.x1, self.y1 = _bbox(pts)
        self.sx = (CANVAS - 2 * MARGIN) / (self.x1 - self.x0)
        self.sy = (CANVAS - 2 * MARGIN) / (self.y1 - self.y0)

    def to_svg(self, x: float, y: float) -> tuple[float, float]:
        return (MARGIN + (x - self.x0) * self.sx,
                CANVAS - MARGIN - (y - self.y0) * self.sy)

    def clip_line(self, a: int, b: int, c: int):
        """Segment of aX + bY + c = 0 inside the bounding box, or None."""
        # coefficients past 53 bits are scaled by a power of two, which
        # is exact, so that every one of them converts to a float
        scale = 1 << max(0, max(abs(a), abs(b), abs(c)).bit_length() - 53)
        a, b, c = a / scale, b / scale, c / scale
        hits = []
        if b != 0:
            for x in (self.x0, self.x1):
                y = -(a * x + c) / b
                if self.y0 - 1e-9 <= y <= self.y1 + 1e-9:
                    hits.append((x, y))
        if a != 0:
            for y in (self.y0, self.y1):
                x = -(b * y + c) / a
                if self.x0 - 1e-9 <= x <= self.x1 + 1e-9:
                    hits.append((x, y))
        best, width = None, -1.0
        for i in range(len(hits)):
            for j in range(i + 1, len(hits)):
                d = (abs(hits[i][0] - hits[j][0])
                     + abs(hits[i][1] - hits[j][1]))
                if d > width:
                    width, best = d, (hits[i], hits[j])
        if best is None or width < 1e-9:
            return None
        return best


def render_pointset(ps: PointSet, mark_triple_lines: bool = False) -> str:
    """SVG document for a point set; optionally draw every triple line."""
    finite, infinite = [], []
    for idx, p in enumerate(ps.points):
        label = ps.labels[idx] if ps.labels else None
        try:
            if p.at_infinity:
                infinite.append((float(p.h[0]), float(p.h[1]), label))
            else:
                x, y = p.affine()
                finite.append((float(x), float(y), label))
        except OverflowError:
            raise ValueError(f"point {idx} has a coordinate beyond float "
                             f"range") from None
    if not finite:
        raise ValueError("nothing to draw: all points at infinity")
    view = _View([(x, y) for x, y, _ in finite])

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{int(CANVAS)}" height="{int(CANVAS)}" '
           f'viewBox="0 0 {int(CANVAS)} {int(CANVAS)}">',
           f'<rect x="{_fmt(MARGIN / 2)}" y="{_fmt(MARGIN / 2)}" '
           f'width="{_fmt(CANVAS - MARGIN)}" height="{_fmt(CANVAS - MARGIN)}" '
           'fill="white" stroke="#cccccc"/>']

    if mark_triple_lines:
        table = spanned_lines(ps)
        for a, b, c in sorted(table.entries):
            if a == 0 and b == 0:
                continue       # line at infinity: not drawable affinely
            seg = view.clip_line(a, b, c)
            if seg is None:
                continue
            (xa, ya), (xb, yb) = seg
            pa, pb = view.to_svg(xa, ya), view.to_svg(xb, yb)
            out.append(f'<path class="triple-line" '
                       f'd="M {_fmt(pa[0])} {_fmt(pa[1])} '
                       f'L {_fmt(pb[0])} {_fmt(pb[1])}" '
                       'stroke="#c08030" stroke-width="0.8" fill="none"/>')

    for x, y, label in finite:
        cx, cy = view.to_svg(x, y)
        out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3.2" '
                   f'fill="{LABEL_COLORS.get(label, "#1f4e79")}"/>')

    center = CANVAS / 2.0
    reach = CANVAS / 2.0 - MARGIN / 2.0
    for dx, dy, label in infinite:
        norm = max((dx * dx + dy * dy) ** 0.5, 1e-12)
        ux, uy = dx / norm, -dy / norm           # svg y points down
        tip = (center + reach * ux, center + reach * uy)
        tail = (center + (reach - 18.0) * ux, center + (reach - 18.0) * uy)
        wing = (-uy * 4.0, ux * 4.0)
        out.append(
            f'<path class="direction-arrow" d="M {_fmt(tail[0])} {_fmt(tail[1])} '
            f'L {_fmt(tip[0])} {_fmt(tip[1])} '
            f'M {_fmt(tip[0] - 6 * ux + wing[0])} {_fmt(tip[1] - 6 * uy + wing[1])} '
            f'L {_fmt(tip[0])} {_fmt(tip[1])} '
            f'L {_fmt(tip[0] - 6 * ux - wing[0])} {_fmt(tip[1] - 6 * uy - wing[1])}" '
            f'stroke="{LABEL_COLORS.get(label, "#1f4e79")}" '
            'stroke-width="1.2" fill="none"/>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
