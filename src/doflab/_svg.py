"""Minimal deterministic SVG rendering for 2-D regions.

Presentation only: numeric artifacts are the CSV/JSON files.  Axes are
scaled to a caller-chosen maximum with unit gridlines.
"""

from __future__ import annotations

import math

_SIZE = 420.0
_MARGIN = 46.0

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def _sorted_polygon(points):
    """Order polygon corners counter-clockwise around their centroid."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) <= 2:
        return pts
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    return sorted(pts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))


class RegionFigure:
    """Accumulates polygons and labeled points, then renders one SVG."""

    def __init__(self, axis_max, title):
        self.axis_max = max(float(axis_max), 1.0)
        self.title = title
        self._polygons = []
        self._points = []
        self._lines = []

    def _map(self, x, y):
        scale = (_SIZE - 2 * _MARGIN) / self.axis_max
        return (_MARGIN + float(x) * scale, _SIZE - _MARGIN - float(y) * scale)

    def add_polygon(self, corners, label=""):
        self._polygons.append((list(corners), label))

    def add_point(self, x, y, label=""):
        self._points.append((float(x), float(y), label))

    def add_line(self, p, q, label=""):
        self._lines.append(((float(p[0]), float(p[1])), (float(q[0]), float(q[1])), label))

    def render(self) -> str:
        out = [
            '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
            'viewBox="0 0 %d %d">' % (_SIZE, _SIZE, _SIZE, _SIZE),
            '<rect width="100%" height="100%" fill="white"/>',
        ]
        # unit gridlines
        n = int(math.floor(self.axis_max + 1e-9))
        for i in range(n + 1):
            gx, _ = self._map(i, 0)
            _, gy = self._map(0, i)
            out.append(
                '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#dddddd" stroke-width="1"/>'
                % (gx, _SIZE - _MARGIN, gx, _MARGIN)
            )
            out.append(
                '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#dddddd" stroke-width="1"/>'
                % (_MARGIN, gy, _SIZE - _MARGIN, gy)
            )
            out.append(
                '<text x="%.2f" y="%.2f" font-size="10" text-anchor="middle" fill="#555555">%d</text>'
                % (gx, _SIZE - _MARGIN + 14, i)
            )
            out.append(
                '<text x="%.2f" y="%.2f" font-size="10" text-anchor="end" fill="#555555">%d</text>'
                % (_MARGIN - 6, gy + 3, i)
            )
        # axes
        ox, oy = self._map(0, 0)
        ax, _ = self._map(self.axis_max, 0)
        _, ay = self._map(0, self.axis_max)
        out.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black" stroke-width="1.5"/>' % (ox, oy, ax, oy))
        out.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black" stroke-width="1.5"/>' % (ox, oy, ox, ay))
        out.append('<text x="%.2f" y="%.2f" font-size="12" text-anchor="middle">d1</text>' % (ax + 16, oy + 4))
        out.append('<text x="%.2f" y="%.2f" font-size="12" text-anchor="middle">d2</text>' % (ox, ay - 10))
        out.append('<text x="%.2f" y="%.2f" font-size="13" text-anchor="middle">%s</text>' % (_SIZE / 2, 20, self.title))

        for idx, (corners, label) in enumerate(self._polygons):
            color = _PALETTE[idx % len(_PALETTE)]
            pts = [self._map(x, y) for x, y in _sorted_polygon(corners)]
            path = " ".join("%.2f,%.2f" % p for p in pts)
            out.append(
                '<polygon points="%s" fill="%s" fill-opacity="0.12" stroke="%s" stroke-width="1.5"/>'
                % (path, color, color)
            )
            if label and pts:
                lx, ly = max(pts, key=lambda p: p[0] - p[1])
                out.append(
                    '<text x="%.2f" y="%.2f" font-size="11" fill="%s">%s</text>'
                    % (lx + 4, ly - 4, color, label)
                )
        for (p, q, label) in self._lines:
            x1, y1 = self._map(*p)
            x2, y2 = self._map(*q)
            out.append(
                '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#888888" '
                'stroke-width="1" stroke-dasharray="5,3"/>' % (x1, y1, x2, y2)
            )
            if label:
                out.append(
                    '<text x="%.2f" y="%.2f" font-size="11" fill="#555555">%s</text>'
                    % ((x1 + x2) / 2 + 4, (y1 + y2) / 2 - 4, label)
                )
        for (x, y, label) in self._points:
            px, py = self._map(x, y)
            out.append('<circle cx="%.2f" cy="%.2f" r="3.5" fill="#d62728"/>' % (px, py))
            if label:
                out.append('<text x="%.2f" y="%.2f" font-size="11">%s</text>' % (px + 6, py - 6, label))
        out.append("</svg>")
        return "\n".join(out) + "\n"
